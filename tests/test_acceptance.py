"""Acceptance gate: the eight contract criteria, one visible verdict line each.

Each test prints `ACCEPTANCE <n> (<name>): PASS/FAIL [...]` straight to the
terminal (bypassing capture) and then asserts, so a plain `pytest -v` run
shows the eight verdicts alongside the test results.
"""

import math
import time

import numpy as np
import pytest

import oracles
from rotortomo import tomography
from rotortomo.angular import (
    assoc_legendre_norm,
    clebsch_gordan,
    coefficient_table,
    eigenfunction_rows,
    gauss_legendre_grid,
    wigner_d,
)
from rotortomo.rotor import (
    DensityBlock,
    RotorKind,
    RotorSpec,
    add_shot_noise,
    make_test_state,
    simulate_pr,
)
from rotortomo.tomography import (
    SamplingPlan,
    moment_integral,
    pattern_function,
    reconstruct_block,
)


def _verdict(capsys, n, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


def _simulate_auto(block, spec, n_periods=1):
    plan = SamplingPlan.derive(spec, block.j_max, n_periods=n_periods)
    return simulate_pr(block, spec, gauss_legendre_grid(plan.n_x), plan.n_t, n_periods)


def test_criterion_1_degeneracy_fidelity(capsys):
    # an element's chain and flags together are every partner on its line,
    # whatever the block's j_max; the scan reaches S = 40
    t0 = time.perf_counter()
    members = {}
    for m_min in (0, 1, 2):
        chains, flags = tomography._chains(RotorSpec(kind=RotorKind.RIGID, omega=1.0, m=m_min), 20, 1)
        members[m_min] = {
            pair: [(s, dj) for s, dj in chain + flags.get(pair, []) if s <= 40]
            for pair, chain in chains.items()
        }
    exact = (
        members[0][(5, 0)] == [(5, 5), (9, 3), (29, 1)]
        and members[0][(3, 0)] == [(3, 3), (11, 1)]
    )
    mismatches = 0
    checked = 0
    for m_min in (0, 1, 2):
        for alpha in range(2 * m_min, 21):
            for beta in range(1, alpha + 1):
                if (alpha - beta) % 2 or (alpha - beta) // 2 < m_min:
                    continue
                checked += 1
                got = members[m_min][((alpha + beta) // 2, (alpha - beta) // 2)]
                if got != oracles.degeneracy_scan(alpha, beta, m_min, 40):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = exact and mismatches == 0 and elapsed < 1.0
    _verdict(capsys, 1, "degeneracy fidelity", ok,
             f"{checked} probes, {mismatches} mismatches, {elapsed:.2f} s")
    assert exact and mismatches == 0
    assert elapsed < 1.0


def test_criterion_2_rigid_round_trip(capsys):
    t0 = time.perf_counter()
    worst_err = 0.0
    worst_res = 0.0
    for trial in range(20):
        m = trial % 3
        kind = "random-mixed" if trial % 2 == 0 else "random-pure"
        spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0, m=m)
        blk = make_test_state(kind, 0, m, 6, seed=100 + trial)
        grid = _simulate_auto(blk, spec)
        result = reconstruct_block(grid, spec, 6)
        worst_err = max(worst_err, float(np.max(np.abs(result.block.elements - blk.elements))))
        worst_res = max(worst_res, result.residual_inf)
    elapsed = time.perf_counter() - t0
    ok = worst_err < 1e-8 and worst_res < 1e-9 and elapsed < 30.0
    _verdict(capsys, 2, "rigid round trip", ok,
             f"20 blocks, max err {worst_err:.2e}, max residual {worst_res:.2e}, {elapsed:.1f} s")
    assert worst_err < 1e-8
    assert worst_res < 1e-9
    assert elapsed < 30.0


def test_criterion_3_symmetric_top_round_trip(capsys):
    t0 = time.perf_counter()
    spec = RotorSpec(kind=RotorKind.SYMTOP, omega=1.0, omega2=0.4, k=1, m=1)
    worst_err = 0.0
    for trial in range(5):
        blk = make_test_state("random-mixed", 1, 1, 5, seed=200 + trial)
        grid = _simulate_auto(blk, spec)
        result = reconstruct_block(grid, spec, 5)
        worst_err = max(worst_err, float(np.max(np.abs(result.block.elements - blk.elements))))

    # a k = 0 top and a linear rotor must run to the same answer
    top0 = RotorSpec(kind=RotorKind.SYMTOP, omega=1.0, omega2=0.4, k=0, m=1)
    rigid = RotorSpec(kind=RotorKind.RIGID, omega=1.0, m=1)
    blk = make_test_state("random-mixed", 0, 1, 5, seed=250)
    rec_top = reconstruct_block(_simulate_auto(blk, top0), top0, 5).block.elements
    rec_lin = reconstruct_block(_simulate_auto(blk, rigid), rigid, 5).block.elements
    path_gap = float(np.max(np.abs(rec_top - rec_lin)))
    elapsed = time.perf_counter() - t0
    ok = worst_err < 1e-8 and path_gap < 1e-11 and elapsed < 20.0
    _verdict(capsys, 3, "symmetric-top round trip", ok,
             f"5 blocks, max err {worst_err:.2e}, k=0 path gap {path_gap:.2e}, {elapsed:.1f} s")
    assert worst_err < 1e-8
    assert path_gap < 1e-11
    assert elapsed < 20.0


def test_criterion_4_centrifugal_path(capsys):
    t0 = time.perf_counter()
    spec = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=1e-3)
    blk = make_test_state("random-mixed", 0, 0, 5, seed=300)
    grid = _simulate_auto(blk, spec, n_periods=64)
    result = reconstruct_block(grid, spec, 5)
    err = float(np.max(np.abs(result.block.elements - blk.elements)))

    spec0 = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=0.0)
    rigid = RotorSpec(kind=RotorKind.RIGID, omega=1.0)
    blk0 = make_test_state("random-mixed", 0, 0, 4, seed=301)
    grid0 = _simulate_auto(blk0, spec0, n_periods=4)
    rec_cd = reconstruct_block(grid0, spec0, 4).block.elements
    grid_r = simulate_pr(blk0, rigid, grid0.x_grid, grid0.n_t, grid0.n_periods)
    rec_rigid = reconstruct_block(grid_r, rigid, 4).block.elements
    gap = float(np.max(np.abs(rec_cd - rec_rigid)))
    elapsed = time.perf_counter() - t0
    ok = err < 1e-6 and gap < 1e-10 and elapsed < 30.0
    _verdict(capsys, 4, "centrifugal path", ok,
             f"err {err:.2e}, D=0 gap vs rigid {gap:.2e}, {elapsed:.1f} s")
    assert err < 1e-6
    assert gap < 1e-10
    assert elapsed < 30.0


def test_criterion_5_diagonal_dual_method(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0)
    worst = 0.0
    for _ in range(10):
        blk = DensityBlock.zeros(0, 0, 8)
        pops = rng.dirichlet(np.ones(9))
        blk.elements[np.arange(9), np.arange(9)] = pops
        grid = _simulate_auto(blk, spec)
        direct = np.diag(reconstruct_block(grid, spec, 8).block.elements).real
        via_patterns = np.array([pattern_function(j, 0, 0, 8).apply(grid) for j in range(9)])
        worst = max(worst, float(np.max(np.abs(direct - via_patterns))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _verdict(capsys, 5, "diagonal dual method", ok,
             f"10 blocks, max gap {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_6_special_function_suite(capsys):
    t0 = time.perf_counter()
    tol = 1e-11
    defects = {}

    grid = gauss_legendre_grid(41)
    worst = 0.0
    for m in range(-8, 9):
        rows = np.array([assoc_legendre_norm(J, m, grid.nodes) for J in range(abs(m), 41)])
        gram = (rows * grid.weights) @ rows.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(rows))))))
    defects["legendre orthonormality"] = worst

    worst = 0.0
    for k, m in [(1, 1), (2, 1), (1, 0), (2, 2)]:
        lo = max(abs(k), abs(m))
        rows = np.array([wigner_d(J, k, m, grid.nodes) for J in range(lo, 41)])
        gram = (rows * grid.weights) @ rows.T
        scale = np.diag([2.0 / (2 * J + 1) for J in range(lo, 41)])
        worst = max(worst, float(np.max(np.abs(gram - scale))))
    defects["wigner orthogonality"] = worst

    x = np.linspace(-0.999, 0.999, 101)
    worst = 0.0
    for J in range(41):
        lhs = wigner_d(J, 0, 0, x) * math.sqrt((2 * J + 1) / 2.0)
        worst = max(worst, float(np.max(np.abs(lhs - assoc_legendre_norm(J, 0, x)))))
    defects["d00 reduction"] = worst

    worst = 0.0
    rng = np.random.default_rng(7)
    pairs = [(j1, j2) for j1 in range(21) for j2 in range(j1, 21)]
    for j1, j2 in pairs:
        for M in {0, int(rng.integers(-j2, j2 + 1))}:
            j3s = list(range(max(abs(j1 - j2), abs(M)), j1 + j2 + 1))
            m1s = [m1 for m1 in range(-j1, j1 + 1) if abs(M - m1) <= j2]
            mat = np.array(
                [[clebsch_gordan(j1, j2, j3, m1, M - m1, M) for j3 in j3s] for m1 in m1s]
            )
            worst = max(worst, float(np.max(np.abs(mat.T @ mat - np.eye(len(j3s))))))
    defects["cg unitarity"] = worst

    worst = 0.0
    xs = np.linspace(-0.97, 0.97, 33)
    for k, m, j1, j2 in [(0, 0, 6, 4), (0, 3, 7, 5), (1, 1, 6, 3), (2, 1, 5, 5), (0, -2, 6, 2), (-1, 2, 5, 3)]:
        lo = max(abs(k), abs(m))
        rows = eigenfunction_rows(max(j1, j2), k, m, xs)
        direct = rows[j1 - lo] * rows[j2 - lo]
        expand = np.zeros_like(xs)
        for L, c in enumerate(coefficient_table(k, m, max(j1, j2))[j1 - lo, j2 - lo]):
            expand += c * assoc_legendre_norm(L, 0, xs)
        worst = max(worst, float(np.max(np.abs(expand - direct))))
    defects["product completeness"] = worst

    elapsed = time.perf_counter() - t0
    worst_all = max(defects.values())
    ok = worst_all < tol and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in defects.items())
    _verdict(capsys, 6, "special functions", ok, f"{detail}, {elapsed:.1f} s")
    assert worst_all < tol, defects
    assert elapsed < 60.0


def test_criterion_7_hermiticity_and_linearity(capsys):
    t0 = time.perf_counter()
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0)

    # moment conjugation on arbitrary real data, not just simulated data;
    # n_t = 111 keeps the deepest probe here (alpha = 10, omega = 110) sampled
    x_grid = gauss_legendre_grid(20)
    rng = np.random.default_rng(11)
    from rotortomo.rotor import MeasurementGrid

    raw = MeasurementGrid(
        x_grid=x_grid,
        n_periods=1,
        values=rng.normal(size=(111, 20)),
        omega=1.0,
        kind=RotorKind.RIGID,
        k=0,
        m=0,
    )
    worst_herm = 0.0
    for alpha in range(0, 11):
        for beta in range(alpha % 2, alpha + 1, 2):  # probe pair levels must be integers
            plus = moment_integral(raw, alpha, beta, spec).value
            minus = moment_integral(raw, alpha, -beta, spec).value
            worst_herm = max(worst_herm, abs(plus - np.conj(minus)))

    # reconstruction linearity on convex combinations of simulated data
    a = make_test_state("random-mixed", 0, 0, 5, seed=70)
    b = make_test_state("random-pure", 0, 0, 5, seed=71)
    ga, gb = _simulate_auto(a, spec), _simulate_auto(b, spec)
    worst_lin = 0.0
    rec_a = reconstruct_block(ga, spec, 5).block.elements
    rec_b = reconstruct_block(gb, spec, 5).block.elements
    for lam in (0.25, 0.5, 0.9):
        mix = simulate_pr(a, spec, ga.x_grid, ga.n_t)
        mix.values = lam * ga.values + (1 - lam) * gb.values
        rec_mix = reconstruct_block(mix, spec, 5).block.elements
        worst_lin = max(worst_lin, float(np.max(np.abs(rec_mix - lam * rec_a - (1 - lam) * rec_b))))
    elapsed = time.perf_counter() - t0
    ok = worst_herm < 1e-10 and worst_lin < 1e-9
    _verdict(capsys, 7, "hermiticity and linearity", ok,
             f"conjugation {worst_herm:.2e}, linearity {worst_lin:.2e}, {elapsed:.1f} s")
    assert worst_herm < 1e-10
    assert worst_lin < 1e-9


def test_criterion_8_noise_sanity(capsys):
    t0 = time.perf_counter()
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0)
    truth = make_test_state("cos2-kicked", 0, 0, 3, kick_strength=1.2)
    exact = _simulate_auto(truth, spec)
    big = np.abs(truth.elements) > 0.05  # the elements the check applies to
    n_boot = 40
    samples = 10**6

    hits = 0
    total = 0
    for trial in range(50):
        noisy = add_shot_noise(exact, samples, seed=1000 + trial)
        rec = reconstruct_block(noisy, spec, 3).block.elements
        boots = np.empty((n_boot,) + rec.shape, dtype=complex)
        for b in range(n_boot):
            resampled = add_shot_noise(noisy, samples, seed=10**6 + 997 * trial + b)
            boots[b] = reconstruct_block(resampled, spec, 3).block.elements
        se = np.sqrt(np.var(boots.real, axis=0) + np.var(boots.imag, axis=0))
        dev = np.abs(rec - truth.elements)
        ok_mask = dev[big] <= 5.0 * se[big]
        hits += int(np.sum(ok_mask))
        total += int(ok_mask.size)
    frac = hits / total
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.95 and elapsed < 300.0
    _verdict(capsys, 8, "noise sanity", ok,
             f"{hits}/{total} element checks within 5 SE ({100 * frac:.1f}%), {elapsed:.1f} s")
    assert frac >= 0.95
    assert elapsed < 300.0
