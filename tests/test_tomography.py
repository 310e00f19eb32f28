"""Degeneracy chains, moments, and the full inverse engine."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oracles
from rotortomo import angular, rotor, tomography
from rotortomo.angular import (
    J_CAP,
    N_X_CAP,
    coefficient_table,
    gauss_legendre_grid,
)
from rotortomo.cli import main
from rotortomo.rotor import (
    DensityBlock,
    RotorKind,
    RotorSpec,
    add_shot_noise,
    energy,
    make_test_state,
    simulate_pr,
)
from rotortomo.tomography import (
    SamplingError,
    SamplingPlan,
    moment_integral,
    pattern_function,
    probe_frequency,
    reconstruct_block,
)

RIGID = RotorSpec(kind=RotorKind.RIGID, omega=1.0)


def _spec(kind=RotorKind.RIGID, omega=1.0, k=0, m=0, d_cd=0.0, omega2=0.0):
    return RotorSpec(kind=kind, omega=omega, omega2=omega2, d_cd=d_cd, k=k, m=m)


def _simulate(block, spec, n_periods=1):
    plan = SamplingPlan.derive(spec, block.j_max, n_periods=n_periods)
    return simulate_pr(block, spec, gauss_legendre_grid(plan.n_x), plan.n_t, n_periods)


# ------------------------------------------------------------------- chains


def _members(spec, j_max, n_periods=1):
    """Every element's partners on its line: its chain, then its flags."""
    chains, flags = tomography._chains(spec, j_max, n_periods)
    return {pair: chain + flags.get(pair, []) for pair, chain in chains.items()}


def test_worked_degeneracy_chains():
    members = _members(RIGID, 5)
    assert members[(5, 0)] == [(5, 5), (9, 3), (29, 1)]
    assert members[(3, 0)] == [(3, 3), (11, 1)]
    assert members[(1, 0)] == [(1, 1)]


def test_chain_splits_members_at_the_cap():
    # (9, 3) is the level pair (6, 3) and (29, 1) the pair (15, 14): a member
    # joins the chain once the block holds its upper level, and is a flag before
    for j_max, chain, flag in [
        (5, [(5, 5)], [(9, 3), (29, 1)]),
        (6, [(5, 5), (9, 3)], [(29, 1)]),
        (14, [(5, 5), (9, 3)], [(29, 1)]),
    ]:
        chains, flags = tomography._chains(RIGID, j_max, 1)
        assert (chains[(5, 0)], flags[(5, 0)]) == (chain, flag)
    chains, flags = tomography._chains(RIGID, 15, 1)
    assert chains[(5, 0)] == [(5, 5), (9, 3), (29, 1)] and (5, 0) not in flags


def test_chain_member_level_labels():
    # a member (S', DJ') is the level pair ((S' + DJ') / 2, (S' - DJ') / 2):
    # (9, 3) on the line of (5, 0) is the pair (6, 3), and a rigid rotor's
    # members share their element's line exactly
    assert _members(RIGID, 15)[(5, 0)][1] == (9, 3)
    assert ((9 + 3) // 2, (9 - 3) // 2) == (6, 3)
    for (j1, j2), members in _members(RIGID, 15).items():
        for s, d in members:
            assert (s + d) % 2 == 0, (j1, j2, s, d)
            hi, lo = (s + d) // 2, (s - d) // 2
            assert energy(RIGID, hi) - energy(RIGID, lo) == energy(RIGID, j1) - energy(RIGID, j2)


def test_chains_match_exhaustive_scan():
    for m_min in (0, 1, 2):
        members = _members(_spec(m=m_min), 12)
        for (j1, j2), got in members.items():
            if j1 + j2 > 12:
                continue
            want = oracles.degeneracy_scan(j1 + j2, j1 - j2, m_min, 40)
            assert [p for p in got if p[0] <= 40] == want, (j1, j2, m_min)


def test_chains_without_parity_filter_match_scan():
    # k != 0 and m != 0 lift the S == alpha (mod 2) restriction
    for k, m in [(1, 1), (2, 1), (-1, 2)]:
        spec = _spec(RotorKind.SYMTOP, k=k, m=m)
        for (j1, j2), got in _members(spec, 8).items():
            want = oracles.degeneracy_scan(j1 + j2, j1 - j2, spec.m_min, 40, parity=False)
            assert [p for p in got if p[0] <= 40] == want, (k, m, j1, j2)
    # frozen instances: without the parity filter the (3, 1) element gains the
    # odd-S member (9, 1), the level pair (5, 4)
    assert _members(_spec(RotorKind.SYMTOP, k=1, m=1), 5)[(3, 1)] == [(4, 2), (9, 1)]
    assert _members(_spec(m=1), 5)[(3, 1)] == [(4, 2)]


def test_chains_follow_the_coefficient_tables_parity():
    # a k != 0, m = 0 table keeps parity: a partner of the other parity than
    # alpha has a zero coefficient at alpha, and no chain or flag names one
    for k in (1, -1, 2, 3):
        spec = _spec(RotorKind.SYMTOP, k=k)
        assert angular.keeps_parity(k, 0)
        dropped = []
        for (j1, j2), got in _members(spec, 12).items():
            alpha, beta = j1 + j2, j1 - j2
            assert all((s - alpha) % 2 == 0 for s, _ in got)
            # two periods: a bin is omega, half the spacing of exact lines
            every = oracles.line_scan(spec, alpha, beta, 2, parity=False)
            assert [p for p in every if (p[0] - alpha) % 2 == 0] == got
            dropped += [(s, dj, alpha) for s, dj in every if (s - alpha) % 2]
        assert dropped
        tensor = coefficient_table(k, 0, max(s + dj for s, dj, _ in dropped) // 2)
        for s, dj, alpha in dropped:
            assert tensor[(s + dj) // 2 - spec.m_min, (s - dj) // 2 - spec.m_min, alpha] == 0.0


def test_chains_of_the_largest_rigid_block_stay_small():
    # only candidates within a bin of the elements' lines are sorted; the
    # peak measured 19.7 MiB, bound +11%
    tracemalloc.start()
    try:
        tomography._chains(RIGID, 100, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22 * 2**20


def test_chain_ordering_is_strictly_decreasing_in_dj():
    for (j1, j2), members in _members(RIGID, 14).items():
        djs = [dj for _, dj in members]
        assert djs == sorted(set(djs), reverse=True)
        assert members[0] == (j1 + j2, j1 - j2)


@pytest.mark.parametrize("d_cd", [0.0, 1e-10, 1e-4, 1e-3])
@pytest.mark.parametrize("n_periods", [1, 4, 16, 64])
def test_centrifugal_chains_match_line_scan(d_cd, n_periods):
    for m in (0, 1):
        spec = _spec(RotorKind.CENTRIFUGAL, d_cd=d_cd, m=m)
        for (j1, j2), got in _members(spec, 6, n_periods).items():
            assert got == oracles.line_scan(spec, j1 + j2, j1 - j2, n_periods), (j1, j2)


def test_cd_chains_split_rigid_degeneracies():
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=1e-3)
    assert _members(spec, 5, 64)[(5, 0)] == [(5, 5)]  # (9,3) and (29,1) are detuned past a bin
    assert {(5, 5), (9, 3)} <= set(_members(spec, 5, 1)[(5, 0)])


def test_cd_chains_with_zero_distortion_match_rigid():
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=0.0)
    for j_max, n_periods in [(5, 1), (8, 4), (10, 64)]:
        assert tomography._chains(spec, j_max, n_periods) == tomography._chains(RIGID, j_max, n_periods)


def test_cd_chains_drop_lines_one_bin_away():
    # at one period a bin is 2 omega, the spacing of neighbouring lines, where
    # the window kernel is zero: (9,1) sits 2 omega below the (3,0) element
    # and (10,2), the level pair (6,4), 2 omega above the (4,0) one, and
    # neither is on its line.  Any distortion pulls (10,2) 964 d_cd inside
    # the bin, and it is
    spec0 = _spec(RotorKind.CENTRIFUGAL, d_cd=0.0)
    assert _members(spec0, 6)[(3, 0)] == [(3, 3), (11, 1)]
    assert _members(spec0, 6)[(4, 0)] == [(4, 4)]
    tiny = _spec(RotorKind.CENTRIFUGAL, d_cd=1e-10)
    assert _members(tiny, 6)[(4, 0)] == [(4, 4), (10, 2)]
    blk = make_test_state("random-mixed", 0, 0, 6, seed=1)
    cd = reconstruct_block(_simulate(blk, spec0), spec0, 6)
    rigid = reconstruct_block(_simulate(blk, RIGID), RIGID, 6)
    assert cd.chains == rigid.chains and cd.flags == rigid.flags
    assert cd.chains[(3, 0)] == [(3, 3), (11, 1)]


def test_cd_scan_respects_monotone_limit():
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=1e-3)  # spectrum turns over past J = 21
    assert rotor.monotone_j_limit(spec) == 21
    members = _members(spec, 10)
    assert max((s + dj) // 2 for chain in members.values() for s, dj in chain) == 21
    # the folded spectrum puts (38, 8), the level pair (23, 15), within a bin
    # of the (8, 0) element's line, but past the turning point
    e = [energy(spec, j) for j in (8, 0, 23, 15)]
    assert abs((e[2] - e[3]) - (e[0] - e[1])) < 2.0
    assert (38, 8) not in members[(8, 0)]


# ------------------------------------------------------------------- moments


def test_probe_frequency_rigid_and_exact_cd():
    assert probe_frequency(RIGID, 5, 5) == 30.0
    assert probe_frequency(RIGID, 5, -5) == -30.0
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=1e-3)
    # target pair of (5, 1) is (3, 2): probe sits on the exact level difference
    want = (12 - 1e-3 * 144) - (6 - 1e-3 * 36)
    assert probe_frequency(spec, 5, 1) == pytest.approx(want, abs=1e-15)


def test_zero_frequency_moment_is_scaled_trace():
    blk = make_test_state("random-mixed", 0, 0, 4, seed=1)
    grid = _simulate(blk, RIGID)
    moment = moment_integral(grid, 0, 0, RIGID)
    assert moment.value == pytest.approx(blk.trace() / math.sqrt(2), abs=1e-12)
    assert abs(moment.value.imag) < 1e-14


def test_moment_picks_out_single_element():
    # one coherence: I(S, dJ) = c_S(S, dJ) * rho(J1, J2)
    blk = DensityBlock.zeros(0, 0, 4)
    blk.elements[blk.index(3), blk.index(1)] = 0.2 - 0.1j
    blk.elements[blk.index(1), blk.index(3)] = 0.2 + 0.1j
    spec = RIGID
    grid = _simulate(blk, spec)
    c = coefficient_table(0, 0, 3)[3, 1, 4]
    moment = moment_integral(grid, 4, 2, spec)
    assert moment.value == pytest.approx(c * (0.2 - 0.1j), abs=1e-12)
    # the conjugate probe returns the conjugate element
    conj = moment_integral(grid, 4, -2, spec)
    assert conj.value == pytest.approx(c * (0.2 + 0.1j), abs=1e-12)
    # an off-resonance probe sees nothing
    off = moment_integral(grid, 4, 4, spec)
    assert abs(off.value) < 1e-13


def test_moment_hermiticity_on_random_data():
    blk = make_test_state("random-mixed", 0, 1, 5, seed=3)
    spec = _spec(m=1)
    grid = _simulate(blk, spec)
    for alpha, beta in [(2, 2), (5, 1), (7, 3), (4, 0)]:
        plus = moment_integral(grid, alpha, beta, spec).value
        minus = moment_integral(grid, alpha, -beta, spec).value
        assert abs(plus - np.conj(minus)) < 1e-13


def test_moment_validation():
    blk = make_test_state("random-mixed", 0, 0, 3, seed=0)
    grid = _simulate(blk, RIGID)
    with pytest.raises(ValueError):
        moment_integral(grid, -1, 0, RIGID)
    with pytest.raises(ValueError):
        moment_integral(grid, 2, 3, RIGID)
    with pytest.raises(SamplingError):
        moment_integral(grid, 2 * grid.n_x + 2, 0, RIGID)  # projection too deep
    coarse = simulate_pr(blk, RIGID, grid.x_grid, n_t=3)
    with pytest.raises(SamplingError):
        moment_integral(coarse, 3, 3, RIGID)  # 12 rad/time undersampled
    # the same checks hold for every entry of an array call
    for alpha, beta, error in [
        ([2, -1], [0, 0], ValueError),  # negative alpha
        ([2, 2], [0, 4], ValueError),  # |beta| > alpha
        ([2, 4], [0, 1], ValueError),  # parity
        ([2, 2 * grid.n_x + 2], [0, 0], SamplingError),
    ]:
        with pytest.raises(error):
            moment_integral(grid, np.array(alpha), np.array(beta), RIGID)
    with pytest.raises(SamplingError):
        moment_integral(coarse, np.array([2, 3]), np.array([0, 3]), RIGID)
    with pytest.raises(ValueError, match="shape"):
        moment_integral(grid, np.array([2, 2]), np.array([0]), RIGID)
    cd = _spec(RotorKind.CENTRIFUGAL, m=2)
    cd_grid = simulate_pr(make_test_state("random-mixed", 0, 2, 3, seed=0), cd, grid.x_grid, 40)
    with pytest.raises(ValueError, match="no level below"):
        moment_integral(cd_grid, np.array([4, 4]), np.array([0, 2]), cd)  # pair (3, 1)


@pytest.mark.parametrize(
    "spec,n_periods",
    [(RIGID, 1), (_spec(m=1), 3), (_spec(RotorKind.SYMTOP, omega2=0.3, k=1, m=1), 2),
     (_spec(RotorKind.CENTRIFUGAL, d_cd=1e-4), 4)],
    ids=["rigid", "rigid-m1-p3", "symtop-p2", "centrifugal-p4"],
)
def test_vectorised_moments_match_scalar_calls(spec, n_periods):
    blk = make_test_state("random-mixed", spec.k, spec.m, 5, seed=9)
    grid = _simulate(blk, spec, n_periods)
    # every ordered level pair (J1, J2) of the block: beta = J1 - J2 of both signs
    levels = range(spec.m_min, 6)
    probes = [(j1 + j2, j1 - j2) for j1 in levels for j2 in levels]
    alphas, betas = np.array(probes).T
    many = moment_integral(grid, alphas, betas, spec)
    one = [moment_integral(grid, int(a), int(b), spec) for a, b in probes]
    assert np.max(np.abs(many.value - [m.value for m in one])) <= 1e-15
    assert np.array_equal(many.omega, [m.omega for m in one])
    assert isinstance(one[0].value, complex) and isinstance(one[0].alpha, int)
    square = moment_integral(grid, alphas[:4].reshape(2, 2), betas[:4].reshape(2, 2), spec)
    assert square.value.shape == (2, 2)
    assert np.array_equal(square.value.ravel(), many.value[:4])


# ------------------------------------------------------------------ diagonal


def _bin0_matrix(k, m, cap):
    """D[alpha, J] = c_alpha(J, J) for alpha = 0 .. 2 cap, in closed form."""
    js = range(max(abs(k), abs(m)), cap + 1)
    return np.array([[oracles.c_l_closed(k, m, J, J, a) for J in js] for a in range(2 * cap + 1)])


def test_pattern_rows_match_closed_form_inverse():
    # k = m = 0: the bin-0 system is square, the old triangular one, so the
    # rows are its inverse's, keyed by alpha = 2J
    for j1 in range(7):
        ours = pattern_function(j1, 0, 0, 6).coeffs
        ref = {2 * J: c for J, c in oracles.pattern_row(0, 0, 6, j1).items()}
        for alpha in set(ours) | set(ref):
            assert ours.get(alpha, 0.0) == pytest.approx(ref.get(alpha, 0.0), abs=1e-10)
    # other channels have more orders than populations: least squares
    for k, m, cap in [(0, 2, 7), (1, 1, 5)]:
        pinv = scipy.linalg.lstsq(_bin0_matrix(k, m, cap), np.eye(2 * cap + 1))[0]
        for j1 in range(max(abs(k), abs(m)), cap + 1):
            ours = pattern_function(j1, k, m, cap).coeffs
            want = pinv[j1 - max(abs(k), abs(m))]
            got = np.array([ours.get(alpha, 0.0) for alpha in range(2 * cap + 1)])
            assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("k, m, cap", [(0, 0, 6), (0, 0, 14), (0, 0, 20)])
def test_pattern_rows_match_scipy_triangular_solve(k, m, cap):
    # M[a, J] = c_2a(J, J), upper triangular: rows alpha = 2a are all of bin 0 when k = m = 0
    # the fit reads the block's tensor, so the reference does too
    mat = np.diagonal(coefficient_table(k, m, cap))[::2]
    for j1 in range(cap + 1):
        e = np.zeros(mat.shape[0])
        e[j1] = 1.0
        want = scipy.linalg.solve_triangular(mat.T, e, lower=True)
        coeffs = pattern_function(j1, k, m, cap).coeffs
        got = np.array([coeffs.get(2 * j, 0.0) for j in range(mat.shape[0])])
        assert set(coeffs) <= set(range(0, 2 * cap + 1, 2))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("k, m, cap", [(0, 2, 10), (0, 3, 14), (1, 1, 8), (2, -1, 9)])
def test_pattern_rows_match_a_scipy_least_squares_solve(k, m, cap):
    # bin 0 holds every order up to 2 cap, also those below 2 m_min
    mat = _bin0_matrix(k, m, cap)
    pinv = scipy.linalg.lstsq(mat, np.eye(mat.shape[0]))[0]
    m_min = max(abs(k), abs(m))
    for j1 in range(m_min, cap + 1):
        want = pinv[j1 - m_min]
        coeffs = pattern_function(j1, k, m, cap).coeffs
        got = np.array([coeffs.get(alpha, 0.0) for alpha in range(mat.shape[0])])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.allclose(got @ mat, np.eye(cap - m_min + 1)[j1 - m_min], atol=1e-13)


def test_diagonal_two_routes_agree():
    rng = np.random.default_rng(6)
    for trial in range(4):
        blk = DensityBlock.zeros(0, 0, 6)
        pops = rng.dirichlet(np.ones(7))
        blk.elements[np.arange(7), np.arange(7)] = pops
        grid = _simulate(blk, RIGID)
        direct = np.diag(reconstruct_block(grid, RIGID, 6).block.elements).real
        via_patterns = np.array(
            [pattern_function(j, 0, 0, 6).apply(grid) for j in range(7)]
        )
        assert np.max(np.abs(direct - pops)) < 1e-11
        assert np.max(np.abs(direct - via_patterns)) < 1e-11


def test_diagonal_recovers_nonzero_m_channel():
    spec = _spec(m=2)
    blk = make_test_state("random-mixed", 0, 2, 6, seed=8)
    grid = _simulate(blk, spec)
    got = np.diag(reconstruct_block(grid, spec, 6).block.elements).real
    want = np.real(np.diag(blk.elements))
    assert np.max(np.abs(got - want)) < 1e-11


def test_pattern_function_range_check():
    with pytest.raises(ValueError):
        pattern_function(0, 0, 2, 5)  # j1 below the channel floor


# -------------------------------------------------------------- off-diagonal


def test_offdiag_round_trip_rigid():
    blk = make_test_state("random-mixed", 0, 0, 5, seed=4)
    grid = _simulate(blk, RIGID)
    result = reconstruct_block(grid, RIGID, 5)
    op = tomography._probe_operator(RIGID, 5, 1, grid.n_t)
    # the zero line's label is its deepest pair, so the probes reach order 2 j_max
    assert tuple(op.probes[0]) == (2 * 5, 0)
    # the chains are the block pairs, nothing deeper
    pairs = {(j1, j2) for j1 in range(6) for j2 in range(j1)}
    assert set(result.chains) == set(op.chains) == pairs
    assert result.chains == op.chains
    for j1, j2 in result.chains:
        assert result.block.element(j1, j2) == pytest.approx(blk.element(j1, j2), abs=1e-11)
    assert all((s + dj) // 2 <= 5 for chain in result.chains.values() for s, dj in chain)


def test_offdiag_reports_deep_members_beyond_block():
    # the (5,0) element's chain passes through (9,3) = levels (6,3) and
    # (29,1) = levels (15,14): outside a j_max = 5 block, so they are taken
    # as zero and reported as the element's flags
    blk = make_test_state("random-pure", 0, 0, 5, seed=2)
    grid = _simulate(blk, RIGID)
    result = reconstruct_block(grid, RIGID, 5)
    assert result.flags[(5, 0)] == [(9, 3), (29, 1)]
    assert result.chains[(5, 0)] == [(5, 5)]
    assert np.max(np.abs(result.block.elements - blk.elements)) < 1e-11


def test_offdiag_flags_truncated_chains():
    # a j_max = 7 block keeps (9,3) = levels (6,3) inside the (5,0) chain
    blk = make_test_state("random-mixed", 0, 0, 7, seed=5)
    grid = _simulate(blk, RIGID)
    # partners outside the block hold no population here, so values stay exact
    result = reconstruct_block(grid, RIGID, 7)
    assert result.chains[(5, 0)] == [(5, 5), (9, 3)]
    assert result.flags[(5, 0)] == [(29, 1)]
    for j1, j2 in result.chains:
        assert result.block.element(j1, j2) == pytest.approx(blk.element(j1, j2), abs=1e-11)


def test_chains_are_enumerated_once_per_block_pair(monkeypatch):
    # the operator enumerates every upper-triangle pair's chain in one scan
    # per grid shape; every later reconstruction of that shape reuses them
    calls = []
    enumerate_chains = tomography._chains

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_chains(*args, **kwargs)

    monkeypatch.setattr(tomography, "_chains", counted)
    for spec, j_max in [(RIGID, 5), (_spec(m=1), 6), (_spec(RotorKind.SYMTOP, k=1, m=1), 4)]:
        blk = make_test_state("random-mixed", spec.k, spec.m, j_max, seed=3)
        grid = _simulate(blk, spec)
        monkeypatch.setattr(tomography, "_operators", {})
        calls.clear()
        for _ in range(2):
            result = reconstruct_block(grid, spec, j_max)
        assert len(calls) == 1
        n_levels = j_max - spec.m_min + 1
        assert len(result.chains) == n_levels * (n_levels - 1) // 2
        assert np.max(np.abs(result.block.elements - blk.elements)) < 1e-11


def test_results_share_no_mutable_state_with_the_operator_memo():
    blk = make_test_state("random-pure", 0, 0, 5, seed=2)
    grid = _simulate(blk, RIGID)
    result = reconstruct_block(grid, RIGID, 5)
    result.flags[(5, 0)].append((1, 1))
    result.chains[(5, 0)].append((1, 1))
    again = reconstruct_block(grid, RIGID, 5)
    assert again.flags[(5, 0)] == [(9, 3), (29, 1)]
    assert again.chains[(5, 0)] == [(5, 5)]


def test_one_reconstruct_builds_the_analysis_rows_once():
    # one moment call reads every order up to the plan's alpha_max
    blk = make_test_state("random-mixed", 0, 0, 14, seed=4)
    grid = _simulate(blk, RIGID)
    tomography._analysis_rows.cache_clear()
    reconstruct_block(grid, RIGID, 14)
    assert tomography._analysis_rows.cache_info().misses == 1


# ------------------------------------------------------------- sampling plans


def test_plan_numbers_for_reference_blocks():
    plan = SamplingPlan.derive(RIGID, 5)
    assert (plan.n_t, plan.n_x) == (31, 11)
    assert (plan.tau_max, plan.alpha_max) == (30, 10)
    plan6 = SamplingPlan.derive(RIGID, 6)
    assert (plan6.n_t, plan6.n_x) == (43, 13)
    assert (plan6.tau_max, plan6.alpha_max) == (42, 12)
    top = _spec(RotorKind.SYMTOP, omega2=0.3, k=1, m=1)
    plan_top = SamplingPlan.derive(top, 5)
    assert (plan_top.n_t, plan_top.n_x, plan_top.alpha_max) == (29, 11, 10)


@pytest.mark.parametrize(
    "spec",
    [RIGID, _spec(m=1), _spec(RotorKind.SYMTOP, omega2=0.3, k=1, m=1),
     _spec(RotorKind.CENTRIFUGAL, d_cd=1e-4)],
    ids=["rigid", "rigid-m1", "symtop", "centrifugal"],
)
def test_default_n_x_is_two_j_max_plus_one(spec):
    for j_max in range(spec.m_min, 13):
        plan = SamplingPlan.derive(spec, j_max, n_periods=16)
        assert (plan.n_x, plan.alpha_max) == (2 * j_max + 1, 2 * j_max)


def test_plan_scans_no_chain_and_the_operator_scans_them_once(monkeypatch):
    calls = []
    monkeypatch.setattr(tomography, "_chains", lambda *a, **kw: calls.append(a))
    for spec in (RIGID, _spec(RotorKind.CENTRIFUGAL, d_cd=1e-4)):
        SamplingPlan.derive(spec, 6, n_periods=16)
    assert calls == []  # sizes alone need no chain scan
    monkeypatch.undo()
    plan = SamplingPlan.derive(RIGID, 6)
    assert plan == SamplingPlan.derive(RIGID, 6)
    op = tomography._probe_operator(RIGID, 6, 1, plan.n_t)
    assert tomography._probe_operator(RIGID, 6, 1, plan.n_t).chains is op.chains


def test_operators_of_specs_that_differ_only_in_d_cd_are_distinct(monkeypatch):
    # plans hold sizes alone, so they are equal; the operator memo tells the specs apart
    monkeypatch.setattr(tomography, "_operators", {})
    specs = [_spec(RotorKind.CENTRIFUGAL, d_cd=d_cd) for d_cd in (1e-4, 2e-4)]
    plan, other = (SamplingPlan.derive(spec, 5, n_periods=16) for spec in specs)
    assert other == plan
    op, op2 = (tomography._probe_operator(spec, 5, 16, plan.n_t) for spec in specs)
    assert op is not op2 and op.chains is not op2.chains
    assert op.flags == {(3, 0): [(11, 1)], (5, 0): [(9, 3)]} and op2.flags == {}


def test_plan_respects_explicit_grids_and_rejects_small_ones():
    plan = SamplingPlan.derive(RIGID, 5, n_t=50, n_x=25)
    assert (plan.n_t, plan.n_x) == (50, 25)
    with pytest.raises(SamplingError, match="n_t"):
        SamplingPlan.derive(RIGID, 5, n_t=10)
    with pytest.raises(SamplingError, match="n_x"):
        SamplingPlan.derive(RIGID, 5, n_x=5)
    with pytest.raises(SamplingError, match=f"need n_x <= {N_X_CAP}"):
        SamplingPlan.derive(RIGID, 5, n_x=N_X_CAP + 1)


@pytest.mark.parametrize(
    "spec,j_max",
    [(RIGID, 15), (RIGID, 17), (RIGID, 19), (RIGID, 20), (_spec(RotorKind.SYMTOP, k=1, m=1), 15)],
    ids=["rigid-15", "rigid-17", "rigid-19", "rigid-20", "symtop-15"],
)
def test_plan_rejects_chain_probes_beyond_the_legendre_cap(spec, j_max):
    # these blocks have chain partners past the supported Legendre order;
    # the plan never probes them but sets them to zero as partners outside
    # the block, and it probes no deeper than 2 j_max
    plan = SamplingPlan.derive(spec, j_max)
    assert plan.alpha_max == 2 * j_max <= J_CAP
    op = tomography._probe_operator(spec, j_max, 1, plan.n_t)
    assert max(s for chain in op.chains.values() for s, _ in chain) <= plan.alpha_max
    assert max(s for flagged in op.flags.values() for s, _ in flagged) > J_CAP


@pytest.mark.parametrize("spec", [RIGID, _spec(RotorKind.SYMTOP, omega2=0.3, k=1, m=1)],
                         ids=["rigid", "symtop"])
def test_plan_rejects_blocks_beyond_the_legendre_cap(spec):
    assert SamplingPlan.derive(spec, J_CAP // 2).alpha_max == J_CAP
    with pytest.raises(SamplingError, match=f"need j_max <= {J_CAP // 2}"):
        SamplingPlan.derive(spec, J_CAP // 2 + 1)
    blk = make_test_state("random-mixed", spec.k, spec.m, 3, seed=0)
    grid = _simulate(blk, spec)
    with pytest.raises(SamplingError, match="need j_max <= 100"):
        reconstruct_block(grid, spec, 101)


def test_plan_rejects_excessive_distortion():
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=2e-2)
    with pytest.raises(ValueError):
        SamplingPlan.derive(spec, 5)


# ------------------------------------------------------------ full round trips


@pytest.mark.parametrize("m", [0, 1, 2, -2])
def test_round_trip_rigid_channels(m):
    spec = _spec(m=m)
    blk = make_test_state("random-mixed", 0, m, 5, seed=10 + m)
    grid = _simulate(blk, spec)
    result = reconstruct_block(grid, spec, 5)
    assert np.max(np.abs(result.block.elements - blk.elements)) < 1e-11
    assert result.residual_inf < 1e-11
    assert result.method == "probe-least-squares"
    # filled on J1 >= J2 and mirrored by conjugation
    assert result.block.hermiticity_defect() == 0.0


@pytest.mark.parametrize("k,m", [(1, 1), (-1, 2), (2, 0)])
def test_round_trip_symmetric_top_channels(k, m):
    spec = _spec(RotorKind.SYMTOP, omega2=0.4, k=k, m=m)
    blk = make_test_state("random-mixed", k, m, 5, seed=20)
    grid = _simulate(blk, spec)
    result = reconstruct_block(grid, spec, 5)
    assert np.max(np.abs(result.block.elements - blk.elements)) < 1e-11
    assert result.block.hermiticity_defect() == 0.0


def test_round_trip_kicked_state():
    blk = make_test_state("cos2-kicked", 0, 0, 5, kick_strength=1.5)
    grid = _simulate(blk, RIGID)
    result = reconstruct_block(grid, RIGID, 5)
    assert np.max(np.abs(result.block.elements - blk.elements)) < 1e-11


def test_round_trip_centrifugal_windowed():
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=1e-3)
    blk = make_test_state("random-mixed", 0, 0, 5, seed=12)
    grid = _simulate(blk, spec, n_periods=64)
    result = reconstruct_block(grid, spec, 5)
    assert result.method == "probe-least-squares"
    assert np.max(np.abs(result.block.elements - blk.elements)) < 1e-8
    assert result.block.hermiticity_defect() == 0.0


def _scipy_windowed_block(grid, spec, j_max):
    """The windowed solve by scipy's LU, on a system whose window kernel is summed directly."""
    js = range(spec.m_min, j_max + 1)
    pairs = [(j1, j2) for j1 in js for j2 in js]
    freqs = np.array([energy(spec, j1) - energy(spec, j2) for j1, j2 in pairs])
    tensor, m_min = coefficient_table(spec.k, spec.m, j_max), spec.m_min
    coeffs = np.array([[tensor[b1 - m_min, b2 - m_min, a1 + a2] for b1, b2 in pairs] for a1, a2 in pairs])
    offsets = freqs[:, None] - freqs[None, :]
    kernel = np.exp(1j * np.multiply.outer(offsets, grid.times)).mean(axis=-1)
    levels = np.array(pairs)
    moments = moment_integral(grid, levels[:, 0] + levels[:, 1], levels[:, 0] - levels[:, 1], spec)
    solved = scipy.linalg.lu_solve(scipy.linalg.lu_factor(coeffs * kernel), moments.value)
    n = len(js)
    mat = solved.reshape(n, n)
    return (mat + mat.conj().T) / 2.0


@pytest.mark.parametrize("d_cd, j_max, n_periods", [(1e-4, 5, 16), (1e-3, 4, 4), (0.0, 3, 1)])
def test_centrifugal_blocks_match_a_scipy_lu_solve(d_cd, j_max, n_periods, monkeypatch):
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=d_cd)
    blk = make_test_state("random-mixed", 0, 0, j_max, seed=14)
    grid = _simulate(blk, spec, n_periods=n_periods)
    want = _scipy_windowed_block(grid, spec, j_max)
    builds, build = [], tomography._build_probe_operator
    monkeypatch.setattr(
        tomography, "_build_probe_operator", lambda *key: builds.append(key) or build(*key)
    )
    monkeypatch.setattr(tomography, "_operators", {})
    for _ in range(2):  # cold, then from the memoized operator
        got = reconstruct_block(grid, spec, j_max).block.elements
        assert np.max(np.abs(got - want)) <= 1e-13
    assert len(builds) == 1


@pytest.mark.parametrize("j_max", [10, 14, 18])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_exact_rigid_blocks_round_trip_to_rounding(m, j_max):
    spec = _spec(m=m)
    blk = make_test_state("random-mixed", 0, m, j_max, seed=j_max + m)
    result = reconstruct_block(_simulate(blk, spec), spec, j_max)
    assert np.max(np.abs(result.block.elements - blk.elements)) <= 1e-13


@pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (1, -2)])
def test_exact_symmetric_top_blocks_round_trip_to_rounding(k, m):
    spec = _spec(RotorKind.SYMTOP, omega2=0.3, k=k, m=m)
    blk = make_test_state("random-mixed", k, m, 12, seed=40)
    result = reconstruct_block(_simulate(blk, spec), spec, 12)
    assert np.max(np.abs(result.block.elements - blk.elements)) <= 1e-13


_RESIDUAL_CASES = (
    [(_spec(m=m), 6, 1, 0, 0) for m in range(5)]
    + [(_spec(RotorKind.SYMTOP, omega2=0.4, k=k, m=m), 6, 1, 0, 0)
       for k, m in [(1, 1), (-1, 2), (2, 0)]]
    + [(_spec(RotorKind.CENTRIFUGAL, d_cd=d_cd), 5, n_periods, 0, 0)
       for d_cd in (0.0, 1e-4) for n_periods in (1, 4, 16)]
    + [(RIGID, 6, 1, 86, 31)]
)


@pytest.mark.parametrize(
    "spec,j_max,n_periods,n_t,n_x",
    _RESIDUAL_CASES,
    ids=[f"{s.kind.value}-k{s.k}-m{s.m}-d{s.d_cd:g}-p{p}" + (f"-{t}x{x}" if t else "")
         for s, _, p, t, x in _RESIDUAL_CASES],
)
def test_fit_residual_matches_a_resimulated_residual(spec, j_max, n_periods, n_t, n_x):
    plan = SamplingPlan.derive(spec, j_max, n_periods, n_t, n_x)
    blk = make_test_state("random-mixed", spec.k, spec.m, j_max, seed=3)
    exact = simulate_pr(blk, spec, gauss_legendre_grid(plan.n_x), plan.n_t, n_periods)
    for samples in (0, 10**3, 10**6):
        grid = add_shot_noise(exact, samples, seed=5) if samples else exact
        result = reconstruct_block(grid, spec, j_max)
        want = oracles.resimulated_residual(result, grid, spec)
        # exact data: both read rounding; noisy data: both read the noise
        bound = 1e-9 * want if samples else 1e-10
        assert abs(result.residual_inf - want) <= bound


@pytest.mark.parametrize(
    "spec,n_periods",
    [(RIGID, 1), (_spec(RotorKind.SYMTOP, omega2=0.3, k=1, m=1), 1),
     (_spec(RotorKind.CENTRIFUGAL, d_cd=1e-4), 16)],
    ids=["rigid", "symtop", "centrifugal"],
)
def test_reconstruct_runs_no_forward_simulation(spec, n_periods, monkeypatch):
    blk = make_test_state("random-mixed", spec.k, spec.m, 5, seed=6)
    grid = _simulate(blk, spec, n_periods)

    def refuse(*args, **kwargs):
        raise AssertionError("reconstruct_block simulated the grid again")

    monkeypatch.setattr(rotor, "simulate_pr", refuse)
    assert not hasattr(tomography, "simulate_pr")
    result = reconstruct_block(grid, spec, 5)
    assert result.residual_inf < 1e-12
    assert np.max(np.abs(result.block.elements - blk.elements)) < 1e-11


def test_one_reconstruct_makes_one_moment_call(monkeypatch):
    calls = []
    probe = tomography.moment_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return probe(*args, **kwargs)

    monkeypatch.setattr(tomography, "moment_integral", counted)
    for spec, n_periods in [(RIGID, 1), (_spec(RotorKind.CENTRIFUGAL, d_cd=1e-4), 16)]:
        blk = make_test_state("random-mixed", 0, 0, 5, seed=2)
        calls.clear()
        reconstruct_block(_simulate(blk, spec, n_periods), spec, 5)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "spec,j_max",
    [(_spec(m=2), 8), (_spec(RotorKind.SYMTOP, omega2=0.3, k=1, m=-1), 6)],
    ids=["rigid-m2", "symtop"],
)
def test_operator_and_the_coeffs_table_read_the_block_tensor_bit_for_bit(spec, j_max, tmp_path):
    op = tomography._build_probe_operator(spec, j_max, 1, SamplingPlan.derive(spec, j_max).n_t)
    tensor = coefficient_table(spec.k, spec.m, j_max)
    # the fit's pairs are J1 >= J2, J1 outer
    assert np.array_equal(op.coeffs, tensor[np.tril_indices(len(tensor))])
    # `rotortomo coeffs` prints every non-zero entry J2 <= J1 of that tensor
    config = tmp_path / "run.yaml"
    config.write_text(
        f"spec: {{kind: {spec.kind.value}, omega: {spec.omega}, omega2: {spec.omega2}, "
        f"k: {spec.k}, m: {spec.m}}}\nj_max: {j_max}\n"
    )
    assert main(["coeffs", "--config", str(config), "--out", str(tmp_path / "c.csv")]) == 0
    rows = np.loadtxt(tmp_path / "c.csv", delimiter=",")
    s, dj, j1, j2, L = rows[:, :5].astype(int).T
    assert np.array_equal(s, j1 + j2) and np.array_equal(dj, j1 - j2)
    # in increasing (S, dJ, L), each row once
    keys = (s * (2 * j_max + 1) + dj) * (2 * j_max + 1) + L
    assert np.all(np.diff(keys) > 0)
    got = np.zeros_like(tensor)
    got[j1 - spec.m_min, j2 - spec.m_min, L] = rows[:, 5]
    want = np.where(np.tri(len(tensor), dtype=bool)[:, :, None], tensor, 0.0)
    assert np.array_equal(got, want) and len(rows) == np.count_nonzero(want)


def test_a_cold_reconstruct_builds_one_coefficient_tensor(monkeypatch):
    spec = _spec(m=1)
    blk = make_test_state("random-mixed", 0, 1, 10, seed=3)
    grid = _simulate(blk, spec)  # on the default n_x, the rule the tensor is built on
    calls, rows = [], angular.eigenfunction_rows
    monkeypatch.setattr(tomography, "_operators", {})
    monkeypatch.setattr(angular, "eigenfunction_rows", lambda *a: calls.append(a[0]) or rows(*a))
    misses = gauss_legendre_grid.cache_info().misses
    result = reconstruct_block(grid, spec, 10)
    assert calls == [10]  # one rule for the block, not one per level
    assert gauss_legendre_grid.cache_info().misses == misses
    assert np.max(np.abs(result.block.elements - blk.elements)) < 1e-12


@pytest.mark.parametrize(
    "spec,n_periods",
    [(_spec(m=3), 1), (_spec(RotorKind.SYMTOP, omega2=0.3, k=1, m=1), 1),
     (_spec(RotorKind.CENTRIFUGAL, d_cd=1e-4), 16)],
    ids=["rigid-m3", "symtop", "centrifugal"],
)
def test_diagnostics_describe_the_operator_for_every_kind(spec, n_periods):
    blk = make_test_state("random-mixed", spec.k, spec.m, 6, seed=5)
    result = reconstruct_block(_simulate(blk, spec, n_periods), spec, 6)
    diagnostics = result.diagnostics
    assert set(diagnostics) == {"n_unknowns", "n_rows", "cond", "trace", "min_eigenvalue", "plan"}
    n = 6 - spec.m_min + 1
    assert diagnostics["n_unknowns"] == n * n < diagnostics["n_rows"]
    assert 1.0 <= diagnostics["cond"] < 20.0
    if spec.m == 3:  # bin 0 is the worst-conditioned group of a rigid m = 3 block
        want = np.linalg.cond(_bin0_matrix(0, 3, 6))
        assert diagnostics["cond"] == pytest.approx(want, rel=1e-12)


def test_zero_distortion_operator_splits_into_the_rigid_groups():
    # the groups come from the operator's own zero pattern: with d_cd = 0 every
    # line sits on an exact bin, so the centrifugal operator is the rigid one
    plan = SamplingPlan.derive(RIGID, 6, n_periods=4)
    rigid = tomography._probe_operator(RIGID, 6, 4, plan.n_t)
    cd = tomography._probe_operator(_spec(RotorKind.CENTRIFUGAL, d_cd=0.0), 6, 4, plan.n_t)
    assert np.array_equal(cd.probes, rigid.probes) and len(cd.stacks) == len(rigid.stacks)
    for (cd_members, cd_inverse), (members, inverse) in zip(cd.stacks, rigid.stacks):
        assert np.array_equal(cd_members, members)
        assert np.max(np.abs(cd_inverse - inverse)) <= 1e-15
    for op in (rigid, cd):
        assert all(inverse.dtype == np.float64 for _, inverse in op.stacks)
        # the groups hold each parameter of the 28 pairs J1 >= J2 once, a diagonal
        # pair's (at 2p, p = a (a + 3) / 2) without a sin one, and none on a negative line
        members = np.concatenate([members.ravel() for members, _ in op.stacks])
        a = np.arange(7)
        assert np.array_equal(np.sort(members), np.setdiff1d(np.arange(2 * 28), a * (a + 3) + 1))
        lines = op.probes[op.line[members // 2]]
        assert (probe_frequency(RIGID, lines[:, 0], lines[:, 1]) >= 0.0).all()
    # the widest group is the cos parameters of bin 0's 7 diagonal pairs
    members, inverse = rigid.stacks[-1]
    assert np.array_equal(members, [[0, 4, 10, 18, 28, 40, 54]]) and inverse.shape == (1, 7, 7)
    distorted = tomography._probe_operator(_spec(RotorKind.CENTRIFUGAL, d_cd=1e-4), 6, 4, plan.n_t)
    assert distorted.stacks[-1][0].shape[1] > 7


def test_operator_memo_is_bounded_by_count_and_bytes(monkeypatch):
    monkeypatch.setattr(tomography, "_operators", {})
    shapes = [(RIGID, j, 1, SamplingPlan.derive(RIGID, j).n_t) for j in (2, 3, 4, 5, 6)]
    ops = [tomography._probe_operator(*shape) for shape in shapes]
    assert list(tomography._operators) == shapes[1:]  # four grid shapes, the oldest dropped
    assert tomography._probe_operator(*shapes[1]) is ops[1]
    assert list(tomography._operators) == shapes[2:] + shapes[1:2]
    # over the byte budget the oldest go first, and the one just used stays
    budget = sum(op.nbytes for op in (ops[1], ops[4]))
    monkeypatch.setattr(tomography, "_OPERATOR_BYTES", budget)
    assert tomography._probe_operator(*shapes[4]) is ops[4]
    assert list(tomography._operators) == shapes[1:2] + shapes[4:]
    monkeypatch.setattr(tomography, "_OPERATOR_BYTES", 0)
    tomography._probe_operator(*shapes[0])
    assert list(tomography._operators) == shapes[:1]


def test_lines_within_the_bin_tolerance_share_one_group():
    # d_cd = 1e-11 moves every line less than 1e-8 bins off its exact bin; any
    # distortion puts all lines into one group, each at its own frequency
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=1e-11)
    blk = make_test_state("random-mixed", 0, 0, 6, seed=3)
    result = reconstruct_block(_simulate(blk, spec), spec, 6)
    assert np.max(np.abs(result.block.elements - blk.elements)) <= 1e-13


def test_operators_of_large_blocks_stay_small():
    # a dense centrifugal group stores its real Gram inverse, not one weight
    # per (unknown, row): 3.78 MiB measured at j_max 30 over 16 periods, bound +6%
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=1e-4)
    op = tomography._build_probe_operator(spec, 30, 16, SamplingPlan.derive(spec, 30, 16).n_t)
    assert op.nbytes <= 4.0 * 2**20
    # no build array spans every (line, unknown) pair, the tensor's build included
    tracemalloc.start()
    try:
        op = tomography._build_probe_operator(RIGID, 60, 1, SamplingPlan.derive(RIGID, 60).n_t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    # each group keeps its own inverse, with no padding to the widest group, and
    # the coefficients of the pairs J1 >= J2 alone: 1.91 MiB measured, bound +5%
    assert op.nbytes <= 2.0 * 2**20


def test_a_cold_dense_centrifugal_build_stays_within_its_peak():
    # d_cd = 1e-6, j_max = 40, one period: two real parity groups of about
    # 840 parameters.  The peak measured 76.8 MiB, bound +4% (the complex
    # groups of n^2 / 2 unknowns each peaked at 82.7 MiB)
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=1e-6)
    n_t = SamplingPlan.derive(spec, 40).n_t
    # a small build first, so the imports and memos it loads stay out of the peak
    tomography._build_probe_operator(spec, 3, 1, SamplingPlan.derive(spec, 3).n_t)
    tracemalloc.start()
    try:
        op = tomography._build_probe_operator(spec, 40, 1, n_t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2**20
    assert [inverse.shape for _, inverse in op.stacks] == [(1, 840, 840), (1, 841, 841)]


def test_warm_simulate_and_reconstruct_keep_no_table_of_the_grid_shape():
    # a warm rigid j_max = 14 op on its 211 x 29 grid: peaks that a phase
    # matrix per (sample, pair) or per (sample, line) would exceed, and
    # nothing of either kept from one call to the next
    blk = make_test_state("random-mixed", 0, 0, 14, seed=1)
    grid = _simulate(blk, RIGID)
    reconstruct_block(grid, RIGID, 14)
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            grid = _simulate(blk, RIGID)
            simulate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            result = reconstruct_block(grid, RIGID, 14)
            reconstruct_peak = tracemalloc.get_traced_memory()[1]
            assert simulate_peak <= 1.0 * 2**20 and reconstruct_peak <= 1.15 * 2**20
            del grid, result
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 64 * 2**10


def test_a_warm_off_bin_simulate_stays_within_its_peak():
    # centrifugal d_cd = 1e-4, j_max = 20 over 64 periods: one (26,944 x 210)
    # complex table of the pair phases, 86 MiB, is the only large array; the
    # peak measured 96.3 MiB, bound +10%
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=1e-4)
    blk = make_test_state("random-mixed", 0, 0, 20, seed=1)
    _simulate(blk, spec, n_periods=64)
    tracemalloc.start()
    try:
        _simulate(blk, spec, n_periods=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 106 * 2**20


def test_a_warm_rigid_j60_simulate_stays_within_its_peak():
    # rigid j_max = 60: one (3,661 x 1,830) complex table of the pair phases,
    # 102 MiB, is the only large array; the peak measured 111.2 MiB, bound +10%
    blk = make_test_state("random-mixed", 0, 0, 60, seed=1)
    _simulate(blk, RIGID)
    tracemalloc.start()
    try:
        _simulate(blk, RIGID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 122 * 2**20


def test_a_warm_off_bin_reconstruct_holds_one_phase_table():
    # centrifugal d_cd = 1e-4, j_max = 20 over 64 periods: a 26,944 x 41 grid
    # whose 211 lines make an 87 MiB phase table, and no table per level pair
    # is built beside it; the peak measured 105 MiB, bound +14%
    spec = _spec(RotorKind.CENTRIFUGAL, d_cd=1e-4)
    blk = make_test_state("random-mixed", 0, 0, 20, seed=1)
    grid = _simulate(blk, spec, n_periods=64)
    reconstruct_block(grid, spec, 20)
    tracemalloc.start()
    try:
        result = reconstruct_block(grid, spec, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 120 * 2**20
    # the case where the fit and resimulated residuals differ most on exact data
    assert abs(result.residual_inf - oracles.resimulated_residual(result, grid, spec)) <= 1e-10


def test_a_cold_reconstruct_imports_no_module():
    # numpy.ma, for one, loads on a first bare np.unique call and costs about 1 MiB
    code = """
import sys
import rotortomo as rt
cases = [(rt.RotorSpec("rigid-linear", 1.0, m=1), 6, 1),
         (rt.RotorSpec("centrifugal-linear", 1.0, d_cd=1e-4), 4, 4),
         (rt.RotorSpec("symmetric-top", 1.0, 0.3, k=2), 4, 1)]
grids = []
for spec, j_max, n_periods in cases:
    plan = rt.SamplingPlan.derive(spec, j_max, n_periods)
    block = rt.make_test_state("random-mixed", spec.k, spec.m, j_max, seed=1)
    grid = rt.simulate_pr(block, spec, rt.gauss_legendre_grid(plan.n_x), plan.n_t, n_periods)
    grids.append((rt.add_shot_noise(grid, 1000, 1), spec, j_max))
before = set(sys.modules)
for grid, spec, j_max in grids:
    rt.reconstruct_block(grid, spec, j_max)
print(sorted(set(sys.modules) - before))
"""
    src = str(Path(tomography.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_centrifugal_with_zero_distortion_reproduces_rigid():
    spec0 = _spec(RotorKind.CENTRIFUGAL, d_cd=0.0)
    blk = make_test_state("random-mixed", 0, 0, 4, seed=13)
    grid = _simulate(blk, spec0, n_periods=4)
    cd = reconstruct_block(grid, spec0, 4)
    rigid_grid = simulate_pr(blk, RIGID, grid.x_grid, grid.n_t, grid.n_periods)
    rigid = reconstruct_block(rigid_grid, RIGID, 4)
    assert np.max(np.abs(cd.block.elements - rigid.block.elements)) < 1e-10


def test_reconstruction_is_linear_in_the_data():
    spec = _spec(m=1)
    a = make_test_state("random-mixed", 0, 1, 4, seed=30)
    b = make_test_state("random-pure", 0, 1, 4, seed=31)
    ga, gb = _simulate(a, spec), _simulate(b, spec)
    lam = 0.3
    mix = simulate_pr(a, spec, ga.x_grid, ga.n_t)  # reuse the grid geometry
    mix.values = lam * ga.values + (1 - lam) * gb.values
    rec_mix = reconstruct_block(mix, spec, 4).block.elements
    rec_a = reconstruct_block(ga, spec, 4).block.elements
    rec_b = reconstruct_block(gb, spec, 4).block.elements
    assert np.max(np.abs(rec_mix - lam * rec_a - (1 - lam) * rec_b)) < 1e-10


def test_reconstruct_block_channel_mismatch():
    blk = make_test_state("random-mixed", 0, 0, 3, seed=0)
    grid = _simulate(blk, RIGID)
    with pytest.raises(ValueError):
        reconstruct_block(grid, _spec(m=1), 3)


@pytest.mark.parametrize(
    "spec,needle",
    [(_spec(RotorKind.CENTRIFUGAL, d_cd=0.0), "kind"), (_spec(omega=2.0), "omega")],
    ids=["kind", "omega"],
)
def test_reconstruct_block_rejects_a_grid_of_another_rotor(spec, needle):
    blk = make_test_state("random-mixed", 0, 0, 3, seed=0)
    grid = _simulate(blk, _spec(omega=1.0))
    with pytest.raises(ValueError, match=needle):
        reconstruct_block(grid, spec, 3)


def test_reconstruct_block_rejects_a_grid_of_another_period():
    # the probes read exact DFT bins only on whole periods of pi/omega, and the
    # grid's period follows its own omega
    blk = make_test_state("random-mixed", 0, 0, 3, seed=0)
    skewed = replace(_simulate(blk, RIGID), omega=1.0 + 1e-9)
    with pytest.raises(ValueError, match="grid omega=1.000000001 does not match"):
        reconstruct_block(skewed, RIGID, 3)
    with pytest.raises(ValueError, match="grid omega=1.000000001 does not match"):
        moment_integral(skewed, 0, 0, RIGID)


@pytest.mark.parametrize("field", ["omega"])
def test_reconstruct_block_rejects_a_grid_whose_omega_or_period_became_nan(field):
    # the grid checks its omega when built; one set to nan later still fails the
    # comparison in moment_integral
    grid = _simulate(make_test_state("random-mixed", 0, 0, 3, seed=0), RIGID)
    setattr(grid, field, math.nan)
    with pytest.raises(ValueError, match=f"grid {field}=nan does not match"):
        reconstruct_block(grid, RIGID, 3)


def test_reconstruct_block_psd_projection_on_noisy_data():
    from rotortomo.rotor import add_shot_noise

    blk = make_test_state("cos2-kicked", 0, 0, 3, kick_strength=1.2)
    grid = add_shot_noise(_simulate(blk, RIGID), 200_000, seed=17)
    plain = reconstruct_block(grid, RIGID, 3).block
    projected = plain.project_psd()
    assert projected.min_eigenvalue() >= -1e-10
    assert projected.trace() == pytest.approx(plain.trace(), abs=1e-10)


def test_truncation_flags_propagate_to_result():
    blk = make_test_state("random-mixed", 0, 0, 5, seed=5)
    grid = _simulate(blk, RIGID)
    result = reconstruct_block(grid, RIGID, 5)
    assert result.flags == {
        (3, 0): [(11, 1)], (5, 0): [(9, 3), (29, 1)], (4, 1): [(17, 1)], (5, 2): [(23, 1)],
    }
    assert np.max(np.abs(result.block.elements - blk.elements)) < 1e-11


@pytest.mark.parametrize(
    "spec,j_max",
    [(_spec(m=m), j) for m in (0, 1) for j in range(15, 21)]
    + [(_spec(RotorKind.SYMTOP, omega2=0.3, k=1, m=1), j) for j in range(15, 21)],
    ids=[f"rigid-m{m}-{j}" for m in (0, 1) for j in range(15, 21)]
    + [f"symtop-{j}" for j in range(15, 21)],
)
def test_round_trip_large_blocks_with_default_grids(spec, j_max):
    blk = make_test_state("random-mixed", spec.k, spec.m, j_max, seed=j_max)
    grid = _simulate(blk, spec)
    result = reconstruct_block(grid, spec, j_max)
    assert np.max(np.abs(result.block.elements - blk.elements)) < 1e-10
