"""Rotor model, forward simulator, reference states, shot noise."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
import rotortomo
from rotortomo import angular, rotor, tomography
from rotortomo.angular import (
    J_CAP,
    coefficient_table,
    eigenfunction_rows,
    gauss_legendre_grid,
)
from rotortomo.rotor import (
    DensityBlock,
    MeasurementGrid,
    RotorKind,
    RotorSpec,
    add_shot_noise,
    check_distortion_range,
    energy,
    make_test_state,
    monotone_j_limit,
    rotor_kind,
    simulate_pr,
)


def _direct_pr(block: DensityBlock, spec: RotorSpec, x: np.ndarray, times: np.ndarray):
    """Brute-force Pr(x, t) from oracle basis functions and inline energies.

    Constant-in-J offsets (the symmetric-top k^2 term) cancel in every phase
    difference, so the rigid J(J+1) spectrum stands in for it here.
    """

    def basis(J):
        if spec.k == 0:
            return oracles.norm_legendre(J, spec.m, x)
        return math.sqrt((2 * J + 1) / 2.0) * oracles.wigner_d_explicit(J, spec.k, spec.m, x)

    def en(J):
        n = J * (J + 1)
        if spec.kind is RotorKind.CENTRIFUGAL:
            return spec.omega * n - spec.d_cd * n * n
        return spec.omega * n

    js = block.j_values
    rows = [basis(J) for J in js]
    out = np.zeros((len(times), len(x)))
    for i, t in enumerate(times):
        acc = np.zeros(len(x), dtype=complex)
        for a, j1 in enumerate(js):
            for b, j2 in enumerate(js):
                rho = block.elements[a, b]
                if rho != 0:
                    acc += rho * rows[a] * rows[b] * np.exp(-1j * (en(j1) - en(j2)) * t)
        out[i] = acc.real
    return out


# ----------------------------------------------------------------- rotor spec


def test_rotor_kind_parses_names_and_rejects_unknown():
    assert rotor_kind("rigid-linear") is RotorKind.RIGID
    assert rotor_kind("centrifugal-linear") is RotorKind.CENTRIFUGAL
    assert rotor_kind("symmetric-top") is RotorKind.SYMTOP
    assert rotor_kind(RotorKind.RIGID) is RotorKind.RIGID
    with pytest.raises(ValueError):
        rotor_kind("spherical-top")


def _grid_with(**fields):
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0)
    blk = make_test_state("random-mixed", 0, 0, 2, seed=1)
    grid = simulate_pr(blk, spec, gauss_legendre_grid(5), 7)
    values = grid.values.copy()
    values[3, 2] = fields.pop("value", values[3, 2])
    return replace(grid, values=values, **fields)


@pytest.mark.parametrize(
    "make,needle",
    [
        (lambda: RotorSpec(kind=RotorKind.RIGID, omega=math.nan), "omega must be finite"),
        (lambda: RotorSpec(kind=RotorKind.RIGID, omega=math.inf), "omega must be finite"),
        (lambda: RotorSpec(kind=RotorKind.SYMTOP, omega=1.0, omega2=math.nan, k=1), "omega2"),
        (lambda: RotorSpec(kind=RotorKind.RIGID, omega=1.0, d_cd=math.nan), "d_cd"),
        (lambda: RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=math.inf), "d_cd"),
        (lambda: _grid_with(omega=math.nan), "omega must be finite"),
        (lambda: _grid_with(omega=-1.0), "omega must be finite and positive"),
        (lambda: _grid_with(value=math.nan), r"finite, got nan at \(t, x\) = \(3, 2\)"),
        (lambda: _grid_with(value=-math.inf), "values must be finite"),
        (lambda: make_test_state("cos2-kicked", 0, 0, 3, kick_strength=math.nan), "kick_strength"),
        (
            lambda: DensityBlock(0, 0, 1, [[math.nan, 0], [0, 1]]),
            r"elements must be finite, got \(nan\+0j\) at \(a, b\) = \(0, 0\)",
        ),
        (
            lambda: DensityBlock(0, 0, 1, [[0, math.inf], [math.inf, 1]]),
            r"elements must be finite, got \(inf\+0j\) at \(a, b\) = \(0, 1\)",
        ),
    ],
    ids=[
        "omega-nan", "omega-inf", "omega2-nan", "d_cd-nan", "d_cd-inf", "grid-omega-nan",
        "grid-omega-negative", "grid-value-nan", "grid-value-inf", "kick-nan", "block-nan",
        "block-inf",
    ],
)
def test_non_finite_inputs_raise_a_named_error(make, needle):
    with pytest.raises(ValueError, match=needle):
        make()


def test_spec_validation():
    with pytest.raises(ValueError):
        RotorSpec(kind=RotorKind.RIGID, omega=0.0)
    with pytest.raises(ValueError):
        RotorSpec(kind=RotorKind.RIGID, omega=1.0, k=1)  # linear rotors have k = 0
    with pytest.raises(ValueError):
        RotorSpec(kind=RotorKind.RIGID, omega=1.0, d_cd=1e-3)  # distortion needs the cd kind
    with pytest.raises(ValueError):
        RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=-1e-3)
    # a half-integer or bool projection would give a fractional m_min and n_t
    for k, m in [(1.5, 1), (1, 0.5), (2.0, 1), (True, 1), (1, False)]:
        with pytest.raises(ValueError, match="must be an integer"):
            RotorSpec(kind=RotorKind.SYMTOP, omega=1.0, k=k, m=m)
    spec = RotorSpec(kind="symmetric-top", omega=1.0, omega2=0.5, k=2, m=-3)
    assert spec.kind is RotorKind.SYMTOP and spec.m_min == 3
    assert RotorSpec(kind=RotorKind.SYMTOP, omega=1.0, k=np.int64(1), m=np.int32(-2)).m_min == 2


def test_energy_levels_and_frequencies():
    rigid = RotorSpec(kind=RotorKind.RIGID, omega=2.0)
    assert energy(rigid, 3) == 2.0 * 12
    assert energy(rigid, 3) - energy(rigid, 2) == 2.0 * (12 - 6)
    cd = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=1e-3)
    assert energy(cd, 4) == 20 - 1e-3 * 400
    top = RotorSpec(kind=RotorKind.SYMTOP, omega=1.0, omega2=0.5, k=2, m=0)
    assert energy(top, 3) == 12 - 0.5 * 4
    # the k^2 offset cancels inside a block
    assert energy(top, 3) - energy(top, 2) == 12 - 6
    with pytest.raises(ValueError):
        energy(top, 1)  # below the channel floor
    # the one expression gives each kind's own formula to the bit, for a
    # scalar level and a level array alike
    formulas = [
        (RotorSpec(kind=RotorKind.RIGID, omega=1.3, omega2=0.37, m=1), lambda s, n: s.omega * n),
        (
            RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.1, d_cd=3e-4),
            lambda s, n: s.omega * n - s.d_cd * n * n,
        ),
        (
            RotorSpec(kind=RotorKind.SYMTOP, omega=1.1, omega2=0.37, k=2, m=-1),
            lambda s, n: s.omega * n - s.omega2 * s.k * s.k,
        ),
    ]
    for spec, formula in formulas:
        levels = np.arange(spec.m_min, 41)
        assert energy(spec, levels).tobytes() == formula(spec, levels * (levels + 1)).tobytes()
        for J in (spec.m_min, 7, 40):
            want = np.float64(formula(spec, J * (J + 1)))
            assert np.float64(energy(spec, J)).tobytes() == want.tobytes()


def test_monotone_limit():
    rigid = RotorSpec(kind=RotorKind.RIGID, omega=2.0)
    cd = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=1e-3)
    # spectrum turns over at J(J+1) = 500: J = 21 is the last monotone level
    assert monotone_j_limit(cd) == 21
    assert monotone_j_limit(rigid) > 10**9
    check_distortion_range(cd, 5)  # 1e-3 < 1/60
    with pytest.raises(ValueError):
        check_distortion_range(cd, 25)


def test_the_distortion_check_admits_exactly_the_monotone_levels():
    cd = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=1e-3)
    check_distortion_range(cd, 21)
    with pytest.raises(ValueError, match=r"too large for J up to 22: .* need d_cd/omega < 9\.881e-04"):
        check_distortion_range(cd, 22)
    for omega in (1.0, 0.7):
        for d_cd in [0.0, 1e-11, 1e-6, 1e-4, 1e-3, 1 / 12, 0.3, *np.geomspace(1e-9, 1.0, 40)]:
            spec = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=omega, d_cd=float(d_cd))
            limit = monotone_j_limit(spec)
            for j in range(0, 41):
                if j <= limit:
                    check_distortion_range(spec, j)
                else:
                    with pytest.raises(ValueError, match="spectrum must stay monotone"):
                        check_distortion_range(spec, j)


@pytest.mark.parametrize("d_cd", [1e-40, 1e-100, 1e-300])
def test_monotone_limit_is_exact_for_the_smallest_distortions(d_cd):
    # J(J+1) < omega / (2 d_cd) <= (J+1)(J+2) in exact integers, however large J is
    spec = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=d_cd)
    j, limit = monotone_j_limit(spec), 1.0 / (2.0 * d_cd)
    assert j * (j + 1) < limit <= (j + 1) * (j + 2)


def test_monotone_limit_of_a_distortion_whose_ratio_overflows_is_unbounded():
    spec = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=1e-320)
    assert monotone_j_limit(spec) == np.iinfo(np.int64).max
    check_distortion_range(spec, 100)


# --------------------------------------------------------------- density block


def test_block_geometry_and_access():
    blk = DensityBlock.zeros(0, 2, 5)
    assert blk.j_min == 2 and blk.j_values.tolist() == [2, 3, 4, 5]
    blk.elements[blk.index(3), blk.index(2)] = 0.5
    blk.elements[blk.index(2), blk.index(3)] = 0.5
    assert blk.element(3, 2) == 0.5
    with pytest.raises(IndexError):
        blk.index(1)


def test_block_rejects_non_hermitian():
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(ValueError):
        DensityBlock(k=0, m=0, j_max=2, elements=mat)


def test_block_embedding_preserves_content():
    small = make_test_state("random-mixed", 0, 1, 3, seed=0)
    big = small.embedded(6)
    assert big.j_max == 6 and big.trace() == pytest.approx(small.trace(), abs=1e-14)
    for j1 in range(1, 4):
        for j2 in range(1, 4):
            assert big.element(j1, j2) == small.element(j1, j2)
    assert big.element(6, 6) == 0.0
    with pytest.raises(ValueError):
        small.embedded(2)


def test_psd_projection_clips_and_keeps_trace():
    blk = make_test_state("random-mixed", 0, 0, 4, seed=1)
    blk.elements[0, 0] -= 0.3  # push an eigenvalue negative
    blk.elements += 0.0  # keep hermitian
    assert blk.min_eigenvalue() < -1e-3
    fixed = blk.project_psd()
    assert fixed.min_eigenvalue() > -1e-12
    assert fixed.trace() == pytest.approx(blk.trace(), abs=1e-12)


# ------------------------------------------------------------------- simulator


@pytest.mark.parametrize(
    "kind,k,m,j_max",
    [
        (RotorKind.RIGID, 0, 0, 4),
        (RotorKind.RIGID, 0, -2, 5),
        (RotorKind.SYMTOP, 1, 1, 4),
        (RotorKind.SYMTOP, -2, 1, 4),
        (RotorKind.CENTRIFUGAL, 0, 0, 4),
    ],
)
def test_simulate_matches_direct_summation(kind, k, m, j_max):
    spec = RotorSpec(kind=kind, omega=1.0, omega2=0.3 if k else 0.0,
                     d_cd=1e-3 if kind is RotorKind.CENTRIFUGAL else 0.0, k=k, m=m)
    blk = make_test_state("random-mixed", k, m, j_max, seed=7)
    grid = simulate_pr(blk, spec, gauss_legendre_grid(2 * j_max + 3), n_t=11)
    ref = _direct_pr(blk, spec, grid.x_grid.nodes, grid.times)
    assert np.max(np.abs(grid.values - ref)) < 1e-12


def test_simulate_matches_the_einsum_contraction():
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0, m=1)
    blk = make_test_state("random-mixed", 0, 1, 4, seed=2)
    x_grid = gauss_legendre_grid(9)
    rotor._pair_tables.cache_clear()
    grids = [simulate_pr(blk, spec, x_grid, n_t=21) for _ in range(2)]
    # the basis rows, level pairs and their lines are built once per shape
    info = rotor._pair_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)

    times = grids[0].times
    phases = np.exp(-1j * np.outer(times, [energy(spec, J) for J in blk.j_values]))
    f = eigenfunction_rows(4, spec.k, spec.m, x_grid.nodes)
    evolved = np.einsum("ta,ab,tb->tab", phases, blk.elements, phases.conj(), optimize=True)
    want = np.einsum("tab,ax,bx->tx", evolved, f, f, optimize=True).real
    for grid in grids:
        assert np.max(np.abs(grid.values - want)) <= 1e-13


def test_warm_simulate_reads_its_lines_and_rows_from_the_memo(monkeypatch):
    spec = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=1e-3, m=1)
    blk = make_test_state("random-mixed", 0, 1, 4, seed=6)
    x_grid = gauss_legendre_grid(9)
    want = simulate_pr(blk, spec, x_grid, n_t=15).values

    def refuse(*args, **kwargs):
        raise AssertionError("a warm simulate evaluated the spectrum or the eigenfunctions")

    monkeypatch.setattr(rotor, "energy", refuse)
    monkeypatch.setattr(rotor, "eigenfunction_rows", refuse)
    assert np.array_equal(simulate_pr(blk, spec, x_grid, n_t=15).values, want)
    for table in rotor._pair_tables(spec, 4, x_grid.nodes.tobytes()):
        assert not table.flags.writeable
    monkeypatch.undo()

    # the lines are the spec's own: the same shape under another d_cd is its own entry
    other = replace(spec, d_cd=2e-3)
    grid = simulate_pr(blk, other, x_grid, n_t=15)
    assert not np.array_equal(grid.values, want)
    assert np.max(np.abs(grid.values - _direct_pr(blk, other, x_grid.nodes, grid.times))) < 1e-12


@pytest.mark.parametrize(
    "kind,k,m,j_max,n_periods",
    [
        (RotorKind.RIGID, 0, 0, 14, 1),
        (RotorKind.SYMTOP, 1, 1, 12, 2),
        (RotorKind.CENTRIFUGAL, 0, 0, 10, 16),
    ],
)
def test_simulate_is_accurate_to_the_rounding_of_its_phases(kind, k, m, j_max, n_periods):
    # against the sum in extended precision: a phase E t carries an error of
    # about eps |E t|, so that is the scale of the bound
    spec = RotorSpec(kind=kind, omega=1.3, omega2=0.3 if k else 0.0,
                     d_cd=1e-4 if kind is RotorKind.CENTRIFUGAL else 0.0, k=k, m=m)
    blk = make_test_state("random-mixed", k, m, j_max, seed=2)
    x_grid = gauss_legendre_grid(2 * j_max + 1)
    n_t = n_periods * (j_max * (j_max + 1) + 1)
    grid = simulate_pr(blk, spec, x_grid, n_t=n_t, n_periods=n_periods)
    times = np.arange(n_t, dtype=np.longdouble) * np.longdouble(grid.dt)
    levels = np.array([energy(spec, int(J)) for J in blk.j_values], dtype=np.longdouble)
    phases = np.exp(-1j * np.multiply.outer(times, levels))
    f = eigenfunction_rows(j_max, spec.k, spec.m, x_grid.nodes).astype(np.longdouble)
    evolved = phases[:, :, None] * blk.elements.astype(np.clongdouble) * phases[:, None, :].conj()
    want = np.einsum("tab,ax,bx->tx", evolved, f, f).real
    bound = np.finfo(float).eps * float(levels.max() * times[-1]) * float(np.max(np.abs(want)))
    assert np.max(np.abs(grid.values - want)) <= bound


def test_simulate_rejects_an_anti_hermitian_part_and_simulates_the_hermitian_one():
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0, m=1)
    good = make_test_state("random-mixed", 0, 1, 5, seed=3)
    mat = good.elements.copy()
    mat[0, 2] += 1e-10  # anti-Hermitian defect 1e-10, inside DensityBlock's 1e-9 gate
    skewed = DensityBlock(k=0, m=1, j_max=5, elements=mat)
    diag = good.elements.copy()
    diag[0, 0] += 1e-10j  # a complex diagonal, also inside the gate
    x_grid = gauss_legendre_grid(11)
    for bad in (skewed, DensityBlock(k=0, m=1, j_max=5, elements=diag)):
        with pytest.raises(ValueError, match="imaginary residue"):
            simulate_pr(bad, spec, x_grid, n_t=31)
    hermitian = DensityBlock(k=0, m=1, j_max=5, elements=(mat + mat.conj().T) / 2.0)
    grid = simulate_pr(hermitian, spec, x_grid, n_t=31)
    ref = simulate_pr(good, spec, x_grid, n_t=31)
    assert np.max(np.abs(grid.values - ref.values)) < 1e-9
    nearly = good.elements.copy()
    nearly[0, 2] += 1e-14  # its residue stays under 1e-12, so the full product runs and passes
    grid = simulate_pr(DensityBlock(k=0, m=1, j_max=5, elements=nearly), spec, x_grid, n_t=31)
    assert np.max(np.abs(grid.values - ref.values)) < 1e-13


@pytest.mark.parametrize("n_t", [1, 2, 7, 211, 1984])
@pytest.mark.parametrize(
    "freqs",
    [[0.0], [-210.0, -3.5, 0.0, 2.0, 6.0, 210.0], [-1.0e3, 17.25, 4.4e3], []],
    ids=["zero", "mixed-signs", "large", "empty"],
)
def test_phase_table_matches_the_complex_exponential(n_t, freqs):
    freqs = np.array(freqs)
    dt = 0.3 * np.pi / 211
    got = rotor.phase_table(freqs, dt, n_t)
    arg = np.multiply.outer(np.arange(n_t) * dt, freqs)
    assert got.shape == (n_t, len(freqs))
    bound = 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(arg))
    assert (np.abs(got - np.exp(1j * arg)) <= bound).all()
    # a warm call: the same bits in a fresh array of its own, free to write to
    again = rotor.phase_table(freqs, dt, n_t)
    assert again.tobytes() == got.tobytes() and again.flags.writeable
    assert not np.shares_memory(again, got)
    again[...] = 7.0
    assert rotor.phase_table(freqs, dt, n_t).tobytes() == got.tobytes()


def test_phase_table_memo_drops_its_oldest_factors_past_its_byte_bound():
    # n_t = 4 keeps four factor rows, 64 bytes per frequency: an entry of
    # `wide` frequencies is just over a third of the bound, so two fit
    n_t, dt = 4, 0.1
    wide = rotor._FACTOR_BYTES // (3 * 64) + 1

    def memo():  # each entry by the first of its frequencies
        return [np.frombuffer(key[0], count=1)[0] for key in rotor._factors]

    rotor._factors.clear()
    try:
        for first in (1.0, 2.0, 3.0):
            rotor.phase_table(np.full(wide, first), dt, n_t)
        assert memo() == [2.0, 3.0]
        rotor.phase_table(np.full(wide, 2.0), dt, n_t)  # used again, so newest
        rotor.phase_table(np.full(wide, 4.0), dt, n_t)
        assert memo() == [2.0, 4.0]
        assert sum(table.nbytes for table in rotor._factors.values()) <= rotor._FACTOR_BYTES
        # an entry over the bound on its own stays, as the one just made
        rotor.phase_table(np.full(3 * wide, 5.0), dt, n_t)
        assert memo() == [5.0]
        # small entries: the last 16 stay
        for first in range(20):
            rotor.phase_table(np.full(3, float(first)), dt, n_t)
        assert memo() == [float(first) for first in range(4, 20)]
    finally:
        rotor._factors.clear()


@pytest.mark.parametrize(
    "spec",
    [
        RotorSpec(kind=RotorKind.RIGID, omega=1.7, m=2),
        RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=3e-4),
        RotorSpec(kind=RotorKind.SYMTOP, omega=1.1, omega2=0.37, k=-2, m=1),
    ],
    ids=["rigid", "centrifugal", "symtop"],
)
def test_energy_of_a_level_array_equals_the_scalar_calls(spec):
    levels = np.arange(spec.m_min, 41)
    many = energy(spec, levels)
    assert many.shape == levels.shape
    assert many.tobytes() == np.array([energy(spec, int(J)) for J in levels]).tobytes()
    with pytest.raises(ValueError, match=f"J = {spec.m_min - 2} below"):
        energy(spec, np.array([spec.m_min + 3, spec.m_min - 1, spec.m_min - 2]))


def test_simulate_diagonal_block_is_stationary():
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0)
    blk = DensityBlock.zeros(0, 0, 4)
    for j in range(5):
        blk.elements[j, j] = (j + 1) / 15.0
    grid = simulate_pr(blk, spec, gauss_legendre_grid(9), n_t=16)
    assert np.max(np.abs(grid.values - grid.values[0])) < 1e-13


def test_simulate_is_periodic_over_the_revival_time():
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0, m=1)
    blk = make_test_state("random-pure", 0, 1, 4, seed=5)
    grid = simulate_pr(blk, spec, gauss_legendre_grid(9), n_t=30, n_periods=2)
    assert np.max(np.abs(grid.values[:15] - grid.values[15:])) < 1e-12


def test_simulate_even_pair_block_gives_symmetric_distribution():
    # only even J1 + J2 entries: Pr(-x, t) = Pr(x, t) at every time
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0)
    blk = DensityBlock.zeros(0, 0, 4)
    rng = np.random.default_rng(3)
    for j1, j2 in [(0, 0), (2, 2), (4, 4), (0, 2), (2, 4), (0, 4)]:
        v = rng.normal() + 1j * rng.normal() if j1 != j2 else abs(rng.normal())
        blk.elements[j1, j2] = v
        blk.elements[j2, j1] = np.conj(v)
    grid = simulate_pr(blk, spec, gauss_legendre_grid(10), n_t=7)
    assert np.max(np.abs(grid.values - grid.values[:, ::-1])) < 1e-12


def test_simulate_conserves_trace_at_every_time():
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0, m=2)
    blk = make_test_state("random-mixed", 0, 2, 5, seed=9)
    grid = simulate_pr(blk, spec, gauss_legendre_grid(11), n_t=13)
    norms = grid.values @ grid.x_grid.weights
    assert np.max(np.abs(norms - blk.trace())) < 1e-12
    assert grid.trace_estimate() == pytest.approx(blk.trace(), abs=1e-12)


def test_alignment_trace_of_isotropic_state():
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0)
    blk = DensityBlock.zeros(0, 0, 2)
    blk.elements[0, 0] = 1.0  # J = 0 only: |f_0|^2 = 1/2, <x^2> = 1/3
    grid = simulate_pr(blk, spec, gauss_legendre_grid(6), n_t=4)
    assert np.max(np.abs(grid.alignment_trace() - 1.0 / 3.0)) < 1e-14


def test_simulate_rejects_coarse_x_grid_and_wrong_channel():
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0)
    blk = make_test_state("random-mixed", 0, 0, 4, seed=0)
    with pytest.raises(ValueError):
        simulate_pr(blk, spec, gauss_legendre_grid(8), n_t=4)  # needs >= 9
    other = RotorSpec(kind=RotorKind.RIGID, omega=1.0, m=1)
    with pytest.raises(ValueError):
        simulate_pr(blk, other, gauss_legendre_grid(11), n_t=4)


def test_simulate_enforces_distortion_monotonicity():
    spec = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=5e-3)
    blk = make_test_state("random-mixed", 0, 0, 12, seed=0)
    with pytest.raises(ValueError):
        simulate_pr(blk, spec, gauss_legendre_grid(30), n_t=8)


# ------------------------------------------------------------ reference states


@pytest.mark.parametrize("kind", ["random-pure", "random-mixed", "cos2-kicked"])
def test_reference_states_are_unit_trace_and_psd(kind):
    blk = make_test_state(kind, 1, 1, 5, seed=2, kick_strength=1.2)
    assert blk.trace() == pytest.approx(1.0, abs=1e-12)
    assert blk.min_eigenvalue() > -1e-12
    assert blk.hermiticity_defect() == 0.0  # so simulate_pr computes no Im Pr for it


def test_reference_states_deterministic_and_distinct_by_seed():
    a = make_test_state("random-mixed", 0, 0, 4, seed=11)
    b = make_test_state("random-mixed", 0, 0, 4, seed=11)
    c = make_test_state("random-mixed", 0, 0, 4, seed=12)
    assert np.array_equal(a.elements, b.elements)
    assert not np.array_equal(a.elements, c.elements)


def test_pure_state_has_rank_one():
    blk = make_test_state("random-pure", 0, 1, 5, seed=3)
    evals = np.linalg.eigvalsh(blk.elements)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(evals[:-1])) < 1e-12


def test_kicked_state_reduces_to_ground_level_without_kick():
    blk = make_test_state("cos2-kicked", 0, 0, 3, kick_strength=0.0)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.max(np.abs(blk.elements - want)) < 1e-14


def test_kicked_state_builds_coherences():
    blk = make_test_state("cos2-kicked", 0, 0, 3, kick_strength=1.2)
    off = blk.elements - np.diag(np.diag(blk.elements))
    assert np.max(np.abs(off)) > 0.05


def test_kicked_state_at_the_largest_blocks_is_unit_trace():
    # j_max = 100 is the largest block a plan takes; its working space runs to J = 204
    blk = make_test_state("cos2-kicked", 0, 0, 100, kick_strength=1.2)
    assert blk.trace() == pytest.approx(1.0, abs=1e-12)
    assert blk.hermiticity_defect() < 1e-12


def test_kicked_state_reads_no_coefficient_table(monkeypatch):
    # x^2 comes from the eigenfunctions, so the reference side of the closed
    # loop shares no table with the inverse
    def refuse(k, m, j_max):
        raise AssertionError(f"coefficient_table({k}, {m}, {j_max}) read by make_test_state")

    for module in (rotortomo, angular, rotor, tomography):
        if hasattr(module, "coefficient_table"):
            monkeypatch.setattr(module, "coefficient_table", refuse)
    for k, m in [(0, 0), (1, 1), (0, 2)]:
        blk = make_test_state("cos2-kicked", k, m, 6, kick_strength=1.2)
        assert blk.trace() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m, j_max, kick", [(0, 6, 1.2), (1, 8, 1.7), (2, 5, 0.8)])
def test_kicked_state_matches_the_kick_applied_by_quadrature(m, j_max, kick):
    # c_J = integral f_J(x) exp(i kick x^2) f_m(x) dx, truncated to the block and renormalized
    rule = gauss_legendre_grid(120)
    x, w = rule.nodes, rule.weights
    kicked = np.exp(1j * kick * x**2) * oracles.norm_legendre(abs(m), m, x)
    c = np.array(
        [np.sum(w * oracles.norm_legendre(J, m, x) * kicked) for J in range(abs(m), j_max + 1)]
    )
    c /= np.linalg.norm(c)
    blk = make_test_state("cos2-kicked", 0, m, j_max, kick_strength=kick)
    assert np.max(np.abs(blk.elements - np.outer(c, c.conj()))) < 1e-12


def test_make_test_state_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_test_state("thermal", 0, 0, 3, seed=0)


# ------------------------------------------------------------------ shot noise


def _noise_setup(n_samples, seed):
    spec = RotorSpec(kind=RotorKind.RIGID, omega=1.0)
    blk = make_test_state("cos2-kicked", 0, 0, 3, kick_strength=1.2)
    grid = simulate_pr(blk, spec, gauss_legendre_grid(9), n_t=13)
    return grid, add_shot_noise(grid, n_samples, seed)


def test_shot_noise_deterministic_and_trace_preserving():
    grid, noisy = _noise_setup(20000, 5)
    _, again = _noise_setup(20000, 5)
    assert np.array_equal(noisy.values, again.values)
    norms = noisy.values @ noisy.x_grid.weights
    assert np.max(np.abs(norms - grid.trace_estimate())) < 1e-12


def test_shot_noise_shrinks_with_sample_count():
    grid, coarse = _noise_setup(2000, 8)
    _, fine = _noise_setup(2_000_000, 8)
    err_coarse = np.max(np.abs(coarse.values - grid.values))
    err_fine = np.max(np.abs(fine.values - grid.values))
    assert err_fine < err_coarse / 5
    assert err_fine < 0.02


def test_shot_noise_draws_like_one_multinomial_call_per_slice():
    grid, _ = _noise_setup(10, 0)
    grid.values[4] = 0.0  # a slice without mass draws nothing and stays 0
    grid.values[7] = -grid.values[7]  # negative masses clip to 0 as well
    samples, seed = 100_000, 21
    rng = np.random.default_rng(seed)
    weights, trace = grid.x_grid.weights, grid.trace_estimate()
    want = np.zeros_like(grid.values)
    for i, row in enumerate(grid.values):
        masses = np.clip(weights * row, 0.0, None)
        if masses.sum() > 0:
            counts = rng.multinomial(samples, masses / masses.sum())
            want[i] = trace * counts / (samples * weights)
    got = add_shot_noise(grid, samples, seed).values
    assert np.array_equal(got, want)
    assert not got[4].any() and not got[7].any()


def test_shot_noise_rejects_bad_sample_count():
    grid, _ = _noise_setup(10, 0)
    with pytest.raises(ValueError):
        add_shot_noise(grid, 0, seed=1)
    with pytest.raises(ValueError, match="^samples_per_time must be an integer, got 1000000.0"):
        add_shot_noise(grid, 1e6, seed=1)
    # one past the int64 range that multinomial draws in
    message = r"^samples_per_time = 9223372036854775808 outside supported range "
    message += r"\[1, 9223372036854775807\]$"
    with pytest.raises(ValueError, match=message):
        add_shot_noise(grid, 2**63, seed=1)


_RIGID = RotorSpec(kind=RotorKind.RIGID, omega=1.0)


def test_grid_kind_is_normalised_and_an_unknown_one_fails_by_name(tmp_path):
    grid = _grid_with(kind="rigid-linear")
    assert grid.kind is RotorKind.RIGID
    result = tomography.reconstruct_block(grid, _RIGID, 2)
    assert result.residual_inf < 1e-12
    rotortomo.save_grid(grid, tmp_path / "grid.csv")
    assert rotortomo.load_grid(tmp_path / "grid.csv").kind is RotorKind.RIGID
    with pytest.raises(ValueError, match="unknown rotor kind 'bogus'"):
        _grid_with(kind="bogus")


def _simulate_j3(n_t, n_periods=1):
    blk = make_test_state("random-mixed", 0, 0, 3, seed=1)
    return simulate_pr(blk, _RIGID, gauss_legendre_grid(7), n_t, n_periods)


@pytest.mark.parametrize(
    "make,name",
    [
        (lambda: tomography.SamplingPlan.derive(_RIGID, 3.0), "j_max"),
        (lambda: tomography.SamplingPlan.derive(_RIGID, True), "j_max"),
        (lambda: tomography.SamplingPlan.derive(_RIGID, 3, n_periods=1.5), "n_periods"),
        (lambda: tomography.SamplingPlan.derive(_RIGID, 3, n_t=30.5), "n_t"),
        (lambda: tomography.SamplingPlan.derive(_RIGID, 3, n_x=9.0), "n_x"),
        (lambda: _simulate_j3(13.0), "n_t"),
        (lambda: _simulate_j3(26, n_periods=1.5), "n_periods"),
        (lambda: _simulate_j3(13, n_periods=True), "n_periods"),
        (lambda: _grid_with(n_periods=2.0), "n_periods"),
        (lambda: _grid_with(k=0.0), "k"),
        (lambda: _grid_with(m=False), "m"),
        (lambda: make_test_state("random-pure", 0, 0, 3.5), "j_max"),
        (lambda: make_test_state("random-pure", 0, 0, True), "j_max"),
        (lambda: DensityBlock(0, 0, 3.0, np.eye(4)), "j_max"),
        (lambda: DensityBlock(0, 0, True, np.eye(2)), "j_max"),
        (lambda: DensityBlock(0.5, 0, 3, np.eye(4)), "k"),
        (lambda: DensityBlock.zeros(0, 0.5, 3), "m"),
        (lambda: make_test_state("random-pure", 0, 0, 3).embedded(4.5), "j_max"),
        (lambda: coefficient_table(0.5, 0, 3), "k"),
        (lambda: tomography.pattern_function(2.0, 0, 0, 4), "j1"),
    ],
    ids=[
        "derive-j_max-float", "derive-j_max-bool", "derive-n_periods", "derive-n_t", "derive-n_x",
        "simulate-n_t", "simulate-n_periods-float", "simulate-n_periods-bool", "grid-n_periods",
        "grid-k", "grid-m", "state-j_max-float", "state-j_max-bool", "block-j_max-float",
        "block-j_max-bool", "block-k", "zeros-m", "embedded-j_max", "coefficients-k", "pattern-j1",
    ],
)
def test_non_integer_sizes_raise_a_named_error(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        make()


@pytest.mark.parametrize(
    "make",
    [lambda: make_test_state("random-pure", 0, 0, J_CAP + 1),
     lambda: DensityBlock.zeros(0, 0, J_CAP + 1)],
    ids=["state", "zeros"],
)
def test_blocks_above_the_cap_raise_a_named_error(make):
    with pytest.raises(ValueError, match=f"^j_max = {J_CAP + 1} outside supported range"):
        make()


@pytest.mark.parametrize(
    "make",
    [lambda: make_test_state("random-pure", 0, 2, 1), lambda: DensityBlock.zeros(3, 1, 2),
     lambda: DensityBlock(0, -2, 1, np.eye(1)),
     lambda: tomography.SamplingPlan.derive(RotorSpec(kind=RotorKind.RIGID, omega=1.0, m=2), 1),
     lambda: eigenfunction_rows(2, -1, 3, np.zeros(3))],
    ids=["state", "zeros", "block", "derive", "eigenfunction-rows"],
)
def test_blocks_below_the_channel_keep_their_message(make):
    with pytest.raises(ValueError, match=r"^j_max = \d below channel minimum \d$"):
        make()


@pytest.mark.parametrize(
    "make,needle",
    [
        (lambda: tomography.SamplingPlan.derive(_RIGID, 3, n_periods=0),
         "n_periods must be >= 1, got 0"),
        (lambda: _grid_with(n_periods=0), "n_periods must be >= 1, got 0"),
        (lambda: _simulate_j3(0), "n_t must be >= 1, got 0"),
        (
            lambda: DensityBlock(0, 1, 3, np.eye(4)),
            r"elements shape \(4, 4\) does not match J range 1..3 \(expected \(3, 3\)\)",
        ),
    ],
    ids=["derive-n_periods-0", "grid-n_periods-0", "simulate-n_t-0", "block-shape"],
)
def test_sizes_out_of_range_raise_a_named_error(make, needle):
    with pytest.raises(ValueError, match=f"^{needle}"):
        make()


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        MeasurementGrid(
            x_grid=gauss_legendre_grid(5),
            n_periods=1,
            values=np.zeros((3, 4)),
            omega=1.0,
            kind=RotorKind.RIGID,
            k=0,
            m=0,
        )
    # the period is pi/omega of the grid's own omega, whatever omega becomes
    assert replace(_grid_with(), omega=2.0).period == math.pi / 2
