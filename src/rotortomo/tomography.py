"""Inverse engine: moment integrals, degeneracy chains, and block reconstruction.

The data Pr(x, t) is linear in the density block: projecting onto the
normalized Legendre polynomial P~_alpha and Fourier-probing at the
interference frequency of a level pair isolates a small set of elements.
For the rigid (and symmetric-top) spectrum the frequency of the pair
(J1, J2) is omega * DJ * (S + 1) with S = J1 + J2 and DJ = J1 - J2, so
distinct pairs collide exactly when DJ * (S + 1) matches; those collisions
form finite chains resolved by back substitution, deepest member first.
Centrifugal distortion detunes the collisions but makes frequencies
incommensurate with the sampling window, so that path solves one linear
system whose matrix carries the exact finite-window Fourier kernel of every
(probe, element) pair instead of assuming Kronecker deltas.

The block is the support: population above j_max is assumed absent, so a
chain keeps only the members inside the block, and the members outside it
are set to zero and reported as flags.  Chains are enumerated in one place,
:attr:`SamplingPlan.chains`.  Both solves return values by level pair, and
:func:`reconstruct_block` assembles either into the Hermitian block.

Every solve takes all of its moments from one :func:`moment_integral` call:
one matrix product projects the grid onto P~_0 .. P~_alpha_max, and one
phase-matrix product along t then yields every probe.  Plans are memoized
per (spec, j_max, n_periods, n_t, n_x), so chains are enumerated once per
grid shape; the centrifugal system's inverse is kept for the last few
grid shapes.

Throughout, pairs are labeled (S, DJ) = (J1+J2, J1-J2); a probe (alpha,
beta) targets the element with S = alpha, DJ = beta, and only beta >= 0
moments are ever evaluated (beta < 0 follows by conjugation of real data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .angular import J_CAP, N_X_CAP, assoc_legendre_norm, coefficient_table
from .rotor import (
    DensityBlock,
    MeasurementGrid,
    RotorKind,
    RotorSpec,
    bohr_frequency,
    check_distortion_range,
    energy,
    monotone_j_limit,
    simulate_pr,
)


class SamplingError(ValueError):
    """A grid violates a named sampling requirement of the reconstruction."""


@dataclass(frozen=True)
class MomentValue:
    """Probed moments: Legendre order alpha, pair offset beta, probe frequency, value.

    Scalars for one probe; arrays of one shape for many (see
    :func:`moment_integral`).
    """

    alpha: int
    beta: int
    omega: float
    value: complex


@dataclass(frozen=True)
class ChainMember:
    """A level pair in sum/difference labels: S = J1 + J2, DJ = J1 - J2."""

    j_sum: int
    delta_j: int

    @property
    def j1(self) -> int:
        return (self.j_sum + self.delta_j) // 2

    @property
    def j2(self) -> int:
        return (self.j_sum - self.delta_j) // 2

    @property
    def pair(self) -> tuple[int, int]:
        return (self.j_sum, self.delta_j)


@dataclass
class DegeneracyChain:
    """All pairs sharing one probe's frequency, by decreasing |DJ|.

    ``members`` lie within the chain's horizon (an S cap, or in a plan the
    block); ``neglected`` lists pairs that satisfy every frequency/parity
    condition but lie beyond it, i.e. the contributions taken as zero
    instead of subtracted.
    """

    target: int
    members: list[ChainMember]
    neglected: list[ChainMember]

    def pairs(self) -> list[tuple[int, int]]:
        return [mem.pair for mem in self.members]


def degeneracy_set(
    alpha: int, beta: int, m_km: int, s_cap: int, parity: bool = True
) -> DegeneracyChain:
    """Enumerate the pairs degenerate with the probe (alpha, beta) of a rigid spectrum.

    A pair (S, DJ) shares the probe frequency iff DJ*(S+1) = beta*(alpha+1)
    with the sign of beta, and contributes to the alpha-projection only if
    its decomposition coefficient at order alpha survives: |DJ| <= |beta|,
    both levels exist (J2 = (S-|DJ|)/2 >= m_km), and -- with ``parity``
    set, the k = 0 selection rule -- S and DJ share alpha's parity.  Blocks
    with k != 0 have no such rule and must pass ``parity=False``, which
    keeps every integer pair on the frequency.  Divisor enumeration of the
    target integer walks |DJ| downward, so members come out in strictly
    decreasing |DJ| with the probe's own pair first.  Pairs with S above
    ``s_cap`` are returned as ``neglected``; every member has S < |target|.
    """
    if beta == 0:
        raise ValueError("beta must be non-zero; the diagonal is handled separately")
    if (alpha - beta) % 2:
        raise ValueError(f"beta = {beta} must share the parity of alpha = {alpha}")
    target = beta * (alpha + 1)
    sign = 1 if beta > 0 else -1
    members: list[ChainMember] = []
    neglected: list[ChainMember] = []
    for dj in range(abs(beta), 0, -1):
        if parity and (alpha - dj) % 2:
            continue
        if abs(target) % dj:
            continue
        j_sum = abs(target) // dj - 1
        if (j_sum - dj) % 2 or dj > j_sum:
            continue
        if parity and (j_sum - alpha) % 2:
            continue
        if (j_sum - dj) // 2 < m_km:
            continue
        mem = ChainMember(j_sum=j_sum, delta_j=sign * dj)
        (members if j_sum <= s_cap else neglected).append(mem)
    return DegeneracyChain(target=target, members=members, neglected=neglected)


def degeneracy_set_cd(
    alpha: int,
    beta: int,
    m_km: int,
    s_cap: int,
    spec: RotorSpec,
    freq_tolerance: float,
) -> DegeneracyChain:
    """Near-degenerate pairs of a centrifugally distorted spectrum.

    Same admissibility conditions as :func:`degeneracy_set`, but pairs are
    kept when their exact level-difference frequency lies strictly closer
    than ``freq_tolerance`` to the probe pair's, instead of matching the
    rigid integer condition.  Strictly, because a line exactly one bin
    (2 omega / n_periods) away sits on a zero of the window kernel.  The
    scan stops at S = ``s_cap`` and at the J where the distorted spectrum
    stops increasing.  With d_cd = 0 the output reduces to the rigid chain.
    """
    if beta == 0:
        raise ValueError("beta must be non-zero; the diagonal is handled separately")
    if freq_tolerance < 0:
        raise ValueError(f"freq_tolerance must be non-negative, got {freq_tolerance}")
    # both signs of beta compare positive upper-minus-lower frequencies
    omega0 = abs(probe_frequency(spec, alpha, beta))
    sign = 1 if beta > 0 else -1
    j1_cap = min(s_cap, monotone_j_limit(spec))
    found: list[ChainMember] = []
    for dj in range(abs(beta), 0, -1):
        if (alpha - dj) % 2:
            continue
        for j2 in range(m_km, (s_cap - dj) // 2 + 1):
            j1 = j2 + dj
            if j1 > j1_cap or j1 + j2 < alpha or (j1 + j2 - alpha) % 2:
                continue
            if abs(bohr_frequency(spec, j1, j2) - omega0) < freq_tolerance:
                found.append(ChainMember(j_sum=j1 + j2, delta_j=sign * dj))
    return DegeneracyChain(target=beta * (alpha + 1), members=found, neglected=[])


def probe_frequency(spec: RotorSpec, alpha: int, beta: int) -> float:
    """Frequency probed by the (alpha, beta) moment.

    For rigid and symmetric-top spectra this is omega * beta * (alpha + 1).
    For the centrifugal kind it is the exact level difference
    E(J1) - E(J2) of the target pair J1 = (alpha+beta)/2, J2 = (alpha-beta)/2
    -- the quadratic distortion term depends on J1(J1+1) + J2(J2+1), not on
    beta*(alpha+1) alone, so no formula in (alpha, beta) alone reproduces it.
    """
    if beta == 0:
        return 0.0
    if (alpha - beta) % 2:
        raise ValueError(f"beta = {beta} must share the parity of alpha = {alpha}")
    if spec.kind is RotorKind.CENTRIFUGAL:
        j1, j2 = (alpha + beta) // 2, (alpha - beta) // 2
        lo = min(j1, j2)
        if lo < spec.m_min:
            raise ValueError(
                f"probe pair ({j1},{j2}) has no level below J = {spec.m_min}"
            )
        return bohr_frequency(spec, j1, j2)
    return spec.omega * beta * (alpha + 1)


@lru_cache(maxsize=32)
def _analysis_rows(alpha_max: int, nodes: bytes) -> np.ndarray:
    """Read-only rows P~_alpha(x) for alpha = 0 .. alpha_max at the x nodes."""
    x = np.frombuffer(nodes)
    rows = np.array([assoc_legendre_norm(alpha, 0, x) for alpha in range(alpha_max + 1)])
    rows.setflags(write=False)
    return rows


def moment_integral(
    grid: MeasurementGrid, alpha, beta, spec: RotorSpec, alpha_max: int = 0
) -> MomentValue:
    """Project the data onto P~_alpha and Fourier-probe the (alpha, beta) frequency.

    Returns (1/N_t) sum_t exp(+i omega t) * integral P~_alpha(x) Pr(x, t) dx,
    which for exact sampling equals the coefficient-weighted sum of the
    degenerate elements.  ``alpha`` and ``beta`` are integers, or integer
    arrays of one shape; for arrays every field of the result is an array
    of that shape.

    All probes of a call share one projection: a single matrix product gives
    y[t, alpha] = integral P~_alpha(x) Pr(x, t) dx for alpha up to the
    deepest probe, and one phase-matrix product against y then gives every
    moment, at the frequencies of :func:`probe_frequency`.  The grid must
    span whole periods pi/omega of the spec.  The projection goes to the
    deeper of the deepest probe and ``alpha_max``: a solve passes its
    plan's, so that every solve of a grid shape reads one memoized row set.
    """
    a, b = np.asarray(alpha), np.asarray(beta)
    if a.shape != b.shape:
        raise ValueError(f"alpha shape {a.shape} differs from beta shape {b.shape}")
    if not (np.issubdtype(a.dtype, np.integer) and np.issubdtype(b.dtype, np.integer)):
        raise ValueError("alpha and beta must be integers")
    if (a < 0).any():
        raise ValueError(f"alpha must be non-negative, got {a[a < 0][0]}")
    bad = abs(b) > a
    if bad.any():
        raise ValueError(f"|beta| = {abs(b[bad][0])} exceeds alpha = {a[bad][0]}")
    period = np.pi / spec.omega
    if abs(grid.period - period) > 1e-12 * period:
        raise ValueError(
            f"grid period={grid.period!r} does not match pi/omega={period!r} of the spec"
        )
    omega = np.array(
        [probe_frequency(spec, int(p), int(q)) for p, q in zip(a.flat, b.flat)]
    ).reshape(a.shape)
    alpha_max = max(int(a.max(initial=0)), alpha_max)
    if 2 * grid.n_x - 1 < alpha_max:
        raise SamplingError(
            f"n_x = {grid.n_x} cannot represent the order-{alpha_max} projection: "
            f"need n_x >= {(alpha_max + 1 + 1) // 2}"
        )
    if a.size and abs(omega).max() * grid.dt > np.pi:
        worst = int(abs(omega).argmax())
        fastest = float(omega.flat[worst])
        needed = math.ceil(abs(fastest) * grid.n_periods * grid.period / np.pi)
        raise SamplingError(
            f"n_t = {grid.n_t} undersamples the probe frequency {fastest:.6g} "
            f"(alpha={a.flat[worst]}, beta={b.flat[worst]}): need n_t >= {needed}"
        )
    nodes = np.asarray(grid.x_grid.nodes, dtype=float).tobytes()
    y = grid.x_integrals(_analysis_rows(alpha_max, nodes))  # (n_t, alpha_max + 1)
    phases = np.exp(1j * np.multiply.outer(grid.times, omega))
    value = np.sum(phases * y[:, a], axis=0) / grid.n_t
    if a.ndim == 0:
        return MomentValue(alpha=int(a), beta=int(b), omega=float(omega), value=complex(value))
    return MomentValue(alpha=a, beta=b, omega=omega, value=value)


@dataclass(frozen=True)
class PatternFunction:
    """Projection function extracting one diagonal element directly.

    The diagonal system I(2J', 0) = sum_J M[J', J] rho_JJ is upper
    triangular; ``coeffs`` is the j1-th row of its inverse, so
    rho(j1, j1) = sum_J coeffs[J] * I(2J, 0).  Equivalently the data-domain
    function F(x) = sum_J coeffs[J] * P~_{2J}(x) time-averaged against
    Pr(x, t) yields the element in one pass.
    """

    j1: int
    k: int
    m: int
    j_cap: int
    coeffs: dict[int, float]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for J, c in self.coeffs.items():
            out += c * assoc_legendre_norm(2 * J, 0, x)
        return out

    def apply(self, grid: MeasurementGrid) -> float:
        return float(np.mean(grid.x_integrals(self.evaluate(grid.x_grid.nodes))))


@lru_cache(maxsize=64)
def _diag_system(k: int, m: int, j_cap: int) -> np.ndarray:
    """Read-only upper-triangular matrix M[a, j] = C(2*(M+j), 0, 2*(M+a))."""
    table = coefficient_table(k, m)
    m_min = max(abs(k), abs(m))
    n = j_cap - m_min + 1
    mat = np.zeros((n, n))
    for a in range(n):
        for j in range(a, n):
            mat[a, j] = table.coefficient(2 * (m_min + j), 0, 2 * (m_min + a))
    mat.setflags(write=False)
    return mat


def pattern_function(j1: int, k: int, m: int, j_cap: int) -> PatternFunction:
    m_min = max(abs(k), abs(m))
    if not m_min <= j1 <= j_cap:
        raise ValueError(f"j1 = {j1} outside the reconstructible range {m_min}..{j_cap}")
    mat = _diag_system(k, m, j_cap)
    n = mat.shape[0]
    idx = j1 - m_min
    # row idx of mat^-1: row @ mat = e_idx, solved by forward substitution
    row = np.zeros(n)
    row[idx] = 1.0 / mat[idx, idx]
    for j in range(idx + 1, n):
        row[j] = -(row[idx:j] @ mat[idx:j, j]) / mat[j, j]
    coeffs = {m_min + j: float(row[j]) for j in range(idx, n)}
    return PatternFunction(j1=j1, k=k, m=m, j_cap=j_cap, coeffs=coeffs)


def reconstruct_diag(grid: MeasurementGrid, spec: RotorSpec, j_max: int) -> np.ndarray:
    """Diagonal of the block from zero-frequency moments, by backward substitution.

    Probes I(alpha, 0) for alpha = 2*M .. 2*j_max; the system truncates at
    j_max, i.e. population beyond the requested block is assumed absent.
    """
    m_min = spec.m_min
    if j_max < m_min:
        raise ValueError(f"j_max = {j_max} below channel minimum {m_min}")
    mat = _diag_system(spec.k, spec.m, j_max)
    n = mat.shape[0]
    alphas = 2 * (m_min + np.arange(n))
    b = moment_integral(grid, alphas, np.zeros_like(alphas), spec).value.real
    diag = np.zeros(n)
    for a in range(n - 1, -1, -1):
        if abs(mat[a, a]) < 1e-13:
            raise ValueError(
                f"stretched diagonal coefficient vanished at alpha = {2 * (m_min + a)}"
            )
        diag[a] = (b[a] - mat[a, a + 1:] @ diag[a + 1:]) / mat[a, a]
    return diag


def reconstruct_offdiag(
    grid: MeasurementGrid, spec: RotorSpec, plan: SamplingPlan
) -> dict[tuple[int, int], complex]:
    """Off-diagonal elements by chain back substitution (rigid / symmetric top).

    Each block pair is probed at its own stretched moment and solved in
    order of increasing |DJ|.  Its chain lists the pair first and then its
    in-block partners by decreasing |DJ|, so those are already known when
    they are subtracted; partners outside the block are taken as zero.
    Returns (J1, J2) -> value with J1 > J2.
    """
    if spec.kind is RotorKind.CENTRIFUGAL and spec.d_cd != 0.0:
        raise ValueError("chain back substitution assumes a rigid spectrum; "
                         "use reconstruct_block for centrifugal data")
    table = spec.coefficient_table()
    order = sorted(plan.chains, key=lambda pair: (pair[0] - pair[1], pair))
    levels = np.array(order, dtype=int).reshape(-1, 2)
    moments = moment_integral(
        grid, levels[:, 0] + levels[:, 1], levels[:, 0] - levels[:, 1], spec, plan.alpha_max
    ).value
    solved: dict[tuple[int, int], complex] = {}
    for (j1, j2), acc in zip(order, moments):
        s, dj = j1 + j2, j1 - j2
        for mem in plan.chains[(j1, j2)].members[1:]:
            acc -= table.coefficient(mem.j_sum, mem.delta_j, s) * solved[(mem.j1, mem.j2)]
        solved[(j1, j2)] = acc / table.coefficient(s, dj, s)
    return solved


def _window_kernel(delta_omega: np.ndarray, dt: float, n_t: int) -> np.ndarray:
    """(1/N_t) sum_n exp(i * delta_omega * n * dt), the finite-window Fourier kernel.

    Frequencies that land on an exact sampling bin (the rigid case) are
    snapped to 0 or 1 so the distortion-free limit reproduces Kronecker
    deltas to machine precision rather than through a 0/0 sine ratio.
    """
    s = delta_omega * dt * n_t / (2.0 * np.pi)
    r = np.round(s)
    on_bin = np.abs(s - r) < 1e-8
    kernel = np.where(on_bin & (r % n_t == 0), 1.0, 0.0).astype(complex)
    phi = delta_omega[~on_bin] * dt
    kernel[~on_bin] = (
        np.exp(1j * phi * (n_t - 1) / 2.0) * np.sin(n_t * phi / 2.0) / (n_t * np.sin(phi / 2.0))
    )
    return kernel


@lru_cache(maxsize=4)
def _windowed_system(
    spec: RotorSpec, j_max: int, n_periods: int, n_t: int
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Ordered block pairs (J1, J2) and the inverse of the windowed system.

    A[p, q] is the coefficient of pair q at probe p's Legendre order times
    the window kernel of their frequency offset, over n_t samples of
    n_periods periods pi/omega.  A and its inverse are complex and
    n^2 x n^2 with n = j_max - m_min + 1, so each entry holds 16 n^4 bytes
    (3 MB at n = 21, 15 MB at n = 31); the memo keeps the last four grid
    shapes.
    """
    js = range(spec.m_min, j_max + 1)
    pairs = [(j1, j2) for j1 in js for j2 in js]
    energies = np.array([energy(spec, J) for J in js])
    levels = np.array(pairs) - spec.m_min
    freqs = energies[levels[:, 0]] - energies[levels[:, 1]]
    table = spec.coefficient_table()
    coeffs = np.array(
        [[table.coefficient(b1 + b2, b1 - b2, a1 + a2) for b1, b2 in pairs] for a1, a2 in pairs]
    )
    dt = n_periods * (np.pi / spec.omega) / n_t
    kernel = _window_kernel(freqs[:, None] - freqs[None, :], dt, n_t)
    inverse = np.linalg.inv(coeffs * kernel)
    inverse.setflags(write=False)
    return pairs, inverse


def _reconstruct_windowed(
    grid: MeasurementGrid, spec: RotorSpec, plan: SamplingPlan
) -> dict[tuple[int, int], complex]:
    """Joint linear solve for the centrifugal path.

    Unknowns are the ordered pairs of the block, each owning one probe at
    its exact frequency.  The system matrix carries the window kernel of
    every (probe, unknown) frequency offset, so finite-window leakage
    between lines is modeled instead of ignored; it is inverted once per
    grid shape (:func:`_windowed_system`), so a solve is one product.  Only
    beta >= 0 moments are evaluated; conjugate rows reuse them.  Returns
    (J1, J2) -> value for every ordered pair.
    """
    pairs, inverse = _windowed_system(spec, plan.j_max, plan.n_periods, plan.n_t)
    n = plan.j_max - plan.m_min + 1
    i1, i2 = np.tril_indices(n)  # level offsets with J1 >= J2: one probe each
    moments = np.zeros((n, n), dtype=complex)
    moments[i1, i2] = moment_integral(grid, i1 + i2 + 2 * plan.m_min, i1 - i2, spec).value
    b = (moments + np.triu(moments.T.conj(), 1)).ravel()  # rows in the order of pairs
    return dict(zip(pairs, inverse @ b))


@dataclass(frozen=True)
class SamplingPlan:
    """Grid sizes that make every probe of a reconstruction exact.

    :meth:`derive` memoizes one plan per (spec, j_max, n_periods, n_t,
    n_x), so its lazy :attr:`chains` are enumerated once per grid shape.
    Plans compare by their sizes alone (``spec`` is not compared).

    The block is the support: no population above j_max is assumed, so no
    probe goes deeper than the block.  tau_max is the largest frequency in
    the block in units of omega; sampling tau_max + 1 times per period puts
    every line on its own exact Fourier bin.  alpha_max = 2 j_max is the
    deepest Legendre order probed; the x grid must integrate it against the
    block's own degree-2 j_max content exactly, hence n_x >= 2 j_max + 1.
    """

    j_max: int
    m_min: int
    n_periods: int
    tau_max: int
    alpha_max: int
    n_t: int
    n_x: int
    freq_tolerance: float
    spec: RotorSpec = field(compare=False, repr=False)

    @classmethod
    def derive(
        cls,
        spec: RotorSpec,
        j_max: int,
        n_periods: int = 1,
        n_t: int = 0,
        n_x: int = 0,
    ) -> "SamplingPlan":
        """Fill n_t / n_x (0 = auto) and validate explicit values.

        Plans are memoized: equal arguments return the same plan, so its
        lazy chains are enumerated once per grid shape.
        Raises :class:`SamplingError` naming the violated requirement.
        """
        return cls._build(spec, j_max, n_periods, n_t, n_x)

    @staticmethod
    @lru_cache(maxsize=64)
    def _build(spec: RotorSpec, j_max: int, n_periods: int, n_t: int, n_x: int) -> "SamplingPlan":
        m_min = spec.m_min
        if j_max < m_min:
            raise ValueError(f"j_max = {j_max} below channel minimum {m_min}")
        if n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {n_periods}")
        alpha_max = 2 * j_max
        if alpha_max > J_CAP:
            raise SamplingError(
                f"a j_max = {j_max} block is probed up to Legendre order {alpha_max}, "
                f"beyond the supported order {J_CAP}: need j_max <= {J_CAP // 2}"
            )
        check_distortion_range(spec, j_max)
        tau_max = (j_max - m_min) * (j_max + m_min + 1)

        n_t_min = n_periods * tau_max + 1
        if n_t == 0:
            n_t = n_periods * (tau_max + 1)
        elif n_t < n_t_min:
            raise SamplingError(
                f"n_t = {n_t} cannot separate block frequencies up to {tau_max}*omega "
                f"over {n_periods} period(s): need n_t >= {n_t_min}"
            )
        n_x_min = alpha_max + 1
        if n_x == 0:
            n_x = n_x_min
        elif n_x < n_x_min:
            raise SamplingError(
                f"n_x = {n_x} cannot integrate the order-{alpha_max} probes "
                f"against degree-{2 * j_max} data exactly: need n_x >= {n_x_min}"
            )
        elif n_x > N_X_CAP:
            raise SamplingError(
                f"n_x = {n_x} exceeds the supported {N_X_CAP} nodes: need n_x <= {N_X_CAP}"
            )
        return SamplingPlan(
            j_max=j_max,
            m_min=m_min,
            n_periods=n_periods,
            tau_max=tau_max,
            alpha_max=alpha_max,
            n_t=n_t,
            n_x=n_x,
            freq_tolerance=2.0 * spec.omega / n_periods,
            spec=spec,
        )

    @cached_property
    def chains(self) -> dict[tuple[int, int], DegeneracyChain]:
        """Degeneracy chain of each off-diagonal block pair (J1, J2), J1 > J2.

        Exact for rigid and symmetric-top spectra, within ``freq_tolerance``
        = 2 omega / n_periods of the probe frequency for centrifugal ones.
        ``members`` are the pairs inside the block; ``neglected`` are the
        partners outside it, which the support assumption sets to zero.
        Enumerated on first read.
        """
        spec, m_min = self.spec, self.m_min
        chains = {}
        for j2 in range(m_min, self.j_max + 1):
            for j1 in range(j2 + 1, self.j_max + 1):
                alpha, beta = j1 + j2, j1 - j2
                s_cap = beta * (alpha + 1)  # the rigid chain's horizon: S < target
                if spec.kind is RotorKind.CENTRIFUGAL:
                    chain = degeneracy_set_cd(
                        alpha, beta, m_min, s_cap, spec, self.freq_tolerance
                    )
                else:
                    chain = degeneracy_set(alpha, beta, m_min, s_cap, parity=spec.k == 0)
                chains[(j1, j2)] = DegeneracyChain(
                    target=chain.target,
                    members=[mem for mem in chain.members if mem.j1 <= self.j_max],
                    neglected=[mem for mem in chain.members if mem.j1 > self.j_max],
                )
        return chains


@dataclass
class ReconstructionResult:
    block: DensityBlock
    method: str
    residual_inf: float
    chains: dict[tuple[int, int], list[tuple[int, int]]]
    flags: dict[tuple[int, int], list[tuple[int, int]]]
    diagnostics: dict


def reconstruct_block(grid: MeasurementGrid, spec: RotorSpec, j_max: int) -> ReconstructionResult:
    """Full Hermitian block from one measurement grid, with diagnostics.

    Routes by rotor kind: rigid and symmetric-top data go through exact
    chain back substitution; centrifugal data through the windowed joint
    solve.  Population above j_max is assumed absent: an element whose
    chain has partners outside the block is flagged with those pairs,
    which the solve set to zero.  The residual reported is the sup-norm
    mismatch between the data and a resimulation from the reconstructed
    block on the same grid.  A grid whose kind, channel, omega or period
    (pi/omega, checked by :func:`moment_integral`) differs from the spec's
    raises ValueError.
    """
    if (grid.kind, grid.k, grid.m) != (spec.kind, spec.k, spec.m):
        raise ValueError(
            f"grid (kind={grid.kind.value}, k={grid.k}, m={grid.m}) does not match "
            f"spec (kind={spec.kind.value}, k={spec.k}, m={spec.m})"
        )
    if abs(grid.omega - spec.omega) > 1e-12 * spec.omega:
        raise ValueError(
            f"grid omega={grid.omega!r} does not match spec omega={spec.omega!r}"
        )
    plan = SamplingPlan.derive(spec, j_max, grid.n_periods, grid.n_t, grid.n_x)

    if spec.kind is RotorKind.CENTRIFUGAL:
        method = "windowed-least-squares"
        values = _reconstruct_windowed(grid, spec, plan)
        diagnostics = {"n_unknowns": len(values), "freq_tolerance": plan.freq_tolerance}
    else:
        method = "chain-back-substitution"
        values = reconstruct_offdiag(grid, spec, plan)
        diag = reconstruct_diag(grid, spec, j_max)
        values.update(((plan.m_min + i, plan.m_min + i), val) for i, val in enumerate(diag))
        diagnostics = {}

    block = DensityBlock.zeros(spec.k, spec.m, j_max)
    for (j1, j2), val in values.items():
        block.elements[j1 - block.j_min, j2 - block.j_min] = val
        if (j2, j1) not in values:  # one triangle solved: the other is its mirror
            block.elements[j2 - block.j_min, j1 - block.j_min] = np.conj(val)
    block.elements = (block.elements + block.elements.conj().T) / 2.0

    resim = simulate_pr(block, spec, grid.x_grid, grid.n_t, grid.n_periods)
    residual = float(np.max(np.abs(resim.values - grid.values)))
    diagnostics.update(trace=block.trace(), min_eigenvalue=block.min_eigenvalue(), plan=plan)
    return ReconstructionResult(
        block=block,
        method=method,
        residual_inf=residual,
        chains={pair: chain.pairs() for pair, chain in plan.chains.items()},
        flags={
            pair: [mem.pair for mem in chain.neglected]
            for pair, chain in plan.chains.items()
            if chain.neglected
        },
        diagnostics=diagnostics,
    )
