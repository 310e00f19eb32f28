"""Inverse engine: moment integrals, degeneracy chains, and block reconstruction.

The data Pr(x, t) is linear in the density block: the level pair p = (J1,
J2) contributes rho_p f_J1(x) f_J2(x) exp(-i w_p t) on its line w_p = E(J1)
- E(J2).  Projecting onto the normalized Legendre polynomial P~_alpha and
Fourier-probing at a line frequency f gives the moment
I(alpha, f) = sum_p c_alpha(p) K(f - w_p) rho_p, with c_alpha the product
decomposition coefficient and K the finite-window Fourier kernel.  A
reconstruction fits the Legendre moments of the data over the time window
by least squares, through the fit's normal equations: one Hermitian Gram
matrix (C C^T) o K per group of unknowns, and on the right the moments at
each pair's own line.  That is one fixed linear map from data to block for
every rotor kind (:func:`_probe_operator`).  Rigid and symmetric-top lines
sit on exact Fourier bins, where K is a Kronecker delta and the fit splits
into one small group per line (and per parity of S = J1 + J2 when k = 0 or
m = 0); centrifugal distortion moves the lines off the bins, and the kernel
couples them.

The residual of a reconstruction is the fit residual: the data against the
block's model, read from the moment call's own phase table
(:func:`_fit_residual`).  It uses the inverse's coefficient tables, so the
independent check of those tables stays with the forward simulator.

The block is the support: population above j_max is assumed absent.  The
degeneracy chains (:attr:`ProbeOperator.chains`) name the pairs that share
an element's line; those outside the block are reported as flags.  One
match of every candidate pair's line against the elements' lines, in the
operator's own bins (:func:`_chains`), gives them for every rotor kind.

Pairs are labeled (S, DJ) = (J1+J2, J1-J2); a probe (alpha, beta) sits on
the line of the pair with S = alpha, DJ = beta.  Only lines of non-negative
frequency are probed: for real data the others are their conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .angular import (
    J_CAP,
    N_X_CAP,
    _check_j,
    assoc_legendre_norm,
    coefficient_table,
    keeps_parity,
)
from .rotor import (
    DensityBlock,
    MeasurementGrid,
    RotorKind,
    RotorSpec,
    check_distortion_range,
    energy,
    monotone_j_limit,
    phase_table,
)


class SamplingError(ValueError):
    """A grid violates a named sampling requirement of the reconstruction."""


@dataclass(frozen=True)
class MomentValue:
    """Probed moments: Legendre order alpha, pair offset beta, probe frequency, value.

    Scalars for one probe; arrays of one shape for many (see
    :func:`moment_integral`).  ``orders`` holds each probe's moment at every
    Legendre order from 0 to the call's deepest alpha, along a trailing
    axis, and ``phases`` the call's :func:`phase_table`, exp(+i omega t)
    with one row per time sample and one column per probe, in the probes'
    flat order.
    """

    alpha: int
    beta: int
    omega: float
    value: complex
    orders: np.ndarray
    phases: np.ndarray


def probe_frequency(spec: RotorSpec, alpha, beta):
    """Frequency probed by the (alpha, beta) moment.

    For rigid and symmetric-top spectra this is omega * beta * (alpha + 1).
    For the centrifugal kind it is the exact level difference
    E(J1) - E(J2) of the target pair J1 = (alpha+beta)/2, J2 = (alpha-beta)/2
    -- the quadratic distortion term depends on J1(J1+1) + J2(J2+1), not on
    beta*(alpha+1) alone, so no formula in (alpha, beta) alone reproduces it.
    A probe with beta = 0 sits at 0.  ``alpha`` and ``beta`` are integers,
    giving a float, or integer arrays of one shape, giving every probe's
    frequency in one step: the centrifugal levels come from one
    :func:`energy` call.
    """
    a, b = np.asarray(alpha), np.asarray(beta)
    live = b != 0
    odd = live & ((a - b) % 2 != 0)
    if odd.any():
        raise ValueError(f"beta = {b[odd][0]} must share the parity of alpha = {a[odd][0]}")
    if spec.kind is not RotorKind.CENTRIFUGAL:
        omega = spec.omega * b * (a + 1)
    else:
        j1, j2 = (a + b)[live] // 2, (a - b)[live] // 2
        low = np.minimum(j1, j2) < spec.m_min
        if low.any():
            raise ValueError(
                f"probe pair ({j1[low][0]},{j2[low][0]}) has no level below J = {spec.m_min}"
            )
        levels = energy(spec, np.concatenate((j1, j2)))
        omega = np.zeros(a.shape)
        omega[live] = levels[: len(j1)] - levels[len(j1):]
    return float(omega) if omega.ndim == 0 else omega


@lru_cache(maxsize=32)
def _analysis_rows(alpha_max: int, nodes: bytes) -> np.ndarray:
    """Read-only rows P~_alpha(x) for alpha = 0 .. alpha_max at the x nodes."""
    x = np.frombuffer(nodes)
    rows = np.array([assoc_legendre_norm(alpha, 0, x) for alpha in range(alpha_max + 1)])
    rows.setflags(write=False)
    return rows


def _grid_rows(grid: MeasurementGrid, alpha_max: int) -> np.ndarray:
    """P~_alpha at the grid's x nodes for alpha = 0 .. max(alpha_max, 1), memoized."""
    # at least two orders, so y is always a matrix-matrix product and rounds
    # the same way whether one probe or many ask for it
    return _analysis_rows(max(alpha_max, 1), np.asarray(grid.x_grid.nodes, dtype=float).tobytes())


def moment_integral(grid: MeasurementGrid, alpha, beta, spec: RotorSpec) -> MomentValue:
    """Project the data onto P~_alpha and Fourier-probe the (alpha, beta) frequency.

    Returns (1/N_t) sum_t exp(+i omega t) * integral P~_alpha(x) Pr(x, t) dx,
    which for exact sampling equals the coefficient-weighted sum of the
    degenerate elements.  ``alpha`` and ``beta`` are integers, or integer
    arrays of one shape; for arrays every field of the result is an array
    of that shape.

    One :func:`probe_frequency` call gives every probe's frequency, and all
    probes of a call share one projection: a single matrix product gives
    y[t, alpha] = integral P~_alpha(x) Pr(x, t) dx for alpha up to the
    deepest probe's order, and one real product of the :func:`phase_table`
    against y then gives every probe's moment at every one of those orders
    (``orders``); ``value`` reads each probe's own order from it, and
    ``phases`` hands back the table itself.  This is the one place the
    grid's omega is compared with the spec's (to 1e-12 relative), so the
    grid spans whole periods pi/omega of the spec.  A reconstruction reads
    ``orders``: its probes are one per line, the deepest at its block's
    order 2 j_max, and its operator fits every order of each line.  It
    evaluates its fit on the grid from ``phases`` as well.
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
    if not abs(grid.omega - spec.omega) <= 1e-12 * spec.omega:
        raise ValueError(
            f"grid omega={grid.omega!r} does not match spec omega={spec.omega!r}"
        )
    omega = probe_frequency(spec, a.ravel(), b.ravel()).reshape(a.shape)
    alpha_max = int(a.max(initial=0))
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
    y = grid.x_integrals(_grid_rows(grid, alpha_max))[:, : alpha_max + 1]  # (n_t, alpha_max + 1)
    phases = phase_table(omega.ravel(), grid.dt, grid.n_t)  # (n_t, probes)
    # (cos, sin) columns of every probe against y: (alpha_max + 1, probes) complex
    moments = (y.T @ phases.view(float)).view(complex) / grid.n_t
    orders = moments.T.reshape(a.shape + (alpha_max + 1,))
    value = np.take_along_axis(orders, a[..., None], axis=-1)[..., 0]
    if a.ndim == 0:
        return MomentValue(int(a), int(b), float(omega), complex(value), orders, phases)
    return MomentValue(alpha=a, beta=b, omega=omega, value=value, orders=orders, phases=phases)


@dataclass(frozen=True)
class PatternFunction:
    """Projection function extracting one diagonal element directly.

    The zero-frequency moments I(alpha, 0) carry only the populations; the
    block's bin-0 group fits them by least squares, and ``coeffs`` is the
    j1-th row of that fit's map G^-1 C, keyed by Legendre order alpha:
    rho(j1, j1) = sum_alpha coeffs[alpha] * I(alpha, 0).  Equivalently the
    data-domain function F(x) = sum_alpha coeffs[alpha] * P~_alpha(x),
    time-averaged against Pr(x, t), yields the element in one pass.
    """

    j1: int
    k: int
    m: int
    j_cap: int
    coeffs: dict[int, float]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for alpha, c in self.coeffs.items():
            out += c * assoc_legendre_norm(alpha, 0, x)
        return out

    def apply(self, grid: MeasurementGrid) -> float:
        return float(np.mean(grid.x_integrals(self.evaluate(grid.x_grid.nodes))))


def pattern_function(j1: int, k: int, m: int, j_cap: int) -> PatternFunction:
    """Row j1 of the bin-0 least-squares map of a (k, m) block up to j_cap."""
    m_min = max(abs(k), abs(m))
    if not m_min <= j1 <= j_cap:
        raise ValueError(f"j1 = {j1} outside the reconstructible range {m_min}..{j_cap}")
    spec = RotorSpec(kind=RotorKind.SYMTOP if k else RotorKind.RIGID, omega=1.0, k=k, m=m)
    plan = SamplingPlan.derive(spec, j_cap)
    op = _probe_operator(spec, j_cap, plan.n_periods, plan.n_t)
    p = (j1 - m_min) * (j_cap - m_min + 2)  # the unknown (j1, j1)
    # its group is bin 0's, every diagonal pair, whose moments are the table's first row
    members, inverse = next(stack for stack in op.stacks if (stack[0] == p).any())
    group, i = np.argwhere(members == p)[0]
    row = inverse[group, i] @ op.coeffs[members[group]]
    coeffs = {alpha: float(c.real) for alpha, c in enumerate(row.tolist()) if c}
    return PatternFunction(j1=j1, k=k, m=m, j_cap=j_cap, coeffs=coeffs)


def _window_kernel(delta_omega: np.ndarray, dt: float, n_t: int) -> np.ndarray:
    """(1/N_t) sum_n exp(i * delta_omega * n * dt), the finite-window Fourier kernel.

    With x = delta_omega * dt / 2 pi this is exp(i pi x (N_t - 1)) sinc(N_t x)
    / sinc(x), exact at x = 0; a plan's n_t > n_periods * tau_max keeps every
    offset between two lines of a block below one sample rate, |x| < 1, so
    sinc(x) never vanishes.
    """
    x = delta_omega * dt / (2.0 * np.pi)
    return np.exp(1j * np.pi * x * (n_t - 1)) * np.sinc(n_t * x) / np.sinc(x)


def _line_bins(spec: RotorSpec, omega: np.ndarray, n_periods: int) -> tuple[np.ndarray, bool]:
    """Line frequencies in bins of 2 omega / n_periods, and whether they sit on exact bins.

    With d_cd = 0, whatever the kind, every line omega (n1 - n2) sits on an
    exact bin; its bins are rounded, so the rounding of the energies cannot
    split a line.  Any distortion takes the lines off the bins, and their
    bins stay fractional.
    """
    on_bins = spec.d_cd == 0.0
    bins = omega * n_periods / (2.0 * spec.omega)
    return (np.round(bins) if on_bins else bins), on_bins


@dataclass(frozen=True)
class ProbeOperator:
    """The fixed linear map from one grid's moments to its block, with its chains.

    ``probes`` holds the (alpha, beta) labels of one level pair on each line
    of non-negative frequency, in order; the zero line is labeled by its
    deepest pair (j_max, j_max), so the probes reach every order 0 .. 2
    j_max of the block, and :func:`moment_integral` gives their moments M
    at every one of them.  Stacking M over its conjugate (the negative
    lines, for real data) gives a table whose row ``source[p]`` holds the
    moments at the line of the ordered pair p of the block, row-major in
    (J1, J2).  The normal equations' right-hand side is
    b_p = sum_alpha coeffs[p, alpha] * table[source[p], alpha].  ``stacks``
    holds one (members, inverse) pair per group size w: members (g, w) lists
    the unknowns of each of the g groups of that size, and inverse (g, w, w)
    each group's inverse Gram matrix, so its elements are inverse @
    b[members].  ``n_rows`` counts the (line, alpha) moments that carry a
    coefficient, and ``cond`` is the worst group's sqrt(lambda_max /
    lambda_min).

    ``chains`` maps each off-diagonal pair (J1, J2), J1 > J2, to the (S, DJ)
    pairs of the block on its line, and ``flags`` the pairs that have
    partners outside the block to those partners, which the support
    assumption sets to zero (:func:`_chains`).  ``nbytes`` counts the arrays
    alone: the chains and flags add about a fifth to them (0.69 MiB of
    Python objects, by tracemalloc, against 3.65 MiB of arrays at rigid
    j_max = 60).
    """

    probes: np.ndarray
    source: np.ndarray
    coeffs: np.ndarray
    stacks: tuple[tuple[np.ndarray, np.ndarray], ...]
    n_rows: int
    cond: float
    chains: dict[tuple[int, int], list[tuple[int, int]]]
    flags: dict[tuple[int, int], list[tuple[int, int]]]

    @cached_property  # the memo sums it on every call, and the arrays are read-only
    def nbytes(self) -> int:
        """Bytes held by the operator's arrays, as the memo's 64 MiB bound counts them."""
        stacks = (a for stack in self.stacks for a in stack)
        return sum(a.nbytes for a in (self.probes, self.source, self.coeffs, *stacks))


_OPERATOR_BYTES = 64 * 2**20
_operators: dict[tuple, ProbeOperator] = {}  # by grid shape, least recently used first


def _probe_operator(spec: RotorSpec, j_max: int, n_periods: int, n_t: int) -> ProbeOperator:
    """:func:`_build_probe_operator` memoized for the last four grid shapes, within 64 MiB."""
    key = (spec, j_max, n_periods, n_t)
    op = _operators[key] = _operators.pop(key, None) or _build_probe_operator(*key)
    # the oldest go first, and the one just used stays however large it is
    while len(_operators) > 4 or len(_operators) > 1 and _OPERATOR_BYTES < sum(
        o.nbytes for o in _operators.values()
    ):
        del _operators[next(iter(_operators))]
    return op


def _build_probe_operator(spec: RotorSpec, j_max: int, n_periods: int, n_t: int) -> ProbeOperator:
    """Normal equations of the least-squares fit of a j_max block over one grid shape.

    Unknowns are the ordered pairs p of the block, on lines w_p = E(J1) -
    E(J2).  The fit matches the Legendre moments y[t, alpha] = sum_p
    c_alpha(p) exp(-i w_p t) rho_p over n_t samples of n_periods periods
    pi/omega; its normal equations read G rho = b, with the Gram matrix
    G[p, q] = (C C^T)[p, q] * K(w_p - w_q), K the window kernel, and b_p =
    sum_alpha c_alpha(p) M(w_p, alpha) from the moments at p's own line.
    G splits into independent groups: an undistorted spectrum (rigid,
    symmetric-top, or d_cd = 0) puts every line on an exact bin, where K
    vanishes between bins, so each bin is a group, and the plan's n_t >
    n_periods * tau_max keeps bins from aliasing; any distortion, however
    small, takes the lines off the bins, and all of them form one group.
    Either splits by the parity of S = J1 + J2 where the coefficients keep
    it, for C C^T vanishes between the parities.  Each group's Gram is
    built and inverted in one stack per group size, and the stacks are kept.

    The operator stores n^2 * n_orders coefficients, n = j_max - m_min + 1
    and n_orders = 2 j_max + 1, plus w^2 inverse entries per group of w
    unknowns.  A group on one bin has w <= n, so on exact bins the
    coefficients dominate, ~16 n^3 bytes: 0.06 MiB at rigid j_max = 14,
    1.13 MiB at 40 and 3.65 MiB at 60.  A dense centrifugal spectrum has
    two parity groups of w ~ n^2 / 2, ~8 n^4 bytes: 7.51 MiB at j_max = 30
    over 16 periods.
    """
    m_min, n_orders = spec.m_min, 2 * j_max + 1
    js = np.arange(m_min, j_max + 1)
    n = len(js)
    j1, j2 = np.repeat(js, n), np.tile(js, n)
    energies = energy(spec, js)
    omega = energies[j1 - m_min] - energies[j2 - m_min]
    coeffs = coefficient_table(spec.k, spec.m, j_max).reshape(n * n, n_orders)

    # lines: unknowns of one frequency, by increasing frequency; the frequencies come
    # in +- pairs, so h lines lie below the zero line and h above
    bins, on_bins = _line_bins(spec, omega, n_periods)
    _, first, line = np.unique(bins, return_index=True, return_inverse=True)
    h, lines = len(first) // 2, np.arange(len(first))
    source = np.where(lines >= h, lines - h, 2 * h + 1 - lines)[line]  # row of the moment table
    carried = np.zeros((len(first), n_orders), dtype=bool)
    np.logical_or.at(carried, line, coeffs != 0)

    # groups: one per exact bin when every line sits on one, else one;
    # either split by the parity of S where the coefficients keep it
    label = 2 * bins.astype(np.intp) * on_bins + (j1 + j2) % 2 * keeps_parity(spec.k, spec.m)
    members = np.argsort(label, kind="stable")  # each group's unknowns in increasing order
    _, start, size = np.unique(label[members], return_index=True, return_counts=True)
    dt = n_periods * (np.pi / spec.omega) / n_t
    stacks, cond = [], 1.0
    for w in sorted(set(size.tolist())):
        group = members[start[size == w, None] + np.arange(w)]  # (groups, w)
        c, f = coeffs[group], omega[group]
        gram = c @ c.transpose(0, 2, 1) * _window_kernel(f[:, :, None] - f[:, None, :], dt, n_t)
        lam, vec = np.linalg.eigh(gram)
        cond = max(cond, math.sqrt(float(np.max(lam[:, -1] / lam[:, 0]))))
        stacks.append((group, (vec / lam[:, None, :]) @ vec.conj().transpose(0, 2, 1)))
    probes = np.stack((j1 + j2, j1 - j2), axis=1)[first[h:]]
    probes[0] = 2 * j_max, 0  # the zero line's deepest pair, so its moments reach order 2 j_max
    for arr in (probes, source, coeffs, *(a for stack in stacks for a in stack)):
        arr.setflags(write=False)
    chains, flags = _chains(spec, j_max, n_periods)
    return ProbeOperator(
        probes=probes, source=source, coeffs=coeffs, stacks=tuple(stacks),
        n_rows=int(carried.sum()), cond=cond, chains=chains, flags=flags,
    )


def _chains(spec: RotorSpec, j_max: int, n_periods: int) -> tuple[dict, dict]:
    """The chains and flags of a :class:`ProbeOperator`, one chain per pair J1 > J2.

    The pair (S', DJ') is on the line of the element (J1, J2), alpha = J1 +
    J2 and beta = J1 - J2, when its line lies strictly within one bin of the
    element's (:func:`_line_bins`; a line one bin away sits on a zero of the
    window kernel), and it enters the element's order-alpha moment: 1 <= DJ'
    <= beta, alpha <= S' <= beta (alpha + 1), J2' >= m_min, J1' no deeper
    than :func:`monotone_j_limit`, and S' of alpha's parity where
    :func:`~rotortomo.angular.keeps_parity` holds.  One sort of the
    candidate lines and two searches match every element at once.
    Members run by decreasing DJ', then increasing S'; those with J1' <=
    j_max form the element's chain, the rest its flags.
    """
    m_min, d_max = spec.m_min, j_max - spec.m_min
    s_top = d_max * (j_max + m_min + 1)  # the block's largest beta (alpha + 1)
    levels = np.arange(m_min, min(monotone_j_limit(spec), max(j_max, (s_top + d_max) // 2)) + 1)
    energies = energy(spec, levels)
    # candidates (J2' + DJ', J2') within the horizon and the turning point
    dj, j2 = np.broadcast_arrays(np.arange(1, d_max + 1)[:, None], levels)
    keep = (j2 + dj <= levels[-1]) & (2 * j2 + dj <= s_top)
    dj, j2 = dj[keep], j2[keep]
    bins, _ = _line_bins(spec, energies[j2 + dj - m_min] - energies[j2 - m_min], n_periods)
    e2, e1 = np.triu_indices(d_max + 1, 1)  # the elements, J2 outer and J1 inner
    alpha, beta = e1 + e2 + 2 * m_min, e1 - e2
    found, _ = _line_bins(spec, energies[e1] - energies[e2], n_periods)
    # only candidates within a bin of the elements' lines can match
    near = (bins >= found.min(initial=0.0) - 1.0) & (bins <= found.max(initial=0.0) + 1.0)
    dj, j2, bins = dj[near], j2[near], bins[near]

    # each element's candidates within one bin are a run order[lo:lo + count]
    order = np.argsort(bins)
    lo = np.searchsorted(bins[order], found - 1.0, side="right")
    count = np.searchsorted(bins[order], found + 1.0, side="left") - lo
    elem = np.repeat(np.arange(len(found)), count)
    cand = order[np.arange(len(elem)) - np.repeat(np.cumsum(count) - count - lo, count)]
    s, d, a, b = 2 * j2[cand] + dj[cand], dj[cand], alpha[elem], beta[elem]
    ok = (d <= b) & (s >= a) & (s <= b * (a + 1))
    if keeps_parity(spec.k, spec.m):
        ok &= (s - a) % 2 == 0
    elem, s, d = elem[ok], s[ok], d[ok]
    beyond = (s + d) // 2 > j_max
    sort = np.lexsort((s, -d, beyond, elem))
    pairs = list(zip(s[sort].tolist(), d[sort].tolist()))
    # each element's chain, then its flags
    edges = np.searchsorted((2 * elem + beyond)[sort], np.arange(2 * len(found) + 1)).tolist()
    chains, flags = {}, {}
    for i, pair in enumerate(zip((e1 + m_min).tolist(), (e2 + m_min).tolist())):
        chains[pair] = pairs[edges[2 * i]:edges[2 * i + 1]]
        if edges[2 * i + 2] > edges[2 * i + 1]:
            flags[pair] = pairs[edges[2 * i + 1]:edges[2 * i + 2]]
    return chains, flags


def _fit_residual(
    grid: MeasurementGrid, op: ProbeOperator, rho: np.ndarray, phases: np.ndarray
) -> float:
    """max |Pr - model| over the grid, the model of the block rho read from its moments.

    The model's Legendre moments are y[t, alpha] = sum_p c_alpha(p) rho_p
    exp(-i w_p t).  Summing c_alpha(p) rho_p onto the moment-table rows
    (``op.source``) gives Z[row, alpha]; a pair on the line +f_l sits on row
    l, one on -f_l on its conjugate row lines + l, so with the probes'
    ``phases`` exp(+i f_l t) the real moments are
    cos(f_l t) (Re Z[l] + Re Z[lines + l]) + sin(f_l t) (Im Z[l] - Im Z[lines + l])
    summed over l: one real product.  The model is a polynomial of degree
    <= 2 j_max in x, so the P~ rows give it exactly at any x nodes.  It
    reads the inverse's own coefficient tables, so it checks the fit, not
    the tables: the independent check is a forward simulation
    (:func:`rotortomo.rotor.simulate_pr`) of the block.
    """
    n_lines, n_orders = phases.shape[1], op.coeffs.shape[1]
    terms = op.coeffs * rho.reshape(-1, 1)  # c_alpha(p) rho_p, (pairs, orders)
    cells = (op.source[:, None] * n_orders + np.arange(n_orders)).ravel()
    size = 2 * n_lines * n_orders
    zr = np.bincount(cells, terms.real.ravel(), size).reshape(2, n_lines, n_orders)
    zi = np.bincount(cells, terms.imag.ravel(), size).reshape(2, n_lines, n_orders)
    # (Re e, Im e) of each line against its cos and sin weights, as phases.view(float) lays them
    weight = np.stack((zr[0] + zr[1], zi[0] - zi[1]), axis=1).reshape(2 * n_lines, n_orders)
    model = phases.view(float) @ weight @ _grid_rows(grid, n_orders - 1)[:n_orders]
    model -= grid.values
    return float(np.abs(model, out=model).max())


@dataclass(frozen=True)
class SamplingPlan:
    """Grid sizes that make every probe of a reconstruction exact.

    A plain value: :meth:`derive` validates and fills the sizes on every
    call, and the chains live in the grid shape's :class:`ProbeOperator`.

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

        Raises :class:`SamplingError` naming the violated requirement, and
        ValueError for a size that is not an integer.
        """
        sizes = {"j_max": j_max, "n_periods": n_periods, "n_t": n_t, "n_x": n_x}
        for name, value in sizes.items():
            _check_j(name, value, low=None)
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
        return cls(j_max=j_max, m_min=m_min, n_periods=n_periods, tau_max=tau_max,
                   alpha_max=alpha_max, n_t=n_t, n_x=n_x)


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

    One :func:`moment_integral` call probes every line of the block at every
    order; the grid shape's :func:`_probe_operator` maps those moments to
    the block's ordered pairs, the same least-squares map for every rotor
    kind.  Population above j_max is assumed absent: an element whose chain
    has partners outside the block is flagged with those pairs.  The
    residual reported is the fit residual, the sup-norm mismatch between the
    data and the block's model on the same grid (:func:`_fit_residual`), and
    the diagnostics give the operator's unknown and row counts and its worst
    group's condition number.  A grid whose kind or channel differs from the
    spec's raises ValueError here, and one whose omega differs raises it in
    :func:`moment_integral`, where the frequencies are compared.
    """
    if (grid.kind, grid.k, grid.m) != (spec.kind, spec.k, spec.m):
        raise ValueError(
            f"grid (kind={grid.kind.value}, k={grid.k}, m={grid.m}) does not match "
            f"spec (kind={spec.kind.value}, k={spec.k}, m={spec.m})"
        )
    plan = SamplingPlan.derive(spec, j_max, grid.n_periods, grid.n_t, grid.n_x)
    op = _probe_operator(spec, j_max, plan.n_periods, plan.n_t)
    probed = moment_integral(grid, op.probes[:, 0], op.probes[:, 1], spec)
    table = np.concatenate((probed.orders, probed.orders.conj()))
    b = np.einsum("pa,pa->p", op.coeffs, table[op.source])
    n = j_max - plan.m_min + 1
    elements = np.empty(n * n, dtype=complex)
    for members, inverse in op.stacks:
        elements.put(members, inverse @ b.take(members)[..., None])
    elements = elements.reshape(n, n)

    block = DensityBlock(spec.k, spec.m, j_max, (elements + elements.conj().T) / 2.0)
    residual = _fit_residual(grid, op, block.elements, probed.phases)
    diagnostics = {
        "n_unknowns": n * n,
        "n_rows": op.n_rows,
        "cond": op.cond,
        "trace": block.trace(),
        "min_eigenvalue": block.min_eigenvalue(),
        "plan": plan,
    }
    return ReconstructionResult(
        block=block,
        method="probe-least-squares",
        residual_inf=residual,
        chains={pair: list(pairs) for pair, pairs in op.chains.items()},
        flags={pair: list(pairs) for pair, pairs in op.flags.items()},
        diagnostics=diagnostics,
    )
