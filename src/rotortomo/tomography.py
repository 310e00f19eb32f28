"""Inverse engine: moment integrals, degeneracy chains, and block reconstruction.

The data Pr(x, t) is linear in the density block: the level pair p = (J1,
J2) contributes rho_p f_J1(x) f_J2(x) exp(-i w_p t) on its line w_p = E(J1)
- E(J2).  Projecting onto the normalized Legendre polynomial P~_alpha and
Fourier-probing at a line frequency f gives the moment
I(alpha, f) = sum_p c_alpha(p) K(f - w_p) rho_p, with c_alpha the product
decomposition coefficient and K the finite-window Fourier kernel.  Pr is
real, so it fixes rho only up to rho(J2, J1) = conj rho(J1, J2).  A
reconstruction fits the n^2 real numbers it does fix to the Legendre
moments of the data over the time window by least squares, through the
normal equations: one real Gram matrix per group of parameters, and on the
right the moments at each pair's own line.  That is one fixed linear map
from data to block for every rotor kind (:func:`_probe_operator`).  Rigid
and symmetric-top lines sit on exact Fourier bins, where K is a Kronecker
delta and the fit splits into small groups per line; centrifugal
distortion moves the lines off the bins, and the kernel couples them.

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
the line of the pair with S = alpha, DJ = beta.  Only the pairs J1 >= J2,
on lines of non-negative frequency, are fitted and probed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .angular import (
    J_CAP,
    N_X_CAP,
    _check_j,
    _cosines,
    _rows,
    assoc_legendre_norm,
    coefficient_table,
    keeps_parity,
)
from .rotor import (
    DensityBlock,
    MeasurementGrid,
    RotorKind,
    RotorSpec,
    _keep_recent,
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
    For the centrifugal kind it is the exact level difference E(J1) - E(J2)
    of the target pair J1 = (alpha+beta)/2, J2 = (alpha-beta)/2, taken from
    the two levels' energies; in (alpha, beta) it reads
    beta (alpha+1) (omega - d_cd (alpha + (alpha^2+beta^2)/2)).
    A probe with beta = 0 sits at 0.  ``alpha`` and ``beta`` are integers,
    giving a float, or integer arrays of one shape, giving every probe's
    frequency in one step: the centrifugal levels come from one
    :func:`energy` call.  It is the one check of probe labels: a non-integer,
    alpha < 0, |beta| > alpha or a nonzero beta of the other parity raises.
    """
    a, b = np.asarray(alpha), np.asarray(beta)
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":  # signed or unsigned integers
        raise ValueError("alpha and beta must be integers")
    if (a < 0).any():
        raise ValueError(f"alpha must be non-negative, got {a[a < 0][0]}")
    bad = abs(b) > a
    if bad.any():
        raise ValueError(f"|beta| = {abs(b[bad][0])} exceeds alpha = {a[bad][0]}")
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
    (``orders``); ``value`` reads each probe's own order from it by one flat
    index, and ``phases`` hands back the table itself.  This is the one place the
    grid's omega is compared with the spec's (to 1e-12 relative), so the
    grid spans whole periods pi/omega of the spec.  A reconstruction fits
    ``orders``, every order of each line, and evaluates its fit from ``phases``.
    """
    a, b = np.asarray(alpha), np.asarray(beta)
    if a.shape != b.shape:
        raise ValueError(f"alpha shape {a.shape} differs from beta shape {b.shape}")
    omega = probe_frequency(spec, a.ravel(), b.ravel()).reshape(a.shape)
    if not abs(grid.omega - spec.omega) <= 1e-12 * spec.omega:
        raise ValueError(
            f"grid omega={grid.omega!r} does not match spec omega={spec.omega!r}"
        )
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
    value = moments[a.ravel(), np.arange(a.size)].reshape(a.shape)  # each probe's own order
    if a.ndim == 0:
        return MomentValue(int(a), int(b), float(omega), complex(value), orders, phases)
    return MomentValue(alpha=a, beta=b, omega=omega, value=value, orders=orders, phases=phases)


@dataclass(frozen=True)
class PatternFunction:
    """Projection function extracting one diagonal element directly.

    The zero-frequency moments I(alpha, 0) carry only the populations; the
    block's bin-0 group fits them by least squares, and ``coeffs`` is the
    (j1, j1) row of that fit's map G^-1 C, keyed by Legendre order alpha:
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
        rows = _rows(max(self.coeffs, default=0), 0, 0, _cosines(x))
        out = np.zeros_like(x)
        for alpha, c in self.coeffs.items():
            out += c * rows[alpha]
        return out

    def apply(self, grid: MeasurementGrid) -> float:
        return float(np.mean(grid.x_integrals(self.evaluate(grid.x_grid.nodes))))


def pattern_function(j1: int, k: int, m: int, j_cap: int) -> PatternFunction:
    """Row j1 of the bin-0 least-squares map of a (k, m) block up to j_cap."""
    _check_j("j1", j1, low=None)
    m_min = max(abs(k), abs(m))
    if not m_min <= j1 <= j_cap:
        raise ValueError(f"j1 = {j1} outside the reconstructible range {m_min}..{j_cap}")
    spec = RotorSpec(kind=RotorKind.SYMTOP if k else RotorKind.RIGID, omega=1.0, k=k, m=m)
    plan = SamplingPlan.derive(spec, j_cap)
    op = _probe_operator(spec, j_cap, plan.n_periods, plan.n_t)
    p = (j1 - m_min) * (j1 - m_min + 3)  # the cos parameter of (j1, j1), at twice its pair's index
    # its group is bin 0's, every diagonal pair, whose moments are the first probe's
    members, inverse = next(stack for stack in op.stacks if (stack[0] == p).any())
    group, i = np.argwhere(members == p)[0]
    row = inverse[group, i] @ op.coeffs[members[group] // 2]
    coeffs = {alpha: c for alpha, c in enumerate(row.tolist()) if c}
    return PatternFunction(j1=j1, k=k, m=m, j_cap=j_cap, coeffs=coeffs)


def _window_kernel(delta_omega: np.ndarray, dt: float, n_t: int, phase: np.ndarray) -> np.ndarray:
    """Re (1/N_t) sum_n exp(i (delta_omega * n * dt - phase)), the finite-window Fourier kernel.

    With x = delta_omega dt / 2 pi it is cos(pi x (N_t - 1) - phase) sinc(N_t x) /
    sinc(x), exact at x = 0; a plan's n_t > n_periods * tau_max keeps |x| < 1 for
    every sum or difference of two lines of a block, so sinc(x) never vanishes.
    """
    x = delta_omega * dt / (2.0 * np.pi)
    return np.cos(np.pi * x * (n_t - 1) - phase) * np.sinc(n_t * x) / np.sinc(x)


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

    The unknowns are the n^2 real parameters of the pairs p = (J1, J2), J1 >=
    J2, in ``numpy.tril_indices`` order: 2p is p's cos parameter (r_aa or 2 Re
    rho_p) and 2p + 1 its sin parameter (2 Im rho_p; none on the diagonal).
    ``probes`` labels one (alpha, beta) pair per line by increasing
    frequency, the zero line by (2 j_max, 0) so that its moments M reach
    every order; with ``line[p]`` p's probe, b_p = sum_alpha coeffs[p,
    alpha] M[line[p], alpha] gives p's cos parameter Re b_p and its sin
    parameter Im b_p.  ``stacks`` holds per group size w the members (g, w)
    of g groups and their real inverse Gram matrices (g, w, w), the rows of
    pairs J1 > J2 halved, so inverse @ b[members] gives the members' Re
    rho_p and Im rho_p.  ``positions`` are the flat indices of each pair and
    its mirror (J2, J1) in the block.  ``n_rows`` counts the real equations,
    one per carried order of the zero line and two of every other line.

    ``cond`` is the worst group's sqrt(lambda_max / lambda_min).  ``chains``
    maps each off-diagonal pair (J1, J2), J1 > J2, to the (S, DJ) pairs of
    the block on its line, and ``flags`` the pairs that have partners
    outside the block to those partners, which the support assumption sets
    to zero (:func:`_chains`).  ``nbytes`` counts the arrays alone: the
    chains and flags add about a third to them (0.69 MiB of Python objects,
    by tracemalloc, against 1.91 MiB of arrays at rigid j_max = 60).
    """

    probes: np.ndarray
    line: np.ndarray
    coeffs: np.ndarray
    positions: np.ndarray
    stacks: tuple[tuple[np.ndarray, np.ndarray], ...]
    n_rows: int
    cond: float
    chains: dict[tuple[int, int], list[tuple[int, int]]]
    flags: dict[tuple[int, int], list[tuple[int, int]]]

    @cached_property  # the memo sums it on every call, and the arrays are read-only
    def nbytes(self) -> int:
        """Bytes held by the operator's arrays, as the memo's 64 MiB bound counts them."""
        stacks = (a for stack in self.stacks for a in stack)
        return sum(a.nbytes for a in (self.probes, self.line, self.coeffs, self.positions, *stacks))


_OPERATOR_BYTES = 64 * 2**20
_operators: dict[tuple, ProbeOperator] = {}  # by grid shape, least recently used first


def _probe_operator(spec: RotorSpec, j_max: int, n_periods: int, n_t: int) -> ProbeOperator:
    """:func:`_build_probe_operator` memoized for the last four grid shapes, within 64 MiB."""
    key = (spec, j_max, n_periods, n_t)
    op = _operators[key] = _operators.pop(key, None) or _build_probe_operator(*key)
    _keep_recent(_operators, 4, _OPERATOR_BYTES)
    return op


def _build_probe_operator(spec: RotorSpec, j_max: int, n_periods: int, n_t: int) -> ProbeOperator:
    """Normal equations of the least-squares fit of a j_max block over one grid shape.

    The fit matches the Legendre moments y[t, alpha] = sum_i c_alpha(p_i)
    x_i Re(s_i exp(i w_i t)) over n_t samples of n_periods periods pi/omega,
    x_i the parameters of :class:`ProbeOperator`, w_i >= 0 their pair's
    line, s_i = 1 for a cos parameter and -i for a sin one.  Its normal
    equations G x = b have the real Gram matrix
    G[i, j] = (C C^T)[i, j] * 1/2 Re[s_i s_j K(w_i + w_j) + s_i conj(s_j) K(w_i - w_j)],
    K the window kernel, and b_i = Re(s_i sum_alpha c_alpha(p_i) M(w_i, alpha)).
    G splits into independent groups: an undistorted spectrum (rigid,
    symmetric-top, or d_cd = 0) puts every line on an exact bin, where K
    vanishes between bins and, by the plan's n_t > n_periods * tau_max, at
    w_i + w_j > 0, so each bin's cos and its sin parameters are two groups;
    any distortion, however small, takes the lines off the bins into one
    group.  Either splits by the parity of S = J1 + J2 where the
    coefficients keep it, for C C^T vanishes between the parities.  Each
    group's Gram is inverted by a real ``eigh``, one stack per group size.

    The operator stores 2 j_max + 1 coefficients per pair and w^2 inverse
    entries per group of w parameters.  On exact bins w <= n = j_max - m_min
    + 1 and the coefficients dominate, ~8 n^3 bytes: 0.04 MiB at rigid j_max
    = 14, 0.60 MiB at 40 and 1.91 MiB at 60.  A dense centrifugal spectrum
    has two parity groups of w ~ n^2 / 2, ~4 n^4 bytes: 3.78 MiB at j_max = 30.
    """
    m_min, n_orders = spec.m_min, 2 * j_max + 1
    n = j_max - m_min + 1
    rows, cols = np.tril_indices(n)  # the pairs J1 >= J2, J1 outer
    energies = energy(spec, np.arange(m_min, j_max + 1))
    omega = energies[rows] - energies[cols]
    coeffs = coefficient_table(spec.k, spec.m, j_max)[rows, cols]

    # lines: pairs of one frequency, by increasing frequency from the zero line
    bins, on_bins = _line_bins(spec, omega, n_periods)
    _, first, line = np.unique(bins, return_index=True, return_inverse=True)
    carried = np.zeros((len(first), n_orders), dtype=bool)
    np.logical_or.at(carried, line, coeffs != 0)

    # parameters: a cos one per pair, at 2p, and a sin one per pair J1 > J2, at 2p + 1
    params = np.flatnonzero(np.stack((rows >= cols, rows > cols), axis=1))
    pair, sin = np.divmod(params, 2)
    # groups: one per exact bin and cos or sin when every line sits on one, else one;
    # either split by the parity of S where the coefficients keep it
    label = 2 * (2 * bins.astype(np.intp)[pair] + sin) * on_bins
    label += (rows + cols)[pair] % 2 * keeps_parity(spec.k, spec.m)
    order = np.argsort(label, kind="stable")  # each group's parameters in increasing order
    _, start, size = np.unique(label[order], return_index=True, return_counts=True)
    dt = n_periods * (np.pi / spec.omega) / n_t
    stacks, cond = [], 1.0
    for w in sorted(set(size.tolist())):
        at = order[start[size == w, None] + np.arange(w)]  # (groups, w)
        c, f = coeffs[pair[at]], omega[pair[at]][:, :, None]
        phi = np.pi / 2 * sin[at][:, :, None]  # s = exp(-i phi), 1 or -i
        # Re s_i s_j K(w_i + w_j) + Re s_i conj(s_j) K(w_i - w_j), summed in place
        kernel = _window_kernel(f + f.transpose(0, 2, 1), dt, n_t, phi + phi.transpose(0, 2, 1))
        kernel += _window_kernel(f - f.transpose(0, 2, 1), dt, n_t, phi - phi.transpose(0, 2, 1))
        gram = c @ c.transpose(0, 2, 1) * (0.5 * kernel)
        lam, vec = np.linalg.eigh(gram)
        cond = max(cond, math.sqrt(float(np.max(lam[:, -1] / lam[:, 0]))))
        inverse = (vec / lam[:, None, :]) @ vec.transpose(0, 2, 1)
        inverse[rows[pair[at]] > cols[pair[at]]] *= 0.5  # 2 Re rho and 2 Im rho, halved
        stacks.append((params[at], inverse))
    probes = np.stack((rows + cols + 2 * m_min, rows - cols), axis=1)[first]
    probes[0] = 2 * j_max, 0  # the zero line's deepest pair, so its moments reach order 2 j_max
    positions = np.stack((rows * n + cols, cols * n + rows))
    for arr in (probes, line, coeffs, positions, *(a for stack in stacks for a in stack)):
        arr.setflags(write=False)
    chains, flags = _chains(spec, j_max, n_periods)
    return ProbeOperator(
        probes=probes, line=line, coeffs=coeffs, positions=positions, stacks=tuple(stacks),
        n_rows=int(carried.sum() + carried[1:].sum()), cond=cond, chains=chains, flags=flags,
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
    grid: MeasurementGrid, op: ProbeOperator, x: np.ndarray, phases: np.ndarray
) -> float:
    """max |Pr - model| over the grid, the model of the block read from its moments.

    ``x`` holds (Re rho_p, Im rho_p) of each pair p = (J1, J2), J1 >= J2, in
    the operator's order.  The model's Legendre moments are y[t, alpha] =
    sum_p (2 - delta_p) c_alpha(p) (Re rho_p cos(w_p t) + Im rho_p sin(w_p
    t)): one bincount of c_alpha(p) x onto the (line, cos or sin) columns of
    the probes' ``phases.view(float)`` and one real product.  The model is a
    polynomial of degree <= 2 j_max in x, so the P~ rows give it exactly at
    any x nodes.  It reads the inverse's own coefficient tables, so it
    checks the fit, not the tables: the independent check is a forward
    simulation (:func:`rotortomo.rotor.simulate_pr`) of the block.
    """
    n_lines, n_orders = phases.shape[1], op.coeffs.shape[1]
    terms = op.coeffs[:, None, :] * x.reshape(-1, 2, 1)  # (pairs, Re or Im, orders)
    cells = (2 * n_orders * op.line)[:, None] + np.arange(2 * n_orders)
    weight = np.bincount(cells.ravel(), terms.ravel(), 2 * n_lines * n_orders).reshape(-1, n_orders)
    weight[2:] *= 2.0  # a pair off the zero line stands for itself and its mirror
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
    """A fitted block; ``chains`` and ``flags`` copy the operator's on first read.

    ``diagnostics`` holds what the fit knows; the block gives its own trace and eigenvalues.
    """

    method: ClassVar[str] = "probe-least-squares"
    block: DensityBlock
    residual_inf: float
    diagnostics: dict
    _lines: tuple = field(repr=False, compare=False)  # the operator's chains and flags

    @cached_property
    def chains(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        return {pair: list(pairs) for pair, pairs in self._lines[0].items()}

    @cached_property
    def flags(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        return {pair: list(pairs) for pair, pairs in self._lines[1].items()}


def reconstruct_block(grid: MeasurementGrid, spec: RotorSpec, j_max: int) -> ReconstructionResult:
    """Full Hermitian block from one measurement grid, with diagnostics.

    One :func:`moment_integral` call probes every line of the block at every
    order; the grid shape's :func:`_probe_operator` maps those moments to
    the pairs J1 >= J2, the same least-squares map for every rotor kind,
    and their mirrors complete the block.  Population above j_max is
    assumed absent: an element whose chain has partners outside the block
    is flagged with those pairs.  The residual is the fit residual, the
    sup-norm mismatch between the data and the block's model on the same
    grid (:func:`_fit_residual`), and the diagnostics give the operator's
    unknown and row counts, its worst group's condition number and the
    plan.  A grid whose kind or channel differs from the spec's raises
    ValueError here, and one whose omega differs in :func:`moment_integral`.
    """
    if (grid.kind, grid.k, grid.m) != (spec.kind, spec.k, spec.m):
        raise ValueError(
            f"grid (kind={grid.kind.value}, k={grid.k}, m={grid.m}) does not match "
            f"spec (kind={spec.kind.value}, k={spec.k}, m={spec.m})"
        )
    plan = SamplingPlan.derive(spec, j_max, grid.n_periods, grid.n_t, grid.n_x)
    op = _probe_operator(spec, j_max, plan.n_periods, plan.n_t)
    probed = moment_integral(grid, op.probes[:, 0], op.probes[:, 1], spec)
    # b_p = sum_alpha c_alpha(p) M(w_p, alpha): Re b_p and Im b_p feed p's cos and sin parameters
    b = np.einsum("pa,pa->p", op.coeffs, probed.orders[op.line]).view(float)
    x = np.zeros_like(b)  # (Re rho_p, Im rho_p) of each pair; a diagonal's Im stays 0
    for members, inverse in op.stacks:
        x.put(members, inverse @ b.take(members)[..., None])
    # filled on J1 >= J2 and mirrored, so Hermitian to the bit
    n = j_max - plan.m_min + 1
    elements = np.empty(n * n, dtype=complex)
    elements.put(op.positions[1], x.view(complex).conj())
    elements.put(op.positions[0], x.view(complex))

    return ReconstructionResult(
        block=DensityBlock(spec.k, spec.m, j_max, elements.reshape(n, n)),
        residual_inf=_fit_residual(grid, op, x, probed.phases),
        diagnostics={"n_unknowns": n * n, "n_rows": op.n_rows, "cond": op.cond, "plan": plan},
        _lines=(op.chains, op.flags),
    )
