"""Angular special functions, quadrature, and product-decomposition tables.

Conventions used throughout the package:

* ``assoc_legendre_norm(J, m, x)`` evaluates the associated Legendre function
  normalized on x = cos(theta) in [-1, 1],

      integral P~(J, m) P~(J', m) dx = delta(J, J'),

  i.e. P~(J, m, x) = sqrt((2J+1)/2 * (J-m)!/(J+m)!) * P_J^m(x) with the
  Condon-Shortley phase.  P~(J, 0) = sqrt((2J+1)/2) * P_J.

* ``wigner_d(J, k, m, x)`` is the reduced rotation matrix element
  d^J_{km}(beta) evaluated at x = cos(beta), in the convention fixed by
  d^J_{00}(x) = P_J(x) and d^1_{11}(x) = (1+x)/2.  Orthogonality:
  integral d^J_{km} d^J'_{km} dx = 2/(2J+1) delta(J, J').

* ``clebsch_gordan(j1, j2, j3, m1, m2, m3)`` is <j1 m1 j2 m2 | j3 m3> for
  integer angular momenta, evaluated by Racah's single-sum formula with
  log-factorial accumulation so that j up to J_CAP does not overflow.
  Selection-rule violations return 0.0 rather than raising.

* ``CoefficientTable`` (shared per channel by ``coefficient_table(k, m)``)
  expands a product of two normalized rotor eigenfunctions f_J
  (P~(J, m) for k = 0, sqrt((2J+1)/2) d^J_{km} otherwise) in the m = 0
  normalized Legendre basis:

      f_J1(x) f_J2(x) = sum_L c_L P~(L, 0, x),  L = |J1-J2| .. J1+J2.

  For k = 0 or m = 0 only L of the same parity as J1+J2 contribute; for
  k != 0 and m != 0 both parities of L carry weight.  The coefficients
  are *defined* by Gauss-Legendre projection, one matrix product per
  upper level J1 (``slab``); they agree with the closed form

      c_L = (-1)^(k-m) sqrt((2J1+1)(2J2+1) / (2(2L+1)))
            * C(J1,J2,L|k,-k,0) * C(J1,J2,L|m,-m,0)

  which the test suite cross-checks, and whose Clebsch-Gordan factors
  kill the odd-L terms when k = 0 or m = 0.

All functions are pure; the memo caches are append-only dictionaries, safe
to share between threads under the interpreter lock (worst case a value is
computed twice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

# Hard cap on angular momentum quantum numbers.  The log-factorial table and
# the recurrences below are well-behaved up to here; beyond it the moment
# chains would be astronomically long anyway.
J_CAP = 200

# Most Gauss-Legendre nodes a grid may carry.  The deepest probe (order J_CAP
# against degree-J_CAP data) needs J_CAP + 1; the rest is headroom for
# oversampled grids.  load_grid and SamplingPlan reject more, so neither a
# file header nor a config can make gauss_legendre_grid build or cache a
# larger rule.
N_X_CAP = 2 * J_CAP + 1

# log(n!) for n = 0 .. 4*J_CAP+2, enough for every factorial that appears in
# the Racah sum and the Wigner-d seeds at the cap.  A plain list: scalar
# lookups dominate the Clebsch-Gordan inner loop and are much faster than
# numpy element access.
_LOG_FACT = [0.0]
for _n in range(1, 4 * J_CAP + 3):
    _LOG_FACT.append(_LOG_FACT[-1] + math.log(_n))

# Extended-precision copies for the Racah sum.  Its alternating terms cancel
# heavily at large j; 80-bit accumulation keeps unitarity defects near 1e-15
# where plain doubles drift past 1e-12.
_LOG_FACT_LD = []
_acc = np.longdouble(0.0)
for _n in range(0, 4 * J_CAP + 3):
    if _n > 0:
        _acc += np.log(np.longdouble(_n))
    _LOG_FACT_LD.append(_acc)
_LOG_INT_LD = [np.log(np.longdouble(_n if _n else 1)) for _n in range(2 * J_CAP + 3)]
_HALF_LD = np.longdouble(0.5)


def _check_j(name: str, value: int, low: int = 0) -> None:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or value > J_CAP:
        raise ValueError(f"{name} = {value} outside supported range [{low}, {J_CAP}]")


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def gauss_legendre_grid(order: int) -> QuadratureGrid:
    """Gauss-Legendre rule of the given order (exact for degree <= 2*order-1)."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureGrid(nodes=nodes, weights=weights, order=order)


def _legendre_rows(j_max: int, m: int, x: np.ndarray) -> np.ndarray:
    """Rows P~(J, m, x) for J = |m| .. j_max, shape (j_max - |m| + 1, len(x)).

    Upward recurrence in J at fixed m on the normalized functions; the seed
    P~(|m|, |m|) is built in log space, so no raw factorial ratios appear.
    """
    am = abs(m)
    if j_max < am:
        return np.zeros((0, len(x)))
    # log of (2am-1)!!/(2am)!! accumulated termwise
    log_ratio = sum(math.log((2 * i - 1) / (2.0 * i)) for i in range(1, am + 1))
    log_seed = 0.5 * (math.log((2 * am + 1) / 2.0) + log_ratio)
    seed = ((-1) ** am) * np.exp(log_seed + 0.5 * am * np.log1p(-x * x))
    rows = np.empty((j_max - am + 1, len(x)))
    rows[0] = seed
    prev = np.zeros_like(seed)
    cur = seed
    for j in range(am, j_max):
        a = math.sqrt((2 * j + 3) * (2 * j + 1) / ((j + 1.0 - am) * (j + 1.0 + am)))
        b = math.sqrt(
            (2 * j + 3) / (2 * j - 1.0) * (j - am) * (j + am) / ((j + 1.0 - am) * (j + 1.0 + am))
        ) if j > am else 0.0
        nxt = a * x * cur - b * prev
        rows[j + 1 - am] = nxt
        prev, cur = cur, nxt
    if m < 0 and am % 2 == 1:
        rows = -rows
    return rows


def assoc_legendre_norm(J: int, m: int, x):
    """Normalized associated Legendre function P~(J, m) at x = cos(theta)."""
    _check_j("J", J)
    if abs(m) > J:
        raise ValueError(f"|m| = {abs(m)} exceeds J = {J}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("x must lie in [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0)
    value = _legendre_rows(J, m, arr)[-1]
    return float(value[0]) if np.isscalar(x) or np.ndim(x) == 0 else value


def _wigner_seed(j0: int, k: int, m: int, x: np.ndarray) -> np.ndarray:
    """d^{j0}_{km} for j0 = max(|k|, |m|): a single monomial in half-angles."""
    s = max(0, m - k)
    lf = _LOG_FACT
    log_norm = 0.5 * (lf[j0 + k] + lf[j0 - k] + lf[j0 + m] + lf[j0 - m]) - (
        lf[j0 + m - s] + lf[s] + lf[k - m + s] + lf[j0 - k - s]
    )
    sign = -1.0 if (k - m + s) % 2 else 1.0
    half_cos2 = (1.0 + x) / 2.0  # cos^2(beta/2)
    half_sin2 = (1.0 - x) / 2.0  # sin^2(beta/2)
    pc = 2 * j0 - 2 * s + m - k
    ps = k - m + 2 * s
    # exponents pc, ps are even or the base is >= 0, so real powers are safe
    return sign * np.exp(log_norm) * half_cos2 ** (pc / 2.0) * half_sin2 ** (ps / 2.0)


def _wigner_rows(j_max: int, k: int, m: int, x: np.ndarray) -> np.ndarray:
    """Rows d^J_{km}(x) for J = max(|k|,|m|) .. j_max via three-term recurrence.

    Uses x d^j = A_j d^{j+1} + B_j d^j + C_j d^{j-1} with the standard
    coefficients; the seed at j0 = max(|k|,|m|) is exact, and the C_j term
    vanishes automatically on the first step.
    """
    j0 = max(abs(k), abs(m))
    if j_max < j0:
        return np.zeros((0, len(x)))
    rows = np.empty((j_max - j0 + 1, len(x)))
    cur = _wigner_seed(j0, k, m, x)
    rows[0] = cur
    prev = np.zeros_like(cur)
    for j in range(j0, j_max):
        a = math.sqrt(((j + 1.0) ** 2 - k * k) * ((j + 1.0) ** 2 - m * m)) / ((j + 1.0) * (2 * j + 1))
        b = k * m / (j * (j + 1.0)) if j > 0 else 0.0
        c = math.sqrt((j * j - k * k) * (j * j - m * m)) / (j * (2.0 * j + 1)) if j > 0 else 0.0
        nxt = ((x - b) * cur - c * prev) / a
        rows[j + 1 - j0] = nxt
        prev, cur = cur, nxt
    return rows


def wigner_d(J: int, k: int, m: int, x):
    """Reduced rotation matrix element d^J_{km} at x = cos(beta)."""
    _check_j("J", J)
    if abs(k) > J or abs(m) > J:
        raise ValueError(f"|k| = {abs(k)} and |m| = {abs(m)} must not exceed J = {J}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("x must lie in [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0)
    value = _wigner_rows(J, k, m, arr)[-1]
    return float(value[0]) if np.isscalar(x) or np.ndim(x) == 0 else value


def clebsch_gordan(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Clebsch-Gordan coefficient <j1 m1 j2 m2 | j3 m3> (integer j only).

    Returns 0.0 for any selection-rule violation (m3 != m1+m2, |m| > j,
    triangle inequality) instead of raising.
    """
    if j1 < 0 or j2 < 0 or j3 < 0 or j1 > J_CAP or j2 > J_CAP or j3 > J_CAP:
        raise ValueError(f"j out of supported range [0, {J_CAP}]: ({j1}, {j2}, {j3})")
    if m1 + m2 != m3 or abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    lf = _LOG_FACT_LD
    exp = np.exp
    log_pref = _HALF_LD * (
        _LOG_INT_LD[2 * j3 + 1]
        + lf[j3 + j1 - j2] + lf[j3 - j1 + j2] + lf[j1 + j2 - j3] - lf[j1 + j2 + j3 + 1]
        + lf[j3 + m3] + lf[j3 - m3]
        + lf[j1 + m1] + lf[j1 - m1]
        + lf[j2 + m2] + lf[j2 - m2]
    )
    kmin = max(0, -(j3 - j2 + m1), -(j3 - j1 - m2))
    kmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = np.longdouble(0.0)
    for k in range(kmin, kmax + 1):
        term = exp(log_pref - lf[k] - lf[j1 + j2 - j3 - k] - lf[j1 - m1 - k]
                   - lf[j2 + m2 - k] - lf[j3 - j2 + m1 + k] - lf[j3 - j1 - m2 + k])
        total += -term if k % 2 else term
    return float(total)


def eigenfunction_rows(j_max: int, k: int, m: int, x: np.ndarray) -> np.ndarray:
    """Rows f_J(x) for J = max(|k|,|m|) .. j_max of the normalized eigenfunctions.

    f_J = P~(J, m) when k = 0, else sqrt((2J+1)/2) d^J_{km}.  Either way
    integral f_J f_J' dx = delta(J, J').
    """
    if k == 0:
        return _legendre_rows(j_max, m, x)
    j0 = max(abs(k), abs(m))
    rows = _wigner_rows(j_max, k, m, x)
    norms = np.sqrt((2 * np.arange(j0, j_max + 1) + 1) / 2.0)
    return norms[:, None] * rows


class CoefficientTable:
    """Product-decomposition coefficients for one (k, m) channel, built per level.

    :meth:`slab` projects every product f_J1 f_J2 with J2 <= J1 onto the
    Legendre orders in one matrix product, memoized per J1; every read
    below goes through it, so a pair's coefficients do not depend on which
    block or which call asks for them.

    ``coefficient(j_sum, delta_j, L)`` returns the coefficient of P~(L, 0)
    in the expansion of f_J1 f_J2 with J1 = (j_sum+delta_j)/2 and
    J2 = (j_sum-delta_j)/2, or 0.0 whenever the indices violate the range
    |delta_j| <= L <= j_sum, J2 >= max(|k|,|m|), integrality of the pair,
    or -- where ``parity`` holds -- the parity L == j_sum (mod 2).
    """

    def __init__(self, k: int, m: int):
        self.k = k
        self.m = m
        self.m_min = max(abs(k), abs(m))
        # c_L carries C(J1 J2 L | k -k 0) C(J1 J2 L | m -m 0), and C(J1 J2 L | 0 0 0)
        # vanishes for odd J1 + J2 + L: with k = 0 or m = 0 only L of that parity survive
        self.parity = k == 0 or m == 0
        self._slabs: dict[int, np.ndarray] = {}

    def slab(self, j1: int) -> np.ndarray:
        """C[J2 - m_min, L] of f_j1 f_J2 for J2 = m_min .. j1 and L = 0 .. 2 j1.

        One product (f_j1 f w) @ P~(L, 0)^T on the Gauss-Legendre rule of
        order 2 j1 + 1, exact for the degree <= 4 j1 integrands.  Entries
        outside |j1 - J2| <= L <= j1 + J2, and where ``parity`` holds those
        with L of the other parity than j1 + J2, are exact zeros.  Read-only,
        memoized.
        """
        out = self._slabs.get(j1)
        if out is None:
            _check_j("J1", j1, low=self.m_min)
            grid = gauss_legendre_grid(2 * j1 + 1)
            f = eigenfunction_rows(j1, self.k, self.m, grid.nodes)
            out = (f[-1] * grid.weights * f) @ _legendre_rows(2 * j1, 0, grid.nodes).T
            j2 = np.arange(self.m_min, j1 + 1)[:, None]
            L = np.arange(2 * j1 + 1)
            keep = (j1 - j2 <= L) & (L <= j1 + j2)
            if self.parity:
                keep &= (L + j1 + j2) % 2 == 0
            out[~keep] = 0.0
            out.setflags(write=False)
            self._slabs[j1] = out
        return out

    def tensor(self, j_max: int) -> np.ndarray:
        """C[J1 - m_min, J2 - m_min, L] for J1, J2 = m_min .. j_max, L = 0 .. 2 j_max.

        The slabs stacked into one array, symmetric in (J1, J2).
        """
        n = j_max - self.m_min + 1
        out = np.zeros((n, n, 2 * j_max + 1))
        for i in range(n):
            s = self.slab(self.m_min + i)
            out[i, : i + 1, : s.shape[1]] = s
            out[: i + 1, i, : s.shape[1]] = s
        return out

    def decomposition(self, j1: int, j2: int) -> dict[int, float]:
        """{L: c_L} of f_j1 * f_j2 for L = |j1-j2| .. j1+j2 (every second L under ``parity``)."""
        hi, lo = max(j1, j2), min(j1, j2)
        _check_j("J2", lo, low=self.m_min)
        row = self.slab(hi)[lo - self.m_min]
        step = 2 if self.parity else 1
        return {L: float(row[L]) for L in range(hi - lo, hi + lo + 1, step)}

    def coefficient(self, j_sum: int, delta_j: int, L: int) -> float:
        dj = abs(delta_j)
        if (j_sum + dj) % 2 or (self.parity and (j_sum + L) % 2):
            return 0.0
        if L < dj or L > j_sum:
            return 0.0
        j1 = (j_sum + dj) // 2
        j2 = (j_sum - dj) // 2
        if j2 < self.m_min:
            return 0.0
        return float(self.slab(j1)[j2 - self.m_min, L])

    def entries(self, j_sum_max: int):
        """Yield (j_sum, delta_j, L, coefficient) rows up to j_sum_max."""
        l_step = 2 if self.parity else 1
        for j_sum in range(2 * self.m_min, j_sum_max + 1):
            for dj in range(j_sum % 2, j_sum + 1, 2):
                if (j_sum - dj) // 2 < self.m_min:
                    continue
                for L in range(dj, j_sum + 1, l_step):
                    yield j_sum, dj, L, self.coefficient(j_sum, dj, L)


@lru_cache(maxsize=None)
def coefficient_table(k: int, m: int) -> CoefficientTable:
    """Shared memoized CoefficientTable for the (k, m) channel."""
    return CoefficientTable(k, m)
