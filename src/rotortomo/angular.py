"""Angular special functions, quadrature, and product-decomposition coefficients.

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

* Both are one family, P~(J, m) = sqrt((2J+1)/2) d^J_{m0}: every row the
  package reads, of either, comes from one normalized three-term recurrence
  on f_J = sqrt((2J+1)/2) d^J_{km}, and takes x of any shape.

* ``clebsch_gordan(j1, j2, j3, m1, m2, m3)`` is <j1 m1 j2 m2 | j3 m3> for
  integer angular momenta, evaluated by Racah's single-sum formula in
  exact integers and rounded once, so it is accurate to an ulp or two at
  every j up to J_CAP.  Selection-rule violations return 0.0 rather than
  raising.

* ``coefficient_table(k, m, j_max)`` expands every product of two
  normalized rotor eigenfunctions f_J of a j_max block (P~(J, m) for
  k = 0, sqrt((2J+1)/2) d^J_{km} otherwise) in the m = 0 normalized
  Legendre basis:

      f_J1(x) f_J2(x) = sum_L c_L P~(L, 0, x),  L = |J1-J2| .. J1+J2,

  and returns the c_L as one read-only array.  Where ``keeps_parity(k, m)``
  holds (k = 0 or m = 0) only L of the same parity as J1+J2 contribute;
  for k != 0 and m != 0 both parities of L carry weight.  The
  coefficients are *defined* by Gauss-Legendre projection, one matrix
  product per block on the block's own rule; they agree with the closed
  form

      c_L = (-1)^(k-m) sqrt((2J1+1)(2J2+1) / (2(2L+1)))
            * C(J1,J2,L|k,-k,0) * C(J1,J2,L|m,-m,0)

  to within 1e-11 up to j_max = 100, as the test suite checks against
  exact rationals; its Clebsch-Gordan factors kill the odd-L terms when
  k = 0 or m = 0.

All functions are pure; the one memo, ``gauss_legendre_grid``, is an
lru_cache, safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

# Hard cap on angular momentum quantum numbers.  The recurrence below is
# well-behaved up to here, and the factorial prefactors are exact integers at
# any j; beyond it the moment chains would be astronomically long anyway.
J_CAP = 200

# Most Gauss-Legendre nodes a grid may carry.  The deepest probe (order J_CAP
# against degree-J_CAP data) needs J_CAP + 1; the rest is headroom for
# oversampled grids.  load_grid and SamplingPlan reject more, so neither a
# file header nor a config can make gauss_legendre_grid build or cache a
# larger rule.
N_X_CAP = 2 * J_CAP + 1

# Largest level and quadrature order built: make_test_state's kick of a J_CAP block.
ROWS_CAP, ORDER_CAP = 2 * J_CAP + 4, 2 * J_CAP + 6

def _check_j(name: str, value: int, low: int | None = 0, high: int = J_CAP) -> None:
    """Require an integer in [low, high]; ``low=None`` checks integrality only."""
    # an exact int passes at once: the isinstance checks cost more than the range test
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and not low <= value <= high:
        raise ValueError(f"{name} = {value} outside supported range [{low}, {high}]")


def _channel_floor(k: int, m: int, j: int, high: float = J_CAP, name: str = "j_max") -> int:
    """Require integer k, m, j with max(|k|, |m|) <= j <= high, naming a bad one; return max(|k|, |m|)."""
    for label, value in (("k", k), ("m", m), (name, j)):
        _check_j(label, value, low=None)
    floor = max(abs(k), abs(m))
    if j < floor:
        raise ValueError(f"{name} = {j} below channel minimum {floor}")
    _check_j(name, j, low=floor, high=high)
    return floor


def _cosines(x) -> np.ndarray:
    """x as a float array, clipped to [-1, 1]; a NaN or an x outside raises."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + 1e-12):  # also false for NaN
        raise ValueError("x must be finite and lie in [-1, 1]")
    return np.clip(arr, -1.0, 1.0)


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None, typed=True)  # typed, so True or 2.0 never reads the rule of 1 or 2
def gauss_legendre_grid(order: int) -> QuadratureGrid:
    """Gauss-Legendre rule of the given order (exact for degree <= 2*order-1), 1 <= order <= ORDER_CAP."""
    _check_j("order", order, low=1, high=ORDER_CAP)
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureGrid(nodes=nodes, weights=weights, order=order)


def _seed(j0: int, k: int, m: int, x: np.ndarray) -> np.ndarray:
    """f_{j0} = sqrt((2 j0 + 1) / 2) d^{j0}_{km}, j0 = max(|k|, |m|): one monomial in half-angles.

    Its factor is sqrt(num / (2 den^2)) of exact integers, den the product of
    the monomial's four factorials: one correctly rounded division, one root.
    """
    s = max(0, m - k)
    f = math.factorial
    num = (2 * j0 + 1) * f(j0 + k) * f(j0 - k) * f(j0 + m) * f(j0 - m)
    den = f(j0 + m - s) * f(s) * f(k - m + s) * f(j0 - k - s)
    sign = -1.0 if (k - m + s) % 2 else 1.0
    pc, ps = 2 * j0 - 2 * s + m - k, k - m + 2 * s
    # powers of cos^2(beta/2) and sin^2(beta/2): each base is >= 0, so real powers are safe
    norm = math.sqrt(num / (2 * den * den))
    return sign * norm * ((1.0 + x) / 2.0) ** (pc / 2.0) * ((1.0 - x) / 2.0) ** (ps / 2.0)


def _rows(j_max: int, k: int, m: int, x) -> np.ndarray:
    """Rows f_J = sqrt((2J+1)/2) d^J_{km}(x), J = max(|k|,|m|) .. j_max, shape (rows, *x.shape).

    From the exact seed, f_{j+1} = a_j (x - km / (j (j+1))) f_j - b_j f_{j-1}
    with a_j^2 and b_j^2 ratios of exact integers, each rounded once.  P~(J, m)
    = sqrt((2J+1)/2) d^J_{m0} are the rows of (k, m) = (m, 0): with k m = 0
    the shift vanishes and the step is the normalized Legendre one.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    j0 = max(abs(k), abs(m))
    rows = np.empty((max(j_max - j0 + 1, 0), flat.size))
    rows[:1] = _seed(j0, k, m, flat)
    kk, mm, km = k * k, m * m, k * m
    for i, j in enumerate(range(j0, j_max)):
        q = (j + 1) ** 2
        p = (q - kk) * (q - mm)
        a = math.sqrt((2 * j + 3) * (2 * j + 1) * q / p)
        out = rows[i + 1]
        np.multiply(a, flat - km / (j * (j + 1)) if km else flat, out=out)
        out *= rows[i]
        if i:  # b_j vanishes at j0
            b2 = (2 * j + 3) * q * (j * j - kk) * (j * j - mm) / ((2 * j - 1) * j * j * p)
            out -= math.sqrt(b2) * rows[i - 1]
    return rows.reshape(len(rows), *x.shape)


def assoc_legendre_norm(J: int, m: int, x):
    """Normalized associated Legendre function P~(J, m) at x = cos(theta)."""
    _channel_floor(0, m, J, name="J")
    value = _rows(J, m, 0, _cosines(x))[-1]
    return float(value) if np.ndim(x) == 0 else value


def wigner_d(J: int, k: int, m: int, x):
    """Reduced rotation matrix element d^J_{km} at x = cos(beta)."""
    _channel_floor(k, m, J, name="J")
    value = _rows(J, k, m, _cosines(x))[-1] / math.sqrt((2 * J + 1) / 2)
    return float(value) if np.ndim(x) == 0 else value


def clebsch_gordan(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Clebsch-Gordan coefficient <j1 m1 j2 m2 | j3 m3> (integer j only).

    Racah's single sum in exact integers.  With a = j1+j2-j3, b = j1-m1,
    c = j2+m2, d = j3-j2+m1, e = j3-j1-m2, every term's denominator
    q! (a-q)! (b-q)! (c-q)! (d+q)! (e+q)! divides the range-end product
    den = qmax! (a-qmin)! (b-qmin)! (c-qmin)! (d+qmax)! (e+qmax)!, so den
    times each term is an integer, each got from the one before by an exact
    integer multiply and divide.  With S their alternating sum and pref
    the numerator factorials, the coefficient is sign(S) sqrt(S^2 pref /
    (den^2 (j1+j2+j3+1)!)): one correctly rounded division and one square
    root, so it is within an ulp or two at every j up to J_CAP, and
    exactly 0.0 where the sum cancels.  A call at
    j1 = j2 = j3 = 100 costs about 0.25 ms on a 2-core x86 VM; no program
    path calls it.

    Returns 0.0 for any selection-rule violation (m3 != m1+m2, |m| > j,
    triangle inequality) instead of raising; a non-integer argument or a j
    outside [0, J_CAP] raises ValueError.
    """
    for name, value in (("j1", j1), ("j2", j2), ("j3", j3)):
        _check_j(name, value)
    for name, value in (("m1", m1), ("m2", m2), ("m3", m3)):
        _check_j(name, value, low=None)
    if m1 + m2 != m3 or abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    f = math.factorial
    a, b, c, d, e = j1 + j2 - j3, j1 - m1, j2 + m2, j3 - j2 + m1, j3 - j1 - m2
    qmin, qmax = max(0, -d, -e), min(a, b, c)
    den = f(qmax) * f(a - qmin) * f(b - qmin) * f(c - qmin) * f(d + qmax) * f(e + qmax)
    term = f(qmax) // f(qmin) * (f(d + qmax) // f(d + qmin)) * (f(e + qmax) // f(e + qmin))
    total = 0
    for q in range(qmin, qmax + 1):
        total += -term if q % 2 else term
        term = term * ((a - q) * (b - q) * (c - q)) // ((q + 1) * (d + q + 1) * (e + q + 1))
    pref = (2 * j3 + 1) * f(a) * f(j3 + j1 - j2) * f(j3 - j1 + j2) * f(j3 + m3) * f(j3 - m3)
    pref *= f(j1 + m1) * f(b) * f(c) * f(j2 - m2)
    value = math.sqrt(total * total * pref / (den * den * f(j1 + j2 + j3 + 1)))
    return -value if total < 0 else value


def eigenfunction_rows(j_max: int, k: int, m: int, x) -> np.ndarray:
    """Rows f_J(x) for J = max(|k|,|m|) .. j_max of the normalized eigenfunctions.

    f_J = P~(J, m) when k = 0, else sqrt((2J+1)/2) d^J_{km}.  Either way
    integral f_J f_J' dx = delta(J, J').  Shape (rows, *x.shape).  Non-integer
    j_max, k or m, a j_max outside [max(|k|, |m|), ROWS_CAP], and a NaN or an
    x outside [-1, 1] raise ValueError naming it.
    """
    _channel_floor(k, m, j_max, high=ROWS_CAP)
    x = _cosines(x)
    return _rows(j_max, m, 0, x) if k == 0 else _rows(j_max, k, m, x)


def keeps_parity(k: int, m: int) -> bool:
    """Whether the (k, m) channel's c_L vanish for every odd J1 + J2 + L.

    c_L carries C(J1 J2 L | k -k 0) C(J1 J2 L | m -m 0), and C(J1 J2 L | 0 0 0)
    vanishes for odd J1 + J2 + L: with k = 0 or m = 0 only L of that parity
    survive, otherwise both parities carry weight.
    """
    return k == 0 or m == 0


def coefficient_table(k: int, m: int, j_max: int) -> np.ndarray:
    """C[J1 - m_min, J2 - m_min, L] of the (k, m) channel's j_max block, L = 0 .. 2 j_max.

    J1, J2 = m_min .. j_max with m_min = max(|k|, |m|).  One product
    (f_J1 f_J2 w) @ P~(L, 0)^T over the pairs J2 <= J1 on the Gauss-Legendre
    rule of order 2 j_max + 1, exact for the degree <= 4 j_max integrands,
    mirrored so the array is symmetric in (J1, J2) bit for bit.  Entries
    outside |J1 - J2| <= L <= J1 + J2, and where :func:`keeps_parity` holds
    those with L of the other parity than J1 + J2, are exact zeros.  A
    block's coefficients come from its own rule, so a pair read from two
    blocks may differ by rounding; every entry lies within 1e-11 of the
    exact closed form up to j_max = 100, the largest block a plan takes.
    Read-only; nothing is kept between calls.
    """
    m_min = _channel_floor(k, m, j_max)
    grid = gauss_legendre_grid(2 * j_max + 1)
    f = eigenfunction_rows(j_max, k, m, grid.nodes)
    i1, i2 = np.tril_indices(len(f))
    half = (f[i1] * f[i2] * grid.weights) @ _rows(2 * j_max, 0, 0, grid.nodes).T
    L = np.arange(2 * j_max + 1)
    dj, s = (i1 - i2)[:, None], (i1 + i2 + 2 * m_min)[:, None]
    keep = (dj <= L) & (L <= s)
    if keeps_parity(k, m):
        keep &= (L + s) % 2 == 0
    half[~keep] = 0.0
    out = np.empty((len(f), len(f), len(L)))
    out[i1, i2] = half
    out[i2, i1] = half
    out.setflags(write=False)
    return out
