"""Independent reference implementations the tests pin the package against.

Everything here deliberately takes a different route than the package code:
exact rational arithmetic for coupling coefficients, scipy's lpmv for
Legendre values, the explicit half-angle sum for Wigner d, brute-force pair
scanning for frequency degeneracies (exact rigid lines and, by
scalar energy differences, distorted ones), LAPACK inversion of a closed-form
matrix for diagonal pattern rows, a Gauss-Legendre rule of its own for
each product decomposition, a dense least-squares solve of the whole
time-domain design for a block, and a forward simulation of a recovered
block for its residual against the data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import lpmv

from rotortomo.angular import eigenfunction_rows
from rotortomo.rotor import energy, simulate_pr


def cg_exact(j1: int, j2: int, j3: int, m1: int, m2: int) -> float:
    """<j1 m1; j2 m2 | j3 (m1+m2)> via the Racah sum in exact integers.

    The terms are summed over the lcm of their denominators, so the square
    is one exact rational, rounded once by an int/int division.
    """
    m3 = m1 + m2
    if not (abs(j1 - j2) <= j3 <= j1 + j2):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    f = math.factorial
    pref_num = (2 * j3 + 1) * f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3)
    pref_num *= f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    terms = []
    for t in range(j1 + j2 - j3 + 1):
        dens = (
            t,
            j1 + j2 - j3 - t,
            j1 - m1 - t,
            j2 + m2 - t,
            j3 - j2 + m1 + t,
            j3 - j1 - m2 + t,
        )
        if all(d >= 0 for d in dens):
            terms.append((-1 if t % 2 else 1, math.prod(map(f, dens))))
    common = math.lcm(*(den for _, den in terms))
    total = sum(sign * (common // den) for sign, den in terms)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(pref_num * total * total / (f(j1 + j2 + j3 + 1) * common * common))


def norm_legendre(J: int, m: int, x) -> np.ndarray:
    """Orthonormal associated Legendre P~_J^m(x) from scipy's lpmv."""
    x = np.asarray(x, dtype=float)
    ma = abs(m)
    if ma > J:
        return np.zeros_like(x)
    norm2 = Fraction(2 * J + 1, 2) * Fraction(math.factorial(J - ma), math.factorial(J + ma))
    val = math.sqrt(float(norm2)) * lpmv(ma, J, x)
    if m < 0 and ma % 2:
        val = -val
    return val


def wigner_d_explicit(j: int, k: int, m: int, x) -> np.ndarray:
    """d^j_{km}(beta) with x = cos(beta), by the explicit half-angle sum."""
    x = np.asarray(x, dtype=float)
    beta = np.arccos(np.clip(x, -1.0, 1.0))
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    f = math.factorial
    out = np.zeros_like(x)
    for t in range(2 * j + 1):
        dens = (j + m - t, t, k - m + t, j - k - t)
        if any(d < 0 for d in dens):
            continue
        coef2 = Fraction(
            f(j + m) * f(j - m) * f(j + k) * f(j - k),
            math.prod(f(d) for d in dens) ** 2,
        )
        out = out + (
            (-1) ** (k - m + t)
            * math.sqrt(float(coef2))
            * c ** (2 * j + m - k - 2 * t)
            * s ** (k - m + 2 * t)
        )
    return out


@lru_cache(maxsize=None)
def c_l_closed(k: int, m: int, j1: int, j2: int, L: int) -> float:
    """Coefficient of P~_L in f_{j1} f_{j2}, in closed form through cg_exact."""
    pref = math.sqrt((2 * j1 + 1) * (2 * j2 + 1) / (2.0 * (2 * L + 1)))
    return ((-1) ** (k - m)) * pref * cg_exact(j1, j2, L, k, -k) * cg_exact(j1, j2, L, m, -m)


def product_decomp_per_pair(k: int, m: int, j1: int, j2: int) -> dict[int, float]:
    """{L: c_L} of f_{j1} f_{j2}, projected on a Gauss-Legendre rule of its own.

    One rule of order j1 + j2 + 1 per pair, from numpy's leggauss, exact for
    the pair's integrands f_{j1} f_{j2} P~_L.  The rows come from the
    package's eigenfunction_rows (the k = m = 0 rows are P~_L): tests pin
    them against lpmv and the half-angle sum, which loses digits past J ~ 20,
    too early to serve as rows here.  Where k = 0 or m = 0 only L of the
    parity of j1 + j2 are listed: C(j1, j2, L | 0, 0, 0) vanishes for the others.
    """
    nodes, weights = np.polynomial.legendre.leggauss(j1 + j2 + 1)
    m_min = max(abs(k), abs(m))
    f = eigenfunction_rows(max(j1, j2), k, m, nodes)
    prod_w = f[j1 - m_min] * f[j2 - m_min] * weights
    p0 = eigenfunction_rows(j1 + j2, 0, 0, nodes)
    step = 2 if k == 0 or m == 0 else 1
    return {L: float(p0[L] @ prod_w) for L in range(abs(j1 - j2), j1 + j2 + 1, step)}


def degeneracy_scan(
    alpha: int, beta: int, m_min: int, cap: int, parity: bool = True
) -> list[tuple[int, int]]:
    """All (S, dJ) pairs with dJ(S+1) = beta(alpha+1), by exhaustive pair scan.

    Mirrors the probe-collision conditions: 0 < dJ <= |beta|, S <= cap,
    J2 >= m_min, and (k = 0 channels) S == alpha mod 2.  Ordered by
    decreasing |dJ|, dJ carrying beta's sign.
    """
    tau = abs(beta) * (alpha + 1)
    sgn = 1 if beta > 0 else -1
    out = []
    for j2 in range(m_min, cap + 1):
        for j1 in range(j2 + 1, cap - j2 + 1):
            s, dj = j1 + j2, j1 - j2
            if dj > abs(beta):
                continue
            if parity and (s - alpha) % 2:
                continue
            if dj * (s + 1) == tau:
                out.append((s, sgn * dj))
    return sorted(out, key=lambda p: -abs(p[1]))


def line_scan(
    spec, alpha: int, beta: int, n_periods: int, parity: bool = True
) -> list[tuple[int, int]]:
    """(S, dJ) pairs on the (alpha, beta) pair's line, by brute-force pair scan.

    A pair is on the line when its level difference E(J1) - E(J2), from
    scalar energy calls, lies strictly closer than 2 omega / n_periods to the
    target pair's.  Mirrors the collision conditions: 0 < dJ <= beta, alpha
    <= S <= beta(alpha+1), J2 >= m_min, no level past the turning point of a
    distorted spectrum (d E / d[J(J+1)] > 0, i.e. 2 d_cd J1(J1+1) < omega),
    and (with ``parity``) S == alpha mod 2.  Ordered by decreasing dJ, then
    increasing S.
    """
    cap = beta * (alpha + 1)
    target = energy(spec, (alpha + beta) // 2) - energy(spec, (alpha - beta) // 2)
    out = []
    for dj in range(beta, 0, -1):
        for j2 in range(spec.m_min, (cap - dj) // 2 + 1):
            j1 = j2 + dj
            if j1 + j2 < alpha or parity and (j1 + j2 - alpha) % 2:
                continue
            if 2 * spec.d_cd * j1 * (j1 + 1) >= spec.omega:
                break
            if abs(energy(spec, j1) - energy(spec, j2) - target) < 2 * spec.omega / n_periods:
                out.append((j1 + j2, dj))
    return out


def diag_moment_matrix(k: int, m: int, j_cap: int) -> np.ndarray:
    """M[a, b] = weight of rho(J_b, J_b) in the DC moment I(2*J_a, 0)."""
    m_min = max(abs(k), abs(m))
    js = list(range(m_min, j_cap + 1))
    mat = np.zeros((len(js), len(js)))
    for a, ja in enumerate(js):
        for b, jb in enumerate(js):
            mat[a, b] = c_l_closed(k, m, jb, jb, 2 * ja)
    return mat


def pattern_row(k: int, m: int, j_cap: int, j1: int) -> dict[int, float]:
    """Row of the inverted diagonal system: rho(j1, j1) = sum_J row[J] I(2J, 0)."""
    m_min = max(abs(k), abs(m))
    inv = np.linalg.inv(diag_moment_matrix(k, m, j_cap))
    row = inv[j1 - m_min]
    return {m_min + b: float(row[b]) for b in range(row.size)}


def time_domain_block(grid, spec, j_max: int) -> np.ndarray:
    """Symmetrised least-squares block of the full time-domain design, by numpy's lstsq.

    Rows are (t, alpha) for alpha = 0 .. 2 j_max and hold the Legendre
    moments y[t, alpha] = integral P~_alpha(x) Pr(x, t) dx, with P~ from
    lpmv; the unknowns are the ordered pairs p = (J1, J2), row-major, with
    design entries c_alpha(p) exp(-i w_p t) from the closed-form
    coefficients and w_p = E(J1) - E(J2).
    """
    js = range(spec.m_min, j_max + 1)
    pairs = [(a, b) for a in js for b in js]
    alphas = range(2 * j_max + 1)
    coeffs = np.array([[c_l_closed(spec.k, spec.m, a, b, L) for a, b in pairs] for L in alphas])
    omega = np.array([energy(spec, a) - energy(spec, b) for a, b in pairs])
    phases = np.exp(-1j * np.multiply.outer(grid.times, omega))  # (t, p)
    design = (phases[:, None, :] * coeffs[None, :, :]).reshape(-1, len(pairs))
    moments = grid.x_integrals(np.array([norm_legendre(L, 0, grid.x_grid.nodes) for L in alphas]))
    rho = np.linalg.lstsq(design, moments.ravel().astype(complex), rcond=None)[0]
    rho = rho.reshape(len(js), len(js))
    return (rho + rho.conj().T) / 2.0


def resimulated_residual(result, grid, spec) -> float:
    """max |Pr - Pr~| over the grid, with Pr~ simulated forward from the recovered block.

    The forward simulator evaluates the eigenfunction products f_J1 f_J2 at
    the nodes, not the inverse's coefficient tables, so this checks those
    tables along with the fit.
    """
    resim = simulate_pr(result.block, spec, grid.x_grid, grid.n_t, grid.n_periods)
    return float(np.max(np.abs(resim.values - grid.values)))
