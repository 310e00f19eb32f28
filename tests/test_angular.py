"""Special functions against independent oracles and exact identities."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from rotortomo import angular
from rotortomo.angular import (
    J_CAP,
    ORDER_CAP,
    ROWS_CAP,
    assoc_legendre_norm,
    clebsch_gordan,
    coefficient_table,
    eigenfunction_rows,
    gauss_legendre_grid,
    keeps_parity,
    wigner_d,
)

X = np.linspace(-0.995, 0.995, 17)


# ----------------------------------------------------------------- quadrature


def test_quadrature_integrates_monomials_exactly():
    grid = gauss_legendre_grid(12)
    for n in range(0, 23):
        exact = 2.0 / (n + 1) if n % 2 == 0 else 0.0
        assert abs(grid.nodes**n @ grid.weights - exact) < 1e-14


def test_quadrature_weights_sum_to_two():
    for order in (1, 2, 7, 40):
        assert abs(gauss_legendre_grid(order).weights.sum() - 2.0) < 1e-13


@pytest.mark.parametrize("order", [2.5, 2.0, True, np.float64(3.0), "3"])
def test_quadrature_order_must_be_an_integer(order):
    # typed memo: True and 2.0 equal 1 and 2, yet never read those rules
    gauss_legendre_grid(1), gauss_legendre_grid(2)
    with pytest.raises(ValueError, match="order must be an integer"):
        gauss_legendre_grid(order)


def test_quadrature_order_is_at_least_one_and_at_most_the_cap():
    for order in (0, -3, ORDER_CAP + 1, 10**6):
        with pytest.raises(ValueError, match=rf"^order = {order} outside supported range \[1, {ORDER_CAP}\]$"):
            gauss_legendre_grid(order)
    # make_test_state("cos2-kicked", ..., j_max=200) builds a rule of order 406
    assert ORDER_CAP == 406
    assert gauss_legendre_grid(406).order == 406


# -------------------------------------------------------------------- legendre


@pytest.mark.parametrize("m", [-4, -1, 0, 1, 2, 4])
def test_legendre_matches_lpmv_oracle(m):
    for J in range(abs(m), 13):
        ours = assoc_legendre_norm(J, m, X)
        ref = oracles.norm_legendre(J, m, X)
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_legendre_negative_m_sign():
    for J in range(3, 7):
        for m in range(1, J + 1):
            lhs = assoc_legendre_norm(J, -m, X)
            rhs = (-1) ** m * assoc_legendre_norm(J, m, X)
            assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_legendre_orthonormal_moderate_range():
    grid = gauss_legendre_grid(24)
    for m in (0, 2, 5):
        rows = np.array([assoc_legendre_norm(J, m, grid.nodes) for J in range(m, 16)])
        gram = (rows * grid.weights) @ rows.T
        assert np.max(np.abs(gram - np.eye(len(rows)))) < 1e-13


def test_legendre_low_order_literals():
    assert np.max(np.abs(assoc_legendre_norm(0, 0, X) - 1 / math.sqrt(2))) < 1e-15
    assert np.max(np.abs(assoc_legendre_norm(1, 0, X) - math.sqrt(1.5) * X)) < 1e-15


def test_legendre_is_finite_at_the_poles():
    # P~(J, 0, +-1) = sqrt((2J + 1) / 2) (+-1)^J, and every m != 0 function vanishes there
    poles = np.array([-1.0, 1.0])
    for J in (0, 1, 2, 7, 40):
        want = math.sqrt((2 * J + 1) / 2) * poles**J
        assert np.max(np.abs(assoc_legendre_norm(J, 0, poles) - want)) <= 1e-12 * abs(want[0])
        for m in (1, -2, J):
            if 0 < abs(m) <= J:
                assert np.array_equal(np.abs(assoc_legendre_norm(J, m, poles)), [0.0, 0.0])


def test_sum_rules_hold_at_the_cap():
    # sum_m P~(J, m)^2 = (2J + 1)/2 and sum_m d^J_km^2 = 1 at every x, poles included
    x = np.concatenate(([-1.0, 1.0], np.linspace(-0.999, 0.999, 9)))
    ms = range(-J_CAP, J_CAP + 1)
    total = sum(assoc_legendre_norm(J_CAP, m, x) ** 2 for m in ms)
    assert np.max(np.abs(total / ((2 * J_CAP + 1) / 2) - 1)) < 1e-12
    for k in (0, 7, 150, J_CAP):
        total = sum(wigner_d(J_CAP, k, m, x) ** 2 for m in ms)
        assert np.max(np.abs(total - 1)) < 1e-12, k


@pytest.mark.parametrize(
    "call",
    [
        lambda x: assoc_legendre_norm(7, -3, x),
        lambda x: wigner_d(7, 2, -5, x),
        lambda x: eigenfunction_rows(7, 0, 3, x),
        lambda x: eigenfunction_rows(7, 1, 2, x),
    ],
    ids=["legendre", "wigner", "rows-k0", "rows-k1"],
)
def test_rows_take_x_of_any_shape(call):
    # the values are the 1-D evaluation's, reshaped to x's shape behind any rows axis
    x = np.linspace(-1.0, 1.0, 12)
    flat = call(x)
    for shape in ((2, 6), (3, 2, 2), (12, 1)):
        got = call(x.reshape(shape))
        assert np.array_equal(got, flat.reshape(flat.shape[:-1] + shape))
    assert call(np.zeros((2, 3))).shape == flat.shape[:-1] + (2, 3)
    assert np.array_equal(call(np.float64(x[4])), flat[..., 4])


def test_legendre_rejects_out_of_range_degree():
    with pytest.raises(ValueError):
        assoc_legendre_norm(-1, 0, X)
    with pytest.raises(ValueError):
        assoc_legendre_norm(300, 0, X)


# -------------------------------------------------------------------- wigner d


def test_wigner_matches_explicit_sum_oracle():
    for j, k, m in [(1, 1, 1), (2, 1, 0), (3, 2, 1), (5, 1, 1), (6, 2, 2), (8, 3, -2), (4, -1, 2)]:
        ours = wigner_d(j, k, m, X)
        ref = oracles.wigner_d_explicit(j, k, m, X)
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_wigner_seeds_match_the_exact_half_angle_sum_up_to_the_cap():
    # at beta = pi/2 every half-angle power is 2^(-j), so the explicit sum in
    # Fractions, squared with its factorial product, gives d^2 exactly
    f = math.factorial
    rng = np.random.default_rng(11)
    for k, m in rng.integers(-J_CAP, J_CAP + 1, size=(200, 2)).tolist():
        j = max(abs(k), abs(m))
        total = sum(
            Fraction((-1) ** (k - m + t), f(j + m - t) * f(t) * f(k - m + t) * f(j - k - t))
            for t in range(max(0, m - k), min(j + m, j - k) + 1)
        )
        exact = math.copysign(math.sqrt(f(j + m) * f(j - m) * f(j + k) * f(j - k) * total**2 / 4**j), total)
        assert abs(wigner_d(j, k, m, 0.0) - exact) <= 1e-14 * abs(exact), (j, k, m)


def test_wigner_half_rotation_literal():
    # d^1_{11} = (1 + x)/2 pins the sign and index convention
    assert np.max(np.abs(wigner_d(1, 1, 1, X) - (1 + X) / 2)) < 1e-15


def test_wigner_reduces_to_legendre_at_zero_indices():
    grid = gauss_legendre_grid(24)
    for J in range(0, 16):
        lhs = wigner_d(J, 0, 0, grid.nodes)
        rhs = assoc_legendre_norm(J, 0, grid.nodes) / math.sqrt((2 * J + 1) / 2.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_wigner_rows_orthogonal():
    grid = gauss_legendre_grid(30)
    for k, m in [(1, 1), (2, 0), (1, -1), (2, 2)]:
        lo = max(abs(k), abs(m))
        rows = np.array([wigner_d(J, k, m, grid.nodes) for J in range(lo, 18)])
        gram = (rows * grid.weights) @ rows.T
        expect = np.diag([2.0 / (2 * J + 1) for J in range(lo, 18)])
        assert np.max(np.abs(gram - expect)) < 1e-13


def test_eigenfunction_rows_are_the_recurrence_rows_up_to_the_cap():
    # the checks leave the rows at valid x bit for bit, and take j_max up to ROWS_CAP
    x = np.concatenate(([-1.0, 1.0], X))
    for k, m in [(0, 0), (0, -3), (2, 1)]:
        want = angular._rows(9, m, 0, x) if k == 0 else angular._rows(9, k, m, x)
        assert np.array_equal(eigenfunction_rows(9, k, m, x), want)
    # make_test_state("cos2-kicked", ..., j_max=200) reads rows up to J = 404
    assert ROWS_CAP == 404
    assert eigenfunction_rows(404, 0, 0, X).shape == (405, len(X))
    for j_max in (405, 10**6):
        with pytest.raises(ValueError, match=rf"^j_max = {j_max} outside supported range \[0, 404\]$"):
            eigenfunction_rows(j_max, 0, 0, X)


def test_eigenfunction_rows_orthonormal_both_kinds():
    grid = gauss_legendre_grid(30)
    for k, m in [(0, 0), (0, 2), (1, 1), (2, 1)]:
        rows = eigenfunction_rows(14, k, m, grid.nodes)
        gram = (rows * grid.weights) @ rows.T
        assert np.max(np.abs(gram - np.eye(len(rows)))) < 1e-12


# ------------------------------------------------------------- clebsch-gordan


def test_cg_textbook_values():
    cases = [
        ((1, 1, 2, 1, 1), 1.0),
        ((1, 1, 1, 1, 0), 1 / math.sqrt(2)),
        ((1, 1, 1, 0, 1), -1 / math.sqrt(2)),
        ((1, 1, 0, 1, -1), 1 / math.sqrt(3)),
        ((1, 1, 0, 0, 0), -1 / math.sqrt(3)),
        ((1, 1, 2, 1, -1), 1 / math.sqrt(6)),
        ((1, 1, 2, 0, 0), math.sqrt(2 / 3)),
    ]
    for (j1, j2, j3, m1, m2), want in cases:
        assert abs(clebsch_gordan(j1, j2, j3, m1, m2, m1 + m2) - want) < 1e-15


def test_cg_matches_exact_rational_oracle():
    rng = np.random.default_rng(4)
    for _ in range(250):
        j1, j2 = rng.integers(0, 11, size=2)
        j3 = rng.integers(abs(j1 - j2), j1 + j2 + 1)
        m1 = rng.integers(-j1, j1 + 1)
        m2 = rng.integers(-j2, j2 + 1)
        ours = clebsch_gordan(int(j1), int(j2), int(j3), int(m1), int(m2), int(m1 + m2))
        ref = oracles.cg_exact(int(j1), int(j2), int(j3), int(m1), int(m2))
        assert abs(ours - ref) < 1e-13


def test_cg_selection_rules_give_zero():
    assert clebsch_gordan(1, 1, 3, 0, 0, 0) == 0.0  # triangle violated
    assert clebsch_gordan(2, 2, 1, 2, 0, 2) == 0.0  # |m3| > j3
    assert clebsch_gordan(2, 1, 2, 3, 0, 3) == 0.0  # |m1| > j1
    assert clebsch_gordan(2, 2, 3, 1, 0, 0) == 0.0  # m3 != m1 + m2


def test_cg_stretched_is_one():
    for j1, j2 in [(1, 1), (3, 2), (7, 5)]:
        assert abs(clebsch_gordan(j1, j2, j1 + j2, j1, j2, j1 + j2) - 1.0) < 1e-14


def test_cg_row_unitarity_spot():
    for j1, j2, M in [(3, 2, 1), (5, 5, 0), (8, 3, -2)]:
        j3s = range(max(abs(j1 - j2), abs(M)), j1 + j2 + 1)
        m1s = [m1 for m1 in range(-j1, j1 + 1) if abs(M - m1) <= j2]
        mat = np.array(
            [[clebsch_gordan(j1, j2, j3, m1, M - m1, M) for j3 in j3s] for m1 in m1s]
        )
        assert np.max(np.abs(mat.T @ mat - np.eye(len(list(j3s))))) < 1e-13


def test_cg_is_exact_up_to_the_cap():
    rng = np.random.default_rng(5)
    for _ in range(200):
        j1, j2 = rng.integers(0, J_CAP + 1, size=2).tolist()
        j3 = int(rng.integers(abs(j1 - j2), min(j1 + j2, J_CAP) + 1))
        m1 = int(rng.integers(-j1, j1 + 1))
        m2 = int(rng.integers(max(-j2, -j3 - m1), min(j2, j3 - m1) + 1))
        ours = clebsch_gordan(j1, j2, j3, m1, m2, m1 + m2)
        assert abs(ours - oracles.cg_exact(j1, j2, j3, m1, m2)) < 1e-13, (j1, j2, j3, m1, m2)
    assert abs(sum(clebsch_gordan(100, 100, L, 0, 0, 0) ** 2 for L in range(201)) - 1) < 1e-14
    # three rows of the j1 = j2 = 100, M = 3 block, whose columns j3 = 3 .. 200 are complete
    rows = np.array(
        [[clebsch_gordan(100, 100, j3, m1, 3 - m1, 3) for j3 in range(3, 201)] for m1 in (-97, 0, 100)]
    )
    assert np.max(np.abs(rows @ rows.T - np.eye(3))) < 1e-14


def test_cg_rejects_out_of_cap_arguments():
    with pytest.raises(ValueError):
        clebsch_gordan(300, 1, 300, 0, 0, 0)


@pytest.mark.parametrize(
    "call,needle",
    [
        (lambda: clebsch_gordan(1.5, 1, 1, 0, 0, 0), "j1 must be an integer"),
        (lambda: clebsch_gordan(2, 1, 1, 0.5, -0.5, 0), "m1 must be an integer"),
        (lambda: assoc_legendre_norm(3, 1.5, 0.2), "m must be an integer"),
        (lambda: wigner_d(3, 0.5, 1, 0.2), "k must be an integer"),
        (lambda: assoc_legendre_norm(3, 1, math.nan), "x must be finite"),
        (lambda: wigner_d(3, 1, 1, np.array([0.2, math.nan])), "x must be finite"),
        (lambda: assoc_legendre_norm(2, -3, 0.2), "J = 2 below channel minimum 3"),
        (lambda: wigner_d(2, 3, 0, 0.2), "J = 2 below channel minimum 3"),
        (lambda: eigenfunction_rows(3, 0, 1, [0.5, math.nan]), "x must be finite"),
        (lambda: eigenfunction_rows(3, 1, 1, [1.5]), "x must be finite and lie in"),
        (lambda: eigenfunction_rows(3.5, 0, 0, [0.1]), "j_max must be an integer, got 3.5"),
        (lambda: eigenfunction_rows(3, 1.0, 1, [0.1]), "k must be an integer, got 1.0"),
        (lambda: eigenfunction_rows(3, 0, True, [0.1]), "m must be an integer, got True"),
    ],
    ids=[
        "cg-half-j", "cg-half-m", "legendre-half-m", "wigner-half-k", "legendre-nan", "wigner-nan",
        "legendre-m-above-j", "wigner-k-above-j", "rows-nan", "rows-x-outside", "rows-half-j_max",
        "rows-float-k", "rows-bool-m",
    ],
)
def test_non_integer_indices_and_nan_cosines_are_named_errors(call, needle):
    with pytest.raises(ValueError, match=needle):
        call()


# --------------------------------------------------------- product decomposition


def _pair_row(k, m, j1, j2):
    """c_L of f_j1 f_j2 for L = 0 .. 2 max(j1, j2), read from the max(j1, j2) block."""
    m_min = max(abs(k), abs(m))
    return coefficient_table(k, m, max(j1, j2))[j1 - m_min, j2 - m_min]


@pytest.mark.parametrize("k,m,j1,j2", [(0, 0, 3, 1), (0, 2, 5, 3), (1, 1, 4, 2), (2, 1, 5, 3), (0, -2, 4, 2), (-1, 1, 3, 3)])
def test_product_decomp_is_pointwise_complete(k, m, j1, j2):
    row = _pair_row(k, m, j1, j2)
    expand = sum(c * assoc_legendre_norm(L, 0, X) for L, c in enumerate(row))
    rows = eigenfunction_rows(max(j1, j2), k, m, X)
    lo = max(abs(k), abs(m))
    direct = rows[j1 - lo] * rows[j2 - lo]
    assert np.max(np.abs(expand - direct)) < 1e-12


def test_product_decomp_matches_closed_form():
    for k, m, j1, j2 in [(0, 0, 4, 2), (0, 1, 5, 2), (1, 1, 3, 1), (2, 0, 4, 4), (1, -1, 4, 2)]:
        row = _pair_row(k, m, j1, j2)
        per_pair = oracles.product_decomp_per_pair(k, m, j1, j2)
        # the entries the per-pair rule leaves out are exact zeros
        assert all(c == 0.0 for L, c in enumerate(row) if L not in per_pair)
        for L in range(abs(j1 - j2), j1 + j2 + 1):
            want = oracles.c_l_closed(k, m, j1, j2, L)
            assert abs(row[L] - want) < 1e-12
            assert abs(row[L] - per_pair.get(L, 0.0)) < 1e-14


def test_product_decomp_k0_parity_suppression():
    # with k = 0 only L of the same parity as J1 + J2 survive
    row = _pair_row(0, 1, 4, 2)
    assert {L for L, c in enumerate(row) if c} <= {2, 4, 6}
    for L in (3, 5):
        assert abs(oracles.c_l_closed(0, 1, 4, 2, L)) < 1e-15


def test_product_decomp_nonzero_k_keeps_both_parities():
    # frozen example: f_1^2 in the k = 1, m = 1 channel
    row = _pair_row(1, 1, 1, 1)
    assert abs(row[0] - 1 / math.sqrt(2)) < 1e-14
    assert abs(row[1] - math.sqrt(3 / 8)) < 1e-14
    assert abs(row[2] - 1 / math.sqrt(40)) < 1e-14


def test_coefficient_table_agrees_with_product_decomp():
    for k, m in [(0, 0), (0, 1), (1, 1), (2, 1)]:
        lo = max(abs(k), abs(m))
        for j1 in range(lo, lo + 4):
            for j2 in range(lo, j1 + 1):
                coeffs = oracles.product_decomp_per_pair(k, m, j1, j2)
                row = _pair_row(k, m, j1, j2)
                for L in range(j1 - j2, j1 + j2 + 1):
                    assert abs(row[L] - coeffs.get(L, 0.0)) < 1e-14


@pytest.mark.parametrize("k,m", [(0, 0), (0, 4), (1, -2), (2, 1)])
def test_tensor_matches_the_closed_form_as_closely_as_the_per_pair_rule(k, m):
    # both projections read the same eigenfunction rows, whose rounding sets
    # the error; the tensor only sums each product on the block's rule, so it
    # may miss by at most a tenth more than the per-pair rule does
    closed, m_min = functools.cache(oracles.c_l_closed), max(abs(k), abs(m))
    step = 2 if keeps_parity(k, m) else 1  # the other L are exact zeros on both sides
    for j_max in (14, 30):
        tensor = coefficient_table(k, m, j_max)
        tensor_err = pair_err = 0.0
        for j1 in range(m_min, j_max + 1):
            for j2 in range(m_min, j1 + 1):
                per_pair = oracles.product_decomp_per_pair(k, m, j1, j2)
                for L in range(j1 - j2, j1 + j2 + 1, step):
                    want = closed(k, m, j1, j2, L)
                    tensor_err = max(tensor_err, abs(tensor[j1 - m_min, j2 - m_min, L] - want))
                    pair_err = max(pair_err, abs(per_pair.get(L, 0.0) - want))
        assert tensor_err < 1e-12
        assert tensor_err <= 1.1 * pair_err, (j_max, tensor_err, pair_err)


@pytest.mark.parametrize("k,m", [(0, 0), (1, 1)])
@pytest.mark.parametrize("j_max", [60, 100])
def test_tensor_of_the_largest_blocks_matches_the_closed_form(k, m, j_max):
    # 500 seeded entries J2 <= J1 against exact rationals; the largest error
    # measured over such samples is 4.1e-12 at j_max = 100, bound 2.4x that
    tensor, m_min = coefficient_table(k, m, j_max), max(abs(k), abs(m))
    entries = np.argwhere(tensor != 0)
    entries = entries[entries[:, 0] >= entries[:, 1]]
    pick = np.random.default_rng(j_max + 7 * k).choice(len(entries), 500, replace=False)
    worst = 0.0
    for a, b, L in entries[pick].tolist():
        want = oracles.c_l_closed(k, m, a + m_min, b + m_min, L)
        worst = max(worst, abs(tensor[a, b, L] - want))
    assert worst < 1e-11


@pytest.mark.parametrize("k,m", [(0, 0), (0, 4), (1, -2), (2, 1), (2, 0), (-3, 0)])
def test_tensor_zeros_are_the_selection_rules(k, m):
    m_min = max(abs(k), abs(m))
    parity = k == 0 or m == 0  # C(J1, J2, L | 0, 0, 0) = 0 for odd J1 + J2 + L
    assert keeps_parity(k, m) == parity
    for j_max in range(m_min, 21):
        tensor = coefficient_table(k, m, j_max)
        n = j_max - m_min + 1
        assert tensor.shape == (n, n, 2 * j_max + 1)
        assert not tensor.flags.writeable
        assert np.array_equal(tensor, tensor.transpose(1, 0, 2))  # symmetric bit for bit
        js = np.arange(m_min, j_max + 1)
        j1, j2, L = js[:, None, None], js[None, :, None], np.arange(2 * j_max + 1)
        allowed = (abs(j1 - j2) <= L) & (L <= j1 + j2) & ((not parity) | ((L + j1 + j2) % 2 == 0))
        assert np.array_equal(tensor != 0, allowed), j_max


@pytest.mark.parametrize(
    "j_max,needle",
    [(J_CAP + 1, r"outside supported range \[2, 200\]"), (1, "j_max = 1 below channel minimum 2")],
    ids=["above-cap", "below-floor"],
)
def test_coefficient_levels_outside_the_range_are_named_errors(j_max, needle):
    with pytest.raises(ValueError, match=needle):
        coefficient_table(0, 2, j_max)
