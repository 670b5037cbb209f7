import math
from fractions import Fraction

import numpy as np
import pytest

from contcount.factorization import (
    DENSE_LIMIT,
    binary_factorization,
    binary_gram,
    binary_left_factor,
    binary_right_factor,
    double_factorial_ratio,
    expected_mse,
    factor_frobenius_sq,
    factor_row_norm_sq,
    honaker_left,
    residual,
    sqrt_coefficients,
    sqrt_factorization,
    suboptimality_ratio,
)
from contcount.linalg import col_norm_1to2, frobenius_norm, pseudoinverse
from contcount.mechanism import PrivacyBudget
from contcount.workload import counting_matrix, err_upper_bound
from tree_oracles import dyadic_decomposition, postorder_index

BUDGET = PrivacyBudget(1.0, 1e-10)
C2 = BUDGET.noise_multiplier**2


def test_sqrt_coefficients_examples():
    assert sqrt_coefficients(5) == pytest.approx(
        [1.0, 0.5, 0.375, 0.3125, 0.2734375]
    )
    assert sqrt_coefficients(2)[1] == 0.5
    f200 = sqrt_coefficients(201)[200]
    exact = double_factorial_ratio(200)
    assert abs(f200 - float(exact)) / float(exact) <= 1e-14


def test_sqrt_coefficients_satisfy_recurrence_exactly():
    coeffs = sqrt_coefficients(300)
    rebuilt = 1.0
    for k in range(1, 300):
        rebuilt = (1.0 - 1.0 / (2.0 * k)) * rebuilt
        assert coeffs[k] == rebuilt


@pytest.mark.parametrize("n", [1, 2, 3, 513, 4097, 10**5 + 3])
def test_sqrt_coefficients_equal_out_of_place_formula(n):
    """The in-place build gives the bytes of the formula it replaced."""
    terms = np.ones(n)
    k = np.arange(1, n, dtype=np.float64)
    terms[1:] = 1.0 - 1.0 / (2.0 * k)
    assert sqrt_coefficients(n).tobytes() == np.cumprod(terms).tobytes()


@pytest.mark.parametrize("full", [1, 2, 8, 1024])
def test_postorder_nodes_match_index_oracle(full):
    from contcount.factorization import _postorder_nodes

    for level in range(full.bit_length()):
        size = 1 << level
        ends = np.arange(size, full + 1, size, dtype=np.int64)
        want = [postorder_index(int(e) - size + 1, int(e), full) for e in ends]
        nodes = _postorder_nodes(ends, level)
        assert nodes.dtype == np.int64 and nodes.tolist() == want
        assert ends.tolist() == list(range(size, full + 1, size))  # input left as it was


def test_sqrt_coefficients_strictly_decreasing_in_unit_interval():
    coeffs = sqrt_coefficients(500)
    assert np.all(np.diff(coeffs) < 0)
    assert np.all(coeffs > 0) and np.all(coeffs <= 1)


def test_double_factorial_ratio_examples():
    assert double_factorial_ratio(0) == 1
    assert double_factorial_ratio(2) == Fraction(3, 8)
    assert double_factorial_ratio(3) == Fraction(15, 48)
    with pytest.raises(ValueError):
        double_factorial_ratio(-1)


def test_double_factorial_sandwich_small():
    # exact-rational version of the two-sided bound; equality at k = 1
    for k in range(1, 65):
        q = 1 / double_factorial_ratio(k) ** 2
        assert q <= Fraction(math.pi * (k - 1) + 4.0)
        assert Fraction(math.pi * (k + 0.25)) < q


def test_factor_row_norm_examples():
    coeffs = sqrt_coefficients(8)
    assert factor_row_norm_sq(coeffs, 1) == 1.0
    assert factor_row_norm_sq(coeffs, 2) == 1.25
    assert factor_row_norm_sq(coeffs, 3) == 1.390625
    with pytest.raises(ValueError):
        factor_row_norm_sq(coeffs, 9)


def test_factor_row_norm_cap():
    # valid per-row cap: 1 + ln(4t - 3)/pi, with equality at t = 1
    rows = np.cumsum(sqrt_coefficients(4096) ** 2)
    t = np.arange(1, 4097)
    assert np.all(rows <= 1.0 + np.log(4.0 * t - 3.0) / math.pi)
    assert rows[0] == 1.0


def test_factor_frobenius_examples():
    assert factor_frobenius_sq(sqrt_coefficients(1)) == 1.0
    assert factor_frobenius_sq(sqrt_coefficients(2)) == 2.25
    n = 1024
    assert factor_frobenius_sq(sqrt_coefficients(n)) <= n * (1 + math.log(4 * n / 5) / math.pi)


def test_factor_frobenius_matches_row_sum():
    coeffs = sqrt_coefficients(257)
    assert factor_frobenius_sq(coeffs) == pytest.approx(
        sum(factor_row_norm_sq(coeffs, t) for t in range(1, 258)), rel=1e-12
    )


def test_factor_frobenius_cap_from_two():
    # the n (1 + ln(4n/5)/pi) cap fails at n = 1 (left side is 1, cap 0.929)
    # and holds for every n >= 2
    for n in (2, 3, 7, 64, 1000, 4096):
        assert factor_frobenius_sq(sqrt_coefficients(n)) <= n * (
            1 + math.log(4 * n / 5) / math.pi
        )


def test_sqrt_factorization_examples():
    fact = sqrt_factorization(2)
    assert np.array_equal(fact.left, [[1.0, 0.0], [0.5, 1.0]])
    assert np.array_equal(fact.left, fact.right)
    assert np.array_equal(fact.left @ fact.right, counting_matrix(2))
    assert np.array_equal(sqrt_factorization(1).left, [[1.0]])
    assert residual(sqrt_factorization(512)) <= 1e-10 * 512


def test_binary_factorization_small():
    fact = binary_factorization(2)
    assert np.array_equal(fact.right, [[1, 0], [0, 1], [1, 1]])
    assert np.array_equal(fact.left, [[1, 0, 0], [0, 0, 1]])

    fact4 = binary_factorization(4)
    col_ones = np.sum(fact4.right, axis=0)
    assert col_ones[0] == 3  # leaf, parent, root
    assert np.max(np.sum(fact4.right**2, axis=0)) == 1 + math.log2(4)

    fact8 = binary_factorization(8)
    assert np.sum(fact8.left**2) == 13  # popcount(1..8)
    assert np.array_equal(fact8.left @ fact8.right, counting_matrix(8))


def test_binary_factorization_non_power_of_two():
    for n in (3, 5, 11, 100):
        fact = binary_factorization(n)
        assert np.array_equal(fact.left @ fact.right, counting_matrix(n))


def test_binary_norms_exact_at_powers():
    for k in range(1, 11):
        n = 2**k
        fact = binary_factorization(n)
        assert np.max(np.sum(fact.right**2, axis=0)) == 1.0 + k
        assert np.sum(fact.left**2) == n * k / 2 + 1


def test_postorder_index_layout():
    # leaves first within each subtree, root last
    assert postorder_index(1, 1, 4) == 0
    assert postorder_index(1, 2, 4) == 2
    assert postorder_index(3, 3, 4) == 3
    assert postorder_index(1, 4, 4) == 6
    with pytest.raises(ValueError):
        postorder_index(2, 3, 4)  # unaligned interval
    with pytest.raises(ValueError):
        postorder_index(1, 1, 3)  # not a power of two


def test_dyadic_decomposition():
    assert dyadic_decomposition(1) == [(1, 1)]
    assert dyadic_decomposition(6) == [(1, 4), (5, 6)]
    assert dyadic_decomposition(7) == [(1, 4), (5, 6), (7, 7)]
    for t in range(1, 200):
        blocks = dyadic_decomposition(t)
        assert len(blocks) == bin(t).count("1")
        covered = [i for a, b in blocks for i in range(a, b + 1)]
        assert covered == list(range(1, t + 1))


def _binary_left_factor_loop(n):
    full = 1 << max(0, (n - 1).bit_length())
    out = np.zeros((n, 2 * full - 1))
    for t in range(1, n + 1):
        for a, b in dyadic_decomposition(t):
            out[t - 1, postorder_index(a, b, full)] = 1.0
    return out


def test_binary_left_factor_equals_loop():
    for n in list(range(1, 65)) + [100, 255, 257, 768, 1023, 1025]:
        assert np.array_equal(binary_left_factor(n), _binary_left_factor_loop(n)), n


def test_binary_gram_closed_form_exact():
    for n in range(1, 301):
        r = binary_right_factor(n)
        assert np.array_equal(binary_gram(n), r.T @ r), n


def test_binary_gram_spectrum_bounds():
    # eigenvalues 2^l - 1 for the full tree; truncation interlaces them
    for n in (1, 3, 5, 100, 768):
        full = 1 << max(0, (n - 1).bit_length())
        eig = np.linalg.eigvalsh(binary_gram(n))
        assert eig[0] >= 1 - 1e-9 and eig[-1] <= 2 * full - 1 + 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 5, 100, 768, 1024])
def test_honaker_left_matches_pseudoinverse_oracle(n):
    fact = honaker_left(n)
    oracle = counting_matrix(n) @ pseudoinverse(binary_right_factor(n))
    assert fact.left.shape == oracle.shape
    scale = np.linalg.norm(oracle, axis=1)[:, None]
    assert np.all(np.abs(fact.left - oracle) <= 1e-9 * scale)


def test_honaker_examples():
    fact = honaker_left(2)
    want = np.array([[2.0, -1.0, 1.0], [1.0, 1.0, 2.0]]) / 3.0
    assert fact.left == pytest.approx(want, abs=1e-12)
    assert np.sum(fact.left**2) == pytest.approx(12 / 9, rel=1e-12)
    assert np.sum(binary_factorization(2).left ** 2) == 2.0
    assert residual(honaker_left(64)) <= 1e-8


def test_residual_detects_corruption():
    fact = sqrt_factorization(8)
    corrupted = np.array(fact.left)
    corrupted[3, 0] += 0.7
    from contcount.factorization import Factorization

    bad = Factorization(left=corrupted, right=fact.right)
    assert residual(bad) > 0.5
    assert residual(sqrt_factorization(64)) <= 6.4e-9


def test_all_factorizations_residual_tolerances():
    for k in range(0, 11):
        n = 2**k
        assert residual(sqrt_factorization(n)) <= 1e-10 * n
        if n >= 2:
            assert residual(binary_factorization(n)) == 0.0
    for n in (2, 8, 64):
        assert residual(honaker_left(n)) <= 1e-8


def test_expected_mse_examples():
    assert expected_mse(sqrt_factorization(2), BUDGET) == pytest.approx(
        1.40625 * C2, rel=1e-12
    )
    assert expected_mse(binary_factorization(8), BUDGET) == pytest.approx(
        6.5 * C2, rel=1e-12
    )
    off = PrivacyBudget(math.inf, 1e-10)
    assert expected_mse(sqrt_factorization(4), off) == 0.0


def test_expected_mse_vs_norms():
    fact = honaker_left(16)
    want = C2 * col_norm_1to2(fact.right) ** 2 * frobenius_norm(fact.left) ** 2 / 16
    assert expected_mse(fact, BUDGET) == pytest.approx(want, rel=1e-12)


def test_expected_mse_below_guarantee_from_seven():
    # the closed-form guarantee is loose enough from n = 7 on; for n <= 6
    # the exact mechanism error slightly exceeds it (ledger)
    for n in (7, 8, 16, 100, 1024, 4096):
        assert expected_mse(sqrt_factorization(n), BUDGET) <= err_upper_bound(n, BUDGET)


def test_suboptimality_ratio_values():
    assert suboptimality_ratio(2**20) == pytest.approx(7.359749599743628, rel=1e-12)
    assert suboptimality_ratio(2**40) == pytest.approx(8.618132314313225, rel=1e-12)
    limit = math.pi**2 / (2 * math.log(2) ** 2)
    assert limit == pytest.approx(10.271144227611911, rel=1e-12)
    ratios = [suboptimality_ratio(2**k) for k in range(2, 60)]
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < limit


def test_dense_limit_enforced():
    with pytest.raises(ValueError, match="refused"):
        sqrt_factorization(DENSE_LIMIT + 1)
    with pytest.raises(ValueError, match="refused"):
        binary_factorization(DENSE_LIMIT + 1)
    with pytest.raises(ValueError):
        sqrt_factorization(0)
