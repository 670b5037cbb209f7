import math
from itertools import combinations

import numpy as np
import pytest

from contcount.linalg import schatten1, singular_values
from contcount.mechanism import PrivacyBudget
from contcount.workload import (
    counting_inverse,
    counting_matrix,
    counting_schatten1,
    counting_singular_value,
    counting_singular_values,
    err_lower_bound_any_mechanism,
    err_lower_bound_matrix_mech,
    err_upper_bound,
    gamma_lower_bound_count,
    gamma_upper_bound_count,
    hadamard,
    parity_gamma_lower,
    parity_workload,
)

BUDGET = PrivacyBudget(1.0, 1e-10)
C2 = BUDGET.noise_multiplier**2


def test_counting_matrix_examples():
    assert np.array_equal(counting_matrix(1), [[1.0]])
    assert np.array_equal(counting_matrix(2), [[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(counting_matrix(3)[2], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        counting_matrix(0)


def test_counting_inverse_examples():
    assert np.array_equal(counting_inverse(2), [[1.0, 0.0], [-1.0, 1.0]])
    assert np.array_equal(counting_inverse(1), [[1.0]])
    for n in (3, 7, 32):
        assert np.array_equal(counting_matrix(n) @ counting_inverse(n), np.eye(n))


def test_counting_singular_value_examples():
    assert counting_singular_value(1, 1) == pytest.approx(1.0, rel=1e-12)
    numeric = singular_values(counting_matrix(2))
    assert counting_singular_value(2, 1) == pytest.approx(numeric[0], rel=1e-12)
    assert counting_singular_value(2, 2) == pytest.approx(numeric[1], rel=1e-12)
    with pytest.raises(ValueError):
        counting_singular_value(2, 3)
    with pytest.raises(ValueError):
        counting_singular_value(2, 0)


def test_counting_spectrum_matches_svd():
    for n in (1, 2, 3, 5, 17, 64, 256):
        closed = counting_singular_values(n)
        assert np.all(np.diff(closed) < 0) or n == 1
        numeric = singular_values(counting_matrix(n))
        assert np.max(np.abs(closed - numeric) / numeric) <= 1e-8


def test_counting_schatten1_examples():
    assert counting_schatten1(1) == pytest.approx(1.0, rel=1e-12)
    assert counting_schatten1(2) == pytest.approx(math.sqrt(5), rel=1e-12)
    dense = schatten1(counting_matrix(256))
    assert counting_schatten1(256) == pytest.approx(dense, rel=1e-8)


def test_gamma_lower_bound_examples():
    assert gamma_lower_bound_count(2) == pytest.approx(1.0814417177078877, rel=1e-12)
    assert gamma_lower_bound_count(2) <= counting_schatten1(2) / math.sqrt(2)
    assert gamma_lower_bound_count(1) == pytest.approx(0.6488685024898949, rel=1e-12)


def test_gamma_upper_bound_examples():
    assert gamma_upper_bound_count(2) == pytest.approx(
        math.sqrt(2) * (1 + math.log(8 / 5) / math.pi), rel=1e-12
    )
    assert gamma_upper_bound_count(2) == pytest.approx(1.6257895304045906, rel=1e-12)
    assert gamma_upper_bound_count(5) == pytest.approx(3.222780377895374, rel=1e-12)
    for n in range(1, 4097):
        assert gamma_lower_bound_count(n) <= gamma_upper_bound_count(n)


def test_gamma_sandwich_holds_from_two():
    # The upper-bound formula is vacuous at n = 1 (it evaluates below the
    # norm itself); from n = 2 on the sandwich holds numerically.
    for n in range(2, 4097):
        mid = counting_schatten1(n) / math.sqrt(n)
        assert gamma_lower_bound_count(n) <= mid <= gamma_upper_bound_count(n)


def test_normalized_schatten_cap_from_two():
    for n in range(2, 4097):
        assert counting_schatten1(n) / n <= 1 + math.log(4 * n / 5) / math.pi


def test_err_upper_bound_matches_gamma_identity():
    for k in (10, 20, 30):
        n = 2**k
        value = err_upper_bound(n, BUDGET)
        assert value == pytest.approx(gamma_upper_bound_count(n) ** 2 / n * C2, rel=1e-12)
    assert err_upper_bound(2**20, BUDGET) / C2 == pytest.approx(28.533579, abs=1e-5)


def test_err_lower_le_upper_and_gap():
    for k in range(1, 31):
        n = 2**k
        assert err_lower_bound_matrix_mech(n, BUDGET) <= err_upper_bound(n, BUDGET)
    gap = err_upper_bound(2**20, BUDGET) - err_lower_bound_matrix_mech(2**20, BUDGET)
    assert gap / C2 == pytest.approx(5.8981581229444915, rel=1e-9)


def test_err_lower_any_mechanism_variants():
    base = (
        2 + math.log((2 * 1024 + 1) / 5) + math.log(2 * 1024 + 1) / 2048
    ) ** 2 / math.pi**2
    assert err_lower_bound_any_mechanism(1024, 1.0) == pytest.approx(
        base / (math.e**4 - 1) ** 2, rel=1e-12
    )
    assert err_lower_bound_any_mechanism(1024, 1.0, oblivious=True) == pytest.approx(
        base / (math.e**2 - 1) ** 2, rel=1e-12
    )
    # the oblivious-noise bound is the stronger (larger) one
    assert err_lower_bound_any_mechanism(64, 0.5, oblivious=True) > err_lower_bound_any_mechanism(
        64, 0.5
    )
    with pytest.raises(ValueError):
        err_lower_bound_any_mechanism(8, 0.0)
    with pytest.raises(ValueError):
        err_lower_bound_any_mechanism(8, math.nan)


def test_hadamard_examples():
    assert np.array_equal(hadamard(1), [[1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(hadamard(0), [[1.0]])
    h = hadamard(3)
    assert np.array_equal(h @ h.T, 8 * np.eye(8))
    assert np.all(np.abs(h) == 1.0)


def test_parity_workload_examples():
    m = parity_workload(2, 1)
    assert m.shape == (2, 4)
    assert singular_values(m) == pytest.approx([2.0, 2.0], rel=1e-12)
    single = parity_workload(2, 2)
    assert single.shape == (1, 4)
    # the character x1 * x2 over the binary enumeration of {+-1}^2
    assert np.array_equal(single, [[1.0, -1.0, -1.0, 1.0]])
    with pytest.raises(ValueError):
        parity_workload(2, 3)
    with pytest.raises(ValueError):
        parity_workload(2, 0)


def test_parity_rows_are_hadamard_rows():
    h = hadamard(3)
    m = parity_workload(3, 1)
    # subsets {1}, {2}, {3} pick Hadamard rows 1, 2, 4
    assert np.array_equal(m, h[[1, 2, 4]])
    for d in range(1, 9):
        h = hadamard(d)
        for w in range(1, d + 1):
            masks = [sum(2**i for i in subset) for subset in combinations(range(d), w)]
            assert np.array_equal(parity_workload(d, w), h[masks])


def test_parity_flat_spectrum():
    for d, w in ((3, 2), (5, 2), (6, 3)):
        s = singular_values(parity_workload(d, w))
        assert s == pytest.approx(np.full(math.comb(d, w), 2.0 ** (d / 2)), rel=1e-9)


def test_parity_gamma_lower_examples():
    assert parity_gamma_lower(2, 1) == 2.0
    assert parity_gamma_lower(1, 1) == 1.0
    assert parity_gamma_lower(8, 4) == 70.0
    # cross-check the closed form against the trace norm of the dense workload
    for d, w in ((2, 1), (4, 2), (8, 4)):
        dense = schatten1(parity_workload(d, w)) / math.sqrt(2**d)
        assert parity_gamma_lower(d, w) == pytest.approx(dense, rel=1e-9)
