"""Counting and parity workload matrices and their closed-form quantities.

The closed-form evaluators (spectrum, trace norm, factorization-norm bounds,
error bounds) never materialize a matrix, so they stay cheap for stream
lengths up to 2**30 and beyond.  The dense constructors exist separately so
tests can cross-check every closed form against a numeric oracle.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations

import numpy as np

__all__ = [
    "counting_matrix",
    "counting_inverse",
    "counting_singular_value",
    "counting_singular_values",
    "counting_schatten1",
    "gamma_lower_bound_count",
    "gamma_upper_bound_count",
    "err_upper_bound",
    "err_lower_bound_matrix_mech",
    "err_lower_bound_any_mechanism",
    "binary_expected_err",
    "hadamard",
    "parity_workload",
    "parity_gamma_lower",
]


def _check_int(name: str, value, low: int | None = None) -> int:
    """``value`` as a Python int, read by ``operator.index``: a float, 4.0
    included, is refused rather than truncated.  With ``low``, a value
    below it is refused too."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _check_n(n: int) -> int:
    return _check_int("stream length", n, 1)


def _upper_log_factor(n) -> float:
    """1 + ln(4n/5)/pi: the square-root factorization's norm and error
    guarantees, relative to sqrt(n) and to C respectively."""
    return 1.0 + math.log(4.0 * n / 5.0) / math.pi


def _lower_log_factor(n) -> float:
    """2 + ln((2n+1)/5) + ln(2n+1)/(2n), the factor of the lower bounds."""
    return 2.0 + math.log((2.0 * n + 1.0) / 5.0) + math.log(2.0 * n + 1.0) / (2.0 * n)


def counting_matrix(n: int) -> np.ndarray:
    """The n x n lower-triangular all-ones matrix mapping a stream to its prefix sums."""
    n = _check_n(n)
    return np.tril(np.ones((n, n)))


def counting_inverse(n: int) -> np.ndarray:
    """Exact inverse of the counting matrix: 1 on the diagonal, -1 below it."""
    n = _check_n(n)
    return np.eye(n) - np.diag(np.ones(n - 1), -1)


def counting_singular_value(n: int, i: int) -> float:
    """The i-th largest singular value of the counting matrix, in closed form.

    sigma_i = (1/2) |csc((2i - 1) pi / (4n + 2))|, strictly decreasing in i.
    """
    n = _check_n(n)
    i = _check_int("singular value index", i)
    if not 1 <= i <= n:
        raise ValueError(f"singular value index must be in [1, {n}], got {i}")
    return 0.5 / abs(math.sin((2 * i - 1) * math.pi / (4 * n + 2)))


def counting_singular_values(n: int) -> np.ndarray:
    """All n closed-form singular values of the counting matrix, descending."""
    n = _check_n(n)
    i = np.arange(1, n + 1, dtype=np.float64)
    return 0.5 / np.abs(np.sin((2.0 * i - 1.0) * np.pi / (4.0 * n + 2.0)))


def counting_schatten1(n: int) -> float:
    """Trace norm of the counting matrix (sum of the csc-form singular values)."""
    return float(np.sum(counting_singular_values(n)))


def gamma_lower_bound_count(n: int) -> float:
    """Closed-form lower bound on the factorization norm of the counting matrix.

    (sqrt(n) / pi) * (2 + ln((2n + 1)/5) + ln(2n + 1) / (2n)); unnormalized,
    i.e. it bounds the norm itself, not the norm divided by sqrt(n).
    """
    n = _check_n(n)
    return (math.sqrt(n) / math.pi) * _lower_log_factor(n)


def gamma_upper_bound_count(n: int) -> float:
    """Closed-form upper bound sqrt(n) * (1 + ln(4n/5)/pi) on the factorization norm.

    Note: at n = 1 the formula evaluates below 1 while the norm itself is
    exactly 1, so the bound is vacuous there; it is numerically valid for
    every n >= 2.  ``test_criterion_04_gamma_sandwich`` checks it over
    n = 2..4096 and asserts that it stays below 1 at n = 1.
    """
    n = _check_n(n)
    return math.sqrt(n) * _upper_log_factor(n)


def err_upper_bound(n: int, budget) -> float:
    """Mean-squared-error guarantee of the square-root factorization mechanism.

    C^2 * (1 + ln(4n/5)/pi)^2 where C is the Gaussian noise multiplier of
    ``budget``.  It holds from n = 7 on; for n <= 6 the exact mean-squared
    error of the square-root factorization slightly exceeds it
    (``test_expected_mse_below_guarantee_from_seven``).
    """
    n = _check_n(n)
    c = budget.noise_multiplier
    return c * c * _upper_log_factor(n) ** 2


def err_lower_bound_matrix_mech(n: int, budget) -> float:
    """Lower bound on the mean-squared error of any matrix mechanism for counting.

    (C^2 / pi^2) * (2 + ln((2n+1)/5) + ln(2n+1)/(2n))^2.
    """
    n = _check_n(n)
    c = budget.noise_multiplier
    return (c * c / math.pi**2) * _lower_log_factor(n) ** 2


def binary_expected_err(n: int, budget) -> float:
    """Closed-form expected MSE of the binary mechanism at a power-of-two n:
    C^2 (1 + log2 n) ((n log2(n)/2 + 1) / n), using the exact popcount norm;
    dividing by n first is exact and keeps it finite up to n = 2^1014."""
    n = _check_n(n)
    if n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    c = budget.noise_multiplier
    m = int(math.log2(n))
    return c * c * (1.0 + m) * ((n * m / 2.0 + 1.0) / n)


def err_lower_bound_any_mechanism(n: int, epsilon: float, oblivious: bool = False) -> float:
    """Lower bound on the mean-squared error of *any* (eps, delta)-DP counter.

    Prefactor 1/(e^(4 eps) - 1)^2 in general, improving to
    1/(e^(2 eps) - 1)^2 for mechanisms whose noise is oblivious of the
    input.  Where the square overflows float64 (eps > 88.7, or 177.4 when
    oblivious) 0.0 is returned, as at eps = inf.  The general form is only
    proven for delta below an unspecified small constant times e^(-eps);
    that precondition is not enforced here: a pure formula evaluator.
    """
    n = _check_n(n)
    if not epsilon > 0:  # also refuses nan
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    rate = 2.0 if oblivious else 4.0
    try:
        pref = 1.0 / (math.expm1(rate * epsilon)) ** 2
    except OverflowError:
        return 0.0
    return (pref / math.pi**2) * _lower_log_factor(n) ** 2


def hadamard(d: int) -> np.ndarray:
    """Unnormalized 2^d x 2^d Hadamard matrix (Sylvester construction).

    Entries are +-1 and H @ H.T = 2^d * I exactly.
    """
    d = _check_int("d", d, 0)
    h = np.ones((1, 1))
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(d):
        h = np.kron(block, h)
    return h


def parity_workload(d: int, w: int) -> np.ndarray:
    """Workload matrix of all weight-w parity queries over {+-1}^d.

    One row per size-w subset P of {1..d} (lexicographic order); the row
    evaluates prod_{i in P} x_i on every x in {+-1}^d, with columns ordered
    by the binary enumeration of x (coordinate i is bit i-1, bit value b
    meaning x_i = (-1)^b).  Each row is the Hadamard row indexed by the
    bitmask of P, so shape is C(d, w) x 2^d.
    """
    d, w = _check_int("d", d, 1), _check_int("w", w, 1)
    if w > d:
        raise ValueError(f"w must satisfy 1 <= w <= d, got w={w}, d={d}")
    masks = np.array([sum(1 << i for i in subset) for subset in combinations(range(d), w)])
    # parity of popcount(mask & col) decides the sign
    parity = np.bitwise_count(masks[:, None] & np.arange(2**d, dtype=np.int64)) & 1
    return 1.0 - 2.0 * parity.astype(np.float64)


def parity_gamma_lower(d: int, w: int) -> float:
    """Lower bound on the factorization norm of the parity workload: C(d, w).

    The workload's ||.||_1 / sqrt(cols) collapses to the binomial coefficient
    because all C(d, w) singular values equal 2^(d/2); this evaluator returns
    the exact closed form without materializing the matrix.
    """
    d, w = _check_int("d", d, 1), _check_int("w", w, 1)
    if w > d:
        raise ValueError(f"invalid parity parameters d={d}, w={w}")
    return float(math.comb(d, w))
