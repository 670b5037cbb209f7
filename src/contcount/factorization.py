"""Factorizations of the counting matrix.

Three factorizations are provided:

* the square-root Toeplitz factorization, where both factors are the
  lower-triangular Toeplitz matrix of the coefficients f(0), f(1), ... with
  f(0) = 1 and f(k) = (1 - 1/(2k)) f(k-1) = (2k-1)!!/(2k)!!;
* the binary (tree) mechanism's factorization into p-sum indicator matrices;
* Honaker's variance-optimized left factor, the counting matrix times the
  pseudoinverse of the binary right factor R.  R has full column rank, so
  pinv(R) = G^-1 R^T with the Gram matrix G = R^T R, which has the closed
  form G[i, j] = m + 1 - bit_length(i xor j) (0-based leaves, n' = 2^m):
  the number of tree nodes above both leaves.  No SVD is taken.

Tree nodes are numbered in post-order.  The block of size 2^k ending at
leaf e (a multiple of 2^k) has index 2e - popcount(e) - 1 - (v - k), where
2^v is the lowest set bit of e, so every tree index is computed in numpy,
one level at a time.

Dense factor matrices are capped at n = 4096 (an O(n^2) memory wall);
releases build none: the square-root noise works from the Toeplitz
coefficients alone and Honaker's from the tree (``mechanism._honaker_noise``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import linalg
from .workload import _check_int, _upper_log_factor, counting_matrix

__all__ = [
    "DENSE_LIMIT",
    "Factorization",
    "sqrt_coefficients",
    "double_factorial_ratio",
    "factor_row_norm_sq",
    "factor_frobenius_sq",
    "sqrt_factorization",
    "binary_factorization",
    "binary_right_factor",
    "binary_left_factor",
    "binary_gram",
    "honaker_left",
    "residual",
    "expected_mse",
    "suboptimality_ratio",
]

# Largest n for which dense factor matrices may be materialized.
DENSE_LIMIT = 4096


@dataclass(frozen=True)
class Factorization:
    """A dense factorization left @ right of the counting matrix."""

    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.left.shape[1] != self.right.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: {self.left.shape} vs {self.right.shape}"
            )

    @property
    def n(self) -> int:
        return self.right.shape[1]

    @cached_property
    def sensitivity(self) -> float:
        """||R||_{1->2}, the L2 sensitivity of R x to one changed bit (cached)."""
        return linalg.col_norm_1to2(self.right)


def sqrt_coefficients(n: int) -> np.ndarray:
    """Toeplitz coefficients f(0), ..., f(n-1) of the square-root factor,
    as float64.

    f(0) = 1 and f(k) = (1 - 1/(2k)) f(k-1); equivalently the double
    factorial ratio (2k-1)!!/(2k)!!.
    """
    n = _check_int("n", n, 1)
    terms = np.arange(n, dtype=np.float64)
    k = terms[1:]  # each step below is the float64 operation of 1 - 1/(2k), in place
    k *= 2.0
    np.divide(1.0, k, out=k)
    np.subtract(1.0, k, out=k)
    terms[0] = 1.0
    return np.cumprod(terms, out=terms)


def double_factorial_ratio(k: int) -> Fraction:
    """Exact (2k-1)!!/(2k)!! as a rational; the arbitrary-precision oracle
    for ``sqrt_coefficients``."""
    k = _check_int("k", k, 0)
    num = 1
    den = 1
    for i in range(1, k + 1):
        num *= 2 * i - 1
        den *= 2 * i
    return Fraction(num, den)


def factor_row_norm_sq(coeffs: np.ndarray, t: int) -> float:
    """Squared norm of row t of the square-root factor: 1 + sum_{i<t} f(i)^2.

    This is also the squared maximum column norm of the t x t principal
    submatrix.  A valid closed-form cap is 1 + ln(4t - 3)/pi (asserted in
    the tests); tighter constants circulate but fail numerically.
    """
    t = _check_int("row index", t)
    if not 1 <= t <= len(coeffs):
        raise ValueError(f"row index must be in [1, {len(coeffs)}], got {t}")
    return float(np.sum(coeffs[:t] ** 2))


def factor_frobenius_sq(coeffs: np.ndarray) -> float:
    """Squared Frobenius norm of the square-root factor with coefficients
    ``coeffs`` (sum of row norms)."""
    # row t contributes sum_{j < t} f(j)^2, so f(j)^2 appears n - j times
    weights = np.arange(len(coeffs), 0, -1, dtype=np.float64)
    return float(np.sum(weights * coeffs**2))


def _dense_guard(n: int, kind: str) -> int:
    n = _check_int("n", n, 1)
    if n > DENSE_LIMIT:
        raise ValueError(
            f"dense {kind} factorization refused for n={n} > {DENSE_LIMIT}; "
            "use the coefficient/streaming path instead"
        )
    return n


def sqrt_factorization(n: int) -> Factorization:
    """Dense L = R = lower-triangular Toeplitz factorization of the counting matrix."""
    n = _dense_guard(n, "sqrt")
    mat = linalg.lower_toeplitz(sqrt_coefficients(n))
    return Factorization(left=mat, right=mat)


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _postorder_nodes(ends: np.ndarray, level: int) -> np.ndarray:
    """Post-order indices (0-based) of the tree nodes of size 2^level ending
    at the leaves ``ends`` (int64 multiples of 2^level).

    Leaf e completes the 2e - popcount(e) nodes inside [1, e]; the ones
    ending at e come last, smallest first, up to size 2^v with 2^v the
    lowest set bit of e.  Built in place in the result: the only
    temporaries are the uint8 bit counts.
    """
    nodes = np.negative(ends)
    nodes &= ends
    nodes -= 1
    lowest = np.bitwise_count(nodes)  # v
    np.left_shift(ends, 1, out=nodes)
    nodes -= np.bitwise_count(ends)
    nodes -= lowest
    nodes += level - 1
    return nodes


def _dyadic_blocks(n: int):
    """The blocks that end the dyadic decompositions of [1, t], t in 1..n.

    Yields (k, ends, nodes) from the largest block size 2^k down to 1:
    ``ends`` are the rounds in 1..n whose lowest set bit is 2^k, and
    ``nodes`` the post-order indices, in the tree over the next power of
    two, of the blocks of size 2^k ending there.  The other blocks of such
    a round t cover [1, t - 2^k] and come at higher levels.
    """
    for k in reversed(range(_next_pow2(n).bit_length())):
        ends = np.arange(1 << k, n + 1, 2 << k, dtype=np.int64)
        yield k, ends, _postorder_nodes(ends, k)


def binary_right_factor(n: int) -> np.ndarray:
    """The (2n'-1) x n binary-mechanism strategy matrix (n' = next power of two).

    Row i is the indicator of the leaves summed by the i-th tree node in
    post-order; for n < n' only the first n columns are kept.
    """
    n = _dense_guard(n, "binary")
    full = _next_pow2(n)
    leaves = np.arange(n, dtype=np.int64)
    out = np.zeros((2 * full - 1, n))
    for k in range(full.bit_length()):
        blocks = np.arange(full >> k, dtype=np.int64)
        out[_postorder_nodes((blocks + 1) << k, k)] = (leaves >> k) == blocks[:, None]
    return out


def binary_left_factor(n: int) -> np.ndarray:
    """The n x (2n'-1) binary-mechanism reconstruction matrix.

    Row t has a one at each p-sum node of the dyadic decomposition of
    [1, t], i.e. popcount(t) ones: row t - lowbit(t)'s and the block of
    size lowbit(t) ending at t.
    """
    n = _dense_guard(n, "binary")
    out = np.zeros((n + 1, 2 * _next_pow2(n) - 1))  # row 0 is the empty prefix
    for k, ends, nodes in _dyadic_blocks(n):
        out[ends] = out[ends - (1 << k)]
        out[ends, nodes] = 1.0
    return out[1:]


def binary_factorization(n: int) -> Factorization:
    """Binary (tree) mechanism factorization; exact over the integers.

    For n not a power of two the tree is built at the next power of two
    and truncated to the first n rows/columns.
    """
    return Factorization(left=binary_left_factor(n), right=binary_right_factor(n))


def binary_gram(n: int) -> np.ndarray:
    """Closed-form Gram matrix R^T R of the binary right factor R.

    Entry (i, j), for 0-based leaves, counts the tree nodes covering both:
    m + 1 - bit_length(i xor j) with n' = 2^m.  Exact, and equal to
    ``binary_right_factor(n).T @ binary_right_factor(n)``.
    """
    n = _dense_guard(n, "binary")
    leaves = np.arange(n, dtype=np.int64)
    # frexp's exponent of a positive integer below 2^53 is its bit length
    _, bits = np.frexp((leaves[:, None] ^ leaves[None, :]).astype(np.float64))
    return (_next_pow2(n).bit_length() - bits).astype(np.float64)


def honaker_left(n: int) -> Factorization:
    """Honaker's optimized factorization: same right factor R as the binary
    mechanism, left factor counting_matrix @ pinv(R).

    The pseudoinverse-based left factor is the minimum-Frobenius-norm
    solution of L @ R = counting matrix, so it never has larger Frobenius
    norm than the binary left factor.  R has full column rank, so
    pinv(R) = G^-1 R^T with G = ``binary_gram(n)``; G's eigenvalues lie in
    [1, 2n' - 1], so one dense inversion is well conditioned.  The rows of
    G^-1 are summed cumulatively (the counting matrix) and R^T is applied as
    prefix-sum differences over each node's leaf range, clipped at n.
    """
    n = _dense_guard(n, "honaker")
    r = binary_right_factor(n)
    full = _next_pow2(n)
    # built transposed, so each node fills a contiguous row:
    # prefix[j] = sum of the first j rows of (counting_matrix @ G^-1)^T
    prefix = np.zeros((n + 1, n))
    np.cumsum(np.cumsum(np.linalg.inv(binary_gram(n)).T, axis=1), axis=0, out=prefix[1:])
    left_t = np.empty((2 * full - 1, n))
    for k in range(full.bit_length()):
        ends = np.arange(1 << k, full + 1, 1 << k, dtype=np.int64)
        starts = np.minimum(ends - (1 << k), n)
        left_t[_postorder_nodes(ends, k)] = prefix[np.minimum(ends, n)] - prefix[starts]
    left = np.ascontiguousarray(left_t.T)
    return Factorization(left=left, right=r)


def residual(fact: Factorization) -> float:
    """Max absolute entry of left @ right minus the counting matrix."""
    n = fact.n
    return float(np.max(np.abs(fact.left @ fact.right - counting_matrix(n))))


def expected_mse(fact: Factorization, budget) -> float:
    """Exact mean-squared error of the matrix mechanism using ``fact``:

    C^2 * ||R||_{1->2}^2 * ||L||_F^2 / n, with n = ``fact.n``.
    """
    c = budget.noise_multiplier
    col = fact.sensitivity
    fro = linalg.frobenius_norm(fact.left)
    return c * c * col * col * fro * fro / fact.n


def suboptimality_ratio(n: int) -> float:
    """Guaranteed error ratio of the binary mechanism over the square-root
    factorization mechanism:

    log2(n) (1 + log2(n)) / (2 (1 + ln(4n/5)/pi)^2),

    nondecreasing for n >= 4 and approaching pi^2 / (2 ln(2)^2) ~ 10.27.
    """
    n = _check_int("n", n, 1)
    m = math.log2(n)
    return m * (1.0 + m) / (2.0 * _upper_log_factor(n) ** 2)
