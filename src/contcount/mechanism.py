"""Private counting mechanisms and their Monte-Carlo error harness.

Every mechanism releases the exact prefix sums plus correlated noise L z.
``_MECHANISMS`` maps each kind to one function from a (b, width) block of
standard normals, one row per release, to b outputs, built on
``_sqrt_noise`` (square-root Toeplitz), ``_binary_counts`` (the tree, in
O(n) by out[t] = out[t - lowbit(t)] + noisy block) or ``_honaker_noise``
(Honaker's tree estimator, with no dense matrix).  ``_matrix_counts`` does
the same for an explicit dense factorization (``matrix_mechanism_run``).
``release`` runs them on one row, ``monte_carlo_mse`` on blocks of trials.

Noise calibration follows the Gaussian mechanism: a strategy matrix R with
maximum column norm s needs per-coordinate noise of standard deviation
s * C(eps, delta), where

    C(eps, delta) = (2/eps) * sqrt(4/9 + ln((1/delta) sqrt(2/pi))).

Randomness contract: all mechanisms draw from ``numpy.random.Generator``
seeded with ``PCG64(seed)`` and use ``standard_normal`` (ziggurat), so a
fixed seed reproduces outputs bit-for-bit.  Monte-Carlo trial i draws the
row ``release`` would draw from ``seed + i``, so serial and parallel runs
aggregate identically.  The trials are mapped in blocks of at most
``_BLOCK_VALUES`` normals, and every estimate is byte for byte that of a
loop of one ``release`` per trial: each row goes through the same 1-D
operations.  So a square-root block is one ``toeplitz_lower_matvec``
call, which computes one coefficient spectrum per block but gives each row
its own 1-D FFT (a 2-D FFT over the block rounds differently), dense
blocks use a stacked ``matmul``, one matrix-vector product per row (a
matrix-matrix product rounds differently), and every sum runs along a row
(numpy sums a row pairwise, but sums down a column one element at a time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .factorization import (
    Factorization,
    _dyadic_blocks,
    _next_pow2,
    sqrt_coefficients,
)
from .linalg import toeplitz_lower_matvec

__all__ = [
    "noise_multiplier",
    "PrivacyBudget",
    "StreamingCounter",
    "matrix_mechanism_run",
    "release",
    "monte_carlo_mse",
]

# Most standard normals ``monte_carlo_mse`` holds in one block of trials
# (2 MB of float64), so its memory does not grow with trials * n.
_BLOCK_VALUES = 2**18


def noise_multiplier(epsilon: float, delta: float) -> float:
    """Gaussian-mechanism noise multiplier C(eps, delta) for unit sensitivity."""
    if not epsilon > 0:  # also refuses nan
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return (2.0 / epsilon) * math.sqrt(4.0 / 9.0 + math.log(math.sqrt(2.0 / math.pi) / delta))


@dataclass(frozen=True)
class PrivacyBudget:
    """(eps, delta) privacy budget with its derived Gaussian noise multiplier.

    The error guarantees are stated for 0 < eps <= 1; pass
    ``allow_large_epsilon=True`` for exploratory runs beyond that.
    ``override_noise_multiplier`` is a test hook (e.g. 0.0 disables noise
    entirely); it leaves epsilon/delta untouched.
    """

    epsilon: float
    delta: float
    allow_large_epsilon: bool = False
    override_noise_multiplier: float | None = None

    def __post_init__(self):
        if not self.epsilon > 0:  # also refuses nan
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.epsilon > 1 and not self.allow_large_epsilon:
            raise ValueError(
                f"epsilon={self.epsilon} > 1; pass allow_large_epsilon=True to override"
            )
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def noise_multiplier(self) -> float:
        if self.override_noise_multiplier is not None:
            return self.override_noise_multiplier
        return noise_multiplier(self.epsilon, self.delta)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def _check_bits(bits) -> np.ndarray:
    x = np.asarray(bits)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"stream must be a non-empty 1-D array, got shape {x.shape}")
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("stream elements must be bits")
    return x


def _normals(seed: int, rows: int, width: int) -> np.ndarray:
    """(rows, width) standard normals; row i is ``standard_normal(width)``
    from ``PCG64(seed + i)``."""
    z = np.empty((rows, width))
    for i, row in enumerate(z):
        _generator(seed + i).standard_normal(out=row)
    return z


def _sqrt_noise(g: np.ndarray, multiplier: float) -> np.ndarray:
    """Square-root factorization noise, in place: each row of the (b, n)
    normals ``g`` becomes L g_row, then all are scaled by
    ``multiplier * ||R||_{1->2}``.  Returns ``g``."""
    coeffs = sqrt_coefficients(g.shape[-1])
    toeplitz_lower_matvec(coeffs, g, out=g)
    g *= multiplier * math.sqrt(float(np.sum(coeffs**2)))
    return g


def _honaker_noise(z: np.ndarray, multiplier: float, n: int) -> np.ndarray:
    """Honaker noise sigma M G^-1 R^T z_row for each row of the (b, 2n' - 1)
    normals ``z``, with R the binary strategy matrix, G = R^T R, M the
    counting matrix and sigma = multiplier * sqrt(1 + log2(n')), as in
    ``_binary_counts``.  Returns a (b, n) array.  No matrix is
    formed: O(n log n) time and O(n) memory per row.

    R^T z adds to each leaf the values of its ancestors.  Post-order lists
    a tree as its left subtree, its right subtree, then its root, so the
    roots are peeled off top down, one level per reshape.  G^-1 is applied
    bottom-up: on the leaves of a node of size 2^k, the Gram matrix of the
    node's subtree is 11^T + blockdiag(children), so the children's
    solution w and u = blockdiag(children)^-1 1 give the node's by
    Sherman-Morrison, w -= u (1^T w) / (1 + 1^T u) and u /= 1 + 1^T u.  On
    a full node u is the constant 1 / (2^(k+1) - 1), so a level of full
    nodes is one row sum; only the last, ragged node keeps a vector u.
    Every sum runs over the last, contiguous axis, so a row's result does
    not depend on the rows beside it.
    """
    rows = z.shape[0]
    full = _next_pow2(n)
    levels = full.bit_length()
    tree = z  # one subtree per row of tree, row-major over the rows of z
    w = tree[:, -1]
    while tree.shape[1] > 1:
        tree = tree[:, :-1].reshape(-1, tree.shape[1] // 2)
        w = np.repeat(w, 2) + tree[:, -1]
    w = w.reshape(rows, full)[:, :n]  # leaves past n are not columns of R
    u = np.empty(0)  # u on the leaves of the ragged node of the level below
    for k in range(1, levels):
        size = 1 << k
        start = (n >> k) << k  # the leaves before it lie in full nodes
        if start:
            blocks = w[:, :start].reshape(rows, -1, size)
            blocks -= blocks.sum(axis=-1, keepdims=True) / (2 * size - 1)
        if start < n:
            # its full children, of size 2^(k-1), have u = 1 / (2^k - 1)
            full_children = ((n >> (k - 1)) << (k - 1)) - start
            u = np.concatenate((np.full(full_children, 1.0 / (size - 1)), u))
            scale = 1.0 + u.sum()
            w[:, start:] -= u * (w[:, start:].sum(axis=-1, keepdims=True) / scale)
            u /= scale
    np.cumsum(w, axis=-1, out=w)
    w *= multiplier * math.sqrt(levels)
    return w


def _binary_counts(x: np.ndarray, z: np.ndarray, multiplier: float) -> np.ndarray:
    """Binary-mechanism outputs on the bits ``x`` for each row of the
    (b, 2n' - 1) normals ``z``, which are scaled in place to the node noise.

    Round t adds the popcount(t) noisy p-sums covering [1, t], largest block
    first.  Its last block has size lowbit(t), and the others cover
    [1, t - lowbit(t)], a round with a larger lowest set bit, so levels are
    filled from the top down by out[t] = out[t - lowbit(t)] + block.  Each
    block is an exact difference of the integer prefix sums plus its node
    noise.  O(n) vectorised work per row.
    """
    n = x.shape[0]
    # max column norm of the binary strategy matrix is sqrt(1 + log2(n'))
    z *= multiplier * math.sqrt(1.0 + math.log2(_next_pow2(n)))
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(x.astype(np.int64), out=prefix[1:])
    out = np.zeros((z.shape[0], n + 1))  # round t in column t; column 0 is the empty prefix
    for k, _, nodes in _dyadic_blocks(n):
        size = 1 << k
        # the rounds 2^k, 3 2^k, ... and the ones 2^k before them, as strided views
        ends, before = slice(size, None, 2 * size), slice(0, n + 1 - size, 2 * size)
        out[:, ends] = out[:, before] + ((prefix[ends] - prefix[before]) + z[:, nodes])
    return out[:, 1:]


def _matrix_counts(fact: Factorization, x, z: np.ndarray, multiplier: float) -> np.ndarray:
    """L (R x + z_row) for each row of the (b, p) normals ``z``, which are
    scaled in place by ``multiplier * ||R||_{1->2}``.

    The stacked ``matmul`` makes one matrix-vector product per row, the
    same product ``fact.left @ v`` makes; one matrix-matrix product for the
    block would round differently.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fact.n,):
        raise ValueError(f"stream length {x.shape} does not match factorization size {fact.n}")
    z *= multiplier * fact.sensitivity
    z += fact.right @ x
    return np.matmul(fact.left, z[..., None])[..., 0]


def _plus_prefix(x: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """``noise`` plus cumsum(x), in place: added after the noise is built, so
    the prefix sums are not held while it is."""
    noise += np.cumsum(x)
    return noise


def _tree_width(n: int) -> int:
    return 2 * _next_pow2(n) - 1


# kind -> (draw_width, counts): the standard normals one release over n
# rounds draws, draw_width(n), and the (b, n) releases on the bits x, one
# per row of the (b, draw_width(n)) normals z (overwritten), at noise
# multiplier c.
_MECHANISMS = {
    "factorization": (lambda n: n, lambda x, z, c: _plus_prefix(x, _sqrt_noise(z, c))),
    "binary": (_tree_width, _binary_counts),
    "honaker": (_tree_width, lambda x, z, c: _plus_prefix(x, _honaker_noise(z, c, x.shape[0]))),
}
MECHANISM_KINDS = tuple(_MECHANISMS)


def _mechanism(kind: str):
    """The (draw_width, counts) entry of ``kind`` in ``_MECHANISMS``."""
    if kind not in MECHANISM_KINDS:
        raise ValueError(f"kind must be one of {MECHANISM_KINDS}, got {kind!r}")
    return _MECHANISMS[kind]


class StreamingCounter:
    """O(1)-per-round private counter based on the square-root factorization.

    At construction it stores the correlated noise vector
    z = C(eps, delta) * ||R||_{1->2} * L g with g ~ N(0, I_n), where L is the
    lower-triangular Toeplitz factor (``_sqrt_noise``).  Each round
    then just adds z[t] to the running true count.  Preprocessing costs
    O(n log n) arithmetic plus n normal draws; per-round work is constant.
    """

    def __init__(self, n: int, budget: PrivacyBudget, seed: int):
        n = int(n)
        if n < 1:
            raise ValueError(f"horizon must be >= 1, got {n}")
        self.n = n
        self.budget = budget
        self.seed = int(seed)
        self.t = 0
        self.running_sum = 0
        self.noise = _sqrt_noise(_normals(seed, 1, n), budget.noise_multiplier)[0]

    def step(self, x_t: int) -> float:
        """Consume one stream bit and return the noisy running count."""
        t = self.t
        if t >= self.n:
            raise ValueError(f"horizon {self.n} exceeded")
        if x_t == 1:
            s = self.running_sum + 1
        elif x_t == 0:
            s = self.running_sum
        else:
            raise ValueError(f"stream elements must be bits, got {x_t!r}")
        self.running_sum = s
        self.t = t + 1
        return s + self.noise.item(t)


def matrix_mechanism_run(fact: Factorization, x, budget: PrivacyBudget, seed: int) -> np.ndarray:
    """Generic matrix mechanism: L (R x + z) with z ~ N(0, ||R||_{1->2}^2 C^2 I)."""
    z = _normals(seed, 1, fact.right.shape[0])
    return _matrix_counts(fact, x, z, budget.noise_multiplier)[0]


def release(kind: str, bits, budget: PrivacyBudget, seed: int) -> np.ndarray:
    """Noisy prefix counts of a non-empty 1-D bit stream under mechanism ``kind``.

    ``"factorization"`` is ``cumsum(bits)`` plus ``_sqrt_noise``, byte for
    byte what ``StreamingCounter.step`` returns; ``"binary"`` runs
    ``_binary_counts``; ``"honaker"`` is ``cumsum(bits)`` plus
    ``_honaker_noise``, with no dense matrix and no limit on n.  All of
    them draw one row of normals from ``PCG64(seed)``.  The dense matrix
    mechanism is ``matrix_mechanism_run``.
    """
    draw_width, counts = _mechanism(kind)
    x = _check_bits(bits)
    return counts(x, _normals(seed, 1, draw_width(x.shape[0])), budget.noise_multiplier)[0]


def monte_carlo_mse(
    kind: str,
    n: int,
    trials: int,
    budget: PrivacyBudget,
    seed: int,
    fact: Factorization | None = None,
) -> tuple[float, float]:
    """Empirical mean-squared error of a counting mechanism and its standard error.

    Since the additive noise does not depend on the input, the worst-case
    input in the error definition can be replaced by any fixed stream; the
    harness uses the all-zeros stream.  Trial i draws the normals
    ``release`` draws from seed + i; the trials are mapped to outputs in
    blocks of at most ``_BLOCK_VALUES`` normals, by the functions
    ``release`` runs, so each trial's error is byte for byte that of
    ``release(kind, zeros, budget, seed + i)``.  ``fact`` is accepted only
    with ``"honaker"``: the trials then run the dense ``_matrix_counts``,
    byte for byte ``matrix_mechanism_run(fact, zeros, budget, seed + i)``.
    """
    n = int(n)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    draw_width, counts = _mechanism(kind)
    width = draw_width(n)
    if fact is not None:
        if kind != "honaker":
            raise ValueError(f"an explicit factorization is only used by 'honaker', not {kind!r}")
        width = fact.right.shape[0]
        counts = partial(_matrix_counts, fact)
    zeros = np.zeros(n, dtype=np.int64)
    rows = max(1, _BLOCK_VALUES // width)

    per_trial = np.empty(trials)
    for start in range(0, trials, rows):
        z = _normals(seed + start, min(rows, trials - start), width)
        block = counts(zeros, z, budget.noise_multiplier)
        # a row-wise mean: each trial's pairwise sum runs over its own row
        per_trial[start : start + len(z)] = np.mean(block**2, axis=1)

    estimate = float(np.mean(per_trial))
    if trials == 1:
        return estimate, 0.0
    return estimate, float(np.std(per_trial, ddof=1) / math.sqrt(trials))
