"""Private counting mechanisms and their Monte-Carlo error harness.

Every mechanism releases the exact prefix sums plus correlated noise L z:
``release`` maps a mechanism name to code, ``_sqrt_noise`` draws all
square-root Toeplitz noise and ``_honaker_noise`` Honaker's tree noise, with
no dense matrix.  ``matrix_mechanism_run`` runs an explicit dense
factorization; ``release`` uses it only when handed one for ``"honaker"``.

Noise calibration follows the Gaussian mechanism: a strategy matrix R with
maximum column norm s needs per-coordinate noise of standard deviation
s * C(eps, delta), where

    C(eps, delta) = (2/eps) * sqrt(4/9 + ln((1/delta) sqrt(2/pi))).

Randomness contract: all mechanisms draw from ``numpy.random.Generator``
seeded with ``PCG64(seed)`` and use ``standard_normal`` (ziggurat), so a
fixed seed reproduces outputs bit-for-bit.  Monte-Carlo trials use derived
seeds ``seed + trial_index`` so serial and parallel runs aggregate
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "binary_mechanism_run",
    "matrix_mechanism_run",
    "release",
    "monte_carlo_mse",
]

MECHANISM_KINDS = ("factorization", "binary", "honaker")


def noise_multiplier(epsilon: float, delta: float) -> float:
    """Gaussian-mechanism noise multiplier C(eps, delta) for unit sensitivity."""
    if epsilon <= 0:
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
        if self.epsilon <= 0:
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


def _sqrt_noise(n: int, multiplier: float, seed: int, d: int = 1) -> np.ndarray:
    """Square-root factorization noise L G, G ~ N(0, I) of shape (n, d) from
    ``PCG64(seed)``, scaled after the convolution by ``multiplier * ||R||_{1->2}``."""
    coeffs = sqrt_coefficients(n).coeffs
    g = _generator(seed).standard_normal((n, d))
    # each column's convolution overwrites its normals, so no n x d copy is made
    for j in range(d):
        g[:, j] = toeplitz_lower_matvec(coeffs, g[:, j])
    g *= multiplier * math.sqrt(float(np.sum(coeffs**2)))
    return g


def _honaker_noise(n: int, multiplier: float, seed: int) -> np.ndarray:
    """Honaker noise sigma M G^-1 R^T z for z ~ N(0, I) of length 2n' - 1
    from ``PCG64(seed)``, with R the binary strategy matrix, G = R^T R, M the
    counting matrix and sigma = multiplier * sqrt(1 + log2(n')), as in
    ``binary_mechanism_run``.  No matrix is formed: O(n log n) time, O(n)
    memory.

    R^T z adds to each leaf the values of its ancestors.  Post-order lists
    a tree as its left subtree, its right subtree, then its root, so the
    roots are peeled off top down, one level per reshape.  G^-1 is applied
    bottom-up: on the leaves of a node of size 2^k, the Gram matrix of the
    node's subtree is 11^T + blockdiag(children), so the children's
    solution w and u = blockdiag(children)^-1 1 give the node's by
    Sherman-Morrison, w -= u (1^T w) / (1 + 1^T u) and u /= 1 + 1^T u.  On
    a full node u is the constant 1 / (2^(k+1) - 1), so a level of full
    nodes is one row sum; only the last, ragged node keeps a vector u.
    """
    full = _next_pow2(n)
    levels = full.bit_length()
    tree = _generator(seed).standard_normal(2 * full - 1)[None, :]
    w = tree[:, -1]
    while tree.shape[1] > 1:
        tree = tree[:, :-1].reshape(-1, tree.shape[1] // 2)
        w = np.repeat(w, 2) + tree[:, -1]
    w = w[:n]  # leaves past n are not columns of R
    u = np.empty(0)  # u on the leaves of the ragged node of the level below
    for k in range(1, levels):
        size = 1 << k
        start = (n >> k) << k  # the leaves before it lie in full nodes
        if start:
            blocks = w[:start].reshape(-1, size)
            blocks -= blocks.sum(axis=1, keepdims=True) / (2 * size - 1)
        if start < n:
            # its full children, of size 2^(k-1), have u = 1 / (2^k - 1)
            full_children = ((n >> (k - 1)) << (k - 1)) - start
            u = np.concatenate((np.full(full_children, 1.0 / (size - 1)), u))
            scale = 1.0 + u.sum()
            w[start:] -= u * (w[start:].sum() / scale)
            u /= scale
    np.cumsum(w, out=w)
    w *= multiplier * math.sqrt(levels)
    return w


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
        self.noise = _sqrt_noise(n, budget.noise_multiplier, seed)[:, 0]

    def step(self, x_t: int) -> float:
        """Consume one stream bit and return the noisy running count."""
        if self.t >= self.n:
            raise ValueError(f"horizon {self.n} exceeded")
        if x_t not in (0, 1):
            raise ValueError(f"stream elements must be bits, got {x_t!r}")
        self.running_sum += int(x_t)
        self.t += 1
        return self.running_sum + self.noise.item(self.t - 1)


def binary_mechanism_run(x, budget: PrivacyBudget, seed: int) -> np.ndarray:
    """Run the binary (tree) mechanism over a bit stream.

    One Gaussian p-sum noise value is drawn per tree node (post-order, so a
    shared seed reproduces the dense-factorization oracle L (R x + y)); each
    round combines the popcount(t) noisy p-sums covering [1, t].  The
    output is built one tree level at a time, largest block first, so each
    round adds its blocks left to right; p-sums are exact differences of
    the integer prefix sums.  O(n log n) vectorised work.
    """
    x = _check_bits(x)
    n = x.shape[0]
    full = _next_pow2(n)
    # max column norm of the binary strategy matrix is sqrt(1 + log2(n'))
    sigma = budget.noise_multiplier * math.sqrt(1.0 + math.log2(full))
    y = _generator(seed).standard_normal(2 * full - 1) * sigma

    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(x.astype(np.int64), out=prefix[1:])
    out = np.zeros(n)
    for k, rounds, ends, nodes in _dyadic_blocks(n):
        psums = (prefix[ends] - prefix[ends - (1 << k)]).astype(np.float64)
        out[rounds - 1] += psums + y[nodes]
    return out


def matrix_mechanism_run(fact: Factorization, x, budget: PrivacyBudget, seed: int) -> np.ndarray:
    """Generic matrix mechanism: L (R x + z) with z ~ N(0, ||R||_{1->2}^2 C^2 I)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fact.n,):
        raise ValueError(f"stream length {x.shape} does not match factorization size {fact.n}")
    p = fact.right.shape[0]
    z = _generator(seed).standard_normal(p) * (budget.noise_multiplier * fact.sensitivity)
    return fact.left @ (fact.right @ x + z)


def release(
    kind: str, bits, budget: PrivacyBudget, seed: int, fact: Factorization | None = None
) -> np.ndarray:
    """Noisy prefix counts of a non-empty 1-D bit stream under mechanism ``kind``.

    ``"factorization"`` is ``cumsum(bits)`` plus ``_sqrt_noise``, byte for
    byte what ``StreamingCounter.step`` returns; ``"binary"`` runs
    ``binary_mechanism_run``; ``"honaker"`` is ``cumsum(bits)`` plus
    ``_honaker_noise``, with no dense matrix and no limit on n.  An explicit
    ``fact`` is accepted only with ``"honaker"`` and runs the generic
    ``matrix_mechanism_run`` with it instead (the dense oracle path).
    """
    if kind not in MECHANISM_KINDS:
        raise ValueError(f"kind must be one of {MECHANISM_KINDS}, got {kind!r}")
    if fact is not None and kind != "honaker":
        raise ValueError(f"an explicit factorization is only used by 'honaker', not {kind!r}")
    x = _check_bits(bits)
    n = x.shape[0]
    if kind == "binary":
        return binary_mechanism_run(x, budget, seed)
    if fact is not None:
        return matrix_mechanism_run(fact, x, budget, seed)
    if kind == "factorization":
        noise = _sqrt_noise(n, budget.noise_multiplier, seed)[:, 0]
    else:
        noise = _honaker_noise(n, budget.noise_multiplier, seed)
    # added last, so the prefix sums are not held while the noise is built
    noise += np.cumsum(x)
    return noise


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
    harness uses the all-zeros stream.  Trial i is seeded with seed + i.
    ``fact`` is passed on to ``release``: for ``"honaker"`` it selects the
    dense ``matrix_mechanism_run`` path, for other kinds it is refused.
    """
    n = int(n)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    zeros = np.zeros(n, dtype=np.int64)

    per_trial = np.empty(trials)
    for i in range(trials):
        per_trial[i] = np.mean(release(kind, zeros, budget, seed + i, fact) ** 2)

    estimate = float(np.mean(per_trial))
    if trials == 1:
        return estimate, 0.0
    return estimate, float(np.std(per_trial, ddof=1) / math.sqrt(trials))
