"""Private counting mechanisms and their Monte-Carlo error harness.

Every mechanism releases the exact prefix sums plus correlated noise L z.
``_MECHANISMS`` maps each kind to a ``_Mechanism`` record of functions of
the horizon n: ``draw_width``, the normals one release draws; ``noise``,
from a (b, width) block of them to b noise rows; ``sensitivity``,
||R||_{1->2}; and ``expected_mse``, the exact mean squared error.  The noise
is ``_sqrt_noise`` (square-root Toeplitz), ``_binary_noise`` (the tree, by
out[t] = out[t - lowbit(t)] + node noise) or ``_honaker_noise`` (Honaker's
estimator, with no matrix).  ``release`` adds the prefix sums to one row of
it; ``monte_carlo_mse`` maps blocks of trials to noise only, and a dense
factorization's L z.  ``matrix_mechanism_run`` gives L (R x + z).

Noise calibration follows the Gaussian mechanism: a strategy matrix R with
maximum column norm s needs per-coordinate noise of standard deviation
s * C(eps, delta), where

    C(eps, delta) = (2/eps) * sqrt(4/9 + ln((1/delta) sqrt(2/pi))).

Randomness contract: all mechanisms draw from ``numpy.random.Generator``
seeded with ``PCG64(seed)`` and use ``standard_normal`` (ziggurat), so a
fixed seed reproduces outputs bit-for-bit.  Monte-Carlo trial i draws the
row ``release`` would draw from ``seed + i``, so each trial equals its own
``release``.  Seeds are integers (``workload._check_int``), and
``seed + i`` is taken in Python ints, so it never wraps.  When every
seed of a block is below 2^32, its row states are computed together
(``_pcg64_states``, numpy's seeding in vectorised uint32 arithmetic) and
one generator is set to each in turn; any other block builds one
``PCG64(seed + i)`` per row.  Every row equals ``PCG64(seed + i)``'s byte
for byte, and ``test_pcg64_states_equal_numpy_seeding`` fails if a numpy
release seeds PCG64 differently.  The trials are mapped in blocks of at most
``_BLOCK_VALUES`` normals, and every estimate is byte for byte that of a
loop of one ``release`` per trial: each row goes through the same 1-D
operations.  So a square-root block is one ``toeplitz_lower_matvec``
call, which computes one coefficient spectrum per block and transforms the
rows in batches, each row as a 1-D FFT would, dense blocks use a stacked
``matmul``, one matrix-vector product per row (a matrix-matrix product
rounds differently), and every sum runs along a row (numpy sums a row
pairwise, but sums down a column one element at a time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import factorization, workload
from .factorization import (
    Factorization,
    _next_pow2,
    _postorder_nodes,
    sqrt_coefficients,
)
from .linalg import toeplitz_lower_matvec
from .workload import _check_int

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
# Rounds of one tree level ``_binary_noise`` indexes at a time (0.5 MB of
# node indices and 0.5 MB of node noise per row), so its temporaries do not
# grow with n.
_TREE_RUN = 2**16


def noise_multiplier(epsilon: float, delta: float) -> float:
    """Gaussian-mechanism noise multiplier C(eps, delta) for unit sensitivity;
    a budget whose C^2 overflows float64 (eps < ~1e-153, delta < ~4.4e-309) is refused."""
    if not epsilon > 0:  # also refuses nan
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    epsilon, delta = float(epsilon), float(delta)  # an overflow is inf, with no numpy warning
    c = (2.0 / epsilon) * math.sqrt(4.0 / 9.0 + math.log(math.sqrt(2.0 / math.pi) / delta))
    if c * c == math.inf:
        raise ValueError(f"C(eps, delta)^2 overflows float64 at epsilon={epsilon}, delta={delta}")
    return c


@dataclass(frozen=True)
class PrivacyBudget:
    """(eps, delta) privacy budget with its derived Gaussian noise multiplier.

    The multiplier is computed once, at construction, by ``noise_multiplier``,
    which refuses a bad budget: every eps > 0 and delta in (0, 1) whose C^2
    is finite is accepted.  The paper states its error guarantees for
    0 < eps <= 1; larger values are exploratory.  ``epsilon=math.inf``
    gives multiplier 0: no noise at all.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        self.noise_multiplier  # validates the budget and caches C

    @cached_property
    def noise_multiplier(self) -> float:
        return noise_multiplier(self.epsilon, self.delta)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _check_bits(bits) -> np.ndarray:
    x = np.asarray(bits)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"stream must be a non-empty 1-D array, got shape {x.shape}")
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("stream elements must be bits")
    return x


# numpy's SeedSequence hashes with hashmix(v): v ^= h; h *= mult; v *= h;
# v ^= v >> 16, in uint32.  The hash constants h do not depend on the data,
# so call k xors c_k = init * mult^k and multiplies by c_(k+1).
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = 0, ..., count, as uint32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult % 2**32)
    return np.array(out, dtype=np.uint32)


# mix_entropy hashes the 4 pool words (calls 0-3), then mixes each hashed
# word src into every other word dst in order, 3 calls per src (calls 4-15):
# _CROSS[src, dst] is the call of that pair (a placeholder where dst = src)
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_CROSS = np.array([[4 + 3 * src + max(dst - (dst >= src), 0) for dst in range(4)] for src in range(4)])
_CROSS_XOR, _CROSS_MUL = _HASH_A[_CROSS], _HASH_A[_CROSS + 1]
# generate_state(4, uint64) hashes the pool, cycled to 8 words
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# 0-d arrays: numpy applies them faster than scalars of the same dtype
_MIX_L, _MIX_R, _U32_16 = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
# Row states ``_normals`` builds per ``_pcg64_states`` call: about 0.9 MB of
# state dicts, and the call's fixed 60-100 us is under 0.1 us a row.
_STATE_ROWS = 1024
# PCG64's 128-bit LCG multiplier
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**128 - 1


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> _U32_16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _U32_16)


def _pcg64_states(first: int, count: int) -> list[dict]:
    """``PCG64(s).state`` for s = first, ..., first + count - 1, all in
    [0, 2^32), computed for all seeds at once.

    Such a seed is one entropy word, and numpy's ``SeedSequence`` hashes
    the three missing words of its pool as zeros, then hashes the pool into
    four 64-bit words.  PCG64 takes initstate s0 and initseq s1 from them,
    high word first, and sets inc = 2 s1 + 1 and state = (inc + s0) M + inc,
    mod 2^128, here in Python ints."""
    if count < 1:
        return []
    if first < 0 or first + count > 2**32:
        raise ValueError(f"bulk seeding takes seeds in [0, 2^32), got [{first}, {first + count})")
    entropy = np.zeros((count, 4), dtype=np.uint32)
    entropy[:, 0] = np.arange(first, first + count, dtype=np.uint32)
    pool = _hashmix(entropy, _HASH_A[:4], _HASH_A[1:5])
    for src in range(4):
        # column src is mixed too, with placeholder constants, and put back
        mixed = _mix(pool, _hashmix(pool[:, src, None], _CROSS_XOR[src], _CROSS_MUL[src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    words = _hashmix(np.concatenate((pool, pool), axis=1), _HASH_B[:-1], _HASH_B[1:])
    # numpy reads the 8 hashed words as 4 little-endian uint64 words
    words = words.astype("<u4", copy=False).view("<u8")
    return [
        {
            "bit_generator": "PCG64",
            "state": {"state": ((inc + (s0_hi << 64 | s0_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for s0_hi, s0_lo, s1_hi, s1_lo in words.tolist()
        for inc in ((s1_hi << 65 | s1_lo << 1 | 1) & _MASK128,)
    ]


def _normals(seed: int, rows: int, width: int) -> np.ndarray:
    """(rows, width) standard normals; row i is ``standard_normal(width)``
    from ``PCG64(seed + i)``, byte for byte.  When every seed is below
    2^32, one generator draws every row: it is built from ``seed`` and then
    set to each later row's state from ``_pcg64_states``, which builds
    ``_STATE_ROWS`` states at a time, so a narrow block holds no state dict
    per row.  Any other block builds a generator per row.  Callers pass
    ``seed`` through ``_check_int``."""
    z = np.empty((rows, width))
    rng = _generator(seed)  # also refuses a negative seed
    bulk = seed + rows <= 2**32
    states = (
        state
        for first in range(seed + 1, seed + rows, _STATE_ROWS)
        for state in _pcg64_states(first, min(_STATE_ROWS, seed + rows - first))
    )
    for i, row in enumerate(z):
        if i and bulk:
            rng.bit_generator.state = next(states)
        elif i:
            rng = _generator(seed + i)
        rng.standard_normal(out=row)
    return z


def _sqrt_noise(g: np.ndarray, multiplier: float) -> np.ndarray:
    """Square-root factorization noise, in place: each row of the (b, n)
    normals ``g`` becomes L g_row, then all are scaled by
    ``multiplier * ||R||_{1->2}``.  Returns ``g``.  The scale is taken
    first, so the coefficients go to ``toeplitz_lower_matvec`` as their
    only reference and are freed once their spectrum exists (CPython 3.11
    on moves call arguments into the callee)."""
    held = [sqrt_coefficients(g.shape[-1])]  # popped into the call: no local name keeps them
    scale = multiplier * _sqrt_sensitivity(held[0])
    toeplitz_lower_matvec(held.pop(), g, out=g)
    g *= scale
    return g


def _sqrt_sensitivity(coeffs: np.ndarray) -> float:
    """||R||_{1->2} of the square-root factor with coefficients ``coeffs``: its last row's norm."""
    return math.sqrt(float(np.sum(coeffs**2)))


def _sqrt_expected_mse(n: int, budget: PrivacyBudget) -> float:  # C^2 ||R||_{1->2}^2 ||L||_F^2 / n
    coeffs = sqrt_coefficients(n)
    c, s = budget.noise_multiplier, _sqrt_sensitivity(coeffs)
    return c * c * s * s * factorization.factor_frobenius_sq(coeffs) / n


def _tree_sensitivity(n: int) -> float:
    """||R||_{1->2} of the binary strategy matrix R over n rounds: every
    leaf of the tree of n' = ``_next_pow2(n)`` leaves has 1 + log2(n')
    nodes above it and itself, so each column has that many ones."""
    return math.sqrt(_next_pow2(n).bit_length())


def _honaker_noise(z: np.ndarray, multiplier: float, n: int) -> np.ndarray:
    """Honaker noise sigma M G^-1 R^T z_row for each row of the (b, 2n' - 1)
    normals ``z``, with R the binary strategy matrix, G = R^T R, M the
    counting matrix and sigma = multiplier * ``_tree_sensitivity(n)``, as in
    ``_binary_noise``.  Returns a (b, n) array.  No matrix is formed:
    O(n log n) time and O(n) memory per row.

    R^T z adds to each leaf the values of its ancestors.  Post-order lists
    a tree as its left subtree, its right subtree, then its root, so the
    roots at depth d are one strided view of ``z``: one size-2 axis per
    depth, whose stride is the size of a subtree at that depth (a right
    child lies one left subtree after its sibling).  Their sums w are
    written top down into the first leaf of each subtree of the result: a
    right child's first leaf gets its parent's w plus its root, then a left
    child's, which holds its parent's, adds its root.  That is the sum
    w + root of each depth in turn, as in a level-by-level copy of the
    tree, with no copy.  The result, reshaped to match, has d + 2 axes at
    depth d, so numpy's limit of 64 axes bounds n' by 2^62.  A draw handed
    over as the only reference (``release``) is freed before the solve.

    G^-1 is applied bottom-up: on the leaves of a node of size 2^k, the
    Gram matrix of the node's subtree is 11^T + blockdiag(children), so the
    children's solution w and u = blockdiag(children)^-1 1 give the node's
    by Sherman-Morrison, w -= u (1^T w) / (1 + 1^T u) and u /= 1 + 1^T u.
    On a full node u is the constant 1 / (2^(k+1) - 1), so a level of full
    nodes is one row sum; only the last, ragged node keeps a vector u.
    Every sum runs over the last, contiguous axis, so a row's result does
    not depend on the rows beside it.
    """
    rows = z.shape[0]
    full = _next_pow2(n)
    levels = full.bit_length()
    w = np.empty((rows, full))
    w[:, 0] = z[:, -1]  # the root, on the first leaf
    strides = (z.strides[0],)
    for d in range(1, levels):
        span = full >> d  # leaves under a node at depth d
        strides += ((2 * span - 1) * z.strides[1],)  # nodes in its subtree
        roots = np.lib.stride_tricks.as_strided(z[:, 2 * span - 2 :], (rows,) + (2,) * d, strides)
        firsts = w.reshape((rows,) + (2,) * d + (span,))[..., 0]
        np.add(firsts[..., 0], roots[..., 1], out=firsts[..., 1])
        firsts[..., 0] += roots[..., 0]
    z = roots = None  # frees a draw handed over as the only reference before the solve
    w = w[:, :n].copy()  # leaves past n are not columns of R; the n' sums are freed
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
    w *= multiplier * _tree_sensitivity(n)
    return w


def _binary_noise(z: np.ndarray, multiplier: float, n: int) -> np.ndarray:
    """Binary-mechanism noise over n rounds for each row of the
    (b, 2n' - 1) normals ``z``, which are scaled in place to the node noise.
    Returns a (b, n) view of a (b, n + 1) array.

    Round t adds the noise of the popcount(t) nodes covering [1, t], largest
    block first.  Its last block has size lowbit(t), and the others cover
    [1, t - lowbit(t)], a round with a larger lowest set bit, so levels are
    filled from the top down by out[t] = out[t - lowbit(t)] + node noise.
    Level k writes the rounds 2^k, 3 2^k, ... from the ones 2^k before
    them, both strided views of ``out``, in runs of ``_TREE_RUN`` rounds:
    a run's node indices and gathered node noise are the only temporaries.
    O(n) vectorised work per row.
    """
    z *= multiplier * _tree_sensitivity(n)
    out = np.zeros((z.shape[0], n + 1))  # round t in column t; column 0 is the empty prefix
    for k in reversed(range(_next_pow2(n).bit_length())):
        size, step = 1 << k, 2 << k
        for first in range(size, n + 1, step * _TREE_RUN):
            stop = min(first + step * _TREE_RUN, n + 1)
            nodes = _postorder_nodes(np.arange(first, stop, step), k)
            np.add(out[:, first - size : stop - size : step], z[:, nodes], out=out[:, first:stop:step])
    return out[:, 1:]


def _honaker_expected_mse(n: int, budget: PrivacyBudget) -> float:
    raise ValueError(f"Honaker's mechanism has no closed-form expected MSE (n={n}); estimate it by monte_carlo_mse")


class _Mechanism(NamedTuple):
    """A mechanism kind: ``noise`` overwrites its normals; ``expected_mse`` refuses an n with no closed form."""

    draw_width: Callable[[int], int]
    noise: Callable[[np.ndarray, float, int], np.ndarray]
    sensitivity: Callable[[int], float]
    expected_mse: Callable[[int, PrivacyBudget], float]


_MECHANISMS = {
    "factorization": _Mechanism(
        lambda n: n,
        lambda z, c, n: _sqrt_noise(z, c),
        lambda n: _sqrt_sensitivity(sqrt_coefficients(n)),
        _sqrt_expected_mse,
    ),
    "binary": _Mechanism(
        lambda n: 2 * _next_pow2(n) - 1,
        _binary_noise,
        _tree_sensitivity,
        lambda n, budget: workload.binary_expected_err(n, budget),  # looked up at each call: it may be patched
    ),
}
# the binary tree's draw and strategy matrix R, with Honaker's estimator as noise
_MECHANISMS["honaker"] = _MECHANISMS["binary"]._replace(noise=_honaker_noise, expected_mse=_honaker_expected_mse)
MECHANISM_KINDS = tuple(_MECHANISMS)


def _mechanism(kind: str) -> _Mechanism:
    """The record of ``kind`` in ``_MECHANISMS``."""
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
        self.n = _check_int("horizon", n, 1)
        self.budget = budget
        self.seed = _check_int("seed", seed)
        self.t = 0
        self.running_sum = 0
        sqrt = _MECHANISMS["factorization"]
        self.noise = sqrt.noise(_normals(self.seed, 1, sqrt.draw_width(self.n)), budget.noise_multiplier, self.n)[0]

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
    z = _normals(_check_int("seed", seed), 1, fact.right.shape[0])
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fact.n,):
        raise ValueError(f"stream length {x.shape} does not match factorization size {fact.n}")
    z *= budget.noise_multiplier * fact.sensitivity
    z += fact.right @ x
    return fact.left @ z[0]


def _release_with_prefix(kind: str, bits, budget: PrivacyBudget, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(prefix, noisy): the int64 prefix sums of ``bits`` and the noisy
    counts ``release`` returns, which are their sum with the noise.  The
    prefix sums are taken once the noise is built, in int64 whatever the
    dtype of ``bits``."""
    mech = _mechanism(kind)
    x = _check_bits(bits)
    n = x.shape[0]
    out = mech.noise(_normals(_check_int("seed", seed), 1, mech.draw_width(n)), budget.noise_multiplier, n)[0]
    prefix = np.cumsum(x, dtype=np.int64)
    out += prefix
    return prefix, out


def release(kind: str, bits, budget: PrivacyBudget, seed: int) -> np.ndarray:
    """Noisy prefix counts of a non-empty 1-D bit stream under mechanism ``kind``:
    ``cumsum(bits)`` plus the kind's noise from ``_MECHANISMS`` on one row
    of normals from ``PCG64(seed)``, added once the noise is built.
    ``"factorization"`` is byte for byte what ``StreamingCounter.step``
    returns; ``"honaker"`` forms no dense matrix and has no limit on n.
    The dense matrix mechanism is ``matrix_mechanism_run``.
    """
    return _release_with_prefix(kind, bits, budget, seed)[1]


def monte_carlo_mse(
    kind: str,
    n: int,
    trials: int,
    budget: PrivacyBudget,
    seed: int,
    fact: Factorization | None = None,
) -> tuple[float, float]:
    """Empirical mean-squared error of a counting mechanism and its standard error.

    A release's error is its noise, whatever the input, so each trial is
    the kind's noise alone.  Trial i draws the normals ``release`` draws
    from seed + i; the trials are mapped to noise in blocks of at most
    ``_BLOCK_VALUES`` normals, by the function ``release`` runs, so each
    trial's error is byte for byte that of ``release(kind, zeros, budget,
    seed + i)``.  ``fact`` is accepted only with ``"honaker"``: the trials
    then take the dense noise L z, byte for byte the error of
    ``matrix_mechanism_run(fact, zeros, budget, seed + i)``.
    """
    n = _check_int("horizon", n, 1)
    trials = _check_int("trials", trials, 1)
    seed = _check_int("seed", seed)
    mech = _mechanism(kind)
    if fact is not None:
        if kind != "honaker":
            raise ValueError(f"an explicit factorization is only used by 'honaker', not {kind!r}")
        if fact.n != n:
            raise ValueError(f"horizon {n} does not match factorization size {fact.n}")
        # the dense matrix mechanism: L z_row, one matrix-vector product per row
        mech = _Mechanism(
            lambda n: fact.right.shape[0],
            lambda z, c, n: np.matmul(fact.left, np.multiply(z, c * fact.sensitivity, out=z)[..., None])[..., 0],
            lambda n: fact.sensitivity,
            lambda n, budget: factorization.expected_mse(fact, budget),
        )
    width = mech.draw_width(n)
    rows = max(1, _BLOCK_VALUES // width)

    per_trial = np.empty(trials)
    for start in range(0, trials, rows):
        z = _normals(seed + start, min(rows, trials - start), width)
        block = mech.noise(z, budget.noise_multiplier, n)
        # a row-wise mean: each trial's pairwise sum runs over its own row
        per_trial[start : start + len(z)] = np.mean(block**2, axis=1)

    estimate = float(np.mean(per_trial))
    if trials == 1:
        return estimate, 0.0
    return estimate, float(np.std(per_trial, ddof=1) / math.sqrt(trials))
