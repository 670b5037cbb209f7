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
row ``release`` would draw from ``seed + i``, so each trial equals its own
``release``.  Seeds are integers (``workload._check_int``), and
``seed + i`` is taken in Python ints, so it never wraps.  A block's row
states are computed together (``_pcg64_states``, numpy's seeding in
vectorised uint32 and uint64 arithmetic) and one generator is set to each
in turn; every row equals ``PCG64(seed + i)``'s byte for byte, and
``test_pcg64_states_equal_numpy_seeding`` fails if a numpy release seeds
PCG64 differently.  The trials are mapped in blocks of at most
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
from functools import cached_property, partial

import numpy as np

from .factorization import (
    Factorization,
    _dyadic_blocks,
    _next_pow2,
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
_MASK32 = 2**32 - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = 0, ..., count, as uint32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# mix_entropy hashes the 4 pool words (calls 0-3), then mixes each hashed
# word src into every other word dst in order, 3 calls per src (calls 4-15):
# _CROSS[src, dst] is the call of that pair (a placeholder where dst = src)
_HASH_A = _hash_constants(_HASH_INIT_A, _HASH_MULT_A, 16)
_CROSS = np.array([[4 + 3 * src + max(dst - (dst >= src), 0) for dst in range(4)] for src in range(4)])
_CROSS_XOR, _CROSS_MUL = _HASH_A[_CROSS], _HASH_A[_CROSS + 1]
# generate_state(4, uint64) hashes the pool, cycled to 8 words
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# 0-d arrays: numpy applies them faster than scalars of the same dtype
_MIX_L, _MIX_R, _U32_16 = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
_U64_1, _U64_32, _U64_63, _U64_LOW = (np.array(c, dtype=np.uint64) for c in (1, 32, 63, _MASK32))
# PCG64's 128-bit LCG multiplier M: its high and low words, and the low
# word's 32-bit halves
_PCG_HI, _PCG_LO = (np.array(c, dtype=np.uint64) for c in (2549297995355413924, 4865540595714422341))
_PCG_LO_HI, _PCG_LO_LO = _PCG_LO >> _U64_32, _PCG_LO & _U64_LOW


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> _U32_16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _U32_16)


def _seed_pools(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).pool`` for each row of the (g, w) uint32
    entropy words of the seeds, w >= 4, as numpy's ``mix_entropy`` builds
    it.  That hashes a missing word as it hashes a 0, so seeds of up to 4
    words, all those below 2^128, share one zero-padded pass."""
    pool = _hashmix(entropy[:, :4], _HASH_A[:4], _HASH_A[1:5])
    for src in range(4):
        # column src is mixed too, with placeholder constants, and put back
        mixed = _mix(pool, _hashmix(pool[:, src, None], _CROSS_XOR[src], _CROSS_MUL[src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # each word past the fourth is then mixed into every pool word
    extra = entropy.shape[1] - 4
    if extra:
        c = _hash_constants(int(_HASH_A[-1]), _HASH_MULT_A, 4 * extra)
        for k in range(extra):
            hashed = _hashmix(entropy[:, 4 + k, None], c[4 * k : 4 * k + 4], c[4 * k + 1 : 4 * k + 5])
            pool = _mix(pool, hashed)
    return pool


def _mul_hi64(x: np.ndarray, y_hi: np.ndarray, y_lo: np.ndarray) -> np.ndarray:
    """The high 64 bits of x * y, for uint64 x and y = y_hi 2^32 + y_lo."""
    x_hi, x_lo = x >> _U64_32, x & _U64_LOW
    lo_lo, lo_hi, hi_lo = x_lo * y_lo, x_lo * y_hi, x_hi * y_lo
    mid = (lo_lo >> _U64_32) + (lo_hi & _U64_LOW) + (hi_lo & _U64_LOW)
    return x_hi * y_hi + (lo_hi >> _U64_32) + (hi_lo >> _U64_32) + (mid >> _U64_32)


def _pcg64_states(first: int, count: int) -> list[dict]:
    """``PCG64(s).state`` for s = first, ..., first + count - 1, computed
    for all seeds at once.

    A seed's entropy is its 32-bit words, low first, which go through
    numpy's ``SeedSequence`` (``_seed_pools``, then ``generate_state(4,
    uint64)``); PCG64 then takes initstate s0 and initseq s1 from the four
    64-bit words, high word first, and sets inc = 2 s1 + 1 and state =
    (inc + s0) M + inc, mod 2^128, here in pairs of uint64 words.  The
    seeds' words above the lowest are those of first >> 32, or of one more
    past a multiple of 2^32, so the rows form at most two groups, each with
    its own word count.
    """
    if count < 1:
        return []
    start = first & _MASK32
    low = np.arange(start, start + count, dtype=np.uint64)
    carry_at = min(count, 2**32 - start)
    words = []
    for rows, high in ((low[:carry_at], first >> 32), (low[carry_at:], (first >> 32) + 1)):
        if not rows.size:
            continue
        high_words = []
        while high:
            high_words.append(high & _MASK32)
            high >>= 32
        entropy = np.zeros((rows.size, max(4, 1 + len(high_words))), dtype=np.uint32)
        entropy[:, 0] = rows  # mod 2^32
        entropy[:, 1 : 1 + len(high_words)] = high_words
        pool = _seed_pools(entropy)
        words.append(_hashmix(np.concatenate((pool, pool), axis=1), _HASH_B[:-1], _HASH_B[1:]))
    w = np.concatenate(words).astype(np.uint64)
    s0_hi, s0_lo, s1_hi, s1_lo = (w[:, 1::2] << _U64_32 | w[:, 0::2]).T
    inc_hi = s1_hi << _U64_1 | s1_lo >> _U64_63
    inc_lo = s1_lo << _U64_1 | _U64_1
    a_lo = inc_lo + s0_lo
    a_hi = inc_hi + s0_hi + (a_lo < inc_lo)
    state_lo = a_lo * _PCG_LO + inc_lo
    state_hi = (
        _mul_hi64(a_lo, _PCG_LO_HI, _PCG_LO_LO) + a_lo * _PCG_HI + a_hi * _PCG_LO
        + inc_hi + (state_lo < inc_lo)
    )
    return [
        {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for s_hi, s_lo, i_hi, i_lo in zip(
            state_hi.tolist(), state_lo.tolist(), inc_hi.tolist(), inc_lo.tolist()
        )
    ]


def _normals(seed: int, rows: int, width: int) -> np.ndarray:
    """(rows, width) standard normals; row i is ``standard_normal(width)``
    from ``PCG64(seed + i)``, byte for byte.  One generator draws every
    row: it is built from ``seed`` and then set to each later row's state
    from ``_pcg64_states``.  Callers pass ``seed`` through ``_check_int``."""
    z = np.empty((rows, width))
    rng = _generator(seed)
    states = _pcg64_states(seed + 1, rows - 1)
    for i, row in enumerate(z):
        if i:
            rng.bit_generator.state = states[i - 1]
        rng.standard_normal(out=row)
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
        self.n = _check_int("horizon", n, 1)
        self.budget = budget
        self.seed = _check_int("seed", seed)
        self.t = 0
        self.running_sum = 0
        self.noise = _sqrt_noise(_normals(self.seed, 1, self.n), budget.noise_multiplier)[0]

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
    z = _normals(_check_int("seed", seed), 1, draw_width(x.shape[0]))
    return counts(x, z, budget.noise_multiplier)[0]


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
    n = _check_int("horizon", n, 1)
    trials = _check_int("trials", trials, 1)
    seed = _check_int("seed", seed)
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
