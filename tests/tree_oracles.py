"""Tree oracles: the reference the vectorised tree indexing of
``contcount.factorization`` and ``contcount.mechanism`` is checked against.
The loops follow the definitions round by round; ``binary_noise_by_tiles``
builds the binary mechanism's noise level by level in O(n log n), without
the lowest-set-bit recursion, and is fast enough for n near 10^6.
"""

import math

import numpy as np

from contcount.factorization import _dyadic_blocks, _next_pow2


def dyadic_decomposition(t: int) -> list[tuple[int, int]]:
    """Decompose [1, t] into maximal dyadic blocks, left to right.

    Each block (a, b) is aligned (a = j*2^k + 1, b = (j+1)*2^k) so it is a
    node of the complete binary tree; there are popcount(t) blocks.
    """
    t = int(t)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    blocks = []
    start = 1
    remaining = t
    for bit in reversed(range(t.bit_length())):
        size = 1 << bit
        if remaining >= size:
            blocks.append((start, start + size - 1))
            start += size
            remaining -= size
    return blocks


def postorder_index(a: int, b: int, n: int) -> int:
    """Post-order index (0-based) of the tree node covering [a, b].

    The tree is the complete binary tree over leaves 1..n (n a power of
    two); nodes are numbered left subtree, right subtree, then root, which
    matches the recursive construction of the binary right factor.
    """
    if n & (n - 1) or n < 1:
        raise ValueError(f"tree size must be a power of two, got {n}")
    lo, hi, offset = 1, n, 0
    while True:
        if (a, b) == (lo, hi):
            return offset + 2 * (hi - lo + 1) - 2
        mid = (lo + hi) // 2
        if b <= mid:
            hi = mid
        elif a > mid:
            offset += 2 * (mid - lo + 1) - 1
            lo = mid + 1
        else:
            raise ValueError(f"[{a}, {b}] is not a node of the tree over [1, {n}]")


def binary_noise_by_tiles(z: np.ndarray, multiplier: float, n: int) -> np.ndarray:
    """Binary-mechanism noise over n rounds for each row of the (b, 2n' - 1)
    normals ``z``, built one tree level at a time.

    Each round adds its node noise largest block first, as the mechanism
    does.  At level k each run of 2^k rounds with bit k set adds one node's
    noise, through a strided view of the output: the run starting at s lies
    in the tile of columns [s - 2^k, s + 2^k), and a last run whose tile
    passes n is a slice.  O(n log n) work per row; ``z`` is left unchanged.
    """
    z = z * (multiplier * math.sqrt(1.0 + math.log2(_next_pow2(n))))
    rows = z.shape[0]
    out = np.zeros((rows, n))  # round t in column t - 1
    for k, starts, nodes in _dyadic_blocks(n):
        size = 1 << k
        noisy = z[:, nodes]
        whole = n // (2 * size)  # runs whose tile fits in the n columns; at most one run is left
        tiles = out[:, : whole * 2 * size].reshape(rows, whole, 2 * size)
        tiles[:, :, size - 1 : 2 * size - 1] += noisy[:, :whole, None]
        if whole < len(starts):
            out[:, starts[whole] - 1 :] += noisy[:, whole:]
    return out
