"""Loop-based tree oracles: the reference the vectorised tree indexing of
``contcount.factorization`` and ``contcount.mechanism`` is checked against.
"""


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
