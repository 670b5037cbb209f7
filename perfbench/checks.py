"""Output checks, recomputed with numpy alone from the README's seed contract.

Every mechanism draws its noise from ``Generator(PCG64(seed))`` with
``standard_normal``.  These checks redraw that noise, rebuild the
factorizations independently of ``contcount`` and compare.  Each check
returns a list of failure messages; an empty list means the output passed.
They run in the runner process, outside the timed region and outside the
measured process.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Allowed gap between released and recomputed noise, per unit of the round's noise std.
NOISE_RTOL = 1e-9
# Monte-Carlo estimates must lie within this many standard errors of their closed form.
MC_Z = 4.0


def noise_multiplier(eps: float, delta: float) -> float:
    return (2.0 / eps) * math.sqrt(4.0 / 9.0 + math.log(math.sqrt(2.0 / math.pi) / delta))


def normals(seed: int, size: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(int(seed))).standard_normal(size)


def sqrt_coeffs(n: int) -> np.ndarray:
    k = np.arange(1, n, dtype=np.float64)
    return np.cumprod(np.concatenate([[1.0], 1.0 - 0.5 / k]))


def sqrt_noise(n: int, seed: int, c: float):
    """Released noise and per-round std of the square-root mechanism: FFT of f against scaled normals."""
    f = sqrt_coeffs(n)
    scale = c * math.sqrt(float(np.sum(f * f)))
    g = normals(seed, n) * scale
    size = 2 * n
    noise = np.fft.irfft(np.fft.rfft(f, size) * np.fft.rfft(g, size), size)[:n]
    return noise, scale * np.sqrt(np.cumsum(f * f))


def _full(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def postorder(ends: np.ndarray, level: int) -> np.ndarray:
    """0-based post-order index of the tree nodes of size 2^level ending at leaves ``ends``.

    The nodes completed by leaf b are the dyadic blocks inside [1, b]; there
    are sum_k floor(b / 2^k) = 2b - popcount(b) of them.  The nodes ending
    at b come last, smallest first, the largest having size 2^v with 2^v
    the lowest set bit of b.
    """
    lowest = np.log2(ends & -ends).astype(np.int64)
    return 2 * ends - np.bitwise_count(ends).astype(np.int64) - 1 - (lowest - level)


def binary_noise(n: int, seed: int, c: float):
    """Released noise and per-round std of the binary mechanism: dyadic sums of post-order node noise."""
    full = _full(n)
    sigma = c * math.sqrt(1.0 + math.log2(full))
    y = normals(seed, 2 * full - 1) * sigma
    t = np.arange(1, n + 1, dtype=np.int64)
    noise = np.zeros(n)
    for k in range(full.bit_length()):
        covered = ((t >> k) & 1).astype(bool)
        ends = (t >> k) << k  # block of size 2^k ending here, for each set bit k of t
        noise[covered] += y[postorder(ends[covered], k)]
    return noise, sigma * np.sqrt(np.bitwise_count(t).astype(np.float64))


def binary_strategy(n: int) -> np.ndarray:
    """The (2n'-1) x n p-sum strategy matrix, rows in post-order (n' the next power of two)."""
    full = _full(n)
    r = np.zeros((2 * full - 1, n))
    for k in range(full.bit_length()):
        size = 1 << k
        ends = np.arange(size, full + 1, size, dtype=np.int64)
        for row, end in zip(postorder(ends, k), ends):
            r[row, end - size : min(end, n)] = 1.0
    return r


class Honaker:
    """Honaker's left factor M pinv(R), from numpy's pinv of the binary strategy matrix."""

    def __init__(self, n: int):
        self.n = n
        r = binary_strategy(n)
        self.col_norm = float(np.sqrt(np.max(np.sum(r * r, axis=0))))
        self.left = np.cumsum(np.linalg.pinv(r), axis=0)
        self.row_norms = np.sqrt(np.sum(self.left * self.left, axis=1))

    def noise(self, seed: int, c: float):
        z = normals(seed, self.left.shape[1]) * (c * self.col_norm)
        return self.left @ z, c * self.col_norm * self.row_norms

    def expected_mse(self, c: float) -> float:
        return c * c * self.col_norm**2 * float(np.sum(self.row_norms**2)) / self.n


class Cache:
    """Per-run cache of the expensive reference objects (Honaker pinv)."""

    def __init__(self):
        self._honaker: dict[int, Honaker] = {}

    def honaker(self, n: int) -> Honaker:
        if n not in self._honaker:
            self._honaker[n] = Honaker(n)
        return self._honaker[n]


def reference_noise(mechanism: str, n: int, seed: int, c: float, cache: Cache):
    if mechanism == "factorization":
        return sqrt_noise(n, seed, c)
    if mechanism == "binary":
        return binary_noise(n, seed, c)
    return cache.honaker(n).noise(seed, c)


def _noise_failures(label: str, noise: np.ndarray, ref: np.ndarray, std: np.ndarray) -> list[str]:
    gap = np.abs(noise - ref) / std
    worst = int(np.argmax(gap))
    if not np.all(gap <= NOISE_RTOL):
        return [f"{label}: noise differs from the recomputation at round {worst + 1} "
                f"by {gap[worst]:.3g} std (allowed {NOISE_RTOL:g})"]
    return []


def read_count_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != "t,true_count,noisy_count":
        raise ValueError(f"unexpected header {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_count(path, bits: np.ndarray, op: dict, c: float, cache: Cache) -> list[str]:
    """true_count is the exact prefix sum; noisy - true is the mechanism's seeded noise."""
    n = op["n"]
    try:
        rows = read_count_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{op['name']}: unreadable output: {exc}"]
    if rows.shape != (n, 3):
        return [f"{op['name']}: expected {n} rows of 3 fields, got shape {rows.shape}"]
    fails = []
    if not np.array_equal(rows[:, 0], np.arange(1, n + 1)):
        fails.append(f"{op['name']}: round column is not 1..{n}")
    true = np.cumsum(bits[:n], dtype=np.int64)
    if not np.array_equal(rows[:, 1], true):
        fails.append(f"{op['name']}: true_count differs from cumsum(bits)")
    ref, std = reference_noise(op["mechanism"], n, op["seed"], c, cache)
    fails += _noise_failures(op["name"], rows[:, 2] - true, ref, std)
    return fails


def check_online(path, bits: np.ndarray, op: dict, c: float, count_path=None) -> list[str]:
    """Online outputs carry the square-root noise and equal the count op's outputs."""
    n = op["n"]
    try:
        values = np.load(path)
    except (OSError, ValueError) as exc:
        return [f"{op['name']}: unreadable output: {exc}"]
    if values.shape != (n,):
        return [f"{op['name']}: expected {n} outputs, got shape {values.shape}"]
    true = np.cumsum(bits[:n], dtype=np.int64)
    ref, std = sqrt_noise(n, op["seed"], c)
    fails = _noise_failures(op["name"], values - true, ref, std)
    if count_path is not None:
        try:
            noisy = read_count_csv(count_path)[:, 2]
        except (OSError, ValueError) as exc:
            return fails + [f"{op['name']}: no count output to agree with: {exc}"]
        if not np.array_equal(noisy, values):
            fails.append(f"{op['name']}: step() outputs differ from `count` outputs for the same seed and bits")
    return fails


def mc_closed_form(op: dict, c: float, cache: Cache) -> float:
    n = op["n"]
    if op["mechanism"] == "factorization":
        f = sqrt_coeffs(n)
        f2 = f * f
        return c * c * float(np.sum(f2)) * float(np.sum(np.arange(n, 0, -1) * f2)) / n
    if op["mechanism"] == "binary":
        m = math.log2(n)
        return c * c * (1.0 + m) * (n * m / 2.0 + 1.0) / n
    return cache.honaker(n).expected_mse(c)


def check_mc(path, op: dict, c: float, cache: Cache) -> list[str]:
    """The Monte-Carlo estimate lies within MC_Z standard errors of its closed form."""
    try:
        data = json.loads(open(path, encoding="utf-8").read())
        estimate, stderr = float(data["estimate"]), float(data["stderr"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"{op['name']}: unreadable output: {exc}"]
    expected = mc_closed_form(op, c, cache)
    if not (math.isfinite(estimate) and stderr > 0):
        return [f"{op['name']}: estimate {estimate} with standard error {stderr}"]
    z = (estimate - expected) / stderr
    if abs(z) > MC_Z:
        return [f"{op['name']}: estimate {estimate:.6g} is {z:.2f} standard errors from {expected:.6g}"]
    return []


def _read_csv(path, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_ftrl(path, op: dict, eps: float, delta: float) -> list[str]:
    """Rows finite, one per seed; bound equals the closed-form regret bound.  Regret is not gated."""
    try:
        rows = _read_csv(path, "seed,regret,bound")
    except (OSError, ValueError) as exc:
        return [f"{op['name']}: unreadable output: {exc}"]
    n, d, c = op["n"], op["d"], noise_multiplier(eps, delta)
    bound = math.sqrt((1.0 + math.log(4.0 * n / 5.0) / math.pi) * (1.0 + c * math.sqrt(d)) / (2.0 * n))
    seeds = [str(op["seed"] + i) for i in range(op["seeds"])]
    if [row[0] for row in rows] != seeds:
        return [f"{op['name']}: expected rows for seeds {seeds[0]}..{seeds[-1]}"]
    fails = []
    for row in rows:
        regret, row_bound = float(row[1]), float(row[2])
        if not (math.isfinite(regret) and math.isfinite(row_bound)):
            fails.append(f"{op['name']}: non-finite row {row}")
        elif not _close(row_bound, bound, 1e-12):
            fails.append(f"{op['name']}: bound {row_bound!r} differs from regret_bound {bound!r}")
    return fails


def check_certify(path, op: dict, matrix: np.ndarray) -> list[str]:
    """Certificate feasible, objective equal to the lower bound, lower <= upper = ||A||_F."""
    try:
        rows = _read_csv(path, "lower_bound,upper_bound,feasible,objective")
        (lower, upper, feasible, objective), = rows
        lower, upper, objective = float(lower), float(upper), float(objective)
    except (OSError, ValueError) as exc:
        return [f"{op['name']}: unreadable output: {exc}"]
    fails = []
    if feasible != "true":
        fails.append(f"{op['name']}: certificate reported infeasible")
    if not _close(objective, lower, 1e-9):
        fails.append(f"{op['name']}: objective {objective!r} differs from lower bound {lower!r}")
    if not lower <= upper:
        fails.append(f"{op['name']}: lower bound {lower!r} exceeds upper bound {upper!r}")
    if not _close(upper, float(np.linalg.norm(matrix)), 1e-12):
        fails.append(f"{op['name']}: upper bound {upper!r} is not ||A||_F")
    return fails


def check_compare(path, op: dict, eps: float, delta: float) -> list[str]:
    """Each octave's closed forms, recomputed from their formulas."""
    header = ("n,eps_fact,eps_bin,delta,err_fact_upper,err_lower_matrix_mech,"
              "err_binary_expected,ratio_binary_over_fact")
    try:
        rows = [[float(x) for x in row] for row in _read_csv(path, header)]
    except (OSError, ValueError) as exc:
        return [f"{op['name']}: unreadable output: {exc}"]
    octaves = op["n_max"].bit_length() - 1
    if [row[0] for row in rows] != [float(2**k) for k in range(1, octaves + 1)]:
        return [f"{op['name']}: expected rows for n = 2 .. 2^{octaves}"]
    c2 = noise_multiplier(eps, delta) ** 2
    fails = []
    for n, _, _, _, upper, lower, binary, ratio in rows:
        m = math.log2(n)
        want = (
            c2 * (1.0 + math.log(4.0 * n / 5.0) / math.pi) ** 2,
            c2 / math.pi**2 * (2.0 + math.log((2.0 * n + 1.0) / 5.0) + math.log(2.0 * n + 1.0) / (2.0 * n)) ** 2,
            c2 * (1.0 + m) * (n * m / 2.0 + 1.0) / n,
        )
        got = (upper, lower, binary)
        if not all(_close(g, w, 1e-12) for g, w in zip(got, want)) or not _close(ratio, binary / upper, 1e-12):
            fails.append(f"{op['name']}: closed forms at n={int(n)} differ from their formulas")
    return fails
