"""Dense real linear algebra primitives.

Norms, spectra, pseudoinverse, PSD checks and lower-triangular Toeplitz
products.  Everything here operates on plain 2-D float64 numpy arrays
("dense matrices"); the heavy decompositions delegate to numpy's LAPACK
bindings, which satisfy the tolerances documented on each function.  The
Toeplitz product uses ``numpy.fft``; the package needs nothing but numpy.

All functions are pure and safe for concurrent use, except that
``read_matrix_csv`` swaps the process's warning filters while it parses.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = [
    "as_matrix",
    "frobenius_norm",
    "col_norm_1to2",
    "row_norm_2toinf",
    "singular_values",
    "schatten1",
    "pseudoinverse",
    "min_eigenvalue_symmetric",
    "toeplitz_lower_matvec",
    "lower_toeplitz",
    "read_matrix_csv",
    "write_matrix_csv",
]

# Symmetry slack accepted by min_eigenvalue_symmetric (absolute, entrywise).
SYMMETRY_TOL = 1e-10

# A norm computed from unscaled squares is kept when it is finite and at
# least NORM_TINY: no square overflowed, and a square that underflowed
# (below 2^-1022) is under 2^-62 of the sum of squares.
NORM_TINY = 2.0**-480

# Singular values below PINV_RTOL * sigma_max are treated as zero.
PINV_RTOL = 1e-12

# Singular values at or below PINV_ATOL are treated as zero too: their
# reciprocals overflow float64.
PINV_ATOL = 1.0 / np.finfo(np.float64).max


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a 2-D float64 array and validate it.

    Rejects empty matrices and non-finite entries (NaN/Inf).
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must be non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _pow2_scaled_norm(a: np.ndarray, norm) -> float:
    """``norm`` of ``a``, safe at extreme magnitudes.

    ``norm(a)`` is returned when it is finite and at least NORM_TINY.
    Otherwise ``a`` is divided by the power of two 2^e just above max|a|
    and the result multiplied back.  Scaling by a power of two is exact,
    so the squares cannot overflow, and they underflow only where they are
    negligible against the largest one.  The result is inf only when the
    norm itself exceeds the float64 range.
    """
    with np.errstate(over="ignore"):
        unscaled = float(norm(a))
        if NORM_TINY <= unscaled < math.inf:
            return unscaled
        _, e = math.frexp(float(np.max(np.abs(a))))
        return float(np.ldexp(norm(np.ldexp(a, -e)), e))


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries; exact scaling keeps it
    finite and nonzero for tiny, subnormal and huge entries."""
    return _pow2_scaled_norm(as_matrix(a), np.linalg.norm)


def col_norm_1to2(a) -> float:
    """Maximum Euclidean norm over the columns (scaled like ``frobenius_norm``)."""
    return _pow2_scaled_norm(as_matrix(a), lambda s: np.sqrt(np.max(np.sum(s * s, axis=0))))


def row_norm_2toinf(a) -> float:
    """Maximum Euclidean norm over the rows (scaled like ``frobenius_norm``)."""
    return _pow2_scaled_norm(as_matrix(a), lambda s: np.sqrt(np.max(np.sum(s * s, axis=1))))


def singular_values(a) -> np.ndarray:
    """Full singular spectrum, descending, including zeros.

    Returns min(rows, cols) values.  Non-convergence of the underlying SVD
    surfaces as ``numpy.linalg.LinAlgError`` rather than garbage values.
    """
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def schatten1(a) -> float:
    """Sum of singular values (trace norm)."""
    return float(np.sum(singular_values(a)))


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``PINV_RTOL`` times the largest one are treated
    as zero, and so is every singular value at or below ``PINV_ATOL``
    (1 / float64 max), whose reciprocal would overflow to ``inf``.  The
    result is therefore always finite.  ``A @ pinv(A) @ A`` reproduces ``A``
    up to the dropped singular values (below 1e-12 * ||A||_2) plus float64
    rounding of order eps * ||A||_2^2 * ||pinv(A)||_2.
    """
    u, s, vt = np.linalg.svd(as_matrix(a), full_matrices=False)
    large = s > max(PINV_RTOL * s[0], PINV_ATOL)
    # same operations as np.linalg.pinv, so results match it bit for bit
    # wherever the relative cut alone decides
    s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    return vt.T @ (s_inv[:, None] * u.T)


def min_eigenvalue_symmetric(h) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    ``h`` must be square and symmetric to within ``SYMMETRY_TOL`` in every
    entry; anything less symmetric is rejected so that PSD verdicts are
    never computed from the wrong matrix.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    skew = np.max(np.abs(h - h.T))
    if skew > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max|H - H^T| = {skew:g}")
    sym = 0.5 * (h + h.T)
    return float(np.linalg.eigvalsh(sym)[0])


def toeplitz_lower_matvec(coeffs, x) -> np.ndarray:
    """Apply the lower-triangular Toeplitz matrix with first column ``coeffs``.

    y[t] = sum_{j <= t} coeffs[t - j] * x[j], i.e. the leading ``n`` entries
    of the convolution of ``coeffs`` with ``x``.  Direct convolution is used
    up to 4096 entries; beyond that a real FFT whose length is the smallest
    2^k, 3 * 2^(k-2) or 5 * 2^(k-3) that holds all 2n - 1 terms.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    v = np.asarray(x, dtype=np.float64)
    if c.ndim != 1 or v.ndim != 1:
        raise ValueError("coeffs and x must be 1-D")
    if c.shape[0] != v.shape[0]:
        raise ValueError(f"length mismatch: {c.shape[0]} coefficients vs {v.shape[0]} inputs")
    n = c.shape[0]
    if n == 0:
        raise ValueError("empty input")
    if n <= 4096:
        return np.convolve(c, v)[:n]
    p = 1 << (2 * n - 2).bit_length()
    size = min(s for s in (p, 3 * p // 4, 5 * p // 8) if s >= 2 * n - 1)
    spectrum = np.fft.rfft(c, size)
    spectrum *= np.fft.rfft(v, size)
    return np.fft.irfft(spectrum, size)[:n]


def lower_toeplitz(coeffs) -> np.ndarray:
    """Materialize the n x n lower-triangular Toeplitz matrix of the n ``coeffs``."""
    c = np.asarray(coeffs, dtype=np.float64)
    # entry (i, j) is vals[n - 1 + i - j]: c[i - j] on and below the diagonal, 0 above
    vals = np.concatenate((np.zeros(len(c) - 1), c))
    return np.lib.stride_tricks.sliding_window_view(vals, len(c))[:, ::-1].copy()


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix from CSV: one row per line, comma-separated floats, no header.

    The file is parsed in C by ``np.loadtxt``.  When that raises
    ``ValueError`` or finds no data, the file is read again by
    ``_read_matrix_csv_lines``, a line loop that also accepts what Python's
    ``float`` does (``1_0``, non-ASCII digits, whitespace-only lines) and
    is the only code that reports malformed input: ragged rows, non-numeric
    fields, an empty file.  NaN and infinite entries are refused either way.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                a = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError:
            a = None
    if a is None or a.size == 0:
        return _read_matrix_csv_lines(path)
    return as_matrix(a)


def _read_matrix_csv_lines(path) -> np.ndarray:
    """``read_matrix_csv`` one line at a time with Python's ``float``."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(field) for field in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from exc
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: ragged row of length {len(row)}, expected {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return as_matrix(rows)


def write_matrix_csv(path, a) -> None:
    """Write a matrix as CSV (no header), round-trip safe."""
    a = as_matrix(a)
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
