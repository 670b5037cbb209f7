"""Dense real linear algebra primitives.

Norms, spectra, pseudoinverse, PSD checks and lower-triangular Toeplitz
products.  Everything here operates on plain 2-D float64 numpy arrays
("dense matrices"); the heavy decompositions delegate to numpy's LAPACK
bindings, which satisfy the tolerances documented on each function.  The
Toeplitz product uses ``numpy.fft``; the package needs nothing but numpy.
A matrix is read from CSV by ``np.loadtxt`` and written by ``np.savetxt``.
``format_csv_rows`` formats the CLI's columns: it builds the bytes of
Python's ``%`` formatting in numpy, a chunk of rows as one uint8 matrix of
NUL-padded cell slots, written a uint32 or uint64 word at a time from
digit-group tables and compacted by one ``bytes.translate``.

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
    "format_csv_rows",
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

# Spectrum values in one batch of rows of a block (1 MB of complex128): a
# batch is one rfft, one multiply and one irfft call.
_FFT_BATCH_VALUES = 2**16


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a 2-D float64 array and validate it.

    Rejects complex input (numpy would drop the imaginary parts), empty
    matrices and non-finite entries (NaN/Inf).
    """
    a = np.asarray(values)
    if a.dtype.kind == "c":
        raise ValueError(f"expected a real matrix, got dtype {a.dtype}")
    a = np.asarray(a, dtype=np.float64)
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
    """Sum of singular values (trace norm); exact scaling keeps it finite
    and nonzero for tiny, subnormal and huge entries."""
    return _pow2_scaled_norm(as_matrix(a), lambda s: np.sum(singular_values(s)))


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


def toeplitz_lower_matvec(coeffs, x, out=None) -> np.ndarray:
    """Apply the lower-triangular Toeplitz matrix with first column ``coeffs``
    to ``x``, or to each row of a (b, n) block ``x``.

    y[t] = sum_{j <= t} coeffs[t - j] * x[j], i.e. the leading ``n`` entries
    of the convolution of ``coeffs`` with ``x``, by a real FFT at every n.
    Its length is the smallest 2^k, 3 * 2^(k-2) or 5 * 2^(k-3) that holds
    all 2n - 1 terms (1 at n = 1).  Non-finite ``coeffs`` or ``x`` are
    refused, since one inf entry would turn every output into NaN.  The
    coefficient spectrum is computed once per call.  A block's rows are
    transformed in batches of about ``_FFT_BATCH_VALUES`` spectrum values,
    one ``rfft`` and one ``irfft`` along the last axis each, which numpy
    computes row by row as it computes a 1-D transform; the row spectra are
    multiplied in place as coefficient spectrum times row spectrum (the
    product in the other order rounds differently), and a 1-D ``x`` is a
    block of one row: a row's result is the same in any block.  Once the
    spectrum exists the function holds no reference to ``coeffs``.
    That rests on how numpy implements multi-row transforms (checked under
    numpy 2.4.6), not on a documented guarantee; only
    ``test_toeplitz_block_rows_equal_one_row_products`` guards it.
    The result is written to ``out``, a float64 array of ``x``'s shape
    (``x`` itself is allowed), or to a new array.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    v = np.asarray(x, dtype=np.float64)
    if c.ndim != 1 or v.ndim not in (1, 2):
        raise ValueError("coeffs must be 1-D and x 1-D or 2-D")
    n = c.shape[0]
    if v.shape[-1] != n:
        raise ValueError(f"length mismatch: {n} coefficients vs {v.shape[-1]} inputs")
    if n == 0:
        raise ValueError("empty input")
    for name, a in (("coeffs", c), ("x", v)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} entries must be finite")
    if out is None:
        out = np.empty(v.shape)
    elif out.shape != v.shape or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {v.shape}, got {out.dtype} of shape {out.shape}")
    rows, ys = np.atleast_2d(v), np.atleast_2d(out)
    p = 1 << (2 * n - 2).bit_length()
    size = min(s for s in (p, 3 * p // 4, 5 * p // 8) if s >= 2 * n - 1)
    spectrum = np.fft.rfft(c, size)
    del c, coeffs  # coefficients handed over as the only reference are freed here
    batch = max(1, _FFT_BATCH_VALUES // spectrum.size)
    for start in range(0, len(rows), batch):
        stop = start + batch
        batch_spectrum = np.fft.rfft(rows[start:stop], size, axis=-1)
        np.multiply(spectrum, batch_spectrum, out=batch_spectrum)
        if stop >= len(rows):  # a one-row call then holds two spectra, not three
            del spectrum
        ys[start:stop] = np.fft.irfft(batch_spectrum, size, axis=-1)[:, :n]
    return out


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
    """Write a matrix as CSV (no header) with ``np.savetxt``, every entry as
    ``%.17g``, which round-trips float64 exactly."""
    np.savetxt(path, as_matrix(a), fmt="%.17g", delimiter=",")


# Decimal digits of 0..9999, four ASCII bytes each, read as one uint32.
_DIGITS4 = (
    np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48)
    .view(np.uint32)
    .ravel()
)
# Exact float64 powers of ten 10^0..10^20.
_POW10 = np.array([float(10**k) for k in range(21)])


def _group_tables():
    """The 4-digit group tables of ``%d`` and ``%.17g``, indexed by the
    group, plus 10^4 when the number has digits on the group's far side:
    such a group prints all four digits.

    ``_INT_WORDS`` (uint32 words; the far side is before the group): a group
    with no digits before it has its leading zeros NUL, and a 0 there prints
    "0" in the units group (row 1) and nothing in the groups above (row 0).
    ``_SPREAD`` (uint64 words, the four digits at even bytes; the far side is
    after the group): a group with no digits after it has its trailing
    zeros NUL.
    """
    group = np.arange(10**4)
    ndigits = 1 + (group >= 10).astype(np.int64) + (group >= 100) + (group >= 1000)
    ntrailing = (group == 0).astype(np.int64)
    for scale in (10, 100, 1000):
        ntrailing += group % scale == 0
    # first[k] masks bytes 0..k-1 of a word
    first = ((np.arange(4) < np.arange(5)[:, None]) * np.uint8(255)).view(np.uint32)[:, 0]
    int_words = np.stack([np.concatenate([_DIGITS4 & ~first[4 - ndigits], _DIGITS4])] * 2)
    int_words[0, 0] = 0
    spread = np.zeros((2 * 10**4, 8), dtype=np.uint8)
    spread_digits = np.concatenate([_DIGITS4 & first[4 - ntrailing], _DIGITS4])
    spread[:, ::2] = spread_digits.view(np.uint8).reshape(-1, 4)
    return int_words, spread.view(np.uint64)[:, 0]


_INT_WORDS, _SPREAD = _group_tables()


def _veltkamp(a):
    """Split ``a`` exactly into hi + lo, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)
# 10^(16 - e) at e + 4: the 17 digits at decimal exponent e >= 0 have a
# nonzero fraction when it does not divide them.  1 for e < 0, whose cells
# have no point slot.
_FRACTION_DIV = np.array([1] * 4 + [10 ** (16 - e) for e in range(17)], dtype=np.int64)


def _g17_templates():
    """Slots of a fixed-notation %.17g cell for each (decimal exponent e,
    fraction nonzero, sign), in row ((e + 4) * 2 + fraction) * 2 + sign, as
    five uint64 words per row, word-major.

    The slots are a sign, "0." and three zeros (for e < 0), then each of the
    17 digits followed by a decimal-point slot.  Digit slots of the integer
    part hold "0" and the others NUL, to be ORed with the digits.
    """
    chars = np.frombuffer(b"-0.000" + b"0." * 17, dtype=np.uint8)
    e, fraction, negative = np.indices((21, 2, 2)).reshape(3, -1, 1)
    e = e - 4
    digit = np.arange(17)
    printed = np.empty((len(e), len(chars)), dtype=bool)
    printed[:, :1] = negative
    printed[:, 1:3] = e < 0
    printed[:, 3:6] = np.arange(3) < -1 - e
    printed[:, 6::2] = digit <= e
    printed[:, 7::2] = (digit == e) & (fraction == 1)
    words = np.where(printed, chars, 0).astype(np.uint8).view(np.uint64)
    return np.ascontiguousarray(words.T)


_G17_TEMPLATES = _g17_templates()
# Word 0 of a %.17g cell holding only the leading digit d, at d.
_G17_LEAD = np.zeros((10, 8), dtype=np.uint8)
_G17_LEAD[:, 6] = np.arange(48, 58)
_G17_LEAD = _G17_LEAD.view(np.uint64)[:, 0]


def _store(out, start, words):
    """Write ``words``, one per cell of ``out``, at slot ``start`` of each."""
    out[:, start : start + words.itemsize].view(words.dtype)[:, 0] = words


def _rounded_17(a, e):
    """The 17 significant digits of a > 0 at decimal exponent e, correctly
    rounded: round-half-even(a * 10^(16 - e)) as int64.

    10^(16 - e) is exact for e in [-4, 16], and Dekker's product splits
    a * 10^(16 - e) error-free into hi + lo.  When the product is at least
    10^16, hi is an even integer (float64 above 2^53) and |lo| <= 8, so
    hi + round-half-even(lo) is the correctly rounded integer.
    """
    k = 16 - e
    hi = a * _POW10[k]
    ah, al = _veltkamp(a)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _g17_cells(x):
    """Slot count, writer and fallback cells of ``"%.17g" % v`` on float64:
    the writer fills the 40 slots (``_g17_templates``) of the cells that
    print in fixed notation, 1e-4 <= |v| < 1e17; the indices of the others
    are left to ``%``."""
    ax = np.abs(x)
    slow = ~((ax >= 1e-4) & (ax < 1e17))  # also nan

    def write(out):
        a = np.where(slow, 1.0, ax)
        e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
        digits = _rounded_17(a, e)
        # next to a power of ten log10 may put e one off, and rounding to 17
        # digits may carry into an 18th: move e once and round again
        fix = np.flatnonzero((digits >= 10**17) | (digits < 10**16))
        if fix.size:
            e[fix] += np.where(digits[fix] >= 10**17, 1, -1)
            digits[fix] = _rounded_17(a[fix], e[fix])
        e4 = e + 4
        row = 4 * e4 + 2 * (digits % _FRACTION_DIV[e4] != 0) + (x < 0)
        lead = digits // 10**16
        _store(out, 0, _G17_TEMPLATES[0][row] | _G17_LEAD[lead])
        rest = digits - lead * 10**16
        for k in range(1, 4):  # word k holds digits 4k - 3 .. 4k
            scale = 10 ** (16 - 4 * k)
            group = rest // scale
            rest = rest - group * scale
            _store(out, 8 * k, _G17_TEMPLATES[k][row] | _SPREAD[group + (rest != 0) * 10**4])
        _store(out, 32, _G17_TEMPLATES[4][row] | _SPREAD[rest])

    return _G17_TEMPLATES.shape[0] * 8, write, np.flatnonzero(slow)


def _int_cells(v):
    """Slot count, writer and (no) fallback cells of ``"%d" % v`` on int64:
    a sign slot if any v is negative, then 4-digit groups of |v| (-2^63
    included, as uint64), as many as the largest |v| needs."""
    a = np.abs(v).view(np.uint64)  # abs(-2^63) is -2^63: 2^63 as uint64
    ngroups = -(-len(str(int(a.max()))) // 4)
    signed = int(v.min() < 0)

    def write(out):
        if signed:
            out[:, 0] = (v < 0) * np.uint8(45)  # "-"
        rest = a
        for j in range(ngroups - 1, 0, -1):
            q = rest // 10**4
            # the group, plus 10^4 if digits precede it (q > 0)
            column = rest - (q - (q > 0)) * 10**4
            _store(out, signed + 4 * j, _INT_WORDS[int(j == ngroups - 1)][column.view(np.int64)])
            rest = q
        _store(out, signed, _INT_WORDS[int(ngroups == 1)][rest.view(np.int64)])

    return signed + 4 * ngroups, write, np.empty(0, dtype=np.intp)


def _percent_rows(row_format: str, cells) -> str:
    """``format_csv_rows`` by Python's ``%``, one row at a time."""
    return "".join(row_format % row for row in zip(*(col.tolist() for col in cells)))


def format_csv_rows(row_format: str, columns) -> str:
    """``row_format % row`` for each row of the equal-length 1-D numpy
    ``columns``, concatenated, byte for byte: "" when there are no rows.

    ``row_format`` is conversions (``%d``, ``%.17g``, ``%s``, ...) joined by
    commas and ended by a newline, one per column.  The rows are one uint8
    matrix in which every cell owns a fixed run of slots, ended by its
    separator.  ``%.17g`` on float64 and ``%d`` on int64 write their slots in
    numpy (``_g17_cells``, ``_int_cells``); every other cell is formatted by
    ``%`` itself into its slots.  Slots a cell does not print hold NUL, and
    one ``bytes.translate`` drops them all.  A chunk in which ``%`` prints a
    NUL goes through ``_percent_rows`` instead.
    """
    conversions = row_format[:-1].split(",")
    if not row_format.endswith("\n") or len(conversions) != len(columns):
        raise ValueError(f"row format {row_format!r} does not match {len(columns)} columns")
    cells = [np.asarray(col) for col in columns]
    shape = cells[0].shape
    if len(shape) != 1 or any(col.shape != shape for col in cells):
        shapes = [col.shape for col in cells]
        raise ValueError(f"columns must be 1-D and of one length, got shapes {shapes}")
    n = shape[0]
    if n == 0:
        return ""
    layouts = []
    for conversion, values in zip(conversions, cells):
        if conversion == "%.17g" and values.dtype == np.float64:
            width, write, where = _g17_cells(values)
        elif conversion == "%d" and values.dtype == np.int64:
            width, write, where = _int_cells(values)
        else:
            width, write, where = 0, None, np.arange(values.size)
        texts = [(conversion % value).encode() for value in values[where].tolist()]
        if any(b"\0" in t for t in texts):
            return _percent_rows(row_format, cells)
        width = max([width, *map(len, texts)])  # fast slots hold every fallback text
        layouts.append((width, write, where, texts))
    chars = np.zeros((n, sum(width + 1 for width, *_ in layouts)), dtype=np.uint8)
    start = 0
    for width, write, where, texts in layouts:
        out = chars[:, start : start + width + 1]
        start += width + 1
        if write is not None:
            write(out[:, :-1])
        if texts:
            padded = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype=np.uint8)
            out[where, :-1] = padded.reshape(-1, width)
        out[:, -1] = ord(",")
    chars[:, -1] = ord("\n")
    return chars.tobytes().translate(None, b"\0").decode()
