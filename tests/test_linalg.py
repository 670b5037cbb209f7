import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from contcount import linalg
from contcount.linalg import (
    as_matrix,
    col_norm_1to2,
    format_csv_rows,
    frobenius_norm,
    lower_toeplitz,
    min_eigenvalue_symmetric,
    pseudoinverse,
    read_matrix_csv,
    row_norm_2toinf,
    schatten1,
    singular_values,
    toeplitz_lower_matvec,
    write_matrix_csv,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False, width=64)


def small_matrices(max_dim=16):
    shapes = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=finite))


def test_frobenius_norm_examples():
    assert frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2), rel=1e-12)
    assert frobenius_norm([[1, 0], [1, 1]]) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert frobenius_norm([[3, 0], [0, 4]]) == pytest.approx(5.0, rel=1e-12)


def test_col_norm_examples():
    assert col_norm_1to2([[1, 0], [1, 1]]) == pytest.approx(math.sqrt(2), rel=1e-12)
    assert col_norm_1to2(np.eye(3)) == 1.0
    assert col_norm_1to2([[1, 0], [0.5, 1]]) == pytest.approx(math.sqrt(1.25), rel=1e-12)


def test_row_norm_examples():
    assert row_norm_2toinf([[1, 0], [1, 1]]) == pytest.approx(math.sqrt(2), rel=1e-12)
    assert row_norm_2toinf(np.eye(3)) == 1.0
    assert row_norm_2toinf([[3, 4]]) == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize(
    "a",
    [
        [[1e-300]],
        [[1e200]],
        [[5e-324]],
        [[2.2e-309, -3e-310]],
        [[3e-310], [4e-310]],
        [[-3e200, 4e200], [1e-300, 0.0]],
        [[1e154, 1e154], [1e154, 1e154]],
        [[0.0, 0.0]],
    ],
)
def test_norms_at_extreme_magnitudes(a):
    rows = [math.hypot(*row) for row in a]
    cols = [math.hypot(*col) for col in zip(*a)]
    assert frobenius_norm(a) == pytest.approx(math.hypot(*rows), rel=1e-15, abs=0.0)
    assert col_norm_1to2(a) == pytest.approx(max(cols), rel=1e-15, abs=0.0)
    assert row_norm_2toinf(a) == pytest.approx(max(rows), rel=1e-15, abs=0.0)


def test_norms_overflow_only_beyond_float_range():
    assert col_norm_1to2([[1.7e308, 1.7e308]]) == 1.7e308
    assert frobenius_norm([[1.7e308, 1.7e308]]) == math.inf


def test_norms_bit_identical_to_unscaled_on_ordinary_inputs():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = rng.standard_normal(rng.integers(1, 20, size=2)) * 10.0 ** rng.integers(-100, 100)
        assert frobenius_norm(a) == float(np.linalg.norm(a))
        assert col_norm_1to2(a) == float(np.sqrt(np.max(np.sum(a * a, axis=0))))
        assert row_norm_2toinf(a) == float(np.sqrt(np.max(np.sum(a * a, axis=1))))


def test_singular_values_examples():
    # eigenvalues of A^T A are (3 +- sqrt(5))/2, so the spectrum is the golden pair
    got = singular_values([[1, 0], [1, 1]])
    assert got == pytest.approx([GOLDEN, 1.0 / GOLDEN], rel=1e-12)
    assert singular_values(np.eye(4)) == pytest.approx(np.ones(4))
    assert np.all(singular_values(np.zeros((3, 2))) == 0.0)


def test_singular_values_sorted_descending():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = singular_values(rng.normal(size=(6, 4)))
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_schatten1_examples():
    assert schatten1([[1, 0], [1, 1]]) == pytest.approx(math.sqrt(5), rel=1e-12)
    assert schatten1(np.eye(3)) == pytest.approx(3.0, rel=1e-12)
    assert schatten1([[3, 0], [0, 4]]) == pytest.approx(7.0, rel=1e-12)


def test_pseudoinverse_examples():
    assert pseudoinverse(np.eye(3)) == pytest.approx(np.eye(3), abs=1e-12)
    assert pseudoinverse([[2.0]]) == pytest.approx(np.array([[0.5]]), rel=1e-12)
    # (R^T R)^{-1} R^T computed by hand
    r = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    want = np.array([[2.0, -1.0, 1.0], [-1.0, 2.0, 1.0]]) / 3.0
    assert pseudoinverse(r) == pytest.approx(want, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(small_matrices(max_dim=12))
@example(np.array([[2.2e-309]]))  # subnormal: 1/sigma overflows to inf
@example(np.array([[1e-300, 0.0], [0.0, 2.2e-309]]))
def test_pseudoinverse_moore_penrose_identities(a):
    p = pseudoinverse(a)
    tol = 1e-8 * (frobenius_norm(a) + 1.0)
    # Each product with p rounds to about eps * cond relative to its scale,
    # where cond = ||A||_2 ||P||_2 may reach 1 / PINV_RTOL = 1e12.  1e3 * eps
    # * cond covers that for matrices up to 12 x 12 and stays below 1e-8
    # while cond < 4.5e4, so well-conditioned inputs keep the 1e-8 tolerance.
    a_norm, p_norm = singular_values(a)[0], singular_values(p)[0]
    rounding = 1e3 * np.finfo(np.float64).eps * a_norm * p_norm
    assert np.all(np.isfinite(p))
    assert np.max(np.abs(a @ p @ a - a)) <= tol + rounding * a_norm
    assert np.max(np.abs(p @ a @ p - p)) <= tol + 1e-8 * frobenius_norm(p) + rounding * p_norm
    assert np.max(np.abs((a @ p).T - a @ p)) <= tol + rounding
    assert np.max(np.abs((p @ a).T - p @ a)) <= tol + rounding


def test_min_eigenvalue_examples():
    assert min_eigenvalue_symmetric(np.eye(2)) == pytest.approx(1.0, rel=1e-12)
    assert min_eigenvalue_symmetric([[1, 2], [2, 1]]) == pytest.approx(-1.0, rel=1e-12)
    assert min_eigenvalue_symmetric(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-14)


def test_min_eigenvalue_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        min_eigenvalue_symmetric([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        min_eigenvalue_symmetric(np.ones((2, 3)))


def test_toeplitz_matvec_examples():
    assert toeplitz_lower_matvec([1, 0, 0], [5.0, -2.0, 3.0]) == pytest.approx([5, -2, 3])
    assert toeplitz_lower_matvec([1, 1, 1], [1, 1, 1]) == pytest.approx([1, 2, 3])
    assert toeplitz_lower_matvec([1, 0.5], [2, 2]) == pytest.approx([2, 3])


def test_toeplitz_matvec_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        toeplitz_lower_matvec([1, 2], [1, 2, 3])


def test_toeplitz_matvec_matches_dense_1024():
    rng = np.random.default_rng(3)
    for n in (*range(1, 65), 257, 300, 512, 1024):
        c = rng.normal(size=n)
        x = rng.normal(size=n)
        dense = lower_toeplitz(c) @ x
        fast = toeplitz_lower_matvec(c, x)
        assert np.max(np.abs(dense - fast)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))


def test_toeplitz_fft_path_matches_direct():
    rng = np.random.default_rng(4)
    # FFT lengths of every family from 1 up; those of the last three are
    # 5 * 2^11, 3 * 2^12 and 2^14
    for n in (*range(1, 65), 300, 512, 513, 1024, 4096, 5000, 6000, 8192):
        c = rng.normal(size=n) / np.arange(1, n + 1)
        x = rng.normal(size=n)
        fast = toeplitz_lower_matvec(c, x)
        direct = np.convolve(c, x)[:n]
        assert np.max(np.abs(fast - direct)) <= 1e-9


def _fft_size(n):
    p = 1 << (2 * n - 2).bit_length()
    return min(s for s in (p, 3 * p // 4, 5 * p // 8) if s >= 2 * n - 1)


def _one_row_toeplitz(c, x):
    """The one-row product as it was computed before blocks: the coefficient
    spectrum times the row's, by 1-D transforms."""
    n = len(c)
    size = _fft_size(n)
    spectrum = np.fft.rfft(c, size)
    spectrum *= np.fft.rfft(x, size)
    return np.fft.irfft(spectrum, size)[:n]


# FFT lengths of each form from the smallest (1, 3, 5, 16, 32, 48, 640,
# 1024 at n = 1, 2, 3, 7, 16, 24, 300, 512), the seam at 512 / 513 (1024 /
# 1280 = 5 * 2^8), 2048 = 2^11, 8192 = 2^13, 10240 = 5 * 2^11, 12288 =
# 3 * 2^12, and lengths of 32768 and more (2^15, 5 * 2^13, 3 * 2^14,
# 5 * 2^14), from which numpy reuses a temporary spectrum of 256 KB in place
# for ``spectrum * rfft(row)``, taking the product in the other order
TOEPLITZ_EDGES = [1, 2, 3, 7, 16, 24, 300, 512, 513, 1024, 4096, 4097, 6000, 16384, 16385, 20481, 2**15 + 1]


@pytest.mark.parametrize("n", TOEPLITZ_EDGES)
def test_toeplitz_block_rows_equal_one_row_products(n):
    # numpy does not promise that a multi-row rfft/irfft rounds each row as
    # a 1-D call does; a numpy version that does not fails here, not
    # silently (test_pcg64_states_equal_numpy_seeding guards the seeding)
    rng = np.random.default_rng(n)
    c = rng.normal(size=n) / np.arange(1, n + 1)
    # blocks that fill the FFT batches of rows, miss by one row or overrun
    batch = max(1, linalg._FFT_BATCH_VALUES // (_fft_size(n) // 2 + 1))
    counts = sorted({2, batch - 1, batch, batch + 1, 2 * batch + 3} - {0, 1})
    rows = rng.normal(size=(counts[-1], n))
    want = np.array([_one_row_toeplitz(c, row) for row in rows])
    for count in counts:
        # the rows of a Fortran-ordered block are strided, as those of the
        # transposed DP-FTRL noise are
        for block in (rows[:count], np.asfortranarray(rows[:count])):
            assert toeplitz_lower_matvec(c, block).tobytes() == want[:count].tobytes()
    for row, expected in zip(rows[:3], want):
        assert toeplitz_lower_matvec(c, row).tobytes() == expected.tobytes()
        assert toeplitz_lower_matvec(c, row[None, :]).tobytes() == expected.tobytes()
    block = np.asfortranarray(rows)
    toeplitz_lower_matvec(c, block, out=block)
    assert block.tobytes() == want.tobytes()


def test_toeplitz_matvec_shapes():
    c = np.array([1.0, 0.5])
    assert toeplitz_lower_matvec(c, np.ones((0, 2))).shape == (0, 2)
    with pytest.raises(ValueError, match="1-D or 2-D"):
        toeplitz_lower_matvec(c, np.ones((1, 1, 2)))
    with pytest.raises(ValueError, match="mismatch"):
        toeplitz_lower_matvec(c, np.ones((3, 4)))
    # too few rows, an integer dtype, and one row for a block were written
    # to silently: in part, truncated, or row 0 only
    for out in (np.empty((2, 2)), np.empty((3, 2), dtype=np.int64), np.empty(2)):
        with pytest.raises(ValueError, match="out must be float64"):
            toeplitz_lower_matvec(c, np.ones((3, 2)), out=out)
    # refused: through the FFT, one non-finite entry makes every output NaN
    for x in (np.ones(600), np.ones((3, 600))):
        with pytest.raises(ValueError, match="coeffs entries must be finite"):
            toeplitz_lower_matvec(np.r_[1.0, np.nan, np.zeros(598)], x)
        bad = x.copy()
        bad[..., 0] = np.inf
        with pytest.raises(ValueError, match="x entries must be finite"):
            toeplitz_lower_matvec(np.ones(600), bad)


def test_format_csv_rows_of_no_rows():
    ints, floats, strs = np.zeros(0, dtype=np.int64), np.zeros(0), np.array([], dtype=str)
    for row_format, columns in (
        ("%d\n", [ints]),
        ("%.17g\n", [floats]),
        ("%s\n", [strs]),
        ("%d,%.17g,%s\n", [ints, floats, strs]),
    ):
        assert format_csv_rows(row_format, columns) == ""


@pytest.mark.parametrize("n", [1, 2, 5, 33])
def test_lower_toeplitz_entries(n):
    c = np.random.default_rng(n).normal(size=n)
    want = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            want[i, j] = c[i - j]
    assert np.array_equal(lower_toeplitz(c), want)


@settings(deadline=None, max_examples=60)
@given(small_matrices(max_dim=16))
def test_frobenius_equals_singular_sum_of_squares(a):
    fro = frobenius_norm(a)
    spectral = math.sqrt(float(np.sum(singular_values(a) ** 2)))
    assert abs(fro - spectral) <= 1e-8 * (1.0 + fro)


@settings(deadline=None, max_examples=60)
@given(small_matrices(max_dim=16))
def test_schatten1_cauchy_schwarz(a):
    bound = math.sqrt(min(a.shape)) * frobenius_norm(a)
    assert schatten1(a) <= bound + 1e-9 * (1.0 + bound)


def test_matrix_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        frobenius_norm([[1.0, float("nan")]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "values", [[[1, 1j], [0, 1]], np.eye(2, dtype=np.complex128), np.ones((1, 1), np.complex64)]
)
def test_matrix_rejects_complex(values):
    # a cast to float64 would drop the imaginary parts: gamma_lower of the
    # first one would read 1.4142 where the complex matrix gives 1.5811
    for call in (as_matrix, frobenius_norm, singular_values):
        with pytest.raises(ValueError, match="real matrix"):
            call(values)


def test_csv_round_trip(tmp_path):
    a = np.array([[1.5, -2.25, 1e-17], [3.0, 4.0, 123456789.123456789]])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, a)
    assert np.array_equal(read_matrix_csv(path), a)


def _reference_write_matrix_csv(path, a):
    """The per-row ``format(v, ".17g")`` writer that ``write_matrix_csv`` must
    reproduce byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in as_matrix(a):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


@pytest.mark.parametrize(
    "shape", [(1, 1), (7, 5), (3, 4096 + 3), (4096 + 1, 1), (300, 40)]
)
def test_write_matrix_csv_matches_per_row_writer(tmp_path, shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    edges = [0.0, -0.0, 100.5, 1e16, 1e17 - 16, 1e-4, 5e-324, 2.0**63, -1e-300]
    a.flat[: len(edges)] = edges[: a.size]
    write_matrix_csv(tmp_path / "got.csv", a)
    _reference_write_matrix_csv(tmp_path / "want.csv", a)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="ragged"):
        read_matrix_csv(path)


def test_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,two\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_matrix_csv(path)


def test_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_matrix_csv(path)


def _reference_read_matrix_csv(path):
    """The line-at-a-time reader that the C-parsed one must agree with."""
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


def _matrix_outcome(reader, path):
    try:
        a = reader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return a.dtype, a.shape, a.tolist()


def _assert_matrix_reader_parity(data: bytes, path: Path):
    path.write_bytes(data)
    want = _matrix_outcome(_reference_read_matrix_csv, path)
    got = _matrix_outcome(read_matrix_csv, path)
    assert got == want
    if not isinstance(want[0], type):  # an array: equal bit for bit, not just by ==
        assert np.array_equal(read_matrix_csv(path), _reference_read_matrix_csv(path))


MATRIX_READER_CORPUS = [
    b"1,2.5\n-3e-2,4\n",  # plain
    b"1,2\n3,4",  # no final newline
    b"1,2\r\n3,4\r\n",  # CRLF
    b"1,2\r3,4\r",  # lone CR
    b" 1 ,\t2\t\n\t3, 4 \n",  # spaces and tabs around fields
    b"1,2\n\n3,4\n",  # blank line mid-file
    b"1,2\n \t\n3,4\n",  # whitespace-only line
    b"1_0,2\n",  # digit separator: only the line loop accepts it
    b"#1,2\n3,4\n",  # '#' at the start of a line is data, not a comment
    b"1,#2\n",  # and mid-line
    b"1,2,\n3,4,\n",  # trailing comma
    b"\xef\xbb\xbf1,2\n3,4\n",  # UTF-8 byte-order mark
    "1,\xa02\n".encode(),  # no-break space
    "\u0661,2\n".encode(),  # Arabic-Indic digit one
    b"nan,1\n",
    b"inf,1\n",
    b"Infinity,1\n",
    b"1e400,1\n",  # overflows to inf
    b"0x10,1\n",
    b"1d3,1\n",
    b"1j,1\n",
    b'"1","2"\n',  # quoted fields
    b"1;2\n",
    b"1,2\n3\n",  # ragged
    b"1,two\n",  # non-numeric
    b"1,2\n\xff,4\n",  # invalid UTF-8
    b"",  # empty file
    b" \n\t\r\n",  # whitespace-only file
    b"5\n",  # 1 x 1
    b"1,2,3,4\n",  # 1 x m
    b"1\n2\n3\n",  # n x 1
]


@pytest.mark.parametrize("data", MATRIX_READER_CORPUS)
def test_read_matrix_csv_matches_line_reader(tmp_path, data):
    _assert_matrix_reader_parity(data, tmp_path / "m.csv")


@settings(deadline=None, max_examples=200)
@given(st.text(alphabet="0159.,-+eE_n \t\r\n\xa0", max_size=30))
def test_read_matrix_csv_matches_line_reader_random(text):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_matrix_reader_parity(text.encode(), Path(tmp) / "m.csv")
