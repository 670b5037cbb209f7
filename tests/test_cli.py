import contextlib
import functools
import io
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contcount import certificates, cli, factorization, workload
from contcount.cli import main
from contcount.factorization import sqrt_coefficients, suboptimality_ratio
from contcount.ftrl import clip, logistic_task, project_ball, run_dp_ftrl_logistic
from contcount.linalg import format_csv_rows, write_matrix_csv
from contcount.mechanism import MECHANISM_KINDS, PrivacyBudget, StreamingCounter, release
from contcount.workload import counting_matrix


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_output(capsys):
    code, out, _ = run_cli(["coeffs", "--n", "3"], capsys)
    assert code == 0
    assert out.splitlines() == ["index,value", "0,1", "1,0.5", "2,0.375"]


def test_coeffs_single_row(capsys):
    code, out, _ = run_cli(["coeffs", "--n", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["index,value", "0,1"]


def test_coeffs_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--n", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--n", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_count_noise_off_matches_true(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n0\n1\n")
    # eps=inf zeroes the noise multiplier: outputs equal the true counts
    code, out, _ = run_cli(
        ["count", "--input", str(bits), "--eps", "inf", "--seed", "3"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,true_count,noisy_count"
    assert lines[1:] == ["1,1,1", "2,1,1", "3,2,2"]


def test_count_binary_smoke_and_determinism(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("".join(f"{b}\n" for b in (np.arange(8) % 2)))
    args = ["count", "--input", str(bits), "--mechanism", "binary", "--seed", "7"]
    code, first, _ = run_cli(args, capsys)
    assert code == 0
    code, second, _ = run_cli(args, capsys)
    assert code == 0
    assert first == second
    assert len(first.splitlines()) == 9


def test_count_honaker_runs(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n1\n0\n1\n")
    code, out, _ = run_cli(
        ["count", "--input", str(bits), "--mechanism", "honaker", "--seed", "1"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 5


def test_count_honaker_builds_no_dense_matrix(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    dense = [(factorization, "honaker_left"), (factorization, "binary_gram"), (np.linalg, "inv")]
    for owner, name in dense:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    bits = tmp_path / "bits.txt"
    bits.write_text("".join(f"{b}\n" for b in np.random.default_rng(8).integers(0, 2, 5000)))
    for n in (768, 5000):
        args = ["count", "--input", str(bits), "--n", str(n), "--mechanism", "honaker"]
        code, out, _ = run_cli(args + ["--seed", "3"], capsys)
        assert code == 0
        assert len(out.splitlines()) == n + 1
    assert calls == []


def test_count_rejects_bad_bits(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n2\n")
    code, _, err = run_cli(["count", "--input", str(bits)], capsys)
    assert code == 1
    assert "bit" in err


def test_count_missing_file(capsys):
    code, _, err = run_cli(["count", "--input", "/nonexistent/bits.txt"], capsys)
    assert code == 1
    assert err


def test_count_n_larger_than_stream(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n")
    code, _, err = run_cli(["count", "--input", str(bits), "--n", "3"], capsys)
    assert code == 1


def test_compare_rows_consistent(capsys):
    code, out, _ = run_cli(
        ["compare", "--n-max", str(2**12), "--eps-fact", "1.0", "--eps-bin", "1.0"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "n,eps_fact,eps_bin,delta,err_fact_upper,err_lower_matrix_mech,"
        "err_binary_expected,ratio_binary_over_fact"
    )
    assert len(lines) == 13
    for line in lines[1:]:
        n, ef, eb, delta, fact, lower, binary, ratio = line.split(",")
        assert float(lower) <= float(fact)
        assert float(ratio) > 0
        assert float(ratio) == pytest.approx(float(binary) / float(fact), rel=1e-15)


def test_compare_ratio_near_suboptimality(capsys):
    code, out, _ = run_cli(["compare", "--n-max", str(2**20)], capsys)
    assert code == 0
    last = out.splitlines()[-1].split(",")
    assert int(last[0]) == 2**20
    ratio = float(last[-1])
    # closed-form ratio with the exact popcount correction stays within 2%
    assert ratio == pytest.approx(suboptimality_ratio(2**20), rel=0.02)


def test_compare_deterministic(capsys):
    args = ["compare", "--n-max", "1024", "--eps-fact", "0.3", "--eps-bin", "0.8"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_certify_identity(tmp_path, capsys):
    path = tmp_path / "eye.csv"
    write_matrix_csv(path, np.eye(3))
    code, out, _ = run_cli(["certify", "--matrix", str(path)], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header == "lower_bound,upper_bound,feasible,objective"
    lower, upper, feasible, objective = row.split(",")
    assert float(lower) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert float(upper) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert feasible == "true"
    assert float(objective) == pytest.approx(math.sqrt(3), rel=1e-9)


def test_certify_counting(tmp_path, capsys):
    path = tmp_path / "count.csv"
    write_matrix_csv(path, counting_matrix(64))
    code, out, _ = run_cli(["certify", "--matrix", str(path)], capsys)
    assert code == 0
    lower, upper, feasible, objective = out.splitlines()[1].split(",")
    assert float(lower) <= float(objective) * (1 + 1e-9)
    assert float(objective) <= float(upper)
    assert feasible == "true"


def test_certify_missing_file(capsys):
    code, _, err = run_cli(["certify", "--matrix", "/nonexistent/m.csv"], capsys)
    assert code == 1
    assert err


@pytest.mark.parametrize("shape", [(40, 25), (25, 40)])
def test_certify_one_svd_and_gram_size_eigensolve(tmp_path, capsys, monkeypatch, shape):
    svd_shapes, eig_shapes = [], []
    svd, eigvalsh, eigh = np.linalg.svd, np.linalg.eigvalsh, np.linalg.eigh

    def counted(fn, shapes):
        def wrapper(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted(svd, svd_shapes))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(eigvalsh, eig_shapes))
    monkeypatch.setattr(np.linalg, "eigh", counted(eigh, eig_shapes))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.random.default_rng(5).normal(size=shape))
    code, out, _ = run_cli(["certify", "--matrix", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "true"
    assert svd_shapes == [shape]
    assert eig_shapes and max(max(s) for s in eig_shapes) <= min(shape)


def _reference_clip(g, kappa):
    g = np.asarray(g, dtype=np.float64)
    if kappa <= 0:
        raise ValueError(f"clip norm must be positive, got {kappa}")
    norm = float(np.linalg.norm(g))
    if norm <= kappa:
        return g.copy()
    return g * (kappa / norm)


def _reference_project_ball(v, radius):
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= radius:
        return v
    return v * (radius / norm)


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "200", "--d", "3", "--seeds-count", "2"],
        ["--n", "150", "--d", "6", "--seed", "7", "--kappa", "0.3", "--radius", "0.5"],
    ],
)
def test_ftrl_output_matches_linalg_norm_reference(capsys, monkeypatch, flags):
    args = ["ftrl", *flags]
    _, got, _ = run_cli(args, capsys)
    monkeypatch.setattr("contcount.ftrl.clip", _reference_clip)
    monkeypatch.setattr("contcount.ftrl.project_ball", _reference_project_ball)
    _, want, _ = run_cli(args, capsys)
    assert got == want


def test_clip_and_project_match_linalg_norm_reference():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        v = rng.normal(size=int(rng.integers(1, 20))) * 10.0 ** int(rng.integers(-3, 4))
        bound = float(rng.uniform(0.01, 10.0))
        assert np.array_equal(clip(v, bound), _reference_clip(v, bound))
        assert np.array_equal(project_ball(v, bound), _reference_project_ball(v, bound))


def test_count_help_lists_the_mechanism_kinds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert "--mechanism {" + ",".join(MECHANISM_KINDS) + "}" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_ftrl_refuses_an_overflowing_iterate(capsys):
    code, out, err = run_cli(["ftrl", "--n", "8", "--d", "2", "--radius", "1e308", "--kappa", "1e10"], capsys)
    assert code == 1
    assert out == ""
    assert "kappa=10000000000.0, radius=1e+308" in err


def test_ftrl_single_seed_deterministic(capsys):
    args = ["ftrl", "--n", "64", "--d", "3", "--seed", "5", "--seeds-count", "2"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "seed,regret,bound"
    assert len(lines) == 3
    assert lines[1].startswith("5,") and lines[2].startswith("6,")


def test_ftrl_rejects_zero_dimension():
    with pytest.raises(SystemExit) as exc:
        main(["ftrl", "--n", "16", "--d", "0"])
    assert exc.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "coeffs.csv"
    code, out, _ = run_cli(["coeffs", "--n", "4", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert path.read_text().splitlines()[0] == "index,value"


def test_floats_round_trip_17_digits(capsys):
    _, out, _ = run_cli(["coeffs", "--n", "40"], capsys)
    from contcount.factorization import sqrt_coefficients

    coeffs = sqrt_coefficients(40)
    for line in out.splitlines()[1:]:
        k, value = line.split(",")
        assert float(value) == coeffs[int(k)]


def test_comparison_row_invariant(capsys, monkeypatch):
    args = ["compare", "--n-max", "1024", "--eps-fact", "0.3", "--eps-bin", "0.8"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [2**k for k in range(1, 11)]
    assert all(float(row[-1]) > 0 for row in rows)
    lower = workload.err_lower_bound_matrix_mech

    def lower_above_upper_at_8(n, budget):
        return 2.0 * workload.err_upper_bound(n, budget) if n == 8 else lower(n, budget)

    monkeypatch.setattr(workload, "err_lower_bound_matrix_mech", lower_above_upper_at_8)
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    assert err == "contcount: error: lower bound exceeds the guaranteed upper bound\n"


def test_compare_zero_noise_ratio_is_infinite(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division warning either
        code, out, err = run_cli(["compare", "--n-max", "4", "--eps-fact", "inf"], capsys)
    assert (code, err) == (0, "")
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["inf", "inf"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "contcount.cli", "coeffs", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["index,value", "0,1", "1,0.5"]


def test_cli_does_not_import_scipy(tmp_path):
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n0\n" * 2500)  # 5000 rounds: the FFT path
    script = "\n".join(
        [
            "import sys",
            "import contcount.cli",
            f"assert contcount.cli.main(['count', '--input', {str(bits)!r}, '--out', {str(tmp_path / 'c.csv')!r}]) == 0",
            f"assert contcount.cli.main(['ftrl', '--n', '64', '--d', '2', '--out', {str(tmp_path / 'f.csv')!r}]) == 0",
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "c.csv").read_text().splitlines()) == 5001


def _reference_read_bits(path):
    """The line-at-a-time reader that the vectorised one must agree with."""
    bits = []
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            if line not in ("0", "1"):
                raise ValueError(f"line {lineno}: expected a 0 or 1 bit, got {line!r}")
            bits.append(int(line))
    if not bits:
        raise ValueError("empty bit stream")
    return np.array(bits, dtype=np.int8)


def _read_outcome(reader, path):
    try:
        bits = reader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return bits.dtype, bits.tolist()


def _assert_reader_parity(data: bytes, path: Path):
    path.write_bytes(data)
    want = _read_outcome(_reference_read_bits, path)
    assert _read_outcome(cli._read_bits, str(path)) == want


READER_CORPUS = [
    b"1\n0\n1",  # no trailing newline
    b"1\r\n0\r\n1\r\n",  # CRLF
    b"1\r0\r1\r",  # lone CR
    b"1\r\n0\r1\n\r\n",  # mixed line ends
    b"1\n\n0\n \n\t\n\n1\n",  # blank and whitespace-only lines
    b" 1\n0 \n\t1\t\n \t0\t \n",  # leading and trailing spaces and tabs
    b"1\x0b\n\x0c0\x1f\n",  # other ASCII whitespace around a bit
    b"0\x0c1\n",  # form feed is not a line end
    b"0\x1c1\n",  # nor is a file separator
    b"2\n",
    b"1\n01\n",
    b"0 1\n",
    b"-1\n",
    b" 1 \n",
    b"1\x00\n",
    "\xa01\u20030\n1\n".encode(),  # Unicode whitespace: only the line loop accepts it
    b"\xef\xbb\xbf1\n0\n",  # UTF-8 byte-order mark
    b"1\n\xff\n0\n",  # invalid UTF-8
    b"",
    b" \n\t\r\n",
]


@pytest.mark.parametrize("data", READER_CORPUS)
def test_read_bits_matches_line_reader(tmp_path, data):
    _assert_reader_parity(data, tmp_path / "bits.txt")


@settings(deadline=None, max_examples=300)
@given(st.text(alphabet="012 \t\r\n\x0b\x0c\xa0", max_size=40))
def test_read_bits_matches_line_reader_random(text):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_reader_parity(text.encode(), Path(tmp) / "bits.txt")


# buffers whose bits, line ends or whitespace straddle a small window's edges
WINDOW_CASES = [b"1 \t 0\n", b"1\n \t 0\n", b"0\r\n1\r\n0", b"1" + b" " * 9 + b"1\n", b"  \n\n1"]


@pytest.mark.parametrize("window", [1, 2, 3, 5])
@pytest.mark.parametrize("data", READER_CORPUS + WINDOW_CASES)
def test_read_bits_matches_line_reader_across_windows(monkeypatch, tmp_path, window, data):
    monkeypatch.setattr(cli, "_PARSE_WINDOW", window)
    _assert_reader_parity(data, tmp_path / "bits.txt")


@settings(deadline=None, max_examples=200)
@given(st.text(alphabet="01 \t\r\n", max_size=40), st.integers(1, 7))
def test_read_bits_matches_line_reader_random_windows(text, window):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_PARSE_WINDOW", window)
        _assert_reader_parity(text.encode(), Path(tmp) / "bits.txt")


def test_read_bits_peak_traced_memory_is_bounded(tmp_path):
    """Reading 2^20 bits holds the file's bytes, the bits and one window's
    temporaries: at most 1 MiB above the file and the bits."""
    import tracemalloc

    path = tmp_path / "bits.txt"
    path.write_bytes(b"".join(b"%d\n" % b for b in np.random.default_rng(6).integers(0, 2, 2**20)))
    cli._read_bits(str(path))  # imports and first-call set-up
    tracemalloc.start()
    try:
        bits = cli._read_bits(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits.size == 2**20
    assert peak <= path.stat().st_size + bits.size + 2**20, peak / 2**20


def _reference_count_csv(bits, noisy):
    """The per-row formatter that ``count`` must reproduce byte for byte."""
    true = np.cumsum(bits)
    lines = ["t,true_count,noisy_count"]
    lines += [f"{t + 1},{true[t]},{format(float(noisy[t]), '.17g')}" for t in range(len(bits))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", MECHANISM_KINDS)
# 1023..2049 lie inside one chunk; CHUNK_ROWS - 1..CHUNK_ROWS + 1 straddle its end
@pytest.mark.parametrize(
    "n",
    [1, 1023, 1024, 1025, 2047, 2048, 2049, cli.CHUNK_ROWS - 1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1],
)
def test_count_output_matches_row_formatter(tmp_path, capsys, kind, n):
    bits = np.random.default_rng(n).integers(0, 2, size=n)
    path = tmp_path / "bits.txt"
    path.write_text("".join(f"{b}\n" for b in bits))
    noisy = release(kind, bits, PrivacyBudget(1.0, 1e-10), 11)
    want = _reference_count_csv(bits, noisy)
    args = ["count", "--input", str(path), "--mechanism", kind, "--seed", "11"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == want
    code, out, _ = run_cli(args + ["--out", str(tmp_path / "out.csv")], capsys)
    assert code == 0 and out == ""
    assert (tmp_path / "out.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("n", [512, 513, 1024, 4096, 4097])
def test_count_factorization_equals_step_loop_at_fft_edges(tmp_path, capsys, n):
    bits = np.random.default_rng(n).integers(0, 2, size=n)
    path = tmp_path / "bits.txt"
    path.write_text("".join(f"{b}\n" for b in bits))
    counter = StreamingCounter(n, PrivacyBudget(1.0, 1e-10), 4)
    stepped = np.array([counter.step(int(b)) for b in bits])
    code, out, _ = run_cli(["count", "--input", str(path), "--seed", "4"], capsys)
    assert code == 0
    assert out == _reference_count_csv(bits, stepped)


def test_writer_formats_every_float_like_format(capsys):
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, sys.float_info.max, -1e-300]
    rng = np.random.default_rng(3)
    values = np.concatenate([specials, 10.0 ** rng.uniform(-300, 300, 3000) * rng.choice([-1, 1], 3000)])
    ints = rng.integers(-(2**62), 2**62, size=values.size)
    cli._emit_columns("a,b", "%d,%.17g\n", [ints, values], None)
    want = "a,b\n" + "".join(f"{i},{format(float(v), '.17g')}\n" for i, v in zip(ints, values))
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("n", [1, 2, 1024, 1025, 2048, 2049, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1])
def test_coeffs_output_matches_row_formatter(capsys, n):
    coeffs = sqrt_coefficients(n)
    want = "index,value\n" + "".join(f"{k},{format(float(v), '.17g')}\n" for k, v in enumerate(coeffs))
    code, out, _ = run_cli(["coeffs", "--n", str(n)], capsys)
    assert code == 0
    assert out == want


def test_count_reads_stdin(tmp_path, capsys):
    # the README's `printf '1\n0\n1\n' | contcount count ...` usage
    args = ["count", "--eps", "1.0", "--delta", "1e-10", "--seed", "7"]
    path = tmp_path / "bits.txt"
    path.write_text("1\n0\n1\n")
    code, want, _ = run_cli(args + ["--input", str(path)], capsys)
    assert code == 0
    for extra in ([], ["--input", "-"]):
        proc = subprocess.run(
            [sys.executable, "-m", "contcount.cli", *args, *extra],
            input="1\n0\n1\n",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want
    assert [line.split(",")[:2] for line in want.splitlines()[1:]] == [["1", "1"], ["2", "1"], ["3", "2"]]


# Line builders of the earlier per-row writers of ``compare``, ``certify`` and
# ``ftrl``: the chunked writer must reproduce their bytes.
def _fmt(x):
    return format(float(x), ".17g")


def _reference_compare_csv(n_max, eps_fact, eps_bin, delta):
    fact = PrivacyBudget(eps_fact, delta)
    binary = PrivacyBudget(eps_bin, delta)
    lines = [
        "n,eps_fact,eps_bin,delta,err_fact_upper,err_lower_matrix_mech,"
        "err_binary_expected,ratio_binary_over_fact"
    ]
    k = 1
    while 2**k <= n_max:
        n = 2**k
        upper = workload.err_upper_bound(n, fact)
        lower = workload.err_lower_bound_matrix_mech(n, fact)
        expected = workload.binary_expected_err(n, binary)
        cells = [eps_fact, eps_bin, delta, upper, lower, expected, expected / upper]
        lines.append(",".join([str(n)] + [_fmt(x) for x in cells]))
        k += 1
    return "\n".join(lines) + "\n"


def _reference_certify_csv(path):
    matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    upper = certificates.gamma_upper(matrix)
    cert = certificates.build_svd_certificate(matrix)
    feasible, objective = certificates.verify_certificate(matrix, cert)
    row = f"{_fmt(cert.claimed_objective)},{_fmt(upper)},{str(feasible).lower()},{_fmt(objective)}"
    return "lower_bound,upper_bound,feasible,objective\n" + row + "\n"


def _reference_ftrl_csv(n, d, seed, count):
    budget = PrivacyBudget(1.0, 1e-6)
    lines = ["seed,regret,bound"]
    for s in range(seed, seed + count):
        report = run_dp_ftrl_logistic(logistic_task(n, d, s), budget, s + 2**32)
        lines.append(f"{s},{_fmt(report.regret)},{_fmt(report.bound)}")
    return "\n".join(lines) + "\n"


def _assert_same_outcome(args, reference, tmp_path, capsys):
    """``args`` writes what ``reference()`` builds, to stdout and to ``--out``,
    or, where ``reference()`` raises ValueError, exits 1 with its message and
    writes nothing."""
    try:
        want, message = reference(), None
    except ValueError as exc:
        want, message = "", f"contcount: error: {exc}\n"
    code, out, err = run_cli(args, capsys)
    assert (code, out, err) == ((0, want, "") if message is None else (1, "", message))
    path = tmp_path / "out.csv"
    code, out, err = run_cli(args + ["--out", str(path)], capsys)
    if message is None:
        assert (code, out, err) == (0, "", "")
        assert path.read_bytes() == want.encode()
    else:
        assert (code, out, err) == (1, "", message)
        assert not path.exists()


@pytest.mark.parametrize("n_max", [1, 3, 2**30, 2**64, 2**70])
def test_compare_matches_row_builder(tmp_path, capsys, n_max):
    args = ["compare", "--n-max", str(n_max), "--eps-fact", "0.3", "--eps-bin", "0.8"]
    want = functools.partial(_reference_compare_csv, n_max, 0.3, 0.8, 1e-10)
    _assert_same_outcome(args, want, tmp_path, capsys)


@pytest.mark.parametrize(
    "matrix",
    [np.random.default_rng(8).normal(size=(40, 25)), counting_matrix(16), np.zeros((1, 1))],
    ids=["random-40x25", "counting-16", "zero-1x1"],
)
def test_certify_matches_row_builder(tmp_path, capsys, matrix):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix)
    args = ["certify", "--matrix", str(path)]
    _assert_same_outcome(args, functools.partial(_reference_certify_csv, path), tmp_path, capsys)


def _assert_usage_error(args, message, tmp_path, capsys):
    """``args`` exits 2 with argparse's ``message`` on stderr, writing nothing,
    to stdout or to ``--out``."""
    path = tmp_path / "refused.csv"
    for extra in ([], ["--out", str(path)]):
        with pytest.raises(SystemExit) as exc:
            main(args + extra)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.splitlines()[-1] == message
    assert not path.exists()


@pytest.mark.parametrize("seed,count", [(0, 3), (2**70, 2), (-3, 3), (2**63 - 1, 2)])
def test_ftrl_matches_row_builder(tmp_path, capsys, seed, count):
    args = ["ftrl", "--n", "48", "--d", "3", "--seed", str(seed), "--seeds-count", str(count)]
    if seed < 0:  # a usage error, refused before any seed reaches numpy
        message = f"contcount ftrl: error: argument --seed: expected a non-negative integer, got {seed}"
        _assert_usage_error(args, message, tmp_path, capsys)
        return
    want = functools.partial(_reference_ftrl_csv, 48, 3, seed, count)
    _assert_same_outcome(args, want, tmp_path, capsys)


@pytest.mark.parametrize(
    "args",
    [
        ["count", "--eps", "nan"],
        ["compare", "--n-max", "8", "--eps-fact", "nan"],
        ["compare", "--n-max", "8", "--eps-bin", "nan"],
        ["ftrl", "--n", "8", "--d", "2", "--eps", "nan"],
        ["ftrl", "--n", "8", "--d", "2", "--kappa", "nan"],
        ["ftrl", "--n", "8", "--d", "2", "--radius", "nan"],
    ],
)
def test_nan_parameter_is_refused(tmp_path, capsys, args):
    if args[0] == "count":
        bits = tmp_path / "bits.txt"
        bits.write_text("1\n0\n1\n")
        args = args + ["--input", str(bits)]
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("contcount: error: ") and "must be positive" in err


def test_horizon_beyond_memory_is_clean_error(capsys):
    # 10^15 float64 coefficients are 7.11 PiB, past the address space: numpy
    # refuses the allocation at once, without touching memory
    code, out, err = run_cli(["coeffs", "--n", str(10**15)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("contcount: error: Unable to allocate 7.11 PiB")


def test_count_negative_seed_is_usage_error(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n0\n1\n")
    args = ["count", "--input", str(bits), "--seed", "-1"]
    message = "contcount count: error: argument --seed: expected a non-negative integer, got -1"
    _assert_usage_error(args, message, tmp_path, capsys)


def test_compare_n_max_limit(tmp_path, capsys):
    # the last accepted value gives the row builder's bytes (octaves up to 2^1014) ...
    last = cli.N_MAX_LIMIT
    assert last == 2**1015 - 1
    args = ["compare", "--n-max", str(last)]
    want = functools.partial(_reference_compare_csv, last, 1.0, 1.0, 1e-10)
    _assert_same_outcome(args, want, tmp_path, capsys)
    # ... where the first refused one made the row builder overflow
    with pytest.raises(OverflowError):
        _reference_compare_csv(last + 1, 1.0, 1.0, 1e-10)
    message = (
        "contcount compare: error: argument --n-max: at most 2**1015 - 1 is accepted "
        f"(the closed forms overflow float64 from n = 2**1015), got {last + 1}"
    )
    _assert_usage_error(["compare", "--n-max", str(last + 1)], message, tmp_path, capsys)


def test_compare_is_finite_up_to_its_limit(capsys):
    # the binary column's product C^2 (1 + m)(n m / 2 + 1) alone overflows
    # from n = 2^999 on; the division by n must come first
    code, out, err = run_cli(["compare", "--n-max", str(cli.N_MAX_LIMIT)], capsys)
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert len(rows) == 1014
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


@pytest.mark.parametrize(
    "args, budget",
    [
        (["count", "--eps", "1e-310"], "epsilon=1e-310, delta=1e-10"),
        (["compare", "--n-max", "8", "--eps-fact", "1e-300"], "epsilon=1e-300, delta=1e-10"),
        (["compare", "--n-max", "8", "--eps-bin", "1e-200"], "epsilon=1e-200, delta=1e-10"),
        (["ftrl", "--n", "8", "--d", "2", "--eps", "1e-300"], "epsilon=1e-300, delta=1e-06"),
        (["count", "--delta", "5e-324"], "epsilon=1.0, delta=5e-324"),
    ],
)
def test_budget_whose_noise_overflows_is_refused(tmp_path, capsys, args, budget):
    # with C^2 = inf, count would print inf/-inf counts and compare inf bounds
    if args[0] == "count":
        bits = tmp_path / "bits.txt"
        bits.write_text("1\n0\n1\n")
        args = args + ["--input", str(bits)]
    code, out, err = run_cli(args, capsys)
    message = f"contcount: error: C(eps, delta)^2 overflows float64 at {budget}\n"
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize(
    "args,flag,kind",
    [
        (["coeffs", "--n", "abc"], "--n", "positive"),
        (["count", "--n", "1.5"], "--n", "positive"),
        (["ftrl", "--n", "8", "--d", "x"], "--d", "positive"),
        (["ftrl", "--n", "8", "--d", "2", "--seeds-count", "two"], "--seeds-count", "positive"),
        (["count", "--seed", "abc"], "--seed", "non-negative"),
        (["ftrl", "--n", "8", "--d", "2", "--seed", "0x1"], "--seed", "non-negative"),
        (["compare", "--n-max", "abc"], "--n-max", "positive"),
    ],
)
def test_non_integer_flag_is_readable_usage_error(tmp_path, capsys, args, flag, kind):
    value = args[args.index(flag) + 1]
    message = f"contcount {args[0]}: error: argument {flag}: expected a {kind} integer, got {value}"
    _assert_usage_error(args, message, tmp_path, capsys)


def _reference_emit(header, row_format, columns):
    """The ``%``-tuple writer that ``_emit_columns`` replaced, unchunked: the
    byte-for-byte reference of the numpy row builder."""
    n, width = len(columns[0]), len(columns)
    cells = [None] * (width * n)
    for i, column in enumerate(columns):
        cells[i::width] = column.tolist()
    return header + "\n" + (row_format * n) % tuple(cells)


def _assert_writer_matches(row_format, columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_columns(header, row_format, columns, None)
    assert out.getvalue() == _reference_emit(header, row_format, columns)


def _g17_cases(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def _powers_of_ten_neighbours(steps=40):
    out = []
    for k in range(-6, 19):
        for start in (10.0**k, float(f"1e{k}")):
            below = above = start
            out.append(start)
            for _ in range(steps):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
                out += [below, above]
    return _g17_cases(out)


def _eighteenth_digit_ties():
    # at decimal exponent E the 17 digits are x * 10^(16 - E): these x make
    # that product end in exactly .5, so round-half-even decides the last digit
    k = np.arange(4000)
    odd = 2 * k + 1
    parts = [1e15 + k / 4, 2e15 + k / 4, 1e14 + k / 8, 5e14 + k / 8, 1e13 + k / 16]
    parts += [0.5 + odd * 2.0**-18, (odd[105:1048] + 104) * 2.0**-21]  # E = -1 and E = -4
    return _g17_cases(np.concatenate(parts))


G17_EDGES = _g17_cases(
    [100.5, 1e16, 1e17 - 16, 1e17, 1e17 + 16, 1e-4, np.nextafter(1e-4, 0.0), 1e-5, 0.1, 0.5, 1.0, 2.0]
    + [9.5, 99.5, 999.5, 123456789012345678.0, 1.2345678901234567e16, 0.30000000000000004]
    + [5e-324, 2.2250738585072014e-308, sys.float_info.max, 2.0**53, 2.0**53 + 2, 2.0**56 - 8]
    + [0.0, math.inf, math.nan]
)


@pytest.mark.parametrize(
    "values",
    [_powers_of_ten_neighbours(), _eighteenth_digit_ties(), G17_EDGES],
    ids=["powers-of-ten-neighbours", "18th-digit-ties", "edges"],
)
def test_writer_matches_percent_writer_on_floats(values):
    _assert_writer_matches("%.17g\n", [values])


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=64, max_size=64),
)
def test_writer_matches_percent_writer_on_bit_patterns(patterns, ints):
    floats = np.array(patterns, dtype=np.uint64).view(np.float64)
    ints = np.array(ints[: len(floats)], dtype=np.int64)
    _assert_writer_matches("%.17g,%d,%.17g\n", [floats, ints, floats[::-1]])


def test_writer_matches_percent_writer_on_ints_and_objects():
    rng = np.random.default_rng(4)
    extremes = [-(2**63), 2**63 - 1, -(2**63) + 1, 0, -1, 1, 9, -10, 10**18, -(10**18)]
    ints = np.concatenate([extremes, rng.integers(-(2**63), 2**63 - 1, 500), rng.integers(-99, 99, 500)])
    ints = ints.astype(np.int64)
    big = np.resize(np.array([2**70, -(2**80), 2**63, -(2**63) - 1, 0], dtype=object), len(ints))
    labels = np.resize(np.array(["true", "false", "naïve", ""]), len(ints))
    floats = np.linspace(-3.0, 3.0, len(ints))
    _assert_writer_matches("%d,%d,%s,%.17g\n", [ints, big, labels, floats])
    _assert_writer_matches("%d\n", [np.array([-(2**63)], dtype=np.int64)])
    _assert_writer_matches("%d\n", [np.array([2**63 - 1], dtype=np.int64)])


# 2047..6151 also check row counts that are not chunk edges
@pytest.mark.parametrize(
    "n",
    [1, 2047, 2048, 2049, 6151]
    + [cli.CHUNK_ROWS - 1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1, 3 * cli.CHUNK_ROWS + 7],
)
def test_writer_matches_percent_writer_across_chunks(tmp_path, n):
    rng = np.random.default_rng(n)
    true = np.cumsum(rng.integers(0, 2, n))
    noisy = true + rng.normal(size=n) * 10.0 ** rng.uniform(-8, 18, n)
    noisy[rng.integers(0, n, max(1, n // 50))] = 0.0  # fallback cells inside chunks
    columns = [np.arange(1, n + 1), true, noisy]
    _assert_writer_matches("%d,%d,%.17g\n", columns)
    path = tmp_path / "out.csv"
    cli._emit_columns("t,true_count,noisy_count", "%d,%d,%.17g\n", columns, str(path))
    want = _reference_emit("t,true_count,noisy_count", "%d,%d,%.17g\n", columns)
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("n", [1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1, 2 * cli.CHUNK_ROWS + 5])
def test_writer_range_column_equals_arange_column(tmp_path, n):
    """A ``range`` column, built one chunk at a time, writes the bytes of
    the full ``np.arange`` column."""
    values = np.random.default_rng(n).normal(size=n)
    for first in (0, 1):
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        cli._emit_columns("i,v", "%d,%.17g\n", [np.arange(first, first + n), values], str(want))
        cli._emit_columns("i,v", "%d,%.17g\n", [range(first, first + n), values], str(got))
        assert got.read_bytes() == want.read_bytes()


# Peak of tracemalloc's traced memory in ``count`` at n = 2^16, in units of
# 8n bytes (one float64 per round), per mechanism.  What sets each peak:
# the square root holds the draw and two spectra of about 2n values, the
# binary mechanism the 2n' - 1 = 2n draw, the n + 1 outputs and one tree
# level's indices and gathered noise (n/2 each), Honaker the draw and its
# n' sums.  Measured 5.13, 4.63 and 3.79 (7.01, 6.57 and 7.00 before the
# prefix sums were shared, the bits held as int8 and the tree noise built
# without level copies).
COUNT_PEAK_BOUNDS = {"factorization": 5.5, "binary": 5.0, "honaker": 4.25}


@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_count_peak_traced_memory_is_bounded(tmp_path, kind):
    """``count`` at n = 2^16 keeps its traced peak under
    ``COUNT_PEAK_BOUNDS[kind]`` times 8n bytes.  tracemalloc sees numpy's
    arrays but not pocketfft's internal buffers (a plan and a work array of
    the transform length), so the square root's true peak is higher."""
    import tracemalloc

    n = 2**16
    bits = tmp_path / "bits.txt"
    bits.write_bytes(b"".join(b"%d\n" % b for b in np.random.default_rng(5).integers(0, 2, n)))
    args = ["count", "--input", str(bits), "--mechanism", kind, "--out", str(tmp_path / "out.csv")]
    # a first, shorter run through the same code paths does the imports and
    # set-up that a process pays once
    assert main(args[:-2] + ["--n", "513", "--out", str(tmp_path / "warm.csv")]) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= COUNT_PEAK_BOUNDS[kind] * 8 * n, peak / (8 * n)


def test_writer_keeps_nul_in_percent_s_cells():
    labels = np.array(["a\0b", "", "\0", "plain", "tail\0", "naïve\0"], dtype=object)
    ints = np.array([1, -2, 30000, 4, 10**12, -(2**63)], dtype=np.int64)
    floats = np.array([0.5, -1e20, 3.25, 0.0, math.nan, 1e-7])
    _assert_writer_matches("%s\n", [labels])
    _assert_writer_matches("%s\n", [np.array(["x\0y", "z"])])
    _assert_writer_matches("%d,%s,%.17g\n", [ints, labels, floats])
    _assert_writer_matches("%.17g,%d,%s\n", [floats, ints, labels])
    # one chunk holds a NUL, the others go through the slot matrix
    n = 2 * cli.CHUNK_ROWS + 5
    text = np.resize(np.array(["a", "bc", "€"], dtype=object), n)
    text[cli.CHUNK_ROWS + 3] = "\0"
    _assert_writer_matches("%d,%s,%.17g\n", [np.arange(n), text, np.linspace(-2.0, 2.0, n)])


# %d words hold 4 digits: values on both sides of each word edge
INT_WORD_EDGES = np.array(
    [v * s for v in (0, 1, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**16, 10**18) for s in (1, -1)]
    + [2**63 - 1, -(2**63 - 1), -(2**63)],
    dtype=np.int64,
)


def test_writer_matches_percent_writer_on_int_word_edges():
    _assert_writer_matches("%d\n", [INT_WORD_EDGES])
    for value in INT_WORD_EDGES:
        _assert_writer_matches("%d\n", [np.array([value], dtype=np.int64)])
    _assert_writer_matches("%d\n", [np.abs(INT_WORD_EDGES[:-1])])
    _assert_writer_matches("%d,%d\n", [INT_WORD_EDGES, INT_WORD_EDGES[::-1]])


def test_writer_matches_percent_writer_on_mixed_width_columns():
    rng = np.random.default_rng(9)
    n = 300
    narrow = rng.integers(0, 10, n)
    wide = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64)
    middle = rng.integers(10**7, 10**9, n)
    floats = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 20, n)
    _assert_writer_matches("%d,%d,%.17g,%d\n", [narrow, wide, floats, middle])
    _assert_writer_matches("%.17g,%d,%d\n", [floats, middle, narrow])
    # columns are 1-D: a 2-D column is refused
    with pytest.raises(ValueError, match="1-D"):
        format_csv_rows("%d,%.17g\n", [np.stack([narrow, wide, middle], axis=1), floats])


@pytest.mark.parametrize("kind", MECHANISM_KINDS)
@pytest.mark.parametrize("n", [9999, 10000, 10001])
def test_count_output_matches_row_formatter_at_fifth_t_digit(tmp_path, capsys, kind, n):
    bits = np.random.default_rng(n).integers(0, 2, size=n)
    path = tmp_path / "bits.txt"
    path.write_text("".join(f"{b}\n" for b in bits))
    noisy = release(kind, bits, PrivacyBudget(1.0, 1e-10), 5)
    args = ["count", "--input", str(path), "--mechanism", kind, "--seed", "5"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == _reference_count_csv(bits, noisy)


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n0\n1\n1\n")
    runs = [
        ["count", "--input", str(bits), "--seed", "3"],
        ["count", "--input", str(bits), "--n", "x"],  # usage error, exit 2
        ["compare", "--n-max", "64"],
        ["count", "--input", str(bits), "--mechanism", "binary", "--eps", "0.5", "--n", "3"],
    ]

    def outcome(args):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    want = []
    for args in runs:  # each with a fresh parser
        monkeypatch.setattr(cli, "_PARSER", None)
        want.append(outcome(args))
    assert [code for code, _, _ in want] == [0, 2, 0, 0]
    monkeypatch.setattr(cli, "_PARSER", None)
    calls = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build_parser())
    assert [outcome(args) for args in runs] == want
    assert len(calls) == 1


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--kappa=inf"], "kappa must be positive and finite, got inf"),
        (["--kappa=-inf"], "kappa must be positive and finite, got -inf"),
        (["--radius=inf"], "radius must be positive and finite, got inf"),
        (
            ["--kappa=1e308"],
            "regularization strength overflows float64 at kappa=1e+308, radius=1.0",
        ),
        (
            ["--kappa=1e-300", "--radius=1e300"],
            "regularization strength underflows float64 at kappa=1e-300, radius=1e+300",
        ),
    ],
)
def test_ftrl_refuses_non_finite_parameters(capsys, flags, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["ftrl", "--n", "8", "--d", "2", *flags], capsys)
    assert (code, out, err) == (1, "", f"contcount: error: {message}\n")


def test_ftrl_accepts_infinite_epsilon(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["ftrl", "--n", "8", "--d", "2", "--eps", "inf"], capsys)
    assert code == 0 and err == ""
    assert out.startswith("seed,regret,bound\n0,")
