import math
import subprocess
import sys

import numpy as np
import pytest

from contcount.cli import main
from contcount.factorization import suboptimality_ratio
from contcount.linalg import write_matrix_csv
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

    coeffs = sqrt_coefficients(40).coeffs
    for line in out.splitlines()[1:]:
        k, value = line.split(",")
        assert float(value) == coeffs[int(k)]


def test_comparison_row_invariant():
    from contcount.cli import ComparisonRow, comparison_rows

    rows = comparison_rows(1024, 0.3, 0.8, 1e-10)
    assert [row.n for row in rows] == [2**k for k in range(1, 11)]
    for row in rows:
        assert row.ratio_binary_over_fact > 0
    with pytest.raises(ValueError):
        ComparisonRow(
            n=2,
            eps_fact=1.0,
            eps_bin=1.0,
            delta=1e-10,
            err_fact_upper=1.0,
            err_lower_matrix_mech=2.0,
            err_binary_expected=3.0,
        )


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
