"""The benchmark's own tests: smoke runs, injected faults, metric names.

    python3 -m pytest perfbench/selftest.py -q

Smoke runs use the tiny sizes in ``workloads.SMOKE_SIZES``; their figures
mean nothing, only their correctness and shape are tested.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke():
    summaries = {}
    try:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                summaries[workload, trace] = run.run(workload, 5, 0, trace, smoke=True, keep=True)
        yield summaries
    finally:
        for summary in summaries.values():
            shutil.rmtree(summary["workdir"], ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_reports_every_metric(smoke, workload, trace):
    summary = smoke[workload, trace]
    result = run.report(summary, trace)
    assert summary["messages"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(summary["passes"]) * len(workloads.WORKLOADS[workload])
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        layers = summary["layers"]
        self_total = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS) + layers["bench.self_s"]
        assert self_total == pytest.approx(layers["trace.traced_wall_s"], abs=1e-3)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _shift_noisy(path: Path, row: int | None, delta: float = 0.0) -> None:
    """Shift the noisy count of one row by ``delta``; with row None, drop the noise from every row."""
    lines = path.read_text().splitlines()
    out = [lines[0]]
    for i, line in enumerate(lines[1:]):
        t, true, noisy = line.split(",")
        if row is None:
            noisy = true
        elif i == row:
            noisy = repr(float(noisy) + delta)
        out.append(f"{t},{true},{noisy}")
    path.write_text("\n".join(out) + "\n")


def _shift_estimate(path: Path) -> None:
    data = json.loads(path.read_text())
    data["estimate"] += 10 * data["stderr"]
    path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "workload, op, fault",
    [
        ("release-tree", "count-binary", lambda p: _shift_noisy(p, 7, 1e-6)),
        ("release-tree", "count-honaker", lambda p: _shift_noisy(p, None)),
        ("release-sqrt", "count-sqrt", lambda p: _shift_noisy(p, 100, 1e-6)),
        ("paper-experiments", "mc-binary", _shift_estimate),
    ],
    ids=["binary-one-count", "honaker-noise-skipped", "sqrt-one-count", "mc-estimate"],
)
def test_injected_fault_is_counted_as_failed_op(smoke, tmp_path, workload, op, fault):
    summary = smoke[workload, 0]
    first = [dict(rec) for rec in summary["passes"][0]["ops"]]
    (rec,) = [r for r in first if r["name"] == op]
    broken = tmp_path / Path(rec["output"]).name
    shutil.copy(rec["output"], broken)
    fault(broken)
    rec["output"] = str(broken)

    fails = run.check_outputs(summary["ops"], first, summary["inputs"])
    attempted, failed, _ = run.tally(summary["passes"], fails)
    bad_ops = sum(bool(v) for v in fails.values())
    assert fails[op] and failed == bad_ops * len(summary["passes"]) and attempted == summary["attempted"]
    # Only the broken op fails, and the online stream that must agree with it.
    assert all(not v for name, v in fails.items() if name not in (op, "online-sqrt"))


def test_noise_tolerance_sits_far_above_rounding(smoke):
    summary = smoke["release-tree", 0]
    (rec,) = [r for r in summary["passes"][0]["ops"] if r["name"] == "count-binary"]
    (op,) = [o for o in summary["ops"] if o["name"] == "count-binary"]
    rows = checks.read_count_csv(rec["output"])
    c = checks.noise_multiplier(workloads.COUNT_EPS, workloads.COUNT_DELTA)
    ref, std = checks.binary_noise(op["n"], op["seed"], c)
    assert np.max(np.abs(rows[:, 2] - rows[:, 1] - ref) / std) < 1e-3 * checks.NOISE_RTOL


def test_wall_is_the_mean_pass_and_rates_are_run_totals():
    def rec(name, seconds, rounds, error=None):
        return {"name": name, "seconds": seconds, "rounds": rounds, "error": error}

    ops = [{"name": "a", "kind": "count"}, {"name": "certify", "kind": "certify"}]
    passes = [
        {"wall_s": 5.0, "ops": [rec("a", 3.0, 100), rec("certify", 2.0, 0)]},
        {"wall_s": 4.0, "ops": [rec("a", 1.0, 100), rec("certify", 3.0, 0)]},
        {"wall_s": 6.0, "ops": [rec("a", 0.5, 100, "ValueError: x"), rec("certify", 5.5, 0)]},
    ]
    out = run.figures(passes, [0.3, 0.1, 0.2], 1000, ops)
    assert out["wall_s"][0] == pytest.approx(5.0)
    assert out["rounds_per_s"][0] == pytest.approx(200 / 4.0)
    assert out["certify_s"][0] == pytest.approx(3.5)
    assert out["setup_s"][0] == pytest.approx(0.2)


def test_metric_names_and_spec_shape():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, u) for n, u, _ in tracing.LAYER_METRICS]
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "release-sqrt", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
