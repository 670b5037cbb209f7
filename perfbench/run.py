"""Benchmark of the contcount toolkit, driven from outside the program.

    python3 perfbench/run.py --workload release-sqrt --seed 1 --seconds 20 --trace 0

Run from the root of a checkout holding ``src/contcount``.  The runner

1. generates the workload's inputs from ``--seed`` (bit file, CSV matrix);
2. times set-up several times, each in a fresh interpreter: import
   ``contcount`` and ``contcount.cli``, then build the workload's up-front
   objects;
3. starts one more fresh process (the measured process) that sets up the
   same way and then runs passes over the workload's ops until
   ``--seconds`` are used up (closed loop: one thread, each op starts when
   the previous one ends; BLAS is left at its default thread count), then
   times set-up a few more times; ``setup_s`` is the median of all set-ups;
4. checks every output against an independent numpy recomputation;
5. prints a run record and every metric by name with its unit, then, as the
   last line, one JSON object with ``correct``, ``attempted``, ``failed``
   and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json
(``wall_s`` is the mean pass and the rates are totals over the run, see
``totals``);
with ``--trace 1`` the measured process alternates traced and untraced
passes and the metrics are the per-layer ones from ``tracing.py``.  Spans
are written to ``.perfbench/trace-<workload>.json``.  Scratch files live
in ``.perfbench/`` and are removed at the end of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import (
    BITS_DENSITY,
    COUNT_DELTA,
    COUNT_EPS,
    FTRL_DELTA,
    FTRL_EPS,
    WORKLOADS,
    ops_for,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end metrics: name, unit.  Each is defined on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rounds_per_s", "rounds/s"),
    ("peak_rss_mb", "MB"),
)
# Fresh-interpreter set-ups per run besides the measured process's own, half
# before it and half after it, so that the median spans the whole run rather
# than one stretch of the host's drifting speed.  Per side: up to
# SETUP_SAMPLES, at least SETUP_MIN, stopping once SETUP_BUDGET_S is spent.
SETUP_SAMPLES = 5
SETUP_MIN = 2
SETUP_BUDGET_S = 2.0
# A run that has not finished by then is stopped and reported as broken.
RUN_LIMIT_S = 170.0


def median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def generate_inputs(ops: list[dict], seed: int, workdir: Path) -> dict:
    """Write the op inputs; returns their paths and in-memory copies for the checks."""
    inputs = {}
    kinds = {op["kind"] for op in ops}
    if kinds & {"online", "count"}:
        lines = max(op["n"] for op in ops if op["kind"] in ("online", "count"))
        bits = (np.random.default_rng([seed, 0]).random(lines) < BITS_DENSITY).astype(np.int64)
        path = workdir / "bits.txt"
        path.write_bytes(b"\n".join(b"1" if b else b"0" for b in bits) + b"\n")
        inputs["bits"], inputs["bits_array"] = str(path), bits
    if "certify" in kinds:
        (size,) = {op["size"] for op in ops if op["kind"] == "certify"}
        matrix = np.random.default_rng([seed, 1]).standard_normal((size, size))
        path = workdir / "matrix.csv"
        path.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in matrix))
        inputs["matrix"], inputs["matrix_array"] = str(path), matrix
    return inputs


def _worker(plan_path: Path, deadline: float, setup_only: bool) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path)] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited with {proc.returncode}")
    return proc.stdout


def sample_setups(plan_path: Path, deadline: float) -> list[float]:
    """Set-up times of fresh interpreters, from spawn to set-up done (see SETUP_SAMPLES)."""
    setups = []
    sampling = time.monotonic()
    while len(setups) < SETUP_SAMPLES and (len(setups) < SETUP_MIN or time.monotonic() - sampling < SETUP_BUDGET_S):
        spawned = time.monotonic()
        setups.append(json.loads(_worker(plan_path, deadline, True))["setup_done"] - spawned)
    return setups


def check_outputs(ops: list[dict], first: list[dict], inputs: dict) -> dict:
    """Check the first pass's outputs; returns failure messages per op name."""
    c = checks.noise_multiplier(COUNT_EPS, COUNT_DELTA)
    cache = checks.Cache()
    outputs = {rec["name"]: rec["output"] for rec in first}
    fails = {}
    for op, rec in zip(ops, first):
        path = rec["output"]
        if rec["error"] is not None:
            fails[op["name"]] = [f"{op['name']}: {rec['error']}"]
        elif op["kind"] == "count":
            fails[op["name"]] = checks.check_count(path, inputs["bits_array"], op, c, cache)
        elif op["kind"] == "online":
            fails[op["name"]] = checks.check_online(path, inputs["bits_array"], op, c, outputs.get("count-sqrt"))
        elif op["kind"] == "mc":
            fails[op["name"]] = checks.check_mc(path, op, c, cache)
        elif op["kind"] == "ftrl":
            fails[op["name"]] = checks.check_ftrl(path, op, FTRL_EPS, FTRL_DELTA)
        elif op["kind"] == "certify":
            fails[op["name"]] = checks.check_certify(path, op, inputs["matrix_array"])
        else:
            fails[op["name"]] = checks.check_compare(path, op, COUNT_EPS, COUNT_DELTA)
    return fails


def tally(passes: list[dict], first_fails: dict) -> tuple[int, int, list[str]]:
    """Ops attempted and failed over all passes, with the failure messages."""
    attempted = failed = 0
    messages = [m for ms in first_fails.values() for m in ms]
    for p in passes:
        for rec in p["ops"]:
            attempted += 1
            bad = rec["error"] is not None or bool(first_fails.get(rec["name"]))
            if p["k"] > 0 and not rec.get("same_as_first", False):
                bad = True
                messages.append(f"{rec['name']}: pass {p['k']} output differs from pass 0 for the same seed")
            failed += bad
    return attempted, failed, messages


def totals(passes: list[dict]) -> dict:
    """Each op's seconds, rounds and runs summed over the passes: {name: (seconds, rounds, runs)}.

    Every pass repeats the same work on the same inputs, so the spread
    between passes comes from the host, not the program: on a shared
    machine the cores switch between a fast and a ~1.6x slower state, and
    which state dominates changes from minute to minute.  The median pass
    and the fastest pass each jump from one state to the other as the slow
    share of a run crosses a threshold (one half, or nearly all); the total
    time moves only in proportion to that share, so the figures are work
    done over time spent.  Ops that raised are left out; they are counted
    as failed.
    """
    sums = {}
    for p in passes:
        for r in p["ops"]:
            if r["error"] is None:
                seconds, rounds, runs = sums.get(r["name"], (0.0, 0, 0))
                sums[r["name"]] = (seconds + r["seconds"], rounds + r["rounds"], runs + 1)
    return sums


def _rate(sums: dict, names) -> float:
    """Rounds released by the named ops over all passes / their seconds."""
    picked = [sums[name] for name in names if name in sums]
    seconds = sum(s for s, _, _ in picked)
    return sum(r for _, r, _ in picked) / seconds if seconds > 0 else float("nan")


def figures(passes: list[dict], setups: list[float], peak_rss_kb: int, ops: list[dict]) -> dict:
    """End-to-end metrics plus the workload-specific figures, as {name: (value, unit)}."""
    sums = totals(passes)
    kind = {op["name"]: op["kind"] for op in ops}
    out = {
        "setup_s": (median(setups), "s"),
        "wall_s": (float(np.mean([p["wall_s"] for p in passes])), "s"),
        "rounds_per_s": (_rate(sums, [name for name, (_, r, _) in sums.items() if r > 0]), "rounds/s"),
        "peak_rss_mb": (peak_rss_kb * 1024 / 1e6, "MB"),
        "median_pass_s": (median([p["wall_s"] for p in passes]), "s"),
    }
    if any(k == "count" for k in kind.values()):
        out["count_rounds_per_s"] = (_rate(sums, [n for n, k in kind.items() if k == "count"]), "rounds/s")
    online = [r for p in passes for r in p["ops"] if "lat_p50_us" in r]
    if online:
        out["online_round_p50_us"] = (median([r["lat_p50_us"] for r in online]), "us")
        out["online_round_p99_us"] = (median([r["lat_p99_us"] for r in online]), "us")
        out["online_round_samples"] = (float(online[0]["lat_samples"]), "count")
    if any(k == "mc" for k in kind.values()):
        mc = [(op["trials"], sums[op["name"]]) for op in ops if op["kind"] == "mc" and op["name"] in sums]
        seconds = sum(s for _, (s, _, _) in mc)
        trials = sum(t * runs for t, (_, _, runs) in mc)
        out["mc_trials_per_s"] = (trials / seconds if seconds > 0 else float("nan"), "trials/s")
    if "ftrl" in kind:
        out["ftrl_rounds_per_s"] = (_rate(sums, ["ftrl"]), "rounds/s")
    if "certify" in kind and "certify" in sums:
        seconds, _, runs = sums["certify"]
        out["certify_s"] = (seconds / runs, "s")
    return out


def run_record(workload: str, seed: int, seconds: float, trace: int, worker: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "contcount").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": metadata.version("scipy"), "blas_threads": worker.get("blas_threads"),
        "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
        "load": "closed loop, 1 process, 1 thread",
    }


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False, keep: bool = False) -> dict:
    """One benchmark run; returns the printed summary as a dict (see ``main``)."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = ops_for(workload, seed, smoke)
        inputs = generate_inputs(ops, seed, workdir)
        plan = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "ops": ops,
            "src": str(ROOT / "src"), "workdir": str(workdir), "bits": inputs.get("bits"),
            "matrix": inputs.get("matrix"), "result": str(workdir / "result.json"),
            "spans": str(scratch / f"trace-{workload}.json"),
        }
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))

        setups = [] if trace else sample_setups(plan_path, deadline)
        spawned = time.monotonic()
        _worker(plan_path, deadline, False)
        worker = json.loads(Path(plan["result"]).read_text())
        setups.append(worker["setup_done"] - spawned)
        if not trace:
            setups += sample_setups(plan_path, deadline)

        passes = worker["passes"]
        first_fails = check_outputs(ops, passes[0]["ops"], inputs)
        attempted, failed, messages = tally(passes, first_fails)
        summary = {
            "record": run_record(workload, seed, seconds, trace, worker),
            "figures": figures([p for p in passes if not p["traced"]], setups, worker["peak_rss_kb"], ops),
            "passes": passes, "setups": setups, "messages": messages,
            "attempted": attempted, "failed": failed, "workdir": str(workdir),
            "ops": ops, "inputs": inputs,
        }
        if trace:
            summary["layers"] = worker["layers"]
            summary["trace_missing"] = worker["trace_missing"]
        return summary
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)


def report(summary: dict, trace: int) -> dict:
    """Print the run record and every metric; return the result object."""
    print(f"# record {json.dumps(summary['record'])}")
    walls = ", ".join(f"{p['wall_s']:.4f}{'T' if p['traced'] else ''}" for p in summary["passes"])
    print(f"# passes {len(summary['passes'])} (wall_s: {walls}); set-ups: "
          + ", ".join(f"{s:.4f}" for s in summary["setups"]))
    for message in summary["messages"]:
        print(f"# FAILED {message}")
    frac = summary["failed"] / summary["attempted"]
    print(f"# ops attempted {summary['attempted']}, failed {summary['failed']}, ops_failed_frac {frac:.6g}")
    for name, (value, unit) in summary["figures"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    if trace:
        layers = summary["layers"]
        for name, unit, moves in tracing.LAYER_METRICS:
            print(f"layer {name} = {layers[name]:.6g} {unit}  -> {moves}")
        self_total = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        print(f"# accounting: layer self {self_total:.4f} s + bench self {layers['bench.self_s']:.4f} s "
              f"= traced pass {layers['trace.traced_wall_s']:.4f} s; minus overhead "
              f"{layers['trace.overhead_s']:.4f} s = untraced pass {layers['trace.untraced_wall_s']:.4f} s")
        print("# wait time: none recorded; nothing runs concurrently (one process, one thread)")
        if summary["trace_missing"]:
            print(f"# not traced (name not found): {', '.join(summary['trace_missing'])}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics = {name: {"value": summary["figures"][name][0], "unit": unit} for name, unit in END_TO_END}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "contcount" / "__init__.py").is_file():
        print(f"perfbench: no contcount sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    summary = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report(summary, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
