"""The measured process: set-up, then timed passes over one workload's ops.

``run.py`` starts it with a plan file it wrote; it is not meant to be run by
hand.  ``python3 worker.py PLAN --setup-only`` stops after set-up and
prints the moment set-up ended (CLOCK_MONOTONIC, shared by all processes
on the machine) as JSON, so the runner can time set-up from a fresh
interpreter.  Without ``--setup-only`` it runs passes until the plan's
seconds are used up and writes a result file.

One pass runs every op once, one after another (closed loop, one thread).
Only the ops' own work is timed; saving payloads and comparing a pass's
outputs with the first pass's happen between passes.  In a traced run,
passes alternate traced, untraced, traced, ..., so the tracing overhead is
measured within the same process.
"""

from __future__ import annotations

import filecmp
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import COUNT_DELTA, COUNT_EPS, FTRL_DELTA, FTRL_EPS


def _cli(args: list[str]) -> None:
    import contcount.cli

    try:
        code = contcount.cli.main(args)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        code = exc.code
    if code != 0:
        raise RuntimeError(f"contcount {args[0]} exited with {code}")


class Context:
    """Inputs and set-up objects of one worker process."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.workdir = Path(plan["workdir"])
        self.counters: dict = {}  # online op name -> counter for the next pass
        self.facts: dict = {}  # mc op name -> prebuilt factorization
        self.bits: list[int] = []

    def budget(self):
        import contcount.mechanism

        return contcount.mechanism.PrivacyBudget(epsilon=COUNT_EPS, delta=COUNT_DELTA)

    def prepare(self, op: dict) -> None:
        """Build the up-front object an op needs, outside the timed passes."""
        import contcount.factorization
        import contcount.mechanism

        if op["kind"] == "online":
            self.counters[op["name"]] = contcount.mechanism.StreamingCounter(op["n"], self.budget(), op["seed"])
        elif op["kind"] == "mc" and op["mechanism"] == "honaker" and op["name"] not in self.facts:
            self.facts[op["name"]] = contcount.factorization.honaker_left(op["n"])

    def output(self, op: dict, k: int) -> Path:
        ext = {"online": "npy", "mc": "json"}.get(op["kind"], "csv")
        return self.workdir / f"{op['name']}.p{k}.{ext}"


def run_op(op: dict, k: int, ctx: Context):
    """Run one op; returns (seconds, rounds, payload).  Only the op's work is timed."""
    import numpy as np

    import contcount.mechanism

    out = str(ctx.output(op, k))
    kind = op["kind"]
    if kind == "online":
        counter = ctx.counters.pop(op["name"])
        n = op["n"]
        values = np.empty(n)
        lat = np.empty(n, dtype=np.int64)
        clock = time.perf_counter_ns
        step = counter.step
        bits = ctx.bits[:n]
        start = time.perf_counter()
        for i, bit in enumerate(bits):
            a = clock()
            y = step(bit)
            b = clock()
            lat[i] = b - a
            values[i] = y
        return time.perf_counter() - start, n, (values, lat)
    start = time.perf_counter()
    if kind == "count":
        _cli(["count", "--input", ctx.plan["bits"], "--n", str(op["n"]), "--mechanism", op["mechanism"],
              "--eps", repr(COUNT_EPS), "--delta", repr(COUNT_DELTA), "--seed", str(op["seed"]), "--out", out])
        rounds, payload = op["n"], None
    elif kind == "mc":
        payload = contcount.mechanism.monte_carlo_mse(
            op["mechanism"], op["n"], op["trials"], ctx.budget(), op["seed"], fact=ctx.facts.get(op["name"])
        )
        rounds = op["n"] * op["trials"]
    elif kind == "ftrl":
        _cli(["ftrl", "--n", str(op["n"]), "--d", str(op["d"]), "--eps", repr(FTRL_EPS), "--delta", repr(FTRL_DELTA),
              "--seed", str(op["seed"]), "--seeds-count", str(op["seeds"]), "--out", out])
        rounds, payload = op["n"] * op["seeds"], None
    elif kind == "certify":
        _cli(["certify", "--matrix", ctx.plan["matrix"], "--out", out])
        rounds, payload = 0, None
    elif kind == "compare":
        _cli(["compare", "--n-max", str(op["n_max"]), "--eps-fact", repr(COUNT_EPS), "--eps-bin", repr(COUNT_EPS),
              "--delta", repr(COUNT_DELTA), "--out", out])
        rounds, payload = 0, None
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return time.perf_counter() - start, rounds, payload


def run_pass(k: int, ctx: Context, tracer) -> dict:
    traced = tracer is not None and tracer.current == k
    records = []
    payloads = []
    pass_frame = tracer.begin("bench.pass") if traced else None
    start = time.perf_counter()
    for op in ctx.plan["ops"]:
        frame = tracer.begin(f"bench.{op['name']}") if traced else None
        rec = {"name": op["name"], "seconds": 0.0, "rounds": 0, "error": None}
        payload = None
        try:
            rec["seconds"], rec["rounds"], payload = run_op(op, k, ctx)
        except Exception as exc:  # an op that raises is counted as failed; the pass goes on
            traceback.print_exc()
            rec["error"] = f"{type(exc).__name__}: {exc}"
        if traced and op["kind"] == "online" and payload is not None:
            step_s = float(payload[1].sum()) * 1e-9
            tracer.add_child_time(step_s)
            tracer.per_pass[k]["mechanism.step_s"] += step_s
            tracer.per_pass[k]["mechanism.self_s"] += step_s
        if frame is not None:
            tracer.end(frame)
        records.append(rec)
        payloads.append(payload)
    wall = time.perf_counter() - start
    if pass_frame is not None:
        tracer.end(pass_frame)
    return {"k": k, "traced": traced, "wall_s": wall, "ops": records, "payloads": payloads}


def finish_pass(done: dict, ctx: Context, tracer) -> dict:
    """Untimed work after a pass: save payloads, compare outputs with pass 0."""
    import numpy as np

    k = done["k"]
    for op, rec, payload in zip(ctx.plan["ops"], done["ops"], done.pop("payloads")):
        path = ctx.output(op, k)
        if rec["error"] is None:
            if op["kind"] == "online":
                values, lat = payload
                np.save(path, values)
                p50, p99 = np.percentile(lat, [50, 99]) / 1e3
                rec["lat_p50_us"], rec["lat_p99_us"], rec["lat_samples"] = float(p50), float(p99), len(lat)
            elif op["kind"] == "mc":
                path.write_text(json.dumps({"estimate": payload[0], "stderr": payload[1]}))
            if op["kind"] in ("count", "certify"):
                rec["bytes_in"] = os.path.getsize(ctx.plan["bits" if op["kind"] == "count" else "matrix"])
            if op["kind"] in ("count", "ftrl", "certify", "compare"):
                rec["bytes_out"] = os.path.getsize(path)
            if done["traced"]:
                tracer.per_pass[k]["cli.bytes_in"] += rec.get("bytes_in", 0)
                tracer.per_pass[k]["cli.bytes_out"] += rec.get("bytes_out", 0)
        rec["output"] = str(ctx.output(op, 0))
        if k > 0:
            rec["same_as_first"] = path.exists() and filecmp.cmp(path, ctx.output(op, 0), shallow=False)
            if rec["same_as_first"]:
                path.unlink()
    return done


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, or 'unknown'."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def main(argv: list[str]) -> int:
    started = time.monotonic()
    plan = json.loads(Path(argv[1]).read_text())
    setup_only = "--setup-only" in argv[2:]
    sys.path.insert(0, plan["src"])
    tracer = None
    if plan["trace"] and not setup_only:
        import tracing

        tracer = tracing.Tracer()
    import contcount.cli  # noqa: F401  (set-up includes importing the CLI)

    if tracer is not None:
        tracer.install()
    ctx = Context(plan)
    for op in plan["ops"]:
        ctx.prepare(op)
    setup_done = time.monotonic()
    if setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    if any(op["kind"] == "online" for op in plan["ops"]):
        ctx.bits = [int(b) for b in Path(plan["bits"]).read_bytes().split()]
    passes = []
    deadline = time.perf_counter() + plan["seconds"]
    k = 0
    while True:
        if tracer is not None:
            if k % 2 == 0:
                tracer.install()
                tracer.current = k
            else:
                tracer.uninstall()
                tracer.current = "untraced"
        passes.append(finish_pass(run_pass(k, ctx, tracer), ctx, tracer))
        k += 1
        if time.perf_counter() >= deadline and (tracer is None or k >= 2):
            break
        if tracer is not None:
            tracer.current = "between"
        for op in plan["ops"]:
            ctx.prepare(op)

    result = {
        "setup_done": setup_done,
        "setup_in_process_s": setup_done - started,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        tracer.uninstall()
        traced = [p for p in passes if p["traced"]]
        result["layers"] = tracer.metrics(
            [p["k"] for p in traced],
            [p["wall_s"] for p in traced],
            [p["wall_s"] for p in passes if not p["traced"]],
            result["setup_in_process_s"],
        )
        result["trace_missing"] = tracer.missing
        Path(plan["spans"]).write_text(json.dumps({
            "workload": plan["workload"],
            "seed": plan["seed"],
            "spans": tracer.spans,
            "per_pass": {str(key): dict(value) for key, value in tracer.per_pass.items()},
            "whole_run": dict(tracer.whole),
        }))
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
