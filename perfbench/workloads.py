"""The benchmark's workloads: which operations a pass runs, at which sizes.

This module is shared by the runner (``run.py``) and the measured process
(``worker.py``).  It imports nothing heavy, so loading it does not shift
the worker's set-up time.

Each op is a dict with a ``name``, a ``kind`` (what the worker does) and
the kind's parameters.  Per-op seeds are derived from the workload seed and
the op's position, and are the same in every pass of a run, so every pass
after the first must reproduce the first pass's outputs exactly.
"""

from __future__ import annotations

# Budget of every counting op (the CLI's defaults for ``count``).
COUNT_EPS = 1.0
COUNT_DELTA = 1e-10
# Budget of the ftrl op (the CLI's defaults for ``ftrl``).
FTRL_EPS = 1.0
FTRL_DELTA = 1e-6

# Density of ones in the generated bit file.  The file has as many lines as
# the workload's longest stream; every count op parses all of it.
BITS_DENSITY = 0.5

# Sizes are chosen so that each op takes well under a second on a 2-core
# box: a 35 s run then holds twenty or more passes, so that its totals
# average over the host's speed, which drifts over seconds.
WORKLOADS = {
    # Production path: one long stream through the square-root factorization.
    # Set-up builds the online counter, paying the first (cold) FFT call.
    "release-sqrt": [
        {"name": "online-sqrt", "kind": "online", "n": 2**17},
        {"name": "count-sqrt", "kind": "count", "mechanism": "factorization", "n": 2**17},
    ],
    # Tree baselines: Python tree indexing and a dense pseudoinverse.
    "release-tree": [
        {"name": "count-binary", "kind": "count", "mechanism": "binary", "n": 2**14},
        {"name": "count-honaker", "kind": "count", "mechanism": "honaker", "n": 768},
    ],
    # Research mix: many short-horizon counters, ftrl, certify, closed forms.
    # Set-up builds honaker_left(256) for the Honaker Monte-Carlo op.
    "paper-experiments": [
        {"name": "mc-factorization", "kind": "mc", "mechanism": "factorization", "n": 1024, "trials": 250},
        {"name": "mc-binary", "kind": "mc", "mechanism": "binary", "n": 256, "trials": 125},
        {"name": "mc-honaker", "kind": "mc", "mechanism": "honaker", "n": 256, "trials": 500},
        {"name": "ftrl", "kind": "ftrl", "n": 2048, "d": 5, "seeds": 5},
        {"name": "certify", "kind": "certify", "size": 512},
        {"name": "compare", "kind": "compare", "n_max": 2**30},
    ],
}

# Sizes for the benchmark's own smoke test; figures from them mean nothing.
SMOKE_SIZES = {
    "online-sqrt": {"n": 2**12},
    "count-sqrt": {"n": 2**12},
    "count-binary": {"n": 2**9},
    "count-honaker": {"n": 64},
    "mc-factorization": {"n": 64, "trials": 200},
    "mc-binary": {"n": 16, "trials": 200},
    "mc-honaker": {"n": 16, "trials": 200},
    "ftrl": {"n": 64, "d": 2, "seeds": 2},
    "certify": {"size": 32},
    "compare": {"n_max": 2**10},
}


def ops_for(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The ops of one pass of ``workload``, each with its derived seed."""
    ops = []
    for index, op in enumerate(WORKLOADS[workload]):
        op = dict(op, seed=seed * 64 + index)
        if smoke:
            op.update(SMOKE_SIZES[op["name"]])
        ops.append(op)
    # The online stream and the count op must share a seed for path agreement.
    by_name = {op["name"]: op for op in ops}
    if "online-sqrt" in by_name:
        by_name["online-sqrt"]["seed"] = by_name["count-sqrt"]["seed"]
    return ops
