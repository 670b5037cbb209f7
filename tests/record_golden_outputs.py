"""Golden output bytes: the cases ``test_golden_outputs.py`` recomputes, and
the script that records them in ``golden_outputs.json``.

A case is one CLI call, recorded as the sha256 of its ``--out`` file, or one
``monte_carlo_mse`` call, recorded as its (estimate, stderr) in
``float.hex``.  The file also holds the numpy version, Python version and
platform it was recorded on.  The test fails on any other numpy version and
prints both version strings: the normals, the FFT and the seeding are
numpy's, so a new numpy is checked against these bytes by rerunning this
script and reading which cases changed, not passed unseen.

Run from the repository root to rewrite the file:

    PYTHONPATH=src python tests/record_golden_outputs.py

It prints every case whose digest changed.  A change that moves output
bytes on purpose reruns it and lists those cases.  With ``--check`` the
file is only read: the script lists each changed, new or dropped case and
exits 1 if there is one, 0 if every byte is as recorded:

    PYTHONPATH=src python tests/record_golden_outputs.py --check
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from contcount import cli
from contcount.factorization import honaker_left
from contcount.mechanism import PrivacyBudget, monte_carlo_mse

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")

# ``count`` reads its first n bits from one file, written by ``compute_all``
BITS = "{bits}"
BITS_LENGTH = 32769
# ``certify`` reads the matrix of its case's "matrix" shape, written by
# ``write_matrix``
MATRIX = "{matrix}"
# the square root's FFT length families at small n (lengths 1, 3, 5, 16 and
# 48 at n = 1, 2, 3, 7 and 24), the FFT length seam at 512 / 513 (lengths
# 1024 / 1280) and at 4096 / 4097, and the tree's power-of-two edges
COUNT_SIZES = (1, 2, 3, 7, 24, 512, 513, 4096, 4097, 32768, 32769)
MONTE_CARLO_BUDGET = PrivacyBudget(1.0, 1e-10)


def _monte_carlo(kind, n, trials, seed, dense=False):
    return {"monte_carlo_mse": {"kind": kind, "n": n, "trials": trials, "seed": seed, "dense": dense}}


CASES = {
    **{
        f"count {kind} n={n}": {
            "argv": ["count", "--input", BITS, "--n", str(n), "--mechanism", kind, "--seed", "17"]
        }
        for kind in ("factorization", "binary", "honaker")
        for n in COUNT_SIZES
    },
    **{f"coeffs n={n}": {"argv": ["coeffs", "--n", str(n)]} for n in (513, 4097)},
    **{
        f"certify {rows}x{cols}": {"argv": ["certify", "--matrix", MATRIX], "matrix": [rows, cols]}
        for rows, cols in ((16, 16), (48, 32))
    },
    "compare n-max=2^10": {"argv": ["compare", "--n-max", str(2**10)]},
    "compare n-max=2^30": {"argv": ["compare", "--n-max", str(2**30)]},
    "ftrl 2048x5, 5 seeds": {"argv": ["ftrl", "--n", "2048", "--d", "5", "--seeds-count", "5"]},
    "ftrl clip acts": {
        "argv": ["ftrl", "--n", "300", "--d", "3", "--seeds-count", "4", "--kappa", "0.3", "--radius", "0.5"]
    },
    "ftrl overflow branch": {"argv": ["ftrl", "--n", "24", "--d", "3", "--seeds-count", "5", "--radius", "1e300"]},
    "ftrl eps inf": {"argv": ["ftrl", "--n", "256", "--d", "4", "--seeds-count", "3", "--eps", "inf"]},
    # the paper-experiments sizes; the honaker seeds straddle 2^32, a seed-word edge of numpy's seeding
    "monte_carlo_mse factorization 1024x250": _monte_carlo("factorization", 1024, 250, 0),
    "monte_carlo_mse binary 256x125": _monte_carlo("binary", 256, 125, 448),
    "monte_carlo_mse honaker 256x500": _monte_carlo("honaker", 256, 500, 2**32 - 100),
    "monte_carlo_mse honaker dense 256x100": _monte_carlo("honaker", 256, 100, 7, dense=True),
}


def write_bits(path: Path) -> None:
    """A fixed bit stream: bit 40 of i times the 64-bit golden-ratio constant."""
    path.write_text("".join(f"{(i * 0x9E3779B97F4A7C15 >> 40) & 1}\n" for i in range(BITS_LENGTH)))


def write_matrix(path: Path, rows: int, cols: int) -> None:
    """A fixed rows x cols matrix: entry (i, j) is h / 4096 - 8, with h bits
    40-55 of (i cols + j) times the 64-bit golden-ratio constant, so every
    entry is a float64 that its ``repr`` writes exactly."""
    lines = (
        ",".join(repr(((k * 0x9E3779B97F4A7C15 >> 40) & 0xFFFF) / 4096 - 8) for k in range(i * cols, (i + 1) * cols))
        for i in range(rows)
    )
    path.write_text("".join(line + "\n" for line in lines))


def compute(case: dict, bits: Path, out: Path) -> str:
    """The digest of one case: sha256 of a CLI call's ``--out`` file, or a
    Monte-Carlo (estimate, stderr) as two ``float.hex`` strings."""
    if "argv" in case:
        matrix = out.with_name("matrix.csv")
        if "matrix" in case:
            write_matrix(matrix, *case["matrix"])
        argv = [{BITS: str(bits), MATRIX: str(matrix)}.get(arg, arg) for arg in case["argv"]]
        if cli.main([*argv, "--out", str(out)]) != 0:
            raise RuntimeError(f"{argv} failed")
        return hashlib.sha256(out.read_bytes()).hexdigest()
    mc = case["monte_carlo_mse"]
    fact = honaker_left(mc["n"]) if mc["dense"] else None
    estimate, stderr = monte_carlo_mse(mc["kind"], mc["n"], mc["trials"], MONTE_CARLO_BUDGET, mc["seed"], fact)
    return f"{estimate.hex()} {stderr.hex()}"


def compute_all(workdir: Path) -> dict:
    """The digest of every case in ``CASES``, computed in ``workdir``."""
    bits = workdir / "bits.txt"
    write_bits(bits)
    return {name: compute(case, bits, workdir / "out.csv") for name, case in CASES.items()}


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": f"{sys.platform}-{platform.machine()}",
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--check"]):
        print("usage: record_golden_outputs.py [--check]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_all(Path(tmp))
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {"cases": {}}
    moved = [f"dropped: {name}" for name in old["cases"] if name not in CASES]
    for name, digest in digests.items():
        before = old["cases"].get(name, {}).get("digest")
        if before != digest:
            moved.append(f"{'changed' if before else 'new'}: {name}")
    print("\n".join(moved) if moved else "every case matches its recorded digest")
    if args == ["--check"]:
        return 1 if moved else 0
    # one line per case, so a changed digest is a one-line diff
    cases = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps({**case, 'digest': digests[name]})}" for name, case in CASES.items()
    )
    GOLDEN_PATH.write_text(json.dumps(environment(), indent=1)[:-2] + ',\n "cases": {\n' + cases + "\n }\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
