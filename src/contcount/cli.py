"""Command-line surface.

Subcommands:

* ``coeffs``  - dump the square-root factorization coefficients as CSV
* ``count``   - run a private counting mechanism over a bit stream
* ``compare`` - closed-form error table: factorization vs binary mechanism
* ``certify`` - factorization-norm bounds and dual certificate for a CSV matrix
* ``ftrl``    - multi-seed DP-FTRL regret experiment

Every command is deterministic given its flags (and seed).  CSV output
carries a header row; floats are printed with 17 significant digits.
``count`` and ``coeffs`` format and write their rows ``CHUNK_ROWS`` at a
time, so their memory does not grow with one string per row.
Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from dataclasses import dataclass

import numpy as np

from . import certificates, workload
from .factorization import sqrt_coefficients
from .ftrl import logistic_task, run_dp_ftrl_logistic
from .linalg import read_matrix_csv
from .mechanism import MECHANISM_KINDS, PrivacyBudget, release

# Learner noise must not reuse the data-generation stream of the same seed.
_NOISE_SEED_OFFSET = 2**32

# Rows formatted per write by ``_emit_columns``: memory stays bounded in n.
CHUNK_ROWS = 1024

# Byte classes of the vectorised bit reader: 0 anything else, 1 ASCII
# whitespace inside a line, 2 a line end (``\n`` or ``\r``), 3 a bit.
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[[9, 11, 12, 28, 29, 30, 31, 32]] = 1
_BYTE_CLASS[[10, 13]] = 2
_BYTE_CLASS[[48, 49]] = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


@contextlib.contextmanager
def _output(out_path: str | None):
    if out_path is None or out_path == "-":
        yield sys.stdout
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh


def _emit(lines, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_columns(header: str, row_format: str, columns, out_path: str | None) -> None:
    """Write ``header`` and one ``row_format % row`` line per row of the
    equal-length ``columns``, formatting and writing CHUNK_ROWS rows at a time."""
    n, width = len(columns[0]), len(columns)
    with _output(out_path) as fh:
        fh.write(header + "\n")
        for start in range(0, n, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n)
            cells = [None] * (width * (stop - start))
            for i, column in enumerate(columns):
                cells[i::width] = column[start:stop].tolist()
            fh.write((row_format * (stop - start)) % tuple(cells))


def _budget(eps: float, delta: float) -> PrivacyBudget:
    return PrivacyBudget(epsilon=eps, delta=delta, allow_large_epsilon=True)


def cmd_coeffs(args) -> int:
    coeffs = sqrt_coefficients(args.n).coeffs
    _emit_columns("index,value", "%d,%.17g\n", [np.arange(len(coeffs)), coeffs], args.out)
    return 0


def _parse_bits(data: bytes) -> np.ndarray | None:
    """Bits of a buffer holding only ASCII ``0``/``1``/whitespace with at most
    one bit per line, else None.  Lines end at ``\\n`` or ``\\r``."""
    raw = np.frombuffer(data, dtype=np.uint8)
    cls = _BYTE_CLASS[raw]
    if not np.all(cls):
        return None
    kept = raw[cls >= 2]  # line ends and bits, in order
    is_bit = kept >= 48
    if np.any(is_bit[1:] & is_bit[:-1]):
        return None
    bits = kept[is_bit].astype(np.int64) - 48
    return bits if bits.size else None


def _read_bits_lines(data: bytes) -> np.ndarray:
    """Decode ``data`` as UTF-8 text, one bit per line, blank lines skipped."""
    bits = []
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        if line not in ("0", "1"):
            raise ValueError(f"line {lineno}: expected a 0 or 1 bit, got {line!r}")
        bits.append(int(line))
    if not bits:
        raise ValueError("empty bit stream")
    return np.array(bits, dtype=np.int64)


def _read_bits(path: str | None) -> np.ndarray:
    """The bit stream of file ``path`` (stdin for None or ``-``).

    Input in the documented format is decoded by ``_parse_bits``; anything
    else goes through ``_read_bits_lines``, which also accepts Unicode
    whitespace and is the only code that reports malformed input.
    """
    if path is None or path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    bits = _parse_bits(data)
    return bits if bits is not None else _read_bits_lines(data)


def cmd_count(args) -> int:
    bits = _read_bits(args.input)
    n = args.n if args.n is not None else len(bits)
    if len(bits) < n:
        raise ValueError(f"stream provides {len(bits)} bits but --n={n}")
    bits = bits[:n]
    noisy = release(args.mechanism, bits, _budget(args.eps, args.delta), args.seed)
    columns = [np.arange(1, n + 1), np.cumsum(bits), noisy]
    _emit_columns("t,true_count,noisy_count", "%d,%d,%.17g\n", columns, args.out)
    return 0


@dataclass(frozen=True)
class ComparisonRow:
    """One octave of the closed-form mechanism comparison."""

    n: int
    eps_fact: float
    eps_bin: float
    delta: float
    err_fact_upper: float
    err_lower_matrix_mech: float
    err_binary_expected: float

    @property
    def ratio_binary_over_fact(self) -> float:
        return self.err_binary_expected / self.err_fact_upper

    def __post_init__(self):
        if self.err_lower_matrix_mech > self.err_fact_upper:
            raise ValueError("lower bound exceeds the guaranteed upper bound")

    def as_csv(self) -> str:
        return ",".join(
            [
                str(self.n),
                _fmt(self.eps_fact),
                _fmt(self.eps_bin),
                _fmt(self.delta),
                _fmt(self.err_fact_upper),
                _fmt(self.err_lower_matrix_mech),
                _fmt(self.err_binary_expected),
                _fmt(self.ratio_binary_over_fact),
            ]
        )


def comparison_rows(n_max: int, eps_fact: float, eps_bin: float, delta: float):
    fact_budget = _budget(eps_fact, delta)
    bin_budget = _budget(eps_bin, delta)
    rows = []
    k = 1
    while 2**k <= n_max:
        n = 2**k
        rows.append(
            ComparisonRow(
                n=n,
                eps_fact=eps_fact,
                eps_bin=eps_bin,
                delta=delta,
                err_fact_upper=workload.err_upper_bound(n, fact_budget),
                err_lower_matrix_mech=workload.err_lower_bound_matrix_mech(n, fact_budget),
                err_binary_expected=workload.binary_expected_err(n, bin_budget),
            )
        )
        k += 1
    return rows


def cmd_compare(args) -> int:
    lines = [
        "n,eps_fact,eps_bin,delta,err_fact_upper,err_lower_matrix_mech,"
        "err_binary_expected,ratio_binary_over_fact"
    ]
    lines += [row.as_csv() for row in comparison_rows(args.n_max, args.eps_fact, args.eps_bin, args.delta)]
    _emit(lines, args.out)
    return 0


def cmd_certify(args) -> int:
    matrix = read_matrix_csv(args.matrix)
    upper = certificates.gamma_upper(matrix)
    cert = certificates.build_svd_certificate(matrix)
    feasible, objective = certificates.verify_certificate(matrix, cert)
    lower = cert.claimed_objective  # gamma_lower, from the certificate's own SVD
    lines = [
        "lower_bound,upper_bound,feasible,objective",
        f"{_fmt(lower)},{_fmt(upper)},{str(feasible).lower()},{_fmt(objective)}",
    ]
    _emit(lines, args.out)
    return 0


def cmd_ftrl(args) -> int:
    budget = _budget(args.eps, args.delta)
    lines = ["seed,regret,bound"]
    for i in range(args.seeds_count):
        seed = args.seed + i
        task = logistic_task(args.n, args.d, seed)
        report = run_dp_ftrl_logistic(
            task, budget, seed + _NOISE_SEED_OFFSET, kappa=args.kappa, radius=args.radius
        )
        lines.append(f"{seed},{_fmt(report.regret)},{_fmt(report.bound)}")
    _emit(lines, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contcount",
        description="Differentially private continual counting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit the factorization coefficients f(0..n-1)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("count", help="private counting over a bit stream")
    p.add_argument("--input", default=None, help="file of 0/1 lines (default: stdin)")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mechanism", choices=MECHANISM_KINDS, default="factorization")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("compare", help="closed-form error comparison at n = 2^k")
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument("--eps-fact", type=float, default=1.0)
    p.add_argument("--eps-bin", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("certify", help="factorization-norm bounds for a CSV matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("ftrl", help="multi-seed DP-FTRL regret experiment")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds-count", type=_positive_int, default=1)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ftrl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"contcount: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
