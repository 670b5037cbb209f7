"""Command-line surface.

Subcommands:

* ``coeffs``  - dump the square-root factorization coefficients as CSV
* ``count``   - run a private counting mechanism over a bit stream
* ``compare`` - closed-form error table: factorization vs binary mechanism
* ``certify`` - factorization-norm bounds and dual certificate for a CSV matrix
* ``ftrl``    - multi-seed DP-FTRL regret experiment

Every command is deterministic given its flags (and seed).  Each one
computes numpy columns from library calls and hands them to one CSV writer,
``_emit_columns``: a header row, then rows formatted and written
``CHUNK_ROWS`` at a time (memory does not grow with n), to stdout or to the
``--out`` file, with the bytes of ``row_format % row`` for each row, built
in numpy by ``linalg.format_csv_rows``.

``count`` holds these O(n) arrays: the bits (int8), what its mechanism's
noise needs while it is built (``mechanism.release``), then the int64
prefix sums, shared by the ``true_count`` column and the release, and the
float64 noisy counts.  The ``t`` column, like ``coeffs``' index, is built
one chunk at a time from a ``range``.

``main`` builds its argparse parser on its first call and reuses it.

Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

import numpy as np

from . import certificates, workload
from .factorization import sqrt_coefficients
from .ftrl import logistic_task, run_dp_ftrl_logistic_seeds
from .linalg import format_csv_rows, read_matrix_csv
from .mechanism import MECHANISM_KINDS, PrivacyBudget, _release_with_prefix

# Learner noise must not reuse the data-generation stream of the same seed.
_NOISE_SEED_OFFSET = 2**32

# Rows formatted per write by ``_emit_columns``: memory stays bounded in n.
# Measured on ``count`` at 2^14, 2^17 and 10^6 rounds: 4096 rows write 15-30 %
# faster than 2048 at the same peak RSS; 8192 gain under 10 % more and add
# 0.6 MB.
CHUNK_ROWS = 4096

# Byte classes of the vectorised bit reader: 0 anything else, 1 ASCII
# whitespace inside a line, 2 a line end (``\n`` or ``\r``), 3 a bit.
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[[9, 11, 12, 28, 29, 30, 31, 32]] = 1
_BYTE_CLASS[[10, 13]] = 2
_BYTE_CLASS[[48, 49]] = 3


# Largest ``compare --n-max``: its octaves then end at n = 2^1014.  From
# n = 2^1015 on, ``workload.binary_expected_err`` turns the integer
# n log2(n) into a float, which overflows.
N_MAX_LIMIT = 2**1015 - 1


def _int_at_least(text: str, low: int, name: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < low:
        raise argparse.ArgumentTypeError(f"expected a {name} integer, got {text}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


def _n_max(text: str) -> int:
    value = _positive_int(text)
    if value > N_MAX_LIMIT:
        raise argparse.ArgumentTypeError(
            f"at most 2**1015 - 1 is accepted (the closed forms overflow float64 "
            f"from n = 2**1015), got {text}"
        )
    return value


def _emit_columns(header: str, row_format: str, columns, out_path: str | None) -> None:
    """Write ``header`` and one ``row_format % row`` line per row of the
    equal-length ``columns``, formatting and writing CHUNK_ROWS rows at a time,
    to stdout when ``out_path`` is None or ``-``, else to that file.  A
    ``range`` column (an index) becomes an int64 array one chunk at a time."""
    to_stdout = out_path is None or out_path == "-"
    sink = contextlib.nullcontext(sys.stdout) if to_stdout else open(out_path, "w", encoding="utf-8")
    with sink as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            chunk = [c[start : start + CHUNK_ROWS] for c in columns]
            chunk = [np.arange(c.start, c.stop) if isinstance(c, range) else c for c in chunk]
            fh.write(format_csv_rows(row_format, chunk))


def cmd_coeffs(args) -> int:
    coeffs = sqrt_coefficients(args.n)
    _emit_columns("index,value", "%d,%.17g\n", [range(len(coeffs)), coeffs], args.out)
    return 0


def _parse_bits(data: bytes) -> np.ndarray | None:
    """int8 bits of a buffer holding only ASCII ``0``/``1``/whitespace with
    at most one bit per line, else None.  Lines end at ``\\n`` or ``\\r``."""
    raw = np.frombuffer(data, dtype=np.uint8)
    cls = _BYTE_CLASS[raw]
    if not np.all(cls):
        return None
    # line ends and bits, in order; the mask is written over the classes
    kept = raw[np.greater_equal(cls, 2, out=cls.view(bool))]
    del cls
    is_bit = kept >= 48
    if np.any(is_bit[1:] & is_bit[:-1]):
        return None
    bits = kept[is_bit].view(np.int8)
    bits -= 48
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
    return np.array(bits, dtype=np.int8)


def _read_bits(path: str | None) -> np.ndarray:
    """The int8 bit stream of file ``path`` (stdin for None or ``-``).

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
    budget = PrivacyBudget(args.eps, args.delta)
    true, noisy = _release_with_prefix(args.mechanism, bits[:n], budget, args.seed)
    columns = [range(1, n + 1), true, noisy]
    _emit_columns("t,true_count,noisy_count", "%d,%d,%.17g\n", columns, args.out)
    return 0


def cmd_compare(args) -> int:
    fact_budget = PrivacyBudget(args.eps_fact, args.delta)
    bin_budget = PrivacyBudget(args.eps_bin, args.delta)
    ns = [2**k for k in range(1, args.n_max.bit_length())]
    upper = np.array([workload.err_upper_bound(n, fact_budget) for n in ns])
    lower = np.array([workload.err_lower_bound_matrix_mech(n, fact_budget) for n in ns])
    binary = np.array([workload.binary_expected_err(n, bin_budget) for n in ns])
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds the guaranteed upper bound")
    with np.errstate(divide="ignore", invalid="ignore"):  # --eps-fact inf: a zero bound
        ratio = binary / upper
    flags = [np.full(len(ns), value) for value in (args.eps_fact, args.eps_bin, args.delta)]
    # object dtype: every n stays a Python int (numpy would make 2**63..2**64-1 floats)
    columns = [np.array(ns, dtype=object), *flags, upper, lower, binary, ratio]
    header = (
        "n,eps_fact,eps_bin,delta,err_fact_upper,err_lower_matrix_mech,"
        "err_binary_expected,ratio_binary_over_fact"
    )
    _emit_columns(header, "%d" + ",%.17g" * 7 + "\n", columns, args.out)
    return 0


def cmd_certify(args) -> int:
    matrix = read_matrix_csv(args.matrix)
    upper = certificates.gamma_upper(matrix)
    cert = certificates.build_svd_certificate(matrix)
    feasible, objective = certificates.verify_certificate(matrix, cert)
    lower = cert.claimed_objective  # gamma_lower, from the certificate's own SVD
    row = [lower, upper, str(feasible).lower(), objective]
    header = "lower_bound,upper_bound,feasible,objective"
    _emit_columns(header, "%.17g,%.17g,%s,%.17g\n", [np.array([v]) for v in row], args.out)
    return 0


def cmd_ftrl(args) -> int:
    budget = PrivacyBudget(args.eps, args.delta)
    # object dtype: seeds at or beyond 2**63 stay exact Python ints, not floats
    seeds = np.array([args.seed + i for i in range(args.seeds_count)], dtype=object)
    reports = run_dp_ftrl_logistic_seeds(
        (logistic_task(args.n, args.d, seed) for seed in seeds),
        budget,
        [seed + _NOISE_SEED_OFFSET for seed in seeds],
        kappa=args.kappa,
        radius=args.radius,
    )
    regret = np.array([report.regret for report in reports])
    bound = np.array([report.bound for report in reports])
    _emit_columns("seed,regret,bound", "%d,%.17g,%.17g\n", [seeds, regret, bound], args.out)
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
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--mechanism", choices=MECHANISM_KINDS, default="factorization")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("compare", help="closed-form error comparison at n = 2^k")
    p.add_argument("--n-max", type=_n_max, required=True)
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
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--seeds-count", type=_positive_int, default=1)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ftrl)

    return parser


# The parser of ``main``, built on its first call.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"contcount: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
