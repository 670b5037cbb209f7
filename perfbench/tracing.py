"""Span and count recorders for the traced run.

The tracer patches public functions of the ``contcount`` modules under the
names their callers look them up by (``contcount.cli.StreamingCounter``,
``contcount.mechanism.postorder_index``, ...).  A patched function either
opens a span (name, start, end, parent) or, for hot tiny functions, only
bumps a call count.  Spans are kept in memory and written out at exit.

Self time is computed as each span closes: its duration minus the part its
direct children cover.  Calls run one at a time on one thread, so children
never overlap and a span's children cover exactly the sum of their
durations.  Nothing waits on anything else, so no wait time is recorded.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

SPAN = "span"  # timed, and the span is stored
TIMED = "timed"  # timed like a span, but too frequent to store each one
COUNT = "count"  # hot tiny function: call count only

LAYERS = ("cli", "mechanism", "factorization", "linalg", "workload", "certificates", "ftrl")

# (module, attribute path, metric stem, layer, mode).  A function imported by
# name into several modules is patched in each of them.
PATCHES = (
    ("contcount.cli", "main", "cli.main", "cli", SPAN),
    ("contcount.mechanism", "StreamingCounter.step", "mechanism.step", "mechanism", COUNT),
    ("contcount.cli", "StreamingCounter", "mechanism.streaming_init", "mechanism", SPAN),
    ("contcount.mechanism", "StreamingCounter", "mechanism.streaming_init", "mechanism", SPAN),
    ("contcount.cli", "binary_mechanism_run", "mechanism.binary_run", "mechanism", SPAN),
    ("contcount.mechanism", "binary_mechanism_run", "mechanism.binary_run", "mechanism", SPAN),
    ("contcount.cli", "matrix_mechanism_run", "mechanism.matrix_run", "mechanism", SPAN),
    ("contcount.mechanism", "matrix_mechanism_run", "mechanism.matrix_run", "mechanism", SPAN),
    ("contcount.mechanism", "monte_carlo_mse", "mechanism.monte_carlo", "mechanism", SPAN),
    ("contcount.cli", "sqrt_coefficients", "factorization.sqrt_coefficients", "factorization", SPAN),
    ("contcount.mechanism", "sqrt_coefficients", "factorization.sqrt_coefficients", "factorization", SPAN),
    ("contcount.ftrl", "sqrt_coefficients", "factorization.sqrt_coefficients", "factorization", SPAN),
    ("contcount.mechanism", "postorder_index", "factorization.postorder_index", "factorization", COUNT),
    ("contcount.mechanism", "dyadic_decomposition", "factorization.dyadic_decomposition", "factorization", COUNT),
    ("contcount.cli", "honaker_left", "factorization.honaker_left", "factorization", SPAN),
    ("contcount.mechanism", "honaker_left", "factorization.honaker_left", "factorization", SPAN),
    ("contcount.factorization", "honaker_left", "factorization.honaker_left", "factorization", SPAN),
    ("contcount.factorization", "binary_right_factor", "factorization.binary_right_factor", "factorization", SPAN),
    ("contcount.mechanism", "toeplitz_lower_matvec", "linalg.toeplitz_lower_matvec", "linalg", SPAN),
    ("contcount.ftrl", "toeplitz_lower_matvec", "linalg.toeplitz_lower_matvec", "linalg", SPAN),
    ("contcount.linalg", "pseudoinverse", "linalg.pseudoinverse", "linalg", SPAN),
    ("contcount.linalg", "singular_values", "linalg.singular_values", "linalg", SPAN),
    ("contcount.certificates", "min_eigenvalue_symmetric", "linalg.min_eigenvalue_symmetric", "linalg", SPAN),
    ("contcount.cli", "read_matrix_csv", "linalg.read_matrix_csv", "linalg", SPAN),
    ("contcount.factorization", "counting_matrix", "workload.counting_matrix", "workload", SPAN),
    ("contcount.workload", "err_upper_bound", "workload.closed_form", "workload", COUNT),
    ("contcount.workload", "err_lower_bound_matrix_mech", "workload.closed_form", "workload", COUNT),
    ("contcount.workload", "binary_expected_err", "workload.closed_form", "workload", COUNT),
    ("contcount.cli", "binary_expected_err", "workload.closed_form", "workload", COUNT),
    ("contcount.certificates", "build_svd_certificate", "certificates.build_svd_certificate", "certificates", SPAN),
    ("contcount.certificates", "verify_certificate", "certificates.verify_certificate", "certificates", SPAN),
    ("contcount.certificates", "gamma_lower", "certificates.gamma_bounds", "certificates", SPAN),
    ("contcount.certificates", "gamma_upper", "certificates.gamma_bounds", "certificates", SPAN),
    ("contcount.ftrl", "DpFtrlLearner.step_gradient", "ftrl.step_gradient", "ftrl", TIMED),
    ("contcount.cli", "logistic_task", "ftrl.task", "ftrl", SPAN),
    ("contcount.cli", "run_dp_ftrl_logistic", "ftrl.run", "ftrl", SPAN),
    ("contcount.ftrl", "DpFtrlLearner", "ftrl.learner_init", "ftrl", SPAN),
    ("contcount.ftrl", "minimize_logistic_in_ball", "ftrl.oracle", "ftrl", SPAN),
)

# Every metric the traced run reports: name, unit, and the end-to-end figure
# it should move, on which workload.  Values are means per traced pass,
# except where the unit or the note says otherwise.
LAYER_METRICS = (
    ("cli.self_s", "s", "count_rounds_per_s on release-sqrt (parse + CSV emit); barely release-tree"),
    ("cli.calls", "count", "CLI invocations per pass"),
    ("cli.bytes_in", "B", "count_rounds_per_s on release-sqrt (input file bytes)"),
    ("cli.bytes_out", "B", "count_rounds_per_s on release-sqrt (output file bytes)"),
    ("cli.errors", "count", "ops_failed_frac (calls that raised, whole run)"),
    ("mechanism.self_s", "s", "wall_s on every workload"),
    ("mechanism.streaming_init_s", "s", "setup_s on release-sqrt; mc_trials_per_s on paper-experiments"),
    ("mechanism.streaming_init_calls", "count", "mc_trials_per_s on paper-experiments"),
    ("mechanism.step_calls", "count", "online_round_p50_us, count_rounds_per_s on release-sqrt; mc_trials_per_s"),
    ("mechanism.step_s", "s", "online_round_p50_us on release-sqrt (online-sqrt calls, timed by the op)"),
    ("mechanism.binary_run_s", "s", "count_rounds_per_s on release-tree; mc_trials_per_s"),
    ("mechanism.binary_run_calls", "count", "count_rounds_per_s on release-tree; mc_trials_per_s"),
    ("mechanism.matrix_run_s", "s", "count_rounds_per_s on release-tree (Honaker); mc_trials_per_s"),
    ("mechanism.matrix_run_calls", "count", "release-tree (Honaker) and paper-experiments"),
    ("mechanism.monte_carlo_self_s", "s", "mc_trials_per_s on paper-experiments"),
    ("mechanism.noise_bytes", "B", "peak_rss_mb on release-sqrt (largest counter state, whole run)"),
    ("mechanism.errors", "count", "ops_failed_frac (calls that raised, whole run)"),
    ("factorization.self_s", "s", "wall_s on every workload"),
    ("factorization.sqrt_coefficients_s", "s", "setup_s on release-sqrt; mc_trials_per_s"),
    ("factorization.postorder_index_calls", "count", "count_rounds_per_s on release-tree; mc_trials_per_s"),
    ("factorization.dyadic_decomposition_calls", "count", "count_rounds_per_s on release-tree; mc_trials_per_s"),
    ("factorization.honaker_left_s", "s", "count_rounds_per_s on release-tree"),
    ("factorization.binary_right_factor_s", "s", "count_rounds_per_s on release-tree"),
    ("factorization.errors", "count", "ops_failed_frac (calls that raised, whole run)"),
    ("linalg.self_s", "s", "wall_s on every workload"),
    ("linalg.toeplitz_lower_matvec_s", "s", "mc_trials_per_s, ftrl_rounds_per_s on paper-experiments"),
    ("linalg.toeplitz_lower_matvec_calls", "count", "mc_trials_per_s, ftrl_rounds_per_s on paper-experiments"),
    ("linalg.toeplitz_lower_matvec_first_call_s", "s", "setup_s on release-sqrt (first call in the process)"),
    ("linalg.pseudoinverse_s", "s", "count_rounds_per_s on release-tree"),
    ("linalg.singular_values_s", "s", "certify_s on paper-experiments"),
    ("linalg.min_eigenvalue_symmetric_s", "s", "certify_s on paper-experiments"),
    ("linalg.read_matrix_csv_s", "s", "certify_s on paper-experiments"),
    ("linalg.errors", "count", "ops_failed_frac (calls that raised, whole run)"),
    ("workload.self_s", "s", "wall_s on every workload"),
    ("workload.counting_matrix_s", "s", "count_rounds_per_s on release-tree"),
    ("workload.closed_form_calls", "count", "the compare op on paper-experiments (should stay trivial)"),
    ("workload.errors", "count", "ops_failed_frac (calls that raised, whole run)"),
    ("certificates.self_s", "s", "certify_s on paper-experiments"),
    ("certificates.build_svd_certificate_s", "s", "certify_s on paper-experiments"),
    ("certificates.verify_certificate_s", "s", "certify_s on paper-experiments"),
    ("certificates.gamma_bounds_s", "s", "certify_s on paper-experiments"),
    ("certificates.errors", "count", "ops_failed_frac (calls that raised, whole run)"),
    ("ftrl.self_s", "s", "ftrl_rounds_per_s on paper-experiments"),
    ("ftrl.task_s", "s", "ftrl_rounds_per_s on paper-experiments"),
    ("ftrl.learner_init_s", "s", "ftrl_rounds_per_s on paper-experiments"),
    ("ftrl.step_gradient_calls", "count", "ftrl_rounds_per_s on paper-experiments"),
    ("ftrl.step_gradient_s", "s", "ftrl_rounds_per_s on paper-experiments"),
    ("ftrl.oracle_s", "s", "ftrl_rounds_per_s on paper-experiments"),
    ("ftrl.errors", "count", "ops_failed_frac (calls that raised, whole run)"),
    ("bench.self_s", "s", "the benchmark's own loop and timers inside the passes"),
    ("setup.in_process_s", "s", "setup_s (traced worker, import to set-up objects)"),
    ("trace.traced_wall_s", "s", "wall_s (mean traced pass; the layer self times add up to it)"),
    ("trace.untraced_wall_s", "s", "wall_s (mean untraced pass of the same run)"),
    ("trace.overhead_s", "s", "traced_wall_s minus untraced_wall_s"),
    ("trace.passes", "count", "traced passes in the run"),
)

# Metrics taken over the whole traced run rather than averaged per pass.
_WHOLE_RUN = {"mechanism.noise_bytes"} | {f"{layer}.errors" for layer in LAYERS}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counts while installed; aggregates them per pass."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[list] = []  # open frames: [stem, layer, start, child_s, span index]
        self.per_pass: dict = defaultdict(lambda: defaultdict(float))
        self.whole: dict = defaultdict(float)
        self.current = "setup"  # pass index, "setup" or "between"
        self.first_toeplitz_s: float | None = None
        self.missing: list[str] = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, stem: str, layer: str, keep: bool) -> list:
        index = -1
        if keep:
            parent = self._stack[-1][4] if self._stack else -1
            index = len(self.spans)
            self.spans.append([stem, 0.0, 0.0, parent])
        frame = [stem, layer, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        stem, layer, start, child_s, index = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self.spans[index][1:3] = [start - self.t0, end - self.t0]
        agg = self.per_pass[self.current]
        agg[f"{layer}.self_s"] += duration - child_s
        agg[f"{stem}_self_s"] += duration - child_s
        agg[f"{stem}_s"] += duration
        agg[f"{stem}_calls"] += 1
        if stem == "linalg.toeplitz_lower_matvec" and self.first_toeplitz_s is None:
            self.first_toeplitz_s = duration

    def add_child_time(self, seconds: float) -> None:
        """Credit time measured by the caller (online step calls) to the open span."""
        if self._stack:
            self._stack[-1][3] += seconds

    def begin(self, stem: str, layer: str = "bench") -> list:
        return self._open(stem, layer, keep=True)

    def end(self, frame: list) -> None:
        self._close(frame)

    def _wrap(self, fn, stem: str, layer: str, mode: str):
        tracer = self
        if mode == COUNT:
            calls = f"{stem}_calls"

            def counted(*args, **kwargs):
                tracer.per_pass[tracer.current][calls] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    tracer.whole[f"{layer}.errors"] += 1
                    raise

            return counted

        keep = mode == SPAN

        def timed(*args, **kwargs):
            frame = tracer._open(stem, layer, keep)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.whole[f"{layer}.errors"] += 1
                raise
            finally:
                tracer._close(frame)
            if stem == "mechanism.streaming_init":
                state = getattr(result, "__dict__", {}).values()
                nbytes = sum(getattr(v, "nbytes", 0) for v in state)
                tracer.whole["mechanism.noise_bytes"] = max(tracer.whole["mechanism.noise_bytes"], nbytes)
            return result

        return timed

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every target that exists.

        A metric none of whose targets exists any more (a refactor renamed
        them) is listed in ``missing`` and reads 0.
        """
        if self._saved:
            return
        targets = []
        absent = {}
        for module, path, stem, layer, mode in PATCHES:
            try:
                owner, attr = _resolve(module, path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                absent.setdefault(stem, []).append(f"{module}.{path}")
                continue
            targets.append((owner, attr, fn, stem, layer, mode))
        found = {target[3] for target in targets}
        self.missing = [name for stem, names in absent.items() if stem not in found for name in names]
        for owner, attr, fn, stem, layer, mode in targets:
            setattr(owner, attr, self._wrap(fn, stem, layer, mode))
            self._saved.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self, traced_passes: list, traced_walls: list, untraced_walls: list, setup_s: float) -> dict:
        """Per-layer metrics: means per traced pass, plus whole-run figures."""
        count = max(len(traced_passes), 1)
        total: dict = defaultdict(float)
        for k in traced_passes:
            for key, value in self.per_pass[k].items():
                total[key] += value
        out = {}
        for name, _, _ in LAYER_METRICS:
            if name in _WHOLE_RUN:
                out[name] = self.whole.get(name, 0.0)
            else:
                out[name] = total.get(name, 0.0) / count
        out["cli.calls"] = total.get("cli.main_calls", 0.0) / count
        out["linalg.toeplitz_lower_matvec_first_call_s"] = self.first_toeplitz_s or 0.0
        out["setup.in_process_s"] = setup_s
        out["trace.traced_wall_s"] = _mean(traced_walls)
        out["trace.untraced_wall_s"] = _mean(untraced_walls)
        out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
        out["trace.passes"] = float(len(traced_passes))
        return out


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0
