"""Every integer parameter of the public API is read by one check,
``workload._check_int``: a float, 4.0 included, is refused with a
``TypeError`` rather than truncated, and a value below the parameter's
bound with a ``ValueError``; both name the parameter."""

import re

import numpy as np
import pytest

from contcount import factorization as fz, ftrl, mechanism, workload
from contcount.mechanism import PrivacyBudget

BUDGET = PrivacyBudget(1.0, 1e-10)
BITS = np.array([1, 0, 1, 1])

# id -> (call taking the integer argument, its name in the errors, a value
# below its bound or None where the check sets no bound)
CASES = {
    "counting_matrix-n": (workload.counting_matrix, "stream length", 0),
    "counting_inverse-n": (workload.counting_inverse, "stream length", 0),
    "counting_singular_value-n": (lambda v: workload.counting_singular_value(v, 1), "stream length", 0),
    "counting_singular_value-i": (lambda v: workload.counting_singular_value(4, v), "singular value index", 0),
    "counting_singular_values-n": (workload.counting_singular_values, "stream length", 0),
    "counting_schatten1-n": (workload.counting_schatten1, "stream length", 0),
    "gamma_lower_bound_count-n": (workload.gamma_lower_bound_count, "stream length", 0),
    "gamma_upper_bound_count-n": (workload.gamma_upper_bound_count, "stream length", 0),
    "err_upper_bound-n": (lambda v: workload.err_upper_bound(v, BUDGET), "stream length", 0),
    "err_lower_bound_matrix_mech-n": (lambda v: workload.err_lower_bound_matrix_mech(v, BUDGET), "stream length", 0),
    "err_lower_bound_any_mechanism-n": (lambda v: workload.err_lower_bound_any_mechanism(v, 1.0), "stream length", 0),
    "binary_expected_err-n": (lambda v: workload.binary_expected_err(v, BUDGET), "stream length", 0),
    "hadamard-d": (workload.hadamard, "d", -1),
    "parity_workload-d": (lambda v: workload.parity_workload(v, 1), "d", 0),
    "parity_workload-w": (lambda v: workload.parity_workload(4, v), "w", 0),
    "parity_gamma_lower-d": (lambda v: workload.parity_gamma_lower(v, 1), "d", 0),
    "parity_gamma_lower-w": (lambda v: workload.parity_gamma_lower(4, v), "w", 0),
    "sqrt_coefficients-n": (fz.sqrt_coefficients, "n", 0),
    "double_factorial_ratio-k": (fz.double_factorial_ratio, "k", -1),
    "factor_row_norm_sq-t": (lambda v: fz.factor_row_norm_sq(fz.sqrt_coefficients(4), v), "row index", 0),
    "sqrt_factorization-n": (fz.sqrt_factorization, "n", 0),
    "binary_factorization-n": (fz.binary_factorization, "n", 0),
    "binary_right_factor-n": (fz.binary_right_factor, "n", 0),
    "binary_left_factor-n": (fz.binary_left_factor, "n", 0),
    "binary_gram-n": (fz.binary_gram, "n", 0),
    "honaker_left-n": (fz.honaker_left, "n", 0),
    "suboptimality_ratio-n": (fz.suboptimality_ratio, "n", 0),
    "StreamingCounter-n": (lambda v: mechanism.StreamingCounter(v, BUDGET, 0), "horizon", 0),
    "StreamingCounter-seed": (lambda v: mechanism.StreamingCounter(4, BUDGET, v), "seed", None),
    "release-seed": (lambda v: mechanism.release("binary", BITS, BUDGET, v), "seed", None),
    "matrix_mechanism_run-seed": (
        lambda v: mechanism.matrix_mechanism_run(fz.honaker_left(4), BITS, BUDGET, v), "seed", None
    ),
    "monte_carlo_mse-n": (lambda v: mechanism.monte_carlo_mse("binary", v, 2, BUDGET, 0), "horizon", 0),
    "monte_carlo_mse-trials": (lambda v: mechanism.monte_carlo_mse("binary", 4, v, BUDGET, 0), "trials", 0),
    "monte_carlo_mse-seed": (lambda v: mechanism.monte_carlo_mse("binary", 4, 2, BUDGET, v), "seed", None),
    "lambda_star-n": (lambda v: ftrl.lambda_star(v, 1.0, 3, BUDGET, 1.0), "n", 0),
    "lambda_star-d": (lambda v: ftrl.lambda_star(5, 1.0, v, BUDGET, 1.0), "d", 0),
    "regret_bound-n": (lambda v: ftrl.regret_bound(v, 1.0, 3, BUDGET, 1.0), "n", 0),
    "regret_bound-d": (lambda v: ftrl.regret_bound(5, 1.0, v, BUDGET, 1.0), "d", 0),
    "DpFtrlLearner-n": (lambda v: ftrl.DpFtrlLearner(v, 2, BUDGET, 0), "n", 0),
    "DpFtrlLearner-d": (lambda v: ftrl.DpFtrlLearner(4, v, BUDGET, 0), "d", 0),
    "DpFtrlLearner-seed": (lambda v: ftrl.DpFtrlLearner(4, 2, BUDGET, v), "seed", None),
    "logistic_task-n": (lambda v: ftrl.logistic_task(v, 2, 0), "n", 0),
    "logistic_task-d": (lambda v: ftrl.logistic_task(4, v, 0), "d", 0),
    "logistic_task-seed": (lambda v: ftrl.logistic_task(4, 2, v), "seed", None),
}


@pytest.mark.parametrize("case", CASES)
def test_integer_arguments_are_checked(case):
    call, name, below = CASES[case]
    call(4)  # the other arguments are valid
    call(np.int64(4))
    for value in (2.5, 4.0, np.float64(4.0)):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call(value)
    if below is not None:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(below)
