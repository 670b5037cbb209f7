"""Differentially private counting under continual observation.

Explicit matrix-mechanism factorizations of the counting workload, error
bound evaluators, factorization-norm dual certificates, competing mechanisms
(binary tree, Honaker) and a DP-FTRL private online learner built on the
counting primitive.
"""

from .certificates import (
    DualCertificate,
    build_diagonal_certificate,
    build_svd_certificate,
    gamma_lower,
    gamma_upper,
    verify_certificate,
    verify_diagonal_certificate,
)
from .factorization import (
    Factorization,
    binary_factorization,
    double_factorial_ratio,
    expected_mse,
    factor_frobenius_sq,
    factor_row_norm_sq,
    honaker_left,
    residual,
    sqrt_coefficients,
    sqrt_factorization,
    suboptimality_ratio,
)
from .ftrl import (
    DpFtrlLearner,
    LogisticTask,
    RegretReport,
    clip,
    lambda_star,
    logistic_task,
    minimize_logistic_in_ball,
    regret_bound,
    run_dp_ftrl_logistic,
)
from .mechanism import (
    PrivacyBudget,
    StreamingCounter,
    matrix_mechanism_run,
    monte_carlo_mse,
    noise_multiplier,
    release,
)
from .workload import (
    binary_expected_err,
    counting_matrix,
    counting_inverse,
    counting_schatten1,
    counting_singular_value,
    counting_singular_values,
    err_lower_bound_any_mechanism,
    err_lower_bound_matrix_mech,
    err_upper_bound,
    gamma_lower_bound_count,
    gamma_upper_bound_count,
    hadamard,
    parity_gamma_lower,
    parity_workload,
)

__version__ = "0.1.0"
