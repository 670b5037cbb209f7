"""Every real-valued parameter of the public API is checked before it is
used: a NaN, a value outside the parameter's range and, where its rule says
so, an infinite one are refused with a ``ValueError`` whose message names
the parameter.  The sibling of ``test_integer_arguments.py``."""

import math
import re

import numpy as np
import pytest

from contcount import ftrl, mechanism, workload
from contcount.mechanism import PrivacyBudget

BUDGET = PrivacyBudget(1.0, 1e-10)
TASK = ftrl.logistic_task(4, 2, 0)

NAN_AND_NON_POSITIVE = (math.nan, 0.0, -1.0)
# rule -> (refused values, accepted values)
POSITIVE_FINITE = ((*NAN_AND_NON_POSITIVE, math.inf), (0.5, 1.0))  # kappa, radius, lambda
EPSILON = ((*NAN_AND_NON_POSITIVE, 1e-310), (1.5, math.inf))  # 1e-310: C^2 overflows
DELTA = ((*NAN_AND_NON_POSITIVE, math.inf, 1.0, 5e-324), (1e-300, 0.5))  # 5e-324: ln(1/delta) overflows
LOWER_BOUND_EPSILON = (NAN_AND_NON_POSITIVE, (1e-3, 1e6, math.inf))
FLIP_PROB = ((math.nan, -1.0, math.inf, 0.5), (0.0, 0.25))

# id -> (call taking the real argument, its name in the errors, its rule)
CASES = {
    "noise_multiplier-epsilon": (lambda v: mechanism.noise_multiplier(v, 1e-10), "epsilon", EPSILON),
    "noise_multiplier-delta": (lambda v: mechanism.noise_multiplier(1.0, v), "delta", DELTA),
    "PrivacyBudget-epsilon": (lambda v: PrivacyBudget(v, 1e-10), "epsilon", EPSILON),
    "PrivacyBudget-delta": (lambda v: PrivacyBudget(1.0, v), "delta", DELTA),
    "err_lower_bound_any_mechanism-epsilon": (
        lambda v: workload.err_lower_bound_any_mechanism(8, v), "epsilon", LOWER_BOUND_EPSILON
    ),
    "clip-kappa": (lambda v: ftrl.clip([3.0, 4.0], v), "clip norm kappa", POSITIVE_FINITE),
    "project_ball-radius": (lambda v: ftrl.project_ball([3.0, 4.0], v), "radius", POSITIVE_FINITE),
    "lambda_star-kappa": (lambda v: ftrl.lambda_star(5, v, 3, BUDGET, 1.0), "kappa", POSITIVE_FINITE),
    "lambda_star-radius": (lambda v: ftrl.lambda_star(5, 1.0, 3, BUDGET, v), "radius", POSITIVE_FINITE),
    "regret_bound-kappa": (lambda v: ftrl.regret_bound(5, v, 3, BUDGET, 1.0), "kappa", POSITIVE_FINITE),
    "regret_bound-radius": (lambda v: ftrl.regret_bound(5, 1.0, 3, BUDGET, v), "radius", POSITIVE_FINITE),
    "DpFtrlLearner-lam": (lambda v: ftrl.DpFtrlLearner(4, 2, BUDGET, 0, lam=v), "lam", POSITIVE_FINITE),
    "DpFtrlLearner-kappa": (lambda v: ftrl.DpFtrlLearner(4, 2, BUDGET, 0, kappa=v), "kappa", POSITIVE_FINITE),
    "DpFtrlLearner-radius": (
        lambda v: ftrl.DpFtrlLearner(4, 2, BUDGET, 0, radius=v), "radius", POSITIVE_FINITE
    ),
    "run_dp_ftrl_logistic-kappa": (
        lambda v: ftrl.run_dp_ftrl_logistic(TASK, BUDGET, 1, kappa=v), "kappa", POSITIVE_FINITE
    ),
    "run_dp_ftrl_logistic-radius": (
        lambda v: ftrl.run_dp_ftrl_logistic(TASK, BUDGET, 1, radius=v), "radius", POSITIVE_FINITE
    ),
    "minimize_logistic_in_ball-radius": (
        lambda v: ftrl.minimize_logistic_in_ball(TASK, v), "radius", POSITIVE_FINITE
    ),
    "logistic_task-flip_prob": (
        lambda v: ftrl.logistic_task(4, 2, 0, flip_prob=v), "flip probability", FLIP_PROB
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_real_arguments_are_checked(case):
    call, name, (refused, accepted) = CASES[case]
    for value in accepted:
        call(value)
        call(np.float64(value))
    for value in refused:
        for arg in (value, np.float64(value)):
            with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
                call(arg)


def test_infinite_epsilon_is_the_noise_free_edge():
    assert PrivacyBudget(math.inf, 1e-10).noise_multiplier == 0.0
    assert mechanism.noise_multiplier(math.inf, 0.5) == 0.0
    for oblivious in (False, True):
        assert workload.err_lower_bound_any_mechanism(8, math.inf, oblivious) == 0.0
