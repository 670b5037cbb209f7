import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contcount.ftrl import (
    DpFtrlLearner,
    LogisticTask,
    _sigmoid,
    clip,
    lambda_star,
    logistic_task,
    minimize_logistic_in_ball,
    project_ball,
    regret_bound,
    regret_report,
    run_dp_ftrl_logistic,
)
from contcount.factorization import sqrt_coefficients
from contcount.linalg import lower_toeplitz, toeplitz_lower_matvec
from contcount.mechanism import PrivacyBudget
from contcount.workload import counting_matrix

BUDGET = PrivacyBudget(1.0, 1e-6)
NOISE_OFF = PrivacyBudget(1.0, 1e-6, override_noise_multiplier=0.0)


def test_clip_examples():
    assert clip([3.0, 4.0], 1.0) == pytest.approx([0.6, 0.8], rel=1e-12)
    small = np.array([0.3, 0.4])
    assert np.array_equal(clip(small, 1.0), small)
    assert np.array_equal(clip(np.zeros(3), 1.0), np.zeros(3))
    with pytest.raises(ValueError):
        clip([1.0], 0.0)
    with pytest.raises(ValueError):
        clip([1.0], math.nan)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6),
    st.floats(0.01, 10.0),
)
def test_clip_never_exceeds_kappa(vec, kappa):
    assert np.linalg.norm(clip(vec, kappa)) <= kappa * (1 + 1e-12)


def test_lambda_star_examples():
    assert lambda_star(5, 1.0, 3, NOISE_OFF, 1.0) == pytest.approx(
        3.79640777618172, rel=1e-12
    )
    assert lambda_star(5, 1.0, 3, NOISE_OFF, 2.0) == pytest.approx(
        lambda_star(5, 1.0, 3, NOISE_OFF, 1.0) / 2, rel=1e-12
    )
    value = lambda_star(2048, 1.0, 5, BUDGET, 1.0)
    assert value == pytest.approx(494.0055374043553, rel=1e-9)


def test_radius_must_be_positive():
    # nan fails every comparison, so a check written `radius <= 0` let it through
    task = logistic_task(8, 2, seed=0)
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="radius"):
            lambda_star(5, 1.0, 3, NOISE_OFF, radius)
        with pytest.raises(ValueError, match="radius"):
            minimize_logistic_in_ball(task, radius)


def test_non_finite_kappa_and_radius_are_refused():
    task = logistic_task(8, 2, seed=0)
    for value in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            clip([1.0], value)
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            lambda_star(5, value, 3, BUDGET, 1.0)
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            DpFtrlLearner(4, 2, BUDGET, seed=0, kappa=value)
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            lambda_star(5, 1.0, 3, BUDGET, value)
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            DpFtrlLearner(4, 2, BUDGET, seed=0, radius=value)
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            minimize_logistic_in_ball(task, value)
    # finite parameters whose regularization strength overflows float64
    for kappa, radius in ((1e308, 1.0), (1e200, 1.0), (1.0, 1e-320)):
        with pytest.raises(ValueError, match="regularization strength overflows"):
            lambda_star(5, kappa, 3, BUDGET, radius)
        with pytest.raises(ValueError, match="regularization strength overflows"):
            DpFtrlLearner(4, 2, BUDGET, seed=0, kappa=kappa, radius=radius)
    with pytest.raises(ValueError, match="regularization strength underflows"):
        lambda_star(5, 1e-300, 3, BUDGET, 1e300)


def test_regret_bound_examples():
    assert regret_bound(5, 1.0, 3, NOISE_OFF, 1.0) == pytest.approx(
        0.379640777618172, rel=1e-12
    )
    assert regret_bound(5, 1.0, 3, NOISE_OFF, 2.5) == pytest.approx(
        2.5 * regret_bound(5, 1.0, 3, NOISE_OFF, 1.0), rel=1e-12
    )
    values = [regret_bound(n, 1.0, 5, BUDGET, 1.0) for n in (2, 4, 16, 256, 2048, 2**20)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_single_linear_loss_step():
    learner = DpFtrlLearner(1, 2, NOISE_OFF, seed=0, lam=1.0)
    theta2 = learner.step_gradient(np.array([1.0, 0.0]))
    # argmin of <s, theta> + ||theta||^2/2 is -s, then projected to the unit ball
    assert theta2 == pytest.approx([-1.0, 0.0], abs=1e-15)


def test_noise_off_equals_classical_ftrl():
    task = logistic_task(256, 4, seed=5)
    lam = 25.0
    learner = DpFtrlLearner(256, 4, NOISE_OFF, seed=9, lam=lam, kappa=1.0, radius=1.0)
    theta_ref = np.zeros(4)
    prefix = np.zeros(4)
    for i in range(256):
        assert np.max(np.abs(learner.theta - theta_ref)) <= 1e-12
        grad = task.point_grad(learner.theta, i)
        learner.step_gradient(grad)
        ref_grad = task.point_grad(theta_ref, i)
        norm = np.linalg.norm(ref_grad)
        if norm > 1.0:
            ref_grad = ref_grad / norm
        prefix += ref_grad
        theta_ref = project_ball(-prefix / lam, 1.0)


def test_learner_deterministic():
    task = logistic_task(64, 3, seed=2)

    def run(seed):
        learner = DpFtrlLearner(64, 3, BUDGET, seed=seed)
        out = []
        for i in range(64):
            out.append(learner.step_gradient(task.point_grad(learner.theta, i)).copy())
        return np.array(out)

    assert np.array_equal(run(11), run(11))
    assert not np.array_equal(run(11), run(12))


def test_iterates_stay_in_ball_and_clipped():
    radius, kappa = 0.7, 0.5
    learner = DpFtrlLearner(128, 3, BUDGET, seed=21, kappa=kappa, radius=radius)
    task = logistic_task(128, 3, seed=22)
    for i in range(128):
        g = task.point_grad(learner.theta, i)
        assert np.linalg.norm(clip(g, kappa)) <= kappa * (1 + 1e-12)
        theta = learner.step_gradient(g)
        assert np.linalg.norm(theta) <= radius * (1 + 1e-12)


@pytest.mark.parametrize("n", [2, 64, 1024])
def test_noise_calibration_exact_sensitivity(n):
    # Released prefix sums are M X + N, N[:, c] = D_c L G[:, c].  Changing one
    # gradient by v (||v|| <= kappa) moves the whitened release by
    # (D_c L)^-1 M e_j v_c in column c, so with C and kappa factored out the
    # Gaussian-mechanism sensitivity is max_{c, j} ||(D_c L)^-1 M e_j||.
    d, seed, kappa = 2, 5, 0.5
    learner = DpFtrlLearner(n, d, BUDGET, seed=seed, kappa=kappa)
    coeffs = sqrt_coefficients(n).coeffs
    base = np.random.Generator(np.random.PCG64(seed)).standard_normal((n, d))
    sensitivity = 0.0
    for c in range(d):
        correlated = toeplitz_lower_matvec(coeffs, base[:, c])
        scale = learner.noise[:, c] / correlated / (BUDGET.noise_multiplier * kappa)
        whitened = np.linalg.solve(scale[:, None] * lower_toeplitz(coeffs), counting_matrix(n))
        sensitivity = max(sensitivity, float(np.max(np.linalg.norm(whitened, axis=0))))
    assert sensitivity <= 1 + 1e-9


def test_learner_horizon_and_validation():
    learner = DpFtrlLearner(1, 2, NOISE_OFF, seed=0)
    learner.step_gradient(np.zeros(2))
    with pytest.raises(ValueError, match="horizon"):
        learner.step_gradient(np.zeros(2))
    with pytest.raises(ValueError):
        learner.step_gradient(np.zeros(3))
    with pytest.raises(ValueError):
        DpFtrlLearner(0, 2, NOISE_OFF, seed=0)
    with pytest.raises(ValueError):
        DpFtrlLearner(4, 0, NOISE_OFF, seed=0)
    for bad in ({"kappa": 0.0}, {"radius": 0.0}, {"kappa": math.nan}, {"radius": math.nan}):
        with pytest.raises(ValueError):
            DpFtrlLearner(4, 2, NOISE_OFF, seed=0, **bad)


def test_logistic_task_shapes_and_norms():
    task = logistic_task(200, 6, seed=1)
    assert task.xs.shape == (200, 6) and task.ys.shape == (200,)
    assert np.all(np.linalg.norm(task.xs, axis=1) <= 1 + 1e-12)
    assert set(np.unique(task.ys)) <= {-1.0, 1.0}


def test_separable_task_low_oracle_loss():
    task = logistic_task(600, 4, seed=3, flip_prob=0.0)
    opt = minimize_logistic_in_ball(task, radius=25.0)
    assert task.avg_loss(opt) < 0.1


def test_symmetric_labels_give_zero_optimum():
    xs = np.array([[0.5], [-0.5], [0.25], [-0.25]])
    ys = np.array([1.0, 1.0, 1.0, 1.0])
    task = LogisticTask(xs=xs, ys=ys)
    opt = minimize_logistic_in_ball(task, radius=1.0)
    assert np.linalg.norm(opt) <= 1e-6


def test_oracle_stationarity():
    task = logistic_task(400, 5, seed=13)
    radius = 1.0
    opt = minimize_logistic_in_ball(task, radius)
    step = 4.0
    mapped = (opt - project_ball(opt - step * task.avg_grad(opt), radius)) / step
    assert np.linalg.norm(mapped) <= 1e-8


def test_regret_report_fields():
    rep = regret_report(avg_loss=0.5, opt_loss=0.2, bound=0.4)
    assert rep.regret == pytest.approx(0.3)


def test_constant_loss_zero_regret():
    # all-zero inputs make the loss ln(2) regardless of theta
    task = LogisticTask(xs=np.zeros((16, 2)), ys=np.ones(16))
    rep = run_dp_ftrl_logistic(task, BUDGET, seed=4)
    assert rep.regret == pytest.approx(0.0, abs=1e-12)
    assert rep.avg_loss == pytest.approx(math.log(2), rel=1e-12)


def test_single_round_at_optimum_zero_regret():
    task = LogisticTask(xs=np.zeros((1, 2)), ys=np.array([1.0]))
    rep = run_dp_ftrl_logistic(task, NOISE_OFF, seed=0)
    assert rep.regret == pytest.approx(0.0, abs=1e-12)


def test_multi_seed_regret_under_bound_quick():
    bound = regret_bound(512, 1.0, 4, BUDGET, 1.0)
    regrets = []
    for seed in range(5):
        task = logistic_task(512, 4, seed=seed)
        rep = run_dp_ftrl_logistic(task, BUDGET, seed=seed + 2**32)
        assert rep.bound == pytest.approx(bound, rel=1e-12)
        regrets.append(rep.regret)
    assert np.mean(regrets) <= bound
    assert max(regrets) <= 1.5 * bound


def _reference_regret(task, budget, seed):
    """``run_dp_ftrl_logistic`` as a loop that takes the loss and the
    gradient of each round from two separate margins."""
    learner = DpFtrlLearner(task.n, task.d, budget, seed)
    incurred = 0.0
    for i in range(task.n):
        x, y = task.xs[i], task.ys[i]
        incurred += float(np.logaddexp(0.0, -(y * float(x @ learner.theta))))
        margin = y * float(x @ learner.theta)
        learner.step_gradient(-(y * _sigmoid(-margin)) * x)
    theta_opt = minimize_logistic_in_ball(task, 1.0)
    bound = regret_bound(task.n, 1.0, task.d, budget, 1.0)
    return regret_report(incurred / task.n, task.avg_loss(theta_opt), bound)


def _reference_noise(n, d, budget, seed):
    """The learner's noise, column by column from one (n, d) draw."""
    coeffs = sqrt_coefficients(n).coeffs
    g = np.random.Generator(np.random.PCG64(seed)).standard_normal((n, d))
    for j in range(d):
        g[:, j] = toeplitz_lower_matvec(coeffs, g[:, j])
    g *= budget.noise_multiplier * math.sqrt(float(np.sum(coeffs**2)))
    return g


@pytest.mark.parametrize("n, d", [(1, 1), (300, 4), (5000, 2)])
def test_run_matches_two_margin_loop(n, d):
    for seed in (3, 2**40 + 1):
        task = logistic_task(n, d, seed)
        noise_seed = seed + 2**32
        assert run_dp_ftrl_logistic(task, BUDGET, noise_seed) == _reference_regret(task, BUDGET, noise_seed)
        noise = DpFtrlLearner(n, d, BUDGET, seed).noise
        assert noise.tobytes() == _reference_noise(n, d, BUDGET, seed).tobytes()
