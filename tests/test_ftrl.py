import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contcount import ftrl, mechanism
from contcount.cli import main
from contcount.ftrl import (
    DpFtrlLearner,
    LogisticTask,
    RegretReport,
    _minimize_logistic_in_balls,
    _shrink_rows,
    _sigmoid,
    clip,
    lambda_star,
    logistic_task,
    minimize_logistic_in_ball,
    project_ball,
    regret_bound,
    run_dp_ftrl_logistic,
    run_dp_ftrl_logistic_seeds,
)
from contcount.factorization import sqrt_coefficients
from contcount.linalg import lower_toeplitz, toeplitz_lower_matvec
from contcount.mechanism import PrivacyBudget
from contcount.workload import counting_matrix
from ftrl_oracles import ReferenceLearner, avg_grad, point_grad, point_loss_grad

BUDGET = PrivacyBudget(1.0, 1e-6)
NOISE_OFF = PrivacyBudget(math.inf, 1e-6)


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


@pytest.mark.filterwarnings("error")
def test_clip_and_project_past_the_float64_square():
    # v . v overflows float64 from |v| ~ 1.3e154 on
    big = np.full(3, 1e200)
    assert np.array_equal(project_ball(big, 1e300), big)
    assert clip(big, 1.0) == pytest.approx(np.full(3, 1.0 / math.sqrt(3.0)), rel=1e-15)
    # a norm past float64's range, rescaled onto a ball just inside it
    huge = np.array([1.5e308, -1.5e308, 0.0])
    want = np.array([1e308, -1e308, 0.0]) / math.sqrt(2.0)
    assert project_ball(huge, 1e308) == pytest.approx(want, rel=1e-15)
    assert clip(huge, 1e308) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_gradients_are_refused_before_the_state_moves(bad):
    v = np.array([bad, 0.0])
    for shrink in (clip, project_ball):
        with pytest.raises(ValueError, match="finite"):
            shrink(v, 1.0)
    learner = DpFtrlLearner(4, 2, BUDGET, seed=0)
    learner.step_gradient([0.5, -0.25])
    prefix, theta = learner.grad_prefix.copy(), learner.theta.copy()
    with pytest.raises(ValueError, match="finite"):
        learner.step_gradient(v)
    assert learner.t == 1
    assert learner.grad_prefix.tobytes() == prefix.tobytes()
    assert learner.theta.tobytes() == theta.tobytes()
    # the learner goes on as if the bad gradient had never come
    twin = DpFtrlLearner(4, 2, BUDGET, seed=0)
    twin.step_gradient([0.5, -0.25])
    assert learner.step_gradient([1.0, 1.0]).tobytes() == twin.step_gradient([1.0, 1.0]).tobytes()


@pytest.mark.filterwarnings("error")
def test_overflowing_iterate_and_bound_are_refused():
    task = logistic_task(8, 2, seed=0)
    with pytest.raises(ValueError, match=r"iterate .* overflow float64 at kappa=10000000000\.0, radius=1e\+308"):
        DpFtrlLearner(8, 2, BUDGET, seed=0, kappa=1e10, radius=1e308)
    with pytest.raises(ValueError, match=r"iterate .* overflow float64 at kappa=10000000000\.0, radius=1e\+308"):
        run_dp_ftrl_logistic(task, BUDGET, 0, kappa=1e10, radius=1e308)
    with pytest.raises(ValueError, match=r"regret bound overflows float64 at kappa=10000000000\.0, radius=1e\+308"):
        regret_bound(8, 1e10, 2, BUDGET, 1e308)


@pytest.mark.filterwarnings("error")
def test_iterates_past_the_float64_square_stay_in_ball():
    # the iterates reach |theta| ~ 1e300, whose squares overflow float64
    task = logistic_task(8, 2, seed=0)
    learner = DpFtrlLearner(8, 2, BUDGET, seed=1, radius=1e300)
    for i in range(task.n):
        theta = learner.step_gradient(point_grad(task, learner.theta, i))
        assert np.all(np.isfinite(theta))
        assert np.linalg.norm(theta / 1e300) <= 1 + 1e-12
    report = run_dp_ftrl_logistic(task, BUDGET, 1, radius=1e300)
    assert math.isfinite(report.regret) and math.isfinite(report.bound)


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
        grad = point_grad(task, learner.theta, i)
        learner.step_gradient(grad)
        ref_grad = point_grad(task, theta_ref, i)
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
            out.append(learner.step_gradient(point_grad(task, learner.theta, i)).copy())
        return np.array(out)

    assert np.array_equal(run(11), run(11))
    assert not np.array_equal(run(11), run(12))


def test_iterates_stay_in_ball_and_clipped():
    radius, kappa = 0.7, 0.5
    learner = DpFtrlLearner(128, 3, BUDGET, seed=21, kappa=kappa, radius=radius)
    task = logistic_task(128, 3, seed=22)
    for i in range(128):
        g = point_grad(task, learner.theta, i)
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
    coeffs = sqrt_coefficients(n)
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


@pytest.mark.filterwarnings("error")
def test_logistic_task_refuses_malformed_streams():
    task = logistic_task(8, 2, seed=0)
    xs, ys = task.xs, task.ys
    nan_xs, inf_xs = xs.copy(), xs.copy()
    nan_xs[3, 1], inf_xs[0, 0] = math.nan, -math.inf
    wrong_labels = [np.where(np.arange(8) == 5, value, ys) for value in (0.0, 2.0, -0.5, math.nan, math.inf)]
    long_row = np.vstack([xs[:7], [[1.0, 2e-6]]])  # norm 1 + 2e-12
    huge_row = np.vstack([xs[:7], [[1e200, 1e200]]])  # its square overflows float64
    cases = [
        (xs[0], ys, "xs must be 2-D"),
        (xs[None], ys, "xs must be 2-D"),
        (xs[:0], ys[:0], "xs must be 2-D"),
        (xs[:, :0], ys, "xs must be 2-D"),
        (xs, ys[:1], "ys must be 8 labels -1 or \\+1"),  # (1,) would broadcast to every round
        (xs, np.float64(1.0), "ys must be 8 labels -1 or \\+1"),
        (xs, ys[:, None], "ys must be 8 labels -1 or \\+1"),
        (xs, ys[:7], "ys must be 8 labels -1 or \\+1"),
        (nan_xs, ys, "xs rows must be finite"),
        (inf_xs, ys, "xs rows must be finite"),
        *((xs, y, "ys must be 8 labels -1 or \\+1") for y in wrong_labels),
        (xs * 5.0, ys, "of norm at most 1"),
        (long_row, ys, "of norm at most 1"),
        (huge_row, ys, "of norm at most 1"),
    ]
    for bad_xs, bad_ys, message in cases:
        with pytest.raises(ValueError, match=message):
            LogisticTask(xs=bad_xs, ys=bad_ys)
    # rows on the sphere, up to rounding, are kept
    on_sphere = xs / np.linalg.norm(xs, axis=1, keepdims=True) * (1 + 5e-13)
    assert LogisticTask(xs=on_sphere, ys=ys).n == 8
    assert LogisticTask(xs=np.zeros((1, 1)), ys=np.array([-1.0])).d == 1


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
    mapped = (opt - project_ball(opt - step * avg_grad(task, opt), radius)) / step
    assert np.linalg.norm(mapped) <= 1e-8


def test_regret_report_fields():
    rep = RegretReport(avg_loss=0.5, opt_loss=0.2, bound=0.4)
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
    learner = ReferenceLearner(task.n, task.d, budget, seed)
    incurred = 0.0
    for i in range(task.n):
        x, y = task.xs[i], task.ys[i]
        incurred += float(np.logaddexp(0.0, -(y * float(x @ learner.theta))))
        margin = y * float(x @ learner.theta)
        learner.step_gradient(-(y * _sigmoid(-margin)) * x)
    theta_opt = minimize_logistic_in_ball(task, 1.0)
    bound = regret_bound(task.n, 1.0, task.d, budget, 1.0)
    return RegretReport(incurred / task.n, task.avg_loss(theta_opt), bound)


def _reference_noise(n, d, budget, seed):
    """The learner's noise, column by column from one (n, d) draw."""
    coeffs = sqrt_coefficients(n)
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


def _per_seed_minimize(task, radius):
    """``minimize_logistic_in_ball`` as it ran before tasks ran in lockstep:
    one task, two ``avg_grad`` oracle calls per iteration.  It looks up
    ``ftrl.project_ball`` at each call, so a test can patch the norm."""
    step = 4.0
    theta = np.zeros(task.d)
    momentum = theta.copy()
    t_acc = 1.0
    for _ in range(ftrl._ORACLE_MAX_ITER):
        grad = avg_grad(task, momentum)
        nxt = ftrl.project_ball(momentum - step * grad, radius)
        grad_at_theta = avg_grad(task, theta)
        mapped = (theta - ftrl.project_ball(theta - step * grad_at_theta, radius)) / step
        if np.linalg.norm(mapped) <= ftrl._ORACLE_TOL:
            return theta
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        momentum = nxt + ((t_acc - 1.0) / t_next) * (nxt - theta)
        theta = nxt
        t_acc = t_next
    raise RuntimeError(f"ball-constrained optimizer did not reach tolerance {ftrl._ORACLE_TOL}")


def _per_seed_run(task, budget, seed, kappa=1.0, radius=1.0):
    """``run_dp_ftrl_logistic`` as it ran before seeds ran in lockstep: one
    ``point_loss_grad`` and one ``ReferenceLearner.step_gradient`` per
    round, a running loss total and ``_per_seed_minimize``."""
    learner = ReferenceLearner(task.n, task.d, budget, seed, kappa=kappa, radius=radius)
    incurred = 0.0
    for i in range(task.n):
        loss, grad = point_loss_grad(task, learner.theta, i)
        incurred += loss
        learner.step_gradient(grad)
    theta_opt = _per_seed_minimize(task, radius)
    bound = regret_bound(task.n, kappa, task.d, budget, radius)
    return RegretReport(incurred / task.n, task.avg_loss(theta_opt), bound)


# 513 and 600 draw their noise by FFT; iterates near 1e300 overflow v . v
ROUND_CASES = [(1, 1, 1.0, 1.0), (40, 3, 0.3, 0.5), (513, 2, 1.0, 1.0), (600, 2, 1.0, 1e300), (64, 4, 2.0, 1e300)]
ROUND_SEEDS = [7, 2**40 + 1, 2**70]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, d, kappa, radius", ROUND_CASES)
def test_seeds_in_lockstep_equal_per_seed_runs(n, d, kappa, radius):
    tasks = [logistic_task(n, d, seed) for seed in ROUND_SEEDS]
    want = [_per_seed_run(task, BUDGET, seed, kappa, radius) for task, seed in zip(tasks, ROUND_SEEDS)]
    assert run_dp_ftrl_logistic_seeds(tasks, BUDGET, ROUND_SEEDS, kappa, radius) == want
    assert run_dp_ftrl_logistic_seeds(iter(tasks), BUDGET, ROUND_SEEDS, kappa, radius) == want
    assert [run_dp_ftrl_logistic(t, BUDGET, s, kappa, radius) for t, s in zip(tasks, ROUND_SEEDS)] == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, d, kappa, radius", ROUND_CASES)
def test_learner_iterates_equal_reference_step(n, d, kappa, radius):
    # the learner's one-row _ftrl_step against clip, += and project_ball
    for seed in ROUND_SEEDS:
        task = logistic_task(n, d, seed)
        learner = DpFtrlLearner(n, d, BUDGET, seed, kappa=kappa, radius=radius)
        reference = ReferenceLearner(n, d, BUDGET, seed, kappa=kappa, radius=radius)
        for i in range(n):
            g = point_grad(task, learner.theta, i)
            assert learner.step_gradient(g).tobytes() == reference.step_gradient(g).tobytes()
            assert learner.grad_prefix.tobytes() == reference.grad_prefix.tobytes()


def test_step_gradient_writes_to_no_array_of_the_caller():
    learner = DpFtrlLearner(4, 2, BUDGET, seed=0)
    g = np.array([3.0, 4.0])  # norm 5: the step clips its copy to norm 1
    first = learner.step_gradient(g)
    kept = first.copy()
    assert g.tolist() == [3.0, 4.0]
    second = learner.step_gradient(first)
    assert second is not first and learner.theta is second
    assert first.tobytes() == kept.tobytes()
    # a strided view and a list go in as they are
    block = np.array([[30.0, 0.0], [-40.0, 0.0]])
    learner.step_gradient(block[:, 0])
    learner.step_gradient([0.5, 0.5])
    assert block.tolist() == [[30.0, 0.0], [-40.0, 0.0]]
    assert first.tobytes() == kept.tobytes()


def test_lockstep_noise_off_and_zero_gradients():
    # zero norms give r / 0 = inf in the scale, which must stay a scale of 1
    task = LogisticTask(xs=np.zeros((5, 2)), ys=np.ones(5))
    want = _per_seed_run(task, NOISE_OFF, 0)
    assert run_dp_ftrl_logistic_seeds([task, task], NOISE_OFF, [0, 1]) == [want, want]


@pytest.mark.filterwarnings("error")
def test_lockstep_blocks_where_only_some_rows_overflow(monkeypatch):
    # with no noise, the seed on all-zero inputs stays at theta = 0 while the
    # others' iterates near radius 1e300 overflow v . v, so the round's
    # blocks mix both kinds of row
    still = LogisticTask(xs=np.zeros((40, 3)), ys=np.ones(40))
    tasks = [logistic_task(40, 3, 1), still, logistic_task(40, 3, 2)]
    seeds = [0, 1, 2]
    want = [_per_seed_run(task, NOISE_OFF, seed, radius=1e300) for task, seed in zip(tasks, seeds)]
    overflowed = []
    shrink_rows_in_place = ftrl._shrink_rows_in_place

    def recording(v, r, scale):
        with np.errstate(over="ignore"):
            overflowed.append(tuple(np.vecdot(v, v) == math.inf))
        shrink_rows_in_place(v, r, scale)

    monkeypatch.setattr(ftrl, "_shrink_rows_in_place", recording)
    assert run_dp_ftrl_logistic_seeds(tasks, NOISE_OFF, seeds, radius=1e300) == want
    assert (True, False, True) in overflowed


def test_lockstep_refusals():
    tasks = [logistic_task(8, 2, 0), logistic_task(8, 3, 1)]
    with pytest.raises(ValueError, match="task 1 has shape"):
        run_dp_ftrl_logistic_seeds(tasks, BUDGET, [0, 1])
    with pytest.raises(ValueError, match="at least one seed"):
        run_dp_ftrl_logistic_seeds([], BUDGET, [])
    with pytest.raises(ValueError):
        run_dp_ftrl_logistic_seeds(tasks[:1], BUDGET, [0, 1])
    with pytest.raises(ValueError):
        run_dp_ftrl_logistic_seeds(tasks, BUDGET, [0])


def test_lockstep_groups_draw_tasks_as_they_go_and_refuse_mismatches(monkeypatch):
    # a cap of three seeds per group of 16 x 2 tasks
    monkeypatch.setattr(mechanism, "_BLOCK_VALUES", 3 * 16 * 2 + 5)
    drawn, groups = [], []

    def tasks(count, odd=None):
        for j in range(count):
            drawn.append(j)
            yield logistic_task(16, 3 if j == odd else 2, j)

    seeds = list(range(7))
    want = [run_dp_ftrl_logistic(logistic_task(16, 2, j), BUDGET, j) for j in seeds]
    lockstep_rounds = ftrl._lockstep_rounds

    def recording(tasks, budget, seeds, *args):
        groups.append((len(seeds), len(drawn)))
        return lockstep_rounds(tasks, budget, seeds, *args)

    monkeypatch.setattr(ftrl, "_lockstep_rounds", recording)
    assert run_dp_ftrl_logistic_seeds(tasks(7), BUDGET, seeds) == want
    # each group draws its tasks once it starts: the first one was drawn to size the groups
    assert groups == [(3, 1), (3, 3), (1, 6)]
    for count in (1, 4, 6):  # too few tasks, in the first, second and third group
        with pytest.raises(ValueError):
            run_dp_ftrl_logistic_seeds(tasks(count), BUDGET, seeds)
    with pytest.raises(ValueError, match="more tasks than the 7 seeds"):
        run_dp_ftrl_logistic_seeds(tasks(8), BUDGET, seeds)
    with pytest.raises(ValueError, match="a task per seed, got 7 seeds"):
        run_dp_ftrl_logistic_seeds(tasks(0), BUDGET, seeds)
    with pytest.raises(ValueError, match=r"task 4 has shape \(16, 3\), task 0 has \(16, 2\)"):
        run_dp_ftrl_logistic_seeds(tasks(7, odd=4), BUDGET, seeds)


def _shrink(v, r):
    """The one-vector shrink that ``clip`` and ``project_ball`` ran before
    ``_shrink_rows`` served them: v itself if sqrt(v . v) is at most r,
    else v rescaled to norm r, through a power of two when v . v
    overflows."""
    sq = float(np.vdot(v, v))
    if sq != math.inf:
        norm = math.sqrt(sq)
        return v if norm <= r else v * (r / norm)
    e = math.frexp(float(np.max(np.abs(v))))[1]
    w = np.ldexp(v, -e)  # max |w| is in [1/2, 1), so w . w does not overflow
    norm = math.sqrt(float(np.vdot(w, w)))
    return v if norm <= math.ldexp(r, -e) else (w / norm) * r


@pytest.mark.filterwarnings("error")
def test_shrink_rows_equals_shrink():
    rng = np.random.default_rng(21)
    rows = [np.zeros(3), np.full(3, 1e200), np.array([1.5e308, -1.5e308, 0.0])]
    rows += list(rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-5, 5, size=(40, 1)))
    # overflowing rows between ordinary ones, at magnitudes up to float64's largest
    rows += list(rng.normal(size=(40, 3)) * 10.0 ** rng.integers(150, 308, size=(40, 1)))
    v = rng.permutation(np.array(rows))
    for r in (1e-3, 1.0, 10.0, 1e300, 1e308):
        with np.errstate(over="ignore"):
            want = [_shrink(row, r) for row in v]
        with np.errstate(over="ignore", divide="ignore"):
            got = _shrink_rows(v, r)
        assert got.tobytes() == np.array(want).tobytes()
        for row, expected in zip(v, want):
            assert clip(row, r).tobytes() == expected.tobytes()
            assert project_ball(row, r).tobytes() == expected.tobytes()
        # 0-d, 2-D and empty inputs are one row of all their entries
        for x in (v[0, 0], v[3:6], v[:, :0], np.zeros(0)):
            with np.errstate(over="ignore"):
                expected = np.asarray(_shrink(x, r))
            for got in (clip(x, r), project_ball(x, r)):
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


def test_project_ball_returns_a_new_array():
    for v in (np.array([0.3, 0.4]), np.zeros(3), np.full(2, 1e200)):
        for shrink in (clip, project_ball):
            got = shrink(v, 1e300)
            assert got is not v
            assert got.tobytes() == v.tobytes()


def test_vectors_on_the_sphere_are_kept_past_the_float64_square():
    # v . v overflows, so the norm is taken of v / 2^e; a vector whose
    # scaled norm is exactly r / 2^e lies in the ball and is returned as is,
    # where rescaling it, (w / norm) * r, would move its last bits
    rng = np.random.default_rng(8)
    moved = 0
    for _ in range(50):
        v = rng.normal(size=3) * 2.0**700
        e = math.frexp(float(np.max(np.abs(v))))[1]
        w = np.ldexp(v, -e)
        norm = math.sqrt(float(np.vdot(w, w)))
        r = math.ldexp(norm, e)
        moved += not np.array_equal((w / norm) * r, v)
        assert project_ball(v, r).tobytes() == v.tobytes()
        with np.errstate(over="ignore", divide="ignore"):
            assert _shrink_rows(v[None, :], r)[0].tobytes() == v.tobytes()
    assert moved > 0


def test_regret_bound_refuses_bad_kappa_and_radius():
    for kappa, radius in ((1.0, 0.0), (1.0, -2.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            regret_bound(5, kappa, 3, BUDGET, radius)
    for kappa in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            regret_bound(5, kappa, 3, BUDGET, 1.0)


def test_learner_refuses_non_finite_lam():
    for lam in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            DpFtrlLearner(4, 2, BUDGET, 0, lam=lam)
    assert DpFtrlLearner(4, 2, BUDGET, 0, lam=2.5).lam == 2.5


def _per_seed_ftrl_csv(n, d, seed, count, kappa=1.0, radius=1.0):
    """``contcount ftrl`` output from one ``_per_seed_run`` per seed."""
    budget = PrivacyBudget(1.0, 1e-6)
    lines = ["seed,regret,bound"]
    for s in range(seed, seed + count):
        report = _per_seed_run(logistic_task(n, d, s), budget, s + 2**32, kappa, radius)
        lines.append(f"{s},{report.regret:.17g},{report.bound:.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "n, d, count, flags",
    [
        (24, 3, 1, []),
        (24, 3, 2, []),
        (24, 3, 5, ["--kappa", "0.3", "--radius", "0.5"]),
        (24, 3, 20, []),
        (520, 2, 2, []),
        (24, 3, 5, ["--radius", "1e300"]),
        (2048, 5, 20, []),
    ],
)
def test_ftrl_cli_equals_per_seed_loop(capsys, n, d, count, flags):
    args = ["ftrl", "--n", str(n), "--d", str(d), "--seed", "3", "--seeds-count", str(count), *flags]
    assert main(args) == 0
    kappa = float(flags[flags.index("--kappa") + 1]) if "--kappa" in flags else 1.0
    radius = float(flags[flags.index("--radius") + 1]) if "--radius" in flags else 1.0
    assert capsys.readouterr().out == _per_seed_ftrl_csv(n, d, 3, count, kappa, radius)


@pytest.mark.parametrize("count", [3, 4, 7])
def test_ftrl_cli_seed_groups(capsys, monkeypatch, count):
    # a cap of three seeds per group: four and seven seeds cross group edges
    monkeypatch.setattr(mechanism, "_BLOCK_VALUES", 3 * 16 * 2 + 5)
    groups = []
    lockstep_rounds = ftrl._lockstep_rounds

    def recording(tasks, budget, seeds, *args):
        groups.append(len(seeds))
        return lockstep_rounds(tasks, budget, seeds, *args)

    monkeypatch.setattr(ftrl, "_lockstep_rounds", recording)
    assert main(["ftrl", "--n", "16", "--d", "2", "--seed", "9", "--seeds-count", str(count)]) == 0
    assert groups == [3] * (count // 3) + ([count % 3] if count % 3 else [])
    assert capsys.readouterr().out == _per_seed_ftrl_csv(16, 2, 9, count)


def _linalg_norm_shrink(v, r):
    """``clip`` and ``project_ball`` with the norm of ``np.linalg.norm``."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    return v.copy() if norm <= r else v * (r / norm)


@pytest.mark.parametrize(
    "n, d, seed, count, kappa, radius",
    [(200, 3, 0, 2, 1.0, 1.0), (150, 6, 7, 1, 0.3, 0.5)],
)
def test_ftrl_cli_equals_per_seed_loop_with_linalg_norm(capsys, monkeypatch, n, d, seed, count, kappa, radius):
    args = ["ftrl", "--n", str(n), "--d", str(d), "--seed", str(seed), "--seeds-count", str(count)]
    assert main(args + ["--kappa", str(kappa), "--radius", str(radius)]) == 0
    got = capsys.readouterr().out
    # the product's loops call neither; the reference learner calls both
    # and the per-seed oracle project_ball
    monkeypatch.setattr("contcount.ftrl.clip", _linalg_norm_shrink)
    monkeypatch.setattr("contcount.ftrl.project_ball", _linalg_norm_shrink)
    assert got == _per_seed_ftrl_csv(n, d, seed, count, kappa, radius)


def _stacked(tasks):
    return np.array([task.xs for task in tasks]), np.array([task.ys for task in tasks])


# a task whose gradient is 0 stops at the first iteration, before the others
STOPS_AT_ONCE = LogisticTask(xs=np.zeros((200, 3)), ys=np.ones(200))


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize(
    "n, d, flip_prob, radius",
    # flip_prob 0 is separable: the loss falls toward the sphere, which binds;
    # radius 0.05 binds on noisy labels too
    [(2048, 5, 0.25, 1.0), (300, 3, 0.0, 2.0), (97, 3, 0.25, 0.05), (50, 7, 0.25, 1e300)],
)
def test_lockstep_oracle_equals_per_seed_loop(k, n, d, flip_prob, radius):
    tasks = [logistic_task(n, d, 2**40 + j, flip_prob) for j in range(k)]
    want = np.array([_per_seed_minimize(task, radius) for task in tasks])
    assert _minimize_logistic_in_balls(*_stacked(tasks), radius).tobytes() == want.tobytes()
    assert np.array([minimize_logistic_in_ball(task, radius) for task in tasks]).tobytes() == want.tobytes()
    if radius < 1e300 and (flip_prob == 0.0 or radius < 0.1):
        assert np.linalg.norm(want, axis=1) == pytest.approx(radius, rel=1e-9)


def test_lockstep_oracle_tasks_leave_at_their_own_iteration():
    tasks = [logistic_task(200, 3, 1), STOPS_AT_ONCE, logistic_task(200, 3, 2, flip_prob=0.0), STOPS_AT_ONCE]
    want = np.array([_per_seed_minimize(task, 1.0) for task in tasks])
    got = _minimize_logistic_in_balls(*_stacked(tasks), 1.0)
    assert got.tobytes() == want.tobytes()
    assert not got[1].any() and got[0].any()


def test_oracle_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(ftrl, "_ORACLE_MAX_ITER", 3)
    slow = logistic_task(200, 3, 1)
    with pytest.raises(RuntimeError) as want:
        _per_seed_minimize(slow, 1.0)
    for call in (
        lambda: minimize_logistic_in_ball(slow, 1.0),
        lambda: _minimize_logistic_in_balls(*_stacked([STOPS_AT_ONCE, slow]), 1.0),
        lambda: run_dp_ftrl_logistic_seeds([slow, slow], BUDGET, [0, 1]),
    ):
        with pytest.raises(RuntimeError) as got:
            call()
        assert str(got.value) == str(want.value) == "ball-constrained optimizer did not reach tolerance 1e-08"
    assert not _minimize_logistic_in_balls(*_stacked([STOPS_AT_ONCE]), 1.0).any()


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
def test_non_integral_seeds_are_refused(seed):
    for call in (lambda: DpFtrlLearner(4, 2, BUDGET, seed), lambda: logistic_task(4, 2, seed)):
        with pytest.raises(TypeError, match="seed must be an integer"):
            call()


@pytest.mark.filterwarnings("error")
def test_numpy_integer_seeds_equal_python_ints():
    for seed in (np.uint64(2**64 - 1), np.int64(2**63 - 1), np.int32(5)):
        task = logistic_task(6, 2, seed)
        assert task.xs.tobytes() == logistic_task(6, 2, int(seed)).xs.tobytes()
        learner = DpFtrlLearner(6, 2, BUDGET, seed)
        assert type(learner.seed) is int
        assert learner.noise.tobytes() == DpFtrlLearner(6, 2, BUDGET, int(seed)).noise.tobytes()
