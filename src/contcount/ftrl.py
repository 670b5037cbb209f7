"""Differentially private follow-the-regularized-leader (DP-FTRL).

The learner releases gradient prefix sums through the square-root
factorization counting mechanism, with ``StreamingCounter``'s noise
generator (``mechanism._sqrt_noise``) on d columns.  The prefix sums are
M = L R (R = L) times the clipped gradients, so changing gradient j moves
L^-1 times them by R e_j times a vector of norm at most kappa: the
sensitivity is kappa * ||R||_{1->2}, and the noise L G is scaled by the
constant C(eps, delta) times it.  After preprocessing every round costs
O(d): clip the gradient, add it to the prefix, add the stored noise row
and take the regularized argmin (a rescaling) projected onto the ball.

Gradient clipping rescales to norm kappa whenever the gradient is longer
than kappa, so clipped gradients always lie in the radius-kappa ball.
Clipping and the projection onto the ball are one norm-and-rescale,
``_shrink_rows``, on each row of a block: ``clip`` and ``project_ball``
read their input as one row and always return a new array.

``run_dp_ftrl_logistic_seeds`` runs several seeds in lockstep: one round
loop over a leading seed axis, whose per-round numpy calls serve every
seed at once, and then one loop of the post-hoc oracle for all seeds,
from which each seed leaves at its own stopping iteration.  Each seed's
report is byte for byte that of its own ``run_dp_ftrl_logistic``, and of
a loop of ``DpFtrlLearner.step_gradient`` calls and one
``minimize_logistic_in_ball``, because every operation acts on each
seed's row alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .mechanism import PrivacyBudget, _generator, _normals, _sqrt_noise
from .workload import _check_int, _upper_log_factor

__all__ = [
    "clip",
    "project_ball",
    "lambda_star",
    "regret_bound",
    "DpFtrlLearner",
    "RegretReport",
    "LogisticTask",
    "logistic_task",
    "minimize_logistic_in_ball",
    "run_dp_ftrl_logistic",
    "run_dp_ftrl_logistic_seeds",
]


# Stopping rule of ``minimize_logistic_in_ball``.
_ORACLE_TOL = 1e-8
_ORACLE_MAX_ITER = 200_000


def _shrink_rows(v: np.ndarray, r: float) -> np.ndarray:
    """Each row of the (k, d) block v, rescaled to Euclidean norm r when its
    norm is more than r; always a new array.

    The norm is sqrt(v . v), the value ``np.linalg.norm`` gives on vectors,
    at less cost per call: ``np.vecdot`` makes one ddot per row, and
    ``r / norm`` is at least 1 exactly when the norm is at most r, so the
    scale is then 1.  A row whose square overflows to inf is first scaled
    by the power of two 2^-e that puts its largest entry in [1/2, 1), which
    is exact; it is kept as it is when that scaled norm is at most r 2^-e,
    and is otherwise (w / norm) r.  Call it under
    ``np.errstate(over="ignore", divide="ignore")``: a square may
    overflow, and a zero norm gives r / 0 = inf.
    """
    sq = np.vecdot(v, v)
    out = v * np.minimum(r / np.sqrt(sq), 1.0)[:, None]
    if math.inf in sq.tolist():
        over = sq == math.inf
        u = v[over]
        e = np.frexp(np.abs(u).max(axis=1))[1][:, None]
        w = np.ldexp(u, -e)
        norm = np.sqrt(np.vecdot(w, w))[:, None]
        out[over] = np.where(norm <= np.ldexp(r, -e), u, (w / norm) * r)
    return out


def clip(g, kappa: float) -> np.ndarray:
    """Rescale g to Euclidean norm at most kappa (``project_ball``); always
    a new array."""
    _check_positive_finite("clip norm kappa", kappa)
    return project_ball(g, kappa)


def _check_positive_finite(name: str, value: float) -> None:
    if not 0 < value < math.inf:  # also refuses nan
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_kappa_radius(kappa: float, radius: float) -> None:
    _check_positive_finite("kappa", kappa)
    _check_positive_finite("radius", radius)


def project_ball(v, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball of the given radius, of v
    read as one row of ``_shrink_rows``; always a new array.  The radius
    must be positive and finite, and a NaN or infinite entry is refused: it
    has no projection."""
    _check_positive_finite("radius", radius)
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError(f"vector entries must be finite, got {v}")
    with np.errstate(over="ignore", divide="ignore"):  # for _shrink_rows
        return _shrink_rows(v.reshape(1, -1), radius).reshape(v.shape)


def lambda_star(n: int, kappa: float, d: int, budget: PrivacyBudget, radius: float) -> float:
    """Regularization strength balancing the regret bound, with the feasible
    radius standing in for the unknowable norm of the post-hoc optimum:

    sqrt(2 n (1 + ln(4n/5)/pi) (kappa^2 + kappa C sqrt(d))) / radius.

    A strength that overflows float64, or underflows to 0, is refused.
    """
    n, d = _check_int("n", n, 1), _check_int("d", d, 1)
    _check_kappa_radius(kappa, radius)
    c = budget.noise_multiplier
    width = kappa * kappa + kappa * c * math.sqrt(d)
    lam = math.sqrt(2.0 * n * _upper_log_factor(n) * width) / radius
    if not 0 < lam < math.inf:
        flow = "overflows" if lam else "underflows"
        raise ValueError(
            f"regularization strength {flow} float64 at kappa={kappa}, radius={radius}"
        )
    return lam


def regret_bound(n: int, kappa: float, d: int, budget: PrivacyBudget, radius: float) -> float:
    """Expected-regret guarantee of DP-FTRL with the tuned regularizer:

    radius * sqrt((1 + ln(4n/5)/pi) (kappa^2 + kappa C sqrt(d)) / (2n)).

    A bound that overflows float64 is refused.
    """
    n, d = _check_int("n", n, 1), _check_int("d", d, 1)
    _check_kappa_radius(kappa, radius)
    c = budget.noise_multiplier
    width = kappa * kappa + kappa * c * math.sqrt(d)
    bound = radius * math.sqrt(_upper_log_factor(n) * width / (2.0 * n))
    if bound == math.inf:
        raise ValueError(f"regret bound overflows float64 at kappa={kappa}, radius={radius}")
    return bound


class DpFtrlLearner:
    """Sequential DP-FTRL state machine (single owner, one step per round)."""

    def __init__(
        self,
        n: int,
        d: int,
        budget: PrivacyBudget,
        seed: int,
        lam: float | None = None,
        kappa: float = 1.0,
        radius: float = 1.0,
    ):
        n, d = _check_int("n", n, 1), _check_int("d", d, 1)
        _check_kappa_radius(kappa, radius)
        self.n = n
        self.d = d
        self.budget = budget
        self.kappa = float(kappa)
        self.radius = float(radius)
        self.lam = float(lam) if lam is not None else lambda_star(n, kappa, d, budget, radius)
        _check_positive_finite("lam", self.lam)
        self.seed = _check_int("seed", seed)
        self.t = 0
        self.grad_prefix = np.zeros(d)
        self.theta = np.zeros(d)

        # standard_normal((n, d)) from PCG64(seed); column j is the noise of coordinate j
        self.noise = _normals(self.seed, 1, n * d).reshape(n, d)
        _sqrt_noise(self.noise.T, budget.noise_multiplier * kappa)
        # every |s_t[i]| is at most n kappa + max |noise|; twice that covers
        # rounding, so below this check the iterate -s_t / lam never overflows
        peak = 2.0 * (n * self.kappa + max(float(self.noise.max()), -float(self.noise.min())))
        if peak / self.lam == math.inf:
            raise ValueError(f"iterate -s_t / lambda can overflow float64 at kappa={kappa}, radius={radius}")

    def step_gradient(self, g) -> np.ndarray:
        """Consume the round-t gradient (evaluated at the current iterate)
        and return the next iterate."""
        if self.t >= self.n:
            raise ValueError(f"horizon {self.n} exceeded")
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.d,):
            raise ValueError(f"gradient has shape {g.shape}, expected ({self.d},)")
        self.grad_prefix += clip(g, self.kappa)
        s_t = self.grad_prefix + self.noise[self.t]
        self.theta = project_ball(-s_t / self.lam, self.radius)
        self.t += 1
        return self.theta


@dataclass(frozen=True)
class RegretReport:
    avg_loss: float
    opt_loss: float
    bound: float

    @property
    def regret(self) -> float:
        return self.avg_loss - self.opt_loss


@dataclass(frozen=True)
class LogisticTask:
    """A stream of (x, y) pairs with ||x||_2 <= 1, y in {-1, +1}, under the
    1-Lipschitz logistic loss ln(1 + exp(-y <theta, x>))."""

    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    def point_loss_grad(self, theta, i: int) -> tuple[float, np.ndarray]:
        """Loss and gradient at theta on example i, from one margin."""
        margin = self.ys[i] * float(self.xs[i] @ theta)
        # d/dtheta ln(1 + e^(-m)) = -sigmoid(-m) * y * x
        grad = -(self.ys[i] * _sigmoid(-margin)) * self.xs[i]
        return float(np.logaddexp(0.0, -margin)), grad

    def point_grad(self, theta, i: int) -> np.ndarray:
        return self.point_loss_grad(theta, i)[1]

    def avg_loss(self, theta) -> float:
        margins = self.ys * (self.xs @ theta)
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def avg_grad(self, theta) -> np.ndarray:
        margins = self.ys * (self.xs @ theta)
        weights = -self.ys * _sigmoid(-margins)
        return (weights @ self.xs) / self.n


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def logistic_task(n: int, d: int, seed: int, flip_prob: float = 0.25) -> LogisticTask:
    """Generate a synthetic binary-classification stream.

    Inputs are uniform in the unit ball; labels follow the sign of a fixed
    random direction and flip independently with probability ``flip_prob``.
    ``flip_prob=0`` yields linearly separable data.
    """
    n, d = _check_int("n", n, 1), _check_int("d", d, 1)
    if not 0 <= flip_prob < 0.5:
        raise ValueError(f"flip probability must be in [0, 0.5), got {flip_prob}")
    rng = _generator(_check_int("seed", seed))
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    xs = rng.standard_normal((n, d))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    xs *= rng.uniform(size=(n, 1)) ** (1.0 / d)
    ys = np.sign(xs @ direction)
    ys[ys == 0] = 1.0
    flips = rng.uniform(size=n) < flip_prob
    ys[flips] *= -1.0
    return LogisticTask(xs=xs, ys=ys)


def minimize_logistic_in_ball(task: LogisticTask, radius: float) -> np.ndarray:
    """Post-hoc optimum of the average logistic loss over the radius ball.

    Accelerated projected gradient descent, run until the projected-gradient
    norm ||theta - proj(theta - step * grad)|| / step drops below
    ``_ORACLE_TOL``, for at most ``_ORACLE_MAX_ITER`` iterations
    (``_minimize_logistic_in_balls`` on one task).
    """
    return _minimize_logistic_in_balls(task.xs[None], task.ys[None], radius)[0]


def _avg_grads(xs: np.ndarray, neg_ys: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``LogisticTask.avg_grad`` of task j at each of the points[j], byte
    for byte, for the (k, n, d) inputs xs and negated (k, n) labels neg_ys
    of k tasks and (k, m, d) points.

    The stacked ``matmul`` makes one matrix-vector product per task and
    point, the products ``xs @ theta`` and ``weights @ xs`` make.  The
    weights -y sigmoid(-y x.theta) are built in one buffer by the same
    elementwise operations (a product's sign and operand order do not
    change its bits): large temporaries cost more than the arithmetic.
    """
    z = np.matmul(xs[:, None], points[..., None])[..., 0]
    z *= neg_ys[:, None]  # the negated margins
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5  # _sigmoid of the negated margins
    z *= neg_ys[:, None]
    return np.matmul(z[..., None, :], xs[:, None])[..., 0, :] / xs.shape[1]


def _minimize_logistic_in_balls(xs: np.ndarray, ys: np.ndarray, radius: float) -> np.ndarray:
    """``minimize_logistic_in_ball`` of each of k tasks, (k, n, d) inputs
    xs and (k, n) labels ys, in lockstep: a (k, d) block of optima.

    Each iteration takes the gradients at every task's momentum point and
    iterate in one ``_avg_grads`` call and projects with ``_shrink_rows``;
    a task leaves the block at the iteration its stopping rule holds, so
    each optimum is byte for byte that of the task run alone.
    """
    _check_positive_finite("radius", radius)
    # Smoothness constant of the average logistic loss is at most
    # max eig of (1/4n) sum x x^T <= 1/4 for unit-ball inputs.
    step = 4.0
    optima = np.empty((xs.shape[0], xs.shape[2]))
    active = np.arange(xs.shape[0])  # the tasks still iterating, in block order
    neg_ys = -ys
    theta = np.zeros(optima.shape)
    momentum = theta.copy()
    t_acc = 1.0
    with np.errstate(over="ignore", divide="ignore"):  # for _shrink_rows
        for _ in range(_ORACLE_MAX_ITER):
            grads = _avg_grads(xs, neg_ys, np.stack((momentum, theta), axis=1))
            nxt = _shrink_rows(momentum - step * grads[:, 0], radius)
            mapped = (theta - _shrink_rows(theta - step * grads[:, 1], radius)) / step
            # the norm np.linalg.norm gives: sqrt of one dot product per row
            done = np.sqrt(np.vecdot(mapped, mapped)) <= _ORACLE_TOL
            if done.any():
                optima[active[done]] = theta[done]
                going = ~done
                if not going.any():
                    return optima
                active, xs, neg_ys = active[going], xs[going], neg_ys[going]
                theta, momentum, nxt = theta[going], momentum[going], nxt[going]
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
            momentum = nxt + ((t_acc - 1.0) / t_next) * (nxt - theta)
            theta = nxt
            t_acc = t_next
    raise RuntimeError(f"ball-constrained optimizer did not reach tolerance {_ORACLE_TOL}")


def run_dp_ftrl_logistic(
    task: LogisticTask,
    budget: PrivacyBudget,
    seed: int,
    kappa: float = 1.0,
    radius: float = 1.0,
) -> RegretReport:
    """Run DP-FTRL over a logistic stream and report regret against the
    post-hoc in-ball optimum."""
    return run_dp_ftrl_logistic_seeds([task], budget, [seed], kappa, radius)[0]


def _stack_seeds(tasks, budget, seeds, kappa, radius):
    """Seed-major xs (k, n, d) and ys (k, n), round-major noise (n, k, d),
    and lambda (one float: it is the same for every seed), of the k tasks
    and of each seed's ``DpFtrlLearner``.  Each task and learner is copied
    in as it comes and then dropped, so neither is held twice."""
    k = len(seeds)
    if k == 0:
        raise ValueError("need at least one seed")
    for j, (task, seed) in enumerate(zip(tasks, seeds, strict=True)):
        if j == 0:
            n, d = task.n, task.d
            xs, noise = np.empty((k, n, d)), np.empty((n, k, d))
            ys = np.empty((k, n))
        if task.xs.shape != (n, d):
            raise ValueError(f"task {j} has shape {task.xs.shape}, task 0 has {(n, d)}")
        learner = DpFtrlLearner(n, d, budget, seed, kappa=kappa, radius=radius)
        xs[j], ys[j], noise[:, j], lam = task.xs, task.ys, learner.noise, learner.lam
    return xs, ys, noise, lam


def _lockstep_rounds(tasks, budget, seeds, kappa, radius):
    """The seeds' round loop: the stacked (k, n, d) streams xs and (k, n)
    labels ys, and each seed's total loss.  The noise, which only the loop
    reads, is dropped on return, before the oracle allocates its arrays."""
    xs, ys, noise, lam = _stack_seeds(tasks, budget, seeds, kappa, radius)
    k, n, d = xs.shape
    margins = np.empty((n, k))
    grad_prefix = np.zeros((k, d))
    theta = np.zeros((k, d))
    with np.errstate(over="ignore", divide="ignore"):  # for _shrink_rows
        for t, (z, margin) in enumerate(zip(noise, margins)):
            x, y = xs[:, t], ys[:, t]
            np.multiply(y, np.vecdot(x, theta), out=margin)
            grad_prefix += _shrink_rows(-(y * _sigmoid(-margin))[:, None] * x, kappa)
            theta = _shrink_rows(-(grad_prefix + z) / lam, radius)
    # the running total of each seed's losses, one round at a time (a sum
    # down the column would be pairwise when there is one seed)
    return xs, ys, np.cumsum(np.logaddexp(0.0, -margins), axis=0)[-1]


def run_dp_ftrl_logistic_seeds(
    tasks: Iterable[LogisticTask],
    budget: PrivacyBudget,
    seeds: Sequence[int],
    kappa: float = 1.0,
    radius: float = 1.0,
) -> list[RegretReport]:
    """``run_dp_ftrl_logistic`` on each task with its noise seed, byte for
    byte, in one round loop over a leading seed axis.

    ``tasks`` yields one task per seed, all of one shape (n, d); a generator
    of tasks is never held whole.  Each round makes the operations of one
    ``LogisticTask.point_loss_grad`` and one ``DpFtrlLearner.step_gradient``
    per seed, elementwise on (k, d) blocks, with ``_shrink_rows`` for the
    clip and the projection.  The losses are summed after the loop, and
    the post-hoc optima come from ``_minimize_logistic_in_balls``.
    """
    xs, ys, incurred = _lockstep_rounds(tasks, budget, seeds, kappa, radius)
    _, n, d = xs.shape
    optima = _minimize_logistic_in_balls(xs, ys, radius)
    bound = regret_bound(n, kappa, d, budget, radius)
    return [
        RegretReport(float(loss) / n, LogisticTask(xs=x, ys=y).avg_loss(theta), bound)
        for loss, x, y, theta in zip(incurred, xs, ys, optima)
    ]
