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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mechanism import PrivacyBudget, _normals, _sqrt_noise
from .workload import _upper_log_factor

__all__ = [
    "clip",
    "project_ball",
    "lambda_star",
    "regret_bound",
    "DpFtrlLearner",
    "RegretReport",
    "regret_report",
    "LogisticTask",
    "logistic_task",
    "minimize_logistic_in_ball",
    "run_dp_ftrl_logistic",
]


# Stopping rule of ``minimize_logistic_in_ball``.
_ORACLE_TOL = 1e-8
_ORACLE_MAX_ITER = 200_000


def clip(g, kappa: float) -> np.ndarray:
    """Rescale g to Euclidean norm at most kappa."""
    g = np.asarray(g, dtype=np.float64)
    if not 0 < kappa < math.inf:  # also refuses nan
        raise ValueError(f"clip norm kappa must be positive and finite, got {kappa}")
    # the value np.linalg.norm gives (it is sqrt(g . g) on vectors), at less cost per call
    norm = math.sqrt(float(g @ g))
    if norm <= kappa:
        return g.copy()
    return g * (kappa / norm)


def _check_positive_finite(name: str, value: float) -> None:
    if not 0 < value < math.inf:  # also refuses nan
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_kappa_radius(kappa: float, radius: float) -> None:
    _check_positive_finite("kappa", kappa)
    _check_positive_finite("radius", radius)


def project_ball(v, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball of the given radius."""
    v = np.asarray(v, dtype=np.float64)
    norm = math.sqrt(float(v @ v))
    if norm <= radius:
        return v
    return v * (radius / norm)


def lambda_star(n: int, kappa: float, d: int, budget: PrivacyBudget, radius: float) -> float:
    """Regularization strength balancing the regret bound, with the feasible
    radius standing in for the unknowable norm of the post-hoc optimum:

    sqrt(2 n (1 + ln(4n/5)/pi) (kappa^2 + kappa C sqrt(d))) / radius.

    A strength that overflows float64, or underflows to 0, is refused.
    """
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
    """
    c = budget.noise_multiplier
    width = kappa * kappa + kappa * c * math.sqrt(d)
    return radius * math.sqrt(_upper_log_factor(n) * width / (2.0 * n))


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
        n, d = int(n), int(d)
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        _check_kappa_radius(kappa, radius)
        self.n = n
        self.d = d
        self.budget = budget
        self.kappa = float(kappa)
        self.radius = float(radius)
        self.lam = float(lam) if lam is not None else lambda_star(n, kappa, d, budget, radius)
        if not self.lam > 0:
            raise ValueError("regularization strength must be positive")
        self.seed = int(seed)
        self.t = 0
        self.grad_prefix = np.zeros(d)
        self.theta = np.zeros(d)

        # standard_normal((n, d)) from PCG64(seed); column j is the noise of coordinate j
        self.noise = _normals(seed, 1, n * d).reshape(n, d)
        _sqrt_noise(self.noise.T, budget.noise_multiplier * kappa)

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
    regret: float
    bound: float


def regret_report(avg_loss: float, opt_loss: float, bound: float) -> RegretReport:
    return RegretReport(
        avg_loss=avg_loss, opt_loss=opt_loss, regret=avg_loss - opt_loss, bound=bound
    )


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
    n, d = int(n), int(d)
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not 0 <= flip_prob < 0.5:
        raise ValueError(f"flip probability must be in [0, 0.5), got {flip_prob}")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
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
    ``_ORACLE_TOL``, for at most ``_ORACLE_MAX_ITER`` iterations.
    """
    _check_positive_finite("radius", radius)
    # Smoothness constant of the average logistic loss is at most
    # max eig of (1/4n) sum x x^T <= 1/4 for unit-ball inputs.
    step = 4.0
    theta = np.zeros(task.d)
    momentum = theta.copy()
    t_acc = 1.0
    for _ in range(_ORACLE_MAX_ITER):
        grad = task.avg_grad(momentum)
        nxt = project_ball(momentum - step * grad, radius)
        grad_at_theta = task.avg_grad(theta)
        mapped = (theta - project_ball(theta - step * grad_at_theta, radius)) / step
        if np.linalg.norm(mapped) <= _ORACLE_TOL:
            return theta
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
    learner = DpFtrlLearner(task.n, task.d, budget, seed, kappa=kappa, radius=radius)
    incurred = 0.0
    for i in range(task.n):
        loss, grad = task.point_loss_grad(learner.theta, i)
        incurred += loss
        learner.step_gradient(grad)
    theta_opt = minimize_logistic_in_ball(task, radius)
    bound = regret_bound(task.n, kappa, task.d, budget, radius)
    return regret_report(incurred / task.n, task.avg_loss(theta_opt), bound)
