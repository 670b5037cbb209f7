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

A round is written once, ``_ftrl_step`` on (k, d) blocks of k learners,
with one norm-and-rescale, ``_shrink_rows_in_place``, for the clip and the
projection (``clip`` and ``project_ball`` run it on a copy of one row).
``DpFtrlLearner.step_gradient`` runs the round with k = 1, and
``run_dp_ftrl_logistic_seeds`` with a row per seed, so each round's numpy
calls serve every seed; its post-hoc oracle serves them all too, and each
seed leaves it at its own stopping iteration.  Every operation acts on each
seed's row alone, so each report is byte for byte that of the seed's own
``run_dp_ftrl_logistic``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import mechanism
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
    """``_shrink_rows_in_place`` on a copy of v: always a new array."""
    out = v.copy()
    _shrink_rows_in_place(out, r, np.empty((v.shape[0], 1)))
    return out


# 0-d arrays: numpy applies them faster than Python floats of equal value
_HALF, _ONE = np.array(0.5), np.array(1.0)


def _shrink_rows_in_place(v: np.ndarray, r, scale: np.ndarray) -> None:
    """Rescale each row of the (k, d) block v, in place, to Euclidean norm
    r when its norm is more than r, with the (k, 1) buffer ``scale``.

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
    np.vecdot(v, v, out=scale, keepdims=True)
    over = None
    if math.inf in scale.ravel().tolist():
        over = scale[:, 0] == math.inf
        u = v[over]
        e = np.frexp(np.abs(u).max(axis=1))[1][:, None]
        w = np.ldexp(u, -e)
        norm = np.sqrt(np.vecdot(w, w))[:, None]
        shrunk = np.where(norm <= np.ldexp(r, -e), u, (w / norm) * r)
    np.sqrt(scale, out=scale)
    np.divide(r, scale, out=scale)
    np.minimum(scale, _ONE, out=scale)
    np.multiply(v, scale, out=v)
    if over is not None:
        v[over] = shrunk


def _ftrl_step(grad, grad_prefix, z, theta, kappa, radius, neg_lam, scale) -> None:
    """One round of k learners, in place on (k, d) blocks: clip each row of
    ``grad`` to kappa and add it to ``grad_prefix``; set ``theta`` to
    (prefix + z) / (-lam), which is exactly -(prefix + z) / lam, projected
    onto the ball.  Errstate and ``scale``: as ``_shrink_rows_in_place``."""
    _shrink_rows_in_place(grad, kappa, scale)
    np.add(grad_prefix, grad, out=grad_prefix)
    np.add(grad_prefix, z, out=theta)
    np.divide(theta, neg_lam, out=theta)
    _shrink_rows_in_place(theta, radius, scale)


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
        """Consume the round-t gradient g (evaluated at the current iterate),
        which is not written to, and return the next iterate, a new array."""
        if self.t >= self.n:
            raise ValueError(f"horizon {self.n} exceeded")
        grad = np.array(g, dtype=np.float64)  # a copy: the step clips it in place
        if grad.shape != (self.d,) or not np.isfinite(grad).all():
            raise ValueError(f"gradient must be finite of shape ({self.d},), got {grad!r}")
        self.theta = np.empty(self.d)
        with np.errstate(over="ignore", divide="ignore"):  # for _ftrl_step
            _ftrl_step(
                grad[None], self.grad_prefix[None], self.noise[self.t], self.theta[None],
                self.kappa, self.radius, -self.lam, np.empty((1, 1)),
            )
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
    """A stream of (x, y) pairs with ||x||_2 <= 1 (to 1e-12), y in {-1, +1},
    under the 1-Lipschitz logistic loss ln(1 + exp(-y <theta, x>)); the
    regret bound and the oracle's step rest on it, so nothing else is taken."""

    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)

    def __post_init__(self):
        xs, ys = np.asarray(self.xs), np.asarray(self.ys)
        if xs.ndim != 2 or 0 in xs.shape:
            raise ValueError(f"xs must be 2-D with n, d >= 1, got shape {xs.shape}")
        if ys.shape != xs.shape[:1] or not (np.abs(ys) == 1).all():  # also refuses nan
            raise ValueError(f"ys must be {xs.shape[0]} labels -1 or +1, got shape {ys.shape}")
        with np.errstate(over="ignore"):  # a square past float64 is a norm above 1
            norms = np.sqrt(np.vecdot(xs, xs))
        if not (norms <= 1 + 1e-12).all():  # also refuses nan and inf entries
            raise ValueError(f"xs rows must be finite, of norm at most 1, got norm {norms.max()}")

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    def avg_loss(self, theta) -> float:
        margins = self.ys * (self.xs @ theta)
        return float(np.mean(np.logaddexp(0.0, -margins)))


def _sigmoid(z, out=None):
    """0.5 (1 + tanh(0.5 z)), elementwise; written into ``out`` when it is
    given (``out`` may be z)."""
    s = np.tanh(np.multiply(z, _HALF, out=out), out=out)
    return np.multiply(np.add(s, _ONE, out=out), _HALF, out=out)


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
    """The gradient of task j's average logistic loss at each of points[j],
    byte for byte (-y sigmoid(-y xs @ theta)) @ xs / n, for the (k, n, d)
    inputs xs, negated (k, n) labels neg_ys and (k, m, d) points of k tasks.

    The stacked ``matmul`` makes one matrix-vector product per task and
    point, the products ``xs @ theta`` and ``weights @ xs`` make.  The
    weights -y sigmoid(-y x.theta) are built in one buffer by the same
    elementwise operations (a product's sign and operand order do not
    change its bits): large temporaries cost more than the arithmetic.
    """
    z = np.matmul(xs[:, None], points[..., None])[..., 0]
    z *= neg_ys[:, None]  # the negated margins
    _sigmoid(z, out=z)
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


def _stack_seeds(tasks, budget, seeds, kappa, radius, shape, start):
    """Seed-major xs (k, n, d) and ys (k, n), round-major noise (n, k, d),
    and lambda (one float: it is the same for every seed), of the next k
    tasks, tasks start, start + 1, ... of a run whose task 0 has the shape
    (n, d), and of each seed's ``DpFtrlLearner``.  Each task and learner is
    copied in as it comes and then dropped, so neither is held twice."""
    k, (n, d) = len(seeds), shape
    xs, ys, noise = np.empty((k, n, d)), np.empty((k, n)), np.empty((n, k, d))
    for j, (task, seed) in enumerate(zip(itertools.islice(tasks, k), seeds, strict=True)):
        if task.xs.shape != shape:
            raise ValueError(f"task {start + j} has shape {task.xs.shape}, task 0 has {shape}")
        learner = DpFtrlLearner(n, d, budget, seed, kappa=kappa, radius=radius)
        xs[j], ys[j], noise[:, j], lam = task.xs, task.ys, learner.noise, learner.lam
    return xs, ys, noise, lam


def _lockstep_rounds(tasks, budget, seeds, kappa, radius, shape, start) -> list[RegretReport]:
    """The reports of one group of seeds (``_stack_seeds``): the round loop,
    then the post-hoc optima of ``_minimize_logistic_in_balls``, after the
    noise, which only the loop reads, is dropped.

    Each round writes into buffers allocated once: the gradients at every
    seed's iterate, then one ``_ftrl_step``.  The negated margins are
    computed as (-y) x.theta, which is exactly -(y x.theta), and the
    gradient weight -(y sigmoid(-margin)) as (-y) sigmoid(-margin)."""
    xs, ys, noise, lam = _stack_seeds(tasks, budget, seeds, kappa, radius, shape, start)
    k, n, d = xs.shape
    bound = regret_bound(n, kappa, d, budget, radius)
    neg_ys = np.negative(ys.T, order="C")  # round-major
    neg_margins = np.empty((n, k))
    weight, scale = np.empty((k, 1)), np.empty((k, 1))
    w = weight[:, 0]  # the weight column as a (k,) row
    grad, grad_prefix, theta = np.empty((k, d)), np.zeros((k, d)), np.zeros((k, d))
    # kappa, radius and -lam as 0-d arrays, which numpy applies faster than floats
    constants = [np.array(float(v)) for v in (kappa, radius, -lam)]
    with np.errstate(over="ignore", divide="ignore"):  # for _ftrl_step
        for x, neg_y, neg_margin, z in zip(xs.transpose(1, 0, 2), neg_ys, neg_margins, noise):
            np.vecdot(x, theta, out=neg_margin)
            np.multiply(neg_margin, neg_y, out=neg_margin)
            _sigmoid(neg_margin, out=w)
            np.multiply(w, neg_y, out=w)  # (-y) _sigmoid(-margin)
            np.multiply(weight, x, out=grad)
            _ftrl_step(grad, grad_prefix, z, theta, *constants, scale)
    # the running total of each seed's losses, one round at a time (a sum
    # down the column would be pairwise when there is one seed)
    incurred = np.cumsum(np.logaddexp(0.0, neg_margins), axis=0)[-1]
    del noise, neg_ys, neg_margins, z, neg_y, neg_margin  # with the loop's row views
    optima = _minimize_logistic_in_balls(xs, ys, radius)
    return [
        RegretReport(float(loss) / n, LogisticTask(xs=x, ys=y).avg_loss(opt), bound)
        for loss, x, y, opt in zip(incurred, xs, ys, optima)
    ]


def run_dp_ftrl_logistic_seeds(
    tasks: Iterable[LogisticTask],
    budget: PrivacyBudget,
    seeds: Sequence[int],
    kappa: float = 1.0,
    radius: float = 1.0,
) -> list[RegretReport]:
    """``run_dp_ftrl_logistic`` on each task with its noise seed, byte for
    byte, with the seeds in lockstep.

    ``tasks`` yields one task per seed, all of one shape (n, d); a generator
    of tasks is never held whole.  Each ``_lockstep_rounds`` call runs a
    group of max(1, ``mechanism._BLOCK_VALUES`` // (n d)) seeds, whose
    stacked streams and noise hold at most 2^18 values, as a Monte-Carlo
    block does: memory does not grow with the number of seeds.
    """
    tasks = iter(tasks)
    first = next(tasks, None)
    if len(seeds) == 0 or first is None:
        raise ValueError(f"need at least one seed and a task per seed, got {len(seeds)} seeds")
    tasks, shape = itertools.chain([first], tasks), first.xs.shape
    group = max(1, mechanism._BLOCK_VALUES // (first.n * first.d))
    reports = []
    for start in range(0, len(seeds), group):
        part = seeds[start : start + group]
        reports += _lockstep_rounds(tasks, budget, part, kappa, radius, shape, start)
    if next(tasks, None) is not None:
        raise ValueError(f"more tasks than the {len(seeds)} seeds")
    return reports
