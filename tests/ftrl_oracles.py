"""DP-FTRL oracles: the per-example logistic gradients and the one-vector
learner round that ``contcount.ftrl``'s block arithmetic is checked
against.  They follow the definitions one example and one round at a time.
"""

import numpy as np

from contcount import ftrl


def point_loss_grad(task, theta, i: int) -> tuple[float, np.ndarray]:
    """Loss and gradient at theta on example i of the task, from one margin."""
    margin = task.ys[i] * float(task.xs[i] @ theta)
    # d/dtheta ln(1 + e^(-m)) = -sigmoid(-m) * y * x
    grad = -(task.ys[i] * ftrl._sigmoid(-margin)) * task.xs[i]
    return float(np.logaddexp(0.0, -margin)), grad


def point_grad(task, theta, i: int) -> np.ndarray:
    return point_loss_grad(task, theta, i)[1]


def avg_grad(task, theta) -> np.ndarray:
    """Gradient of the task's average logistic loss at theta."""
    margins = task.ys * (task.xs @ theta)
    weights = -task.ys * ftrl._sigmoid(-margins)
    return (weights @ task.xs) / task.n


class ReferenceLearner:
    """``DpFtrlLearner``'s round on one vector, apart from ``ftrl._ftrl_step``:
    the prefix grows by ``clip(g, kappa)``, and the iterate is
    ``project_ball(-s_t / lam, radius)`` with s_t the prefix plus the round's
    noise row.  The noise, lam, kappa and radius are those of a
    ``DpFtrlLearner`` built from the same arguments.  ``clip`` and
    ``project_ball`` are looked up in ``contcount.ftrl`` at each call, so a
    test can patch the norm."""

    def __init__(self, *args, **kwargs):
        learner = ftrl.DpFtrlLearner(*args, **kwargs)
        self.noise, self.lam = learner.noise, learner.lam
        self.kappa, self.radius = learner.kappa, learner.radius
        self.t = 0
        self.grad_prefix = np.zeros(learner.d)
        self.theta = np.zeros(learner.d)

    def step_gradient(self, g) -> np.ndarray:
        self.grad_prefix += ftrl.clip(g, self.kappa)
        s_t = self.grad_prefix + self.noise[self.t]
        self.theta = ftrl.project_ball(-s_t / self.lam, self.radius)
        self.t += 1
        return self.theta
