"""Client-side simulation: explicit (Forward-Euler) integration of the local
gradient-flow ODE over a private time window, recording its checkpoints as
the `Trajectory` the central agent later resamples."""

from dataclasses import dataclass

import numpy as np


# a client state past GUARD * (1 + max|x_start|) in magnitude has diverged
GUARD = 1e12


class DivergenceError(RuntimeError):
    """Raised when a client state passes the GUARD magnitude or leaves the
    finite range; carries the step at which it happened (a too-large
    learning rate is the usual cause)."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class ClientConfig:
    """Per-client compute profile: the learning rate doubles as the local ODE
    time step, so a client covers window = epochs * lr of ODE time per round."""

    client_id: int
    lr: float
    epochs: int
    weight: float = 1.0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.weight <= 0:
            raise ValueError("weight must be > 0")

    @property
    def window(self):
        return self.epochs * self.lr


@dataclass(frozen=True)
class Trajectory:
    """Bare (times, states) pair, states row-indexed by time.  A client
    window's checkpoints are one; a recorded flow trace holds one per round,
    each state concat(flows.ravel(), x_c)."""

    times: np.ndarray
    states: np.ndarray


def simulate_local(obj, cfg, x_start, i_flow, t_start=0.0, minibatch=None, rng=None,
                   mu=0.0):
    """Integrate the local ODE with Forward-Euler steps:

        x <- x - lr * (weight * grad f(x) + i_flow + mu * (x - x_start))

    for cfg.epochs steps, holding the drift term i_flow constant over the
    window; mu > 0 adds FedProx's proximal pull back to the start state.
    Returns the window as a Trajectory: one checkpoint per step plus the
    initial state, at times t_start + lr * k.  Raises DivergenceError at the
    first state past the GUARD magnitude.

    minibatch selects a seeded random subset of that size per step and uses
    the rescaled stochastic gradient instead of the full one.
    """
    x0 = np.asarray(x_start, dtype=np.float64).copy()
    drift = np.asarray(i_flow, dtype=np.float64)
    if x0.shape != drift.shape or x0.shape != (obj.dim,):
        raise ValueError("x_start/i_flow shape mismatch with the objective")
    if minibatch is not None:
        if getattr(obj, "dataset", None) is None:
            raise ValueError("minibatch mode needs a dataset-backed objective")
        if rng is None:
            raise ValueError("minibatch mode needs an rng for reproducibility")
        minibatch = min(int(minibatch), len(obj.dataset))

    # every step rebinds x to a fresh array, so recorded states never alias
    x = x0
    limit = GUARD * (1.0 + np.abs(x0).max())
    states = [x0]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.epochs):
            if minibatch is None:
                grad = obj.gradient(x)
            else:
                idx = rng.choice(len(obj.dataset), minibatch, replace=False)
                grad = obj.gradient(x, sample_indices=idx)
            direction = cfg.weight * grad + drift
            if mu:
                direction = direction + mu * (x - x0)
            x = x - cfg.lr * direction
            if not np.abs(x).max() <= limit:     # NaN and inf fail it too
                raise DivergenceError(
                    f"client {cfg.client_id} diverged at local step {step + 1} "
                    f"(lr={cfg.lr:g})", step=step + 1)
            states.append(x)

    return Trajectory(t_start + cfg.lr * np.arange(cfg.epochs + 1), np.asarray(states))


def sample_heterogeneity(n_clients, seed, lr_range=(1e-4, 1e-3), epoch_range=(1, 10),
                         weights=None):
    """Draw per-client compute profiles: lr uniform on lr_range, epochs
    uniform integer on [epoch_range[0], epoch_range[1]].  Deterministic in
    seed."""
    if not (0 < lr_range[0] <= lr_range[1] and 1 <= epoch_range[0] <= epoch_range[1]):
        raise ValueError("need 0 < lr_min <= lr_max and 1 <= epochs_min <= epochs_max")
    rng = np.random.default_rng([int(seed), 9901])
    lrs = rng.uniform(lr_range[0], lr_range[1], n_clients)
    epochs = rng.integers(epoch_range[0], epoch_range[1] + 1, n_clients)
    if weights is None:
        weights = np.full(n_clients, 1.0 / n_clients)
    return [
        ClientConfig(i, float(lrs[i]), int(epochs[i]), float(weights[i]))
        for i in range(n_clients)
    ]
