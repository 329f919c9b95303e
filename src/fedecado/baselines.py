"""Reference federated algorithms sharing the objectives, the partitioner and
the local integrator: weighted averaging (FedAvg), proximal local steps
(FedProx) and normalized-direction aggregation (FedNova).

Every client runs `clients.simulate_local` from the global state with a zero
drift, so the local Forward-Euler steps are the ones FedECADO's clients take.
FedProx adds the proximal pull mu * (x - x_global) to each step; FedNova
changes only how the server combines the final states."""

import numpy as np

from fedecado.clients import simulate_local


def _local_finals(x_global, objectives, configs, mu, minibatch, rng):
    """Final local states of the clients, in order, all started from x_global
    and drawing their minibatches from one shared rng."""
    drift = np.zeros_like(x_global)
    return np.array([
        simulate_local(obj, cfg, x_global, drift, record="endpoints",
                       minibatch=minibatch, rng=rng, mu=mu).final_state
        for obj, cfg in zip(objectives, configs)])


def _renormalized(weights):
    weights = np.asarray(weights, dtype=np.float64)
    return weights / weights.sum()


def fedprox_round(x_global, objectives, configs, mu, minibatch=None, rng=None):
    """FedAvg with proximally regularized local steps (gradient plus
    mu * (x - x_global)); weights renormalize over the active set."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    x_global = np.asarray(x_global, dtype=np.float64)
    finals = _local_finals(x_global, objectives, configs, mu, minibatch, rng)
    w = _renormalized([cfg.weight for cfg in configs])
    return (w[:, None] * finals).sum(axis=0)


def fedavg_round(x_global, objectives, configs, minibatch=None, rng=None):
    """One round of weighted averaging over the active clients' local
    results: FedProx with mu = 0."""
    return fedprox_round(x_global, objectives, configs, 0.0, minibatch, rng)


def fednova_round(x_global, objectives, configs, minibatch=None, rng=None):
    """Normalized aggregation: each client reports the direction
    (x_global - x_final) / (lr * steps); the server applies their weighted
    average scaled by the weighted-average effective step sum(w * steps * lr)."""
    x_global = np.asarray(x_global, dtype=np.float64)
    finals = _local_finals(x_global, objectives, configs, 0.0, minibatch, rng)
    w = _renormalized([cfg.weight for cfg in configs])
    steps = np.array([cfg.epochs for cfg in configs], dtype=np.float64)
    lrs = np.array([cfg.lr for cfg in configs])
    directions = (x_global[None, :] - finals) / (lrs * steps)[:, None]
    effective_step = float((w * steps * lrs).sum())
    return x_global - effective_step * (w[:, None] * directions).sum(axis=0)
