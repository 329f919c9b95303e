"""Server rules of the reference federated algorithms: weighted averaging
(FedAvg, FedProx) and normalized-direction aggregation (FedNova).

The harness runs every algorithm's client phase the same way: each active
client takes its local Forward-Euler steps with `clients.simulate_local`
from the global state, with a zero drift.  FedProx differs from FedAvg only
in its clients' proximal pull mu * (x - x_global), so the two share one
server rule.  Each rule here takes the global state, the active clients'
final states (one row per client, in order) and their configs."""

import numpy as np


def _renormalized(weights):
    weights = np.asarray(weights, dtype=np.float64)
    return weights / weights.sum()


def fedavg_round(x_global, finals, configs):
    """The active clients' final states averaged with their weights,
    renormalized over the active set."""
    w = _renormalized([cfg.weight for cfg in configs])
    return (w[:, None] * finals).sum(axis=0)


fedprox_round = fedavg_round


def fednova_round(x_global, finals, configs):
    """Normalized aggregation: each client reports the direction
    (x_global - x_final) / (lr * steps); the server applies their weighted
    average scaled by the weighted-average effective step sum(w * steps * lr)."""
    w = _renormalized([cfg.weight for cfg in configs])
    steps = np.array([cfg.epochs for cfg in configs], dtype=np.float64)
    lrs = np.array([cfg.lr for cfg in configs])
    directions = (x_global[None, :] - finals) / (lrs * steps)[:, None]
    effective_step = float((w * steps * lrs).sum())
    return x_global - effective_step * (w[:, None] * directions).sum(axis=0)
