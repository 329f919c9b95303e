"""Dataset partitioning across clients, including a skewed Dirichlet split
for non-IID experiments, plus dataset-fraction weights."""

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Partition:
    """Disjoint per-client sample index sets with weights |D_i| / |D|."""

    client_indices: tuple  # tuple of int64 arrays
    weights: np.ndarray    # (n_clients,), sums to 1

    def __post_init__(self):
        idx = tuple(np.asarray(c, dtype=np.int64) for c in self.client_indices)
        object.__setattr__(self, "client_indices", idx)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        sizes = np.array([len(c) for c in idx])
        if (sizes == 0).any():
            raise ValueError("every client needs at least one sample")
        total = sizes.sum()
        all_idx = np.concatenate(idx)
        if len(np.unique(all_idx)) != total:
            raise ValueError("client index sets overlap")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if (self.weights <= 0).any():
            raise ValueError("weights must be positive")

    @property
    def n_clients(self):
        return len(self.client_indices)

    def to_json(self):
        return json.dumps({
            "clients": [c.tolist() for c in self.client_indices],
            "weights": self.weights.tolist(),
        })

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(tuple(np.asarray(c) for c in obj["clients"]), np.asarray(obj["weights"]))


def _weights_from_sizes(client_indices):
    sizes = np.array([len(c) for c in client_indices], dtype=np.float64)
    return sizes / sizes.sum()


def _repair_empty(parts):
    # move one sample from the largest client to each empty one; deterministic
    sizes = np.array([len(p) for p in parts])
    while (sizes == 0).any():
        dst = int(np.flatnonzero(sizes == 0)[0])
        src = int(np.argmax(sizes))
        parts[dst].append(parts[src].pop())
        sizes = np.array([len(p) for p in parts])
    return parts


def dirichlet_partition(labels, n_clients, alpha, seed):
    """Split sample indices with per-class client proportions drawn from a
    symmetric Dirichlet(alpha).  Small alpha concentrates each class on few
    clients.  Deterministic given seed; empty clients are repaired by moving
    one sample from the largest client."""
    labels = np.asarray(labels, dtype=np.int64)
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if len(labels) < n_clients:
        raise ValueError("dataset smaller than the number of clients")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    rng = np.random.default_rng([int(seed), 5501])
    parts = [[] for _ in range(n_clients)]
    for cls in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        props = rng.dirichlet(np.full(n_clients, float(alpha)))
        cuts = (np.cumsum(props)[:-1] * len(idx)).astype(np.int64)
        for i, chunk in enumerate(np.split(idx, cuts)):
            parts[i].extend(chunk.tolist())
    parts = _repair_empty(parts)
    client_indices = tuple(np.sort(np.asarray(p, dtype=np.int64)) for p in parts)
    return Partition(client_indices, _weights_from_sizes(client_indices))


def iid_partition(n_samples, n_clients, seed):
    """Shuffle indices and split as evenly as possible."""
    if n_samples < n_clients:
        raise ValueError("dataset smaller than the number of clients")
    rng = np.random.default_rng([int(seed), 5502])
    idx = rng.permutation(n_samples)
    chunks = np.array_split(idx, n_clients)
    client_indices = tuple(np.sort(c.astype(np.int64)) for c in chunks)
    return Partition(client_indices, _weights_from_sizes(client_indices))


def dirichlet_weights(n_clients, alpha, seed):
    """Raw Dirichlet(alpha) weights for objectives without datasets (e.g.
    per-client quadratics)."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    w = np.random.default_rng(int(seed)).dirichlet(np.full(n_clients, float(alpha)))
    # guard against exact zeros from extreme draws
    w = np.maximum(w, 1e-12)
    return w / w.sum()
