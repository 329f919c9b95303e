"""Desk-scale local objectives: quadratics, multinomial logistic regression
and a tiny tanh MLP, with analytic gradients and diagonal curvature
estimates.

Every objective works on a flat parameter vector.  Dataset-backed losses are
*sums* over local samples, so a client with more data has a proportionally
larger loss, gradient and curvature.

The global objective is F(x) = sum_i w_i f_i(x) with w_i = |D_i| / |D|.
Because each f_i is a sum, every sample s of client i counts in F with its
client's weight w_i: F(x) = sum_i w_i sum_{s in D_i} CE_s(x).
`weighted_sum` builds F as one object whose loss and gradient run in a
single numpy pass over all clients.
"""

from dataclasses import dataclass

import numpy as np


def _check_vector(x, dim, name="x"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({dim},)")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus integer class labels."""

    features: np.ndarray  # (n_samples, n_features)
    labels: np.ndarray    # (n_samples,), values in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels length mismatch")
        if len(self.features) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range")

    def __len__(self):
        return len(self.labels)

    def subset(self, indices):
        return Dataset(self.features[indices], self.labels[indices], self.n_classes)


def make_blobs(n_samples, n_features, n_classes, seed, center_scale=2.0):
    """Gaussian class blobs with labels drawn uniformly. Deterministic in seed."""
    rng = np.random.default_rng([int(seed), 7701])
    centers = rng.normal(size=(n_classes, n_features)) * center_scale
    labels = rng.integers(0, n_classes, n_samples)
    features = centers[labels] + rng.normal(size=(n_samples, n_features))
    return Dataset(features, labels, n_classes)


def load_csv_dataset(path):
    """Load a dataset from CSV: header row, feature columns, then an integer
    label column (last)."""
    raw = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.float64)
    if raw.ndim == 1:
        raw = raw[None, :]
    labels = raw[:, -1].astype(np.int64)
    if not np.allclose(raw[:, -1], labels):
        raise ValueError("label column is not integer-valued")
    return Dataset(raw[:, :-1], labels, int(labels.max()) + 1)


def save_csv_dataset(dataset, path):
    n_feat = dataset.features.shape[1]
    header = ",".join([f"f{j}" for j in range(n_feat)] + ["label"])
    body = np.column_stack([dataset.features, dataset.labels.astype(np.float64)])
    np.savetxt(path, body, delimiter=",", header=header, comments="", fmt="%.17g")


class QuadraticObjective:
    """f(x) = 0.5 (x - c)' A (x - c) for a symmetric PSD matrix A."""

    kind = "quadratic"

    def __init__(self, matrix, center):
        A = np.asarray(matrix, dtype=np.float64)
        c = np.asarray(center, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != c.shape[0]:
            raise ValueError("matrix/center shape mismatch")
        if not np.allclose(A, A.T, atol=1e-10):
            raise ValueError("matrix must be symmetric")
        eigmin = np.linalg.eigvalsh(A).min()
        if eigmin < -1e-10:
            raise ValueError(f"matrix must be PSD (min eigenvalue {eigmin:.3e})")
        self.matrix = 0.5 * (A + A.T)
        self.center = c

    @property
    def dim(self):
        return self.center.shape[0]

    def loss(self, x):
        x = _check_vector(x, self.dim)
        r = x - self.center
        return float(0.5 * r @ (self.matrix @ r))

    def gradient(self, x, sample_indices=None):
        x = _check_vector(x, self.dim)
        return self.matrix @ (x - self.center)

    def mean_hessian(self, x=None, sample_budget=None, rng=None):
        return np.diag(self.matrix).copy()


def random_quadratic(dim, rng, eig_min, eig_max, center_scale=1.0):
    """Random PSD quadratic with eigenvalues log-uniform in [eig_min, eig_max]."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = np.exp(rng.uniform(np.log(eig_min), np.log(eig_max), dim))
    return QuadraticObjective((q * lam) @ q.T, rng.normal(size=dim) * center_scale)


class QuadraticStack:
    """F(x) = sum_i w_i f_i(x) over quadratics f_i, evaluated in one batched
    pass over the stacked matrices (n, d, d) and centers (n, d)."""

    kind = "quadratic"

    def __init__(self, objectives, weights):
        self.matrices = np.stack([obj.matrix for obj in objectives])
        self.centers = np.stack([obj.center for obj in objectives])
        self.weights = np.asarray(weights, dtype=np.float64)

    @property
    def dim(self):
        return self.centers.shape[1]

    def _residuals(self, x):
        r = _check_vector(x, self.dim) - self.centers
        return r, (self.matrices @ r[..., None])[..., 0]

    def loss(self, x):
        r, ar = self._residuals(x)
        per_client = (0.5 * r[:, None, :] @ ar[:, :, None])[:, 0, 0]
        # cumsum adds the clients in order, as a per-client loop would
        return float(np.cumsum(self.weights * per_client)[-1])

    def gradient(self, x):
        _, ar = self._residuals(x)
        # an axis-0 sum also adds the clients' rows in order
        return (self.weights[:, None] * ar).sum(axis=0)


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _check_sample_weights(sample_weights, n):
    if sample_weights is None:
        return None
    omega = np.asarray(sample_weights, dtype=np.float64)
    if omega.shape != (n,) or not np.isfinite(omega).all() or (omega < 0).any():
        raise ValueError(f"sample_weights must be {n} finite non-negative values")
    return omega


def _batch_labels(labels, omega, idx):
    """Labels and sample weights of the samples idx (all samples when None)."""
    if idx is None:
        return labels, omega
    return labels[idx], (None if omega is None else omega[idx])


def _cross_entropy(p, labels, omega):
    """Summed cross-entropy of the softmax outputs p; each sample's term is
    scaled by its weight when omega is given."""
    logs = np.log(np.maximum(p[np.arange(len(labels)), labels], 1e-300))
    return float(-(logs.sum() if omega is None else omega @ logs))


def _logit_residual(p, labels, omega):
    """Per-sample gradient of the (weighted) cross-entropy w.r.t. the logits."""
    delta = p.copy()
    delta[np.arange(len(labels)), labels] -= 1.0
    if omega is not None:
        delta *= omega[:, None]
    return delta


class LogisticObjective:
    """Multinomial logistic regression with bias; loss is the summed
    cross-entropy over the local dataset.

    Parameters are flattened as [W.ravel(), b] with W of shape
    (n_features, n_classes).  Optional `sample_weights` scale each sample's
    term in `loss` and `gradient`; curvature and accuracy stay unweighted.
    """

    kind = "logistic"

    def __init__(self, dataset, sample_weights=None):
        if len(dataset) == 0:
            raise ValueError("dataset must be non-empty")
        self.dataset = dataset
        self.n_features = dataset.features.shape[1]
        self.n_classes = dataset.n_classes
        self.sample_weights = _check_sample_weights(sample_weights, len(dataset))

    @property
    def dim(self):
        return self.n_features * self.n_classes + self.n_classes

    def _unpack(self, x):
        m, k = self.n_features, self.n_classes
        return x[: m * k].reshape(m, k), x[m * k :]

    def _probs(self, x, idx=None):
        W, b = self._unpack(x)
        feats = self.dataset.features if idx is None else self.dataset.features[idx]
        return feats, _softmax(feats @ W + b)

    def loss(self, x):
        x = _check_vector(x, self.dim)
        _, p = self._probs(x)
        return _cross_entropy(p, self.dataset.labels, self.sample_weights)

    def gradient(self, x, sample_indices=None):
        x = _check_vector(x, self.dim)
        labels, omega = _batch_labels(self.dataset.labels, self.sample_weights,
                                      sample_indices)
        feats, p = self._probs(x, sample_indices)
        delta = _logit_residual(p, labels, omega)
        grad = np.concatenate([(feats.T @ delta).ravel(), delta.sum(axis=0)])
        if sample_indices is not None:
            # rescale the mini-batch estimate back to full-sum scale
            grad *= len(self.dataset) / len(labels)
        return grad

    def mean_hessian(self, x=None, sample_budget=None, rng=None):
        """Diagonal Gauss-Newton curvature of the summed loss, estimated from
        at most `sample_budget` samples (scaled back to full-sum scale)."""
        if x is None:
            x = np.zeros(self.dim)
        x = _check_vector(x, self.dim)
        idx = _curvature_subsample(len(self.dataset), sample_budget, rng)
        feats, p = self._probs(x, idx)
        s = p * (1.0 - p)  # per-sample softmax curvature, PSD diagonal
        diag = np.concatenate([((feats ** 2).T @ s).ravel(), s.sum(axis=0)])
        return diag * (len(self.dataset) / len(feats))


def _curvature_subsample(n, sample_budget, rng):
    if sample_budget is None or sample_budget >= n:
        return None
    if sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    return rng.choice(n, int(sample_budget), replace=False)


class MlpObjective:
    """One-hidden-layer tanh network with softmax cross-entropy, summed over
    the local dataset.  Parameters flatten as [W1, b1, W2, b2].  Optional
    `sample_weights` scale each sample's term in `loss` and `gradient`;
    curvature and accuracy stay unweighted."""

    kind = "mlp"

    def __init__(self, dataset, hidden=8, sample_weights=None):
        if len(dataset) == 0:
            raise ValueError("dataset must be non-empty")
        self.dataset = dataset
        self.n_features = dataset.features.shape[1]
        self.n_classes = dataset.n_classes
        self.hidden = int(hidden)
        self.sample_weights = _check_sample_weights(sample_weights, len(dataset))

    @property
    def dim(self):
        m, h, k = self.n_features, self.hidden, self.n_classes
        return m * h + h + h * k + k

    def _unpack(self, x):
        m, h, k = self.n_features, self.hidden, self.n_classes
        o = 0
        w1 = x[o : o + m * h].reshape(m, h); o += m * h
        b1 = x[o : o + h]; o += h
        w2 = x[o : o + h * k].reshape(h, k); o += h * k
        b2 = x[o : o + k]
        return w1, b1, w2, b2

    def _forward(self, x, idx=None):
        w1, b1, w2, b2 = self._unpack(x)
        feats = self.dataset.features if idx is None else self.dataset.features[idx]
        hid = np.tanh(feats @ w1 + b1)
        return feats, hid, _softmax(hid @ w2 + b2), w2

    def loss(self, x):
        x = _check_vector(x, self.dim)
        _, _, p, _ = self._forward(x)
        return _cross_entropy(p, self.dataset.labels, self.sample_weights)

    def gradient(self, x, sample_indices=None):
        x = _check_vector(x, self.dim)
        labels, omega = _batch_labels(self.dataset.labels, self.sample_weights,
                                      sample_indices)
        feats, hid, p, w2 = self._forward(x, sample_indices)
        delta = _logit_residual(p, labels, omega)
        g_w2 = hid.T @ delta
        g_b2 = delta.sum(axis=0)
        back = (delta @ w2.T) * (1.0 - hid ** 2)
        g_w1 = feats.T @ back
        g_b1 = back.sum(axis=0)
        grad = np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])
        if sample_indices is not None:
            grad *= len(self.dataset) / len(labels)
        return grad

    def mean_hessian(self, x=None, sample_budget=None, rng=None):
        """Diagonal of the Gauss-Newton curvature (PSD by construction) of the
        summed loss, subsampled to `sample_budget` and rescaled."""
        if x is None:
            x = np.zeros(self.dim)
        x = _check_vector(x, self.dim)
        idx = _curvature_subsample(len(self.dataset), sample_budget, rng)
        feats, hid, p, w2 = self._forward(x, idx)
        n_used = len(feats)
        s = p * (1.0 - p)                                     # (n, k)
        # per-sample quadratic form of each hidden unit's output row through
        # the softmax curvature: q[n,h] = w2[h]' (diag(p_n) - p_n p_n') w2[h]
        wp = p @ w2.T                                         # (n, h)
        q = (p @ (w2 ** 2).T) - wp ** 2                       # (n, h), >= 0
        act = 1.0 - hid ** 2                                  # (n, h)
        d_w1 = (feats ** 2).T @ (act ** 2 * q)                # (m, h)
        d_b1 = (act ** 2 * q).sum(axis=0)                     # (h,)
        d_w2 = (hid ** 2).T @ s                               # (h, k)
        d_b2 = s.sum(axis=0)                                  # (k,)
        diag = np.concatenate([d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])
        return diag * (len(self.dataset) / n_used)


def accuracy(obj, x):
    """Classification accuracy of the argmax prediction on obj's dataset."""
    if obj.kind == "logistic":
        _, p = obj._probs(x)
    elif obj.kind == "mlp":
        _, _, p, _ = obj._forward(x)
    else:
        raise ValueError("accuracy is defined for classification objectives only")
    return float((p.argmax(axis=1) == obj.dataset.labels).mean())


def weighted_sum(objectives, weights):
    """The global objective F(x) = sum_i w_i f_i(x) as one object whose
    `loss` and `gradient` run in a single numpy pass.

    Quadratics are stacked.  Dataset objectives become one objective of the
    same class over the client shards concatenated in client order, where
    each sample carries its client's weight w_i.  Since every partition
    covers each sample once, accuracy on the result is accuracy on the whole
    dataset.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != len(objectives):
        raise ValueError("one weight per objective expected")
    first = objectives[0]
    if first.kind == "quadratic":
        return QuadraticStack(objectives, weights)
    pooled = Dataset(np.concatenate([obj.dataset.features for obj in objectives]),
                     np.concatenate([obj.dataset.labels for obj in objectives]),
                     first.n_classes)
    omega = np.repeat(weights, [len(obj.dataset) for obj in objectives])
    if first.kind == "logistic":
        return LogisticObjective(pooled, sample_weights=omega)
    return MlpObjective(pooled, hidden=first.hidden, sample_weights=omega)
