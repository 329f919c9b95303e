"""Reference optimum f* of a workload instance, computed outside the timed
region and cached on disk per workload and seed.

Quadratics use the program's analytic minimizer (`fedecado.oracles`).  The
logistic instance has no closed form, so this module runs a damped Newton
solve on the pooled weighted objective sum_i w_i f_i(x), with the full
softmax Hessian (d = 60, so a dense solve is cheap).
"""

import json
import os

import numpy as np

from fedecado.oracles import quadratic_minimizer

NEWTON_GTOL = 1e-8
NEWTON_MAX_ITERS = 100


class OracleError(RuntimeError):
    """The reference solve did not reach its tolerance."""


def weighted_loss(objectives, weights, x):
    return float(sum(w * obj.loss(x) for w, obj in zip(weights, objectives)))


def _pooled(objectives, weights):
    """Augmented features [x, 1], labels and per-sample weights of the pooled
    objective: each sample carries its client's weight w_i."""
    feats = np.concatenate([obj.dataset.features for obj in objectives])
    labels = np.concatenate([obj.dataset.labels for obj in objectives])
    omega = np.concatenate([np.full(len(obj.dataset), w) for w, obj in zip(weights, objectives)])
    aug = np.hstack([feats, np.ones((len(feats), 1))])
    return aug, labels, omega, objectives[0].n_classes


def _logistic_parts(theta, aug, labels, omega, k):
    """Loss, gradient and Hessian of sum_n omega_n * CE_n at theta, laid out
    as the program's [W.ravel(), b], i.e. the row-major (m+1, k) matrix."""
    n, m1 = aug.shape
    z = aug @ theta.reshape(m1, k)
    z -= z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    p = np.exp(logp)
    rows = np.arange(n)
    loss = float(-(omega * logp[rows, labels]).sum())
    resid = p.copy()
    resid[rows, labels] -= 1.0
    grad = (aug.T @ (omega[:, None] * resid)).ravel()
    # H = sum_n omega_n kron(a a', diag(p) - p p')
    outer = (aug[:, :, None] * p[:, None, :]).reshape(n, m1 * k)
    hess = -(outer.T @ (omega[:, None] * outer))
    diag_blocks = np.einsum("n,nc,ni,nj->cij", omega, p, aug, aug)
    h4 = hess.reshape(m1, k, m1, k)
    for c in range(k):
        h4[:, c, :, c] += diag_blocks[c]
    return loss, grad, h4.reshape(m1 * k, m1 * k)


def logistic_optimum(objectives, weights):
    """Damped Newton with Armijo backtracking; accepted when the gradient
    norm is at most NEWTON_GTOL."""
    aug, labels, omega, k = _pooled(objectives, weights)
    theta = np.zeros(aug.shape[1] * k)
    loss, grad, hess = _logistic_parts(theta, aug, labels, omega, k)
    for _ in range(NEWTON_MAX_ITERS):
        if np.linalg.norm(grad) <= NEWTON_GTOL:
            return loss
        step = np.linalg.solve(hess + 1e-12 * np.eye(len(theta)), grad)
        t = 1.0
        while True:
            cand = theta - t * step
            c_loss, c_grad, c_hess = _logistic_parts(cand, aug, labels, omega, k)
            if c_loss <= loss - 1e-4 * t * float(grad @ step) or t < 1e-10:
                break
            t *= 0.5
        theta, loss, grad, hess = cand, c_loss, c_grad, c_hess
    raise OracleError(f"Newton solve stopped at gradient norm {np.linalg.norm(grad):.3e} "
                      f"> {NEWTON_GTOL:g} after {NEWTON_MAX_ITERS} iterations")


def reference_optimum(kind, objectives, weights):
    if kind == "quadratic":
        return weighted_loss(objectives, weights, quadratic_minimizer(objectives, weights))
    if kind == "logistic":
        return logistic_optimum(objectives, weights)
    raise OracleError(f"no reference optimum for objective kind {kind!r}")


def cached_optimum(cache_dir, workload, seed, kind, objectives, weights):
    """f* for (workload, seed), read from cache_dir when a previous run
    stored it."""
    path = os.path.join(cache_dir, f"fstar-{workload}-{int(seed)}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return float(json.load(fh)["f_star"])
    except (OSError, ValueError, KeyError):
        pass
    f_star = reference_optimum(kind, objectives, weights)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": int(seed), "f_star": f_star}, fh)
    os.replace(tmp, path)
    return f_star
