"""Hybrid naive Bayes: Bernoulli on dummy columns, Gaussian on numeric ones."""

from __future__ import annotations

import numpy as np

_VAR_FLOOR = 1e-9
_ALPHA = 1.0  # Laplace smoothing for the Bernoulli likelihoods


def train_naive_bayes(X, y, hp, seed, binary_mask):
    binary_mask = np.asarray(binary_mask, dtype=bool)
    params = {"binary_mask": binary_mask.astype(int).tolist()}
    for cls in (0, 1):
        rows = X[y == cls]
        n_c = rows.shape[0]
        bern = (rows[:, binary_mask].sum(axis=0) + _ALPHA) / (n_c + 2.0 * _ALPHA)
        numeric = rows[:, np.logical_not(binary_mask)]
        mean = numeric.mean(axis=0)
        var = np.maximum(numeric.var(axis=0), _VAR_FLOOR)
        params[f"class_{cls}"] = {
            "prior": n_c / X.shape[0],
            "bernoulli_p": bern,
            "gauss_mean": mean,
            "gauss_var": var,
        }
    return params


def _log_joint(cls_params, Xb, Xn):
    log_prior = np.log(cls_params["prior"])
    p = cls_params["bernoulli_p"]
    ll = Xb @ np.log(p) + (1.0 - Xb) @ np.log1p(-p)
    mean = cls_params["gauss_mean"]
    var = cls_params["gauss_var"]
    ll = ll - 0.5 * np.sum(
        np.log(2.0 * np.pi * var) + (Xn - mean) ** 2 / var, axis=1)
    return log_prior + ll


def predict_naive_bayes(params, X):
    mask = np.asarray(params["binary_mask"], dtype=bool)
    Xb = X[:, mask]
    Xn = X[:, np.logical_not(mask)]
    log0 = _log_joint(params["class_0"], Xb, Xn)
    log1 = _log_joint(params["class_1"], Xb, Xn)
    # normalize in log space
    m = np.maximum(log0, log1)
    p1 = np.exp(log1 - m)
    return p1 / (p1 + np.exp(log0 - m))
