"""Binary decision trees built on the split-search kernels.

Trees are represented as nested dicts (JSON-friendly): internal nodes carry
``feature``/``threshold``/``left``/``right``, leaves carry ``value``.

Columns whose every value is 0.0 or 1.0 (the dummy-coded categoricals) are
scored together from counts; other columns are sorted and scanned. Both
paths give the same scores, so the trees do not depend on which path a
column takes.
"""

from __future__ import annotations

import numpy as np

from ..kernels import (
    best_split_gini,
    best_split_sse,
    count_split_gini,
    count_split_sse,
)

_INF = float("inf")


def _binary_columns(X):
    return np.all((X == 0.0) | (X == 1.0), axis=0)


def _best_split(X, idx, crit, min_leaf, features, binary, kernel, count_kernel,
                maximize):
    """Best ``(feature, threshold, left idx, right idx)`` over the candidate
    features, or None. ``crit`` holds the criterion values of ``idx``'s rows;
    on a tied score the earliest feature wins."""
    scores = np.full(features.size, -_INF if maximize else _INF)
    is_binary = binary[features]
    if is_binary.any():
        scores[is_binary] = count_kernel(X[idx[:, None], features[is_binary]],
                                         crit, min_leaf)
    sorted_splits = {}
    for k in (~is_binary).nonzero()[0]:
        col = X[idx, features[k]]
        order = np.argsort(col, kind="stable")
        values = col[order]
        i, score = kernel(values, crit[order], min_leaf)
        if i >= 0:
            scores[k] = score
            lo, hi = float(values[i - 1]), float(values[i])
            threshold = (lo + hi) / 2.0
            if not lo < threshold <= hi:
                # adjacent doubles round the midpoint down to ``lo`` (and a
                # huge pair overflows it), which would send ``lo`` right
                threshold = hi
            sorted_splits[k] = (order, i, threshold)
    k = int(scores.argmax() if maximize else scores.argmin())
    if abs(scores[k]) == _INF:  # no candidate has a valid split
        return None
    f = features[k]
    if k in sorted_splits:
        order, i, threshold = sorted_splits[k]
        return f, threshold, idx[order[:i]], idx[order[i:]]
    ones = X[idx, f] == 1.0
    return f, 0.5, idx[~ones], idx[ones]


def _grow(X, idx, criterion_values, leaf_value, min_leaf, max_depth, depth,
          rng, max_features, binary, kernel, count_kernel, maximize):
    n_features = X.shape[1]
    crit = criterion_values[idx]
    done = ((max_depth is not None and depth >= max_depth)
            or idx.size < 2 * min_leaf
            or bool((crit == crit[0]).all()))
    if not done:
        if max_features is not None and max_features < n_features:
            chosen = rng.choice(n_features, size=max_features, replace=False)
            features = np.sort(chosen)
        else:
            features = np.arange(n_features)
        split = _best_split(X, idx, crit, min_leaf, features, binary,
                            kernel, count_kernel, maximize)
        done = split is None
    if done:
        return {"value": leaf_value(idx)}
    f, threshold, left_idx, right_idx = split
    args = (criterion_values, leaf_value, min_leaf, max_depth, depth + 1,
            rng, max_features, binary, kernel, count_kernel, maximize)
    return {
        "feature": int(f),
        "threshold": float(threshold),
        "left": _grow(X, left_idx, *args),
        "right": _grow(X, right_idx, *args),
    }


def fit_classification_tree(X, y, min_leaf=1, max_depth=None, rng=None,
                            max_features=None):
    """Gini tree; leaves store the class-1 proportion."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    idx = np.arange(X.shape[0])

    def leaf_value(node_idx):
        return float(y[node_idx].sum()) / node_idx.size

    return _grow(X, idx, y, leaf_value, min_leaf, max_depth, 0, rng,
                 max_features, _binary_columns(X), best_split_gini,
                 count_split_gini, maximize=False)


def fit_regression_tree(X, grad, hess, min_leaf=1, max_depth=3):
    """Variance-reduction tree on gradients; leaves store the Newton step
    ``sum(grad) / sum(hess)`` for boosted logistic loss."""
    X = np.asarray(X, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    idx = np.arange(X.shape[0])

    def leaf_value(node_idx):
        denom = float(hess[node_idx].sum())
        return float(grad[node_idx].sum()) / (denom + 1e-12)

    return _grow(X, idx, grad, leaf_value, min_leaf, max_depth, 0, None,
                 None, _binary_columns(X), best_split_sse, count_split_sse,
                 maximize=True)


def tree_predict(node, row):
    while "value" not in node:
        node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
    return node["value"]


def tree_predict_matrix(node, X):
    return np.array([tree_predict(node, row) for row in X], dtype=np.float64)
