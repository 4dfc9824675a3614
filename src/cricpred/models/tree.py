"""Binary decision trees built on the split-search kernels.

Trees grow as nested dicts: internal nodes carry
``feature``/``threshold``/``left``/``right``, leaves carry ``value``. An
ensemble is saved and predicted as one flat node table (``flatten``), the
layout of scikit-learn's ``Tree`` and of XGBoost: the parallel arrays
``feature``, ``threshold``, ``left``, ``right`` and ``value`` over the
nodes of every tree in preorder, and ``roots``, the index of each tree's
first node. A row goes to ``left`` when its ``feature`` column is below
``threshold``. A leaf's ``left`` and ``right`` are its own index, and its
``feature`` and ``threshold`` are 0, so ``tree_predict_matrix`` moves every
(tree, row) pair down one level per step until none moves.

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


TABLE_KEYS = ("roots", "feature", "threshold", "left", "right", "value")
TABLE_DTYPES = {"roots": np.int64, "feature": np.int64, "threshold": np.float64,
                "left": np.int64, "right": np.int64, "value": np.float64}


def _arrays(lists):
    return {k: np.fromiter(lists[k], dtype=TABLE_DTYPES[k]) for k in TABLE_KEYS}


def flatten(trees):
    """The node table of the nested ``trees``, as arrays keyed by
    ``TABLE_KEYS``."""
    table = {k: [] for k in TABLE_KEYS}
    feature, threshold, left, right, value = (table[k] for k in TABLE_KEYS[1:])

    def visit(node):
        i = len(value)
        leaf = "value" in node
        feature.append(0 if leaf else node["feature"])
        threshold.append(0.0 if leaf else node["threshold"])
        value.append(node["value"] if leaf else 0.0)
        left.append(i)
        right.append(i)
        if not leaf:
            left[i] = visit(node["left"])
            right[i] = visit(node["right"])
        return i

    for tree in trees:
        table["roots"].append(visit(tree))
    return _arrays(table)


def check_table(table, n_columns):
    """Raises ValueError unless the node ``table`` (arrays keyed by
    ``TABLE_KEYS``) has at least one tree, its node arrays are of one
    length, every root is a node, every node's ``feature`` is a column
    below ``n_columns``, and every node either is a leaf (``left`` and
    ``right`` are itself) or has both children past itself and inside the
    table. The last condition rules out cycles, so every descent ends at a
    leaf."""
    n = table["value"].size
    roots, feature, left, right = (table[k] for k in ("roots", "feature",
                                                      "left", "right"))
    if any(table[k].size != n for k in TABLE_KEYS[1:]):
        raise ValueError("node table arrays differ in length: " + ", ".join(
            f"{k} {table[k].size}" for k in TABLE_KEYS[1:]))
    if roots.size == 0:
        raise ValueError("node table holds no tree")
    if roots.min() < 0 or roots.max() >= n:
        raise ValueError(f"a root lies outside the {n}-node table")
    bad = (feature < 0) | (feature >= n_columns)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"node {i} reads column {feature[i]}, outside "
                         f"the {n_columns} columns")
    node = np.arange(n)
    leaf = (left == node) & (right == node)
    bad = ~leaf & ((left <= node) | (left >= n) | (right <= node) | (right >= n))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"node {i} has children {left[i]} and {right[i]}; "
                         f"they must both be itself or lie in ({i}, {n})")


def tree_predict_matrix(table, X):
    """Leaf values of every tree of the node ``table`` (rows of the result)
    for every row of ``X`` (columns)."""
    X = np.asarray(X, dtype=np.float64)
    feature, threshold, left, right = (table[k] for k in ("feature", "threshold",
                                                          "left", "right"))
    rows = np.arange(X.shape[0])
    node = np.repeat(table["roots"][:, None], rows.size, axis=1)
    while True:
        step = np.where(X[rows, feature[node]] < threshold[node],
                        left[node], right[node])
        if np.array_equal(step, node):
            return table["value"][node]
        node = step
