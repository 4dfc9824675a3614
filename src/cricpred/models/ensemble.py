"""Random forest and gradient-boosted trees on the shared tree builder.

Each keeps its trees as one node table in the four-array form a model
document stores: every group or round of trees is converted once, right
after growing (``tree.stored_table``), and the converted tables are
joined (``_join``). Both add up the trees' leaf values one tree at a
time, in tree order: a pairwise ``sum(axis=0)`` can round differently.
"""

from __future__ import annotations

import math

import numpy as np

from .linear import sigmoid
from .tree import (
    fit_regression_tree,
    grow_classification_trees,
    stored_table,
    tree_predict_matrix,
)

# Trees grown together: enough to share each level's numpy calls, few
# enough to keep a level's rows (the group's bootstrap samples) small.
TREE_GROUP = 25

# Gradient boosting's learning rate and the depth of each round's tree.
BOOSTING_SHRINKAGE = 0.1
BOOSTING_MAX_DEPTH = 3


def _join(tables):
    """One stored node table of the trees of the stored ``tables``, in
    order: each table's ``roots`` and ``right`` shift by the nodes before
    it."""
    offsets = np.cumsum([0] + [t["right"].size for t in tables[:-1]])
    return {k: np.concatenate([t[k] + offset if k in ("roots", "right")
                               else t[k] for t, offset in zip(tables, offsets)])
            for k in tables[0]}


def train_random_forest(X, y, hp, seed):
    n, d = X.shape
    n_trees = hp["n_trees"]
    max_features = min(d, math.ceil(math.sqrt(d)))
    groups = []
    for first in range(0, n_trees, TREE_GROUP):
        rngs = [np.random.default_rng([seed, t])
                for t in range(first, min(first + TREE_GROUP, n_trees))]
        roots = [rng.integers(0, n, size=n) if hp["bootstrap"] else np.arange(n)
                 for rng in rngs]
        groups.append(stored_table(grow_classification_trees(
            X, y, roots, min_leaf=hp["min_leaf"], max_depth=hp["max_depth"],
            rngs=rngs, max_features=max_features)))
    return _join(groups)


def predict_random_forest(params, X):
    votes = np.zeros(X.shape[0])
    for leaf_values in tree_predict_matrix(params, X):
        votes += leaf_values
    return votes / len(params["roots"])


def train_gradient_boosting(X, y, hp, seed):
    base_rate = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    f0 = math.log(base_rate / (1.0 - base_rate))
    f = np.full(X.shape[0], f0)
    trees = []
    for _ in range(hp["n_rounds"]):
        p = sigmoid(f)
        grad = y - p          # negative gradient of logistic loss
        hess = p * (1.0 - p)
        tree = stored_table(fit_regression_tree(X, grad, hess,
                                                max_depth=BOOSTING_MAX_DEPTH))
        f = f + BOOSTING_SHRINKAGE * tree_predict_matrix(tree, X)[0]
        trees.append(tree)
    return {"base_score": f0, "shrinkage": BOOSTING_SHRINKAGE, **_join(trees)}


def predict_gradient_boosting(params, X):
    f = np.full(X.shape[0], params["base_score"])
    for leaf_values in tree_predict_matrix(params, X):
        f = f + params["shrinkage"] * leaf_values
    return sigmoid(f)
