"""Binary decision trees, grown breadth first over a batch of trees.

A batch is one row-index array into ``X`` per tree, its root; a bootstrap
sample with duplicate rows is a root like any other. The grower keeps the
rows of every open node of every tree in one array, node after node, and
scores a whole level with a fixed number of numpy calls: level-wise growth
(Chen & Guestrin 2016, section 4.1) over many trees at once. The drawn 0/1
columns are counted per node, and the drawn numeric columns are sorted
within each node by one stable argsort on (node, column, rank), with each
value's rank in its column computed once per batch. A child's rows are its
parent's sorted stably by the split column, the order a depth-first
grower gives them, so every split score and leaf value sums the same
numbers in the same order as growing the node on its own does. A random
forest's tree draws the candidate columns of its nodes from its own
generator, in one call per level for all its open nodes
(``draw_features``).

Trees come out as nested dicts: internal nodes carry
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
scored from counts; other columns are sorted and scanned. Both paths give
the same scores, so the trees do not depend on which path a column takes.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..kernels import (
    _INF,
    _starts,
    best_split_gini,
    best_split_sse,
    count_split_gini,
    count_split_sse,
)


def _binary_columns(X):
    return np.all((X == 0.0) | (X == 1.0), axis=0)


def draw_features(rng, n_nodes, n_features, max_features):
    """``max_features`` distinct columns, ascending, for each of ``n_nodes``
    nodes (one row each), from one call of ``rng``."""
    keys = rng.random((n_nodes, n_features))
    chosen = np.argpartition(keys, max_features - 1, axis=1)[:, :max_features]
    return np.sort(chosen, axis=1)


class _Batch:
    """What the grower reads of ``X``: ``X`` with its numeric columns
    zeroed (a count finds no split in them), the numeric columns, and each
    value's rank in its numeric column: ``ranks[:, rank_column[j]]`` for
    column ``j``, all 0 for a 0/1 column."""

    def __init__(self, X):
        self.X = X
        binary = _binary_columns(X)
        self.counted = np.where(binary, X, 0.0)
        self.numeric = np.flatnonzero(~binary)
        # a value's rank: how many values of its column are smaller
        self.ranks = np.zeros((X.shape[0], self.numeric.size + 1), dtype=np.int64)
        for r, j in enumerate(self.numeric):
            self.ranks[:, r] = np.searchsorted(np.sort(X[:, j]), X[:, j])
        self.rank_column = np.full(X.shape[1], self.numeric.size)
        self.rank_column[self.numeric] = np.arange(self.numeric.size)


def _best_splits(batch, rows, sizes, crit, features, min_leaf, kernel,
                 count_kernel, maximize):
    """Each node's best split over its candidate ``features`` (one row of
    ascending columns per node, or None for every column): ``(found,
    feature, threshold)`` arrays. ``rows`` holds the nodes' rows, node after
    node, and ``crit`` their criterion values; on a tied score the earliest
    feature wins."""
    X, (n, d) = batch.X, batch.X.shape
    m = sizes.size
    if features is None:
        scores = count_kernel(batch.counted[rows], crit, sizes, min_leaf)
        features = np.broadcast_to(np.arange(d), scores.shape)
    else:
        # one drawn slot at a time: a forest's level holds the rows of many
        # trees, and a count's temporaries grow with rows times slots
        node_of = np.repeat(np.arange(m), sizes)
        scores = np.concatenate([
            count_kernel(batch.counted[rows, features[node_of, s]][:, None],
                         crit, sizes, min_leaf)
            for s in range(features.shape[1])], axis=1)
    thresholds = np.full(scores.shape, 0.5)
    # every (node, drawn numeric column) pair, each a segment of the node's
    # rows sorted stably by the column: one argsort on (pair, rank)
    node, slot = np.nonzero(batch.rank_column[features] < batch.numeric.size)
    if node.size:
        column = features[node, slot]
        pair_sizes = sizes[node]
        pair_starts = _starts(pair_sizes)
        at = (np.repeat(_starts(sizes)[node] - pair_starts, pair_sizes)
              + np.arange(pair_sizes.sum()))
        pair = np.repeat(np.arange(node.size), pair_sizes)
        rank = batch.ranks[rows[at], batch.rank_column[column][pair]]
        at = at[np.argsort(pair * n + rank, kind="stable")]
        values = X[rows[at], column[pair]]
        cut, score = kernel(values, crit[at], pair_sizes, min_leaf)
        # the values either side of the cut (any two where there is none)
        right = pair_starts + np.maximum(cut, 1)
        lo, hi = values[right - 1], values[right]
        with np.errstate(over="ignore"):
            mid = (lo + hi) / 2.0
        scores[node, slot] = score
        # adjacent doubles round the midpoint down to ``lo`` (and a huge
        # pair overflows it), which would send ``lo`` right
        thresholds[node, slot] = np.where((lo < mid) & (mid <= hi), mid, hi)
    best = scores.argmax(axis=1) if maximize else scores.argmin(axis=1)
    at = (np.arange(m), best)
    return np.abs(scores[at]) != _INF, features[at], thresholds[at]


def _grow(X, roots, crit, leaf_values, min_leaf, max_depth, rngs, max_features,
          kernel, count_kernel, maximize):
    """One nested tree per root, grown breadth first. ``leaf_values(rows,
    sizes)`` gives the values of leaves whose rows lie node after node;
    ``rngs`` holds each tree's generator when ``max_features`` columns are
    drawn per node."""
    batch = _Batch(X)
    n, d = X.shape
    draws = max_features is not None and max_features < d
    trees = [{} for _ in roots]
    nodes = trees              # the open nodes of the level, tree by tree
    tree_of = np.arange(len(roots))
    rows = np.concatenate(roots)
    sizes = np.array([root.size for root in roots])
    depth = 0
    while nodes:
        starts = _starts(sizes)
        node_of = np.repeat(np.arange(len(nodes)), sizes)
        c = crit[rows]
        split = ((max_depth is None or depth < max_depth) & (sizes >= 2 * min_leaf)
                 & np.logical_or.reduceat(c != c[starts][node_of], starts))
        open_ = np.flatnonzero(split)
        feature = np.zeros(len(nodes), dtype=np.int64)
        threshold = np.zeros(len(nodes))
        if open_.size:
            features = None
            if draws:
                counts = np.bincount(tree_of[open_], minlength=len(rngs)).tolist()
                features = np.concatenate([
                    draw_features(rng, count, d, max_features)
                    for rng, count in zip(rngs, counts) if count])
            inside = split[node_of]
            found, feature[open_], threshold[open_] = _best_splits(
                batch, rows[inside], sizes[open_], c[inside], features,
                min_leaf, kernel, count_kernel, maximize)
            split[open_] = found
        leaf = ~split
        if leaf.any():
            values = leaf_values(rows[leaf[node_of]], sizes[leaf])
            for node, value in zip(itertools.compress(nodes, leaf), values):
                node["value"] = value
        children = []
        for node, f, t in zip(itertools.compress(nodes, split),
                              feature[split].tolist(), threshold[split].tolist()):
            node.update(feature=f, threshold=t, left={}, right={})
            children += (node["left"], node["right"])
        # a child's rows: its parent's, sorted stably by the split column
        inside = split[node_of]
        rows, parent = rows[inside], node_of[inside]
        f = feature[parent]
        goes_right = X[rows, f] >= threshold[parent]
        child = 2 * (np.cumsum(split) - 1)[parent] + goes_right
        rank = batch.ranks[rows, batch.rank_column[f]]
        rows = rows[np.argsort(child * n + rank, kind="stable")]
        sizes = np.bincount(child, minlength=len(children))
        tree_of = np.repeat(tree_of[split], 2)
        nodes = children
        depth += 1
    return trees


def grow_classification_trees(X, y, roots, min_leaf=1, max_depth=None,
                              rngs=None, max_features=None):
    """Gini trees, one per root (an index array into ``X``'s rows); leaves
    store the class-1 proportion. With ``max_features`` below the column
    count, each node considers that many columns, drawn from its tree's
    generator in ``rngs``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def leaf_values(rows, sizes):
        # whole-number sums: exact in any order
        return (np.add.reduceat(y[rows], _starts(sizes)) / sizes).tolist()

    return _grow(X, roots, y, leaf_values, min_leaf, max_depth, rngs,
                 max_features, best_split_gini, count_split_gini,
                 maximize=False)


def fit_classification_tree(X, y, min_leaf=1, max_depth=None, rng=None,
                            max_features=None):
    """Gini tree on all rows; leaves store the class-1 proportion."""
    return grow_classification_trees(X, y, [np.arange(np.shape(X)[0])],
                                     min_leaf, max_depth, [rng], max_features)[0]


def fit_regression_tree(X, grad, hess, min_leaf=1, max_depth=3):
    """Variance-reduction tree on gradients; leaves store the Newton step
    ``sum(grad) / sum(hess)`` for boosted logistic loss."""
    X = np.asarray(X, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)

    def leaf_values(rows, sizes):
        # pairwise ``sum`` over each leaf's rows, in the order they came
        return [float(grad[r].sum()) / (float(hess[r].sum()) + 1e-12)
                for r in np.split(rows, np.cumsum(sizes)[:-1])]

    return _grow(X, [np.arange(X.shape[0])], grad, leaf_values, min_leaf,
                 max_depth, None, None, best_split_sse, count_split_sse,
                 maximize=True)[0]


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
