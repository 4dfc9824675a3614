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

Trees come out as one flat node table, the form an ensemble is saved and
predicted in and the layout of scikit-learn's ``Tree`` and of XGBoost:
the parallel arrays ``feature``, ``threshold``, ``left``, ``right`` and
``value`` over the nodes of every tree in preorder, and ``roots``, the
index of each tree's first node. The grower keeps each level's nodes and
places them once the last level is grown (``_preorder``). A row goes to
``left`` when its ``feature`` column is below ``threshold``. A leaf's
``left`` and ``right`` are its own index, and its ``feature`` and
``threshold`` are 0, so ``tree_predict_matrix`` moves every (tree, row)
pair down one level per step until none moves.

Columns whose every value is 0.0 or 1.0 (the dummy-coded categoricals) are
scored from counts; other columns are sorted and scanned. Both paths give
the same scores, so the trees do not depend on which path a column takes.
"""

from __future__ import annotations

import numpy as np

from ..kernels import (
    _INF,
    _starts,
    best_split_gini,
    best_split_sse,
    count_split_gini,
    count_split_sse,
)

TABLE_KEYS = ("roots", "feature", "threshold", "left", "right", "value")
TABLE_DTYPES = {"roots": np.int64, "feature": np.int64, "threshold": np.float64,
                "left": np.int64, "right": np.int64, "value": np.float64}


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
    """The node table of one tree per root, grown breadth first.
    ``leaf_values(rows, sizes)`` gives the values of leaves whose rows lie
    node after node; ``rngs`` holds each tree's generator when
    ``max_features`` columns are drawn per node."""
    batch = _Batch(X)
    n, d = X.shape
    draws = max_features is not None and max_features < d
    levels = []                # (split, feature, threshold, value) per level
    tree_of = np.arange(len(roots))
    rows = np.concatenate(roots)
    sizes = np.array([root.size for root in roots])
    depth = 0
    while sizes.size:
        m = sizes.size
        starts = _starts(sizes)
        node_of = np.repeat(np.arange(m), sizes)
        c = crit[rows]
        split = ((max_depth is None or depth < max_depth) & (sizes >= 2 * min_leaf)
                 & np.logical_or.reduceat(c != c[starts][node_of], starts))
        open_ = np.flatnonzero(split)
        feature = np.zeros(m, dtype=np.int64)
        threshold = np.zeros(m)
        value = np.zeros(m)
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
        feature[leaf], threshold[leaf] = 0, 0.0
        if leaf.any():
            value[leaf] = leaf_values(rows[leaf[node_of]], sizes[leaf])
        levels.append((split, feature, threshold, value))
        # a child's rows: its parent's, sorted stably by the split column;
        # the two children of a level's k-th split node are 2k and 2k + 1
        inside = split[node_of]
        rows, parent = rows[inside], node_of[inside]
        f = feature[parent]
        goes_right = X[rows, f] >= threshold[parent]
        child = 2 * (np.cumsum(split) - 1)[parent] + goes_right
        rank = batch.ranks[rows, batch.rank_column[f]]
        rows = rows[np.argsort(child * n + rank, kind="stable")]
        sizes = np.bincount(child, minlength=2 * int(split.sum()))
        tree_of = np.repeat(tree_of[split], 2)
        depth += 1
    return _preorder(levels)


def _preorder(levels):
    """The node table of the grown ``levels``, each tree's nodes in
    preorder: a left child right after its parent, the right child after
    the left child's subtree."""
    # each level's subtree sizes, bottom up from an empty level below the last
    subtree = [np.zeros(0, dtype=np.int64)]
    for split, *_ in reversed(levels):
        size = np.ones(split.size, dtype=np.int64)
        size[split] += subtree[0][0::2] + subtree[0][1::2]
        subtree.insert(0, size)
    at = _starts(subtree[0])
    table = {k: np.empty(subtree[0].sum(), TABLE_DTYPES[k]) for k in TABLE_KEYS}
    table["roots"] = at
    for (split, feature, threshold, value), below in zip(levels, subtree[1:]):
        left, right = at.copy(), at.copy()
        left[split] = at[split] + 1
        right[split] = left[split] + below[0::2]
        for k, column in zip(TABLE_KEYS[1:], (feature, threshold, left, right, value)):
            table[k][at] = column
        at = np.stack((left[split], right[split]), axis=1).ravel()
    return table


def grow_classification_trees(X, y, roots, min_leaf=1, max_depth=None,
                              rngs=None, max_features=None):
    """One node table of Gini trees, one per root (an index array into
    ``X``'s rows); leaves store the class-1 proportion. With
    ``max_features`` below the column count, each node considers that many
    columns, drawn from its tree's generator in ``rngs``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def leaf_values(rows, sizes):
        # whole-number sums: exact in any order
        return np.add.reduceat(y[rows], _starts(sizes)) / sizes

    return _grow(X, roots, y, leaf_values, min_leaf, max_depth, rngs,
                 max_features, best_split_gini, count_split_gini,
                 maximize=False)


def fit_classification_tree(X, y, min_leaf=1, max_depth=None, rng=None,
                            max_features=None):
    """Gini tree on all rows, as a one-tree node table; leaves store the
    class-1 proportion."""
    return grow_classification_trees(X, y, [np.arange(np.shape(X)[0])],
                                     min_leaf, max_depth, [rng], max_features)


def fit_regression_tree(X, grad, hess, min_leaf=1, max_depth=3):
    """Variance-reduction tree on gradients, as a one-tree node table;
    leaves store the Newton step ``sum(grad) / sum(hess)`` for boosted
    logistic loss."""
    X = np.asarray(X, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)

    def leaf_values(rows, sizes):
        # pairwise ``sum`` over each leaf's rows, in the order they came
        return [float(grad[r].sum()) / (float(hess[r].sum()) + 1e-12)
                for r in np.split(rows, np.cumsum(sizes)[:-1])]

    return _grow(X, [np.arange(X.shape[0])], grad, leaf_values, min_leaf,
                 max_depth, None, None, best_split_sse, count_split_sse,
                 maximize=True)


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
