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
pair down one level per step until none moves. The arrays are int64 and
float64 (``TABLE_DTYPES``). A model document stores four of them, as the
base64 of their little-endian bytes: ``roots``, ``feature``,
``threshold`` and ``right``, a leaf's ``threshold`` holding its value; a
preorder table implies ``left``, and loading rebuilds all six in these
dtypes (``models/base.py``).

The split kernels score many nodes in one call, their rows node after
node and ``sizes`` holding each node's row count. Every score is
lower-is-better, ``inf`` where a node has no valid cut: the Gini impurity
``n_l*g_l + n_r*g_r``, or ``-(s_l^2/n_l + s_r^2/n_r)``, the children's
squared error about their means less the node's own sum of squares. 0/1
columns (the dummy-coded categoricals) are scored from each side's row
count and label or target sum (``count_split_*``); other columns are
sorted within each node and scanned (``best_split_*``), Gini with one
running class-1 count over all nodes (whole numbers, so exact), SSE with
each node's own running sum down its rows. Both paths evaluate
``_gini``/``_sse_proxy`` on sums accumulated in the same order, so a 0/1
column scores bit-identically either way and the trees do not depend on
which path a column takes. Ties go to the first cut point.
"""

from __future__ import annotations

import numpy as np

TABLE_KEYS = ("roots", "feature", "threshold", "left", "right", "value")
TABLE_DTYPES = {"roots": np.int64, "feature": np.int64, "threshold": np.float64,
                "left": np.int64, "right": np.int64, "value": np.float64}

_INF = float("inf")


def _gini(nl, nr, c1l, total1):
    """Unnormalized weighted Gini ``n_l*g_l + n_r*g_r`` from side sizes and
    class-1 counts."""
    c0l = nl - c1l
    c1r = total1 - c1l
    c0r = nr - c1r
    return (nl - (c0l * c0l + c1l * c1l) / nl) + (nr - (c0r * c0r + c1r * c1r) / nr)


def _sse_proxy(nl, nr, sl, total):
    """``s_l^2/n_l + s_r^2/n_r`` from side sizes and target sums."""
    sr = total - sl
    return sl * sl / nl + sr * sr / nr


def _starts(sizes):
    return np.cumsum(sizes) - sizes


def _cut_sides(values, sizes, min_leaf):
    """For the cut after each row: the segments' starts, the row's segment,
    the left side's row count (the row's place in its segment, plus one)
    and the right side's, and whether the cut is valid: it separates
    distinct values and leaves at least ``min_leaf`` rows on each side."""
    n = values.shape[0]
    starts = _starts(sizes)
    seg = np.repeat(np.arange(sizes.size), sizes)
    nl = np.arange(1.0, n + 1.0) - starts[seg]
    nr = sizes[seg] - nl
    floor = max(min_leaf, 1)
    valid = np.zeros(n, dtype=bool)
    valid[:-1] = values[1:] > values[:-1]
    valid &= (nl >= floor) & (nr >= floor)
    return starts, seg, nl, nr, valid


def _first_best(scores, valid, starts, seg):
    """Each segment's ``(cut, score)``: the left side's size at its first
    lowest-scoring valid cut and that cut's score, or ``(-1, inf)`` when no
    cut is valid."""
    scores = np.where(valid, scores, _INF)
    best = np.minimum.reduceat(scores, starts)
    at = np.where(scores == best[seg], np.arange(scores.size), scores.size)
    found = best != _INF
    return np.where(found, np.minimum.reduceat(at, starts) - starts + 1, -1), best


def best_split_gini(values, labels, sizes, min_leaf):
    """Best binary-Gini split of one column in each segment.

    ``values`` must be ascending within each segment; ``labels`` float64
    zeros/ones in the same order. Returns ``(cut, impurity)`` arrays with
    one entry per segment, where the left child is the segment's first
    ``cut`` rows, and ``(-1, inf)`` for a segment with no valid split.
    """
    starts, seg, nl, nr, valid = _cut_sides(values, sizes, min_leaf)
    # nr floored at 1: a segment's last row has no cut after it, but an
    # unfloored 0 would divide by zero
    c1 = np.cumsum(labels)
    before = (c1 - labels)[starts]  # class-1 rows before each segment
    total1 = c1[starts + sizes - 1] - before
    imp = _gini(nl, np.maximum(nr, 1.0), c1 - before[seg], total1[seg])
    return _first_best(imp, valid, starts, seg)


def best_split_sse(values, targets, sizes, min_leaf):
    """Best variance-reduction split of one column in each segment.

    Returns ``(cut, score)`` arrays minimizing ``-(s_l^2/n_l + s_r^2/n_r)``
    (the squared error of per-child means, less the segment's own sum of
    squares), with ``(-1, inf)`` for a segment with no valid split.
    """
    starts, seg, nl, nr, valid = _cut_sides(values, sizes, min_leaf)
    place = (nl - 1.0).astype(np.intp)
    padded = np.zeros((sizes.size, sizes.max()))
    padded[seg, place] = targets
    s = np.cumsum(padded, axis=1)
    total = s[np.arange(sizes.size), sizes - 1]
    proxy = _sse_proxy(nl, np.maximum(nr, 1.0), s[seg, place], total[seg])
    return _first_best(-proxy, valid, starts, seg)


def _side_counts(B, sizes, min_leaf):
    """Row counts left (value 0) and right (value 1) of each 0/1 column of
    ``B`` in each segment, floored at 1 so empty sides divide safely, and
    the valid mask."""
    ones = np.add.reduceat(B, _starts(sizes), axis=0)
    nl = sizes[:, None] - ones
    valid = np.minimum(nl, ones) >= max(min_leaf, 1)
    return np.maximum(nl, 1.0), np.maximum(ones, 1.0), valid


def count_split_gini(B, labels, sizes, min_leaf):
    """Impurity of splitting each segment on each 0/1 column of ``B`` into
    zeros and ones.

    ``labels`` are the float64 zeros/ones of ``B``'s rows. Returns a float64
    array of one row per segment and one impurity per column, ``inf`` where
    the column has no valid split. The sums are whole numbers, so any
    summation order is exact.
    """
    nl, nr, valid = _side_counts(B, sizes, min_leaf)
    starts = _starts(sizes)
    total1 = np.add.reduceat(labels, starts)[:, None]
    c1r = np.add.reduceat(B * labels[:, None], starts, axis=0)
    return np.where(valid, _gini(nl, nr, total1 - c1r, total1), _INF)


def count_split_sse(B, targets, sizes, min_leaf):
    """Negated variance-reduction proxy of splitting each segment on each
    0/1 column of ``B``.

    Returns one row per segment and one score per column, ``inf`` where the
    column has no valid split. ``np.bincount`` adds its weights in input
    order, so each (segment, column) sum runs sequentially down the
    segment's rows, as ``np.cumsum`` does over the stable-sorted column in
    ``best_split_sse``: first the zero side, then, from the zero side's
    sum, the one side. The zero side's sum also adds a zero for each row
    on the one side, which leaves it unchanged up to the sign of zero, and
    the proxy squares that away.
    """
    k = B.shape[1]
    nl, nr, valid = _side_counts(B, sizes, min_leaf)
    size = sizes.size * k
    # one bin per (segment, column), row after row
    bins = (np.repeat(np.arange(sizes.size) * k, sizes)[:, None]
            + np.arange(k)).ravel()
    zero = B == 0.0
    sl = np.bincount(bins, (zero * targets[:, None]).ravel(), size)
    ones = np.flatnonzero(~zero)
    total = np.bincount(np.concatenate((np.arange(size), bins[ones])),
                        np.concatenate((sl, targets[ones // k])), size)
    proxy = _sse_proxy(nl, nr, sl.reshape(nl.shape), total.reshape(nl.shape))
    return np.where(valid, -proxy, _INF)


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
                 count_kernel):
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
    at = (np.arange(m), scores.argmin(axis=1))
    return scores[at] != _INF, features[at], thresholds[at]


def _grow(X, roots, crit, leaf_values, min_leaf, max_depth, rngs, max_features,
          kernel, count_kernel):
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
                min_leaf, kernel, count_kernel)
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
                 max_features, best_split_gini, count_split_gini)


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
                 max_depth, None, None, best_split_sse, count_split_sse)


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
