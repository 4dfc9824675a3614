"""Split-search kernels for decision-tree induction, in numpy.

Every kernel scores many tree nodes in one call. The rows of all nodes lie
in one array, node after node, and ``sizes`` holds each node's row count;
a single node is one segment, ``sizes = [n]``.

``best_split_gini``/``best_split_sse`` scan every cut point of one column,
sorted within each node, and return each node's best cut. The Gini scan
counts class-1 rows with one running sum over all nodes, which is exact
because the counts are whole numbers; the SSE scan sums each node's
targets on its own, sequentially down its rows, in a zero-padded
node-by-row matrix, so a node's sums equal ``np.cumsum`` of its rows
alone. ``count_split_gini``/``count_split_sse`` score the single cut point
of 0/1 columns, one per matrix column, from each side's row count and
label or target sum. Both kinds evaluate the same ``_gini``/``_sse_proxy``
expressions on sums accumulated in the same order, so a 0/1 column gets a
bit-identical score either way. Ties go to the first cut point. ``BACKEND``
names the implementation for run records and is always ``"python"``.
"""

import numpy as np

BACKEND = "python"

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


def _first_best(scores, valid, starts, seg, maximize):
    """Each segment's ``(cut, score)``: the left side's size at its first
    best valid cut and that cut's score, or ``(-1, sentinel)`` when no cut
    is valid."""
    sentinel = -_INF if maximize else _INF
    scores = np.where(valid, scores, sentinel)
    best = (np.maximum if maximize else np.minimum).reduceat(scores, starts)
    at = np.where(scores == best[seg], np.arange(scores.size), scores.size)
    found = best != sentinel
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
    return _first_best(imp, valid, starts, seg, maximize=False)


def best_split_sse(values, targets, sizes, min_leaf):
    """Best variance-reduction split of one column in each segment.

    Returns ``(cut, proxy)`` arrays maximizing ``s_l^2/n_l + s_r^2/n_r``
    (equivalent to minimizing the squared error of per-child means), with
    ``(-1, -inf)`` for a segment with no valid split.
    """
    starts, seg, nl, nr, valid = _cut_sides(values, sizes, min_leaf)
    place = (nl - 1.0).astype(np.intp)
    padded = np.zeros((sizes.size, sizes.max()))
    padded[seg, place] = targets
    s = np.cumsum(padded, axis=1)
    total = s[np.arange(sizes.size), sizes - 1]
    proxy = _sse_proxy(nl, np.maximum(nr, 1.0), s[seg, place], total[seg])
    return _first_best(proxy, valid, starts, seg, maximize=True)


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
    """Variance-reduction proxy of splitting each segment on each 0/1
    column of ``B``.

    Returns one row per segment and one proxy per column, ``-inf`` where the
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
    return np.where(valid, proxy, -_INF)


__all__ = ["BACKEND", "best_split_gini", "best_split_sse",
           "count_split_gini", "count_split_sse"]
