"""Split-search kernels for decision-tree induction, in numpy.

``best_split_gini``/``best_split_sse`` scan every cut point of one sorted
column. ``count_split_gini``/``count_split_sse`` score the single cut point
of many 0/1 columns at once from each side's row count and label or target
sum. Both evaluate the same ``_gini``/``_sse_proxy`` expressions on sums
accumulated in the same order, so a 0/1 column gets a bit-identical score
either way. ``BACKEND`` names the implementation for run records and is
always ``"python"``.
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


def best_split_gini(values, labels, min_leaf):
    """Best binary-Gini split of a sorted feature column.

    ``values`` must be ascending; ``labels`` float64 zeros/ones in the same
    order. Returns ``(i, impurity)`` where the left child is ``[0, i)``, or
    ``(-1, inf)`` when no valid split exists.
    """
    n = values.shape[0]
    if n < 2 * min_leaf or n < 2:
        return -1, _INF
    c1 = np.cumsum(labels)
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    imp = _gini(nl, nr, c1[:-1], c1[-1])
    valid = (values[1:] > values[:-1]) & (nl >= min_leaf) & (nr >= min_leaf)
    imp = np.where(valid, imp, _INF)
    j = int(np.argmin(imp))
    if imp[j] == _INF:
        return -1, _INF
    return j + 1, float(imp[j])


def best_split_sse(values, targets, min_leaf):
    """Best variance-reduction split of a sorted feature column.

    Returns ``(i, proxy)`` maximizing ``s_l^2/n_l + s_r^2/n_r`` (equivalent
    to minimizing the squared error of per-child means), or ``(-1, -inf)``.
    """
    n = values.shape[0]
    if n < 2 * min_leaf or n < 2:
        return -1, -_INF
    s = np.cumsum(targets)
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    proxy = _sse_proxy(nl, nr, s[:-1], s[-1])
    valid = (values[1:] > values[:-1]) & (nl >= min_leaf) & (nr >= min_leaf)
    proxy = np.where(valid, proxy, -_INF)
    j = int(np.argmax(proxy))
    if proxy[j] == -_INF:
        return -1, -_INF
    return j + 1, float(proxy[j])


def _side_counts(B, min_leaf):
    """Row counts left (value 0) and right (value 1) of each 0/1 column of
    ``B``, floored at 1 so empty sides divide safely, and the valid mask."""
    ones = B.sum(axis=0)
    nl = B.shape[0] - ones
    valid = np.minimum(nl, ones) >= max(min_leaf, 1)
    return np.maximum(nl, 1.0), np.maximum(ones, 1.0), valid


def count_split_gini(B, labels, min_leaf):
    """Impurity of splitting each 0/1 column of ``B`` into zeros and ones.

    ``labels`` are the float64 zeros/ones of ``B``'s rows. Returns a float64
    array of one impurity per column, ``inf`` where the column has no valid
    split. Two reductions give each column's count of ones and of class-1
    rows among them; the sums are whole numbers, so any summation order is
    exact. Each column is then scored on Python floats: a node scores at
    most a few dozen columns, and at that size a dozen ufunc dispatches
    cost more than the arithmetic.
    """
    n = B.shape[0]
    total1 = float(labels.sum())
    floor = max(min_leaf, 1)
    out = []
    for nr, c1r in zip(B.sum(axis=0).tolist(), (labels @ B).tolist()):
        nl = n - nr
        out.append(_gini(nl, nr, total1 - c1r, total1)
                   if min(nl, nr) >= floor else _INF)
    return np.array(out, dtype=np.float64)


def count_split_sse(B, targets, min_leaf):
    """Variance-reduction proxy of splitting each 0/1 column of ``B``.

    Returns one proxy per column, ``-inf`` where the column has no valid
    split. The sums run sequentially down the rows, zero side first, as
    ``np.cumsum`` does over the stable-sorted column in ``best_split_sse``.
    """
    n = B.shape[0]
    nl, nr, valid = _side_counts(B, min_leaf)
    zero = B == 0.0
    t = targets[:, None]
    s = np.cumsum(np.concatenate((np.where(zero, t, 0.0),
                                  np.where(zero, 0.0, t))), axis=0)
    proxy = _sse_proxy(nl, nr, s[n - 1], s[-1])
    return np.where(valid, proxy, -_INF)


__all__ = ["BACKEND", "best_split_gini", "best_split_sse",
           "count_split_gini", "count_split_sse"]
