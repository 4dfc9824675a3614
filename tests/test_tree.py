import numpy as np
import pytest

from cricpred.models import ensemble, make_spec, train
from cricpred.models.linear import sigmoid
from cricpred.models.tree import (
    TABLE_DTYPES,
    TABLE_KEYS,
    best_split_gini,
    best_split_sse,
    check_table,
    count_split_gini,
    count_split_sse,
    draw_features,
    fit_classification_tree,
    fit_regression_tree,
    grow_classification_trees,
    stored_table,
    tree_predict_matrix,
)

from conftest import fixture_dataset, grown_lists, separable_dataset

MAX = np.finfo(np.float64).max


def adjacent_pair(lo):
    """Two rows at ``lo`` (class 0) and two at the next double up (class 1)."""
    hi = np.nextafter(lo, np.inf)
    return np.array([[lo], [lo], [hi], [hi]]), np.array([0.0, 0.0, 1.0, 1.0])


# 1.0 and -3.0: the midpoint of the pair rounds down to ``lo``; the pair
# below MAX: it overflows to inf; 1.0 + ulp: it rounds up to ``hi``.
LOWS = [1.0, -3.0, np.nextafter(MAX, 0.0), np.nextafter(1.0, 2.0)]


@pytest.mark.parametrize("lo", LOWS)
class TestThresholdBetweenAdjacentValues:
    """Every training row lands in the leaf it was grown into."""

    def test_gini(self, lo):
        X, y = adjacent_pair(lo)
        table = fit_classification_tree(X, y)
        assert lo < table["threshold"][0] <= X[2, 0]
        assert tree_predict_matrix(stored_table(table), X)[0].tolist() == y.tolist()

    def test_sse(self, lo):
        X, y = adjacent_pair(lo)
        table = fit_regression_tree(X, y, np.ones(4))
        assert lo < table["threshold"][0] <= X[2, 0]
        value, left, right = table["value"], table["left"][0], table["right"][0]
        leaves = [value[left]] * 2 + [value[right]] * 2
        assert leaves[0] != leaves[2]
        assert tree_predict_matrix(stored_table(table), X)[0].tolist() == leaves


# --- the vectorized descent over the stored table against a scalar one ---
# --- over the grown table it was converted from ---------------------------

def walk(table, node, row):
    """Reference descent over a grown table's six arrays: one row from one
    root, one node at a time. It reads ``left`` and ``value``, which the
    stored table the descent under test reads does not hold."""
    while table["left"][node] != node:
        go_left = row[table["feature"][node]] < table["threshold"][node]
        node = table["left"][node] if go_left else table["right"][node]
    return table["value"][node]


def walk_matrix(table, X):
    return np.array([[walk(table, root, row) for row in X]
                     for root in table["roots"]], dtype=np.float64)


def grown(stored):
    """The six lists of the grown table an ensemble's stored table came
    from."""
    table = {k: stored[k].tolist() for k in ("roots", "feature", "threshold", "right")}
    grown_lists(table)
    return table


def random_rows(data, n=200):
    """Rows around the training rows' scale, with 0/1 columns kept 0/1."""
    rng = np.random.default_rng(11)
    X = rng.normal(data.X.mean(axis=0), data.X.std(axis=0) + 1.0,
                   size=(n, data.X.shape[1]))
    binary = np.all((data.X == 0.0) | (data.X == 1.0), axis=0)
    X[:, binary] = rng.integers(0, 2, size=(n, int(binary.sum())))
    return X


DATASETS = {"fixture": fixture_dataset,
            "separable": lambda: separable_dataset(n=300, seed=4)}
ENSEMBLES = {"random_forest": {"n_trees": 30},
             "gradient_boosting": {"n_rounds": 30}}


@pytest.mark.parametrize("kind", ENSEMBLES)
@pytest.mark.parametrize("source", DATASETS)
def test_ensemble_matches_nested_walk(source, kind):
    data = DATASETS[source]()
    model = train(make_spec(kind, seed=3, **ENSEMBLES[kind]), data)
    params = model.parameters
    for X in (data.X, random_rows(data), np.zeros((0, data.X.shape[1]))):
        leaves = walk_matrix(grown(params), X)
        assert np.array_equal(tree_predict_matrix(params, X), leaves)
        # the ensemble sums its trees in tree order, one tree at a time
        if kind == "random_forest":
            expected = np.zeros(X.shape[0])
            for v in leaves:
                expected += v
            expected = expected / len(params["roots"])
        else:
            f = np.full(X.shape[0], params["base_score"])
            for v in leaves:
                f = f + params["shrinkage"] * v
            expected = sigmoid(f)
        assert np.array_equal(model.predict_proba_matrix(X), expected)


@pytest.mark.parametrize("lo", LOWS)
def test_adjacent_doubles_match_nested_walk(lo):
    X, y = adjacent_pair(lo)
    tables = [fit_classification_tree(X, y), fit_regression_tree(X, y, np.ones(4))]
    t = tables[0]["threshold"][0]
    probes = np.array([[lo], [np.nextafter(t, -np.inf)], [t], [-np.inf],
                       [np.inf], [np.nan]])
    for rows in (X, probes):
        for table in tables:
            assert np.array_equal(tree_predict_matrix(stored_table(table), rows),
                                  walk_matrix(table, rows))


def test_random_matrices_match_nested_walk():
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = rng.normal(size=(80, 4))
        X[:, 0] = rng.integers(0, 2, size=80)
        y = (X[:, 1] + rng.normal(scale=0.5, size=80) > 0).astype(np.float64)
        tables = [fit_classification_tree(X, y, rng=rng, max_features=2)
                  for _ in range(3)]
        tables.append(fit_regression_tree(X, y - 0.5, np.full(80, 0.25)))
        rows = rng.normal(size=(150, 4))
        for table in tables:
            assert np.array_equal(tree_predict_matrix(stored_table(table), rows),
                                  walk_matrix(table, rows))


def test_flatten_layout():
    """Preorder: a left child right after its parent, the right child after
    the left child's subtree. A leaf points to itself and reads column 0
    with threshold 0, and an internal node's value is 0. The root splits
    column 0 at 3.5; its left child (node 1) splits the 0/1 column, so the
    right child comes after a subtree of three nodes."""
    X = np.column_stack([np.arange(7.0), [0, 1, 0, 0, 1, 0, 1]])
    y = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    table = fit_classification_tree(X, y)
    assert {k: v.tolist() for k, v in table.items()} == {
        "roots": [0],
        "feature": [0, 1, 0, 0, 0, 0, 0],
        "threshold": [3.5, 0.5, 0.0, 0.0, 5.5, 0.0, 0.0],
        "left": [1, 2, 2, 3, 5, 5, 6],
        "right": [4, 3, 2, 3, 6, 5, 6],
        "value": [0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    }
    assert {k: v.dtype for k, v in table.items()} == TABLE_DTYPES


# --- the breadth-first grower against the depth-first one it replaced ----
#
# ``ref_grow``/``ref_best_split`` are the recursive grower as it was before
# trees grew level by level, calling the kernels with one segment; it
# builds nested dicts, and ``flatten`` lays them out as a node table. With
# every column a candidate, the grown table must equal the reference's.

_INF = float("inf")


def _binary_columns(X):
    return np.all((X == 0.0) | (X == 1.0), axis=0)


def ref_best_split(X, idx, crit, min_leaf, features, binary, kernel,
                   count_kernel, maximize):
    scores = np.full(features.size, -_INF if maximize else _INF)
    is_binary = binary[features]
    one = np.array([idx.size])
    if is_binary.any():
        scores[is_binary] = count_kernel(X[idx[:, None], features[is_binary]],
                                         crit, one, min_leaf)[0]
    sorted_splits = {}
    for k in (~is_binary).nonzero()[0]:
        col = X[idx, features[k]]
        order = np.argsort(col, kind="stable")
        values = col[order]
        i, score = kernel(values, crit[order], one, min_leaf)
        i, score = int(i[0]), float(score[0])
        if i >= 0:
            scores[k] = score
            lo, hi = float(values[i - 1]), float(values[i])
            threshold = (lo + hi) / 2.0
            if not lo < threshold <= hi:
                threshold = hi
            sorted_splits[k] = (order, i, threshold)
    k = int(scores.argmax() if maximize else scores.argmin())
    if abs(scores[k]) == _INF:
        return None
    f = features[k]
    if k in sorted_splits:
        order, i, threshold = sorted_splits[k]
        return f, threshold, idx[order[:i]], idx[order[i:]]
    ones = X[idx, f] == 1.0
    return f, 0.5, idx[~ones], idx[ones]


def ref_grow(X, idx, criterion_values, leaf_value, min_leaf, max_depth, depth,
             binary, kernel, count_kernel, maximize):
    crit = criterion_values[idx]
    done = ((max_depth is not None and depth >= max_depth)
            or idx.size < 2 * min_leaf
            or bool((crit == crit[0]).all()))
    if not done:
        split = ref_best_split(X, idx, crit, min_leaf, np.arange(X.shape[1]),
                               binary, kernel, count_kernel, maximize)
        done = split is None
    if done:
        return {"value": leaf_value(idx)}
    f, threshold, left_idx, right_idx = split
    args = (criterion_values, leaf_value, min_leaf, max_depth, depth + 1,
            binary, kernel, count_kernel, maximize)
    return {"feature": int(f), "threshold": float(threshold),
            "left": ref_grow(X, left_idx, *args),
            "right": ref_grow(X, right_idx, *args)}


def ref_classification_tree(X, y, min_leaf, max_depth):
    return ref_grow(X, np.arange(X.shape[0]), y,
                    lambda idx: float(y[idx].sum()) / idx.size, min_leaf,
                    max_depth, 0, _binary_columns(X), best_split_gini,
                    count_split_gini, False)


def ref_regression_tree(X, grad, hess, min_leaf, max_depth):
    def leaf_value(idx):
        return float(grad[idx].sum()) / (float(hess[idx].sum()) + 1e-12)

    return ref_grow(X, np.arange(X.shape[0]), grad, leaf_value, min_leaf,
                    max_depth, 0, _binary_columns(X), best_split_sse,
                    count_split_sse, False)


def flatten(trees):
    """The node table of the nested ``trees``: each tree's nodes in
    preorder."""
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
    return {k: np.array(table[k], dtype=TABLE_DTYPES[k]) for k in TABLE_KEYS}


def assert_same_table(got, want):
    """Equal node tables, down to the dtype and the bits of every float."""
    assert list(got) == list(want)
    for k in TABLE_KEYS:
        assert got[k].dtype == want[k].dtype, k
        assert got[k].tobytes() == want[k].tobytes(), k


def mixed_matrix(rng, n):
    """Columns of every kind the split search tells apart: 0/1, constant,
    tied, 0/2 (numeric, not 0/1), adjacent doubles and continuous."""
    lo = float(rng.choice([1.0, -3.0, 0.1]))
    columns = [
        rng.integers(0, 2, n).astype(np.float64),
        (rng.random(n) < 0.1).astype(np.float64),
        np.full(n, float(rng.integers(2))),
        np.full(n, 5.0),
        rng.integers(0, 4, n).astype(np.float64),
        rng.integers(0, 2, n) * 2.0,
        np.where(rng.random(n) < 0.5, lo, np.nextafter(lo, np.inf)),
        rng.normal(size=n),
        np.round(rng.normal(size=n), 1),
    ]
    return np.column_stack([columns[i] for i in rng.permutation(len(columns))])


def matrices():
    """(name, X, y): the fixture, a separable set and random mixed ones."""
    out = []
    for name, make in DATASETS.items():
        data = make()
        out.append((name, data.X, data.y))
    rng = np.random.default_rng(12)
    for i in range(4):
        X = mixed_matrix(rng, int(rng.integers(40, 160)))
        signal = X @ rng.normal(size=X.shape[1]) + rng.normal(size=X.shape[0])
        out.append((f"mixed{i}", X, (signal > np.median(signal)).astype(np.float64)))
    return [(name, np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64))
            for name, X, y in out]


MATRICES = matrices()
# The leaf floor every forest grows to unless its spec sets another.
DEFAULT_MIN_LEAF = make_spec("random_forest").resolved_hyperparameters()["min_leaf"]
GROWTH = [(min_leaf, max_depth) for min_leaf in sorted({1, 2, 3, 4, DEFAULT_MIN_LEAF})
          for max_depth in (None, 0, 3)]


@pytest.mark.parametrize("min_leaf, max_depth", GROWTH)
@pytest.mark.parametrize("name, X, y", MATRICES, ids=[m[0] for m in MATRICES])
def test_gini_tree_matches_depth_first(name, X, y, min_leaf, max_depth):
    assert_same_table(fit_classification_tree(X, y, min_leaf, max_depth),
                      flatten([ref_classification_tree(X, y, min_leaf, max_depth)]))


@pytest.mark.parametrize("min_leaf, max_depth", GROWTH)
@pytest.mark.parametrize("name, X, y", MATRICES, ids=[m[0] for m in MATRICES])
def test_sse_tree_matches_depth_first(name, X, y, min_leaf, max_depth):
    rng = np.random.default_rng(min_leaf)
    p = np.clip(rng.random(y.size), 0.05, 0.95)
    grad = (y - p) * 10.0 ** rng.integers(-3, 4, size=y.size)
    hess = p * (1.0 - p)
    assert_same_table(
        fit_regression_tree(X, grad, hess, min_leaf, max_depth),
        flatten([ref_regression_tree(X, grad, hess, min_leaf, max_depth)]))


@pytest.mark.parametrize("min_leaf, max_depth",
                         [(1, None), (3, None), (2, 3), (DEFAULT_MIN_LEAF, None)])
@pytest.mark.parametrize("name, X, y", MATRICES, ids=[m[0] for m in MATRICES])
def test_bootstrap_batch_matches_depth_first(name, X, y, min_leaf, max_depth):
    """Several bootstrap samples, duplicate rows and all, grown in one
    batch: each tree is the one grown alone on its sample's rows."""
    rng = np.random.default_rng(7)
    roots = [rng.integers(0, X.shape[0], size=X.shape[0]) for _ in range(5)]
    roots.append(np.arange(X.shape[0]))
    table = grow_classification_trees(X, y, roots, min_leaf, max_depth)
    assert_same_table(table, flatten([
        ref_classification_tree(X[r], y[r], min_leaf, max_depth) for r in roots]))


@pytest.mark.parametrize("name, X, y", MATRICES, ids=[m[0] for m in MATRICES])
def test_grown_table_is_preorder(name, X, y):
    """Every grown table is valid, and every internal node's left child is
    the next node, for a batch of trees and for a regression tree."""
    rng = np.random.default_rng(9)
    roots = [rng.integers(0, X.shape[0], size=X.shape[0]) for _ in range(4)]
    tables = [grow_classification_trees(X, y, roots, rngs=[rng] * 4,
                                        max_features=3),
              fit_regression_tree(X, y - 0.5, np.full(y.size, 0.25), max_depth=4)]
    for table in tables:
        check_table(stored_table(table), X.shape[1])
        node = np.arange(table["value"].size)
        internal = table["left"] != node
        assert internal.any()
        assert np.array_equal(table["left"][internal], node[internal] + 1)


def test_table_out_of_preorder_predicts_by_its_links():
    """Node 0's right child (3) sits among its left child's descendants
    (2 and 4): not preorder, but every node is reached once, from the
    root. The table passes the load checks, and each row ends in the leaf
    its links lead to."""
    table = {"roots": np.array([0]), "feature": np.array([0, 1, 0, 0, 0]),
             "threshold": np.array([0.5, 0.5, 10.0, 30.0, 20.0]),
             "right": np.array([3, 4, 2, 3, 4])}
    check_table(table, 2)
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert tree_predict_matrix(table, X).tolist() == [[10.0, 20.0, 30.0]]


def test_level_draw():
    """Each node gets ``max_features`` distinct columns in ascending order,
    and every column is drawn about ``max_features / d`` of the time."""
    rng = np.random.default_rng(8)
    d, max_features, draws = 36, 6, 0
    counts = np.zeros(d)
    while draws < 20_000:
        nodes = int(rng.integers(1, 200))
        chosen = draw_features(rng, nodes, d, max_features)
        assert chosen.shape == (nodes, max_features)
        assert (np.diff(chosen, axis=1) > 0).all()
        assert chosen.min() >= 0 and chosen.max() < d
        counts += np.bincount(chosen.ravel(), minlength=d)
        draws += nodes
    p = max_features / d
    assert np.all(np.abs(counts / draws - p) <= 4 * np.sqrt(p * (1 - p) / draws))


@pytest.mark.parametrize("group", [1, 7])
def test_forest_does_not_depend_on_tree_group(monkeypatch, group):
    """Each tree draws from its own generator, so growing the trees in
    groups of another size grows the same forest."""
    data = separable_dataset(n=300, seed=4)
    spec = make_spec("random_forest", seed=2, n_trees=30)
    want = train(spec, data).parameters
    monkeypatch.setattr(ensemble, "TREE_GROUP", group)
    got = train(spec, data).parameters
    assert all(np.array_equal(want[k], got[k]) for k in want)
