import numpy as np
import pytest

from cricpred.kernels import (
    best_split_gini,
    best_split_sse,
    count_split_gini,
    count_split_sse,
)
from cricpred.models import ensemble, make_spec, train
from cricpred.models.linear import sigmoid
from cricpred.models.tree import (
    draw_features,
    fit_classification_tree,
    fit_regression_tree,
    flatten,
    grow_classification_trees,
    tree_predict_matrix,
)

from conftest import fixture_dataset, separable_dataset

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
        tree = fit_classification_tree(X, y)
        assert lo < tree["threshold"] <= X[2, 0]
        assert tree_predict_matrix(flatten([tree]), X)[0].tolist() == y.tolist()

    def test_sse(self, lo):
        X, y = adjacent_pair(lo)
        tree = fit_regression_tree(X, y, np.ones(4))
        assert lo < tree["threshold"] <= X[2, 0]
        leaves = [tree["left"]["value"]] * 2 + [tree["right"]["value"]] * 2
        assert leaves[0] != leaves[2]
        assert tree_predict_matrix(flatten([tree]), X)[0].tolist() == leaves


# --- the node table against the nested trees it was flattened from -------

def walk(node, row):
    """Reference descent: one row through one nested tree."""
    while "value" not in node:
        node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
    return node["value"]


def walk_matrix(trees, X):
    return np.array([[walk(tree, row) for row in X] for tree in trees],
                    dtype=np.float64)


def grown(monkeypatch, kind, data, **hyperparameters):
    """The trained model and the nested trees its ensemble was flattened
    from."""
    seen = []

    def spy(trees):
        seen.append(trees)
        return flatten(trees)

    monkeypatch.setattr(ensemble, "flatten", spy)
    model = train(make_spec(kind, seed=3, **hyperparameters), data)
    return model, seen[-1]


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
def test_ensemble_matches_nested_walk(monkeypatch, source, kind):
    data = DATASETS[source]()
    model, trees = grown(monkeypatch, kind, data, **ENSEMBLES[kind])
    params = model.parameters
    for X in (data.X, random_rows(data), np.zeros((0, data.X.shape[1]))):
        leaves = walk_matrix(trees, X)
        assert np.array_equal(tree_predict_matrix(flatten(trees), X), leaves)
        # the ensemble sums its trees in tree order, one tree at a time
        if kind == "random_forest":
            expected = np.zeros(X.shape[0])
            for v in leaves:
                expected += v
            expected = expected / len(trees)
        else:
            f = np.full(X.shape[0], params["base_score"])
            for v in leaves:
                f = f + params["shrinkage"] * v
            expected = sigmoid(f)
        assert np.array_equal(model.predict_proba_matrix(X), expected)


@pytest.mark.parametrize("lo", LOWS)
def test_adjacent_doubles_match_nested_walk(lo):
    X, y = adjacent_pair(lo)
    trees = [fit_classification_tree(X, y), fit_regression_tree(X, y, np.ones(4))]
    t = trees[0]["threshold"]
    probes = np.array([[lo], [np.nextafter(t, -np.inf)], [t], [-np.inf],
                       [np.inf], [np.nan]])
    for rows in (X, probes):
        assert np.array_equal(tree_predict_matrix(flatten(trees), rows),
                              walk_matrix(trees, rows))


def test_random_matrices_match_nested_walk():
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = rng.normal(size=(80, 4))
        X[:, 0] = rng.integers(0, 2, size=80)
        y = (X[:, 1] + rng.normal(scale=0.5, size=80) > 0).astype(np.float64)
        trees = [fit_classification_tree(X, y, rng=rng, max_features=2)
                 for _ in range(3)]
        trees.append(fit_regression_tree(X, y - 0.5, np.full(80, 0.25)))
        rows = rng.normal(size=(150, 4))
        assert np.array_equal(tree_predict_matrix(flatten(trees), rows),
                              walk_matrix(trees, rows))


def test_flatten_layout():
    """Preorder; a leaf points to itself and reads column 0."""
    stump = {"feature": 2, "threshold": 0.5,
             "left": {"value": 0.25},
             "right": {"feature": 1, "threshold": -1.0,
                       "left": {"value": 0.5}, "right": {"value": 0.75}}}
    table = flatten([stump, {"value": 1.0}])
    assert {k: v.tolist() for k, v in table.items()} == {
        "roots": [0, 5],
        "feature": [2, 0, 1, 0, 0, 0],
        "threshold": [0.5, 0.0, -1.0, 0.0, 0.0, 0.0],
        "left": [1, 1, 3, 3, 4, 5],
        "right": [2, 1, 4, 3, 4, 5],
        "value": [0.0, 0.25, 0.0, 0.5, 0.75, 1.0],
    }


# --- the breadth-first grower against the depth-first one it replaced ----
#
# ``ref_grow``/``ref_best_split`` are the recursive grower as it was before
# trees grew level by level, calling the kernels with one segment. With
# every column a candidate, the two must give the same nested dicts.

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
                    count_split_sse, True)


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
GROWTH = [(min_leaf, max_depth) for min_leaf in (1, 2, 3, 4)
          for max_depth in (None, 0, 3)]


@pytest.mark.parametrize("min_leaf, max_depth", GROWTH)
@pytest.mark.parametrize("name, X, y", MATRICES, ids=[m[0] for m in MATRICES])
def test_gini_tree_matches_depth_first(name, X, y, min_leaf, max_depth):
    assert (fit_classification_tree(X, y, min_leaf, max_depth)
            == ref_classification_tree(X, y, min_leaf, max_depth))


@pytest.mark.parametrize("min_leaf, max_depth", GROWTH)
@pytest.mark.parametrize("name, X, y", MATRICES, ids=[m[0] for m in MATRICES])
def test_sse_tree_matches_depth_first(name, X, y, min_leaf, max_depth):
    rng = np.random.default_rng(min_leaf)
    p = np.clip(rng.random(y.size), 0.05, 0.95)
    grad = (y - p) * 10.0 ** rng.integers(-3, 4, size=y.size)
    hess = p * (1.0 - p)
    assert (fit_regression_tree(X, grad, hess, min_leaf, max_depth)
            == ref_regression_tree(X, grad, hess, min_leaf, max_depth))


@pytest.mark.parametrize("min_leaf, max_depth", [(1, None), (3, None), (2, 3)])
@pytest.mark.parametrize("name, X, y", MATRICES, ids=[m[0] for m in MATRICES])
def test_bootstrap_batch_matches_depth_first(name, X, y, min_leaf, max_depth):
    """Several bootstrap samples, duplicate rows and all, grown in one
    batch: each tree is the one grown alone on its sample's rows."""
    rng = np.random.default_rng(7)
    roots = [rng.integers(0, X.shape[0], size=X.shape[0]) for _ in range(5)]
    roots.append(np.arange(X.shape[0]))
    trees = grow_classification_trees(X, y, roots, min_leaf, max_depth)
    assert trees == [ref_classification_tree(X[r], y[r], min_leaf, max_depth)
                     for r in roots]


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
