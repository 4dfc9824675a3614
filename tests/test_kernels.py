import numpy as np
import pytest

from cricpred import kernels
from cricpred.models.tree import (
    best_split_gini,
    best_split_sse,
    count_split_gini,
    count_split_sse,
)

INF = float("inf")


def one_segment(kernel, values, crit, min_leaf):
    """A sorted-column kernel's ``(cut, score)`` for one node."""
    cut, score = kernel(values, crit, np.array([values.size]), min_leaf)
    return int(cut[0]), float(score[0])


def brute_gini(values, labels, min_leaf):
    """Enumerate every cut point; the reference for the sorted-column scan."""
    n = len(values)
    best = (-1, INF)
    for i in range(1, n):
        if values[i] <= values[i - 1]:
            continue
        nl, nr = i, n - i
        if nl < min_leaf or nr < min_leaf:
            continue
        c1l = float(np.sum(labels[:i]))
        c1r = float(np.sum(labels[i:]))
        gl = nl - ((nl - c1l) ** 2 + c1l**2) / nl
        gr = nr - ((nr - c1r) ** 2 + c1r**2) / nr
        if gl + gr < best[1]:
            best = (i, gl + gr)
    return best


def brute_sse(values, targets, min_leaf):
    n = len(values)
    best = (-1, INF)
    for i in range(1, n):
        if values[i] <= values[i - 1]:
            continue
        nl, nr = i, n - i
        if nl < min_leaf or nr < min_leaf:
            continue
        sl = float(np.sum(targets[:i]))
        sr = float(np.sum(targets[i:]))
        score = -(sl * sl / nl + sr * sr / nr)
        if score < best[1]:
            best = (i, score)
    return best


def random_case(rng, target_kind):
    n = int(rng.integers(2, 80))
    if rng.random() < 0.3:
        values = np.sort(rng.integers(0, 4, n).astype(np.float64))  # heavy ties
    else:
        values = np.sort(rng.normal(size=n))
    if target_kind == "labels":
        crit = rng.integers(0, 2, n).astype(np.float64)
    else:
        crit = rng.normal(size=n)
    min_leaf = int(rng.integers(1, 5))
    return values, crit, min_leaf


class TestAgainstBruteForce:
    def test_gini(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            values, labels, min_leaf = random_case(rng, "labels")
            got = one_segment(best_split_gini, values, labels, min_leaf)
            want = brute_gini(values, labels, min_leaf)
            assert got[0] == want[0]
            if got[0] != -1:
                assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12)

    def test_sse(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            values, targets, min_leaf = random_case(rng, "targets")
            got = one_segment(best_split_sse, values, targets, min_leaf)
            want = brute_sse(values, targets, min_leaf)
            assert got[0] == want[0]
            if got[0] != -1:
                assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12)


class TestBackend:
    def test_backend_is_python(self):
        assert kernels.BACKEND == "python"


def random_node(rng):
    """Rows of one tree node, in a shuffled ``idx`` order, from a matrix
    mixing 0/1 columns with tied and continuous numeric ones."""
    n_all = int(rng.integers(2, 120))
    idx = rng.permutation(n_all)[:int(rng.integers(1, n_all + 1))]
    cols = []
    for _ in range(int(rng.integers(1, 10))):
        kind = int(rng.integers(6))
        if kind == 0:
            col = np.zeros(n_all)
        elif kind == 1:
            col = (rng.random(n_all) < rng.random()).astype(np.float64)
        elif kind == 2:  # 0/1 in the matrix, constant within the node
            col = np.ones(n_all)
            col[rng.integers(n_all)] = 0.0
            col[idx] = float(rng.integers(2))
        elif kind == 3:
            col = rng.integers(0, 4, n_all).astype(np.float64)  # heavy ties
        elif kind == 4:
            col = rng.integers(0, 2, n_all) * 2.0  # 0/2: numeric, not 0/1
        else:
            col = rng.normal(size=n_all)
        cols.append(col)
    X = np.column_stack(cols)[idx]
    binary = np.all((X == 0.0) | (X == 1.0), axis=0)
    return X, binary, int(rng.integers(1, 5))


class TestCountSplitsMatchSortedScan:
    """The count-based score of each 0/1 column equals the sorted-column
    kernel's, bit for bit, with the left child the column's zeros."""

    def check(self, count_kernel, kernel, crit_of, seed):
        rng = np.random.default_rng(seed)
        outcomes = {True: 0, False: 0}  # valid split found / none
        for _ in range(400):
            X, binary, min_leaf = random_node(rng)
            crit = crit_of(rng, X.shape[0])
            B = X[:, binary]
            scores = count_kernel(B, crit, np.array([B.shape[0]]), min_leaf)
            assert scores.shape == (1, B.shape[1])
            scores = scores[0]
            for k in range(B.shape[1]):
                col = B[:, k]
                order = np.argsort(col, kind="stable")
                want = one_segment(kernel, col[order], crit[order], min_leaf)
                got_i = int(np.sum(col == 0.0)) if scores[k] != INF else -1
                assert (got_i, scores[k]) == want
                outcomes[want[0] > 0] += 1
        assert min(outcomes.values()) > 100

    def test_gini(self):
        self.check(count_split_gini, best_split_gini,
                   lambda rng, n: rng.integers(0, 2, n).astype(np.float64),
                   seed=3)

    def test_sse(self):
        def gradients(rng, n):
            return rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        self.check(count_split_sse, best_split_sse, gradients, seed=4)


class TestEdgeCases:
    def test_single_row(self):
        v = np.array([1.0])
        assert one_segment(best_split_gini, v, np.array([1.0]), 1) == (-1, INF)
        assert one_segment(best_split_sse, v, np.array([1.0]), 1) == (-1, INF)

    def test_all_values_equal(self):
        v = np.full(10, 2.0)
        y = np.array([0.0, 1.0] * 5)
        assert one_segment(best_split_gini, v, y, 1) == (-1, INF)
        assert one_segment(best_split_sse, v, y, 1) == (-1, INF)

    def test_min_leaf_blocks_everything(self):
        v = np.arange(6, dtype=np.float64)
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        assert one_segment(best_split_gini, v, y, 4) == (-1, INF)

    def test_perfect_split(self):
        v = np.arange(8, dtype=np.float64)
        y = np.array([0.0] * 4 + [1.0] * 4)
        i, imp = one_segment(best_split_gini, v, y, 1)
        assert i == 4
        assert imp == 0.0

    def test_first_minimum_wins_on_tie(self):
        # symmetric pattern: cut points 2 and 4 tie; the first is returned
        v = np.arange(6, dtype=np.float64)
        y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        i, _ = one_segment(best_split_gini, v, y, 1)
        j, _ = brute_gini(v, y, 1)
        assert i == j == 2


class TestSegments:
    """Many nodes in one call score as each node alone does, bit for bit."""

    def test_sorted_and_count_kernels(self):
        rng = np.random.default_rng(6)
        kinds = ((best_split_gini, count_split_gini, "labels"),
                 (best_split_sse, count_split_sse, "targets"))
        for kernel, count_kernel, target_kind in kinds:
            for _ in range(100):
                cases = [random_case(rng, target_kind)
                         for _ in range(int(rng.integers(1, 8)))]
                min_leaf = cases[0][2]
                sizes = np.array([values.size for values, _, _ in cases])
                values = np.concatenate([c[0] for c in cases])
                crit = np.concatenate([c[1] for c in cases])
                cut, score = kernel(values, crit, sizes, min_leaf)
                B = (rng.random((values.size, 3)) < 0.4).astype(np.float64)
                counts = count_kernel(B, crit, sizes, min_leaf)
                start = 0
                for i, size in enumerate(sizes):
                    part = slice(start, start + size)
                    assert (cut[i], score[i]) == one_segment(
                        kernel, values[part], crit[part], min_leaf)
                    assert np.array_equal(counts[i], count_kernel(
                        B[part], crit[part], np.array([size]), min_leaf)[0])
                    start += size
