import numpy as np
import pytest

from cricpred.models.tree import (
    fit_classification_tree,
    fit_regression_tree,
    tree_predict_matrix,
)

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
        assert tree_predict_matrix(tree, X).tolist() == y.tolist()

    def test_sse(self, lo):
        X, y = adjacent_pair(lo)
        tree = fit_regression_tree(X, y, np.ones(4))
        assert lo < tree["threshold"] <= X[2, 0]
        leaves = [tree["left"]["value"]] * 2 + [tree["right"]["value"]] * 2
        assert leaves[0] != leaves[2]
        assert tree_predict_matrix(tree, X).tolist() == leaves
