"""Player points regression: fit the six-statistic linear model and apply it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import STAT_FIELDS, PlayerPerformance
from .errors import InsufficientData, RankDeficient

COEFFICIENT_KEYS = [
    "intercept", "per_wicket", "per_dot_ball", "per_four",
    "per_six", "per_catch", "per_stumping",
]


@dataclass(frozen=True)
class PointsModel:
    intercept: float
    per_wicket: float
    per_dot_ball: float
    per_four: float
    per_six: float
    per_catch: float
    per_stumping: float

    def __post_init__(self):
        for key in COEFFICIENT_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"non-finite coefficient {key}")

    def coefficients(self) -> np.ndarray:
        return np.array([getattr(self, k) for k in COEFFICIENT_KEYS], dtype=np.float64)

    def to_dict(self):
        return {k: float(getattr(self, k)) for k in COEFFICIENT_KEYS}


#: Coefficients recovered from the league's published player-points page.
REFERENCE_POINTS_MODEL = PointsModel(
    intercept=0.0, per_wicket=3.5, per_dot_ball=1.0, per_four=2.5,
    per_six=3.5, per_catch=2.5, per_stumping=2.5)


def _design_matrix(performances):
    X = np.empty((len(performances), 7), dtype=np.float64)
    X[:, 0] = 1.0
    X[:, 1:] = [perf.stats() for perf in performances]
    return X


def fit_points_model(performances) -> PointsModel:
    """Ordinary least squares of official points on the six statistics.

    One SVD-based least-squares solve (``np.linalg.lstsq``) of the design
    matrix itself, so the fit never squares its condition number as the
    normal equations would. A design matrix whose numerical rank is below 7
    (singular values under eps * max(rows, 7) * the largest one count as
    zero) is ``RankDeficient``.
    """
    usable = [p for p in performances if p.official_points is not None]
    if len(usable) < 7:
        raise InsufficientData(
            f"need at least 7 rows with official_points, got {len(usable)}")
    X = _design_matrix(usable)
    y = np.array([p.official_points for p in usable], dtype=np.float64)
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < 7:
        raise RankDeficient(_describe_dependent_column(X))
    return PointsModel(*(float(b) for b in beta))


def _describe_dependent_column(X):
    names = ["intercept"] + STAT_FIELDS
    for j in range(1, X.shape[1]):
        if np.linalg.matrix_rank(X[:, : j + 1]) <= np.linalg.matrix_rank(X[:, :j]):
            return (f"regressor matrix is rank deficient: column "
                    f"{names[j]!r} is linearly dependent on earlier columns")
    return "regressor matrix is rank deficient"


def score_player(model: PointsModel, perf: PlayerPerformance) -> float:
    """Points of one player under the linear scoring model."""
    return (model.intercept
            + model.per_wicket * perf.wickets
            + model.per_dot_ball * perf.dot_balls
            + model.per_four * perf.fours
            + model.per_six * perf.sixes
            + model.per_catch * perf.catches
            + model.per_stumping * perf.stumpings)

