"""Feature pipeline: k-1 dummy encoding with group metadata, and grouped
recursive feature elimination over the original (pre-encoding) features."""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import MatchDataset, label_of
from .errors import EmptyDataset, TargetTooLarge, TooFewRows, UnseenCategory
from .evaluation import cross_validate
from .models.base import make_spec
from .models.linear import fit_logistic
from .strength import TeamWeightLedger

CATEGORICAL_FEATURES = ["home_team", "away_team", "toss_winner", "toss_decision", "venue"]
NUMERIC_FEATURES = ["home_team_weight", "away_team_weight"]

# L2 strength of RFE's logistic fits on standardized columns. Weaker
# penalties let near-collinear dummy blocks (home_team vs venue) inflate
# each other's largest coefficient and push a team weight out of the top
# three on the benchmark leagues.
RFE_L2 = 1e-2


@dataclass(frozen=True)
class FeatureSchema:
    """Column layout: per categorical group the lexicographically first
    category is dropped; numeric columns follow the dummy blocks."""

    categorical_groups: tuple  # of (name, tuple of sorted categories)
    numeric_features: tuple = field(default=tuple(NUMERIC_FEATURES))

    @property
    def total_columns(self):
        return (sum(len(cats) - 1 for _, cats in self.categorical_groups)
                + len(self.numeric_features))

    def feature_names(self):
        return [name for name, _ in self.categorical_groups] + list(self.numeric_features)

    def group_slices(self):
        """Original feature name -> (start, stop) column range."""
        slices = {}
        start = 0
        for name, cats in self.categorical_groups:
            width = len(cats) - 1
            slices[name] = (start, start + width)
            start += width
        for name in self.numeric_features:
            slices[name] = (start, start + 1)
            start += 1
        return slices

    def binary_mask(self):
        mask = np.zeros(self.total_columns, dtype=bool)
        n_dummy = self.total_columns - len(self.numeric_features)
        mask[:n_dummy] = True
        return mask

    def to_dict(self):
        return {
            "categorical_groups": [
                {"name": name, "categories": list(cats)}
                for name, cats in self.categorical_groups
            ],
            "numeric_features": list(self.numeric_features),
        }

    @classmethod
    def from_dict(cls, doc):
        """Raises ValueError unless, as in every schema ``build_schema`` and
        ``subset`` make, the group names and the numeric names are ordered
        subsequences of ``CATEGORICAL_FEATURES`` and ``NUMERIC_FEATURES``
        and each group's categories are a non-empty, strictly ascending
        list of strings."""
        groups = tuple((g["name"], g["categories"]) for g in doc["categorical_groups"])
        numeric = doc["numeric_features"]
        for what, names, known in (
                ("categorical groups", [name for name, _ in groups], CATEGORICAL_FEATURES),
                ("numeric features", numeric, NUMERIC_FEATURES)):
            remaining = iter(known)
            if type(names) is not list or not all(name in remaining for name in names):
                raise ValueError(f"{what} {names!r} are not an ordered "
                                 f"subsequence of {known}")
        for name, cats in groups:
            if (type(cats) is not list or not cats
                    or any(type(c) is not str for c in cats)
                    or any(a >= b for a, b in zip(cats, cats[1:]))):
                raise ValueError(f"categories of {name!r} are not a non-empty, "
                                 "strictly ascending list of strings")
        return cls(categorical_groups=tuple((name, tuple(cats)) for name, cats in groups),
                   numeric_features=tuple(numeric))

    def fingerprint(self):
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class EncodedDataset:
    X: np.ndarray
    y: np.ndarray
    schema: FeatureSchema
    row_ids: tuple

    def subset(self, feature_names):
        """Restrict to the given original features, rebuilding the schema."""
        keep = set(feature_names)
        slices = self.schema.group_slices()
        new_schema = FeatureSchema(
            categorical_groups=tuple(
                (n, c) for n, c in self.schema.categorical_groups if n in keep),
            numeric_features=tuple(
                n for n in self.schema.numeric_features if n in keep))
        cols = []
        for name in new_schema.feature_names():
            start, stop = slices[name]
            cols.extend(range(start, stop))
        return EncodedDataset(X=self.X[:, cols], y=self.y,
                              schema=new_schema, row_ids=self.row_ids)


def build_schema(dataset: MatchDataset) -> FeatureSchema:
    """Schema over the categories observed in the dataset."""
    if not dataset.matches:
        raise EmptyDataset("cannot build a schema from an empty dataset")
    groups = tuple((name, tuple(sorted({getattr(m, name) for m in dataset.matches})))
                   for name in CATEGORICAL_FEATURES)
    return FeatureSchema(categorical_groups=groups)


def encode_values(schema: FeatureSchema, categorical: dict, numeric: dict) -> np.ndarray:
    """Encode one observation. Unseen categories map to the all-zero block
    (same as the dropped category) with a warning."""
    row = np.zeros(schema.total_columns)
    start = 0
    for name, cats in schema.categorical_groups:
        width = len(cats) - 1
        value = categorical[name]
        if value not in cats:
            warnings.warn(
                f"unseen {name} category {value!r}; encoding as the dropped category",
                UnseenCategory, stacklevel=2)
        elif value != cats[0]:
            row[start + cats.index(value) - 1] = 1.0
        start += width
    for name in schema.numeric_features:
        row[start] = numeric[name]
        start += 1
    return row


def decode_row(schema: FeatureSchema, row) -> dict:
    """Recover the categorical values of an encoded row."""
    values = {}
    start = 0
    for name, cats in schema.categorical_groups:
        width = len(cats) - 1
        block = row[start:start + width]
        hot = np.flatnonzero(block)
        values[name] = cats[0] if hot.size == 0 else cats[int(hot[0]) + 1]
        start += width
    return values


def encode(dataset: MatchDataset, ledger: TeamWeightLedger,
           schema: FeatureSchema) -> EncodedDataset:
    """One row per decisive match, in date order."""
    rows, labels, ids = [], [], []
    for m in dataset.matches:
        if not m.has_result:
            continue
        rows.append(encode_values(
            schema, {name: getattr(m, name) for name in CATEGORICAL_FEATURES},
            {"home_team_weight": ledger.weight_for(m.home_team, m),
             "away_team_weight": ledger.weight_for(m.away_team, m)}))
        labels.append(label_of(m))
        ids.append(m.match_id)
    X = np.array(rows, dtype=np.float64).reshape(len(rows), schema.total_columns)
    return EncodedDataset(X=X, y=np.array(labels, dtype=np.int64),
                          schema=schema, row_ids=tuple(ids))


@dataclass(frozen=True)
class RfeResult:
    ranking: tuple          # original feature names, best first
    selected: tuple         # prefix of ranking, length = target_count
    per_subset_scores: tuple  # of (subset size, CV accuracy), main run
    stability_runs: int
    stability_agreement: float
    resample_selected: tuple


def _standardize(X):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (X - mean) / std


def rank_features(encoded: EncodedDataset, target_count: int) -> list:
    """One full grouped elimination pass; returns the original features,
    best first. Raises unless ``encoded`` has at least 20 rows and
    ``target_count`` is between 1 and the number of features."""
    remaining = encoded.schema.feature_names()
    if encoded.X.shape[0] < 20:
        raise TooFewRows(f"need at least 20 rows, got {encoded.X.shape[0]}")
    if not 1 <= target_count <= len(remaining):
        raise TargetTooLarge(
            f"target_count {target_count} outside [1, {len(remaining)}]")
    eliminated = []
    while len(remaining) > 1:
        subset = encoded.subset(remaining)
        w, _ = fit_logistic(_standardize(subset.X), subset.y, lam=RFE_L2)
        slices = subset.schema.group_slices()
        importances = [float(np.max(np.abs(w[slice(*slices[f])])))
                       for f in remaining]
        victim = remaining[int(np.argmin(importances))]
        remaining.remove(victim)
        eliminated.append(victim)
    return remaining + list(reversed(eliminated))


def _prefix_scores(data, ranking, seed):
    """(size, 5-fold CV accuracy) of each prefix of ``ranking``, longest
    first, each prefix's columns standardized on their own."""
    spec = make_spec("logistic_regression", l2=RFE_L2)
    scores = []
    for size in range(len(ranking), 0, -1):
        subset = data.subset(ranking[:size])
        standardized = replace(subset, X=_standardize(subset.X))
        scores.append((size, cross_validate(spec, standardized, 5, seed).accuracy))
    return scores


def rfe_select(encoded: EncodedDataset, target_count: int, resamples: int = 5,
               seed: int = 0) -> RfeResult:
    """Grouped recursive feature elimination with a bootstrap stability check.

    A categorical feature is kept or dropped as a whole; its importance is
    the largest absolute coefficient over its dummy block in the converged
    logistic fit on standardized columns with L2 strength ``RFE_L2``, and
    each subset is scored by the 5-fold CV accuracy of the same fit.
    """
    ranking = rank_features(encoded, target_count)
    scores = _prefix_scores(encoded, ranking, seed)
    selected = tuple(ranking[:target_count])
    n = encoded.X.shape[0]
    resample_selected = []
    for r in range(resamples):
        sample = np.random.default_rng([seed, r]).integers(0, n, size=n)
        resampled = replace(encoded, X=encoded.X[sample], y=encoded.y[sample])
        resample_selected.append(tuple(rank_features(resampled, target_count)[:target_count]))
    agree = sum(set(picked) == set(selected) for picked in resample_selected)
    agreement = agree / resamples if resamples else 1.0
    return RfeResult(ranking=tuple(ranking), selected=selected,
                     per_subset_scores=tuple(scores), stability_runs=resamples,
                     stability_agreement=agreement,
                     resample_selected=tuple(resample_selected))
