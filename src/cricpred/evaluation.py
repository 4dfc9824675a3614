"""Stratified cross-validation, holdout evaluation and classification metrics."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadK, SchemaMismatch, TooFewPerClass
from .models.base import train


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    n_evaluated: int
    correct: int
    accuracy: float
    per_class: dict            # class label -> ClassMetrics
    weighted_avg: ClassMetrics
    confusion: tuple           # ((tn, fp), (fn, tp)) rows = actual, cols = predicted
    per_fold: tuple = field(default=())
    zero_division_flags: tuple = field(default=())


def report_from_predictions(y_true, p, fold=None) -> EvalReport:
    """Metrics of predicting class 1 wherever ``p >= 0.5``, so a probability
    of exactly 0.5 predicts class 1; 0/1 labels are probabilities too. With
    ``fold``, each row's fold number, the report also holds each fold's
    accuracy in fold order. A ratio over zero is reported as 0 and flagged."""
    y = np.asarray(y_true, dtype=np.int64)
    pred = (np.asarray(p) >= 0.5).astype(np.int64)
    n = len(y)
    confusion = np.bincount(2 * y + pred, minlength=4).reshape(2, 2)
    tp = confusion.diagonal()
    support, predicted = confusion.sum(axis=1), confusion.sum(axis=0)
    flags = [f"{name}[{cls}] undefined ({why}), reported 0"
             for cls in (0, 1)
             for name, why, den in (("precision", "no predictions", predicted),
                                    ("recall", "no support", support))
             if den[cls] == 0]
    with np.errstate(invalid="ignore"):  # 0/0 is nan, reported as 0
        precision = np.nan_to_num(tp / predicted)
        recall = np.nan_to_num(tp / support)
        f1 = np.nan_to_num(2 * precision * recall / (precision + recall))
        # summed in class order: a dot product may round differently
        weighted = np.nan_to_num([(m * support).sum() / n
                                  for m in (precision, recall, f1)])
        accuracy = float(np.nan_to_num(tp.sum() / n))
    per_fold = () if fold is None else tuple(
        (np.bincount(fold, weights=pred == y) / np.bincount(fold)).tolist())
    return EvalReport(
        n_evaluated=n, correct=int(tp.sum()), accuracy=accuracy,
        per_class={cls: ClassMetrics(float(precision[cls]), float(recall[cls]),
                                     float(f1[cls]), int(support[cls]))
                   for cls in (0, 1)},
        weighted_avg=ClassMetrics(*weighted.tolist(), support=n),
        confusion=tuple(map(tuple, confusion.tolist())),
        per_fold=per_fold, zero_division_flags=tuple(flags))


def stratified_folds(labels, k, seed):
    """k disjoint index arrays preserving class proportions.

    Per-class members are shuffled by a seeded generator and dealt into
    folds whose class counts differ from the exact proportional share by
    less than one.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise BadK(f"fold count must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if len(members) < k:
            raise TooFewPerClass(
                f"class {cls} has {len(members)} members, fewer than k={k}")
        members = members[rng.permutation(len(members))]
        splits = np.array_split(members, k)
        for fold, chunk in zip(folds, splits):
            fold.extend(chunk.tolist())
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def fit_predict(spec, data, rows):
    """Train ``spec`` on the rows of ``data`` where the boolean mask ``rows``
    is set; returns the class-1 probabilities of the other rows, in order."""
    model = train(spec, replace(
        data, X=data.X[rows], y=data.y[rows],
        row_ids=tuple(itertools.compress(data.row_ids, rows))))
    return model.predict_proba_matrix(data.X[~rows])


def out_of_fold(spec, data, k, seed):
    """``(p, fold)``: each row's class-1 probability from the model trained
    on the other stratified folds, and the row's fold number."""
    fold = np.empty(len(data.y), dtype=np.int64)
    for i, members in enumerate(stratified_folds(data.y, k, seed)):
        fold[members] = i
    p = np.empty(len(data.y))
    for i in range(k):
        held_out = fold == i
        p[held_out] = fit_predict(spec, data, ~held_out)
    return p, fold


def cross_validate(spec, data, k, seed) -> EvalReport:
    """Predict each stratified fold from a model trained on the others, and
    report the pooled predictions with each fold's accuracy."""
    return report_from_predictions(data.y, *out_of_fold(spec, data, k, seed))


def evaluate_holdout(model, holdout):
    """Per-match predictions on a holdout set.

    Returns ``(report, rows)`` where rows are
    ``(match_id, probability, predicted, actual)`` in dataset order. Each
    match is predicted on its own, as ``predict`` computes it: a matrix
    product over many rows may round the last bit differently.
    """
    if holdout.schema.fingerprint() != model.schema.fingerprint():
        raise SchemaMismatch("holdout schema does not match the trained model")
    probs = np.array([model.predict_proba_matrix(row)[0] for row in holdout.X])
    rows = [(mid, float(p), int(p >= 0.5), int(actual))
            for mid, p, actual in zip(holdout.row_ids, probs, holdout.y)]
    return report_from_predictions(holdout.y, probs), rows
