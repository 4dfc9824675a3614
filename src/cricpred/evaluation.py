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


def _safe_div(num, den):
    return num / den if den else 0.0


def report_from_predictions(y_true, y_pred, per_fold=()) -> EvalReport:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    n = len(y_true)
    confusion = [[0, 0], [0, 0]]
    for actual, pred in zip(y_true, y_pred):
        confusion[actual][pred] += 1
    correct = confusion[0][0] + confusion[1][1]
    per_class = {}
    flags = []
    for cls in (0, 1):
        tp = confusion[cls][cls]
        support = confusion[cls][0] + confusion[cls][1]
        predicted = confusion[0][cls] + confusion[1][cls]
        if predicted == 0:
            flags.append(f"precision[{cls}] undefined (no predictions), reported 0")
        if support == 0:
            flags.append(f"recall[{cls}] undefined (no support), reported 0")
        precision = _safe_div(tp, predicted)
        recall = _safe_div(tp, support)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class[cls] = ClassMetrics(precision, recall, f1, support)
    weighted = ClassMetrics(
        precision=_safe_div(sum(per_class[c].precision * per_class[c].support
                                for c in (0, 1)), n),
        recall=_safe_div(sum(per_class[c].recall * per_class[c].support
                             for c in (0, 1)), n),
        f1=_safe_div(sum(per_class[c].f1 * per_class[c].support
                         for c in (0, 1)), n),
        support=n)
    return EvalReport(
        n_evaluated=n, correct=correct, accuracy=_safe_div(correct, n),
        per_class=per_class, weighted_avg=weighted,
        confusion=tuple(tuple(r) for r in confusion),
        per_fold=tuple(per_fold), zero_division_flags=tuple(flags))


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


def cross_validate(spec, data, k, seed) -> EvalReport:
    """Train on k-1 folds, test on the held-out fold, pool the confusion."""
    folds = stratified_folds(data.y, k, seed)
    n = len(data.y)
    y_true_all, y_pred_all, per_fold = [], [], []
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        train_data = replace(
            data, X=data.X[mask], y=data.y[mask],
            row_ids=tuple(itertools.compress(data.row_ids, mask)))
        model = train(spec, train_data)
        probs = model.predict_proba_matrix(data.X[fold])
        preds = (probs >= 0.5).astype(int)
        y_true_all.extend(data.y[fold].tolist())
        y_pred_all.extend(preds.tolist())
        per_fold.append(float(np.mean(preds == data.y[fold])))
    return report_from_predictions(y_true_all, y_pred_all, per_fold=per_fold)


def evaluate_holdout(model, holdout):
    """Per-match predictions on a holdout set.

    Returns ``(report, rows)`` where rows are
    ``(match_id, probability, predicted, actual)`` in dataset order.
    """
    if holdout.schema.fingerprint() != model.schema.fingerprint():
        raise SchemaMismatch("holdout schema does not match the trained model")
    probs = model.predict_proba_matrix(holdout.X)
    preds = (probs >= 0.5).astype(int)
    rows = [
        (mid, float(p), int(pred), int(actual))
        for mid, p, pred, actual in zip(holdout.row_ids, probs, preds, holdout.y)
    ]
    return report_from_predictions(holdout.y, preds), rows
