import numpy as np
import pytest

from cricpred.errors import BadK, SchemaMismatch, TooFewPerClass
from cricpred.evaluation import (
    cross_validate,
    evaluate_holdout,
    report_from_predictions,
    stratified_folds,
)
from cricpred.features import EncodedDataset
from cricpred.models import make_spec, train

from conftest import separable_dataset


def labels(n, ones):
    y = np.zeros(n, dtype=np.int64)
    y[:ones] = 1
    return np.random.default_rng(1).permutation(y)


class TestStratifiedFolds:
    def test_exact_when_divisible(self):
        y = labels(100, 60)
        folds = stratified_folds(y, 10, seed=0)
        for fold in folds:
            assert len(fold) == 10
            assert int(y[fold].sum()) == 6

    def test_partition_property_sweep(self):
        # 50 random (n, k, class balance) cases
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(4 * k, 200))
            ones = int(rng.integers(k, n - k + 1))
            y = labels(n, ones)
            folds = stratified_folds(y, k, seed=int(rng.integers(1000)))
            flat = np.concatenate(folds)
            assert len(flat) == n and len(np.unique(flat)) == n
            for cls, total in ((1, ones), (0, n - ones)):
                for fold in folds:
                    got = int(np.sum(y[fold] == cls))
                    share = total * len(fold) / n
                    assert abs(got - share) < 1.0 + 1e-9

    def test_tiny_forced_composition(self):
        y = np.array([1, 0, 1, 0])
        folds = stratified_folds(y, 2, seed=0)
        for fold in folds:
            assert len(fold) == 2
            assert int(y[fold].sum()) == 1

    def test_too_few_per_class(self):
        with pytest.raises(TooFewPerClass):
            stratified_folds(labels(20, 3), 5, seed=0)

    def test_bad_k(self):
        with pytest.raises(BadK):
            stratified_folds(labels(20, 10), 1, seed=0)

    def test_deterministic(self):
        y = labels(97, 41)
        a = stratified_folds(y, 5, seed=9)
        b = stratified_folds(y, 5, seed=9)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))


class TestCrossValidate:
    def sixty_forty(self):
        data = separable_dataset(n=200, seed=4)
        y = labels(200, 120)
        return EncodedDataset(X=data.X, y=y, schema=data.schema,
                              row_ids=data.row_ids)

    def test_constant_predictor_exact(self):
        spec = make_spec("random_forest", n_trees=1, max_depth=0,
                         bootstrap=False)
        report = cross_validate(spec, self.sixty_forty(), 5, seed=0)
        assert report.accuracy == 0.6
        assert all(acc == 0.6 for acc in report.per_fold)

    def test_separable_logistic(self):
        data = separable_dataset(n=300, seed=6)
        report = cross_validate(make_spec("logistic_regression"), data, 5,
                                seed=0)
        assert report.accuracy >= 0.95

    def test_pooled_confusion_totals(self):
        data = self.sixty_forty()
        report = cross_validate(make_spec("logistic_regression"), data, 4,
                                seed=1)
        assert sum(sum(row) for row in report.confusion) == len(data.y)
        assert report.n_evaluated == len(data.y)
        assert len(report.per_fold) == 4


class TestMetrics:
    def test_accuracy_is_confusion_trace(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            y_true = rng.integers(0, 2, n)
            y_pred = rng.integers(0, 2, n)
            report = report_from_predictions(y_true, y_pred)
            (tn, fp), (fn, tp) = report.confusion
            assert tn + fp + fn + tp == n
            assert report.accuracy == (tn + tp) / n
            assert report.correct == tn + tp

    def test_weighted_f1_between_class_f1(self):
        report = report_from_predictions([0, 0, 1, 1, 1], [0, 1, 1, 1, 0])
        f1s = [report.per_class[c].f1 for c in (0, 1)]
        assert min(f1s) <= report.weighted_avg.f1 <= max(f1s)

    def test_supports(self):
        report = report_from_predictions([0, 0, 0, 1], [1, 1, 1, 1])
        assert report.per_class[0].support == 3
        assert report.per_class[1].support == 1
        assert report.weighted_avg.support == 4

    def test_zero_division_flagged_not_raised(self):
        report = report_from_predictions([0, 0, 1], [1, 1, 1])
        assert report.per_class[0].precision == 0.0
        assert any("precision[0]" in f for f in report.zero_division_flags)

    def test_perfect_prediction(self):
        report = report_from_predictions([0, 1, 0, 1], [0, 1, 0, 1])
        assert report.accuracy == 1.0
        assert report.weighted_avg.f1 == 1.0
        assert not report.zero_division_flags


class TestHoldout:
    def test_rows_and_report(self):
        data = separable_dataset(n=160, seed=2)
        model = train(make_spec("logistic_regression"), data)
        holdout = separable_dataset(n=40, seed=11)
        report, rows = evaluate_holdout(model, holdout)
        assert len(rows) == 40
        assert [r[0] for r in rows] == list(holdout.row_ids)
        agreed = sum(r[2] == r[3] for r in rows)
        assert report.correct == agreed
        for _, prob, pred, _ in rows:
            assert pred == (1 if prob >= 0.5 else 0)

    def test_half_probability_predicts_class_one(self):
        from cricpred.models.base import TrainedClassifier
        data = separable_dataset(n=60, seed=0)
        model = TrainedClassifier(
            spec=make_spec("logistic_regression"),
            parameters={"weights": np.zeros(data.schema.total_columns),
                        "bias": 0.0},
            schema=data.schema, training_rows=0)
        _, rows = evaluate_holdout(model, data)
        assert {(prob, pred) for _, prob, pred, _ in rows} == {(0.5, 1)}

    def test_schema_mismatch(self):
        from conftest import match_like_schema
        data = separable_dataset(n=60, seed=0)
        model = train(make_spec("logistic_regression"), data)
        other = separable_dataset(n=10, seed=1)
        mismatched = EncodedDataset(
            X=other.X[:, :-1], y=other.y,
            schema=match_like_schema(n_teams=4, n_venues=2),
            row_ids=other.row_ids)
        with pytest.raises(SchemaMismatch):
            evaluate_holdout(model, mismatched)
