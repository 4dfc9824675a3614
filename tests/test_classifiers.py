import math

import numpy as np
import pytest

from cricpred.errors import InvalidHyperparameter, NonConvergence, SingleClassData
from cricpred.features import RFE_L2, EncodedDataset, _standardize
from cricpred.models import (
    ClassifierSpec,
    deserialize,
    make_spec,
    mlp_loss_and_gradient,
    serialize,
    train,
)
from cricpred.models.linear import (
    GRADIENT_TOL,
    _fit_platt,
    fit_logistic,
    fit_squared_hinge,
    sigmoid,
)
from cricpred.models.mlp import HIDDEN_UNITS, flatten, init_params, unflatten

from conftest import (fixture_dataset, match_like_schema, planted_signal_dataset,
                      separable_dataset)

ALL_KINDS = ["naive_bayes", "gradient_boosting", "linear_svm",
             "logistic_regression", "random_forest", "mlp"]


class TestTrain:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_class_rejected(self, separable, kind):
        bad = EncodedDataset(X=separable.X, y=np.ones_like(separable.y),
                             schema=separable.schema, row_ids=separable.row_ids)
        with pytest.raises(SingleClassData):
            train(make_spec(kind), bad)

    def test_mlp_deterministic_serialization(self, separable):
        small = EncodedDataset(X=separable.X[:120], y=separable.y[:120],
                               schema=separable.schema,
                               row_ids=separable.row_ids[:120])
        spec = make_spec("mlp", seed=7, epochs=40)
        a = serialize(train(spec, small))
        b = serialize(train(spec, small))
        assert a == b

    def test_invalid_hyperparameters(self):
        with pytest.raises(InvalidHyperparameter):
            make_spec("mlp", epochs=0)
        with pytest.raises(InvalidHyperparameter):
            make_spec("random_forest", n_trees=0)
        with pytest.raises(InvalidHyperparameter):
            make_spec("logistic_regression", l2=-1.0)
        with pytest.raises(InvalidHyperparameter):
            make_spec("logistic_regression", bogus=1)
        with pytest.raises(InvalidHyperparameter):
            make_spec("linear_svm", epochs=200)
        with pytest.raises(InvalidHyperparameter):
            make_spec("not_a_kind")
        # a bool is not a count or a real, and a real is finite
        with pytest.raises(InvalidHyperparameter):
            make_spec("random_forest", n_trees=True)
        with pytest.raises(InvalidHyperparameter):
            make_spec("random_forest", max_depth=False)
        with pytest.raises(InvalidHyperparameter):
            make_spec("gradient_boosting", n_rounds=True)
        with pytest.raises(InvalidHyperparameter):
            make_spec("logistic_regression", l2=float("inf"))
        # not numbers at all: InvalidHyperparameter, not a TypeError
        with pytest.raises(InvalidHyperparameter):
            make_spec("mlp", epochs="x")
        with pytest.raises(InvalidHyperparameter):
            make_spec("logistic_regression", l2=None)

    @pytest.mark.parametrize("kind, name, value", [
        ("gradient_boosting", "shrinkage", 0.1), ("gradient_boosting", "max_depth", 3),
        ("linear_svm", "l2", 1e-4), ("mlp", "l2", 1e-4),
        ("mlp", "learning_rate", 0.001), ("mlp", "batch_size", 32),
        ("mlp", "patience", 20)])
    def test_constants_are_not_hyperparameters(self, kind, name, value):
        """Settings that are module constants are unknown names, even at
        the value the constant holds."""
        with pytest.raises(InvalidHyperparameter, match="unknown hyperparameter"):
            make_spec(kind, **{name: value})

    def test_spec_checked_when_made(self):
        """A spec is checked when it is made, not when it is trained."""
        with pytest.raises(InvalidHyperparameter, match="seed -1"):
            make_spec("mlp", seed=-1)
        with pytest.raises(InvalidHyperparameter, match="seed True"):
            make_spec("mlp", seed=True)
        with pytest.raises(InvalidHyperparameter, match="unknown classifier kind 'bogus'"):
            ClassifierSpec(kind="bogus")
        with pytest.raises(InvalidHyperparameter, match="mlp.epochs=0"):
            ClassifierSpec(kind="mlp", hyperparameters={"epochs": 0})

    def test_spec_hyperparameters_read_only(self):
        """The hyperparameters a spec checked when made are the ones it
        trains with: neither the spec's mapping nor the caller's dict can
        change them afterwards."""
        with pytest.raises(TypeError):
            make_spec("mlp").hyperparameters["epochs"] = 0
        chosen = {"epochs": 5}
        spec = ClassifierSpec(kind="mlp", hyperparameters=chosen)
        chosen["epochs"] = 0
        assert spec.hyperparameters == {"epochs": 5}
        assert spec.to_dict() == {"kind": "mlp", "hyperparameters": {"epochs": 5},
                                  "seed": 0}

    def test_schema_fingerprint_recorded(self, separable):
        model = train(make_spec("logistic_regression"), separable)
        assert serialize(model)["schema_fingerprint"] == separable.schema.fingerprint()
        assert model.training_rows == len(separable.y)


class TestPredictProba:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_probability_range(self, kind):
        data = separable_dataset(n=150, seed=3)
        model = train(make_spec(kind, seed=1), data)
        rng = np.random.default_rng(9)
        rows = rng.normal(0, 50, size=(40, data.schema.total_columns))
        probs = model.predict_proba_matrix(rows)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_mlp_zero_parameters_gives_half(self):
        from cricpred.models.base import TrainedClassifier
        schema = match_like_schema()
        layers = [[np.zeros_like(W), np.zeros_like(b)]
                  for W, b in init_params(schema.total_columns, 0)]
        model = TrainedClassifier(
            spec=make_spec("mlp"), parameters={"layers": layers},
            schema=schema, training_rows=0)
        row = np.random.default_rng(0).normal(size=schema.total_columns)
        assert model.predict_proba_matrix(row).tolist() == [0.5]

    def test_naive_bayes_repeated_pattern(self):
        schema = match_like_schema()
        d = schema.total_columns
        rng = np.random.default_rng(4)
        X_other = (rng.random((100, d)) < 0.5).astype(float)
        pattern = np.zeros(d)
        pattern[0] = 1.0
        X = np.vstack([np.tile(pattern, (100, 1)), X_other])
        y = np.array([1] * 100 + [0] * 100)
        data = EncodedDataset(X=X, y=y, schema=schema,
                              row_ids=tuple(map(str, range(200))))
        model = train(make_spec("naive_bayes"), data)
        assert model.predict_proba_matrix(pattern)[0] > 0.9

    def test_naive_bayes_without_numeric_columns(self):
        """Only dummy columns: the Gaussian part has zero width, and its
        log-likelihood term is 0.0 for every row."""
        data = fixture_dataset().subset(("home_team", "venue", "toss_decision"))
        assert not data.schema.numeric_features
        model = train(make_spec("naive_bayes"), data)
        # its document is pinned in pinned.py's "classifiers" family
        doc = serialize(model)
        assert np.array_equal(deserialize(doc).model.predict_proba_matrix(data.X),
                              model.predict_proba_matrix(data.X))

    def test_depth_zero_forest_predicts_base_rate(self):
        data = separable_dataset(n=200, seed=5)
        y = np.array([1] * 120 + [0] * 80)
        data = EncodedDataset(X=data.X, y=y, schema=data.schema,
                              row_ids=data.row_ids)
        spec = make_spec("random_forest", n_trees=1, max_depth=0,
                         bootstrap=False)
        model = train(spec, data)
        probs = model.predict_proba_matrix(data.X)
        assert np.all(probs == 0.6)


class TestMlpGradient:
    def test_zero_parameters_loss_is_ln2(self):
        params = [[np.zeros((5, 10)), np.zeros(10)],
                  [np.zeros((10, 10)), np.zeros(10)],
                  [np.zeros((10, 10)), np.zeros(10)],
                  [np.zeros((10, 1)), np.zeros(1)]]
        X = np.random.default_rng(0).normal(size=(16, 5))
        y = np.random.default_rng(1).integers(0, 2, 16).astype(float)
        loss, _ = mlp_loss_and_gradient(params, X, y, 0.0)
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_regularization_zero_at_zero_weights(self):
        params = [[np.zeros((4, 10)), np.zeros(10)],
                  [np.zeros((10, 10)), np.zeros(10)],
                  [np.zeros((10, 10)), np.zeros(10)],
                  [np.zeros((10, 1)), np.zeros(1)]]
        X = np.random.default_rng(2).normal(size=(8, 4))
        y = np.zeros(8)
        loss0, grads0 = mlp_loss_and_gradient(params, X, y, 0.0)
        loss1, grads1 = mlp_loss_and_gradient(params, X, y, 10.0)
        assert loss0 == loss1
        for g0, g1 in zip(grads0, grads1):
            assert np.array_equal(g0[0], g1[0])

    def test_finite_difference_over_draws(self):
        # central differences, eps 1e-5, >= 10 random parameter draws
        eps = 1e-5
        worst = 0.0
        for draw in range(10):
            rng = np.random.default_rng(draw)
            params = init_params(6, draw)
            X = rng.normal(size=(12, 6))
            y = rng.integers(0, 2, 12).astype(float)
            lam = 1e-3
            _, grads = mlp_loss_and_gradient(params, X, y, lam)
            flat = flatten(params)
            gflat = flatten(grads)
            for i in rng.choice(flat.size, size=10, replace=False):
                up = flat.copy()
                up[i] += eps
                down = flat.copy()
                down[i] -= eps
                lp, _ = mlp_loss_and_gradient(unflatten(up, params), X, y, lam)
                lm, _ = mlp_loss_and_gradient(unflatten(down, params), X, y, lam)
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd), abs(gflat[i]), 1e-8)
                worst = max(worst, abs(fd - gflat[i]) / denom)
        assert worst < 1e-4

    def test_architecture_matches_contract(self):
        params = init_params(20, 0)
        shapes = [W.shape for W, _ in params]
        assert shapes == [(20, 10), (10, 10), (10, 10), (10, 1)]
        assert HIDDEN_UNITS == (10, 10, 10)


class TestRegularization:
    def test_l2_shrinks_logistic_weights(self):
        data = separable_dataset(n=300, seed=8)
        norms = []
        for lam in (1e-6, 1e-3, 1e-1):
            model = train(make_spec("logistic_regression", l2=lam), data)
            norms.append(float(np.linalg.norm(model.parameters["weights"])))
        assert norms[0] >= norms[1] >= norms[2]

    def test_forest_size_stability(self):
        from cricpred.evaluation import cross_validate
        data = separable_dataset(n=300, seed=2)
        accs = {}
        for n_trees in (10, 200):
            spec = make_spec("random_forest", n_trees=n_trees)
            accs[n_trees] = cross_validate(spec, data, 5, seed=0).accuracy
        assert accs[200] >= accs[10] - 0.05


def logistic_gradient_norm(X, y, lam, w, b):
    """Norm of the gradient of the mean L2-regularized logistic loss."""
    residual = sigmoid(X @ w + b) - y
    grad = np.append(X.T @ residual / len(y) + lam * w, np.mean(residual))
    return float(np.linalg.norm(grad))


def squared_hinge_gradient_norm(X, y, lam, w, b):
    """Norm of the gradient of the mean L2-regularized squared hinge."""
    s = 2.0 * y - 1.0
    g = -2.0 * s * np.maximum(1.0 - s * (X @ w + b), 0.0)
    grad = np.append(X.T @ g / len(y) + lam * w, np.mean(g))
    return float(np.linalg.norm(grad))


def platt_gradient_norm(scores, y, A, B):
    """Norm of the gradient in (A, B) of Platt's mean cross entropy
    against the smoothed targets."""
    n_pos = float(y.sum())
    t = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (len(y) - n_pos + 2.0))
    d1 = t - sigmoid(-(A * scores + B))
    return float(np.hypot(d1 @ scores, d1.sum())) / len(y)


def assert_platt_converges(X, y, lam):
    """Platt scaling of the linear SVM's scores reaches GRADIENT_TOL."""
    w, b = fit_squared_hinge(X, y, lam=lam)
    scores = X @ w + b
    A, B = _fit_platt(scores, y)
    assert platt_gradient_norm(scores, y, A, B) <= GRADIENT_TOL


# each Newton fit with the gradient norm of the objective it minimizes
NEWTON_FITS = [(fit_logistic, logistic_gradient_norm),
               (fit_squared_hinge, squared_hinge_gradient_norm)]


def noisy_rows(n=300, seed=0):
    """Three normal columns and labels drawn from a logistic model, so the
    classes overlap and the unregularized fit has a unique optimum."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (rng.random(n) < sigmoid(X @ np.array([1.0, -0.5, 0.25]))).astype(float)
    return X, y


def badly_scaled_rows(seed):
    """Overlapping classes over columns whose scales span 1e-2 to 1e4, with
    offsets up to 1e4 and a third of the columns 0/1."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(30, 400)), int(rng.integers(1, 30))
    X = (rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 4, size=d)
         + rng.normal(size=d) * 10.0 ** rng.uniform(-1, 4, size=d))
    X[:, : d // 3] = rng.random((n, d // 3)) < 0.2
    beta = rng.normal(size=d) / np.maximum(X.std(axis=0), 1e-3)
    y = (rng.random(n) < sigmoid((X - X.mean(axis=0)) @ beta)).astype(float)
    return X, y


class TestNewtonSolvers:
    @pytest.mark.parametrize("dataset,standardize,lam", [
        (planted_signal_dataset, True, RFE_L2),
        (planted_signal_dataset, False, 1e-4),
        (separable_dataset, False, 1e-4),
        (separable_dataset, True, RFE_L2),
        (fixture_dataset, False, 1e-4)])
    def test_logistic_reaches_gradient_tolerance(self, dataset, standardize, lam):
        # and the linear SVM's squared hinge (NEWTON_FITS) and Platt scaling
        # of its scores
        data = dataset()
        X = _standardize(data.X) if standardize else data.X
        y = data.y.astype(float)
        for fit, gradient_norm in NEWTON_FITS:
            w, b = fit(X, y, lam=lam)
            assert gradient_norm(X, y, lam, w, b) <= GRADIENT_TOL
        assert_platt_converges(X, y, lam)

    @pytest.mark.parametrize("seed", range(10))
    def test_logistic_converges_on_badly_scaled_columns(self, seed):
        # near the optimum the gain of a step is below the rounding of the
        # loss; the line search must still take it
        X, y = badly_scaled_rows(seed)
        for fit, gradient_norm in NEWTON_FITS:
            for lam in (1e-2, 1e-4):
                w, b = fit(X, y, lam=lam)
                assert gradient_norm(X, y, lam, w, b) <= GRADIENT_TOL
        for lam in (1e-2, 1e-4):
            assert_platt_converges(X, y, lam)

    @pytest.mark.parametrize("fit", [fit for fit, _ in NEWTON_FITS],
                             ids=lambda fit: fit.__name__)
    def test_nan_row_raises(self, fit):
        X, y = noisy_rows()
        X[7, 1] = np.nan
        with pytest.raises(NonConvergence, match="gradient norm"), \
                np.errstate(invalid="ignore"):
            fit(X, y, lam=1e-4)

    def test_unregularized_overlapping_classes_converge(self):
        X, y = noisy_rows()
        w, b = fit_logistic(X, y, lam=0.0)
        assert logistic_gradient_norm(X, y, 0.0, w, b) <= GRADIENT_TOL

    def test_unregularized_separable_raises(self):
        with pytest.raises(NonConvergence, match="gradient norm"):
            train(make_spec("logistic_regression", l2=0.0), separable_dataset())

    @pytest.mark.parametrize("value", [0.0, 1.0, 3.0])
    def test_unregularized_constant_column_raises(self, value):
        X, y = noisy_rows()
        X = np.hstack([X, np.full((len(y), 1), value)])
        with pytest.raises(NonConvergence, match="gradient norm"):
            fit_logistic(X, y, lam=0.0)

    @pytest.mark.parametrize("name,value", [
        ("max_iter", 5), ("learning_rate", 0.1), ("tol", 1e-8)])
    def test_descent_hyperparameters_rejected(self, name, value):
        with pytest.raises(InvalidHyperparameter):
            make_spec("logistic_regression", **{name: value})

    def test_platt_separated_scores(self):
        scores = np.r_[np.linspace(-3.0, -1.0, 40), np.linspace(1.0, 3.0, 60)]
        y = np.r_[np.zeros(40), np.ones(60)]
        A, B = _fit_platt(scores, y)
        # stationary point of sum(t*z + log(1 + exp(-z))), z = A*s + B,
        # against the smoothed targets
        t = np.where(y == 1, 61.0 / 62.0, 1.0 / 42.0)
        d1 = t - sigmoid(-(A * scores + B))
        assert abs(float(d1 @ scores)) < 1e-9 and abs(float(d1.sum())) < 1e-9
        assert A < 0.0
        assert np.all(sigmoid(-(A * scores + B))[y == 1] > 0.5)

    def test_platt_non_finite_scores_raise(self):
        scores = np.array([0.5, np.nan, -0.5, 1.0])
        with pytest.raises(NonConvergence), np.errstate(invalid="ignore"):
            _fit_platt(scores, np.array([1.0, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("score", [0.0, 0.7])
    def test_platt_identical_scores_raise(self, score):
        # A has no unique optimum: the scores are a constant column
        with pytest.raises(NonConvergence, match="Platt scaling.*gradient norm"):
            _fit_platt(np.full(6, score), np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0]))
