"""The MLP's stopping rule: a seeded validation split, the parameters of
the lowest validation loss, a stop before the cap on noisy data, and one
warning, never an error, at the cap. That one seed gives one document is
``test_classifiers``' ``test_mlp_deterministic_serialization``."""

import warnings

import numpy as np
import pytest

from cricpred.dataset import load_matches
from cricpred.errors import CricpredWarning, EpochCap, NonConvergence
from cricpred.features import EncodedDataset
from cricpred.models import make_spec, mlp, train
from cricpred.models.linear import sigmoid

from conftest import fixture_path, match_like_schema


def noisy_matches(n=480, seed=0):
    """Match-shaped rows at the benchmark league's scale: random dummies,
    team weights near 100, and labels drawn from a logistic model of the
    weight gap, so the classes overlap as they do in a league."""
    rng = np.random.default_rng(seed)
    schema = match_like_schema()
    slices = schema.group_slices()
    X = np.zeros((n, schema.total_columns))
    for name, _ in schema.categorical_groups:
        start, stop = slices[name]
        X[:, start:stop] = rng.random((n, stop - start)) < 0.25
    home = slices["home_team_weight"][0]
    away = slices["away_team_weight"][0]
    X[:, home] = rng.normal(100.0, 15.0, n)
    X[:, away] = rng.normal(100.0, 15.0, n)
    y = (rng.random(n) < sigmoid(0.08 * (X[:, home] - X[:, away]))).astype(np.int64)
    return EncodedDataset(X=X, y=y, schema=schema,
                          row_ids=tuple(f"m{i}" for i in range(n)))


@pytest.fixture()
def validation_losses(monkeypatch):
    """The validation loss of every epoch of the fits that follow, the
    initial parameters' first."""
    losses = []

    def recorded(logits, y):
        losses.append(cross_entropy(logits, y))
        return losses[-1]
    cross_entropy = mlp._cross_entropy
    monkeypatch.setattr(mlp, "_cross_entropy", recorded)
    return losses


def test_kept_parameters_have_the_lowest_validation_loss(validation_losses):
    data = noisy_matches()
    params = mlp.train_mlp(data.X, data.y, {"epochs": 300}, seed=3)
    held = mlp.validation_rows(len(data.y), seed=3)
    run = list(validation_losses)  # before the check below records its own
    kept = mlp._cross_entropy(mlp._forward(params["layers"], data.X[held])[1],
                              data.y[held].reshape(-1, 1).astype(float))
    assert kept == pytest.approx(min(run), rel=1e-12)
    assert 0 < int(np.argmin(run)) < len(run) - 1


def test_noisy_data_stops_before_the_cap(validation_losses):
    data = noisy_matches()
    with warnings.catch_warnings():
        warnings.simplefilter("error", EpochCap)
        train(make_spec("mlp", seed=0), data)
    assert len(validation_losses) - 1 < 300
    # the epochs since the last gain of MIN_GAIN reach PATIENCE at the end
    best, stale, run = validation_losses[0], 0, []
    for loss in validation_losses[1:]:
        stale = stale + 1 if loss > best - mlp.MIN_GAIN else 0
        best = min(best, loss)
        run.append(stale)
    assert run[-1] == mlp.PATIENCE and max(run[:-1]) < mlp.PATIENCE


def test_reaching_the_cap_warns_once(validation_losses):
    data = noisy_matches(n=200)
    with pytest.warns(CricpredWarning) as record:
        model = train(make_spec("mlp", seed=0, epochs=5), data)
    assert [w.category for w in record] == [EpochCap]
    assert str(record[0].message).startswith("mlp reached its 5-epoch cap")
    assert len(validation_losses) == 6
    probabilities = model.predict_proba_matrix(data.X)
    assert np.all(np.isfinite(probabilities))


def test_non_finite_validation_loss_raises():
    data = noisy_matches(n=200)
    X = data.X.copy()
    X[mlp.validation_rows(len(data.y), seed=0), 0] = np.inf
    with pytest.raises(NonConvergence, match="validation loss diverged"), \
            np.errstate(invalid="ignore", over="ignore"):
        mlp.train_mlp(X, data.y, {"epochs": 300}, seed=0)


@pytest.mark.parametrize("n, size", [(12, 6), (101, 11), (490, 49)])
def test_validation_size(n, size):
    """A tenth of the rows, rounded up; at least MIN_VALIDATION_ROWS, and
    at most half the rows."""
    held = mlp.validation_rows(n, seed=0)
    assert held.sum() == size
    assert np.array_equal(held, mlp.validation_rows(n, seed=0))
    assert not np.array_equal(held, mlp.validation_rows(n, seed=1))


def test_fixture_smallest_training_set_holds_out_the_minimum():
    """``train --holdout-season 2017`` trains on the fixture's 2016
    matches alone, the smallest set the command line trains on."""
    n = len(load_matches(fixture_path("matches.csv")).restrict({2016}).decisive())
    assert n == 28
    assert mlp.validation_rows(n, seed=0).sum() == mlp.MIN_VALIDATION_ROWS
