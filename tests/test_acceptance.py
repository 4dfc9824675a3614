"""Acceptance gate: nine independent checks covering the whole pipeline.

Each test prints a PASS line with the measured quantity so a plain
``pytest -v -s tests/test_acceptance.py`` run doubles as an audit trail.
"""

import json
import time

import numpy as np
import pytest

from cricpred.cli import main
from cricpred.evaluation import stratified_folds
from cricpred.features import build_schema, decode_row, encode_values, rfe_select
from cricpred.models import deserialize, make_spec, serialize, train
from cricpred.models.mlp import flatten, init_params, unflatten
from cricpred.models import mlp_loss_and_gradient
from cricpred.scoring import REFERENCE_POINTS_MODEL, fit_points_model
from cricpred.strength import PER_MATCH

from conftest import fixture_path, separable_dataset
from test_features import all_teams_dataset, planted_signal_dataset
from test_scoring import synthetic_players
from test_strength import reference_roster, two_team_dataset, two_team_players


def test_01_ols_coefficient_recovery():
    start = time.perf_counter()
    fitted = fit_points_model(synthetic_players(200))
    elapsed = time.perf_counter() - start
    expected = REFERENCE_POINTS_MODEL.coefficients()
    worst = float(np.max(np.abs(fitted.coefficients() - expected)))
    assert worst < 1e-6
    assert elapsed < 1.0
    print(f"\nPASS 1: OLS recovery, max coefficient error {worst:.2e} "
          f"in {elapsed:.3f}s")


def test_02_mlp_gradient_check():
    start = time.perf_counter()
    eps = 1e-5
    worst = 0.0
    for draw in range(10):
        rng = np.random.default_rng(draw)
        params = init_params(6, draw)
        X = rng.normal(size=(12, 6))
        y = rng.integers(0, 2, 12).astype(float)
        _, grads = mlp_loss_and_gradient(params, X, y, 1e-3)
        flat, gflat = flatten(params), flatten(grads)
        for i in rng.choice(flat.size, size=10, replace=False):
            up, down = flat.copy(), flat.copy()
            up[i] += eps
            down[i] -= eps
            lp, _ = mlp_loss_and_gradient(unflatten(up, params), X, y, 1e-3)
            lm, _ = mlp_loss_and_gradient(unflatten(down, params), X, y, 1e-3)
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - gflat[i])
                        / max(abs(fd), abs(gflat[i]), 1e-8))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"\nPASS 2: MLP gradient check, max relative error {worst:.2e} "
          f"over 10 draws in {elapsed:.2f}s")


def test_03_stratification_exactness():
    y = np.array([1] * 60 + [0] * 40)
    y = np.random.default_rng(0).permutation(y)
    for fold in stratified_folds(y, 10, seed=0):
        assert len(fold) == 10 and int(y[fold].sum()) == 6
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(4 * k, 300))
        ones = int(rng.integers(k, n - k + 1))
        yy = rng.permutation(np.array([1] * ones + [0] * (n - ones)))
        for fold in stratified_folds(yy, k, seed=int(rng.integers(1000))):
            for cls, total in ((1, ones), (0, n - ones)):
                share = total * len(fold) / n
                worst = max(worst, abs(int(np.sum(yy[fold] == cls)) - share))
    assert worst < 1.0 + 1e-9
    print(f"\nPASS 3: stratification exact for (100, 60, 10); sweep worst "
          f"deviation {worst:.3f} < 1")


def test_04_dummy_trap_guard():
    schema = build_schema(all_teams_dataset())
    for name, cats in schema.categorical_groups:
        start, stop = schema.group_slices()[name]
        assert stop - start == len(cats) - 1
    start, stop = schema.group_slices()["home_team"]
    assert stop - start == 12
    rng = np.random.default_rng(2)
    for _ in range(1000):
        values = {name: cats[rng.integers(0, len(cats))]
                  for name, cats in schema.categorical_groups}
        row = encode_values(schema, values, {"home_team_weight": 0.0,
                                             "away_team_weight": 0.0})
        assert decode_row(schema, row) == values
    print("\nPASS 4: k-1 columns per group (home_team = 12); 1000-row "
          "round trip, 0 mismatches")


def test_05_rfe_planted_signal():
    hits = 0
    for seed in range(20):
        data = planted_signal_dataset(seed=seed)
        result = rfe_select(data, target_count=2, resamples=0, seed=seed)
        hits += set(result.selected) == {"toss_decision", "home_team_weight"}
    assert hits >= 19
    stability = rfe_select(planted_signal_dataset(), target_count=2,
                           resamples=5, seed=0)
    assert stability.stability_agreement >= 0.8
    print(f"\nPASS 5: RFE recovered the planted pair in {hits}/20 runs; "
          f"bootstrap agreement {stability.stability_agreement:.0%}")


def test_06_classifier_sanity():
    start = time.perf_counter()
    data = separable_dataset(n=500)
    floors = {"logistic_regression": 0.95, "linear_svm": 0.95, "mlp": 0.95,
              "random_forest": 0.95, "gradient_boosting": 0.95,
              "naive_bayes": 0.90}
    observed = {}
    for kind, floor in floors.items():
        model = train(make_spec(kind), data)
        acc = float(np.mean(
            (model.predict_proba_matrix(data.X) >= 0.5) == data.y))
        observed[kind] = acc
        assert acc >= floor, f"{kind}: {acc:.3f} < {floor}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    listing = ", ".join(f"{k}={v:.3f}" for k, v in observed.items())
    print(f"\nPASS 6: training accuracy {listing} in {elapsed:.1f}s")


def test_07_team_weight_fixture_and_causality():
    from cricpred.dataset import MatchDataset
    from cricpred.strength import build_ledger, team_weight
    weight = team_weight(REFERENCE_POINTS_MODEL, reference_roster(), 10)
    assert weight == 101.75
    dataset = two_team_dataset([(2017, 10), (2018, 20)])
    players = two_team_players([2017, 2018])
    full = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                        mode=PER_MATCH)
    checked = 0
    for m in dataset.matches:
        truncated = MatchDataset(
            matches=tuple(x for x in dataset.matches if x.date <= m.date))
        part = build_ledger(REFERENCE_POINTS_MODEL, players, truncated,
                            mode=PER_MATCH)
        for team in (m.home_team, m.away_team):
            assert part.weight_for(team, m) == full.weight_for(team, m)
            checked += 1
    print(f"\nPASS 7: 25-player roster weight 101.75 exact; per-match "
          f"causality held for {checked} (team, date) cells")


def test_08_determinism(tmp_path, capsys):
    args = ["--matches", fixture_path("matches.csv"),
            "--players", fixture_path("players.csv"),
            "--kind", "all", "--seed", "0"]
    blobs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        assert main(["train", *args, "--out-dir", str(out)]) == 0
        blobs.append({p.name: p.read_bytes()
                      for p in sorted(out.glob("model_*.json"))})
    assert len(blobs[0]) == 6
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0]["model_mlp.json"])
    restored = deserialize(doc)
    schema = restored.model.schema
    rng = np.random.default_rng(3)
    rows = rng.normal(50, 40, size=(100, schema.total_columns))
    retrained = deserialize(json.loads(json.dumps(serialize(restored.model))))
    assert np.array_equal(restored.model.predict_proba_matrix(rows),
                          retrained.model.predict_proba_matrix(rows))
    print("\nPASS 8: six model documents byte-identical across runs; "
          "round-trip predictions identical on 100 random rows")


def test_09_end_to_end_informational(tmp_path, capsys):
    data = ["--matches", fixture_path("matches.csv"),
            "--players", fixture_path("players.csv")]
    assert main(["train", *data, "--kind", "mlp", "--holdout-season", "2017",
                 "--out-dir", str(tmp_path)]) == 0
    assert main(["report", *data,
                 "--model", str(tmp_path / "model_mlp.json"),
                 "--holdout-season", "2017",
                 "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "accuracy:" in captured.out
    assert (tmp_path / "holdout_report.csv").exists()
    assert (tmp_path / "holdout_predictions.csv").exists()
    accuracy = None
    for line in captured.out.splitlines():
        if "accuracy:" in line:
            accuracy = float(line.rsplit("accuracy:", 1)[1].strip())
            break
    print(f"\nPASS 9: train-through-2016 + 2017 holdout report emitted; "
          f"MLP holdout accuracy {accuracy:.4f} on the bundled synthetic "
          f"fixture (informational only; the 60-75% band applies to real "
          f"historical data, not this fixture)")
