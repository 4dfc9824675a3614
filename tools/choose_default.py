"""Compare candidate values of one hyperparameter by 10-fold CV on leagues.

    PYTHONPATH=src python tools/choose_default.py random_forest min_leaf 1 2 3 5 10 20 \\
        --leagues 1 2 3 4 5 6 7 8
    PYTHONPATH=src python tools/choose_default.py random_forest min_leaf 1 5 --leagues fixture

A league is a ``perfbench/league.py`` seed (the file is only read) or
``fixture``, encoded by ``features.training_matrix`` as ``cv --mode per_season`` does.
Each value trains the kind's spec at seed 0 with only that hyperparameter
set, and predicts each row from the model trained on the other folds of
``stratified_folds(y, K, SEED)`` (``evaluation.out_of_fold``, the loop
``cricpred cv`` runs). Printed: each league's and the mean
out-of-fold accuracy (``p >= 0.5`` predicts a home win) and Brier score.
Values are read as JSON: ``null``, ``true``, ``1e-2``.
"""

import argparse
import json
import runpy
import tempfile
from pathlib import Path

import numpy as np

from cricpred.dataset import load_matches, load_player_performances
from cricpred.evaluation import out_of_fold, report_from_predictions
from cricpred.features import training_matrix
from cricpred.models import make_spec
from cricpred.strength import PER_SEASON

ROOT = Path(__file__).resolve().parents[1]
K = 10
SEED = 0


def encoded(league):
    with tempfile.TemporaryDirectory() as tmp:
        where = ROOT / "src" / "cricpred" / "fixtures"
        if league != "fixture":
            where = Path(tmp)
            runpy.run_path(str(ROOT / "perfbench" / "league.py"))["write_league"](
                int(league), where)
        dataset = load_matches(where / "matches.csv")
        players = load_player_performances(where / "players.csv")
    return training_matrix(dataset, players, PER_SEASON)[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind")
    parser.add_argument("name", help="the hyperparameter")
    parser.add_argument("values", nargs="+", type=json.loads)
    parser.add_argument("--leagues", nargs="+", required=True)
    args = parser.parse_args()
    datasets = {league: encoded(league) for league in args.leagues}
    print(f"{args.name:>10}  {'league':>7}  {'accuracy':>8}  {'brier':>6}")
    for value in args.values:
        spec = make_spec(args.kind, seed=SEED, **{args.name: value})
        scores = []
        for league, data in datasets.items():
            p, _ = out_of_fold(spec, data, K, SEED)
            scores.append((report_from_predictions(data.y, p).accuracy,
                           float(np.mean((p - data.y) ** 2))))
            print(f"{json.dumps(value):>10}  {league:>7}  {scores[-1][0]:8.4f}  "
                  f"{scores[-1][1]:6.4f}", flush=True)
        accuracy, brier = np.mean(scores, axis=0)
        print(f"{json.dumps(value):>10}  {'mean':>7}  {accuracy:8.4f}  {brier:6.4f}")


if __name__ == "__main__":
    main()
