import csv
import json
import warnings
from pathlib import Path

import pytest

from cricpred.cli import _one_line_warnings, main
from cricpred.dataset import load_matches, load_player_performances
from cricpred.errors import EpochCap, UnseenCategory
from cricpred.features import (CATEGORICAL_FEATURES, encode_values, rank_features,
                               training_matrix)
from cricpred.models import FORMAT_VERSION, KINDS, load_document, mlp
from cricpred.scoring import fit_points_model
from cricpred.strength import PER_MATCH, PER_SEASON

from conftest import fixture_path, official_players
from pinned import digest_test
from test_cli_faults import fault


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def data_args():
    return ["--matches", fixture_path("matches.csv"),
            "--players", fixture_path("players.csv")]


class TestIngest:
    def test_fixture_summary(self, capsys, data_args):
        code, out, _ = run(capsys, "ingest", *data_args)
        assert code == 0
        assert out.splitlines() == ["66 matches loaded, 2 excluded (no result)",
                                    "200 player-season rows loaded",
                                    "6 venues, seasons [2016, 2017]"]

    def test_malformed_header_exit_2(self, capsys, tmp_path, trained):
        fault(capsys, tmp_path, trained, "ingest-malformed-header")


class TestTrain:
    def test_kind_all_writes_six_documents(self, trained):
        out = Path(trained()).parent
        written = sorted(p.name for p in out.glob("model_*.json"))
        assert written == [
            "model_gradient_boosting.json", "model_linear_svm.json",
            "model_logistic_regression.json", "model_mlp.json",
            "model_naive_bayes.json", "model_random_forest.json"]
        for path in out.glob("model_*.json"):
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert doc["format_version"] == FORMAT_VERSION
            assert doc["team_weights"] is not None

    def test_holdout_covers_all_seasons_exit_3(self, capsys, tmp_path, trained):
        fault(capsys, tmp_path, trained, "train-holdout-covers-every-season")

    def test_config_file_supplies_paths(self, capsys, tmp_path, data_args):
        """Blank lines and ``#`` lines are skipped: a file with them writes
        the document that the file without them writes."""
        documents = []
        for i, skipped in enumerate(["", "\n# kind = mlp\n   \n"]):
            cfg = tmp_path / f"run{i}.cfg"
            cfg.write_text(f"matches = {data_args[1]}\n{skipped}players = {data_args[3]}\n"
                           f"kind = naive_bayes\nout_dir = {tmp_path / str(i)}\n",
                           encoding="utf-8")
            assert run(capsys, "train", "--config", str(cfg))[0] == 0
            documents.append((tmp_path / f"{i}/model_naive_bayes.json").read_bytes())
        assert documents[0] == documents[1]

    def test_unknown_config_key_exit_2(self, capsys, tmp_path, trained):
        fault(capsys, tmp_path, trained, "train-config-unknown-key")

    @pytest.mark.parametrize("rows, stumpings, origin", [
        (None, None, "fitted"),
        (None, "0", "reference (fit was rank deficient)"),
        (6, None, "reference"),
    ])
    def test_points_model_origin(self, capsys, tmp_path, data_args, rows,
                                 stumpings, origin):
        code, out, _ = run(capsys, "train", "--matches", data_args[1], "--players",
                           official_players(tmp_path, rows, stumpings),
                           "--kind", "naive_bayes", "--out-dir", str(tmp_path))
        assert code == 0
        assert f"points model: {origin})" in out

    def test_target_count_trains_each_kind_on_the_ranked_features(
            self, capsys, tmp_path, data_args):
        """The benchmark's training command: RFE's ranking of the training
        matrix picks the columns of every document."""
        code, out, _ = run(capsys, "train", *data_args, "--kind", "all", "--mode",
                           PER_MATCH, "--target-count", "3", "--holdout-season",
                           "2017", "--out-dir", str(tmp_path))
        assert code == 0
        encoded = training_matrix(load_matches(data_args[1]),
                                  load_player_performances(data_args[3]), PER_MATCH, 2017)[0]
        selected = rank_features(encoded, 3)[:3]
        assert out.splitlines()[0] == f"RFE selected: {', '.join(selected)}"
        for kind in KINDS:
            path = tmp_path / f"model_{kind}.json"
            assert load_document(path).model.schema == encoded.subset(selected).schema

    def test_holdout_season_is_not_in_the_points_fit(self, capsys, tmp_path,
                                                     data_args):
        """With ``--holdout-season``, the points model is fitted on the
        player rows of the earlier seasons only."""
        path = official_players(tmp_path)
        code, _, _ = run(capsys, "train", "--matches", data_args[1], "--players", path,
                         "--kind", "naive_bayes", "--holdout-season", "2017",
                         "--out-dir", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "model_naive_bayes.json").read_text(encoding="utf-8"))
        players = load_player_performances(path)
        earlier = fit_points_model([p for p in players if p.season < 2017])
        assert doc["points_model"] == earlier.to_dict()
        assert earlier != fit_points_model(players)


def test_fit_points_prints_and_writes_the_fit(capsys, tmp_path, data_args):
    path = official_players(tmp_path)
    code, out, _ = run(capsys, "fit-points", *data_args[:2], "--players", path,
                       "--out-dir", str(tmp_path))
    assert code == 0
    fitted = fit_points_model(load_player_performances(path)).to_dict()
    assert out.splitlines()[:7] == [f"{key} = {value:.10g}"
                                    for key, value in fitted.items()]
    assert json.loads((tmp_path / "points_model.json").read_text(encoding="utf-8")) == {
        "format_version": 4, "points_model": fitted}


class TestPredict:
    def test_fixture_weights_in_output(self, capsys, tmp_path, data_args):
        """A document trained on every season serves each team's 2017
        weight, from the reference points model."""
        assert run(capsys, "train", *data_args, "--kind", "logistic_regression",
                   "--out-dir", str(tmp_path))[0] == 0
        code, out, _ = run(capsys, "predict",
                           "--model", str(tmp_path / "model_logistic_regression.json"),
                           "--home", "CSK", "--away", "RR",
                           "--venue", "Dr DY Patil Sports Academy",
                           "--toss-winner", "CSK", "--toss-decision", "bat")
        assert code == 0
        assert "w1=101.75 (home CSK)" in out
        assert "w2=123.65625 (away RR)" in out
        assert "predicted winner:" in out

    def test_bad_toss_winner_exit_4(self, capsys, tmp_path, trained):
        fault(capsys, tmp_path, trained, "predict-toss-winner-not-playing")

    def test_team_without_ledger_entry_exit_4(self, capsys, tmp_path, trained):
        fault(capsys, tmp_path, trained, "predict-team-absent-from-ledger")

    def test_corrupt_model_exit_3(self, capsys, tmp_path, trained):
        fault(capsys, tmp_path, trained, "predict-truncated-document")

    def test_unseen_venue_warns_but_predicts(self, capsys, trained):
        """One ``warning:`` line, even where every warning is an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "predict", "--model", trained(),
                                 "--home", "CSK", "--away", "RR",
                                 "--venue", "Brand New Stadium",
                                 "--toss-winner", "RR",
                                 "--toss-decision", "field")
        assert code == 0
        assert "predicted winner:" in out
        assert err == ("warning: unseen venue category 'Brand New Stadium'; "
                       "encoding as the dropped category\n")

    def test_no_state_between_calls(self, capsys, tmp_path, trained):
        """One process, one parser: a ``--model`` read from ``--config``
        does not stay for the next call, and a usage error does not stop
        the call after it."""
        toss = ["--home", "CSK", "--away", "RR", "--toss-winner", "CSK",
                "--venue", "Dr DY Patil Sports Academy", "--toss-decision", "bat"]
        cfg = tmp_path / "predict.cfg"
        cfg.write_text(f"model = {trained()}\n", encoding="utf-8")
        code, out, _ = run(capsys, "predict", "--config", str(cfg), *toss)
        assert code == 0 and out.startswith("predicted winner:")
        code, out, err = run(capsys, "predict", *toss)
        assert code == 2 and out == ""
        assert err.startswith("usage: ")
        assert "the following arguments are required: --model" in err
        code, out, _ = run(capsys, "predict", "--model", trained(), *toss)
        assert code == 0 and out.startswith("predicted winner:")


def test_unseen_category_shown_once_per_message(capsys):
    """Each distinct package warning (an unseen category, the MLP's epoch
    cap) is one ``warning:`` line; any other warning, a plain
    ``UserWarning`` included, goes to the handler it replaced."""
    others = []
    show = _one_line_warnings(lambda message, category, *where: others.append(category))
    for value in ("A", "A", "B"):
        show(UnseenCategory(f"unseen venue category {value!r}"), UnseenCategory,
             "features.py", 1)
    for epoch in (4, 4):
        show(EpochCap(f"mlp reached its 5-epoch cap, best epoch {epoch}"), EpochCap,
             "mlp.py", 1)
    show(DeprecationWarning("old"), DeprecationWarning, "features.py", 1)
    show(UserWarning("not ours"), UserWarning, "elsewhere.py", 1)
    assert capsys.readouterr().err == (
        "warning: unseen venue category 'A'\n"
        "warning: unseen venue category 'B'\n"
        "warning: mlp reached its 5-epoch cap, best epoch 4\n")
    assert others == [DeprecationWarning, UserWarning]


def test_epoch_cap_is_a_warning_line_not_an_error(capsys, monkeypatch, tmp_path,
                                                  data_args):
    """A cv whose every MLP fit reaches the cap exits 0 with one
    ``warning:`` line per fold, even where warnings are errors."""
    monkeypatch.setattr(mlp, "PATIENCE", 301)  # more epochs than the cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "cv", *data_args, "--kind", "mlp", "--k", "5",
                           "--out-dir", str(tmp_path))
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 6 and lines[-1].startswith("wrote ")
    assert all(line.startswith("warning: mlp reached its 300-epoch cap")
               for line in lines[:5])


@pytest.mark.parametrize("holdout", [None, 2017])
@pytest.mark.parametrize("mode", [PER_SEASON, PER_MATCH])
def test_document_serves_each_teams_last_row(capsys, tmp_path, data_args,
                                             mode, holdout):
    """A document keeps one row per team, the team's last row of the
    training ledger; ``predict`` serves that weight, and a document that
    holds the whole ledger, as older ones do, predicts the same."""
    held = [] if holdout is None else ["--holdout-season", str(holdout)]
    code, _, _ = run(capsys, "train", *data_args, "--kind", "logistic_regression",
                     "--mode", mode, *held, "--out-dir", str(tmp_path))
    assert code == 0
    path = tmp_path / "model_logistic_regression.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    dataset = load_matches(data_args[1])
    encoded, _, ledger, _ = training_matrix(
        dataset, load_player_performances(data_args[3]), mode, holdout)
    last = {team: weight for team, _, _, weight in ledger.rows()}
    assert doc["team_weights"] == ledger.latest().to_dict()
    assert sorted(e["team"] for e in doc["team_weights"]["entries"]) == sorted(last)
    old = tmp_path / "whole_ledger.json"
    old.write_text(json.dumps({**doc, "team_weights": ledger.to_dict()}),
                   encoding="utf-8")
    covered, trained_on = set(), set(encoded.row_ids)
    for m in dataset.matches:  # every team, on inputs the document trained on
        if m.match_id not in trained_on or {m.home_team, m.away_team} <= covered:
            continue
        covered |= {m.home_team, m.away_team}
        toss = ["--home", m.home_team, "--away", m.away_team, "--venue", m.venue,
                "--toss-winner", m.toss_winner, "--toss-decision", m.toss_decision]
        code, out, err = run(capsys, "predict", "--model", str(path), *toss)
        assert (code, err) == (0, "")
        assert out.splitlines()[2] == (
            f"team weights: w1={last[m.home_team]!r} (home {m.home_team}), "
            f"w2={last[m.away_team]!r} (away {m.away_team})")
        assert run(capsys, "predict", "--model", str(old), *toss) == (0, out, "")
    assert covered == set(last)


class TestTeamWeights:
    def test_csv_sorted_and_fixture_values(self, capsys, tmp_path, data_args):
        code, out, _ = run(capsys, "team-weights", *data_args,
                           "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "team_weights.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        keys = [(r["season"], r["team"]) for r in rows]
        assert keys == sorted(keys)
        values = {(r["team"], r["season"]): float(r["weight"]) for r in rows}
        assert values[("CSK", "2017")] == 101.75
        assert values[("RR", "2017")] == 123.65625


class TestCvAndReport:
    def test_cv_writes_report(self, capsys, tmp_path, data_args):
        code, out, _ = run(capsys, "cv", *data_args, "--kind", "naive_bayes",
                           "--k", "4", "--out-dir", str(tmp_path))
        assert code == 0
        assert "4-fold stratified CV" in out
        assert (tmp_path / "cv_report_naive_bayes.csv").exists()

    def test_report_emits_files(self, capsys, tmp_path, data_args, trained):
        code, out, _ = run(capsys, "report", *data_args, "--model", trained("mlp"),
                           "--holdout-season", "2017",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "holdout season 2017" in out
        with open(tmp_path / "holdout_report.csv", newline="", encoding="utf-8") as fh:
            metrics = dict((r["metric"], r["value"])
                           for r in csv.DictReader(fh))
        assert 0.0 <= float(metrics["accuracy"]) <= 1.0
        with open(tmp_path / "holdout_predictions.csv", newline="", encoding="utf-8") as fh:
            preds = list(csv.DictReader(fh))
        assert len(preds) == int(metrics["n_evaluated"])
        assert set(preds[0]) == {"match_id", "probability", "predicted",
                                 "actual"}

    @pytest.mark.parametrize("mode", [PER_SEASON, PER_MATCH])
    @pytest.mark.parametrize("kind", KINDS)
    def test_report_scores_what_predict_serves(self, capsys, tmp_path, trained,
                                               kind, mode):
        """Each holdout probability is exactly predict's for that match:
        the team's last training-season weight, its encode_values row and
        predict_proba_matrix of that one row."""
        model = trained(kind, mode)
        code, _, _ = run(capsys, "report", "--matches", fixture_path("matches.csv"),
                         "--model", model, "--holdout-season", "2017",
                         "--out-dir", str(tmp_path))
        assert code == 0
        document = load_document(model)
        served = {team: weight for team, _, _, weight in document.ledger.rows()}
        holdout = load_matches(fixture_path("matches.csv")).restrict({2017}).decisive()
        with open(tmp_path / "holdout_predictions.csv", newline="", encoding="utf-8") as fh:
            reported = list(csv.DictReader(fh))
        assert [r["match_id"] for r in reported] == [m.match_id for m in holdout]
        for r, m in zip(reported, holdout):
            row = encode_values(
                document.model.schema,
                {name: getattr(m, name) for name in CATEGORICAL_FEATURES},
                {"home_team_weight": served[m.home_team],
                 "away_team_weight": served[m.away_team]})
            assert float(r["probability"]) == float(
                document.model.predict_proba_matrix(row)[0]), r["match_id"]

    def test_report_reads_no_players_file(self, capsys, tmp_path, trained):
        """``--players`` is accepted and ignored: naming a file that does
        not exist changes nothing that report prints or writes."""
        outputs = []
        for i, players in enumerate([[], ["--players", str(tmp_path / "none.csv")]]):
            out = tmp_path / str(i)
            code, stdout, _ = run(capsys, "report", "--matches", fixture_path("matches.csv"),
                                  *players, "--model", trained(), "--holdout-season",
                                  "2017", "--out-dir", str(out))
            assert code == 0
            outputs.append((stdout, (out / "holdout_report.csv").read_bytes(),
                            (out / "holdout_predictions.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert ("team weights: each team's last training-season weight, "
                "as predict serves them") in outputs[0][0].splitlines()

    def test_report_missing_season_exit_2(self, capsys, tmp_path, trained):
        fault(capsys, tmp_path, trained, "report-season-without-matches")

# what cv, report and select-features print and write on the fixture
test_output_digests = digest_test("output")
