import csv
import json
import shutil

import pytest

from cricpred.cli import main
from cricpred.models import FORMAT_VERSION

from conftest import fixture_path


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
        assert "66 matches loaded, 2 excluded (no result)" in out
        assert "seasons [2016, 2017]" in out

    def test_malformed_header_exit_2(self, capsys, tmp_path, data_args):
        bad = tmp_path / "matches.csv"
        bad.write_text("match_id,season,date\n")
        code, _, err = run(capsys, "ingest", "--matches", str(bad),
                           "--players", data_args[3])
        assert code == 2
        assert "header lacks column" in err

    def test_empty_players_exit_2(self, capsys, tmp_path, data_args):
        empty = tmp_path / "players.csv"
        with open(fixture_path("players.csv")) as fh:
            empty.write_text(fh.readline())
        code, _, err = run(capsys, "ingest", "--matches", data_args[1],
                           "--players", str(empty))
        assert code == 2
        assert "no rows" in err

    def test_missing_matches_flag(self, capsys):
        code, _, err = run(capsys, "ingest")
        assert code == 2
        assert "--matches" in err


class TestTrain:
    def test_byte_identical_across_runs(self, capsys, tmp_path, data_args):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code, _, _ = run(capsys, "train", *data_args, "--kind",
                             "logistic_regression", "--seed", "0",
                             "--out-dir", str(out))
            assert code == 0
        a = (out1 / "model_logistic_regression.json").read_bytes()
        b = (out2 / "model_logistic_regression.json").read_bytes()
        assert a == b

    def test_kind_all_writes_six_documents(self, capsys, tmp_path, data_args):
        code, out, _ = run(capsys, "train", *data_args, "--kind", "all",
                           "--out-dir", str(tmp_path))
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("model_*.json"))
        assert written == [
            "model_gradient_boosting.json", "model_linear_svm.json",
            "model_logistic_regression.json", "model_mlp.json",
            "model_naive_bayes.json", "model_random_forest.json"]
        for path in tmp_path.glob("model_*.json"):
            doc = json.loads(path.read_text())
            assert doc["format_version"] == FORMAT_VERSION
            assert doc["team_weights"] is not None

    def test_holdout_covers_all_seasons_exit_3(self, capsys, tmp_path,
                                               data_args):
        code, _, err = run(capsys, "train", *data_args, "--kind", "mlp",
                           "--holdout-season", "2016",
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert "holdout season 2016" in err

    def test_config_file_supplies_paths(self, capsys, tmp_path, data_args):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"matches = {data_args[1]}\n"
                       f"players = {data_args[3]}\n"
                       "kind = naive_bayes\n"
                       f"out_dir = {tmp_path}\n")
        code, out, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "model_naive_bayes.json").exists()

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err


    @pytest.mark.parametrize("rows, stumpings, origin", [
        (None, None, "fitted"),
        (None, "0", "reference (fit was rank deficient)"),
        (6, None, "reference"),
    ])
    def test_points_model_origin(self, capsys, tmp_path, data_args, rows,
                                 stumpings, origin):
        """Official points on the first ``rows`` player rows (all when
        None), with every ``stumpings`` replaced when it is given."""
        with open(fixture_path("players.csv"), newline="") as fh:
            players = list(csv.DictReader(fh))
        for i, row in enumerate(players):
            if stumpings is not None:
                row["stumpings"] = stumpings
            if rows is None or i < rows:
                row["official_points"] = str(
                    25 * int(row["wickets"]) + int(row["dot_balls"])
                    + 4 * int(row["fours"]) + 6 * int(row["sixes"])
                    + 8 * int(row["catches"]) + 12 * int(row["stumpings"]) + i % 5)
        path = tmp_path / "players.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(players[0]))
            writer.writeheader()
            writer.writerows(players)
        code, out, _ = run(capsys, "train", "--matches", data_args[1],
                           "--players", str(path), "--kind", "naive_bayes",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert f"points model: {origin})" in out


class TestPredict:
    @pytest.fixture()
    def model_path(self, capsys, tmp_path, data_args):
        code, _, _ = run(capsys, "train", *data_args, "--kind",
                         "logistic_regression", "--out-dir", str(tmp_path))
        assert code == 0
        return str(tmp_path / "model_logistic_regression.json")

    def test_fixture_weights_in_output(self, capsys, model_path):
        code, out, _ = run(capsys, "predict", "--model", model_path,
                           "--home", "CSK", "--away", "RR",
                           "--venue", "Dr DY Patil Sports Academy",
                           "--toss-winner", "CSK", "--toss-decision", "bat")
        assert code == 0
        assert "w1=101.75 (home CSK)" in out
        assert "w2=123.65625 (away RR)" in out
        assert "predicted winner:" in out

    def test_bad_toss_winner_exit_4(self, capsys, model_path):
        code, _, err = run(capsys, "predict", "--model", model_path,
                           "--home", "CSK", "--away", "RR",
                           "--venue", "Dr DY Patil Sports Academy",
                           "--toss-winner", "MI", "--toss-decision", "bat")
        assert code == 4
        assert "toss_winner" in err

    def test_unseen_venue_warns_but_predicts(self, capsys, model_path):
        with pytest.warns(UserWarning, match="unseen venue"):
            code, out, _ = run(capsys, "predict", "--model", model_path,
                               "--home", "CSK", "--away", "RR",
                               "--venue", "Brand New Stadium",
                               "--toss-winner", "RR",
                               "--toss-decision", "field")
        assert code == 0
        assert "predicted winner:" in out

    def test_team_without_ledger_entry_exit_4(self, capsys, model_path):
        code, _, err = run(capsys, "predict", "--model", model_path,
                           "--home", "SRH", "--away", "RR",
                           "--venue", "Dr DY Patil Sports Academy",
                           "--toss-winner", "SRH", "--toss-decision", "bat")
        assert code == 4
        assert "SRH" in err

    def test_away_team_without_ledger_entry_exit_4(self, capsys, model_path):
        code, _, err = run(capsys, "predict", "--model", model_path,
                           "--home", "CSK", "--away", "SRH",
                           "--venue", "Dr DY Patil Sports Academy",
                           "--toss-winner", "CSK", "--toss-decision", "bat")
        assert code == 4
        assert err == ("error: team SRH is absent from the model's weight "
                       "ledger and no cold-start data exists\n")

    def test_no_state_between_calls(self, capsys, tmp_path, model_path):
        """One process, one parser: a ``--model`` read from ``--config``
        does not stay for the next call, and a usage error does not stop
        the call after it."""
        toss = ["--home", "CSK", "--away", "RR", "--toss-winner", "CSK",
                "--venue", "Dr DY Patil Sports Academy", "--toss-decision", "bat"]
        cfg = tmp_path / "predict.cfg"
        cfg.write_text(f"model = {model_path}\n")
        code, out, _ = run(capsys, "predict", "--config", str(cfg), *toss)
        assert code == 0 and out.startswith("predicted winner:")
        code, out, err = run(capsys, "predict", *toss)
        assert code == 2 and out == ""
        assert err.startswith("usage: ")
        assert "the following arguments are required: --model" in err
        code, out, _ = run(capsys, "predict", "--model", model_path, *toss)
        assert code == 0 and out.startswith("predicted winner:")

    def test_corrupt_model_exit_3(self, capsys, tmp_path, model_path):
        broken = tmp_path / "broken.json"
        with open(model_path) as fh:
            blob = fh.read()
        broken.write_text(blob[: len(blob) // 3])
        code, _, err = run(capsys, "predict", "--model", str(broken),
                           "--home", "CSK", "--away", "RR",
                           "--venue", "Dr DY Patil Sports Academy",
                           "--toss-winner", "CSK", "--toss-decision", "bat")
        assert code == 3


class TestTeamWeights:
    def test_csv_sorted_and_fixture_values(self, capsys, tmp_path, data_args):
        code, out, _ = run(capsys, "team-weights", *data_args,
                           "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "team_weights.csv", newline="") as fh:
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

    def test_report_emits_files(self, capsys, tmp_path, data_args):
        code, _, _ = run(capsys, "train", *data_args, "--kind", "mlp",
                         "--holdout-season", "2017",
                         "--out-dir", str(tmp_path))
        assert code == 0
        code, out, _ = run(capsys, "report", *data_args,
                           "--model", str(tmp_path / "model_mlp.json"),
                           "--holdout-season", "2017",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "holdout season 2017" in out
        with open(tmp_path / "holdout_report.csv", newline="") as fh:
            metrics = dict((r["metric"], r["value"])
                           for r in csv.DictReader(fh))
        assert 0.0 <= float(metrics["accuracy"]) <= 1.0
        with open(tmp_path / "holdout_predictions.csv", newline="") as fh:
            preds = list(csv.DictReader(fh))
        assert len(preds) == int(metrics["n_evaluated"])
        assert set(preds[0]) == {"match_id", "probability", "predicted",
                                 "actual"}

    def test_report_missing_season_exit_2(self, capsys, tmp_path, data_args):
        code, _, _ = run(capsys, "train", *data_args, "--kind", "naive_bayes",
                         "--out-dir", str(tmp_path))
        assert code == 0
        code, _, err = run(capsys, "report", *data_args,
                           "--model", str(tmp_path / "model_naive_bayes.json"),
                           "--holdout-season", "2019",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "2019" in err
