import csv
import hashlib
import json
import shutil
import warnings

import pytest

from cricpred.cli import _one_line_unseen, _points_model, main
from cricpred.dataset import load_matches, load_player_performances
from cricpred.errors import UnseenCategory
from cricpred.models import FORMAT_VERSION
from cricpred.strength import PER_MATCH, PER_SEASON, build_ledger

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
        assert out.splitlines() == ["66 matches loaded, 2 excluded (no result)",
                                    "200 player-season rows loaded",
                                    "6 venues, seasons [2016, 2017]"]

    def test_malformed_header_exit_2(self, capsys, tmp_path, data_args):
        bad = tmp_path / "matches.csv"
        bad.write_text("match_id,season,date\n", encoding="utf-8")
        code, _, err = run(capsys, "ingest", "--matches", str(bad),
                           "--players", data_args[3])
        assert code == 2
        assert "header lacks column" in err

    def test_empty_players_exit_2(self, capsys, tmp_path, data_args):
        empty = tmp_path / "players.csv"
        with open(fixture_path("players.csv"), encoding="utf-8") as fh:
            empty.write_text(fh.readline(), encoding="utf-8")
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
            doc = json.loads(path.read_text(encoding="utf-8"))
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
                       f"out_dir = {tmp_path}\n", encoding="utf-8")
        code, out, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "model_naive_bayes.json").exists()

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
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
        with open(fixture_path("players.csv"), newline="", encoding="utf-8") as fh:
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
        with open(path, "w", newline="", encoding="utf-8") as fh:
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
        """One ``warning:`` line, even where every warning is an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "predict", "--model", model_path,
                                 "--home", "CSK", "--away", "RR",
                                 "--venue", "Brand New Stadium",
                                 "--toss-winner", "RR",
                                 "--toss-decision", "field")
        assert code == 0
        assert "predicted winner:" in out
        assert err == ("warning: unseen venue category 'Brand New Stadium'; "
                       "encoding as the dropped category\n")

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
        cfg.write_text(f"model = {model_path}\n", encoding="utf-8")
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
        with open(model_path, encoding="utf-8") as fh:
            blob = fh.read()
        broken.write_text(blob[: len(blob) // 3], encoding="utf-8")
        code, _, err = run(capsys, "predict", "--model", str(broken),
                           "--home", "CSK", "--away", "RR",
                           "--venue", "Dr DY Patil Sports Academy",
                           "--toss-winner", "CSK", "--toss-decision", "bat")
        assert code == 3


def test_unseen_category_shown_once_per_message(capsys):
    others = []
    show = _one_line_unseen(lambda message, category, *where: others.append(category))
    for value in ("A", "A", "B"):
        show(UnseenCategory(f"unseen venue category {value!r}"), UnseenCategory,
             "features.py", 1)
    show(DeprecationWarning("old"), DeprecationWarning, "features.py", 1)
    assert capsys.readouterr().err == ("warning: unseen venue category 'A'\n"
                                       "warning: unseen venue category 'B'\n")
    assert others == [DeprecationWarning]


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
    if holdout is not None:
        dataset = dataset.restrict({s for s in dataset.seasons() if s < holdout})
    players = load_player_performances(data_args[3])
    ledger = build_ledger(_points_model(players)[0], players, dataset, mode=mode)
    last = {team: weight for team, _, _, weight in ledger.rows()}
    assert doc["team_weights"] == ledger.latest().to_dict()
    assert sorted(e["team"] for e in doc["team_weights"]["entries"]) == sorted(last)
    old = tmp_path / "whole_ledger.json"
    old.write_text(json.dumps({**doc, "team_weights": ledger.to_dict()}),
                   encoding="utf-8")
    covered = set()
    for m in dataset.matches:  # every team, on inputs the schema has seen
        if {m.home_team, m.away_team} <= covered:
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
        with open(tmp_path / "holdout_report.csv", newline="", encoding="utf-8") as fh:
            metrics = dict((r["metric"], r["value"])
                           for r in csv.DictReader(fh))
        assert 0.0 <= float(metrics["accuracy"]) <= 1.0
        with open(tmp_path / "holdout_predictions.csv", newline="", encoding="utf-8") as fh:
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


# sha256 of what ``cv --k 5``, ``report`` (of a model trained with
# ``--holdout-season 2017``) and ``select-features --target-count 3`` print
# and write on the fixture at the default seed. A last-digit change in any
# printed or written metric fails here even where every bound still holds.
OUTPUT_DIGESTS = {
    ("cv", "naive_bayes"): {
        "stdout":
            "b67c9e432e3f8c022a0ba369fca5977be8f79277b5a835d2f649c6a6f13619fd",
        "cv_report_naive_bayes.csv":
            "4ad9a5fe10f72a47e1ce409df92b8f918f79dacc8e3416faa041b324b903e85c",
    },
    ("report", "naive_bayes"): {
        "stdout":
            "605be2f00f7477e6eee682c739ec6c950f3b838cea6ab9ef9e376b3ca4941976",
        "holdout_report.csv":
            "cd8bea9738e2b0c067121851dd8152d8ef6daf50f6f72b8430c658d6a4367474",
        "holdout_predictions.csv":
            "2be09d7c7da5829d1b9c813cf76c7137821a92e5100bb47a16fbfdb17a816d48",
    },
    ("cv", "gradient_boosting"): {
        "stdout":
            "72ade19de07d53dacbba19a0ff18edb9ae294b85e38936b9c1c947c217800fc3",
        "cv_report_gradient_boosting.csv":
            "d43cbf7ecf5c1af2be0ae3dcde15f50dffeaae3d65fef479cd3bb1e7e1e0b0fa",
    },
    ("report", "gradient_boosting"): {
        "stdout":
            "eebec3c2c34404c46472b0f91c91d767bf2d855932e4826bde402bfeaee1c233",
        "holdout_report.csv":
            "770d59d8844cc537769af7523c98b1c945a2af770a68880a7d7970ba659494f6",
        "holdout_predictions.csv":
            "1aab049272cac7d4a4ff877ba0d656855b52c31b311095f70b7a552ec3b878d4",
    },
    ("cv", "linear_svm"): {
        "stdout":
            "5316f6c597a93a04b94324b19aa3c964d1d2ce3062944d7822644cec7438b5be",
        "cv_report_linear_svm.csv":
            "01537a3230fd37460665c52850d8918e4a6058378d07842bf8bef59542996967",
    },
    ("report", "linear_svm"): {
        "stdout":
            "d97b0bea79ea6433e2dadbf5663c8f4e81bd4f91b12632777431e250b7d01841",
        "holdout_report.csv":
            "0e40b1850ce5e2b577e46afb2834adb0ae85b5db94e2b45cc357f06ac58016de",
        "holdout_predictions.csv":
            "fee6513bf3c95c645b664cc194f1d666f742ff4e681e82633fb5cb51f2dc1324",
    },
    ("cv", "logistic_regression"): {
        "stdout":
            "d2abce05cd59558f1e3724c1e7264720830a31d659f9af69ad9b67e3960d24ea",
        "cv_report_logistic_regression.csv":
            "01537a3230fd37460665c52850d8918e4a6058378d07842bf8bef59542996967",
    },
    ("report", "logistic_regression"): {
        "stdout":
            "7a4e35a47a838ff64dbab7d2baef6bc7133b7baf5c3eb5d33db447f0b69e2143",
        "holdout_report.csv":
            "0e40b1850ce5e2b577e46afb2834adb0ae85b5db94e2b45cc357f06ac58016de",
        "holdout_predictions.csv":
            "16aea974afc21790396f5f4337575239a6c7a16824243cfedd5de33d3949ea1d",
    },
    ("cv", "random_forest"): {
        "stdout":
            "f2534a238da133b1e49889cf0634daeccb330d3b36e47630bd494ce0bf3e53d6",
        "cv_report_random_forest.csv":
            "05e73fd17e935d9a9dc53d636f061ae86316130bcf1a0a4382ac0025f5927366",
    },
    ("report", "random_forest"): {
        "stdout":
            "cb1e24b26325f16e2eaa767fbe207c430217232aa23df4092a5e8e2da14ebe08",
        "holdout_report.csv":
            "67c9ed3929c9ae4d29f325d67d6b769be0769806ef08a7ad833977ff4b756381",
        "holdout_predictions.csv":
            "69c543f7df9e64c50160abbfd0d52784bdec9ee37a7d38993c7086c39bb8b126",
    },
    ("cv", "mlp"): {
        "stdout":
            "300039d05d1884d521258ae497169f82340b552651fdae07d641eaa24ee99f9e",
        "cv_report_mlp.csv":
            "ebbdd8a56fe3846d15f607bae0d52f07d630c4e1ad3ce23201350872efd5dbc4",
    },
    ("report", "mlp"): {
        "stdout":
            "db0ba9148460000cc7cd3c274f6f5a230c52d63fc2e22d0e0d265ca6c3879966",
        "holdout_report.csv":
            "46c00c1f14f2ae296865859d0c9adbc5d9ecfc2280a5391c6305109e34a73e9d",
        "holdout_predictions.csv":
            "5ac2af73f24feb241ae7ddb6beba6c87af3f9e08d00ef0bb574f10bbc63ef5d4",
    },
    ("select-features", None): {
        "stdout":
            "2c5242cd49eb8930cc48c2b8a2c0ce5ba25f65da5a63b7bb5847e19ab3e4b4db",
        "feature_ranking.csv":
            "f154c6635192e5e193a85cf76fc5f87cf4dc45412d263ed55b6eafba75ba9040",
    },
}


@pytest.mark.parametrize("command, kind", list(OUTPUT_DIGESTS))
def test_output_digests(capsys, tmp_path, data_args, command, kind):
    if command == "cv":
        argv = ["--kind", kind, "--k", "5"]
    elif command == "report":
        code, _, _ = run(capsys, "train", *data_args, "--kind", kind,
                         "--holdout-season", "2017", "--out-dir", str(tmp_path))
        assert code == 0
        argv = ["--model", str(tmp_path / f"model_{kind}.json"),
                "--holdout-season", "2017"]
    else:
        argv = ["--target-count", "3"]
    code, out, _ = run(capsys, command, *data_args, *argv,
                       "--out-dir", str(tmp_path))
    assert code == 0
    expected = OUTPUT_DIGESTS[command, kind]
    got = {name: hashlib.sha256(out.encode() if name == "stdout"
                                else (tmp_path / name).read_bytes()).hexdigest()
           for name in expected}
    assert got == expected
