"""Fault injection, the command line's one fault contract: each row breaks
one input of one subcommand and pins the exit code of its error family,
and a row may pin a piece of the message. No row may end in a traceback,
and every error that is not an argparse usage error is one ``error: ...``
line."""

import base64
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cricpred import errors
from cricpred.cli import main
from cricpred.strength import PER_MATCH, PER_SEASON

from conftest import fixture_path, stored_lists, stored_strings, table_lists

MATCHES = fixture_path("matches.csv")
PLAYERS = fixture_path("players.csv")
DATA = ["--matches", MATCHES, "--players", PLAYERS]
TOSS = ["--venue", "Dr DY Patil Sports Academy", "--toss-decision", "bat"]
ENSEMBLES = ("random_forest", "gradient_boosting")


def fails(capsys, argv, code, message=None, usage=False):
    """``main(argv)`` exits ``code`` without a traceback. An argparse usage
    error prints its usage line first; any other failure is one ``error:
    ...`` line. ``message``, when given, is part of stderr."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if usage:
        assert "error:" in err
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert message is None or message in err, err


def predict(model, home="CSK", away="RR", toss_winner="CSK"):
    return ["predict", "--model", model, "--home", home, "--away", away,
            "--toss-winner", toss_winner, *TOSS]


def report(tmp, model):
    return ["report", *DATA, "--holdout-season", "2017", "--out-dir", str(tmp),
            "--model", model]


def write(tmp, name, text):
    path = tmp / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def config(tmp, text):
    return write(tmp, "run.cfg", f"matches = {MATCHES}\nplayers = {PLAYERS}\n" + text)


def edited(tmp, model, edit):
    doc = json.loads(Path(model).read_text(encoding="utf-8"))
    edit(doc)
    return write(tmp, "edited.json", json.dumps(doc))


def truncated(tmp, model):
    blob = Path(model).read_text(encoding="utf-8")
    return write(tmp, "truncated.json", blob[: len(blob) // 3])


def rewritten(tmp, csv_path, edit):
    """A copy of the CSV whose rows after the header are ``edit(rows)``."""
    header, *rows = Path(csv_path).read_text(encoding="utf-8").splitlines()
    return write(tmp, f"edited_{Path(csv_path).name}",
                 "".join(f"{line}\n" for line in [header, *edit(rows)]))


def appended(tmp, csv_path, row):
    """A copy of the CSV with ``row`` as one more row."""
    return rewritten(tmp, csv_path, lambda rows: [*rows, row])


def washouts(tmp, *seasons):
    """A copy of the matches CSV whose rows of ``seasons`` have no winner."""
    return rewritten(tmp, MATCHES, lambda rows: [
        row.rsplit(",", 1)[0] + "," if row.split(",")[1] in seasons else row
        for row in rows])


def alike(rows):
    """The 2016 rows as CSK v RR at one venue, CSK winning the toss and
    batting: every row encodes the same, and the winners alternate."""
    return [",".join([*row.split(",")[:3], "CSK", "RR", "Eden Gardens", "CSK",
                      "bat", ("CSK", "RR")[i % 2]])
            for i, row in enumerate(r for r in rows if r.split(",")[1] == "2016")]


def official_points(tmp, value, stumpings=None):
    """A copy of the players CSV in which every row has official points, the
    first row ``value``; the fixture's rows leave the column empty. With
    ``stumpings``, every row has that many stumpings."""
    def edit(rows):
        if stumpings is not None:
            rows = [",".join([*row.split(",")[:9], stumpings, ""]) for row in rows]
        return [rows[0] + value] + [row + str(i) for i, row in enumerate(rows[1:])]
    return rewritten(tmp, PLAYERS, edit)


def nested(tmp):
    """A JSON text nested deeper than the parser's recursion limit."""
    return write(tmp, "nested.json", "[" * 100_000 + "]" * 100_000)


def binary(tmp):
    path = tmp / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    return str(path)


def latin1(tmp, csv_path):
    """A copy of the CSV with one Latin-1 byte in its last row."""
    path = tmp / f"latin1_{Path(csv_path).name}"
    path.write_bytes(Path(csv_path).read_bytes().rstrip(b"\r\n") + b"\xe9\n")
    return str(path)


def beside(model, kind):
    """The document of ``kind`` that the run that wrote ``model`` wrote
    beside it."""
    return str(Path(model).with_name(f"model_{kind}.json"))


def set_in(section, key, value):
    def edit(doc):
        doc[section][key] = value
    return edit


# (id, expected exit code, argparse usage error?, argv from (tmp_path,
# model)[, part of stderr]); the model is the fixture's per_season
# logistic regression document
FAULTS = [
    # missing or unreadable files: OSError -> 2
    ("ingest-missing-matches", 2, False,
     lambda t, m: ["ingest", "--matches", str(t / "none.csv"), "--players", PLAYERS]),
    ("train-missing-players", 2, False,
     lambda t, m: ["train", "--matches", MATCHES, "--players", str(t / "none.csv")]),
    ("train-missing-config", 2, False,
     lambda t, m: ["train", *DATA, "--config", str(t / "none.cfg")]),
    ("predict-missing-model", 2, False, lambda t, m: predict(str(t / "none.json"))),
    ("report-missing-model", 2, False,
     lambda t, m: ["report", *DATA, "--model", str(t / "none.json"),
                   "--holdout-season", "2017"]),
    ("predict-model-is-directory", 2, False, lambda t, m: predict(str(t))),
    ("train-out-dir-under-a-file", 2, False,
     lambda t, m: ["train", *DATA, "--kind", "naive_bayes",
                   "--out-dir", str(Path(write(t, "file", "")) / "out")]),
    # malformed inputs: IngestionError and validation errors -> 2
    ("ingest-malformed-header", 2, False,
     lambda t, m: ["ingest", "--matches", write(t, "m.csv", "match_id,season\n"),
                   "--players", PLAYERS], "header lacks column"),
    ("ingest-matches-not-utf8", 2, False,
     lambda t, m: ["ingest", "--matches", latin1(t, MATCHES), "--players", PLAYERS]),
    ("train-players-not-utf8", 2, False,
     lambda t, m: ["train", "--matches", MATCHES, "--players", latin1(t, PLAYERS),
                   "--out-dir", str(t)]),
    ("ingest-short-matches-row", 2, False,
     lambda t, m: ["ingest", "--matches", appended(t, MATCHES, "x1,2017,2017-05-01,CSK,RR"),
                   "--players", PLAYERS]),
    ("ingest-short-players-row", 2, False,
     lambda t, m: ["ingest", "--matches", MATCHES,
                   "--players", appended(t, PLAYERS, "2017,CSK,Zed,3")]),
    ("ingest-empty-match-id", 2, False,
     lambda t, m: ["ingest", "--matches", appended(
         t, MATCHES, ",2017,2017-05-01,CSK,RR,Wankhede Stadium,CSK,bat,CSK"),
                   "--players", PLAYERS]),
    ("ingest-blank-venue", 2, False,
     lambda t, m: ["ingest", "--matches", appended(
         t, MATCHES, "x1,2017,2017-05-01,CSK,RR,  ,CSK,bat,CSK"),
                   "--players", PLAYERS]),
    ("ingest-empty-player", 2, False,
     lambda t, m: ["ingest", "--matches", MATCHES,
                   "--players", appended(t, PLAYERS, "2017,CSK,,3,1,1,1,1,1,0,")]),
    # Python 3.11's date.fromisoformat reads both dates as 2017-05-01
    ("ingest-date-20170501", 2, False,
     lambda t, m: ["ingest", "--matches", appended(
         t, MATCHES, "x1,2017,20170501,CSK,RR,Wankhede Stadium,CSK,bat,CSK"),
                   "--players", PLAYERS],
     "edited_matches.csv row 68: bad date '20170501'"),
    ("ingest-date-2017-W18-1", 2, False,
     lambda t, m: ["ingest", "--matches", appended(
         t, MATCHES, "x1,2017,2017-W18-1,CSK,RR,Wankhede Stadium,CSK,bat,CSK"),
                   "--players", PLAYERS],
     "edited_matches.csv row 68: bad date '2017-W18-1'"),
    ("ingest-unknown-team", 2, False,
     lambda t, m: ["ingest", "--matches", appended(
         t, MATCHES, "x1,2017,2017-05-01,CSK,ZZZ,Wankhede Stadium,CSK,bat,CSK"),
                   "--players", PLAYERS], "row 68: unknown team acronym 'ZZZ'"),
    ("ingest-negative-wickets", 2, False,
     lambda t, m: ["ingest", "--matches", MATCHES, "--players",
                   appended(t, PLAYERS, "2017,CSK,Zed,3,-1,1,1,1,1,0,")],
     "row 202: wickets=-1 below 0"),
    ("ingest-player-twice", 2, False,
     lambda t, m: ["ingest", "--matches", MATCHES, "--players",
                   rewritten(t, PLAYERS, lambda rows: [*rows, rows[0]])],
     "row 202: duplicate player 'CSK2016P01' for CSK 2016 (first seen at row 2)"),
    # rows the csv module cannot read -> 2
    ("ingest-field-over-size-limit", 2, False,
     lambda t, m: ["ingest", "--matches", appended(
         t, MATCHES, "x1,2017,2017-05-01,CSK,RR," + "V" * 200_000 + ",CSK,bat,CSK"),
                   "--players", PLAYERS]),
    ("ingest-unterminated-quote", 2, False,
     lambda t, m: ["ingest", "--matches", rewritten(
         t, MATCHES, lambda rows: [rows[0] + ',"unterminated', *rows[1:]]),
                   "--players", PLAYERS]),
    ("ingest-text-after-closing-quote", 2, False,
     lambda t, m: ["ingest", "--matches", appended(
         t, MATCHES, 'x1,2017,2017-05-01,CSK,RR,"Eden Gardens" ,CSK,bat,CSK'),
                   "--players", PLAYERS]),
    ("fit-points-official-points-nan", 2, False,
     lambda t, m: ["fit-points", "--matches", MATCHES,
                   "--players", official_points(t, "nan")]),
    ("fit-points-official-points-inf", 2, False,
     lambda t, m: ["fit-points", "--matches", MATCHES,
                   "--players", official_points(t, "inf")]),
    ("train-official-points-nan", 2, False,
     lambda t, m: ["train", "--matches", MATCHES, "--players",
                   official_points(t, "nan"), "--out-dir", str(t)]),
    ("train-official-points-inf", 2, False,
     lambda t, m: ["train", "--matches", MATCHES, "--players",
                   official_points(t, "inf"), "--out-dir", str(t)]),
    # no row has a stumping, so that column of the regression is all zero
    ("fit-points-rank-deficient", 2, False,
     lambda t, m: ["fit-points", "--matches", MATCHES, "--players",
                   official_points(t, "0", stumpings="0")],
     "column 'stumpings' is linearly dependent"),
    ("fit-points-no-player-rows", 2, False,
     lambda t, m: ["fit-points", "--matches", MATCHES, "--players",
                   rewritten(t, PLAYERS, lambda rows: [])]),
    ("ingest-no-player-rows", 2, False,
     lambda t, m: ["ingest", "--matches", MATCHES, "--players",
                   rewritten(t, PLAYERS, lambda rows: [])], "players file has no rows"),
    ("train-team-season-without-player-rows", 2, False,
     lambda t, m: ["train", "--matches", MATCHES, "--players", rewritten(
         t, PLAYERS, lambda rows: [r for r in rows if not r.startswith("2017,RR,")]),
                   "--out-dir", str(t)],
     "no performance rows for team RR in season 2017"),
    ("select-features-18-matches", 2, False,
     lambda t, m: ["select-features", "--matches",
                   rewritten(t, MATCHES, lambda rows: rows[:18]), "--players", PLAYERS,
                   "--out-dir", str(t)], "need at least 20 rows, got 16"),
    ("train-target-count-99", 2, False,
     lambda t, m: ["train", *DATA, "--target-count", "99", "--out-dir", str(t)]),
    ("report-season-without-matches", 2, False,
     lambda t, m: ["report", *DATA, "--model", m, "--holdout-season", "2019",
                   "--out-dir", str(t)], "no decisive matches in holdout season 2019"),
    ("report-season-without-decisive-matches", 2, False,
     lambda t, m: ["report", "--matches", washouts(t, "2017"), "--players", PLAYERS,
                   "--model", m, "--holdout-season", "2017", "--out-dir", str(t)]),
    # config files: parsed as flags, so argparse validates them -> 2
    ("cv-config-k-ten", 2, True,
     lambda t, m: ["cv", "--config", config(t, "k = ten\n"), "--out-dir", str(t)]),
    ("train-config-seed-x", 2, True,
     lambda t, m: ["train", "--config", config(t, "seed = x\n"), "--out-dir", str(t)]),
    ("team-weights-config-mode-weekly", 2, True,
     lambda t, m: ["team-weights", "--config", config(t, "mode = weekly\n")]),
    ("train-config-kind-bogus", 2, True,
     lambda t, m: ["train", "--config", config(t, "kind = bogus\n")]),
    ("train-config-unknown-key", 2, False,
     lambda t, m: ["train", "--config", config(t, "colour = red\n")],
     "unknown config key 'colour'"),
    ("train-config-line-without-equals", 2, False,
     lambda t, m: ["train", "--config", config(t, "kind mlp\n")]),
    ("cv-config-not-utf8", 2, False,
     lambda t, m: ["cv", "--config", binary(t), "--out-dir", str(t)]),
    ("train-config-key-it-does-not-take", 2, True,
     lambda t, m: ["train", "--config", config(t, "k = 5\n"), "--out-dir", str(t)],
     "unrecognized arguments: --k=5"),
    ("report-config-key-it-does-not-take", 2, True,
     lambda t, m: ["report", "--config", config(t, "mode = per_match\n"),
                   "--model", m, "--holdout-season", "2017", "--out-dir", str(t)]),
    # flag values -> 2
    ("ingest-without-matches", 2, True, lambda t, m: ["ingest"],
     "the following arguments are required: --matches"),
    ("select-features-target-count-0", 2, True,
     lambda t, m: ["select-features", *DATA, "--target-count", "0", "--out-dir", str(t)]),
    ("train-target-count-0", 2, True,
     lambda t, m: ["train", *DATA, "--target-count", "0", "--out-dir", str(t)]),
    # train runs RFE without bootstrap stability runs, so it takes no
    # --resamples, on the command line or from a config file
    ("train-resamples", 2, True,
     lambda t, m: ["train", *DATA, "--target-count", "3", "--resamples", "2",
                   "--out-dir", str(t)]),
    ("train-config-resamples", 2, True,
     lambda t, m: ["train", "--config", config(t, "resamples = 2\n"),
                   "--target-count", "3", "--out-dir", str(t)]),
    ("cv-negative-seed", 2, True,
     lambda t, m: ["cv", *DATA, "--kind", "naive_bayes", "--seed", "-1"]),
    ("predict-without-model", 2, True,
     lambda t, m: ["predict", "--home", "CSK", "--away", "RR",
                   "--toss-winner", "CSK", *TOSS]),
    # training and model documents: ModelError -> 3
    ("train-holdout-covers-every-season", 3, False,
     lambda t, m: ["train", *DATA, "--holdout-season", "2016", "--out-dir", str(t)],
     "holdout season 2016 overlaps the entire training range"),
    ("cv-k-1", 3, False,
     lambda t, m: ["cv", *DATA, "--kind", "naive_bayes", "--k", "1", "--out-dir", str(t)]),
    ("cv-k-40", 3, False,
     lambda t, m: ["cv", *DATA, "--kind", "naive_bayes", "--k", "40", "--out-dir", str(t)],
     "class 0 has 28 members, fewer than k=40"),
    ("train-every-match-a-washout", 3, False,
     lambda t, m: ["train", "--matches", washouts(t, "2016", "2017"),
                   "--players", PLAYERS, "--out-dir", str(t)]),
    # the SVM's scores are all equal, which leaves Platt scaling no optimum
    ("train-svm-every-row-alike", 3, False,
     lambda t, m: ["train", "--matches", rewritten(t, MATCHES, alike),
                   "--players", PLAYERS, "--kind", "linear_svm", "--out-dir", str(t)],
     "Platt scaling fit failed"),
    ("predict-truncated-document", 3, False, lambda t, m: predict(truncated(t, m))),
    ("predict-document-nested-too-deeply", 3, False, lambda t, m: predict(nested(t))),
    ("report-document-nested-too-deeply", 3, False, lambda t, m: report(t, nested(t))),
    ("predict-binary-document", 3, False, lambda t, m: predict(binary(t))),
    ("predict-format-version-0", 3, False,
     lambda t, m: predict(edited(t, m, lambda d: d.update(format_version=0)))),
    # documents of versions 1 to 3: a logistic_regression document
    # differs from them only in format_version
    ("predict-format-version-1", 3, False,
     lambda t, m: predict(edited(t, m, lambda d: d.update(format_version=1)))),
    ("predict-format-version-2", 3, False,
     lambda t, m: predict(edited(t, m, lambda d: d.update(format_version=2)))),
    ("predict-format-version-3", 3, False,
     lambda t, m: predict(edited(t, m, lambda d: d.update(format_version=3)))),
    ("report-format-version-1", 3, False,
     lambda t, m: report(t, edited(t, m, lambda d: d.update(format_version=1)))),
    ("predict-emptied-parameters", 3, False,
     lambda t, m: predict(edited(t, m, lambda d: d.update(parameters={})))),
    ("report-emptied-parameters", 3, False,
     lambda t, m: report(t, edited(t, m, lambda d: d.update(parameters={})))),
    ("predict-unknown-kind", 3, False,
     lambda t, m: predict(edited(t, m, lambda d: d["spec"].update(kind="svm")))),
    # a setting that is a module constant is not a hyperparameter: a
    # hand-made document that names one, even at the constant's value
    *[(f"predict-constant-{name}-named-as-hyperparameter", 3, False,
       lambda t, m, kind=kind, name=name, value=value: predict(edited(
           t, beside(m, kind), set_in("spec", "hyperparameters", {name: value}))),
       f"error: unknown hyperparameter(s) for {kind}: [{name!r}]")
      for kind, name, value in [("gradient_boosting", "shrinkage", 0.1),
                                ("linear_svm", "l2", 1e-4), ("mlp", "patience", 20)]],
    # the inputs of one prediction: PredictionInputError -> 4
    ("predict-home-equals-away", 4, False, lambda t, m: predict(m, away="CSK")),
    ("predict-toss-winner-not-playing", 4, False,
     lambda t, m: predict(m, toss_winner="MI"),
     "toss_winner MI is not one of the two teams"),
    ("predict-team-absent-from-ledger", 4, False,
     lambda t, m: predict(m, home="SRH", toss_winner="SRH"),
     "team SRH is absent from the model's weight ledger"),
    ("predict-away-team-absent-from-ledger", 4, False,
     lambda t, m: predict(m, away="SRH"),
     "team SRH is absent from the model's weight ledger and no cold-start data exists"),
    ("predict-document-without-weights", 4, False,
     lambda t, m: predict(edited(t, m, lambda d: d.update(team_weights=None)))),
]


ROWS = {f[0]: f[1:] for f in FAULTS}


def fault(capsys, tmp_path, trained, name):
    """Run the ``FAULTS`` row ``name``."""
    code, usage, argv, message = (*ROWS[name], None)[:4]
    fails(capsys, argv(tmp_path, trained()), code, message, usage)


@pytest.mark.parametrize("name", ROWS)
def test_fault_exit_code(capsys, tmp_path, trained, name):
    fault(capsys, tmp_path, trained, name)


def test_config_errors_name_the_key(capsys, tmp_path, trained):
    for name in ("train-config-unknown-key", "train-config-key-it-does-not-take"):
        fault(capsys, tmp_path, trained, name)


def internal(p):
    """The internal nodes of a node table, in preorder."""
    return [i for i, child in enumerate(p["right"]) if child != i]


def leaves(p):
    """The leaves of a node table, in preorder."""
    return [i for i, child in enumerate(p["right"]) if child == i]


def on_lists(edit):
    """``edit`` of a node table's four stored arrays as JSON lists: they
    are decoded first and stored again after."""
    @functools.wraps(edit)
    def stored(p, *args):
        stored_lists(p)
        edit(p, *args)
        stored_strings(p)
    return stored


@on_lists
def child_out_of_range(p):
    p["right"][internal(p)[0]] = len(p["right"])


@on_lists
def cycle(p):
    """An internal right child points back at its parent: a right child
    before its node."""
    inner = internal(p)
    parent = next(i for i in inner if p["right"][i] in inner)
    p["right"][p["right"][parent]] = parent


@on_lists
def right_at_own_node(p):
    """An internal node's right child is itself and its feature 0, as a
    leaf's are: its subtrees are left without a parent."""
    i = internal(p)[0]
    p["right"][i], p["feature"][i] = i, 0


@on_lists
def right_at_left_child(p):
    """An internal node's right child is its left child, as when the
    league-101 forest's node 0 has right 134 changed to 1: the old right
    subtree is reached from no root."""
    i = internal(p)[0]
    p["right"][i] = i + 1


@on_lists
def roots_empty(p):
    p["roots"] = []


@on_lists
def root_out_of_range(p):
    p["roots"][-1] = len(p["right"])


@on_lists
def root_repeated(p):
    """The first tree twice: its nodes are reached from two roots, which
    the leaf count finds."""
    p["roots"] = p["roots"] + [p["roots"][0]]


@on_lists
def feature_out_of_range(p):
    p["feature"][internal(p)[0]] = 99


@on_lists
def feature_negative(p):
    p["feature"][internal(p)[0]] = -1


@on_lists
def leaf_feature_set(p):
    p["feature"][leaves(p)[0]] = 1


@on_lists
def unequal_lengths(p):
    del p["threshold"][-1]


@on_lists
def leaf_value_nan(p):
    p["threshold"][leaves(p)[0]] = float("nan")


@on_lists
def threshold_nan(p):
    p["threshold"][internal(p)[0]] = float("nan")


def invalid_base64_character(p):
    p["feature"] = "*" + p["feature"][1:]


def ragged_byte_length(p):
    """The threshold bytes less one: not a whole number of 8-byte items."""
    raw = base64.b64decode(p["threshold"])[:-1]
    p["threshold"] = base64.b64encode(raw).decode("ascii")


def version_2_table(p):
    """JSON lists where base64 strings belong: a version 2 table under a
    version 4 header."""
    table_lists(p)


@on_lists
def set_leaves(p, value):
    """Every leaf with a nonzero value gets ``value``; a leaf's value is
    its stored threshold."""
    for i in leaves(p):
        if p["threshold"][i] != 0.0:
            p["threshold"][i] = value


TABLE_FAULTS = [child_out_of_range, cycle, right_at_own_node, right_at_left_child,
                roots_empty, root_out_of_range, root_repeated, feature_out_of_range, feature_negative, leaf_feature_set, unequal_lengths, leaf_value_nan,
                threshold_nan, invalid_base64_character, ragged_byte_length,
                version_2_table]


@pytest.mark.parametrize("command", ["predict", "report"])
@pytest.mark.parametrize("fault", TABLE_FAULTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", ENSEMBLES)
def test_corrupt_node_table_exit_3(capsys, tmp_path, trained, kind, fault,
                                   command):
    path = edited(tmp_path, trained(kind), lambda d: fault(d["parameters"]))
    fails(capsys, predict(path) if command == "predict" else report(tmp_path, path), 3)


# (id, kind, edit of the document's parameters): parameters of the wrong
# shape or type, not finite, or out of range
PARAMETER_FAULTS = [
    ("logistic-weight-dropped", "logistic_regression",
     lambda p: p["weights"].pop()),
    ("logistic-bias-nan", "logistic_regression",
     lambda p: p.update(bias=float("nan"))),
    ("boosting-shrinkage-string", "gradient_boosting",
     lambda p: p.update(shrinkage="x")),
    ("svm-bias-string", "linear_svm", lambda p: p.update(bias="x")),
    ("naive-bayes-bernoulli-entry-dropped", "naive_bayes",
     lambda p: p["class_1"]["bernoulli_p"].pop()),
    ("naive-bayes-mask-entry-dropped", "naive_bayes",
     lambda p: p["binary_mask"].pop()),
    ("mlp-first-layer-dropped", "mlp", lambda p: p["layers"].pop(0)),
    ("naive-bayes-bernoulli-above-1", "naive_bayes",
     lambda p: p["class_0"]["bernoulli_p"].__setitem__(0, 2.0)),
    ("naive-bayes-prior-negative", "naive_bayes",
     lambda p: p["class_1"].update(prior=-0.5)),
    ("forest-leaf-above-1", "random_forest", lambda p: set_leaves(p, 2.0)),
    ("forest-leaf-negative", "random_forest", lambda p: set_leaves(p, -0.5)),
    # a whole key missing, one row per kind
    ("svm-platt-a-missing", "linear_svm", lambda p: p.pop("platt_a")),
    ("svm-platt-b-missing", "linear_svm", lambda p: p.pop("platt_b")),
    ("forest-roots-missing", "random_forest", lambda p: p.pop("roots")),
    ("boosting-base-score-missing", "gradient_boosting",
     lambda p: p.pop("base_score")),
    ("naive-bayes-class-1-missing", "naive_bayes", lambda p: p.pop("class_1")),
    ("mlp-layers-missing", "mlp", lambda p: p.pop("layers")),
    ("logistic-bias-missing", "logistic_regression", lambda p: p.pop("bias")),
]


@pytest.mark.parametrize("kind, fault", [f[1:] for f in PARAMETER_FAULTS],
                         ids=[f[0] for f in PARAMETER_FAULTS])
def test_corrupt_parameters_exit_3(capsys, tmp_path, trained, kind, fault):
    path = edited(tmp_path, trained(kind), lambda d: fault(d["parameters"]))
    fails(capsys, predict(path), 3)


def set_weights(value):
    def edit(doc):
        for entry in doc["team_weights"]["entries"]:
            entry["weight"] = value
    return edit


def set_first(key, value):
    def edit(doc):
        doc["team_weights"]["entries"][0][key] = value
    return edit


def repeat_last(doc):
    """The last entry again, with another weight."""
    entries = doc["team_weights"]["entries"]
    entries.append({**entries[-1], "weight": 99.0})


# (id, edits the per_match document?, edit of the document): a ledger whose
# weights are not finite JSON numbers, whose mode is unknown, whose teams
# and seasons are not strings and integers, that holds a key twice, or
# whose per_match as_of is not a YYYY-MM-DD date on every Python. With
# an unknown mode a per_season document fails on its "season" as_of dates
# anyway, so that row edits a per_match document.
LEDGER_FAULTS = [
    ("weights-string-nan", False, set_weights("nan")),
    ("weights-nan", False, set_weights(float("nan"))),
    ("weights-infinite", False, set_weights(float("inf"))),
    ("weights-boolean", False, set_weights(True)),
    ("mode-unknown", True, lambda d: d["team_weights"].update(mode="foo")),
    ("season-key-twice", False, repeat_last),
    ("date-key-twice", True, repeat_last),
    ("season-boolean", False, set_first("season", True)),
    ("season-fraction", False, set_first("season", 2017.9)),
    ("team-number", False, set_first("team", 5)),
    ("as_of-basic-format", True, set_first("as_of", "20180405")),
    ("as_of-impossible-date", True, set_first("as_of", "2018-02-30")),
    ("as_of-number", True, set_first("as_of", 20180405)),
]


@pytest.mark.parametrize("command", ["predict", "report"])
@pytest.mark.parametrize("per_match, fault", [f[1:] for f in LEDGER_FAULTS],
                         ids=[f[0] for f in LEDGER_FAULTS])
def test_corrupt_ledger_exit_3(capsys, tmp_path, trained, per_match, fault,
                               command):
    path = edited(tmp_path, trained(mode=PER_MATCH if per_match else PER_SEASON), fault)
    fails(capsys, predict(path) if command == "predict" else report(tmp_path, path), 3)


def in_schema(edit):
    """``edit`` of the document's schema, with ``schema_fingerprint``
    stamped again for the edited schema, so that the row trips the schema
    check and not the fingerprint check."""
    def stamped(doc):
        edit(doc["schema"])
        payload = json.dumps(doc["schema"], sort_keys=True, separators=(",", ":"))
        doc["schema_fingerprint"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return stamped


def set_categories(group, categories):
    """The categories of the schema's ``group`` (an index) as
    ``categories(old)``."""
    def edit(schema):
        entry = schema["categorical_groups"][group]
        entry["categories"] = categories(entry["categories"])
    return edit


# (id, edit of the document): a spec, points model or row count that is
# not of the schema's type or range; a schema that no training run writes
# (groups, numeric features or categories renamed, reordered, repeated or
# not strings); a schema fingerprint or label convention that is not the
# document's
DOCUMENT_FAULTS = [
    ("points-coefficient-boolean", set_in("points_model", "per_wicket", True)),
    ("points-coefficient-string", set_in("points_model", "per_wicket", "3.5")),
    ("hyperparameter-unknown", set_in("spec", "hyperparameters", {"foo": "bar"})),
    ("hyperparameter-out-of-range", set_in("spec", "hyperparameters", {"l2": -1.0})),
    ("spec-kind-unknown", set_in("spec", "kind", "bogus")),
    ("seed-negative", set_in("spec", "seed", -1)),
    ("seed-boolean", set_in("spec", "seed", True)),
    ("seed-string", set_in("spec", "seed", "12")),
    ("training-rows-boolean", lambda d: d.update(training_rows=True)),
    ("training-rows-string", lambda d: d.update(training_rows="12")),
    ("schema-group-renamed",
     in_schema(lambda s: s["categorical_groups"][4].update(name="stadium"))),
    ("schema-groups-reordered",
     in_schema(lambda s: s["categorical_groups"].reverse())),
    ("schema-numeric-unknown", in_schema(lambda s: s.update(numeric_features=["x", "y"]))),
    ("schema-numeric-reordered", in_schema(lambda s: s["numeric_features"].reverse())),
    ("schema-categories-unsorted", in_schema(set_categories(4, lambda c: c[::-1]))),
    ("schema-category-twice", in_schema(set_categories(4, lambda c: [c[0], *c[:-1]]))),
    ("schema-categories-integers",
     in_schema(set_categories(4, lambda c: list(range(len(c)))))),
    ("fingerprint-zeroed", lambda d: d.update(schema_fingerprint="0" * 64)),
    ("fingerprint-missing", lambda d: d.pop("schema_fingerprint")),
    ("label-convention-away", lambda d: d.update(label_convention="1=away_team_win")),
    ("label-convention-missing", lambda d: d.pop("label_convention")),
]


@pytest.mark.parametrize("command", ["predict", "report"])
@pytest.mark.parametrize("fault", [f[1] for f in DOCUMENT_FAULTS],
                         ids=[f[0] for f in DOCUMENT_FAULTS])
def test_corrupt_document_exit_3(capsys, tmp_path, trained, fault, command):
    path = edited(tmp_path, trained(), fault)
    fails(capsys, predict(path) if command == "predict" else report(tmp_path, path), 3)


FAMILY_CODES = {
    2: ["IngestionError", "InsufficientData", "RankDeficient", "EmptyRoster",
        "ZeroAppearances", "MissingRoster", "LedgerMiss", "EmptyDataset",
        "TooFewRows", "TargetTooLarge"],
    3: ["ModelError", "SingleClassData", "InvalidHyperparameter",
        "NonConvergence", "SchemaMismatch", "VersionMismatch",
        "CorruptDocument", "TooFewPerClass", "BadK"],
    4: ["PredictionInputError"],
}


@pytest.mark.parametrize("code, name", [(c, n) for c, names in FAMILY_CODES.items()
                                        for n in names])
def test_error_family_exit_code(code, name):
    assert getattr(errors, name).exit_code == code


def test_flags_override_the_config_file(capsys, tmp_path):
    cfg = config(tmp_path, f"kind = mlp\nout_dir = {tmp_path / 'cfg'}\n")
    assert main(["train", "--config", cfg, "--kind", "naive_bayes",
                 "--out-dir", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.glob("model_*.json")] == ["model_naive_bayes.json"]
    assert not (tmp_path / "cfg").exists()


def test_console_script_exit_code_without_traceback(tmp_path):
    """The installed entry point's path: ``sys.exit(main())`` in a fresh
    interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "cricpred.cli", *predict(str(tmp_path / "none.json"))],
        capture_output=True, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
