"""Pinned outputs: one registry of cases and one manifest of their sha256.

``CASES`` maps each group, ``family/case``, to a function that returns
``{name: bytes}``: a document's sorted-key JSON, what a command printed,
a file it wrote or, for RFE, the ``repr`` of each result field on its own
line. ``tests/digests.json`` holds the sha256 of every ``group/name`` key
of ``manifest_groups()``. ``digest_test(*families)`` is
the one parametrized test over their groups; a failure names every key
that moved. The test modules hold it once per family, under the test
names the suite had before the manifest existed.

Byte identity holds on one host, numpy build and OpenBLAS kernel: another
OpenBLAS kernel rounds the matrix products of the linear fits, the MLP
and the least-squares points fit differently, and numpy's SIMD dispatch
changes its reductions, down to the split a boosting tree picks. README's
"Pinned outputs" section lists the host-bound keys: those that move under
``OPENBLAS_CORETYPE=Haswell`` and under
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, two settings
that emulate an AVX2-only host on an AVX-512 one. League 101
(``league101``) fits its points model, and every one of its documents
moves under the first, so that family is not in the manifest:
``tools/digests.py`` prints it, and two checkouts are compared on one host
with a ``diff`` of its output.

``tools/digests.py`` imports this module with ``cricpred`` taken from
``PYTHONPATH``, so one copy of the registry digests any checkout's
``src``. ``--write`` rewrites the manifest and prints the keys that
changed.
"""
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import runpy
import tempfile
from pathlib import Path

import pytest

from cricpred.cli import main
from cricpred.dataset import load_matches, load_player_performances
from cricpred.features import rfe_select
from cricpred.models import KINDS, make_spec, serialize, train
from cricpred.scoring import REFERENCE_POINTS_MODEL
from cricpred.strength import PER_MATCH, PER_SEASON, build_ledger

from conftest import (fixture_dataset, fixture_path, planted_signal_dataset,
                      separable_dataset, table_lists)

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "digests.json"
FIXTURE = ["--matches", fixture_path("matches.csv"),
           "--players", fixture_path("players.csv")]
TOSS = ["--home", "CSK", "--away", "RR", "--venue", "Dr DY Patil Sports Academy",
        "--toss-winner", "CSK", "--toss-decision", "bat"]

CASES = {}


def digests(group):
    """``{group/name: sha256}`` of what the group's case returns now."""
    return {f"{group}/{name}": hashlib.sha256(blob).hexdigest()
            for name, blob in CASES[group]().items()}


def manifest_groups():
    """Every group but league 101's, whose bytes are host-bound."""
    return [g for g in CASES if not g.startswith("league101/")]


@functools.cache
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def moved(group):
    """The keys of ``group`` whose digest differs from the manifest's,
    including keys only one of them has."""
    want = {k: v for k, v in manifest().items() if k.startswith(group + "/")}
    got = digests(group)
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def digest_test(*families):
    """The test of every group of ``families``, one parameter per group."""
    groups = [g for g in CASES if g.split("/")[0] in families]

    @pytest.mark.parametrize("group", groups,
                             ids=[g.split("/", 1)[1] for g in groups])
    def test(group):
        keys = moved(group)
        assert not keys, f"moved: {', '.join(keys)}"
    return test


def _json(doc):
    return json.dumps(doc, sort_keys=True).encode()


def _cli(out, *argv):
    """What ``cricpred argv --out-dir out`` prints; it must exit 0."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [str(a) for a in (*argv, "--out-dir", out)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"cricpred {' '.join(argv)} exited {code}: "
                           f"{stderr.getvalue()}")
    return stdout.getvalue().encode()


def _files(out, *names):
    return {name: (out / name).read_bytes() for name in names}


def _in_tmp(case):
    """``case(out, *args)`` with ``out`` a fresh temporary directory."""
    @functools.wraps(case)
    def run(*args):
        with tempfile.TemporaryDirectory() as tmp:
            return case(Path(tmp), *args)
    return run


def _register(group, case, *args):
    CASES[group] = functools.partial(case, *args)


# --- golden: model documents of each kind, trained in process -------------
#
# Each model is pinned twice. ``v4`` is the format_version 4 document
# ``serialize`` writes, where a tree ensemble's node table is four base64
# strings of little-endian bytes: ``<i4`` roots and right children, ``<i2``
# columns and ``<f8`` thresholds, a leaf's threshold holding its value.
# ``v2`` is the same document written as format_version 2, with the table
# as the six JSON lists it had then (``table_lists``); those digests were
# recorded before versions 3 and 4 existed, so every tree and every weight
# is bit-identical across both version bumps.
#
# The tree-ensemble digests pin the trees: a change to the tree learner,
# the split kernels or the boosting loop that alters one threshold, leaf
# value or child order moves them, and so does a change to the table's
# layout. The gradient-boosting digests are unchanged from the depth-first
# grower that breadth-first growth replaced, and equal the digests of
# format_version 1 documents (nested trees) of the same models converted
# to the table, except that ``golden/fixture-gradient_boosting-2``, grown
# at the default ``n_rounds``, was re-recorded when that default went from
# 100 to 50 (``golden/separable-gradient_boosting-4`` sets 30 itself). The
# random-forest digests were re-recorded for
# breadth-first growth: a tree draws the candidate columns of all its open
# nodes at a level in one call, where the depth-first grower drew them
# node by node, and ``golden/fixture-random_forest-0``, the one case grown
# at the default ``min_leaf``, again when that default went from 1 to 5
# (the ``SMALL_FOREST`` cases set ``min_leaf`` 3 themselves). The ``mlp``,
# ``linear_svm``, ``logistic_regression`` and ``naive_bayes`` digests pin
# every weight to the last bit, so a faster training loop must reproduce
# its floating-point operations exactly; their documents differ between
# versions only in ``format_version``. With
# ``format_version`` set back to 1, the ``logistic_regression`` and
# ``naive_bayes`` digests give the version 1 digests; the ``linear_svm``
# digest pins the Newton fit of the squared hinge, which no version 1
# document holds, and was re-recorded when Platt scaling moved onto the
# same Newton loop, which changed only ``platt_a`` and ``platt_b`` (by
# about 1e-9 relative). The ``mlp`` digests were re-recorded when training
# began to stop on held-out validation loss; both cases train to that
# stopping rule, under the default 300-epoch cap. On the fixture's 64
# rows no epoch's validation loss is below the initial parameters', so
# ``golden/fixture-mlp-5`` and ``cli/predict-mlp`` pin the seeded
# initialization, not a trained network. ``golden/separable-mlp-6``,
# ``output/cv-mlp`` (four of its five fold models) and
# ``output/report-mlp`` (28 training rows) pin networks that training
# moved.

SMALL_FOREST = {"max_depth": 6, "min_leaf": 3, "n_trees": 20}
DATASETS = {
    "fixture": fixture_dataset,
    "separable": lambda: separable_dataset(n=300, seed=4),
}


def _golden(source, kind, hyperparameters):
    doc = serialize(train(make_spec(kind, seed=0, **hyperparameters),
                          DATASETS[source]()))
    v4 = _json(doc)
    table_lists(doc["parameters"])
    doc["format_version"] = 2
    return {"v4": v4, "v2": _json(doc)}


for i, (source, kind, hyperparameters) in enumerate([
        ("fixture", "random_forest", {}),
        ("fixture", "random_forest", SMALL_FOREST),
        ("fixture", "gradient_boosting", {}),
        ("separable", "random_forest", SMALL_FOREST),
        ("separable", "gradient_boosting", {"n_rounds": 30}),
        ("fixture", "mlp", {}),
        ("separable", "mlp", {}),
        ("fixture", "linear_svm", {}),
        ("fixture", "logistic_regression", {}),
        ("fixture", "naive_bayes", {})]):
    _register(f"golden/{source}-{kind}-{i}", _golden, source, kind, hyperparameters)


# --- output: what cv --k 5, report (of a model trained with
# --holdout-season 2017, given no players file) and select-features
# --target-count 3 print and write on the fixture at the default seed. A last-digit change in any
# printed or written metric moves a key even where every bound holds.

@_in_tmp
def _cv(out, kind):
    stdout = _cli(out, "cv", *FIXTURE, "--kind", kind, "--k", "5")
    return {"stdout": stdout, **_files(out, f"cv_report_{kind}.csv")}


@_in_tmp
def _report(out, kind):
    _cli(out, "train", *FIXTURE, "--kind", kind, "--holdout-season", "2017")
    stdout = _cli(out, "report", *FIXTURE[:2], "--model", out / f"model_{kind}.json",
                  "--holdout-season", "2017")
    return {"stdout": stdout,
            **_files(out, "holdout_report.csv", "holdout_predictions.csv")}


@_in_tmp
def _select_features(out):
    stdout = _cli(out, "select-features", *FIXTURE, "--target-count", "3")
    return {"stdout": stdout, **_files(out, "feature_ranking.csv")}


for kind in KINDS:
    _register(f"output/cv-{kind}", _cv, kind)
    _register(f"output/report-{kind}", _report, kind)
_register("output/select-features-None", _select_features)


# --- rfe: rfe_select's result, (dataset, target, resamples 5, seed 0). Any
# change to the ranking, a subset's CV accuracy (to the last bit) or a
# bootstrap pick moves it.

def _rfe(data, target):
    result = rfe_select(data(), target, resamples=5, seed=0)
    return {"result": "\n".join(map(repr, dataclasses.astuple(result))).encode()}


_register("rfe/fixture_per_season", _rfe, fixture_dataset, 3)
_register("rfe/fixture_per_match",
          _rfe, functools.partial(fixture_dataset, mode=PER_MATCH), 3)
_register("rfe/planted", _rfe, planted_signal_dataset, 2)


# --- ledger: the fixture's TeamWeightLedger.to_dict() in each mode

def _ledger(mode):
    ledger = build_ledger(REFERENCE_POINTS_MODEL,
                          load_player_performances(fixture_path("players.csv")),
                          load_matches(fixture_path("matches.csv")), mode=mode)
    return {"to_dict": _json(ledger.to_dict())}


for mode in (PER_SEASON, PER_MATCH):
    _register(f"ledger/{mode}", _ledger, mode)


# --- classifiers: naive Bayes on dummy columns only, where the Gaussian
# part has zero width and its log-likelihood term is 0.0 for every row

def _naive_bayes_dummies():
    data = fixture_dataset().subset(("home_team", "venue", "toss_decision"))
    return {"document": _json(serialize(train(make_spec("naive_bayes"), data)))}


_register("classifiers/naive_bayes-dummy-columns-only", _naive_bayes_dummies)


# --- cli: the fixture's other command outputs: ingest, team-weights in
# each mode, and predict of one toss for each kind but gradient boosting,
# whose probability on this toss moves from 0.7311 to 0.7048 with numpy's
# AVX-512 dispatch off (its fixture trees are host-bound: README's
# "Pinned outputs")

@_in_tmp
def _ingest(out):
    return {"stdout": _cli(out, "ingest", *FIXTURE)}


@_in_tmp
def _team_weights(out, mode):
    stdout = _cli(out, "team-weights", *FIXTURE, "--mode", mode)
    return {"stdout": stdout, **_files(out, "team_weights.csv")}


@_in_tmp
def _predict(out, kind):
    _cli(out, "train", *FIXTURE, "--kind", kind)
    return {"stdout": _cli(out, "predict", "--model", out / f"model_{kind}.json",
                           *TOSS)}


_register("cli/ingest", _ingest)
for mode in (PER_SEASON, PER_MATCH):
    _register(f"cli/team-weights-{mode}", _team_weights, mode)
for kind in KINDS:
    if kind != "gradient_boosting":
        _register(f"cli/predict-{kind}", _predict, kind)


# --- league: the CSVs perfbench/league.py writes, on which the benchmark
# and league 101 below run

@functools.cache
def _league():
    """perfbench/league.py's globals; the file is only read."""
    return runpy.run_path(str(ROOT / "perfbench" / "league.py"))


@_in_tmp
def _league_csvs(out, seed):
    _league()["write_league"](seed, out)
    return _files(out, "matches.csv", "players.csv")


for seed in (1, 101):
    _register(f"league/seed-{seed}", _league_csvs, seed)


# --- league101: the pipeline at the paper's scale, with fitted points.
# Every document is host-bound, so the family is not in the manifest.

@_in_tmp
def _league_101(out):
    _league()["write_league"](101, out)
    data = ["--matches", out / "matches.csv", "--players", out / "players.csv"]
    queries = _league()["toss_queries"](101, 10)
    blobs = {}
    for mode in (PER_SEASON, PER_MATCH):
        stdout = _cli(out, "team-weights", *data, "--mode", mode)
        blobs[f"team-weights-{mode}/stdout"] = stdout
        blobs[f"team-weights-{mode}/team_weights.csv"] = (
            out / "team_weights.csv").read_bytes()
    for run, flags in ((PER_SEASON, ["--mode", PER_SEASON]),
                       (PER_MATCH, ["--mode", PER_MATCH]),
                       ("per_match-rfe3", ["--mode", PER_MATCH, "--target-count", "3"])):
        docs = out / run
        _cli(docs, "train", *data, *flags, "--kind", "all", "--holdout-season", "2018")
        for kind in KINDS:
            model = docs / f"model_{kind}.json"
            blobs[f"train-{run}/model_{kind}.json"] = model.read_bytes()
            reported = docs / f"report_{kind}"
            blobs[f"report-{run}-{kind}/stdout"] = _cli(
                reported, "report", *data[:2], "--model", model, "--holdout-season", "2018")
            for name, blob in _files(reported, "holdout_report.csv",
                                     "holdout_predictions.csv").items():
                blobs[f"report-{run}-{kind}/{name}"] = blob
            blobs[f"predict-{run}-{kind}/stdout"] = b"".join(
                _cli(docs, "predict", "--model", model, "--home", q["home"],
                     "--away", q["away"], "--venue", q["venue"],
                     "--toss-winner", q["toss_winner"],
                     "--toss-decision", q["toss_decision"])
                for q in queries)
    return blobs


_register("league101/holdout-2018", _league_101)
