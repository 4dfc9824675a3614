import base64
import csv
import importlib.resources

import numpy as np
import pytest

from cricpred.cli import main
from cricpred.dataset import load_matches, load_player_performances
from cricpred.features import EncodedDataset, FeatureSchema, training_matrix
from cricpred.strength import PER_MATCH, PER_SEASON


def fixture_path(name):
    return str(importlib.resources.files("cricpred.fixtures") / name)


# How a format_version 4 document stores a node table: four arrays, each
# the base64 of its bytes in this dtype. ``left`` is implied, and a leaf
# (``right`` is itself) keeps its value in ``threshold``.
TABLE_WIRE = {"roots": "<i4", "feature": "<i2", "threshold": "<f8", "right": "<i4"}


def stored_lists(parameters):
    """Turn the node-table arrays stored in a document's ``parameters``
    into JSON lists, in place; other parameters are left alone."""
    for key, dtype in TABLE_WIRE.items():
        if key in parameters:
            raw = base64.b64decode(parameters[key], validate=True)
            parameters[key] = np.frombuffer(raw, dtype).tolist()


def stored_strings(parameters):
    """The inverse of ``stored_lists``: store the lists again, in place."""
    for key, dtype in TABLE_WIRE.items():
        if key in parameters:
            raw = np.asarray(parameters[key], dtype=dtype).tobytes()
            parameters[key] = base64.b64encode(raw).decode("ascii")


def table_lists(parameters):
    """Turn the node table stored in a document's ``parameters`` into the
    six JSON lists of a format_version 2 table, in place (``grown_lists``).
    Other parameters are left alone."""
    stored_lists(parameters)
    if "right" in parameters:
        grown_lists(parameters)


def grown_lists(table):
    """Rebuild, in place, the six lists of a grown node table from the
    four stored ones in ``table``: an internal node's ``left`` is the next
    node and its ``value`` 0.0, and a leaf's ``left`` is itself, its
    ``value`` the stored threshold and its ``threshold`` 0.0."""
    leaf = [child == i for i, child in enumerate(table["right"])]
    threshold = table["threshold"]
    table["left"] = [i if is_leaf else i + 1 for i, is_leaf in enumerate(leaf)]
    table["value"] = [t if is_leaf else 0.0 for t, is_leaf in zip(threshold, leaf)]
    table["threshold"] = [0.0 if is_leaf else t for t, is_leaf in zip(threshold, leaf)]


def fixture_dataset(mode=PER_SEASON):
    """The bundled fixture, encoded as ``cv`` encodes it."""
    return training_matrix(load_matches(fixture_path("matches.csv")),
                           load_player_performances(fixture_path("players.csv")),
                           mode)[0]


def official_players(tmp_path, rows=None, stumpings=None, first=None):
    """A copy of the fixture's players CSV with official points on the
    first ``rows`` player rows (all when None), with every ``stumpings``
    replaced when it is given, and the first row's points ``first`` when
    that is given."""
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
    if first is not None:
        players[0]["official_points"] = first
    path = tmp_path / "players.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(players[0]))
        writer.writeheader()
        writer.writerows(players)
    return str(path)


@pytest.fixture(scope="session")
def matches_csv():
    return fixture_path("matches.csv")


@pytest.fixture(scope="session")
def players_csv():
    return fixture_path("players.csv")


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    """``trained(kind, mode)``: the path of the document that ``train --kind
    all --mode mode --holdout-season 2017`` writes for the fixture, by
    default the ``per_season`` logistic regression, so that ``report`` on
    2017 is a holdout report. Each mode is trained once a session; a test
    that edits a document edits a copy."""
    out = tmp_path_factory.mktemp("trained")
    for mode in (PER_SEASON, PER_MATCH):
        assert main(["train", "--matches", fixture_path("matches.csv"),
                     "--players", fixture_path("players.csv"), "--kind", "all",
                     "--mode", mode, "--holdout-season", "2017",
                     "--out-dir", str(out / mode)]) == 0

    def document(kind="logistic_regression", mode=PER_SEASON):
        return str(out / mode / f"model_{kind}.json")
    return document


def match_like_schema(n_teams=4, n_venues=3):
    teams = tuple(f"T{i:02d}" for i in range(n_teams))
    return FeatureSchema(categorical_groups=(
        ("home_team", teams),
        ("away_team", teams),
        ("toss_winner", teams),
        ("toss_decision", ("bat", "field")),
        ("venue", tuple(f"venue {i}" for i in range(n_venues))),
    ))


def random_rows(n, rng, schema):
    """``n`` rows of ``schema``'s columns, each dummy block set at a
    category drawn from ``rng``, group by group; numeric columns zero."""
    X = np.zeros((n, schema.total_columns))
    for (_, cats), start in zip(schema.categorical_groups, schema.edges):
        picks = rng.integers(0, len(cats), size=n)
        hot = np.flatnonzero(picks)
        X[hot, start + picks[hot] - 1] = 1.0
    return X


def separable_dataset(n=500, seed=0, margin=5.0):
    """Random match-shaped rows whose label is decided by the weight gap.

    The gap between the numeric columns is at least ``margin``, so a
    separating hyperplane exists by construction.
    """
    rng = np.random.default_rng(seed)
    schema = match_like_schema()
    X = random_rows(n, rng, schema)
    base = rng.normal(100.0, 5.0, size=n)
    gap = np.sign(rng.normal(size=n)) * (margin + np.abs(rng.normal(0, 12, size=n)))
    slices = schema.group_slices()
    X[:, slices["home_team_weight"][0]] = base + gap / 2
    X[:, slices["away_team_weight"][0]] = base - gap / 2
    y = (gap > 0).astype(np.int64)
    return EncodedDataset(X=X, y=y, schema=schema,
                          row_ids=tuple(f"m{i}" for i in range(n)))


def planted_signal_dataset(n=240, seed=0):
    """Labels depend only on toss_decision and home_team_weight."""
    rng = np.random.default_rng(seed)
    schema = match_like_schema()
    X = random_rows(n, rng, schema)
    slices = schema.group_slices()
    toss_col, w1_col, w2_col = (slices[name][0] for name in (
        "toss_decision", "home_team_weight", "away_team_weight"))
    X[:, w1_col] = rng.normal(100, 15, n)
    X[:, w2_col] = rng.normal(100, 15, n)
    score = 0.3 * (X[:, w1_col] - 100) + 6.0 * X[:, toss_col] - 3.0
    y = (score > 0).astype(np.int64)
    return EncodedDataset(X=X, y=y, schema=schema,
                          row_ids=tuple(f"m{i}" for i in range(n)))


@pytest.fixture(scope="session")
def separable():
    return separable_dataset()
