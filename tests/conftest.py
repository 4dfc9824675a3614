import base64
import importlib.resources

import numpy as np
import pytest

from cricpred.dataset import load_matches, load_player_performances
from cricpred.features import EncodedDataset, FeatureSchema, build_schema, encode
from cricpred.scoring import REFERENCE_POINTS_MODEL
from cricpred.strength import PER_SEASON, build_ledger


def fixture_path(name):
    return str(importlib.resources.files("cricpred.fixtures") / name)


# How a format_version 3 document stores each node-table array: the base64
# of its bytes in this dtype.
TABLE_WIRE = {"roots": "<i4", "feature": "<i4", "threshold": "<f8",
              "left": "<i4", "right": "<i4", "value": "<f8"}


def table_lists(parameters):
    """Turn the node-table arrays stored in a document's ``parameters``
    into JSON lists, in place; other parameters are left alone."""
    for key, dtype in TABLE_WIRE.items():
        if key in parameters:
            raw = base64.b64decode(parameters[key], validate=True)
            parameters[key] = np.frombuffer(raw, dtype).tolist()


def table_strings(parameters):
    """The inverse of ``table_lists``: store the lists again, in place."""
    for key, dtype in TABLE_WIRE.items():
        if key in parameters:
            raw = np.asarray(parameters[key], dtype=dtype).tobytes()
            parameters[key] = base64.b64encode(raw).decode("ascii")


def fixture_dataset(mode=PER_SEASON):
    """The bundled fixture, encoded by the default pipeline."""
    dataset = load_matches(fixture_path("matches.csv"))
    players = load_player_performances(fixture_path("players.csv"))
    ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset, mode=mode)
    return encode(dataset, ledger, build_schema(dataset))


@pytest.fixture(scope="session")
def matches_csv():
    return fixture_path("matches.csv")


@pytest.fixture(scope="session")
def players_csv():
    return fixture_path("players.csv")


def match_like_schema(n_teams=4, n_venues=3):
    teams = tuple(f"T{i:02d}" for i in range(n_teams))
    return FeatureSchema(categorical_groups=(
        ("home_team", teams),
        ("away_team", teams),
        ("toss_winner", teams),
        ("toss_decision", ("bat", "field")),
        ("venue", tuple(f"venue {i}" for i in range(n_venues))),
    ))


def separable_dataset(n=500, seed=0, margin=5.0):
    """Random match-shaped rows whose label is decided by the weight gap.

    The gap between the numeric columns is at least ``margin``, so a
    separating hyperplane exists by construction.
    """
    rng = np.random.default_rng(seed)
    schema = match_like_schema()
    X = np.zeros((n, schema.total_columns))
    slices = schema.group_slices()
    for name, cats in schema.categorical_groups:
        start, stop = slices[name]
        picks = rng.integers(0, len(cats), size=n)
        for i in range(n):
            if picks[i] > 0:
                X[i, start + picks[i] - 1] = 1.0
    base = rng.normal(100.0, 5.0, size=n)
    gap = np.sign(rng.normal(size=n)) * (margin + np.abs(rng.normal(0, 12, size=n)))
    w_home = base + gap / 2
    w_away = base - gap / 2
    s1, _ = slices["home_team_weight"]
    s2, _ = slices["away_team_weight"]
    X[:, s1] = w_home
    X[:, s2] = w_away
    y = (gap > 0).astype(np.int64)
    return EncodedDataset(X=X, y=y, schema=schema,
                          row_ids=tuple(f"m{i}" for i in range(n)))


@pytest.fixture(scope="session")
def separable():
    return separable_dataset()
