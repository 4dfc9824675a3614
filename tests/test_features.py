import datetime as dt
import itertools

import numpy as np
import pytest

from cricpred.dataset import TEAMS, MatchDataset, MatchRecord
from cricpred.errors import EmptyDataset, TargetTooLarge, TooFewRows
from cricpred.features import (
    EncodedDataset,
    FeatureSchema,
    build_schema,
    decode_row,
    encode,
    encode_values,
    rfe_select,
)
from cricpred.scoring import REFERENCE_POINTS_MODEL
from cricpred.strength import PER_SEASON, build_ledger

from conftest import match_like_schema, planted_signal_dataset
from pinned import digest_test


def make_match(i, home, away, toss, decision, venue, winner, season=2018):
    return MatchRecord(f"m{i}", season, dt.date(season, 4, 1 + i), home, away,
                       venue, toss, decision, winner)


def all_teams_dataset():
    teams = sorted(TEAMS)
    matches = []
    i = 0
    for home in teams:
        for away in teams:
            if home == away:
                continue
            matches.append(MatchRecord(
                f"m{i}", 2018, dt.date(2018, 4, 1) + dt.timedelta(days=i % 50),
                home, away, f"venue {i % 4}", home,
                "bat" if i % 2 else "field", home if i % 3 else away))
            i += 1
    return MatchDataset(matches=tuple(sorted(matches, key=lambda m: m.date)))


class TestBuildSchema:
    def test_five_groups_two_numeric(self):
        schema = build_schema(all_teams_dataset())
        assert [n for n, _ in schema.categorical_groups] == [
            "home_team", "away_team", "toss_winner", "toss_decision", "venue"]
        assert schema.numeric_features == ("home_team_weight", "away_team_weight")

    def test_toss_decision_one_column(self):
        schema = build_schema(all_teams_dataset())
        slices = schema.group_slices()
        start, stop = slices["toss_decision"]
        assert stop - start == 1

    def test_thirteen_home_teams_twelve_columns(self):
        schema = build_schema(all_teams_dataset())
        start, stop = schema.group_slices()["home_team"]
        assert stop - start == 12

    def test_single_venue_zero_columns(self):
        matches = (make_match(0, "CSK", "RR", "CSK", "bat", "V", "CSK"),
                   make_match(1, "RR", "CSK", "RR", "field", "V", "RR"))
        schema = build_schema(MatchDataset(matches=matches))
        start, stop = schema.group_slices()["venue"]
        assert stop - start == 0

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            build_schema(MatchDataset(matches=()))

    def test_dropped_is_lexicographically_first(self):
        schema = build_schema(all_teams_dataset())
        for _, cats in schema.categorical_groups:
            assert cats[0] == min(cats)

    def test_fingerprint_stable(self):
        a = build_schema(all_teams_dataset())
        b = build_schema(all_teams_dataset())
        assert a.fingerprint() == b.fingerprint()

    def test_every_subset_schema_loads(self):
        """``from_dict`` accepts each schema that ``build_schema`` and
        ``subset`` make, and gives it back unchanged."""
        schema = build_schema(all_teams_dataset())
        data = EncodedDataset(X=np.zeros((0, schema.total_columns)),
                              y=np.zeros(0, dtype=np.int64), schema=schema, row_ids=())
        names = schema.feature_names()
        for size in range(1, len(names) + 1):
            for kept in itertools.combinations(names, size):
                schema = data.subset(kept).schema
                assert FeatureSchema.from_dict(schema.to_dict()) == schema

    @pytest.mark.parametrize("categories", [[], "abc", ["bat", "bat"], ["field", "bat"],
                                            [1, 2]])
    def test_from_dict_rejects_categories(self, categories):
        doc = match_like_schema().to_dict()
        doc["categorical_groups"][3]["categories"] = categories
        with pytest.raises(ValueError, match="toss_decision"):
            FeatureSchema.from_dict(doc)


class TestEncode:
    def test_dropped_category_all_zero_block(self):
        schema = match_like_schema()
        row = encode_values(
            schema,
            {"home_team": "T00", "away_team": "T01", "toss_winner": "T00",
             "toss_decision": "bat", "venue": "venue 0"},
            {"home_team_weight": 1.0, "away_team_weight": 2.0})
        start, stop = schema.group_slices()["toss_decision"]
        assert not row[start:stop].any()

    def test_unseen_category_warns(self):
        schema = match_like_schema()
        with pytest.warns(UserWarning, match="unseen venue"):
            row = encode_values(
                schema,
                {"home_team": "T00", "away_team": "T01", "toss_winner": "T00",
                 "toss_decision": "bat", "venue": "never seen"},
                {"home_team_weight": 1.0, "away_team_weight": 2.0})
        start, stop = schema.group_slices()["venue"]
        assert not row[start:stop].any()

    def test_fixture_weight_cells(self, matches_csv, players_csv):
        from cricpred.dataset import load_matches, load_player_performances
        dataset = load_matches(matches_csv)
        players = load_player_performances(players_csv)
        ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                              mode=PER_SEASON)
        schema = build_schema(dataset)
        encoded = encode(dataset, ledger, schema)
        slices = schema.group_slices()
        w1_col = slices["home_team_weight"][0]
        w2_col = slices["away_team_weight"][0]
        by_id = dict(zip(encoded.row_ids, range(len(encoded.row_ids))))
        found = False
        for m in dataset.decisive():
            if m.season == 2017 and m.home_team == "CSK" and m.away_team == "RR":
                i = by_id[m.match_id]
                assert encoded.X[i, w1_col] == 101.75
                assert encoded.X[i, w2_col] == 123.65625
                found = True
        assert found

    def test_rows_differ_only_in_home_block(self):
        schema = match_like_schema()
        common = {"away_team": "T01", "toss_winner": "T01",
                  "toss_decision": "field", "venue": "venue 1"}
        numeric = {"home_team_weight": 5.0, "away_team_weight": 6.0}
        a = encode_values(schema, {"home_team": "T02", **common}, numeric)
        b = encode_values(schema, {"home_team": "T03", **common}, numeric)
        start, stop = schema.group_slices()["home_team"]
        diff = np.flatnonzero(a != b)
        assert len(diff) > 0 and all(start <= c < stop for c in diff)

    def test_round_trip_1000_random_rows(self):
        schema = match_like_schema(n_teams=13, n_venues=6)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            values = {name: cats[rng.integers(0, len(cats))]
                      for name, cats in schema.categorical_groups}
            row = encode_values(schema, values, {"home_team_weight": 0.0,
                                                 "away_team_weight": 0.0})
            assert decode_row(schema, row) == values

    def test_dummy_trap_guard(self):
        dataset = all_teams_dataset()
        schema = build_schema(dataset)
        for name, cats in schema.categorical_groups:
            start, stop = schema.group_slices()[name]
            assert stop - start == len(cats) - 1
        # with >= 2 categories present, the sum of a group's columns is not
        # the constant-one vector (the dropped category yields a zero row)
        ledger = build_ledger(
            REFERENCE_POINTS_MODEL,
            [_perf(t) for t in sorted(TEAMS)],
            dataset, mode=PER_SEASON)
        encoded = encode(dataset, ledger, schema)
        for name, cats in schema.categorical_groups:
            if len(cats) < 2:
                continue
            start, stop = schema.group_slices()[name]
            block_sum = encoded.X[:, start:stop].sum(axis=1)
            assert not np.all(block_sum == 1.0)

    def test_no_result_rows_excluded(self):
        matches = (make_match(0, "CSK", "RR", "CSK", "bat", "V", "CSK"),
                   make_match(1, "RR", "CSK", "RR", "field", "V", ""))
        dataset = MatchDataset(matches=matches)
        ledger = build_ledger(REFERENCE_POINTS_MODEL,
                              [_perf("CSK"), _perf("RR")], dataset,
                              mode=PER_SEASON)
        encoded = encode(dataset, ledger, build_schema(dataset))
        assert encoded.row_ids == ("m0",)


def _perf(team, season=2018):
    from cricpred.dataset import PlayerPerformance
    return PlayerPerformance(season=season, team=team, player=f"{team}P",
                             appearances=10, wickets=1, dot_balls=50, fours=5,
                             sixes=2, catches=1, stumpings=0)


class TestRfe:
    def test_planted_signal_selected(self):
        result = rfe_select(planted_signal_dataset(), target_count=2,
                            resamples=0, seed=0)
        assert set(result.selected) == {"toss_decision", "home_team_weight"}

    def test_target_equals_feature_count(self):
        data = planted_signal_dataset()
        result = rfe_select(data, target_count=7, resamples=0, seed=0)
        assert set(result.selected) == set(data.schema.feature_names())
        assert sorted(result.ranking) == sorted(data.schema.feature_names())

    def test_deterministic(self):
        data = planted_signal_dataset()
        a = rfe_select(data, target_count=2, resamples=2, seed=5)
        b = rfe_select(data, target_count=2, resamples=2, seed=5)
        assert a == b

    def test_monotone_elimination(self):
        data = planted_signal_dataset()
        result = rfe_select(data, target_count=3, resamples=0, seed=1)
        assert sorted(result.ranking) == sorted(data.schema.feature_names())
        assert result.selected == result.ranking[:3]
        sizes = [s for s, _ in result.per_subset_scores]
        assert sizes == list(range(7, 0, -1))

    def test_too_few_rows(self):
        data = planted_signal_dataset(n=240)
        small = EncodedDataset(X=data.X[:10], y=data.y[:10],
                               schema=data.schema, row_ids=data.row_ids[:10])
        with pytest.raises(TooFewRows):
            rfe_select(small, target_count=2)

    def test_target_too_large(self):
        with pytest.raises(TargetTooLarge):
            rfe_select(planted_signal_dataset(), target_count=8)

    def test_subset_restricts_columns(self):
        data = planted_signal_dataset()
        reduced = data.subset(("toss_decision", "home_team_weight"))
        assert reduced.schema.feature_names() == ["toss_decision",
                                                  "home_team_weight"]
        assert reduced.X.shape == (data.X.shape[0], 2)


# rfe_select's result on the fixture in both modes and on the planted data
test_rfe_result_digest = digest_test("rfe")
