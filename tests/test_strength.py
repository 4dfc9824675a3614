import datetime as dt

import pytest

from cricpred.dataset import MatchDataset, PlayerPerformance
from cricpred.errors import EmptyRoster, LedgerMiss, MissingRoster, ZeroAppearances
from cricpred.scoring import REFERENCE_POINTS_MODEL, PointsModel, score_player
from cricpred.strength import (
    PER_MATCH,
    PER_SEASON,
    TeamWeightLedger,
    build_ledger,
    team_weight,
)
from cricpred.dataset import MatchRecord, load_matches, load_player_performances

from conftest import fixture_path
from pinned import digest_test


def player(name, appearances, dot_balls, season=2018, team="CSK", **stats):
    base = dict(wickets=0, fours=0, sixes=0, catches=0, stumpings=0)
    base.update(stats)
    return PlayerPerformance(season=season, team=team, player=name,
                             appearances=appearances, dot_balls=dot_balls,
                             **base)


def reference_roster(team="CSK", season=2018, target=1017.5):
    """25 players; the 11 most-appearing score exactly `target` points."""
    roster = []
    per_player = target / 11  # 92.5 for the CSK target
    assert per_player == int(per_player) or (per_player * 2) == int(per_player * 2)
    for i in range(10):
        roster.append(player(f"T{i:02d}", appearances=14 - i, season=season,
                             team=team, dot_balls=int(per_player - 3.5), sixes=1))
    last = target - 10 * per_player
    roster.append(player("T10", appearances=4, season=season, team=team,
                         dot_balls=int(last - 3.5), sixes=1))
    for i in range(14):
        roster.append(player(f"F{i:02d}", appearances=2, season=season,
                             team=team, dot_balls=5))
    total = sum(score_player(REFERENCE_POINTS_MODEL, p) for p in
                sorted(roster, key=lambda p: -p.appearances)[:11])
    assert total == target
    return roster


class TestTeamWeight:
    def test_eleven_players(self):
        roster = [player(f"P{i}", appearances=10, dot_balls=100)
                  for i in range(11)]
        assert team_weight(REFERENCE_POINTS_MODEL, roster, 10) == 110.0

    def test_single_player(self):
        roster = [player("Solo", appearances=1, dot_balls=10, wickets=2,
                         fours=3, sixes=1, catches=1)]
        assert team_weight(REFERENCE_POINTS_MODEL, roster, 1) == 30.5

    def test_reference_fixture_value(self):
        roster = reference_roster()
        assert team_weight(REFERENCE_POINTS_MODEL, roster, 10) == 101.75

    def test_empty_roster(self):
        with pytest.raises(EmptyRoster):
            team_weight(REFERENCE_POINTS_MODEL, [], 10)

    def test_zero_appearances(self):
        with pytest.raises(ZeroAppearances):
            team_weight(REFERENCE_POINTS_MODEL, [player("P", 1, 10)], 0)

    def test_tie_break_prefers_higher_points(self):
        strong = [player(f"S{i}", appearances=5, dot_balls=100) for i in range(11)]
        weak = [player(f"A{i}", appearances=5, dot_balls=1) for i in range(11)]
        assert team_weight(REFERENCE_POINTS_MODEL, strong + weak, 10) == 110.0

    def test_small_roster_equals_total_points(self):
        roster = [player(f"P{i}", appearances=3 + i, dot_balls=10 * (i + 1))
                  for i in range(8)]
        total = sum(score_player(REFERENCE_POINTS_MODEL, p) for p in roster)
        assert team_weight(REFERENCE_POINTS_MODEL, roster, 5) == total / 5

    def test_scale_property(self):
        roster = reference_roster()
        scaled = [PlayerPerformance(
            season=p.season, team=p.team, player=p.player,
            appearances=p.appearances, wickets=3 * p.wickets,
            dot_balls=3 * p.dot_balls, fours=3 * p.fours, sixes=3 * p.sixes,
            catches=3 * p.catches, stumpings=3 * p.stumpings) for p in roster]
        assert (team_weight(REFERENCE_POINTS_MODEL, scaled, 10)
                == pytest.approx(3 * 101.75, rel=1e-12))

    def test_monotonicity(self):
        roster = reference_roster()
        base = team_weight(REFERENCE_POINTS_MODEL, roster, 10)
        bumped = list(roster)
        top = max(roster, key=lambda p: p.appearances)
        bumped[bumped.index(top)] = PlayerPerformance(
            season=top.season, team=top.team, player=top.player,
            appearances=top.appearances, wickets=top.wickets + 1,
            dot_balls=top.dot_balls, fours=top.fours, sixes=top.sixes,
            catches=top.catches, stumpings=top.stumpings)
        assert team_weight(REFERENCE_POINTS_MODEL, bumped, 10) >= base


def synthetic_matches(season, n, teams=("AAA", "BBB"), start=None):
    start = start or dt.date(season, 4, 1)
    matches = []
    for i in range(n):
        home, away = (teams[0], teams[1]) if i % 2 == 0 else (teams[1], teams[0])
        matches.append(MatchRecord(
            match_id=f"s{season}m{i}", season=season,
            date=start + dt.timedelta(days=i), home_team=home, away_team=away,
            venue="V", toss_winner=home, toss_decision="bat",
            winner=home if i % 3 else away))
    return matches


def two_team_dataset(seasons_n):
    matches = []
    for season, n in seasons_n:
        matches += synthetic_matches(season, n)
    return MatchDataset(matches=tuple(sorted(matches, key=lambda m: m.date)))


def two_team_players(seasons, sum_a=1400.0, sum_b=700.0):
    players = []
    for season in seasons:
        for team, total in (("AAA", sum_a), ("BBB", sum_b)):
            per = total / 7
            assert per == int(per)
            players += [player(f"{team}{season}P{i}", appearances=10 + i,
                               dot_balls=int(per), season=season, team=team)
                        for i in range(7)]
    return players


class TestLedger:
    def test_fixture_per_season(self, matches_csv, players_csv):
        dataset = load_matches(matches_csv)
        players = load_player_performances(players_csv)
        ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                              mode=PER_SEASON)
        for m in dataset.matches:
            if m.season != 2017:
                continue
            weights = {team: ledger.weight_for(team, m)
                       for team in (m.home_team, m.away_team)}
            if "CSK" in weights:
                assert weights["CSK"] == 101.75
            if "RR" in weights:
                assert weights["RR"] == 123.65625

    def test_per_season_direct_value(self):
        dataset = two_team_dataset([(2018, 14)])
        players = two_team_players([2018])
        ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                              mode=PER_SEASON)
        assert ledger.entries[("AAA", 2018, "season")] == 100.0
        for m in dataset.matches:
            assert ledger.weight_for("AAA", m) == 100.0

    def test_missing_roster(self):
        dataset = two_team_dataset([(2018, 4)])
        players = [p for p in two_team_players([2018]) if p.team == "AAA"]
        with pytest.raises(MissingRoster, match="BBB"):
            build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                         mode=PER_SEASON)

    def test_missing_roster_per_match(self):
        # BBB has a 2017 weight for the cold start, but no 2018 roster
        dataset = two_team_dataset([(2017, 4), (2018, 4)])
        players = [p for p in two_team_players([2017, 2018])
                   if (p.team, p.season) != ("BBB", 2018)]
        with pytest.raises(MissingRoster, match="BBB in season 2018"):
            build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                         mode=PER_MATCH)

    def test_ledger_miss(self):
        dataset = two_team_dataset([(2018, 4)])
        players = two_team_players([2018])
        ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                              mode=PER_SEASON)
        stray = MatchRecord("x", 2019, dt.date(2019, 4, 1), "AAA", "BBB",
                            "V", "AAA", "bat", "AAA")
        with pytest.raises(LedgerMiss, match="AAA at 2019"):
            ledger.weight_for("AAA", stray)

    def test_symmetric_weights(self):
        dataset = two_team_dataset([(2018, 6)])
        players = two_team_players([2018], sum_a=1400.0, sum_b=1400.0)
        ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                              mode=PER_SEASON)
        m = dataset.matches[0]
        assert ledger.weight_for(m.home_team, m) == ledger.weight_for(m.away_team, m)

    def test_per_match_cold_start_previous_season(self):
        dataset = two_team_dataset([(2017, 10), (2018, 10)])
        players = two_team_players([2017, 2018])
        ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                              mode=PER_MATCH)
        per_season = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                                  mode=PER_SEASON)
        first_2018 = min(m.date for m in dataset.matches if m.season == 2018)
        assert (ledger.entries[("AAA", 2018, first_2018.isoformat())]
                == per_season.entries[("AAA", 2017, "season")])

    def test_per_match_causality_truncation(self):
        # weight attached to a match is unchanged when every later match is
        # removed from the dataset
        dataset = two_team_dataset([(2017, 10), (2018, 20)])
        players = two_team_players([2017, 2018])
        full = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                            mode=PER_MATCH)
        for m in dataset.matches:
            truncated = MatchDataset(
                matches=tuple(x for x in dataset.matches if x.date <= m.date))
            part = build_ledger(REFERENCE_POINTS_MODEL, players, truncated,
                                mode=PER_MATCH)
            for team in (m.home_team, m.away_team):
                assert part.weight_for(team, m) == full.weight_for(team, m)

    def test_per_match_weight_steady_while_top_players_cover_k(self):
        # While every top-11 player has at least k appearances, each scores
        # points / appearances whatever k is, so the weight is bit-identical
        dataset = two_team_dataset([(2018, 14)])
        players = [player(f"{team}P{i}", appearances=19, dot_balls=41 + 13 * i,
                          wickets=i % 4, fours=i % 3, team=team)
                   for team in ("AAA", "BBB") for i in range(11)]
        ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                              mode=PER_MATCH)
        for team in ("AAA", "BBB"):
            weights = {ledger.weight_for(team, m) for m in dataset.matches[1:]}
            assert len(weights) == 1

    def test_rows_sorted(self):
        dataset = two_team_dataset([(2017, 4), (2018, 4)])
        players = two_team_players([2017, 2018])
        ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                              mode=PER_MATCH)
        rows = ledger.rows()
        assert rows == sorted(rows, key=lambda r: (r[1], r[0], r[2]))

    def test_per_match_date_in_two_seasons(self, tmp_path):
        """A season that runs into the next year can share a date with the
        next season. Each season's match on that date reads its own
        season's weight, the one a build of that season alone gives."""
        path = tmp_path / "matches.csv"
        path.write_text(
            "match_id,season,date,home_team,away_team,venue,toss_winner,"
            "toss_decision,winner\n"
            "a,2017,2017-04-01,CSK,RR,V,CSK,bat,CSK\n"
            "b,2017,2017-04-02,RR,CSK,V,RR,bat,RR\n"
            "c,2017,2018-01-05,CSK,RR,V,CSK,bat,CSK\n"
            "d,2018,2018-01-05,RR,CSK,V,RR,bat,RR\n", encoding="utf-8")
        dataset = load_matches(path)
        players = [player(f"{team}{season}P{i}", appearances=1 + i % 3,
                          dot_balls=7 * i + (50 if team == "CSK" else 10),
                          season=season, team=team)
                   for season in (2017, 2018) for team in ("CSK", "RR")
                   for i in range(4)]
        full = build_ledger(REFERENCE_POINTS_MODEL, players, dataset, mode=PER_MATCH)
        alone = build_ledger(REFERENCE_POINTS_MODEL, players,
                             dataset.restrict({2017}), mode=PER_MATCH)
        assert len(full.entries) == 8
        for m in dataset.matches[:3]:
            for team in ("CSK", "RR"):
                assert full.weight_for(team, m) == alone.weight_for(team, m)
        restored = TeamWeightLedger.from_dict(full.to_dict())
        assert restored.entries == full.entries
        # each team serves its 2018 weight, not its 2017 one of the same date
        assert [row[:3] for row in full.latest().rows()] == [
            ("CSK", 2018, "2018-01-05"), ("RR", 2018, "2018-01-05")]

    def test_round_trip_serialization(self):
        dataset = two_team_dataset([(2018, 6)])
        players = two_team_players([2018])
        for mode in (PER_SEASON, PER_MATCH):
            ledger = build_ledger(REFERENCE_POINTS_MODEL, players, dataset,
                                  mode=mode)
            restored = TeamWeightLedger.from_dict(ledger.to_dict())
            assert restored.entries == ledger.entries
            assert restored.mode == ledger.mode


# the sorted-key JSON of the fixture's ``TeamWeightLedger.to_dict()``
test_fixture_ledger_digest = digest_test("ledger")


@pytest.mark.parametrize("mode", [PER_SEASON, PER_MATCH])
def test_build_scores_each_player_once(monkeypatch, mode):
    """A build scores each player row once, however many match dates
    its team's weights are computed for."""
    import cricpred.strength

    calls = []

    def counting(model, perf):
        calls.append(perf)
        return score_player(model, perf)

    monkeypatch.setattr(cricpred.strength, "score_player", counting)
    players = load_player_performances(fixture_path("players.csv"))
    build_ledger(REFERENCE_POINTS_MODEL, players,
                 load_matches(fixture_path("matches.csv")), mode=mode)
    assert len(calls) == len(players)
