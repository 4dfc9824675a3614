"""Team strength: top-11 player points divided by team appearances.

A ledger build scores each player row once with the points model; every
weight below is a top-11 sum over those scored rosters. Both ledger modes
start from one season weight per (team, season): the points of its 11
most-appearing players over its decisive matches that season.
``per_season`` uses that weight for every match of the season.
``per_match`` gives a team, before each match, the weight after its ``k``
strictly earlier decisive matches of the season: each player scores
``points / max(appearances, k)`` (0.0 with no appearances), and the 11
with the most ``min(appearances, k)`` are summed. With ``k = 0`` the team
takes its latest earlier season weight or, in its first season, the
median over the season's teams of their points over the most appearances
of any of their players. Dropping later matches from the match list leaves
a match's weight unchanged, but neither mode is causal: both read
end-of-season player totals, which include the match being predicted and
later ones.

A ledger holds each weight under the key of its row,
``(team, season, as_of)``: ``as_of`` is ``"season"`` in ``per_season`` and
the match date's ``YYYY-MM-DD`` string in ``per_match``. A date that falls
in two of a team's seasons (a season that runs into the next year) keeps
one weight for each. A team serves predictions with its last row in
``rows()`` order, its latest season and date (``latest()``); a model
document stores only those rows.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass, field

from .dataset import MatchDataset, MatchRecord, parse_date
from .errors import EmptyRoster, LedgerMiss, MissingRoster, ZeroAppearances
from .scoring import PointsModel, score_player

PER_SEASON = "per_season"
PER_MATCH = "per_match"
TOP_PLAYERS = 11


def team_weight(points_model: PointsModel, roster, team_appearances: int) -> float:
    """Sum of the top-11 most-appearing players' points over team appearances.

    Ties in appearances break by higher points, then player name.
    """
    if not roster:
        raise EmptyRoster("roster is empty")
    if team_appearances < 1:
        raise ZeroAppearances(f"team_appearances must be >= 1, got {team_appearances}")
    return _season_weight([(p.appearances, score_player(points_model, p), p.player)
                           for p in roster], team_appearances)


def _top_sum(scored):
    """Points summed over the first 11 of ``(appearances, points, player)``
    triples, ordered by most appearances, then higher points, then name."""
    ranked = sorted(scored, key=lambda t: (-t[0], -t[1], t[2]))
    return sum(points for _, points, _ in ranked[:TOP_PLAYERS])


@dataclass(frozen=True)
class TeamWeightLedger:
    mode: str
    # (team, season, as_of) -> weight, keyed as the document stores each
    # row: as_of is "season" (per_season) or the match date's ISO string
    entries: dict = field(default_factory=dict)

    def weight_for(self, team: str, match: MatchRecord) -> float:
        as_of = "season" if self.mode == PER_SEASON else match.date.isoformat()
        try:
            return self.entries[(team, match.season, as_of)]
        except KeyError:
            when = match.season if self.mode == PER_SEASON else as_of
            raise LedgerMiss(f"no weight for team {team} at {when}") from None

    def rows(self):
        """(team, season, as_of, weight) tuples sorted by (season, team, as_of)."""
        return sorted(((team, season, as_of, weight)
                       for (team, season, as_of), weight in self.entries.items()),
                      key=lambda r: (r[1], r[0], r[2]))

    def latest(self):
        """The ledger of each team's last row in ``rows()`` order: the
        weight the team serves predictions with."""
        last = {row[0]: row for row in self.rows()}
        return TeamWeightLedger(self.mode, {row[:3]: row[3] for row in last.values()})

    def to_dict(self):
        return {
            "mode": self.mode,
            "entries": [
                {"team": t, "season": s, "as_of": a, "weight": w}
                for t, s, a, w in self.rows()
            ],
        }

    @classmethod
    def from_dict(cls, doc):
        """Raises ValueError on an unknown mode, a team that is not a
        string, a season that is not an integer, a weight that is not a
        finite JSON number (a string, boolean, null, NaN or infinity), a
        key given twice or, for ``per_match``, an ``as_of`` that is not a
        ``YYYY-MM-DD`` date (TypeError if it is not a string). A
        ``per_season`` row's ``as_of`` is not read."""
        entries = {}
        mode = doc["mode"]
        if mode not in (PER_SEASON, PER_MATCH):
            raise ValueError(f"unknown ledger mode {mode!r}")
        for row in doc["entries"]:
            team, season, weight = row["team"], row["season"], row["weight"]
            if type(team) is not str or type(season) is not int:
                raise ValueError(f"ledger entry for team {team!r}, season {season!r}: "
                                 "the team must be a string, the season an integer")
            if type(weight) not in (int, float) or not math.isfinite(weight):
                raise ValueError(f"team {team!r} has weight {weight!r}, "
                                 "not a finite number")
            as_of = "season"
            if mode == PER_MATCH:
                as_of = row["as_of"]
                parse_date(as_of)
            key = (team, season, as_of)
            if key in entries:
                raise ValueError(f"the ledger holds team {team!r} at "
                                 f"{season if mode == PER_SEASON else as_of} twice")
            entries[key] = float(weight)
        return cls(mode=mode, entries=entries)


def _season_weight(scored, decisive):
    """Top-11 sum of scored ``(appearances, points, player)`` triples over
    ``decisive`` matches. With none, the most any player appeared, a lower
    bound on the team's matches, stands in."""
    if decisive < 1:
        decisive = max(1, max(appearances for appearances, _, _ in scored))
    return _top_sum(scored) / decisive


def _rolling_weight(scored, k):
    """Pro-rated weight after ``k`` decisive matches: the top-11 sum of
    ``points / max(appearances, k)``, ranked by ``min(appearances, k)``."""
    return _top_sum([(min(appearances, k),
                      points / max(appearances, k) if appearances > 0 else 0.0,
                      player)
                     for appearances, points, player in scored])


def build_ledger(points_model: PointsModel, performances, dataset: MatchDataset,
                 mode: str = PER_SEASON) -> TeamWeightLedger:
    """Compute team weights for every (team, match context) in the dataset."""
    if mode not in (PER_SEASON, PER_MATCH):
        raise ValueError(f"unknown ledger mode {mode!r}")
    rosters = {}  # (team, season) -> the roster scored once
    for p in performances:
        rosters.setdefault((p.team, p.season), []).append(
            (p.appearances, score_player(points_model, p), p.player))
    dates, decisive = {}, {}  # (team, season) -> all / decisive match dates
    for m in dataset.matches:
        for team in (m.home_team, m.away_team):
            dates.setdefault((team, m.season), set()).add(m.date)
            played = decisive.setdefault((team, m.season), [])
            if m.has_result:
                played.append(m.date)

    season_weights = {}
    for team, season in sorted(dates, key=lambda key: (key[1], key[0])):
        roster = rosters.get((team, season))
        if not roster:
            raise MissingRoster(f"no performance rows for team {team} in season {season}")
        season_weights[(team, season)] = _season_weight(
            roster, len(decisive[(team, season)]))
    if mode == PER_SEASON:
        return TeamWeightLedger(mode=PER_SEASON, entries={
            (team, season, "season"): weight
            for (team, season), weight in season_weights.items()})

    # Cold start (k = 0); the roster proxies use the current season's rosters.
    def cold_start(team, season):
        prior = [s for t, s in season_weights if t == team and s < season]
        if prior:
            return season_weights[(team, max(prior))]
        return statistics.median(_season_weight(rosters[key], 0)
                                 for key in season_weights if key[1] == season)

    entries = {}
    for (team, season), team_dates in dates.items():
        played = sorted(decisive[(team, season)])
        for date in sorted(team_dates):
            so_far = bisect.bisect_left(played, date)
            if so_far:
                weight = _rolling_weight(rosters[(team, season)], so_far)
            else:
                weight = cold_start(team, season)
            entries[(team, season, date.isoformat())] = weight
    return TeamWeightLedger(mode=PER_MATCH, entries=entries)
