"""Team strength: top-11 player points divided by team appearances.

Two ledger modes are supported. ``per_season`` assigns one weight per
(team, season) from full-season aggregates. ``per_match`` recomputes the
weight before every match from the number of decisive matches the team has
completed so far, pro-rating each player's full-season statistics to that
count. Dropping later matches from the match list leaves a match's weight
unchanged, but neither mode is causal: both read end-of-season player
totals, which include the match being predicted and later ones.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from .dataset import MatchDataset, MatchRecord, PlayerPerformance
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
    scored = [(p.appearances, score_player(points_model, p), p.player) for p in roster]
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    total = sum(points for _, points, _ in scored[:TOP_PLAYERS])
    return total / team_appearances


@dataclass(frozen=True)
class TeamWeightLedger:
    mode: str
    entries: dict = field(default_factory=dict)  # (team, season) or (team, date) -> weight
    seasons: dict = field(default_factory=dict)  # per_match only: (team, date) -> season

    def weight_for(self, team: str, match: MatchRecord) -> float:
        key = (team, match.season) if self.mode == PER_SEASON else (team, match.date)
        try:
            return self.entries[key]
        except KeyError:
            when = match.season if self.mode == PER_SEASON else match.date
            raise LedgerMiss(f"no weight for team {team} at {when}") from None

    def rows(self):
        """(team, season, as_of, weight) tuples sorted by (season, team, as_of)."""
        out = []
        for key, weight in self.entries.items():
            team, when = key
            if self.mode == PER_SEASON:
                out.append((team, when, "season", weight))
            else:
                out.append((team, self.seasons[key], when.isoformat(), weight))
        out.sort(key=lambda r: (r[1], r[0], r[2]))
        return out

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
        import datetime as dt
        entries, seasons = {}, {}
        mode = doc["mode"]
        for row in doc["entries"]:
            if mode == PER_SEASON:
                entries[(row["team"], int(row["season"]))] = float(row["weight"])
            else:
                date = dt.date.fromisoformat(row["as_of"])
                entries[(row["team"], date)] = float(row["weight"])
                seasons[(row["team"], date)] = int(row["season"])
        return cls(mode=mode, entries=entries, seasons=seasons)


def lookup_weights(ledger: TeamWeightLedger, match: MatchRecord):
    """(home_weight, away_weight) for one match."""
    return (ledger.weight_for(match.home_team, match),
            ledger.weight_for(match.away_team, match))


def _roster_index(performances):
    index = {}
    for perf in performances:
        index.setdefault((perf.team, perf.season), []).append(perf)
    return index


def _season_appearance_counts(matches):
    """Decisive matches played by each team, per season."""
    counts = {}
    for m in matches:
        if not m.has_result:
            continue
        for team in (m.home_team, m.away_team):
            counts[(team, m.season)] = counts.get((team, m.season), 0) + 1
    return counts


def _roster_proxy_appearances(roster):
    # Fallback denominator when no decisive matches are available: the most
    # any player appeared is a lower bound on the team's appearances.
    return max(1, max(p.appearances for p in roster))


def _season_weight(points_model, roster, appearances):
    if appearances < 1:
        appearances = _roster_proxy_appearances(roster)
    return team_weight(points_model, roster, appearances)


def _rolling_weight(points_model, roster, matches_so_far):
    """Pro-rated weight: per-season statistics scaled to the season so far."""
    scored = []
    for p in roster:
        played = min(p.appearances, matches_so_far)
        frac = played / p.appearances if p.appearances > 0 else 0.0
        scored.append((played, score_player(points_model, p) * frac, p.player))
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    total = sum(points for _, points, _ in scored[:TOP_PLAYERS])
    return total / matches_so_far


def build_ledger(points_model: PointsModel, performances, dataset: MatchDataset,
                 mode: str = PER_SEASON) -> TeamWeightLedger:
    """Compute team weights for every (team, match context) in the dataset."""
    if mode not in (PER_SEASON, PER_MATCH):
        raise ValueError(f"unknown ledger mode {mode!r}")
    rosters = _roster_index(performances)
    appearance_counts = _season_appearance_counts(dataset.matches)

    season_teams = {}
    for m in dataset.matches:
        for team in (m.home_team, m.away_team):
            season_teams.setdefault(m.season, set()).add(team)

    def roster_of(team, season):
        roster = rosters.get((team, season))
        if not roster:
            raise MissingRoster(f"no performance rows for team {team} in season {season}")
        return roster

    if mode == PER_SEASON:
        entries = {}
        for season, teams in season_teams.items():
            for team in sorted(teams):
                roster = roster_of(team, season)
                appearances = appearance_counts.get((team, season), 0)
                entries[(team, season)] = _season_weight(points_model, roster, appearances)
        return TeamWeightLedger(mode=PER_SEASON, entries=entries)

    # per_match: weights pro-rated to the team's strictly earlier decisive
    # matches within the season. Cold start uses the team's most recent
    # prior-season weight, then the league median of the season's
    # roster-proxy weights, which are built from the current season's
    # full-season rosters.
    season_weights = {}
    for season, teams in season_teams.items():
        for team in sorted(teams):
            roster = rosters.get((team, season))
            if roster:
                appearances = appearance_counts.get((team, season), 0)
                season_weights[(team, season)] = _season_weight(
                    points_model, roster, appearances)

    def cold_start(team, season):
        prior = sorted(s for t, s in season_weights if t == team and s < season)
        if prior:
            return season_weights[(team, prior[-1])]
        proxies = []
        for other in season_teams[season]:
            roster = rosters.get((other, season))
            if roster:
                proxies.append(team_weight(
                    points_model, roster, _roster_proxy_appearances(roster)))
        if not proxies:
            raise MissingRoster(f"no rosters available in season {season}")
        return statistics.median(proxies)

    entries, seasons = {}, {}
    team_dates = {}
    decisive_dates = {}
    for m in dataset.matches:
        for team in (m.home_team, m.away_team):
            team_dates.setdefault((team, m.season), set()).add(m.date)
            if m.has_result:
                decisive_dates.setdefault((team, m.season), []).append(m.date)

    for (team, season), dates in team_dates.items():
        roster = roster_of(team, season)
        played = sorted(decisive_dates.get((team, season), []))
        for date in sorted(dates):
            so_far = sum(1 for d in played if d < date)
            if so_far == 0:
                weight = cold_start(team, season)
            else:
                weight = _rolling_weight(points_model, roster, so_far)
            entries[(team, date)] = weight
            seasons[(team, date)] = season
    return TeamWeightLedger(mode=PER_MATCH, entries=entries, seasons=seasons)
