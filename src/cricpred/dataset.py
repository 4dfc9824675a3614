"""Domain types, team set and CSV ingestion for match and player data."""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from dataclasses import dataclass

from .errors import (
    DuplicatePlayer,
    IngestionError,
    InvalidRow,
    MissingColumn,
    NegativeStat,
    NoResult,
    UnknownTeam,
)

NO_RESULT = ""

MATCH_COLUMNS = [
    "match_id", "season", "date", "home_team", "away_team",
    "venue", "toss_winner", "toss_decision", "winner",
]

PLAYER_COLUMNS = [
    "season", "team", "player", "appearances", "wickets", "dot_balls",
    "fours", "sixes", "catches", "stumpings", "official_points",
]

STAT_FIELDS = ["wickets", "dot_balls", "fours", "sixes", "catches", "stumpings"]


# The 13 historical league teams. Five are inactive as of 2018: RPS, DC,
# PWI, GL and KTK.
TEAMS = frozenset({
    "CSK", "DD", "KXIP", "KKR", "MI", "RR", "RCB", "SRH",
    "RPS", "DC", "PWI", "GL", "KTK",
})


def normalize_venue(venue: str) -> str:
    return re.sub(r"\s+", " ", venue.strip())


@dataclass(frozen=True)
class MatchRecord:
    match_id: str
    season: int
    date: dt.date
    home_team: str
    away_team: str
    venue: str
    toss_winner: str
    toss_decision: str  # "bat" or "field"
    winner: str  # acronym, or NO_RESULT

    @property
    def has_result(self) -> bool:
        return self.winner != NO_RESULT


@dataclass(frozen=True)
class PlayerPerformance:
    season: int
    team: str
    player: str
    appearances: int
    wickets: int
    dot_balls: int
    fours: int
    sixes: int
    catches: int
    stumpings: int
    official_points: float | None = None

    def stats(self):
        return (self.wickets, self.dot_balls, self.fours, self.sixes,
                self.catches, self.stumpings)


@dataclass(frozen=True)
class MatchDataset:
    matches: tuple[MatchRecord, ...]

    def decisive(self):
        return [m for m in self.matches if m.has_result]

    def seasons(self):
        return sorted({m.season for m in self.matches})

    def restrict(self, seasons):
        return MatchDataset(tuple(m for m in self.matches if m.season in seasons))


def label_of(match: MatchRecord) -> int:
    """1 when the home team won, 0 when the away team won.

    The 0/1 convention is fixed here and recorded in model metadata.
    """
    if not match.has_result:
        raise NoResult(f"match {match.match_id} has no decisive winner")
    return 1 if match.winner == match.home_team else 0


def _csv_rows(path, required):
    """(row number, row dict) for each data row of a UTF-8 CSV whose header
    has the required columns; the header is row 1. A row with fewer fields
    than the header is an ``InvalidRow``; extra fields are ignored. So is a
    row, the header included, that the ``csv`` module cannot read: an
    unterminated quote, text after a closing quote, or a field above the
    module's size limit."""
    rownum = 0  # the last row read
    try:
        # utf-8-sig drops the byte-order mark a spreadsheet may write first
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh, strict=True)
            if reader.fieldnames is None:
                raise MissingColumn(f"{path}: empty file, no header")
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise MissingColumn(
                    f"{path}: header lacks column(s) {', '.join(missing)}")
            rownum = 1
            for rownum, row in enumerate(reader, start=2):
                if None in row.values():
                    short = [c for c, v in row.items() if v is None]
                    raise InvalidRow(f"{path} row {rownum}: no value for "
                                     f"column(s) {', '.join(short)}")
                yield rownum, row
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise InvalidRow(f"{path} row {rownum + 1}: malformed CSV: {exc}") from None


def _text(row, column, rownum, path):
    """The value of ``column`` without surrounding whitespace; an empty one
    is an ``InvalidRow``."""
    value = row[column].strip()
    if not value:
        raise InvalidRow(f"{path} row {rownum}: {column} is empty")
    return value


def _parse_int(value, column, rownum, path, minimum=None):
    try:
        parsed = int(value)
    except ValueError:
        raise InvalidRow(f"{path} row {rownum}: {column}={value!r} is not an integer") from None
    if minimum is not None and parsed < minimum:
        raise NegativeStat(f"{path} row {rownum}: {column}={parsed} below {minimum}")
    return parsed


def load_matches(path) -> MatchDataset:
    """Load and validate a matches CSV, returning a date-sorted dataset.

    Rows with an empty ``winner`` are retained and flagged via
    ``MatchRecord.has_result``. Unknown columns are ignored.
    """
    matches = []
    seen_ids = {}
    for rownum, row in _csv_rows(path, MATCH_COLUMNS):
        match_id = _text(row, "match_id", rownum, path)
        if match_id in seen_ids:
            raise InvalidRow(
                f"{path} row {rownum}: duplicate match_id {match_id!r} "
                f"(first seen at row {seen_ids[match_id]})")
        seen_ids[match_id] = rownum
        season = _parse_int(row["season"], "season", rownum, path)
        try:
            date = dt.date.fromisoformat(row["date"].strip())
        except ValueError:
            raise InvalidRow(f"{path} row {rownum}: bad date {row['date']!r}") from None
        home = row["home_team"].strip()
        away = row["away_team"].strip()
        toss_winner = row["toss_winner"].strip()
        winner = row["winner"].strip()
        for acr in (home, away, toss_winner) + ((winner,) if winner else ()):
            if acr not in TEAMS:
                raise UnknownTeam(f"{path} row {rownum}: unknown team acronym {acr!r}")
        if home == away:
            raise InvalidRow(f"{path} row {rownum}: home_team equals away_team ({home})")
        if toss_winner not in (home, away):
            raise InvalidRow(
                f"{path} row {rownum}: toss_winner {toss_winner} is not a participant")
        if winner and winner not in (home, away):
            raise InvalidRow(
                f"{path} row {rownum}: winner {winner} is not a participant")
        toss_decision = row["toss_decision"].strip()
        if toss_decision not in ("bat", "field"):
            raise InvalidRow(
                f"{path} row {rownum}: toss_decision must be bat or field, "
                f"got {toss_decision!r}")
        if date.year not in (season, season + 1):
            raise InvalidRow(
                f"{path} row {rownum}: date {date} inconsistent with season {season}")
        matches.append(MatchRecord(
            match_id=match_id, season=season, date=date,
            home_team=home, away_team=away,
            venue=normalize_venue(_text(row, "venue", rownum, path)),
            toss_winner=toss_winner, toss_decision=toss_decision,
            winner=winner))
    matches.sort(key=lambda m: (m.date, m.match_id))
    return MatchDataset(matches=tuple(matches))


def load_player_performances(path):
    """Load per-season player statistics, validating counts and uniqueness."""
    rows = []
    seen = {}
    for rownum, row in _csv_rows(path, PLAYER_COLUMNS):
        season = _parse_int(row["season"], "season", rownum, path)
        team = row["team"].strip()
        if team not in TEAMS:
            raise UnknownTeam(f"{path} row {rownum}: unknown team acronym {team!r}")
        player = _text(row, "player", rownum, path)
        key = (season, team, player)
        if key in seen:
            raise DuplicatePlayer(
                f"{path} row {rownum}: duplicate player {player!r} for "
                f"{team} {season} (first seen at row {seen[key]})")
        seen[key] = rownum
        appearances = _parse_int(row["appearances"], "appearances", rownum, path, minimum=0)
        stats = {f: _parse_int(row[f], f, rownum, path, minimum=0) for f in STAT_FIELDS}
        if appearances == 0 and any(stats.values()):
            raise InvalidRow(
                f"{path} row {rownum}: nonzero statistics with zero appearances")
        points_raw = row["official_points"].strip()
        official = None
        if points_raw:
            try:
                official = float(points_raw)
            except ValueError:
                official = math.nan  # reported as a bad value below
            if official < 0:
                raise NegativeStat(
                    f"{path} row {rownum}: official_points={official} is negative")
            if not math.isfinite(official):
                raise InvalidRow(
                    f"{path} row {rownum}: bad official_points {points_raw!r}")
        rows.append(PlayerPerformance(
            season=season, team=team, player=player,
            appearances=appearances, official_points=official, **stats))
    return rows
