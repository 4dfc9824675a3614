"""Seeded synthetic league at the paper's scale, written as the two CSVs
the cricpred CLI reads.

Shape: 11 seasons of the 8 active teams, a double round-robin each season
(56 matches, 616 in all), about 2% washouts, 23 players per team-season
(2024 player rows) and 13 venues (8 home grounds, 5 neutral ones). Encoded
by the default pipeline this is about a 604 x 36 matrix.

Properties the benchmark relies on:

* ``official_points`` are the reference scoring formula plus Gaussian
  noise, so ``fit_points_model`` solves a real least-squares problem
  instead of recovering the coefficients exactly.
* Each team carries a latent strength that drifts from season to season.
  It scales the players' statistics, and so the team weights, and it sets
  the home side's win probability. Classifiers therefore land above chance
  and the trees grow to realistic depths.
* Each of the 5 neutral venues hosts about one match in eight, so all 13
  venues appear in the ten training seasons (a venue is missing from all
  of them with probability about 1e-6) and toss-time queries over the
  venues raise no unseen-category warning.

Everything is drawn from ``random.Random`` seeded by the workload seed, so
the same seed gives byte-identical CSVs on any platform.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import random
from pathlib import Path

TEAMS = ["CSK", "DD", "KXIP", "KKR", "MI", "RR", "RCB", "SRH"]
HOME_VENUE = {
    "CSK": "MA Chidambaram Stadium",
    "DD": "Feroz Shah Kotla",
    "KXIP": "Punjab Cricket Association Stadium",
    "KKR": "Eden Gardens",
    "MI": "Wankhede Stadium",
    "RR": "Sawai Mansingh Stadium",
    "RCB": "M Chinnaswamy Stadium",
    "SRH": "Rajiv Gandhi International Stadium",
}
NEUTRAL_VENUES = [
    "Brabourne Stadium", "Dr DY Patil Sports Academy", "Holkar Cricket Stadium",
    "Barabati Stadium", "Sheikh Zayed Stadium",
]
FIRST_SEASON = 2008
SEASONS = 11
LAST_SEASON = FIRST_SEASON + SEASONS - 1  # the holdout season
PLAYERS_PER_TEAM = 23
NEUTRAL_SHARE = 0.12
WASHOUT_SHARE = 0.02

# The reference scoring formula; official points add noise around it.
BETA = {"wickets": 3.5, "dot_balls": 1.0, "fours": 2.5, "sixes": 3.5,
        "catches": 2.5, "stumpings": 2.5}
POINTS_NOISE_SD = 4.0

MATCH_FIELDS = ["match_id", "season", "date", "home_team", "away_team",
                "venue", "toss_winner", "toss_decision", "winner"]
PLAYER_FIELDS = ["season", "team", "player", "appearances", *BETA,
                 "official_points"]


def _strengths(rng):
    """(team, season) -> latent strength, an AR(1) walk per team."""
    out = {}
    for team in TEAMS:
        s = rng.gauss(0.0, 1.0)
        for season in range(FIRST_SEASON, LAST_SEASON + 1):
            out[(team, season)] = s
            s = 0.6 * s + 0.8 * rng.gauss(0.0, 1.0)
    return out


def _schedule(season, rng, strength):
    pairs = [(h, a) for h in TEAMS for a in TEAMS if h != a]
    rng.shuffle(pairs)
    date = dt.date(season, 4, 5)
    rows = []
    for i, (home, away) in enumerate(pairs):
        venue = (rng.choice(NEUTRAL_VENUES) if rng.random() < NEUTRAL_SHARE
                 else HOME_VENUE[home])
        toss_winner = home if rng.random() < 0.5 else away
        # sides that win the toss mostly choose to field
        toss_decision = "field" if rng.random() < 0.65 else "bat"
        edge = 1.3 * (strength[(home, season)] - strength[(away, season)])
        edge += 0.25 if venue == HOME_VENUE[home] else 0.0
        p_home = 1.0 / (1.0 + math.exp(-edge))
        winner = home if rng.random() < p_home else away
        if rng.random() < WASHOUT_SHARE:
            winner = ""
        rows.append({
            "match_id": f"{season}-{i + 1:03d}", "season": season,
            "date": date.isoformat(), "home_team": home, "away_team": away,
            "venue": venue, "toss_winner": toss_winner,
            "toss_decision": toss_decision, "winner": winner,
        })
        date += dt.timedelta(days=1)
    return rows


def _roster(team, season, rng, strength, matches_played):
    scale = math.exp(0.25 * strength)
    rows = []
    for i in range(PLAYERS_PER_TEAM):
        regular = i < 13
        appearances = (rng.randint(max(1, matches_played - 5), matches_played)
                       if regular else rng.randint(1, 6))
        bowler = rng.random() < 0.5
        per_game = {
            "wickets": 1.1 if bowler else 0.15,
            "dot_balls": 9.0 if bowler else 1.0,
            "fours": 0.6 if bowler else 2.4,
            "sixes": 0.2 if bowler else 1.0,
            "catches": 0.4,
            "stumpings": 0.15 if i == 0 else 0.0,
        }
        stats = {k: max(0, round(rng.gauss(v * scale * appearances,
                                           0.3 * v * appearances + 0.5)))
                 for k, v in per_game.items()}
        exact = sum(BETA[k] * v for k, v in stats.items())
        official = max(0.0, exact + rng.gauss(0.0, POINTS_NOISE_SD))
        rows.append({"season": season, "team": team,
                     "player": f"{team}{season}P{i + 1:02d}",
                     "appearances": appearances, **stats,
                     "official_points": f"{official:.2f}"})
    return rows


def generate(seed):
    """(match rows, player rows) for one seed."""
    rng = random.Random(seed)
    strength = _strengths(rng)
    matches, players = [], []
    for season in range(FIRST_SEASON, LAST_SEASON + 1):
        season_matches = _schedule(season, rng, strength)
        matches.extend(season_matches)
        for team in TEAMS:
            played = sum(1 for m in season_matches
                         if team in (m["home_team"], m["away_team"]))
            players.extend(_roster(team, season, rng, strength[(team, season)],
                                   played))
    return matches, players


def write_league(seed, out_dir):
    """Write matches.csv and players.csv under ``out_dir``."""
    matches, players = generate(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, fields, rows in (("matches.csv", MATCH_FIELDS, matches),
                               ("players.csv", PLAYER_FIELDS, players)):
        with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)


def toss_queries(seed, count):
    """Seeded toss-time queries over the teams and venues of the league."""
    rng = random.Random(f"toss-queries:{seed}")
    venues = sorted(HOME_VENUE.values()) + sorted(NEUTRAL_VENUES)
    queries = []
    for _ in range(count):
        home, away = rng.sample(TEAMS, 2)
        queries.append({
            "home": home, "away": away, "venue": rng.choice(venues),
            "toss_winner": rng.choice((home, away)),
            "toss_decision": rng.choice(("bat", "field")),
        })
    return queries
