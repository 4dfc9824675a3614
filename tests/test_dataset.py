import datetime as dt
import random
from pathlib import Path

import pytest

from cricpred import dataset as ds
from cricpred.errors import (
    DuplicatePlayer,
    InvalidRow,
    MissingColumn,
    NegativeStat,
    NoResult,
    UnknownTeam,
)

from conftest import fixture_path

MATCH_HEADER = ",".join(ds.MATCH_COLUMNS)
PLAYER_HEADER = ",".join(ds.PLAYER_COLUMNS)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRegistry:
    def test_default_has_13_teams(self):
        assert len(ds.TEAMS) == 13


class TestLoadMatches:
    def test_bundled_fixture(self, matches_csv):
        data = ds.load_matches(matches_csv)
        assert len(data.matches) == 66
        dates = [m.date for m in data.matches]
        assert dates == sorted(dates)

    def test_idempotent(self, matches_csv):
        assert ds.load_matches(matches_csv) == ds.load_matches(matches_csv)

    def test_empty_file_valid_header(self, tmp_path):
        path = write(tmp_path / "m.csv", MATCH_HEADER + "\n")
        assert len(ds.load_matches(path).matches) == 0

    def test_634_row_file(self, tmp_path):
        # historical-scale file: the full league archive is 634 matches
        rng = random.Random(7)
        rows = [MATCH_HEADER]
        date = dt.date(2008, 4, 18)
        for i in range(634):
            home, away = rng.sample(["CSK", "RR", "MI", "KKR"], 2)
            rows.append(f"m{i},{date.year},{date.isoformat()},{home},{away},"
                        f"Venue,{home},bat,{home}")
            date += dt.timedelta(days=5)
        path = write(tmp_path / "big.csv", "\n".join(rows) + "\n")
        assert len(ds.load_matches(path).matches) == 634

    def test_toss_winner_not_participant(self, tmp_path):
        path = write(tmp_path / "m.csv", MATCH_HEADER + "\n"
                     "m1,2018,2018-04-07,CSK,RR,Venue,MI,bat,CSK\n")
        with pytest.raises(InvalidRow, match="row 2"):
            ds.load_matches(path)

    def test_duplicate_match_id(self, tmp_path):
        row = "m1,2018,2018-04-07,CSK,RR,Venue,CSK,bat,CSK\n"
        path = write(tmp_path / "m.csv", MATCH_HEADER + "\n" + row + row)
        with pytest.raises(InvalidRow, match="duplicate match_id"):
            ds.load_matches(path)

    @pytest.mark.parametrize("column, row", [
        ("match_id", ",2018,2018-04-07,CSK,RR,Venue,CSK,bat,CSK"),
        ("match_id", " ,2018,2018-04-07,CSK,RR,Venue,CSK,bat,CSK"),
        ("venue", "m1,2018,2018-04-07,CSK,RR,,CSK,bat,CSK"),
        ("venue", "m1,2018,2018-04-07,CSK,RR, \t ,CSK,bat,CSK"),
    ], ids=["match-id-empty", "match-id-blank", "venue-empty", "venue-blank"])
    def test_empty_text_field(self, tmp_path, column, row):
        path = write(tmp_path / "m.csv", MATCH_HEADER + "\n" + row + "\n")
        with pytest.raises(InvalidRow, match=f"row 2: {column} is empty"):
            ds.load_matches(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "m.csv", "match_id,season,date\n")
        with pytest.raises(MissingColumn):
            ds.load_matches(path)

    def test_unknown_team(self, tmp_path):
        path = write(tmp_path / "m.csv", MATCH_HEADER + "\n"
                     "m1,2018,2018-04-07,ZZZ,RR,Venue,RR,bat,RR\n")
        with pytest.raises(UnknownTeam, match="row 2"):
            ds.load_matches(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path / "m.csv", MATCH_HEADER + ",umpire\n"
                     "m1,2018,2018-04-07,CSK,RR,Venue,CSK,bat,CSK,someone\n")
        assert len(ds.load_matches(path).matches) == 1

    def test_quotes(self, tmp_path):
        """A quoted field may hold the delimiter, and a quote inside an
        unquoted field is a literal character."""
        path = write(tmp_path / "m.csv", MATCH_HEADER + "\n"
                     'm1,2018,2018-04-07,CSK,RR,"Eden Gardens, Kolkata",CSK,bat,CSK\n'
                     'm2,2018,2018-04-08,CSK,RR,Lord"s,CSK,bat,CSK\n')
        venues = [m.venue for m in ds.load_matches(path).matches]
        assert venues == ["Eden Gardens, Kolkata", 'Lord"s']

    @pytest.mark.parametrize("venue, message", [
        ('"Eden Gardens" ', "',' expected after '\"'"),
        ('"Eden Gardens', "unexpected end of data"),
        ("V" * 200_000, "field larger than field limit")],
        ids=["text-after-closing-quote", "unterminated-quote", "field-over-size-limit"])
    def test_malformed_csv_row(self, tmp_path, venue, message):
        path = write(tmp_path / "m.csv", MATCH_HEADER + "\n"
                     "m1,2018,2018-04-07,CSK,RR,Venue,CSK,bat,CSK\n"
                     f"m2,2018,2018-04-08,CSK,RR,{venue},CSK,bat,CSK\n")
        with pytest.raises(InvalidRow, match=f"m.csv row 3: malformed CSV: {message}"):
            ds.load_matches(path)

    def test_malformed_csv_header(self, tmp_path):
        path = write(tmp_path / "m.csv", MATCH_HEADER + ',"umpire\n')
        with pytest.raises(InvalidRow, match="m.csv row 1: malformed CSV"):
            ds.load_matches(path)

    def test_no_result_retained_and_flagged(self, tmp_path):
        path = write(tmp_path / "m.csv", MATCH_HEADER + "\n"
                     "m1,2018,2018-04-07,CSK,RR,Venue,CSK,bat,\n")
        data = ds.load_matches(path)
        assert len(data.matches) == 1
        assert not data.matches[0].has_result

    def test_generated_rows_satisfy_invariants(self, tmp_path):
        rng = random.Random(11)
        teams = ["CSK", "RR", "MI", "KKR", "DD"]
        rows = [MATCH_HEADER]
        for i in range(200):
            home, away = rng.sample(teams, 2)
            toss = rng.choice([home, away])
            winner = rng.choice([home, away, ""])
            rows.append(f"g{i},2017,2017-0{rng.randint(4, 5)}-"
                        f"{rng.randint(10, 28)},{home},{away},V,{toss},"
                        f"{rng.choice(['bat', 'field'])},{winner}")
        path = write(tmp_path / "gen.csv", "\n".join(rows) + "\n")
        data = ds.load_matches(path)
        for m in data.matches:
            assert m.home_team != m.away_team
            assert m.toss_winner in (m.home_team, m.away_team)
            assert m.winner in (m.home_team, m.away_team, ds.NO_RESULT)
            assert m.date.year in (m.season, m.season + 1)


class TestRestrict:
    def test_keeps_the_given_seasons(self, tmp_path):
        path = write(tmp_path / "m.csv", MATCH_HEADER + "\n"
                     "m1,2016,2016-04-07,CSK,RR,Old Ground,CSK,bat,CSK\n"
                     "m2,2017,2017-04-07,RR,MI,Zeta Park,RR,field,MI\n"
                     "m3,2017,2017-04-08,MI,CSK,Alpha Oval,MI,bat,\n"
                     "m4,2018,2018-04-07,CSK,MI,Old Ground,MI,bat,CSK\n")
        data = ds.load_matches(path)
        only_2017 = data.restrict({2017})
        assert [m.match_id for m in only_2017.matches] == ["m2", "m3"]
        assert data.restrict({2016, 2017, 2018}) == data
        assert data.restrict({2019}).matches == ()


class TestLoadPlayers:
    def test_field_mapping(self, tmp_path):
        path = write(tmp_path / "p.csv", PLAYER_HEADER + "\n"
                     "2018,CSK,PlayerA,10,5,40,12,8,6,1,\n")
        (row,) = ds.load_player_performances(path)
        assert (row.wickets, row.dot_balls, row.fours, row.sixes,
                row.catches, row.stumpings) == (5, 40, 12, 8, 6, 1)
        assert row.official_points is None

    def test_negative_stat(self, tmp_path):
        path = write(tmp_path / "p.csv", PLAYER_HEADER + "\n"
                     "2018,CSK,PlayerA,10,-1,40,12,8,6,1,\n")
        with pytest.raises(NegativeStat, match="row 2"):
            ds.load_player_performances(path)

    def test_duplicate_player(self, tmp_path):
        row = "2018,CSK,PlayerA,10,5,40,12,8,6,1,\n"
        path = write(tmp_path / "p.csv", PLAYER_HEADER + "\n" + row + row)
        with pytest.raises(DuplicatePlayer):
            ds.load_player_performances(path)

    @pytest.mark.parametrize("player", ["", "   "], ids=["empty", "blank"])
    def test_empty_player(self, tmp_path, player):
        path = write(tmp_path / "p.csv", PLAYER_HEADER + "\n"
                     f"2018,CSK,{player},10,5,40,12,8,6,1,\n")
        with pytest.raises(InvalidRow, match="row 2: player is empty"):
            ds.load_player_performances(path)

    def test_row_missing_a_middle_field(self, tmp_path):
        # without the dot_balls value every later statistic would move one
        # column left, and official_points would have no value at all
        path = write(tmp_path / "p.csv", PLAYER_HEADER + "\n"
                     "2018,CSK,PlayerB,10,40,12,8,6,1,120\n")
        with pytest.raises(InvalidRow, match="row 2: no value for column"):
            ds.load_player_performances(path)

    def test_row_with_extra_fields(self, tmp_path):
        path = write(tmp_path / "p.csv", PLAYER_HEADER + "\n"
                     "2018,CSK,PlayerA,10,5,40,12,8,6,1,,extra\n")
        (row,) = ds.load_player_performances(path)
        assert row.stumpings == 1 and row.official_points is None

    @pytest.mark.parametrize("value", ["nan", "inf", "x"])
    def test_bad_official_points(self, tmp_path, value):
        path = write(tmp_path / "p.csv", PLAYER_HEADER + "\n"
                     f"2018,CSK,PlayerA,10,5,40,12,8,6,1,{value}\n")
        with pytest.raises(InvalidRow, match=f"row 2: bad official_points '{value}'"):
            ds.load_player_performances(path)

    def test_negative_infinite_official_points(self, tmp_path):
        path = write(tmp_path / "p.csv", PLAYER_HEADER + "\n"
                     "2018,CSK,PlayerA,10,5,40,12,8,6,1,-inf\n")
        with pytest.raises(NegativeStat, match="official_points=-inf is negative"):
            ds.load_player_performances(path)

    def test_official_points_parsed(self, tmp_path):
        path = write(tmp_path / "p.csv", PLAYER_HEADER + "\n"
                     "2018,CSK,PlayerA,10,5,40,12,8,6,1,123.5\n")
        (row,) = ds.load_player_performances(path)
        assert row.official_points == 123.5


class TestLabel:
    def make(self, winner):
        return ds.MatchRecord("m1", 2018, dt.date(2018, 4, 7), "CSK", "RR",
                              "Venue", "CSK", "bat", winner)

    def test_home_win(self):
        assert ds.label_of(self.make("CSK")) == 1

    def test_away_win(self):
        assert ds.label_of(self.make("RR")) == 0

    def test_no_result(self):
        with pytest.raises(NoResult):
            ds.label_of(self.make(ds.NO_RESULT))

    def test_label_iff_home_win(self, matches_csv):
        for m in ds.load_matches(matches_csv).decisive():
            assert (ds.label_of(m) == 1) == (m.winner == m.home_team)


@pytest.mark.parametrize("loader, name", [
    (ds.load_matches, "matches.csv"),
    (ds.load_player_performances, "players.csv")])
def test_byte_order_mark(tmp_path, loader, name):
    """A file that starts with a UTF-8 byte-order mark, as spreadsheet
    programs write "CSV UTF-8", reads like one without it."""
    plain = fixture_path(name)
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    assert loader(str(marked)) == loader(plain)
