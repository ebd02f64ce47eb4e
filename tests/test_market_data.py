import csv
import json
import math

import numpy as np
import pytest

from leadlag_fuse.market_data import (
    MS_PER_MINUTE,
    PricePanel,
    load_panel,
    load_panel_csv,
    load_prices,
    log_returns,
    resample,
    write_panel,
    write_panel_csv,
)

T0 = 1_609_459_200_000  # 2021-01-01T00:00:00Z


def write_asset_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "price"])
        writer.writerows(rows)


def minute_ts(i):
    return T0 + i * MS_PER_MINUTE


def make_panel(prices, period_minutes=1):
    prices = np.asarray(prices, dtype=float)
    ts = T0 + period_minutes * MS_PER_MINUTE * np.arange(prices.shape[0])
    assets = tuple(f"A{j}" for j in range(prices.shape[1]))
    return PricePanel(timestamps=ts, assets=assets, prices=prices, period_minutes=period_minutes)


class TestLoadPrices:
    def test_aligned_input_passes_through(self, tmp_path):
        for name in ("AAA", "BBB"):
            write_asset_csv(tmp_path / f"{name}.csv", [(minute_ts(i), 100 + i) for i in range(10)])
        panel = load_prices(sorted(tmp_path.glob("*.csv")))
        assert panel.timestamps.size == 10
        assert panel.assets == ("AAA", "BBB")
        assert panel.prices.shape == (10, 2)

    def test_interior_gap_forward_filled(self, tmp_path):
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 100 + i) for i in range(10)])
        rows = [(minute_ts(i), 200 + i) for i in range(10) if i != 5]
        write_asset_csv(tmp_path / "BBB.csv", rows)
        panel = load_prices(sorted(tmp_path.glob("*.csv")))
        assert panel.timestamps.size == 10
        assert panel.prices[5, 1] == 204.0  # last observed price before the gap

    def test_zero_price_rejected_with_context(self, tmp_path):
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 100) for i in range(5)])
        write_asset_csv(tmp_path / "BAD.csv", [(minute_ts(0), 10), (minute_ts(1), 0.0), (minute_ts(2), 10)])
        with pytest.raises(ValueError, match=r"BAD.*row 2.*" + str(minute_ts(1))):
            load_prices(sorted(tmp_path.glob("*.csv")))

    def test_empty_file_rejected_by_name(self, tmp_path):
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 100) for i in range(5)])
        write_asset_csv(tmp_path / "EMPTY.csv", [])
        with pytest.raises(ValueError, match="EMPTY"):
            load_prices(sorted(tmp_path.glob("*.csv")))

    def test_short_overlap_rejected(self, tmp_path):
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 100) for i in range(10)])
        write_asset_csv(tmp_path / "BBB.csv", [(minute_ts(i), 100) for i in range(8, 12)])
        with pytest.raises(ValueError, match="overlap"):
            load_prices(sorted(tmp_path.glob("*.csv")), min_rows=5)

    def test_alignment_to_intersection(self, tmp_path):
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 100) for i in range(0, 10)])
        write_asset_csv(tmp_path / "BBB.csv", [(minute_ts(i), 200) for i in range(3, 14)])
        panel = load_prices(sorted(tmp_path.glob("*.csv")))
        assert panel.timestamps[0] == minute_ts(3)
        assert panel.timestamps[-1] == minute_ts(9)

    def test_off_grid_timestamp_rejected(self, tmp_path):
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 100) for i in range(5)])
        write_asset_csv(tmp_path / "BBB.csv", [(minute_ts(0) + 7, 100), (minute_ts(1), 100)])
        with pytest.raises(ValueError, match="off the"):
            load_prices(sorted(tmp_path.glob("*.csv")))

    def test_needs_two_assets(self, tmp_path):
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 100) for i in range(5)])
        with pytest.raises(ValueError, match="at least 2 assets"):
            load_prices(sorted(tmp_path.glob("*.csv")))

    def test_deterministic(self, tmp_path):
        for name in ("AAA", "BBB"):
            write_asset_csv(tmp_path / f"{name}.csv", [(minute_ts(i), 100 + i * 0.37) for i in range(20)])
        first = load_prices(sorted(tmp_path.glob("*.csv")))
        second = load_prices(sorted(tmp_path.glob("*.csv")))
        assert np.array_equal(first.prices, second.prices)
        assert np.array_equal(first.timestamps, second.timestamps)


def write_raw(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def load_pair(tmp_path, text, name="BAD"):
    """load_prices over a clean AAA.csv and a second file holding ``text``."""
    write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 100) for i in range(5)])
    write_raw(tmp_path / f"{name}.csv", text)
    return load_prices(sorted(tmp_path.glob("*.csv")))


class TestPriceFileFormat:
    PARSE_ERROR = r"BAD\.csv: (malformed|unparseable)"

    def test_wrong_header_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"BAD\.csv: expected header"):
            load_pair(tmp_path, f"time,close\n{minute_ts(0)},100\n{minute_ts(1)},100\n")

    def test_one_field_row_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=self.PARSE_ERROR):
            load_pair(tmp_path, f"timestamp,price\n{minute_ts(0)},100\n{minute_ts(1)}\n")

    @pytest.mark.parametrize("stamp", [f"{minute_ts(1)}.0", "x", ""])
    def test_unparseable_timestamp_rejected(self, tmp_path, stamp):
        with pytest.raises(ValueError, match=self.PARSE_ERROR):
            load_pair(tmp_path, f"timestamp,price\n{minute_ts(0)},100\n{stamp},100\n")

    @pytest.mark.parametrize("price", ["abc", "", "0x10", '"1,5"'])
    def test_unparseable_price_rejected(self, tmp_path, price):
        with pytest.raises(ValueError, match=self.PARSE_ERROR):
            load_pair(tmp_path, f"timestamp,price\n{minute_ts(0)},100\n{minute_ts(1)},{price}\n")

    @pytest.mark.parametrize("price", ["nan", "inf", "-inf", "1e400", "-5", "0"])
    def test_nonfinite_or_nonpositive_price_rejected(self, tmp_path, price):
        text = f"timestamp,price\n{minute_ts(0)},100\n{minute_ts(1)},{price}\n{minute_ts(2)},100\n"
        with pytest.raises(ValueError, match=rf"BAD\.csv: .*price .*row 2 .*{minute_ts(1)}"):
            load_pair(tmp_path, text)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        text = f"timestamp,price\n{minute_ts(0)},100\n{minute_ts(1)},101\n{minute_ts(1)},102\n"
        with pytest.raises(ValueError, match=rf"BAD\.csv: duplicate timestamp {minute_ts(1)}"):
            load_pair(tmp_path, text)

    def test_rows_in_any_order_are_sorted(self, tmp_path):
        order = [3, 0, 4, 2, 1]
        text = "timestamp,price\n" + "".join(f"{minute_ts(i)},{200 + i}\n" for i in order)
        panel = load_pair(tmp_path, text)
        assert np.array_equal(panel.timestamps, [minute_ts(i) for i in range(5)])
        assert np.array_equal(panel.prices[:, 1], [200.0, 201.0, 202.0, 203.0, 204.0])

    @pytest.mark.parametrize(
        "text",
        [
            "timestamp,price\n\n{0},200\n\n\n{1},201\n{2},202\n{3},203\n{4},204\n\n",
            "timestamp,price\r\n{0},200\r\n{1},201\r\n{2},202\r\n{3},203\r\n{4},204\r\n",
            "timestamp,price\r{0},200\r{1},201\r{2},202\r{3},203\r{4},204\r",
            'timestamp,price\n"{0}","200"\n"{1}",201\n{2},"202"\n"{3}","203"\n"{4}","204"\n',
            "timestamp,price,volume\n{0},200,7\n{1},201,8,x\n{2},202,9\n{3},203,0\n{4},204,1\n",
            " Timestamp , PRICE \n{0}, 200\n {1} ,201\n{2},2.02e2\n{3},203.\n{4},+204\n",
        ],
        ids=["blank-lines", "crlf", "cr", "quoted", "extra-columns", "spaces-case-and-forms"],
    )
    def test_accepted_layouts(self, tmp_path, text):
        panel = load_pair(tmp_path, text.format(*(minute_ts(i) for i in range(5))))
        assert np.array_equal(panel.timestamps, [minute_ts(i) for i in range(5)])
        assert np.array_equal(panel.prices[:, 1], [200.0, 201.0, 202.0, 203.0, 204.0])

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"])
    def test_header_only_file_rejected_by_name(self, tmp_path, body):
        with pytest.raises(ValueError, match=r"EMPTY\.csv: file contains no price rows"):
            load_pair(tmp_path, "timestamp,price\n" + body, name="EMPTY")

    @pytest.mark.parametrize("price", ["1_000", "1_000.5"])
    def test_digit_separators_rejected(self, tmp_path, price):
        # Python's float() reads "1_000"; the price-file format has no digit separators.
        with pytest.raises(ValueError, match=self.PARSE_ERROR):
            load_pair(tmp_path, f"timestamp,price\n{minute_ts(0)},100\n{minute_ts(1)},{price}\n")

    def test_whitespace_only_line_rejected(self, tmp_path):
        # Only empty lines are skipped; a line of spaces is a row with an empty timestamp.
        with pytest.raises(ValueError, match=self.PARSE_ERROR):
            load_pair(tmp_path, f"timestamp,price\n{minute_ts(0)},100\n   \n{minute_ts(1)},101\n")

    def test_prices_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(20)
        rows = 400
        prices = (1.0 + 9.0 * rng.random((rows, 2))) * 10.0 ** rng.integers(-30, 30, (rows, 2))
        for j, name in enumerate(("AAA", "BBB")):
            text = "timestamp,price\n" + "".join(f"{minute_ts(i)},{p!r}\n" for i, p in enumerate(prices[:, j].tolist()))
            write_raw(tmp_path / f"{name}.csv", text)
        panel = load_prices(sorted(tmp_path.glob("*.csv")))
        assert np.array_equal(panel.prices.view(np.int64), prices.view(np.int64))


def panel_cells(path, column):
    """The cells of one column of a panel file, as bytes, row by row."""
    lines = path.read_bytes().split(b"\r\n")
    assert lines[-1] == b""
    return [line.split(b",")[column] for line in lines[1:-1]]


def aligned_reference(paths, step=MS_PER_MINUTE):
    """Timestamps and prices as load_prices aligned them when it held every file at once."""
    series = []
    for path in paths:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
        order = np.argsort(rows[:, 0], kind="stable")
        series.append((rows[order, 0].astype(np.int64), rows[order, 1]))
    start = max(int(ts[0]) for ts, _ in series)
    end = min(int(ts[-1]) for ts, _ in series)
    grid = np.arange(start, end + 1, step, dtype=np.int64)
    prices = np.empty((grid.size, len(series)))
    for j, (ts, px) in enumerate(series):
        prices[:, j] = px[np.searchsorted(ts, grid, side="right") - 1]
    return grid, prices


class TestPanelText:
    """``load_prices`` keeps each price as its file spells it, and ``write_panel_csv`` copies that text."""

    def test_spellings_reach_the_panel_file_as_read(self, tmp_path):
        spelled = ["100.50", "1e2", '"7.5"', " 8.25 ", "+204"]
        text = "timestamp,price\n" + "".join(f"{minute_ts(i)},{p}\n" for i, p in enumerate(spelled))
        panel = load_pair(tmp_path, text, name="BBB")
        assert panel.text[1].tolist() == [b"100.50", b"1e2", b"7.5", b" 8.25 ", b"+204"]
        write_panel_csv(panel, tmp_path / "panel.csv")
        assert panel_cells(tmp_path / "panel.csv", 2) == [b"100.50", b"1e2", b"7.5", b" 8.25 ", b"+204"]
        assert panel_cells(tmp_path / "panel.csv", 1) == [b"100"] * 5
        loaded = load_panel_csv(tmp_path / "panel.csv")
        assert np.array_equal(loaded.prices.view(np.int64), panel.prices.view(np.int64))
        assert np.array_equal(loaded.prices[:, 1], [100.5, 100.0, 7.5, 8.25, 204.0])

    @pytest.mark.parametrize(
        "token, shown",
        [
            ("100.5" + "0" * 18 + "1", "100.5"),  # 24 bytes: fills the field and may have been cut
            ("100.5" + "0" * 40, "100.5"),  # longer than the field
            ('"7.5\n"', "7.5"),  # a line break inside quotes
            ("\t7.5", "7.5"),
            ("7.5\u00a0", "7.5"),  # a no-break space, one byte in Latin-1
            ("7.5\u2003", "7.5"),  # an em space, beyond Latin-1: the bytes field refuses it
        ],
        ids=["fills-field", "longer", "quoted-newline", "tab", "latin1-space", "unicode-space"],
    )
    def test_a_spelling_that_cannot_be_copied_gives_its_file_the_repr(self, tmp_path, token, shown):
        text = f"timestamp,price\n{minute_ts(0)},100.50\n{minute_ts(1)},{token}\n{minute_ts(2)},1e2\n"
        panel = load_pair(tmp_path, text, name="BBB")
        assert panel.text[1].tolist() == [b"100.5", shown.encode(), b"100.0"]
        assert panel.text[0].tolist() == [b"100"] * 3  # the other file keeps its own spelling
        write_panel_csv(panel, tmp_path / "panel.csv")
        assert panel_cells(tmp_path / "panel.csv", 2) == [b"100.5", shown.encode(), b"100.0"]
        loaded = load_panel_csv(tmp_path / "panel.csv")
        assert np.array_equal(loaded.prices.view(np.int64), panel.prices.view(np.int64))

    def test_a_spelling_one_byte_short_of_the_field_is_kept(self, tmp_path):
        token = "100.5" + "0" * 17 + "1"  # 23 bytes, as long as the longest repr of a positive float
        panel = load_pair(tmp_path, f"timestamp,price\n{minute_ts(0)},{token}\n{minute_ts(1)},7\n", name="BBB")
        assert panel.text[1].tolist() == [token.encode(), b"7"]

    def test_unsorted_file_with_gaps_forward_fills_prices_and_text(self, tmp_path):
        rows = [(4, "104.0"), (0, "100.00"), (2, "1.02e2"), (7, "107")]
        text = "timestamp,price\n" + "".join(f"{minute_ts(i)},{p}\n" for i, p in rows)
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 50 + i) for i in range(9)])
        write_raw(tmp_path / "BBB.csv", text)
        panel = load_prices(sorted(tmp_path.glob("*.csv")))
        assert np.array_equal(panel.timestamps, [minute_ts(i) for i in range(8)])
        assert panel.prices[:, 1].tolist() == [100.0, 100.0, 102.0, 102.0, 104.0, 104.0, 104.0, 107.0]
        assert panel.text[1].tolist() == [b"100.00", b"100.00", b"1.02e2", b"1.02e2", b"104.0", b"104.0", b"104.0", b"107"]
        assert panel.text[0].tolist() == [str(50 + i).encode() for i in range(8)]

    def test_a_long_first_file_gives_the_same_panel(self, tmp_path):
        rng = np.random.default_rng(31)
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 100 + rng.random()) for i in range(1000)])
        for name, lo in (("BBB", 400), ("CCC", 395), ("DDD", 420)):
            minutes = [i for i in range(lo, lo + 100) if rng.random() > 0.2 or i in (lo, lo + 99)]
            rng.shuffle(minutes)
            write_asset_csv(tmp_path / f"{name}.csv", [(minute_ts(i), 50 + rng.random()) for i in minutes])
        paths = sorted(tmp_path.glob("*.csv"))
        panel = load_prices(paths)
        grid, prices = aligned_reference(paths)
        assert np.array_equal(panel.timestamps, grid) and grid[0] == minute_ts(420) and grid[-1] == minute_ts(494)
        assert np.array_equal(panel.prices.view(np.int64), prices.view(np.int64))
        assert [t.tolist() for t in panel.text] == [[repr(p).encode() for p in col] for col in prices.T.tolist()]
        assert all(t.base is None for t in panel.text[:3])  # cut columns are copies, not views of the longer ones

    def test_an_earlier_files_grid_error_wins_over_a_later_files_parse_error(self, tmp_path):
        # Files are read and checked one at a time, in asset order.
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(0), 100), (minute_ts(1) + 7, 100)])
        write_raw(tmp_path / "BBB.csv", f"timestamp,price\n{minute_ts(0)},abc\n")
        with pytest.raises(ValueError, match=rf"^AAA: timestamp {minute_ts(1) + 7} is off the 60000 ms grid"):
            load_prices(sorted(tmp_path.glob("*.csv")))
        write_raw(tmp_path / "AAA.csv", f"timestamp,price\n{minute_ts(0)},abc\n")
        write_asset_csv(tmp_path / "BBB.csv", [(minute_ts(0), 100), (minute_ts(1) + 7, 100)])
        with pytest.raises(ValueError, match=r"^AAA\.csv: malformed or unparseable row"):
            load_prices(sorted(tmp_path.glob("*.csv")))

    def test_panel_text_must_match_the_grid(self):
        prices = np.full((3, 2), 7.0)
        ts = T0 + MS_PER_MINUTE * np.arange(3)
        text = (np.array([b"7"] * 3), np.array([b"7.0"] * 3))
        assert [t.tolist() for t in PricePanel(ts, ("A", "B"), prices, 1, text).text] == [[b"7"] * 3, [b"7.0"] * 3]
        for bad in (text[:1], (text[0], text[1][:2]), (text[0], np.array(["7"] * 3))):
            with pytest.raises(ValueError, match="one bytes array of 3 cells per asset"):
                PricePanel(ts, ("A", "B"), prices, 1, bad)

    def test_resampled_panel_carries_no_text(self, tmp_path):
        panel = load_pair(tmp_path, "timestamp,price\n" + "".join(f"{minute_ts(i)},2.50\n" for i in range(5)))
        assert panel.text is not None and resample(panel, 2).text is None


class TestResample:
    def test_identity_period(self):
        panel = make_panel(np.arange(1, 21).reshape(10, 2))
        assert resample(panel, 1) is panel

    def test_last_in_bucket(self):
        prices = np.arange(1.0, 11.0).reshape(10, 1)
        prices = np.hstack([prices, prices])
        panel = make_panel(prices)
        out = resample(panel, 5)
        assert np.array_equal(out.prices[:, 0], [5.0, 10.0])
        assert out.timestamps[-1] == panel.timestamps[-1]
        assert out.period_minutes == 5

    def test_non_multiple_rejected(self):
        panel = make_panel(np.full((10, 2), 7.0), period_minutes=5)
        with pytest.raises(ValueError, match="multiple"):
            resample(panel, 7)


class TestLogReturns:
    def test_constant_prices_zero_returns(self):
        panel = make_panel(np.full((6, 2), 42.0))
        rm = log_returns(panel)
        assert np.all(rm.returns == 0.0)
        assert rm.timestamps[0] == panel.timestamps[1]

    def test_single_e_fold(self):
        panel = make_panel(np.array([[100.0, 1.0], [100.0 * math.e, 1.0]]))
        rm = log_returns(panel)
        assert abs(rm.returns[0, 0] - 1.0) < 1e-12

    def test_telescoping_halving(self):
        panel = make_panel(np.array([[100.0, 1.0], [50.0, 1.0], [100.0, 1.0]]))
        rm = log_returns(panel)
        assert abs(rm.returns[0, 0] + math.log(2)) < 1e-12
        assert abs(rm.returns[1, 0] - math.log(2)) < 1e-12
        assert abs(rm.returns[:, 0].sum()) < 1e-12

    def test_telescoping_random_panel(self):
        rng = np.random.default_rng(5)
        prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((200, 3)), axis=0))
        panel = make_panel(prices)
        rm = log_returns(panel)
        total = rm.returns.sum(axis=0)
        expected = np.log(prices[-1]) - np.log(prices[0])
        assert np.all(np.abs(total - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    def test_resample_commutes_with_returns(self):
        rng = np.random.default_rng(6)
        prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((61, 4)), axis=0))
        panel = make_panel(prices)
        via_resample = log_returns(resample(panel, 5))
        direct = np.diff(np.log(panel.prices[np.arange(0, 61, 5)]), axis=0)
        assert np.array_equal(via_resample.returns, direct)


class TestCsvRoundTrips:
    def test_panel_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        panel = make_panel(100.0 + rng.random((12, 3)))
        write_panel_csv(panel, tmp_path / "panel.csv")
        loaded = load_panel_csv(tmp_path / "panel.csv")
        assert loaded.assets == panel.assets
        assert loaded.period_minutes == panel.period_minutes
        assert np.array_equal(loaded.prices, panel.prices)
        assert np.array_equal(loaded.timestamps, panel.timestamps)

    def test_panel_csv_bytes_match_csv_writer(self, tmp_path):
        prices = np.array(
            [
                [1e-05, 1.2345678901234568e17, 100.0],
                [0.1, 3e-300, 1e22],
                [2.5, 123456789.125, 7.000000000000001],
            ]
        )
        panel = PricePanel(
            timestamps=T0 + 5 * MS_PER_MINUTE * np.arange(3),
            assets=("AAA", "B,B", "C"),
            prices=prices,
            period_minutes=5,
        )
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", *panel.assets])
            for t, row in zip(panel.timestamps.tolist(), prices.tolist()):
                writer.writerow([t, *map(repr, row)])
        write_panel_csv(panel, tmp_path / "panel.csv")
        data = (tmp_path / "panel.csv").read_bytes()
        assert data == reference.read_bytes()
        assert b"1e-05" in data and b"1.2345678901234568e+17" in data and data.endswith(b"\r\n")
        loaded = load_panel_csv(tmp_path / "panel.csv")
        assert loaded.assets == panel.assets
        assert loaded.period_minutes == 5
        assert np.array_equal(loaded.prices.view(np.int64), prices.view(np.int64))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("time,A,B\r\n{0},1.0,2.0\r\n{1},1.0,2.0\r\n", "expected header"),
            ("timestamp,A\r\n{0},1.0\r\n{1},1.0\r\n", "expected header"),
            ("timestamp,A,B\r\n{0},1.0,2.0\r\n", "fewer than 2 rows"),
            ("timestamp,A,B\r\n", "fewer than 2 rows"),
            ("timestamp,A,B\r\n{0},1.0,2.0\r\n{1},1.0,2.0\r\n{3},1.0,2.0\r\n", "uniform"),
            ("timestamp,A,B\r\n{1},1.0,2.0\r\n{0},1.0,2.0\r\n", "uniform"),
            ("timestamp,A,B\r\n{0},1.0\r\n{1},1.0,2.0\r\n", "malformed"),
            ("timestamp,A,B\r\n{0},1.0,2.0\r\nx,1.0,2.0\r\n", "malformed"),
        ],
        ids=["header", "one-asset", "one-row", "no-rows", "irregular-grid", "descending", "short-row", "bad-stamp"],
    )
    def test_panel_csv_rejections(self, tmp_path, text, message):
        write_raw(tmp_path / "panel.csv", text.format(*(minute_ts(i) for i in range(4))))
        with pytest.raises(ValueError, match=rf"panel\.csv: .*{message}"):
            load_panel_csv(tmp_path / "panel.csv")


def assert_same_panel(loaded, panel):
    assert loaded.assets == panel.assets
    assert loaded.period_minutes == panel.period_minutes
    assert loaded.timestamps.dtype == np.int64 and np.array_equal(loaded.timestamps, panel.timestamps)
    assert loaded.prices.dtype == np.float64 and np.array_equal(loaded.prices.view(np.int64), panel.prices.view(np.int64))


class TestBinaryPanel:
    """``write_panel`` caches a panel as ``panel.npy`` plus its index ``panel.json``; ``load_panel`` reads it back."""

    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        prices = np.exp(rng.uniform(-700.0, 700.0, (9, 3)))
        prices[0, 0], prices[1, 1], prices[2, 2] = 5e-324, 1.7976931348623157e308, 0.1 + 0.2
        panel = PricePanel(
            timestamps=T0 + 5 * MS_PER_MINUTE * np.arange(9),
            assets=("A,1", 'B"2', "C\u00e9\u4e2d"),
            prices=prices,
            period_minutes=5,
        )
        write_panel(panel, tmp_path / "run")
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["panel.json", "panel.npy"]
        assert_same_panel(load_panel(tmp_path / "run"), panel)

    def test_load_prices_block_saved_as_it_is(self, tmp_path):
        """The column-major block reads back column-major, at a 5-minute base period."""
        for name, base in (("AAA", 100), ("BBB", 200)):
            write_asset_csv(tmp_path / f"{name}.csv", [(minute_ts(5 * i), base + i) for i in range(6)])
        panel = load_prices(sorted(tmp_path.glob("*.csv")), base_period_minutes=5)
        assert panel.prices.flags.f_contiguous
        write_panel(panel, tmp_path / "run")
        loaded = load_panel(tmp_path / "run")
        assert loaded.prices.flags.f_contiguous
        assert_same_panel(loaded, panel)

    def test_cut_range_round_trip(self, tmp_path):
        """A panel whose range the later files cut holds rows of a larger block, neither C- nor F-contiguous."""
        write_asset_csv(tmp_path / "AAA.csv", [(minute_ts(i), 100 + i) for i in range(10)])
        write_asset_csv(tmp_path / "BBB.csv", [(minute_ts(i), 1.5 * i + 0.1) for i in range(3, 13)])
        panel = load_prices(sorted(tmp_path.glob("*.csv")))
        assert not (panel.prices.flags.c_contiguous or panel.prices.flags.f_contiguous)
        assert panel.timestamps[0] == minute_ts(3) and panel.timestamps.size == 7
        write_panel(panel, tmp_path / "run")
        assert_same_panel(load_panel(tmp_path / "run"), panel)

    def test_missing_index_asks_for_ingest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="run 'ingest' first"):
            load_panel(tmp_path)

    @pytest.mark.parametrize(
        "block",
        [np.ones((4, 2)), np.ones((3, 3)), np.ones((3, 2), dtype=np.float32), np.ones((3, 2), dtype=object)],
        ids=["rows", "columns", "float32", "object"],
    )
    def test_block_that_disagrees_with_the_index_is_refused(self, tmp_path, block):
        write_panel(make_panel(np.ones((3, 2))), tmp_path)
        np.save(tmp_path / "panel.npy", block, allow_pickle=True)
        with pytest.raises(ValueError, match=r"panel\.npy: "):
            load_panel(tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [lambda index: index.pop("rows"), lambda index: index.update(period_minutes=0), lambda index: index.update(assets="AB")],
        ids=["missing-key", "zero-period", "assets-not-a-list"],
    )
    def test_malformed_index_is_refused(self, tmp_path, edit):
        write_panel(make_panel(np.ones((3, 2))), tmp_path)
        index = json.loads((tmp_path / "panel.json").read_text(encoding="utf-8"))
        edit(index)
        (tmp_path / "panel.json").write_text(json.dumps(index), encoding="utf-8")
        with pytest.raises(ValueError, match=r"panel\.json: "):
            load_panel(tmp_path)


class TestPanelInvariants:
    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError, match="positive"):
            make_panel(np.array([[1.0, 2.0], [3.0, -0.5]]))

    def test_rejects_irregular_grid(self):
        ts = np.array([T0, T0 + MS_PER_MINUTE, T0 + 3 * MS_PER_MINUTE])
        with pytest.raises(ValueError, match="constant"):
            PricePanel(timestamps=ts, assets=("A", "B"), prices=np.ones((3, 2)), period_minutes=1)
