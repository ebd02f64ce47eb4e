import csv
import math

import numpy as np
import pytest

from leadlag_fuse.market_data import (
    MS_PER_MINUTE,
    PricePanel,
    load_panel_csv,
    load_prices,
    log_returns,
    resample,
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


class TestPanelInvariants:
    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError, match="positive"):
            make_panel(np.array([[1.0, 2.0], [3.0, -0.5]]))

    def test_rejects_irregular_grid(self):
        ts = np.array([T0, T0 + MS_PER_MINUTE, T0 + 3 * MS_PER_MINUTE])
        with pytest.raises(ValueError, match="constant"):
            PricePanel(timestamps=ts, assets=("A", "B"), prices=np.ones((3, 2)), period_minutes=1)
