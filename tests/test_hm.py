import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avq360.errors import DataError, ValidationError
from avq360.hm import (
    HeadMovementTrace,
    hm_stats,
    load_hm,
    wrap_degrees,
    write_hm_stats_csv,
)
from avq360.synthetic import make_hm_rows, write_hm_csv


def write_trace(path, rows):
    with open(path, "w") as f:
        f.write("t,yaw,pitch,roll\n")
        for r in rows:
            f.write(",".join(str(v) for v in r) + "\n")


class TestLoad:
    def test_20s_trace_at_120hz(self, tmp_path):
        rows = make_hm_rows(np.random.default_rng(0), "dynamic", duration_s=20.0)
        path = tmp_path / "trace.csv"
        write_hm_csv(rows, path)
        trace = load_hm(path)
        assert trace.n_samples == 2400
        assert trace.t[0] == 0.0

    def test_out_of_range_pitch(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_trace(path, [(0.0, 0.0, 95.0, 0.0)])
        with pytest.raises(DataError, match="pitch"):
            load_hm(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_hm(path)
        path.write_text("t,yaw,pitch,roll\n")
        with pytest.raises(DataError, match="no samples"):
            load_hm(path)

    @pytest.mark.parametrize("rows", [
        [(0.0, 1.0, 0.0, 0.0)],
        [(0.5, 1.0, 0.0, 0.0), (0.5, 2.0, 0.0, 0.0)],
    ])
    def test_fewer_than_two_samples_is_data_error(self, tmp_path, rows):
        path = tmp_path / "short.csv"
        write_trace(path, rows)
        with pytest.raises(DataError, match="^" + re.escape(f"{path}: 1 sample(s)")):
            load_hm(path)

    def test_duplicate_timestamps_collapsed(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_trace(path, [(0.0, 1.0, 0.0, 0.0), (0.0, 99.0, 0.0, 0.0),
                           (0.1, 2.0, 0.0, 0.0)])
        trace = load_hm(path)
        assert trace.n_samples == 2
        assert trace.yaw[0] == 1.0  # first row kept

    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, column, value):
        row = [0.1, 2.0, 0.0, 0.0]
        row[column] = value
        path = tmp_path / "nf.csv"
        write_trace(path, [(0.0, 1.0, 0.0, 0.0), row, (0.2, 3.0, 0.0, 0.0)])
        with pytest.raises(DataError, match="line 3: non-finite"):
            load_hm(path)

    def test_non_monotone_time(self, tmp_path):
        path = tmp_path / "nm.csv"
        write_trace(path, [(0.0, 0, 0, 0), (0.2, 0, 0, 0), (0.1, 0, 0, 0)])
        with pytest.raises(DataError, match="strictly increasing"):
            load_hm(path)


class TestWrap:
    def test_wrap_range(self):
        assert wrap_degrees(180.0) == 180.0
        assert wrap_degrees(-180.0) == 180.0
        assert wrap_degrees(-358.0) == pytest.approx(2.0)
        assert wrap_degrees(358.0) == pytest.approx(-2.0)

    @given(st.floats(min_value=-1000, max_value=1000, allow_nan=False))
    def test_always_in_half_open_interval(self, d):
        w = float(wrap_degrees(d))
        assert -180.0 < w <= 180.0


class TestStats:
    def test_static_trace(self):
        n = 50
        trace = HeadMovementTrace(
            t=np.arange(n) / 120.0,
            yaw=np.full(n, 42.0),
            pitch=np.full(n, 5.0),
            roll=np.zeros(n),
        )
        s = hm_stats(trace)
        assert s.mean_speed == {"yaw": 0.0, "pitch": 0.0, "roll": 0.0}
        assert s.max_speed["yaw"] == 0.0
        assert np.count_nonzero(s.yaw_histogram) == 1
        assert s.pitch_within_30_frac == 1.0

    def test_yaw_seam_crossing_is_short_step(self):
        trace = HeadMovementTrace(
            t=np.array([0.0, 1.0]),
            yaw=np.array([179.0, -179.0]),
            pitch=np.zeros(2),
            roll=np.zeros(2),
        )
        s = hm_stats(trace)
        assert s.mean_speed["yaw"] == pytest.approx(2.0)  # not 358
        assert s.max_speed["yaw"] == pytest.approx(2.0)

    def test_constant_rotation_speed(self):
        n = 120
        t = np.arange(n) / 120.0
        trace = HeadMovementTrace(
            t=t, yaw=10.0 * t, pitch=np.zeros(n), roll=np.zeros(n)
        )
        s = hm_stats(trace)
        assert s.mean_speed["yaw"] == pytest.approx(10.0, abs=1e-9)
        assert s.max_speed["yaw"] == pytest.approx(10.0, abs=1e-9)

    def test_histogram_mass_sums_to_one(self):
        rows = make_hm_rows(np.random.default_rng(1), "dynamic", duration_s=2.0)
        trace = HeadMovementTrace(
            t=np.array([r[0] for r in rows]),
            yaw=np.array([r[1] for r in rows]),
            pitch=np.array([r[2] for r in rows]),
            roll=np.array([r[3] for r in rows]),
        )
        s = hm_stats(trace)
        assert s.yaw_histogram.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(s.yaw_histogram >= 0)

    def test_invariant_to_adding_full_turn(self):
        rng = np.random.default_rng(2)
        n = 60
        t = np.arange(n) / 120.0
        yaw = rng.uniform(-170, 170, n)
        base = HeadMovementTrace(t=t, yaw=yaw, pitch=np.zeros(n), roll=np.zeros(n))
        shifted = HeadMovementTrace(t=t, yaw=yaw + 360.0, pitch=np.zeros(n),
                                    roll=np.zeros(n))
        a, b = hm_stats(base), hm_stats(shifted)
        assert a.mean_speed["yaw"] == pytest.approx(b.mean_speed["yaw"], rel=1e-9)
        np.testing.assert_allclose(a.yaw_histogram, b.yaw_histogram, atol=1e-12)

    def test_pitch_comfort_fraction(self):
        trace = HeadMovementTrace(
            t=np.arange(4) / 120.0,
            yaw=np.zeros(4),
            pitch=np.array([0.0, 29.0, 31.0, -45.0]),
            roll=np.zeros(4),
        )
        assert hm_stats(trace).pitch_within_30_frac == 0.5

    def test_single_sample_errors(self):
        trace = HeadMovementTrace(
            t=np.zeros(1), yaw=np.zeros(1), pitch=np.zeros(1), roll=np.zeros(1)
        )
        with pytest.raises(ValidationError, match="2 samples"):
            hm_stats(trace)

    def test_summary_csv(self, tmp_path):
        rows = make_hm_rows(np.random.default_rng(3), "static")
        trace = HeadMovementTrace(
            t=np.array([r[0] for r in rows]),
            yaw=np.array([r[1] for r in rows]),
            pitch=np.array([r[2] for r in rows]),
            roll=np.array([r[3] for r in rows]),
        )
        path = tmp_path / "stats.csv"
        write_hm_stats_csv([("seq00", hm_stats(trace))], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("sequence_id,yaw_speed_mean")
