import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vcdfuel.drive_cycles import DriveCycle, load_cycle, resample, save_cycle
from vcdfuel.dyno import DynoLog
from vcdfuel.errors import InvalidArgument, ParseError
from vcdfuel.trace import Trace, uniform_grid
from vcdfuel.validation import align


def write_csv(path, rows, header="t,v"):
    lines = [header] + [f"{t},{v}" for t, v in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadCycle:
    def test_kph_conversion(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [(0, 0), (1, 10)])
        cycle = load_cycle(path, unit="kph")
        assert cycle.v[0] == 0.0
        assert abs(cycle.v[1] - 10.0 / 3.6) < 1e-12

    def test_mph_conversion(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [(0, 0), (1, 10)])
        cycle = load_cycle(path, unit="mph")
        assert abs(cycle.v[1] - 4.4704) < 1e-12

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_cycle(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("t,v\n")
        with pytest.raises(ParseError):
            load_cycle(path)

    def test_duplicate_timestamp(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [(0, 0), (0, 5)])
        with pytest.raises(ParseError, match="^cycle 'c': timestamps not strictly increasing$"):
            load_cycle(path)

    def test_decreasing_time(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [(0, 0), (2, 5), (1, 3)])
        with pytest.raises(ParseError, match="^cycle 'c': timestamps not strictly increasing$"):
            load_cycle(path)

    def test_unknown_unit(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [(0, 0), (1, 1)])
        with pytest.raises(InvalidArgument, match=r"^unknown unit 'furlongs' \(expected one "):
            load_cycle(path, unit="furlongs")

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,v\n0,0\n1,abc\n")
        with pytest.raises(ParseError):
            load_cycle(path)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [(0, 0), (1, 1)], header="time,speed")
        with pytest.raises(ParseError):
            load_cycle(path)

    def test_negative_speed_rejected(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [(0, 0), (1, -2)])
        with pytest.raises(ParseError):
            load_cycle(path)

    @pytest.mark.parametrize("rows", [
        [(0, 0), (1, "nan"), (2, 3)],
        [(0, 0), (1, "inf"), (2, 3)],
        [(0, 0), ("nan", 2), (2, 3)],
    ], ids=["nan-speed", "inf-speed", "nan-timestamp"])
    def test_non_finite_sample_rejected(self, tmp_path, rows):
        path = write_csv(tmp_path / "c.csv", rows)
        with pytest.raises(ParseError, match="non-finite"):
            load_cycle(path)

    def test_t_and_v_must_match_in_shape(self):
        with pytest.raises(ParseError) as info:
            DriveCycle("x", [0, 1, 2], [0, 1])
        assert str(info.value) == "cycle 'x': t and v differ in shape, [3] and [2]"

    def test_save_round_trip(self, tmp_path):
        cycle = DriveCycle("rt", [0, 1, 2.5], [0.0, 3.0, 1.5])
        save_cycle(cycle, tmp_path / "rt.csv", unit="kph")
        back = load_cycle(tmp_path / "rt.csv", unit="kph")
        assert np.allclose(back.t, cycle.t)
        assert np.allclose(back.v, cycle.v)


def piecewise_linear(cycle, t):
    """Independent piecewise-linear oracle, plain loops."""
    out = []
    for x in np.atleast_1d(t):
        for i in range(len(cycle.t) - 1):
            t0, t1 = cycle.t[i], cycle.t[i + 1]
            if t0 <= x <= t1:
                w = (x - t0) / (t1 - t0)
                out.append((1 - w) * cycle.v[i] + w * cycle.v[i + 1])
                break
        else:
            out.append(cycle.v[-1])
    return np.array(out)


class TestResample:
    def test_linear_interpolation(self):
        cycle = DriveCycle("lin", [0, 2], [0, 4])
        rs = resample(cycle, 1.0)
        assert np.allclose(rs.t, [0, 1, 2])
        assert np.allclose(rs.v, [0, 2, 4])

    def test_constant_invariance(self):
        cycle = DriveCycle("const", [0, 5], [3, 3])
        rs = resample(cycle, 1.0)
        assert np.all(rs.v == 3.0)

    def test_triangle_against_oracle(self):
        cycle = DriveCycle("tri", [0, 1, 2], [0, 1, 0])
        rs = resample(cycle, 0.5)
        expected = piecewise_linear(cycle, rs.t)
        assert np.allclose(rs.v, expected)
        assert np.allclose(rs.v, [0, 0.5, 1, 0.5, 0])

    def test_invalid_dt(self):
        cycle = DriveCycle("c", [0, 1], [0, 1])
        with pytest.raises(InvalidArgument, match="^dt must be finite and positive, got 0.0$"):
            resample(cycle, 0.0)
        with pytest.raises(InvalidArgument, match="^dt must be finite and positive, got -1.0$"):
            resample(cycle, -1.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_every_grid_rejects_bad_dt(self, dt):
        """Cycle resampling, dyno-log resampling and trace alignment share one rule."""
        t = np.array([0.0, 1.0, 2.0])
        log = DynoLog("log", t, *(np.ones(3) for _ in range(8)))
        trace = Trace(name="tr", t=t, v=np.ones(3))
        message = f"^dt must be finite and positive, got {dt}$"
        for make_grid in (lambda: resample(DriveCycle("c", t, [0, 1, 0]), dt),
                          lambda: log.resampled(dt), lambda: align(trace, trace, dt)):
            with pytest.raises(InvalidArgument, match=message):
                make_grid()

    @given(span=st.floats(0.0, 1e4), dt=st.floats(1e-3, 10.0))
    def test_grid_from_zero_is_the_scaled_range(self, span, dt):
        """Starting at 0.0 adds nothing: 0.0 + k dt == k dt bit for bit."""
        n = int(np.floor(span / dt + 1e-9))
        assert uniform_grid(0.0, span, dt).tobytes() == (np.arange(n + 1) * dt).tobytes()

    def test_endpoint_preserved_off_grid(self):
        cycle = DriveCycle("c", [0, 1.05], [0.0, 2.1])
        rs = resample(cycle, 0.5)
        assert rs.t[-1] == pytest.approx(1.05)
        assert rs.v[-1] == pytest.approx(2.1)

    def test_idempotent_on_uniform(self):
        cycle = DriveCycle("u", np.arange(6.0), [0, 1, 4, 2, 2, 0])
        once = resample(cycle, 1.0)
        twice = resample(once, 1.0)
        assert np.array_equal(once.t, twice.t)
        assert np.array_equal(once.v, twice.v)

    def test_speed_bounds_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = rng.integers(3, 30)
            t = np.sort(rng.uniform(0.1, 60, n - 1))
            t = np.concatenate([[0.0], t])
            v = rng.uniform(0, 40, n)
            cycle = DriveCycle("r", t, v)
            rs = resample(cycle, float(rng.uniform(0.05, 2.0)))
            assert rs.v.min() >= cycle.v.min() - 1e-12
            assert rs.v.max() <= cycle.v.max() + 1e-12
