import csv

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vcdfuel.csvio import read_columns, write_columns
from vcdfuel.drive_cycles import DriveCycle
from vcdfuel.dyno import DYNO_COLUMNS, DynoLog
from vcdfuel.errors import ParseError
from vcdfuel.trace import Trace, read_trace_csv

finite = st.floats(allow_nan=False, allow_infinity=False)
# read_columns returns float64, which holds every integer up to 2**53 exactly
whole = st.integers(-2**53, 2**53)
columns = st.integers(1, 20).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, n, elements=finite),
    hnp.arrays(np.float64, n, elements=finite),
    hnp.arrays(np.int64, n, elements=whole)))
edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
                 1.7976931348623157e308, 0.1, 1 / 3])


class TestRoundTrip:
    @given(columns)
    @example((edge, edge[::-1].copy(), np.arange(-5, 5)))
    def test_bit_exact(self, tmp_path_factory, cols):
        x, y, n = cols
        path = tmp_path_factory.mktemp("csv") / "cols.csv"
        write_columns(path, {"x": x, "y": y, "n": n}, "%r")
        back = read_columns(path)
        assert list(back) == ["x", "y", "n"]
        assert np.array_equal(back["x"].view(np.int64), x.view(np.int64))
        assert np.array_equal(back["y"].view(np.int64), y.view(np.int64))
        assert np.array_equal(back["n"].astype(np.int64), n)

    def test_long_file_crosses_blocks(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2**63, 2_500, dtype=np.uint64).view(np.float64)
        x[~np.isfinite(x)] = 0.0
        path = tmp_path / "long.csv"
        write_columns(path, {"x": x, "n": np.arange(x.size)}, "%r")
        back = read_columns(path)
        assert np.array_equal(back["x"].view(np.int64), x.view(np.int64))
        assert np.array_equal(back["n"], np.arange(x.size))

    def test_crlf_and_integer_cells(self, tmp_path):
        path = tmp_path / "c.csv"
        write_columns(path, {"t": np.array([0.0, 0.5]), "gear": np.array([1, 2])}, "%r")
        assert path.read_bytes() == b"t,gear\r\n0.0,1\r\n0.5,2\r\n"

    def test_format_applies_to_float_columns(self, tmp_path):
        path = tmp_path / "c.csv"
        write_columns(path, {"t": np.array([1 / 3]), "gear": np.array([3])}, "%.10g")
        assert path.read_bytes() == b"t,gear\r\n0.3333333333,3\r\n"


def csv_writer_columns(path, columns, fmt):
    """The writer before bulk formatting: ``csv.writer`` rows, one ``fmt``
    call per float cell and ``str`` per integer cell. Kept as the reference
    that ``write_columns`` must match byte for byte."""
    n = len(next(iter(columns.values())))
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for i in range(0, n, 1024):
            writer.writerows(zip(*(map(str if col.dtype.kind in "iu" else fmt,
                                       col[i:i + 1024].tolist()) for col in columns.values())))


SPECS = [("%r", repr), ("%.10g", "{:.10g}".format)]


class TestWriteOracle:
    @given(columns, st.sampled_from(SPECS))
    @example((edge, edge[::-1].copy(), np.arange(-5, 5)), SPECS[0])
    @example((edge, edge[::-1].copy(), np.arange(-5, 5)), SPECS[1])
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, cols, specs):
        spec, fmt = specs
        x, y, n = cols
        cols = {"x": x, "n": n, "y": y}
        path = tmp_path_factory.mktemp("csv")
        write_columns(path / "new.csv", cols, spec)
        csv_writer_columns(path / "old.csv", cols, fmt)
        assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()

    @pytest.mark.parametrize("spec, fmt", SPECS, ids=["repr", "10g"])
    def test_same_bytes_across_blocks(self, tmp_path, spec, fmt):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2**64, 2_500, dtype=np.uint64).view(np.float64)
        x[~np.isfinite(x)] = -0.0
        cols = {"t": np.arange(x.size) * 0.1, "x": x,
                "gear": rng.integers(1, 7, x.size), "big": rng.integers(-2**62, 2**62, x.size)}
        write_columns(tmp_path / "new.csv", cols, spec)
        csv_writer_columns(tmp_path / "old.csv", cols, fmt)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestReadColumns:
    def test_header_case_and_blank_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(" T , V\n0,1\n\n , \n2,3\n")
        data = read_columns(path)
        assert list(data) == ["t", "v"]
        assert data["t"].tolist() == [0.0, 2.0] and data["v"].tolist() == [1.0, 3.0]

    @pytest.mark.parametrize("text, message", [
        (b"", r"c\.csv:1: empty header"),
        (b"\n0,1\n", r"c\.csv:1: empty header"),
        (b"t,,v\n0,1,2\n", r"c\.csv:1: empty header"),
        (b"t,v,V\n0,1,2\n", r"c\.csv:1: repeated column"),
        (b"t,v\n", r"c\.csv: no data rows"),
        (b"t,v\n0,1\n\n1,2,3\n", r"c\.csv:4: expected 2 columns, got 3"),
        (b"t,v\n0,1\n1,abc\n", r"c\.csv:3: could not convert string to float: 'abc'"),
        (b"t,v\n0,1\n1,nan\n", r"c\.csv:3: non-finite value 'nan' in column 'v'"),
        (b"t,v\n0,1\n-inf,2\n", r"c\.csv:3: non-finite value '-inf' in column 't'"),
        (b"t,v\n0,\xff\n", r"c\.csv: 'utf-8' codec can't decode"),
        (b"t,v\n0," + b"1" * 200_000 + b"\n", r"c\.csv: field larger than field limit"),
    ], ids=["empty-file", "blank-header", "empty-name", "repeated", "no-rows", "ragged",
            "not-a-number", "nan", "inf", "not-utf8", "huge-field"])
    def test_malformed(self, tmp_path, text, message):
        path = tmp_path / "c.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError, match=message):
            read_columns(path)

    def test_line_numbers_past_the_first_block(self, tmp_path):
        lines = ["t,v"] + [f"{i},1" if i % 100 else "" for i in range(3_000)]
        lines[2_501] = "2500,inf"
        path = tmp_path / "c.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"c\.csv:2502: non-finite value 'inf'"):
            read_columns(path)
        lines[2_501] = "2500,x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"c\.csv:2502: could not convert"):
            read_columns(path)

    @given(st.one_of(st.binary(max_size=120),
                     st.text(',\r\n "tv.0123456789e+-naif', max_size=120).map(str.encode)))
    def test_any_bytes_parse_or_raise(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("csv") / "fuzz.csv"
        path.write_bytes(blob)
        try:
            data = read_columns(path)
        except ParseError:
            return
        assert len({col.size for col in data.values()}) == 1
        assert all(col.size and np.isfinite(col).all() for col in data.values())


class TestTraceColumns:
    @pytest.mark.parametrize("col", ["gear", "flags"])
    def test_fractional_integer_column_rejected(self, tmp_path, col):
        path = tmp_path / "tr.csv"
        path.write_text(f"t,v,{col}\n0,0,1\n1,1,1.5\n")
        with pytest.raises(ParseError, match=f"column '{col}' holds non-integers"):
            read_trace_csv(path)

    def test_integer_columns_come_back_as_int(self, tmp_path):
        path = tmp_path / "tr.csv"
        path.write_text("t,v,gear,flags\n0,0,1,0\n1,1,2.0,4\n")
        trace = read_trace_csv(path)
        assert trace.gear.dtype.kind == "i" and trace.gear.tolist() == [1, 2]
        assert trace.flags.tolist() == [0, 4]

    @pytest.mark.parametrize("col, value", [("t", np.nan), ("v", np.inf), ("fuel", -np.inf)])
    def test_non_finite_float_column_rejected(self, col, value):
        cols = {"t": np.arange(3.0), "v": np.ones(3), "fuel": np.ones(3)}
        cols[col][1] = value
        with pytest.raises(ParseError, match=f"trace 'x': column '{col}' holds non-finite"):
            Trace(name="x", **cols)


# (owner label, class, columns it accepts) of every container of columns
CONTAINERS = {
    "trace": ("trace 'x'", Trace, {"t": [0.0, 1.0, 2.0], "v": [0.0, 1.0, 1.0],
                                   "gear": [1, 1, 2], "flags": [0, 0, 4]}),
    "dyno": ("dyno log 'x'", DynoLog, {col: [0.0, 1.0, 2.0] for col in DYNO_COLUMNS}),
    "cycle": ("cycle 'x'", DriveCycle, {"t": [0.0, 1.0, 2.0], "v": [0.0, 1.0, 1.0]}),
}


def two_d(values):
    return [values, values]


class TestColumnRule:
    """One rule for the columns of a Trace, DynoLog and DriveCycle: t is
    one-dimensional, every column has t's shape, every value is finite."""

    @pytest.mark.parametrize("kind, changes, message", [
        ("trace", {"t": two_d, "v": two_d, "gear": two_d, "flags": two_d},
         "column 't' is not one-dimensional, shape [2, 3]"),
        ("dyno", {col: two_d for col in DYNO_COLUMNS},
         "column 't' is not one-dimensional, shape [2, 3]"),
        ("cycle", {"t": two_d, "v": two_d}, "column 't' is not one-dimensional, shape [2, 3]"),
        ("trace", {"v": two_d}, "t and v differ in shape, [3] and [2, 3]"),
        ("trace", {"v": lambda v: [v]}, "t and v differ in shape, [3] and [1, 3]"),
        ("dyno", {"engine_rpm": two_d}, "t and engine_rpm differ in shape, [3] and [2, 3]"),
        ("trace", {"gear": lambda _: [1]}, "t and gear differ in shape, [3] and [1]"),
        ("dyno", {"gear": lambda _: [1]}, "t and gear differ in shape, [3] and [1]"),
        ("trace", {"flags": two_d}, "t and flags differ in shape, [3] and [2, 3]"),
        ("trace", {"gear": lambda _: [1, np.nan, 2]}, "column 'gear' holds non-finite values"),
        ("trace", {"flags": lambda _: [0, 0, np.inf]}, "column 'flags' holds non-finite values"),
        ("trace", {"gear": lambda _: [1, 1e20, 2]}, "column 'gear' holds non-integers"),
        ("cycle", {"t": lambda _: [0, np.nan, 2]}, "column 't' holds non-finite values"),
        ("cycle", {"v": lambda _: [0, 1, np.inf]}, "column 'v' holds non-finite values"),
    ], ids=["trace-2d-t", "dyno-2d-t", "cycle-2d-t", "trace-2d-v", "trace-row-v",
            "dyno-2d-rpm", "trace-short-gear", "dyno-short-gear", "trace-2d-flags",
            "trace-nan-gear", "trace-inf-flags", "trace-huge-gear", "cycle-nan-t",
            "cycle-inf-v"])
    def test_bad_column_is_a_parse_error_naming_it(self, kind, changes, message):
        owner, cls, cols = CONTAINERS[kind]
        cols = {**cols, **{col: change(cols[col]) for col, change in changes.items()}}
        with pytest.raises(ParseError) as info:
            cls(name="x", **cols)
        assert str(info.value) == f"{owner}: {message}"

    @pytest.mark.parametrize("kind", CONTAINERS)
    @given(data=st.data())
    def test_constructs_exactly_when_shapes_are_one_and_the_same_1d(self, kind, data):
        owner, cls, cols = CONTAINERS[kind]
        shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=2, max_side=4)
        t_shape = data.draw(shapes, label="t shape")
        col = data.draw(st.sampled_from(list(cols)[1:]), label="column")
        # t's shape, one with t's size, or any
        same_size = st.sampled_from([t_shape, (1, *t_shape), (*t_shape, 1)])
        col_shape = data.draw(st.one_of(same_size, shapes), label="column shape")
        t = np.arange(float(np.prod(t_shape))).reshape(t_shape)
        drawn = {name: np.zeros(t_shape) for name in cols}
        drawn.update({"t": t, col: np.zeros(col_shape)})
        if t_shape == col_shape and len(t_shape) == 1:
            cls(name="x", **drawn)
        else:
            with pytest.raises(ParseError) as info:
                cls(name="x", **drawn)
            named = "column 't'" if len(t_shape) != 1 else f"t and {col} differ in shape"
            assert str(info.value).startswith(f"{owner}: {named}")
