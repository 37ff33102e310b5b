"""The CSV format of fileio: write_csv and read_csv round trips, and the
array path against the cell-by-cell path."""

import math
import string
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab.fileio import cell, read_csv, write_csv

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1]

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
plain_text = st.text(alphabet=string.ascii_letters + string.digits + "-_.:'()",
                     max_size=8)
comment_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters="\r\n"))


@st.composite
def tables(draw):
    """Column names, rows of mixed cells (floats, np.float64, ints,
    strings), and free comment lines."""
    ncols = draw(st.integers(1, 4))
    columns = draw(st.lists(st.text(alphabet=string.ascii_letters, min_size=1,
                                    max_size=6),
                            min_size=ncols, max_size=ncols, unique=True))
    # a one-column row of an empty string would be a blank line
    text = plain_text.filter(bool) if ncols == 1 else plain_text
    cells = st.one_of(floats, floats.map(np.float64), st.integers(), text)
    rows = draw(st.lists(st.lists(cells, min_size=ncols, max_size=ncols),
                         max_size=6))
    comments = draw(st.lists(comment_text, max_size=3))
    return columns, rows, comments


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_write_read_round_trip(tmp_path_factory, table):
    columns, rows, comments = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, columns, rows, comments)
    back_comments, header, back = read_csv(path)
    assert back_comments == comments
    assert header == columns
    assert len(back) == len(rows)
    for row, got in zip(rows, back):
        assert list(got) == columns
        for v, s in zip(row, got.values()):
            if isinstance(v, (float, np.floating)):
                assert _same_float(float(v), float(s)), (v, s)
            else:
                assert s == str(v)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(1, 4), st.data())
def test_array_rows_equal_cell_rows(tmp_path_factory, nrows, ncols, data):
    """A numeric array writes the bytes its rows give cell by cell."""
    dtype = data.draw(st.sampled_from([float, np.int64]))
    values = data.draw(st.lists(floats if dtype is float else st.integers(-2**62, 2**62),
                                min_size=nrows * ncols, max_size=nrows * ncols))
    arr = np.array(values, dtype=dtype).reshape(nrows, ncols)
    columns = [f"c{k}" for k in range(ncols)]
    d = tmp_path_factory.mktemp("csv")
    write_csv(d / "array.csv", columns, arr, ["z=1"])
    write_csv(d / "cells.csv", columns, list(arr), ["z=1"])
    assert (d / "array.csv").read_bytes() == (d / "cells.csv").read_bytes()


def test_cell_formats_numpy_floats_as_plain_numbers():
    assert cell(np.float64(0.1)) == "0.1"
    assert cell(np.float32(0.5)) == "0.5"
    assert cell(np.int64(-3)) == "-3"
    assert cell(-0.0) == "-0.0" and cell("") == ""


def test_read_csv_skips_blank_lines_and_keeps_empty_cells(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("#bare\n# z-slice k=3\n\nt,sup,dt\n0.0,1.0,\n\n0.5,2.0,0.5\n")
    comments, header, rows = read_csv(path)
    assert comments == ["bare", "z-slice k=3"]
    assert header == ["t", "sup", "dt"]
    assert rows == [dict(t="0.0", sup="1.0", dt=""), dict(t="0.5", sup="2.0", dt="0.5")]


def test_read_csv_rejects_a_ragged_row(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("x,y\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_csv(path)


def test_read_csv_of_a_file_without_header(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("# only a comment\n")
    assert read_csv(path) == (["only a comment"], [], [])
