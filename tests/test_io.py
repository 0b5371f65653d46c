import contextlib
import csv
import errno
import io
import math
import os
import random
import signal
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import pdd._forked
import pdd.io
from conftest import assert_no_children
from test_cli import CSV_TEXT

from pdd import (
    ColumnBindings,
    DgpSpec,
    EmptyAfterFiltering,
    MissingColumn,
    ParseError,
    RunConfig,
    Sample,
    load_csv,
    parse_config_file,
    simulate,
    write_csv,
)

BIND = ColumnBindings(placebo_outcomes=("w1",), placebo_treatments=("z1",))


def test_drop_and_count_bad_rows():
    text = "d,y,w1,z1\n0.1,1.0,0.2,0.3\n0.2,oops,0.1,0.4\n-0.3,2.0,0.5,0.6\n"
    sample = load_csv(io.StringIO(text), BIND)
    assert sample.n == 2
    assert sample.dropped_rows == 1
    assert_allclose(sample.d, [0.1, -0.3])


def test_missing_value_dropped():
    text = "d,y,w1,z1\n0.1,1.0,,0.3\n0.2,1.5,0.1,0.4\n"
    sample = load_csv(io.StringIO(text), BIND)
    assert sample.n == 1 and sample.dropped_rows == 1


def test_non_finite_dropped():
    text = "d,y,w1,z1\n0.1,inf,0.2,0.3\n0.2,1.5,0.1,0.4\n"
    sample = load_csv(io.StringIO(text), BIND)
    assert sample.n == 1 and sample.dropped_rows == 1


def test_header_only_raises():
    with pytest.raises(EmptyAfterFiltering):
        load_csv(io.StringIO("d,y,w1,z1\n"), BIND)


def test_empty_file_raises_parse_error():
    with pytest.raises(ParseError):
        load_csv(io.StringIO(""), BIND)


def test_missing_column():
    with pytest.raises(MissingColumn):
        load_csv(io.StringIO("d,y,w1\n0.1,1.0,0.2\n"), BIND)


def test_row_wider_than_header_is_parse_error():
    text = "d,y,w1,z1\n0.1,1.0,0.2,0.3,9.9\n"
    with pytest.raises(ParseError) as err:
        load_csv(io.StringIO(text), BIND)
    assert err.value.row == 1


def test_short_row_counts_as_missing():
    text = "d,y,w1,z1\n0.1,1.0,0.2\n0.2,1.5,0.1,0.4\n"
    sample = load_csv(io.StringIO(text), BIND)
    assert sample.n == 1 and sample.dropped_rows == 1


def test_unused_columns_ignored():
    text = "d,extra,y,w1,z1\n0.1,zzz,1.0,0.2,0.3\n"
    sample = load_csv(io.StringIO(text), BIND)
    assert sample.n == 1 and sample.dropped_rows == 0


def test_roundtrip_simulated_sample():
    for design in ("sharp", "fuzzy_homogeneous"):
        spec = DgpSpec(n=200, seed=77, kappa=2.5, design=design)
        sample = simulate(spec)
        buffer = io.StringIO()
        write_csv(sample, buffer)
        buffer.seek(0)
        bindings = ColumnBindings(
            treatment="a" if design != "sharp" else None,
            placebo_outcomes=("w1",),
            placebo_treatments=("z1",),
        )
        back = load_csv(buffer, bindings)
        assert np.array_equal(back.d, sample.d)
        assert np.array_equal(back.y, sample.y)
        assert np.array_equal(back.W, sample.W)
        assert np.array_equal(back.Z, sample.Z)
        if design == "sharp":
            assert back.a is None
        else:
            assert np.array_equal(back.a, sample.a)
        assert back.dropped_rows == 0


def test_sample_shape_validation():
    with pytest.raises(ValueError):
        Sample(d=np.zeros(3), y=np.zeros(2), W=np.zeros((3, 1)), Z=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Sample(d=np.zeros(3), y=np.zeros(3), W=np.zeros((3, 2)), Z=np.zeros((3, 1)))


def test_require_sides():
    sample = Sample(
        d=np.array([-1.0, -1.0, 1.0, 2.0]),
        y=np.zeros(4),
        W=np.zeros((4, 1)),
        Z=np.zeros((4, 1)),
    )
    with pytest.raises(EmptyAfterFiltering):
        sample.require_sides(0.0)  # only one distinct value on the left
    sample2 = Sample(
        d=np.array([-1.0, -0.5, 1.0, 2.0]),
        y=np.zeros(4),
        W=np.zeros((4, 1)),
        Z=np.zeros((4, 1)),
    )
    sample2.require_sides(0.0)
    for d in ([-1.0, -0.5, 0.0, 0.0, 1.0, 1.0], [-1.0, -0.5, -0.2]):  # one value, or none, right
        short = Sample(d=np.array(d), y=np.zeros(len(d)), W=np.zeros((len(d), 1)),
                       Z=np.zeros((len(d), 1)))  # fmt: skip
        with pytest.raises(EmptyAfterFiltering, match="right side"):
            short.require_sides(0.0)


def test_run_config_validation():
    RunConfig(cutoff=0.0)
    with pytest.raises(ValueError):
        RunConfig(cutoff=0.0, alpha=0.0)
    with pytest.raises(ValueError):
        RunConfig(cutoff=0.0, kernel="box")
    with pytest.raises(ValueError):
        RunConfig(cutoff=0.0, h=-1.0)
    with pytest.raises(ValueError):
        RunConfig(cutoff=0.0, design="kink")


def test_parse_config_file():
    text = "# comment\n\ncutoff = 1.5\nkernel= window\nbias-bandwidth =0.4\n"
    values = parse_config_file(io.StringIO(text))
    assert values == {"cutoff": "1.5", "kernel": "window", "bias_bandwidth": "0.4"}
    with pytest.raises(ParseError):
        parse_config_file(io.StringIO("cutoff 1.5\n"))


def test_only_a_leading_byte_order_mark_is_dropped():
    # the mark goes before csv reads the header, so a quoted first name
    # still parses; a mark anywhere else is data
    text = '\ufeff"d",y,w1,z1\n0.1,1.0,0.2,0.3\n-0.3,2.0,0.5,0.6\n'
    got, want = load_csv(io.StringIO(text), BIND), load_csv(io.StringIO(text[1:]), BIND)
    for name in ("d", "y", "W", "Z"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    with pytest.raises(MissingColumn):
        load_csv(io.StringIO("\ufeff" + text), BIND)
    assert parse_config_file(io.StringIO("\ufeffkernel = window\n")) == {"kernel": "window"}


def reference_load_csv(source, bindings):
    """The per-row reader the chunked ``load_csv`` must match exactly."""
    reader = csv.reader(source)
    header = [name.strip() for name in next(reader)]
    index = {}
    for pos, name in enumerate(header):
        index.setdefault(name, pos)
    columns = {name: [] for name in bindings.used()}
    dropped = 0
    for rownum, row in enumerate(reader, start=1):
        if len(row) > len(header):
            raise ParseError(f"row {rownum} is too wide", row=rownum)
        values = {}
        ok = True
        for name in columns:
            pos = index[name]
            cell = row[pos].strip() if pos < len(row) else ""
            if not cell:
                ok = False
                break
            try:
                value = float(cell)
            except ValueError:
                ok = False
                break
            if not math.isfinite(value):
                ok = False
                break
            values[name] = value
        if not ok:
            dropped += 1
            continue
        for name, column in columns.items():
            column.append(values[name])
    if not columns[bindings.running]:
        raise EmptyAfterFiltering(f"no usable rows after dropping {dropped} incomplete rows")

    def col(name):
        return np.asarray(columns[name], dtype=float)

    n = col(bindings.running).shape[0]
    q = len(bindings.placebo_outcomes)
    W = np.column_stack([col(c) for c in bindings.placebo_outcomes]) if q else np.empty((n, 0))
    Z = np.column_stack([col(c) for c in bindings.placebo_treatments]) if q else np.empty((n, 0))
    a = col(bindings.treatment) if bindings.treatment else None
    return Sample(d=col(bindings.running), y=col(bindings.outcome), W=W, Z=Z, a=a,
                  dropped_rows=dropped)  # fmt: skip


def reference_write_csv(sample, out):
    """The per-row ``csv.writer`` whose bytes the chunked ``write_csv`` must match."""
    writer = csv.writer(out, lineterminator="\n")
    header = ["d", "y"]
    header += [f"w{j + 1}" for j in range(sample.q)]
    header += [f"z{j + 1}" for j in range(sample.q)]
    if sample.a is not None:
        header.append("a")
    writer.writerow(header)
    for i in range(sample.n):
        row = [format(sample.d[i], ".17g"), format(sample.y[i], ".17g")]
        row += [format(sample.W[i, j], ".17g") for j in range(sample.q)]
        row += [format(sample.Z[i, j], ".17g") for j in range(sample.q)]
        if sample.a is not None:
            row.append(format(sample.a[i], ".17g"))
        writer.writerow(row)


def assert_same_sample(got, want):
    for name in ("d", "y", "W", "Z"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.a is None) == (want.a is None)
    if want.a is not None:
        assert np.array_equal(got.a, want.a)
    assert got.dropped_rows == want.dropped_rows


#: Cells the reader must treat exactly as ``float(cell.strip())`` does.
ODD_CELLS = [
    "", "   ", " 1.5 ", "\t-2\t", "\u00a03\u00a0", "nan", "NaN", "inf", "-inf", "1e400",
    '"4.25"', '" 5 "', "1_0", "_1", "0x10", "abc", "-0", "+.5", "1e-320", '"1,5"',
]  # fmt: skip

#: The first header column is a duplicate name: the first ``d`` is the one bound.
ODD_HEADER = ["d", "note", " y ", "w1", "z1", "a", "d"]
ODD_BIND = ColumnBindings(treatment="a", placebo_outcomes=("w1",), placebo_treatments=("z1",))


def odd_csv(n_rows, seed, bad_rows=()):
    """A CSV mixing clean numbers with odd cells, junk, short rows and blank lines.

    Rows in ``bad_rows`` (1-based) are guaranteed to be dropped.
    """
    rnd = random.Random(seed)
    lines = [",".join(ODD_HEADER)]
    for rownum in range(1, n_rows + 1):
        cells = [repr(rnd.uniform(-1.0, 1.0)) for _ in ODD_HEADER]
        cells[1] = rnd.choice(["zzz", '"a,b"', "", "1"])
        if rnd.random() < 0.1:
            cells[rnd.randrange(len(cells))] = rnd.choice(ODD_CELLS)
        if rownum in bad_rows:
            cells[rnd.choice([0, 2, 3, 4, 5])] = "oops"
        kind = rnd.random()
        if kind < 0.02:
            lines.append("")
        elif kind < 0.04:
            lines.append(",".join(cells[: rnd.randrange(1, len(cells))]))
        else:
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunked_reader_matches_per_row_reader_at_chunk_edges(offset):
    n = pdd.io.CHUNK_ROWS + offset
    edge = pdd.io.CHUNK_ROWS
    text = odd_csv(n, seed=offset + 10, bad_rows={1, edge - 1, edge, edge + 1, n})
    got = load_csv(io.StringIO(text), ODD_BIND)
    want = reference_load_csv(io.StringIO(text), ODD_BIND)
    assert want.dropped_rows > 0
    assert_same_sample(got, want)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_chunked_reader_matches_per_row_reader_on_odd_cells(monkeypatch, chunk):
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", chunk)
    for seed in range(5):
        text = odd_csv(40, seed=seed)
        for bindings in (ODD_BIND, ColumnBindings(running="note"), ColumnBindings()):
            try:
                want = reference_load_csv(io.StringIO(text), bindings)
            except EmptyAfterFiltering:
                with pytest.raises(EmptyAfterFiltering):
                    load_csv(io.StringIO(text), bindings)
                continue
            assert_same_sample(load_csv(io.StringIO(text), bindings), want)


def test_every_odd_cell_parses_like_float_of_the_stripped_cell():
    text = "d,y\n" + "".join(f"{cell},{cell}\n" for cell in ODD_CELLS)
    got = load_csv(io.StringIO(text), ColumnBindings())
    assert_same_sample(got, reference_load_csv(io.StringIO(text), ColumnBindings()))
    assert got.n == 9  # padded, quoted, "1_0", "-0", "+.5" and the subnormal parse


def test_wide_row_beyond_first_chunk_reports_its_row(monkeypatch):
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", 2)
    text = "d,y\n1,2\n3,4\n5,6\n7,8,9\n"
    with pytest.raises(ParseError) as err:
        load_csv(io.StringIO(text), ColumnBindings())
    assert err.value.row == 4


@pytest.mark.parametrize("chunk", [2, 16384])
def test_oversized_field_is_parse_error_with_its_row(monkeypatch, chunk):
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", chunk)
    text = "d,y\n1,2\n3,4\n5,6\n7," + "8" * 200_000 + "\n9,10\n"
    with pytest.raises(ParseError) as err:
        load_csv(io.StringIO(text), ColumnBindings())
    assert err.value.row == 4


def load_outcome(load, source, bindings):
    """``load``'s sample, or the type and row of the error it raised."""
    try:
        return load(source, bindings)
    except (ParseError, EmptyAfterFiltering, MissingColumn) as exc:
        return type(exc), getattr(exc, "row", None)


def assert_same_outcome(got, want):
    if isinstance(want, Sample):
        assert isinstance(got, Sample), got
        assert_same_sample(got, want)
    else:
        assert got == want


def open_text(text, kind):
    """``text`` as ``load_csv`` gets it: a StringIO, a file opened as a path
    opens it (``newline=""``), or a stream decoded as stdin is (newlines
    translated)."""
    if kind == "string":
        return io.StringIO(text)
    data = io.BytesIO(text.encode())
    return io.TextIOWrapper(data, encoding="utf-8", newline="" if kind == "file" else None)


CLI_BINDINGS = st.sampled_from([ColumnBindings(), BIND, ColumnBindings(running="d", outcome="d")])
ODD_CSV = st.builds(odd_csv, st.integers(0, 30), st.integers(0, 2**16))
ODD_BINDINGS = st.sampled_from([ODD_BIND, ColumnBindings(running="note"), BIND])


@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(st.tuples(CSV_TEXT, CLI_BINDINGS), st.tuples(ODD_CSV, ODD_BINDINGS)),
    crlf=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 7, pdd.io.CHUNK_ROWS]),
    kind=st.sampled_from(["string", "file", "stdin"]),
)
def test_reader_matches_per_row_reader_on_generated_csv(case, crlf, chunk, kind):
    text, bindings = case
    if crlf:
        text = text.replace("\n", "\r\n")
    want = load_outcome(reference_load_csv, open_text(text, kind), bindings)
    with mock.patch.object(pdd.io, "CHUNK_ROWS", chunk):
        got = load_outcome(load_csv, open_text(text, kind), bindings)
    assert_same_outcome(got, want)


def test_blank_line_in_a_clean_chunk_is_a_dropped_row():
    text = "d,y\n1,2\n\n3,4\n"
    got = load_csv(io.StringIO(text), ColumnBindings())
    assert (got.n, got.dropped_rows) == (2, 1)
    assert_same_sample(got, reference_load_csv(io.StringIO(text), ColumnBindings()))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk", [2, 16384])
def test_blank_lines_of_a_one_column_file_are_dropped_rows(monkeypatch, chunk):
    # a chunk of blank lines only would make loadtxt warn that it read no data
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", chunk)
    text = "d\n1\n2\n\n\n3\n"
    bindings = ColumnBindings(running="d", outcome="d")
    got = load_csv(io.StringIO(text), bindings)
    assert (got.d.tolist(), got.dropped_rows) == ([1.0, 2.0, 3.0], 2)
    assert_same_sample(got, reference_load_csv(io.StringIO(text), bindings))


def test_a_cell_with_a_hash_is_dropped_not_read_up_to_the_hash():
    for row in ("1#2,5", "5,1#2"):
        got = load_csv(io.StringIO(f"d,y\n{row}\n3,4\n"), ColumnBindings())
        assert (got.d.tolist(), got.dropped_rows) == ([3.0], 1)


def test_a_cell_with_an_ascii_separator_is_dropped():
    # loadtxt strips U+001C..U+001F as whitespace; float rejects the cell
    for sep in "\x1c\x1d\x1e\x1f":
        got = load_csv(io.StringIO(f"d,y\n{sep}1,5\n3,4{sep}\n6,7\n"), ColumnBindings())
        assert (got.n, got.dropped_rows) == (1, 2)


def test_a_wide_row_balanced_by_a_short_row_reports_the_wide_one():
    # the chunk's comma count equals that of three rows of the header's width
    text = "d,y,w\n1,2,3\n4,5,6,7\n8,9\n"
    with pytest.raises(ParseError) as err:
        load_csv(io.StringIO(text), ColumnBindings())
    assert err.value.row == 2


def test_quoted_field_across_a_chunk_boundary_loads_like_the_reference(monkeypatch):
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", 2)
    text = 'd,y,note\n1,2,x\n3,4,"a\nb,\nc"\n5,6,z\n7,8,\n'
    got = load_csv(io.StringIO(text), ColumnBindings())
    assert got.d.tolist() == [1.0, 3.0, 5.0, 7.0]
    assert_same_sample(got, reference_load_csv(io.StringIO(text), ColumnBindings()))


def test_a_bad_byte_after_the_first_chunk_is_a_utf8_parse_error(tmp_path):
    path = tmp_path / "late.csv"
    clean = b"1,2\n" * (pdd.io.CHUNK_ROWS + 10)
    path.write_bytes(b"d,y\n" + clean + b"3,caf\xe9\n" + clean)
    with pytest.raises(ParseError, match="input is not valid UTF-8") as err:
        load_csv(str(path), ColumnBindings())
    assert err.value.row is None


def test_clean_and_dirty_chunks_load_like_the_reference(monkeypatch):
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", 3)
    clean = "0.5,1,x,2,7\n-0.25,3,,4,1e3\n1e-3,-2,y,0, 8\n"
    dirty = [
        "1,2,n,3,0\n\n4,5,n,6,0\n",  # blank line
        "1,abc,n,3,0\n4,5,n,6,0\n7,8,n,9,0\n",  # non-numeric cell
        "1_0,2,n,3,0\n4,5,n,6,0\n7,8,n,9,0\n",  # read by float only
        "nan,2,n,3,0\n4,inf,n,6,0\n7,8,n,9,0\n",  # non-finite
        "1,2,n,3\n4,5,n,6,0\n7,8,n,9,0\n",  # short row
        "1,2,n,3,0\x00\n4,5,n,6,0\n7,8,n,9,0\n",  # NUL, which csv rejects
    ]
    text = "d,y,note,w1,z1\n" + clean + clean.join(dirty[:-1]) + clean
    got = load_csv(io.StringIO(text), BIND)
    assert got.dropped_rows == 5
    assert_same_sample(got, reference_load_csv(io.StringIO(text), BIND))
    text += dirty[-1]
    try:
        want = reference_load_csv(io.StringIO(text), BIND)
    except csv.Error:  # csv before Python 3.11 rejects a NUL
        with pytest.raises(ParseError) as err:
            load_csv(io.StringIO(text), BIND)
        assert err.value.row == text.count("\n") - 3
    else:
        assert_same_sample(load_csv(io.StringIO(text), BIND), want)


@pytest.mark.parametrize("text", ["d\n1\r2\n\n", "d\n1\r\n2\r3\n"])
def test_a_carriage_return_inside_a_line_is_a_parse_error(text, monkeypatch):
    # loadtxt may end a row at a bare CR, giving one line two rows; some
    # numpy versions reject such a line themselves, so the gate must not ask
    def never(*args, **kwargs):
        raise AssertionError("a line holding a bare CR reached loadtxt")

    monkeypatch.setattr(pdd.io.np, "loadtxt", never)
    bindings = ColumnBindings(running="d", outcome="d")
    with pytest.raises(ParseError, match="new-line character") as err:
        load_csv(io.StringIO(text), bindings)
    assert err.value.row == text.count("\r\n") + 1


def test_a_rejected_chunk_sends_the_rest_of_the_input_to_csv(monkeypatch):
    # a file with one bad cell likely has more: no chunk is parsed twice again
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", 2)
    text = "d,y\n1,2\n3,4\n5,NA\n7,8\n9,10\n11,12\n13,\n"
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(pdd.io.np, "loadtxt", counted)
    got = load_csv(io.StringIO(text), ColumnBindings())
    assert len(calls) == 2
    assert (got.d.tolist(), got.dropped_rows) == ([1.0, 3.0, 7.0, 9.0, 11.0], 2)


def test_a_clean_file_never_reaches_the_float_conversion(tmp_path, monkeypatch):
    path = tmp_path / "clean.csv"
    sample = simulate(DgpSpec(n=2 * pdd.io.CHUNK_ROWS + 5, seed=4, design="fuzzy_homogeneous"))
    with open(path, "w", newline="") as out:
        write_csv(sample, out)
    bindings = ColumnBindings(treatment="a", placebo_outcomes=("w1",), placebo_treatments=("z1",))
    want = load_csv(str(path), bindings)

    def never(*args):
        raise AssertionError("a clean chunk went through csv and float")

    monkeypatch.setattr(pdd.io, "_to_floats", never)
    monkeypatch.setattr(pdd.io, "_csv_columns", never)
    assert_same_sample(load_csv(str(path), bindings), want)
    assert_same_sample(want, sample)


def sample_with(columns, q, with_a):
    n = columns.shape[0]
    return Sample(
        d=columns[:, 0],
        y=columns[:, 1],
        W=columns[:, 2 : 2 + q].reshape(n, q),
        Z=columns[:, 2 + q : 2 + 2 * q].reshape(n, q),
        a=columns[:, -1] if with_a else None,
    )


@pytest.mark.parametrize("n", [1] + [pdd.io.CHUNK_ROWS + offset for offset in (-1, 0, 1)])
def test_writer_bytes_equal_per_row_writer(n):
    rng = np.random.default_rng(n)
    columns = rng.standard_normal((n, 9)) * 10.0 ** rng.integers(-300, 301, (n, 9))
    columns[:4, :4] = [[0.0, -0.0, 1e300, -1e-300], [5e-324, np.nan, np.inf, -np.inf],
                       [1.0, 2.0, 0.1, 1 / 3], [-1e300, 1e-300, 123456789.0, 2.0**60]][:n]  # fmt: skip
    for q, with_a in ((0, False), (1, True), (2, False), (3, False)):
        sample = sample_with(columns, q, with_a)
        got, want = io.StringIO(), io.StringIO()
        write_csv(sample, got)
        reference_write_csv(sample, want)
        assert got.getvalue() == want.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.booleans(),
            arrays(
                np.float64,
                st.tuples(st.integers(1, 40), st.just(3 + 2 * q)),
                elements=st.floats(allow_nan=False, allow_infinity=False),
            ),
        )
    )
)
def test_write_then_load_round_trips_bit_exactly(case):
    q, with_a, columns = case
    sample = sample_with(columns, q, with_a)
    buffer = io.StringIO()
    write_csv(sample, buffer)
    buffer.seek(0)
    bindings = ColumnBindings(
        treatment="a" if with_a else None,
        placebo_outcomes=tuple(f"w{j + 1}" for j in range(q)),
        placebo_treatments=tuple(f"z{j + 1}" for j in range(q)),
    )
    back = load_csv(buffer, bindings)
    assert back.dropped_rows == 0
    for name in ("d", "y", "W", "Z", "a"):
        got, want = getattr(back, name), getattr(sample, name)
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), name


@pytest.mark.parametrize("chunk", [1, 2])
def test_a_wide_row_before_a_row_csv_cannot_split_is_reported_first(monkeypatch, chunk):
    # csv rejects the bare CR of row 2 only after it split the wide row 1
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", chunk)
    with pytest.raises(ParseError, match="^row 1 has 5 fields but the header has 4$") as err:
        load_csv(io.StringIO("d,y,w1,z1\n,,,,\n\r0\n"), BIND)
    assert err.value.row == 1


@pytest.mark.parametrize("chunk", [1, 2, 16384])
@pytest.mark.parametrize(
    "row_1, error",
    [
        (b"1,2,3", "^row 1 has 3 fields but the header has 2$"),
        # csv would still be reading the quoted field when the text fails to decode
        (b'1,2,"3', "^input is not valid UTF-8: "),
    ],
)
def test_a_wide_row_before_a_decoding_error_is_reported_first(
    tmp_path, monkeypatch, chunk, row_1, error
):
    # the bad byte is decoded a block ahead of the row being read, after
    # row 1 but while the chunk's lines are still being collected
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", chunk)
    path = tmp_path / "late.csv"
    path.write_bytes(b"d,y\n" + row_1 + b"\n" + b"1,2\n" * 5000 + b"3,caf\xe9\n")
    with pytest.raises(ParseError, match=error) as err:
        load_csv(str(path), ColumnBindings())
    assert err.value.row == (1 if row_1 == b"1,2,3" else None)


#: Data lines of a ``d,y`` file that send a chunk away from ``np.loadtxt``
#: or end the read, by what they hold.
TROUBLES = {
    "gap": b"5,",
    "quote": b'"5",6',
    "nul": b"5,6\x00",
    "bare CR": b"5\r,6",
    "invalid UTF-8": b"5,caf\xe9",
    "wide row": b"5,6,7",
}

#: ``CHUNK_ROWS`` in the tests of the worker processes, so that a small file
#: spans many chunks.
SMALL_CHUNK = 4


def chunked_file(tmp_path, trouble_at=None, trouble=b"", rows=3 * SMALL_CHUNK + 2):
    """A ``d,y`` file of ``rows`` data lines, the line ``trouble_at``
    (0-based) replaced by ``trouble``."""
    lines = [b"%d,%r" % (i, i / 7.0) for i in range(rows)]
    if trouble_at is not None:
        lines[trouble_at] = trouble
    path = tmp_path / "chunks.csv"
    path.write_bytes(b"d,y\n" + b"\n".join(lines) + b"\n")
    return str(path)


def loaded(source, bindings=ColumnBindings()):
    """``load_csv``'s sample, or the type, row and message of its error."""
    try:
        return load_csv(source, bindings)
    except (ParseError, EmptyAfterFiltering, MissingColumn) as exc:
        return type(exc), getattr(exc, "row", None), str(exc)


@pytest.mark.parametrize("chunk", [0, 1, 2])
@pytest.mark.parametrize("trouble", TROUBLES)
def test_workers_load_what_one_process_loads(tmp_path, monkeypatch, workers, trouble, chunk):
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", SMALL_CHUNK)
    path = chunked_file(tmp_path, chunk * SMALL_CHUNK + 1, TROUBLES[trouble])
    workers(1)
    want = loaded(path)
    for count in (2, 3):
        workers(count)
        assert_same_outcome(loaded(path), want)
        assert_no_children()


def test_each_worker_parses_its_own_chunks(tmp_path, monkeypatch, workers):
    # chunks 0 and 2 of four are parsed here; a spy in a worker counts in
    # the worker's memory, not this process's
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", SMALL_CHUNK)
    path = chunked_file(tmp_path)
    parsed = []
    real = pdd.io._loadtxt_columns

    def spy(lines, width, usecols):
        parsed.append(lines[0])
        return real(lines, width, usecols)

    monkeypatch.setattr(pdd.io, "_loadtxt_columns", spy)
    workers(2)
    got = load_csv(path, ColumnBindings())
    assert parsed == ["0,0.0\n", f"{2 * SMALL_CHUNK},{2 * SMALL_CHUNK / 7.0!r}\n"]
    assert got.d.tolist() == list(range(3 * SMALL_CHUNK + 2))
    assert_no_children()


@pytest.mark.parametrize("failure", ["dies", "raises"])
def test_a_failed_worker_leaves_its_chunks_to_this_process(tmp_path, monkeypatch, workers, failure):
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", SMALL_CHUNK)
    path = chunked_file(tmp_path)
    workers(1)
    want = load_csv(path, ColumnBindings())
    parent, real = os.getpid(), pdd.io._loadtxt_columns

    def fail_in_a_worker(lines, width, usecols):
        if os.getpid() != parent:
            if failure == "dies":
                os._exit(9)
            raise RuntimeError("a worker failed")
        return real(lines, width, usecols)

    monkeypatch.setattr(pdd.io, "_loadtxt_columns", fail_in_a_worker)
    for count in (2, 3):
        workers(count)
        assert_same_sample(load_csv(path, ColumnBindings()), want)
        assert_no_children()


def test_no_worker_is_forked_for_a_stream_or_beside_another_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", SMALL_CHUNK)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    one_chunk = tmp_path / "one.csv"
    one_chunk.write_text("d,y\n" + "1,2\n" * SMALL_CHUNK)
    write_csv(load_csv(str(one_chunk), ColumnBindings()), io.StringIO())
    assert forks == []
    path = chunked_file(tmp_path)
    sample = load_csv(path, ColumnBindings())
    assert forks  # a path of several chunks is split
    forks.clear()
    with open(path, newline="") as stream:
        assert_same_sample(load_csv(stream, ColumnBindings()), sample)
    with open(path) as text:
        assert_same_sample(load_csv(open_text(text.read(), "stdin"), ColumnBindings()), sample)
    assert forks == []
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert_same_sample(load_csv(path, ColumnBindings()), sample)
        write_csv(sample, io.StringIO())
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


@pytest.mark.parametrize("n", [SMALL_CHUNK, SMALL_CHUNK + 1, 3 * SMALL_CHUNK + 1])
def test_workers_write_the_bytes_one_process_writes(monkeypatch, workers, n):
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", SMALL_CHUNK)
    rng = np.random.default_rng(n)
    columns = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-300, 301, (n, 5))
    sample = sample_with(columns, 1, True)
    want = io.StringIO()
    reference_write_csv(sample, want)
    parent, real = os.getpid(), pdd.io._chunk_text

    def dying_in_a_worker(columns, row, start):
        if os.getpid() != parent and start == SMALL_CHUNK:
            os._exit(9)
        return real(columns, row, start)

    for count, text in ((1, real), (2, real), (3, real), (2, dying_in_a_worker)):
        monkeypatch.setattr(pdd.io, "_chunk_text", text)
        workers(count)
        got = io.StringIO()
        write_csv(sample, got)
        assert got.getvalue() == want.getvalue()
        assert_no_children()


@contextlib.contextmanager
def deadline(seconds):
    """Fail the block, through SIGALRM, if it runs longer than ``seconds``,
    so a read that waits on a worker for ever fails in place of hanging."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_pipe_named_by_a_path_is_read_by_this_process_alone(tmp_path, monkeypatch, workers):
    # a worker reopening the pipe would take lines out of this process's
    # stream; the file is larger than a pipe's buffer, so the writer is
    # still writing when a worker could open it
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", 1000)
    path = tmp_path / "rows.csv"
    path.write_bytes(b"d,y\n" + b"".join(b"%d,%r\n" % (i, i / 7.0) for i in range(30000)))
    workers(1)
    want = load_csv(str(path), ColumnBindings())
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    copy = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))"
    workers(2)
    writer = subprocess.Popen([sys.executable, "-c", copy, str(path), fifo])
    try:
        with deadline(60):
            got = loaded(fifo)
    finally:
        writer.kill()
        writer.wait()
    assert_same_outcome(got, want)
    assert_no_children()


@pytest.mark.parametrize("change", ["replaced", "rewritten"])
def test_a_worker_reads_nothing_of_a_file_changed_after_it_was_opened(
    tmp_path, monkeypatch, workers, change
):
    # the file changes between this process's open and the workers'; this
    # process read it whole into its buffer first, so it loads the old rows
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", SMALL_CHUNK)
    path = chunked_file(tmp_path)
    workers(1)
    want = load_csv(path, ColumnBindings())
    with open(path, "rb") as fh:
        old = fh.read()
    new = old.replace(b"0", b"9")  # the same size, other numbers
    assert len(new) == len(old) and new != old
    real = pdd._forked.fork

    def change_then_fork(produce):
        if change == "replaced":
            other = tmp_path / "other.csv"
            other.write_bytes(new)
            os.replace(other, path)
        else:
            mtime = os.stat(path).st_mtime_ns
            with open(path, "r+b") as fh:
                fh.write(new)
            os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
        return real(produce)

    monkeypatch.setattr(pdd._forked, "fork", change_then_fork)
    workers(2)
    assert_same_sample(load_csv(path, ColumnBindings()), want)
    assert_no_children()


@pytest.mark.parametrize("made", [0, 1])
@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_worker_the_system_cannot_make_leaves_its_chunks_to_this_process(
    tmp_path, monkeypatch, workers, call, made
):
    # chunk 3k + 1 is the first worker's, whichever of the two is missing
    monkeypatch.setattr(pdd.io, "CHUNK_ROWS", SMALL_CHUNK)
    path = chunked_file(tmp_path, rows=8 * SMALL_CHUNK + 2)
    workers(1)
    want = load_csv(path, ColumnBindings())
    want_text = io.StringIO()
    write_csv(want, want_text)
    calls, real = [], getattr(os, call)

    def failing(*args):
        calls.append(call)
        if len(calls) > made:
            raise OSError(errno.EAGAIN if call == "fork" else errno.EMFILE, "refused")
        return real(*args)

    monkeypatch.setattr(os, call, failing)
    workers(3)
    assert_same_sample(load_csv(path, ColumnBindings()), want)
    assert_no_children()
    calls.clear()
    got = io.StringIO()
    write_csv(want, got)
    assert got.getvalue() == want_text.getvalue()
    assert_no_children()
