import csv
import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import pdd.io

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
    used = bindings.used()
    columns = {name: [] for name in used}
    dropped = 0
    for rownum, row in enumerate(reader, start=1):
        if len(row) > len(header):
            raise ParseError(f"row {rownum} is too wide", row=rownum)
        values = {}
        ok = True
        for name in used:
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
        for name in used:
            columns[name].append(values[name])
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
