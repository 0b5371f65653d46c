"""CSV ingestion, sample container, and run configuration."""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import operator
import os
import stat
from dataclasses import dataclass, field
from functools import partial
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import _forked
from .errors import EmptyAfterFiltering, MissingColumn, ParseError
from .kernels import KERNEL_KINDS
from .local_fit import _distinct_support

DESIGNS = ("sharp", "fuzzy")

#: Rows per chunk in ``load_csv`` and ``write_csv``: each chunk is parsed and
#: converted a whole column at a time (by numpy's C reader where the chunk is
#: plain numbers, see ``_loadtxt_columns``), and only one chunk of lines or
#: cell strings is held in each process. Chunks are also what is dealt to
#: the worker processes of a split read or write (``_forked``).
CHUNK_ROWS = 16384


@dataclass(frozen=True)
class Sample:
    """Observed columns for one analysis.

    ``W`` and ``Z`` are (n, q) with matching q; ``a`` is the optional 0/1
    treatment column (fuzzy designs only). Rows with missing values in used
    columns were dropped at load time and counted in ``dropped_rows``.
    """

    d: np.ndarray
    y: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    a: np.ndarray | None = None
    dropped_rows: int = 0

    def __post_init__(self) -> None:
        n = self.d.shape[0]
        if self.y.shape[0] != n:
            raise ValueError("outcome column length differs from running variable")
        if self.W.ndim != 2 or self.Z.ndim != 2:
            raise ValueError("placebo columns must be two-dimensional")
        if self.W.shape[0] != n or self.Z.shape[0] != n:
            raise ValueError("placebo column length differs from running variable")
        if self.W.shape[1] != self.Z.shape[1]:
            raise ValueError("placebo outcomes and treatments must have matching width")
        if self.a is not None and self.a.shape[0] != n:
            raise ValueError("treatment column length differs from running variable")

    @property
    def n(self) -> int:
        return int(self.d.shape[0])

    @property
    def q(self) -> int:
        return int(self.W.shape[1])

    def require_sides(self, cutoff: float) -> None:
        """Check there are at least 2 distinct d values strictly on each side,
        with the fits' support test (``local_fit._distinct_support``).

        The CLI runs it only after a failed run (``cli.run_estimate``): a run
        that returns has passed each side's quadratic support test, which
        implies this check.
        """
        short = [
            side
            for side, on_side in (("left", self.d < cutoff), ("right", self.d > cutoff))
            if not (self.n and _distinct_support(self.d, on_side, [0], 2)[0] == 2)
        ]
        if short:
            raise EmptyAfterFiltering(
                f"need at least 2 distinct running-variable values strictly on each "
                f"side of {cutoff}; fewer found on the {' and '.join(short)} side"
            )


@dataclass(frozen=True)
class ColumnBindings:
    """Names of the CSV columns to use."""

    running: str = "d"
    outcome: str = "y"
    treatment: str | None = None
    placebo_outcomes: tuple[str, ...] = ()
    placebo_treatments: tuple[str, ...] = ()

    def used(self) -> tuple[str, ...]:
        cols = [self.running, self.outcome]
        if self.treatment:
            cols.append(self.treatment)
        cols.extend(self.placebo_outcomes)
        cols.extend(self.placebo_treatments)
        return tuple(cols)


def load_csv(source: str | IO[str], bindings: ColumnBindings) -> Sample:
    """Read a header-ed CSV into a Sample.

    Rows with a missing or non-numeric value in any bound column are dropped
    and counted; a data row shorter than the header, or a blank line, counts
    as such a row. Structural problems (no header, a data row wider than the
    header, a malformed or oversized field, input that is not UTF-8) raise
    ParseError with the data row location. A UTF-8 byte-order mark opening
    the input is dropped, so a header saved with one names its columns.

    Rows are read ``CHUNK_ROWS`` lines at a time. A chunk of plain numbers
    (no quote, every line as wide as the header, every bound cell one that
    ``np.loadtxt`` reads) is parsed by numpy's C reader, which converts the
    bound columns only. From the first chunk that is not, the rest of the
    input is split by ``csv`` and each bound column of a chunk converted
    with one ``float`` pass; only a column holding a cell that ``float``
    rejects is converted again cell by cell. Either way the columns,
    ``dropped_rows`` and errors are the same.

    A ``source`` given as the path of a regular file of more than one chunk
    is parsed by this process and forked workers in turn (``_column_chunks``).
    Each worker reopens the path and reads nothing unless it finds the file
    this process opened, unchanged (device, inode, size and modification
    time); a file written while it is read is not supported. Any other
    source, a pipe named by a path included, is read by this process alone.
    The result is the same as one process's.
    """
    if len(bindings.placebo_outcomes) != len(bindings.placebo_treatments):
        raise ValueError("placebo outcome and treatment column lists must have equal length")
    close = False
    if isinstance(source, str):
        fh = open(source, "r", newline="", encoding="utf-8")
        close = True
    else:
        fh = source
    try:
        try:
            lines = _without_bom(fh)
            # csv takes only the header's lines: a quoted name may span lines
            header = next(csv.reader(lines))
        except StopIteration:
            raise ParseError("file is empty; a header row is required") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _malformed(exc, None) from exc
        header = [name.strip() for name in header]
        index: dict[str, int] = {}
        for pos, name in enumerate(header):
            index.setdefault(name, pos)
        for name in bindings.used():
            if name not in index:
                raise MissingColumn(f"column {name!r} not found in header {header}")
        positions = {name: index[name] for name in bindings.used()}
        parts: dict[str, list[np.ndarray]] = {name: [] for name in positions}
        dropped = 0
        # only a regular file reads the same each time its path is opened
        opened = os.fstat(fh.fileno()) if close else None
        file = (source, opened) if opened is not None and stat.S_ISREG(opened.st_mode) else None
        # closed here, so its workers end with this call whatever it raises
        with contextlib.closing(
            _column_chunks(lines, len(header), list(positions.values()), file)
        ) as loaded:
            for values in loaded:
                keep = np.logical_and.reduce([np.isfinite(v) for v in values])
                dropped += len(keep) - int(np.count_nonzero(keep))
                for part, v in zip(parts.values(), values):
                    part.append(v[keep])
        columns = {
            name: np.concatenate(chunks) if chunks else np.empty(0)
            for name, chunks in parts.items()
        }
        if not columns[bindings.running].size:
            raise EmptyAfterFiltering(
                f"no usable rows after dropping {dropped} incomplete rows"
            )
    finally:
        if close:
            fh.close()

    q = len(bindings.placebo_outcomes)
    n = columns[bindings.running].shape[0]
    W = (
        np.column_stack([columns[name] for name in bindings.placebo_outcomes])
        if q
        else np.empty((n, 0))
    )
    Z = (
        np.column_stack([columns[name] for name in bindings.placebo_treatments])
        if q
        else np.empty((n, 0))
    )
    return Sample(
        d=columns[bindings.running],
        y=columns[bindings.outcome],
        W=W,
        Z=Z,
        a=columns[bindings.treatment] if bindings.treatment else None,
        dropped_rows=dropped,
    )


def _malformed(exc: csv.Error | UnicodeDecodeError, row: int | None) -> ParseError:
    """The ParseError for a failure to read data row ``row`` (None: the header).

    A decoding failure names no row: text is decoded a block ahead of the
    row being split, so the row being read is not where the bad byte is.
    """
    if isinstance(exc, UnicodeDecodeError):
        return ParseError(f"input is not valid UTF-8: {exc}")
    if row is None:
        return ParseError(f"malformed CSV header: {exc}")
    return ParseError(f"malformed CSV at row {row}: {exc}", row=row)


def _without_bom(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` with one byte-order mark taken off the front of the first."""
    lines = iter(lines)
    for first in lines:
        return itertools.chain([first.removeprefix("\ufeff")], lines)
    return lines


def _column_chunks(
    lines: Iterator[str],
    width: int,
    usecols: list[int],
    file: tuple[str, os.stat_result] | None = None,
) -> Iterator[Sequence[np.ndarray]]:
    """The ``usecols`` columns of the data rows in ``lines``, ``CHUNK_ROWS``
    rows at a time, with NaN for a cell ``float`` rejects.

    A chunk of lines goes to numpy's C reader where ``_loadtxt_columns``
    proves the result equal to that of splitting it with ``csv`` and
    converting it with ``_csv_columns``. From the first chunk it cannot,
    ``csv`` splits the rest of the input: a quoted field may span lines and
    chunks, and a file with one such chunk likely has more, each of which
    would be parsed twice.

    Where ``lines`` are those of the regular ``file`` (its path and its
    ``os.fstat`` when opened) and hold more than one chunk, the chunks are
    dealt in turn to this process and to forked workers (``_loaded_chunks``),
    each of which runs ``_loadtxt_columns`` on its own chunks of the file;
    this process still reads every line, takes each worker's results in
    chunk order and parses a chunk itself where its worker failed or could
    not be made. The workers end before this generator does.
    """
    rows_read = 0
    records: Iterator[list[str]] | None = None
    workers: list[_forked.Worker | None] = []
    try:
        for index in itertools.count():
            chunk: list[str] = []
            rows: list[list[str]] = []
            values = None
            try:
                if records is None:
                    chunk.extend(itertools.islice(lines, CHUNK_ROWS))
                    if not chunk:
                        return
                    if index == 0 and file is not None and len(chunk) == CHUNK_ROWS:
                        lines = _start_loaders(workers, lines, file, chunk, width, usecols)
                    values = _forked.take(
                        workers, index, partial(_loadtxt_columns, chunk, width, usecols)
                    )
                    if values is None:
                        _forked.stop(workers)
                        records = csv.reader(itertools.chain(chunk, lines))
                if records is not None:
                    rows.extend(itertools.islice(records, CHUNK_ROWS))
            except (csv.Error, UnicodeDecodeError) as exc:
                # ``extend`` keeps the lines or rows read before the failing
                # one; lines are split as the ``csv`` path would split them,
                # up to ``exc``, and a row among them wider than the header,
                # or one ``csv`` cannot split, comes first
                if records is None:
                    try:
                        rows.extend(csv.reader(itertools.chain(chunk, _raising(exc))))
                    except (csv.Error, UnicodeDecodeError) as first:
                        exc = first
                _require_width(rows, rows_read, width)
                raise _malformed(exc, rows_read + len(rows) + 1) from exc
            if values is None:
                if not rows:
                    return
                values = _csv_columns(rows, rows_read, width, usecols)
            rows_read += len(values[0])
            yield values
    finally:
        _forked.stop(workers)


def _raising(exc: Exception) -> Iterator[str]:
    """An iterator that raises ``exc`` in place of its first item."""
    raise exc
    yield


def _start_loaders(
    workers: list[_forked.Worker | None],
    lines: Iterator[str],
    file: tuple[str, os.stat_result],
    chunk: list[str],
    width: int,
    usecols: list[int],
) -> Iterator[str]:
    """Fork the workers of ``_column_chunks`` into ``workers`` where a line
    follows the first ``chunk`` of ``file``; returns ``lines``, that line
    still first.
    """
    after = list(itertools.islice(lines, 1))
    if after:
        chunks = -(-file[1].st_size // sum(map(len, chunk)))  # about as many
        count = _forked.workers(chunks)
        _forked.fork_each(
            workers,
            (partial(_loaded_chunks, *file, width, usecols, w, count) for w in range(1, count)),
        )
    return itertools.chain(after, lines)


def _loaded_chunks(
    path: str, opened: os.stat_result, width: int, usecols: list[int], worker: int, workers: int
) -> Iterator[np.ndarray | None]:
    """``_loadtxt_columns`` of each chunk ``i`` of the file at ``path`` with
    ``i % workers == worker``, read line by line as ``load_csv`` reads it,
    up to the first it gives None for. Raises OSError, reading nothing,
    unless the file is the one ``opened`` describes, unchanged.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        if _identity(os.fstat(fh.fileno())) != _identity(opened):
            raise OSError(f"{path} is not the file being read")
        lines = _without_bom(fh)
        next(csv.reader(lines))
        for index in itertools.count():
            if index % workers != worker:
                next(itertools.islice(lines, CHUNK_ROWS, CHUNK_ROWS), None)  # skip the chunk
                continue
            chunk = list(itertools.islice(lines, CHUNK_ROWS))
            if not chunk:
                return
            values = _loadtxt_columns(chunk, width, usecols)
            yield values
            if values is None:
                return


def _identity(opened: os.stat_result) -> tuple[int, int, int, int]:
    """What tells a file and its version apart: device, inode, size and
    modification time."""
    return opened.st_dev, opened.st_ino, opened.st_size, opened.st_mtime_ns


def _loadtxt_columns(lines: list[str], width: int, usecols: list[int]) -> np.ndarray | None:
    """``np.loadtxt``'s ``usecols`` columns of ``lines``, or None unless they
    must equal what ``csv`` and ``_csv_columns`` give.

    Each difference between the two readers sends the chunk back: a quote
    may open a field ``csv`` reads across lines; ``csv`` rejects a NUL, a
    field of ``csv.field_size_limit()`` characters and a carriage return
    inside a line, where ``loadtxt`` may end a row at the latter; ``loadtxt``
    strips the separators U+001C to U+001F from a cell as whitespace, where
    ``float`` rejects the cell; ``loadtxt`` skips a blank line (and warns
    when left with no line) and accepts a row wider than ``usecols`` needs.
    A cell ``loadtxt`` rejects, such as an empty one or one ``float`` reads
    (``1_0``, non-ASCII digits), sends the chunk back too. Comments are off,
    so ``1#2`` is rejected as ``float`` rejects it.
    """
    text = "".join(lines)
    if (
        any(char in text for char in '"\0\x1c\x1d\x1e\x1f')
        or ("\r" in text and text.count("\r") != text.count("\r\n"))
        or text.isspace()
        or max(map(len, lines)) >= csv.field_size_limit()
        or list(map(str.count, lines, itertools.repeat(","))).count(width - 1) != len(lines)
    ):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=usecols, comments=None, ndmin=2)
    except ValueError:
        return None
    return values.T if len(values) == len(lines) else None


def _csv_columns(
    rows: list[list[str]], rows_read: int, width: int, usecols: list[int]
) -> list[np.ndarray]:
    """The ``usecols`` columns of ``csv``'s ``rows``, which follow data row
    ``rows_read``, each converted by ``_to_floats``.

    A row wider than the header raises ParseError; a short row or a blank
    line gets empty cells for those it lacks, so it is dropped.
    """
    _require_width(rows, rows_read, width)
    if min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    return [_to_floats(list(map(operator.itemgetter(pos), rows))) for pos in usecols]


def _require_width(rows: list[list[str]], rows_read: int, width: int) -> None:
    """Raise ParseError for the first of ``rows``, which follow data row
    ``rows_read``, with more than ``width`` fields."""
    if rows and max(map(len, rows)) > width:
        offset = next(i for i, row in enumerate(rows) if len(row) > width)
        rownum = rows_read + offset + 1
        raise ParseError(
            f"row {rownum} has {len(rows[offset])} fields but the header has {width}",
            row=rownum,
        )


def _to_floats(cells: list[str]) -> np.ndarray:
    """Parse one column of a chunk; a cell ``float`` rejects becomes NaN.

    ``float`` strips surrounding whitespace itself, so a padded number parses
    and an empty or blank cell is rejected.
    """
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.array([_float_or_nan(cell) for cell in cells], dtype=float)


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def write_csv(sample: Sample, out: IO[str]) -> None:
    """Write a Sample as CSV with 17-significant-digit numbers.

    Column names follow the simulator convention (d, y, w1..wq, z1..zq, and a
    when present), so the output round-trips through ``load_csv`` losslessly.
    Numbers and these names never need quoting, so each chunk of
    ``CHUNK_ROWS`` rows is formatted by one ``%`` operation on a row template
    repeated per row (``_chunk_text``), and written at once.

    Where the sample holds more than one chunk, the chunks are dealt in turn
    to this process and to forked workers, as ``load_csv`` deals a file's:
    each worker formats its own chunks and sends the text back, and this
    process writes every chunk in order, formatting a chunk itself where its
    worker failed or could not be made, so ``out`` gets the same text at any
    worker count. The workers end before this function returns.
    """
    header = ["d", "y"]
    header += [f"w{j + 1}" for j in range(sample.q)]
    header += [f"z{j + 1}" for j in range(sample.q)]
    columns = [sample.d, sample.y, *sample.W.T, *sample.Z.T]
    if sample.a is not None:
        header.append("a")
        columns.append(sample.a)
    out.write(",".join(header) + "\n")
    text = partial(_chunk_text, columns, ",".join(["%.17g"] * len(columns)) + "\n")
    starts = range(0, sample.n, CHUNK_ROWS)
    count = _forked.workers(len(starts))
    workers: list[_forked.Worker | None] = []
    try:
        _forked.fork_each(workers, (partial(map, text, starts[w::count]) for w in range(1, count)))
        for index, start in enumerate(starts):
            out.write(_forked.take(workers, index, partial(text, start)))
    finally:
        _forked.stop(workers)


def _chunk_text(columns: list[np.ndarray], row: str, start: int) -> str:
    """Rows ``start`` to ``start + CHUNK_ROWS - 1`` of ``columns``, each
    formatted by the template ``row``."""
    chunk = np.stack([col[start : start + CHUNK_ROWS] for col in columns], axis=1)
    return row * len(chunk) % tuple(chunk.ravel().tolist())


@dataclass(frozen=True)
class RunConfig:
    """Everything an estimation run needs besides the data."""

    cutoff: float
    kernel: str = "triangle"
    h: float | None = None
    b: float | None = None
    alpha: float = 0.05
    design: str = "sharp"
    bindings: ColumnBindings = field(default_factory=ColumnBindings)

    def __post_init__(self) -> None:
        if self.kernel not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        _require_valid_alpha_and_b(self.alpha, self.h, self.b)
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}")
        if not math.isfinite(self.cutoff):
            raise ValueError("cutoff must be finite")


def _require_valid_alpha_and_b(alpha: float, h: float | None, b: float | None) -> None:
    """Raise ValueError unless ``0 < alpha < 1``, ``1 - alpha/2 < 1``,
    ``b >= h / 10`` and ``0 < h, b < inf``. A bandwidth given as None, one
    the rule of thumb has yet to set, is not checked.

    Outside (0, 1) the normal quantile of ``1 - alpha/2`` is undefined or
    negative, which would invert the interval, and below about 1.1e-16
    ``1 - alpha/2`` rounds to 1, whose quantile is infinite; a bias bandwidth
    far below ``h`` leaves a curvature estimate too noisy to use, and an
    infinite bandwidth gives every row zero weight. ``RunConfig`` checks this
    before any data is read, and the robust entry points and ``monte_carlo``
    before any fit, so a bad value fails whatever the data.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not 1.0 - alpha / 2.0 < 1.0:
        raise ValueError(f"alpha {alpha!r} is so small that 1 - alpha/2 rounds to 1")
    if h is not None and b is not None and b < h / 10.0:
        raise ValueError("bias bandwidth below h/10 is not supported")
    given = [(name, v) for name, v in (("bandwidth", h), ("bias bandwidth", b)) if v is not None]
    for name, value in given:
        if not value > 0.0:
            raise ValueError(f"{name} must be positive")
    for name, value in given:
        if not value < math.inf:
            raise ValueError(f"{name} must be finite")


def parse_config_file(source: str | IO[str]) -> dict[str, str]:
    """Parse a flat ``key = value`` configuration file.

    Blank lines and lines starting with ``#`` are ignored. Keys match the
    long CLI flag names (without the leading dashes, dashes or underscores
    both accepted). Values are kept as strings; the CLI does the typing.
    A line without ``=`` or text that is not UTF-8 raises ParseError. A
    UTF-8 byte-order mark opening the file is dropped.
    """
    close = False
    if isinstance(source, str):
        fh = open(source, "r", encoding="utf-8")
        close = True
    else:
        fh = source
    out: dict[str, str] = {}
    try:
        for lineno, raw in enumerate(_without_bom(fh), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"config line {lineno} is not 'key = value': {line!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    except UnicodeDecodeError as exc:
        raise ParseError(f"config file is not valid UTF-8: {exc}") from exc
    finally:
        if close:
            fh.close()
    return out
