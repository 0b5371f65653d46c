"""CSV ingestion, sample container, and run configuration."""

from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import EmptyAfterFiltering, MissingColumn, ParseError
from .kernels import KERNEL_KINDS
from .local_fit import _distinct_support

DESIGNS = ("sharp", "fuzzy")

#: Rows per chunk in ``load_csv`` and ``write_csv``: each chunk is converted
#: a whole column at a time, and only one chunk of cell strings is held.
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

    def take(self, rows) -> Sample:
        """The same sample restricted to ``rows`` (an index array or a slice)."""
        return Sample(
            d=self.d[rows],
            y=self.y[rows],
            W=self.W[rows],
            Z=self.Z[rows],
            a=None if self.a is None else self.a[rows],
            dropped_rows=self.dropped_rows,
        )

    def require_sides(self, cutoff: float) -> None:
        """Check there are at least 2 distinct d values strictly on each side,
        with the fits' support test (``local_fit._distinct_support``).
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

    Rows are read ``CHUNK_ROWS`` at a time and each bound column of a chunk
    is converted with one ``float`` pass; only a column holding a cell that
    ``float`` rejects is converted again cell by cell.
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
            reader = csv.reader(_without_bom(fh))
            header = next(reader)
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
        rows_read = 0
        while True:
            chunk: list[list[str]] = []
            try:
                chunk.extend(itertools.islice(reader, CHUNK_ROWS))
            except (csv.Error, UnicodeDecodeError) as exc:
                # ``extend`` keeps the rows read before the failing one.
                raise _malformed(exc, rows_read + len(chunk) + 1) from exc
            if not chunk:
                break
            if max(map(len, chunk)) > len(header):
                offset = next(i for i, row in enumerate(chunk) if len(row) > len(header))
                rownum = rows_read + offset + 1
                raise ParseError(
                    f"row {rownum} has {len(chunk[offset])} fields "
                    f"but the header has {len(header)}",
                    row=rownum,
                )
            rows_read += len(chunk)
            if min(map(len, chunk)) < len(header):
                # A short row or a blank line: its missing cells are empty, so it is dropped.
                chunk = [row + [""] * (len(header) - len(row)) for row in chunk]
            values = {
                name: _to_floats(list(map(operator.itemgetter(pos), chunk)))
                for name, pos in positions.items()
            }
            keep = np.logical_and.reduce([np.isfinite(v) for v in values.values()])
            dropped += len(chunk) - int(np.count_nonzero(keep))
            for name, v in values.items():
                parts[name].append(v[keep])
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
    repeated per row, and written at once.
    """
    header = ["d", "y"]
    header += [f"w{j + 1}" for j in range(sample.q)]
    header += [f"z{j + 1}" for j in range(sample.q)]
    columns = [sample.d, sample.y, *sample.W.T, *sample.Z.T]
    if sample.a is not None:
        header.append("a")
        columns.append(sample.a)
    out.write(",".join(header) + "\n")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, sample.n, CHUNK_ROWS):
        chunk = np.stack([col[start : start + CHUNK_ROWS] for col in columns], axis=1)
        out.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


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
