"""CSV ingestion, sample container, and run configuration."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import EmptyAfterFiltering, MissingColumn, ParseError
from .kernels import KERNEL_KINDS

DESIGNS = ("sharp", "fuzzy")
VARIANCE_MODES = ("paper", "fitted")


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
        """Check there are at least 2 distinct d values strictly on each side."""
        left = np.unique(self.d[self.d < cutoff]).size
        right = np.unique(self.d[self.d > cutoff]).size
        if left < 2 or right < 2:
            raise EmptyAfterFiltering(
                f"need at least 2 distinct running-variable values strictly on each "
                f"side of {cutoff}; found {left} left, {right} right"
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
    and counted. Structural problems (no header, a data row shorter than the
    header) raise ParseError with the row location.
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
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty; a header row is required") from None
        except csv.Error as exc:
            raise ParseError(f"malformed CSV header: {exc}") from exc
        header = [name.strip() for name in header]
        index: dict[str, int] = {}
        for pos, name in enumerate(header):
            index.setdefault(name, pos)
        for name in bindings.used():
            if name not in index:
                raise MissingColumn(f"column {name!r} not found in header {header}")
        used = bindings.used()
        columns: dict[str, list[float]] = {name: [] for name in used}
        dropped = 0
        for rownum, row in enumerate(reader, start=1):
            try:
                if len(row) > len(header):
                    raise ParseError(
                        f"row {rownum} has {len(row)} fields but the header has {len(header)}",
                        row=rownum,
                    )
            except csv.Error as exc:  # pragma: no cover - csv reader errors are rare
                raise ParseError(f"malformed CSV at row {rownum}: {exc}", row=rownum) from exc
            values: dict[str, float] = {}
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
            raise EmptyAfterFiltering(
                f"no usable rows after dropping {dropped} incomplete rows"
            )
    finally:
        if close:
            fh.close()

    def col(name: str) -> np.ndarray:
        return np.asarray(columns[name], dtype=float)

    q = len(bindings.placebo_outcomes)
    n = col(bindings.running).shape[0]
    W = (
        np.column_stack([col(name) for name in bindings.placebo_outcomes])
        if q
        else np.empty((n, 0))
    )
    Z = (
        np.column_stack([col(name) for name in bindings.placebo_treatments])
        if q
        else np.empty((n, 0))
    )
    return Sample(
        d=col(bindings.running),
        y=col(bindings.outcome),
        W=W,
        Z=Z,
        a=col(bindings.treatment) if bindings.treatment else None,
        dropped_rows=dropped,
    )


def write_csv(sample: Sample, out: IO[str]) -> None:
    """Write a Sample as CSV with 17-significant-digit numbers.

    Column names follow the simulator convention (d, y, w1..wq, z1..zq, and a
    when present), so the output round-trips through ``load_csv`` losslessly.
    """
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


@dataclass(frozen=True)
class RunConfig:
    """Everything an estimation run needs besides the data."""

    cutoff: float
    kernel: str = "triangle"
    h: float | None = None
    b: float | None = None
    alpha: float = 0.05
    design: str = "sharp"
    variance_mode: str = "paper"
    bindings: ColumnBindings = field(default_factory=ColumnBindings)

    def __post_init__(self) -> None:
        if self.kernel not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.h is not None and not self.h > 0:
            raise ValueError("bandwidth must be positive")
        if self.b is not None and not self.b > 0:
            raise ValueError("bias bandwidth must be positive")
        if self.h is not None and self.b is not None and self.b < self.h / 10.0:
            raise ValueError("bias bandwidth below h/10 is not supported")
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}")
        if self.variance_mode not in VARIANCE_MODES:
            raise ValueError(f"variance mode must be one of {VARIANCE_MODES}")


def parse_config_file(source: str | IO[str]) -> dict[str, str]:
    """Parse a flat ``key = value`` configuration file.

    Blank lines and lines starting with ``#`` are ignored. Keys match the
    long CLI flag names (without the leading dashes, dashes or underscores
    both accepted). Values are kept as strings; the CLI does the typing.
    """
    close = False
    if isinstance(source, str):
        fh = open(source, "r", encoding="utf-8")
        close = True
    else:
        fh = source
    out: dict[str, str] = {}
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"config line {lineno} is not 'key = value': {line!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    finally:
        if close:
            fh.close()
    return out
