"""Exception types shared across the package."""


class PddError(Exception):
    """Base class for estimation and data errors raised by this package."""


class SingularSupport(PddError):
    """Too few usable observations on one side of the cutoff, or a
    numerically singular local design matrix. Usually signals a bandwidth
    that is too small for the data at hand."""


class WeakInstrument(PddError):
    """The instrumented placebo system is numerically near-singular: the
    placebo treatment carries almost no local information about the placebo
    outcome, so the adjustment weights are unstable."""


class EquivalenceBreach(PddError):
    """Two algebraically equivalent computation paths disagreed beyond
    tolerance. This indicates a numerical problem (or a bug), never a
    property of the data alone."""


class NonFiniteResult(PddError):
    """A bandwidth, variance or reported number overflowed, underflowed to
    zero, or is undefined, because the data hold values at the ends of the
    floating-point range."""


class WeakFirstStage(PddError):
    """The treatment discontinuity at the cutoff is too close to zero to
    serve as a denominator in a fuzzy design."""


class MissingColumn(PddError):
    """A bound column name is absent from the CSV header."""


class ParseError(PddError):
    """The input file is structurally malformed.

    Carries the 1-based data row number when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EmptyAfterFiltering(PddError):
    """No usable rows remain after dropping rows with missing values."""
