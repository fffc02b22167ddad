"""Exception types shared across the package."""


class MarketRegError(Exception):
    """Base class for every error this package raises on purpose.

    ``exit_code`` is the command line's exit status on it: 2 for bad input."""

    exit_code = 2


class EstimationError(MarketRegError):
    """The data cannot support the requested computation (exit status 3)."""

    exit_code = 3


class NonPositivePrice(EstimationError):
    """A price that must be positive was zero or negative (corrupt input)."""


class InsufficientData(EstimationError):
    """Not enough observations to carry out the requested computation."""


class MalformedRow(MarketRegError):
    """A data row could not be parsed."""

    def __init__(self, line_no: int, reason: str = ""):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}" if reason else f"line {line_no}")


class DuplicateDate(MarketRegError):
    """Two rows share the same date; providers sometimes ship these and they bias fits."""

    def __init__(self, date):
        self.date = date
        super().__init__(f"duplicate date {date.isoformat()}")


class EmptySeries(MarketRegError):
    """The input contained no usable data rows."""


class UnknownColumn(MarketRegError):
    """A configured column name is absent from the file header."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} not found in header")


class DegenerateX(EstimationError):
    """All x values identical; no line can be fitted."""


class DegenerateInput(EstimationError):
    """Correlation is undefined for constant or mismatched inputs."""


class DegenerateFit(EstimationError):
    """The offset-Gaussian amplitude cannot be estimated for this input."""


class NoVolumeData(EstimationError):
    """Fewer than two records carry a positive traded volume."""


class NonFinitePrice(MarketRegError):
    """A price is infinite or NaN: a simulated path overflowed float64, or a
    series was built with such a close."""


class FluctuationOverflow(MarketRegError):
    """A day-over-day percentage change is too large for a float64."""


class PathRejectionLimit(MarketRegError):
    """Too many consecutive rejected steps while simulating a price path."""

    exit_code = 3


class VolumeOverflow(MarketRegError):
    """A simulated volume count would not fit a 64-bit integer."""


class PlotNameCollision(MarketRegError):
    """Two inputs would write their plot files under the same file-name stem."""

    def __init__(self, first, second, stem: str):
        super().__init__(f"{first} and {second} would both write plot files named {stem}_*.tsv")
