"""Exception types shared across the library.

Two families: hard errors (contract violations, malformed input) and
``Fail``, the retry-safe outcome of a randomized run that could not
certify its result.  A ``Fail`` never carries a wrong answer; callers
may resample and try again.
"""


class PolynullError(Exception):
    """Base class for everything raised by this package."""


class ModulusMismatch(PolynullError):
    """Operands live over different prime fields."""


class DimensionMismatch(PolynullError):
    """Matrix or vector shapes are incompatible."""


class FieldTooSmall(PolynullError):
    """The field has fewer elements than the evaluation grid needs."""


class SingularMatrix(PolynullError):
    """A constant matrix expected to be invertible is not."""


class TooLarge(PolynullError):
    """An exhaustive oracle computation exceeds its size guard."""


class MatrixParseError(PolynullError):
    """Malformed matrix file; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Fail(PolynullError):
    """A randomized run failed certification; safe to retry."""


class SingularAtZero(Fail):
    """The pivot block evaluated singular; rank is probably deficient."""


class KappaMismatch(Fail):
    """Too few vectors: candidates failed the annihilation check, or a
    harvest found fewer vectors under its degree threshold than it needs."""


class NotRowReduced(Fail):
    """Candidate vectors failed the minimality (row-reducedness) check."""


class RankCandidateWrong(Fail):
    """The final exact check against the input matrix failed."""


class IndependenceLost(Fail):
    """Could not certify linear independence of selected vectors."""
