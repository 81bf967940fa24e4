"""Exception types shared across the package."""


class SympspecError(Exception):
    """Base class for all errors raised by this package."""


# ---- shape / input validation ----

class NotSquare(SympspecError):
    pass


class OddDimension(SympspecError):
    pass


class DimensionMismatch(SympspecError):
    pass


class NonFinite(SympspecError):
    pass


class NotSymmetric(SympspecError):
    pass


class ZeroModes(SympspecError):
    pass


class BadIndices(SympspecError):
    pass


# ---- definiteness ----

class NotPSD(SympspecError):
    pass


class NotPositiveDefinite(SympspecError):
    pass


class NotInvertible(SympspecError):
    pass


# ---- numerical breakdown ----

class ConvergenceFailure(SympspecError):
    """Iterative kernel exceeded its sweep cap without converging."""


class PairingFailure(SympspecError):
    """Eigenspace pairing broke down while assembling a symplectic basis."""


class InvariantViolation(SympspecError):
    """A computed symplectic spectrum broke an invariant of its matrix."""


class DegenerateSpectrum(SympspecError):
    pass


class ZeroGap(SympspecError):
    pass


# ---- domain gates ----

class OutOfValidityRange(SympspecError):
    pass


class PreconditionViolated(SympspecError):
    pass


# ---- Gaussian states ----

class InvalidCovariance(SympspecError):
    pass


class NotInterior(SympspecError):
    pass


# ---- CLI ----

class ParseError(SympspecError):
    """Matrix text could not be parsed; carries a 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class RaggedRows(ParseError):
    pass


class UnknownCommand(SympspecError):
    pass
