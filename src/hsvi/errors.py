"""Exception types shared across the package."""


class HsviError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(HsviError):
    """A model, belief, or bound object violates its structural invariants."""


class ZeroProbabilityObservation(HsviError):
    """Belief update conditioned on an observation with (numerically) zero mass.

    Signals that the caller picked an impossible observation for the given
    belief/action pair.
    """


class ParseError(HsviError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidParams(HsviError, ValueError):
    """Solver, evaluator or generator parameters are out of range or
    inconsistent."""


class NoConvergence(HsviError):
    """An iterative routine hit its iteration cap before reaching tolerance."""


class LpFailure(HsviError):
    """Base class for linear-program solver failures."""


class Unbounded(LpFailure):
    """The LP objective is unbounded below."""


class MaxIterations(LpFailure):
    """Simplex iteration cap exceeded."""


class DepthCapExceeded(HsviError):
    """Forward exploration ran past its theoretical depth cap.

    Internal error: the termination analysis guarantees the search never
    gets this deep, so hitting the cap means a heuristic or bound bug.
    """
