"""Exception hierarchy shared by all modframes modules.

Two families matter to callers: input problems (``ShapeMismatchError`` and
plain ``ValueError``) and failed mathematical hypotheses
(``HypothesisError`` subclasses).  The CLI maps the former to exit code 3
and the latter to exit code 4; any other exception is an internal error,
exit code 5.
"""


class ModframesError(Exception):
    """Base class for all library-specific errors."""


class ShapeMismatchError(ModframesError, ValueError):
    """Operands live in incompatible spaces (dim, rank, or member count)."""


class NotPositiveError(ModframesError, ValueError):
    """An operand required to be positive semidefinite is not."""


class HypothesisError(ModframesError):
    """A mathematical hypothesis required by an operation does not hold."""


class NotCoisometryError(HypothesisError):
    """U does not satisfy U U* = identity within tolerance."""


class NotCommutingError(HypothesisError):
    """Required commutation relation (e.g. KU = UK) fails."""


class SingularFrameOperatorError(HypothesisError):
    """Frame operator is singular or exceeds the condition-number cap."""


class NoInclusionError(HypothesisError):
    """Required range inclusion does not hold."""


class HypothesisFailedError(HypothesisError):
    """A named precondition of a pipeline failed; carries which one and a witness."""

    def __init__(self, which: str, witness=None):
        super().__init__(which)
        self.which = which
        self.witness = witness


class ToleranceConflictError(ModframesError):
    """Independent criteria that must agree disagreed beyond tolerance."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}
