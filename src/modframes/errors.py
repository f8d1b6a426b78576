"""Exception hierarchy shared by all modframes modules.

Two families matter to callers: input problems (``ShapeMismatchError``,
``SpecFormatError`` and plain ``ValueError``) and failed mathematical
hypotheses (``HypothesisError`` subclasses).  The CLI maps the former to exit
code 3 and the latter to exit code 4; any other exception is an internal
error, exit code 5.
"""


class ModframesError(Exception):
    """Base class for all library-specific errors."""


class ShapeMismatchError(ModframesError, ValueError):
    """Operands live in incompatible spaces (dim, rank, or member count)."""


class SpecFormatError(ModframesError, ValueError):
    """An input field is malformed; the message names it (a spec file's field
    path, or ``bounds.lower`` / ``bounds.upper`` for a bound no frame can use)."""


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

