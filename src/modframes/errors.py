"""Exception hierarchy shared by all modframes modules.

Two families matter to callers: input problems (``SpecFormatError``, which
names the field at fault) and failed mathematical hypotheses
(``HypothesisError`` subclasses).  The CLI maps the former, and an ``OSError``
on a path, to exit code 3 and the latter to exit code 4, writing a hypothesis
failure's ``witness``, when it has one, as the report's ``hypothesis_vector``.
The spec reader checks every shape, so any other exception, a plain
``ValueError`` or ``ShapeMismatchError`` included, is an internal error, exit
code 5.
"""


class ModframesError(Exception):
    """Base class for all library-specific errors."""


class ShapeMismatchError(ModframesError, ValueError):
    """Operands live in incompatible spaces (dim, rank, or member count)."""


class SpecFormatError(ModframesError, ValueError):
    """An input field is malformed; the message names it (a spec file's field
    path, or ``bounds.lower`` / ``bounds.upper`` for a bound no frame can use)."""


class HypothesisError(ModframesError):
    """A mathematical hypothesis required by an operation does not hold;
    ``witness`` is a module vector exhibiting the failure, or None."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotCoisometryError(HypothesisError):
    """U does not satisfy U U* = identity within tolerance."""


class NotCommutingError(HypothesisError):
    """Required commutation relation (e.g. KU = UK) fails."""


class SingularFrameOperatorError(HypothesisError):
    """Frame operator is singular or exceeds the condition-number cap."""


class NoInclusionError(HypothesisError):
    """Required range inclusion does not hold."""


class HypothesisFailedError(HypothesisError):
    """A precondition of a pipeline failed; the message names which one."""
