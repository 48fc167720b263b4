"""Typed error hierarchy shared across the package.

Every error that can surface in an inference outcome or a run record
carries a stable ``code`` string, plus optional ``clause_index`` and
``step_index`` attributes so retry feedback can point at the failing
part of a plan.
"""

from __future__ import annotations


class SteeringError(Exception):
    """Base class for all typed errors raised by this package."""

    code = "SteeringError"

    def __init__(self, message: str = "", *, clause_index: int | None = None,
                 step_index: int | None = None):
        super().__init__(message or self.code)
        self.message = message or self.code
        self.clause_index = clause_index
        self.step_index = step_index


class MaskEmpty(SteeringError):
    """A token mask left no sampleable token (empty set or zero total mass)."""

    code = "MaskEmpty"


class StepBudgetExceeded(SteeringError):
    """A step clause ran past its termination bound without finishing."""

    code = "StepBudgetExceeded"


class Timeout(SteeringError):
    """Wall-clock budget for an inference run was exhausted."""

    code = "Timeout"


class AllParticlesDead(SteeringError):
    """No particle finished with nonzero weight (or passed its check)."""

    code = "AllParticlesDead"


class RemoteUnavailable(SteeringError):
    """A remote model or plan endpoint could not be reached."""

    code = "RemoteUnavailable"


class ProtocolError(SteeringError):
    """A remote endpoint answered with a malformed payload."""

    code = "ProtocolError"


class InvalidContext(SteeringError):
    """A model query contained token ids outside the vocabulary."""

    code = "InvalidContext"


class ParseError(SteeringError):
    """A serialized document (plan, model, task) failed to parse."""

    code = "ParseError"


class SchemaViolation(SteeringError):
    """A parsed document violated the schema; message names the field."""

    code = "SchemaViolation"


class EmptyCorpus(SteeringError):
    """An n-gram training corpus contained no tokens."""

    code = "EmptyCorpus"


class RowNotNormalized(SteeringError):
    """A table-model row's distribution does not sum to one."""

    code = "RowNotNormalized"


class UnboundVariable(SteeringError):
    """A hint template referenced a variable with no binding."""

    code = "UnboundVariable"


class EnumerationTooLarge(SteeringError):
    """Brute-force enumeration was asked for an infeasibly large space."""

    code = "EnumerationTooLarge"


class SourceExhausted(SteeringError):
    """The retry loop consumed every attempt without a successful run.

    Carries the final ``LoopResult`` on the ``result`` attribute.
    """

    code = "SourceExhausted"

    def __init__(self, message: str = "", *, result=None):
        super().__init__(message)
        self.result = result

