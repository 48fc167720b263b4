"""Typed error hierarchy shared across the package, and the one intake
for outside documents.

Every error that can surface in an inference outcome or a run record
carries a stable ``code`` string, its class name, plus optional ``clause_index`` and
``step_index`` attributes so retry feedback can point at the failing
part of a plan. Every JSON document read from outside (plans, table
models, CLI config, vocab and trace files, and each line of a task or
record file through ``read_json_lines``) goes through
``read_document``, and outside text through ``read_text``, so
malformed JSON or text that is not UTF-8 ends in ``ParseError``;
``check_fields``, ``check_kind`` and ``check_types`` end a non-object,
an unknown or missing field or a wrong type in ``SchemaViolation``.
"""

from __future__ import annotations

import json
from pathlib import Path


class SteeringError(Exception):
    """Base class for all typed errors raised by this package."""

    code = "SteeringError"

    def __init_subclass__(cls, **kwargs):
        """A subclass's code is its class name."""
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, message: str = "", *, clause_index: int | None = None,
                 step_index: int | None = None):
        super().__init__(message or self.code)
        self.message = message or self.code
        self.clause_index = clause_index
        self.step_index = step_index


class MaskEmpty(SteeringError):
    """A token mask left no sampleable token (empty set or zero total mass)."""


class StepBudgetExceeded(SteeringError):
    """A step clause ran past its termination bound without finishing."""


class Timeout(SteeringError):
    """Wall-clock budget for an inference run was exhausted."""


class AllParticlesDead(SteeringError):
    """No particle finished with nonzero weight (or passed its check)."""


class RemoteUnavailable(SteeringError):
    """A remote model or plan endpoint could not be reached."""


class ProtocolError(SteeringError):
    """A remote endpoint answered with a malformed payload."""


class InvalidContext(SteeringError):
    """A model query contained token ids outside the vocabulary."""


class ParseError(SteeringError):
    """A serialized document (plan, model, task) failed to parse."""


class SchemaViolation(SteeringError):
    """A parsed document violated the schema; message names the field."""


class EmptyCorpus(SteeringError):
    """An n-gram training corpus contained no tokens."""


class RowNotNormalized(SteeringError):
    """A table-model row's distribution does not sum to one."""


class UnboundVariable(SteeringError):
    """A hint template referenced a variable with no binding."""


class EnumerationTooLarge(SteeringError):
    """Brute-force enumeration was asked for an infeasibly large space."""


class SourceExhausted(SteeringError):
    """The retry loop consumed every attempt without a successful run.

    Carries the final ``LoopResult`` on the ``result`` attribute.
    """

    def __init__(self, message: str = "", *, result=None):
        super().__init__(message)
        self.result = result


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file; other bytes raise ParseError naming
    ``what``. An unreadable file raises OSError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8 text: {exc.reason}") from exc


def read_document(source, what: str):
    """Parse a ``Path``, ``str`` or ``bytes`` as JSON, or pass an already
    parsed document through; malformed JSON raises ParseError naming
    ``what``, with line and column. An unreadable file raises OSError."""
    if not isinstance(source, (Path, str, bytes)):
        return source
    if isinstance(source, Path):
        source = read_text(source, what)
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8 text: {exc.reason}") from exc


def read_json_lines(path) -> list[tuple[str, object]]:
    """Each nonblank line of a JSON-lines file, parsed by
    ``read_document``, after its ``path:line`` location."""
    lines = Path(path).read_bytes().splitlines()
    return [(f"{path}:{n}", read_document(line, f"{path}:{n}"))
            for n, line in enumerate(lines, 1) if line.strip()]


def check_fields(doc, allowed, where: str) -> dict:
    """``doc`` itself, once checked to be an object holding only
    ``allowed`` keys."""
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{where}: must be an object")
    for key in doc:
        if key not in allowed:
            raise SchemaViolation(f"{where}.{key}: unknown field")
    return doc


def check_kind(doc, fields: dict, what: str, where: str) -> str:
    """The kind of object ``doc``, once checked to be a key of ``fields``
    whose set names every other key ``doc`` may hold."""
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{where}: {what} must be an object")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise SchemaViolation(f"{where}.kind: missing or not a string")
    if kind not in fields:
        raise SchemaViolation(f"{where}.kind: unknown {what} kind {kind!r}")
    check_fields(doc, {"kind", *fields[kind]}, where)
    return kind


def check_types(doc, types: dict, where: str) -> dict:
    """``doc`` itself, once checked to be an object holding every key of
    ``types`` with a value of the types given for it; a JSON ``true`` or
    ``false`` is of none of them."""
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{where}: must be an object")
    for key, kinds in types.items():
        if key not in doc:
            raise SchemaViolation(f"{where}.{key}: missing required field")
        if not isinstance(doc[key], kinds) or isinstance(doc[key], bool):
            raise SchemaViolation(f"{where}.{key}: wrong type")
    return doc


def is_integer(value) -> bool:
    """An integer; a JSON ``true`` (a Python bool) is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_count(value) -> bool:
    """A nonnegative integer."""
    return is_integer(value) and value >= 0
