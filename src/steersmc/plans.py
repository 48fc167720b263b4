"""Steering plan documents: the clause, mask and stop data model and
its schema-checked parser.

A plan is a declarative program over a token model: an ordered list of
step clauses (sample with optional masks, force strings, inject hints,
bounded loops) plus a final check. Every field a clause, mask or stop
may carry is checked at parse time, so a malformed plan fails before
any particle runs. Token repetition has one construct: the parser
lowers ``sample_until`` and ``masked_sample`` to a ``loop`` over a
one-token ``draw`` clause, so the interpreter in ``steering`` and the
oracle in ``evaluation`` run only draw, force_string, hint and loop.
"""

from __future__ import annotations

import string as _string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constraints import ConstraintSpec, constraint_from_dict
from .errors import SchemaViolation, check_fields, check_kind, is_count, is_integer, read_document
from .models import Vocabulary

PLAN_VERSION = 1
MAX_LOOP_BOUND = 10_000
DEFAULT_LOOP_BOUND = 1_000

# Variables always available to hint templates, computed from particle
# state; ``remaining_chars`` additionally needs a ``target_chars`` plan
# variable.
HINT_BUILTINS = ("chars_so_far", "words_so_far", "tokens_so_far", "remaining_chars")

_CHAR_CLASSES = ("letter", "digit", "whitespace", "punctuation")


def _char_in_classes(ch: str, classes: tuple[str, ...]) -> bool:
    for cls in classes:
        if cls == "letter" and ch.isalpha():
            return True
        if cls == "digit" and ch.isdigit():
            return True
        if cls == "whitespace" and ch.isspace():
            return True
        if cls == "punctuation" and ch in _string.punctuation:
            return True
    return False


@dataclass(frozen=True)
class MaskSpec:
    """Declarative mask constructor, built against the length of the
    live particle text.

    Kinds: ``max_remaining_chars`` (token text must fit in the remaining
    character budget), ``allowed_words`` (token text, whitespace-stripped,
    must be one of the listed words), ``char_class`` (every character of
    the token text must fall in the listed classes, or in none of them
    when negated), ``explicit`` (literal token texts or ids). The EOS
    token has empty text: it passes the vacuous character tests
    (max_remaining_chars, char_class) but never an allowed_words
    equality test.
    """

    kind: str
    target_chars: int | None = None
    words: tuple[str, ...] = ()
    classes: tuple[str, ...] = ()
    negate: bool = False
    tokens: tuple[str, ...] = ()
    ids: tuple[int, ...] = ()

    def build(self, vocabulary: Vocabulary, chars_so_far: int) -> np.ndarray:
        """Ascending, de-duplicated, read-only ids of the tokens the mask
        allows after a text of ``chars_so_far`` characters.

        ``max_remaining_chars`` reads only that count. Every other kind
        depends on the vocabulary alone, so its ids are scanned once and
        kept on the spec, tagged with the vocabulary object they were
        built for.
        """
        if self.kind == "max_remaining_chars":
            remaining = self.target_chars - chars_so_far
            allowed = np.flatnonzero(vocabulary.token_lengths() <= remaining)
            allowed.setflags(write=False)
            return allowed
        compiled = getattr(self, "_compiled", None)
        if compiled is not None and compiled[0] is vocabulary:
            return compiled[1]
        texts = vocabulary.token_text
        if self.kind == "allowed_words":
            wanted = set(self.words)
            allowed = [i for i, t in enumerate(texts) if t.strip() in wanted]
        elif self.kind == "char_class":
            if self.negate:
                allowed = [i for i, t in enumerate(texts)
                           if not any(_char_in_classes(c, self.classes) for c in t)]
            else:
                allowed = [i for i, t in enumerate(texts)
                           if all(_char_in_classes(c, self.classes) for c in t)]
        elif self.kind == "explicit":
            _check_token_ids(self.ids, vocabulary, "explicit mask ids")
            wanted = set(self.tokens)
            allowed = sorted(set(self.ids).union(
                i for i, t in enumerate(texts) if t in wanted))
        else:
            raise SchemaViolation(f"unknown mask kind {self.kind!r}")
        ids = np.array(allowed, dtype=np.intp)
        ids.setflags(write=False)
        object.__setattr__(self, "_compiled", (vocabulary, ids))
        return ids


@dataclass(frozen=True)
class StopSpec:
    """Stop predicate: draw count, substring presence, or EOS."""

    kind: str
    value: int | str | None = None


@dataclass(frozen=True)
class StepClause:
    """One clause of a parsed plan; fields used depend on ``kind``.

    Kinds: ``draw`` (one token from the proposal, under ``mask`` and
    ``score_with_prior``; only the parser makes it), ``force_string``,
    ``hint`` and ``loop`` (``iterations`` times, or until ``stop`` holds
    within ``max_iterations``, None for no bound but ``max_tokens``).
    """

    kind: str
    stop: StopSpec | None = None
    mask: MaskSpec | None = None
    score_with_prior: bool = False
    text: str | None = None
    tokens: tuple[int, ...] | None = None
    template: str | None = None
    body: tuple["StepClause", ...] = ()
    iterations: int | None = None
    max_iterations: int | None = DEFAULT_LOOP_BOUND


@dataclass(frozen=True)
class SteeringPlan:
    """A parsed, validated steering program."""

    proposal_tag: str
    prior_tag: str
    max_tokens: int
    steps: tuple[StepClause, ...]
    check: tuple[ConstraintSpec, ...]
    variables: dict = field(default_factory=dict)


def _check_token_ids(ids, vocabulary: Vocabulary, what: str) -> None:
    """Raise SchemaViolation when a plan names a token id the vocabulary lacks."""
    bad = [i for i in ids if not 0 <= i < vocabulary.size]
    if bad:
        raise SchemaViolation(
            f"{what} {bad} outside a vocabulary of {vocabulary.size} tokens")


def forced_tokens(clause: StepClause, vocabulary: Vocabulary) -> tuple[int, ...]:
    """The token ids a ``force_string`` clause appends."""
    if clause.tokens is None:
        return vocabulary.encode(clause.text)
    _check_token_ids(clause.tokens, vocabulary, "force_string tokens")
    return clause.tokens


_MISSING = object()

# The fields each clause, mask and stop kind may carry besides "kind";
# any other field is a SchemaViolation.
_CLAUSE_FIELDS = {
    "sample_until": {"stop", "mask", "score_with_prior", "max_new_tokens"},
    "force_string": {"text", "tokens"},
    "masked_sample": {"mask", "count", "score_with_prior"},
    "hint": {"template"},
    "loop": {"body", "iterations", "until", "max_iterations"},
}
_MASK_FIELDS = {
    "max_remaining_chars": {"target_chars"},
    "allowed_words": {"words"},
    "char_class": {"classes", "negate"},
    "explicit": {"tokens", "ids"},
}
_STOP_FIELDS = {"token_count": {"value"}, "substring": {"value"}, "eos": set()}
_PLAN_FIELDS = {"plan_version", "proposal_tag", "prior_tag", "max_tokens",
                "steps", "check", "vars"}


def _want(doc: dict, key: str, types, where: str, default=_MISSING):
    if key not in doc:
        if default is not _MISSING:
            return default
        raise SchemaViolation(f"{where}.{key}: missing required field")
    value = doc[key]
    # bool subclasses int, but a JSON true is never a count
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise SchemaViolation(f"{where}.{key}: wrong type")
    return value


def _parse_stop(doc, where: str) -> StopSpec:
    kind = check_kind(doc, _STOP_FIELDS, "stop predicate", where)
    if kind == "token_count":
        value = _want(doc, "value", int, where)
        if value < 0:
            raise SchemaViolation(f"{where}.value: must be nonnegative")
        return StopSpec("token_count", value)
    if kind == "substring":
        value = _want(doc, "value", str, where)
        if not value:
            raise SchemaViolation(f"{where}.value: empty substring")
        return StopSpec("substring", value)
    return StopSpec("eos")


def _parse_mask(doc, where: str) -> MaskSpec:
    kind = check_kind(doc, _MASK_FIELDS, "mask", where)
    if kind == "max_remaining_chars":
        target = _want(doc, "target_chars", int, where)
        if target < 0:
            raise SchemaViolation(f"{where}.target_chars: must be nonnegative")
        return MaskSpec("max_remaining_chars", target_chars=target)
    if kind == "allowed_words":
        ws = _want(doc, "words", list, where)
        if not ws or not all(isinstance(w, str) for w in ws):
            raise SchemaViolation(f"{where}.words: nonempty list of strings required")
        return MaskSpec("allowed_words", words=tuple(ws))
    if kind == "char_class":
        classes = _want(doc, "classes", list, where)
        for cls in classes:
            if cls not in _CHAR_CLASSES:
                raise SchemaViolation(f"{where}.classes: unknown class {cls!r}")
        return MaskSpec("char_class", classes=tuple(classes),
                        negate=_want(doc, "negate", bool, where, default=False))
    tokens = _want(doc, "tokens", list, where, default=[])
    ids = _want(doc, "ids", list, where, default=[])
    if not tokens and not ids:
        raise SchemaViolation(f"{where}: explicit mask needs tokens or ids")
    if not all(isinstance(t, str) for t in tokens):
        raise SchemaViolation(f"{where}.tokens: must be strings")
    if not all(is_count(i) for i in ids):
        raise SchemaViolation(f"{where}.ids: must be nonnegative integers")
    return MaskSpec("explicit", tokens=tuple(tokens), ids=tuple(ids))


def _template_fields(template: str) -> set[str]:
    """Names a hint template reads, including those nested in format specs."""
    fields = set()
    try:
        parsed = list(_string.Formatter().parse(template))
    except ValueError as exc:
        raise SchemaViolation(f"hint template {template!r} is malformed: {exc}") from None
    for _, name, spec, _ in parsed:
        if name is not None:
            if not name or not name.isidentifier():
                raise SchemaViolation(f"hint template field {name!r} is not a name")
            fields.add(name)
            if spec:
                fields |= _template_fields(spec)
    return fields


def _parse_clause(doc, where: str, variables: dict, depth: int = 0) -> StepClause:
    kind = check_kind(doc, _CLAUSE_FIELDS, "clause", where)
    if depth > 8:
        raise SchemaViolation(f"{where}: loops nested deeper than 8")
    score_with_prior = _want(doc, "score_with_prior", bool, where, default=False)

    if kind in ("sample_until", "masked_sample"):
        # Both are a loop over a one-token draw: as many times as the
        # count (or token-count stop) says, or else until the stop holds
        # within max_new_tokens iterations.
        if kind == "masked_sample":
            count = _want(doc, "count", int, where, default=1)
            if count < 1:
                raise SchemaViolation(f"{where}.count: must be a positive integer")
            stop, max_new = StopSpec("token_count", count), None
            mask = _want(doc, "mask", dict, where)
        else:
            stop = _parse_stop(_want(doc, "stop", dict, where), f"{where}.stop")
            max_new = doc.get("max_new_tokens")
            if max_new is not None and not (is_count(max_new) and max_new >= 1):
                raise SchemaViolation(f"{where}.max_new_tokens: must be a positive integer")
            mask = doc.get("mask")
        draw = (StepClause(kind="draw", score_with_prior=score_with_prior,
                           mask=None if mask is None else _parse_mask(mask, f"{where}.mask")),)
        if stop.kind != "token_count":
            return StepClause(kind="loop", body=draw, stop=stop, max_iterations=max_new)
        if max_new is not None and max_new < stop.value:
            raise SchemaViolation(
                f"{where}.max_new_tokens: {max_new} is below the token_count "
                f"stop of {stop.value}, so the clause can never reach its stop")
        return StepClause(kind="loop", body=draw, iterations=stop.value)

    if kind == "force_string":
        has_text = "text" in doc
        has_tokens = "tokens" in doc
        if has_text == has_tokens:
            raise SchemaViolation(f"{where}: exactly one of text or tokens required")
        if has_text:
            return StepClause(kind="force_string", text=_want(doc, "text", str, where))
        ids = _want(doc, "tokens", list, where)
        if not all(is_count(i) for i in ids):
            raise SchemaViolation(f"{where}.tokens: must be nonnegative integers")
        return StepClause(kind="force_string", tokens=tuple(ids))

    if kind == "hint":
        template = _want(doc, "template", str, where)
        names = _template_fields(template)
        unknown = names - set(variables) - set(HINT_BUILTINS)
        if unknown:
            raise SchemaViolation(
                f"{where}.template: undeclared variables {sorted(unknown)}")
        if "remaining_chars" in names and not is_integer(variables.get("target_chars")):
            raise SchemaViolation(
                f"{where}.template: remaining_chars needs an integer "
                "target_chars plan variable")
        return StepClause(kind="hint", template=template)

    body_doc = _want(doc, "body", list, where)
    if not body_doc:
        raise SchemaViolation(f"{where}.body: must be nonempty")
    body = tuple(_parse_clause(c, f"{where}.body[{i}]", variables, depth + 1)
                 for i, c in enumerate(body_doc))
    has_iters = "iterations" in doc
    has_until = "until" in doc
    if has_iters == has_until:
        raise SchemaViolation(f"{where}: exactly one of iterations or until required")
    if has_iters:
        iters = _want(doc, "iterations", int, where)
        if not 1 <= iters <= MAX_LOOP_BOUND:
            raise SchemaViolation(
                f"{where}.iterations: must be in [1, {MAX_LOOP_BOUND}]")
        return StepClause(kind="loop", body=body, iterations=iters)
    until = _parse_stop(_want(doc, "until", dict, where), f"{where}.until")
    max_iters = _want(doc, "max_iterations", int, where, default=DEFAULT_LOOP_BOUND)
    if not 1 <= max_iters <= MAX_LOOP_BOUND:
        raise SchemaViolation(
            f"{where}.max_iterations: must be in [1, {MAX_LOOP_BOUND}]")
    return StepClause(kind="loop", body=body, stop=until, max_iterations=max_iters)


def parse_plan(source: str | bytes | dict | Path) -> SteeringPlan:
    """Parse and validate a plan document (JSON text, a file or a dict)."""
    doc = check_fields(read_document(source, "plan"), _PLAN_FIELDS, "plan")
    version = _want(doc, "plan_version", int, "plan")
    if version != PLAN_VERSION:
        raise SchemaViolation(f"plan.plan_version: expected {PLAN_VERSION}, got {version}")
    max_tokens = _want(doc, "max_tokens", int, "plan")
    if not 1 <= max_tokens <= 100_000:
        raise SchemaViolation("plan.max_tokens: must be in [1, 100000]")
    variables = _want(doc, "vars", dict, "plan", default={})
    for name in variables:
        if not isinstance(name, str) or not name.isidentifier():
            raise SchemaViolation(f"plan.vars: {name!r} is not a valid name")
    steps_doc = _want(doc, "steps", list, "plan")
    steps = tuple(_parse_clause(c, f"plan.steps[{i}]", variables)
                  for i, c in enumerate(steps_doc))
    check_doc = _want(doc, "check", list, "plan", default=[])
    check = tuple(constraint_from_dict(c, f"plan.check[{i}]")
                  for i, c in enumerate(check_doc))
    return SteeringPlan(
        proposal_tag=_want(doc, "proposal_tag", str, "plan", default="proposal"),
        prior_tag=_want(doc, "prior_tag", str, "plan", default="prior"),
        max_tokens=max_tokens,
        steps=steps,
        check=check,
        variables=dict(variables),
    )
