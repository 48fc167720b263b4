"""Steering plans: particles, token masks, and the step interpreter.

A plan is a declarative program over a token model: an ordered list of
step clauses (sample with optional masks, force strings, inject hints,
bounded loops) plus a final check. Executing one clause on a particle
extends its token sequence and multiplies a score update into its
weight; the weighted law over finished sequences is the plan's target
distribution, which the inference engine approximates.

Masked sampling renormalizes the model distribution over the allowed
set and adds ``log Z`` (the removed mass) to the particle weight, so
constrained proposals stay properly weighted. Prior-scored sampling
replaces that correction with ``log p_prior(t) - log q_proposal(t)``.
"""

from __future__ import annotations

import json
import math
import string as _string
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constraints import ConstraintSpec, constraint_from_dict, verify, words
from .errors import (
    MaskEmpty,
    ParseError,
    SchemaViolation,
    StepBudgetExceeded,
    Timeout,
    UnboundVariable,
)
from .models import ModelQuery, TokenModel, Vocabulary

NEG_INF = float("-inf")

ACTIVE = "active"
DONE = "done"
FAILED = "failed"

PLAN_VERSION = 1
MAX_LOOP_BOUND = 10_000
DEFAULT_LOOP_BOUND = 1_000

# Variables always available to hint templates, computed from particle
# state; ``remaining_chars`` additionally needs a ``target_chars`` plan
# variable.
HINT_BUILTINS = ("chars_so_far", "words_so_far", "tokens_so_far", "remaining_chars")

HINT_PREFIX = "Note to self: "


@dataclass
class Particle:
    """One in-progress candidate generation with an accumulated weight."""

    tokens: list[int] = field(default_factory=list)
    text: str = ""
    log_weight: float = 0.0
    steps_taken: int = 0
    status: str = ACTIVE
    hint_buffer: list[str] = field(default_factory=list)
    clause_index: int = 0
    error: Exception | None = None
    passed_check: bool | None = None

    def clone(self) -> "Particle":
        """Independent copy sharing no mutable state."""
        return Particle(
            tokens=list(self.tokens),
            text=self.text,
            log_weight=self.log_weight,
            steps_taken=self.steps_taken,
            status=self.status,
            hint_buffer=list(self.hint_buffer),
            clause_index=self.clause_index,
            error=self.error,
            passed_check=self.passed_check,
        )

    def query(self, prompt_tag: str) -> ModelQuery:
        return ModelQuery(tuple(self.tokens), prompt_tag, tuple(self.hint_buffer))


@dataclass(frozen=True)
class StepUpdate:
    """Result of executing one clause: appended tokens and score delta."""

    appended_tokens: tuple[int, ...]
    log_score_update: float
    finished: bool


@dataclass(frozen=True)
class TokenMask:
    """Restriction of next-token support to an allowed id set."""

    allowed: frozenset[int]

    def index_array(self) -> np.ndarray:
        cached = getattr(self, "_indices", None)
        if cached is None:
            cached = np.fromiter(sorted(self.allowed), dtype=np.intp,
                                 count=len(self.allowed))
            object.__setattr__(self, "_indices", cached)
        return cached


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
    """Declarative mask constructor, built against the live particle text.

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

    def build(self, vocabulary: Vocabulary, current_text: str) -> TokenMask:
        texts = vocabulary.token_text
        if self.kind == "max_remaining_chars":
            remaining = self.target_chars - len(current_text)
            allowed = frozenset(i for i, t in enumerate(texts) if len(t) <= remaining)
        elif self.kind == "allowed_words":
            wanted = set(self.words)
            allowed = frozenset(i for i, t in enumerate(texts) if t.strip() in wanted)
        elif self.kind == "char_class":
            if self.negate:
                allowed = frozenset(
                    i for i, t in enumerate(texts)
                    if not any(_char_in_classes(c, self.classes) for c in t))
            else:
                allowed = frozenset(
                    i for i, t in enumerate(texts)
                    if all(_char_in_classes(c, self.classes) for c in t))
        elif self.kind == "explicit":
            allowed = frozenset(self.ids)
            if self.tokens:
                wanted = set(self.tokens)
                allowed |= frozenset(i for i, t in enumerate(texts) if t in wanted)
        else:
            raise SchemaViolation(f"unknown mask kind {self.kind!r}")
        return TokenMask(allowed=allowed)


@dataclass(frozen=True)
class StopSpec:
    """Stop predicate: draw count, substring presence, or EOS."""

    kind: str
    value: int | str | None = None


@dataclass(frozen=True)
class StepClause:
    """One clause of a steering plan; fields used depend on ``kind``."""

    kind: str
    stop: StopSpec | None = None
    mask: MaskSpec | None = None
    score_with_prior: bool = False
    max_new_tokens: int | None = None
    text: str | None = None
    tokens: tuple[int, ...] | None = None
    count: int = 1
    template: str | None = None
    body: tuple["StepClause", ...] = ()
    iterations: int | None = None
    max_iterations: int = DEFAULT_LOOP_BOUND


@dataclass(frozen=True)
class SteeringPlan:
    """A parsed, validated steering program."""

    proposal_tag: str
    prior_tag: str
    max_tokens: int
    steps: tuple[StepClause, ...]
    check: tuple[ConstraintSpec, ...]
    variables: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ModelSet:
    """Proposal and prior models; a single model may play both roles."""

    proposal: TokenModel
    prior_model: TokenModel | None = None

    @property
    def prior(self) -> TokenModel:
        return self.prior_model if self.prior_model is not None else self.proposal

    @property
    def vocabulary(self) -> Vocabulary:
        return self.proposal.vocabulary


def as_model_set(models) -> ModelSet:
    if isinstance(models, ModelSet):
        return models
    if isinstance(models, TokenModel):
        return ModelSet(proposal=models)
    if isinstance(models, (tuple, list)) and len(models) == 2:
        return ModelSet(proposal=models[0], prior_model=models[1])
    raise TypeError(f"cannot interpret {type(models).__name__} as models")


def _append(particle: Particle, token: int, vocabulary: Vocabulary) -> None:
    particle.tokens.append(token)
    particle.text += vocabulary.token_text[token]


def _masked_support(probs: np.ndarray, mask: TokenMask):
    """Restrict ``probs`` to the mask; raises MaskEmpty on zero mass."""
    ids = mask.index_array()
    if ids.size == 0:
        raise MaskEmpty("mask allows no tokens")
    sub = probs[ids]
    z = float(sub.sum())
    if z <= 0.0:
        raise MaskEmpty("mask removed all probability mass (Z=0)")
    return ids, sub, z


def _draw(particle: Particle, models: ModelSet, mask: TokenMask | None, rng,
          plan: SteeringPlan, score_with_prior: bool):
    """Sample one token from the (masked) proposal. Returns (token, delta).

    Unscored, a mask adds its ``log Z`` importance correction (an
    unmasked draw has Z = 1). Scored with the prior, delta is
    ``log p_prior(t) - log q(t)`` for the masked proposal q, possibly
    -inf; the prior is evaluated without hints, which condition the
    proposal side only.
    """
    probs = models.proposal.next_distribution(particle.query(plan.proposal_tag))
    if mask is None:
        token, z = int(rng.choice(probs)), 1.0
    else:
        ids, sub, z = _masked_support(probs, mask)
        token = int(ids[rng.choice(sub)])
    if not score_with_prior:
        return token, math.log(z)
    prior_probs = models.prior.next_distribution(
        ModelQuery(tuple(particle.tokens), plan.prior_tag, ()))
    p = float(prior_probs[token])
    log_q = math.log(probs[token]) - math.log(z)
    return token, (math.log(p) - log_q) if p > 0.0 else NEG_INF


def hint_bindings_for(plan: SteeringPlan, text: str, n_tokens: int) -> dict:
    """Plan variables plus computed built-ins for hint templates."""
    bindings = dict(plan.variables)
    bindings["chars_so_far"] = len(text)
    bindings["words_so_far"] = len(words(text))
    bindings["tokens_so_far"] = n_tokens
    target = plan.variables.get("target_chars")
    if isinstance(target, int):
        bindings["remaining_chars"] = target - len(text)
    return bindings


def inject_hint(particle: Particle, template: str, bindings: dict) -> None:
    """Render a hint and append it to the particle's hint buffer."""
    try:
        rendered = template.format(**bindings)
    except (KeyError, IndexError) as exc:
        raise UnboundVariable(f"hint template references unbound {exc}") from exc
    particle.hint_buffer.append(HINT_PREFIX + rendered)


class _StepState:
    __slots__ = ("appended", "log_update", "finished", "deadline", "clause_index")

    def __init__(self, deadline: float | None, clause_index: int):
        self.appended: list[int] = []
        self.log_update = 0.0
        self.finished = False
        self.deadline = deadline
        self.clause_index = clause_index

    def check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise Timeout("wall-clock budget exhausted mid-step",
                          clause_index=self.clause_index)


def _stop_satisfied(stop: StopSpec, particle: Particle, count: int,
                    vocab: Vocabulary) -> bool:
    """Stop predicate of ``sample_until`` and ``loop until``.

    ``count`` is what a ``token_count`` stop compares: the tokens drawn
    in the clause for ``sample_until``, the sequence length for a loop.
    """
    if stop.kind == "token_count":
        return count >= stop.value
    if stop.kind == "substring":
        return stop.value in particle.text
    return bool(particle.tokens) and particle.tokens[-1] == vocab.eos_id


def _take_token(clause: StepClause, plan: SteeringPlan, particle: Particle,
                models: ModelSet, rng, state: _StepState) -> int:
    vocab = models.vocabulary
    mask = clause.mask.build(vocab, particle.text) if clause.mask is not None else None
    try:
        token, delta = _draw(particle, models, mask, rng, plan, clause.score_with_prior)
    except MaskEmpty as exc:
        exc.clause_index = state.clause_index
        raise
    particle.log_weight += delta
    state.log_update += delta
    _append(particle, token, vocab)
    state.appended.append(token)
    if token == vocab.eos_id:
        state.finished = True
        particle.status = DONE
    return token


def _budget_guard(plan: SteeringPlan, particle: Particle, state: _StepState,
                  what: str) -> None:
    if len(particle.tokens) >= plan.max_tokens:
        raise StepBudgetExceeded(
            f"{what} needs more than max_tokens={plan.max_tokens} tokens",
            clause_index=state.clause_index)


def _exec_clause(clause: StepClause, plan: SteeringPlan, particle: Particle,
                 models: ModelSet, rng, state: _StepState) -> None:
    if state.finished:
        return
    state.check_deadline()
    vocab = models.vocabulary

    if clause.kind == "sample_until":
        drawn = 0
        bound = clause.max_new_tokens
        while True:
            state.check_deadline()
            if _stop_satisfied(clause.stop, particle, drawn, vocab):
                return
            if bound is not None and drawn >= bound:
                raise StepBudgetExceeded(
                    f"sample_until drew {drawn} tokens without satisfying its "
                    "stop predicate", clause_index=state.clause_index)
            _budget_guard(plan, particle, state, "sample_until")
            token = _take_token(clause, plan, particle, models, rng, state)
            drawn += 1
            if token == vocab.eos_id:
                return

    elif clause.kind == "force_string":
        forced = clause.tokens if clause.tokens is not None else vocab.encode(clause.text)
        if not forced:
            return
        if len(particle.tokens) + len(forced) > plan.max_tokens:
            raise StepBudgetExceeded(
                f"force_string of {len(forced)} tokens exceeds "
                f"max_tokens={plan.max_tokens}", clause_index=state.clause_index)
        delta = models.proposal.sequence_logprob(
            particle.tokens, forced, plan.proposal_tag,
            hints=tuple(particle.hint_buffer))
        particle.log_weight += delta
        state.log_update += delta
        for token in forced:
            _append(particle, token, vocab)
            state.appended.append(token)
        if forced[-1] == vocab.eos_id:
            state.finished = True
            particle.status = DONE

    elif clause.kind == "masked_sample":
        for _ in range(clause.count):
            state.check_deadline()
            _budget_guard(plan, particle, state, "masked_sample")
            token = _take_token(clause, plan, particle, models, rng, state)
            if token == vocab.eos_id:
                return

    elif clause.kind == "hint":
        inject_hint(particle, clause.template,
                    hint_bindings_for(plan, particle.text, len(particle.tokens)))

    elif clause.kind == "loop":
        if clause.iterations is not None:
            for _ in range(clause.iterations):
                for sub in clause.body:
                    _exec_clause(sub, plan, particle, models, rng, state)
                    if state.finished:
                        return
        else:
            done_iters = 0
            while True:
                state.check_deadline()
                if _stop_satisfied(clause.stop, particle, len(particle.tokens), vocab):
                    return
                if done_iters >= clause.max_iterations:
                    raise StepBudgetExceeded(
                        f"loop ran {done_iters} iterations without satisfying "
                        "its until predicate", clause_index=state.clause_index)
                for sub in clause.body:
                    _exec_clause(sub, plan, particle, models, rng, state)
                    if state.finished:
                        return
                done_iters += 1

    else:
        raise SchemaViolation(f"unknown clause kind {clause.kind!r}")


def execute_step(plan: SteeringPlan, particle: Particle, models, rng,
                 deadline: float | None = None) -> StepUpdate:
    """Run the particle's current clause to completion.

    Advances the particle's program counter, accumulates appended tokens
    and the log score update, and marks the particle done when the plan
    is exhausted or EOS was emitted. Identical (plan, particle, stream
    state) always produce bit-identical updates.
    """
    if particle.status != ACTIVE:
        raise ValueError("execute_step requires an active particle")
    models = as_model_set(models)
    state = _StepState(deadline, particle.clause_index)

    if particle.clause_index >= len(plan.steps):
        particle.status = DONE
        particle.steps_taken += 1
        return StepUpdate((), 0.0, True)

    clause = plan.steps[particle.clause_index]
    _exec_clause(clause, plan, particle, models, rng, state)
    particle.clause_index += 1
    particle.steps_taken += 1
    if particle.clause_index >= len(plan.steps) and not state.finished:
        state.finished = True
        particle.status = DONE
    return StepUpdate(tuple(state.appended), state.log_update, state.finished)


def run_check(plan: SteeringPlan, tokens, vocabulary: Vocabulary) -> bool:
    """Evaluate the plan's check conjunction on a finished sequence."""
    report = verify(plan.check, vocabulary.decode(tokens))
    return report.passed


# ---------------------------------------------------------------------------
# Plan document parsing


_MISSING = object()


def _want(doc: dict, key: str, types, where: str, default=_MISSING):
    if key not in doc:
        if default is not _MISSING:
            return default
        raise SchemaViolation(f"{where}.{key}: missing required field")
    value = doc[key]
    if not isinstance(value, types):
        raise SchemaViolation(f"{where}.{key}: wrong type")
    return value


def _parse_stop(doc, where: str) -> StopSpec:
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{where}: stop predicate must be an object")
    kind = _want(doc, "kind", str, where)
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
    if kind == "eos":
        return StopSpec("eos")
    raise SchemaViolation(f"{where}.kind: unknown stop predicate {kind!r}")


def _parse_mask(doc, where: str) -> MaskSpec:
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{where}: mask must be an object")
    kind = _want(doc, "kind", str, where)
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
    if kind == "explicit":
        tokens = _want(doc, "tokens", list, where, default=[])
        ids = _want(doc, "ids", list, where, default=[])
        if not tokens and not ids:
            raise SchemaViolation(f"{where}: explicit mask needs tokens or ids")
        if not all(isinstance(t, str) for t in tokens):
            raise SchemaViolation(f"{where}.tokens: must be strings")
        if not all(isinstance(i, int) and i >= 0 for i in ids):
            raise SchemaViolation(f"{where}.ids: must be nonnegative integers")
        return MaskSpec("explicit", tokens=tuple(tokens), ids=tuple(ids))
    raise SchemaViolation(f"{where}.kind: unknown mask kind {kind!r}")


def _template_fields(template: str) -> set[str]:
    fields = set()
    for _, name, _, _ in _string.Formatter().parse(template):
        if name is not None:
            if not name or not name.isidentifier():
                raise SchemaViolation(f"hint template field {name!r} is not a name")
            fields.add(name)
    return fields


def _parse_clause(doc, where: str, variables: dict, depth: int = 0) -> StepClause:
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{where}: clause must be an object")
    if depth > 8:
        raise SchemaViolation(f"{where}: loops nested deeper than 8")
    kind = _want(doc, "kind", str, where)
    common = {"kind"}

    if kind == "sample_until":
        allowed_fields = common | {"stop", "mask", "score_with_prior", "max_new_tokens"}
        for key in doc:
            if key not in allowed_fields:
                raise SchemaViolation(f"{where}.{key}: unknown field")
        stop = _parse_stop(_want(doc, "stop", dict, where), f"{where}.stop")
        mask = doc.get("mask")
        max_new = doc.get("max_new_tokens")
        if max_new is not None and (not isinstance(max_new, int) or max_new < 1):
            raise SchemaViolation(f"{where}.max_new_tokens: must be a positive integer")
        return StepClause(
            kind="sample_until", stop=stop,
            mask=_parse_mask(mask, f"{where}.mask") if mask is not None else None,
            score_with_prior=_want(doc, "score_with_prior", bool, where, default=False),
            max_new_tokens=max_new)

    if kind == "force_string":
        allowed_fields = common | {"text", "tokens"}
        for key in doc:
            if key not in allowed_fields:
                raise SchemaViolation(f"{where}.{key}: unknown field")
        has_text = "text" in doc
        has_tokens = "tokens" in doc
        if has_text == has_tokens:
            raise SchemaViolation(f"{where}: exactly one of text or tokens required")
        if has_text:
            return StepClause(kind="force_string", text=_want(doc, "text", str, where))
        ids = _want(doc, "tokens", list, where)
        if not all(isinstance(i, int) and i >= 0 for i in ids):
            raise SchemaViolation(f"{where}.tokens: must be nonnegative integers")
        return StepClause(kind="force_string", tokens=tuple(ids))

    if kind == "masked_sample":
        allowed_fields = common | {"mask", "count", "score_with_prior"}
        for key in doc:
            if key not in allowed_fields:
                raise SchemaViolation(f"{where}.{key}: unknown field")
        count = _want(doc, "count", int, where, default=1)
        if count < 1:
            raise SchemaViolation(f"{where}.count: must be a positive integer")
        return StepClause(
            kind="masked_sample",
            mask=_parse_mask(_want(doc, "mask", dict, where), f"{where}.mask"),
            count=count,
            score_with_prior=_want(doc, "score_with_prior", bool, where, default=False))

    if kind == "hint":
        allowed_fields = common | {"template"}
        for key in doc:
            if key not in allowed_fields:
                raise SchemaViolation(f"{where}.{key}: unknown field")
        template = _want(doc, "template", str, where)
        known = set(variables) | set(HINT_BUILTINS)
        unknown = _template_fields(template) - known
        if unknown:
            raise SchemaViolation(
                f"{where}.template: undeclared variables {sorted(unknown)}")
        if ("remaining_chars" in _template_fields(template)
                and not isinstance(variables.get("target_chars"), int)):
            raise SchemaViolation(
                f"{where}.template: remaining_chars needs an integer "
                "target_chars plan variable")
        return StepClause(kind="hint", template=template)

    if kind == "loop":
        allowed_fields = common | {"body", "iterations", "until", "max_iterations"}
        for key in doc:
            if key not in allowed_fields:
                raise SchemaViolation(f"{where}.{key}: unknown field")
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

    raise SchemaViolation(f"{where}.kind: unknown clause kind {kind!r}")


def parse_plan(source: str | bytes | dict | Path) -> SteeringPlan:
    """Parse and validate a plan document (JSON text or dict)."""
    if isinstance(source, Path):
        source = source.read_text(encoding="utf-8")
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"plan is not valid JSON: line {exc.lineno} "
                             f"column {exc.colno}: {exc.msg}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemaViolation("plan document must be an object")
    known = {"plan_version", "proposal_tag", "prior_tag", "max_tokens",
             "steps", "check", "vars"}
    for key in doc:
        if key not in known:
            raise SchemaViolation(f"unknown plan field {key!r}")
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
