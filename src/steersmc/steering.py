"""Particles and the step interpreter for steering plans (``plans``).

Executing one clause on a particle extends its token sequence and
multiplies a score update into its weight; the weighted law over
finished sequences is the plan's target distribution, which the
inference engine approximates. The interpreter steps a whole
population at once: one query per distinct model context and one
vectorized draw per distinct (row, mask) on each token tick.

Masked sampling renormalizes the model distribution over the allowed
set and adds ``log Z`` (the removed mass) to the particle weight, so
constrained proposals stay properly weighted. Prior-scored sampling
replaces that correction with ``log p_prior(t) - log q_proposal(t)``.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .constraints import verify, words
from .errors import (
    MaskEmpty,
    ProtocolError,
    SchemaViolation,
    SteeringError,
    StepBudgetExceeded,
    Timeout,
    UnboundVariable,
)
from .models import ModelQuery, TokenModel, Vocabulary
from .plans import (  # MaskSpec and parse_plan are re-exported
    MaskSpec,
    SteeringPlan,
    StepClause,
    StopSpec,
    forced_tokens,
    parse_plan,
)
from .rng import draw_indices, uniforms_at

NEG_INF = float("-inf")

ACTIVE = "active"
DONE = "done"
FAILED = "failed"

HINT_PREFIX = "Note to self: "

# Distinct model queries the interpreter sends per next_distributions
# call; it bounds the context tuples alive at once, which a whole tick's
# worth would leave parked in CPython's tuple free lists.
QUERY_BATCH = 16


@dataclass(slots=True)
class Particle:
    """One in-progress candidate generation with an accumulated weight."""

    tokens: list[int] = field(default_factory=list)
    text: str = ""
    log_weight: float = 0.0
    status: str = ACTIVE
    hint_buffer: list[str] = field(default_factory=list)
    clause_index: int = 0
    error: Exception | None = None
    passed_check: bool | None = None

    def clone(self) -> "Particle":
        """Independent copy sharing no mutable state."""
        return Particle(tokens=list(self.tokens), text=self.text,
                        log_weight=self.log_weight, status=self.status,
                        hint_buffer=list(self.hint_buffer),
                        clause_index=self.clause_index, error=self.error,
                        passed_check=self.passed_check)


@dataclass(frozen=True)
class StepUpdate:
    """Result of one population step: every token appended in it, in slot
    order; the sum of every score delta applied; and whether no stepped
    particle is still active."""

    appended_tokens: tuple[int, ...]
    log_score_update: float
    finished: bool


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


def render_hint(template: str, bindings: dict) -> str:
    """The hint string a model sees: the prefix plus the rendered template.

    A name with no binding raises UnboundVariable; a format spec that
    does not fit its value (``{x:d}`` with a string) raises
    SchemaViolation.
    """
    try:
        return HINT_PREFIX + template.format(**bindings)
    except (KeyError, IndexError) as exc:
        raise UnboundVariable(f"hint template references unbound {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise SchemaViolation(f"hint template {template!r} does not fit its "
                              f"values: {exc}") from exc


def inject_hint(particle: Particle, template: str, bindings: dict) -> None:
    """Render a hint and append it to the particle's hint buffer."""
    particle.hint_buffer.append(render_hint(template, bindings))


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


class _Pass:
    """One population step: the particles, their stream keys and draw
    counters, the summed score delta and the lowest non-budget fault.

    Each clause runs on an ascending list of slots (particle indices)
    and returns the slots still running: a slot leaves on EOS or on a
    fault. A slot that ends a loop or a ``sample_until`` early waits for
    the others without drawing, so its draws are those of a walk over
    its particle alone.
    """

    __slots__ = ("plan", "models", "vocab", "particles", "keys", "counters",
                 "deadline", "log_update", "limit", "error")

    def __init__(self, plan, models: ModelSet, particles, keys, deadline):
        self.plan = plan
        self.models = models
        self.vocab = models.vocabulary
        self.particles = particles
        self.keys = np.asarray(keys, dtype=np.uint64)
        self.counters = np.zeros(len(particles), dtype=np.uint64)
        self.deadline = deadline
        self.log_update = 0.0
        self.limit = len(particles)  # slots from here on no longer run
        self.error: SteeringError | None = None

    def fault(self, slot: int, exc: SteeringError) -> None:
        """A budget fault fails its particle alone. Any other fault ends
        the step with the fault of the lowest faulting slot, so only the
        slots below it keep running, as a slot-by-slot walk would."""
        if isinstance(exc, StepBudgetExceeded):
            particle = self.particles[slot]
            exc.clause_index = particle.clause_index
            particle.status, particle.error, particle.log_weight = FAILED, exc, NEG_INF
        elif slot < self.limit:
            self.limit, self.error = slot, exc

    def cut(self, slots: list[int]) -> list[int]:
        if slots and slots[-1] >= self.limit:
            return slots[:bisect.bisect_left(slots, self.limit)]
        return slots

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise Timeout("wall-clock budget exhausted mid-step")

    def run(self, clause: StepClause, slots: list[int]) -> list[int]:
        slots = self.cut(slots)
        if not slots:
            return slots
        self.check_deadline()
        if clause.kind == "sample_until":
            return self.sample_until(clause, slots)
        if clause.kind == "force_string":
            return self.force(clause, slots)
        if clause.kind == "hint":
            return self.hint(clause, slots)
        if clause.kind == "loop":
            return self.loop(clause, slots)
        self.fault(slots[0], SchemaViolation(f"unknown clause kind {clause.kind!r}"))
        return []

    def sample_until(self, clause: StepClause, slots: list[int]) -> list[int]:
        stop, bound = clause.stop, clause.max_new_tokens
        particles, max_tokens = self.particles, self.plan.max_tokens
        done: list[int] = []
        drawn = 0
        while slots:
            self.check_deadline()
            if stop.kind == "token_count" and drawn >= stop.value:
                done += slots
                break
            draw = []
            for s in slots:
                particle = particles[s]
                if _stop_satisfied(stop, particle, drawn, self.vocab):
                    done.append(s)
                elif bound is not None and drawn >= bound:
                    self.fault(s, StepBudgetExceeded(
                        f"sample_until drew {drawn} tokens without satisfying its "
                        "stop predicate"))
                elif len(particle.tokens) >= max_tokens:
                    self.fault(s, StepBudgetExceeded(
                        f"clause needs more than max_tokens={max_tokens} tokens"))
                else:
                    draw.append(s)
            slots = self.draw(clause, draw)
            drawn += 1
        done.sort()
        return self.cut(done)

    def draw(self, clause: StepClause, slots: list[int]) -> list[int]:
        """Draw one token for every slot from the (masked) proposal;
        returns the slots that neither drew EOS nor faulted.

        Unscored, a mask adds its ``log Z`` importance correction (an
        unmasked draw has Z = 1). Scored with the prior, the delta is
        ``log p_prior(t) - log q(t)`` for the masked proposal q, possibly
        -inf; the prior is evaluated without hints, which condition the
        proposal side only. Slots sharing a (row, mask) pair share one
        normalization and one cumulative sum.
        """
        slots, rows = self.rows(self.models.proposal, self.plan.proposal_tag, slots, True)
        if not slots:
            return slots
        particles, vocab, mask = self.particles, self.vocab, clause.mask
        static = None
        if mask is not None and mask.kind != "max_remaining_chars":
            try:
                static = mask.build(vocab, "")
            except SteeringError as exc:
                self.fault(slots[0], exc)
                return []
        # one group per distinct (row, mask); positions in slot order
        index: dict[tuple, int] = {}
        firsts: list[int] = []
        group: list[int] = []
        for s, row in zip(slots, rows):
            key = (id(row), len(particles[s].text)
                   if mask is not None and static is None else 0)
            g = index.get(key)
            if g is None:
                g = index[key] = len(firsts)
                firsts.append(s)
            group.append(g)
        at = np.array(slots, dtype=np.intp)
        u = uniforms_at(self.keys[at], self.counters[at])
        self.counters[at] += np.uint64(1)
        group = np.array(group, dtype=np.intp)
        order = np.argsort(group, kind="stable")
        ends = np.cumsum(np.bincount(group)).tolist()
        chosen = np.zeros(len(slots), dtype=np.intp)
        log_z = [0.0] * len(firsts)
        start = 0
        for g, (first, end) in enumerate(zip(firsts, ends)):
            members, start = order[start:end], end
            row = sub = rows[members[0]]
            ids = None
            if mask is not None:
                ids = static if static is not None else mask.build(
                    vocab, particles[first].text)
                if ids.size == 0:
                    self.fault(first, MaskEmpty("mask allows no tokens"))
                    continue
                sub = row[ids]
            total = float(sub.sum())
            if ids is None:
                chosen[members] = draw_indices(sub, total, u[members])
            elif total <= 0.0:
                self.fault(first, MaskEmpty("mask removed all probability mass (Z=0)"))
            else:
                chosen[members] = ids[draw_indices(sub, total, u[members])]
                log_z[g] = math.log(total)
        slots = self.cut(slots)
        tokens = chosen.tolist()
        deltas = [log_z[g] for g in group.tolist()]
        if clause.score_with_prior:
            slots, prior_rows = self.rows(self.models.prior, self.plan.prior_tag,
                                          slots, False)
            for i, prior_row in enumerate(prior_rows):
                t = tokens[i]
                p = float(prior_row[t])
                log_q = math.log(rows[i][t]) - deltas[i]
                deltas[i] = (math.log(p) - log_q) if p > 0.0 else NEG_INF
        texts, eos = vocab.token_text, vocab.eos_id
        running = []
        for s, t, delta in zip(slots, tokens, deltas):
            particle = particles[s]
            particle.log_weight += delta
            self.log_update += delta
            particle.tokens.append(t)
            particle.text += texts[t]
            if t == eos:
                particle.status = DONE
            else:
                running.append(s)
        return running

    def rows(self, model: TokenModel, tag: str, slots: list[int], hinted: bool):
        """One row per slot, from one query per distinct (context, hints).

        Queries are keyed by hash and first slot, and built QUERY_BATCH
        at a time, so few context tuples are alive at once. A faulting
        query stops its first slot and every slot above it; returns the
        slots below that one with their rows.
        """
        particles = self.particles
        by_hash: dict[int, int] = {}
        firsts: list[int] = []
        which: list[int] = []
        for s in slots:
            p = particles[s]
            hints = p.hint_buffer if hinted else ()
            j = by_hash.get(h := hash((tuple(p.tokens), tuple(hints))))
            if j is None or particles[firsts[j]].tokens != p.tokens or (
                    hinted and particles[firsts[j]].hint_buffer != hints):
                by_hash.setdefault(h, len(firsts))  # a collision keeps the first
                j = len(firsts)
                firsts.append(s)
            which.append(j)
        distinct: list = []
        for lo in range(0, len(firsts), QUERY_BATCH):
            batch = firsts[lo:lo + QUERY_BATCH]
            try:
                distinct += self.query(model, tag, batch, hinted)
            except SteeringError:
                for s in batch:  # one at a time, to find the first fault
                    try:
                        distinct += self.query(model, tag, [s], hinted)
                    except SteeringError as exc:
                        self.fault(s, exc)
                        slots = slots[:slots.index(s)]
                        return slots, [distinct[j] for j in which[:len(slots)]]
        return slots, [distinct[j] for j in which]

    def query(self, model: TokenModel, tag: str, firsts: list[int], hinted: bool) -> list:
        """The model's rows for the queries of these slots, each checked
        once to be a vector over the vocabulary, so that every drawn id
        is a valid context id."""
        particles = self.particles
        queries = [ModelQuery(tuple(particles[s].tokens), tag,
                              tuple(particles[s].hint_buffer) if hinted else ())
                   for s in firsts]
        rows = model.next_distributions(queries, deadline=self.deadline)
        size = self.vocab.size
        if len(rows) != len(queries) or not all(
                isinstance(r, np.ndarray) and r.shape == (size,) for r in rows):
            raise ProtocolError(f"{type(model).__name__} did not return one "
                                f"{size}-entry vector per query")
        return rows

    def force(self, clause: StepClause, slots: list[int]) -> list[int]:
        """Append the forced tokens to every slot and add their log
        probability to its weight once, summed in token order as
        ``TokenModel.sequence_logprob`` sums it (-inf after a zero). A
        slot at -inf makes no further queries."""
        try:
            forced = forced_tokens(clause, self.vocab)
        except SteeringError as exc:
            self.fault(slots[0], exc)
            return []
        if not forced:
            return slots
        particles, max_tokens = self.particles, self.plan.max_tokens
        for s in slots:
            if len(particles[s].tokens) + len(forced) > max_tokens:
                self.fault(s, StepBudgetExceeded(
                    f"force_string of {len(forced)} tokens exceeds "
                    f"max_tokens={max_tokens}"))
        slots = scoring = [s for s in slots if particles[s].status == ACTIVE]
        totals = dict.fromkeys(slots, 0.0)
        for t in forced:
            self.check_deadline()
            scoring, rows = self.rows(self.models.proposal, self.plan.proposal_tag,
                                      scoring, True)
            for s, row in zip(scoring, rows):
                totals[s] = totals[s] + math.log(row[t]) if row[t] > 0.0 else NEG_INF
            scoring = [s for s in scoring if totals[s] != NEG_INF]
            slots = self.cut(slots)
            for s in slots:
                particles[s].tokens.append(t)
        text = self.vocab.decode(forced)
        ends = forced[-1] == self.vocab.eos_id
        running = []
        for s in slots:
            particle = particles[s]
            particle.log_weight += totals[s]
            self.log_update += totals[s]
            particle.text += text
            if ends:
                particle.status = DONE
            else:
                running.append(s)
        return running

    def hint(self, clause: StepClause, slots: list[int]) -> list[int]:
        for n, s in enumerate(slots):
            particle = self.particles[s]
            try:
                inject_hint(particle, clause.template, hint_bindings_for(
                    self.plan, particle.text, len(particle.tokens)))
            except SteeringError as exc:
                self.fault(s, exc)
                return slots[:n]
        return slots

    def loop(self, clause: StepClause, slots: list[int]) -> list[int]:
        if clause.iterations is not None:
            for _ in range(clause.iterations):
                for sub in clause.body:
                    slots = self.run(sub, slots)
                if not slots:
                    break
            return slots
        particles, stop = self.particles, clause.stop
        done: list[int] = []
        iterations = 0
        while slots:
            self.check_deadline()
            going = []
            for s in slots:
                particle = particles[s]
                if _stop_satisfied(stop, particle, len(particle.tokens), self.vocab):
                    done.append(s)
                elif iterations >= clause.max_iterations:
                    self.fault(s, StepBudgetExceeded(
                        f"loop ran {iterations} iterations without satisfying "
                        "its until predicate"))
                else:
                    going.append(s)
            for sub in clause.body:
                going = self.run(sub, going)
            slots = going
            iterations += 1
        done.sort()
        return self.cut(done)


def execute_step(plan: SteeringPlan, particles: list[Particle], models, keys,
                 deadline: float | None = None) -> StepUpdate:
    """Run every active particle's current clause to completion, all
    together; particle i draws from the stream with key ``keys[i]`` (a
    uint64), starting at counter 0.

    Advances each particle's program counter and marks it done when the
    plan is exhausted or EOS was emitted. A particle that exceeds a step
    budget is marked failed, with the StepBudgetExceeded (carrying its
    clause index) as its error and weight -inf; its siblings go on. Any
    other typed error ends the step: the error of the lowest faulting
    slot is raised, after every slot below it has finished its clause.
    Identical (plan, particle, key) give bit-identical results for that
    particle, whatever population it steps in.
    """
    models = as_model_set(models)
    step = _Pass(plan, models, particles, keys, deadline)
    stepped = [s for s, p in enumerate(particles) if p.status == ACTIVE]
    starts = [len(p.tokens) for p in particles]
    by_clause: dict[int, list[int]] = {}
    for s in stepped:
        by_clause.setdefault(particles[s].clause_index, []).append(s)
    for index, slots in sorted(by_clause.items()):
        if index < len(plan.steps):
            try:
                step.run(plan.steps[index], slots)
            except SteeringError as exc:
                exc.clause_index = index
                raise
    appended: list[int] = []
    for s in step.cut(stepped):
        p = particles[s]
        appended += p.tokens[starts[s]:]
        if p.status == FAILED:
            continue
        if p.clause_index < len(plan.steps):
            p.clause_index += 1
        if p.clause_index >= len(plan.steps):
            p.status = DONE
    if step.error is not None:
        step.error.clause_index = particles[step.limit].clause_index
        raise step.error
    return StepUpdate(tuple(appended), step.log_update,
                      all(particles[s].status != ACTIVE for s in stepped))


def run_check(plan: SteeringPlan, tokens, vocabulary: Vocabulary) -> bool:
    """Evaluate the plan's check conjunction on a finished sequence."""
    return verify(plan.check, vocabulary.decode(tokens)).passed


