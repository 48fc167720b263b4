"""Populations of particles and the step interpreter for steering plans
(``plans``).

Executing one clause on a particle extends its token sequence and
multiplies a score update into its weight; the weighted law over
finished sequences is the plan's target distribution, which the
inference engine approximates. A ``Population`` holds the particles of
a run as arrays, and resampling copies them with one ``take`` by
ancestor slot. The interpreter steps a whole population through one
top-level clause at once: one query per distinct window of context the
model reads (``TokenModel.context_reach``), found by an exact grouping
of the slots' windows and hint sets, and, on each token tick,
one batched draw over the tick's distinct rows per mask part (one part
unless a ``max_remaining_chars`` mask sees several text lengths).
Tokens are drawn only by the one-token ``draw`` clause; every
repetition is a ``loop``. ``Particle`` is the view of one slot that
callers build and read.

Masked sampling renormalizes the model distribution over the allowed
set and adds ``log Z`` (the removed mass) to the particle weight, so
constrained proposals stay properly weighted. Prior-scored sampling
replaces that correction with ``log p_prior(t) - log q_proposal(t)``.
"""

from __future__ import annotations

import math
import struct
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
    is_integer,
)
from .models import ModelQuery, TokenModel, Vocabulary
from .plans import (  # MaskSpec and parse_plan are re-exported
    MaskSpec,
    SteeringPlan,
    StepClause,
    forced_tokens,
    parse_plan,
)
from .rng import draw_rows, uniforms_at

NEG_INF = float("-inf")

ACTIVE = "active"
DONE = "done"
FAILED = "failed"
STATUSES = (ACTIVE, DONE, FAILED)  # indexed by a population's status codes
_ACTIVE, _DONE, _FAILED = range(3)

HINT_PREFIX = "Note to self: "

# Distinct model queries the interpreter sends per next_distributions
# call; it bounds the context tuples alive at once, which a whole tick's
# worth would leave parked in CPython's tuple free lists.
QUERY_BATCH = 16


@dataclass(slots=True)
class Particle:
    """One candidate generation with an accumulated weight: a copy of
    one slot of a ``Population``."""

    tokens: list[int] = field(default_factory=list)
    text: str = ""
    log_weight: float = 0.0
    status: str = ACTIVE
    hint_buffer: list[str] = field(default_factory=list)
    error: Exception | None = None
    passed_check: bool | None = None


class Population:
    """The particles of a run as arrays, slot i holding particle i.

    ``tokens`` is an int32 matrix, one row per slot, whose column count
    doubles as rows grow, up to the plan's ``max_tokens``; cells past a
    row's length hold 0. Per slot there are ``lengths``,
    ``text_lengths``, ``log_weights``, ``status`` (indices into
    ``STATUSES``) and ``hint_ids`` (indices into ``hint_sets``, the
    interned hint tuples). Lists hold ``texts`` (immutable, so copies
    share them), ``errors`` and ``passed`` (check results).
    ``ancestors`` holds the slots the last ``take`` copied, if any.
    """

    __slots__ = ("tokens", "lengths", "text_lengths", "log_weights", "status",
                 "hint_ids", "texts", "errors", "passed", "hint_sets", "hint_index",
                 "ancestors")
    _ARRAYS = __slots__[:6]  # the per-slot arrays

    def __init__(self, n: int, width: int = 0):
        """``n`` active particles with no tokens, text, hints or weight."""
        self.tokens = np.zeros((n, width), dtype=np.int32)
        self.lengths, self.text_lengths, self.hint_ids = (np.zeros(n, dtype=np.intp)
                                                          for _ in range(3))
        self.log_weights = np.zeros(n)
        self.status = np.full(n, _ACTIVE, dtype=np.int8)
        self.texts, self.errors, self.passed = [""] * n, [None] * n, [None] * n
        self.hint_sets, self.hint_index = [()], {(): 0}
        self.ancestors = None

    @classmethod
    def of(cls, particles) -> "Population":
        """A population holding a copy of each particle, in order."""
        pop = cls(len(particles), max((len(p.tokens) for p in particles), default=0))
        for i, p in enumerate(particles):
            pop.tokens[i, :len(p.tokens)] = p.tokens
            pop.lengths[i], pop.text_lengths[i] = len(p.tokens), len(p.text)
            pop.log_weights[i], pop.status[i] = p.log_weight, STATUSES.index(p.status)
            pop.hint_ids[i] = pop.intern(tuple(p.hint_buffer))
            pop.texts[i], pop.errors[i], pop.passed[i] = p.text, p.error, p.passed_check
        return pop

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, slot: int) -> Particle:
        """A copy of one slot as a Particle."""
        return Particle(self.tokens[slot, :self.lengths[slot]].tolist(), self.texts[slot],
                        float(self.log_weights[slot]), STATUSES[self.status[slot]],
                        list(self.hint_sets[self.hint_ids[slot]]), self.errors[slot],
                        self.passed[slot])

    def status_is(self, status: str) -> np.ndarray:
        """Which slots have this status, as a boolean array."""
        return self.status == STATUSES.index(status)

    def take(self, ancestors: np.ndarray) -> "Population":
        """A population whose slot i copies slot ``ancestors[i]``; copies
        share only immutable values (texts, errors, hint tuples)."""
        out = object.__new__(Population)
        for name in self._ARRAYS:
            setattr(out, name, getattr(self, name)[ancestors])
        at = ancestors.tolist()
        out.texts, out.errors, out.passed = ([values[a] for a in at] for values in (
            self.texts, self.errors, self.passed))
        out.hint_sets, out.hint_index = list(self.hint_sets), dict(self.hint_index)
        out.ancestors = ancestors
        return out

    def intern(self, hints: tuple[str, ...]) -> int:
        """The id of a hint tuple, added to ``hint_sets`` when new."""
        if hints not in self.hint_index:
            self.hint_index[hints] = len(self.hint_sets)
            self.hint_sets.append(hints)
        return self.hint_index[hints]

    def append(self, slots: np.ndarray, tokens: np.ndarray, vocab: Vocabulary,
               limit: int) -> None:
        """Append ``tokens[i]`` to slot ``slots[i]`` (distinct slots); the
        token matrix grows to at most ``limit`` columns."""
        lengths = self.lengths[slots]
        need, width = int(lengths.max()) + 1, self.tokens.shape[1]
        if need > width:
            grown = np.zeros((len(self), max(need, min(max(2 * width, 16), limit))),
                             dtype=np.int32)
            grown[:, :width] = self.tokens
            self.tokens = grown
        self.tokens[slots, lengths] = tokens
        self.lengths[slots] = lengths + 1
        self.text_lengths[slots] += vocab.token_lengths()[tokens]
        texts, pieces = self.texts, vocab.token_text
        for s, t in zip(slots.tolist(), tokens.tolist()):
            texts[s] += pieces[t]


@dataclass(frozen=True)
class StepUpdate:
    """Result of one population step: every token appended in it, in slot
    order, and the sum of every score delta applied."""

    appended_tokens: tuple[int, ...]
    log_score_update: float


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
    if is_integer(target):
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


def _groups(labels: np.ndarray) -> list[np.ndarray]:
    """The positions of each distinct label, ascending within a group."""
    order = np.argsort(labels, kind="stable")
    edges = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(labels)]
    return [order[lo:hi] for lo, hi in zip(edges, edges[1:])]


class _Pass:
    """One population step: the index of the top-level clause it runs,
    the population, every slot's stream key and draw counter, and the
    summed score delta.

    Each clause runs on an ascending array of slots and returns the
    slots still running: a slot leaves on EOS or when it dies. A slot
    that ends a loop early waits for the others without drawing, so its
    draws are those of a walk over its particle alone.

    Faults follow the rule of ``brute_force_target``, where a dead end
    gives its path zero mass. A dead end (a spent step budget, or a mask
    that allows no token or no probability mass) kills its particle
    alone; any other typed error propagates from where it is raised and
    ends the step.
    """

    __slots__ = ("plan", "index", "models", "vocab", "pop", "keys", "counters",
                 "deadline", "log_update")

    def __init__(self, plan, index: int, models: ModelSet, pop: Population, keys,
                 deadline):
        self.plan = plan
        self.index = index
        self.models = models
        self.vocab = models.vocabulary
        self.pop = pop
        self.keys = np.asarray(keys, dtype=np.uint64)
        self.counters = np.zeros(len(pop), dtype=np.uint64)
        self.deadline = deadline
        self.log_update = 0.0

    def kill(self, slots: np.ndarray, error: type, message: str) -> None:
        """Fail these slots at a dead end: each gets its own ``error``,
        stamped with the step's clause, and weight -inf."""
        self.pop.status[slots], self.pop.log_weights[slots] = _FAILED, NEG_INF
        for s in slots.tolist():
            self.pop.errors[s] = error(message, clause_index=self.index)

    def score(self, slots: np.ndarray, deltas: np.ndarray) -> None:
        self.pop.log_weights[slots] += deltas
        self.log_update += float(deltas.sum())

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise Timeout("wall-clock budget exhausted mid-step")

    def run(self, clause: StepClause, slots: np.ndarray) -> np.ndarray:
        if not slots.size:
            return slots
        self.check_deadline()
        if clause.kind == "draw":
            return self.draw(clause, slots)
        if clause.kind == "force_string":
            return self.force(clause, slots)
        if clause.kind == "hint":
            return self.hint(clause, slots)
        if clause.kind == "loop":
            return self.loop(clause, slots)
        raise SchemaViolation(f"unknown clause kind {clause.kind!r}")

    def draw(self, clause: StepClause, slots: np.ndarray) -> np.ndarray:
        """Draw one token for every slot from the (masked) proposal;
        returns the slots that neither drew EOS nor died. A slot already
        at ``max_tokens`` dies instead.

        Unscored, a mask adds its ``log Z`` importance correction (an
        unmasked draw has Z = 1). Scored with the prior, the delta is
        ``log p_prior(t) - log q(t)`` for the masked proposal q, possibly
        -inf; the prior is evaluated without hints, which condition the
        proposal side only. The tick's distinct rows are stacked into one
        table; each mask part (all slots, or under ``max_remaining_chars``
        those of one text length) builds its mask once, gathers the
        allowed columns in C order, so that each row sums as it would
        alone, and draws with ``rng.draw_rows``. Slots whose mask allows
        no token or leaves their row no mass die. Every pick and delta
        is then applied in one scatter.
        """
        pop, vocab, mask = self.pop, self.vocab, clause.mask
        max_tokens = self.plan.max_tokens
        full = pop.lengths[slots] >= max_tokens
        if full.any():
            self.kill(slots[full], StepBudgetExceeded,
                      f"clause needs more than max_tokens={max_tokens} tokens")
            slots = slots[~full]
            if not slots.size:
                return slots
        rows, which = self.rows(self.models.proposal, self.plan.proposal_tag, slots, True)
        distinct = {id(r): r for r in rows}  # one table row per distinct row object
        at = {key: i for i, key in enumerate(distinct)}
        table = np.array(list(distinct.values()))
        slot_rows = np.array([at[id(r)] for r in rows])[which]
        u = uniforms_at(self.keys[slots], self.counters[slots])
        self.counters[slots] += np.uint64(1)
        picks, deltas = np.zeros(len(slots), dtype=np.intp), np.zeros(len(slots))
        live = np.ones(len(slots), dtype=bool)
        parts = [np.arange(len(slots))]
        if mask is not None and mask.kind == "max_remaining_chars":
            parts = _groups(pop.text_lengths[slots])  # all that this mask reads
        for members in parts:
            if mask is None:
                picks[members] = draw_rows(table, table.sum(axis=1), slot_rows, u)
                continue
            ids = mask.build(vocab, pop.texts[slots[members[0]]])
            rows_used, used = np.unique(slot_rows[members], return_inverse=True)
            weights = table[rows_used[:, None], ids]  # C-ordered, unlike table[:, ids]
            totals = weights.sum(axis=1)
            dead = totals[used] <= 0.0
            if dead.any():
                self.kill(slots[members[dead]], MaskEmpty, "mask allows no tokens"
                          if ids.size == 0 else "mask removed all probability mass (Z=0)")
                live[members[dead]] = False
                members, used = members[~dead], used[~dead]
                if not members.size:
                    continue
            logs = np.array([0.0 if t <= 0.0 else math.log(t) for t in totals.tolist()])
            deltas[members] = logs[used]
            picks[members] = ids[draw_rows(weights, totals, used, u[members])]
        if not live.all():
            slots, picks, deltas, which = slots[live], picks[live], deltas[live], which[live]
            if not slots.size:
                return slots
        if clause.score_with_prior:
            prior_rows, prior_which = self.rows(self.models.prior, self.plan.prior_tag,
                                                slots, False)
            scored = []
            for t, delta, j, k in zip(picks.tolist(), deltas.tolist(), which.tolist(),
                                      prior_which.tolist()):
                p, log_q = float(prior_rows[k][t]), math.log(rows[j][t]) - delta
                scored.append((math.log(p) - log_q) if p > 0.0 else NEG_INF)
            deltas = np.array(scored)
        self.score(slots, deltas)
        pop.append(slots, picks, vocab, max_tokens)
        ended = picks == vocab.eos_id
        pop.status[slots[ended]] = _DONE
        return slots[~ended]

    def rows(self, model: TokenModel, tag: str, slots: np.ndarray,
             hinted: bool) -> tuple[list, np.ndarray]:
        """The model's row for each slot: one row per distinct query in
        order of first slot, and each slot's index into them.

        A query holds the slot's hints (none unless hinted) and the
        window of its context that the model reads under them, the last
        ``model.context_reach(hints)`` ids (all of them for None), found
        once per distinct hint set. Slots are grouped exactly, by one
        ``np.unique`` over the bytes of an int64 row per slot: its
        hint-set id, then its window's ids newest first, then -1 (never
        a token id) past the window's width. The stable sort makes each
        group's index its first slot.
        """
        pop, tokens = self.pop, self.pop.tokens
        lengths = pop.lengths[slots]
        hints = pop.hint_ids[slots] if hinted else np.zeros(len(slots), dtype=np.intp)
        sets, at = np.unique(hints, return_inverse=True)
        reach = [model.context_reach(pop.hint_sets[h]) for h in sets.tolist()]
        widths = np.minimum(lengths, np.array(  # no context is longer than the matrix
            [tokens.shape[1] if r is None else r for r in reach], dtype=np.intp)[at])
        starts = lengths - widths
        span = np.arange(int(widths.max(initial=0)))
        back = np.maximum(lengths[:, None] - 1 - span, 0)  # newest first
        cells = np.empty((len(slots), 1 + span.size), dtype=np.int64)
        cells[:, 0] = hints
        # flat (row-major) indices gather faster than 2-D ones
        cells[:, 1:] = np.take(tokens, back + (slots * tokens.shape[1])[:, None])
        cells[:, 1:][span >= widths[:, None]] = -1
        whole = cells.view(np.dtype((np.void, cells.itemsize * cells.shape[1]))).ravel()
        _, first, inverse = np.unique(whole, return_index=True, return_inverse=True)
        firsts = np.sort(first)
        distinct: list = []
        for lo in range(0, len(firsts), QUERY_BATCH):
            batch = firsts[lo:lo + QUERY_BATCH]
            distinct += self.query(model, tag, slots[batch], starts[batch], widths[batch],
                                   hints[batch])
        return distinct, np.searchsorted(firsts, first[inverse])

    def query(self, model: TokenModel, tag: str, slots: np.ndarray, starts: np.ndarray,
              widths: np.ndarray, hints: np.ndarray) -> list:
        """The model's rows for the queries of these slots, each checked
        once to be a vector over the vocabulary, so that every drawn id
        is a valid context id. Each context tuple is the window of
        ``widths`` ids from ``starts``, read straight from its row's
        int32 cells."""
        pop, tokens = self.pop, self.pop.tokens
        row_bytes, cell = tokens.strides[0], tokens.itemsize
        queries = [ModelQuery(struct.unpack_from(f"={w}i", tokens, s * row_bytes + o * cell),
                              tag, pop.hint_sets[h])
                   for s, o, w, h in zip(slots.tolist(), starts.tolist(), widths.tolist(),
                                         hints.tolist())]
        rows = model.next_distributions(queries, deadline=self.deadline)
        size = self.vocab.size
        if len(rows) != len(queries) or not all(
                isinstance(r, np.ndarray) and r.shape == (size,) for r in rows):
            raise ProtocolError(f"{type(model).__name__} did not return one "
                                f"{size}-entry vector per query")
        return rows

    def force(self, clause: StepClause, slots: np.ndarray) -> np.ndarray:
        """Append the forced tokens to every slot and add their log
        probability to its weight once, summed in token order as
        ``TokenModel.sequence_logprob`` sums it (-inf after a zero). A
        slot at -inf makes no further queries."""
        forced = forced_tokens(clause, self.vocab)
        if not forced:
            return slots
        pop, max_tokens = self.pop, self.plan.max_tokens
        over = pop.lengths[slots] + len(forced) > max_tokens
        if over.any():
            self.kill(slots[over], StepBudgetExceeded, f"force_string of {len(forced)} "
                      f"tokens exceeds max_tokens={max_tokens}")
            slots = slots[~over]
            if not slots.size:
                return slots
        totals = np.zeros(len(slots))
        scoring = np.arange(len(slots))  # positions of the slots still finite
        for t in forced:
            self.check_deadline()
            if scoring.size:
                rows, which = self.rows(self.models.proposal, self.plan.proposal_tag,
                                        slots[scoring], True)
                logs = np.array([math.log(r[t]) if r[t] > 0.0 else NEG_INF for r in rows])
                totals[scoring] += logs[which]
                scoring = scoring[totals[scoring] != NEG_INF]
            pop.append(slots, np.full(len(slots), t), self.vocab, max_tokens)
        self.score(slots, totals)
        if forced[-1] != self.vocab.eos_id:
            return slots
        pop.status[slots] = _DONE
        return slots[:0]

    def hint(self, clause: StepClause, slots: np.ndarray) -> np.ndarray:
        pop = self.pop
        for s, n in zip(slots.tolist(), pop.lengths[slots].tolist()):
            hint = render_hint(clause.template, hint_bindings_for(self.plan, pop.texts[s], n))
            pop.hint_ids[s] = pop.intern(pop.hint_sets[pop.hint_ids[s]] + (hint,))
        return slots

    def stopped(self, stop, slots: np.ndarray) -> np.ndarray:
        """Which slots satisfy the stop predicate of ``loop until``; a
        ``token_count`` stop compares the sequence length."""
        pop, lengths = self.pop, self.pop.lengths[slots]
        if stop.kind == "token_count":
            return lengths >= stop.value
        if stop.kind == "substring":
            return np.array([stop.value in pop.texts[s] for s in slots.tolist()], dtype=bool)
        last = pop.tokens[slots, lengths - 1] if pop.tokens.shape[1] else lengths
        return (lengths > 0) & (last == self.vocab.eos_id)

    def loop(self, clause: StepClause, slots: np.ndarray) -> np.ndarray:
        if clause.iterations is not None:
            for _ in range(clause.iterations):
                for sub in clause.body:
                    slots = self.run(sub, slots)
                if not slots.size:
                    break
            return slots
        stop, bound = clause.stop, clause.max_iterations
        done = [slots[:0]]
        iterations = 0
        while slots.size:
            stopped = self.stopped(stop, slots)
            done.append(slots[stopped])
            slots = slots[~stopped]
            if bound is not None and iterations >= bound and slots.size:
                self.kill(slots, StepBudgetExceeded, f"loop ran {iterations} iterations "
                          "without satisfying its stop predicate")
                slots = slots[:0]
            for sub in clause.body:
                slots = self.run(sub, slots)
            iterations += 1
        return np.sort(np.concatenate(done))


def execute_step(plan: SteeringPlan, index: int, population: Population, models,
                 keys, deadline: float | None = None) -> StepUpdate:
    """Run top-level clause ``index`` on every active particle of the
    population, all together and in place; slot i draws from the stream
    with key ``keys[i]`` (a uint64), starting at counter 0. Done and
    failed slots are left untouched.

    A particle is done on EOS, or when it is still active after the
    plan's last clause. A particle that reaches a dead end
    (StepBudgetExceeded, or MaskEmpty when its mask allows no token or
    no probability mass) is marked failed, with that error (carrying
    ``index``) and weight -inf; its siblings go on. Any other typed
    error ends the step at once and is raised with ``index``. Identical
    (plan, index, particle, key) give bit-identical results for that
    particle, whatever population it steps in. The update lists the
    appended tokens slot by slot.
    """
    pop = population
    step = _Pass(plan, index, as_model_set(models), pop, keys, deadline)
    stepped = np.flatnonzero(pop.status == _ACTIVE)
    starts = pop.lengths[stepped]
    if index < len(plan.steps):
        try:
            step.run(plan.steps[index], stepped)
        except SteeringError as exc:
            exc.clause_index = index
            raise
    if index + 1 >= len(plan.steps):
        pop.status[stepped[pop.status[stepped] == _ACTIVE]] = _DONE
    columns = np.arange(pop.tokens.shape[1])
    new = (columns >= starts[:, None]) & (columns < pop.lengths[stepped][:, None])
    return StepUpdate(tuple(pop.tokens[stepped][new].tolist()), step.log_update)


def run_check(plan: SteeringPlan, text: str) -> bool:
    """Evaluate the plan's check conjunction on a finished sequence's text."""
    return verify(plan.check, text).passed
