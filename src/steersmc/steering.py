"""Populations of particles and the step interpreter for steering plans
(``plans``).

Executing one clause on a particle extends its token sequence and
multiplies a score update into its weight; the weighted law over
finished sequences is the plan's target distribution, which the
inference engine approximates. A ``Population`` holds the particles of
a run as arrays, and resampling copies them with one ``take`` by
ancestor slot. A particle's text is a function of its tokens, so it is
not stored: a hint, a substring stop, the plan check and the records
each decode the texts they read, in one gather over their slots. The
interpreter steps a whole population through one top-level clause at
once. On each token tick it gathers every slot's window of the context
the model reads (``TokenModel.context_reach``) into one matrix and
makes at most one ``TokenModel.next_table`` call, which answers with
one table of distinct rows and each slot's index into it: the default
groups the slots exactly by window and hint set and sends one query per
group, and ``NgramModel`` walks its trie of seen windows for all slots
at once. A draw call whose slots all read no context asks once, on
its first tick. The draw, the prior's score and ``force_string`` read
that table. The draw is one batched pass over that table per mask part
(one part unless a ``max_remaining_chars`` mask sees several text
lengths), which gathers the mask's columns of the whole table.
Tokens are drawn only by the one-token ``draw`` clause; every
repetition is a ``loop``, and a loop of draws alone with a fixed count
is one draw call of many ticks, which works out once what they share.
A slot's fate is one status code, set by the step that decides it:
``ACTIVE``, ``DONE`` (finished and passed the plan check), ``REJECTED``
(finished and failed it, weight -inf) or ``FAILED`` (a dead end, weight
-inf); the step checks the slots it finishes.

Masked sampling renormalizes the model distribution over the allowed
set and adds ``log Z`` (the removed mass) to the particle weight, so
constrained proposals stay properly weighted. Prior-scored sampling
replaces that correction with ``log p_prior(t) - log q_proposal(t)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .constraints import fails, words
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
from .models import TokenModel, Vocabulary, check_rows
from .plans import (  # MaskSpec and parse_plan are re-exported
    MaskSpec,
    SteeringPlan,
    StepClause,
    forced_tokens,
    parse_plan,
    template_reads_text,
)
from .rng import DRAW_CELLS, draw_rows, uniform_block

NEG_INF = float("-inf")
WHOLE_CONTEXT = np.iinfo(np.int64).max  # the stored reach of a model that reads it all

ACTIVE, DONE, REJECTED, FAILED = range(4)  # a slot's status codes

HINT_PREFIX = "Note to self: "


class Population:
    """The particles of a run as arrays, slot i holding particle i.

    ``tokens`` is an int32 matrix, one row per slot, whose column count
    doubles as rows grow, up to the plan's ``max_tokens``; cells past a
    row's length hold 0. Per slot there are ``lengths``,
    ``text_lengths``, ``log_weights``, ``status`` (``ACTIVE``,
    ``DONE``, ``REJECTED`` or ``FAILED``) and ``hint_ids`` (indices into
    ``hint_sets``, the interned hint tuples). ``errors`` maps each failed
    slot to its error. Texts are not stored: a slot's text is the
    concatenation of its tokens' texts in ``vocabulary``, and ``texts``
    decodes it where it is read. ``ancestors`` holds the slots the last ``take`` copied,
    if any.
    """

    __slots__ = ("tokens", "lengths", "text_lengths", "log_weights", "status",
                 "hint_ids", "vocabulary", "errors", "hint_sets", "hint_index", "ancestors")
    _ARRAYS = __slots__[:6]  # the per-slot arrays

    def __init__(self, n: int, vocabulary: Vocabulary, width: int = 0):
        """``n`` active particles with no tokens, hints or weight."""
        self.tokens = np.zeros((n, width), dtype=np.int32)
        self.lengths, self.text_lengths, self.hint_ids = (np.zeros(n, dtype=np.intp)
                                                          for _ in range(3))
        self.log_weights = np.zeros(n)
        self.status = np.full(n, ACTIVE, dtype=np.int8)
        self.vocabulary, self.errors = vocabulary, {}
        self.hint_sets, self.hint_index = [()], {(): 0}
        self.ancestors = None

    def __len__(self) -> int:
        return len(self.lengths)

    def texts(self, slots: np.ndarray, starts: np.ndarray | None = None) -> list[str]:
        """The text of each of these slots (an array), or of its tokens
        from column ``starts[i]`` on: a gather of token texts over the
        slots' id cells, with EOS's empty text outside each range, then
        one join per slot."""
        lengths = self.lengths[slots]
        lo = 0 if starts is None else int(starts.min(initial=self.tokens.shape[1]))
        columns = np.arange(lo, int(lengths.max(initial=0)))
        ids = self.tokens[slots, lo:lo + columns.size]
        outside = columns >= lengths[:, None]
        if starts is not None:
            outside |= columns < starts[:, None]
        ids[outside] = self.vocabulary.eos_id
        return list(map("".join, self.vocabulary.token_pieces()[ids].tolist()))

    def take(self, ancestors: np.ndarray) -> "Population":
        """A population whose slot i copies slot ``ancestors[i]``; copies
        share only immutable values (errors, hint tuples, the
        vocabulary)."""
        out = object.__new__(Population)
        for name in self._ARRAYS:
            setattr(out, name, getattr(self, name)[ancestors])
        failed = np.flatnonzero(out.status == FAILED)
        errors = self.errors
        out.errors = {i: errors[a] for i, a in zip(failed.tolist(), ancestors[failed].tolist())
                      if a in errors}
        out.vocabulary = self.vocabulary
        out.hint_sets, out.hint_index = list(self.hint_sets), dict(self.hint_index)
        out.ancestors = ancestors
        return out

    def intern(self, hints: tuple[str, ...]) -> int:
        """The id of a hint tuple, added to ``hint_sets`` when new."""
        if hints not in self.hint_index:
            self.hint_index[hints] = len(self.hint_sets)
            self.hint_sets.append(hints)
        return self.hint_index[hints]

    def append(self, slots: np.ndarray, tokens: np.ndarray, limit: int) -> None:
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
        self.text_lengths[slots] += self.vocabulary.token_lengths()[tokens]


class StepUpdate:
    """Result of one population step: ``appended_tokens``, every token
    appended in it, in slot order, and ``log_score_update``, the sum of
    every score delta applied.

    ``appended_tokens`` may be given as a function that builds the
    tuple, called when first read: ``execute_step`` passes one that
    reads the step's cells, which are never written again (later
    appends go past them, a grown matrix is a new array, and
    ``Population.take`` copies).
    """

    __slots__ = ("_tokens", "log_score_update")

    def __init__(self, appended_tokens, log_score_update: float):
        self._tokens, self.log_score_update = appended_tokens, log_score_update

    @property
    def appended_tokens(self) -> tuple[int, ...]:
        if callable(self._tokens):
            self._tokens = self._tokens()
        return self._tokens

    def __eq__(self, other):
        if type(other) is not StepUpdate:
            return NotImplemented
        return ((self.appended_tokens, self.log_score_update)
                == (other.appended_tokens, other.log_score_update))

    def __hash__(self):
        return hash((self.appended_tokens, self.log_score_update))

    def __repr__(self):
        return (f"StepUpdate(appended_tokens={self.appended_tokens!r}, "
                f"log_score_update={self.log_score_update!r})")


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


def hint_bindings_for(plan: SteeringPlan, text: str | None, n_tokens: int) -> dict:
    """Plan variables plus computed built-ins for hint templates. With no
    text (None), only ``tokens_so_far`` is computed: enough for a
    template that ``plans.template_reads_text`` clears."""
    bindings = dict(plan.variables)
    bindings["tokens_so_far"] = n_tokens
    if text is not None:
        bindings["chars_so_far"] = len(text)
        bindings["words_so_far"] = len(words(text))
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


def _groups(labels: np.ndarray) -> list[np.ndarray]:
    """The positions of each distinct label, ascending within a group."""
    order = np.argsort(labels, kind="stable")
    edges = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(labels)]
    return [order[lo:hi] for lo, hi in zip(edges, edges[1:])]


class _Pass:
    """One population step: the index of the top-level clause it runs,
    the population, every slot's stream key and draw counter, whether
    the run reads weights, and the summed score delta. It keeps no
    memo of rows or reaches: what stays fixed for the ticks of one
    ``draw`` call is worked out once per call (see ``draw``). A run
    that reads no weights (rejection) asks for no score at all.

    Each clause runs on an ascending array of slots and returns the
    slots still running: a slot leaves on EOS or when it dies. A slot
    that ends a loop early waits for the others without drawing, so its
    draws are those of a walk over its particle alone: slot s's j-th
    uniform of the step is ``uniforms_at(key_s, j)`` wherever it is
    drawn, since every counter starts the step at 0 and advances by the
    draws its slot made.

    Faults follow the rule of ``brute_force_target``, where a dead end
    gives its path zero mass. A dead end (a spent step budget, or a mask
    that allows no token or no probability mass) kills its particle
    alone; any other typed error propagates from where it is raised and
    ends the step.
    """

    __slots__ = ("plan", "index", "models", "vocab", "pop", "keys", "counters", "deadline",
                 "weighted", "log_update")

    def __init__(self, plan, index: int, models: ModelSet, pop: Population, keys,
                 deadline, weighted: bool = True):
        self.plan = plan
        self.index = index
        self.models = models
        self.vocab = models.vocabulary
        self.pop = pop
        self.keys = np.asarray(keys, dtype=np.uint64)
        self.counters = np.zeros(len(pop), dtype=np.uint64)
        self.deadline = deadline
        self.weighted = weighted
        self.log_update = 0.0

    def kill(self, slots: np.ndarray, error: type, message: str) -> None:
        """Fail these slots at a dead end: each gets its own ``error``,
        stamped with the step's clause, and weight -inf."""
        self.pop.status[slots], self.pop.log_weights[slots] = FAILED, NEG_INF
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

    def draw(self, clause: StepClause, slots: np.ndarray, count: int = 1) -> np.ndarray:
        """Up to ``count`` ticks of the clause: each draws one token for
        every slot from the (masked) proposal. Returns the slots that
        neither drew EOS nor died; a slot leaves the call when it does
        either, and a slot already at ``max_tokens`` dies instead of
        drawing.

        What the ticks share is worked out once per call, on its first
        tick: no hint clause runs inside a call, so each slot's hint set
        and reach (``reach``), and the prior's reach for a scored draw,
        are fixed, and when every reach is 0 so are its rows, one
        ``rows`` call, and their sums; a prior of reach 0 likewise has
        its rows asked once, on the first tick it scores. The
        ``max_tokens`` check runs only on ticks where the longest slot
        can reach it. Uniforms come from a block computed ahead from
        each slot's own counter c_s (``rng.uniform_block``): column j
        holds the uniforms at ``c_s + j``, over the slots still drawing,
        at most ``DRAW_CELLS`` cells (one column at least) and no wider
        than the ticks left in which ``max_tokens`` lets the call's
        shortest slot draw; a spent block is refilled at the next
        counters. Each counter then advances by the draws its slot made.
        A slot that leaves is sliced out of all of these. The token
        matrix grows as tokens are appended (``Population.append``), so
        a call that ends early by EOS widens it no further than its
        tokens need.

        Unscored, a mask adds its ``log Z`` importance correction (an
        unmasked draw has Z = 1). Scored with the prior, the delta is
        ``log p_prior(t) - log q(t)`` for the masked proposal q, possibly
        -inf; the prior is evaluated without hints, which condition the
        proposal side only. A run that reads no weights computes neither
        and asks the prior nothing. A tick whose rows are not fixed reads
        its distinct rows as one table, with their sums (``rows``). An
        unmasked draw is one ``rng.draw_rows`` over the table and those
        sums, and kills no slot.
        Otherwise each mask part (all slots, or under
        ``max_remaining_chars`` those of one text length) gathers the
        allowed columns of the whole table in C order, so that each row
        sums as it would alone, and draws with ``rng.draw_rows``, each
        slot reading its own row of that gather; slots whose mask allows
        no token or leaves their row no mass die. Every pick and delta
        of a tick is then applied in one scatter; an unmasked, unscored
        draw, whose deltas are all 0.0, applies none.
        """
        pop, vocab, mask = self.pop, self.vocab, clause.mask
        model, tag, max_tokens = self.models.proposal, self.plan.proposal_tag, self.plan.max_tokens
        scored = clause.score_with_prior and self.weighted
        by_length = mask is not None and mask.kind == "max_remaining_chars"
        entered, starts = slots, pop.lengths[slots]
        longest, drawable = int(starts.max()), min(count, max_tokens - int(starts.min()))
        hints = reach = prior_reach = table = slot_rows = sums = prior_rows = block = None

        def only(keep):  # the call's per-slot arrays, cut to these slots
            return tuple(None if a is None else a[keep]
                         for a in (slots, hints, reach, slot_rows, prior_rows, block))

        for tick in range(count):
            if tick:
                self.check_deadline()
            if longest + tick >= max_tokens:  # a slot may be full
                full = pop.lengths[slots] >= max_tokens
                if full.any():
                    self.kill(slots[full], StepBudgetExceeded,
                              f"clause needs more than max_tokens={max_tokens} tokens")
                    slots, hints, reach, slot_rows, prior_rows, block = only(~full)
                    if not slots.size:
                        break
            if not tick:
                hints = pop.hint_ids[slots]
                reach = self.reach(model, hints)
                if scored:  # the prior reads no hints
                    prior_reach = self.reach(self.models.prior, np.zeros(1, dtype=np.intp))
                fixed = not reach.any()  # every window is empty all call
            if block is None or column == block.shape[1]:  # from each slot's next counter
                width = max(1, min(drawable - tick, DRAW_CELLS // len(slots)))
                block = uniform_block(self.keys[slots], self.counters[slots] + np.uint64(tick),
                                      width)
                column = 0
            u = block[:, column]
            column += 1
            if table is None or not fixed:
                table, slot_rows, sums = self.rows(model, tag, slots, hints, reach)
            if mask is None:  # Z = 1, and no slot dies
                picks = draw_rows(table, sums, slot_rows, u)
                deltas = np.zeros(len(slots)) if scored else None
            else:
                picks, deltas = np.zeros(len(slots), dtype=np.intp), np.zeros(len(slots))
                # a max_remaining_chars mask reads the text length alone
                parts = _groups(pop.text_lengths[slots]) if by_length else [np.arange(len(slots))]
                for members in parts:
                    ids = mask.build(vocab, int(pop.text_lengths[slots[members[0]]]))
                    used = slot_rows[members]
                    weights = table.take(ids, axis=1)  # C-ordered, unlike table[:, ids]
                    mass = weights.sum(axis=1)
                    dead = mass[used] <= 0.0
                    if dead.any():
                        self.kill(slots[members[dead]], MaskEmpty, "mask allows no tokens"
                                  if ids.size == 0 else "mask removed all probability mass (Z=0)")
                        members, used = members[~dead], used[~dead]
                        if not members.size:
                            continue
                    if self.weighted:
                        logs = np.array([0.0 if t <= 0.0 else math.log(t) for t in mass.tolist()])
                        deltas[members] = logs[used]
                    picks[members] = ids[draw_rows(weights, mass, used, u[members])]
                live = pop.status[slots] == ACTIVE  # kill marks every death
                if not live.all():
                    picks, deltas = picks[live], deltas[live]
                    slots, hints, reach, slot_rows, prior_rows, block = only(live)
                    if not slots.size:
                        break
            if scored:
                if prior_rows is None or prior_reach[0]:  # at reach 0, fixed all call
                    prior, prior_rows, _ = self.rows(self.models.prior, self.plan.prior_tag, slots,
                                                     np.zeros_like(slots), prior_reach)
                deltas = np.array([
                    (math.log(p) - (math.log(q) - delta)) if p > 0.0 else NEG_INF
                    for p, q, delta in zip(prior[prior_rows, picks].tolist(),
                                           table[slot_rows, picks].tolist(), deltas.tolist())])
            if self.weighted and (mask is not None or scored):  # else every delta is 0.0
                self.score(slots, deltas)
            pop.append(slots, picks, max_tokens)
            ended = picks == vocab.eos_id
            if ended.any():
                pop.status[slots[ended]] = DONE
                slots, hints, reach, slot_rows, prior_rows, block = only(~ended)
                if not slots.size:
                    break
        self.counters[entered] += (pop.lengths[entered] - starts).astype(np.uint64)
        return slots

    def rows(self, model: TokenModel, tag: str, slots: np.ndarray, hints: np.ndarray,
             reach: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The model's rows for these slots as one table, each slot's
        index into it, and the table's row sums, from one
        ``model.next_table`` call: the one place where the interpreter
        asks a model for rows.

        A slot reads its hint set (id ``hints[i]``) and the window of its
        context that the model reads under it, the last ``reach[i]`` ids
        (``reach``; one entry serves every slot). The windows are
        gathered into one int64 matrix straight from the slots' token
        cells: each id plus one, newest first, then 0 past the window's
        width, so token 0 never reads as padding. When every width is 0
        the matrix has no columns, and the rows read the hint sets alone.

        The answer is checked before any of it is read: a table of rows
        over the vocabulary that keep ``models.check_rows``, and one
        integer index into it per slot, so that every drawn id is a valid
        context id. Anything else is a ProtocolError. The sums are the
        check's.
        """
        pop, tokens = self.pop, self.pop.tokens
        lengths = pop.lengths[slots]
        widths = np.minimum(lengths, reach)
        span = np.arange(int(widths.max()), dtype=np.int64)
        # flat (row-major) indices, newest first, gather faster than 2-D
        # ones; a cell before its row's start is past the width
        back = (slots * tokens.shape[1] + lengths - 1)[:, None] - span
        windows = np.add(np.take(tokens, np.maximum(back, 0, out=back)), 1, dtype=np.int64)
        windows[span >= widths[:, None]] = 0
        table, slot_rows = model.next_table(windows, widths, hints, pop.hint_sets, tag,
                                            self.deadline)
        name, size = type(model).__name__, self.vocab.size
        if not (isinstance(table, np.ndarray) and table.ndim == 2 and table.shape[1] == size
                and np.shape(slot_rows) == (len(hints),)):
            raise ProtocolError(f"{name} did not return a table of {size}-entry rows "
                                "with one index per slot")
        slot_rows = np.asarray(slot_rows)
        # as unsigned, a negative index lies past every row
        if not (slot_rows.dtype.kind in "iu"
                and slot_rows.astype(np.uint64).max() < len(table)):
            raise ProtocolError(f"{name} returned slot indices that are "
                                f"not integers in [0, {len(table)})")
        return table, slot_rows, check_rows(table, name)

    def reach(self, model: TokenModel, hints: np.ndarray) -> np.ndarray:
        """``model.context_reach`` of each of these hint-set ids as int64,
        ``WHOLE_CONTEXT`` for None, asked once per distinct id."""
        present = np.flatnonzero(np.bincount(hints))
        known = np.zeros(present[-1] + 1, dtype=np.int64)
        for h in present.tolist():
            r = model.context_reach(self.pop.hint_sets[h])
            known[h] = WHOLE_CONTEXT if r is None else r
        return known[hints]

    def force(self, clause: StepClause, slots: np.ndarray) -> np.ndarray:
        """Append the forced tokens to every slot and add their log
        probability to its weight once, summed in token order as
        ``TokenModel.sequence_logprob`` sums it (-inf after a zero). A
        slot at -inf makes no further queries, and a run that reads no
        weights makes none."""
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
        # positions of the slots still finite
        scoring = np.arange(len(slots) if self.weighted else 0)
        model, hints = self.models.proposal, pop.hint_ids[slots]
        reach = self.reach(model, hints) if scoring.size else None
        for t in forced:
            self.check_deadline()
            if scoring.size:
                table, slot_rows, _ = self.rows(model, self.plan.proposal_tag, slots[scoring],
                                                hints[scoring], reach[scoring])
                logs = np.array([math.log(p) if p > 0.0 else NEG_INF
                                 for p in table[:, t].tolist()])
                totals[scoring] += logs[slot_rows]
                scoring = scoring[totals[scoring] != NEG_INF]
            pop.append(slots, np.full(len(slots), t), max_tokens)
        self.score(slots, totals)
        if forced[-1] != self.vocab.eos_id:
            return slots
        pop.status[slots] = DONE
        return slots[:0]

    def hint(self, clause: StepClause, slots: np.ndarray) -> np.ndarray:
        """Render the clause's template for every slot and add the hint to
        the slot's hint set; the texts are decoded only for a template
        that reads them."""
        pop = self.pop
        texts = (pop.texts(slots) if template_reads_text(clause.template)
                 else [None] * len(slots))
        for s, n, text in zip(slots.tolist(), pop.lengths[slots].tolist(), texts):
            hint = render_hint(clause.template, hint_bindings_for(self.plan, text, n))
            pop.hint_ids[s] = pop.intern(pop.hint_sets[pop.hint_ids[s]] + (hint,))
        return slots

    def stopped(self, stop, slots: np.ndarray, texts: list[str] | None) -> np.ndarray:
        """Which slots satisfy the stop predicate of ``loop until``: a
        ``token_count`` stop compares the sequence length, a ``substring``
        stop searches the loop's texts by slot, and an ``eos`` stop holds
        for none, since a slot leaves on the EOS it draws or forces."""
        if stop.kind == "token_count":
            return self.pop.lengths[slots] >= stop.value
        if stop.kind == "substring":
            return np.array([stop.value in texts[s] for s in slots.tolist()], dtype=bool)
        return np.zeros(len(slots), dtype=bool)

    def loop(self, clause: StepClause, slots: np.ndarray) -> np.ndarray:
        """Run the body ``iterations`` times, or until ``stop`` holds,
        within ``max_iterations`` passes (None: no bound but
        ``max_tokens``); a slot still running after the last pass dies.

        A loop with a fixed count whose body is one ``draw`` is one call
        of it, of that many ticks. Any other loop runs its body once per
        pass, so a ``draw`` in it is a call of one tick.
        """
        body = clause.body
        if clause.iterations is not None:
            if len(body) == 1 and body[0].kind == "draw":
                return self.draw(body[0], slots, clause.iterations)
            for _ in range(clause.iterations):
                for sub in body:
                    slots = self.run(sub, slots)
                if not slots.size:
                    break
            return slots
        pop, stop, bound = self.pop, clause.stop, clause.max_iterations
        done = [slots[:0]]
        iterations = 0
        texts = decoded = None
        if stop.kind == "substring":
            # each slot's text by slot, decoded in full on entry and then
            # extended by the tokens each pass appends; it lives only here
            texts, decoded = [""] * len(pop), np.zeros_like(pop.lengths)
        while slots.size:
            if texts is not None:
                for s, piece in zip(slots.tolist(), pop.texts(slots, decoded[slots])):
                    texts[s] += piece
                decoded = pop.lengths.copy()
            stopped = self.stopped(stop, slots, texts)
            done.append(slots[stopped])
            slots = slots[~stopped]
            if bound is not None and iterations >= bound and slots.size:
                self.kill(slots, StepBudgetExceeded, f"loop ran {iterations} iterations "
                          "without satisfying its stop predicate")
                slots = slots[:0]
            for sub in body:
                slots = self.run(sub, slots)
            iterations += 1
        return np.sort(np.concatenate(done))


def execute_step(plan: SteeringPlan, index: int, population: Population, models,
                 keys, deadline: float | None = None, weighted: bool = True) -> StepUpdate:
    """Run top-level clause ``index`` on every active particle of the
    population, all together and in place; slot i draws from the stream
    with key ``keys[i]`` (a uint64), starting at counter 0. Finished and
    failed slots are left untouched.

    A particle finishes on EOS, or when it is still active after the
    plan's last clause; the texts of the particles this step finished
    are then decoded in one gather and checked by ``run_check``, one
    call each, and a particle is ``DONE`` if its text passes and
    ``REJECTED``, with weight -inf, if it fails. A particle that reaches
    a dead end (StepBudgetExceeded, or MaskEmpty when its mask allows no
    token or no probability mass) is ``FAILED``, with that error
    (carrying ``index``) and weight -inf; its siblings go on. Any other
    typed error ends the step at once and is raised with ``index``;
    nothing is checked then. Neither a failed check nor a dead end
    enters ``log_score_update``. Identical (plan, index, particle, key)
    give bit-identical results for that particle, whatever population it
    steps in. The update lists the appended tokens slot by slot, built
    when first read. With ``weighted`` False (a run that reads only
    statuses) no score is computed: no delta enters a weight or
    ``log_score_update``, and no model is asked for a score alone, so
    the prior is never asked; deaths and failed checks still set -inf.
    """
    pop = population
    step = _Pass(plan, index, as_model_set(models), pop, keys, deadline, weighted)
    stepped = np.flatnonzero(pop.status == ACTIVE)
    starts = pop.lengths[stepped]
    if index < len(plan.steps):
        try:
            step.run(plan.steps[index], stepped)
        except SteeringError as exc:
            exc.clause_index = index
            raise
    if index + 1 >= len(plan.steps):
        pop.status[stepped[pop.status[stepped] == ACTIVE]] = DONE
    finished = stepped[pop.status[stepped] == DONE]
    failed_check = [not run_check(plan, text) for text in pop.texts(finished)]
    rejected = finished[np.array(failed_check, dtype=bool)]
    pop.status[rejected], pop.log_weights[rejected] = REJECTED, NEG_INF
    stops = pop.lengths[stepped]

    def appended(tokens=pop.tokens):
        columns = np.arange(tokens.shape[1])
        new = (columns >= starts[:, None]) & (columns < stops[:, None])
        return tuple(tokens[stepped][new].tolist())

    return StepUpdate(appended, step.log_update)


def run_check(plan: SteeringPlan, text: str) -> bool:
    """Whether a finished text passes the plan's check; ``execute_step``
    and the oracle ask this."""
    return not any(fails(spec, text) for spec in plan.check)
