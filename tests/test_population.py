"""Population stepping against a slot-by-slot reference.

``execute_step`` runs every particle's clause together: one query per
distinct window of context a model reads, uniforms read from blocks
computed ahead for each draw call (a loop of draws runs as one call)
and one batched draw over the distinct rows of each mask part. The reference
below is the per-particle clause walk it replaced, kept here as
``tests/test_rng.py`` keeps the scalar ``choice`` walk, and stepped
slot by slot as the engine used to, forcing strings through
``TokenModel.sequence_logprob``. Random plans over vocabularies of at
most five tokens, on table models (whole-context windows) and n-grams
of order 1-3 (windows shorter than the context, cut by hints), must
give bit-identical particles. A dead end (a spent step budget or an
empty mask) fails its particle alone in both; any
other error ends our step at once, so it is raised exactly when the
walk raises and is the error of some slot's walk.
Both run parsed plans, where every token is drawn by a one-token
``draw`` clause inside a ``loop``; a generated ``sample_until`` whose
``max_new_tokens`` is below its token-count stop must be rejected by
``parse_plan`` instead.

Replacing ``math.log`` by ``np.log`` for the mask's ``log Z`` in
``steering._Pass.draw`` fails ``test_population_step_matches_the_walk``.
Dropping the ``+ 1`` on window ids in ``steering._Pass.rows``, so that
token 0 reads as padding, fails ``test_a_window_ends_where_its_context_starts``
and ``test_rows_group_slots_by_hint_set_and_window``. Keying the dict
of ``TokenModel.next_table`` on the window alone, without the hint-set
id, fails the latter.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
import string
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from steersmc import (
    InferenceConfig,
    MaskEmpty,
    MaskSpec,
    ModelQuery,
    NgramModel,
    Population,
    ProtocolError,
    RandomStream,
    RemoteUnavailable,
    SchemaViolation,
    SteeringError,
    StepBudgetExceeded,
    TableModel,
    Timeout,
    TokenModel,
    UniformModel,
    Vocabulary,
    as_model_set,
    brute_force_target,
    derive_key,
    execute_step,
    parse_plan,
    run_inference,
)
from steersmc import engine
from steersmc import models as models_module
from steersmc import steering
from steersmc.plans import forced_tokens
from steersmc.rng import (_GOLDEN, _MASK64, _mix, derive_keys, draw_indices, mix64, step_keys,
                          uniforms_at)
from steersmc.steering import (ACTIVE, DONE, FAILED, REJECTED, hint_bindings_for, render_hint,
                               run_check)

from stepping import Particle, execute_particles, particles_of, population_of

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# The slot-by-slot reference: the per-particle clause walk.


def reference_choice(rng: RandomStream, probs) -> int:
    target = rng.uniform() * float(probs.sum())
    i = int(probs.cumsum().searchsorted(target, "right"))
    if i < probs.size:
        return i
    positive = (probs > 0.0).nonzero()[0]
    if positive.size == 0:
        raise ValueError("choice over all-zero weights")
    return int(positive[-1])


class _StepState:
    def __init__(self, deadline):
        self.appended = []
        self.log_update = 0.0
        self.finished = False
        self.deadline = deadline

    def check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise Timeout("wall-clock budget exhausted mid-step")


def _stop_satisfied(stop, particle, vocab) -> bool:
    if stop.kind == "token_count":
        return len(particle.tokens) >= stop.value
    if stop.kind == "substring":
        return stop.value in particle.text
    return bool(particle.tokens) and particle.tokens[-1] == vocab.eos_id


def _masked_support(probs, ids):
    if ids.size == 0:
        raise MaskEmpty("mask allows no tokens")
    sub = probs[ids]
    z = float(sub.sum())
    if z <= 0.0:
        raise MaskEmpty("mask removed all probability mass (Z=0)")
    return ids, sub, z


def _draw(particle, models, mask, rng, plan, score_with_prior):
    probs = models.proposal.next_distribution(ModelQuery(
        tuple(particle.tokens), plan.proposal_tag, tuple(particle.hint_buffer)))
    if mask is None:
        token, z = reference_choice(rng, probs), 1.0
    else:
        ids, sub, z = _masked_support(probs, mask)
        token = int(ids[reference_choice(rng, sub)])
    if not score_with_prior:
        return token, math.log(z)
    prior_probs = models.prior.next_distribution(
        ModelQuery(tuple(particle.tokens), plan.prior_tag, ()))
    p = float(prior_probs[token])
    log_q = math.log(probs[token]) - math.log(z)
    return token, (math.log(p) - log_q) if p > 0.0 else NEG_INF


def _append(particle, token, vocab):
    particle.tokens.append(token)
    particle.text += vocab.token_text[token]


def _take_token(clause, plan, particle, models, rng, state):
    vocab = models.vocabulary
    mask = clause.mask.build(vocab, len(particle.text)) if clause.mask is not None else None
    token, delta = _draw(particle, models, mask, rng, plan, clause.score_with_prior)
    particle.log_weight += delta
    state.log_update += delta
    _append(particle, token, vocab)
    state.appended.append(token)
    if token == vocab.eos_id:
        state.finished = True
        particle.status = DONE
    return token


def _budget_guard(plan, particle):
    if len(particle.tokens) >= plan.max_tokens:
        raise StepBudgetExceeded(
            f"clause needs more than max_tokens={plan.max_tokens} tokens")


def _exec_clause(clause, plan, particle, models, rng, state):
    if state.finished:
        return
    state.check_deadline()
    vocab = models.vocabulary
    if clause.kind == "draw":
        _budget_guard(plan, particle)
        _take_token(clause, plan, particle, models, rng, state)
    elif clause.kind == "force_string":
        forced = forced_tokens(clause, vocab)
        if not forced:
            return
        if len(particle.tokens) + len(forced) > plan.max_tokens:
            raise StepBudgetExceeded(
                f"force_string of {len(forced)} tokens exceeds "
                f"max_tokens={plan.max_tokens}")
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
    elif clause.kind == "hint":
        particle.hint_buffer.append(render_hint(
            clause.template, hint_bindings_for(plan, particle.text, len(particle.tokens))))
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
                if _stop_satisfied(clause.stop, particle, vocab):
                    return
                if clause.max_iterations is not None and done_iters >= clause.max_iterations:
                    raise StepBudgetExceeded(
                        f"loop ran {done_iters} iterations without satisfying "
                        "its stop predicate")
                for sub in clause.body:
                    _exec_clause(sub, plan, particle, models, rng, state)
                    if state.finished:
                        return
                done_iters += 1


def reference_step_one(plan, index, particle, models, rng):
    models = as_model_set(models)
    state = _StepState(None)
    try:
        _exec_clause(plan.steps[index], plan, particle, models, rng, state)
    except SteeringError as exc:
        exc.clause_index = index
        raise
    if index + 1 >= len(plan.steps) and not state.finished:
        particle.status = DONE


def reference_step(plan, index, particles, models, streams):
    """Slot-order loop over clause ``index``: a dead end (budget or empty
    mask) fails its particle. Returns the other errors, one for each slot
    whose walk raises one."""
    errors = []
    for particle, stream in zip(particles, streams):
        if particle.status != ACTIVE:
            continue
        try:
            reference_step_one(plan, index, particle, models, stream)
        except (StepBudgetExceeded, MaskEmpty) as exc:
            particle.status, particle.error, particle.log_weight = FAILED, exc, NEG_INF
        except SteeringError as exc:
            errors.append(exc)
    return errors


# ---------------------------------------------------------------------------
# Random plans, and table and n-gram models, over at most five tokens.

TEXTS = ("a", "b", "ab", " ", "|")


@st.composite
def vocabularies(draw):
    texts = draw(st.lists(st.sampled_from(TEXTS), min_size=2, max_size=4, unique=True))
    delimiter = "|" if "|" in texts else None
    return Vocabulary.from_tokens(texts + ["<eos>"], hint_delimiter=delimiter)


@st.composite
def rows(draw, size):
    weights = draw(st.lists(st.one_of(st.just(0), st.integers(1, 10 ** 6)),
                            min_size=size, max_size=size))
    if not any(weights):
        weights[draw(st.integers(0, size - 1))] = 1
    row = np.array(weights, dtype=np.float64) / sum(weights)
    row.setflags(write=False)
    return row


class _Recording:
    """Mixed into a model class: records every ``next_table`` call, as
    the query each slot stands for, with the table and slot rows it
    returned, and every query that ``next_distributions`` answers, in
    order, and each batch it is sent."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen, self.batches, self.tables = [], [], []

    def next_table(self, windows, widths, hint_ids, hint_sets, tag, deadline=None):
        table, slot_rows = super().next_table(windows, widths, hint_ids, hint_sets, tag,
                                              deadline)
        queries = [ModelQuery(tuple((w[:k][::-1] - 1).tolist()), tag, hint_sets[h])
                   for w, k, h in zip(windows, widths.tolist(), hint_ids.tolist())]
        self.tables.append((queries, table, slot_rows))
        return table, slot_rows

    def next_distributions(self, queries, deadline=None):
        self.seen += queries
        self.batches.append(list(queries))
        return super().next_distributions(queries, deadline)

    def windows(self) -> list[list[ModelQuery]]:
        """The distinct queries of each ``next_table`` call, in order of
        first slot."""
        return [list(dict.fromkeys(queries)) for queries, _, _ in self.tables]

    def check_tables(self) -> None:
        """Every ``next_table`` call gave each slot a table row equal, bit
        for bit, to the row the model answers for its query alone, and
        held one table row per distinct row object: no row repeated."""
        for queries, table, slot_rows in self.tables:
            index = {}
            for query, r in zip(queries, slot_rows.tolist()):
                row = self._distribution(self._conditioning_context(query), query.prompt_tag)
                assert index.setdefault(id(row), r) == r
                assert table[r].tobytes() == row.tobytes()
            assert sorted(index.values()) == list(range(len(table)))


class _RecordingTable(_Recording, TableModel):
    pass


class _RecordingNgram(_Recording, NgramModel):
    pass


def _ngram(vocab, order, rng, eos=True):
    """A recording n-gram over ``vocab`` with a random count row for
    every window shorter than ``order``; no EOS mass unless ``eos``.
    Its trie numbers the windows level by level, each level in order of
    link, as ``NgramModel`` lays it out."""
    counts, node, keys = {}, {(): 0}, []
    for width in range(order):
        for window in itertools.product(range(vocab.size), repeat=width):
            row = rng.integers(1, 9, vocab.size).astype(np.float64)
            row[vocab.eos_id] *= eos
            counts[window] = row
        for link, window in sorted((node[w[1:]] * (vocab.size + 1) + w[0] + 1, w)
                                   for w in counts if len(w) == width and w):
            node[window] = len(node)
            keys.append(link)
    return _RecordingNgram(vocab, order, 0.0, np.array([counts[w] for w in node]),
                           np.array(keys, dtype=np.int64))


@st.composite
def table_models(draw, vocab):
    ids = st.integers(0, vocab.size - 1)
    contexts = draw(st.lists(st.lists(ids, max_size=3).map(tuple), max_size=6))
    table = {(draw(st.sampled_from([None, "proposal", "prior"])), ctx):
             draw(rows(vocab.size)) for ctx in contexts}
    return TableModel(vocab, table, draw(rows(vocab.size)))


@st.composite
def token_models(draw, vocab):
    """A table model (reach None) or, as often, an n-gram of order 1-3,
    whose window is shorter than the context and cut by hints behind a
    delimiter."""
    if draw(st.booleans()):
        return draw(table_models(vocab))
    return _ngram(vocab, draw(st.integers(1, 3)),
                  np.random.default_rng(draw(st.integers(0, 2 ** 32))))


def stops(vocab, draw):
    texts = [t for t in vocab.token_text if t]
    pairs = [a + b for a in texts for b in texts]  # may straddle a token boundary
    return draw(st.one_of(
        st.builds(lambda v: {"kind": "token_count", "value": v}, st.integers(0, 3)),
        st.builds(lambda v: {"kind": "substring", "value": v},
                  st.sampled_from(texts + pairs + ["zz"])),
        st.just({"kind": "eos"})))


def masks(vocab, draw):
    texts = [t for t in vocab.token_text if t]
    return draw(st.one_of(
        st.none(),
        st.builds(lambda n: {"kind": "max_remaining_chars", "target_chars": n},
                  st.integers(0, 5)),
        st.builds(lambda w: {"kind": "allowed_words", "words": w},
                  st.lists(st.sampled_from(texts + ["c"]), min_size=1, max_size=2)),
        st.builds(lambda c, n: {"kind": "char_class", "classes": c, "negate": n},
                  st.lists(st.sampled_from(["letter", "whitespace", "punctuation"]),
                           max_size=2), st.booleans()),
        st.builds(lambda t, i: {"kind": "explicit", "tokens": t, "ids": i},
                  st.lists(st.sampled_from(texts), max_size=2),
                  st.lists(st.integers(0, vocab.size), min_size=1, max_size=2))))


def clauses(vocab, draw, depth):
    kinds = ["sample_until", "masked_sample", "force_string", "hint"]
    kind = draw(st.sampled_from(kinds + (["loop"] if depth < 2 else [])))
    if kind == "sample_until":
        doc = {"kind": kind, "stop": stops(vocab, draw),
               "score_with_prior": draw(st.booleans())}
        mask = masks(vocab, draw)
        if mask is not None:
            doc["mask"] = mask
        if draw(st.booleans()):
            doc["max_new_tokens"] = draw(st.integers(1, 3))
        return doc
    if kind == "masked_sample":
        mask = masks(vocab, draw) or {"kind": "max_remaining_chars", "target_chars": 3}
        return {"kind": kind, "mask": mask, "count": draw(st.integers(1, 2)),
                "score_with_prior": draw(st.booleans())}
    if kind == "force_string":
        if draw(st.booleans()):
            return {"kind": kind, "text": "".join(draw(st.lists(
                st.sampled_from([t for t in vocab.token_text if t]), max_size=2)))}
        return {"kind": kind, "tokens": draw(st.lists(st.integers(0, vocab.size),
                                                      max_size=2))}
    if kind == "hint":
        return {"kind": kind, "template": draw(st.sampled_from(
            ["{tokens_so_far}", "b{chars_so_far}", "a", "{words_so_far:x>2}"]))}
    body = [clauses(vocab, draw, depth + 1) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        return {"kind": "loop", "body": body, "iterations": draw(st.integers(1, 3))}
    return {"kind": "loop", "body": body, "until": stops(vocab, draw),
            "max_iterations": draw(st.integers(1, 4))}


@st.composite
def cases(draw):
    vocab = draw(vocabularies())
    doc = {"plan_version": 1, "max_tokens": draw(st.integers(1, 6)),
           "steps": [clauses(vocab, draw, 0) for _ in range(draw(st.integers(1, 3)))]}
    models = (draw(token_models(vocab)), draw(token_models(vocab)))
    return doc, models, draw(st.sampled_from([1, 3, 6])), draw(st.integers(0, 2 ** 32))


def never_finishes(steps) -> bool:
    """Whether some ``sample_until`` has a ``max_new_tokens`` below its
    token-count stop."""
    for doc in steps:
        stop = doc.get("stop", {})
        if (doc["kind"] == "loop" and never_finishes(doc["body"])
                or doc["kind"] == "sample_until" and stop["kind"] == "token_count"
                and doc.get("max_new_tokens", stop["value"]) < stop["value"]):
            return True
    return False


def forces_or_scores(steps) -> bool:
    """Whether some clause forces tokens or is scored with the prior."""
    return any(doc["kind"] == "force_string" or doc.get("score_with_prior")
               or doc["kind"] == "loop" and forces_or_scores(doc["body"]) for doc in steps)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=cases())
def test_random_plans_agree_with_the_oracle_on_support(case):
    """Every method, at N = 8 and N = 64, against ``brute_force_target``
    on the same plan: a typed error the oracle raises ends every run in
    an error of that type; a target of no mass (Z = 0) ends every run
    in an error that selects nothing; otherwise every candidate of
    positive weight, and the selected answer, has target mass.
    ``rejection`` reads no weights, so a forced token of probability 0
    or a prior-scored draw the prior gives 0 does not remove its
    particle there; it runs only plans with neither."""
    doc, models, _, seed = case
    if never_finishes(doc["steps"]):
        return
    plan = parse_plan(doc)
    try:
        target, want = brute_force_target(plan, models, plan.max_tokens), None
    except SteeringError as exc:
        target, want = None, type(exc)
    methods = ("smc", "importance") + (() if forces_or_scores(doc["steps"]) else ("rejection",))
    for method, n in itertools.product(methods, (8, 64)):
        outcome = run_inference(plan, models, InferenceConfig(method=method, n_particles=n,
                                                              seed=seed))
        if want is not None:
            assert type(outcome.error) is want
        elif target.z == 0.0:
            assert outcome.error is not None and outcome.selected is None
        else:
            assert all(c.tokens in target.probs for c in outcome.candidates
                       if c.normalized_weight > 0.0)
            assert outcome.selected is None or outcome.selected in target.probs


def checks(draw) -> list[dict]:
    """A plan check: none, one or two ``char_count_exact`` specs, one
    mixed with a word kind, or a word kind alone."""
    lengths = st.builds(lambda v: {"kind": "char_count_exact", "value": v}, st.integers(0, 8))
    word_kinds = st.one_of(
        st.builds(lambda v: {"kind": "word_count_exact", "value": v}, st.integers(0, 3)),
        st.builds(lambda w: {"kind": "forbidden_words", "words": w},
                  st.lists(st.sampled_from(["a", "b", "ab"]), min_size=1, max_size=2)))
    return draw(st.one_of(
        st.just([]),
        st.lists(lengths, min_size=1, max_size=2),
        st.tuples(lengths, word_kinds).flatmap(st.permutations),
        st.lists(word_kinds, min_size=1, max_size=1)))


@st.composite
def checked_cases(draw):
    """``cases()`` with a drawn plan check."""
    doc, models, n, seed = draw(cases())
    return {**doc, "check": checks(draw)}, models, n, seed


def _forced_case(check):
    """Every particle's text is "a", under this check."""
    vocab = Vocabulary.from_tokens(["a", "b", "<eos>"])
    doc = {"plan_version": 1, "max_tokens": 1, "check": check,
           "steps": [{"kind": "force_string", "text": "a"}]}
    return doc, (UniformModel(vocab), UniformModel(vocab)), 1, 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=checked_cases())
@example(case=_forced_case([{"kind": "char_count_exact", "value": 3}]))  # too short
@example(case=_forced_case([{"kind": "char_count_exact", "value": 1},
                            {"kind": "forbidden_words", "words": ["b"]}]))  # passes both
def test_the_step_check_agrees_with_run_check(case):
    """Every method, at N = 8 and N = 64, on random plans with a drawn
    check: a candidate passes the check exactly when its slot is
    ``DONE``, and a finished one (``DONE`` or ``REJECTED``) exactly when
    ``run_check`` passes its text, whether the step decided on text
    lengths alone or on the decoded texts."""
    doc, models, _, seed = case
    if never_finishes(doc["steps"]):
        return
    plan, candidates = parse_plan(doc), engine._candidates

    def checked(pop, *columns):
        out = candidates(pop, *columns)
        for c, status in zip(out, pop.status.tolist(), strict=True):
            assert c.passed_check == (status == DONE)
            if status in (DONE, REJECTED):
                assert c.passed_check == run_check(plan, c.text)
        return out

    for method, n in itertools.product(("smc", "importance", "rejection"), (8, 64)):
        with mock.patch.object(engine, "_candidates", checked):
            run_inference(plan, models, InferenceConfig(method=method, n_particles=n, seed=seed))


def _mask_mass_case():
    """A masked draw whose ``log Z`` has different bits under ``np.log``
    than under ``math.log`` (numpy 2.4 on x86-64)."""
    vocab = Vocabulary.from_tokens(["a", "b", "<eos>"])
    z = float.fromhex("0x1.23d6f3e37b4f2p-1")
    row = np.array([z, 1.0 - z, 0.0])
    row.setflags(write=False)
    model = TableModel(vocab, {}, row)
    doc = {"plan_version": 1, "max_tokens": 2, "steps": [
        {"kind": "masked_sample", "mask": {"kind": "explicit", "ids": [0]}}]}
    return doc, (model, model), 2, 0


def _remaining_chars_case():
    """Particles of different text lengths share a row but not a
    ``max_remaining_chars`` mask."""
    vocab = Vocabulary.from_tokens(["a", "ab", "<eos>"])
    row = np.full(3, 1.0 / 3.0)
    row.setflags(write=False)
    model = TableModel(vocab, {}, row)
    doc = {"plan_version": 1, "max_tokens": 3, "steps": [
        {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}},
        {"kind": "masked_sample", "count": 2,
         "mask": {"kind": "max_remaining_chars", "target_chars": 2}}]}
    return doc, (model, model), 6, 1  # slot 0 draws "ab", slot 2 "a"


def _error(exc) -> tuple:
    return type(exc), getattr(exc, "message", None), getattr(exc, "clause_index", None)


def _state(particle: Particle) -> tuple:
    return (particle.tokens, particle.text, particle.log_weight.hex(), particle.status,
            *_error(particle.error), particle.hint_buffer)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=cases())
@example(case=_mask_mass_case())
@example(case=_remaining_chars_case())
def test_population_step_matches_the_walk(case):
    doc, models, n, seed = case
    if never_finishes(doc["steps"]):
        with pytest.raises(SchemaViolation, match="max_new_tokens"):
            parse_plan(doc)
        return
    assert_steps_match_the_walk(parse_plan(doc), models, n, seed)


def assert_steps_match_the_walk(plan, models, n, seed, after_step=None, weighted=True):
    """Step n particles through every clause of the plan, and the walk
    through the same, slot s drawing from the stream (seed, "slot", s,
    step): the particles must agree bit for bit after every step, every
    slot's draw counter must end the step where its walk's stream does,
    and an error must end both. ``after_step(step)`` runs after each of
    our steps. With ``weighted`` False our steps compute no score, so a
    weight is -inf after a death and 0.0 otherwise, and only the rest of
    each particle is compared. After each of our steps, raised or not,
    no active slot ends in EOS: a slot leaves on the EOS it draws or
    forces, which is why an ``eos`` loop stop needs no test of its own."""
    ours = [Particle() for _ in range(n)]
    theirs = [Particle() for _ in range(n)]
    passes = []

    class Recorded(steering._Pass):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            passes.append(self)

    for step in range(len(plan.steps)):
        theirs_streams = [RandomStream(seed, "slot", s, step) for s in range(n)]
        want = reference_step(plan, step, theirs, models, theirs_streams)
        try:
            with mock.patch.object(steering, "_Pass", Recorded):
                execute_particles(plan, step, ours, models,
                                  [derive_key(seed, "slot", s, step) for s in range(n)],
                                  weighted=weighted)
            got = None
        except SteeringError as exc:
            got = exc
        pop = passes[-1].pop
        live = np.flatnonzero((pop.status == ACTIVE) & (pop.lengths > 0))
        assert not (pop.tokens[live, pop.lengths[live] - 1] == pop.vocabulary.eos_id).any()
        if after_step is not None:
            after_step(step)
        if want or got is not None:
            # the first error ends our step, wherever its slot is
            assert got is not None and want
            assert _error(got) in [_error(exc) for exc in want]
            break
        states = [[_state(p) for p in side] for side in (ours, theirs)]
        if not weighted:
            assert [p.log_weight for p in ours] == [
                NEG_INF if p.status == FAILED else 0.0 for p in ours]
            states = [[s[:2] + s[3:] for s in side] for side in states]
        assert states[0] == states[1]
        assert passes.pop().counters.tolist() == [s.counter for s in theirs_streams]
        if all(p.status != ACTIVE for p in theirs):
            break
    return ours


keys = st.integers(0, _MASK64)
counters = st.one_of(st.integers(0, 2 ** 20), st.integers(_MASK64 - 2 ** 10, _MASK64),
                     st.integers(0, _MASK64))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(keys, counters), min_size=1, max_size=20))
@example(pairs=[(0, _MASK64), (_MASK64, _MASK64 - 1), (_GOLDEN, 0)])
def test_vectorized_splitmix_equals_the_stream(pairs):
    got = uniforms_at(np.array([k for k, _ in pairs], dtype=np.uint64),
                      np.array([c for _, c in pairs], dtype=np.uint64))
    for (key, counter), u in zip(pairs, got.tolist()):
        stream = RandomStream(0)
        stream.key, stream.counter = key, counter
        assert u == stream.uniform()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(words=st.lists(st.one_of(keys, st.integers(_MASK64 - 2 ** 10, _MASK64)),
                      min_size=1, max_size=20),
       t=st.one_of(st.integers(1, 64), st.integers(1, 2 ** 20)))
@example(words=[0, 1, _MASK64, _MASK64 - _GOLDEN + 1], t=2 ** 20)
def test_vectorized_key_derivation_equals_mix(words, t):
    """``mix64`` is ``_mix`` element by element, and the engine's step-t
    keys ``step_keys(slot_keys, t)`` are ``_mix(slot_key + t * GOLDEN)``,
    the sum wrapping at 2**64."""
    z = np.array(words, dtype=np.uint64)
    assert mix64(z).tolist() == [_mix(w) for w in words]
    got = step_keys(z, t)
    assert got.tolist() == [_mix(w + t * _GOLDEN) for w in words]


@pytest.mark.parametrize("kind", ["table", "ngram"])
def test_no_call_repeats_a_query(kind):
    """Slots are grouped by their exact window and hint set, so no
    ``next_table`` call's table holds a row twice, and no
    ``next_distributions`` call a query twice, even after a resample
    copies slots with equal contexts. The order-3 n-gram reads a window
    of its context: two ids unhinted, one behind a one-id hint; it walks
    its trie and sends no ``next_distributions`` call."""
    vocab = Vocabulary.from_tokens(["a", "bb", "|", "<eos>"], hint_delimiter="|")
    rng = np.random.default_rng(3)
    rows = {}
    for ctx in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]:
        for tag in ("proposal", "prior"):
            row = rng.dirichlet(np.ones(4))
            row.setflags(write=False)
            rows[(tag, ctx)] = row
    uniform = np.full(4, 0.25)
    uniform.setflags(write=False)
    plan = parse_plan({"plan_version": 1, "max_tokens": 8, "steps": [
        {"kind": "masked_sample", "count": 2, "score_with_prior": True,
         "mask": {"kind": "explicit", "tokens": ["a", "bb"]}},
        {"kind": "hint", "template": "{chars_so_far}"},
        {"kind": "masked_sample", "count": 2,
         "mask": {"kind": "explicit", "tokens": ["a", "bb"], "ids": [3]}},
        {"kind": "force_string", "text": "a"}]})
    if kind == "table":
        proposal, prior = (_RecordingTable(vocab, rows, uniform),
                           _RecordingTable(vocab, rows, uniform))
    else:
        proposal, prior = _ngram(vocab, 3, np.random.default_rng(5)), _ngram(
            vocab, 3, np.random.default_rng(6))
        assert proposal.context_reach(()) == 2
    out = run_inference(plan, (proposal, prior), InferenceConfig(
        method="smc", n_particles=48, seed=11, ess_threshold=48))
    assert out.diagnostics.resample_events  # a resample copies slots with equal contexts
    # five token ticks, and more distinct proposal queries than ticks
    assert len({q for call in proposal.windows() for q in call}) > 5
    for model in (proposal, prior):
        assert model.tables
        model.check_tables()
        assert [len(batch) for batch in model.batches] == (
            [len(call) for call in model.windows()] if kind == "table" else [])
    for batch in proposal.batches + prior.batches:
        assert len(set(batch)) == len(batch)


def test_one_call_per_model_per_token_tick():
    """Every slot of a token tick goes to the model in at most one
    ``next_table`` call, however many distinct windows there are: the
    proposal once per tick (three drawn, two masked, one forced) and the
    prior once per prior-scored tick. Only the first tick, at length 0,
    reads no context, and it is the first to ask for its hint set, so
    it too makes one call. The order-3 n-gram reads two ids, so the
    fourth tick sends 25 distinct windows, each row once."""
    vocab = Vocabulary.from_tokens(["a", "b", "c", "d", "e", "<eos>"])
    proposal, prior = (_ngram(vocab, 3, np.random.default_rng(seed), eos=False)
                       for seed in (8, 9))
    plan = parse_plan({"plan_version": 1, "max_tokens": 8, "steps": [
        {"kind": "sample_until", "stop": {"kind": "token_count", "value": 3}},
        {"kind": "masked_sample", "count": 2, "score_with_prior": True,
         "mask": {"kind": "explicit", "tokens": ["a", "b", "c"]}},
        {"kind": "force_string", "text": "a"}]})
    out = run_inference(plan, (proposal, prior), InferenceConfig(
        method="importance", n_particles=256, seed=1))
    assert out.error is None
    assert (len(proposal.tables), len(prior.tables)) == (6, 2)
    assert max(len(call) for call in proposal.windows() + prior.windows()) == 25
    proposal.check_tables()
    prior.check_tables()


def test_a_window_ends_where_its_context_starts():
    """A slot whose whole context is a suffix of another's reads a
    different row: the context (1,) is not the context (0, 1)."""
    vocab = Vocabulary.from_tokens(["a", "b", "<eos>"])
    rows = {(None, (1,)): np.array([1.0, 0.0, 0.0]), (None, (0, 1)): np.array([0.0, 1.0, 0.0])}
    table = _RecordingTable(vocab, rows, np.full(3, 1.0 / 3.0))
    plan = parse_plan({"plan_version": 1, "max_tokens": 4, "steps": [
        {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}}]})
    pop = population_of([Particle(tokens=[1]), Particle(tokens=[0, 1])], vocab)
    execute_step(plan, 0, pop, table, derive_keys(0, "slot", 2))
    assert table.batches[0] == [ModelQuery((1,), "proposal"), ModelQuery((0, 1), "proposal")]
    assert [p.tokens for p in particles_of(pop)] == [[1, 0], [0, 1, 1]]


# ---------------------------------------------------------------------------
# The grouping of a token tick: ``_Pass.rows`` against a dict of windows.


class _Windows(TokenModel):
    """A model over ``size`` tokens whose reach is looked up by hint
    tuple. It answers each query with a one-hot int8 row, a view of one
    shared row (so that a vocabulary of 2**20 tokens stays small), one
    row object per distinct query, or per hint tuple and newest context
    id when ``coarse``, as an n-gram's backoff shares rows."""

    def __init__(self, size, reaches, coarse):
        super().__init__(SimpleNamespace(size=size))  # ``rows`` reads only the size
        self.reaches, self.coarse, self.answers, self.batches = reaches, coarse, {}, []
        self.one_hot = np.zeros(size, dtype=np.int8)
        self.one_hot[0] = 1

    def context_reach(self, hints):
        return self.reaches[hints]

    def next_distributions(self, queries, deadline=None):
        self.batches.append(list(queries))
        return [self.row(q) for q in queries]

    def row(self, query):
        key = (query.hints, query.context[-1:]) if self.coarse else query
        if key not in self.answers:
            self.answers[key] = self.one_hot[:]
        return self.answers[key]


@st.composite
def ticks(draw):
    """A vocabulary of 2 to 2**20 tokens, up to 6 hint sets (more than
    V + 1 for small V), a reach of None, 0, a few ids or more than a
    word holds per hint set, and up to 12 slots whose contexts (0-13
    ids, from a few ids near 0 and V - 1) repeat and share suffixes."""
    size = draw(st.one_of(st.integers(2, 9), st.integers(10, 2 ** 20)))
    alphabet = draw(st.lists(st.one_of(st.integers(0, min(2, size - 1)),
                                       st.integers(max(0, size - 3), size - 1),
                                       st.integers(0, size - 1)),
                             min_size=1, max_size=3, unique=True))
    bases = draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=13),
                          min_size=1, max_size=4))
    contexts = draw(st.lists(st.sampled_from(bases), min_size=1, max_size=12))
    n_sets = draw(st.integers(1, 6))
    reaches = draw(st.lists(st.one_of(st.none(), st.integers(0, 3), st.integers(4, 14)),
                            min_size=n_sets, max_size=n_sets))
    hints = draw(st.lists(st.integers(0, n_sets - 1), min_size=len(contexts),
                          max_size=len(contexts)))
    slots = draw(st.lists(st.booleans(), min_size=len(contexts), max_size=len(contexts)))
    return (size, [tuple(c) for c in contexts], reaches, hints,
            [s for s, keep in enumerate(slots) if keep] or [0], draw(st.booleans()),
            draw(st.booleans()))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tick=ticks())
@example(tick=(3, [(0,), ()], [2], [0, 0], [0, 1], True, False))  # token 0 is not padding
@example(tick=(2 ** 20, [(5, 1, 1, 1), (6, 1, 1, 1), (5, 1, 1, 1)], [None], [0, 0, 0],
               [0, 1, 2], False, False))  # windows that differ only in their oldest id
@example(tick=(5, [(0, 1), (2,), (0, 1), ()], [0, 0, 0], [0, 1, 2, 1], [0, 1, 2, 3],
               True, False))  # zero-width windows, one query per hint set
def test_rows_group_slots_by_hint_set_and_window(tick):
    """``_Pass.rows`` sends one query per distinct (hint set, window) in
    order of first slot, and gives each slot the table row of its own
    query's row object, checked against a dict keyed on (hint id,
    window tuple). Dropping the ``+ 1`` on window ids makes token 0 read
    as padding, and a key without the hint-set id merges the hint sets'
    zero-width windows: both fail this test."""
    size, contexts, reaches, hint_of, slots, hinted, coarse = tick
    hint_sets = [()] + [(f"h{i}",) for i in range(1, len(reaches))]
    model = _Windows(size, dict(zip(hint_sets, reaches)), coarse)
    pop = Population(len(contexts), model.vocabulary, max(map(len, contexts)) + 2)
    for s, ctx in enumerate(contexts):
        pop.tokens[s, :len(ctx)], pop.lengths[s] = ctx, len(ctx)
    pop.hint_ids[:] = hint_of
    pop.hint_sets, pop.hint_index = hint_sets, {h: i for i, h in enumerate(hint_sets)}
    step = steering._Pass(None, 0, as_model_set(model), pop, np.zeros(len(pop)), None)
    hints = pop.hint_ids[slots] if hinted else np.zeros(len(slots), dtype=np.intp)
    table, slot_rows, _ = step.rows(model, "proposal", np.array(slots), hints,
                                    step.reach(model, hints))

    queries, query_of = {}, []
    for s in slots:
        h = hint_of[s] if hinted else 0
        reach, ctx = reaches[h], contexts[s]
        window = ctx if reach is None else ctx[len(ctx) - min(reach, len(ctx)):]
        query = queries.setdefault((h, window), ModelQuery(window, "proposal", hint_sets[h]))
        query_of.append(query)
    assert model.batches == [list(queries.values())]
    index = {}  # a table row per distinct row object, in order of first query
    for query in queries.values():
        index.setdefault(id(model.row(query)), len(index))
    assert len(table) == len(index)
    assert slot_rows.tolist() == [index[id(model.row(query))] for query in query_of]


class _WholeNgram(_Recording, NgramModel):
    """A recording n-gram that reports reading the whole context and is
    sent it through the default grouping of ``TokenModel.next_table``,
    one ``next_distributions`` query per distinct context."""

    def context_reach(self, hints):
        return None

    def next_table(self, *args):
        return TokenModel.next_table(self, *args)


def _char_corpus() -> str:
    """A text over 87 distinct characters (V = 88 with EOS), mostly
    lower-case letters and spaces."""
    chars = string.ascii_letters + string.digits + string.punctuation[:24] + " "
    r = random.Random(0)
    common = string.ascii_lowercase[:12] + " " * 3
    return chars + "".join(r.choice(common) if r.random() < 0.9 else r.choice(chars)
                           for _ in range(6000))


@pytest.mark.parametrize("method", ["smc", "importance"])
def test_context_reach_changes_queries_not_outcomes(method):
    """A char 3-gram (V = 88) reports a reach of two ids and walks its
    trie with no sort; the same model reporting None is sent every
    slot's whole context, 40 ids and more, through the default grouping.
    Both runs give the same candidates (tokens and raw weights) and the
    same selection, with SMC resampling after every step."""
    corpus = _char_corpus()
    trained = {}
    for cls in (_RecordingNgram, _WholeNgram):
        with mock.patch.object(models_module, "NgramModel", cls):
            trained[cls] = models_module.train_ngram(corpus, order=3, smoothing=0.0)
    own, whole = trained[_RecordingNgram], trained[_WholeNgram]
    assert own.vocabulary.size == 88 and own.context_reach(()) == 2
    plan = parse_plan({"plan_version": 1, "max_tokens": 52, "steps": [
        {"kind": "sample_until", "stop": {"kind": "token_count", "value": 16}},
        {"kind": "masked_sample", "count": 8,
         "mask": {"kind": "char_class", "classes": ["letter"]}},
        {"kind": "sample_until", "stop": {"kind": "token_count", "value": 20}},
        {"kind": "force_string", "text": "ab"},
        {"kind": "masked_sample", "count": 3,
         "mask": {"kind": "explicit", "tokens": ["a", "b", "c", " "]}}]})
    config = InferenceConfig(method=method, n_particles=64, seed=4, ess_threshold=64.0)
    outcomes = {model: run_inference(plan, model, config) for model in (own, whole)}
    a, b = outcomes[own], outcomes[whole]
    assert a.error is None and b.error is None
    assert [(c.tokens, c.raw_log_weight) for c in a.candidates] == [
        (c.tokens, c.raw_log_weight) for c in b.candidates]
    assert a.selected == b.selected
    if method == "smc":
        assert a.diagnostics.resample_events == b.diagnostics.resample_events != []
    own_seen = [q for call in own.windows() for q in call]
    assert max(len(q.context) for q in own_seen) == 2
    assert max(len(q.context) for q in whole.seen) >= 40
    assert len(set(whole.seen)) > len(set(own_seen))
    own.check_tables()


@pytest.mark.parametrize("forced", ["xa", "xab"])
def test_substring_stops_read_the_decoded_text(forced):
    """A loop until "ab" over the tokens "xa" and "b": after "xa" the
    stop holds only once a drawn "b" completes it across the token
    boundary; after "xab" it already holds when the loop starts, so the
    loop ends at iteration 0 without a query or a draw. Both steps
    match the walk."""
    vocab = Vocabulary.from_tokens(["xa", "b", "<eos>"])
    row = np.array([0.5, 0.5, 0.0])
    row.setflags(write=False)
    model = _RecordingTable(vocab, {}, row)
    plan = parse_plan({"plan_version": 1, "max_tokens": 40, "steps": [
        {"kind": "force_string", "text": forced},
        {"kind": "sample_until", "stop": {"kind": "substring", "value": "ab"}}]})
    ours, theirs = [Particle() for _ in range(16)], [Particle() for _ in range(16)]
    for step in range(2):
        reference_step(plan, step, theirs, model,
                       [RandomStream(5, "slot", s, step) for s in range(16)])
        sent = len(model.batches)
        update = execute_particles(plan, step, ours, model,
                                   [derive_key(5, "slot", s, step) for s in range(16)])
        assert [_state(p) for p in ours] == [_state(p) for p in theirs]
    if forced == "xab":
        assert update.appended_tokens == () and len(model.batches) == sent
        assert all(p.text == "xab" for p in ours)
    else:
        assert all(p.text.endswith("xab") and p.text.count("ab") == 1 for p in ours)
        assert len({p.text for p in ours}) > 1


def test_substring_loop_over_uneven_texts_and_multi_token_passes():
    """Slots enter a loop until "aa" with texts of different lengths, and
    each pass appends two tokens (a draw, then a forced "a"): each slot's
    text gains only its own new tokens, so every stop and every text
    matches the walk."""
    vocab = Vocabulary.from_tokens(["a", "b", "<eos>"])
    row = np.array([0.5, 0.5, 0.0])
    row.setflags(write=False)
    model = _RecordingTable(vocab, {}, row)
    plan = parse_plan({"plan_version": 1, "max_tokens": 60, "steps": [
        {"kind": "sample_until", "stop": {"kind": "substring", "value": "b"}},
        {"kind": "loop", "until": {"kind": "substring", "value": "aa"}, "body": [
            {"kind": "masked_sample", "mask": {"kind": "explicit", "tokens": ["a", "b"]}},
            {"kind": "force_string", "text": "a"}]}]})
    ours, theirs = [Particle() for _ in range(16)], [Particle() for _ in range(16)]
    for step in range(2):
        reference_step(plan, step, theirs, model,
                       [RandomStream(6, "slot", s, step) for s in range(16)])
        execute_particles(plan, step, ours, model,
                          [derive_key(6, "slot", s, step) for s in range(16)])
        assert [_state(p) for p in ours] == [_state(p) for p in theirs]
        if step == 0:
            assert len({len(p.tokens) for p in ours}) > 2
    assert all("aa" in p.text for p in ours)


def test_one_query_per_window_the_model_reads():
    """An order-3 n-gram reads the last two ids of its serialized
    context. Behind one hint (the delimiter alone) that is one context
    id, and behind two hints none: from then on the 64 slots share one
    window, with an empty context, and one table row, asked once per
    draw call. A table model (reach None) still receives
    every slot's whole context."""
    vocab = Vocabulary.from_tokens(["a", "bb", "|", "<eos>"], hint_delimiter="|")
    plan = parse_plan({"plan_version": 1, "max_tokens": 12, "steps": [
        {"kind": "loop", "iterations": 3, "body": [
            {"kind": "hint", "template": ""},
            {"kind": "sample_until", "stop": {"kind": "token_count", "value": 4}}]}]})
    config = InferenceConfig(method="importance", n_particles=64, seed=2)
    ngram = _ngram(vocab, 3, np.random.default_rng(7), eos=False)
    run_inference(plan, ngram, config)
    hint = steering.HINT_PREFIX
    calls = ngram.windows()
    assert len(calls) == 6  # one call per tick that reads context, one per draw call
    # one hint: the empty context, then one query per last context id
    assert calls[0] == [ModelQuery((), "proposal", (hint,))]
    windows = [q for call in calls[1:4] for q in call]
    assert all(len(q.context) == 1 and q.hints == (hint,) for q in windows)
    assert len(windows) > 3 and all(len(call) <= 3 for call in calls[1:4])
    # two hints and more: one query per hint set, no context id sent
    assert calls[4:] == [[ModelQuery((), "proposal", (hint,) * k)] for k in (2, 3)]
    assert [len(table) for _, table, _ in ngram.tables[4:]] == [1] * 2
    ngram.check_tables()

    no_eos, rng, rows = np.array([1 / 3, 1 / 3, 1 / 3, 0.0]), np.random.default_rng(7), {}
    for width in range(3):
        for ctx in itertools.product(range(3), repeat=width):
            row = no_eos * rng.dirichlet(np.ones(4))
            rows[("proposal", ctx)] = row / row.sum()
    table = _RecordingTable(vocab, rows, no_eos)
    assert table.context_reach((hint,) * 3) is None
    out = run_inference(plan, table, config)
    finished = {c.tokens for c in out.candidates}
    assert {len(q.context) for q in table.seen} == set(range(12))
    assert {q.context for q in table.seen if len(q.context) == 11} == {
        t[:11] for t in finished}


# ---------------------------------------------------------------------------
# The batched draw: one pass over a tick's distinct rows.

TOP_UNIFORM = 1.0 - 2.0 ** -53


class _HintedRows(TokenModel):
    """Answers a query with the row its particle's one hint names, the
    same array object for every query naming it."""

    def __init__(self, vocab, rows):
        super().__init__(vocab)
        self.rows = rows

    def next_distributions(self, queries, deadline=None):
        return [self.rows[int(q.hints[0])] for q in queries]


@st.composite
def batched_draws(draw):
    """Up to 300 distinct rows over up to 100 tokens, with exact zeros,
    all-zero rows, weights across many magnitudes and uniforms at the
    top of [0, 1), drawn by up to 600 slots under one mask. Every row
    that is not all zero is divided by its sum."""
    size = draw(st.integers(2, 100))
    n_rows, n_slots = draw(st.integers(1, 300)), draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    table = rng.random((n_rows, size))
    if draw(st.booleans()):
        table = table * 10.0 ** rng.integers(-300, 150, (n_rows, size))
    table[rng.random((n_rows, size)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    table[rng.random(n_rows) < draw(st.sampled_from([0.0, 0.05]))] = 0.0
    table = _normalized(table)
    mask = draw(st.sampled_from(["none", "explicit", "max_remaining_chars"]))
    if mask == "explicit":
        mask = {"kind": "explicit",
                "ids": sorted(set(rng.integers(0, size, rng.integers(1, size + 1)).tolist()))}
    elif mask == "max_remaining_chars":
        mask = {"kind": "max_remaining_chars", "target_chars": 3}
    u = rng.random(n_slots)
    if draw(st.booleans()):
        u[rng.random(n_slots) < 0.5] = TOP_UNIFORM
    return table, rng.integers(0, n_rows, n_slots), rng.integers(0, 5, n_slots), mask, u


def _normalized(table):
    """Each row of ``table`` divided by its sum, an all-zero row kept."""
    sums = table.sum(axis=1, keepdims=True)
    return table / np.where(sums > 0.0, sums, 1.0)


def _wide_case():
    """600 slots over 300 distinct rows of 88 weights under one static
    mask: more cells than one block of the comparison holds."""
    rng = np.random.default_rng(1)
    return (_normalized(rng.random((300, 88))), np.arange(600) % 300, np.zeros(600, dtype=int),
            {"kind": "explicit", "ids": list(range(0, 88, 2))}, rng.random(600))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=batched_draws())
@example(case=_wide_case())
@example(case=(_normalized(np.array([[1e16] + [1.0] * 15 + [0.0], [0.0] * 16 + [1.0]])),
               np.array([0, 1, 0]), np.zeros(3, dtype=int),
               {"kind": "explicit", "ids": list(range(17))}, np.full(3, TOP_UNIFORM)))
def test_batched_draw_matches_one_row_at_a_time(case):
    """Each slot's pick is ``draw_indices`` over its own masked row, bit
    for bit, and its ``log Z`` is ``math.log`` of the 1-D sum of that
    row; a mask that leaves no token or no mass kills the slot, and an
    all-zero row, masked or not, is a ProtocolError. Gathering the masked
    columns in F order in ``_Pass.draw``, as ``table[rows_used][:, ids]``
    or ``table[:, ids]`` return them, fails this test."""
    table, slot_rows, text_lengths, mask, u = case
    size = table.shape[1]
    # token 0 is "x", so a slot holding ``length`` of them has that many characters
    vocab = Vocabulary.from_tokens(["x"] + [f"t{i}" for i in range(1, size - 1)] + ["<eos>"])
    rows = [row.copy() for row in table]
    step = ({"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}}
            if mask == "none" else {"kind": "masked_sample", "mask": mask})
    plan = parse_plan({"plan_version": 1, "max_tokens": 5, "steps": [step]})
    pop = population_of([Particle(tokens=[0] * length, hint_buffer=[str(r)])
                         for r, length in zip(slot_rows.tolist(), text_lengths.tolist())],
                        vocab)
    keys = np.zeros(len(pop), dtype=np.uint64)

    def block(keys, starts, width):  # the call's one tick, over every slot, reads u
        assert width == 1 and starts.tolist() == [0] * len(pop)
        return u[:, None].copy()

    with mock.patch.object(steering, "uniform_block", block):
        if not all(rows[r].any() for r in set(slot_rows.tolist())):
            with pytest.raises(ProtocolError, match="summing to 0, not 1"):
                execute_step(plan, 0, pop, _HintedRows(vocab, rows), keys)
            return
        execute_step(plan, 0, pop, _HintedRows(vocab, rows), keys)
    spec = plan.steps[0].body[0].mask
    for slot, (particle, r, length) in enumerate(zip(particles_of(pop), slot_rows.tolist(),
                                                     text_lengths.tolist())):
        ids = np.arange(size) if spec is None else spec.build(vocab, length)
        weights = rows[r][ids]
        total = weights.sum()
        if ids.size == 0 or total <= 0.0:
            assert particle.status == FAILED and isinstance(particle.error, MaskEmpty)
            continue
        pick = ids[draw_indices(weights, total, u[slot:slot + 1])[0]]
        assert particle.tokens == [0] * length + [pick]
        assert particle.log_weight == (0.0 if spec is None else math.log(total))


@pytest.mark.parametrize("mask", [{"kind": "char_class", "classes": ["letter"]},
                                  {"kind": "max_remaining_chars", "target_chars": 12}])
def test_one_mask_build_per_tick_and_text_length(monkeypatch, mask):
    """However many distinct rows a token tick draws from, a static mask
    is built once per tick and a ``max_remaining_chars`` mask once per
    distinct text length among the tick's slots."""
    vocab = Vocabulary.from_tokens(["a", "bb", "|", "<eos>"], hint_delimiter="|")
    ngram = _ngram(vocab, 3, np.random.default_rng(4), eos=False)
    plan = parse_plan({"plan_version": 1, "max_tokens": 8,
                       "steps": [{"kind": "masked_sample", "mask": mask}] * 4})
    build, built = MaskSpec.build, []
    monkeypatch.setattr(MaskSpec, "build", lambda self, vocabulary, chars: (
        built.append(chars) or build(self, vocabulary, chars)))
    pop, most_rows, most_lengths = Population(64, vocab), 0, 0
    for index in range(4):
        lengths = sorted(set(pop.text_lengths[pop.status == ACTIVE].tolist()))
        sent, built[:] = len(ngram.tables), []
        execute_step(plan, index, pop, ngram, derive_keys(index, "slot", 64))
        if mask["kind"] == "max_remaining_chars":
            assert sorted(built) == lengths
        else:
            assert len(built) == 1
        assert len(ngram.tables) == sent + 1
        most_rows = max(most_rows, len(ngram.tables[-1][1]))
        most_lengths = max(most_lengths, len(lengths))
    assert most_rows > 2 and most_lengths > 2  # ticks draw from several rows


# ---------------------------------------------------------------------------
# What a draw call works out once for its ticks (each model's reach,
# blocks of uniforms, fixed rows).


def _spy(monkeypatch, name: str) -> list[tuple]:
    """Record the arguments of every call to ``steering.<name>``."""
    calls, call = [], getattr(steering, name)

    def spy(*args):
        calls.append(args)
        return call(*args)

    monkeypatch.setattr(steering, name, spy)
    return calls


def _draw_one():
    return _count(1)


def _count(k: int, **fields) -> dict:
    return {"kind": "sample_until", "stop": {"kind": "token_count", "value": k}, **fields}


def _one_row(texts, weights, eos=0.0):
    """A table model over these token texts and EOS, every context
    reading one row; with no EOS mass no particle ends."""
    vocab = Vocabulary.from_tokens(texts + ["<eos>"])
    row = np.array(weights + [eos])
    row.setflags(write=False)
    model = TableModel(vocab, {}, row)
    return model, model


@pytest.mark.parametrize("n, max_tokens, steps, blocks", [
    # 2,048 slots: DRAW_CELLS // 2048 = 8 columns per block, so a call
    # of 20 draws refills twice, the last block cut to the 4 draws left
    (2048, 64, [_count(20)], [({0}, 8), ({8}, 8), ({16}, 4)]),
    # slots leave a substring loop at different passes, each pass a
    # call of one draw, then enter one call of 10 at their own counters
    (8, 64, [{"kind": "loop", "iterations": 1, "body": [
        {"kind": "loop", "until": {"kind": "substring", "value": "b"},
         "max_iterations": 30, "body": [_draw_one()]}, _count(10)]}], None),
    # max_tokens leaves each slot 12 of the call's 20 draws; all die at
    # the 13th tick
    (3, 12, [_count(20)], [({0}, 12)]),
], ids=["refill", "lagging", "capped"])
def test_uniform_blocks_match_the_walk(monkeypatch, n, max_tokens, steps, blocks):
    """A draw call reads each slot's uniforms from blocks computed from
    the slot's own counter, bit for bit the walk's: refilled when the
    cell cap spends a block, for slots that enter the call at different
    counters, and no wider than the draws ``max_tokens`` leaves."""
    plan = parse_plan({"plan_version": 1, "max_tokens": max_tokens, "steps": steps})
    built = _spy(monkeypatch, "uniform_block")
    assert_steps_match_the_walk(plan, _one_row(["a", "b"], [0.8, 0.2]), n, 5)
    assert all(len(keys) * width <= steering.DRAW_CELLS for keys, _, width in built)
    if blocks is not None:
        assert all(len(keys) == n for keys, _, _ in built)  # every slot stays active
        assert [(set(starts.tolist()), width) for _, starts, width in built] == blocks
    else:
        *passes, (keys, starts, width) = built
        assert all(w == 1 for _, _, w in passes) and len(passes) > 3
        assert len(keys) == n and width == 10 and len(set(starts.tolist())) > 3


def _draw_call_cases():
    """(plan document, models, particle count, weighted, the count of
    every draw call of more than one tick, and what the run must show)
    for each kind of multi-tick draw call."""
    vocab = Vocabulary.from_tokens(["a", "bb", "ccc", "<eos>"])
    order2, order3 = (_ngram(vocab, order, np.random.default_rng(20 + order))
                      for order in (2, 3))
    ending = _one_row(["a", "b"], [0.6, 0.3], eos=0.1)
    scored = [_count(6, score_with_prior=True),
              {"kind": "masked_sample", "count": 3, "score_with_prior": True,
               "mask": {"kind": "explicit", "tokens": ["a", "bb"]}}]

    def failed(kind):
        return lambda ps: any(p.status == FAILED and isinstance(p.error, kind) for p in ps)

    def done(ps):
        return any(p.status == DONE for p in ps)

    return {
        # slots leave a substring loop at different passes, so in the
        # call of 12 the longest reach max_tokens first, and some draw EOS
        "deaths": ({"max_tokens": 12, "steps": [{"kind": "loop", "iterations": 1, "body": [
            {"kind": "loop", "until": {"kind": "substring", "value": "b"},
             "max_iterations": 8, "body": [_draw_one()]}, _count(12)]}]},
            ending, 32, True, [12],
            lambda ps: done(ps) and failed(StepBudgetExceeded)(ps)
            and len({len(p.tokens) for p in ps if p.status == DONE}) > 2),
        # DRAW_CELLS // 600 = 27 columns per block: the call of 40 draws
        # refills its block over the slots that did not draw EOS
        "refill": ({"max_tokens": 48, "steps": [_count(40)]},
                   _one_row(["a", "b"], [0.6, 0.38], eos=0.02), 600, True, [40], done),
        # order-2 rows and a max_remaining_chars mask whose parts (one per
        # text length) change from tick to tick; some masks leave no mass
        "remaining chars": ({"max_tokens": 8, "steps": [
            {"kind": "masked_sample", "count": 4,
             "mask": {"kind": "max_remaining_chars", "target_chars": 6}}]},
            (order2, order2), 48, True, [4], done),
        "prior-scored": ({"max_tokens": 12, "steps": scored}, (order2, order3), 24, True,
                         [6, 3], done),
        "unweighted": ({"max_tokens": 12, "steps": scored}, (order2, order3), 24, False,
                       [6, 3], done),
        # unhinted, the order-3 n-gram's windows grow from 0 to 2 ids
        # inside the call
        "reach 2": ({"max_tokens": 8, "steps": [_count(6)]}, (order3, order3), 24, True,
                    [6], lambda ps: any(len(p.tokens) > 2 for p in ps)),
        # a sample_until that stops at EOS runs one draw per pass, and
        # its survivors die with the loop's message
        "eos bound": ({"max_tokens": 30, "steps": [
            {"kind": "sample_until", "stop": {"kind": "eos"}, "max_new_tokens": 5}]},
            ending, 32, True, [], lambda ps: done(ps) and any(
                p.status == FAILED and "5 iterations" in p.error.message for p in ps)),
        "eos max_tokens": ({"max_tokens": 6, "steps": [
            {"kind": "sample_until", "stop": {"kind": "eos"}, "max_new_tokens": 20}]},
            ending, 32, True, [], lambda ps: done(ps) and failed(StepBudgetExceeded)(ps)),
        # no bound but max_tokens: every slot ends by EOS or at max_tokens
        "eos unbounded": ({"max_tokens": 10, "steps": [
            {"kind": "sample_until", "stop": {"kind": "eos"}}]},
            ending, 32, True, [], lambda ps: done(ps) and failed(StepBudgetExceeded)(ps)),
    }


@pytest.mark.parametrize("case", list(_draw_call_cases()))
def test_draw_calls_match_the_walk(monkeypatch, case):
    """A loop of draws with a fixed count is one ``_Pass.draw`` call of
    many ticks, bit for bit the walk: slots die of the budget and draw
    EOS mid-call, blocks refill over the survivors, mask parts change
    per tick, the prior scores every tick, a run that reads no weights
    scores none, and windows grow while the call runs. Any other draw,
    such as one in a loop that stops at EOS, is a call of one tick."""
    doc, models, n, weighted, counts, shows = _draw_call_cases()[case]
    plan = parse_plan({"plan_version": 1, **doc})
    calls, draw = [], steering._Pass.draw
    monkeypatch.setattr(steering._Pass, "draw", lambda self, clause, slots, count=1: (
        calls.append(count) or draw(self, clause, slots, count)))
    built = _spy(monkeypatch, "uniform_block")
    particles = assert_steps_match_the_walk(plan, models, n, 17, weighted=weighted)
    assert [c for c in calls if c > 1] == counts and set(calls) - set(counts) <= {1}
    assert shows(particles)
    if case == "refill":  # the second block covers the survivors alone
        assert [width for _, _, width in built] == [27, 13]
        assert len(built[0][0]) == n > len(built[1][0])


@pytest.mark.parametrize("stop", [{"kind": "eos"}, {"kind": "token_count", "value": 3000}],
                         ids=["eos", "count"])
def test_token_matrix_grows_with_the_tokens_drawn(stop):
    """The token matrix widens as tokens are appended, not to what a
    loop might draw: particles that draw EOS within a few tokens leave
    it narrow, although ``max_tokens`` (and the loop's count) would
    allow thousands."""
    plan = parse_plan({"plan_version": 1, "max_tokens": 5000,
                       "steps": [{"kind": "sample_until", "stop": stop}]})
    models = _one_row(["a", "b"], [0.05, 0.05], eos=0.9)
    pop = population_of([Particle() for _ in range(16)], models[0].vocabulary)
    execute_step(plan, 0, pop, models, derive_keys(3, "slot", 16))
    assert (pop.status == DONE).all() and pop.lengths.max() < 16
    assert pop.tokens.shape[1] == 16


class _ReachByHints(TokenModel):
    """A model whose reach shrinks as hints are added: the whole context
    with none, then 2, 1 and 0 ids. A window it is sent is read whole,
    so a window longer or shorter than the reach reads another row; the
    walk's whole-context query (``next_distribution``) is cut to the
    reach first. Rows are random but fixed by (seed, hint count,
    window); EOS has no mass. Records each ``context_reach`` call and
    the hint sets present in each ``next_table`` call."""

    REACH = {0: None, 1: 2, 2: 1}

    def __init__(self, vocab, seed):
        super().__init__(vocab)
        self.seed, self.asked, self.present = seed, [], []

    def context_reach(self, hints):
        self.asked.append(hints)
        return self.REACH.get(len(hints), 0)

    def next_table(self, windows, widths, hint_ids, hint_sets, tag, deadline=None):
        self.present.append({hint_sets[h] for h in hint_ids.tolist()})
        return super().next_table(windows, widths, hint_ids, hint_sets, tag, deadline)

    def next_distribution(self, query):
        reach, context = self.REACH.get(len(query.hints), 0), query.context
        if reach is not None:
            context = context[len(context) - min(reach, len(context)):]
        return self.row(query._replace(context=context))

    def next_distributions(self, queries, deadline=None):
        return [self.row(q) for q in queries]

    def row(self, query):
        rng = np.random.default_rng([self.seed, len(query.hints), len(query.context),
                                     *query.context])
        row = rng.random(self.vocabulary.size)
        row[self.vocabulary.eos_id] = 0.0
        return row / row.sum()


def _per_call(monkeypatch, name: str, before, after) -> None:
    """Run ``before(self, clause, slots)`` on entering each
    ``steering._Pass.<name>`` call and ``after(self, clause, slots,
    start)``, with what ``before`` returned, on leaving it."""
    call = getattr(steering._Pass, name)

    def spy(self, clause, slots, *args):
        start = before(self, clause, slots)
        out = call(self, clause, slots, *args)
        after(self, clause, slots, start)
        return out

    monkeypatch.setattr(steering._Pass, name, spy)


def test_reach_is_asked_once_per_hint_set_per_call(monkeypatch):
    """Each model's ``context_reach`` is asked once per hint set its
    slots read in a call (a ``draw`` call or a ``force_string``), and
    for no other: the prior, read unhinted, for () alone, once per
    scored call however many ticks it runs. A hint inside a loop adds
    hint sets mid-step (texts of different lengths give slots different
    hints); each gets its own reach, and its windows are cut to it, so
    every slot reads the row of the walk's whole context."""
    vocab = Vocabulary.from_tokens(["a", "bb", "<eos>"])
    proposal, prior = _ReachByHints(vocab, 1), _ReachByHints(vocab, 2)
    hinted = {"kind": "hint", "template": "{chars_so_far}"}
    plan = parse_plan({"plan_version": 1, "max_tokens": 16, "steps": [
        {"kind": "loop", "iterations": 2, "body": [
            hinted, {"kind": "sample_until", "score_with_prior": True,
                     "stop": {"kind": "token_count", "value": 2}}]},
        {"kind": "loop", "iterations": 2, "body": [
            hinted, _draw_one(), {"kind": "force_string", "text": "a"}]}]})
    calls = []  # per call: its kind, and each model's asks and sent hint sets

    def before(self, clause, slots):
        for model in (proposal, prior):
            model.asked, model.present = [], []

    for name in ("draw", "force"):
        _per_call(monkeypatch, name, before, lambda self, clause, slots, start, name=name: (
            calls.append((name, [(m.asked, m.present) for m in (proposal, prior)]))))
    assert_steps_match_the_walk(plan, (proposal, prior), 6, 3)
    for _, ((asked, present), (prior_asked, prior_present)) in calls:
        assert set(collections.Counter(asked).values()) <= {1}
        assert set(asked) == set().union(*present)
        assert prior_asked == ([()] if prior_present else [])
        assert set().union(*prior_present) <= {()}
    # the scored calls of two ticks ask the prior's reach once and its
    # rows twice; the proposal reads one set after the first hint and
    # several after the second
    assert [(name, len(asked) > 1, len(prior_asked), len(prior_present))
            for name, ((asked, _), (prior_asked, prior_present)) in calls] == [
        ("draw", False, 1, 2), ("draw", True, 1, 2),
        ("draw", True, 0, 0), ("force", True, 0, 0), ("draw", True, 0, 0), ("force", True, 0, 0)]


def _digits_ngram():
    """An order-2 n-gram behind a "|" delimiter over "a", "b" and two
    digits, with no EOS mass: unhinted it reads one context id, and a
    hint fills its window (the delimiter, then any digits of the hint),
    so every slot with a hint reads no context."""
    vocab = Vocabulary.from_tokens(["a", "b", "|", "1", "2", "<eos>"], hint_delimiter="|")
    model = _ngram(vocab, 2, np.random.default_rng(12), eos=False)
    assert model.context_reach(()) == 1 and model.context_reach(("x",)) == 0
    return model


def _free_cases():
    """(plan document, models, particle count) for each kind of context-free
    tick."""
    vocab = Vocabulary.from_tokens(["a", "bb", "|", "<eos>"], hint_delimiter="|")
    uniform = UniformModel(vocab)
    order1 = _ngram(vocab, 1, np.random.default_rng(10), eos=False)
    order3 = _ngram(vocab, 3, np.random.default_rng(11), eos=False)
    counted = {"kind": "hint", "template": "{tokens_so_far}"}
    mixed = [{"kind": "hint", "template": "{chars_so_far}"},
             {"kind": "masked_sample", "count": 2, "score_with_prior": True,
              "mask": {"kind": "explicit", "tokens": ["a", "bb"]}},
             {"kind": "force_string", "text": "a"},
             {"kind": "masked_sample", "mask": {"kind": "max_remaining_chars",
                                                "target_chars": 12}}]
    digits = _digits_ngram()
    prompts = {("proposal", ()): np.array([0.6, 0.3, 0.1, 0.0]),
               ("prior", ()): np.array([0.2, 0.3, 0.5, 0.0])}
    table = TableModel(vocab, prompts, np.array([0.25, 0.25, 0.25, 0.25]))
    return {
        # reach 0 under every hint set, proposal and prior alike
        "uniform": ({"max_tokens": 24, "steps": [
            {"kind": "loop", "iterations": 2, "body": mixed}]}, (uniform, uniform), 12),
        "order-1": ({"max_tokens": 24, "steps": [
            {"kind": "loop", "iterations": 2, "body": mixed}]}, (order1, order1), 12),
        # behind two hints the order-3 n-gram reads no context; hint sets
        # are added inside the loop, and texts of different lengths give
        # slots different ones
        "hinted": ({"max_tokens": 24, "steps": [
            {"kind": "loop", "iterations": 3, "body": [
                {"kind": "hint", "template": "{chars_so_far}"},
                {"kind": "sample_until", "stop": {"kind": "token_count", "value": 6}}]}]},
            order3, 12),
        # slots leave a substring loop at different passes, then each
        # takes a hint naming its length: the draws after it read no
        # context, with slots of several hint sets in one tick
        "several sets": ({"max_tokens": 40, "steps": [
            {"kind": "loop", "iterations": 2, "body": [
                {"kind": "loop", "until": {"kind": "substring", "value": "b"},
                 "max_iterations": 12, "body": [_draw_one()]},
                counted, _draw_one(), _draw_one()]}]}, digits, 10),
        # one table model as proposal and prior, whose rows for the empty
        # context differ by tag
        "tagged": ({"max_tokens": 8, "steps": [
            {"kind": "masked_sample", "count": 2, "score_with_prior": True,
             "mask": {"kind": "explicit", "tokens": ["a", "bb", "|"]}},
            {"kind": "sample_until", "score_with_prior": True,
             "stop": {"kind": "token_count", "value": 3}}]}, (table, table), 12),
    }


@pytest.mark.parametrize("case", ["uniform", "order-1", "hinted", "several sets", "tagged"])
def test_context_free_rows_are_asked_once_per_draw_call(monkeypatch, case):
    """A tick whose slots read no context sends ``next_table`` a window
    matrix of no columns, and reads the walk's rows bit for bit. A draw
    call whose slots all have reach 0 makes one proposal ``next_table``
    call, on its first tick, however many ticks it runs; a scored call
    asks a prior of reach 0 for its rows once, and a prior that reads
    context once per tick. Where every slot reads one row (under the
    uniform, the order-1 and the table model) each draw reads a one-row
    table."""
    doc, models, n = _free_cases()[case]
    plan = parse_plan({"plan_version": 1, **doc})
    pair = as_model_set(models)
    sent = []  # per next_table call: model, tag, width, hint sets, whether every reach is 0
    for model in {id(m): m for m in (pair.proposal, pair.prior)}.values():
        def spy(windows, widths, hint_ids, hint_sets, tag, deadline=None,
                model=model, call=model.next_table):
            sets = {hint_sets[h] for h in hint_ids.tolist()}
            sent.append((model, tag, windows.shape[1], sets,
                         all(model.context_reach(h) == 0 for h in sets)))
            return call(windows, widths, hint_ids, hint_sets, tag, deadline)

        monkeypatch.setattr(model, "next_table", spy, raising=False)
    free = []  # per draw call whose slots all have reach 0: its asks and ticks
    scored = []  # per scored draw call: the widths of its prior asks, and its ticks

    def after(self, clause, slots, start):
        first, lengths = start
        ticks = int((self.pop.lengths[slots] - lengths).max())
        asks = [(width, sets) for model, tag, width, sets, _ in sent[first:]
                if model is pair.proposal and tag == plan.proposal_tag]
        if sent[first:] and sent[first][4]:  # the first tick's ask
            free.append((asks, ticks))
        if clause.score_with_prior and self.weighted:
            scored.append(([width for model, tag, width, _, _ in sent[first:]
                            if model is pair.prior and tag == plan.prior_tag], ticks))

    _per_call(monkeypatch, "draw", lambda self, clause, slots: (
        len(sent), self.pop.lengths[slots].copy()), after)
    drawn = _spy(monkeypatch, "draw_rows")
    widthless = []

    def after_step(step):
        widthless.append(sum(width == 0 for _, _, width, _, _ in sent))
        sent.clear()

    assert_steps_match_the_walk(plan, models, n, 13, after_step)
    assert all(len(asks) == 1 and asks[0][0] == 0 for asks, _ in free)
    if pair.prior.context_reach(()) == 0:  # the prior's rows are fixed for a call
        assert all(widths == [0] * min(ticks, 1) for widths, ticks in scored)
    else:
        assert all(len(widths) == ticks for widths, ticks in scored)
    assert bool(scored) == (case in ("uniform", "order-1", "tagged"))
    assert not scored or max(ticks for _, ticks in scored) >= 2
    if case in ("uniform", "order-1", "tagged"):
        assert drawn and all(len(table) == 1 for table, *_ in drawn)
    if case == "tagged":  # reach None: only the first tick, at length 0, reads no context
        assert widthless == [2, 0] and not free
    elif case == "hinted":  # at length 0, then one ask per call behind two hints
        assert widthless == [3] and [ticks for _, ticks in free] == [6, 6]
    elif case == "several sets":
        assert max(len(asks[0][1]) for asks, _ in free) >= 2
    else:  # masked_sample calls of two ticks
        assert max(ticks for _, ticks in free) == 2


# ---------------------------------------------------------------------------
# Faults injected where rows enter: every one ends the run in a typed error.

FAULTS = ["nan", "+inf", "-inf", "negative", "all zero", "unnormalized", "short row", "list",
          Timeout, RemoteUnavailable]


def _corrupt(table: np.ndarray, fault: str):
    """A valid table broken in one way: a bad entry or row, rows one
    entry short, or a list in place of the array."""
    if fault == "list":
        return table.tolist()
    if fault == "short row":
        return table[:, :-1]
    bad = np.array(table, dtype=np.float64)
    if fault == "all zero":
        bad[0] = 0.0
    elif fault == "unnormalized":
        bad[0] *= 0.5
    else:
        bad[0, 0] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "negative": -0.25}[fault]
    return bad


class _Faulty(TokenModel):
    """A model that passes the ``next_table`` answers of ``inner``
    through until call ``start`` (counted from 0), then answers every
    call with ``fault``: a corruption of the inner answer, or an error
    type raised. ``fired`` records whether it did. Its reach is the
    default None, so no draw call keeps a first tick's rows and hides a
    fault."""

    def __init__(self, inner: TokenModel, start: int, fault):
        super().__init__(inner.vocabulary)
        self.inner, self.start, self.fault = inner, start, fault
        self.calls, self.fired = 0, False

    def next_table(self, windows, widths, hint_ids, hint_sets, tag, deadline=None):
        table, slot_rows = self.inner.next_table(windows, widths, hint_ids, hint_sets, tag,
                                                 deadline)
        self.calls += 1
        if self.calls <= self.start:
            return table, slot_rows
        self.fired = True
        if isinstance(self.fault, type):
            raise self.fault("injected fault")
        return _corrupt(table, self.fault), slot_rows


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f if isinstance(f, str) else f.__name__)
@pytest.mark.parametrize("method", ["smc", "importance", "rejection"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=cases(), role=st.sampled_from(["proposal", "prior"]), data=st.data())
def test_an_injected_fault_ends_the_run_in_its_typed_error(method, case, role, fault, data):
    """``run_inference`` never raises: from a drawn call of the proposal
    or the prior on, a bad table ends the run in ProtocolError and a
    raised error in that error, with no RuntimeWarning. The call is
    drawn below the count of a run whose wrapper never fires; a run
    that asks the wrapped model nothing (a prior under rejection, or an
    unscored plan) gets no such error."""
    doc, models, n, seed = case
    assume(not never_finishes(doc["steps"]))
    plan, config = parse_plan(doc), InferenceConfig(method=method, n_particles=n, seed=seed)

    def run(start):
        faulty = _Faulty(models[role == "prior"], start, fault)
        pair = (faulty, models[1]) if role == "proposal" else (models[0], faulty)
        return faulty, run_inference(plan, pair, config)

    clean, _ = run(math.inf)
    faulty, outcome = run(data.draw(st.integers(0, max(clean.calls - 1, 0)), label="start"))
    if faulty.fired:
        assert type(outcome.error) is (ProtocolError if isinstance(fault, str) else fault)
    else:
        assert not isinstance(outcome.error, (ProtocolError, Timeout, RemoteUnavailable))
