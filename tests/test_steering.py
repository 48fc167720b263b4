from __future__ import annotations

import math
import string
from dataclasses import replace

import numpy as np
import pytest

from steersmc import (
    InferenceConfig,
    MaskEmpty,
    MaskSpec,
    ParseError,
    ProtocolError,
    RandomStream,
    Population,
    SchemaViolation,
    SteeringPlan,
    StepBudgetExceeded,
    StepClause,
    StepUpdate,
    StopSpec,
    TableModel,
    TokenModel,
    UnboundVariable,
    UniformModel,
    Vocabulary,
    brute_force_target,
    derive_key,
    execute_step,
    load_table_model,
    parse_plan,
    run_check,
    run_inference,
)
from steersmc.plans import template_reads_text
from steersmc.rng import derive_keys
from steersmc.steering import ACTIVE, DONE, FAILED, REJECTED, hint_bindings_for, render_hint

from stepping import Particle, execute_particles

NEG_INF = float("-inf")


def make_plan(steps, *, max_tokens=16, check=(), variables=None):
    doc = {
        "plan_version": 1,
        "max_tokens": max_tokens,
        "steps": list(steps),
        "check": list(check),
    }
    if variables:
        doc["vars"] = variables
    return parse_plan(doc)


@pytest.fixture
def vocab4():
    return Vocabulary.from_tokens(["a", "b", "c", "<eos>"])


@pytest.fixture
def uniform4(vocab4):
    return UniformModel(vocab4)


def explicit_mask_plan(ids=(), tokens=()):
    mask = {"kind": "explicit", "ids": list(ids), "tokens": list(tokens)}
    return make_plan([{"kind": "masked_sample", "mask": mask}])


def force_plan(tokens, *then):
    return make_plan([{"kind": "force_string", "tokens": list(tokens)}, *then])


# one unmasked draw from the proposal, scored against the prior
PRIOR_SCORED_PLAN = make_plan([{"kind": "sample_until", "score_with_prior": True,
                                "stop": {"kind": "token_count", "value": 1}}])

# a second clause keeps the particle active after the first step
SECOND_CLAUSE = {"kind": "hint", "template": "then"}


def assert_budget_failed(particle: Particle, clause_index: int) -> None:
    """A budget fault fails the particle instead of raising."""
    assert particle.status == FAILED
    assert isinstance(particle.error, StepBudgetExceeded)
    assert particle.error.clause_index == clause_index
    assert particle.log_weight == NEG_INF


class TestSampleToken:
    def test_mask_of_two_under_uniform_adds_log_half(self, uniform4):
        particle = Particle()
        execute_particles(explicit_mask_plan(ids=(0, 1)), 0, [particle], uniform4,
                          [derive_key(1, "t")])
        assert particle.log_weight == pytest.approx(math.log(0.5))
        assert particle.tokens[0] in (0, 1)

    def test_unmasked_sampling_leaves_weight_unchanged(self, uniform4):
        plan = make_plan([{"kind": "sample_until",
                           "stop": {"kind": "token_count", "value": 1}}])
        particle = Particle()
        execute_particles(plan, 0, [particle], uniform4, [derive_key(2, "t")])
        assert particle.log_weight == 0.0

    def test_masked_table_update_and_frequency(self, table_721):
        # mask {1, 2} over row [0.7, 0.2, 0.1]: Z = 0.3, P(token=1) = 2/3
        plan = explicit_mask_plan(ids=(1, 2))
        ones = 0
        n = 5000
        for i in range(n):
            particle = Particle()
            update = execute_particles(plan, 0, [particle], table_721, [derive_key(3, "freq", i)])
            (tok,) = update.appended_tokens
            assert particle.log_weight == pytest.approx(math.log(0.3))
            assert tok in (1, 2)
            ones += tok == 1
        p = 2 / 3
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(ones / n - p) <= 3 * sigma

    def test_empty_mask_raises(self, uniform4):
        # no vocabulary token has the listed text, so the mask is empty:
        # a dead end, which fails the particle instead of the step
        particle = Particle()
        execute_particles(explicit_mask_plan(tokens=("z",)), 0, [particle], uniform4,
                          [derive_key(4, "t")])
        assert particle.status == FAILED
        assert isinstance(particle.error, MaskEmpty)
        assert particle.error.clause_index == 0
        assert particle.log_weight == NEG_INF

    def test_zero_mass_mask_raises(self, table_721):
        zero_only = load_table_model({
            "vocab": ["a", "b", "<eos>"],
            "rows": [{"context": [], "dist": [1.0, 0.0, 0.0]}],
        })
        particle = Particle()
        execute_particles(explicit_mask_plan(ids=(1, 2)), 0, [particle], zero_only,
                          [derive_key(5, "t")])
        assert particle.status == FAILED
        assert isinstance(particle.error, MaskEmpty)
        assert particle.error.clause_index == 0
        assert particle.log_weight == NEG_INF

    def test_mask_correction_is_unbiased_by_enumeration(self, table_721):
        # For every allowed token: q(t) * exp(update) must equal p(t).
        probs = [0.7, 0.2, 0.1]
        mask_ids = (1, 2)
        z = sum(probs[i] for i in mask_ids)
        for t in mask_ids:
            q = probs[t] / z
            update = math.log(z)
            assert q * math.exp(update) == pytest.approx(probs[t], abs=1e-12)


class TestObserveTokens:
    def test_forcing_accumulates_model_logprob(self, table_721):
        particle = Particle()
        execute_particles(force_plan((0, 1)), 0, [particle], table_721, [derive_key(0, "t")])
        assert particle.log_weight == pytest.approx(math.log(0.7) + math.log(0.6))
        assert particle.tokens == [0, 1]
        assert particle.text == "ab"

    def test_zero_probability_forcing_is_legal_neg_inf(self):
        m = load_table_model({
            "vocab": ["a", "b", "<eos>"],
            "rows": [{"context": [], "dist": [1.0, 0.0, 0.0]}],
        })
        particle = Particle()
        execute_particles(force_plan((1,), SECOND_CLAUSE), 0, [particle], m, [derive_key(0, "t")])
        assert particle.log_weight == NEG_INF
        assert particle.status == ACTIVE  # survives until culling

    def test_low_probability_forcing_ranks_below_high(self, table_721):
        # Forcing an unlikely token drops that particle's weight sharply
        # relative to a sibling forcing the likely token; rank order of
        # weights matches model log probabilities.
        likely, unlikely = Particle(), Particle()
        execute_particles(force_plan((0,)), 0, [likely], table_721, [derive_key(0, "t")])
        execute_particles(force_plan((2,)), 0, [unlikely], table_721, [derive_key(0, "t")])
        assert table_721.sequence_logprob((), (0,)) > table_721.sequence_logprob((), (2,))
        assert likely.log_weight > unlikely.log_weight


class TestProposalPriorStep:
    def test_identical_models_give_zero_update(self, uniform4):
        particle = Particle()
        execute_particles(PRIOR_SCORED_PLAN, 0, [particle], (uniform4, uniform4),
                          [derive_key(6, "t")])
        assert particle.log_weight == pytest.approx(0.0)

    def test_direct_ratio_for_token_zero(self):
        vocab = Vocabulary.from_tokens(["a", "<eos>"])
        proposal = UniformModel(vocab)
        prior = load_table_model({
            "vocab": ["a", "<eos>"],
            "rows": [{"context": [], "dist": [0.9, 0.1]}],
        })
        # find a stream whose first draw picks token 0 under the uniform
        for i in range(10):
            particle = Particle()
            update = execute_particles(PRIOR_SCORED_PLAN, 0, [particle], (proposal, prior),
                                       [derive_key(7, "ratio", i)])
            if update.appended_tokens == (0,):
                assert particle.log_weight == pytest.approx(math.log(0.9 / 0.5))
                return
        pytest.fail("no stream sampled token 0")

    def test_zero_prior_gives_neg_inf(self):
        vocab = Vocabulary.from_tokens(["a", "<eos>"])
        proposal = UniformModel(vocab)
        prior = load_table_model({
            "vocab": ["a", "<eos>"],
            "rows": [{"context": [], "dist": [0.0, 1.0]}],
        })
        for i in range(10):
            particle = Particle()
            update = execute_particles(PRIOR_SCORED_PLAN, 0, [particle], (proposal, prior),
                                       [derive_key(8, "zp", i)])
            if update.appended_tokens == (0,):
                assert particle.log_weight == NEG_INF
                return
        pytest.fail("no stream sampled token 0")


class TestRenderHint:
    def test_renders_note_to_self(self):
        assert render_hint("remaining chars: {k}", {"k": 12}) == \
            "Note to self: remaining chars: 12"

    def test_literal_append_without_variables(self):
        assert render_hint("stay short", {}) == "Note to self: stay short"

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            render_hint("count: {n}", {})

    def test_hint_leaves_weight_unchanged(self, uniform4):
        particle = Particle()
        update = execute_particles(make_plan([{"kind": "hint", "template": "x"}]), 0,
                                   [particle], uniform4, [derive_key(0, "t")])
        assert particle.hint_buffer == [render_hint("x", {})]
        assert particle.log_weight == 0.0
        assert update.log_score_update == 0.0


class TestHintTextBindings:
    """A hint clause decodes its slots' texts only when its template reads
    a binding computed from the text (``plans.template_reads_text``); the
    hints it renders, and its errors, are those of the text bound."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        """The slots of every ``Population.texts`` call that decodes any
        (the step's check decodes the slots it finished, here none)."""
        calls, texts = [], Population.texts
        monkeypatch.setattr(Population, "texts", lambda pop, slots, starts=None: (
            slots.size and calls.append(slots.tolist()) or texts(pop, slots, starts)))
        return calls

    @staticmethod
    def hint_after_abc(template, model, *, plan=None):
        """The hint buffers of two particles that forced "abc" and "ab",
        then ran a hint clause with this template (not the last clause,
        so that no check decodes texts in that step)."""
        if plan is None:
            plan = make_plan([{"kind": "force_string", "text": "a"},
                              {"kind": "hint", "template": template},
                              {"kind": "force_string", "text": "a"}],
                             variables={"target_chars": 5, "x": "y"})
        particles = [Particle(tokens=[0, 1, 2]), Particle(tokens=[0, 1])]
        execute_particles(plan, 1, particles, model, [derive_key(0, "t", s) for s in (0, 1)])
        return [p.hint_buffer for p in particles]

    def test_a_text_binding_decodes_the_texts(self, uniform4, decoded):
        template = "{chars_so_far}/{words_so_far}/{remaining_chars} of {tokens_so_far}"
        assert self.hint_after_abc(template, uniform4) == [
            ["Note to self: 3/1/2 of 3"], ["Note to self: 2/1/3 of 2"]]
        assert decoded == [[0, 1]]

    def test_a_template_without_one_decodes_nothing(self, uniform4, decoded):
        assert self.hint_after_abc("{tokens_so_far} drawn, {x}", uniform4) == [
            ["Note to self: 3 drawn, y"], ["Note to self: 2 drawn, y"]]
        assert decoded == []

    @pytest.mark.parametrize("template", ["{nope}", "{tokens_so_far}{nope}",
                                          "{chars_so_far}{nope}", "{tokens_so_far:{nope}}"])
    def test_an_unbound_name_raises_with_or_without_the_text(self, uniform4, template):
        # parse_plan rejects undeclared names, so the plan is made directly
        plan = SteeringPlan(proposal_tag="proposal", prior_tag="prior", max_tokens=8,
                            steps=(StepClause("force_string", text="a"),
                                   StepClause("hint", template=template)),
                            check=())
        with pytest.raises(UnboundVariable) as info:
            self.hint_after_abc(template, uniform4, plan=plan)
        assert info.value.clause_index == 1

    @pytest.mark.parametrize("template, reads", [
        ("plain", False), ("{tokens_so_far}", False), ("{x:>{tokens_so_far}}", False),
        ("{chars_so_far}", True), ("{words_so_far!r}", True), ("{remaining_chars}", True),
        ("{x:{chars_so_far}}", True), ("{0}", True), ("{x[0]}", True), ("{", True)])
    def test_which_templates_read_the_text(self, template, reads):
        """Nested format specs count; a template the parser would reject
        counts as reading the text, so that rendering it raises as it
        always did."""
        assert template_reads_text(template) is reads

    def test_bindings_without_a_text_hold_only_the_token_count(self):
        plan = make_plan([], variables={"target_chars": 5, "x": "y"})
        assert hint_bindings_for(plan, "ab c", 3) == {
            "target_chars": 5, "x": "y", "tokens_so_far": 3, "chars_so_far": 4,
            "words_so_far": 2, "remaining_chars": 1}
        assert hint_bindings_for(plan, None, 3) == {"target_chars": 5, "x": "y",
                                                    "tokens_so_far": 3}


def _scan_mask(spec: MaskSpec, vocab: Vocabulary, text: str) -> list[int]:
    """The ids a mask allows, by a direct scan of the vocabulary."""
    out = []
    for i, t in enumerate(vocab.token_text):
        if spec.kind == "max_remaining_chars":
            keep = len(t) <= spec.target_chars - len(text)
        elif spec.kind == "allowed_words":
            keep = t.strip() in spec.words
        elif spec.kind == "char_class":
            hits = [any(_in_class(c, cls) for cls in spec.classes) for c in t]
            keep = not any(hits) if spec.negate else all(hits)
        else:
            keep = i in spec.ids or t in spec.tokens
        if keep:
            out.append(i)
    return out


def _in_class(ch: str, cls: str) -> bool:
    return {"letter": ch.isalpha(), "digit": ch.isdigit(),
            "whitespace": ch.isspace(),
            "punctuation": ch in string.punctuation}[cls]


class TestMaskSpecs:
    def test_max_remaining_chars(self):
        vocab = Vocabulary.from_tokens(["a", "bb", "ccc", "<eos>"])
        spec = MaskSpec("max_remaining_chars", target_chars=5)
        mask = spec.build(vocab, 3)  # remaining = 2
        assert mask.tolist() == [0, 1, 3]

    def test_char_class_no_punctuation(self):
        vocab = Vocabulary.from_tokens(["a", ".", " ", "<eos>"])
        spec = MaskSpec("char_class", classes=("letter", "whitespace"))
        assert spec.build(vocab, 0).tolist() == [0, 2, 3]

    def test_char_class_negated(self):
        vocab = Vocabulary.from_tokens(["a", ".", "<eos>"])
        spec = MaskSpec("char_class", classes=("punctuation",), negate=True)
        assert spec.build(vocab, 0).tolist() == [0, 2]

    def test_allowed_words_matches_stripped_token_text(self):
        vocab = Vocabulary.from_tokens(["Glasgow ", "home ", "and ", "<eos>"])
        spec = MaskSpec("allowed_words", words=("Glasgow", "and"))
        # equality test: EOS's empty text matches no word
        assert spec.build(vocab, 0).tolist() == [0, 2]

    def test_explicit_ids_and_tokens(self):
        vocab = Vocabulary.from_tokens(["a", "b", "c", "<eos>"])
        spec = MaskSpec("explicit", tokens=("b",), ids=(2, 0, 2))
        assert spec.build(vocab, 0).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("spec", [
        MaskSpec("max_remaining_chars", target_chars=4),
        MaskSpec("allowed_words", words=("ab", "c")),
        MaskSpec("char_class", classes=("letter",)),
        MaskSpec("char_class", classes=("punctuation", "digit"), negate=True),
        MaskSpec("explicit", tokens=("c ", "zz"), ids=(3, 0)),
    ], ids=["max_remaining_chars", "allowed_words", "char_class",
            "char_class-negated", "explicit"])
    def test_build_equals_a_fresh_scan_and_is_read_only(self, spec):
        vocab = Vocabulary.from_tokens(["ab", "c ", "7", ".", "xyz", "<eos>"])
        for text in ("", "a", "abc", "abcdef", "", "a"):
            ids = spec.build(vocab, len(text))
            assert ids.dtype == np.intp
            assert ids.tolist() == _scan_mask(spec, vocab, text)
            assert not ids.flags.writeable

    def test_compiled_ids_follow_the_vocabulary_object(self):
        # same size, different texts: the ids must come from each one
        first = Vocabulary.from_tokens(["a", "b", "1", "<eos>"])
        second = Vocabulary.from_tokens(["1", "2", "b", "<eos>"])
        spec = MaskSpec("char_class", classes=("letter",))
        for _ in range(2):
            assert spec.build(first, 0).tolist() == [0, 1, 3]
            assert spec.build(second, 0).tolist() == [2, 3]

    def test_out_of_range_explicit_id_raises_on_every_build(self):
        vocab = Vocabulary.from_tokens(["a", "b", "<eos>"])
        spec = MaskSpec("explicit", ids=(0, 5))
        for _ in range(3):
            with pytest.raises(SchemaViolation):
                spec.build(vocab, 0)
        wide = Vocabulary.from_tokens(["a", "b", "c", "d", "e", "f", "<eos>"])
        assert spec.build(wide, 0).tolist() == [0, 5]
        with pytest.raises(SchemaViolation):
            spec.build(vocab, 0)


class TestExecuteStep:
    def test_single_force_clause_finishes(self, table_721):
        plan = make_plan([{"kind": "force_string", "text": "ab"}])
        particle = Particle()
        update = execute_particles(plan, 0, [particle], table_721, [derive_key(9, "t")])
        assert update.appended_tokens == (0, 1)
        assert particle.status == DONE
        assert update.log_score_update == pytest.approx(
            math.log(0.7) + math.log(0.6))

    def test_sample_until_token_count(self, uniform4):
        plan = make_plan([
            {"kind": "sample_until", "stop": {"kind": "token_count", "value": 3},
             "mask": {"kind": "explicit", "tokens": ["a", "b", "c"]}},
        ])
        particle = Particle()
        update = execute_particles(plan, 0, [particle], uniform4, [derive_key(10, "t")])
        assert len(update.appended_tokens) == 3

    def test_sample_until_substring(self, uniform4):
        plan = make_plan([
            {"kind": "sample_until", "stop": {"kind": "substring", "value": "c"},
             "mask": {"kind": "explicit", "tokens": ["a", "b", "c"]}},
        ], max_tokens=64)
        particle = Particle()
        execute_particles(plan, 0, [particle], uniform4, [derive_key(11, "t")])
        assert "c" in particle.text
        assert particle.text.count("c") == 1

    def test_eos_finishes_mid_clause(self, vocab4):
        eos_certain = load_table_model({
            "vocab": ["a", "b", "c", "<eos>"],
            "rows": [{"context": [], "dist": [0.0, 0.0, 0.0, 1.0]}],
        })
        plan = make_plan([
            {"kind": "sample_until", "stop": {"kind": "token_count", "value": 5}},
            {"kind": "force_string", "text": "a"},
        ])
        particle = Particle()
        execute_particles(plan, 0, [particle], eos_certain, [derive_key(12, "t")])
        assert particle.status == DONE
        assert particle.tokens == [eos_certain.vocabulary.eos_id]

    def test_hopeless_loop_raises_step_budget(self, uniform4):
        plan = make_plan([
            {"kind": "loop",
             "until": {"kind": "substring", "value": "zz"},  # unreachable
             "max_iterations": 40,
             "body": [{"kind": "sample_until",
                       "stop": {"kind": "token_count", "value": 1},
                       "mask": {"kind": "explicit", "tokens": ["a", "b"]}}]},
        ], max_tokens=100)
        particle = Particle()
        execute_particles(plan, 0, [particle], uniform4, [derive_key(13, "t")])
        assert_budget_failed(particle, clause_index=0)

    def test_force_beyond_max_tokens_raises(self, table_721):
        plan = make_plan([{"kind": "force_string", "text": "abab"}], max_tokens=3)
        particle = Particle()
        execute_particles(plan, 0, [particle], table_721, [derive_key(14, "t")])
        assert_budget_failed(particle, clause_index=0)

    def test_sample_until_bounded_by_max_new_tokens(self, uniform4):
        plan = make_plan([
            {"kind": "sample_until", "stop": {"kind": "substring", "value": "zz"},
             "max_new_tokens": 5,
             "mask": {"kind": "explicit", "tokens": ["a", "b"]}},
        ], max_tokens=100)
        particle = Particle()
        execute_particles(plan, 0, [particle], uniform4, [derive_key(15, "t")])
        assert_budget_failed(particle, clause_index=0)

    def test_budget_failure_does_not_stop_siblings(self, table_721):
        plan = make_plan([{"kind": "force_string", "text": "ab"}], max_tokens=3)
        full, fresh = Particle(tokens=[0, 0], text="aa"), Particle()
        update = execute_particles(plan, 0, [full, fresh], table_721,
                                   [derive_key(19, "a"), derive_key(19, "b")])
        assert_budget_failed(full, clause_index=0)
        assert full.tokens == [0, 0]
        assert fresh.status == DONE and fresh.tokens == [0, 1]
        assert update.appended_tokens == (0, 1)

    def test_the_step_checks_the_particles_it_finishes(self, table_721):
        # "a" passes a one-character check and "ba" fails it: REJECTED,
        # with weight -inf, which the update's score leaves out. The first
        # clause of a two-clause plan finishes neither, so neither is checked.
        check = [{"kind": "char_count_exact", "value": 1}]
        force_a = {"kind": "force_string", "text": "a"}
        keys = [derive_key(21, "c"), derive_key(21, "d")]
        unfinished = [Particle(), Particle(tokens=[1])]
        execute_particles(make_plan([force_a, SECOND_CLAUSE], check=check), 0,
                          unfinished, table_721, keys)
        assert [p.status for p in unfinished] == [ACTIVE, ACTIVE]
        fresh, longer = Particle(), Particle(tokens=[1])
        update = execute_particles(make_plan([force_a], check=check), 0, [fresh, longer],
                                   table_721, keys)
        assert (fresh.status, fresh.log_weight) == (DONE, pytest.approx(math.log(0.7)))
        assert (longer.status, longer.text, longer.log_weight) == (REJECTED, "ba", NEG_INF)
        assert update.log_score_update == pytest.approx(math.log(0.7) + math.log(1 / 3))

    def test_done_and_failed_particles_are_left_untouched(self, table_721):
        plan = make_plan([{"kind": "force_string", "text": "a"},
                          {"kind": "masked_sample",
                           "mask": {"kind": "explicit", "tokens": ["b"]}}])
        fault = StepBudgetExceeded("spent", clause_index=0)
        done = Particle(tokens=[0], text="a", log_weight=-1.5, status=DONE)
        failed = Particle(tokens=[1], text="b", log_weight=NEG_INF,
                          status=FAILED, error=fault)
        fresh = Particle()
        before = [(p.tokens[:], p.text, p.log_weight, p.status, p.error)
                  for p in (done, failed)]
        update = execute_particles(plan, 1, [done, fresh, failed], table_721,
                                   [derive_key(20, "y") for _ in range(3)])
        assert [(p.tokens, p.text, p.log_weight, p.status, p.error)
                for p in (done, failed)] == before
        assert (fresh.text, fresh.status) == ("b", DONE)
        assert update.appended_tokens == (1,)
        assert update.log_score_update == pytest.approx(math.log(0.2))

    def test_a_deferred_update_reads_the_cells_of_its_step(self):
        """``appended_tokens`` is built when read, from the cells the step
        wrote: read after a later step, after a ``take`` and after the
        token matrix grows, it equals the tuple built at the step's end,
        and so do its equality, hash and repr."""
        vocab = Vocabulary.from_tokens(["a", "b", "c", "<eos>"])
        model = TableModel(vocab, {}, np.array([0.5, 0.3, 0.2, 0.0]))
        plan = make_plan([{"kind": "sample_until",
                           "stop": {"kind": "token_count", "value": 5}}] * 4, max_tokens=64)
        pop, updates = Population(4, vocab), []

        def step(pop, index):
            starts = pop.lengths.copy()
            update = execute_step(plan, index, pop, model, derive_keys(index, "t", 4))
            eager = tuple(t for s in range(4)
                          for t in pop.tokens[s, starts[s]:pop.lengths[s]].tolist())
            updates.append((update, eager))

        step(pop, 0)
        step(pop, 1)  # writes past step 0's cells, in the same matrix
        matrix = pop.tokens
        assert updates[0][0].appended_tokens == updates[0][1]
        pop = pop.take(np.array([3, 3, 0, 1]))
        step(pop, 2)
        assert updates[1][0].appended_tokens == updates[1][1]
        step(pop, 3)  # 20 tokens outgrow the first 16 columns
        assert pop.tokens is not matrix and pop.tokens.shape[1] > matrix.shape[1]
        for update, eager in updates:
            built = StepUpdate(eager, update.log_score_update)
            assert update == built and hash(update) == hash(built)
            assert repr(update) == repr(built) == (
                f"StepUpdate(appended_tokens={eager!r}, "
                f"log_score_update={update.log_score_update!r})")
        assert len(updates[3][1]) == 20

    def test_deterministic_given_stream(self, uniform4):
        plan = make_plan([
            {"kind": "sample_until", "stop": {"kind": "token_count", "value": 4}},
        ])
        updates = []
        for _ in range(2):
            particle = Particle()
            updates.append(execute_particles(plan, 0, [particle], uniform4,
                                             [derive_key(16, "det")]))
        assert updates[0] == updates[1]

    def test_fixed_loop_runs_within_one_step(self, table_721):
        plan = make_plan([
            {"kind": "loop", "iterations": 3,
             "body": [{"kind": "force_string", "text": "a"}]},
        ])
        particle = Particle()
        execute_particles(plan, 0, [particle], table_721, [derive_key(17, "t")])
        assert particle.text == "aaa"
        assert particle.status == DONE  # single-clause plan exhausted

    def test_hint_clause_feeds_later_queries(self):
        model = load_table_model({
            "vocab": ["a", "b", "|", "<eos>"],
            "rows": [
                {"context": [], "dist": [1.0, 0.0, 0.0, 0.0]},
                {"context": ["|", "b"], "dist": [0.0, 1.0, 0.0, 0.0]},
            ],
            "hint_delimiter": "|",
        })
        plan = make_plan([
            {"kind": "hint", "template": "b"},
            {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}},
        ])
        particle = Particle()
        execute_particles(plan, 0, [particle], model, [derive_key(18, "t")])
        assert particle.hint_buffer == ["Note to self: b"]
        execute_particles(plan, 1, [particle], model, [derive_key(18, "t2")])
        assert particle.tokens == [1]  # hinted row forces token b

    def test_observe_then_sample_commutes_with_one_clause(self, table_721):
        # Two clauses vs the same work inside a single loop clause must
        # induce the same weighted law over finished sequences.
        two_clauses = make_plan([
            {"kind": "force_string", "text": "a"},
            {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}},
        ], max_tokens=3)
        one_clause = make_plan([
            {"kind": "loop", "iterations": 1,
             "body": [
                 {"kind": "force_string", "text": "a"},
                 {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}},
             ]},
        ], max_tokens=3)
        t2 = brute_force_target(two_clauses, table_721, max_len=3)
        t1 = brute_force_target(one_clause, table_721, max_len=3)
        assert t1.probs.keys() == t2.probs.keys()
        for seq, p in t1.probs.items():
            assert p == pytest.approx(t2.probs[seq], abs=1e-12)
        assert t1.z == pytest.approx(t2.z, abs=1e-12)


class TestPlanTermination:
    def _random_plan(self, stream: RandomStream) -> dict:
        kinds = ["sample_until", "force_string", "masked_sample", "hint", "loop"]
        steps = []
        for _ in range(stream.integers(1, 4)):
            kind = kinds[stream.integers(0, len(kinds))]
            if kind == "sample_until":
                steps.append({"kind": "sample_until",
                              "stop": {"kind": "token_count",
                                       "value": stream.integers(0, 4)}})
            elif kind == "force_string":
                steps.append({"kind": "force_string",
                              "text": "ab"[:stream.integers(1, 3)]})
            elif kind == "masked_sample":
                steps.append({"kind": "masked_sample",
                              "count": stream.integers(1, 3),
                              "mask": {"kind": "explicit", "tokens": ["a", "b"]}})
            elif kind == "hint":
                steps.append({"kind": "hint", "template": "so far {chars_so_far}"})
            else:
                steps.append({"kind": "loop",
                              "iterations": stream.integers(1, 3),
                              "body": [{"kind": "force_string", "text": "a"}]})
        return {"plan_version": 1, "max_tokens": stream.integers(1, 8),
                "steps": steps, "check": []}

    def test_every_plan_terminates_within_budget_or_raises(self, uniform4):
        # total appended tokens never exceed max_tokens; otherwise the
        # particle fails with a typed budget error
        for trial in range(200):
            stream = RandomStream(4242, "plans", trial)
            plan = parse_plan(self._random_plan(stream))
            particle = Particle()
            for step in range(len(plan.steps)):
                execute_particles(plan, step, [particle], uniform4,
                                  [derive_key(4242, "exec", trial, step)])
                if particle.status != ACTIVE:
                    break
            if particle.status == FAILED:
                assert isinstance(particle.error, StepBudgetExceeded)
            else:
                assert particle.status == DONE
            assert len(particle.tokens) <= plan.max_tokens


# Rows over four tokens that break the rule for rows (``models.check_rows``),
# each with the end of the ProtocolError message it gives.
NOT_A_PROBABILITY = "returned a row with an entry that is not a probability"
VALUE_FAULTS = {
    "nan": ([math.nan, 0.25, 0.25, 0.25], NOT_A_PROBABILITY),
    "negative": ([-0.5, 0.5, 0.5, 0.5], NOT_A_PROBABILITY),  # sums to 1
    "unnormalized": ([0.5, 0.5, 0.5, 0.5], "returned a row summing to 2, not 1"),
    "+inf": ([math.inf, 0.0, 0.0, 0.0], NOT_A_PROBABILITY),
    "all-zero": ([0.0, 0.0, 0.0, 0.0], "returned a row summing to 0, not 1"),
    "-inf": ([-math.inf, 0.5, 0.25, 0.25], NOT_A_PROBABILITY),
    # summed before its entries are bounded, this row warns (inf - inf)
    "+inf and -inf": ([math.inf, -math.inf, 0.0, 0.0], NOT_A_PROBABILITY)}
ALL_METHODS = ("smc", "importance", "rejection")


class _BadRows(TokenModel):
    """Uniform rows spoiled one way: each one entry ``short``, each a
    Python ``list``, the last query's row ``missing``, or each row one
    of ``VALUE_FAULTS``. It reads the whole context (reach None), so it
    is asked on every tick."""

    def __init__(self, vocabulary, fault):
        super().__init__(vocabulary)
        self.fault = fault

    def next_distributions(self, queries, deadline=None):
        size = self.vocabulary.size
        if self.fault in VALUE_FAULTS:
            return [np.array(VALUE_FAULTS[self.fault][0]) for _ in queries]
        if self.fault == "short":
            return [np.full(size - 1, 1.0 / (size - 1)) for _ in queries]
        if self.fault == "list":
            return [[1.0 / size] * size for _ in queries]
        return [np.full(size, 1.0 / size) for _ in queries][:-1]


SHAPE_FAULT = "did not return one 4-entry vector per query"


@pytest.mark.parametrize("fault, message", [
    ("short", SHAPE_FAULT), ("list", SHAPE_FAULT), ("missing", SHAPE_FAULT),
    *((fault, message) for fault, (_, message) in VALUE_FAULTS.items())],
    ids=["short", "list", "missing", *VALUE_FAULTS])
@pytest.mark.parametrize("clause", [
    {"kind": "sample_until", "stop": {"kind": "token_count", "value": 2}},
    {"kind": "force_string", "text": "ab"},
    {"kind": "sample_until", "score_with_prior": True,
     "stop": {"kind": "token_count", "value": 2}}], ids=["draw", "force_string", "prior"])
def test_rows_that_are_not_one_vector_per_query_are_a_protocol_error(vocab4, fault, message,
                                                                     clause):
    """The interpreter checks a model's rows before it reads any of them,
    so no drawn or forced id or score comes from a malformed row or from
    one that is not a distribution, under every method; in a scored draw
    the prior alone is faulty. A run that reads no weights (rejection)
    asks no model for a score, neither for a forced string nor the prior,
    so it ends without an error there. The oracle refuses the same rows
    with the same message."""
    plan, bad = make_plan([clause]), _BadRows(vocab4, fault)
    scored = clause.get("score_with_prior", False)
    models = (UniformModel(vocab4), bad) if scored else bad
    for method in ALL_METHODS:
        out = run_inference(plan, models,
                            InferenceConfig(method=method, n_particles=4, seed=0))
        if method == "rejection" and (scored or clause["kind"] == "force_string"):
            assert out.error is None
        else:
            assert isinstance(out.error, ProtocolError)
            assert out.error.message == f"_BadRows {message}"
    with pytest.raises(ProtocolError) as raised:
        brute_force_target(plan, models, 4)
    assert raised.value.message == f"_BadRows {message}"


class _BadTable(TokenModel):
    """A model whose ``next_table`` answers with rows one entry short,
    with one index too few, with every slot at one index into a 2-row
    table, or with one row of ``VALUE_FAULTS``."""

    def __init__(self, vocabulary, fault):
        super().__init__(vocabulary)
        self.fault = fault

    def next_table(self, windows, widths, hint_ids, hint_sets, tag, deadline=None):
        size, n = self.vocabulary.size, len(widths)
        if self.fault in VALUE_FAULTS:
            return np.array([VALUE_FAULTS[self.fault][0]]), np.zeros(n, dtype=np.intp)
        if self.fault == "short":
            return np.full((1, size - 1), 1.0 / (size - 1)), np.zeros(n, dtype=np.intp)
        if self.fault == "missing":
            return np.full((1, size), 1.0 / size), np.zeros(n - 1, dtype=np.intp)
        return np.full((2, size), 1.0 / size), np.full(n, self.fault)


@pytest.mark.parametrize("fault, message", [
    ("short", "did not return a table of 4-entry rows with one index per slot"),
    ("missing", "did not return a table of 4-entry rows with one index per slot"),
    (-1, "returned slot indices that are not integers in [0, 2)"),  # would read the last row
    (2, "returned slot indices that are not integers in [0, 2)"),
    (1.5, "returned slot indices that are not integers in [0, 2)"),
    *((fault, message) for fault, (_, message) in VALUE_FAULTS.items())])
def test_a_table_not_over_the_vocabulary_is_a_protocol_error(vocab4, fault, message):
    """The interpreter checks the table a ``next_table`` override returns
    before it reads it, under every method: rows over the vocabulary
    that are distributions, one integer row of the table per slot."""
    for method in ALL_METHODS:
        out = run_inference(make_plan([{"kind": "sample_until",
                                        "stop": {"kind": "token_count", "value": 2}}]),
                            _BadTable(vocab4, fault),
                            InferenceConfig(method=method, n_particles=4, seed=0))
        assert isinstance(out.error, ProtocolError)
        assert out.error.message == f"_BadTable {message}"


class TestRunCheck:
    def test_conjunction_of_constraints(self):
        plan = make_plan(
            [{"kind": "force_string", "text": "ab"}],
            check=[{"kind": "char_count_exact", "value": 2},
                   {"kind": "word_count_exact", "value": 1}],
        )
        assert run_check(plan, "ab")
        assert not run_check(plan, "a")

    def test_empty_check_always_passes(self):
        plan = make_plan([{"kind": "force_string", "text": "a"}])
        assert run_check(plan, "a")


class TestParsePlan:
    def test_alternating_positioned_words_plan(self):
        # Four sample/force alternations: generate up to each target
        # word, force it, then finish the sentence.
        doc = {
            "plan_version": 1,
            "max_tokens": 32,
            "proposal_tag": "proposal",
            "prior_tag": "prior",
            "steps": [
                {"kind": "sample_until", "stop": {"kind": "token_count", "value": 3}},
                {"kind": "force_string", "text": "Glasgow "},
                {"kind": "sample_until", "stop": {"kind": "token_count", "value": 3}},
                {"kind": "force_string", "text": "in "},
                {"kind": "sample_until", "stop": {"kind": "token_count", "value": 2}},
                {"kind": "force_string", "text": "and "},
                {"kind": "sample_until", "stop": {"kind": "token_count", "value": 7}},
            ],
            "check": [
                {"kind": "word_count_exact", "value": 18},
                {"kind": "positioned_words",
                 "positions": {"4": "Glasgow", "8": "in", "11": "and"}},
            ],
        }
        plan = parse_plan(doc)
        kinds = [c.kind for c in plan.steps]
        assert kinds.count("loop") == 4  # each sample_until is a loop over one draw
        assert [c.iterations for c in plan.steps if c.kind == "loop"] == [3, 3, 2, 7]
        assert kinds.count("force_string") == 3
        assert plan.check[1].positions == ((4, "Glasgow"), (8, "in"), (11, "and"))

    def test_huge_loop_bound_rejected(self):
        with pytest.raises(SchemaViolation):
            make_plan([{"kind": "loop", "iterations": 10 ** 9,
                        "body": [{"kind": "force_string", "text": "a"}]}])

    def test_malformed_document_is_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_plan("{steps: nope")
        assert "line" in info.value.message

    def test_unknown_field_named_in_violation(self):
        with pytest.raises(SchemaViolation) as info:
            make_plan([{"kind": "force_string", "text": "a", "speed": 9}])
        assert "speed" in info.value.message

    def test_token_drawing_clauses_parse_to_a_loop_over_one_draw(self):
        mask = {"kind": "char_class", "classes": ["letter"]}
        draw = StepClause(kind="draw", mask=MaskSpec("char_class", classes=("letter",)),
                          score_with_prior=True)
        fixed = StepClause(kind="loop", body=(draw,), iterations=3)
        plan = make_plan([
            {"kind": "masked_sample", "count": 3, "mask": mask, "score_with_prior": True},
            {"kind": "sample_until", "stop": {"kind": "token_count", "value": 3},
             "mask": mask, "score_with_prior": True, "max_new_tokens": 3},
            {"kind": "sample_until", "stop": {"kind": "substring", "value": "."},
             "mask": mask, "score_with_prior": True, "max_new_tokens": 5},
            {"kind": "sample_until", "stop": {"kind": "eos"}},
        ])
        assert plan.steps == (
            fixed, fixed,
            StepClause(kind="loop", body=(draw,), stop=StopSpec("substring", "."),
                       max_iterations=5),
            StepClause(kind="loop", body=(StepClause(kind="draw"),),
                       stop=StopSpec("eos"), max_iterations=None))

    def test_max_new_tokens_below_the_count_stop_rejected(self):
        # Such a clause could never finish: every particle would die.
        with pytest.raises(SchemaViolation) as info:
            make_plan([{"kind": "sample_until", "max_new_tokens": 2,
                        "stop": {"kind": "token_count", "value": 3}}])
        assert info.value.message.startswith("plan.steps[0].max_new_tokens: ")

    def test_draw_is_not_a_document_clause(self):
        with pytest.raises(SchemaViolation) as info:
            make_plan([{"kind": "draw"}])
        assert "unknown clause kind 'draw'" in info.value.message

    @pytest.mark.parametrize("change", [
        {"steps": [{"kind": "masked_sample", "mask": {
            "kind": "char_class", "classes": ["letter"], "negated": True}}]},
        {"steps": [{"kind": "sample_until", "stop": {"kind": "eos", "value": 3}}]},
        {"steps": [{"kind": "loop", "body": [{"kind": "force_string", "text": "a"}],
                    "until": {"kind": "substring", "value": "a", "limit": 2}}]},
        {"check": [{"kind": "word_count_min", "value": 1, "positions": {"1": "a"}}]},
    ], ids=["mask", "stop", "until", "check"])
    def test_unknown_field_of_nested_object_rejected(self, change):
        doc = {"plan_version": 1, "max_tokens": 4, "steps": [], **change}
        with pytest.raises(SchemaViolation) as info:
            parse_plan(doc)
        assert "unknown field" in info.value.message

    @pytest.mark.parametrize("change", [
        {"plan_version": True},
        {"max_tokens": True},
        {"steps": [{"kind": "masked_sample", "count": True,
                    "mask": {"kind": "explicit", "ids": [0]}}]},
        {"steps": [{"kind": "masked_sample", "mask": {"kind": "explicit", "ids": [True]}}]},
        {"steps": [{"kind": "force_string", "tokens": [True]}]},
        {"steps": [{"kind": "sample_until", "max_new_tokens": True,
                    "stop": {"kind": "token_count", "value": 1}}]},
        {"steps": [{"kind": "sample_until", "stop": {"kind": "token_count", "value": True}}]},
    ], ids=["plan_version", "max_tokens", "count", "mask-ids", "force-tokens",
            "max_new_tokens", "stop-value"])
    def test_bool_is_not_an_integer(self, change):
        doc = {"plan_version": 1, "max_tokens": 4, "steps": [], **change}
        with pytest.raises(SchemaViolation):
            parse_plan(doc)

    def test_missing_plan_version_rejected(self):
        with pytest.raises(SchemaViolation):
            parse_plan({"max_tokens": 4, "steps": []})

    def test_hint_template_variables_must_be_declared(self):
        with pytest.raises(SchemaViolation):
            make_plan([{"kind": "hint", "template": "{mystery}"}])
        plan = make_plan([{"kind": "hint", "template": "{goal}"}],
                         variables={"goal": "short"})
        assert plan.steps[0].template == "{goal}"

    def test_nested_hint_names_are_checked_at_parse_time(self):
        # a name inside a format spec is read when the hint renders
        with pytest.raises(SchemaViolation) as info:
            make_plan([{"kind": "hint", "template": "{x:{y}}"}], variables={"x": 1})
        assert "['y']" in info.value.message
        plan = make_plan([{"kind": "hint", "template": "{x:>{y}}"}],
                         variables={"x": 1, "y": 3})
        assert plan.steps[0].template == "{x:>{y}}"

    @pytest.mark.parametrize("template", ["{", "}", "{x:{"])
    def test_malformed_hint_template_rejected(self, template):
        with pytest.raises(SchemaViolation):
            make_plan([{"kind": "hint", "template": template}], variables={"x": 1})

    def test_remaining_chars_requires_target_chars(self):
        with pytest.raises(SchemaViolation):
            make_plan([{"kind": "hint", "template": "{remaining_chars}"}])
        make_plan([{"kind": "hint", "template": "{remaining_chars}"}],
                  variables={"target_chars": 10})

    def test_remaining_chars_needs_a_true_integer(self):
        # a JSON true is not a character budget: True - len("abc") is -2
        with pytest.raises(SchemaViolation) as info:
            make_plan([{"kind": "hint", "template": "{remaining_chars}"}],
                      variables={"target_chars": True})
        assert "integer target_chars" in info.value.message
        plan = make_plan([{"kind": "hint", "template": "{target_chars}"}],
                         variables={"target_chars": True})
        assert "remaining_chars" not in hint_bindings_for(plan, "abc", 3)
        assert hint_bindings_for(replace(plan, variables={"target_chars": 5}),
                                 "abc", 3)["remaining_chars"] == 2

    def test_loop_needs_exactly_one_of_iterations_until(self):
        body = [{"kind": "force_string", "text": "a"}]
        with pytest.raises(SchemaViolation):
            make_plan([{"kind": "loop", "body": body}])
        with pytest.raises(SchemaViolation):
            make_plan([{"kind": "loop", "body": body, "iterations": 2,
                        "until": {"kind": "eos"}}])
