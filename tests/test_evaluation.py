from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steersmc import (
    EnumerationTooLarge,
    InferenceConfig,
    UniformModel,
    Vocabulary,
    brute_force_target,
    coherency_proxy,
    load_table_model,
    parse_plan,
    run_inference,
    total_variation,
    train_ngram,
    weighted_pass_at_1,
)

NEG_INF = float("-inf")


def make_plan(steps, *, max_tokens=6, check=()):
    return parse_plan({
        "plan_version": 1,
        "max_tokens": max_tokens,
        "steps": list(steps),
        "check": list(check),
    })


class TestWeightedPassAt1:
    def test_uniform_weights_reduce_to_pass_fraction(self):
        entries = [(0.0, True), (0.0, True), (0.0, False), (0.0, False)]
        assert weighted_pass_at_1(entries) == 0.5

    def test_three_to_one_weighting(self):
        entries = [(math.log(3), True), (math.log(1), False)]
        assert weighted_pass_at_1(entries) == pytest.approx(0.75, abs=1e-12)

    def test_null_weight_contributes_nothing(self):
        assert weighted_pass_at_1([(None, True), (0.0, False)]) == 0.0

    def test_all_null_is_zero(self):
        assert weighted_pass_at_1([(None, True), (None, True)]) == 0.0

    def test_neg_inf_counts_as_zero_weight(self):
        entries = [(NEG_INF, True), (0.0, False)]
        assert weighted_pass_at_1(entries) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_pass_at_1([])

    @given(st.lists(st.tuples(st.floats(min_value=-30, max_value=30),
                              st.booleans()), min_size=1, max_size=12),
           st.floats(min_value=-500, max_value=500))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, entries, shift):
        base = weighted_pass_at_1(entries)
        shifted = weighted_pass_at_1([(w + shift, ok) for w, ok in entries])
        assert shifted == pytest.approx(base, abs=1e-12)


class TestTotalVariation:
    def test_identical_tables(self):
        assert total_variation({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0

    def test_disjoint_supports(self):
        assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0

    def test_counts_are_normalized_by_n(self):
        assert total_variation({"a": 0.5, "b": 0.5}, {"a": 3, "b": 1}, n=4) == \
            pytest.approx(0.25)


class TestBruteForceTarget:
    def test_forced_string_is_point_mass(self, table_721):
        plan = make_plan([{"kind": "force_string", "text": "ab"}])
        table = brute_force_target(plan, table_721, max_len=4)
        assert set(table.probs) == {(0, 1)}
        assert table.probs[(0, 1)] == pytest.approx(1.0)
        assert table.z == pytest.approx(0.7 * 0.6)

    def test_uniform_two_tokens_last_must_be_b(self):
        # Word tokens "a " / "b "; the check keeps sequences whose last
        # word is b, leaving a uniform law over { (a,b), (b,b) }.
        vocab_model = UniformModel(Vocabulary.from_tokens(["a ", "b ", "<eos>"]))
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 2},
              "mask": {"kind": "explicit", "tokens": ["a ", "b "]}}],
            check=[{"kind": "sentence_last_words", "words": ["b"]}])
        table = brute_force_target(plan, vocab_model, max_len=4)
        assert set(table.probs) == {(0, 1), (1, 1)}
        for p in table.probs.values():
            assert p == pytest.approx(0.5)

    def test_prior_proposal_recovers_truncated_prior(self):
        # Hand computation on a 2-token vocabulary: proposal uniform,
        # prior (0.9, 0.1). Sampling <=2 tokens with prior scoring makes
        # the target exactly the prior law over {aa, a<eos>, <eos>}.
        vocab = Vocabulary.from_tokens(["a", "<eos>"])
        proposal = UniformModel(vocab)
        prior = load_table_model({
            "vocab": ["a", "<eos>"],
            "rows": [
                {"context": [], "dist": [0.9, 0.1]},
                {"context": ["a"], "dist": [0.9, 0.1]},
            ],
        })
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 2},
              "score_with_prior": True}],
            max_tokens=4)
        table = brute_force_target(plan, (proposal, prior), max_len=4)
        eos = vocab.eos_id
        assert table.probs[(0, 0)] == pytest.approx(0.81)
        assert table.probs[(0, eos)] == pytest.approx(0.09)
        assert table.probs[(eos,)] == pytest.approx(0.10)
        assert table.z == pytest.approx(1.0)

    def test_probabilities_sum_to_one(self, uniform3):
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 3}}],
            check=[{"kind": "char_count_exact", "value": 3}])
        table = brute_force_target(plan, uniform3, max_len=4)
        assert abs(sum(table.probs.values()) - 1.0) <= 1e-9

    def test_check_failing_sequences_get_zero(self, uniform3):
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 2}}],
            check=[{"kind": "char_count_exact", "value": 2}])
        table = brute_force_target(plan, uniform3, max_len=4)
        eos = uniform3.vocabulary.eos_id
        assert (eos,) not in table.probs  # early EOS fails the check
        assert all(len(seq) == 2 for seq in table.probs)

    def test_enumeration_guard(self):
        vocab = Vocabulary.from_tokens([f"t{i}" for i in range(20)] + ["<eos>"])
        model = UniformModel(vocab)
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 9}}],
            max_tokens=9)
        with pytest.raises(EnumerationTooLarge):
            brute_force_target(plan, model, max_len=9)

    def test_hint_paths_enumerated(self):
        model = load_table_model({
            "vocab": ["a", "b", "|", "<eos>"],
            "rows": [
                {"context": [], "dist": [1.0, 0.0, 0.0, 0.0]},
                {"context": ["|", "b"], "dist": [0.0, 1.0, 0.0, 0.0]},
            ],
            "hint_delimiter": "|",
        })
        hinted = make_plan([
            {"kind": "hint", "template": "b"},
            {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}},
        ], max_tokens=2)
        table = brute_force_target(hinted, model, max_len=2)
        assert table.probs == {(1,): 1.0}

    def test_fixed_loop_inside_an_until_loop(self):
        # Each masked draw keeps 2/3 of the uniform mass, so every path
        # of two draws carries (1/2 * 2/3)^2 = 1/9 and Z = 4/9.
        vocab = Vocabulary.from_tokens(["a", "b", "<eos>"])
        model = UniformModel(vocab)
        plan = make_plan([{
            "kind": "loop", "until": {"kind": "token_count", "value": 2},
            "max_iterations": 3,
            "body": [{"kind": "loop", "iterations": 1, "body": [
                {"kind": "masked_sample",
                 "mask": {"kind": "explicit", "tokens": ["a", "b"]}}]}]}])
        table = brute_force_target(plan, model, max_len=6)
        assert table.text_probs(vocab) == {
            "aa": pytest.approx(0.25), "ab": pytest.approx(0.25),
            "ba": pytest.approx(0.25), "bb": pytest.approx(0.25)}
        assert table.z == pytest.approx(4 / 9)
        out = run_inference(plan, model, InferenceConfig(
            method="importance", n_particles=4000, seed=5))
        assert out.error is None
        assert all(c.raw_log_weight == pytest.approx(math.log(4 / 9))
                   for c in out.candidates)
        law: dict = {}
        for c in out.candidates:
            law[c.tokens] = law.get(c.tokens, 0.0) + c.normalized_weight
        # four cells of 1/4 at N=4000: E[TV] is about 0.011, sd about 0.005
        assert total_variation(table.probs, law) <= 0.05

    def test_max_new_tokens_bounds_an_until_stop(self):
        # sample_until "b" within 2 draws: "aa" spends the bound and dies,
        # leaving b, ab, <eos> and a<eos> with mass 1/3, 1/9, 1/3, 1/9.
        vocab = Vocabulary.from_tokens(["a", "b", "<eos>"])
        model = UniformModel(vocab)
        plan = make_plan([{"kind": "sample_until", "max_new_tokens": 2,
                           "stop": {"kind": "substring", "value": "b"}}])
        table = brute_force_target(plan, model, max_len=6)
        a, b, eos = 0, 1, vocab.eos_id
        assert table.probs == {(b,): pytest.approx(3 / 8), (a, b): pytest.approx(1 / 8),
                               (eos,): pytest.approx(3 / 8), (a, eos): pytest.approx(1 / 8)}
        assert table.z == pytest.approx(8 / 9)
        out = run_inference(plan, model, InferenceConfig(
            method="importance", n_particles=4000, seed=6))
        assert out.error is None
        law: dict = {}
        for c in out.candidates:
            law[c.tokens] = law.get(c.tokens, 0.0) + c.normalized_weight
        # four cells of 3/8 or 1/8 among ~3,560 survivors: E[TV] is about 0.01
        assert total_variation(table.probs, law) <= 0.05

    def test_longest_loop_without_draws(self):
        # The oracle recurses once per drawn token, not once per clause,
        # so a loop at the iteration cap enumerates like a short one.
        vocab = Vocabulary.from_tokens(["a", "<eos>"])
        plan = make_plan([
            {"kind": "loop", "iterations": 10_000,
             "body": [{"kind": "hint", "template": "x"}]},
            {"kind": "masked_sample", "mask": {"kind": "explicit", "tokens": ["a"]}}],
            max_tokens=2)
        table = brute_force_target(plan, UniformModel(vocab), max_len=2)
        assert table.probs == {(0,): 1.0}
        assert table.z == pytest.approx(0.5)

    def test_text_probs_merges_identical_texts(self, uniform3):
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}}],
            max_tokens=2)
        table = brute_force_target(plan, uniform3, max_len=2)
        texts = table.text_probs(uniform3.vocabulary)
        assert texts["a"] == pytest.approx(1 / 3)
        assert texts[""] == pytest.approx(1 / 3)  # EOS-only path


class TestCoherencyProxy:
    def test_mean_per_token_logprob(self, table_721):
        tokens = (0, 1)
        expected = (math.log(0.7) + math.log(0.6)) / 2
        assert coherency_proxy(tokens, table_721, "proposal") == pytest.approx(expected)

    def test_empty_sequence_is_zero(self, table_721):
        assert coherency_proxy((), table_721) == 0.0

    def test_fluent_text_scores_higher(self):
        model = train_ngram("the cat sat on the mat ", order=2, smoothing=0.1,
                            tokenizer="whitespace")
        vocab = model.vocabulary
        fluent = tuple(vocab.encode("the ") + vocab.encode("cat ") + vocab.encode("sat "))
        awkward = tuple(vocab.encode("mat ") + vocab.encode("mat ") + vocab.encode("mat "))
        assert coherency_proxy(fluent, model) > coherency_proxy(awkward, model)
