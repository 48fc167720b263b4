from __future__ import annotations

import math
import time

import numpy as np
import pytest

from steersmc import (
    AllParticlesDead,
    InferenceConfig,
    MaskEmpty,
    ModelSet,
    Population,
    ProtocolError,
    RandomStream,
    RemoteUnavailable,
    SchemaViolation,
    StepBudgetExceeded,
    SteeringPlan,
    StepClause,
    TableModel,
    Timeout,
    TokenModel,
    UnboundVariable,
    UniformModel,
    Vocabulary,
    WeightedCandidate,
    brute_force_target,
    effective_sample_size,
    execute_step,
    load_table_model,
    normalize_weights,
    parse_plan,
    resample,
    run_inference,
    select_answer,
    total_variation,
)
from steersmc import engine
from steersmc.engine import _dead_population_error
from steersmc.steering import DONE, FAILED, REJECTED

from stepping import Particle, particles_of, population_of

NEG_INF = float("-inf")


def make_plan(steps, *, max_tokens=16, check=()):
    return parse_plan({
        "plan_version": 1,
        "max_tokens": max_tokens,
        "steps": list(steps),
        "check": list(check),
    })


def candidate_law(outcome) -> dict:
    law: dict = {}
    for c in outcome.candidates:
        law[c.tokens] = law.get(c.tokens, 0.0) + c.normalized_weight
    return law


@pytest.fixture
def vocab3():
    return Vocabulary.from_tokens(["a", "b", "<eos>"])


@pytest.fixture
def uniform3(vocab3):
    return UniformModel(vocab3)


@pytest.fixture
def sample2_plan():
    """Sample two tokens; check kills sequences shortened by EOS."""
    return make_plan(
        [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 2}}],
        max_tokens=4,
        check=[{"kind": "char_count_exact", "value": 2}],
    )


class TestEffectiveSampleSize:
    def test_uniform_is_n(self):
        assert effective_sample_size([1 / 8] * 8) == 8.0

    def test_degenerate_is_one(self):
        assert effective_sample_size([1.0, 0.0, 0.0, 0.0]) == 1.0

    def test_two_half_weights(self):
        assert effective_sample_size([0.5, 0.5, 0.0, 0.0]) == 2.0

    def test_bounds_and_uniform_maximum(self):
        stream = RandomStream(0, "ess")
        for _ in range(100):
            raw = stream.uniforms(16) + 1e-9
            w = raw / raw.sum()
            ess = effective_sample_size(w)
            assert 1.0 <= ess <= 16.0 + 1e-9
            assert ess <= effective_sample_size([1 / 16] * 16) + 1e-9


class TestNormalizeWeights:
    def test_softmax_with_max_subtraction(self):
        w = normalize_weights([math.log(3), math.log(1)])
        np.testing.assert_allclose(w, [0.75, 0.25])

    def test_shift_invariance(self):
        a = normalize_weights([-1.0, -2.0, -3.0])
        b = normalize_weights([999.0, 998.0, 997.0])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_neg_inf_maps_to_zero(self):
        w = normalize_weights([0.0, NEG_INF])
        np.testing.assert_array_equal(w, [1.0, 0.0])

    def test_all_dead_raises(self):
        with pytest.raises(AllParticlesDead):
            normalize_weights([NEG_INF, NEG_INF])


def _weighted_particles(weights):
    out = [Particle(tokens=[i], log_weight=math.log(w) if w > 0 else NEG_INF)
           for i, w in enumerate(weights)]
    return population_of(out, Vocabulary.from_tokens([str(i) for i in range(len(weights))]
                                                     + ["<eos>"]))


class TestResample:
    def test_degenerate_weights_copy_single_ancestor(self):
        particles = _weighted_particles([1.0, 0.0, 0.0, 0.0])
        out = resample(particles, [1.0, 0.0, 0.0, 0.0], "multinomial",
                       RandomStream(1, "rs"))
        assert [p.tokens for p in particles_of(out)] == [[0]] * 4

    def test_systematic_uniform_copies_each_once(self):
        n = 8
        particles = _weighted_particles([1.0] * n)
        out = resample(particles, [1 / n] * n, "systematic", RandomStream(2, "rs"))
        assert sorted(p.tokens[0] for p in particles_of(out)) == list(range(n))

    def test_multinomial_counts_match_weights(self):
        n = 16
        weights = np.array([2.0 ** (-i) for i in range(n)])
        weights /= weights.sum()
        particles = _weighted_particles(weights * n)
        trials = 2000
        counts = np.zeros(n)
        for t in range(trials):
            out = resample(particles, weights, "multinomial",
                           RandomStream(3, "mc", t))
            for p in particles_of(out):
                counts[p.tokens[0]] += 1
        for i in range(4):  # the heavy ancestors have meaningful statistics
            expect = trials * n * weights[i]
            sigma = math.sqrt(trials * n * weights[i] * (1 - weights[i]))
            assert abs(counts[i] - expect) <= 3 * sigma

    def test_post_resample_weight_is_log_mean(self):
        particles = _weighted_particles([4.0, 2.0, 1.0, 1.0])
        norm = normalize_weights(particles.log_weights)
        out = resample(particles, norm, "multinomial", RandomStream(4, "rs"))
        expected = math.log((4 + 2 + 1 + 1) / 4)
        for p in particles_of(out):
            assert p.log_weight == pytest.approx(expected)

    def test_clones_share_no_state(self):
        # both survivors copy slot 0; stepping survivor 0 alone changes
        # neither survivor 1 nor the population resampled from, whose
        # token matrix has room for the forced token. A copy holds the
        # errors of its failed ancestors only, in a dict of its own.
        model = UniformModel(Vocabulary.from_tokens([str(i) for i in range(100)] + ["<eos>"]))
        dead = StepBudgetExceeded("full")
        particles = population_of([Particle(tokens=[0]), Particle(
            tokens=[1, 1, 1], log_weight=NEG_INF, status=FAILED, error=dead)],
            model.vocabulary)
        out = resample(particles, [1.0, 0.0], "multinomial", RandomStream(5, "rs"))
        assert out.ancestors.tolist() == [0, 0]
        assert Population._ARRAYS == ("tokens", "lengths", "text_lengths", "log_weights",
                                      "status", "hint_ids")
        assert not any(np.shares_memory(getattr(out, name), getattr(particles, name))
                       for name in Population._ARRAYS)
        assert out.errors == {} and out.errors is not particles.errors
        assert particles.take(np.array([1, 0, 1])).errors == {0: dead, 2: dead}
        assert particles.errors == {1: dead}
        out.status[1] = DONE
        plan = make_plan([{"kind": "hint", "template": "x"},
                          {"kind": "force_string", "tokens": [99]}], max_tokens=4)
        for index in range(2):
            execute_step(plan, index, out, model, [7, 7])
        stepped, waiting = particles_of(out)
        assert stepped.tokens == [0, 99] and stepped.hint_buffer == ["Note to self: x"]
        assert 99 not in waiting.tokens
        source = particles_of(particles)
        assert 99 not in source[0].tokens and 99 not in source[1].tokens
        assert (waiting.tokens, waiting.text, waiting.hint_buffer) == ([0], "0", [])
        assert (source[0].text, source[0].hint_buffer) == ("0", [])

    @pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
    def test_point_past_the_rounded_sum_never_copies_a_dead_slot(self, scheme):
        # the weights sum to 1 - 2**-53, and every draw is the largest
        # uniform a stream yields, which lies past that sum
        class TopStream:
            def uniform(self):
                return 1.0 - 2.0 ** -53

            def uniforms(self, n):
                return np.full(n, self.uniform())

        weights = [0.1] * 10 + [0.0]
        assert np.cumsum(weights)[-1] < 1.0
        out = resample(_weighted_particles(weights), weights, scheme, TopStream())
        assert all(p.tokens != [10] for p in particles_of(out))
        assert particles_of(out)[-1].tokens == [9]


class TestSelectAnswer:
    def _candidates(self, weights):
        return [WeightedCandidate(tokens=(i,), normalized_weight=w,
                                  passed_check=True, raw_log_weight=0.0,
                                  text=str(i))
                for i, w in enumerate(weights)]

    def test_sample_proportional(self):
        cands = self._candidates([0.8, 0.2])
        hits = sum(select_answer(cands, RandomStream(7, "s", i)) == (0,)
                   for i in range(2000))
        sigma = math.sqrt(0.8 * 0.2 / 2000)
        assert abs(hits / 2000 - 0.8) <= 3 * sigma

    def test_zero_total_weight_raises(self):
        with pytest.raises(AllParticlesDead):
            select_answer(self._candidates([0.0, 0.0]), RandomStream(8, "s"))


class TestRunImportance:
    def test_force_only_plan_degenerate(self, uniform3):
        plan = make_plan([{"kind": "force_string", "text": "ab"}])
        cfg = InferenceConfig(method="importance", n_particles=8, seed=1)
        out = run_inference(plan, uniform3, cfg)
        assert out.error is None
        assert {c.tokens for c in out.candidates} == {(0, 1)}
        assert out.selected_text == "ab"
        np.testing.assert_allclose(
            [c.normalized_weight for c in out.candidates], [1 / 8] * 8)

    def test_single_particle_selected_regardless_of_weight(self, uniform3):
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 2}}],
            max_tokens=4)
        cfg = InferenceConfig(method="importance", n_particles=1, seed=3)
        out = run_inference(plan, uniform3, cfg)
        assert out.error is None
        assert out.selected == out.candidates[0].tokens

    def test_candidate_law_converges_to_target(self, uniform3, sample2_plan):
        table = brute_force_target(sample2_plan, uniform3, max_len=4)
        cfg = InferenceConfig(method="importance", n_particles=4000, seed=11)
        out = run_inference(sample2_plan, uniform3, cfg)
        assert total_variation(table.probs, candidate_law(out)) <= 0.05

    def test_mean_weight_estimates_z(self, uniform3, sample2_plan):
        table = brute_force_target(sample2_plan, uniform3, max_len=4)
        means = []
        for r in range(60):
            cfg = InferenceConfig(method="importance", n_particles=200, seed=1000 + r)
            out = run_inference(sample2_plan, uniform3, cfg)
            weights = [math.exp(c.raw_log_weight) for c in out.candidates]
            means.append(sum(weights) / len(weights))
        grand = float(np.mean(means))
        stderr = float(np.std(means, ddof=1)) / math.sqrt(len(means))
        assert abs(grand - table.z) <= 3 * stderr


class TestRunSmc:
    def test_zero_threshold_matches_importance_exactly(self, uniform3, sample2_plan):
        cfg_is = InferenceConfig(method="importance", n_particles=64, seed=21)
        cfg_smc = InferenceConfig(method="smc", n_particles=64, seed=21,
                                  ess_threshold=0.0)
        out_is = run_inference(sample2_plan, uniform3, cfg_is)
        out_smc = run_inference(sample2_plan, uniform3, cfg_smc)
        assert out_smc.candidates == out_is.candidates
        assert out_smc.selected == out_is.selected
        assert out_smc.diagnostics.resample_events == []
        assert out_smc.diagnostics.ess_trace == out_is.diagnostics.ess_trace

    def test_equal_updates_never_resample(self, uniform3):
        # every particle collects the same mask correction each step
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 3},
              "mask": {"kind": "explicit", "tokens": ["a", "b"]}}],
            max_tokens=8)
        cfg = InferenceConfig(method="smc", n_particles=16, seed=5)
        out = run_inference(plan, uniform3, cfg)
        assert out.error is None
        assert out.diagnostics.resample_events == []
        for ess in out.diagnostics.ess_trace:
            assert ess == pytest.approx(16.0)

    def test_smc_law_converges_to_target(self, uniform3, sample2_plan):
        table = brute_force_target(sample2_plan, uniform3, max_len=4)
        cfg = InferenceConfig(method="smc", n_particles=4000, seed=31)
        out = run_inference(sample2_plan, uniform3, cfg)
        assert total_variation(table.probs, candidate_law(out)) <= 0.05

    def test_resampling_fires_under_weight_spread(self, vocab3):
        model = load_table_model({
            "vocab": ["a", "b", "<eos>"],
            "rows": [{"context": [], "dist": [0.9, 0.1, 0.0]}],
        })
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 1},
              "score_with_prior": True}],
            max_tokens=2)
        prior = load_table_model({
            "vocab": ["a", "b", "<eos>"],
            "rows": [{"context": [], "dist": [0.1, 0.9, 0.0]}],
        })
        cfg = InferenceConfig(method="smc", n_particles=32, seed=8,
                              ess_threshold=32.0)
        out = run_inference(plan, (model, prior), cfg)
        assert out.error is None
        # mixed tokens under a disagreeing prior spread the weights, so a
        # threshold of N forces a resample
        assert out.diagnostics.resample_events == [1]
        assert out.diagnostics.ess_trace[0] < 32.0

    def test_ancestors_are_recorded_with_the_weights(self):
        # a zero prior kills every particle that draws "b"; survivors
        # are copied from particles that drew "a" only
        model = load_table_model({"vocab": ["a", "b", "<eos>"], "rows": [
            {"context": [], "dist": [0.5, 0.5, 0.0]}]})
        prior = load_table_model({"vocab": ["a", "b", "<eos>"], "rows": [
            {"context": [], "dist": [1.0, 0.0, 0.0]}]})
        plan = make_plan([
            {"kind": "masked_sample", "score_with_prior": True,
             "mask": {"kind": "explicit", "tokens": ["a", "b"]}},
            {"kind": "force_string", "text": "b"}], max_tokens=2)
        runs = [run_inference(plan, (model, prior), InferenceConfig(
            method="smc", n_particles=16, seed=9, record_weights=record))
            for record in (False, True)]
        assert runs[0].diagnostics.ancestors is None
        assert runs[0].candidates == runs[1].candidates
        diag = runs[1].diagnostics
        assert diag.resample_events == [1] and len(diag.ancestors) == 1
        drew_a = {i for i, text in enumerate(diag.per_step_texts[0]) if text == "a"}
        assert 0 < len(drew_a) < 16
        assert len(diag.ancestors[0]) == 16 and set(diag.ancestors[0]) <= drew_a


@pytest.mark.parametrize("method", ["smc", "importance", "rejection"])
def test_empty_plan_takes_one_step_and_ends_every_particle(uniform3, method):
    out = run_inference(make_plan([]), uniform3,
                        InferenceConfig(method=method, n_particles=4, seed=59))
    assert out.error is None
    assert out.diagnostics.steps_executed == 1
    assert [c.tokens for c in out.candidates] == [()] * 4


class TestRunRejection:
    def test_check_always_true_uniform_selection(self, uniform3):
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "token_count", "value": 2}}],
            max_tokens=4)
        cfg = InferenceConfig(method="rejection", n_particles=8, seed=41)
        out = run_inference(plan, uniform3, cfg)
        assert out.error is None
        np.testing.assert_allclose(
            [c.normalized_weight for c in out.candidates], [1 / 8] * 8)

    def test_check_always_false_is_all_dead(self, uniform3):
        plan = make_plan(
            [{"kind": "force_string", "text": "ab"}],
            check=[{"kind": "char_count_exact", "value": 99}])
        cfg = InferenceConfig(method="rejection", n_particles=8, seed=43)
        out = run_inference(plan, uniform3, cfg)
        assert isinstance(out.error, AllParticlesDead)
        assert out.selected is None
        assert out.candidates  # completions are reported for diagnosis

    def test_same_completions_as_importance_under_shared_seed(self, uniform3,
                                                              sample2_plan):
        cfg_rj = InferenceConfig(method="rejection", n_particles=32, seed=47)
        cfg_is = InferenceConfig(method="importance", n_particles=32, seed=47)
        out_rj = run_inference(sample2_plan, uniform3, cfg_rj)
        out_is = run_inference(sample2_plan, uniform3, cfg_is)
        assert [c.tokens for c in out_rj.candidates] == \
               [c.tokens for c in out_is.candidates]

    def test_passers_get_uniform_weight_failers_zero(self, uniform3, sample2_plan):
        cfg = InferenceConfig(method="rejection", n_particles=64, seed=53)
        out = run_inference(sample2_plan, uniform3, cfg)
        passers = [c for c in out.candidates if c.passed_check]
        for c in out.candidates:
            if c.passed_check:
                assert c.normalized_weight == pytest.approx(1 / len(passers))
            else:
                assert c.normalized_weight == 0.0


    def test_rejection_asks_for_no_score(self, monkeypatch):
        """Rejection reads no weights, so its steps compute no score: a
        prior-scored draw asks the prior for no rows, and no mask's
        ``log Z`` or forced string's probability is added. Statuses,
        tokens and errors are those of steps that compute every score,
        mask deaths included. Under importance the prior is asked once
        per prior-scored tick, and a prior that answers with a malformed
        table fails the run; under rejection it is never asked."""

        class Prior(TableModel):
            calls, faulty = 0, False

            def next_table(self, *args):
                self.calls += 1
                table, rows = super().next_table(*args)
                return (table[:, :1] if self.faulty else table), rows

        vocab = Vocabulary.from_tokens(["a", "bb", "<eos>"])
        proposal = TableModel(vocab, {}, np.array([0.5, 0.5, 0.0]))
        prior = Prior(vocab, {}, np.array([0.7, 0.2, 0.1]))
        models = ModelSet(proposal, prior)
        plan = make_plan([
            {"kind": "sample_until", "score_with_prior": True,
             "stop": {"kind": "token_count", "value": 2}},
            {"kind": "masked_sample", "score_with_prior": True,
             "mask": {"kind": "explicit", "tokens": ["a", "bb"]}},
            {"kind": "masked_sample", "mask": {"kind": "max_remaining_chars",
                                               "target_chars": 6}},
            {"kind": "force_string", "text": "a"}],
            check=[{"kind": "char_count_exact", "value": 6}])
        config = InferenceConfig(method="rejection", n_particles=32, seed=7)
        runs = {}
        for weighted in (False, True):
            prior.calls = 0
            with monkeypatch.context() as m:
                m.setattr(engine, "execute_step", lambda *args, **kwargs: execute_step(
                    *args, **{**kwargs, "weighted": kwargs["weighted"] or weighted}))
                pop, _, error = engine._run_lockstep(plan, models, config,
                                                     resample_enabled=False, weighted=False)
            runs[weighted] = (pop.status.tolist(), pop.tokens.tolist(), error,
                              {s: type(e) for s, e in pop.errors.items()}, prior.calls)
            if not weighted:  # only a death or a failed check sets a weight
                assert (pop.log_weights[pop.status == DONE] == 0.0).all()
        assert {DONE, REJECTED, FAILED} <= set(runs[False][0])
        assert runs[False][:4] == runs[True][:4]
        assert (runs[False][4], runs[True][4]) == (0, 3)
        prior.calls = 0
        assert run_inference(plan, models, config).error is None and prior.calls == 0
        prior.faulty = True
        assert run_inference(plan, models, config).error is None
        assert run_inference(plan, models, InferenceConfig(
            method="importance", n_particles=32, seed=7)).error_code == "ProtocolError"
        assert prior.calls == 1


class TestErrorTaxonomy:
    def test_mask_empty_aborts_run(self, vocab3):
        model = load_table_model({
            "vocab": ["a", "b", "<eos>"],
            "rows": [{"context": [], "dist": [1.0, 0.0, 0.0]}],
        })
        plan = make_plan([{"kind": "masked_sample",
                           "mask": {"kind": "explicit", "tokens": ["b"]}}])
        cfg = InferenceConfig(method="smc", n_particles=4, seed=61)
        out = run_inference(plan, model, cfg)
        assert isinstance(out.error, MaskEmpty)
        assert out.selected is None
        assert out.diagnostics.wall_time >= 0.0

    @pytest.mark.parametrize("method", ["importance", "smc", "rejection"])
    def test_dead_end_fails_only_its_particle(self, method):
        # After "a" the mask {b} keeps no mass: the oracle gives that path
        # zero mass and {bb: 1.0} with Z = 0.25, and the engine kills only
        # the particles that drew "a".
        model = load_table_model({
            "vocab": ["a", "b", "<eos>"],
            "rows": [{"context": [], "dist": [0.5, 0.5, 0.0]},
                     {"context": ["a"], "dist": [1.0, 0.0, 0.0]},
                     {"context": ["b"], "dist": [0.5, 0.5, 0.0]}],
        })
        plan = make_plan([
            {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}},
            {"kind": "masked_sample", "mask": {"kind": "explicit", "tokens": ["b"]}}])
        table = brute_force_target(plan, model, max_len=4)
        assert table.probs == {(1, 1): 1.0}
        assert table.z == pytest.approx(0.25)
        out = run_inference(plan, model, InferenceConfig(
            method=method, n_particles=16, seed=59))
        assert out.error is None
        assert out.selected_text == "bb"
        dead = [c for c in out.candidates if c.tokens == (0,)]
        assert dead and all(c.normalized_weight == 0.0 for c in dead)

    @pytest.mark.parametrize("bad", [
        {"kind": "masked_sample", "mask": {"kind": "explicit", "ids": [7]}},
        {"kind": "force_string", "tokens": [9]},
        {"kind": "loop", "iterations": 1, "body": [
            {"kind": "masked_sample", "mask": {"kind": "explicit", "ids": [0, 7]}}]},
    ], ids=["mask-id", "force-id", "mask-id-in-loop"])
    def test_out_of_range_token_id_is_schema_violation(self, uniform3, bad):
        plan = make_plan([{"kind": "force_string", "text": "a"}, bad])
        cfg = InferenceConfig(method="smc", n_particles=4, seed=61)
        out = run_inference(plan, uniform3, cfg)
        assert isinstance(out.error, SchemaViolation)
        assert (out.error.clause_index, out.error.step_index) == (1, 2)
        with pytest.raises(SchemaViolation) as info:
            brute_force_target(plan, uniform3, max_len=4)
        assert info.value.clause_index == 1

    @pytest.mark.parametrize("template, x, error", [
        ("{x:d}", "abc", SchemaViolation),
        ("{x:d}", [1], SchemaViolation),
        ("{x:{y}}", 1, UnboundVariable),
    ], ids=["spec-on-str", "spec-on-list", "nested-unbound"])
    def test_hint_render_error_is_typed(self, uniform3, template, x, error):
        if error is UnboundVariable:
            # parse_plan rejects the nested unbound name, so the plan is
            # made directly to reach the render-time check
            plan = SteeringPlan(
                proposal_tag="proposal", prior_tag="prior", max_tokens=4,
                steps=(StepClause("force_string", text="a"),
                       StepClause("hint", template=template),
                       StepClause("force_string", text="b")),
                check=(), variables={"x": x})
        else:
            plan = parse_plan({
                "plan_version": 1, "max_tokens": 4, "vars": {"x": x},
                "steps": [{"kind": "force_string", "text": "a"},
                          {"kind": "hint", "template": template},
                          {"kind": "force_string", "text": "b"}]})
        out = run_inference(plan, uniform3, InferenceConfig(
            method="smc", n_particles=4, seed=61))
        assert isinstance(out.error, error)
        assert (out.error.clause_index, out.error.step_index) == (1, 2)
        with pytest.raises(error) as info:
            brute_force_target(plan, uniform3, max_len=4)
        assert info.value.clause_index == 1

    def test_universal_step_budget_is_surfaced(self, uniform3):
        plan = make_plan(
            [{"kind": "loop", "until": {"kind": "substring", "value": "zz"},
              "max_iterations": 10,
              "body": [{"kind": "sample_until",
                        "stop": {"kind": "token_count", "value": 1},
                        "mask": {"kind": "explicit", "tokens": ["a", "b"]}}]}],
            max_tokens=100)
        cfg = InferenceConfig(method="importance", n_particles=4, seed=67)
        out = run_inference(plan, uniform3, cfg)
        assert isinstance(out.error, StepBudgetExceeded)
        assert out.diagnostics.steps_executed >= 1

    def test_timeout_is_graceful(self, uniform3, sample2_plan):
        cfg = InferenceConfig(method="smc", n_particles=4, seed=71, timeout=0.0)
        out = run_inference(sample2_plan, uniform3, cfg)
        assert isinstance(out.error, Timeout)
        assert out.diagnostics.steps_executed == 0
        assert out.diagnostics.wall_time >= 0.0

    def test_all_checks_failing_is_all_dead(self, uniform3):
        plan = make_plan(
            [{"kind": "force_string", "text": "ab"}],
            check=[{"kind": "char_count_exact", "value": 99}])
        cfg = InferenceConfig(method="importance", n_particles=4, seed=73)
        out = run_inference(plan, uniform3, cfg)
        assert isinstance(out.error, AllParticlesDead)

    @pytest.mark.parametrize("second", [FAILED, DONE], ids=["failed", "done"])
    def test_dead_population_escalates_only_when_every_slot_failed(self, vocab3, second):
        # Every slot carries a MaskEmpty; the slot's own error is raised
        # only when every slot failed, whatever the errors say.
        errors = [MaskEmpty("x", clause_index=0), MaskEmpty("y", clause_index=1)]
        pop = population_of([Particle(status=FAILED, error=errors[0]),
                             Particle(status=second, error=errors[1])], vocab3)
        err = _dead_population_error(pop, step=4)
        if second == FAILED:
            assert err is errors[0]
        else:
            assert isinstance(err, AllParticlesDead) and err.step_index == 4

    @pytest.fixture
    def dead_populations(self, monkeypatch):
        """The populations ``_dead_population_error`` is asked about."""
        seen = []

        def spy(pop, step):
            seen.append(pop)
            return _dead_population_error(pop, step)

        monkeypatch.setattr(engine, "_dead_population_error", spy)
        return seen

    def test_rejection_with_no_finisher_reports_the_lowest_slots_error(
            self, uniform3, dead_populations):
        # every slot dies at the empty mask of clause 1, in step 2
        plan = make_plan([{"kind": "force_string", "text": "a"},
                          {"kind": "masked_sample",
                           "mask": {"kind": "explicit", "tokens": ["z"]}}])
        out = run_inference(plan, uniform3, InferenceConfig(
            method="rejection", n_particles=4, seed=89))
        assert (out.candidates, out.selected) == ([], None)
        (pop,) = dead_populations
        assert out.error is pop.errors[0]
        assert isinstance(out.error, MaskEmpty)
        assert (out.error.clause_index, out.error.step_index) == (1, 2)

    def test_rejection_with_mixed_deaths_is_all_dead(self, dead_populations):
        # After "a" only EOS has mass, so the masked loop of clause 1
        # kills it in step 2; "b" stops that loop at once and dies in
        # step 3, where forcing two more tokens overruns max_tokens.
        model = load_table_model({
            "vocab": ["a", "b", "<eos>"],
            "rows": [{"context": [], "dist": [0.5, 0.5, 0.0]},
                     {"context": ["a"], "dist": [0.0, 0.0, 1.0]}],
            "default": "uniform",
        })
        plan = make_plan([
            {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}},
            {"kind": "sample_until", "stop": {"kind": "substring", "value": "b"},
             "mask": {"kind": "explicit", "tokens": ["a", "b"]}},
            {"kind": "force_string", "text": "ab"}], max_tokens=2)
        out = run_inference(plan, model, InferenceConfig(
            method="rejection", n_particles=8, seed=97))
        assert (out.candidates, out.selected) == ([], None)
        (pop,) = dead_populations
        assert {type(e) for e in pop.errors.values()} == {MaskEmpty, StepBudgetExceeded}
        assert isinstance(out.error, AllParticlesDead)
        assert out.error.step_index == 3 == out.diagnostics.steps_executed

    def test_deadline_passing_inside_a_step_is_timeout(self, vocab3):
        # The first of two draws outlasts the timeout: the step's own
        # deadline check stops the second, before any further query.
        calls = []

        class Slow(TokenModel):
            def next_distributions(self, queries, deadline=None):
                calls.append(len(queries))
                time.sleep(0.3)
                return [np.array([0.5, 0.5, 0.0])] * len(queries)

        plan = make_plan([{"kind": "sample_until",
                           "stop": {"kind": "token_count", "value": 2}}])
        out = run_inference(plan, Slow(vocab3), InferenceConfig(
            method="importance", n_particles=2, seed=101, timeout=0.1))
        assert isinstance(out.error, Timeout)
        assert out.error.message == "wall-clock budget exhausted mid-step"
        assert (out.error.clause_index, out.error.step_index) == (0, 1)
        assert out.diagnostics.steps_executed == 1
        assert len(calls) == 1

    def test_partial_budget_death_leaves_survivors(self, uniform3):
        # EOS-stopped sampling under max_tokens=3: particles that never
        # draw EOS in time die alone; the run still succeeds.
        plan = make_plan(
            [{"kind": "sample_until", "stop": {"kind": "eos"}}],
            max_tokens=3)
        cfg = InferenceConfig(method="importance", n_particles=64, seed=79)
        out = run_inference(plan, uniform3, cfg)
        assert out.error is None
        dead = [c for c in out.candidates if c.raw_log_weight == NEG_INF]
        alive = [c for c in out.candidates if c.raw_log_weight > NEG_INF]
        assert dead and alive
        for c in dead:
            assert c.normalized_weight == 0.0

    def test_first_fault_ends_the_step(self, vocab3):
        # Slot 0 draws "a" and would fault on its third draw; slot 1 draws
        # "b" and faults one draw earlier, with another error. A fault that
        # is not a dead end ends the step where it is raised, so slot 1's
        # error is the run's and the model is asked nothing after it.
        seen = []

        class Faulting(TokenModel):
            def _distribution(self, context, prompt_tag):
                seen.append(context)
                if context[:1] == (1,):
                    raise RemoteUnavailable("slot drew b")
                if len(context) >= 2:
                    raise ProtocolError("slot drew a")
                return np.array([0.5, 0.5, 0.0])

        model = Faulting(vocab3)
        draw = {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}}
        probe = make_plan([draw])
        for seed in range(100):
            out = run_inference(probe, model, InferenceConfig(
                method="importance", n_particles=2, seed=seed))
            if [c.tokens for c in out.candidates] == [(0,), (1,)]:
                break
        else:
            pytest.fail("no seed draws a for slot 0 and b for slot 1")
        plan = make_plan([{"kind": "loop", "iterations": 3, "body": [draw]}])
        seen.clear()
        out = run_inference(plan, model, InferenceConfig(
            method="importance", n_particles=2, seed=seed))
        assert isinstance(out.error, RemoteUnavailable)
        assert out.error.message == "slot drew b"
        assert (out.error.clause_index, out.error.step_index) == (0, 1)
        assert seen[-1][:1] == (1,)  # no query after the faulting one
        assert [c for c in seen if c[:1] == (1,)] == [seen[-1]]

    @pytest.mark.parametrize("method", ["importance", "smc", "rejection"])
    def test_plan_longer_than_a_thousand_clauses_finishes(self, uniform3, method):
        # A run takes one engine step per top-level clause; no step cap
        # fails a long valid plan.
        plan = make_plan(
            [{"kind": "force_string", "text": "a"}] * 1000
            + [{"kind": "masked_sample", "mask": {"kind": "explicit", "ids": [1]}}],
            max_tokens=1001, check=[{"kind": "char_count_exact", "value": 1001}])
        out = run_inference(plan, uniform3, InferenceConfig(
            method=method, n_particles=2, seed=83))
        assert out.error is None
        assert out.selected_text == "a" * 1000 + "b"
        assert out.diagnostics.steps_executed == 1001


class TestForcedPathsAgainstTheOracle:
    """The ``force_string`` paths of ``brute_force_target`` that end a
    path: a forced EOS before more clauses, and a force past
    ``max_tokens``. The engine's candidate law matches the oracle's, and
    where the oracle has no mass the engine ends in the matching typed
    error."""

    # Draw one token, force EOS, then a clause that never runs; a text
    # of one character passes the check, so a drawn EOS is rejected.
    FORCED_EOS = [
        {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}},
        {"kind": "force_string", "tokens": [2]},
        {"kind": "force_string", "text": "b"}]

    @pytest.mark.parametrize("method", ["importance", "smc"])
    def test_forced_eos_ends_the_path_before_later_clauses(self, table_721, method):
        plan = make_plan(self.FORCED_EOS, check=[{"kind": "char_count_exact", "value": 1}])
        table = brute_force_target(plan, table_721, max_len=4)
        z = 0.7 * 0.3 + 0.2 / 3  # after "a" EOS has 0.3; after "b" the uniform 1/3
        assert table.z == pytest.approx(z)
        assert table.probs == pytest.approx({(0, 2): 0.21 / z, (1, 2): 0.2 / 3 / z})
        out = run_inference(plan, table_721, InferenceConfig(
            method=method, n_particles=4000, seed=103))
        assert out.error is None
        assert total_variation(table.probs, candidate_law(out)) <= 0.05

    @pytest.mark.parametrize("method", ["importance", "smc"])
    def test_force_past_max_tokens_on_some_paths(self, uniform3, method):
        # "a" repeats until a "b"; forcing "a<eos>" after it fits
        # max_tokens=4 only after "b" and "ab", so every longer path dies
        plan = make_plan([
            {"kind": "sample_until", "stop": {"kind": "substring", "value": "b"},
             "mask": {"kind": "explicit", "tokens": ["a", "b"]}},
            {"kind": "force_string", "tokens": [0, 2]}], max_tokens=4)
        table = brute_force_target(plan, uniform3, max_len=4)
        assert table.probs == pytest.approx({(1, 0, 2): 0.75, (0, 1, 0, 2): 0.25})
        out = run_inference(plan, uniform3, InferenceConfig(
            method=method, n_particles=4000, seed=107))
        assert out.error is None
        assert any(c.raw_log_weight == NEG_INF and len(c.tokens) == 3
                   for c in out.candidates)  # "aab" could not take the force
        assert total_variation(table.probs, candidate_law(out)) <= 0.05

    @pytest.mark.parametrize("method", ["importance", "smc", "rejection"])
    def test_no_oracle_mass_is_the_engines_typed_error(self, table_721, uniform3, method):
        rejected = make_plan(self.FORCED_EOS, check=[{"kind": "char_count_exact", "value": 5}])
        overrun = make_plan([
            {"kind": "masked_sample", "mask": {"kind": "explicit", "tokens": ["a", "b"]}},
            {"kind": "force_string", "text": "ab"}], max_tokens=2)
        for plan, model in ((rejected, table_721), (overrun, uniform3)):
            assert brute_force_target(plan, model, max_len=4).z == 0.0
        config = InferenceConfig(method=method, n_particles=16, seed=109)
        out = run_inference(rejected, table_721, config)
        assert isinstance(out.error, AllParticlesDead) and out.error.step_index == 2
        out = run_inference(overrun, uniform3, config)
        assert isinstance(out.error, StepBudgetExceeded)
        assert (out.error.clause_index, out.error.step_index) == (1, 2)


class TestDeterminism:
    @pytest.mark.parametrize("method", ["importance", "smc", "rejection"])
    def test_slot_draws_do_not_depend_on_population_size(self, table_721, method):
        # A slot's stream is keyed on (seed, slot, step) alone, so without
        # resampling the first 16 slots of a 64-particle run repeat a
        # 16-particle run exactly.
        plan = make_plan(
            [{"kind": "masked_sample", "mask": {"kind": "explicit", "ids": [0, 1]}},
             {"kind": "masked_sample", "mask": {"kind": "explicit", "ids": [1, 2]}}],
            max_tokens=4, check=[{"kind": "char_count_exact", "value": 2}])
        small, large = (
            run_inference(plan, table_721, InferenceConfig(
                method=method, n_particles=n, seed=97, ess_threshold=0))
            for n in (16, 64))
        head = [(c.tokens, c.raw_log_weight) for c in small.candidates]
        assert head == [(c.tokens, c.raw_log_weight) for c in large.candidates[:16]]
        assert len(set(head)) > 2

    def test_repeated_runs_bit_identical(self, uniform3, sample2_plan):
        cfg = InferenceConfig(method="smc", n_particles=32, seed=101)
        a = run_inference(sample2_plan, uniform3, cfg)
        b = run_inference(sample2_plan, uniform3, cfg)
        assert a.candidates == b.candidates
        assert a.selected == b.selected


class TestConsistencyScaling:
    def test_expected_tv_decreases_with_particle_count(self, uniform3,
                                                       sample2_plan):
        table = brute_force_target(sample2_plan, uniform3, max_len=4)
        mean_tv = []
        for n in (100, 1000, 10_000):
            tvs = []
            for r in range(5):
                cfg = InferenceConfig(method="importance", n_particles=n,
                                      seed=7000 + r)
                out = run_inference(sample2_plan, uniform3, cfg)
                tvs.append(total_variation(table.probs, candidate_law(out)))
            mean_tv.append(sum(tvs) / len(tvs))
        assert mean_tv[0] > mean_tv[1] > mean_tv[2]


class TestResamplingPreservation:
    def test_weighted_mean_preserved_through_resampling(self):
        population = _weighted_particles([5.0, 3.0, 1.0, 0.5, 0.25, 2.0, 1.5, 0.75])
        particles = particles_of(population)
        raw = [p.log_weight for p in particles]
        norm = normalize_weights(raw)

        def f(p):
            return float(p.tokens[0])

        before = float(sum(w * f(p) for w, p in zip(norm, particles)))
        trials = 4000
        post_means = []
        for t in range(trials):
            out = resample(population_of(particles, population.vocabulary), norm,
                           "multinomial", RandomStream(6, "rp", t))
            post_means.append(sum(f(p) for p in particles_of(out)) / len(out))
        grand = float(np.mean(post_means))
        stderr = float(np.std(post_means, ddof=1)) / math.sqrt(trials)
        assert abs(grand - before) <= 3 * stderr
