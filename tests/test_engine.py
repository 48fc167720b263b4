from __future__ import annotations

import math

import numpy as np
import pytest

from steersmc import (
    AllParticlesDead,
    InferenceConfig,
    MaskEmpty,
    Particle,
    Population,
    ProtocolError,
    RandomStream,
    RemoteUnavailable,
    SchemaViolation,
    StepBudgetExceeded,
    SteeringPlan,
    StepClause,
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
from steersmc.steering import STATUSES

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
    out = []
    for i, w in enumerate(weights):
        p = Particle(tokens=[i], log_weight=math.log(w) if w > 0 else NEG_INF)
        p.text = str(i)
        out.append(p)
    return Population.of(out)


class TestResample:
    def test_degenerate_weights_copy_single_ancestor(self):
        particles = _weighted_particles([1.0, 0.0, 0.0, 0.0])
        out = resample(particles, [1.0, 0.0, 0.0, 0.0], "multinomial",
                       RandomStream(1, "rs"))
        assert [p.tokens for p in out] == [[0]] * 4

    def test_systematic_uniform_copies_each_once(self):
        n = 8
        particles = _weighted_particles([1.0] * n)
        out = resample(particles, [1 / n] * n, "systematic", RandomStream(2, "rs"))
        assert sorted(p.tokens[0] for p in out) == list(range(n))

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
            for p in out:
                counts[p.tokens[0]] += 1
        for i in range(4):  # the heavy ancestors have meaningful statistics
            expect = trials * n * weights[i]
            sigma = math.sqrt(trials * n * weights[i] * (1 - weights[i]))
            assert abs(counts[i] - expect) <= 3 * sigma

    def test_post_resample_weight_is_log_mean(self):
        particles = _weighted_particles([4.0, 2.0, 1.0, 1.0])
        norm = normalize_weights([p.log_weight for p in particles])
        out = resample(particles, norm, "multinomial", RandomStream(4, "rs"))
        expected = math.log((4 + 2 + 1 + 1) / 4)
        for p in out:
            assert p.log_weight == pytest.approx(expected)

    def test_clones_share_no_state(self):
        # both survivors copy slot 0; stepping survivor 0 alone changes
        # neither survivor 1 nor the population resampled from, whose
        # token matrix has room for the forced token
        particles = Population.of([Particle(tokens=[0], text="0"), Particle(
            tokens=[1, 1, 1], text="111", log_weight=NEG_INF)])
        out = resample(particles, [1.0, 0.0], "multinomial", RandomStream(5, "rs"))
        assert out.ancestors.tolist() == [0, 0]
        assert not any(np.shares_memory(getattr(out, name), getattr(particles, name))
                       for name in Population._ARRAYS)
        out.status[1] = STATUSES.index("done")
        model = UniformModel(Vocabulary.from_tokens([str(i) for i in range(100)] + ["<eos>"]))
        plan = make_plan([{"kind": "hint", "template": "x"},
                          {"kind": "force_string", "tokens": [99]}], max_tokens=4)
        for index in range(2):
            execute_step(plan, index, out, model, [7, 7])
        assert out[0].tokens == [0, 99] and out[0].hint_buffer == ["Note to self: x"]
        assert 99 not in out[1].tokens
        assert 99 not in particles[0].tokens and 99 not in particles[1].tokens
        assert (out[1].tokens, out[1].text, out[1].hint_buffer) == ([0], "0", [])
        assert (particles[0].text, particles[0].hint_buffer) == ("0", [])

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
        assert all(p.tokens != [10] for p in out)
        assert out[-1].tokens == [9]


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
        particles = list(_weighted_particles([5.0, 3.0, 1.0, 0.5, 0.25, 2.0, 1.5, 0.75]))
        raw = [p.log_weight for p in particles]
        norm = normalize_weights(raw)

        def f(p):
            return float(p.tokens[0])

        before = float(sum(w * f(p) for w, p in zip(norm, particles)))
        trials = 4000
        post_means = []
        for t in range(trials):
            out = resample(Population.of(particles), norm, "multinomial",
                           RandomStream(6, "rp", t))
            post_means.append(sum(f(p) for p in out) / len(out))
        grand = float(np.mean(post_means))
        stderr = float(np.std(post_means, ddof=1)) / math.sqrt(trials)
        assert abs(grand - before) <= 3 * stderr
