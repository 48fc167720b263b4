"""Acceptance suite: one test per criterion, printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Statistical checks
use fixed seeds, so results are reproducible run to run.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from steersmc import (
    AllParticlesDead,
    ConstraintSpec,
    Diagnostics,
    InferenceConfig,
    MaskEmpty,
    MaskSpec,
    ModelQuery,
    RandomStream,
    ScriptedSource,
    SourceExhausted,
    StepBudgetExceeded,
    TaskSpec,
    Timeout,
    UniformModel,
    Vocabulary,
    as_model_set,
    brute_force_target,
    effective_sample_size,
    load_table_model,
    normalize_weights,
    parse_plan,
    resample,
    run_inference,
    steer,
    total_variation,
    train_ngram,
    verify,
    weighted_pass_at_1,
)
from steersmc.cli import main as cli_main

from naive_verifier import naive_check
from stepping import Particle, particles_of, population_of

NEG_INF = float("-inf")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"\n[criterion {number:02d}] {name}: PASS")


# ---------------------------------------------------------------------------
# Enumerable plan/model fixtures shared by criteria 1-3.


@dataclass(frozen=True)
class ConvergenceFixture:
    name: str
    plan: object
    models: object
    max_len: int


def _plan(doc: dict):
    doc.setdefault("plan_version", 1)
    return parse_plan(doc)


def fixture_uniform_check() -> ConvergenceFixture:
    model = UniformModel(Vocabulary.from_tokens(["a", "b", "<eos>"]))
    plan = _plan({
        "max_tokens": 4,
        "steps": [{"kind": "sample_until",
                   "stop": {"kind": "token_count", "value": 2}}],
        "check": [{"kind": "char_count_exact", "value": 2}],
    })
    return ConvergenceFixture("uniform-check", plan, model, 4)


def fixture_word_boundary() -> ConvergenceFixture:
    model = UniformModel(Vocabulary.from_tokens(["a", "b", " ", "<eos>"]))
    plan = _plan({
        "max_tokens": 4,
        "steps": [{"kind": "sample_until",
                   "stop": {"kind": "token_count", "value": 3}}],
        "check": [{"kind": "word_count_exact", "value": 2}],
    })
    return ConvergenceFixture("word-boundary", plan, model, 4)


def fixture_masked_biased() -> ConvergenceFixture:
    model = load_table_model({
        "vocab": ["a", "b", "c", "<eos>"],
        "rows": [
            {"context": [], "dist": [0.5, 0.25, 0.15, 0.1]},
            {"context": ["a"], "dist": [0.1, 0.6, 0.2, 0.1]},
            {"context": ["b"], "dist": [0.3, 0.3, 0.3, 0.1]},
            {"context": ["c"], "dist": [0.25, 0.25, 0.25, 0.25]},
        ],
        "default": "uniform",
    })
    plan = _plan({
        "max_tokens": 4,
        "steps": [{"kind": "masked_sample", "count": 2,
                   "mask": {"kind": "explicit", "tokens": ["a", "b", "c"]}}],
        "check": [],
    })
    return ConvergenceFixture("masked-biased", plan, model, 4)


def fixture_prior_proposal() -> ConvergenceFixture:
    vocab = ["a", "b", "<eos>"]
    proposal = UniformModel(Vocabulary.from_tokens(vocab))
    prior = load_table_model({
        "vocab": vocab,
        "rows": [
            {"context": [], "dist": [0.7, 0.2, 0.1]},
            {"context": ["a"], "dist": [0.3, 0.6, 0.1]},
            {"context": ["b"], "dist": [0.5, 0.4, 0.1]},
        ],
        "default": "uniform",
    })
    plan = _plan({
        "max_tokens": 4,
        "steps": [{"kind": "sample_until",
                   "stop": {"kind": "token_count", "value": 2},
                   "score_with_prior": True}],
        "check": [{"kind": "char_count_exact", "value": 2}],
    })
    return ConvergenceFixture("prior-proposal", plan, (proposal, prior), 4)


def fixture_masked_prior() -> ConvergenceFixture:
    # A mask and prior scoring in one clause: the weight is
    # p_prior(t) / q(t) for the masked proposal q, and the prior gives
    # "a" zero mass after "b", so some paths die.
    vocab = ["a", "b", "c", "<eos>"]
    proposal = load_table_model({
        "vocab": vocab,
        "rows": [
            {"context": [], "dist": [0.5, 0.2, 0.2, 0.1]},
            {"context": ["a"], "dist": [0.2, 0.4, 0.3, 0.1]},
            {"context": ["b"], "dist": [0.3, 0.3, 0.2, 0.2]},
        ],
        "default": "uniform",
    })
    prior = load_table_model({
        "vocab": vocab,
        "rows": [
            {"context": [], "dist": [0.3, 0.4, 0.2, 0.1]},
            {"context": ["a"], "dist": [0.5, 0.1, 0.1, 0.3]},
            {"context": ["b"], "dist": [0.0, 0.5, 0.3, 0.2]},
        ],
        "default": "uniform",
    })
    plan = _plan({
        "max_tokens": 4,
        "steps": [{"kind": "masked_sample", "count": 2, "score_with_prior": True,
                   "mask": {"kind": "explicit", "tokens": ["a", "b"], "ids": [3]}}],
        "check": [],
    })
    return ConvergenceFixture("masked-prior", plan, (proposal, prior), 4)


def fixture_force_ngram() -> ConvergenceFixture:
    model = train_ngram("ab$ab$ab$aab$", order=2, smoothing=0.1, eos_text="$")
    plan = _plan({
        "max_tokens": 5,
        "steps": [
            {"kind": "hint", "template": "finish quickly"},
            {"kind": "force_string", "text": "a"},
            {"kind": "sample_until", "stop": {"kind": "eos"}},
        ],
        "check": [],
    })
    return ConvergenceFixture("force-ngram", plan, model, 5)


def fixture_partly_dead() -> ConvergenceFixture:
    # Dead ends partway: after "a" the second mask keeps zero mass, and
    # after "cc" the third mask's character budget is already overshot,
    # so it allows no token. Those particles die alone; "ba" and "bb"
    # finish with oracle mass 0.3 * 0.5 * 0.25 and 0.3 * 0.25 * 0.25.
    # Every survivor carries the same weight, so at N = 50,000 about a
    # third survive (q(b) = 1/3) and the estimate of P("ba") = 2/3 has a
    # standard deviation near sqrt(2/9 / 16,667) = 0.004, well inside
    # criteria 1-2's TV bound of 0.02.
    model = load_table_model({
        "vocab": ["a", "b", "cc", "<eos>"],
        "rows": [
            {"context": [], "dist": [0.4, 0.3, 0.2, 0.1]},
            {"context": ["a"], "dist": [0.0, 0.0, 0.6, 0.4]},
            {"context": ["b"], "dist": [0.5, 0.25, 0.15, 0.1]},
        ],
        "default": "uniform",
    })
    plan = _plan({
        "max_tokens": 4,
        "steps": [
            {"kind": "masked_sample",
             "mask": {"kind": "explicit", "tokens": ["a", "b", "cc"]}},
            {"kind": "masked_sample",
             "mask": {"kind": "explicit", "tokens": ["a", "b"]}},
            {"kind": "masked_sample",
             "mask": {"kind": "max_remaining_chars", "target_chars": 2}},
        ],
        "check": [],
    })
    return ConvergenceFixture("partly-dead", plan, model, 4)


def _prior_scored_draws(count: int) -> list[dict]:
    """``count`` top-level clauses, each one prior-scored draw masked to
    a, b and c; no particle can draw EOS, so every particle stays active
    until the last clause."""
    return [{"kind": "masked_sample", "score_with_prior": True,
             "mask": {"kind": "explicit", "tokens": ["a", "b", "c"]}}
            for _ in range(count)]


def fixture_prior_peaked() -> ConvergenceFixture:
    # The prior puts 0.85 on one of the three masked tokens, which the
    # proposal draws with probability 1/3: the step-1 weights 2.55, 0.15
    # and 0.3 have a Kish fraction of 0.45, so SMC at ess_threshold N/2
    # resamples after step 1, with every particle still active. The
    # prior depends on the context, so the weights of later steps differ
    # between the resampled paths.
    vocab = ["a", "b", "c", "<eos>"]
    proposal = UniformModel(Vocabulary.from_tokens(vocab))
    prior = load_table_model({
        "vocab": vocab,
        "rows": [
            {"context": [], "dist": [0.85, 0.05, 0.1, 0.0]},
            {"context": ["a"], "dist": [0.1, 0.8, 0.1, 0.0]},
            {"context": ["a", "b"], "dist": [0.05, 0.05, 0.9, 0.0]},
        ],
        "default": [0.4, 0.3, 0.3, 0.0],
    })
    plan = _plan({"max_tokens": 3, "steps": _prior_scored_draws(3), "check": []})
    return ConvergenceFixture("prior-peaked", plan, (proposal, prior), 3)


def fixture_prior_kills() -> ConvergenceFixture:
    # As prior-peaked, but the prior gives zero mass to "aa", "bb" and
    # "abb", so paths die partway (weight -inf) in steps 2 and 3, and a
    # resample after step 1 copies active particles whose later fate
    # differs.
    vocab = ["a", "b", "c", "<eos>"]
    proposal = load_table_model({
        "vocab": vocab,
        "rows": [{"context": [], "dist": [0.3, 0.3, 0.3, 0.1]}],
        "default": "uniform",
    })
    prior = load_table_model({
        "vocab": vocab,
        "rows": [
            {"context": [], "dist": [0.85, 0.1, 0.05, 0.0]},
            {"context": ["a"], "dist": [0.0, 0.8, 0.2, 0.0]},
            {"context": ["b"], "dist": [0.5, 0.0, 0.5, 0.0]},
            {"context": ["a", "b"], "dist": [0.9, 0.0, 0.1, 0.0]},
        ],
        "default": [0.4, 0.3, 0.3, 0.0],
    })
    plan = _plan({"max_tokens": 3, "steps": _prior_scored_draws(3), "check": []})
    return ConvergenceFixture("prior-kills", plan, (proposal, prior), 3)


IN_FLIGHT_FIXTURES = [fixture_prior_peaked(), fixture_prior_kills()]

CONVERGENCE_FIXTURES = [
    fixture_uniform_check(),
    fixture_word_boundary(),
    fixture_masked_biased(),
    fixture_prior_proposal(),
    fixture_masked_prior(),
    fixture_force_ngram(),
    fixture_partly_dead(),
    *IN_FLIGHT_FIXTURES,
]


def candidate_law(outcome) -> dict:
    law: dict = {}
    for c in outcome.candidates:
        law[c.tokens] = law.get(c.tokens, 0.0) + c.normalized_weight
    return law


class TestCriterion01ImportanceConvergence:
    @pytest.mark.parametrize("fx", CONVERGENCE_FIXTURES, ids=lambda f: f.name)
    def test_is_law_matches_brute_force(self, fx):
        with criterion(1, f"IS target convergence [{fx.name}]"):
            start = time.monotonic()
            table = brute_force_target(fx.plan, fx.models, fx.max_len)
            cfg = InferenceConfig(method="importance", n_particles=50_000,
                                  seed=20_001)
            out = run_inference(fx.plan, fx.models, cfg)
            assert out.error is None
            tv = total_variation(table.probs, candidate_law(out))
            elapsed = time.monotonic() - start
            assert tv <= 0.02, f"TV {tv:.4f} > 0.02"
            assert elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s"


class TestCriterion02SmcConvergence:
    @pytest.mark.parametrize("fx", CONVERGENCE_FIXTURES, ids=lambda f: f.name)
    def test_smc_law_matches_brute_force(self, fx):
        with criterion(2, f"SMC target convergence [{fx.name}]"):
            start = time.monotonic()
            table = brute_force_target(fx.plan, fx.models, fx.max_len)
            n = 50_000
            cfg = InferenceConfig(method="smc", n_particles=n, seed=20_002,
                                  ess_threshold=n / 2,
                                  resample_scheme="multinomial")
            out = run_inference(fx.plan, fx.models, cfg)
            assert out.error is None
            tv = total_variation(table.probs, candidate_law(out))
            elapsed = time.monotonic() - start
            assert tv <= 0.02, f"TV {tv:.4f} > 0.02"
            assert elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s"


def step_kish_fractions(fx: ConvergenceFixture) -> list[float]:
    """Expected Kish fraction ESS/N of each step's incremental weights,
    for a population drawn from the previous step's intermediate target,
    as after a resample.

    Every clause of an in-flight fixture draws one masked token, so the
    step-t target pi_t is the oracle of the plan cut after clause t, and
    pi_t(x) = pi_{t-1}(x[:-1]) q_t(x[-1] | x[:-1]) w_t(x) / E[w_t] for
    the masked proposal q_t. Then (E w_t)^2 / E[w_t^2] is
    1 / sum_x pi_t(x)^2 / (pi_{t-1}(x[:-1]) q_t(x[-1] | x[:-1])).
    """
    models = as_model_set(fx.models)
    fractions, previous = [], {(): 1.0}
    for t in range(1, len(fx.plan.steps) + 1):
        cut = replace(fx.plan, steps=fx.plan.steps[:t])
        target = brute_force_target(cut, models, fx.max_len).probs
        ids = fx.plan.steps[t - 1].body[0].mask.build(models.vocabulary, 0)
        second_moment = 0.0
        for seq, p in target.items():
            row = models.proposal.next_distribution(
                ModelQuery(seq[:-1], fx.plan.proposal_tag))
            q = row[seq[-1]] / row[ids].sum()
            second_moment += p * p / (previous[seq[:-1]] * q)
        fractions.append(1.0 / second_moment)
        previous = target
    return fractions


class TestInFlightResampling:
    """SMC resamples active particles that carry unequal weights, under
    both schemes, and still samples the oracle's law.

    The TV bound is fixed from the fixture before any run. Its expected
    ESS is taken as E = N * min_t f_t / T for the step Kish fractions
    f_t (``step_kish_fractions``) and T steps: each of at most T
    reweight-and-resample rounds costs no more than the worst step's
    factor. Each outcome's estimate then has a standard deviation near
    sqrt(p (1 - p) / E), and the bound allows four of them per outcome:
    TV <= 1/2 * sum_x 4 * sqrt(p_x (1 - p_x) / E).
    """

    @pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
    @pytest.mark.parametrize("fx", IN_FLIGHT_FIXTURES, ids=lambda f: f.name)
    def test_resampling_in_flight_keeps_the_law(self, fx, scheme):
        n, steps = 50_000, len(fx.plan.steps)
        table = brute_force_target(fx.plan, fx.models, fx.max_len)
        fractions = step_kish_fractions(fx)
        assert fractions[0] < 0.5  # the first step alone triggers a resample
        ess = n * min(fractions) / steps
        bound = 0.5 * sum(4 * math.sqrt(p * (1 - p) / ess) for p in table.probs.values())
        out = run_inference(fx.plan, fx.models, InferenceConfig(
            method="smc", n_particles=n, seed=20_003, ess_threshold=n / 2,
            resample_scheme=scheme))
        assert out.error is None
        # no particle draws EOS, so each drew a token at every step and
        # was active after every step but the last
        assert all(len(c.tokens) == steps for c in out.candidates)
        assert any(t < steps for t in out.diagnostics.resample_events)
        tv = total_variation(table.probs, candidate_law(out))
        assert tv <= bound, f"TV {tv:.4f} > {bound:.4f}"


# Fixtures of several steps, where a resample can land between steps.
MULTI_STEP_FIXTURES = [fx for fx in CONVERGENCE_FIXTURES
                       if fx.name in ("prior-peaked", "prior-kills", "partly-dead",
                                      "force-ngram")]


class TestCriterion03NormalizingConstant:
    N = 1000

    def _assert_mean_weight_estimates_z(self, fx, **config):
        z = brute_force_target(fx.plan, fx.models, fx.max_len).z
        means = []
        for r in range(200):
            cfg = InferenceConfig(n_particles=self.N, seed=30_000 + r, **config)
            out = run_inference(fx.plan, fx.models, cfg)
            assert out.error is None
            weights = np.exp([c.raw_log_weight for c in out.candidates])
            means.append(float(np.mean(weights)))
        grand = float(np.mean(means))
        stderr = float(np.std(means, ddof=1)) / math.sqrt(len(means))
        assert abs(grand - z) <= 3 * stderr, \
            f"mean {grand:.5f} vs Z {z:.5f} (3se={3 * stderr:.5f})"

    @pytest.mark.parametrize("fx", CONVERGENCE_FIXTURES, ids=lambda f: f.name)
    def test_mean_unnormalized_weight_estimates_z(self, fx):
        with criterion(3, f"normalizing-constant unbiasedness [{fx.name}]"):
            self._assert_mean_weight_estimates_z(fx, method="importance")

    @pytest.mark.parametrize("fx", MULTI_STEP_FIXTURES, ids=lambda f: f.name)
    def test_fixed_schedule_smc_estimates_z(self, fx):
        # At ess_threshold = N the engine resamples after every step whose
        # weights differ, and a resample sets every weight to the mean it
        # replaces, so the final mean weight stays an unbiased estimate of
        # Z (Naesseth, Lindsten & Schon, arXiv 1903.04797).
        with criterion(3, f"SMC normalizing-constant unbiasedness [{fx.name}]"):
            self._assert_mean_weight_estimates_z(fx, method="smc", ess_threshold=self.N)


class TestCriterion04MaskCorrection:
    def test_one_step_weighted_law_equals_restriction(self):
        with criterion(4, "mask correction exactness (100-case grid)"):
            vocab = Vocabulary.from_tokens(["a", "b", "c", " ", "<eos>"])
            models = [
                UniformModel(vocab),
                load_table_model({
                    "vocab": ["a", "b", "c", " ", "<eos>"],
                    "rows": [
                        {"context": [], "dist": [0.4, 0.3, 0.15, 0.1, 0.05]},
                        {"context": ["a"], "dist": [0.05, 0.5, 0.25, 0.1, 0.1]},
                    ],
                    "default": [0.2, 0.2, 0.2, 0.2, 0.2],
                }),
            ]
            contexts = [(), (0,), (1,), (0, 1), (2, 2)]
            masks = [
                MaskSpec("explicit", ids=(0, 1)),
                MaskSpec("explicit", ids=(0, 1, 2)),
                MaskSpec("explicit", ids=(2,)),
                MaskSpec("explicit", ids=(0, 4)),
                MaskSpec("char_class", classes=("letter",)),
                MaskSpec("char_class", classes=("whitespace",)),
                MaskSpec("char_class", classes=("punctuation",), negate=True),
                MaskSpec("max_remaining_chars", target_chars=1),
                MaskSpec("max_remaining_chars", target_chars=3),
                MaskSpec("allowed_words", words=("a", "c")),
                MaskSpec("allowed_words", words=("b",)),
                MaskSpec("explicit", ids=(1, 2, 3)),
            ]
            cases = 0
            for model in models:
                for ctx in contexts:
                    text = vocab.decode(ctx)
                    probs = model.next_distribution(ModelQuery(ctx))
                    for mask_spec in masks:
                        ids = mask_spec.build(vocab, len(text)).tolist()
                        z = float(sum(probs[t] for t in ids))
                        if z <= 0.0:
                            continue
                        # weighted one-step law: q(t) * exp(log z) over the
                        # allowed set must equal the raw model restricted
                        for t in range(vocab.size):
                            expected = float(probs[t]) if t in ids else 0.0
                            got = (probs[t] / z) * z if t in ids else 0.0
                            assert abs(got - expected) <= 1e-9
                        cases += 1
            assert cases >= 100, f"only {cases} grid cases"


class TestCriterion05EssUnits:
    def test_exact_unit_values(self):
        with criterion(5, "ESS unit values"):
            assert effective_sample_size([1 / 8] * 8) == 8.0
            assert effective_sample_size([1.0, 0.0, 0.0, 0.0]) == 1.0
            assert effective_sample_size([0.5, 0.5, 0.0, 0.0]) == 2.0


class TestCriterion06ResamplingPreservation:
    def test_three_functions_and_systematic_stratification(self):
        with criterion(6, "resampling preserves estimates"):
            particles = []
            weights = [5.0, 3.0, 1.0, 0.5, 0.25, 2.0, 1.5, 0.75]
            for i, w in enumerate(weights):
                particles.append(Particle(tokens=[i, i % 3], log_weight=math.log(w)))
            norm = normalize_weights([p.log_weight for p in particles])

            functions = [
                lambda p: float(p.tokens[0]),
                lambda p: float(len(p.tokens) + p.tokens[1]),
                lambda p: 1.0 if p.tokens[0] % 2 == 0 else 0.0,
            ]
            before = [float(sum(w * f(p) for w, p in zip(norm, particles)))
                      for f in functions]
            trials = 10_000
            post = np.zeros((trials, len(functions)))
            vocab = Vocabulary.from_tokens([f"t{i}" for i in range(len(weights))] + ["<eos>"])
            population = population_of(particles, vocab)
            for t in range(trials):
                out = particles_of(resample(population, norm, "multinomial",
                                            RandomStream(60_000, "trial", t)))
                for j, f in enumerate(functions):
                    post[t, j] = sum(f(p) for p in out) / len(out)
            for j in range(len(functions)):
                grand = float(post[:, j].mean())
                stderr = float(post[:, j].std(ddof=1)) / math.sqrt(trials)
                assert abs(grand - before[j]) <= 3 * stderr, \
                    f"f{j}: {grand:.5f} vs {before[j]:.5f}"

            # systematic + uniform weights: every ancestor copied once
            uniform = [1 / 8] * 8
            for t in range(50):
                out = resample(population, uniform, "systematic",
                               RandomStream(60_001, "sys", t))
                assert sorted(p.tokens[0] for p in particles_of(out)) == list(range(8))


class TestCriterion07WeightedPassAt1:
    def test_formula_fixtures_and_scale_invariance(self):
        with criterion(7, "weighted Pass@1 formula"):
            assert weighted_pass_at_1(
                [(0.0, True), (0.0, True), (0.0, False), (0.0, False)]) == 0.5
            assert abs(weighted_pass_at_1(
                [(math.log(3), True), (math.log(1), False)]) - 0.75) <= 1e-12
            assert weighted_pass_at_1([(None, True), (0.0, False)]) == 0.0
            assert weighted_pass_at_1([(None, True), (None, False)]) == 0.0
            entries = [(-2.5, True), (0.3, False), (None, True), (1.7, True),
                       (NEG_INF, False)]
            base = weighted_pass_at_1(entries)
            for shift in (-1000.0, -3.7, 0.0, 12.0, 800.0):
                shifted = [(w + shift if w not in (None, NEG_INF) else w, ok)
                           for w, ok in entries]
                assert abs(weighted_pass_at_1(shifted) - base) <= 1e-12


class TestCriterion08RejectionEquivalence:
    def test_binomial_prediction_and_best_of_n_construction(self):
        with criterion(8, "rejection = best-of-N at p=0.5"):
            model = load_table_model({
                "vocab": ["a", "b", "<eos>"],
                "rows": [{"context": [], "dist": [0.5, 0.5, 0.0]}],
            })
            plan = _plan({
                "max_tokens": 2,
                "steps": [{"kind": "sample_until",
                           "stop": {"kind": "token_count", "value": 1}}],
                "check": [{"kind": "contains_words", "words": ["a"]}],
            })
            runs, n = 1000, 16
            passers_total = 0
            for r in range(runs):
                cfg = InferenceConfig(method="rejection", n_particles=n,
                                      seed=80_000 + r)
                out = run_inference(plan, model, cfg)
                flags = [c.passed_check for c in out.candidates]
                passers_total += sum(flags)

                if r < 25:
                    # best-of-N by construction: the same seed yields the
                    # same completions under importance sampling, and the
                    # binary check alone determines rejection's weights.
                    cfg_is = InferenceConfig(method="importance", n_particles=n,
                                             seed=80_000 + r)
                    out_is = run_inference(plan, model, cfg_is)
                    assert [c.tokens for c in out_is.candidates] == \
                        [c.tokens for c in out.candidates]
                    independent_flags = [
                        verify([ConstraintSpec("contains_words", words=("a",))],
                               c.text).passed
                        for c in out.candidates]
                    assert independent_flags == flags
                    k = sum(flags)
                    if k:
                        assert out.selected in {c.tokens for c in out.candidates
                                                if c.passed_check}
                        for c in out.candidates:
                            expect = 1.0 / k if c.passed_check else 0.0
                            assert abs(c.normalized_weight - expect) <= 1e-12
                        # Pass@1 of the outcome equals the pass fraction
                        wp1 = weighted_pass_at_1(
                            [(0.0, f) for f in flags])
                        assert abs(wp1 - k / n) <= 1e-12

            p = 0.5
            total = runs * n
            sigma = math.sqrt(p * (1 - p) / total)
            fraction = passers_total / total
            assert abs(fraction - p) <= 3 * sigma, \
                f"pass fraction {fraction:.4f} vs 0.5 (3s={3 * sigma:.4f})"


def _random_text(stream: RandomStream) -> str:
    alphabet = "ab cd. e!f?g,h'i  jk\tz QRs.. t"
    n = stream.integers(0, 60)
    return "".join(alphabet[stream.integers(0, len(alphabet))] for _ in range(n))


class TestCriterion09VerifierAgreement:
    SPECS = [
        ConstraintSpec("char_count_exact", value=12),
        ConstraintSpec("word_count_exact", value=3),
        ConstraintSpec("word_count_min", value=2),
        ConstraintSpec("positioned_words", positions=((2, "cd"),)),
        ConstraintSpec("contains_words", words=("cd", "e")),
        ConstraintSpec("forbidden_words", words=("QRs", "ab")),
        ConstraintSpec("max_word_length", value=3),
        ConstraintSpec("sentence_count_exact", value=2),
        ConstraintSpec("sentence_last_words", words=("cd", "e")),
        ConstraintSpec("per_sentence_word_bounds", min_value=1, max_value=3),
    ]

    def test_full_agreement_and_quoted_examples(self):
        with criterion(9, "verifier agrees with independent naive oracle"):
            for spec in self.SPECS:
                stream = RandomStream(90_000, "strings", spec.kind)
                for _ in range(1000):
                    text = _random_text(stream)
                    assert verify([spec], text).passed == naive_check(spec, text), \
                        f"{spec.kind} disagrees on {text!r}"

            # Valid sentence for the 18-word positioned-words task family.
            fig_sentence = ("The students at Glasgow met new friends in the "
                            "halls and shared stories about their summer "
                            "travels today.")
            fig_specs = [
                ConstraintSpec("word_count_exact", value=18),
                ConstraintSpec("positioned_words",
                               positions=((4, "Glasgow"), (8, "in"), (11, "and"))),
            ]
            assert verify(fig_specs, fig_sentence).passed

            # Chain-of-thought failures: 90 characters where 82 were asked;
            # targets at word slots 8 and 11 missed.
            cot_chars = ("The sun sets slowly over the ocean, painting the "
                         "sky with hues of orange and pink delight.")
            assert len(cot_chars) == 90
            assert not verify([ConstraintSpec("char_count_exact", value=82)],
                              cot_chars).passed
            cot_words = ("The museum's vast collection included a fascinating "
                         "exhibit titled Noise, featuring the Testament of "
                         "artifacts.")
            report = verify(
                [ConstraintSpec("positioned_words",
                                positions=((4, "collection"), (8, "Noise"),
                                           (11, "Testament")))],
                cot_words)
            assert not report.passed
            assert "exhibit" in report.per_constraint[0][2]


GOOD_PLAN = {
    "plan_version": 1,
    "max_tokens": 8,
    "steps": [{"kind": "force_string", "text": "ab"}],
    "check": [{"kind": "char_count_exact", "value": 2}],
}
BROKEN_PLAN = {
    "plan_version": 1,
    "max_tokens": 64,
    "steps": [{"kind": "loop",
               "until": {"kind": "substring", "value": "zz"},
               "max_iterations": 5,
               "body": [{"kind": "sample_until",
                         "stop": {"kind": "token_count", "value": 1},
                         "mask": {"kind": "explicit", "tokens": ["a", "b"]}}]}],
    "check": [],
}


class TestCriterion10RetrySemantics:
    def _task(self):
        return TaskSpec(prompt_text="write ab",
                        constraints=(ConstraintSpec("char_count_exact", value=2),),
                        task_type="pair")

    def test_exact_retry_counts_and_bernoulli_rate(self):
        with criterion(10, "outer-loop retry semantics"):
            model = UniformModel(Vocabulary.from_tokens(["a", "b", "<eos>"]))
            task = self._task()
            config = InferenceConfig(method="importance", n_particles=4, seed=1)

            scripts = [
                ([GOOD_PLAN], 0),
                ([BROKEN_PLAN, GOOD_PLAN], 1),
                ([BROKEN_PLAN, BROKEN_PLAN, GOOD_PLAN], 2),
            ]
            for docs, expected_retries in scripts:
                result = steer(task, ScriptedSource(list(docs)), model, config,
                               max_retries=3)
                assert result.retries_used == expected_retries
                assert len(result.attempts) == expected_retries + 1

            with pytest.raises(SourceExhausted) as info:
                steer(task, ScriptedSource([BROKEN_PLAN] * 3), model, config,
                      max_retries=3)
            assert len(info.value.result.attempts) == 3

            trials, wins = 1000, 0
            for trial in range(trials):
                stream = RandomStream(100_000, "bern", trial)

                def script(attempt, task_, feedback):
                    return BROKEN_PLAN if stream.uniform() < 0.5 else GOOD_PLAN

                try:
                    steer(task, ScriptedSource(script), model, config,
                          max_retries=3)
                    wins += 1
                except SourceExhausted:
                    pass
            p = 1 - 0.5 ** 3
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(wins / trials - p) <= 3 * sigma, \
                f"success rate {wins / trials:.4f} vs {p} (3s={3 * sigma:.4f})"


class TestCriterion11RecordDeterminism:
    def test_jobs_one_vs_eight_byte_identical(self, tmp_path):
        with criterion(11, "byte-identical records under --jobs 1 vs 8"):
            suites = [
                ("char_suite.tasks", "toy_char.model.json"),
                ("word_suite.tasks", "words.model.json"),
            ]
            for tasks, model in suites:
                for method in ("smc", "importance", "rejection"):
                    contents = []
                    for jobs in ("1", "8"):
                        out = tmp_path / f"{tasks}-{method}-j{jobs}.jsonl"
                        code = cli_main([
                            "run",
                            "--tasks", str(FIXTURES / "tasks" / tasks),
                            "--plans", str(FIXTURES / "plans"),
                            "--model", f"table:{FIXTURES / 'models' / model}",
                            "--method", method, "-N", "16", "--seed", "13",
                            "--jobs", jobs, "--out", str(out),
                        ])
                        assert code == 0
                        contents.append(out.read_bytes())
                    assert contents[0] == contents[1], f"{tasks}/{method} differ"
                    for line in contents[0].splitlines():
                        json.loads(line)  # every line parses as a record


class TestCriterion12ErrorTaxonomy:
    def _assert_diagnostics(self, diag):
        assert isinstance(diag, Diagnostics)
        assert diag.wall_time >= 0.0
        assert diag.steps_executed >= 0
        assert isinstance(diag.ess_trace, list)
        assert isinstance(diag.resample_events, list)

    def test_each_error_class_has_a_triggering_fixture(self):
        with criterion(12, "error taxonomy fixtures"):
            uniform = UniformModel(Vocabulary.from_tokens(["a", "b", "<eos>"]))
            zero_b = load_table_model({
                "vocab": ["a", "b", "<eos>"],
                "rows": [{"context": [], "dist": [1.0, 0.0, 0.0]}],
            })

            mask_plan = _plan({
                "max_tokens": 4,
                "steps": [{"kind": "masked_sample",
                           "mask": {"kind": "explicit", "tokens": ["b"]}}],
            })
            out = run_inference(mask_plan, zero_b,
                                InferenceConfig(method="smc", n_particles=4, seed=1))
            assert isinstance(out.error, MaskEmpty)
            assert out.selected is None
            self._assert_diagnostics(out.diagnostics)

            out = run_inference(parse_plan(BROKEN_PLAN), uniform,
                                InferenceConfig(method="smc", n_particles=4, seed=2))
            assert isinstance(out.error, StepBudgetExceeded)
            self._assert_diagnostics(out.diagnostics)

            slow_plan = _plan({
                "max_tokens": 8,
                "steps": [{"kind": "sample_until",
                           "stop": {"kind": "token_count", "value": 4}}],
            })
            out = run_inference(slow_plan, uniform,
                                InferenceConfig(method="smc", n_particles=4, seed=3,
                                                timeout=0.0))
            assert isinstance(out.error, Timeout)
            self._assert_diagnostics(out.diagnostics)

            dead_plan = _plan({
                "max_tokens": 4,
                "steps": [{"kind": "force_string", "text": "ab"}],
                "check": [{"kind": "char_count_exact", "value": 99}],
            })
            out = run_inference(dead_plan, uniform,
                                InferenceConfig(method="importance",
                                                n_particles=4, seed=4))
            assert isinstance(out.error, AllParticlesDead)
            self._assert_diagnostics(out.diagnostics)
