"""Monte Carlo inference over steering plans.

Three strategies share one lockstep driver over one ``Population``,
whose step t runs the plan's top-level clause t - 1 on every active
particle: importance sampling, sequential Monte Carlo (the same loop
plus ESS-triggered resampling after each step, one ``take`` of the
population's arrays by ancestor index), and rejection sampling (no
weight accounting; completions filtered by the plan check). A step
checks the particles it finishes and sets each slot's one status code
(``steering.execute_step``): a rejected or failed particle already has
weight -inf when the engine reads the weights. The candidates are built
in one pass at the end, their texts decoded from their tokens in one
gather: the run's only decode under a check of text lengths alone. All
randomness flows through counter-based streams keyed on (seed, particle slot, particle step), so
outcomes are bit-identical for a given seed, and importance sampling
coincides exactly with SMC at a zero resample threshold.

Error discipline, shared with the oracle ``brute_force_target``: a dead
end (a spent step budget, or a mask that allows no token or no mass)
fails its particle alone, as it gives its path zero mass in the oracle;
any other typed error ends the run. When every particle failed with one
error type, the run reports the lowest slot's error, carrying its clause
and step; otherwise a run whose weights all vanish is AllParticlesDead.
Wall-clock expiry is Timeout with diagnostics populated up to the
interruption point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from operator import getitem
from typing import NamedTuple

import numpy as np

from .errors import AllParticlesDead, SteeringError, Timeout
from .rng import RandomStream, derive_keys, draw_indices, step_keys
from .steering import (
    ACTIVE,
    DONE,
    FAILED,
    REJECTED,
    ModelSet,
    Population,
    SteeringPlan,
    as_model_set,
    execute_step,
)

NEG_INF = float("-inf")

RESAMPLE_SCHEMES = ("multinomial", "systematic")


@dataclass
class InferenceConfig:
    """Inference strategy and budgets.

    ``ess_threshold`` defaults to half the particle count; zero disables
    resampling entirely.
    """

    method: str = "smc"
    n_particles: int = 16
    ess_threshold: float | None = None
    timeout: float | None = None
    seed: int = 0
    resample_scheme: str = "multinomial"
    record_weights: bool = False

    def __post_init__(self):
        if self.method not in _METHOD_TABLE:
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("n_particles", "seed"):  # a JSON true is not an integer
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must lie in [0, 2**64)")
        if self.resample_scheme not in RESAMPLE_SCHEMES:
            raise ValueError(f"unknown resample scheme {self.resample_scheme!r}")
        for name in ("ess_threshold", "timeout"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if math.isnan(value):
                raise ValueError(f"{name} must not be NaN")
        if self.timeout is not None and self.timeout < 0:
            raise ValueError("timeout must be >= 0")
        if self.ess_threshold is not None and not 0 <= self.ess_threshold <= self.n_particles:
            raise ValueError("ess_threshold must lie in [0, n_particles]")

    def resolved_ess_threshold(self) -> float:
        return self.n_particles / 2 if self.ess_threshold is None else self.ess_threshold


@dataclass
class Diagnostics:
    """Per-run instrumentation for debugging and trace emission; the
    per-step weights and texts and each resample event's ancestor slots
    are kept only under ``record_weights``."""

    ess_trace: list[float] = field(default_factory=list)
    resample_events: list[int] = field(default_factory=list)
    per_step_weights: list[list[float]] | None = None
    per_step_texts: list[list[str]] | None = None
    ancestors: list[list[int]] | None = None
    steps_executed: int = 0
    wall_time: float = 0.0


class WeightedCandidate(NamedTuple):
    """One finished (or failed) completion with its normalized weight."""

    tokens: tuple[int, ...]
    normalized_weight: float
    passed_check: bool
    raw_log_weight: float
    text: str


@dataclass
class InferenceOutcome:
    """Candidates plus a selected answer, or a typed error."""

    candidates: list[WeightedCandidate]
    selected: tuple[int, ...] | None
    selected_text: str | None
    diagnostics: Diagnostics
    error: SteeringError | None = None

    @property
    def error_code(self) -> str | None:
        return None if self.error is None else self.error.code

    @property
    def succeeded(self) -> bool:
        return self.error is None


def log_sum_exp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.sum(np.exp(values - m))))


def normalize_weights(raw_log_weights) -> np.ndarray:
    """Stable softmax of log weights; -inf maps to exactly 0."""
    raw = np.asarray(raw_log_weights, dtype=np.float64)
    m = float(np.max(raw))
    if m == NEG_INF:
        raise AllParticlesDead("no particle carries finite weight")
    w = np.exp(raw - m)
    return w / w.sum()


def effective_sample_size(normalized_weights) -> float:
    """Inverse sum of squared normalized weights, in [1, N]."""
    w = np.asarray(normalized_weights, dtype=np.float64)
    return 1.0 / float(np.sum(w * w))


def resample(population: Population, normalized_weights, scheme: str,
             rng: RandomStream) -> Population:
    """Draw an ancestor population proportional to the weights: one
    ``take`` of every array by the ancestor slots, which the result
    keeps as ``ancestors``.

    Multinomial draws ancestors i.i.d.; systematic uses one uniform
    offset on a stratified grid (under uniform weights every particle is
    copied exactly once). Both pick by ``draw_indices``, so a particle
    of weight zero is never copied. Every survivor's log weight is reset to the
    log-mean of the pre-resample unnormalized weights, which preserves
    the running normalizing-constant estimate.
    """
    n = len(population)
    log_mean = log_sum_exp(population.log_weights) - math.log(n)
    if scheme == "multinomial":
        points = rng.uniforms(n)
    elif scheme == "systematic":
        points = (np.arange(n) + rng.uniform()) / n
    else:
        raise ValueError(f"unknown resample scheme {scheme!r}")
    ancestors = draw_indices(np.asarray(normalized_weights, dtype=np.float64), 1.0, points)
    out = population.take(ancestors)
    out.log_weights[:] = log_mean
    return out


def select_answer(candidates: list[WeightedCandidate],
                  rng: RandomStream) -> tuple[int, ...]:
    """Pick a final answer with probability proportional to its weight."""
    if not candidates:
        raise AllParticlesDead("no candidates to select from")
    weights = np.array([c.normalized_weight for c in candidates])
    if float(weights.sum()) <= 0.0:
        raise AllParticlesDead("candidate weights are all zero")
    return candidates[rng.choice(weights)].tokens


def _run_lockstep(plan: SteeringPlan, models: ModelSet, config: InferenceConfig,
                  *, resample_enabled: bool, weighted: bool) -> tuple:
    """Lockstep loop of every method: returns (population, diagnostics, error|None).

    Step t runs top-level clause t - 1 on every active particle, so a
    run takes at most ``max(1, len(plan.steps))`` steps; an empty plan
    takes one, which ends every particle with no tokens.
    """
    start = time.monotonic()
    deadline = start + config.timeout if config.timeout is not None else None
    n = config.n_particles
    tau = config.resolved_ess_threshold()
    pop = Population(n, models.vocabulary)
    slot_keys = derive_keys(config.seed, "particle", n)
    diag = Diagnostics()
    if config.record_weights:
        diag.per_step_weights, diag.per_step_texts, diag.ancestors = [], [], []
    error: SteeringError | None = None

    try:
        for t in range(1, max(1, len(plan.steps)) + 1):
            if deadline is not None and time.monotonic() > deadline:
                raise Timeout("wall-clock budget exhausted")
            diag.steps_executed = t
            stepped = pop.status == ACTIVE
            # A dead end fails only its particle; any other typed error
            # (Timeout, remote or schema trouble) ends the run. A run
            # that keeps no weights has its steps compute no score.
            execute_step(plan, t - 1, pop, models, step_keys(slot_keys, t),
                         deadline=deadline, weighted=weighted)
            for s in np.flatnonzero(stepped & (pop.status == FAILED)).tolist():
                pop.errors[s].step_index = t
            if weighted:
                if float(np.max(pop.log_weights)) == NEG_INF:
                    error = _dead_population_error(pop, t)
                    break
                norm = normalize_weights(pop.log_weights)
                ess = effective_sample_size(norm)
                diag.ess_trace.append(ess)
                if config.record_weights:
                    diag.per_step_weights.append(norm.tolist())
                    diag.per_step_texts.append(pop.texts(np.arange(n)))
                if resample_enabled and ess < tau:
                    stream = RandomStream(config.seed, "resample", t)
                    pop = resample(pop, norm, config.resample_scheme, stream)
                    diag.resample_events.append(t)
                    if config.record_weights:
                        diag.ancestors.append(pop.ancestors.tolist())
            if not (pop.status == ACTIVE).any():
                break
    except SteeringError as exc:
        exc.step_index, error = t, exc
    diag.wall_time = time.monotonic() - start
    return pop, diag, error


def _dead_population_error(pop: Population, step: int) -> SteeringError:
    """Escalate a fully dead population to its most specific error: when
    every particle failed, all with one error type, the lowest slot's own
    error (it carries its clause and step); else AllParticlesDead."""
    errors = pop.errors
    if ((pop.status == FAILED).all() and len(errors) == len(pop)
            and len({type(e) for e in errors.values()}) == 1):
        return errors[0]
    err = AllParticlesDead("no particle carries finite weight")
    err.step_index = step
    return err


def _candidates(pop: Population, weights, passed, raw) -> list[WeightedCandidate]:
    """One candidate per slot, in slot order, with these normalized
    weights, check results and raw log weights (lists), built in one
    pass."""
    lengths = pop.lengths.tolist()
    rows = pop.tokens[:, :max(lengths)].tolist()
    tokens = map(tuple, map(getitem, rows, map(slice, lengths)))  # row[:length] each
    return list(map(partial(tuple.__new__, WeightedCandidate),
                    zip(tokens, weights, passed, raw, pop.texts(np.arange(len(pop))))))


def _weighted_candidates(pop: Population) -> list[WeightedCandidate]:
    """Softmax-weighted candidates. Some weight is finite: a weighted
    run whose step leaves none ends in an error (``_run_lockstep``)."""
    raw = pop.log_weights
    return _candidates(pop, normalize_weights(raw).tolist(), (pop.status == DONE).tolist(),
                       raw.tolist())


def _rejection_candidates(pop: Population) -> list[WeightedCandidate]:
    """Uniform weight over finished completions that pass the check;
    empty when no particle finished."""
    passed = pop.status == DONE
    finished = passed | (pop.status == REJECTED)
    if not finished.any():
        return []
    share = 1.0 / np.count_nonzero(passed) if passed.any() else 0.0
    return _candidates(pop, np.where(passed, share, 0.0).tolist(), passed.tolist(),
                       np.where(finished, 0.0, NEG_INF).tolist())


# method -> (resample, weighted, candidate builder). Importance sampling
# is SMC that never resamples; rejection keeps no weights and filters
# completions by the plan check.
_METHOD_TABLE = {
    "smc": (True, True, _weighted_candidates),
    "importance": (False, True, _weighted_candidates),
    "rejection": (False, False, _rejection_candidates),
}


def run_inference(plan: SteeringPlan, models, config: InferenceConfig) -> InferenceOutcome:
    """Run the method named by ``config.method`` and select an answer."""
    resample_enabled, weighted, build_candidates = _METHOD_TABLE[config.method]
    models = as_model_set(models)
    pop, diag, error = _run_lockstep(plan, models, config,
                                     resample_enabled=resample_enabled, weighted=weighted)
    candidates = []
    if error is None:
        candidates = build_candidates(pop)
        if not candidates:
            error = _dead_population_error(pop, diag.steps_executed)
        elif not any(c.normalized_weight > 0.0 for c in candidates):
            error = AllParticlesDead("no completion passed the check")
            error.step_index = diag.steps_executed
    if error is not None:
        return InferenceOutcome(candidates, None, None, diag, error=error)
    selected = select_answer(candidates, RandomStream(config.seed, "select"))
    return InferenceOutcome(candidates, selected, models.vocabulary.decode(selected), diag)
