"""Monte Carlo inference over steering plans.

Three strategies share one lockstep driver, whose step t runs the
plan's top-level clause t - 1 on every active particle: importance
sampling, sequential Monte Carlo (the same loop plus ESS-triggered
resampling after each step), and rejection sampling (no weight
accounting; completions filtered by the plan check). All randomness flows through counter-based streams keyed
on (seed, particle slot, particle step), so outcomes are bit-identical
for a given seed, and importance sampling coincides exactly with SMC at
a zero resample threshold.

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

import numpy as np

from .errors import AllParticlesDead, SteeringError, Timeout
from .rng import RandomStream, derive_key, draw_indices, step_keys
from .steering import (
    ACTIVE,
    DONE,
    FAILED,
    ModelSet,
    Particle,
    SteeringPlan,
    as_model_set,
    execute_step,
    run_check,
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
    """Per-run instrumentation for debugging and trace emission."""

    ess_trace: list[float] = field(default_factory=list)
    resample_events: list[int] = field(default_factory=list)
    per_step_weights: list[list[float]] | None = None
    per_step_texts: list[list[str]] | None = None
    steps_executed: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class WeightedCandidate:
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


def resample(particles: list[Particle], normalized_weights, scheme: str,
             rng: RandomStream) -> list[Particle]:
    """Draw an ancestor population proportional to the weights.

    Multinomial draws ancestors i.i.d.; systematic uses one uniform
    offset on a stratified grid (under uniform weights every particle is
    copied exactly once). Both pick by ``draw_indices``, so a particle
    of weight zero is never copied. Every survivor's log weight is reset to the
    log-mean of the pre-resample unnormalized weights, which preserves
    the running normalizing-constant estimate.
    """
    n = len(particles)
    raw = np.array([p.log_weight for p in particles])
    log_mean = log_sum_exp(raw) - math.log(n)
    if scheme == "multinomial":
        points = rng.uniforms(n)
    elif scheme == "systematic":
        points = (np.arange(n) + rng.uniform()) / n
    else:
        raise ValueError(f"unknown resample scheme {scheme!r}")
    ancestors = draw_indices(np.asarray(normalized_weights, dtype=np.float64), 1.0, points)
    out = []
    for a in ancestors:
        child = particles[int(a)].clone()
        child.log_weight = log_mean
        out.append(child)
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
    """Lockstep loop of every method: returns (particles, diagnostics, error|None).

    Step t runs top-level clause t - 1 on every active particle, so a
    run takes at most ``max(1, len(plan.steps))`` steps; an empty plan
    takes one, which ends every particle with no tokens.
    """
    start = time.monotonic()
    deadline = start + config.timeout if config.timeout is not None else None
    n = config.n_particles
    tau = config.resolved_ess_threshold()
    particles = [Particle() for _ in range(n)]
    slot_keys = np.array([derive_key(config.seed, "particle", slot) for slot in range(n)],
                         dtype=np.uint64)
    diag = Diagnostics()
    if config.record_weights:
        diag.per_step_weights = []
        diag.per_step_texts = []
    error: SteeringError | None = None

    try:
        for t in range(1, max(1, len(plan.steps)) + 1):
            if deadline is not None and time.monotonic() > deadline:
                raise Timeout("wall-clock budget exhausted")
            diag.steps_executed = t
            slots = [s for s, p in enumerate(particles) if p.status == ACTIVE]
            active = [particles[s] for s in slots]
            # A dead end fails only its particle; any other typed error
            # (Timeout, remote or schema trouble) ends the run.
            execute_step(plan, t - 1, active, models, step_keys(slot_keys[slots], t),
                         deadline=deadline)
            for particle in active:
                if particle.status == FAILED:
                    particle.error.step_index = t
                elif particle.status == DONE:
                    ok = run_check(plan, particle.tokens, models.vocabulary)
                    particle.passed_check = ok
                    if weighted and not ok:
                        particle.log_weight = NEG_INF
            if weighted:
                raw = np.array([p.log_weight for p in particles])
                if float(np.max(raw)) == NEG_INF:
                    error = _dead_population_error(particles, t)
                    break
                norm = normalize_weights(raw)
                ess = effective_sample_size(norm)
                diag.ess_trace.append(ess)
                if config.record_weights:
                    diag.per_step_weights.append([float(w) for w in norm])
                    diag.per_step_texts.append([p.text for p in particles])
                if resample_enabled and ess < tau:
                    stream = RandomStream(config.seed, "resample", t)
                    particles = resample(particles, norm,
                                         config.resample_scheme, stream)
                    diag.resample_events.append(t)
            if all(p.status != ACTIVE for p in particles):
                break
    except SteeringError as exc:
        exc.step_index, error = t, exc
    diag.wall_time = time.monotonic() - start
    return particles, diag, error


def _dead_population_error(particles: list[Particle], step: int) -> SteeringError:
    """Escalate a fully dead population to its most specific error: when
    every particle failed, all with one error type, the lowest slot's own
    error (it carries its clause and step); else AllParticlesDead."""
    if (all(p.status == FAILED for p in particles)
            and len({type(p.error) for p in particles}) == 1):
        return particles[0].error
    err = AllParticlesDead("no particle carries finite weight")
    err.step_index = step
    return err


def _weighted_candidates(particles: list[Particle]) -> list[WeightedCandidate]:
    """Softmax-weighted candidates; empty when no weight is finite."""
    raw = np.array([p.log_weight for p in particles])
    if float(np.max(raw)) == NEG_INF:
        return []
    norm = normalize_weights(raw)
    return [
        WeightedCandidate(
            tokens=tuple(p.tokens),
            normalized_weight=float(norm[i]),
            passed_check=bool(p.passed_check),
            raw_log_weight=float(raw[i]),
            text=p.text,
        )
        for i, p in enumerate(particles)
    ]


def _rejection_candidates(particles: list[Particle]) -> list[WeightedCandidate]:
    """Uniform weight over finished completions that pass the check;
    empty when no particle finished."""
    if not any(p.status == DONE for p in particles):
        return []
    passers = sum(1 for p in particles if p.status == DONE and p.passed_check)
    candidates = []
    for p in particles:
        finished = p.status == DONE
        passed = finished and bool(p.passed_check)
        candidates.append(WeightedCandidate(
            tokens=tuple(p.tokens),
            normalized_weight=(1.0 / passers) if passed else 0.0,
            passed_check=passed,
            raw_log_weight=0.0 if finished else NEG_INF,
            text=p.text,
        ))
    return candidates


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
    particles, diag, error = _run_lockstep(plan, models, config,
                                           resample_enabled=resample_enabled,
                                           weighted=weighted)
    candidates = []
    if error is None:
        candidates = build_candidates(particles)
        if not candidates:
            error = _dead_population_error(particles, diag.steps_executed)
        elif not any(c.normalized_weight > 0.0 for c in candidates):
            error = AllParticlesDead("no completion passed the check")
            error.step_index = diag.steps_executed
    if error is not None:
        return InferenceOutcome(candidates, None, None, diag, error=error)
    selected = select_answer(candidates, RandomStream(config.seed, "select"))
    return InferenceOutcome(candidates, selected, models.vocabulary.decode(selected), diag)
