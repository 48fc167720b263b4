"""Particle-based steering of autoregressive token models.

Declarative steering plans drive a token model through masked sampling,
forced observations, self-hints, and a final check; the inference
engine approximates the induced target distribution with importance
sampling, SMC, or rejection sampling, and an outer loop retries failed
plans with error feedback.
"""

from .constraints import (
    ConstraintSpec,
    TaskSpec,
    VerificationReport,
    constraint_from_dict,
    fails,
    generate_task_instances,
    load_tasks,
    sentences,
    strip_word,
    task_from_dict,
    verify,
    words,
)
from .engine import (
    Diagnostics,
    InferenceConfig,
    InferenceOutcome,
    WeightedCandidate,
    effective_sample_size,
    normalize_weights,
    resample,
    run_inference,
    select_answer,
)
from .errors import (
    AllParticlesDead,
    EmptyCorpus,
    EnumerationTooLarge,
    InvalidContext,
    MaskEmpty,
    ParseError,
    ProtocolError,
    RemoteUnavailable,
    RowNotNormalized,
    SchemaViolation,
    SourceExhausted,
    SteeringError,
    StepBudgetExceeded,
    Timeout,
    UnboundVariable,
)
from .evaluation import (
    TargetTable,
    brute_force_target,
    coherency_proxy,
    total_variation,
    weighted_pass_at_1,
)
from .models import (
    ModelQuery,
    NgramModel,
    RemoteModel,
    TableModel,
    TokenModel,
    UniformModel,
    Vocabulary,
    load_table_model,
    train_ngram,
)
from .planner import (
    AttemptRecord,
    FixtureLibrary,
    LoopResult,
    ProgramSource,
    RemoteGenerator,
    ScriptedSource,
    fetch_plan,
    format_feedback,
    steer,
)
from .plans import MaskSpec, SteeringPlan, StepClause, StopSpec, parse_plan
from .rng import RandomStream, derive_key
from .steering import (
    ModelSet,
    Population,
    StepUpdate,
    as_model_set,
    execute_step,
    run_check,
)

__version__ = "0.1.0"
