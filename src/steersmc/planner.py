"""Outer retry loop: fetch a plan, run inference, retry on typed errors.

A plan source is either a fixture library (stored plan documents per
task type), a remote generator speaking the ``/v1/generate_plan``
protocol, or a scripted source for harness-controlled experiments. The
loop makes at most ``max_retries`` total attempts; from the second
attempt onward the source receives deterministic feedback describing
the previous typed error. Runs whose answers merely fail external
verification are not retried; only typed errors are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .constraints import TaskSpec
from .engine import Diagnostics, InferenceConfig, InferenceOutcome, run_inference
from .errors import (
    ParseError,
    RemoteUnavailable,
    SchemaViolation,
    SourceExhausted,
    SteeringError,
)
from .rng import derive_key
from .steering import parse_plan

DEFAULT_PROMPT_TEMPLATE = (
    "Write a steering plan (plan_version 1 JSON) for this task.\n"
    "Task: {task}\n"
    "Previous attempt error: {prior_error}\n"
)


class ProgramSource:
    """Produces plan documents for tasks; see subclasses."""

    kind = "abstract"

    def fetch(self, task: TaskSpec, feedback: str | None) -> dict:
        raise NotImplementedError


class FixtureLibrary(ProgramSource):
    """Stored plan documents keyed by task type.

    Every stored plan is validated at load time. Feedback is accepted
    (and remembered for inspection) but does not change the answer.
    """

    kind = "fixture_library"

    def __init__(self, plans: dict[str, dict]):
        for task_type, doc in plans.items():
            try:
                parse_plan(doc)
            except SteeringError as exc:
                raise SchemaViolation(
                    f"fixture plan for {task_type!r} is invalid: {exc.message}"
                ) from exc
        self._plans = dict(plans)
        self.feedback_log: list[str] = []

    @classmethod
    def from_dir(cls, path: str | Path) -> "FixtureLibrary":
        """Load every ``<task_type>.plan.json`` file in a directory."""
        plans = {}
        for plan_path in sorted(Path(path).glob("*.plan.json")):
            task_type = plan_path.name[:-len(".plan.json")]
            try:
                plans[task_type] = json.loads(plan_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ParseError(f"{plan_path}: invalid JSON: {exc.msg}") from exc
        return cls(plans)

    def task_types(self) -> list[str]:
        return sorted(self._plans)

    def fetch(self, task: TaskSpec, feedback: str | None) -> dict:
        if feedback is not None:
            self.feedback_log.append(feedback)
        doc = self._plans.get(task.task_type)
        if doc is None:
            raise SchemaViolation(f"no fixture plan for task type {task.task_type!r}")
        return doc


class RemoteGenerator(ProgramSource):
    """Plan generator behind ``POST {endpoint}/v1/generate_plan``.

    The prompt template (slots ``{task}`` and ``{prior_error}``) is
    rendered and sent as the request's ``task`` field together with the
    raw feedback and the plan version.
    """

    kind = "remote_generator"

    def __init__(self, endpoint: str, template: str = DEFAULT_PROMPT_TEMPLATE,
                 http_timeout: float = 30.0):
        import requests  # only the remote adapters need it

        self.endpoint = endpoint.rstrip("/")
        self.template = template
        self.http_timeout = http_timeout
        self._session = requests.Session()

    @classmethod
    def from_template_file(cls, endpoint: str, path: str | Path,
                           http_timeout: float = 30.0) -> "RemoteGenerator":
        return cls(endpoint, Path(path).read_text(encoding="utf-8"),
                   http_timeout=http_timeout)

    def fetch(self, task: TaskSpec, feedback: str | None) -> dict:
        import requests

        rendered = self.template.format(task=task.prompt_text,
                                        prior_error=feedback or "none")
        body = {"task": rendered, "feedback": feedback, "plan_version": 1}
        try:
            resp = self._session.post(self.endpoint + "/v1/generate_plan",
                                      json=body, timeout=self.http_timeout)
        except requests.RequestException as exc:
            raise RemoteUnavailable(f"plan endpoint unreachable: {exc}") from exc
        if resp.status_code != 200:
            raise RemoteUnavailable(f"plan endpoint returned HTTP {resp.status_code}")
        try:
            payload = resp.json()
        except ValueError as exc:
            raise SchemaViolation("plan response is not valid JSON") from exc
        if not isinstance(payload, dict) or "plan" not in payload:
            raise SchemaViolation("plan response is missing the 'plan' field")
        return payload["plan"]


class ScriptedSource(ProgramSource):
    """Harness-controlled source: a fixed document sequence or a callable.

    A callable receives ``(attempt_index, task, feedback)`` (attempt
    indices start at 1) and returns a plan document.
    """

    kind = "scripted"

    def __init__(self, script):
        self._script = script
        self._attempt = 0
        self.feedback_seen: list[str | None] = []

    def fetch(self, task: TaskSpec, feedback: str | None) -> dict:
        self._attempt += 1
        self.feedback_seen.append(feedback)
        if callable(self._script):
            return self._script(self._attempt, task, feedback)
        docs = self._script
        return docs[min(self._attempt, len(docs)) - 1]


@dataclass(frozen=True)
class AttemptRecord:
    """What one attempt ran and how it ended."""

    plan_document: dict | None
    error_code: str | None
    selected_text: str | None


@dataclass
class LoopResult:
    """All attempts of one steering run; ``final`` is the last outcome."""

    final: InferenceOutcome
    attempts: list[AttemptRecord] = field(default_factory=list)
    retries_used: int = 0

    @property
    def succeeded(self) -> bool:
        return self.final.error is None


def format_feedback(error: SteeringError, attempt_plan: dict | None) -> str:
    """Deterministic one-line error report fed back to the plan source."""
    clause = "unknown"
    if error.clause_index is not None:
        clause = str(error.clause_index)
        steps = (attempt_plan or {}).get("steps")
        if isinstance(steps, list) and 0 <= error.clause_index < len(steps):
            kind = steps[error.clause_index].get("kind")
            if isinstance(kind, str):
                clause = f"{clause}({kind})"
    step = "unknown" if error.step_index is None else str(error.step_index)
    return (f"inference failed: {error.code}; clause={clause}; "
            f"step={step}; detail={error.message}")


def fetch_plan(source: ProgramSource, task: TaskSpec,
               feedback: str | None = None) -> dict:
    """Ask the source for a plan document (unvalidated; parse separately)."""
    doc = source.fetch(task, feedback)
    if not isinstance(doc, dict):
        raise SchemaViolation("plan source must return a plan object")
    return doc


def _attempt_config(config: InferenceConfig, attempt: int) -> InferenceConfig:
    # First attempt runs under the caller's seed so a successful steer
    # reproduces a direct engine run; retries get derived seeds.
    if attempt == 1:
        return config
    return replace(config, seed=derive_key(config.seed, "attempt", attempt))


def steer(task: TaskSpec, source: ProgramSource, models,
          config: InferenceConfig, max_retries: int = 3) -> LoopResult:
    """Run the fetch/parse/infer loop with at most ``max_retries`` attempts.

    Returns the LoopResult of the first successful attempt; raises
    SourceExhausted (carrying the LoopResult) when every attempt ends in
    a typed error. A successful plan is never re-run.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    attempts: list[AttemptRecord] = []
    feedback: str | None = None
    outcome: InferenceOutcome | None = None
    for attempt in range(1, max_retries + 1):
        doc: dict | None = None
        try:
            doc = fetch_plan(source, task, feedback)
            plan = parse_plan(doc)
        except SteeringError as exc:
            outcome = InferenceOutcome([], None, None, Diagnostics(), error=exc)
        else:
            outcome = run_inference(plan, models, _attempt_config(config, attempt))
        attempts.append(AttemptRecord(
            plan_document=doc,
            error_code=outcome.error_code,
            selected_text=outcome.selected_text,
        ))
        if outcome.error is None:
            return LoopResult(final=outcome, attempts=attempts,
                              retries_used=attempt - 1)
        feedback = format_feedback(outcome.error, doc)
    result = LoopResult(final=outcome, attempts=attempts,
                        retries_used=max_retries - 1)
    raise SourceExhausted(
        f"no successful run after {max_retries} attempts "
        f"(last error: {outcome.error_code})", result=result)
