"""Per-layer tracing of steersmc from outside the program.

``Tracer.install`` replaces each public function in ``LAYERS`` by a
wrapper everywhere the name is looked up: in every ``steersmc`` module
namespace that binds it (``steersmc.engine.execute_step``,
``steersmc.planner.run_inference``, ``steersmc.cli.steer``, ...) and,
for methods, on the class (``TokenModel.next_distribution``,
``MaskSpec.build``, ``RandomStream.choice``). ``restore`` puts every
original back.

Each wrapped call becomes a span kept in memory (name, start, end,
parent span, operation id) until the benchmark writes them out. A
span's self time is its duration minus the time its child spans cover;
the wrappers' own bookkeeping is charged to the caller's self time.

The counters are derived only from wrapper arguments and return
values, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute path) for every wrapped function.
LAYERS = (
    ("steering.MaskSpec.build", "steersmc.steering", "MaskSpec.build"),
    ("steering.execute_step", "steersmc.steering", "execute_step"),
    ("steering.run_check", "steersmc.steering", "run_check"),
    ("steering.parse_plan", "steersmc.steering", "parse_plan"),
    ("models.TokenModel.next_distribution", "steersmc.models",
     "TokenModel.next_distribution"),
    ("models.TokenModel.sequence_logprob", "steersmc.models",
     "TokenModel.sequence_logprob"),
    ("rng.RandomStream.choice", "steersmc.rng", "RandomStream.choice"),
    ("rng.derive_key", "steersmc.rng", "derive_key"),
    ("engine.run_inference", "steersmc.engine", "run_inference"),
    ("engine.resample", "steersmc.engine", "resample"),
    ("engine.normalize_weights", "steersmc.engine", "normalize_weights"),
    ("engine.effective_sample_size", "steersmc.engine", "effective_sample_size"),
    ("engine.select_answer", "steersmc.engine", "select_answer"),
    ("planner.steer", "steersmc.planner", "steer"),
    ("planner.FixtureLibrary.from_dir", "steersmc.planner", "FixtureLibrary.from_dir"),
    ("cli.main", "steersmc.cli", "main"),
    ("cli.run_one_task", "steersmc.cli", "run_one_task"),
    ("cli.build_model", "steersmc.cli", "build_model"),
    ("constraints.verify", "steersmc.constraints", "verify"),
    ("evaluation.coherency_proxy", "steersmc.evaluation", "coherency_proxy"),
    ("evaluation.weighted_pass_at_1", "steersmc.evaluation", "weighted_pass_at_1"),
)

# Pseudo-span for ``import steersmc.cli`` in a fresh interpreter.
IMPORT_SPAN = "cli.import"

NAMES = tuple(name for name, _, _ in LAYERS) + (IMPORT_SPAN,)

COUNTERS = (
    "tokens",
    "models.queries",
    "models.distinct_queries",
    "models.context_len_sum",
    "engine.particles_started",
    "engine.particles_useful",
    "engine.resample.particles_cloned",
    "engine.deaths.budget",
    "engine.deaths.check",
    "engine.deaths.zero_weight",
    "planner.attempts",
    "planner.retries",
)


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counters = {k: 0 for k in COUNTERS}
        self._stack: list[int] = []
        self._query_keys: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- operations --------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._query_keys = set()

    def end_op(self) -> None:
        self.counters["models.distinct_queries"] += len(self._query_keys)
        self._query_keys = set()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside a wrapper (the CLI import)."""
        self._push(NAMES.index(name), start)
        self.end[self._stack.pop()] = end

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import steersmc  # noqa: F401  (loads every module the layers name)
        import steersmc.cli  # noqa: F401

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "steersmc" or key.startswith("steersmc."))]
        for nid, (_, module, path) in enumerate(LAYERS):
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(nid, raw.__func__)))
                continue
            wrapper = self._wrap(nid, raw)
            self._patch(owner, attr, wrapper)
            if not cls_path:
                for mod in modules:
                    if mod is not owner and mod.__dict__.get(attr) is raw:
                        self._patch(mod, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- spans -------------------------------------------------------------

    def _push(self, nid: int, start: float) -> None:
        self._stack.append(len(self.start))
        self.name.append(nid)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.op.append(self.op_id)

    def _wrap(self, nid: int, fn):
        before = _BEFORE.get(LAYERS[nid][0])
        after = _AFTER.get(LAYERS[nid][0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            keep = tracer.keep_spans
            if keep:
                tracer._push(nid, perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if keep:
                    tracer.end[tracer._stack.pop()] = perf_counter()
                if after is not None:
                    after(tracer, args, kwargs, None, exc)
                raise
            if keep:
                tracer.end[tracer._stack.pop()] = perf_counter()
            if after is not None:
                after(tracer, args, kwargs, result, None)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        import numpy as np

        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32)}


def merge(parts: list[dict]) -> dict:
    """Concatenate span arrays, shifting parent indices to match."""
    import numpy as np

    out, offset = {k: [] for k in ("name", "start", "end", "parent", "op")}, 0
    for part in parts:
        for key, values in part.items():
            out[key].append(np.where(values >= 0, values + offset, values)
                            if key == "parent" else values)
        offset += len(part["name"])
    return {k: np.concatenate(v) for k, v in out.items()}


def profile(arrays: dict, names, scale: float = 1.0) -> dict[str, dict]:
    """Per-name call count and summed self time of a set of spans, with
    times multiplied by ``scale``."""
    import numpy as np

    dur = (arrays["end"] - arrays["start"]) * scale
    child = np.zeros_like(dur)
    has_parent = arrays["parent"] >= 0
    np.add.at(child, arrays["parent"][has_parent], dur[has_parent])
    self_s = dur - child
    calls = np.bincount(arrays["name"], minlength=len(names))
    self_sum = np.bincount(arrays["name"], weights=self_s, minlength=len(names))
    return {"calls": {n: int(calls[i]) for i, n in enumerate(names)},
            "self_s": {n: float(self_sum[i]) for i, n in enumerate(names)}}


# -- counter hooks -----------------------------------------------------------


def _query(tracer, args, kwargs):
    query = args[1] if len(args) > 1 else kwargs["query"]
    c = tracer.counters
    c["models.queries"] += 1
    c["models.context_len_sum"] += len(query.context)
    if tracer.keep_spans:
        tracer._query_keys.add(hash((query.context, query.prompt_tag, query.hints)))


def _started(tracer, args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    tracer.counters["engine.particles_started"] += config.n_particles


def _finished(tracer, args, kwargs, outcome, exc):
    if outcome is not None:
        tracer.counters["engine.particles_useful"] += sum(
            1 for c in outcome.candidates
            if c.passed_check and math.isfinite(c.raw_log_weight))


def _stepped(tracer, args, kwargs, update, exc):
    c = tracer.counters
    if exc is not None:
        if type(exc).__name__ == "StepBudgetExceeded":
            c["engine.deaths.budget"] += 1
        return
    c["tokens"] += len(update.appended_tokens)
    if update.log_score_update == -math.inf:
        c["engine.deaths.zero_weight"] += 1


def _checked(tracer, args, kwargs, passed, exc):
    if passed is False:
        tracer.counters["engine.deaths.check"] += 1


def _resampled(tracer, args, kwargs, particles, exc):
    if particles is not None:
        tracer.counters["engine.resample.particles_cloned"] += len(particles)


def _steered(tracer, args, kwargs, result, exc):
    result = getattr(exc, "result", None) if result is None else result
    if result is not None:
        tracer.counters["planner.attempts"] += len(result.attempts)
        tracer.counters["planner.retries"] += result.retries_used


_BEFORE = {
    "models.TokenModel.next_distribution": _query,
    "engine.run_inference": _started,
}
_AFTER = {
    "engine.run_inference": _finished,
    "steering.execute_step": _stepped,
    "steering.run_check": _checked,
    "engine.resample": _resampled,
    "planner.steer": _steered,
}
