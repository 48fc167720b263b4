"""Command-line front end: run steering tasks, aggregate, emit traces.

``run`` executes the retry loop per task instance and appends one JSON
record per line to the output; identical flags and seeds yield byte-
identical record files regardless of ``--jobs``. ``eval`` aggregates
records per task type and method. ``trace`` renders one run's per-step
particle weights as a TSV table and a static SVG document.

Wall time is measured but recorded as null unless ``--timing`` is
passed, keeping record files reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from .constraints import TaskSpec, fails, load_tasks
from .engine import InferenceConfig
from .errors import (
    SchemaViolation,
    SourceExhausted,
    SteeringError,
    check_fields,
    check_types,
    is_count,
    read_document,
    read_json_lines,
    read_text,
)
from .evaluation import coherency_proxy, weighted_pass_at_1
from .models import RemoteModel, Vocabulary, load_table_model, train_ngram
from .planner import FixtureLibrary, RemoteGenerator, steer
from .rng import derive_key
from .steering import ModelSet

PLANNER_ENDPOINT_ENV = "STEERSMC_PLANNER_ENDPOINT"
MODEL_ENDPOINT_ENV = "STEERSMC_MODEL_ENDPOINT"

CONFIG_FIELDS = ("method", "n_particles", "ess_threshold", "timeout", "seed",
                 "resample_scheme")

# The record fields ``eval`` reads, each with the types it may hold.
RECORD_FIELDS = {"task_type": str, "method": str, "weighted_pass_at_1": (int, float),
                 "coherency_proxy": (int, float, type(None)), "error": (str, type(None))}
# The fields of a trace payload and of each of its steps, with their types.
TRACE_FIELDS = {"run_id": str, "ess_trace": list, "resample_events": list,
                "ancestors": list, "steps": list}
TRACE_STEP_FIELDS = {"step": int, "weights": list, "texts": list}


def _json_safe(value):
    """Map non-finite floats to null so records stay strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False,
                      allow_nan=False) + "\n"


def build_model(spec: str, args) -> ModelSet:
    """Build the follower model from a ``kind:path-or-url`` spec."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise SystemExit(f"error: --model must look like kind:path, got {spec!r}")
    if kind == "table":
        return ModelSet(proposal=load_table_model(Path(rest)))
    if kind == "ngram":
        corpus = read_text(rest, "ngram corpus")
        model = train_ngram(corpus, order=args.ngram_order,
                            smoothing=args.ngram_smoothing,
                            tokenizer=args.tokenizer)
        return ModelSet(proposal=model)
    if kind == "remote":
        if not args.model_vocab:
            raise SystemExit("error: --model remote:... requires --model-vocab")
        vocab = Vocabulary.from_tokens(
            read_document(Path(args.model_vocab), "model vocab"))
        return ModelSet(proposal=RemoteModel(rest, vocab))
    raise SystemExit(f"error: unknown model kind {kind!r}")


def build_source(args):
    planner_endpoint = args.planner_endpoint or os.environ.get(PLANNER_ENDPOINT_ENV)
    if args.plans:
        return FixtureLibrary.from_dir(args.plans)
    if planner_endpoint:
        return RemoteGenerator(planner_endpoint)
    raise SystemExit("error: need --plans or --planner-endpoint "
                     f"(or ${PLANNER_ENDPOINT_ENV})")


def _merge_config(args) -> dict:
    """Flags > config file > defaults."""
    merged = {}
    if args.config:
        merged.update(check_fields(read_document(Path(args.config), "config file"),
                                   CONFIG_FIELDS, "config"))
    for key in CONFIG_FIELDS:
        if (value := getattr(args, key)) is not None:
            merged[key] = value
    return merged


def run_one_task(index: int, task: TaskSpec, source, models: ModelSet,
                 base: InferenceConfig, args) -> tuple[dict, dict | None]:
    """Execute one task instance; returns (record, trace payload or None)."""
    seed = derive_key(base.seed, "task", index)
    config = replace(base, seed=seed)
    try:
        result = steer(task, source, models, config, max_retries=args.retries)
    except SourceExhausted as exc:
        result = exc.result
    outcome = result.final
    run_id = f"{task.task_type}-{index:03d}-{config.method}-N{config.n_particles}-s{base.seed}"

    if outcome.error is None:
        def passes(text: str) -> bool:
            return not any(fails(spec, text) for spec in task.constraints)

        passed = passes(outcome.selected_text)
        entries = [(c.raw_log_weight, passes(c.text)) for c in outcome.candidates]
        wp1 = weighted_pass_at_1(entries)
        final_doc = result.attempts[-1].plan_document or {}
        prior_tag = final_doc.get("prior_tag", "prior")
        coherency = coherency_proxy(outcome.selected, models.prior, prior_tag)
    else:
        passed = False
        wp1 = 0.0
        coherency = None

    diag = outcome.diagnostics
    ess_summary = None
    if diag.ess_trace:
        ess_summary = {
            "steps": len(diag.ess_trace),
            "final": diag.ess_trace[-1],
            "min": min(diag.ess_trace),
            "max": max(diag.ess_trace),
            "resamples": len(diag.resample_events),
        }
    record = {
        "run_id": run_id,
        "task_type": task.task_type,
        "task_index": index,
        "task_constraints": [c.to_dict() for c in task.constraints],
        "method": config.method,
        "n_particles": config.n_particles,
        "seed": seed,
        "selected": outcome.selected_text,
        "passed": passed,
        "weighted_pass_at_1": wp1,
        "coherency_proxy": _json_safe(coherency),
        "retries_used": result.retries_used,
        "error": outcome.error_code,
        "wall_time": diag.wall_time if args.timing else None,
        "ess_trace": ess_summary,
    }

    trace_payload = None
    if args.trace and diag.per_step_weights is not None:
        trace_payload = {
            "run_id": run_id,
            "ess_trace": diag.ess_trace,
            "resample_events": diag.resample_events,
            "ancestors": diag.ancestors,
            "steps": [
                {"step": t + 1, "weights": w, "texts": x}
                for t, (w, x) in enumerate(zip(diag.per_step_weights,
                                               diag.per_step_texts))
            ],
        }
    return record, trace_payload


def cmd_run(args) -> int:
    try:  # checked before any task runs; each task changes only the seed
        base = InferenceConfig(record_weights=bool(args.trace), **_merge_config(args))
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    if args.retries < 1:
        raise SystemExit("error: --retries must be >= 1")
    if args.jobs < 1:
        raise SystemExit("error: --jobs must be >= 1")
    tasks = load_tasks(args.tasks)
    source = build_source(args)
    model_spec = args.model or (
        f"remote:{os.environ[MODEL_ENDPOINT_ENV]}"
        if os.environ.get(MODEL_ENDPOINT_ENV) else None)
    if not model_spec:
        raise SystemExit(f"error: need --model (or ${MODEL_ENDPOINT_ENV})")
    models = build_model(model_spec, args)

    def worker(pair):
        index, task = pair
        return run_one_task(index, task, source, models, base, args)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(worker, enumerate(tasks)))
    else:
        results = [worker(pair) for pair in enumerate(tasks)]

    out = sys.stdout if args.out in (None, "-") else open(args.out, "w", encoding="utf-8")
    try:
        for record, _ in results:
            out.write(_record_line(record))
    finally:
        if out is not sys.stdout:
            out.close()

    if args.trace:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for record, payload in results:
            if payload is not None:
                path = trace_dir / f"{record['run_id']}.trace.json"
                path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


def _load_records(path: str) -> list[dict]:
    return [check_types(record, RECORD_FIELDS, where)
            for where, record in read_json_lines(path)]


def cmd_eval(args) -> int:
    records: list[dict] = []
    for path in args.records:
        records.extend(_load_records(path))
    groups: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        groups.setdefault((rec["task_type"], rec["method"]), []).append(rec)

    rows = []
    for (task_type, method), recs in sorted(groups.items()):
        wp1 = sum(r["weighted_pass_at_1"] for r in recs) / len(recs)
        coh_values = [r["coherency_proxy"] for r in recs
                      if r["coherency_proxy"] is not None]
        coh = sum(coh_values) / len(coh_values) if coh_values else None
        err_rate = sum(1 for r in recs if r["error"]) / len(recs)
        rows.append((task_type, method, len(recs), wp1, coh, err_rate))

    header = f"{'task_type':<12} {'method':<11} {'runs':>5} {'pass@1':>8} {'coherency':>10} {'err_rate':>9}"
    print(header)
    print("-" * len(header))
    for task_type, method, n, wp1, coh, err in rows:
        coh_text = f"{coh:10.4f}" if coh is not None else f"{'n/a':>10}"
        print(f"{task_type:<12} {method:<11} {n:>5} {wp1:>8.4f} {coh_text} {err:>9.4f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("task_type\tmethod\truns\tweighted_pass_at_1\tcoherency_proxy\terror_rate\n")
            for task_type, method, n, wp1, coh, err in rows:
                coh_text = "" if coh is None else repr(coh)
                fh.write(f"{task_type}\t{method}\t{n}\t{wp1!r}\t{coh_text}\t{err!r}\n")
    return 0


_SVG_COLORS = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d35400",
               "#16a085", "#7f8c8d", "#2c3e50")


def _trace_svg(steps: list[dict]) -> str:
    """Static SVG of normalized-weight trajectories, one line per slot."""
    width, height, pad = 720, 360, 40
    n_steps = len(steps)
    n_particles = len(steps[0]["weights"]) if steps else 0
    max_w = max((w for s in steps for w in s["weights"]), default=1.0) or 1.0

    def x(t):
        return pad + (width - 2 * pad) * (t / max(n_steps - 1, 1))

    def y(w):
        return height - pad - (height - 2 * pad) * (w / max_w)

    lines = []
    for i in range(n_particles):
        pts = " ".join(f"{x(t):.1f},{y(s['weights'][i]):.1f}"
                       for t, s in enumerate(steps))
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        lines.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
    axis = (f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
            f'y2="{height - pad}" stroke="#333"/>'
            f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
            f'stroke="#333"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}">{axis}{"".join(lines)}</svg>')


def _load_trace(path: Path) -> dict:
    """A trace payload, checked to hold what ``cmd_trace`` reads: steps
    of numeric weights and string texts, one of each per particle, as
    many particles in every step as in the first, and for each resample
    event the ancestor slot of every particle."""
    payload = read_document(path, "trace file")
    check_types(check_fields(payload, TRACE_FIELDS, "trace"), TRACE_FIELDS, "trace")
    for i, step in enumerate(payload["steps"]):
        where = f"trace.steps[{i}]"
        check_types(check_fields(step, TRACE_STEP_FIELDS, where), TRACE_STEP_FIELDS, where)
        weights, texts = step["weights"], step["texts"]
        if len(weights) != len(texts) or not all(
                isinstance(w, (int, float)) and not isinstance(w, bool) and isinstance(t, str)
                for w, t in zip(weights, texts)):
            raise SchemaViolation(f"{where}: weights must be numbers and texts strings, "
                                  "one of each per particle")
        first = len(payload["steps"][0]["weights"])
        if len(weights) != first:
            raise SchemaViolation(f"{where}: {len(weights)} particles, but the first "
                                  f"step has {first}")
    n = len(payload["steps"][0]["weights"]) if payload["steps"] else 0
    if len(payload["ancestors"]) != len(payload["resample_events"]):
        raise SchemaViolation("trace.ancestors: one list per resample event required")
    for i, slots in enumerate(payload["ancestors"]):
        if not (isinstance(slots, list) and len(slots) == n
                and all(is_count(a) and a < n for a in slots)):
            raise SchemaViolation(f"trace.ancestors[{i}]: {n} slots in [0, {n}) required")
    return payload


def cmd_trace(args) -> int:
    trace_path = Path(args.trace_dir) / f"{args.run_id}.trace.json"
    if not trace_path.exists():
        raise SystemExit(f"error: no trace stored for run {args.run_id!r} "
                         f"in {args.trace_dir}")
    payload = _load_trace(trace_path)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tsv_path = out_dir / f"{args.run_id}.tsv"
    with open(tsv_path, "w", encoding="utf-8") as fh:
        fh.write("step\tparticle\tweight\ttext\n")
        for step in payload["steps"]:
            for i, (w, text) in enumerate(zip(step["weights"], step["texts"])):
                safe = text.replace("\t", "\\t").replace("\n", "\\n")
                fh.write(f"{step['step']}\t{i}\t{w!r}\t{safe}\n")

    for t, slots in zip(payload["resample_events"], payload["ancestors"]):
        print(f"resample after step {t}: {len(set(slots))} distinct ancestors "
              f"of {len(slots)} particles")
    html_path = out_dir / f"{args.run_id}.html"
    resamples = ", ".join(str(t) for t in payload["resample_events"]) or "none"
    html = (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>trace {args.run_id}</title></head><body>"
        f"<h1>Particle weight trajectories: {args.run_id}</h1>"
        f"<p>Steps: {len(payload['steps'])}; resample events at: {resamples}.</p>"
        + _trace_svg(payload["steps"]) +
        "</body></html>\n"
    )
    html_path.write_text(html, encoding="utf-8")
    print(f"wrote {tsv_path} and {html_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steersmc",
        description="Particle-based steering of token models with declarative plans.")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run steering on a task file")
    runp.add_argument("--tasks", required=True, help="task file (one JSON task per line)")
    runp.add_argument("--plans", help="directory of <task_type>.plan.json fixtures")
    runp.add_argument("--planner-endpoint", help="remote plan generator URL")
    runp.add_argument("--model", help="follower model: table:PATH | ngram:PATH | remote:URL")
    runp.add_argument("--model-vocab", help="vocab JSON (token strings) for remote models")
    runp.add_argument("--method", choices=("smc", "importance", "rejection"))
    runp.add_argument("-N", "--n-particles", type=int, dest="n_particles")
    runp.add_argument("--ess-threshold", type=float, dest="ess_threshold")
    runp.add_argument("--timeout", type=float)
    runp.add_argument("--retries", type=int, default=3)
    runp.add_argument("--seed", type=int)
    runp.add_argument("--resample-scheme", choices=("multinomial", "systematic"),
                      dest="resample_scheme")
    runp.add_argument("--jobs", type=int, default=1)
    runp.add_argument("--trace", action="store_true",
                      help="store per-step particle weights for cmd_trace")
    runp.add_argument("--trace-dir", default="traces")
    runp.add_argument("--timing", action="store_true",
                      help="record measured wall time (breaks byte-level reproducibility)")
    runp.add_argument("--out", help="record file (default: stdout)")
    runp.add_argument("--config", help="JSON config file with InferenceConfig fields")
    runp.add_argument("--ngram-order", type=int, default=2)
    runp.add_argument("--ngram-smoothing", type=float, default=1.0)
    runp.add_argument("--tokenizer", choices=("char", "whitespace"), default="char")
    runp.set_defaults(func=cmd_run)

    evalp = sub.add_parser("eval", help="aggregate record files")
    evalp.add_argument("records", nargs="+", help="record files from `run`")
    evalp.add_argument("--out", help="write the aggregate table as TSV")
    evalp.set_defaults(func=cmd_eval)

    tracep = sub.add_parser("trace", help="render a stored run trace")
    tracep.add_argument("run_id")
    tracep.add_argument("--trace-dir", default="traces")
    tracep.add_argument("--out-dir", default=".")
    tracep.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SteeringError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
