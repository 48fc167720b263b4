#!/usr/bin/env python3
"""The steersmc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; ``src/steersmc`` is imported from
there. Each workload is a closed loop with one client: operations run
back to back in this process, one at a time, and no step uses more
than one worker. One operation is one ``run_inference`` call
(``masked_smc``, ``hinted_long``, ``wide_smc``) or one
``python3 -m steersmc.cli run`` process (``cli_suite``). A round is
one operation on each of the workload's inputs: one for the in-process
workloads, six (two suites x three methods) for ``cli_suite``. Whole
rounds repeat until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (see
``tracer.py``), each per round. Every operation's output is checked;
the last line of standard output is the JSON result. ``--all`` runs
every workload, each in its own process, one after another, prints a
summary and rewrites ``BENCHMARK.json``. ``--write-digests`` stores
this seed's output digests in ``digests.json``; later runs with that
seed must reproduce them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calibration
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RUN_SECONDS = 25
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120

WORKLOADS = {
    "masked_smc": "SMC, N=512, char 3-gram (V=88), only masked_sample clauses: "
                  "mask building per drawn token dominates, so a mask-compiling "
                  "change shows here",
    "hinted_long": "importance sampling, N=64, ~300 unmasked tokens with a hint "
                   "per loop iteration: per-query hint re-encoding and the draw "
                   "dominate; no masks, no resampling",
    "wide_smc": "SMC, N=4096, 12 one-token masked clauses over 9 letters, "
                "resampling every step: engine overhead, resample clones and "
                "shared model queries dominate",
    "cli_suite": "steersmc run processes over both fixture suites x 3 methods, "
                 "N=16: start-up, plan parsing, planner retries and record I/O",
}

# (name, unit, better, bound)
END_TO_END = (
    ("run_wall_s", "s", "lower", 0.25),
    ("run_wall_s.p90", "s", "lower", 0.25),
    ("tokens_per_s", "tokens/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.02),
)

COUNT_METRICS = (
    ("engine.tokens_appended", "tokens", "lower"),
    ("engine.resample.particles_cloned", "count", "lower"),
    ("engine.deaths.budget", "count", "lower"),
    ("engine.deaths.check", "count", "lower"),
    ("engine.deaths.zero_weight", "count", "lower"),
    ("planner.attempts", "count", "lower"),
    ("planner.retries", "count", "lower"),
)
RATIO_METRICS = (
    ("models.distinct_query_frac", "ratio", "higher"),
    ("models.context_len.mean", "tokens", "lower"),
    ("engine.useful_frac", "ratio", "higher"),
)
PER_LAYER = (
    tuple(m for name, _, _ in tracing.LAYERS
          for m in ((f"{name}.calls", "count", "lower"),
                    (f"{name}.self_s", "s", "lower")))
    + (("cli.import_s", "s", "lower"),)
    + COUNT_METRICS + RATIO_METRICS
    + (("trace.overhead_s", "s", "lower"),)
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Environment


def environment(workload: str, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "steersmc").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": git_commit(),
            "src_sha256": src.hexdigest()[:16]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


# ---------------------------------------------------------------------------
# Children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str]) -> tuple[float, float]:
    """Run a child to completion; returns (wall seconds, peak RSS in MB).

    ``os.wait4`` gives the child's own resource usage; a timer kills a
    child that outlives ``CHILD_TIMEOUT_S``.
    """
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.stderr", "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{' '.join(cmd[:4])} ... exited with {proc.returncode}: "
                               + err.read().decode(errors="replace")[-2000:])
    return wall, usage.ru_maxrss / 1024.0


def setup_probes(run: "Run") -> None:
    """Set-up and import times, each in a fresh interpreter. The first
    probe is not counted: it also writes the bytecode caches."""
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "setup", run.workload, str(run.seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        if i:
            probe = json.loads(done.stdout.splitlines()[-1])
            run.setup_s.append(probe["setup_s"])
            run.import_s.append(probe["import_s"])


# ---------------------------------------------------------------------------
# Rounds


class Run:
    """Timings, checks and (when traced) spans of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.speed_samples: list[float] = []
        # Factor from measured to reference-speed operation seconds.
        self.scale = 1.0
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.op_walls: list[float] = []
        self.round_walls: list[float] = []
        self.traced_round_walls: list[float] = []
        self.traced_rounds: list[tuple[dict, dict]] = []
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[str] | None = None
        self.tokens_per_round = 0
        self.ops_per_round = 1

    def check(self, digests: list[str], problems: list[list[str]]) -> None:
        """Count each operation, compare its digest with the reference:
        the digests committed for this seed, else the first round's."""
        if self.reference is None:
            self.reference = digests
        for i, (digest, found) in enumerate(zip(digests, problems)):
            self.attempted += 1
            if digest != self.reference[i]:
                found = found + [f"input {i}: output differs from the reference digest"]
            if found:
                self.failed += 1
                self.problems.extend(found)


class InProcessWorkload:
    # Operations run in this process, so the reference kernel, timed in
    # this process too, tracks their speed (see ``calibration.py``).
    speed_sample = staticmethod(calibration.kernel_seconds)
    speed_reference_s = calibration.REFERENCE_S

    def __init__(self, workload: str, seed: int):
        import steersmc

        self.engine = steersmc.engine
        self.input = workloads.build_in_process(workload, seed)

    def round(self, tracer: tracing.Tracer | None = None, op_id: int = 0):
        """One operation; returns (op walls, digests, problems)."""
        inp = self.input
        # Every operation starts from the same collector state, so the
        # collections it triggers do not depend on the operations before.
        gc.collect()
        if tracer is not None:
            tracer.begin_op(op_id)
            tracer.install()
        try:
            t0 = perf_counter()
            outcome = self.engine.run_inference(inp.plan, inp.models, inp.config)
            wall = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
                tracer.end_op()
        return ([wall], [workloads.outcome_digest(outcome)],
                [workloads.check_outcome(inp, outcome)])

    def traced_round(self, op_id: int):
        tracer = tracing.Tracer()
        walls, digests, problems = self.round(tracer, op_id)
        return walls, digests, problems, tracer.arrays(), tracer.counters

    def warm_up(self):
        """One operation that counts tokens but keeps no spans, so that
        ``peak_rss_mb`` measures the program rather than the tracer;
        returns (digests, problems, tokens appended)."""
        counter = tracing.Tracer(keep_spans=False)
        _, digests, problems = self.round(counter)
        return digests, problems, counter.counters["tokens"]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliWorkload:
    # Process start-up dominates these operations, so a reference
    # process tracks their speed (see ``calibration.py``).
    speed_sample = staticmethod(calibration.process_seconds)
    speed_reference_s = calibration.REFERENCE_PROCESS_S

    def __init__(self, workload: str, seed: int):
        self.peak_rss = 0.0
        OUT.mkdir(exist_ok=True)
        self.invocations = workloads.cli_invocations(seed, OUT)

    def _outputs(self):
        digests, problems = [], []
        for argv in self.invocations:
            data = Path(argv[argv.index("--out") + 1]).read_bytes()
            digests.append(hashlib.sha256(data).hexdigest())
            problems.append(workloads.check_records(data, argv[argv.index("--tasks") + 1]))
        return digests, problems

    def round(self):
        """Six ``steersmc run`` operations, one fresh process each."""
        walls = []
        for argv in self.invocations:
            wall, rss = spawn([sys.executable, "-m", "steersmc.cli", *argv])
            walls.append(wall)
            self.peak_rss = max(self.peak_rss, rss)
        return (walls, *self._outputs())

    def traced_round(self, op_id: int):
        import numpy as np

        walls, parts, counters = [], [], {k: 0 for k in tracing.COUNTERS}
        for i, argv in enumerate(self.invocations):
            spans = OUT / "cli-trace.npz"
            wall, _ = spawn([sys.executable, str(HERE / "probe.py"), "trace-cli",
                             str(spans), "--", *argv])
            walls.append(wall)
            with np.load(spans) as saved:
                part = {k: saved[k] for k in ("name", "start", "end", "parent", "op")}
                for key, value in json.loads(str(saved["counters"])).items():
                    counters[key] += value
            part["op"] = np.full_like(part["op"], op_id * len(self.invocations) + i)
            parts.append(part)
        return (walls, *self._outputs(), tracing.merge(parts), counters)

    def warm_up(self):
        """One traced round; returns (digests, problems, tokens appended)."""
        _, digests, problems, _, counters = self.traced_round(0)
        return digests, problems, counters["tokens"]

    def peak_rss_mb(self) -> float:
        return self.peak_rss


def measure(workload: str, seed: int, seconds: float, traced: bool,
            reference: list[str] | None) -> Run:
    """Time and check the workload's rounds; every operation's digest must
    equal ``reference``, or the warm-up round's when it is None."""
    run = Run(workload, seed, seconds)
    run.reference = reference
    setup_probes(run)
    bench = (CliWorkload if workload == "cli_suite" else InProcessWorkload)(workload, seed)

    # Warm-up round: fills caches, and counts the tokens appended by
    # every execute_step call.
    digests, problems, run.tokens_per_round = bench.warm_up()
    run.check(digests, problems)

    deadline = perf_counter() + seconds
    while True:
        walls, digests, problems = bench.round()
        run.speed_samples.append(bench.speed_sample())
        run.check(digests, problems)
        run.op_walls.extend(walls)
        run.round_walls.append(sum(walls))
        run.ops_per_round = len(walls)
        if traced:
            walls, digests, problems, arrays, counters = bench.traced_round(
                len(run.traced_rounds))
            run.speed_samples.append(bench.speed_sample())
            run.check(digests, problems)
            run.traced_round_walls.append(sum(walls))
            run.traced_rounds.append((arrays, counters))
        if perf_counter() >= deadline:
            break
    run.scale = calibration.scale(run.speed_samples, bench.speed_reference_s)
    run.peak_rss_mb = bench.peak_rss_mb()
    return run


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float], expected_ops: float, floor: float) -> tuple[float, int]:
    """The highest nearest-rank percentile, at most p90, with at least
    ten operations beyond it in a run of ``expected_ops`` operations,
    and never below ``floor`` (``run_wall_s``); returns it and the
    percentile.

    ``expected_ops`` is the run length over the rescaled operation time,
    not the operations made: on a host whose speed drifts, the count
    made would move the percentile itself from run to run.
    """
    level = min(max(1.0 - 10.0 / expected_ops, 0.5), 0.9)
    ordered = sorted(values)
    rank = math.ceil(level * len(ordered))
    return max(ordered[rank - 1], floor), round(100 * level)


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    k = run.scale
    per_op = statistics.median(run.round_walls) / run.ops_per_round
    p90, level = tail(run.op_walls, run.seconds / (per_op * k), per_op)
    values = {
        "run_wall_s": per_op * k,
        "run_wall_s.p90": p90 * k,
        "tokens_per_s": run.tokens_per_round / (statistics.median(run.round_walls) * k),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": run.peak_rss_mb,
    }
    notes = [f"run_wall_s.p90 is the p{level} of {len(run.op_walls)} operations "
             f"({len(run.round_walls)} rounds)"
             + (", which is not above run_wall_s, so it equals run_wall_s"
                if p90 == per_op else ""),
             f"operation timings are scaled to the reference speed by {k:.4f}; "
             f"unscaled run_wall_s {per_op:.4f} s",
             f"tokens appended per round: {run.tokens_per_round}",
             f"setup_s over {len(run.setup_s)} fresh interpreters: "
             + ", ".join(f"{v:.4f}" for v in run.setup_s)]
    return values, notes


def per_layer(run: Run) -> tuple[dict, list[str]]:
    names = tracing.NAMES
    k = run.scale
    profiles = [tracing.profile(arrays, names, k) for arrays, _ in run.traced_rounds]
    first_calls = profiles[0]["calls"]
    first_counters = run.traced_rounds[0][1]
    for prof, (_, counters) in zip(profiles[1:], run.traced_rounds[1:]):
        if prof["calls"] != first_calls or counters != first_counters:
            run.problems.append("traced rounds disagree on call counts or counters")
            break
    values = {}
    for name, _, _ in tracing.LAYERS:
        values[f"{name}.calls"] = first_calls[name]
        values[f"{name}.self_s"] = statistics.median(p["self_s"][name] for p in profiles)

    if run.workload == "cli_suite":
        merged = tracing.merge([arrays for arrays, _ in run.traced_rounds])
        is_import = merged["name"] == names.index(tracing.IMPORT_SPAN)
        values["cli.import_s"] = float(statistics.median(
            (merged["end"] - merged["start"])[is_import])) * k
    else:
        values["cli.import_s"] = statistics.median(run.import_s)

    c = first_counters
    values["engine.tokens_appended"] = c["tokens"]
    for name, _, _ in COUNT_METRICS[1:]:
        values[name] = c[name]
    values["models.distinct_query_frac"] = c["models.distinct_queries"] / max(c["models.queries"], 1)
    values["models.context_len.mean"] = c["models.context_len_sum"] / max(c["models.queries"], 1)
    values["engine.useful_frac"] = c["engine.particles_useful"] / max(c["engine.particles_started"], 1)
    traced_wall = statistics.median(run.traced_round_walls) * k
    untraced_wall = statistics.median(run.round_walls) * k
    values["trace.overhead_s"] = traced_wall - untraced_wall

    shares = {n: statistics.median(p["self_s"][n] for p in profiles) / traced_wall
              for n in names}
    shares["(outside spans)"] = 1.0 - sum(shares.values())
    notes = [f"traced rounds: {len(profiles)}; traced round wall {traced_wall:.4f} s; "
             f"untraced {untraced_wall:.4f} s (scaled by {k:.4f})",
             "self-time share of a traced round:"]
    notes += [f"  {share:7.2%}  {n}" for n, share in
              sorted(shares.items(), key=lambda kv: -kv[1]) if abs(share) >= 0.001]
    return values, notes


def save_spans(run: Run) -> Path:
    import numpy as np

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{run.workload}-seed{run.seed}.spans.npz"
    np.savez_compressed(path, names=np.array(tracing.NAMES),
                        **tracing.merge([arrays for arrays, _ in run.traced_rounds]))
    return path


# ---------------------------------------------------------------------------
# Entry points


def run_workload(args) -> int:
    env = environment(args.workload, args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    reference = (None if args.write_digests
                 else workloads.committed_digests(args.workload, args.seed))
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    if args.trace:
        values, notes = per_layer(run)
        notes.append(f"spans written to {save_spans(run).relative_to(ROOT)}")
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values, notes = end_to_end(run)
        units = {n: u for n, u, _, _ in END_TO_END}
    for note in notes:
        print(note)
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"ops_failed_frac = {run.failed / run.attempted!r} "
          f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    if args.write_digests and not run.problems:
        stored = (json.loads(workloads.DIGESTS.read_text(encoding="utf-8"))
                  if workloads.DIGESTS.exists() else {})
        stored.setdefault(args.workload, {})[str(args.seed)] = run.reference
        workloads.DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}
    print(json.dumps(result))
    return 1 if run.problems else 0


def run_all(args) -> int:
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stdout.write(done.stderr)
            return done.returncode
        results[workload] = json.loads(done.stdout.splitlines()[-1])
    print("== summary")
    units = [(n, u) for n, u, *_ in (PER_LAYER if args.trace else END_TO_END)]
    print(f"{'metric':<44}{'unit':<10}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, unit in units:
        cells = "".join(f"{results[w]['metrics'][name]['value']:>14.6g}" for w in WORKLOADS)
        print(f"{name:<44}{unit:<10}{cells}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n",
                                         encoding="utf-8")
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="store this seed's output digests in digests.json")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (SRC / "steersmc" / "__init__.py").is_file():
        print(f"error: no steersmc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
