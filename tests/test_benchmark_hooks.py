"""The benchmark's hooks into the program still hold.

``perfbench/tracer.py`` wraps the functions it names in ``LAYERS`` from
outside the program, and counts the tokens each ``execute_step`` call
appends; that count is the numerator of ``tokens_per_s``. It is loaded
here by path, as the benchmark loads it, so that a renamed layer, a
changed ``StepUpdate`` or a step that bypasses ``execute_step`` fails
here and not only in the benchmark run. Its ``engine.resample`` hook
takes ``len()`` of what ``resample`` returns, and the benchmark installs
the tracer for its warm-up even untraced, so a population without
``len()`` would fail every benchmark operation. Its ``steering.run_check``
hook counts one check per finished particle and one
``engine.deaths.check`` per rejected one, for a check that reads more
than text lengths, so such a check skipped or run twice fails here too.
A check of ``char_count_exact`` specs alone, or none, is decided on
``Population.text_lengths`` without ``run_check``, so the hook counts
nothing for it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import steersmc
from steersmc import InferenceConfig, UniformModel, Vocabulary, parse_plan, steering

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(layers) -> dict:
    """Every place a layer's function is bound: its owner (module or
    class) and each ``steersmc`` module namespace that also binds it."""
    modules = {key: m for key, m in sys.modules.items()
               if m is not None and (key == "steersmc" or key.startswith("steersmc."))}
    out = {}
    for _, module, path in layers:
        owner = modules[module]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        out[(module, path)] = raw
        if not cls_path:
            for key, mod in modules.items():
                if mod.__dict__.get(attr) is raw:
                    out[(key, attr)] = raw
    return out


def test_tracer_hooks_count_every_appended_token_and_restore():
    tracer_module = load_tracer()
    assert len(tracer_module.LAYERS) == 21
    import steersmc.cli  # noqa: F401  (the tracer wraps cli layers too)
    before = bindings(tracer_module.LAYERS)
    vocab = Vocabulary.from_tokens(["a", "b", "<eos>"])
    plan = parse_plan({"plan_version": 1, "max_tokens": 6, "steps": [
        {"kind": "force_string", "text": "a"},
        {"kind": "masked_sample", "count": 2,
         "mask": {"kind": "explicit", "tokens": ["a", "b"]}},
        {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1},
         "mask": {"kind": "explicit", "tokens": ["a", "b"]}}]})
    tracer = tracer_module.Tracer()
    tracer.install()  # resolves every layer, or raises
    try:
        out = steersmc.run_inference(plan, UniformModel(vocab), InferenceConfig(
            method="importance", n_particles=8, seed=3))
    finally:
        tracer.restore()
    assert out.error is None
    assert [len(c.tokens) for c in out.candidates] == [4] * 8  # every particle finished
    assert tracer.counters["tokens"] == sum(len(c.tokens) for c in out.candidates)
    assert tracer.counters["engine.particles_started"] == 8
    calls = tracer_module.profile(tracer.arrays(), tracer_module.NAMES)["calls"]
    assert calls["steering.execute_step"] == out.diagnostics.steps_executed == 3
    after = bindings(tracer_module.LAYERS)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_every_resample_and_its_copies():
    tracer_module = load_tracer()
    vocab = Vocabulary.from_tokens(["a", "b", "<eos>"])
    prior = steersmc.TableModel(vocab, {}, np.array([0.9, 0.1, 0.0]))
    # a prior-scored draw spreads the weights, so ess_threshold = N
    # resamples after it
    plan = parse_plan({"plan_version": 1, "max_tokens": 3, "steps": [
        {"kind": "masked_sample", "score_with_prior": True,
         "mask": {"kind": "explicit", "tokens": ["a", "b"]}},
        {"kind": "force_string", "text": "a"}]})
    n = 8
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        out = steersmc.run_inference(plan, (UniformModel(vocab), prior), InferenceConfig(
            method="smc", n_particles=n, seed=5, ess_threshold=n))
    finally:
        tracer.restore()
    assert out.error is None
    events = len(out.diagnostics.resample_events)
    assert events > 0
    calls = tracer_module.profile(tracer.arrays(), tracer_module.NAMES)["calls"]
    assert calls["engine.resample"] == events
    assert tracer.counters["engine.resample.particles_cloned"] == n * events


@pytest.mark.parametrize("method", ["importance", "rejection"])
def test_tracer_counts_one_check_per_finished_particle(method):
    tracer_module = load_tracer()
    vocab = Vocabulary.from_tokens(["a", "b", "<eos>"])
    # every particle finishes at the plan's one clause; the check rejects "a"
    plan = parse_plan({"plan_version": 1, "max_tokens": 2, "steps": [
        {"kind": "masked_sample", "mask": {"kind": "explicit", "tokens": ["a", "b"]}}],
        "check": [{"kind": "forbidden_words", "words": ["a"]}]})
    n = 16
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        out = steersmc.run_inference(plan, UniformModel(vocab), InferenceConfig(
            method=method, n_particles=n, seed=7))
    finally:
        tracer.restore()
    assert out.error is None
    rejected = [c for c in out.candidates if not c.passed_check]
    assert len(out.candidates) == n and 0 < len(rejected) < n
    assert all(c.text == "a" for c in rejected)
    calls = tracer_module.profile(tracer.arrays(), tracer_module.NAMES)["calls"]
    assert calls["steering.run_check"] == n
    assert tracer.counters["engine.deaths.check"] == len(rejected)


def benchmark_input(monkeypatch, workload: str):
    """The seed-0 input of an in-process workload, built by
    ``perfbench/workloads.py`` (loaded by path, read-only) as the
    benchmark builds it, and that module."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  TRACER_PATH.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    return workloads.build_in_process(workload, 0), workloads


@pytest.mark.parametrize("workload, draws, tables, one_row, cells, checks, decodes", [
    ("hinted_long", 2, 2, 300, 19_200, 0, 1), ("masked_smc", 6, 11, 1, 5_612, 0, 1),
    ("wide_smc", 12, 12, 1, 49_152, 0, 1)])
def test_draw_calls_per_benchmark_operation(monkeypatch, workload, draws, tables, one_row,
                                            cells, checks, decodes):
    """One seed-0 operation of each in-process workload, built by
    ``perfbench/workloads.py`` as the benchmark builds it, makes one
    ``_Pass.draw`` call per loop of draws: ``hinted_long``'s two loops
    of 150, ``masked_smc``'s six ``masked_sample`` clauses (11 tokens)
    and ``wide_smc``'s twelve of one token. It makes this many
    ``NgramModel.next_table`` calls: ``hinted_long``'s 64 slots read no
    context behind its hints, so each of its two draw calls asks once;
    the others ask once per tick. This many ``rng.draw_rows`` calls draw
    from a one-row table: every tick of ``hinted_long``, and the first
    tick of the others, at length 0. And ``rng.uniform_block`` mixes
    this many uniform cells. Each workload's check is ``char_count_exact``
    alone or empty, so no ``run_check`` call decides it, and its texts
    are decoded once (``Population.texts``), for the candidates. The
    benchmark's tracer hooks ``next_distribution``, which the step
    interpreter does not call, so these counts are pinned here; a change
    that moves one edits its number."""
    inp, workloads = benchmark_input(monkeypatch, workload)
    seen, draw, call = [], steering._Pass.draw, steersmc.NgramModel.next_table
    rows, block, blocks = steering.draw_rows, steering.uniform_block, []
    monkeypatch.setattr(steering._Pass, "draw", lambda self, *args: (
        seen.append("draw") or draw(self, *args)))
    monkeypatch.setattr(steersmc.NgramModel, "next_table",
                        lambda self, *args: seen.append("table") or call(self, *args))
    monkeypatch.setattr(steering, "draw_rows", lambda table, *args: (
        seen.append("one row" if len(table) == 1 else "rows") or rows(table, *args)))
    monkeypatch.setattr(steering, "uniform_block", lambda *args: (
        blocks.append(block(*args)) or blocks[-1]))
    check, texts = steering.run_check, steering.Population.texts
    monkeypatch.setattr(steering, "run_check", lambda *args: (
        seen.append("check") or check(*args)))
    monkeypatch.setattr(steering.Population, "texts", lambda self, *args: (
        seen.append("decode") or texts(self, *args)))
    outcome = steersmc.run_inference(inp.plan, inp.models, inp.config)
    assert workloads.check_outcome(inp, outcome) == []
    assert (seen.count("draw"), seen.count("table"), seen.count("one row"),
            sum(b.size for b in blocks), seen.count("check"),
            seen.count("decode")) == (draws, tables, one_row, cells, checks, decodes)
