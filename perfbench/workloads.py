"""Benchmark inputs, generated from the workload seed, and their checks.

Every input is a pure function of ``(workload, seed)``. The program
receives only what is built here: a model, a plan document and an
``InferenceConfig`` for the in-process workloads, and a ``steersmc run``
argument list for ``cli_suite``. All files the inputs are made from
are frozen under ``data/``, so an edit to the repository's README or
fixtures does not move the numbers.

``steersmc`` is imported inside the functions, never at module level,
because the set-up probe times that import.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "corpus.txt"
FIXTURES = HERE / "data" / "fixtures"
DIGESTS = HERE / "digests.json"

IN_PROCESS = ("masked_smc", "hinted_long", "wide_smc")
CLI_SUITES = (("char_suite", "toy_char"), ("word_suite", "words"))
CLI_METHODS = ("smc", "importance", "rejection")
CLI_PARTICLES = 16
DEAD_END_TASK = "dead_end"


def _rand(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _config_seed(r: random.Random) -> int:
    return r.getrandbits(32)


# ---------------------------------------------------------------------------
# In-process workloads: one operation is one ``run_inference`` call.


@dataclasses.dataclass
class InProcessInput:
    plan: object
    models: object
    config: object


def _char_model(sm, order: int, smoothing: float, text: str | None = None):
    return sm.train_ngram(CORPUS.read_text(encoding="utf-8") if text is None else text,
                          order=order, smoothing=smoothing, tokenizer="char")


def _masked_smc(sm, r: random.Random):
    # char 3-gram over the frozen README (V=88); every clause is a
    # masked_sample, so each of the 10 drawn characters rebuilds a mask
    # by scanning the whole vocabulary. The last clause leaves no
    # character budget, so only EOS is allowed and every particle ends.
    model = _char_model(sm, order=3, smoothing=0.1)
    letters = sorted(t for t in model.vocabulary.token_text if t.isalpha())
    doc = {
        "plan_version": 1,
        "max_tokens": 16,
        "steps": [
            {"kind": "masked_sample", "count": 3,
             "mask": {"kind": "char_class", "classes": ["letter"]}},
            {"kind": "masked_sample", "count": 1,
             "mask": {"kind": "allowed_words", "words": r.sample(letters, 8)}},
            {"kind": "masked_sample", "count": 2,
             "mask": {"kind": "max_remaining_chars", "target_chars": 10}},
            {"kind": "masked_sample", "count": 1,
             "mask": {"kind": "char_class", "classes": ["whitespace"]}},
            {"kind": "masked_sample", "count": 3,
             "mask": {"kind": "char_class", "classes": ["letter", "punctuation"]}},
            {"kind": "masked_sample", "count": 1,
             "mask": {"kind": "max_remaining_chars", "target_chars": 10}},
        ],
        "check": [{"kind": "char_count_exact", "value": 10}],
    }
    config = dict(method="smc", n_particles=512, seed=_config_seed(r))
    return model, doc, config


def _hinted_long(sm, r: random.Random):
    # Two loop iterations, each a hint then 150 unmasked draws: 300
    # tokens per particle, with every hint so far re-serialized into
    # each query behind the declared "|" delimiter. No masks, no
    # resampling. Hints go after the context, so the 3-gram sees the
    # hint's last two characters; "e " is frequent in the corpus and,
    # with little smoothing, particles rarely draw EOS early.
    model = _char_model(sm, order=3, smoothing=0.01)
    vocab = model.vocabulary
    model.vocabulary = dataclasses.replace(
        vocab, hint_delimiter_id=vocab.token_text.index("|"))
    doc = {
        "plan_version": 1,
        "max_tokens": 300,
        "steps": [
            {"kind": "loop", "iterations": 2, "body": [
                {"kind": "hint", "template": "{tokens_so_far} drawn, the "},
                {"kind": "sample_until",
                 "stop": {"kind": "token_count", "value": 150}},
            ]},
        ],
        "check": [],
    }
    config = dict(method="importance", n_particles=64, seed=_config_seed(r))
    return model, doc, config


def _narrow_corpus(text: str, n_letters: int) -> tuple[str, list[str]]:
    """Keep the ``n_letters`` most frequent letters; every other run of
    characters becomes one space."""
    lowered = text.lower()
    counts: dict[str, int] = {}
    for ch in lowered:
        if "a" <= ch <= "z":
            counts[ch] = counts.get(ch, 0) + 1
    keep = sorted(sorted(counts), key=lambda c: -counts[c])[:n_letters]
    out = []
    for ch in lowered:
        if ch in keep:
            out.append(ch)
        elif out and out[-1] != " ":
            out.append(" ")
    return "".join(out), sorted(keep)


def _wide_smc(sm, r: random.Random):
    # 4096 particles, 12 one-token masked clauses over an 11-token
    # vocabulary (9 letters, space, EOS), and a resample after every
    # step (ess_threshold = N): drawing is cheap, so the engine's
    # per-particle work, resampling and clone copies dominate.
    text, letters = _narrow_corpus(CORPUS.read_text(encoding="utf-8"), 9)
    model = _char_model(sm, order=3, smoothing=0.5, text=text)
    masks = [
        {"kind": "char_class", "classes": ["letter"]},
        {"kind": "allowed_words", "words": r.sample(letters, 5)},
        {"kind": "explicit", "tokens": r.sample(letters, 4) + [" "]},
        {"kind": "char_class", "classes": ["letter", "whitespace"]},
    ]
    doc = {
        "plan_version": 1,
        "max_tokens": 13,
        "steps": [{"kind": "masked_sample", "count": 1, "mask": masks[i % 4]}
                  for i in range(12)],
        "check": [{"kind": "char_count_exact", "value": 12}],
    }
    config = dict(method="smc", n_particles=4096, ess_threshold=4096.0,
                  seed=_config_seed(r))
    return model, doc, config


_BUILDERS = {"masked_smc": _masked_smc, "hinted_long": _hinted_long,
             "wide_smc": _wide_smc}


def build_in_process(workload: str, seed: int) -> InProcessInput:
    """Build the model, parse the plan and make the config."""
    import steersmc as sm

    model, doc, config = _BUILDERS[workload](sm, _rand(workload, seed))
    return InProcessInput(plan=sm.parse_plan(doc),
                          models=sm.ModelSet(proposal=model),
                          config=sm.InferenceConfig(**config))


def outcome_digest(outcome) -> str:
    """Hash of the selected tokens and every candidate's tokens and raw
    log weight (``repr`` keeps all digits)."""
    h = hashlib.sha256()
    h.update(repr((outcome.error_code, outcome.selected)).encode())
    for c in outcome.candidates:
        h.update(repr((c.tokens, c.raw_log_weight)).encode())
    return h.hexdigest()


def check_outcome(inp: InProcessInput, outcome) -> list[str]:
    """Problems with one ``run_inference`` outcome; empty when correct."""
    import steersmc as sm

    if outcome.error is not None:
        return [f"unexpected error {outcome.error_code}: {outcome.error.message}"]
    problems = []
    total = math.fsum(c.normalized_weight for c in outcome.candidates)
    if abs(total - 1.0) > 1e-9:
        problems.append(f"normalized weights sum to {total!r}")
    if not sm.verify(inp.plan.check, outcome.selected_text).passed:
        problems.append(f"selected text {outcome.selected_text!r} fails the plan check")
    return problems


# ---------------------------------------------------------------------------
# cli_suite: one operation is one ``steersmc run`` process.


def cli_invocations(seed: int, out_dir: Path) -> list[list[str]]:
    """``steersmc run`` argument lists: both suites x three methods."""
    cli_seed = _config_seed(_rand("cli_suite", seed))
    runs = []
    for suite, model in CLI_SUITES:
        for method in CLI_METHODS:
            runs.append([
                "run",
                "--tasks", str(FIXTURES / "tasks" / f"{suite}.tasks"),
                "--plans", str(FIXTURES / "plans"),
                "--model", f"table:{FIXTURES / 'models' / f'{model}.model.json'}",
                "--method", method, "-N", str(CLI_PARTICLES),
                "--seed", str(cli_seed),
                "--out", str(out_dir / f"{suite}-{method}.jsonl"),
            ])
    return runs


def cli_setup():
    """What every ``steersmc run`` of the suite loads before inferring."""
    import steersmc as sm

    models = [sm.load_table_model(FIXTURES / "models" / f"{m}.model.json")
              for _, m in CLI_SUITES]
    tasks = [sm.load_tasks(FIXTURES / "tasks" / f"{s}.tasks") for s, _ in CLI_SUITES]
    return models, tasks, sm.FixtureLibrary.from_dir(FIXTURES / "plans")


def check_records(data: bytes, tasks_path: str) -> list[str]:
    """Problems with the record file of one run over ``tasks_path``;
    empty when correct. Every task must have exactly one record, in
    task order, and the char suite must include ``dead_end``."""
    import steersmc as sm

    tasks = [t.task_type for t in sm.load_tasks(tasks_path)]
    records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    found = [(rec["task_index"], rec["task_type"]) for rec in records]
    if found != list(enumerate(tasks)):
        return [f"{Path(tasks_path).name}: records for tasks {found}, "
                f"expected {list(enumerate(tasks))}"]
    if Path(tasks_path).stem == "char_suite" and DEAD_END_TASK not in tasks:
        return [f"{Path(tasks_path).name}: no {DEAD_END_TASK} task"]
    problems = []
    for rec in records:
        where = rec["run_id"]
        if rec["task_type"] == DEAD_END_TASK:
            if rec["error"] != "AllParticlesDead" or rec["retries_used"] != 2:
                problems.append(f"{where}: expected AllParticlesDead after 2 retries, "
                                f"got {rec['error']} after {rec['retries_used']}")
            continue
        if rec["error"] is not None or rec["retries_used"] != 0:
            problems.append(f"{where}: expected success on the first attempt, got "
                            f"{rec['error']} after {rec['retries_used']} retries")
            continue
        plan = sm.parse_plan(FIXTURES / "plans" / f"{rec['task_type']}.plan.json")
        if not sm.verify(plan.check, rec["selected"]).passed:
            problems.append(f"{where}: selected text fails the plan check")
    return problems


# ---------------------------------------------------------------------------


def committed_digests(workload: str, seed: int) -> list[str] | None:
    """Stored digests for this workload and seed, if any were committed."""
    stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    return stored.get(workload, {}).get(str(seed))
