from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from steersmc.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CHAR_ARGS = [
    "--tasks", str(FIXTURES / "tasks/char_suite.tasks"),
    "--plans", str(FIXTURES / "plans"),
    "--model", f"table:{FIXTURES / 'models/toy_char.model.json'}",
]
WORD_ARGS = [
    "--tasks", str(FIXTURES / "tasks/word_suite.tasks"),
    "--plans", str(FIXTURES / "plans"),
    "--model", f"table:{FIXTURES / 'models/words.model.json'}",
]


def run_cli(*argv) -> int:
    return main(list(argv))


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


class TestCmdRun:
    def test_records_parse_and_cover_all_tasks(self, tmp_path):
        out = tmp_path / "records.jsonl"
        code = run_cli("run", *CHAR_ARGS, "--method", "smc", "-N", "16",
                       "--seed", "7", "--out", str(out))
        assert code == 0
        records = read_records(out)
        assert len(records) == 3
        assert [r["task_index"] for r in records] == [0, 1, 2]
        assert records[0]["passed"] is True
        assert records[0]["wall_time"] is None

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            run_cli("run", *CHAR_ARGS, "--method", "smc", "-N", "16",
                    "--seed", "7", "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method", ["smc", "importance", "rejection"])
    def test_jobs_one_and_eight_byte_identical(self, tmp_path, method):
        outs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"j{jobs}.jsonl"
            run_cli("run", *CHAR_ARGS, "--method", method, "-N", "16",
                    "--seed", "11", "--jobs", jobs, "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rejection_dead_end_records_all_particles_dead(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run_cli("run", *CHAR_ARGS, "--method", "rejection", "-N", "8",
                "--seed", "3", "--out", str(out))
        by_type = {r["task_type"]: r for r in read_records(out)}
        assert by_type["dead_end"]["error"] == "AllParticlesDead"
        assert by_type["dead_end"]["selected"] is None
        assert by_type["dead_end"]["retries_used"] == 2

    def test_word_suite_passes(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run_cli("run", *WORD_ARGS, "--method", "importance", "-N", "16",
                "--seed", "5", "--out", str(out))
        records = read_records(out)
        assert all(r["error"] is None for r in records)
        assert all(r["passed"] for r in records)

    def test_timing_flag_populates_wall_time(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run_cli("run", *CHAR_ARGS, "--method", "smc", "-N", "4",
                "--seed", "7", "--timing", "--out", str(out))
        assert all(r["wall_time"] > 0 for r in read_records(out))

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "importance", "n_particles": 4,
                                   "seed": 9}))
        out1 = tmp_path / "from_config.jsonl"
        run_cli("run", *CHAR_ARGS, "--config", str(cfg), "--out", str(out1))
        assert all(r["method"] == "importance" and r["n_particles"] == 4
                   for r in read_records(out1))
        out2 = tmp_path / "flag_wins.jsonl"
        run_cli("run", *CHAR_ARGS, "--config", str(cfg), "--method", "smc",
                "--out", str(out2))
        assert all(r["method"] == "smc" for r in read_records(out2))

    def test_config_file_rejects_jobs(self, tmp_path, capsys):
        # Particles step on one thread; --jobs sets task threads only.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 4}))
        assert run_cli("run", *CHAR_ARGS, "--config", str(cfg)) == 1
        assert "config.jobs: unknown field" in capsys.readouterr().err

    def test_config_file_rejects_max_steps(self, tmp_path, capsys):
        # A run takes one engine step per top-level clause; there is no
        # step cap to configure.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steps": 10}))
        assert run_cli("run", *CHAR_ARGS, "--config", str(cfg)) == 1
        assert "config.max_steps: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, config, message", [
        (["-N", "0"], None, "n_particles must be >= 1"),
        (["--retries", "0"], None, "--retries must be >= 1"),
        (["-N", "16", "--ess-threshold", "99"], None, "ess_threshold must lie in"),
        (["--seed", "-1"], None, "seed must lie in"),
        ([], {"n_particles": "x"}, "n_particles must be an integer"),
        ([], {"n_particles": True}, "n_particles must be an integer"),
        ([], {"seed": 1.5}, "seed must be an integer"),
        ([], {"timeout": "x"}, "timeout must be a number"),
        ([], {"timeout": True}, "timeout must be a number"),
        (["--timeout", "-1"], None, "timeout must be >= 0"),
        (["--timeout", "nan"], None, "timeout must not be NaN"),
        ([], {"ess_threshold": True}, "ess_threshold must be a number"),
        ([], {"ess_threshold": "3"}, "ess_threshold must be a number"),
        ([], {"ess_threshold": float("nan")}, "ess_threshold must not be NaN"),
        (["--jobs", "0"], None, "--jobs must be >= 1"),
        (["--jobs", "-2"], None, "--jobs must be >= 1"),
    ], ids=["zero_particles", "zero_retries", "ess_above_n", "negative_seed",
            "string_particles", "bool_particles", "float_seed", "string_timeout",
            "bool_timeout", "negative_timeout", "nan_timeout", "bool_ess",
            "string_ess", "nan_ess", "zero_jobs", "negative_jobs"])
    def test_bad_settings_exit_before_any_task(self, tmp_path, capsys, flags, config,
                                               message):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = [*flags, "--config", str(cfg)]
        with pytest.raises(SystemExit) as info:  # not a traceback
            run_cli("run", *CHAR_ARGS, *flags)
        assert str(info.value.code).startswith("error: ")
        assert message in str(info.value.code)
        assert capsys.readouterr().out == ""  # no record written

    def test_missing_task_file_exits_nonzero(self, tmp_path, capsys):
        code = run_cli("run", "--tasks", str(tmp_path / "nope.tasks"),
                       "--plans", str(FIXTURES / "plans"),
                       "--model", f"table:{FIXTURES / 'models/toy_char.model.json'}")
        assert code == 1

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            run_cli("run")  # --tasks missing
        assert info.value.code == 2

    def test_planner_endpoint_env_fallback(self, monkeypatch):
        from steersmc.cli import build_source
        monkeypatch.setenv("STEERSMC_PLANNER_ENDPOINT", "http://example:1")
        ns = type("NS", (), {"plans": None, "planner_endpoint": None})
        source = build_source(ns)
        assert source.endpoint == "http://example:1"


def _bad_document_argv(case: str, tmp: Path) -> list[str]:
    """Arguments of a command whose outside document is malformed."""
    bad = tmp / "bad.json"
    out = ["--out", str(tmp / "out.jsonl")]
    if case == "config_malformed":
        bad.write_text('{"method": ')
        return ["run", *CHAR_ARGS, "--config", str(bad), *out]
    if case == "config_list":
        bad.write_text('["smc"]')
        return ["run", *CHAR_ARGS, "--config", str(bad), *out]
    if case in ("vocab_malformed", "vocab_object"):
        bad.write_text('["a", ' if case == "vocab_malformed" else '{"a": 1}')
        return ["run", "--tasks", CHAR_ARGS[1], "--plans", CHAR_ARGS[3],
                "--model", "remote:http://127.0.0.1:9", "--model-vocab", str(bad), *out]
    if case.startswith("trace_"):
        (tmp / "traces").mkdir()
        (tmp / "traces" / "r1.trace.json").write_text(TRACE_PAYLOADS[case])
        return ["trace", "r1", "--trace-dir", str(tmp / "traces"),
                "--out-dir", str(tmp / "rendered")]
    if case == "record_without_method":
        bad.write_text('{"task_type": "x"}\n')
        return ["eval", str(bad), "--out", str(tmp / "out.tsv")]
    if case == "record_not_utf8":
        bad.write_bytes(b'{"task_type": "\xff"}\n')
        return ["eval", str(bad), "--out", str(tmp / "out.tsv")]
    if case == "tasks_not_utf8":
        bad.write_bytes(b'{"prompt_text": "\xff"}\n')
        return ["run", "--tasks", str(bad), *CHAR_ARGS[2:], *out]
    if case == "nan_table_row":
        bad.write_text('{"vocab": ["a", "<eos>"], '
                       '"rows": [{"context": [], "dist": [NaN, 1.0]}]}')
        return ["run", "--tasks", CHAR_ARGS[1], "--plans", CHAR_ARGS[3],
                "--model", f"table:{bad}", *out]
    corpus = tmp / "corpus.txt"
    if case == "ngram_corpus_not_utf8":
        corpus.write_bytes(b"\xff\xfeab")
        return ["run", "--tasks", CHAR_ARGS[1], "--plans", CHAR_ARGS[3],
                "--model", f"ngram:{corpus}", *out]
    assert case == "ngram_smoothing_nan"
    corpus.write_text("abc abc\n")
    return ["run", "--tasks", CHAR_ARGS[1], "--plans", CHAR_ARGS[3],
            "--model", f"ngram:{corpus}", "--ngram-smoothing", "nan", *out]


def _trace(**change) -> str:
    payload = {"run_id": "r1", "ess_trace": [2.0], "resample_events": [], "ancestors": [],
               "steps": [{"step": 1, "weights": [0.5, 0.5], "texts": ["a", "b"]}]}
    return json.dumps({**payload, **change})


TRACE_STEP_SHAPE = ("trace.steps[0]: weights must be numbers and texts strings, "
                    "one of each per particle")
TRACE_PAYLOADS = {
    "trace_malformed": '{"steps": [',
    "trace_steps_not_a_list": _trace(steps=5),
    "trace_without_resample_events": json.dumps(
        {"run_id": "r1", "ess_trace": [], "steps": []}),
    "trace_step_not_an_object": _trace(steps=[3]),
    "trace_step_without_weights": _trace(steps=[{"step": 1, "texts": ["a"]}]),
    "trace_text_not_a_string": _trace(
        steps=[{"step": 1, "weights": [1.0], "texts": [7]}]),
    "trace_weight_not_a_number": _trace(
        steps=[{"step": 1, "weights": ["1"], "texts": ["a"]}]),
    "trace_unequal_lengths": _trace(
        steps=[{"step": 1, "weights": [0.5, 0.5], "texts": ["a"]}]),
    "trace_ragged_steps": _trace(
        steps=[{"step": 1, "weights": [0.5, 0.5], "texts": ["a", "b"]},
               {"step": 2, "weights": [1.0], "texts": ["ab"]}]),
    "trace_without_ancestors": json.dumps(
        {"run_id": "r1", "ess_trace": [], "resample_events": [], "steps": []}),
    "trace_ancestors_per_event": _trace(resample_events=[1]),
    "trace_ancestor_out_of_range": _trace(resample_events=[1], ancestors=[[0, 2]]),
    "trace_ancestors_too_few": _trace(resample_events=[1], ancestors=[[1]]),
}


BAD_DOCUMENTS = [
    ("config_malformed", "ParseError", "config file is not valid JSON: line 1"),
    ("config_list", "SchemaViolation", "config: must be an object"),
    ("vocab_malformed", "ParseError", "model vocab is not valid JSON"),
    ("vocab_object", "SchemaViolation",
     "vocab must be a nonempty list of token strings"),
    ("trace_malformed", "ParseError", "trace file is not valid JSON"),
    ("trace_steps_not_a_list", "SchemaViolation", "trace.steps: wrong type"),
    ("trace_without_resample_events", "SchemaViolation",
     "trace.resample_events: missing required field"),
    ("trace_step_not_an_object", "SchemaViolation", "trace.steps[0]: must be an object"),
    ("trace_step_without_weights", "SchemaViolation",
     "trace.steps[0].weights: missing required field"),
    ("trace_text_not_a_string", "SchemaViolation", TRACE_STEP_SHAPE),
    ("trace_weight_not_a_number", "SchemaViolation", TRACE_STEP_SHAPE),
    ("trace_unequal_lengths", "SchemaViolation", TRACE_STEP_SHAPE),
    ("trace_ragged_steps", "SchemaViolation",
     "trace.steps[1]: 1 particles, but the first step has 2"),
    ("trace_without_ancestors", "SchemaViolation",
     "trace.ancestors: missing required field"),
    ("trace_ancestors_per_event", "SchemaViolation",
     "trace.ancestors: one list per resample event required"),
    ("trace_ancestor_out_of_range", "SchemaViolation",
     "trace.ancestors[0]: 2 slots in [0, 2) required"),
    ("trace_ancestors_too_few", "SchemaViolation",
     "trace.ancestors[0]: 2 slots in [0, 2) required"),
    ("record_without_method", "SchemaViolation",
     "bad.json:1.method: missing required field"),
    ("record_not_utf8", "ParseError", "bad.json:1 is not UTF-8 text"),
    ("tasks_not_utf8", "ParseError", "bad.json:1 is not UTF-8 text"),
    ("nan_table_row", "SchemaViolation", "non-finite probability"),
    ("ngram_smoothing_nan", "SchemaViolation", "smoothing must be"),
    ("ngram_corpus_not_utf8", "ParseError", "ngram corpus is not UTF-8 text"),
]


class TestBadDocuments:
    @pytest.mark.parametrize("case, code, detail", BAD_DOCUMENTS,
                             ids=[case for case, _, _ in BAD_DOCUMENTS])
    def test_bad_document_is_a_typed_error(self, tmp_path, capsys, case, code,
                                           detail):
        argv = _bad_document_argv(case, tmp_path)
        assert run_cli(*argv) == 1  # returned, not raised: no traceback
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {code}: ")
        assert detail in captured.err
        assert captured.out == ""
        written = {p.name for p in tmp_path.rglob("*") if p.is_file()}
        assert not written & {"out.jsonl", "out.tsv", "r1.tsv", "r1.html"}


class TestRemoteEndToEnd:
    def test_remote_model_and_planner_via_env_fallbacks(self, tmp_path,
                                                        local_endpoint,
                                                        monkeypatch):
        import math
        plan = {
            "plan_version": 1,
            "max_tokens": 4,
            "steps": [{"kind": "sample_until",
                       "stop": {"kind": "token_count", "value": 2}}],
            "check": [{"kind": "char_count_exact", "value": 2}],
        }
        logprobs = [math.log(0.45), math.log(0.45), math.log(0.1)]

        def respond(path, body):
            if path == "/v1/generate_plan":
                return 200, {"plan": plan}
            return 200, {"logprobs": logprobs}

        ep = local_endpoint(respond)
        monkeypatch.setenv("STEERSMC_PLANNER_ENDPOINT", ep.url)
        monkeypatch.setenv("STEERSMC_MODEL_ENDPOINT", ep.url)

        vocab_file = tmp_path / "vocab.json"
        vocab_file.write_text(json.dumps(["a", "b", "<eos>"]))
        tasks = tmp_path / "remote.tasks"
        tasks.write_text(json.dumps({
            "prompt_text": "two characters please",
            "task_type": "pair",
            "constraints": [{"kind": "char_count_exact", "value": 2}],
        }) + "\n")

        out = tmp_path / "records.jsonl"
        code = run_cli("run", "--tasks", str(tasks),
                       "--model-vocab", str(vocab_file),
                       "--method", "importance", "-N", "8", "--seed", "4",
                       "--out", str(out))
        assert code == 0
        record = read_records(out)[0]
        assert record["error"] is None
        assert record["passed"] is True
        assert len(record["selected"]) == 2
        paths = {path for path, _ in ep.calls}
        assert "/v1/generate_plan" in paths and "/v1/next_logprobs" in paths

    @pytest.mark.parametrize("fault, code", [("nan", "ProtocolError"),
                                             ("http 500", "RemoteUnavailable")])
    def test_a_faulty_model_endpoint_ends_every_task_in_an_error(self, tmp_path,
                                                                 local_endpoint, fault, code):
        """A model endpoint that passes the construction-time health
        query and then answers NaN logprobs or HTTP 500: every task of a
        ``--jobs 8`` run ends in a record of that fault's error, the run
        exits 0, and no thread outlives ``main``."""
        vocab = json.loads((FIXTURES / "models/toy_char.model.json").read_text())["vocab"]

        def respond(path, body):
            if body.get("prompt_tag") == "health":
                return 200, {"logprobs": [0.0] * len(vocab)}
            if fault == "http 500":
                return 500, {}
            return 200, {"logprobs": [float("nan")] * len(vocab)}

        ep = local_endpoint(respond)
        vocab_file = tmp_path / "vocab.json"
        vocab_file.write_text(json.dumps(vocab))
        out = tmp_path / "records.jsonl"
        threads = threading.active_count()
        status = run_cli("run", "--tasks", str(FIXTURES / "tasks/char_suite.tasks"),
                         "--plans", str(FIXTURES / "plans"), "--model", f"remote:{ep.url}",
                         "--model-vocab", str(vocab_file), "--method", "smc", "-N", "8",
                         "--jobs", "8", "--out", str(out))
        assert status == 0
        records = read_records(out)
        assert [r["error"] for r in records] == [code] * 3
        assert threading.active_count() == threads
        assert {path for path, _ in ep.calls} == {"/v1/next_logprobs"}


class TestCmdEval:
    def test_aggregates_per_type_and_method(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        run_cli("run", *CHAR_ARGS, "--method", "smc", "-N", "16",
                "--seed", "7", "--out", str(records))
        table = tmp_path / "table.tsv"
        code = run_cli("eval", str(records), "--out", str(table))
        assert code == 0
        printed = capsys.readouterr().out
        assert "char_len" in printed and "dead_end" in printed
        lines = table.read_text().splitlines()
        assert lines[0].startswith("task_type\tmethod\truns")
        rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        assert rows["char_len"][2] == "2"
        assert float(rows["dead_end"][5]) == 1.0  # error rate

    def test_line_separator_inside_a_record_is_not_a_line_break(self, tmp_path,
                                                               capsys):
        # records keep non-ASCII text raw, and U+2028 is a line break to
        # str.splitlines but not to a JSON-lines file
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({
            "task_type": "t", "method": "smc", "weighted_pass_at_1": 1.0,
            "coherency_proxy": None, "error": None, "selected": "a\u2028b",
        }, ensure_ascii=False) + "\n", encoding="utf-8")
        assert run_cli("eval", str(records)) == 0
        assert "smc" in capsys.readouterr().out

    def test_eval_is_reproducible(self, tmp_path):
        records = tmp_path / "records.jsonl"
        run_cli("run", *CHAR_ARGS, "--method", "smc", "-N", "8",
                "--seed", "2", "--out", str(records))
        tables = []
        for name in ("t1.tsv", "t2.tsv"):
            path = tmp_path / name
            run_cli("eval", str(records), "--out", str(path))
            tables.append(path.read_bytes())
        assert tables[0] == tables[1]


class TestCmdTrace:
    def test_trace_round_trip(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        trace_dir = tmp_path / "traces"
        run_cli("run", *CHAR_ARGS, "--method", "smc", "-N", "8", "--seed", "7",
                "--trace", "--trace-dir", str(trace_dir), "--out", str(records))
        run_id = read_records(records)[0]["run_id"]
        assert (trace_dir / f"{run_id}.trace.json").exists()

        code = run_cli("trace", run_id, "--trace-dir", str(trace_dir),
                       "--out-dir", str(tmp_path / "rendered"))
        assert code == 0
        tsv = (tmp_path / "rendered" / f"{run_id}.tsv").read_text().splitlines()
        assert tsv[0] == "step\tparticle\tweight\ttext"
        step, particle, weight, _ = tsv[1].split("\t")
        assert step == "1" and particle == "0"
        float(weight)  # parses
        html = (tmp_path / "rendered" / f"{run_id}.html").read_text()
        assert "<svg" in html and "polyline" in html

    def test_trace_prints_distinct_ancestors_per_resample(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        run_cli("run", *CHAR_ARGS, "--method", "smc", "-N", "8", "--seed", "7",
                "--ess-threshold", "8", "--trace", "--trace-dir", str(trace_dir),
                "--out", str(tmp_path / "records.jsonl"))
        payloads = [json.loads(p.read_text()) for p in sorted(trace_dir.iterdir())]
        assert all(len(p["ancestors"]) == len(p["resample_events"]) for p in payloads)
        payload = next(p for p in payloads if p["resample_events"])
        capsys.readouterr()
        assert run_cli("trace", payload["run_id"], "--trace-dir", str(trace_dir),
                       "--out-dir", str(tmp_path / "rendered")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [
            f"resample after step {t}: {len(set(slots))} distinct ancestors of 8 particles"
            for t, slots in zip(payload["resample_events"], payload["ancestors"])]

    def test_unknown_run_id_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("trace", "missing-run", "--trace-dir", str(tmp_path))
