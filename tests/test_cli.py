from __future__ import annotations

import json
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

    def test_config_file_rejects_jobs(self, tmp_path):
        # Particles step on one thread; --jobs sets task threads only.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 4}))
        with pytest.raises(SystemExit) as info:
            run_cli("run", *CHAR_ARGS, "--config", str(cfg))
        assert "unknown config field 'jobs'" in str(info.value.code)

    def test_config_file_rejects_max_steps(self, tmp_path):
        # A run takes one engine step per top-level clause; there is no
        # step cap to configure.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steps": 10}))
        with pytest.raises(SystemExit) as info:
            run_cli("run", *CHAR_ARGS, "--config", str(cfg))
        assert "unknown config field 'max_steps'" in str(info.value.code)

    @pytest.mark.parametrize("flags, config, message", [
        (["-N", "0"], None, "n_particles must be >= 1"),
        (["--retries", "0"], None, "--retries must be >= 1"),
        (["-N", "16", "--ess-threshold", "99"], None, "ess_threshold must lie in"),
        (["--seed", "-1"], None, "seed must lie in"),
        ([], {"n_particles": "x"}, "n_particles must be an integer"),
        ([], {"n_particles": True}, "n_particles must be an integer"),
        ([], {"seed": 1.5}, "seed must be an integer"),
    ], ids=["zero_particles", "zero_retries", "ess_above_n", "negative_seed",
            "string_particles", "bool_particles", "float_seed"])
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

    def test_unknown_run_id_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("trace", "missing-run", "--trace-dir", str(tmp_path))
