from __future__ import annotations

import pytest

import steersmc
from steersmc import (
    FixtureLibrary,
    InferenceConfig,
    ParseError,
    RandomStream,
    RemoteGenerator,
    SchemaViolation,
    ScriptedSource,
    SourceExhausted,
    SteeringError,
    StepBudgetExceeded,
    TaskSpec,
    UniformModel,
    Vocabulary,
    fetch_plan,
    format_feedback,
    steer,
)
from steersmc.constraints import ConstraintSpec

GOOD_PLAN = {
    "plan_version": 1,
    "max_tokens": 8,
    "steps": [{"kind": "force_string", "text": "ab"}],
    "check": [{"kind": "char_count_exact", "value": 2}],
}

# A loop whose predicate can never fire: every run raises
# StepBudgetExceeded, deterministically.
BROKEN_PLAN = {
    "plan_version": 1,
    "max_tokens": 64,
    "steps": [{"kind": "loop",
               "until": {"kind": "substring", "value": "zz"},
               "max_iterations": 5,
               "body": [{"kind": "sample_until",
                         "stop": {"kind": "token_count", "value": 1},
                         "mask": {"kind": "explicit", "tokens": ["a", "b"]}}]}],
    "check": [],
}


@pytest.fixture
def model():
    return UniformModel(Vocabulary.from_tokens(["a", "b", "<eos>"]))


@pytest.fixture
def task():
    return TaskSpec(prompt_text="write ab",
                    constraints=(ConstraintSpec("char_count_exact", value=2),),
                    task_type="pair")


@pytest.fixture
def config():
    return InferenceConfig(method="importance", n_particles=4, seed=11)


class TestFixtureLibrary:
    def test_correct_plan_succeeds_in_one_attempt(self, model, task, config):
        source = FixtureLibrary({"pair": GOOD_PLAN})
        result = steer(task, source, model, config, max_retries=3)
        assert result.succeeded
        assert result.retries_used == 0
        assert len(result.attempts) == 1
        assert result.final.selected_text == "ab"

    def test_invalid_fixture_rejected_at_load(self):
        with pytest.raises(SchemaViolation):
            FixtureLibrary({"pair": {"plan_version": 1}})

    def test_from_dir_round_trip(self, tmp_path, model, task, config):
        import json
        (tmp_path / "pair.plan.json").write_text(json.dumps(GOOD_PLAN))
        source = FixtureLibrary.from_dir(tmp_path)
        assert source.task_types() == ["pair"]
        result = steer(task, source, model, config)
        assert result.succeeded

    def test_missing_task_type_exhausts_with_schema_violation(self, model, task,
                                                              config):
        source = FixtureLibrary({"other": GOOD_PLAN})
        with pytest.raises(SourceExhausted) as info:
            steer(task, source, model, config, max_retries=2)
        result = info.value.result
        assert result.final.error_code == "SchemaViolation"
        assert len(result.attempts) == 2


class TestScriptedRetries:
    def test_broken_then_good_uses_one_retry(self, model, task, config):
        source = ScriptedSource([BROKEN_PLAN, GOOD_PLAN])
        result = steer(task, source, model, config, max_retries=3)
        assert result.succeeded
        assert result.retries_used == 1
        assert [a.error_code for a in result.attempts] == \
            ["StepBudgetExceeded", None]

    def test_out_of_range_mask_id_is_retried(self, model, task, config):
        bad = {"plan_version": 1, "max_tokens": 8,
               "steps": [{"kind": "masked_sample",
                          "mask": {"kind": "explicit", "ids": [7]}}]}
        source = ScriptedSource([bad, GOOD_PLAN])
        result = steer(task, source, model, config, max_retries=3)
        assert result.succeeded
        assert result.retries_used == 1
        assert "SchemaViolation" in source.feedback_seen[1]
        assert "clause=0(masked_sample)" in source.feedback_seen[1]

    def test_all_dead_mask_is_retried_with_its_clause(self, model, task, config):
        # every particle dies at the empty mask: the run reports the lowest
        # slot's MaskEmpty, which names its clause and step
        bad = {"plan_version": 1, "max_tokens": 8,
               "steps": [{"kind": "force_string", "text": "a"},
                         {"kind": "masked_sample",
                          "mask": {"kind": "explicit", "tokens": ["z"]}}]}
        source = ScriptedSource([bad, GOOD_PLAN])
        result = steer(task, source, model, config, max_retries=3)
        assert result.succeeded
        assert [a.error_code for a in result.attempts] == ["MaskEmpty", None]
        assert "clause=1(masked_sample); step=2" in source.feedback_seen[1]

    def test_feedback_only_from_second_attempt(self, model, task, config):
        source = ScriptedSource([BROKEN_PLAN, GOOD_PLAN])
        steer(task, source, model, config, max_retries=3)
        assert source.feedback_seen[0] is None
        assert source.feedback_seen[1] is not None
        assert "StepBudgetExceeded" in source.feedback_seen[1]

    def test_successful_plan_never_rerun(self, model, task, config):
        calls = []

        def script(attempt, task_, feedback):
            calls.append(attempt)
            return GOOD_PLAN

        steer(task, ScriptedSource(script), model, config, max_retries=3)
        assert calls == [1]

    def test_total_attempts_bounded_by_max_retries(self, model, task, config):
        source = ScriptedSource(lambda a, t, f: BROKEN_PLAN)
        with pytest.raises(SourceExhausted) as info:
            steer(task, source, model, config, max_retries=3)
        result = info.value.result
        assert len(result.attempts) == 3
        assert result.retries_used == 2
        assert isinstance(result.final.error, StepBudgetExceeded)

    def test_bernoulli_retry_success_rate(self, model, task, config):
        # A source whose plans fail independently half the time: success
        # within three attempts should happen with rate 1 - 0.5^3.
        trials = 400
        wins = 0
        for trial in range(trials):
            stream = RandomStream(500, "bern", trial)

            def script(attempt, task_, feedback):
                return BROKEN_PLAN if stream.uniform() < 0.5 else GOOD_PLAN

            try:
                steer(task, ScriptedSource(script), model, config, max_retries=3)
                wins += 1
            except SourceExhausted:
                pass
        p = 1 - 0.5 ** 3
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(wins / trials - p) <= 3 * sigma

    def test_fixture_steer_is_deterministic(self, model, task, config):
        results = []
        for _ in range(2):
            source = ScriptedSource([BROKEN_PLAN, GOOD_PLAN])
            result = steer(task, source, model, config, max_retries=3)
            results.append((result.retries_used,
                            result.final.selected,
                            tuple(c.tokens for c in result.final.candidates)))
        assert results[0] == results[1]


class TestFormatFeedback:
    def test_names_error_clause_and_step(self):
        err = StepBudgetExceeded("loop ran out", clause_index=0)
        err.step_index = 1
        text = format_feedback(err, BROKEN_PLAN)
        assert text == ("inference failed: StepBudgetExceeded; clause=0(loop); "
                        "step=1; detail=loop ran out")

    def test_unknown_positions(self):
        err = SchemaViolation("plan.steps: missing required field")
        assert format_feedback(err, None) == (
            "inference failed: SchemaViolation; clause=unknown; step=unknown; "
            "detail=plan.steps: missing required field")

    def test_byte_stable(self):
        err = StepBudgetExceeded("x", clause_index=2)
        assert format_feedback(err, GOOD_PLAN) == format_feedback(err, GOOD_PLAN)


def test_every_exported_error_code_is_its_class_name():
    errors = [value for value in vars(steersmc).values()
              if isinstance(value, type) and issubclass(value, SteeringError)]
    assert len(errors) == 15
    assert all(error.code == error.__name__ for error in errors)


class TestRemoteGenerator:
    def test_fetches_and_runs_remote_plan(self, local_endpoint, model, task,
                                          config):
        ep = local_endpoint(lambda path, body: (200, {"plan": GOOD_PLAN}))
        source = RemoteGenerator(ep.url)
        result = steer(task, source, model, config)
        assert result.succeeded
        path, body = ep.calls[0]
        assert path == "/v1/generate_plan"
        assert body["plan_version"] == 1
        assert "write ab" in body["task"]
        assert body["feedback"] is None

    def test_feedback_rendered_into_prompt(self, local_endpoint, model, task,
                                           config):
        answers = [BROKEN_PLAN, GOOD_PLAN]
        ep = local_endpoint(
            lambda path, body: (200, {"plan": answers[min(len(ep.calls) - 1, 1)]}))
        source = RemoteGenerator(ep.url, template="T={task} E={prior_error}")
        result = steer(task, source, model, config, max_retries=3)
        assert result.succeeded
        first, second = ep.calls[0][1], ep.calls[1][1]
        assert "E=none" in first["task"]
        assert "StepBudgetExceeded" in second["task"]
        assert "StepBudgetExceeded" in second["feedback"]

    def test_template_loaded_from_file(self, tmp_path, local_endpoint, model,
                                       task, config):
        template_path = tmp_path / "prompt.txt"
        template_path.write_text("solve: {task} // last error: {prior_error}",
                                 encoding="utf-8")
        ep = local_endpoint(lambda path, body: (200, {"plan": GOOD_PLAN}))
        source = RemoteGenerator.from_template_file(ep.url, template_path)
        steer(task, source, model, config)
        assert ep.calls[0][1]["task"] == "solve: write ab // last error: none"

    def test_template_file_not_utf8_is_parse_error(self, tmp_path):
        template_path = tmp_path / "prompt.txt"
        template_path.write_bytes(b"\xff\xfesolve: {task}")
        with pytest.raises(ParseError) as info:
            RemoteGenerator.from_template_file("http://127.0.0.1:9", template_path)
        assert info.value.message.startswith("plan template is not UTF-8 text")

    def test_malformed_response_is_schema_violation(self, local_endpoint, task):
        ep = local_endpoint(lambda path, body: (200, {"nope": 1}))
        source = RemoteGenerator(ep.url)
        with pytest.raises(SchemaViolation):
            fetch_plan(source, task)

    def test_unreachable_generator(self, task):
        source = RemoteGenerator("http://127.0.0.1:9", http_timeout=0.5)
        with pytest.raises(Exception) as info:
            fetch_plan(source, task)
        assert info.value.__class__.__name__ == "RemoteUnavailable"
