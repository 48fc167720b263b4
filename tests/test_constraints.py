from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steersmc import (
    ConstraintSpec,
    RandomStream,
    SchemaViolation,
    constraint_from_dict,
    fails,
    generate_task_instances,
    parse_plan,
    run_check,
    sentences,
    strip_word,
    task_from_dict,
    verify,
    words,
)

from naive_verifier import naive_check

# Chain-of-thought failure transcripts quoted by the task family design:
# an 82-character request answered with a 90-character sentence, and a
# positioned-words request answered with the targets at wrong slots.
COT_CHAR_SENTENCE = ("The sun sets slowly over the ocean, painting the sky "
                     "with hues of orange and pink delight.")
COT_POSITION_SENTENCE = ("The museum's vast collection included a fascinating "
                         "exhibit titled Noise, featuring the Testament of "
                         "artifacts.")
FIG_SENTENCE = ("The students at Glasgow met new friends in the halls and "
                "shared stories about their summer travels today.")


class TestTextPolicy:
    def test_words_are_whitespace_runs(self):
        assert words("abc  def\tghi") == ["abc", "def", "ghi"]

    def test_strip_word_removes_surrounding_punctuation(self):
        assert strip_word("'Noise,'") == "Noise"
        assert strip_word("don't") == "don't"

    def test_sentences_require_whitespace_or_end_after_terminator(self):
        assert sentences("Hi!! Bye.") == ["Hi!!", "Bye."]
        assert sentences("Version 1.5 shipped. Done") == ["Version 1.5 shipped.", "Done"]

    def test_trailing_fragment_counts_as_sentence(self):
        assert sentences("One. Two") == ["One.", "Two"]
        assert sentences("One. ") == ["One."]


class TestVerifyExamples:
    def test_char_count_hand_example(self):
        report = verify([ConstraintSpec("char_count_exact", value=7)], "abc def")
        assert report.passed

    def test_char_count_cot_failure_is_90_not_82(self):
        assert len(COT_CHAR_SENTENCE) == 90
        report = verify([ConstraintSpec("char_count_exact", value=82)],
                        COT_CHAR_SENTENCE)
        assert not report.passed
        assert "90" in report.per_constraint[0][2]

    def test_positioned_words_cot_failure(self):
        spec = ConstraintSpec("positioned_words",
                              positions=((4, "collection"), (8, "Noise"),
                                         (11, "Testament")))
        count = ConstraintSpec("word_count_exact", value=15)
        report = verify([count, spec], COT_POSITION_SENTENCE)
        assert not report.passed
        assert report.per_constraint[0][1]  # 15 words: passes
        assert not report.per_constraint[1][1]
        assert "exhibit" in report.per_constraint[1][2]

    def test_full_positioned_sentence_passes(self):
        specs = [
            ConstraintSpec("word_count_exact", value=18),
            ConstraintSpec("positioned_words",
                           positions=((4, "Glasgow"), (8, "in"), (11, "and"))),
        ]
        assert verify(specs, FIG_SENTENCE).passed

    def test_contains_words_case_insensitive(self):
        spec = ConstraintSpec("contains_words", words=("glasgow",))
        assert verify([spec], FIG_SENTENCE).passed

    def test_forbidden_words_case_sensitive(self):
        text = "Be here now."
        assert verify([ConstraintSpec("forbidden_words", words=("be",))], text).passed
        assert not verify([ConstraintSpec("forbidden_words", words=("Be",))], text).passed

    def test_max_word_length_uses_stripped_words(self):
        text = "short words only, honest."
        assert verify([ConstraintSpec("max_word_length", value=6)], text).passed

    def test_sentence_last_words(self):
        text = "We saw the convention. She met the president."
        spec = ConstraintSpec("sentence_last_words",
                              words=("convention", "president"))
        assert verify([spec], text).passed
        short = ConstraintSpec("sentence_last_words", words=("convention",))
        assert not verify([short], text).passed

    def test_per_sentence_word_bounds(self):
        text = "One two three. Four five six seven."
        ok = ConstraintSpec("per_sentence_word_bounds", min_value=3, max_value=4)
        tight = ConstraintSpec("per_sentence_word_bounds", min_value=4, max_value=4)
        assert verify([ok], text).passed
        assert not verify([tight], text).passed

    def test_verify_is_pure(self):
        specs = [ConstraintSpec("word_count_exact", value=18)]
        first = verify(specs, FIG_SENTENCE)
        for _ in range(100):
            assert verify(specs, FIG_SENTENCE) == first


def _random_text(stream: RandomStream) -> str:
    alphabet = "ab cd. e!f?g,h'i  jk\tz QRs.. t"
    n = stream.integers(0, 60)
    return "".join(alphabet[stream.integers(0, len(alphabet))] for _ in range(n))


def _spec_corpus():
    return [
        ConstraintSpec("char_count_exact", value=12),
        ConstraintSpec("word_count_exact", value=3),
        ConstraintSpec("word_count_min", value=2),
        ConstraintSpec("positioned_words", positions=((2, "cd"),)),
        ConstraintSpec("contains_words", words=("cd", "e")),
        ConstraintSpec("forbidden_words", words=("QRs", "ab")),
        ConstraintSpec("max_word_length", value=3),
        ConstraintSpec("sentence_count_exact", value=2),
        ConstraintSpec("sentence_last_words", words=("cd", "e")),
        ConstraintSpec("per_sentence_word_bounds", min_value=1, max_value=3),
    ]


# One row per failure branch of ``fails``: its exact message.
FAILURE_MESSAGES = [
    (ConstraintSpec("char_count_exact", value=7), "abc de",
     "counted 6 characters, required 7"),
    (ConstraintSpec("word_count_exact", value=3), "a b", "counted 2 words, required 3"),
    (ConstraintSpec("word_count_min", value=3), "a b",
     "counted 2 words, required at least 3"),
    (ConstraintSpec("positioned_words", positions=((1, "a"), (3, "c"))), "a b",
     "word 3 missing (only 2 words)"),
    (ConstraintSpec("positioned_words", positions=((2, "c"),)), "a 'b,' c",
     "word 2 is 'b' (expected 'c')"),
    (ConstraintSpec("contains_words", words=("Cd", "e", "f")), "cd. x",
     "missing words: e, f"),
    (ConstraintSpec("forbidden_words", words=("ab", "QRs", "x")), "ab, QRs.",
     "forbidden words present: ab, QRs"),
    (ConstraintSpec("max_word_length", value=3), "ab 'abcd,' abcde",
     "word 'abcd' longer than 3 characters"),
    (ConstraintSpec("sentence_count_exact", value=2), "One. Two. Three",
     "counted 3 sentences, required 2"),
    (ConstraintSpec("sentence_last_words", words=("cd",)), "One. Two.",
     "counted 2 sentences, expected 1 ending words"),
    (ConstraintSpec("sentence_last_words", words=("cd", "e")), "x cd. y f!",
     "sentence 2 ends with 'f' (expected 'e')"),
    (ConstraintSpec("sentence_last_words", words=("cd", "e")), "x cd. .",
     "sentence 2 ends with '' (expected 'e')"),
    (ConstraintSpec("per_sentence_word_bounds", min_value=2, max_value=3), "a b. c.",
     "sentence 2 has 1 words, required at least 2"),
    (ConstraintSpec("per_sentence_word_bounds", max_value=2), "a b c. d.",
     "sentence 1 has 3 words, required at most 2"),
]


class TestFailureMessages:
    @pytest.mark.parametrize("spec, text, message", FAILURE_MESSAGES,
                             ids=[f"{spec.kind}-{i}" for i, (spec, _, _)
                                  in enumerate(FAILURE_MESSAGES)])
    def test_each_failure_branch_has_its_message(self, spec, text, message):
        assert fails(spec, text) == message
        assert verify([spec], text).per_constraint == ((spec, False, message),)

    def test_passing_entry_has_empty_message(self):
        spec = ConstraintSpec("char_count_exact", value=7)
        assert fails(spec, "abc def") is None
        assert verify([spec], "abc def").per_constraint == ((spec, True, ""),)


def _check_plan(spec: ConstraintSpec):
    return parse_plan({"plan_version": 1, "max_tokens": 1,
                       "steps": [{"kind": "force_string", "text": "a"}],
                       "check": [spec.to_dict()]})


class TestNaiveAgreement:
    @pytest.mark.parametrize("spec", _spec_corpus(), ids=lambda s: s.kind)
    def test_agrees_with_naive_verifier_on_random_strings(self, spec):
        stream = RandomStream(20240, "verify", spec.kind)
        plan = _check_plan(spec)
        for _ in range(300):
            text = _random_text(stream)
            expected = naive_check(spec, text)
            assert verify([spec], text).passed == expected, repr(text)
            assert run_check(plan, text) == expected, repr(text)
            assert (fails(spec, text) is None) == expected, repr(text)

    @given(st.text(alphabet="ab .!?misfit'\t", max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_agreement_property(self, text):
        for spec in _spec_corpus():
            expected = naive_check(spec, text)
            assert verify([spec], text).passed == expected
            assert run_check(_check_plan(spec), text) == expected
            assert (fails(spec, text) is None) == expected


class TestTaskSpecs:
    def test_roundtrip_through_dict(self):
        task = generate_task_instances("sent_02", 1, seed=5)[0]
        again = task_from_dict(task.to_dict())
        assert again == task

    def test_contradictory_exact_counts_rejected(self):
        with pytest.raises(SchemaViolation):
            task_from_dict({
                "prompt_text": "x",
                "task_type": "t",
                "constraints": [
                    {"kind": "word_count_exact", "value": 3},
                    {"kind": "word_count_exact", "value": 4},
                ],
            })

    @pytest.mark.parametrize("field, value", [("prompt_text", None), ("task_type", 3),
                                              ("constraints", {}), ("task_type", True)])
    def test_a_missing_or_wrong_typed_field_is_named(self, field, value):
        doc = {"prompt_text": "x", "task_type": "t", "constraints": []}
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(SchemaViolation, match=rf"^task\.{field}: "):
            task_from_dict(doc)

    def test_unknown_constraint_kind_rejected(self):
        with pytest.raises(SchemaViolation):
            constraint_from_dict({"kind": "rhymes_with", "words": ["orange"]})

    @pytest.mark.parametrize("doc", [
        {"kind": "char_count_exact", "value": True},
        {"kind": "max_word_length", "value": False},
        {"kind": "positioned_words", "positions": {True: "x"}},
        {"kind": "per_sentence_word_bounds", "min_value": True},
        {"kind": "per_sentence_word_bounds", "min_value": 1, "max_value": True},
    ], ids=["value", "value-false", "positions", "min_value", "max_value"])
    def test_bool_is_not_an_integer(self, doc):
        with pytest.raises(SchemaViolation):
            constraint_from_dict(doc, "x")

    @pytest.mark.parametrize("doc", [
        {"kind": "word_count_min", "value": 1, "positions": {"1": "a"}},
        {"kind": "char_count_exact", "value": 3, "words": ["a"]},
        {"kind": "char_count_exact", "value": 3, "min_value": 1},
        {"kind": "contains_words", "words": ["a"], "value": 2},
        {"kind": "per_sentence_word_bounds", "min_value": 1, "positions": {"1": "a"}},
    ], ids=["min-positions", "exact-words", "exact-min_value", "contains-value",
            "bounds-positions"])
    def test_field_of_another_kind_rejected(self, doc):
        with pytest.raises(SchemaViolation) as info:
            constraint_from_dict(doc, "x")
        assert "unknown field" in info.value.message

    @pytest.mark.parametrize("words", [5, "ab", None])
    def test_words_must_be_a_list(self, words):
        with pytest.raises(SchemaViolation):
            constraint_from_dict({"kind": "contains_words", "words": words}, "x")

    def test_plan_check_rejects_bool_value(self):
        from steersmc import parse_plan

        with pytest.raises(SchemaViolation) as info:
            parse_plan({"plan_version": 1, "max_tokens": 4, "steps": [],
                        "check": [{"kind": "char_count_exact", "value": True}]})
        assert "plan.check[0]" in info.value.message

    def test_generation_is_deterministic_per_seed(self):
        a = generate_task_instances("para_03", 5, seed=99)
        b = generate_task_instances("para_03", 5, seed=99)
        c = generate_task_instances("para_03", 5, seed=100)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("family", ["sent_01", "sent_02", "sent_03",
                                        "sent_04", "para_02", "para_03",
                                        "para_05"])
    def test_all_families_generate_valid_specs(self, family):
        tasks = generate_task_instances(family, 3, seed=1)
        assert len(tasks) == 3
        for task in tasks:
            assert task.task_type == family
            assert task.constraints
            verify(task.constraints, "Some plain text here.")  # total, no raise
