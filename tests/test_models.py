from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steersmc
from steersmc import (
    EmptyCorpus,
    InferenceConfig,
    InvalidContext,
    ModelQuery,
    ProtocolError,
    RemoteModel,
    RemoteUnavailable,
    RowNotNormalized,
    SchemaViolation,
    Timeout,
    UniformModel,
    Vocabulary,
    load_table_model,
    parse_plan,
    run_inference,
    train_ngram,
)

NEG_INF = float("-inf")


class TestVocabulary:
    def test_from_tokens_last_entry_is_eos(self):
        v = Vocabulary.from_tokens(["a", "b", "<eos>"])
        assert v.size == 3
        assert v.eos_id == 2
        assert v.token_text[v.eos_id] == ""

    def test_encode_decode_roundtrip(self):
        v = Vocabulary.from_tokens(["a", "b", " ", "<eos>"])
        ids = v.encode("ab a")
        assert v.decode(ids) == "ab a"

    def test_encode_greedy_longest_match(self):
        v = Vocabulary.from_tokens(["a", "ab", "b", "<eos>"])
        assert v.encode("ab") == (1,)

    def test_encode_unknown_char_rejected(self):
        v = Vocabulary.from_tokens(["a", "<eos>"])
        with pytest.raises(SchemaViolation):
            v.encode("ax")

    def test_encode_is_strict_unless_lenient(self):
        v = Vocabulary.from_tokens(["a", "ab", "b", "<eos>"])
        with pytest.raises(SchemaViolation):
            v.encode("x ab!", lenient=False)
        assert v.encode("x ab!", lenient=True) == (1,)
        assert v.encode("ab", lenient=True) == v.encode("ab")

    def test_eos_decodes_to_empty(self):
        v = Vocabulary.from_tokens(["a", "<eos>"])
        assert v.decode([0, 1]) == "a"

    @pytest.mark.parametrize("tokens", [[1, 2, 3], {"a": 1}, "ab", []],
                             ids=["ints", "object", "string", "empty"])
    def test_from_tokens_needs_a_list_of_strings(self, tokens):
        with pytest.raises(SchemaViolation):
            Vocabulary.from_tokens(tokens)


class TestUniformModel:
    def test_quarter_each_for_four_tokens(self):
        v = Vocabulary.from_tokens(["a", "b", "c", "<eos>"])
        m = UniformModel(v)
        for context in [(), (0,), (2, 1, 0)]:
            np.testing.assert_array_equal(
                m.next_distribution(ModelQuery(context)), [0.25] * 4)

    def test_sequence_logprob_is_length_times_log_quarter(self):
        v = Vocabulary.from_tokens(["a", "b", "c", "<eos>"])
        m = UniformModel(v)
        assert m.sequence_logprob((), (0, 1, 2)) == pytest.approx(3 * math.log(0.25))

    def test_empty_continuation_scores_zero(self, uniform3):
        assert uniform3.sequence_logprob((0, 1), ()) == 0.0

    def test_invalid_context_id(self, uniform3):
        with pytest.raises(InvalidContext):
            uniform3.next_distribution(ModelQuery((7,)))

    def test_invalid_context_names_the_first_bad_id(self, uniform3):
        with pytest.raises(InvalidContext, match=r"token id -1 out of range \[0, 3\)"):
            uniform3.next_distribution(ModelQuery((0, -1, 2, 9)))
        with pytest.raises(InvalidContext, match=r"token id 3 out of range"):
            uniform3.next_distribution(ModelQuery((2, 3, -4)))


class TestTableModel:
    def test_echoes_stored_row(self, table_721):
        np.testing.assert_allclose(
            table_721.next_distribution(ModelQuery(())), [0.7, 0.2, 0.1])

    def test_unlisted_context_uses_uniform_default(self, table_721):
        vec = table_721.next_distribution(ModelQuery((1,)))
        np.testing.assert_allclose(vec, [1 / 3] * 3)

    def test_explicit_default_row(self):
        m = load_table_model({
            "vocab": ["a", "b", "<eos>"],
            "rows": [],
            "default": [0.5, 0.25, 0.25],
        })
        np.testing.assert_allclose(
            m.next_distribution(ModelQuery((0, 1))), [0.5, 0.25, 0.25])

    def test_sequence_logprob_multiplies_rows(self, table_721):
        # continuation [a, b]: log(0.7) + log(row([a])[b])
        got = table_721.sequence_logprob((), (0, 1))
        assert got == pytest.approx(math.log(0.7) + math.log(0.6))

    def test_zero_probability_continuation_is_neg_inf(self):
        m = load_table_model({
            "vocab": ["a", "b", "<eos>"],
            "rows": [{"context": [], "dist": [1.0, 0.0, 0.0]}],
            "default": "uniform",
        })
        assert m.sequence_logprob((), (1,)) == NEG_INF

    def test_unnormalized_row_rejected(self):
        with pytest.raises(RowNotNormalized):
            load_table_model({
                "vocab": ["a", "b", "<eos>"],
                "rows": [{"context": [], "dist": [0.7, 0.2, 0.0]}],
            })

    def test_malformed_json_is_parse_error(self):
        from steersmc import ParseError
        with pytest.raises(ParseError):
            load_table_model("{not json")

    @pytest.mark.parametrize("change", [
        {"rows": [{"context": [], "dist": [1.5, -0.5, 0.0]}]},
        {"rows": [{"context": [], "dist": [float("nan"), 1.0, 0.0]}]},
        {"rows": [{"context": [], "dist": [float("inf"), 0.0, 0.0]}]},
        {"default": [float("nan"), 0.5, 0.5]},
        {"rows": [{"context": [], "dist": ["1.0", 0.0, 0.0]}]},
        {"rows": [{"context": [], "dist": [1.0, 0.0, 0.0], "weight": 2}]},
        {"rows": [{"context": [0], "dist": [1.0, 0.0, 0.0]}]},
    ], ids=["negative", "nan", "inf", "nan-default", "string", "unknown-field",
            "int-context"])
    def test_bad_row_rejected(self, change):
        with pytest.raises(SchemaViolation):
            load_table_model({"vocab": ["a", "b", "<eos>"], **change})

    def test_row_context_keeps_its_listed_tokens(self):
        # greedy re-tokenization of "ab" would store the row under (2,)
        m = load_table_model({
            "vocab": ["a", "b", "ab", "a", "<eos>"],
            "rows": [{"context": ["a", "b"], "dist": [0.0, 0.0, 0.0, 0.0, 1.0]},
                     {"context": ["ab"], "dist": [0.0, 1.0, 0.0, 0.0, 0.0]}],
        })
        np.testing.assert_array_equal(m.next_distribution(ModelQuery((0, 1))),
                                      [0.0, 0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(m.next_distribution(ModelQuery((2,))),
                                      [0.0, 1.0, 0.0, 0.0, 0.0])
        # the duplicate text "a" maps to its first id
        np.testing.assert_array_equal(m.next_distribution(ModelQuery((3, 1))),
                                      [0.2] * 5)
        with pytest.raises(SchemaViolation, match=r"rows\[0\].context uses unknown"):
            load_table_model({"vocab": ["a", "b", "<eos>"],
                              "rows": [{"context": ["ab"], "dist": [1.0, 0.0, 0.0]}]})

    def test_tagged_rows_select_by_prompt_tag(self):
        m = load_table_model({
            "vocab": ["a", "b", "<eos>"],
            "rows": [
                {"context": [], "dist": [0.9, 0.1, 0.0], "tag": "proposal"},
                {"context": [], "dist": [0.2, 0.8, 0.0], "tag": "prior"},
            ],
        })
        np.testing.assert_allclose(
            m.next_distribution(ModelQuery((), "proposal")), [0.9, 0.1, 0.0])
        np.testing.assert_allclose(
            m.next_distribution(ModelQuery((), "prior")), [0.2, 0.8, 0.0])

    def test_hint_delimiter_changes_conditioning(self):
        m = load_table_model({
            "vocab": ["a", "b", "|", "<eos>"],
            "rows": [
                {"context": [], "dist": [1.0, 0.0, 0.0, 0.0]},
                {"context": ["|", "b"], "dist": [0.0, 1.0, 0.0, 0.0]},
            ],
            "hint_delimiter": "|",
        })
        plain = m.next_distribution(ModelQuery(()))
        hinted = m.next_distribution(ModelQuery((), hints=("b",)))
        np.testing.assert_allclose(plain, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(hinted, [0.0, 1.0, 0.0, 0.0])

    def test_hint_with_unencodable_characters_conditions_on_the_rest(self):
        m = load_table_model({
            "vocab": ["a", "b", "|", "<eos>"],
            "rows": [
                {"context": [], "dist": [1.0, 0.0, 0.0, 0.0]},
                {"context": ["|", "b"], "dist": [0.0, 1.0, 0.0, 0.0]},
            ],
            "hint_delimiter": "|",
        })
        # "x", " " and "!" are not in the vocabulary: only "b" remains
        hinted = m.next_distribution(ModelQuery((), hints=("x b!",)))
        np.testing.assert_allclose(hinted, [0.0, 1.0, 0.0, 0.0])

    def test_memoized_hint_ids_equal_a_fresh_encoding(self):
        vocab = Vocabulary.from_tokens(["a", "b", "ab", "|", "<eos>"], hint_delimiter="|")
        for hint in ("x b!", "abba", "", "x b!", "zz", "abba"):
            assert vocab.hint_ids(hint) == (3,) + vocab.encode(hint, lenient=True)

    def test_repeated_hints_condition_as_a_fresh_serialization(self):
        m = load_table_model({
            "vocab": ["a", "b", "|", "<eos>"],
            "rows": [
                {"context": [], "dist": [1.0, 0.0, 0.0, 0.0]},
                {"context": ["a", "|", "b", "|", "a"], "dist": [0.0, 0.0, 0.0, 1.0]},
            ],
            "hint_delimiter": "|",
        })
        # the context is a, then each hint behind the delimiter with the
        # unencodable characters dropped: a | b | a
        for _ in range(2):
            hinted = m.next_distribution(ModelQuery((0,), hints=("x b!", "?a")))
            np.testing.assert_array_equal(hinted, [0.0, 0.0, 0.0, 1.0])

    def test_hints_without_delimiter_are_no_ops(self, table_721):
        plain = table_721.next_distribution(ModelQuery(()))
        hinted = table_721.next_distribution(ModelQuery((), hints=("anything",)))
        np.testing.assert_array_equal(plain, hinted)


def bigram_oracle(corpus: str, context: str, token: str) -> float:
    """Hand-count bigram frequencies: independent oracle for train_ngram."""
    pairs = [(corpus[i], corpus[i + 1]) for i in range(len(corpus) - 1)]
    ctx_total = sum(1 for c, _ in pairs if c == context)
    hits = sum(1 for c, t in pairs if c == context and t == token)
    return hits / ctx_total


class TestNgram:
    def test_bigram_abab_is_deterministic_after_a(self):
        m = train_ngram("abab", order=2, smoothing=0.0)
        a, b = m.vocabulary.encode("ab")
        vec = m.next_distribution(ModelQuery((a,)))
        assert vec[b] == pytest.approx(bigram_oracle("abab", "a", "b"))
        assert vec[b] == pytest.approx(1.0)

    def test_single_repeated_bigram(self):
        m = train_ngram("aa", order=2, smoothing=0.0)
        (a,) = m.vocabulary.encode("a")
        assert m.next_distribution(ModelQuery((a,)))[a] == pytest.approx(1.0)

    def test_add_one_smoothing_hand_computed(self):
        # corpus "ab", vocab {a, b, eos}: P(b|a) = (1+1)/(1+3) = 0.5
        m = train_ngram("ab", order=2, smoothing=1.0)
        assert m.vocabulary.size == 3
        a, b = m.vocabulary.encode("ab")
        assert m.next_distribution(ModelQuery((a,)))[b] == pytest.approx(0.5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            train_ngram("", order=2, smoothing=1.0)

    @pytest.mark.parametrize("smoothing", [-1.0, float("nan"), float("inf")])
    def test_bad_smoothing_rejected(self, smoothing):
        with pytest.raises(SchemaViolation):
            train_ngram("ab", order=2, smoothing=smoothing)

    def test_chunking_insensitive_with_separator(self):
        split = train_ngram(["abba", "baab"], order=3, smoothing=0.5)
        joined = train_ngram("abba|baab", order=3, smoothing=0.5,
                             separator="|")
        assert split.vocabulary.token_text == joined.vocabulary.token_text
        for ctx in [(), (0,), (1,), (0, 1), (1, 0)]:
            np.testing.assert_array_equal(
                split.next_distribution(ModelQuery(ctx)),
                joined.next_distribution(ModelQuery(ctx)))

    def test_eos_marker_maps_to_eos(self):
        m = train_ngram("ab$ab$", order=2, smoothing=0.0, eos_text="$")
        a, b = m.vocabulary.encode("ab")
        vec = m.next_distribution(ModelQuery((b,)))
        assert vec[m.vocabulary.eos_id] == pytest.approx(1.0)

    def test_whitespace_tokenizer(self):
        m = train_ngram("red fox red fox", order=2, smoothing=0.0,
                        tokenizer="whitespace")
        (red,) = m.vocabulary.encode("red")
        (fox,) = m.vocabulary.encode("fox")
        assert m.next_distribution(ModelQuery((red,)))[fox] == pytest.approx(1.0)

    def test_unseen_context_with_smoothing_is_uniform(self):
        m = train_ngram("ab", order=3, smoothing=1.0)
        a, b = m.vocabulary.encode("ab")
        vec = m.next_distribution(ModelQuery((b, a)))  # window never seen
        np.testing.assert_allclose(vec, [1 / 3] * 3)


class TestProperties:
    def test_purity_bit_identical_over_many_queries(self, table_721):
        m = train_ngram("abba", order=2, smoothing=0.5)
        q_table = ModelQuery((0,))
        q_ngram = ModelQuery((1,))
        ref_t = table_721.next_distribution(q_table).tobytes()
        ref_n = m.next_distribution(q_ngram).tobytes()
        for _ in range(10_000):
            assert table_721.next_distribution(q_table).tobytes() == ref_t
            assert m.next_distribution(q_ngram).tobytes() == ref_n

    @given(st.lists(st.integers(min_value=0, max_value=2), max_size=6),
           st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_distributions_sum_to_one(self, context, smoothing):
        m = train_ngram("abbaab", order=2, smoothing=smoothing)
        vec = m.next_distribution(ModelQuery(tuple(context)))
        assert abs(float(vec.sum()) - 1.0) <= 1e-9

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=4),
           st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=4),
           st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_chain_rule_additivity(self, prefix, c1, c2):
        m = train_ngram("abbaabab", order=2, smoothing=1.0)
        prefix, c1, c2 = tuple(prefix), tuple(c1), tuple(c2)
        whole = m.sequence_logprob(prefix, c1 + c2)
        split = (m.sequence_logprob(prefix, c1)
                 + m.sequence_logprob(prefix + c1, c2))
        assert whole == pytest.approx(split, abs=1e-9)


@st.composite
def reach_cases(draw):
    """An n-gram of order 1-4 over a corpus holding "|", declared as the
    hint delimiter or not, with a context and up to three hints."""
    corpus = draw(st.text(alphabet="ab |", max_size=30)) + "|"
    model = train_ngram(corpus, order=draw(st.integers(1, 4)),
                        smoothing=draw(st.sampled_from([0.0, 0.1])))
    vocab = model.vocabulary
    if draw(st.booleans()):
        model.vocabulary = dataclasses.replace(
            vocab, hint_delimiter_id=vocab.token_text.index("|"))
    context = tuple(draw(st.lists(st.integers(0, vocab.size - 1), max_size=8)))
    hints = tuple(draw(st.lists(st.text(alphabet="ab|x", max_size=3), max_size=3)))
    return model, context, hints


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=reach_cases())
def test_row_of_the_reached_window_is_the_row_of_the_context(case):
    """``context_reach`` contract: the row for the last ``reach`` ids of
    a context is the very row object for the whole context, under the
    same hints, since the interpreter sends only that window and groups
    draws by row object. An n-gram reach of ``order - 2`` fails it."""
    ngram, context, hints = case
    for model in (ngram, UniformModel(ngram.vocabulary)):
        reach = model.context_reach(hints)
        assert isinstance(reach, int) and reach >= 0
        if isinstance(model, UniformModel):
            assert reach == 0
        window = context[max(0, len(context) - reach):]
        got = model.next_distribution(ModelQuery(window, "proposal", hints))
        assert got is model.next_distribution(ModelQuery(context, "proposal", hints))


@st.composite
def table_cases(draw):
    """An n-gram of order 1-5 over "ab |", or of order 16 over 19
    letters and "|", whose (V + 1) ** (order - 1) is above 2**63, with
    smoothing 0 or 0.1 and "|" declared the hint delimiter after
    training or not; up to 12 slots, each a context (random ids or a
    stretch of the corpus, so that deep windows are seen) and up to two
    hints; and a reach of the model's own or None."""
    order = draw(st.one_of(st.integers(1, 5), st.just(16)))
    alphabet = "ab |" if order < 16 else "abcdefghijklmnopqrs|"
    corpus = draw(st.text(alphabet=alphabet, min_size=1, max_size=40))
    corpus = corpus * 2 + "|" + alphabet
    model = train_ngram(corpus, order=order, smoothing=draw(st.sampled_from([0.0, 0.1])))
    vocab = model.vocabulary
    if draw(st.booleans()):
        model.vocabulary = dataclasses.replace(
            vocab, hint_delimiter_id=vocab.token_text.index("|"))
    stretch = vocab.encode(corpus)
    slots = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            context = draw(st.lists(st.integers(0, vocab.size - 1), max_size=order + 2))
        else:
            end = draw(st.integers(0, len(stretch)))
            context = stretch[max(0, end - draw(st.integers(0, order + 2))):end]
        hints = draw(st.lists(st.sampled_from(["", "a", "b|", "x ab"]), max_size=2))
        slots.append((tuple(context), tuple(hints)))
    return model, slots, draw(st.booleans())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=table_cases())
def test_ngram_table_rows_are_the_rows_of_the_whole_contexts(case):
    """Each slot's row in ``NgramModel.next_table`` is, bit for bit, the
    row ``next_distribution`` gives its whole context under its hints,
    and two slots share a table index exactly when that row is the same
    object: back-off to the longest seen suffix with smoothing 0, the
    unseen row for any window not seen whole above 0. The default
    grouping of ``TokenModel.next_table`` gives every slot the same row."""
    model, slots, own_reach = case
    hint_sets = list(dict.fromkeys(hints for _, hints in slots))
    hint_ids = np.array([hint_sets.index(hints) for _, hints in slots])
    widths = np.array([len(context) if not own_reach else
                       min(len(context), model.context_reach(hints))
                       for context, hints in slots])
    windows = np.zeros((len(slots), int(widths.max())), dtype=np.int64)
    for i, ((context, _), width) in enumerate(zip(slots, widths.tolist())):
        windows[i, :width] = np.array(context[len(context) - width:][::-1]) + 1
    table, slot_rows = model.next_table(windows, widths, hint_ids, hint_sets, "proposal")
    rows = [model.next_distribution(ModelQuery(context, "proposal", hints))
            for context, hints in slots]
    for s, row in enumerate(rows):
        assert table[slot_rows[s]].tobytes() == row.tobytes()
        for t, other in enumerate(rows):
            assert (slot_rows[s] == slot_rows[t]) == (row is other)
    assert sorted(set(slot_rows.tolist())) == list(range(len(table)))
    base, base_rows = steersmc.TokenModel.next_table(model, windows, widths, hint_ids,
                                                     hint_sets, "proposal")
    assert base[base_rows].tobytes() == table[slot_rows].tobytes()


def test_hint_memo_stays_bounded():
    """The start node of each hint set is memoized in an LRU of
    ``HINT_MEMO_SIZE`` entries: ten times as many distinct hints leave
    it at the bound, and every answer is still the row of the context.
    Replacing the vocabulary empties it, so that hints then read as the
    new vocabulary encodes them."""
    model = train_ngram("ab|ab|ba", order=3, smoothing=0.0)
    plain = model.vocabulary
    model.vocabulary = dataclasses.replace(plain, hint_delimiter_id=plain.token_text.index("|"))
    bound = steersmc.models.HINT_MEMO_SIZE
    windows, widths = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.intp)

    def row_is_the_context_row(hints):
        table, _ = model.next_table(windows, widths, np.zeros(1, dtype=np.intp), [hints],
                                    "proposal")
        return table[0].tobytes() == model.next_distribution(
            ModelQuery((), "proposal", hints)).tobytes()

    for i in range(10 * bound):
        assert row_is_the_context_row(("ab"[i % 2] + str(i),))
        assert model._starts.cache_info().currsize <= bound
    assert model._starts.cache_info().currsize == bound
    delimited = model.next_distribution(ModelQuery((), "proposal", ("b",)))
    model.vocabulary = plain
    assert row_is_the_context_row(("b",))
    assert model._starts.cache_info().currsize == 1
    assert model.next_distribution(ModelQuery((), "proposal", ("b",))) is not delimited


@pytest.mark.parametrize("smoothing", [0.0, 0.5])
def test_ngram_rows_share_the_one_matrix(smoothing):
    """An n-gram stores its rows once: every row ``next_distribution``
    returns, for a seen, a backed-off or an unseen window, is a
    read-only view of its one read-only matrix."""
    model = train_ngram("abba|baab", order=3, smoothing=smoothing)
    matrix = model._matrix
    contexts = [(), (0,), (1, 0), (0, 0), (2, 2), (1, 1, 0)]
    for context in contexts:
        row = model.next_distribution(ModelQuery(context))
        assert np.shares_memory(row, matrix) and not row.flags.writeable
    assert not matrix.flags.writeable


class TestRemoteAdapter:
    def test_package_import_does_not_load_requests(self):
        src = Path(steersmc.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        code = "import sys, steersmc; sys.exit('requests' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def _logprob_server(self, local_endpoint, table):
        def respond(path, body):
            assert path == "/v1/next_logprobs"
            key = tuple(body["context"])
            return 200, {"logprobs": table.get(key, table[()])}
        return local_endpoint(respond)

    def test_distribution_renormalized_from_logprobs(self, local_endpoint, abc_vocab):
        ep = self._logprob_server(local_endpoint,
                                  {(): [math.log(0.5), math.log(0.3), math.log(0.2)]})
        m = RemoteModel(ep.url, abc_vocab)
        np.testing.assert_allclose(
            m.next_distribution(ModelQuery(())), [0.5, 0.3, 0.2], atol=1e-12)

    def test_responses_cached_per_context_and_tag(self, local_endpoint, abc_vocab):
        ep = self._logprob_server(local_endpoint, {(): [0.0, 0.0, -1.0]})
        m = RemoteModel(ep.url, abc_vocab)
        baseline = len(ep.calls)  # health check
        for _ in range(5):
            m.next_distribution(ModelQuery((0,), "proposal"))
        assert len(ep.calls) == baseline + 1
        m.next_distribution(ModelQuery((0,), "prior"))
        assert len(ep.calls) == baseline + 2

    def test_evicted_row_is_fetched_again(self, local_endpoint, abc_vocab, monkeypatch):
        monkeypatch.setattr(steersmc.models, "REMOTE_CACHE_ROWS", 2)
        ep = self._logprob_server(local_endpoint, {(): [0.0, 0.0, -1.0]})
        m = RemoteModel(ep.url, abc_vocab)  # caches the health row
        baseline = len(ep.calls)
        m.next_distribution(ModelQuery((0,)))
        m.next_distribution(ModelQuery((1,)))  # evicts the health row
        assert (m.evictions, len(ep.calls)) == (1, baseline + 2)
        m.next_distribution(ModelQuery((0,)))  # a hit: (1,) is now the oldest
        m.next_distribution(ModelQuery((0, 1)))  # evicts (1,)
        assert (m.evictions, len(ep.calls)) == (2, baseline + 3)
        m.next_distribution(ModelQuery((1,)))
        assert (m.evictions, len(ep.calls)) == (3, baseline + 4)

    @pytest.mark.parametrize("step", [
        {"kind": "sample_until", "stop": {"kind": "token_count", "value": 1}},
        {"kind": "force_string", "text": "a"},
    ], ids=["sample_until", "force_string"])
    def test_run_timeout_caps_each_request(self, local_endpoint, abc_vocab, step):
        def respond(path, body):
            if body["prompt_tag"] != "health":
                time.sleep(2.0)
            return 200, {"logprobs": [0.0, 0.0, 0.0]}

        m = RemoteModel(local_endpoint(respond).url, abc_vocab)
        plan = parse_plan({"plan_version": 1, "max_tokens": 2, "steps": [step]})
        start = time.monotonic()
        out = run_inference(plan, m, InferenceConfig(
            method="importance", n_particles=2, seed=0, timeout=0.3))
        assert isinstance(out.error, Timeout)
        assert time.monotonic() - start < 1.5

    @pytest.mark.parametrize("logprobs, problem", [
        ([math.inf, 0.0, 0.0], "+inf"),  # sent as Infinity
        ([math.nan, 0.0, 0.0], "NaN"),
        ([-math.inf] * 3, "all -inf"),
    ], ids=["positive-infinity", "nan", "all-negative-infinity"])
    def test_non_finite_logprobs_are_protocol_errors(self, local_endpoint, abc_vocab,
                                                     logprobs, problem):
        def respond(path, body):
            if body["prompt_tag"] == "health":
                return 200, {"logprobs": [0.0, 0.0, 0.0]}
            return 200, {"logprobs": logprobs}

        m = RemoteModel(local_endpoint(respond).url, abc_vocab)
        plan = parse_plan({"plan_version": 1, "max_tokens": 2, "steps": [
            {"kind": "sample_until", "stop": {"kind": "eos"}}]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = run_inference(plan, m, InferenceConfig(
                method="importance", n_particles=2, seed=0))
        assert isinstance(out.error, ProtocolError)
        assert problem in out.error.message

    def test_past_deadline_sends_no_request(self, local_endpoint, abc_vocab):
        ep = local_endpoint(lambda path, body: (200, {"logprobs": [0.0, 0.0, 0.0]}))
        m = RemoteModel(ep.url, abc_vocab)
        calls = len(ep.calls)
        with pytest.raises(Timeout, match="before a model query"):
            m.next_distributions([ModelQuery((0,))], deadline=time.monotonic() - 1.0)
        assert len(ep.calls) == calls

    def test_unreachable_endpoint(self, abc_vocab):
        with pytest.raises(RemoteUnavailable):
            RemoteModel("http://127.0.0.1:9", abc_vocab, http_timeout=0.5)

    def test_wrong_length_is_protocol_error(self, local_endpoint, abc_vocab):
        ep = local_endpoint(lambda path, body: (200, {"logprobs": [0.0, 0.0]}))
        with pytest.raises(ProtocolError):
            RemoteModel(ep.url, abc_vocab)

    def test_missing_field_is_protocol_error(self, local_endpoint, abc_vocab):
        ep = local_endpoint(lambda path, body: (200, {"scores": [0, 0, 0]}))
        with pytest.raises(ProtocolError):
            RemoteModel(ep.url, abc_vocab)

    def test_server_error_is_remote_unavailable(self, local_endpoint, abc_vocab):
        ep = local_endpoint(lambda path, body: (500, {}))
        with pytest.raises(RemoteUnavailable):
            RemoteModel(ep.url, abc_vocab)

    def test_rejected_query_is_protocol_error(self, local_endpoint, abc_vocab):
        # e.g. a context longer than the backend's window
        ep = local_endpoint(lambda path, body: (400, {"error": "too long"}))
        with pytest.raises(ProtocolError):
            RemoteModel(ep.url, abc_vocab)

    def test_concurrent_queries_are_safe_and_identical(self, local_endpoint,
                                                       abc_vocab):
        from concurrent.futures import ThreadPoolExecutor
        ep = local_endpoint(lambda path, body: (200, {"logprobs": [0.0, -1.0, -2.0]}))
        m = RemoteModel(ep.url, abc_vocab)

        for ctx in range(3):
            m.next_distribution(ModelQuery((ctx,)))  # warm the cache
        warm_calls = len(ep.calls)

        def query(i):
            return m.next_distribution(ModelQuery((i % 3,))).tobytes()

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(query, range(300)))
        assert len(set(results)) == 1  # same logprobs served everywhere
        assert len(ep.calls) == warm_calls  # served entirely from cache
