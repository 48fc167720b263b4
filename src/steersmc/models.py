"""Autoregressive token models with exact conditional probabilities.

All models answer two questions: what is the next-token distribution
given a context, and what log probability does a continuation carry.
Toy implementations (uniform, explicit table, n-gram) are exact and
enumerable so inference algorithms can be checked against brute force;
a remote adapter delegates to an HTTP backend with the same contract.

The step interpreter asks for many contexts at once, once per token
tick, with one ``TokenModel.next_table`` call: every slot's window of
context in one matrix, answered by one table of distinct rows and each
slot's index into it. The default groups the slots exactly and sends
one ``next_distributions`` query per distinct window, so that table,
uniform and remote models answer through it; ``NgramModel`` overrides
it with one vectorized walk of a trie over its seen windows, whose
rows it stores once, in one read-only matrix.

Models may condition on a ``prompt_tag`` (named conditioning variant,
e.g. "proposal" vs "prior") and on hint strings carried by a query.
Hints enter the conditioning context as extra tokens behind a reserved
delimiter token when the vocabulary declares one; models without a
delimiter ignore hints.
"""

from __future__ import annotations

import functools
import math
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyCorpus,
    InvalidContext,
    ProtocolError,
    RemoteUnavailable,
    RowNotNormalized,
    SchemaViolation,
    Timeout,
    check_fields,
    read_document,
)

NEG_INF = float("-inf")

# Stored rows may be off by this much before load fails; rows are then
# renormalized exactly so query-time sums hold to 1e-9.
ROW_SUM_TOLERANCE = 1e-6

# Hints memoized per vocabulary by Vocabulary.hint_ids.
HINT_MEMO_SIZE = 1024

# Rows a RemoteModel keeps, least recently used first out: one adapter
# serves every task of a CLI run.
REMOTE_CACHE_ROWS = 4096


@dataclass(frozen=True)
class Vocabulary:
    """Dense token-id space with an end-of-sequence id and display text.

    ``token_text[eos_id]`` must be the empty string so decoded text never
    contains an artificial terminator. ``hint_delimiter_id`` optionally
    names the token used to splice hint strings into model contexts.
    """

    token_text: tuple[str, ...]
    eos_id: int
    hint_delimiter_id: int | None = None

    def __post_init__(self):
        if not self.token_text:
            raise SchemaViolation("vocabulary must contain at least one token")
        if not 0 <= self.eos_id < len(self.token_text):
            raise SchemaViolation("eos_id out of range")
        if self.token_text[self.eos_id] != "":
            raise SchemaViolation("eos token must have empty display text")
        if self.hint_delimiter_id is not None and not 0 <= self.hint_delimiter_id < len(self.token_text):
            raise SchemaViolation("hint_delimiter_id out of range")

    @property
    def size(self) -> int:
        return len(self.token_text)

    @classmethod
    def from_tokens(cls, tokens: list[str] | tuple[str, ...],
                    hint_delimiter: str | None = None) -> "Vocabulary":
        """Build a vocabulary from token strings; the last entry is EOS.

        The EOS entry may be written as any placeholder text (for file
        readability); it is stored as the empty string.
        """
        if not (tokens and isinstance(tokens, (list, tuple))
                and all(isinstance(t, str) for t in tokens)):
            raise SchemaViolation("vocab must be a nonempty list of token strings")
        texts = tuple(tokens[:-1]) + ("",)
        delim_id = None
        if hint_delimiter is not None:
            try:
                delim_id = texts.index(hint_delimiter)
            except ValueError:
                raise SchemaViolation(
                    f"hint_delimiter {hint_delimiter!r} not present in vocab") from None
        return cls(token_text=texts, eos_id=len(texts) - 1,
                   hint_delimiter_id=delim_id)

    def decode(self, tokens) -> str:
        return "".join(self.token_text[t] for t in tokens)

    def encode(self, text: str, lenient: bool = False) -> tuple[int, ...]:
        """Greedy longest-match tokenization of ``text``.

        A position that no token matches raises SchemaViolation; toy
        vocabularies are expected to cover their tasks. With ``lenient``
        such characters are skipped instead (hints may carry text the
        vocabulary cannot spell).
        """
        by_text, max_len = self._text_index[:2]
        out: list[int] = []
        i = 0
        while i < len(text):
            for span in range(min(max_len, len(text) - i), 0, -1):
                tok = by_text.get(text[i:i + span])
                if tok is not None:
                    out.append(tok)
                    i += span
                    break
            else:
                if not lenient:
                    raise SchemaViolation(
                        f"text not encodable at position {i}: {text[i:i + 8]!r}")
                i += 1
        return tuple(out)

    def token_lengths(self) -> np.ndarray:
        """Read-only character length of every token text."""
        return self._text_index[2]

    def token_pieces(self) -> np.ndarray:
        """Every token text in a read-only object array, which a matrix
        of ids indexes to gather many rows' texts at once."""
        return self._text_index[3]

    @functools.cached_property
    def _text_index(self) -> tuple[dict[str, int], int, np.ndarray, np.ndarray]:
        """Token id by text, the longest token text, every token text's
        length and every token text as an object array."""
        # keep first id on duplicate texts; EOS ("") never matches
        by_text: dict[str, int] = {}
        for i, t in enumerate(self.token_text):
            if t and t not in by_text:
                by_text[t] = i
        lengths = np.array([len(t) for t in self.token_text], dtype=np.intp)
        pieces = np.array(self.token_text, dtype=object)
        lengths.setflags(write=False)
        pieces.setflags(write=False)
        return by_text, int(lengths.max()), lengths, pieces

    @functools.cached_property
    def _hint_memo(self):
        """The LRU that ``hint_ids`` reads."""
        return functools.lru_cache(maxsize=HINT_MEMO_SIZE)(
            lambda hint: (self.hint_delimiter_id,) + self.encode(hint, lenient=True))

    def hint_ids(self, hint: str) -> tuple[int, ...]:
        """The ids a hint adds to a context: the delimiter, then the
        lenient encoding of ``hint``.

        Memoized per vocabulary in an LRU of HINT_MEMO_SIZE hints, since
        a particle's hints are serialized again for every distinct query
        it joins and measured by ``TokenModel.context_reach``.
        """
        return self._hint_memo(hint)


class ModelQuery(NamedTuple):
    """A conditioning request: context ids, prompt variant, pending hints
    (a named tuple, cheap to build once per distinct query)."""

    context: tuple[int, ...]
    prompt_tag: str = "proposal"
    hints: tuple[str, ...] = ()


def check_rows(table: np.ndarray, source: str) -> np.ndarray:
    """The rule for a model's rows where they enter the step interpreter
    (``_Pass.rows``) and the oracle (``TokenModel.next_distribution``),
    after each checks their shape: every entry of the 2-D ``table`` is a
    number in [0, 1], and every row sums to 1 within ROW_SUM_TOLERANCE,
    as stored rows must at load time; any other table is a ProtocolError
    naming ``source``. The entries are bounded before any sum, which
    +inf with -inf (NaN) or huge entries (overflow) would make warn.
    Returns the row sums, which an unmasked draw reads."""
    if not (table.dtype.kind in "fiu" and table.min(initial=0) >= 0
            and table.max(initial=0) <= 1.0 + ROW_SUM_TOLERANCE):
        raise ProtocolError(f"{source} returned a row with an entry that is not a probability")
    sums = table.sum(axis=1)
    off = np.abs(sums - 1.0) > ROW_SUM_TOLERANCE
    if off.any():
        raise ProtocolError(f"{source} returned a row summing to {sums[off][0]:.9g}, not 1")
    return sums


class TokenModel:
    """Base class: a pure conditional next-token distribution.

    Subclasses implement ``_distribution(context, prompt_tag)`` over an
    already hint-serialized context. Queries are read-only and safe
    under concurrent callers. Returned vectors are shared read-only
    arrays; callers must not mutate them.
    """

    def __init__(self, vocabulary: Vocabulary):
        self.vocabulary = vocabulary

    def next_distribution(self, query: ModelQuery) -> np.ndarray:
        """Probability vector over the vocabulary for ``query``, held to
        ``check_rows``: the oracle and ``sequence_logprob`` read rows here."""
        size = self.vocabulary.size
        for t in query.context:
            if not 0 <= t < size:
                raise InvalidContext(f"token id {t} out of range [0, {size})")
        row = self._vectors((query,))[0]
        check_rows(row[None], type(self).__name__)
        return row

    def next_table(self, windows: np.ndarray, widths: np.ndarray, hint_ids: np.ndarray,
                   hint_sets, tag: str, deadline: float | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The rows of many slots as one table, and each slot's index into it.

        Slot i reads, under prompt tag ``tag`` and the hints
        ``hint_sets[hint_ids[i]]``, the window of its context whose ids,
        newest first, are ``windows[i, :widths[i]] - 1``: ``windows`` is
        an int64 matrix of each id plus one, then 0 past the slot's
        width. The step interpreter calls this at most once per token
        tick, each window being the last ``context_reach(hints)`` ids of
        a slot's context (all of them when the reach is None), and once
        per draw call whose slots all have reach 0; every id comes
        from a row, from a checked ``force_string`` or from
        ``Vocabulary.encode``. ``deadline`` (a ``time.monotonic``
        instant) bounds models that wait on I/O.

        This default groups the slots with one dict keyed on each slot's
        hint-set id and window as one byte string, each group led by its
        lowest slot. One ``next_distributions`` call gets a row per
        group, in order of first slot; the rows are checked once to be
        vectors over the vocabulary, and the table holds one row per
        distinct row object, in order of first slot.
        """
        n, span = windows.shape
        # int64 cells; the hint column keeps a key at least one cell wide
        keys = np.column_stack((hint_ids, windows)).view(f"V{8 * (span + 1)}").ravel()
        groups: dict[bytes, int] = {}  # each key's lowest slot
        first = np.array([groups.setdefault(key, i) for i, key in enumerate(keys.tolist())],
                         dtype=np.intp)
        leads = first == np.arange(n)
        firsts = np.flatnonzero(leads)
        contexts = (windows[firsts, ::-1] - 1).tolist()  # oldest first, -1 before the window
        queries = [ModelQuery(tuple(c[span - w:]), tag, hint_sets[h])
                   for c, w, h in zip(contexts, widths[firsts].tolist(),
                                      hint_ids[firsts].tolist())]
        rows = self._vectors(queries, deadline)
        distinct = {id(r): r for r in rows}  # one table row per distinct row object
        index = {key: i for i, key in enumerate(distinct)}
        query_rows = np.array([index[id(r)] for r in rows])
        return np.array(list(distinct.values())), query_rows[(np.cumsum(leads) - 1)[first]]

    def next_distributions(self, queries, deadline: float | None = None) -> list:
        """One probability vector per query, for queries whose context ids
        are already known to lie in the vocabulary.

        The default ``next_table`` calls this once per call, with one
        query per distinct window and hint set it is sent. Rows may be shared
        read-only arrays. ``deadline`` (a ``time.monotonic`` instant)
        bounds models that wait on I/O.
        """
        return [self._distribution(self._conditioning_context(q), q.prompt_tag)
                for q in queries]

    def _vectors(self, queries, deadline: float | None = None) -> list:
        """``next_distributions``, checked to return one vector over the
        vocabulary per query, or a ProtocolError."""
        rows = self.next_distributions(queries, deadline)
        size = self.vocabulary.size
        if len(rows) != len(queries) or not all(
                isinstance(r, np.ndarray) and r.shape == (size,) for r in rows):
            raise ProtocolError(f"{type(self).__name__} did not return one "
                                f"{size}-entry vector per query")
        return rows

    def sequence_logprob(self, prefix, continuation, prompt_tag: str = "proposal",
                         hints: tuple[str, ...] = ()) -> float:
        """Sum of log next-token probabilities along ``continuation``.

        Returns -inf as soon as any factor is zero; an empty continuation
        scores 0.0 (empty product).
        """
        ctx = tuple(prefix)
        total = 0.0
        for tok in continuation:
            p = self.next_distribution(ModelQuery(ctx, prompt_tag, hints))[tok]
            if p <= 0.0:
                return NEG_INF
            total += math.log(p)
            ctx = ctx + (tok,)
        return total

    def context_reach(self, hints: tuple[str, ...]) -> int | None:
        """How many trailing context ids a row can depend on under these
        hints, or None for the whole context.

        For every context ``ctx`` with at least that many ids, the row
        for the last ``reach`` of them must equal the row for ``ctx``.
        None is always safe; too small a reach changes results.
        """
        return None

    def _conditioning_context(self, query: ModelQuery) -> tuple[int, ...]:
        """Serialize hints into the context behind the delimiter token.

        Hint characters that the vocabulary cannot encode are dropped;
        without a declared delimiter the context is returned untouched
        and hints do not affect conditioning.
        """
        vocab = self.vocabulary
        ctx = query.context
        if vocab.hint_delimiter_id is not None:
            for hint in query.hints:
                ctx += vocab.hint_ids(hint)
        return ctx

    def _distribution(self, context: tuple[int, ...], prompt_tag: str) -> np.ndarray:
        raise NotImplementedError


class UniformModel(TokenModel):
    """Every token equally likely in every context."""

    def __init__(self, vocabulary: Vocabulary):
        super().__init__(vocabulary)
        self._vec = np.full(vocabulary.size, 1.0 / vocabulary.size)
        self._vec.setflags(write=False)

    def context_reach(self, hints):
        return 0

    def _distribution(self, context, prompt_tag):
        return self._vec


class TableModel(TokenModel):
    """Explicit conditional rows keyed by (prompt_tag, context).

    Lookup falls back from the tagged row to the untagged row to the
    declared default ("uniform" or an explicit distribution).
    """

    def __init__(self, vocabulary: Vocabulary,
                 rows: dict[tuple[str | None, tuple[int, ...]], np.ndarray],
                 default: np.ndarray):
        super().__init__(vocabulary)
        self._rows = rows
        self._default = default

    def _distribution(self, context, prompt_tag):
        row = self._rows.get((prompt_tag, context))
        if row is None:
            row = self._rows.get((None, context))
        if row is None:
            row = self._default
        return row


class NgramModel(TokenModel):
    """Add-k smoothed n-gram counts over a training token stream.

    P(tok | window) = (count(window, tok) + s) / (count(window) + s * |V|)
    where ``window`` is the last (order - 1) tokens of the context. A
    window never seen in training backs off to its longest seen suffix
    when smoothing is zero (with positive smoothing the formula already
    yields the smoothed-uniform answer).

    The seen windows form an exact trie of shared suffixes, read newest
    id first. ``counts`` holds one row of counts per seen window, row 0
    for the empty window, and with positive smoothing one more, all-zero
    row that every unseen window reads. The int64 ``keys`` link the
    windows: ``keys[i] = parent * (V + 1) + id + 1`` says that window
    row ``i + 1`` is window row ``parent`` extended one id further back
    by ``id``. The seen windows must be closed under suffixes, as every
    window of a training stream is; a repeated link, a parent that is
    not an earlier row or an id outside the vocabulary is a
    SchemaViolation. The model takes ``counts`` over and makes each row
    its smoothed distribution in place, so the rows are stored once, in
    one read-only matrix.

    The links are kept as one child table, the double-array layout of a
    trie (Aoe, IEEE TSE 1989): ``_child[parent * (V + 1) + id + 1]`` is
    the row that the link reaches and every other cell is -1. No node
    from ``_leaf``, one more than the largest parent, on has children;
    all of them (leaves and the unseen row) read the table's last block
    of V + 1 cells, so one step down the trie is one read at
    ``min(node, _leaf) * (V + 1) + id + 1``.
    """

    def __init__(self, vocabulary: Vocabulary, order: int, smoothing: float,
                 counts: np.ndarray, keys: np.ndarray):
        super().__init__(vocabulary)
        self.order = order
        self.smoothing = smoothing
        size = vocabulary.size
        parents, digits = np.divmod(keys, size + 1)
        if not np.all((parents >= 0) & (parents <= np.arange(len(keys)))):
            raise SchemaViolation("ngram keys link a window to a parent that is not an earlier row")
        if not np.all(digits > 0):
            raise SchemaViolation("ngram keys link a window by an id outside the vocabulary")
        self._leaf = int(parents.max(initial=-1)) + 1
        self._child = np.full((self._leaf + 1) * (size + 1), -1, dtype=np.intp)
        nodes = np.arange(1, len(keys) + 1)
        self._child[keys] = nodes
        if not np.array_equal(self._child[keys], nodes):  # a repeated link kept its last node
            raise SchemaViolation("ngram keys repeat a link")
        self._unseen = len(keys) + 1 if smoothing > 0.0 else None
        denom = counts.sum(axis=1) + smoothing * size
        counts += smoothing
        counts /= denom[:, None]
        counts.setflags(write=False)
        self._matrix = counts
        self._views: dict[int, np.ndarray] = {}  # the row object of each row read alone

    def context_reach(self, hints):
        """The last ``order - 1`` ids of the serialized context, less the
        ids the hints add after the context (``_start``)."""
        return self._start(hints)[2]

    def next_table(self, windows, widths, hint_ids, hint_sets, tag, deadline=None):
        """Every slot's row from one vectorized walk of the trie.

        Each slot starts at the node its hint set leads to (``_start``)
        and descends one level per window column, newest id first, with
        one gather of every slot's child from the child table per level;
        it stops at its first unseen link, at its width, or at the ids
        its hints leave for the context. The deepest node reached is the
        longest seen suffix of the serialized window. With positive
        smoothing only a walk that matched the whole window keeps its
        node; any other slot reads the unseen row. The table holds each
        row reached once, in row order: one ``np.bincount`` and one
        ``np.cumsum`` give every slot its index.
        """
        present = np.flatnonzero(np.bincount(hint_ids)).tolist()
        starts = np.zeros((3, present[-1] + 1), dtype=np.int64)
        for h in present:
            starts[:, h] = self._start(hint_sets[h])
        nodes, walking, left = starts.take(hint_ids, axis=1)
        walking = walking.astype(bool)
        limit = np.minimum(widths, left)
        child, leaf, radix = self._child, self._leaf, self._matrix.shape[1] + 1
        for level, digits in enumerate(windows.T[:self.order - 1]):
            down = child[np.minimum(nodes, leaf) * radix + digits]
            found = down >= 0
            walking &= level < limit
            nodes = np.where(walking, np.where(found, down, nodes if self._unseen is None
                                               else self._unseen), nodes)
            walking &= found
        reached = np.bincount(nodes) > 0
        return self._matrix[np.flatnonzero(reached)], (np.cumsum(reached) - 1)[nodes]

    def _start(self, hints: tuple[str, ...]) -> tuple[int, bool, int]:
        """Where the ids these hints add behind the delimiter lead from the
        root, newest first: the node, whether every id read matched, and
        how many context ids the window has left (the reach). Each hint's
        ids come from ``Vocabulary.hint_ids``, the one hint memo, of the
        model's current vocabulary, so a vocabulary replaced after
        training (to declare a delimiter) is read as it encodes hints."""
        ids = self._conditioning_context(ModelQuery((), hints=hints))
        read = ids[max(0, len(ids) - (self.order - 1)):]
        node, depth = self._descend(read)
        return node, depth == len(read), self.order - 1 - len(read)

    def _descend(self, ids) -> tuple[int, int]:
        """The deepest node that ``ids`` (oldest first) lead to from the
        root, newest id first, one child table read per id, and how many
        ids matched; with positive smoothing a partial match reads the
        unseen row."""
        child, leaf, radix, node = self._child, self._leaf, self._matrix.shape[1] + 1, 0
        for depth, t in enumerate(reversed(ids)):
            down = int(child[min(node, leaf) * radix + t + 1])
            if down < 0:
                return (node if self._unseen is None else self._unseen), depth
            node = down
        return node, len(ids)

    def _distribution(self, context, prompt_tag):
        node = self._descend(context[max(0, len(context) - (self.order - 1)):])[0]
        view = self._views.get(node)
        if view is None:
            view = self._views.setdefault(node, self._matrix[node])
        return view


def tokenize_corpus(corpus: str, tokenizer: str = "char") -> list[str]:
    """Split corpus text into token strings, which join back to it: one
    per character ("char"), or one per word with the whitespace after
    it, leading whitespace a token of its own ("whitespace"). The end of
    the text breaks a word as a space does, so a last word with no
    whitespace after it gets one and is the same token as elsewhere."""
    if tokenizer == "char":
        return list(corpus)
    if tokenizer == "whitespace":
        tokens = re.findall(r"\S+\s*|\s+", corpus)
        if tokens and not tokens[-1][-1].isspace():
            tokens[-1] += " "
        return tokens
    raise SchemaViolation(f"unknown tokenizer {tokenizer!r}")


def train_ngram(corpus: str | list[str], order: int, smoothing: float,
                tokenizer: str = "char", eos_text: str | None = None,
                separator: str | None = None) -> NgramModel:
    """Count n-grams of every length up to ``order`` and build a model.

    ``corpus`` may be one document or a list of documents; counting never
    crosses document boundaries, so training on pre-split documents
    equals training on their concatenation with ``separator`` tokens.
    ``eos_text``, when given, maps that token string to the EOS id so
    corpora can mark terminations explicitly; otherwise EOS receives
    only smoothing mass. Under the whitespace tokenizer ``separator``
    and ``eos_text`` match a token by its non-whitespace part.
    """
    if order < 1:
        raise SchemaViolation("ngram order must be >= 1")
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise SchemaViolation("smoothing must be a finite nonnegative number")
    docs = [corpus] if isinstance(corpus, str) else list(corpus)
    bare = str.strip if tokenizer == "whitespace" else str  # what markers match
    token_docs = []
    for doc in docs:
        toks = tokenize_corpus(doc, tokenizer)
        if separator is not None:
            split: list[list[str]] = [[]]
            for t in toks:
                if bare(t) == separator:
                    split.append([])
                else:
                    split[-1].append(t)
            token_docs.extend(s for s in split if s)
        elif toks:
            token_docs.append(toks)
    if not token_docs:
        raise EmptyCorpus("corpus contains no tokens")

    texts = sorted({t for doc in token_docs for t in doc if bare(t) != eos_text})
    vocab = Vocabulary.from_tokens(texts + ["<eos>"])
    by_text = {t: i for i, t in enumerate(texts)}
    eos = vocab.eos_id

    size = vocab.size
    ids = np.array([eos if bare(t) == eos_text else by_text[t]
                    for doc in token_docs for t in doc], dtype=np.int64)
    back = np.concatenate([np.arange(len(doc)) for doc in token_docs])  # ids before, in its doc
    # Level by level, the window of each width ending before each position
    # is its parent window (one id narrower) extended one id back; the
    # distinct links of a level, sorted, number its windows after those
    # of the narrower levels. ``cells`` indexes every (window, next id).
    positions, nodes, n_nodes = np.arange(len(ids)), np.zeros(len(ids), dtype=np.int64), 1
    cells, keys = [ids], [np.zeros(0, dtype=np.int64)]
    for width in range(1, order):
        keep = back[positions] >= width
        positions, nodes = positions[keep], nodes[keep]
        links, inverse = np.unique(nodes * (size + 1) + ids[positions - width] + 1,
                                   return_inverse=True)
        nodes, n_nodes = n_nodes + inverse, n_nodes + len(links)
        keys.append(links)
        cells.append(nodes * size + ids[positions])
    counts = np.zeros((n_nodes + (smoothing > 0), size))
    np.add.at(counts.reshape(-1), np.concatenate(cells), 1.0)
    return NgramModel(vocab, order, float(smoothing), counts, np.concatenate(keys))


def load_table_model(source: str | bytes | dict | Path) -> TableModel:
    """Parse a serialized table model.

    Document shape: ``{"vocab": [token strings, last is EOS],
    "rows": [{"context": [...], "dist": [...], "tag"?: str}],
    "default": "uniform" | [dist], "hint_delimiter"?: token string}``.
    A context lists token strings, each mapped to its id (the first on
    duplicate texts). Row distributions must sum to 1 within 1e-6 and
    are renormalized exactly on load.
    """
    doc = check_fields(read_document(source, "table model"),
                       {"vocab", "rows", "default", "hint_delimiter"}, "model")
    vocab = Vocabulary.from_tokens(doc.get("vocab"), doc.get("hint_delimiter"))

    def as_row(dist, where: str) -> np.ndarray:
        if not isinstance(dist, list) or len(dist) != vocab.size or not all(
                isinstance(p, (int, float)) and not isinstance(p, bool) for p in dist):
            raise SchemaViolation(f"{where}: dist must list {vocab.size} probabilities")
        row = np.asarray(dist, dtype=np.float64)
        if not np.all(np.isfinite(row) & (row >= 0)):
            raise SchemaViolation(f"{where}: negative or non-finite probability")
        total = row.sum()
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise RowNotNormalized(f"{where}: row sums to {total:.9f}")
        row = row / total
        row.setflags(write=False)
        return row

    by_text = vocab._text_index[0]
    rows: dict[tuple[str | None, tuple[int, ...]], np.ndarray] = {}
    row_docs = doc.get("rows", [])
    if not isinstance(row_docs, list):
        raise SchemaViolation("rows must be a list")
    for i, entry in enumerate(row_docs):
        check_fields(entry, {"context", "dist", "tag"}, f"rows[{i}]")
        ctx_texts = entry.get("context")
        if not isinstance(ctx_texts, list) or not all(isinstance(t, str) for t in ctx_texts):
            raise SchemaViolation(f"rows[{i}].context must be a list of token strings")
        try:  # one id per listed token, never a re-tokenization of their text
            ctx = tuple(by_text[t] for t in ctx_texts)
        except KeyError:
            raise SchemaViolation(f"rows[{i}].context uses unknown tokens") from None
        tag = entry.get("tag")
        if tag is not None and not isinstance(tag, str):
            raise SchemaViolation(f"rows[{i}].tag must be a string")
        rows[(tag, ctx)] = as_row(entry.get("dist"), f"rows[{i}]")

    default_spec = doc.get("default", "uniform")
    if default_spec == "uniform":
        default = np.full(vocab.size, 1.0 / vocab.size)
        default.setflags(write=False)
    else:
        default = as_row(default_spec, "default")
    return TableModel(vocab, rows, default)


class RemoteModel(TokenModel):
    """HTTP-backed model speaking the next-logprobs wire protocol.

    POST ``{endpoint}/v1/next_logprobs`` with ``{"context": [int],
    "prompt_tag": str}``; the response carries ``{"logprobs": [float]}``
    of vocabulary size. Responses are renormalized defensively and kept
    in a thread-safe LRU of REMOTE_CACHE_ROWS rows per (context,
    prompt_tag); one adapter serves every task of a CLI run, so
    ``evictions`` counts the rows it dropped. Each request waits at most
    ``http_timeout`` seconds, and no longer than the time left before a
    query's deadline, which ends in Timeout.
    """

    def __init__(self, endpoint: str, vocabulary: Vocabulary,
                 http_timeout: float = 10.0):
        import requests  # only the remote adapters need it

        super().__init__(vocabulary)
        self.endpoint = endpoint.rstrip("/")
        self.http_timeout = http_timeout
        self.evictions = 0
        self._session = requests.Session()
        self._cache: OrderedDict[tuple[tuple[int, ...], str], np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        # Construction-time health check: one real (cached) query.
        self._fetch((), "health")

    def next_distributions(self, queries, deadline: float | None = None) -> list:
        out = []
        for q in queries:
            key = (self._conditioning_context(q), q.prompt_tag)
            with self._lock:
                row = self._cache.get(key)
                if row is not None:
                    self._cache.move_to_end(key)
            out.append(row if row is not None else self._fetch(*key, deadline))
        return out

    def _fetch(self, context: tuple[int, ...], prompt_tag: str,
               deadline: float | None = None) -> np.ndarray:
        import requests

        timeout = self.http_timeout
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0.0:
                raise Timeout("wall-clock budget exhausted before a model query")
            timeout = min(timeout, left)
        body = {"context": list(context), "prompt_tag": prompt_tag}
        try:
            resp = self._session.post(self.endpoint + "/v1/next_logprobs",
                                      json=body, timeout=timeout)
        except requests.Timeout as exc:
            if timeout < self.http_timeout:
                raise Timeout("wall-clock budget exhausted during a model query") from exc
            raise RemoteUnavailable(f"model endpoint timed out: {exc}") from exc
        except requests.RequestException as exc:
            raise RemoteUnavailable(f"model endpoint unreachable: {exc}") from exc
        if 400 <= resp.status_code < 500:
            # the backend rejected the request itself (e.g. context too
            # long for its window) rather than being unavailable
            raise ProtocolError(
                f"model endpoint rejected the query: HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise RemoteUnavailable(
                f"model endpoint returned HTTP {resp.status_code}")
        try:
            payload = resp.json()
            logprobs = payload["logprobs"]
            vec = np.asarray(logprobs, dtype=np.float64)
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed logprobs response: {exc}") from exc
        if vec.shape != (self.vocabulary.size,):
            raise ProtocolError(
                f"logprobs length {vec.shape} does not match vocab size "
                f"{self.vocabulary.size}")
        if np.any(np.isnan(vec)):
            raise ProtocolError("logprobs contain NaN")
        if np.any(vec == np.inf):
            raise ProtocolError("logprobs contain +inf")
        # Defensive renormalization in log space.
        m = np.max(vec)
        if m == NEG_INF:
            raise ProtocolError("logprobs are all -inf")
        probs = np.exp(vec - m)
        probs /= probs.sum()
        probs.setflags(write=False)
        with self._lock:
            self._cache[(context, prompt_tag)] = probs
            while len(self._cache) > REMOTE_CACHE_ROWS:
                self._cache.popitem(last=False)
                self.evictions += 1
        return probs

