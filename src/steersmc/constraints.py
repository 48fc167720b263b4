"""Machine-checkable text constraints, task specs, and verifiers.

A single normative text policy is used everywhere (verifiers, masks,
plan checks) so a plan and its verifier cannot disagree on boundaries:

- characters are Unicode scalar values, whitespace included;
- words are maximal whitespace-delimited runs; for equality and length
  tests the run is stripped of leading/trailing ASCII punctuation;
- sentences end at '.', '!' or '?' followed by whitespace or end of
  text; a trailing unterminated fragment counts as a sentence;
- checks are case-sensitive except ``contains_words``.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path

from .errors import (SchemaViolation, check_fields, check_kind, check_types, is_count,
                     read_json_lines)
from .rng import RandomStream

WORD_PUNCTUATION = string.punctuation
SENTENCE_TERMINATORS = ".!?"

# The fields each constraint kind may carry besides "kind"; any other
# field is a SchemaViolation.
_CONSTRAINT_FIELDS = {
    **dict.fromkeys(("char_count_exact", "word_count_exact", "word_count_min",
                     "max_word_length", "sentence_count_exact"), {"value"}),
    **dict.fromkeys(("contains_words", "forbidden_words", "sentence_last_words"),
                    {"words"}),
    "positioned_words": {"positions"},
    "per_sentence_word_bounds": {"min_value", "max_value"},
}
# A task's fields, each with the type it must hold.
_TASK_FIELDS = {"prompt_text": str, "task_type": str, "constraints": list}


def words(text: str) -> list[str]:
    """Maximal whitespace-delimited runs, punctuation kept."""
    return text.split()


def strip_word(word: str) -> str:
    """Strip leading/trailing punctuation for matching and length tests."""
    return word.strip(WORD_PUNCTUATION)


def sentences(text: str) -> list[str]:
    """Split on sentence terminators followed by whitespace or end."""
    out: list[str] = []
    start = 0
    n = len(text)
    for i, ch in enumerate(text):
        if ch in SENTENCE_TERMINATORS and (i + 1 == n or text[i + 1].isspace()):
            segment = text[start:i + 1].strip()
            if segment:
                out.append(segment)
            start = i + 1
    tail = text[start:].strip()
    if tail:
        out.append(tail)
    return out


@dataclass(frozen=True)
class ConstraintSpec:
    """One machine-checkable constraint; fields used depend on ``kind``."""

    kind: str
    value: int | None = None
    words: tuple[str, ...] = ()
    positions: tuple[tuple[int, str], ...] = ()
    min_value: int | None = None
    max_value: int | None = None

    def __post_init__(self):
        fields = _CONSTRAINT_FIELDS.get(self.kind)
        if fields is None:
            raise SchemaViolation(f"unknown constraint kind {self.kind!r}")
        if "value" in fields and not is_count(self.value):
            raise SchemaViolation(f"{self.kind}: value must be a nonnegative integer")
        if "words" in fields and not (
                self.words and all(isinstance(w, str) and w for w in self.words)):
            raise SchemaViolation(f"{self.kind}: words must be a nonempty list of strings")
        if self.kind == "positioned_words":
            if not self.positions:
                raise SchemaViolation("positioned_words: positions must be nonempty")
            for pos, word in self.positions:
                if not is_count(pos) or pos < 1:
                    raise SchemaViolation("positioned_words: positions are 1-based integers")
                if not isinstance(word, str) or not word:
                    raise SchemaViolation("positioned_words: each position needs a word")
        if self.kind == "per_sentence_word_bounds":
            if self.min_value is None and self.max_value is None:
                raise SchemaViolation("per_sentence_word_bounds: need min_value or max_value")
            for bound in (self.min_value, self.max_value):
                if bound is not None and not is_count(bound):
                    raise SchemaViolation("per_sentence_word_bounds: bounds are nonnegative integers")
            if (self.min_value is not None and self.max_value is not None
                    and self.min_value > self.max_value):
                raise SchemaViolation("per_sentence_word_bounds: min_value > max_value")

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.value is not None:
            doc["value"] = self.value
        if self.words:
            doc["words"] = list(self.words)
        if self.positions:
            doc["positions"] = {str(pos): word for pos, word in self.positions}
        if self.min_value is not None:
            doc["min_value"] = self.min_value
        if self.max_value is not None:
            doc["max_value"] = self.max_value
        return doc


def constraint_from_dict(doc: dict, where: str = "constraint") -> ConstraintSpec:
    kind = check_kind(doc, _CONSTRAINT_FIELDS, "constraint", where)
    positions: tuple[tuple[int, str], ...] = ()
    if "positions" in doc:
        raw = doc["positions"]
        if not isinstance(raw, dict):
            raise SchemaViolation(f"{where}.positions: must map position -> word")
        if any(isinstance(k, bool) for k in raw):
            raise SchemaViolation(f"{where}.positions: keys must be integers")
        try:
            positions = tuple(sorted((int(k), v) for k, v in raw.items()))
        except (TypeError, ValueError):
            raise SchemaViolation(f"{where}.positions: keys must be integers") from None
    word_list = doc.get("words", [])
    if not isinstance(word_list, list):
        raise SchemaViolation(f"{where}.words: must be a list of strings")
    try:
        return ConstraintSpec(
            kind=kind,
            value=doc.get("value"),
            words=tuple(word_list),
            positions=positions,
            min_value=doc.get("min_value"),
            max_value=doc.get("max_value"),
        )
    except SchemaViolation as exc:
        raise SchemaViolation(f"{where}: {exc.message}") from None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one text against a constraint set."""

    passed: bool
    per_constraint: tuple[tuple[ConstraintSpec, bool, str], ...]


def fails(spec: ConstraintSpec, text: str) -> str | None:
    """Why ``text`` fails ``spec``, or None on a pass. Each kind computes
    only what it reads and builds its message only on failure."""
    kind = spec.kind
    if kind == "char_count_exact":
        n = len(text)
        return None if n == spec.value else f"counted {n} characters, required {spec.value}"
    if kind == "sentence_count_exact":
        n = len(sentences(text))
        return None if n == spec.value else f"counted {n} sentences, required {spec.value}"
    if kind == "sentence_last_words":
        sents = sentences(text)
        if len(sents) != len(spec.words):
            return (f"counted {len(sents)} sentences, "
                    f"expected {len(spec.words)} ending words")
        for i, (sent, want) in enumerate(zip(sents, spec.words), start=1):
            sent_words = words(sent)
            got = strip_word(sent_words[-1]) if sent_words else ""
            if got != want:
                return f"sentence {i} ends with {got!r} (expected {want!r})"
        return None
    if kind == "per_sentence_word_bounds":
        for i, sent in enumerate(sentences(text), start=1):
            n = len(words(sent))
            if spec.min_value is not None and n < spec.min_value:
                return f"sentence {i} has {n} words, required at least {spec.min_value}"
            if spec.max_value is not None and n > spec.max_value:
                return f"sentence {i} has {n} words, required at most {spec.max_value}"
        return None
    ws = words(text)  # every remaining kind reads the words
    if kind == "word_count_exact":
        n = len(ws)
        return None if n == spec.value else f"counted {n} words, required {spec.value}"
    if kind == "word_count_min":
        n = len(ws)
        return None if n >= spec.value else f"counted {n} words, required at least {spec.value}"
    if kind == "positioned_words":
        for pos, want in spec.positions:
            if pos > len(ws):
                return f"word {pos} missing (only {len(ws)} words)"
            got = strip_word(ws[pos - 1])
            if got != want:
                return f"word {pos} is {got!r} (expected {want!r})"
        return None
    if kind == "contains_words":
        present = {strip_word(w).lower() for w in ws}
        missing = [w for w in spec.words if w.lower() not in present]
        return f"missing words: {', '.join(missing)}" if missing else None
    if kind == "forbidden_words":
        stripped = [strip_word(w) for w in ws]
        hits = [w for w in spec.words if w in stripped]
        return f"forbidden words present: {', '.join(hits)}" if hits else None
    if kind == "max_word_length":
        for w in ws:
            if len(strip_word(w)) > spec.value:
                return f"word {strip_word(w)!r} longer than {spec.value} characters"
    return None


def verify(constraints, text: str) -> VerificationReport:
    """Check ``text`` against every constraint; pure and total. A passing
    entry's message is empty."""
    results = tuple((spec, why is None, why or "")
                    for spec, why in ((s, fails(s, text)) for s in constraints))
    return VerificationReport(passed=all(ok for _, ok, _ in results), per_constraint=results)


@dataclass(frozen=True)
class TaskSpec:
    """A task statement with its machine-checkable constraint set."""

    prompt_text: str
    constraints: tuple[ConstraintSpec, ...]
    task_type: str

    def __post_init__(self):
        exact = {}
        for spec in self.constraints:
            if spec.kind.endswith("_exact"):
                if exact.setdefault(spec.kind, spec.value) != spec.value:
                    raise SchemaViolation(
                        f"contradictory {spec.kind} values in one task")

    def to_dict(self) -> dict:
        return {
            "prompt_text": self.prompt_text,
            "task_type": self.task_type,
            "constraints": [c.to_dict() for c in self.constraints],
        }


def task_from_dict(doc: dict, where: str = "task") -> TaskSpec:
    check_types(check_fields(doc, _TASK_FIELDS, where), _TASK_FIELDS, where)
    specs = tuple(constraint_from_dict(c, f"{where}.constraints[{i}]")
                  for i, c in enumerate(doc["constraints"]))
    return TaskSpec(prompt_text=doc["prompt_text"], constraints=specs,
                    task_type=doc["task_type"])


def load_tasks(path: str | Path) -> list[TaskSpec]:
    """Read a task file: one JSON task object per line."""
    return [task_from_dict(doc, where) for where, doc in read_json_lines(path)]


# Small, fixed lexicon used by the instance generators.
_LEXICON = (
    "amber", "basil", "cedar", "delta", "ember", "fable", "grove", "haven",
    "ivory", "jade", "karst", "lumen", "mesa", "noble", "olive", "prism",
    "quartz", "raven", "slate", "tides",
)


def generate_task_instances(task_type: str, count: int, seed: int) -> list[TaskSpec]:
    """Deterministically sample task instances for one task family.

    Parameter ranges (documented, fixed): character targets 8-30; word
    counts 6-14; word-length caps 4-8; sentence counts 2-4; sentence
    word bounds 3-12; word lists drawn from a fixed 20-word lexicon.
    """
    out = []
    for index in range(count):
        stream = RandomStream(seed, "task", task_type, index)

        def pick_words(n: int) -> tuple[str, ...]:
            chosen: list[str] = []
            while len(chosen) < n:
                w = _LEXICON[stream.integers(0, len(_LEXICON))]
                if w not in chosen:
                    chosen.append(w)
            return tuple(chosen)

        if task_type == "sent_01":
            k = stream.integers(8, 31)
            specs = (ConstraintSpec("char_count_exact", value=k),)
            prompt = f"Write a sentence with exactly {k} characters, counting whitespace."
        elif task_type == "sent_02":
            w = stream.integers(8, 15)
            pos = sorted({stream.integers(2, w + 1) for _ in range(3)})
            targets = pick_words(len(pos))
            specs = (
                ConstraintSpec("word_count_exact", value=w),
                ConstraintSpec("positioned_words",
                               positions=tuple(zip(pos, targets))),
            )
            listing = "; ".join(f"word {p} must be {t!r}" for p, t in zip(pos, targets))
            prompt = f"Write a sentence with exactly {w} words; {listing}."
        elif task_type == "sent_03":
            n = stream.integers(5, 13)
            cap = stream.integers(4, 9)
            specs = (
                ConstraintSpec("word_count_min", value=n),
                ConstraintSpec("max_word_length", value=cap),
            )
            prompt = (f"Write a sentence with at least {n} words, "
                      f"each at most {cap} characters long.")
        elif task_type == "sent_04":
            targets = pick_words(3)
            specs = (ConstraintSpec("contains_words", words=targets),)
            prompt = "Write a sentence containing the words " + ", ".join(
                repr(t) for t in targets) + "."
        elif task_type == "para_02":
            n = stream.integers(2, 5)
            banned = pick_words(3)
            specs = (
                ConstraintSpec("sentence_count_exact", value=n),
                ConstraintSpec("forbidden_words", words=banned),
            )
            prompt = (f"Write a paragraph with exactly {n} sentences that never "
                      "uses the words " + ", ".join(repr(b) for b in banned) + ".")
        elif task_type == "para_03":
            n = stream.integers(2, 5)
            lo = stream.integers(3, 7)
            hi = lo + stream.integers(2, 7)
            specs = (
                ConstraintSpec("sentence_count_exact", value=n),
                ConstraintSpec("per_sentence_word_bounds", min_value=lo, max_value=hi),
            )
            prompt = (f"Write a paragraph with exactly {n} sentences, each between "
                      f"{lo} and {hi} words long.")
        elif task_type == "para_05":
            n = stream.integers(2, 4)
            enders = pick_words(n)
            specs = (
                ConstraintSpec("sentence_count_exact", value=n),
                ConstraintSpec("sentence_last_words", words=enders),
            )
            prompt = (f"Write a paragraph with exactly {n} sentences ending with "
                      + ", ".join(repr(e) for e in enders) + " respectively.")
        else:
            raise SchemaViolation(f"unknown task family {task_type!r}")
        out.append(TaskSpec(prompt_text=prompt, constraints=specs, task_type=task_type))
    return out
