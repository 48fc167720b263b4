"""Metrics and the exact target-distribution oracle.

``brute_force_target`` enumerates every sampling path a plan can take
(all token choices at each stochastic point), accumulating path
probability times the accumulated score per finished sequence. It is
written as its own recursion over plan clauses, independent of the
particle stepping code, so Monte Carlo output can be checked against
it. Paths that would error (budget overruns, empty masks) or fail the
plan check contribute zero mass, matching the weight semantics of the
engine. The check itself is the one ``execute_step`` runs: a finished
path is kept only if ``steering.run_check`` passes its text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EnumerationTooLarge, SteeringError
from .models import ModelQuery, TokenModel
from .plans import SteeringPlan, StepClause, forced_tokens
from .steering import as_model_set, hint_bindings_for, render_hint, run_check

NEG_INF = float("-inf")

ENUMERATION_LIMIT = 10 ** 7


def weighted_pass_at_1(entries) -> float:
    """Fraction of total weight carried by passing candidates.

    ``entries`` are (log_weight, passed) pairs; a ``None`` log weight
    marks a null output and contributes zero weight. Callers without
    weights should pass ``0.0`` for every entry, which reduces the
    metric to the plain pass fraction. Adding a constant to all finite
    log weights leaves the result unchanged.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("weighted_pass_at_1 requires at least one candidate")
    finite = [w for w, _ in entries if w is not None and w != NEG_INF]
    if not finite:
        return 0.0
    m = max(finite)
    total = 0.0
    passing = 0.0
    for log_w, passed in entries:
        if log_w is None:
            continue
        w = math.exp(log_w - m) if log_w != NEG_INF else 0.0
        total += w
        if passed:
            passing += w
    if total == 0.0:
        return 0.0
    return passing / total


def total_variation(p, q, n: int | None = None) -> float:
    """Total variation distance between a probability table and an
    empirical law (counts when ``n`` is given, else probabilities)."""
    keys = set(p) | set(q)
    scale = 1.0 / n if n else 1.0
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0) * scale) for k in keys)


def coherency_proxy(tokens, prior_model: TokenModel,
                    prompt_tag: str = "prior") -> float:
    """Mean per-token log probability under the prior; higher is more
    fluent. An empty sequence scores 0.0."""
    if not tokens:
        return 0.0
    logprob = prior_model.sequence_logprob((), tokens, prompt_tag)
    return logprob / len(tokens)


@dataclass(frozen=True)
class TargetTable:
    """Exact target law over finished token sequences."""

    probs: dict[tuple[int, ...], float]
    z: float
    raw: dict[tuple[int, ...], float]

    def text_probs(self, vocabulary) -> dict[str, float]:
        out: dict[str, float] = {}
        for tokens, p in self.probs.items():
            text = vocabulary.decode(tokens)
            out[text] = out.get(text, 0.0) + p
        return out


def brute_force_target(plan: SteeringPlan, models, max_len: int) -> TargetTable:
    """Enumerate the plan's exact target distribution.

    ``max_len`` bounds the enumerated sequence length and must cover the
    longest finishable path (the plan's max_tokens is a natural choice).
    """
    models = as_model_set(models)
    vocab = models.vocabulary
    cap = min(max_len, plan.max_tokens)
    if vocab.size ** cap > ENUMERATION_LIMIT:
        raise EnumerationTooLarge(
            f"{vocab.size}^{cap} sequences exceed the enumeration limit")
    raw: dict[tuple[int, ...], float] = {}

    def finish(tokens: tuple[int, ...], text: str, log_qw: float) -> None:
        if log_qw == NEG_INF:
            return
        if not run_check(plan, text):
            return
        raw[tokens] = raw.get(tokens, 0.0) + math.exp(log_qw)

    def proposal_dist(tokens, hints):
        return models.proposal.next_distribution(
            ModelQuery(tokens, plan.proposal_tag, hints))

    def prior_dist(tokens):
        return models.prior.next_distribution(
            ModelQuery(tokens, plan.prior_tag, ()))

    def at_clause(clause: StepClause, fn, *args):
        """``fn(*args)``; a typed error it raises names the top-level step
        holding ``clause``, as the engine's errors do."""
        def holds(step: StepClause) -> bool:
            return step is clause or any(holds(sub) for sub in step.body)
        try:
            return fn(*args)
        except SteeringError as exc:
            exc.clause_index = next(i for i, step in enumerate(plan.steps) if holds(step))
            raise

    def branch_token(clause: StepClause, tokens, text, hints, log_qw, continue_fn):
        """Branch over every sampleable token at one stochastic point."""
        probs = proposal_dist(tokens, hints)
        if clause.mask is not None:
            ids = at_clause(clause, clause.mask.build, vocab, len(text)).tolist()
            z = float(sum(probs[i] for i in ids))
            if not ids or z <= 0.0:
                return  # a dead end: the path carries no mass, the particle dies
        else:
            ids = range(vocab.size)
            z = 1.0
        prior = prior_dist(tokens) if clause.score_with_prior else None
        for tok in ids:
            p = float(probs[tok])
            if p <= 0.0:
                continue
            log_q = math.log(p / z)
            if clause.score_with_prior:
                pr = float(prior[tok])
                if pr <= 0.0:
                    continue  # zero-weight path
                delta = math.log(pr) - log_q
            else:
                delta = math.log(z)
            new_tokens = tokens + (tok,)
            new_text = text + vocab.token_text[tok]
            new_log_qw = log_qw + log_q + delta
            if tok == vocab.eos_id:
                finish(new_tokens, new_text, new_log_qw)
            else:
                continue_fn(new_tokens, new_text, new_log_qw)

    def rec(tokens, text, hints, frames, log_qw):
        """Enumerate from ``frames``: clauses still to run, and for each
        loop under way a ``(loop, iterations done)`` pair. Clauses that
        do not branch run in this call, so the recursion deepens by one
        call per drawn token only."""
        while frames and log_qw != NEG_INF:
            frame, frames = frames[0], frames[1:]
            if isinstance(frame, tuple):
                # A loop unrolls one iteration at a time, wherever it sits.
                clause, done = frame
                if clause.iterations is not None:
                    if done >= clause.iterations:
                        continue
                elif _until(clause.stop, tokens, text, vocab):
                    continue
                elif clause.max_iterations is not None and done >= clause.max_iterations:
                    return  # budget error path
                frames = clause.body + ((clause, done + 1),) + frames
            elif frame.kind == "draw":
                if len(tokens) >= cap:
                    return  # budget error path (cap <= max_tokens)
                branch_token(frame, tokens, text, hints, log_qw,
                             lambda tk, tx, lw, rest=frames: rec(tk, tx, hints, rest, lw))
                return
            elif frame.kind == "force_string":
                forced = at_clause(frame, forced_tokens, frame, vocab)
                if not forced:
                    continue
                if len(tokens) + len(forced) > plan.max_tokens:
                    return  # budget error path
                log_qw += models.proposal.sequence_logprob(
                    tokens, forced, plan.proposal_tag, hints=hints)
                tokens, text = tokens + tuple(forced), text + vocab.decode(forced)
                if forced[-1] == vocab.eos_id:
                    break
            elif frame.kind == "hint":
                bindings = hint_bindings_for(plan, text, len(tokens))
                hints += (at_clause(frame, render_hint, frame.template, bindings),)
            elif frame.kind == "loop":
                frames = ((frame, 0),) + frames
            else:
                raise ValueError(f"unknown clause kind {frame.kind!r}")
        finish(tokens, text, log_qw)

    def _until(stop, tokens, text, vocab):
        if stop.kind == "token_count":
            return len(tokens) >= stop.value
        if stop.kind == "substring":
            return stop.value in text
        return bool(tokens) and tokens[-1] == vocab.eos_id

    rec((), "", (), plan.steps, 0.0)
    z = sum(raw.values())
    probs = {seq: mass / z for seq, mass in raw.items()} if z > 0 else {}
    return TargetTable(probs=probs, z=z, raw=dict(raw))
