#!/usr/bin/env python3
"""Run the committed mutants: each must make at least one of its tests fail.

    python3 .github/mutants.py [NAME ...]

Run from the root of a checkout. For each entry of ``MUTANTS`` (all of
them, or the ones named), the script copies the checkout without
``.git`` to a temporary directory (``src/`` and ``tests/``, and the
fixtures, ``perfbench/`` and documents that tests read), replaces the
one occurrence of ``old`` in ``file`` with ``new``, and runs ``pytest
-x`` on the entry's test ids there, with the copy's ``src`` first on the
path. The mutant is killed when a test fails (pytest exit status 1).
First the listed tests run once unmutated and must all pass, so that a
failure under a mutant is its kill; benchmark output (``perfbench/out``)
is not copied. The gate fails, after every entry has run, if a mutant
survives, if an ``old`` text does not occur exactly once (code that
moved must move its entry too), or if pytest ends any other way (an
unknown test id, a collection error). Each line printed gives the
entry's name, its result and its seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path.cwd()


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


STEERING, ENGINE, MODELS = "src/steersmc/steering.py", "src/steersmc/engine.py", \
    "src/steersmc/models.py"
WALK = "tests/test_population.py::test_population_step_matches_the_walk"
FREE_ROWS = "tests/test_population.py::test_context_free_rows_are_asked_once_per_draw_call"
NGRAM_ROWS = "tests/test_models.py::test_ngram_table_rows_are_the_rows_of_the_whole_contexts"
NGRAM_COUNTS = \
    "tests/test_models.py::test_ngram_rows_are_the_smoothed_counts_of_the_training_corpus"
ORACLE = "tests/test_population.py::test_random_plans_agree_with_the_oracle_on_support"
CHECKED = "tests/test_population.py::test_the_step_check_agrees_with_run_check"

MUTANTS = (
    Mutant("resample resets survivors to weight 0", ENGINE,
           "    out.log_weights[:] = log_mean\n", "    out.log_weights[:] = 0.0\n",
           ("tests/test_engine.py::TestResample::test_post_resample_weight_is_log_mean",
            "tests/test_acceptance.py::TestCriterion03NormalizingConstant"
            "::test_fixed_schedule_smc_estimates_z")),
    Mutant("a masked draw drops its log Z", STEERING,
           "deltas[members] = logs[used]", "deltas[members] = 0.0", (WALK,)),
    Mutant("a uniform block one counter ahead", STEERING,
           "self.counters[slots] + np.uint64(tick),",
           "self.counters[slots] + np.uint64(tick + 1),",
           ("tests/test_population.py::test_uniform_blocks_match_the_walk",)),
    Mutant("counters advanced only for a call's survivors", STEERING,
           "(pop.lengths[entered] - starts).astype(np.uint64)",
           "np.where(pop.status[entered] == ACTIVE, pop.lengths[entered] - starts, 0)"
           ".astype(np.uint64)",
           ("tests/test_population.py::test_draw_calls_match_the_walk", WALK)),
    Mutant("the engine does not pass weighted", ENGINE,
           "deadline=deadline, weighted=weighted)", "deadline=deadline)",
           ("tests/test_engine.py::TestRunRejection::test_rejection_asks_for_no_score",)),
    Mutant("a rejected weight left finite", STEERING,
           "pop.status[rejected], pop.log_weights[rejected] = REJECTED, NEG_INF",
           "pop.status[rejected] = REJECTED",
           ("tests/test_engine.py::TestErrorTaxonomy::test_all_checks_failing_is_all_dead",)),
    Mutant("the check run twice on a failing text", STEERING,
           "[not run_check(plan, text) for",
           "[not run_check(plan, text) and not run_check(plan, text) for",
           ("tests/test_benchmark_hooks.py::test_tracer_counts_one_check_per_finished_particle",)),
    Mutant("the length rule passes a short text", STEERING,
           "pop.text_lengths[finished, None] != [", "pop.text_lengths[finished, None] > [",
           (CHECKED,)),
    Mutant("a mixed check takes the length rule alone", STEERING,
           'if all(spec.kind == "char_count_exact"', 'if any(spec.kind == "char_count_exact"',
           (CHECKED,)),
    Mutant("the rule for rows skipped in _Pass.rows", STEERING,
           "return table, slot_rows, check_rows(table, name)",
           "return table, slot_rows, table.sum(axis=1)",
           ("tests/test_steering.py::test_a_table_not_over_the_vocabulary_is_a_protocol_error",
            "tests/test_population.py::test_an_injected_fault_ends_the_run_in_its_typed_error")),
    Mutant("the rule for rows skipped in next_distribution", MODELS,
           "        check_rows(row[None], type(self).__name__)\n", "",
           ("tests/test_steering.py"
            "::test_rows_that_are_not_one_vector_per_query_are_a_protocol_error",)),
    Mutant("rows summed before their entries are bounded", MODELS,
           '    if not (table.dtype.kind in "fiu"',
           '    sums = table.sum(axis=1)\n    if not (table.dtype.kind in "fiu"',
           ("tests/test_steering.py::test_a_table_not_over_the_vocabulary_is_a_protocol_error",)),
    Mutant("a list in place of a table read as one", STEERING,
           "if not (isinstance(table, np.ndarray) and table.ndim == 2",
           "if not (table.ndim == 2",
           ("tests/test_population.py::test_an_injected_fault_ends_the_run_in_its_typed_error",)),
    Mutant("a context-free draw call asks for its rows every tick", STEERING,
           "if table is None or not fixed:", "if True:",
           (FREE_ROWS,
            "tests/test_benchmark_hooks.py::test_draw_calls_per_benchmark_operation")),
    Mutant("the prior's rows asked every tick at reach 0", STEERING,
           "if prior_rows is None or prior_reach[0]:", "if True:", (FREE_ROWS,)),
    Mutant("the prior's rows kept for a call although it reads context", STEERING,
           "if prior_rows is None or prior_reach[0]:", "if prior_rows is None:", (FREE_ROWS,)),
    Mutant("the prior's reach asked every tick", STEERING,
           "if prior_rows is None or prior_reach[0]:",
           "if prior_rows is None or "
           "self.reach(self.models.prior, np.zeros(1, dtype=np.intp))[0]:",
           ("tests/test_population.py::test_reach_is_asked_once_per_hint_set_per_call",)),
    Mutant("a forced EOS leaves its slot active", STEERING,
           "        pop.status[slots] = DONE\n        return slots[:0]\n",
           "        return slots[:0]\n", (WALK,)),
    Mutant("the n-gram table walk ignores each slot's width", MODELS,
           "limit = np.minimum(widths, left)", "limit = left", (NGRAM_ROWS,)),
    Mutant("the n-gram table walk drops the unseen row", MODELS,
           "np.where(found, down, nodes if self._unseen is None\n"
           "                                               else self._unseen)",
           "np.where(found, down, nodes)", (NGRAM_ROWS,)),
    Mutant("the n-gram table walk reads a leaf's child past the child table", MODELS,
           "child[np.minimum(nodes, leaf) * radix + digits]", "child[nodes * radix + digits]",
           (NGRAM_COUNTS,)),
    Mutant("the n-gram child table's no-children block filled with 0", MODELS,
           "        self._child[keys] = nodes\n",
           "        self._child[keys] = nodes\n        self._child[-(size + 1):] = 0\n",
           (NGRAM_COUNTS,)),
    Mutant("a zero-probability forced token keeps a finite weight", STEERING,
           "math.log(p) if p > 0.0 else NEG_INF", "math.log(p) if p > 0.0 else 0.0",
           (ORACLE, WALK)),
    Mutant("the hint memo bypassed", MODELS,
           "return self._hint_memo(hint)",
           "return (self.hint_delimiter_id,) + self.encode(hint, lenient=True)",
           ("tests/test_models.py::test_hint_memo_stays_bounded",)),
)


def pytest(mutant: Mutant | None, tests) -> subprocess.CompletedProcess:
    """Run ``pytest -x`` on these test ids in a fresh copy of the
    checkout, with ``mutant`` applied if given; None when its ``old``
    text does not occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        if mutant is not None:
            path = copy / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                return None
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-o", "addopts=", *tests],
            cwd=copy, env=env, capture_output=True, text=True)


def outcome(proc: subprocess.CompletedProcess | None, killed: int) -> str:
    """"ok" when pytest exited with status ``killed`` (1 for a mutant,
    0 for the unmutated control run), else what went wrong."""
    if proc is None:
        return "ERROR: its old text does not occur exactly once"
    if proc.returncode == killed:
        return "ok"
    if proc.returncode in (0, 1):
        return "SURVIVED" if killed else f"FAILED unmutated\n{proc.stdout[-3000:]}"
    return (f"ERROR: pytest exit status {proc.returncode}\n"
            f"{proc.stdout[-3000:]}{proc.stderr[-2000:]}")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        print("unknown mutant name among:", *names, file=sys.stderr)
        return 2
    start = time.monotonic()
    # every listed test passes unmutated, so a failure under a mutant is its kill
    control = outcome(pytest(None, dict.fromkeys(t for m in chosen for t in m.tests)), 0)
    print(f"unmutated: {control} ({time.monotonic() - start:.1f} s)", flush=True)
    if control != "ok":
        return 1
    failed = 0
    for mutant in chosen:
        began = time.monotonic()
        result = outcome(pytest(mutant, mutant.tests), 1)
        failed += result != "ok"
        print(f"{mutant.name}: {'killed' if result == 'ok' else result} "
              f"({time.monotonic() - began:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed "
          f"in {time.monotonic() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
