"""``steersmc run`` records, byte for byte, against committed ones.

``tests/golden`` holds the records of both fixture suites x {smc,
importance, rejection} x N in {16, 256} at seed 7, written before the
interpreter stepped whole populations. Any change that moves a draw, a
weight or a selected answer changes these bytes. The bytes also rest on
NumPy's row-wise sums, so ``tests/golden.numpy-version`` names the NumPy
that wrote them, and a mismatch names both versions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from steersmc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SUITES = {"char_suite": "toy_char", "word_suite": "words"}
WRITTEN_UNDER = (GOLDEN.parent / "golden.numpy-version").read_text().strip()


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("method", ["smc", "importance", "rejection"])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_run_records_match_golden(tmp_path, suite, method, n):
    out = tmp_path / "records.jsonl"
    code = main(["run", "--tasks", str(FIXTURES / "tasks" / f"{suite}.tasks"),
                 "--plans", str(FIXTURES / "plans"),
                 "--model", f"table:{FIXTURES / 'models' / f'{SUITES[suite]}.model.json'}",
                 "--method", method, "-N", str(n), "--seed", "7", "--out", str(out)])
    assert code == 0
    golden = GOLDEN / f"{suite}.{method}.N{n}.jsonl"
    assert out.read_bytes() == golden.read_bytes(), (
        f"records differ from {golden.name}, written under NumPy {WRITTEN_UNDER}; "
        f"this run used NumPy {np.__version__}")
