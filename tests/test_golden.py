"""The 13 suite reports with default parameters, timings dropped, are
byte-identical to the committed files: tests/golden at seed 0 and
tests/golden/seed1 at seed 1, the suite seed of the ``suites`` benchmark.

The seeds and their directories are ``GOLDEN`` in ``scripts/make_golden.py``.
Regenerate both with ``python scripts/make_golden.py``; a rerun changes what
these tests accept, so record it, and why, in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

from charp.suites import SUITE_NAMES

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)
GOLDEN = make_golden.GOLDEN


@pytest.mark.parametrize("seed, suite", [
    pytest.param(seed, suite, id=suite if seed == 0 else f"seed{seed}-{suite}")
    for seed in GOLDEN for suite in SUITE_NAMES
])
def test_report_matches_golden(seed, suite):
    golden = (Path(GOLDEN[seed]) / f"{suite}.json").read_bytes()
    assert make_golden.golden_text(suite, seed).encode("utf-8") == golden
