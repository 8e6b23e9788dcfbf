"""The 13 suite reports at seed 0, default parameters, timings dropped, are
byte-identical to the committed files in tests/golden.

Regenerate them with ``python scripts/make_golden.py``; a rerun changes
what these tests accept, so record it, and why, in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

from charp.suites import SUITE_NAMES

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_report_matches_golden(suite):
    golden = (ROOT / "tests" / "golden" / f"{suite}.json").read_bytes()
    assert make_golden.golden_text(suite, 0).encode("utf-8") == golden
