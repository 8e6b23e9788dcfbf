"""The 13 suite reports with default parameters, timings dropped, are
byte-identical to the committed files: on fermat2, tests/golden at seed 0
and tests/golden/seed1 at seed 1, the suite seed of the ``suites``
benchmark; on poly2_3, tests/golden/poly2_3 at seed 0.  On the Fermat cubic
at p = 5, ``decr`` and ``main-theorem`` at seed 0 match tests/golden/fermat5;
on the Fermat quartic at p = 3, where tau = m^2, ``higher``, ``lit`` and
``max-in-class`` at seed 0 match tests/golden/quartic3.

The (ring, seed) pairs and their directories are ``GOLDEN`` in
``scripts/make_golden.py``, and ``SUITES`` there names the suites of a ring
pinned on fewer than all 13.  Regenerate them all with
``python scripts/make_golden.py``; a rerun changes what these tests accept,
so record it, and why, in CHANGES.md.
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


def _test_id(ring: str, seed: int, suite: str) -> str:
    prefix = [] if ring == "fermat2" else [ring]
    prefix += [f"seed{seed}"] if seed else []
    return "-".join(prefix + [suite])


@pytest.mark.parametrize("ring, seed, suite", [
    pytest.param(ring, seed, suite, id=_test_id(ring, seed, suite))
    for ring, seed in GOLDEN for suite in make_golden.SUITES.get(ring, SUITE_NAMES)
])
def test_report_matches_golden(ring, seed, suite):
    golden = (Path(GOLDEN[ring, seed]) / f"{suite}.json").read_bytes()
    assert make_golden.golden_text(suite, seed, ring).encode("utf-8") == golden
