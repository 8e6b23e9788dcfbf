"""The 13 suite reports with default parameters, timings dropped, are
byte-identical to the committed files: on fermat2, tests/golden at seed 0
and tests/golden/seed1 at seed 1, the suite seed of the ``suites``
benchmark; on poly2_3, tests/golden/poly2_3 at seed 0.  On the Fermat cubic
at p = 5, ``decr`` and ``main-theorem`` at seed 0 match tests/golden/fermat5;
on the Fermat quartic at p = 3, where tau = m^2, the 13 reports at seed 0
match tests/golden/quartic3.  Two parameter sets are pinned on fermat2 at
seed 0: tests/golden/ideal holds the six suites that read --ideal, given
(x^2, y^2, z), and tests/golden/small all 13 at --qmax 1 --depth 1
--samples 2 --tmax 1.

The (ring, seed) pairs and their directories are ``GOLDEN`` in
``scripts/make_golden.py``, ``SUITES`` there names the suites of a ring
pinned on fewer than all 13, and ``VARIANTS`` the parameter sets; ``pins``
lists them all.  Regenerate them all with
``python scripts/make_golden.py``; a rerun changes what these tests accept,
so record it, and why, in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def _test_id(directory: Path, suite: str) -> str:
    """``suite`` prefixed by the directory's path below tests/golden."""
    return "-".join(directory.relative_to(make_golden._DIR).parts + (suite,))


@pytest.mark.parametrize("directory, ring, seed, params, suite", [
    pytest.param(Path(out), ring, seed, params, suite, id=_test_id(Path(out), suite))
    for out, ring, seed, params, suites in make_golden.pins() for suite in suites
])
def test_report_matches_golden(directory, ring, seed, params, suite):
    golden = (directory / f"{suite}.json").read_bytes()
    assert make_golden.golden_text(suite, seed, ring, params).encode("utf-8") == golden
