"""Write the golden suite reports that ``tests/test_golden.py`` compares.

Runs each of the 13 ``alg verify`` suites with default parameters on a
ring of ``charp.suites.BUILTIN_RINGS``, drops the ``timings`` block and
writes ``report_to_json`` of the rest to ``<out>/<suite>.json``.  ``GOLDEN``
maps each pinned (ring, suite seed) to its directory, and ``SUITES`` lists
the suites of a ring that runs fewer than all 13.  ``VARIANTS`` pins
non-default parameters on a ring at seed 0, each set in
``tests/golden/<name>``.  Run from the repository root:

    python scripts/make_golden.py                          # every pinned set
    python scripts/make_golden.py --seed 1                 # one pinned pair
    python scripts/make_golden.py --ring poly2_3           # one pinned pair
    python scripts/make_golden.py --ring fermat5           # one pinned pair
    python scripts/make_golden.py --ring quartic3          # one pinned pair
    python scripts/make_golden.py --ring poly2_2 --seed 2 --out DIR

``--ring`` defaults to fermat2 and ``--seed`` to 0.  Regenerating the pinned
directories changes what the tests accept; record every rerun, and why, in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from charp.suites import SUITE_NAMES, report_to_json, verify_suite  # noqa: E402

_DIR = os.path.join(ROOT, "tests", "golden")

# the suites of a ring pinned on fewer than all 13: on fermat5 the
# corner-power suites take over 40 s each
SUITES = {"fermat5": ("decr", "main-theorem")}

# (ring, suite seed) -> directory of its golden reports; seed 1 is the
# suite seed of the ``suites`` benchmark, and on poly2_3 the parameter
# searches run over every point of P^2(F_2)
GOLDEN = {("fermat2", 0): _DIR,
          ("fermat2", 1): os.path.join(_DIR, "seed1"),
          ("poly2_3", 0): os.path.join(_DIR, "poly2_3"),
          ("fermat5", 0): os.path.join(_DIR, "fermat5"),
          ("quartic3", 0): os.path.join(_DIR, "quartic3")}

# name -> (ring, ``verify_suite`` parameters, suites), pinned at seed 0 in
# tests/golden/<name>: on fermat2, "ideal" gives an ideal to the six suites
# that read --ideal and "small" runs all 13 at --qmax 1 --depth 1
# --samples 2 --tmax 1; "fermat5-q2" runs all 13 on fermat5 at --qmax 2,
# where q reaches 25
VARIANTS = {
    "ideal": ("fermat2", {"ideal": "x^2,y^2,z"},
              ("corner-containment", "corner-welldef", "decr", "essential",
               "hk-identity", "main-theorem")),
    "small": ("fermat2", {"emax": 1, "depth": 1, "samples": 2, "tmax": 1}, SUITE_NAMES),
    "fermat5-q2": ("fermat5", {"emax": 2}, SUITE_NAMES),
}


def pins():
    """(directory, ring, seed, parameters, suites) of every pinned set."""
    for (ring, seed), out in GOLDEN.items():
        yield out, ring, seed, {}, SUITES.get(ring, SUITE_NAMES)
    for name, (ring, params, suites) in VARIANTS.items():
        yield os.path.join(_DIR, name), ring, 0, params, suites


def golden_text(suite: str, seed: int, ring: str = "fermat2",
                params: dict | None = None) -> str:
    """The suite's report on ``ring`` at ``seed`` with ``params`` as JSON,
    without its timings."""
    report = verify_suite(suite, {"ring": ring, **(params or {}), "seed": seed})
    report.pop("timings")
    return report_to_json(report)


def write_reports(out: str, ring: str, seed: int, params: dict, suites):
    os.makedirs(out, exist_ok=True)
    for suite in suites:
        with open(os.path.join(out, f"{suite}.json"), "w", encoding="utf-8") as fh:
            fh.write(golden_text(suite, seed, ring, params))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ring", help="built-in ring (default: fermat2)")
    parser.add_argument("--seed", type=int, help="suite seed (default: 0)")
    parser.add_argument("--out", help="directory to write to (default: the pair's pinned one)")
    args = parser.parse_args(argv)
    if args.ring is None and args.seed is None and args.out is None:
        targets = pins()
    else:
        ring, seed = args.ring or "fermat2", 0 if args.seed is None else args.seed
        out = args.out or GOLDEN.get((ring, seed))
        if out is None:
            parser.error(f"ring {ring} at seed {seed} has no pinned directory; give --out")
        targets = [(out, ring, seed, {}, SUITES.get(ring, SUITE_NAMES))]
    for target in targets:
        write_reports(*target)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
