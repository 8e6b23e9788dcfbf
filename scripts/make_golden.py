"""Write the golden suite reports that ``tests/test_golden.py`` compares.

Runs each of the 13 ``alg verify`` suites with default parameters on a
built-in ring, or on a ring of ``RINGS``, drops the ``timings`` block and
writes ``report_to_json`` of the rest to ``<out>/<suite>.json``.  ``GOLDEN``
maps each pinned (ring, suite seed) to its directory, and ``SUITES`` lists
the suites of a ring that runs fewer than all 13.  Run from the repository
root:

    python scripts/make_golden.py                          # every pinned pair
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

# rings pinned here that are not built in, as ``verify_suite`` parameters:
# the Fermat cubic at p = 5, where I_q runs up to q = 125, and the Fermat
# quartic at p = 3, whose test ideal is m^2 rather than m
RINGS = {"fermat5": {"p": 5, "vars": ["x", "y", "z"], "mod": "x^3+y^3+z^3"},
         "quartic3": {"p": 3, "vars": ["x", "y", "z"], "mod": "x^4+y^4+z^4"}}

# the suites of a ring pinned on fewer than all 13: on fermat5 the
# corner-power suites take over 40 s each; on quartic3 these three reach
# the branches that tau = m leaves trivial on fermat2
SUITES = {"fermat5": ("decr", "main-theorem"),
          "quartic3": ("higher", "lit", "max-in-class")}

# (ring, suite seed) -> directory of its golden reports; seed 1 is the
# suite seed of the ``suites`` benchmark, and on poly2_3 the parameter
# searches run over every point of P^2(F_2)
GOLDEN = {("fermat2", 0): _DIR,
          ("fermat2", 1): os.path.join(_DIR, "seed1"),
          ("poly2_3", 0): os.path.join(_DIR, "poly2_3"),
          ("fermat5", 0): os.path.join(_DIR, "fermat5"),
          ("quartic3", 0): os.path.join(_DIR, "quartic3")}


def golden_text(suite: str, seed: int, ring: str = "fermat2") -> str:
    """The suite's report on ``ring`` at ``seed`` as JSON, without its timings."""
    report = verify_suite(suite, {**RINGS.get(ring, {"ring": ring}), "seed": seed})
    report.pop("timings")
    return report_to_json(report)


def write_reports(ring: str, seed: int, out: str):
    os.makedirs(out, exist_ok=True)
    for suite in SUITES.get(ring, SUITE_NAMES):
        with open(os.path.join(out, f"{suite}.json"), "w", encoding="utf-8") as fh:
            fh.write(golden_text(suite, seed, ring))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ring", help="built-in ring or one of RINGS (default: fermat2)")
    parser.add_argument("--seed", type=int, help="suite seed (default: 0)")
    parser.add_argument("--out", help="directory to write to (default: the pair's pinned one)")
    args = parser.parse_args(argv)
    if args.ring is None and args.seed is None and args.out is None:
        targets = GOLDEN
    else:
        key = (args.ring or "fermat2", 0 if args.seed is None else args.seed)
        out = args.out or GOLDEN.get(key)
        if out is None:
            parser.error(f"ring {key[0]} at seed {key[1]} has no pinned directory; give --out")
        targets = {key: out}
    for (ring, seed), out in targets.items():
        write_reports(ring, seed, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
