"""Write the golden suite reports that ``tests/test_golden.py`` compares.

Runs each of the 13 ``alg verify`` suites with default parameters, drops
the ``timings`` block and writes ``report_to_json`` of the rest to
``<out>/<suite>.json``.  ``GOLDEN`` maps each pinned suite seed to its
directory.  Run from the repository root:

    python scripts/make_golden.py                  # every pinned seed
    python scripts/make_golden.py --seed 1         # one pinned seed
    python scripts/make_golden.py --seed 2 --out DIR

Regenerating the pinned directories changes what the tests accept; record
every rerun, and why, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from charp.suites import SUITE_NAMES, report_to_json, verify_suite  # noqa: E402

# suite seed -> directory of its golden reports; seed 1 is the suite seed
# of the ``suites`` benchmark
GOLDEN = {0: os.path.join(ROOT, "tests", "golden"),
          1: os.path.join(ROOT, "tests", "golden", "seed1")}


def golden_text(suite: str, seed: int) -> str:
    """The suite's report at ``seed`` as JSON, without its timings."""
    report = verify_suite(suite, {"seed": seed})
    report.pop("timings")
    return report_to_json(report)


def write_reports(seed: int, out: str):
    os.makedirs(out, exist_ok=True)
    for suite in SUITE_NAMES:
        with open(os.path.join(out, f"{suite}.json"), "w", encoding="utf-8") as fh:
            fh.write(golden_text(suite, seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int,
                        help="write only this seed (default: every pinned seed)")
    parser.add_argument("--out", help="directory to write to (default: the seed's pinned one)")
    args = parser.parse_args(argv)
    if args.seed is None and args.out is None:
        targets = GOLDEN
    else:
        seed = 0 if args.seed is None else args.seed
        out = args.out or GOLDEN.get(seed)
        if out is None:
            parser.error(f"seed {seed} has no pinned directory; give --out")
        targets = {seed: out}
    for seed, out in targets.items():
        write_reports(seed, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
