"""Write the golden suite reports that ``tests/test_golden.py`` compares.

Runs each of the 13 ``alg verify`` suites with default parameters, drops
the ``timings`` block and writes ``report_to_json`` of the rest to
``<out>/<suite>.json``.  Run from the repository root:

    python scripts/make_golden.py                  # tests/golden, seed 0
    python scripts/make_golden.py --seed 1 --out DIR

Regenerating ``tests/golden`` changes what the tests accept; record every
rerun, and why, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from charp.suites import SUITE_NAMES, report_to_json, verify_suite  # noqa: E402


def golden_text(suite: str, seed: int) -> str:
    """The suite's report at ``seed`` as JSON, without its timings."""
    report = verify_suite(suite, {"seed": seed})
    report.pop("timings")
    return report_to_json(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, "tests", "golden"))
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for suite in SUITE_NAMES:
        with open(os.path.join(args.out, f"{suite}.json"), "w", encoding="utf-8") as fh:
            fh.write(golden_text(suite, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
