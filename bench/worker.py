"""One fresh interpreter of the benchmark: set-up probe or measured run.

    python3 bench/worker.py setup <ring specs as JSON>
        time `import charp` plus building the given RingContexts;
        print the seconds.
    python3 bench/worker.py run <workload> <seed> <seconds> <trace> <spans>
        run whole passes over the item list, one item after another,
        until the next pass would end after <seconds> (at least one pass;
        exactly one when <trace> is 1, which also writes spans to <spans>).
        The last stdout line is a JSON result for bench/run.py.

Item latencies cover only the calls into charp; an item's reference checks
run after its timer stops, inside the pass.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

# A program defect tracked by ROADMAP item 4: at suite seed 1, this one
# linkage-lift check cannot raise a height to m-primary.  It is counted as a
# failed item, but it is a known failure, not a wrong answer.  Any other
# failing check, this suite's included, is unexpected.
KNOWN_DEFECT = ("linkage-lift", 1, "chain 1, t=3: J_t exists",
                "could not raise height to m-primary")
ORACLE_SAMPLE = 12


def setup(specs):
    t = time.perf_counter()
    import charp
    for p, variables, relation in specs:
        charp.RingContext(p, variables, relation)
    print(time.perf_counter() - t)


# ---------------------------------------------------------------------------
# items: each returns [(item name, seconds timed, deterministic output)] and
# appends each failed check to `fails` as (item name, reason, known defect).

def run_suite(charp, item, fails):
    name = f"{item['suite']}@seed{item['seed']}"
    t = time.perf_counter()
    try:
        report = charp.verify_suite(item["suite"], {"seed": item["seed"]})
    except Exception as exc:  # any escape fails the item, and the run goes on
        fails.append((name, f"{type(exc).__name__}: {exc}", False))
        return [(name, time.perf_counter() - t, "error")]
    dt = time.perf_counter() - t
    for c in report["checks"]:
        if c["status"] == "fail":
            suite, seed, check, detail = KNOWN_DEFECT
            known = ((item["suite"], item["seed"], c["name"]) == (suite, seed, check)
                     and detail in c["details"])
            fails.append((name, f"{c['name']}: {c['details']}", known))
    report.pop("timings")
    return [(name, dt, report)]


def run_hk(charp, item, fails):
    p, e = item["p"], item["e"]
    name = f"p={p},e={e}"
    t = time.perf_counter()
    try:
        ring = charp.RingContext(p, ["x", "y", "z"], item["relation"])
        m = ring.ideal(*item["m"])
        tau = charp.test_ideal(ring).tau
        table = charp.hk_table(m, e)
    except Exception as exc:  # any escape fails the item, and the run goes on
        fails.append((name, f"{type(exc).__name__}: {exc}", False))
        return [(name, time.perf_counter() - t, "error")]
    dt = time.perf_counter() - t
    lengths = [row.colength_bracket for row in table.rows]
    expected = [workloads.hk_reference(p, p ** k) for k in range(e + 1)]
    if lengths != expected:
        fails.append((name, f"l(R/m^[q]) = {lengths}, reference {expected}", False))
    if tau != m:
        fails.append((name, f"tau = {tau.gb_strings()}, reference m", False))
    return [(name, dt, {"p": p, "e": e, "lengths": lengths, "tau": tau.gb_strings()})]


def statement_name(script, k):
    return f"p={script['p']},n={script['nvars']}#{k}"


def run_script(charp, script, fails, answers):
    runner = charp.script.ScriptRunner(0)
    out = []
    for k, st in enumerate(script["statements"]):
        name = statement_name(script, k)
        t = time.perf_counter()
        try:
            runner.execute(st["text"])
        except Exception as exc:  # any escape fails the item, and the run goes on
            dt = time.perf_counter() - t
            fails.append((name, f"{type(exc).__name__}: {exc}", False))
            out.append((name, dt, "error"))
            continue
        dt = time.perf_counter() - t
        status = runner.checks[-1]["status"] if st["kind"] == "read" else "done"
        if st["kind"] == "read" and status != "pass":
            fails.append((name, f"{st['text'][:60]}...: {status}, expected pass", False))
        answers[name] = status
        out.append((name, dt, status))
    return out


def run_pass(charp, workload, inputs, fails, answers):
    out = []
    for item in inputs:
        if workload == "suites":
            out += run_suite(charp, item, fails)
        elif workload == "frobenius-hk":
            out += run_hk(charp, item, fails)
        else:
            out += run_script(charp, item, fails, answers)
    return out


def oracle_check(inputs, seed, answers, fails):
    """Brute-force check (tests/oracle.py, no charp code) of a seeded
    sample of session membership verdicts."""
    import random
    spec = importlib.util.spec_from_file_location(
        "oracle", os.path.join(ROOT, "tests", "oracle.py"))
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    candidates = []
    for script in inputs:
        for k, st in enumerate(script["statements"]):
            if "oracle" in st:
                candidates.append((statement_name(script, k), script, st))
    sample = random.Random(f"oracle:{seed}").sample(candidates, ORACLE_SAMPLE)
    for name, script, st in sample:
        o = st["oracle"]
        gens = [workloads.decode(g) for g in script["oracle_ideals"][o["ideal"]]]
        verdict = oracle.oracle_member(workloads.decode(o["f"]), gens,
                                       script["nvars"], script["p"])
        program = answers.get(name) == "pass"  # every assert expects pass
        if verdict != o["member"] or not program:
            fails.append((name, f"oracle says member={verdict}, construction "
                                f"{o['member']}, program answer {answers.get(name)}", False))
    return len(sample)


def run(workload: str, seed: int, seconds: float, trace: bool, spans_path: str):
    inputs = workloads.generate(workload, seed)
    import charp
    tracer = None
    result: dict = {}
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        result["unwrapped"] = tracer.unwrapped_references()
    passes, item_ms, fails, digests = [], [], [], []
    answers: dict = {}
    start = time.perf_counter()
    while True:
        pass_fails: list = []
        t = time.perf_counter()
        done = run_pass(charp, workload, inputs, pass_fails, answers)
        passes.append(time.perf_counter() - t)
        item_ms += [dt * 1e3 for _, dt, _ in done]
        fails += [(len(passes) - 1, *f) for f in pass_fails]
        h = hashlib.sha256()
        for name, _, output in done:
            h.update(json.dumps([name, output], sort_keys=True).encode())
        digests.append(h.hexdigest()[:16])
        if trace or time.perf_counter() - start + passes[-1] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload == "session" and not trace:
        oracle_fails: list = []
        result["oracle_checked"] = oracle_check(inputs, seed, answers, oracle_fails)
        fails += [(len(passes) - 1, *f) for f in oracle_fails]
    result.update({
        "passes_s": passes,
        "item_ms": item_ms,
        "failed": len({(k, name) for k, name, _, _ in fails}),
        "fails": fails,
        "report_digests": digests,
        "peak_rss_mb": peak_rss_mb,
    })
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["self_s_by_module"] = tracer.self_time_by_module()
        result["script_s"] = {k: sum(v) / 1e3 for k, v in tracer.script_ms.items()}
        tracer.dump(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(json.loads(sys.argv[2]))
    else:
        run(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), sys.argv[5] == "1", sys.argv[6])
