"""Batch script language: one ring, named ideals, asserts, prints.

Grammar (UTF-8, ';'-terminated statements, '#' comments):

    ring R = char <p> vars <v1,...,vn> [mod <poly>];
    ideal <name> = <poly>, <poly>, ...;
    <name> = colon(A,B) | sum(A,B) | prod(A,B) | intersect(A,B)
           | bracket(A,<q>) | corner(A,<q>) | link(A[,a]) | star_colon(A)
           | iq(A,<e>) | tau() | tilde(A,<depth>,<samples>);
    assert equal(A,B); assert member(<poly>, A); assert !member(<poly>, A);
    assert subset(A,B); assert unmixed(A);
    print gb(A) | len(A) | height(A);

Assertion failures are recorded and execution continues; parse and ring
errors, unknown names and wrong argument counts abort with exit code 2.
"""

from __future__ import annotations

import random
import re
import time

from .core import AlgebraError
from .frobenius import bracket_power
from .linkage import corner_power, direct_link, tilde_approx
from .rings import Ideal, RingContext, is_unmixed
from .singularity import iq_approx, star_colon, test_ideal


class ScriptError(AlgebraError):
    """Parse or ring error in a batch script (exit code 2)."""


_RING_RE = re.compile(
    r"ring\s+(?P<name>\w+)\s*=\s*char\s+(?P<p>\d+)\s+vars\s+(?P<vars>[\w\s,]+?)"
    r"(?:\s+mod\s+(?P<mod>.+))?$", re.S)
_IDEAL_RE = re.compile(r"ideal\s+(?P<name>\w+)\s*=\s*(?P<gens>.+)$", re.S)
_ASSIGN_RE = re.compile(r"(?P<name>\w+)\s*=\s*(?P<fn>\w+)\s*\((?P<args>.*)\)\s*$", re.S)
_ASSERT_RE = re.compile(r"assert\s+(?P<neg>!)?\s*(?P<fn>\w+)\s*\((?P<args>.*)\)\s*$", re.S)
_PRINT_RE = re.compile(r"print\s+(?P<fn>\w+)\s*\((?P<args>.*)\)\s*$", re.S)


def _split_statements(text: str):
    no_comments = re.sub(r"#[^\n]*", "", text)
    return [s.strip() for s in no_comments.split(";") if s.strip()]


def _split_args(argtext: str):
    # top-level comma split (polynomial arguments contain no parentheses)
    parts = [a.strip() for a in argtext.split(",")]
    return [a for a in parts if a]


# (min, max) argument count of every function, assertion and print target
_ARITY = {
    "function": {
        "colon": (2, 2), "sum": (2, 2), "prod": (2, 2), "intersect": (2, 2),
        "bracket": (2, 2), "corner": (2, 2), "link": (1, 2), "star_colon": (1, 1),
        "iq": (2, 2), "tau": (0, 0), "tilde": (1, 3),
    },
    "assertion": {"equal": (2, 2), "member": (2, 2), "subset": (2, 2), "unmixed": (1, 1)},
    "print target": {"gb": (1, 1), "len": (1, 1), "height": (1, 1)},
}


def _check_arity(kind: str, fn: str, args):
    """Reject an unknown name or a wrong argument count before dispatch."""
    if fn not in _ARITY[kind]:
        raise ScriptError(f"unknown {kind} {fn!r}")
    low, high = _ARITY[kind][fn]
    if not low <= len(args) <= high:
        raise ScriptError(f"wrong arity for {fn}()")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScriptError(f"expected an integer, got {text!r}")


class ScriptRunner:
    """Executes one script; collects a SuiteReport-shaped result."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.ring: RingContext | None = None
        self.ideals: dict[str, Ideal] = {}
        self.checks: list[dict] = []
        self.output: list[str] = []

    # -- helpers ---------------------------------------------------------

    def _need_ring(self) -> RingContext:
        if self.ring is None:
            raise ScriptError("no ring declared yet")
        return self.ring

    def _ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            raise ScriptError(f"unknown ideal {name!r}")
        return self.ideals[name]

    def _exponent(self, qtext: str) -> int:
        ring = self._need_ring()
        try:
            q = int(qtext)
        except ValueError:
            raise ScriptError(f"expected a power of p, got {qtext!r}")
        p = ring.field.p
        e = 0
        while q > 1 and q % p == 0:
            q //= p
            e += 1
        if q != 1:
            raise ScriptError(f"{qtext} is not a power of char {p}")
        return e

    # -- statements ------------------------------------------------------

    def execute(self, statement: str):
        m = _RING_RE.fullmatch(statement)
        if m:
            if self.ring is not None:
                raise ScriptError("ring already declared (single ring per script)")
            variables = [v.strip() for v in m.group("vars").split(",") if v.strip()]
            try:
                self.ring = RingContext(int(m.group("p")), variables, m.group("mod"))
            except AlgebraError as exc:
                raise ScriptError(f"bad ring declaration: {exc}")
            return
        m = _IDEAL_RE.fullmatch(statement)
        if m and not _ASSIGN_RE.fullmatch(statement):
            ring = self._need_ring()
            name = m.group("name")
            try:
                gens = [ring.parse(g) for g in _split_args(m.group("gens"))]
            except AlgebraError as exc:
                raise ScriptError(f"bad ideal {name!r}: {exc}")
            self.ideals[name] = Ideal(ring, gens)
            return
        m = _ASSERT_RE.fullmatch(statement)
        if m:
            self._run_assert(m.group("fn"), bool(m.group("neg")),
                             _split_args(m.group("args")), statement)
            return
        m = _PRINT_RE.fullmatch(statement)
        if m:
            self._run_print(m.group("fn"), _split_args(m.group("args")))
            return
        m = _ASSIGN_RE.fullmatch(statement)
        if m:
            self.ideals[m.group("name")] = self._eval(m.group("fn"),
                                                      _split_args(m.group("args")))
            return
        raise ScriptError(f"cannot parse statement: {statement!r}")

    def _eval(self, fn: str, args) -> Ideal:
        ring = self._need_ring()
        _check_arity("function", fn, args)
        if fn == "colon":
            return self._ideal(args[0]).colon(self._ideal(args[1]))
        if fn == "sum":
            return self._ideal(args[0]) + self._ideal(args[1])
        if fn == "prod":
            return self._ideal(args[0]) * self._ideal(args[1])
        if fn == "intersect":
            return self._ideal(args[0]).intersect(self._ideal(args[1]))
        if fn == "bracket":
            return bracket_power(self._ideal(args[0]), self._exponent(args[1]))
        if fn == "corner":
            return corner_power(self._ideal(args[0]), self._exponent(args[1]),
                                samples=2, rng=self.rng).value
        if fn == "link":
            a = self._ideal(args[1]) if len(args) > 1 else None
            J, _ = direct_link(self._ideal(args[0]), a, self.rng)
            return J
        if fn == "star_colon":
            return star_colon(self._ideal(args[0]))
        if fn == "iq":
            return iq_approx(self._ideal(args[0]), _integer(args[1]))
        if fn == "tau":
            return test_ideal(ring).tau
        # tilde
        depth = _integer(args[1]) if len(args) > 1 else 2
        samples = _integer(args[2]) if len(args) > 2 else 3
        total, _ = tilde_approx(self._ideal(args[0]), depth, samples, self.rng)
        return total

    def _run_assert(self, fn: str, negated: bool, args, statement: str):
        ring = self._need_ring()
        _check_arity("assertion", fn, args)
        if fn == "equal":
            ok = self._ideal(args[0]) == self._ideal(args[1])
        elif fn == "member":
            ok = self._ideal(args[1]).contains(ring.parse(args[0]))
        elif fn == "subset":
            ok = self._ideal(args[1]).contains_ideal(self._ideal(args[0]))
        else:  # unmixed
            ok = is_unmixed(self._ideal(args[0]), self.rng)
        if negated:
            ok = not ok
        self.checks.append({
            "name": statement,
            "status": "pass" if ok else "fail",
            "details": "" if ok else "assertion failed",
        })

    def _run_print(self, fn: str, args):
        _check_arity("print target", fn, args)
        I = self._ideal(args[0])
        if fn == "gb":
            text = "gb(%s) = [%s]" % (args[0], ", ".join(I.gb_strings()))
        elif fn == "len":
            value = I.colength()
            text = "len(%s) = %s" % (args[0], "infinite" if value == float("inf") else int(value))
        else:  # height
            text = "height(%s) = %d" % (args[0], I.height())
        self.output.append(text)
        print(text)


def run_script_text(text: str, seed: int = 0, name: str = "script") -> dict:
    """Execute a script; returns a SuiteReport dict (exit code derivable
    from the check statuses)."""
    runner = ScriptRunner(seed)
    start = time.perf_counter()
    for statement in _split_statements(text):
        runner.execute(statement)
    elapsed = time.perf_counter() - start
    return {
        "suite": name,
        "params": {},
        "seed": seed,
        "checks": runner.checks,
        "timings": {"total_s": round(elapsed, 6)},
    }


def run_script(path: str, seed: int = 0) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return run_script_text(text, seed, name=f"script:{path}")
