"""Batch script language: one ring, named ideals, asserts, prints.

Grammar (UTF-8, ';'-terminated statements, '#' comments):

    ring R = char <p> vars <v1,...,vn> [mod <poly>];
    ideal <name> = <poly>, <poly>, ...;
    <name> = colon(A,B) | sum(A,B) | prod(A,B) | intersect(A,B)
           | bracket(A,<q>) | corner(A,<q>) | link(A[,a]) | star_colon(A)
           | iq(A,<e>) | tau() | tilde(A[,<depth>[,<samples>]]);
    assert equal(A,B); assert member(<poly>, A); assert !member(<poly>, A);
    assert subset(A,B); assert unmixed(A);
    print gb(A) | len(A) | height(A);

Every function, assertion and print target is one entry of ``_OPERATIONS``:
its argument kinds, the defaults of its optional trailing arguments and
its callable.  Assertion failures are recorded and execution continues;
parse and ring errors, unknown names, empty arguments and wrong argument
counts abort with exit code 2.
"""

from __future__ import annotations

import random
import re

from .core import AlgebraError
from .frobenius import bracket_power
from .linkage import corner_power, direct_link, tilde_approx
from .rings import Ideal, RingContext, is_unmixed
from .singularity import iq_approx, star_colon, test_ideal
from .suites import _Report


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
    if not argtext.strip():
        return []
    parts = [a.strip() for a in argtext.split(",")]
    if not all(parts):
        raise ScriptError(f"empty argument in {argtext.strip()!r}")
    return parts


def _shown(text: str) -> str:
    """``text`` quoted for an error message, or named by its length when it
    is over 40 characters long."""
    return repr(text) if len(text) <= 40 else f"a value of {len(text)} characters"


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # not an integer, or past int's max-str-digits limit
        raise ScriptError(f"expected an integer, got {_shown(text)}")


def _length(I: Ideal) -> str:
    value = I.colength()
    return "infinite" if value == float("inf") else str(int(value))


# Argument kinds: an ideal name, an integer, a power of p (passed on as its
# exponent e) and a polynomial.
IDEAL, INTEGER, POWER, POLY = "ideal", "integer", "power", "poly"

# statement kind -> name -> (argument kinds, defaults of the optional
# trailing arguments, callable).  The callable gets the runner and the
# converted arguments; a function returns an Ideal, an assertion a bool
# and a print target the text after "name(args) = ".
_OPERATIONS = {
    "function": {
        "colon": ((IDEAL, IDEAL), (), lambda run, A, B: A.colon(B)),
        "sum": ((IDEAL, IDEAL), (), lambda run, A, B: A + B),
        "prod": ((IDEAL, IDEAL), (), lambda run, A, B: A * B),
        "intersect": ((IDEAL, IDEAL), (), lambda run, A, B: A.intersect(B)),
        "bracket": ((IDEAL, POWER), (), lambda run, A, e: bracket_power(A, e)),
        "corner": ((IDEAL, POWER), (),
                   lambda run, A, e: corner_power(A, e, samples=2, rng=run.rng)),
        "link": ((IDEAL, IDEAL), (None,), lambda run, A, a: direct_link(A, a, run.rng)[0]),
        "star_colon": ((IDEAL,), (), lambda run, A: star_colon(A)),
        "iq": ((IDEAL, INTEGER), (), lambda run, A, e: iq_approx(A, e)),
        "tau": ((), (), lambda run: test_ideal(run.ring).tau),
        "tilde": ((IDEAL, INTEGER, INTEGER), (2, 3),
                  lambda run, A, depth, samples: tilde_approx(A, depth, samples, run.rng)[0]),
    },
    "assertion": {
        "equal": ((IDEAL, IDEAL), (), lambda run, A, B: A == B),
        "member": ((POLY, IDEAL), (), lambda run, f, A: A.contains(f)),
        "subset": ((IDEAL, IDEAL), (), lambda run, A, B: B.contains_ideal(A)),
        "unmixed": ((IDEAL,), (), lambda run, A: is_unmixed(A, run.rng)),
    },
    "print target": {
        "gb": ((IDEAL,), (), lambda run, A: "[%s]" % ", ".join(A.gb_strings())),
        "len": ((IDEAL,), (), lambda run, A: _length(A)),
        "height": ((IDEAL,), (), lambda run, A: str(A.height())),
    },
}


class ScriptRunner:
    """Executes one script, statement by statement, into a suite report."""

    def __init__(self, seed: int = 0, name: str = "script"):
        self.rng = random.Random(seed)
        self.ring: RingContext | None = None
        self.ideals: dict[str, Ideal] = {}
        self.report = _Report(name, {}, seed)
        self.checks = self.report.data["checks"]

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
        p = self.ring.field.p
        try:
            q = int(qtext)
        except ValueError:  # not an integer, or past int's max-str-digits limit
            q = 0
        e = 0
        while q > 1 and q % p == 0:
            q //= p
            e += 1
        if q != 1:
            raise ScriptError(f"expected a power of char {p}, got {_shown(qtext)}")
        return e

    # -- statements ------------------------------------------------------

    def execute(self, statement: str):
        m = _RING_RE.fullmatch(statement)
        if m:
            if self.ring is not None:
                raise ScriptError("ring already declared (single ring per script)")
            digits = m.group("p")
            try:
                variables = _split_args(m.group("vars"))
                self.ring = RingContext(int(digits), variables, m.group("mod"))
            except ValueError:  # past int's max-str-digits limit
                raise ScriptError(f"bad ring declaration: characteristic of "
                                  f"{len(digits)} digits is too long")
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
            ok = self._dispatch("assertion", m.group("fn"), _split_args(m.group("args")))
            if m.group("neg"):
                ok = not ok
            self.report.check(statement, ok, "" if ok else "assertion failed")
            return
        m = _PRINT_RE.fullmatch(statement)
        if m:
            args = _split_args(m.group("args"))
            value = self._dispatch("print target", m.group("fn"), args)
            print(f"{m.group('fn')}({', '.join(args)}) = {value}")
            return
        m = _ASSIGN_RE.fullmatch(statement)
        if m:
            self.ideals[m.group("name")] = self._dispatch(
                "function", m.group("fn"), _split_args(m.group("args")))
            return
        raise ScriptError(f"cannot parse statement: {statement!r}")

    def _dispatch(self, kind: str, fn: str, args: list):
        """Call the ``kind`` operation ``fn`` on ``args``, converted left to
        right by their kinds, with the defaults of the arguments left out."""
        self._need_ring()
        if fn not in _OPERATIONS[kind]:
            raise ScriptError(f"unknown {kind} {fn!r}")
        kinds, defaults, call = _OPERATIONS[kind][fn]
        missing = len(kinds) - len(args)
        if not 0 <= missing <= len(defaults):
            raise ScriptError(f"wrong arity for {fn}()")
        values = [self._argument(k, a) for k, a in zip(kinds, args)]
        return call(self, *values, *defaults[len(defaults) - missing:])

    def _argument(self, kind: str, text: str):
        if kind == IDEAL:
            return self._ideal(text)
        if kind == POLY:
            try:
                return self.ring.parse(text)
            except AlgebraError as exc:
                raise ScriptError(f"bad polynomial {text!r}: {exc}")
        if kind == POWER:
            return self._exponent(text)
        return _integer(text)


def run_script_text(text: str, seed: int = 0, name: str = "script") -> dict:
    """Execute a script; returns a SuiteReport dict (exit code derivable
    from the check statuses)."""
    runner = ScriptRunner(seed, name)
    for statement in _split_statements(text):
        runner.execute(statement)
    return runner.report.done()


def run_script(path: str, seed: int = 0) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return run_script_text(text, seed, name=f"script:{path}")
