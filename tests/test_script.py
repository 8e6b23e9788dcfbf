import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from charp import script
from charp.core import AlgebraError
from charp.script import ScriptError, ScriptRunner, run_script, run_script_text

EXAMPLE_SCRIPT = """
# corner power of I = (x^2, y^2, z^2) in the Fermat cubic over F_2
ring R = char 2 vars x, y, z mod x^3 + y^3 + z^3;
ideal I = x^2, y^2, z^2;
ideal a = x^2, y^2;
ideal Jexp = x^2, y^2, z;
J = colon(a, I);
assert equal(J, Jexp);
C = corner(I, 2);
assert member(x*y*z, C);
assert !member(x*y*z, I);
B = bracket(I, 2);
assert subset(B, C);
assert unmixed(I);
print gb(C);
print len(C);
print height(I);
"""


def statuses(report):
    return [c["status"] for c in report["checks"]]


class TestRunScript:
    def test_example_script_all_pass(self):
        report = run_script_text(EXAMPLE_SCRIPT, seed=0)
        assert statuses(report) == ["pass"] * 5

    def test_empty_script(self):
        report = run_script_text("", seed=0)
        assert report["checks"] == []

    def test_failed_assert_recorded_and_execution_continues(self):
        text = """
        ring R = char 2 vars x, y;
        ideal I = x;
        assert member(y, I);
        assert member(x, I);
        """
        report = run_script_text(text)
        assert statuses(report) == ["fail", "pass"]

    def test_parse_error_raises(self):
        with pytest.raises(ScriptError):
            run_script_text("this is not a statement;")

    def test_ring_error_raises(self):
        with pytest.raises(ScriptError):
            run_script_text("ring R = char 4 vars x;")

    def test_single_ring_enforced(self):
        text = "ring R = char 2 vars x;\nring S = char 3 vars y;"
        with pytest.raises(ScriptError):
            run_script_text(text)

    def test_unknown_ideal(self):
        with pytest.raises(ScriptError):
            run_script_text("ring R = char 2 vars x;\nprint gb(I);")

    def test_bad_frobenius_power(self):
        text = "ring R = char 2 vars x, y;\nideal I = x;\nJ = bracket(I, 3);"
        with pytest.raises(ScriptError):
            run_script_text(text)

    def test_non_integer_argument_is_script_error(self):
        text = "ring R = char 2 vars x, y;\nideal A = x, y;\nB = iq(A,foo);"
        with pytest.raises(ScriptError, match="expected an integer"):
            run_script_text(text)

    def test_extra_tilde_argument_is_script_error(self):
        text = "ring R = char 2 vars x, y;\nideal A = x, y;\nB = tilde(A,1,1,4);"
        with pytest.raises(ScriptError, match=r"wrong arity for tilde\(\)"):
            run_script_text(text)

    @pytest.mark.parametrize("statement, name", [
        ("C = colon(A,B,A);", "colon"),
        ("D = iq(A,1,7);", "iq"),
        ("assert member(x);", "member"),
        ("print gb(A,B);", "gb"),
    ], ids=["colon", "iq", "member", "print-gb"])
    def test_wrong_arity_is_script_error(self, statement, name):
        text = "ring R = char 2 vars x, y;\nideal A = x, y;\nideal B = x;\n" + statement
        with pytest.raises(ScriptError, match=rf"^wrong arity for {name}\(\)$"):
            run_script_text(text)

    def test_operations_cover_grammar(self):
        text = """
        ring R = char 2 vars x, y, z mod x^3 + y^3 + z^3;
        ideal I = x^2, y^2, z^2;
        ideal a = x^2, y^2;
        S = sum(I, a);
        P = prod(I, a);
        N = intersect(I, a);
        Q = colon(a, I);
        B = bracket(I, 2);
        C = corner(I, 2);
        L = link(I, a);
        T = tau();
        SC = star_colon(Q);
        U = iq(I, 1);
        W = tilde(Q, 1, 2);
        assert subset(P, N);
        assert equal(S, I);
        assert equal(L, Q);
        """
        report = run_script_text(text, seed=0)
        assert statuses(report) == ["pass"] * 3

    def test_print_output_recorded(self, capsys):
        text = """
        ring R = char 2 vars x, y;
        ideal I = x, y;
        print len(I);
        print height(I);
        print gb(I);
        """
        run_script_text(text)
        out = capsys.readouterr().out
        assert "len(I) = 1" in out
        assert "height(I) = 2" in out
        assert "gb(I) = " in out

    def test_infinite_length_printed(self, capsys):
        text = "ring R = char 2 vars x, y;\nideal I = x;\nprint len(I);"
        run_script_text(text)
        assert "len(I) = infinite" in capsys.readouterr().out

    def test_run_script_from_file(self, tmp_path):
        path = tmp_path / "s.alg"
        path.write_text(EXAMPLE_SCRIPT, encoding="utf-8")
        report = run_script(str(path), seed=0)
        assert statuses(report) == ["pass"] * 5

    def test_seed_recorded(self):
        report = run_script_text("ring R = char 2 vars x;", seed=7)
        assert report["seed"] == 7

    def test_report_shape(self):
        report = run_script_text("ring R = char 2 vars x;\nideal I = x;\nassert member(x, I);",
                                 name="s")
        assert set(report) == {"suite", "params", "seed", "checks", "timings"}
        assert (report["suite"], report["params"]) == ("s", {})
        assert report["checks"] == [
            {"name": "assert member(x, I)", "status": "pass", "details": ""}]


SETUP = "ring R = char 2 vars x, y;\nideal A = x, y;\nideal B = x;\n"


class TestArguments:
    def test_empty_variable_is_script_error(self):
        with pytest.raises(ScriptError, match="^bad ring declaration: empty argument in 'x,, y'$"):
            run_script_text("ring R = char 2 vars x,, y;")

    @pytest.mark.parametrize("statement", [
        "C = colon(A,,B);",
        "C = colon(A,B,);",
        "C = colon(,A);",
        "ideal Z = x,, y;",
        "ideal Z = x,;",
        "assert member(, A);",
        "print gb(A,);",
    ])
    def test_empty_argument_is_script_error(self, statement):
        with pytest.raises(ScriptError, match="empty argument in "):
            run_script_text(SETUP + statement)

    @pytest.mark.parametrize("statement", ["T = tau();", "T = tau( );"])
    def test_tau_takes_no_arguments(self, statement):
        report = run_script_text(SETUP + statement + "\nassert equal(T, T);")
        assert statuses(report) == ["pass"]

    @pytest.mark.parametrize("statement, name", [
        ("C = tilde();", "tilde"),
        ("C = link(A,B,A);", "link"),
        ("T = tau(A);", "tau"),
        ("assert unmixed();", "unmixed"),
    ])
    def test_optional_arguments_bound_the_count(self, statement, name):
        with pytest.raises(ScriptError, match=rf"^wrong arity for {name}\(\)$"):
            run_script_text(SETUP + statement)

    def test_tilde_defaults_are_depth_2_and_3_samples(self):
        results = []
        for call in ("tilde(I)", "tilde(I, 2)", "tilde(I, 2, 3)"):
            runner = ScriptRunner(seed=0)
            for statement in ("ring R = char 2 vars x, y, z mod x^3 + y^3 + z^3",
                              "ideal I = x^2, y^2, z", f"T = {call}"):
                runner.execute(statement)
            results.append(runner.ideals["T"].gb_strings())
        assert results[0] == results[1] == results[2]

    def test_bad_polynomial_names_the_argument(self):
        message = r"^bad polynomial 'x\+': expected a term \(at position 2\)$"
        with pytest.raises(ScriptError, match=message):
            run_script_text(SETUP + "assert member(x+, A);")

    def test_arguments_convert_left_to_right(self):
        with pytest.raises(ScriptError, match="^unknown ideal 'X'$"):
            run_script_text(SETUP + "assert subset(X, Y);")


# Pieces of random scripts: small characteristics, valid or not, three
# variables and low degrees, so that every statement stays cheap.
_NAMES = ["A", "B", "C", "X", "1A", ""]
_GOOD_POLYS = ["x", "y", "z", "x^2+y^2", "x*y", "x^3+y*z^2", "x+y+z", "1", "0", "x^2-2*y*z"]
_POLYS = _GOOD_POLYS + ["x+", "w", "x^99999999999999999999", "(x)", ""]
_INTEGERS = ["0", "1", "2", "4", "-1", "2.5", "q"]
_PIECES = {script.IDEAL: ["A", "B", "C"], script.INTEGER: ["0", "1", "2"],
           script.POWER: ["1", "2", "3"], script.POLY: _GOOD_POLYS}


@st.composite
def statement_soups(draw):
    """A ';'-joined script: usually a valid ring and three ideals, then
    statements that are mostly well-formed calls of ``_OPERATIONS`` and
    otherwise drawn from valid and invalid pieces or raw text."""
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731

    def well_formed(kind):
        name = pick(sorted(script._OPERATIONS[kind]))
        kinds, defaults, _ = script._OPERATIONS[kind][name]
        count = len(kinds) - draw(st.integers(0, len(defaults)))
        return name, ",".join(pick(_PIECES[k]) for k in kinds[:count])

    def random_call(kind):
        if draw(st.integers(0, 3)):
            return well_formed(kind)
        names = sorted({n for entries in script._OPERATIONS.values() for n in entries})
        pieces = _NAMES + _POLYS + _INTEGERS
        return pick(names + ["nope"]), ",".join(
            pick(pieces) for _ in range(draw(st.integers(0, 3))))

    def ring(valid):
        if valid:
            return "ring R = char %s" % pick(["2 vars x, y, z", "2 vars x, y, z mod x^3+y^3+z^3",
                                              "3 vars x, y, z", "3 vars x, y, z mod x*y-z^2"])
        mod = pick([None, "x^3+y^3+z^3", "x^2", "x+1", "3", "x^2+y^2", "x+"])
        return "ring R = char %s vars %s%s" % (
            pick(["2", "3", "4", "0", "65537"]), pick(["x, y, z", "x, y", "x,x", "x,, y"]),
            "" if mod is None else " mod " + mod)

    def statement():
        kind = draw(st.integers(0, 9))
        if kind == 0:
            return "ideal %s = %s" % (pick(_NAMES), ", ".join(
                pick(_POLYS) for _ in range(draw(st.integers(1, 3)))))
        if kind in (1, 2, 3):
            return "%s = %s(%s)" % ((pick(["A", "B", "C"]),) + random_call("function"))
        if kind in (4, 5):
            return "assert %s%s(%s)" % ((pick(["", "!"]),) + random_call("assertion"))
        if kind in (6, 7):
            return "print %s(%s)" % random_call("print target")
        if kind == 8:
            return ring(False)
        return draw(st.text(max_size=12))

    head = [ring(draw(st.integers(0, 4)) > 0)]
    head += [f"ideal {name} = {pick(_GOOD_POLYS)}, {pick(_GOOD_POLYS)}" for name in "ABC"]
    body = [statement() for _ in range(draw(st.integers(0, 6)))]
    return ";\n".join(head + body) + ";"


class TestScriptErrorContract:
    """A random statement soup runs to a report or raises an
    ``AlgebraError`` (exit code 2); nothing else escapes."""

    @settings(max_examples=150, deadline=None)
    @given(statement_soups(), st.integers(0, 3))
    def test_only_algebra_errors_escape(self, text, seed):
        try:
            report = run_script_text(text, seed=seed)
        except AlgebraError:
            return
        assert {c["status"] for c in report["checks"]} <= {"pass", "fail"}


def grammar_operations(block: str) -> dict:
    """{statement kind: {name: (fewest, most) arguments}} of a grammar block.

    Optional arguments are the bracketed ones, as in ``link(A[,a])``.
    """
    found: dict = {kind: {} for kind in script._OPERATIONS}
    for statement in block.split(";"):
        statement = statement.strip()
        if statement.startswith("assert"):
            kind = "assertion"
        elif statement.startswith("print"):
            kind = "print target"
        elif statement.startswith("<name>"):
            kind = "function"
        else:
            continue
        for name, args in re.findall(r"(\w+)\(([^()]*)\)", statement):
            required = [a for a in args.split("[")[0].split(",") if a.strip()]
            found[kind][name] = (len(required), len(required) + args.count("["))
    return found


def registry_operations() -> dict:
    return {kind: {name: (len(kinds) - len(defaults), len(kinds))
                   for name, (kinds, defaults, _) in entries.items()}
            for kind, entries in script._OPERATIONS.items()}


class TestGrammarMatchesRegistry:
    def test_readme_grammar_block(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"Script grammar.*?```\n(.*?)```", readme, re.S).group(1)
        assert grammar_operations(block) == registry_operations()

    def test_module_docstring_grammar(self):
        block = re.search(r"Grammar .*?:\n\n(.*?)\n\n", script.__doc__, re.S).group(1)
        assert grammar_operations(block) == registry_operations()
