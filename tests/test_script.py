import pytest

from charp.script import ScriptError, run_script, run_script_text

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
