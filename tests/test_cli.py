import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charp
from charp.cli import main
from charp.suites import SUITE_NAMES, verify_suite

PASS_SCRIPT = """
ring R = char 2 vars x, y;
ideal I = x, y;
assert member(x, I);
"""

FAIL_SCRIPT = """
ring R = char 2 vars x, y;
ideal I = x;
assert member(y, I);
"""

BAD_SCRIPT = "ring R = char 4 vars x;"


def run_alg(args):
    return subprocess.run(["alg", *args], capture_output=True, text=True)


def run_charp(args, hashseed=None):
    """Run ``python -m charp`` in a fresh interpreter on the charp under test.

    PYTHONPATH is the directory this process imported charp from, so the
    child needs no installed ``alg`` and runs the same code from any
    working directory.  ``hashseed`` fixes the child's PYTHONHASHSEED.
    """
    env = dict(os.environ,
               PYTHONPATH=str(Path(charp.__file__).resolve().parents[1]))
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run([sys.executable, "-m", "charp", *args],
                          capture_output=True, text=True, env=env)


class TestRunCommand:
    def test_exit_zero_on_pass(self, tmp_path):
        f = tmp_path / "ok.alg"
        f.write_text(PASS_SCRIPT)
        assert main(["run", str(f)]) == 0

    def test_exit_one_on_assert_failure(self, tmp_path):
        f = tmp_path / "bad.alg"
        f.write_text(FAIL_SCRIPT)
        assert main(["run", str(f)]) == 1

    def test_exit_two_on_ring_error(self, tmp_path):
        f = tmp_path / "err.alg"
        f.write_text(BAD_SCRIPT)
        assert main(["run", str(f)]) == 2

    def test_exit_two_on_non_integer_argument(self, tmp_path, capsys):
        f = tmp_path / "arg.alg"
        f.write_text("ring R = char 2 vars x, y;\nideal A = x, y;\nB = iq(A,foo);")
        assert main(["run", str(f)]) == 2
        assert capsys.readouterr().err == "error: expected an integer, got 'foo'\n"

    def test_exit_two_on_link_to_unit(self, tmp_path, capsys):
        # a : a = (1): the given a is not replaced by another parameter ideal
        f = tmp_path / "link.alg"
        f.write_text("ring R = char 2 vars x, y, z mod x^3+y^3+z^3;\n"
                     "ideal A = x^2, y^2;\nJ = link(A,A);")
        assert main(["run", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_exit_two_on_missing_file(self):
        assert main(["run", "/nonexistent/x.alg"]) == 2

    @pytest.mark.parametrize("script, code", [
        (PASS_SCRIPT, 0), (FAIL_SCRIPT, 1), (BAD_SCRIPT, 2)],
        ids=["pass", "assert-fail", "ring-error"])
    def test_module_entry_exit_codes(self, tmp_path, script, code):
        f = tmp_path / "s.alg"
        f.write_text(script)
        assert run_charp(["run", str(f)]).returncode == code

    @pytest.mark.parametrize("statement, name", [
        ("C = colon(A,B,A);", "colon"),
        ("D = iq(A,1,7);", "iq"),
        ("assert member(x);", "member"),
        ("print gb(A,B);", "gb"),
    ], ids=["colon", "iq", "member", "print-gb"])
    def test_exit_two_on_wrong_arity(self, tmp_path, statement, name):
        f = tmp_path / "arity.alg"
        f.write_text("ring R = char 2 vars x, y;\nideal A = x, y;\nideal B = x;\n" + statement)
        result = run_charp(["run", str(f)])
        assert result.returncode == 2
        assert result.stderr == f"error: wrong arity for {name}()\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("statement, message", [
        ("C = colon(A,,B);", "empty argument in 'A,,B'"),
        ("ideal Z = x,, y;", "bad ideal 'Z': empty argument in 'x,, y'"),
        ("assert member(x+, A);", "bad polynomial 'x+': expected a term (at position 2)"),
    ], ids=["function", "ideal", "polynomial"])
    def test_exit_two_on_empty_argument(self, tmp_path, statement, message):
        f = tmp_path / "empty.alg"
        f.write_text("ring R = char 2 vars x, y;\nideal A = x, y;\nideal B = x;\n" + statement)
        result = run_charp(["run", str(f)])
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("case", ["directory", "not-utf8", "json-unwritable"])
    def test_io_error_is_one_line_exit_two(self, tmp_path, case):
        f = tmp_path / "ok.alg"
        f.write_text(PASS_SCRIPT)
        args = {"directory": ["run", str(tmp_path)],
                "not-utf8": ["run", str(f)],
                "json-unwritable": ["run", str(f), "--json",
                                    str(tmp_path / "missing" / "r.json")]}[case]
        if case == "not-utf8":
            f.write_bytes(PASS_SCRIPT.encode() + b"# \xff\n")
        result = run_charp(args)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert result.stdout == ""

    @pytest.mark.parametrize("case", ["coefficient", "exponent", "characteristic",
                                      "verify-ideal"])
    def test_over_long_digit_string_is_one_line_exit_two(self, tmp_path, case):
        # 4,301 digits: one past Python's default int max-str-digits limit
        digits = "1" * 4301
        f = tmp_path / "long.alg"
        f.write_text({"coefficient": f"ring R = char 5 vars x, y;\nideal A = {digits}*x, y;",
                      "exponent": f"ring R = char 5 vars x, y;\nideal A = x^{digits}, y;",
                      "characteristic": f"ring R = char {digits} vars x, y;",
                      "verify-ideal": ""}[case])
        args = (["verify", "corner-welldef", "--ideal", f"{digits}*x,y"]
                if case == "verify-ideal" else ["run", str(f)])
        result = run_charp(args)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "too long" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("call", ["iq(A," + "1" * 4301 + ")",
                                      "bracket(A," + "1" * 4000 + ")"],
                             ids=["iq-4301-digits", "bracket-4000-digits"])
    def test_over_long_script_integer_is_named_by_length(self, tmp_path, call):
        f = tmp_path / "long.alg"
        f.write_text(f"ring R = char 5 vars x, y;\nideal A = x, y;\nB = {call};")
        result = run_charp(["run", str(f)])
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert len(result.stderr) < 200
        assert "characters" in result.stderr
        assert result.stdout == ""

    def test_json_report_written(self, tmp_path):
        f = tmp_path / "ok.alg"
        f.write_text(PASS_SCRIPT)
        out = tmp_path / "report.json"
        assert main(["run", str(f), "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"suite", "params", "seed", "checks", "timings"}
        assert data["checks"][0]["status"] == "pass"

    def test_readme_example_script(self, tmp_path):
        # the README's ``alg run scripts/paper_example.alg``
        script = Path(__file__).resolve().parents[1] / "scripts" / "paper_example.alg"
        out = tmp_path / "report.json"
        result = run_charp(["run", str(script), "--json", str(out)])
        assert result.returncode == 0, result.stderr
        checks = json.loads(out.read_text())["checks"]
        assert [c["status"] for c in checks] == ["pass"] * 5
        assert result.stdout.splitlines() == [
            "gb(C) = [x*y*z, x^3+y^3+z^3, z^4, y^4, x*y^3+x*z^3]",
            "len(C) = 28",
            "height(I) = 2",
        ]


class TestVerifyCommand:
    def test_paper_example_passes(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "paper-example", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["suite"] == "paper-example"
        assert all(c["status"] == "pass" for c in data["checks"])

    def test_all_suites_registered(self):
        assert len(SUITE_NAMES) == 13

    def test_unknown_suite_is_input_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "no-such-suite"])
        assert err.value.code == 2

    def test_custom_ring_flags(self):
        # regular ambient ring: tau = (1), everything trivial but runnable
        assert main(["verify", "decr", "--p", "3", "--vars", "x,y",
                     "--qmax", "1"]) == 0

    def test_named_ring_flag(self):
        assert main(["verify", "decr", "--ring", "poly2_2",
                     "--qmax", "1"]) == 0

    @pytest.mark.parametrize("flag", ["--qmax", "--depth", "--samples", "--tmax"])
    def test_negative_parameter_is_input_error(self, flag, capsys):
        assert main(["verify", "decr", flag, "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("must be non-negative, got -1\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["run", "script.alg", "--seed"],
        ["verify", "decr", "--seed"],
        ["verify", "decr", "--p"],
        ["verify", "decr", "--qmax"],
        ["verify", "decr", "--depth"],
        ["verify", "decr", "--samples"],
        ["verify", "decr", "--tmax"],
    ], ids=lambda args: f"{args[0]}{args[-1]}")
    @pytest.mark.parametrize("value", ["abc", "1" * 4301], ids=["word", "4301-digits"])
    def test_bad_integer_option_is_one_line_exit_two(self, args, value):
        result = run_charp(args + [value])
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: argument {args[-1]}: expected an integer")
        assert result.stderr.count("\n") == 1
        assert len(result.stderr) < 100
        assert result.stdout == ""

    @pytest.mark.parametrize("flags, message", [
        (["--vars", "x,y"], "--vars and --mod need --p"),
        (["--mod", "x^2"], "--vars and --mod need --p"),
        (["--ring", "fermat2", "--p", "3", "--vars", "x,y"],
         "--ring takes no --p, --vars or --mod"),
        (["--ring", "poly2_2", "--mod", "x^2"], "--ring takes no --p, --vars or --mod"),
    ], ids=["vars-alone", "mod-alone", "ring-and-p", "ring-and-mod"])
    def test_ring_flags_are_not_dropped(self, flags, message, capsys):
        assert main(["verify", "decr", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_ideal_for_a_suite_without_one_is_input_error(self, capsys):
        assert main(["verify", "higher", "--ideal", "x"]) == 2
        assert capsys.readouterr().err == "error: suite 'higher' takes no --ideal\n"

    def test_unwritable_json_is_one_line_exit_two(self, tmp_path):
        result = run_charp(["verify", "paper-example", "--json",
                            str(tmp_path / "missing" / "r.json")])
        assert result.returncode == 2
        assert result.stderr.startswith("error: cannot write the report: ")
        assert result.stderr.count("\n") == 1

    def test_entry_point_installed(self):
        result = run_alg(["verify", "paper-example"])
        assert result.returncode == 0
        assert "[pass]" in result.stdout


class TestDeterminism:
    def test_reports_byte_identical_modulo_timings(self):
        a = verify_suite("paper-example", {"seed": 5})
        b = verify_suite("paper-example", {"seed": 5})
        a.pop("timings"), b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_subprocess_reports_byte_identical(self, tmp_path):
        outs = []
        for name, hashseed in (("a.json", 1), ("b.json", 2)):
            out = tmp_path / name
            result = run_charp(["verify", "mapping-cone", "--seed", "3",
                                "--json", str(out)], hashseed=hashseed)
            assert result.returncode == 0
            data = json.loads(out.read_text())
            data.pop("timings")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]
