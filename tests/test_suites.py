import pytest
from oracle import oracle_member, poly_to_dict

from charp.core import AlgebraError
from charp.suites import (
    BUILTIN_RINGS,
    SUITE_NAMES,
    UnknownSuite,
    _Report,
    make_ring,
    report_exit_code,
    verify_suite,
)


class TestPlumbing:
    def test_suite_registry(self):
        assert SUITE_NAMES == sorted([
            "paper-example", "corner-welldef", "corner-containment",
            "essential", "decr", "higher", "hk-identity", "mapping-cone",
            "case1", "linkage-lift", "main-theorem", "max-in-class", "lit",
        ])

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            verify_suite("nope")

    def test_builtin_rings(self):
        assert set(BUILTIN_RINGS) == {"fermat2", "fermat5", "poly2_2", "poly2_3", "quartic3"}
        ring = make_ring("fermat2")
        assert ring.field.p == 2 and ring.relation is not None
        assert make_ring("poly2_3").relation is None
        for name, p, mod in [("fermat5", 5, "x^3+y^3+z^3"), ("quartic3", 3, "x^4+y^4+z^4")]:
            ring = make_ring(name)
            assert ring.field.p == p and ring.relation == ring.parse(mod)

    def test_report_shape(self):
        report = verify_suite("paper-example", {"seed": 1})
        assert set(report) == {"suite", "params", "seed", "checks", "timings"}
        assert report["seed"] == 1
        assert report["params"]["ring"]["p"] == 2
        for check in report["checks"]:
            assert check["status"] in {"pass", "fail", "skip"}
            if check["status"] == "skip":
                assert check["details"]
        assert report_exit_code(report) in (0, 1)

    def test_checks_record_concrete_ideals(self):
        report = verify_suite("paper-example", {"seed": 0})
        assert any("(" in c["details"] for c in report["checks"])


class TestRegularRingDegenerations:
    """Suites stay runnable (pass or explicit skip) when tau = (1)."""

    def test_lit_skips_on_regular_ring(self):
        report = verify_suite("lit", {"ring": "poly2_2", "seed": 0})
        assert [c["status"] for c in report["checks"]] == ["skip"]

    def test_higher_handles_unit_tau(self):
        report = verify_suite("higher", {"ring": "poly2_2", "seed": 0,
                                         "emax": 1})
        assert report_exit_code(report) == 0

    def test_essential_trivial_on_regular_ring(self):
        report = verify_suite("essential", {"ring": "poly2_2", "seed": 0,
                                            "emax": 1})
        assert report_exit_code(report) == 0

    def test_main_theorem_trivial_on_regular_ring(self):
        report = verify_suite("main-theorem", {"ring": "poly2_2", "seed": 0,
                                               "emax": 1, "samples": 2,
                                               "depth": 1})
        assert report_exit_code(report) == 0


class TestParamPlumbing:
    def test_ideal_flag_respected(self):
        report = verify_suite("corner-welldef",
                              {"seed": 0, "ideal": "x^2,y^2,z^2"})
        assert report["params"]["ideal"] == "x^2,y^2,z^2"
        assert report_exit_code(report) == 0

    @pytest.mark.parametrize("suite", [
        "paper-example", "higher", "mapping-cone", "case1", "linkage-lift",
        "max-in-class", "lit",
    ])
    def test_ideal_rejected_where_unread(self, suite):
        with pytest.raises(AlgebraError, match="takes no --ideal"):
            verify_suite(suite, {"seed": 0, "ideal": "x"})

    @pytest.mark.parametrize("params, message", [
        ({"vars": ["x", "y"]}, "need --p"),
        ({"mod": "x^3+y^3+z^3"}, "need --p"),
        ({"ring": "fermat2", "p": 3, "vars": ["x", "y"]}, "--ring takes no"),
        ({"ring": "poly2_3", "mod": "x^3+y^3+z^3"}, "--ring takes no"),
        ({"ring": make_ring("poly2_2"), "p": 2}, "--ring takes no"),
    ], ids=["vars-alone", "mod-alone", "ring-and-p", "ring-and-mod", "context-and-p"])
    def test_ring_flags_are_not_dropped(self, params, message):
        with pytest.raises(AlgebraError, match=message):
            verify_suite("decr", {"seed": 0, **params})

    def test_ring_context_runs_as_given(self):
        report = verify_suite("decr", {"ring": make_ring("poly2_2"), "emax": 1})
        assert report["params"]["ring"] == {"p": 2, "vars": ["x", "y"], "mod": None}

    def test_defaults_recorded(self):
        report = verify_suite("paper-example", {"seed": 0})
        p = report["params"]
        assert (p["emax"], p["depth"], p["samples"], p["tmax"]) == (3, 2, 3, 3)


class TestPaperExampleRings:
    """paper-example's expected values are worked out on fermat2 only."""

    @pytest.mark.parametrize("p, mod", [(2, "x^5+y^5+z^5"), (3, "x^4+y^4+z^4")])
    def test_other_rings_skip_with_reason(self, p, mod):
        report = verify_suite("paper-example", {"p": p, "vars": ["x", "y", "z"],
                                                "mod": mod, "seed": 0})
        assert [c["status"] for c in report["checks"]] == ["skip"]
        assert report["checks"][0]["details"]
        assert report_exit_code(report) == 0

    def test_fermat2_given_explicitly_runs_the_checks(self):
        report = verify_suite("paper-example", {"p": 2, "vars": ["x", "y", "z"],
                                                "mod": "x^3+y^3+z^3", "seed": 0})
        assert [c["status"] for c in report["checks"]] == ["pass"] * 5


class TestNestedPairs:
    """mapping-cone and case1 draw a inside b with a degree bump, so a != b."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("suite, check, count", [
        ("mapping-cone", "a:b = (a, delta)", 10),
        ("case1", "a:(b:I) = a + I(a:b)", 5),
    ], ids=["mapping-cone", "case1"])
    def test_a_strictly_inside_b(self, suite, check, count, seed):
        report = verify_suite(suite, {"seed": seed})
        details = [c["details"] for c in report["checks"] if c["name"].endswith(check)]
        assert len(details) == count
        for text in details:
            fields = dict(part.split(" = ", 1) for part in text.split("; "))
            assert fields["a"] != fields["b"]


class TestOracleVerdicts:
    """Every verdict that ``_Report.contains``, ``strictly`` and ``equal``
    record in the 13 smallest-budget fermat2 reports at seed 0 (the
    tests/golden/small pins) is decided again by the brute-force oracle,
    which shares no code with the Groebner engine.  A membership is decided
    when the element and the lifted generators are homogeneous and the
    element's degree is at most 8, where the oracle's verdict is exact."""

    MAX_DEGREE = 8
    MAX_SKIPPED = 10

    def test_recorded_verdicts_match_the_oracle(self, monkeypatch):
        records = []
        for kind in ("contains", "strictly", "equal"):
            def spy(rep, name, A, B, details="", _kind=kind, _real=getattr(_Report, kind)):
                _real(rep, name, A, B, details)
                records.append((_kind, A, B, rep.data["checks"][-1]["status"]))
            monkeypatch.setattr(_Report, kind, spy)
        for suite in SUITE_NAMES:
            verify_suite(suite, {"seed": 0, "emax": 1, "depth": 1, "samples": 2, "tmax": 1})
        counts = {"decided": 0, "skipped": 0}

        def inside(outer, inner):
            """True or False when the oracle decides inner in outer, else None."""
            ring = outer.ring.poly
            lifted = outer.lift_gens()
            gens = [poly_to_dict(g) for g in lifted]
            verdict = True
            for g in inner.gens:
                if g.degree() > self.MAX_DEGREE or not all(
                        h.is_homogeneous() for h in lifted + [g]):
                    counts["skipped"] += 1
                    if verdict:
                        verdict = None
                    continue
                counts["decided"] += 1
                member = oracle_member(poly_to_dict(g), gens, ring.nvars, ring.field.p)
                assert member == outer.contains(g), (str(g), outer.gb_strings())
                if not member:
                    verdict = False
            return verdict

        def both(x, y):
            return False if False in (x, y) else None if None in (x, y) else True

        compared = 0
        for kind, A, B, status in records:
            forward, backward = inside(A, B), inside(B, A)
            verdict = {"contains": forward,
                       "strictly": both(forward, None if backward is None else not backward),
                       "equal": both(forward, backward)}[kind]
            if verdict is not None:
                compared += 1
                assert status == ("pass" if verdict else "fail"), (kind, A, B)
        assert {kind for kind, *_ in records} == {"contains", "strictly", "equal"}
        print(f"{len(records)} checks, {compared} compared; {counts}")
        assert counts["skipped"] <= self.MAX_SKIPPED, counts
