import pytest

from charp.suites import (
    BUILTIN_RINGS,
    SUITE_NAMES,
    UnknownSuite,
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
        assert set(BUILTIN_RINGS) == {"fermat2", "poly2_2", "poly2_3"}
        ring = make_ring("fermat2")
        assert ring.field.p == 2 and ring.relation is not None
        assert make_ring("poly2_3").relation is None

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
