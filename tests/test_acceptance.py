"""Acceptance gate: one test per criterion, exact symbolic checks only.

Each criterion is verified end to end; the stated runtime budgets are
asserted with a wall clock.  Randomized criteria run the corresponding
named suite at a fixed seed and require every recorded check to pass.
"""

import itertools
import json
import random
import time

import pytest

from charp.core import Polynomial, PolyRing
from charp.frobenius import bracket_power, frobenius_preimage, frobenius_root
from charp.groebner import buchberger, normal_form
from charp.linkage import corner_power
from charp.rings import Ideal, RingContext
from charp.suites import verify_suite
from oracle import oracle_member, poly_to_dict, random_homogeneous_dict
from test_cli import run_charp

SEED = 0


@pytest.fixture(scope="module")
def fermat2():
    return RingContext(2, ["x", "y", "z"], "x^3+y^3+z^3")


def run_suite_all_pass(name, params=None):
    report = verify_suite(name, dict(params or {}, seed=SEED))
    failures = [c for c in report["checks"] if c["status"] == "fail"]
    assert not failures, f"{name}: {failures}"
    assert any(c["status"] == "pass" for c in report["checks"])
    return report


def test_criterion_01_paper_example_exact(fermat2):
    start = time.monotonic()
    I = fermat2.ideal("x^2", "y^2", "z^2")
    a = fermat2.ideal("x^2", "y^2")
    assert a.colon(I) == fermat2.ideal("x^2", "y^2", "z")
    corner = corner_power(I, 1, samples=2, rng=random.Random(SEED))
    xyz = fermat2.parse("x*y*z")
    assert corner.contains(xyz)
    assert not I.contains(xyz)
    assert corner == bracket_power(a, 1).colon(fermat2.ideal("z^2"))
    assert time.monotonic() - start < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="the recorded expected generator list (x^4, y^4, xyz) omits z^4, "
           "which the defining colon (x^4, y^4) : z^2 contains "
           "(z^2 * z^4 = (x^3+y^3)^2 = x^6 + y^6 over F_2); the colength "
           "of the colon is 28, matching the length identity "
           "l(R/a^[2]) - l(R/I^[2]) = 48 - 20, while the listed generators "
           "give 30")
def test_criterion_01_literal_generator_list(fermat2):
    I = fermat2.ideal("x^2", "y^2", "z^2")
    corner = corner_power(I, 1, samples=2, rng=random.Random(SEED))
    assert corner == fermat2.ideal("x^4", "y^4", "x*y*z")


def test_criterion_02_corner_well_definedness():
    start = time.monotonic()
    run_suite_all_pass("corner-welldef", {"ideal": "x^2,y^2,z^2",
                                          "samples": 3})
    assert time.monotonic() - start < 30.0


def test_criterion_03_bracket_inside_corner():
    run_suite_all_pass("corner-containment")


def test_criterion_04_essential():
    run_suite_all_pass("essential")


def test_criterion_05_decreasing_approximations():
    run_suite_all_pass("decr")


def test_criterion_06_corner_length_identity():
    start = time.monotonic()
    run_suite_all_pass("hk-identity", {"samples": 3})
    assert time.monotonic() - start < 60.0


def test_criterion_07_mapping_cone_and_unmixedness():
    run_suite_all_pass("mapping-cone")


def test_criterion_08_case1_identity():
    run_suite_all_pass("case1")


def test_criterion_09_linkage_lift():
    run_suite_all_pass("linkage-lift", {"tmax": 3})


def test_criterion_10_main_theorem_bounded():
    run_suite_all_pass("main-theorem", {"depth": 2, "samples": 3})
    run_suite_all_pass("max-in-class")


def test_criterion_11_kernel_soundness_oracle():
    rng = random.Random(SEED)
    checked = 0
    ideals = 0
    while ideals < 50:
        p = (2, 3)[ideals % 2]
        n = 2 + (ideals // 2) % 2
        ring = PolyRing(p, ["x", "y", "z"][:n])
        gens = []
        for _ in range(rng.randrange(1, 4)):
            t = random_homogeneous_dict(n, rng.randrange(1, 4), p, rng)
            if t:
                gens.append(Polynomial(ring, t))
        if not gens:
            continue
        ideals += 1
        gb = buchberger(gens)
        gdicts = [poly_to_dict(g) for g in gens]
        queries = []
        for _ in range(3):
            d = rng.randrange(1, 7)
            queries.append(Polynomial(
                ring, random_homogeneous_dict(n, d, p, rng)))
        # guaranteed member: generator times a monomial, capped at degree 6
        g0 = gens[0]
        pad = max(0, 6 - g0.degree())
        mono = tuple(min(pad, 1) if i == 0 else 0 for i in range(n))
        queries.append(g0 * ring.monomial(mono))
        for f in queries:
            if f.is_zero() or f.degree() > 6:
                continue
            in_gb = normal_form(f, gb).is_zero() if gb else f.is_zero()
            in_oracle = oracle_member(poly_to_dict(f), gdicts, n, p,
                                      degree_bound=6)
            assert in_gb == in_oracle
            checked += 1
    assert checked >= 100

    # Frobenius root/preimage extremal properties and the strict witness
    R = RingContext(2, ["x", "y"])
    J = R.ideal("x^3")
    root = frobenius_root(J, 1)
    pre = frobenius_preimage(J, 1)
    assert root == R.ideal("x")
    assert pre == R.ideal("x^2")
    assert root != pre
    assert bracket_power(root, 1).contains_ideal(J)
    assert J.contains_ideal(bracket_power(pre, 1))
    rng = random.Random(7)
    for _ in range(5):
        t = random_homogeneous_dict(2, rng.randrange(2, 6), 2, rng)
        if not t:
            continue
        K = Ideal(R, [Polynomial(R.poly, t)])
        root = frobenius_root(K, 1)
        pre = frobenius_preimage(K, 1)
        assert bracket_power(root, 1).contains_ideal(K)
        assert K.contains_ideal(bracket_power(pre, 1))
        # maximality of the preimage over low-degree monomials
        for m in itertools.product(range(4), repeat=2):
            u = Polynomial(R.poly, {m: 1})
            if K.contains(u ** 2):
                assert pre.contains(u)


def test_criterion_12_deterministic_reports(tmp_path):
    blobs = []
    for name, hashseed in (("a.json", 1), ("b.json", 2)):
        out = tmp_path / name
        result = run_charp(["verify", "decr", "--seed", "9",
                            "--json", str(out)], hashseed=hashseed)
        assert result.returncode == 0
        data = json.loads(out.read_text())
        data.pop("timings")
        blobs.append(json.dumps(data, sort_keys=True).encode())
    assert blobs[0] == blobs[1]
