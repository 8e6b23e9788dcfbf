import random

import pytest

from charp.frobenius import bracket_power, frobenius_root
from charp.rings import Ideal, RingContext, find_parameter_ideal
from charp.singularity import (
    NoTestElementFound,
    certify_not_in_star,
    iq_approx,
    star_approx,
    star_colon,
    user_test_element,
)
from charp.singularity import test_element as compute_test_element
from charp.singularity import test_ideal as compute_test_ideal


@pytest.fixture
def fermat2():
    return RingContext(2, ["x", "y", "z"], "x^3+y^3+z^3")


@pytest.fixture
def poly2():
    return RingContext(2, ["x", "y"])


class TestTestElement:
    def test_polynomial_ring_gets_unit(self, poly2):
        cert = compute_test_element(poly2)
        assert cert.c == poly2.poly.one()
        assert cert.source == "jacobian"

    def test_fermat_gets_jacobian_partial(self, fermat2):
        cert = compute_test_element(fermat2)
        assert not cert.c.is_zero()
        assert cert.source == "jacobian"
        # the element survives in R and is coprime to the relation
        assert not fermat2.zero_ideal().contains(cert.c)

    def test_non_reduced_relation_fails(self):
        ring = RingContext(3, ["x", "y"], "x^2")
        with pytest.raises(NoTestElementFound):
            compute_test_element(ring)

    def test_user_supplied_element(self, fermat2):
        cert = user_test_element(fermat2, "x^2")
        assert cert.source == "user"
        with pytest.raises(NoTestElementFound):
            user_test_element(fermat2, "x^3+y^3+z^3")


class TestTestIdeal:
    def test_fermat_cubic_tau_is_m(self, fermat2):
        result = compute_test_ideal(fermat2)
        assert result.tau == fermat2.maximal_ideal()

    def test_fermat_cubic_tau_is_m_char_5(self):
        ring = RingContext(5, ["x", "y", "z"], "x^3+y^3+z^3")
        assert compute_test_ideal(ring).tau == ring.maximal_ideal()

    def test_chain_is_ascending_and_stable(self, fermat2):
        result = compute_test_ideal(fermat2)
        chain = result.chain
        for earlier, later in zip(chain, chain[1:]):
            assert later.contains_ideal(earlier)
        assert chain[-1] == chain[-2]

    def test_polynomial_ring_tau_is_unit(self, poly2):
        assert compute_test_ideal(poly2).tau.is_unit()

    def test_cached_per_ring(self, fermat2):
        assert compute_test_ideal(fermat2) is compute_test_ideal(fermat2)

    def test_phi_compatibility(self, fermat2):
        # tau is a fixed point: (f^(p-1) tau)^[1/p] ⊆ tau (computed in S)
        S = fermat2.polynomial_ring()
        tau_S = Ideal(S, list(compute_test_ideal(fermat2).tau.gens))
        f = fermat2.relation
        scaled = Ideal(S, [f * g for g in tau_S.gens])  # p = 2: f^(p-1) = f
        root = frobenius_root(scaled, 1)
        assert Ideal(fermat2, list(tau_S.gens)) .contains_ideal(
            Ideal(fermat2, list(root.gens)))

    def test_override(self):
        ring = RingContext(2, ["x", "y", "z"], "x^3+y^3+z^3")
        manual = ring.ideal("x", "y", "z")
        assert compute_test_ideal(ring, override=manual).tau == manual


class TestStarColon:
    def test_known_parameter_value(self, fermat2):
        # (x, y) : tau = (x, y, z^2) in the Fermat cubic over F_2
        a = fermat2.ideal("x", "y")
        assert star_colon(a) == fermat2.ideal("x", "y", "z^2")

    def test_contains_ideal_itself(self, fermat2):
        for gens in (["x", "y"], ["x^2", "y^2"]):
            I = fermat2.ideal(*gens)
            assert star_colon(I).contains_ideal(I)

    def test_regular_ring_identity(self, poly2):
        I = poly2.ideal("x^2", "y")
        assert star_colon(I) == I


class TestIqChain:
    def test_nonincreasing(self, fermat2):
        for gens in (["x", "y"], ["x", "y", "z"]):
            I = fermat2.ideal(*gens)
            chain = [iq_approx(I, e) for e in range(4)]
            for big, small in zip(chain, chain[1:]):
                assert big.contains_ideal(small)

    def test_lower_bound_for_parameter(self, fermat2):
        a = fermat2.ideal("x", "y")
        star = star_colon(a)
        for e in range(4):
            assert iq_approx(a, e).contains_ideal(star)

    def test_contains_ideal_at_every_level(self, fermat2):
        I = fermat2.ideal("x^2", "y^2", "z^2")
        for e in range(3):
            assert iq_approx(I, e).contains_ideal(I)


class TestCertification:
    def test_certifies_non_membership(self, fermat2):
        # z is not in (x, y)^* = (x, y, z^2)
        cert = certify_not_in_star("z", fermat2.ideal("x", "y"))
        assert cert.certified
        assert cert.witness_e is not None

    def test_inconclusive_for_closure_element(self, fermat2):
        # z^2 IS in (x, y)^*, so no certificate can exist
        cert = certify_not_in_star("z^2", fermat2.ideal("x", "y"))
        assert not cert.certified
        assert cert.status == "inconclusive"

    def test_member_is_never_certified(self, fermat2):
        cert = certify_not_in_star("x", fermat2.ideal("x", "y"))
        assert not cert.certified


class TestStarApprox:
    def test_parameter_two_sided(self, fermat2):
        a = fermat2.ideal("x", "y")
        report = star_approx(a, 3)
        assert report.upper.contains_ideal(report.lower)
        assert report.lower == star_colon(a)
        if report.certified:
            assert report.lower == report.upper

    def test_certified_closure_for_known_parameter(self, fermat2):
        # both bounds meet at (x, y, z^2)
        report = star_approx(fermat2.ideal("x", "y"), 3)
        assert report.certified
        assert report.upper == fermat2.ideal("x", "y", "z^2")

    def test_chain_recorded(self, fermat2):
        report = star_approx(fermat2.ideal("x", "y"), 2)
        assert len(report.chain) == 3
        assert report.m_primary is True  # z^3 = x^3+y^3 lies in (x, y)
