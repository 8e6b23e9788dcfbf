import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from charp.core import MAX_EXPONENT, ExponentOverflow, Polynomial
from charp.frobenius import (
    QuotientContextUnsupported,
    bracket_power,
    frobenius_preimage,
    frobenius_q,
    frobenius_root,
)
from charp.groebner import normal_form, standard_monomials
from charp.rings import Ideal, RingContext
from oracle import random_homogeneous_dict


@pytest.fixture
def poly2():
    return RingContext(2, ["x", "y"])


@pytest.fixture
def poly3():
    return RingContext(3, ["x", "y", "z"])


@pytest.fixture
def fermat2():
    return RingContext(2, ["x", "y", "z"], "x^3+y^3+z^3")


class TestBracketPower:
    def test_generators_are_powered(self, poly3):
        I = poly3.ideal("x+y", "z^2")
        B = bracket_power(I, 1)
        assert B == poly3.ideal("x^3+y^3", "z^6")

    def test_contained_in_ideal(self, fermat2):
        rng = random.Random(9)
        for gens in (["x^2", "y^2", "z^2"], ["x", "y"], ["x*y+z^2"]):
            I = fermat2.ideal(*gens)
            for e in (1, 2):
                assert I.contains_ideal(bracket_power(I, e))

    def test_additive_over_sums(self, poly3):
        I, J = poly3.ideal("x", "y^2"), poly3.ideal("z")
        assert bracket_power(I + J, 1) == \
            bracket_power(I, 1) + bracket_power(J, 1)

    def test_e_zero_is_identity(self, poly3):
        I = poly3.ideal("x+y")
        assert bracket_power(I, 0) == I

    def test_exponent_cap(self, poly3):
        with pytest.raises(ExponentOverflow):
            frobenius_q(poly3, 99)
        with pytest.raises(ExponentOverflow):
            frobenius_q(poly3, -1)


@st.composite
def bracket_cases(draw):
    """An ideal with 0-3 sparse generators (at most 3 terms each, so that
    g ** q stays cheap at q = 49), in a polynomial ring of 1-3 variables or
    in a hypersurface quotient, and e <= 2."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        ring = RingContext(p, ["x", "y", "z"], "x^2*y+y^2*z+z^2*x")
    else:
        ring = RingContext(p, ["x", "y", "z"][:draw(st.integers(1, 3))])
    mono = st.tuples(*[st.integers(0, 3)] * ring.poly.nvars)
    poly = st.lists(st.tuples(mono, st.integers(1, p - 1)), max_size=3)
    gens = [ring.poly.from_terms(t) for t in draw(st.lists(poly, max_size=3))]
    return Ideal(ring, gens), draw(st.integers(0, 2))


class TestBracketPowerByTerms:
    @settings(max_examples=200, deadline=None)
    @given(bracket_cases())
    def test_equals_repeated_multiplication(self, case):
        I, e = case
        q = frobenius_q(I.ring, e)
        assert list(bracket_power(I, e).gens) == [g ** q for g in I.gens]

    def test_exponent_overflow_at_entry_point(self, poly2):
        x = Polynomial(poly2.poly, {(MAX_EXPONENT // 2 + 1, 0): 1})
        with pytest.raises(ExponentOverflow):
            bracket_power(Ideal(poly2, [x]), 1)


class TestFrobeniusRoot:
    def test_cube_witness(self, poly2):
        # at p=2 the root of (x^3) is (x) but the preimage is (x^2)
        J = poly2.ideal("x^3")
        root = frobenius_root(J, 1)
        pre = frobenius_preimage(J, 1)
        assert root == poly2.ideal("x")
        assert pre == poly2.ideal("x^2")
        assert root != pre

    def test_containment(self, poly3):
        rng = random.Random(3)
        for _ in range(5):
            gens = [Polynomial(poly3.poly, random_homogeneous_dict(
                3, rng.randrange(1, 5), 3, rng)) for _ in range(2)]
            J = Ideal(poly3, [g for g in gens if not g.is_zero()] or
                      [poly3.parse("x^2")])
            K = frobenius_root(J, 1)
            assert bracket_power(K, 1).contains_ideal(J)

    def test_minimality_spot_check(self, poly2):
        # any L with J ⊆ L^[q] must contain the root
        J = poly2.ideal("x^2*y + x*y^2", "x^4")
        K = frobenius_root(J, 1)
        for cand_gens in (["x", "y"], ["x*y", "x^2"], ["x"], ["x+y"]):
            L = poly2.ideal(*cand_gens)
            if bracket_power(L, 1).contains_ideal(J):
                assert L.contains_ideal(K)

    def test_quotient_unsupported(self, fermat2):
        with pytest.raises(QuotientContextUnsupported):
            frobenius_root(fermat2.ideal("x^2"), 1)

    def test_bracket_root_roundtrip(self, poly3):
        I = poly3.ideal("x^2+y*z", "z^3")
        assert frobenius_root(bracket_power(I, 1), 1) == I


class TestFrobeniusPreimage:
    def test_defining_property(self, poly2):
        rng = random.Random(7)
        K = poly2.ideal("x^3", "x*y^2", "y^4")
        L = frobenius_preimage(K, 1)
        # L^[q] ⊆ K
        assert K.contains_ideal(bracket_power(L, 1))
        # maximality: every monomial u of degree ≤ 4 with u^q ∈ K is in L
        for m in itertools.product(range(5), repeat=2):
            u = Polynomial(poly2.poly, {m: 1})
            if K.contains(u ** 2):
                assert L.contains(u)

    def test_fast_and_slow_paths_agree(self, poly2):
        from charp.frobenius import (_preimage_by_elimination,
                                     _preimage_by_linear_algebra)
        K = poly2.ideal("x^3", "x*y^2", "y^4")
        fast = Ideal(poly2, _preimage_by_linear_algebra(K.gb, 2, poly2.poly))
        slow = Ideal(poly2, _preimage_by_elimination(K.gb, 2, poly2.poly))
        assert fast == slow

    def test_non_homogeneous_uses_elimination(self, poly2):
        K = poly2.ideal("x^2+y")
        L = frobenius_preimage(K, 1)
        assert K.contains_ideal(bracket_power(L, 1))

    def test_quotient_context(self, fermat2):
        # computed on lifts: the relation is q-th-power compatible
        K = fermat2.ideal("x^2", "y^2", "z^2")
        L = frobenius_preimage(K, 1)
        assert K.contains_ideal(bracket_power(L, 1))
        assert L.contains_ideal(fermat2.ideal("x", "y", "z"))

    def test_flatness_identity_on_colons(self, poly3):
        # over the polynomial ring Frobenius is flat:
        # (I : J)^[q] = I^[q] : J^[q]
        rng = random.Random(13)
        fixtures = [
            (poly3.ideal("x^2", "y^2"), poly3.ideal("x*y")),
            (poly3.ideal("x^3", "y*z"), poly3.ideal("x", "z")),
            (poly3.ideal("x^2*y", "y^2*z"), poly3.ideal("y")),
        ]
        for I, J in fixtures:
            lhs = bracket_power(I.colon(J), 1)
            rhs = bracket_power(I, 1).colon(bracket_power(J, 1))
            assert lhs == rhs

    def test_unit_ideal(self, poly2):
        assert frobenius_preimage(poly2.ideal("1"), 1).is_unit()
