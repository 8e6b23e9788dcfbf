import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from charp import rings
from charp.core import MAX_EXPONENT, ExponentOverflow, Polynomial
from charp.frobenius import (
    QuotientContextUnsupported,
    _root_terms,
    bracket_power,
    frobenius_preimage,
    frobenius_q,
    frobenius_root,
)
from charp.groebner import buchberger
from charp.quotient import frobenius_colon, zero_dimensional_quotient
from charp.rings import Ideal, RingContext, _preimage_by_elimination
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


@st.composite
def root_cases(draw):
    """An ideal of a polynomial ring in 1-3 variables over F_2, F_3 or F_5,
    e in {1, 2}, and generators with small exponents, so that roots repeat
    up to a scalar, with scalar multiples of some of them among them."""
    p = draw(st.sampled_from([2, 3, 5]))
    ring = RingContext(p, ["x", "y", "z"][:draw(st.integers(1, 3))])
    mono = st.tuples(*[st.integers(0, 2 * p)] * ring.poly.nvars)
    poly = st.lists(st.tuples(mono, st.integers(1, p - 1)), max_size=5)
    gens = [ring.poly.from_terms(t) for t in draw(st.lists(poly, max_size=4))]
    gens += [g.scale(draw(st.integers(1, p - 1))) for g in gens if draw(st.booleans())]
    return Ideal(ring, gens), draw(st.integers(1, 2))


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

    @settings(max_examples=150, deadline=None)
    @given(root_cases())
    def test_one_generator_per_scalar_class(self, case):
        # the same ideal as the raw roots, generated by the first root of
        # each scalar class, made monic, in the order the roots come
        J, e = case
        q = frobenius_q(J.ring, e)
        raw = [Polynomial(g.ring, terms) for g in J.gens for terms in _root_terms(g, q)]
        first = []
        for r in raw:
            if r.monic() not in first:
                first.append(r.monic())
        K = frobenius_root(J, e)
        assert list(K.gens) == first
        assert K == Ideal(J.ring, raw)


@st.composite
def m_primary_preimages(draw):
    """(K, e): K is a homogeneous m-primary ideal over F_p, p in {2, 3, 5, 7},
    of a polynomial ring in 1-3 variables or of fermat2 (whose lift holds
    the relation), and q = p^e is p or p^2.  K holds pure powers of every
    variable plus 0-3 forms, or only forms, as many as the variables or
    one more."""
    if draw(st.booleans()):
        ring = RingContext(2, ["x", "y", "z"], "x^3+y^3+z^3")
    else:
        p = draw(st.sampled_from([2, 3, 5, 7]))
        ring = RingContext(p, ["x", "y", "z"][:draw(st.integers(1, 3))])
    nvars, p = ring.poly.nvars, ring.field.p

    def form(lo, hi):
        degree = draw(st.integers(lo, hi))
        monos = [m for m in itertools.product(range(degree + 1), repeat=nvars)
                 if sum(m) == degree]
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos),
                               max_size=len(monos)))
        return Polynomial(ring.poly, {m: c for m, c in zip(monos, coeffs) if c})

    if draw(st.booleans()):
        gens = [ring.poly.var(i) ** draw(st.integers(1, 5)) for i in range(nvars)]
        gens += [form(1, 3) for _ in range(draw(st.integers(0, 3)))]
    else:
        gens = [form(1, 3) for _ in range(nvars + draw(st.integers(0, 1)))]
    K = Ideal(ring, gens)
    assume(K.is_m_primary() and not K.is_unit())
    return K, draw(st.integers(1, 2))


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

    @settings(max_examples=200, deadline=None)
    @given(m_primary_preimages())
    @example((RingContext(2, ["x", "y"]).ideal("x^3", "x*y^2", "y^4"), 1))
    def test_linear_algebra_matches_elimination(self, case):
        # the m-primary homogeneous path returns the reduced GB, hands it to
        # the result, and agrees with the elimination reference
        K, e = case
        ring = K.ring.poly
        L = frobenius_preimage(K, e)
        runs = []
        original = rings.buchberger

        def spy(*args, **kwargs):
            runs.append(args)
            return original(*args, **kwargs)
        with mock.patch.object(rings, "buchberger", spy):
            gb = L.gb
        assert runs == []
        expected = buchberger(list(L.gens))
        assert [list(g.terms.items()) for g in L.gens] == \
            [list(g.terms.items()) for g in expected]
        assert gb == expected
        q = frobenius_q(K.ring, e)
        assert gb == buchberger(_preimage_by_elimination(K.gb, q, ring))

    def test_non_homogeneous_uses_elimination(self, poly2):
        K = poly2.ideal("x^2+y")
        L = frobenius_preimage(K, 1)
        assert K.contains_ideal(bracket_power(L, 1))

    @pytest.mark.parametrize("gen", ["x^2+x_q_", "x^2*x_q_"])
    def test_ring_names_cannot_clash_with_the_eliminated_block(self, gen):
        # both ideals go to the elimination preimage, whose eliminated block
        # must be named outside the ring's names; the same ideal under names
        # that cannot clash is the reference
        clash = frobenius_preimage(RingContext(3, ["x", "x_q_"]).ideal(gen), 1)
        plain = frobenius_preimage(
            RingContext(3, ["a", "b"]).ideal(gen.replace("x_q_", "b").replace("x", "a")), 1)
        assert clash.gb_strings() == [g.replace("b", "x_q_").replace("a", "x")
                                      for g in plain.gb_strings()]

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


@st.composite
def twisted_colons(draw):
    """(ring, A, B, e): over F_p, p in {2, 3, 5, 7}, in 1-3 variables, A
    generates a homogeneous ideal of colength at most 60, with or without
    pure powers among its generators, B is 1-3 forms of degree 0-2 (a form
    may come out zero) and q = p^e is 1, p or p^2."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 3))
    ring = RingContext(p, ["x", "y", "z"][:nvars])

    def form(lo, hi):
        degree = draw(st.integers(lo, hi))
        monos = [m for m in itertools.product(range(degree + 1), repeat=nvars)
                 if sum(m) == degree]
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos),
                               max_size=len(monos)))
        return Polynomial(ring.poly, {m: c for m, c in zip(monos, coeffs) if c})

    if draw(st.booleans()):
        gens = [ring.poly.var(i) ** draw(st.integers(1, 4)) for i in range(nvars)]
        gens += [form(1, 3) for _ in range(draw(st.integers(0, 2)))]
    else:
        gens = [form(1, 3) for _ in range(nvars + draw(st.integers(0, 1)))]
    A = Ideal(ring, gens)
    assume(A.colength() <= 60)
    divisors = [form(0, 2) for _ in range(draw(st.integers(1, 3)))]
    return ring, A, divisors, draw(st.integers(0, 2))


def _twisted_case(p, names, dividend, divisors, e):
    ring = RingContext(p, names)
    return ring, ring.ideal(*dividend), [ring.parse(b) for b in divisors], e


class TestFrobeniusColon:
    """The twisted kernel {u : u^q * B in A} equals the Frobenius preimage of
    the colon A : B, taken by the library and by elimination alone."""

    @settings(max_examples=200, deadline=None)
    @given(twisted_colons())
    @example(_twisted_case(3, ["x", "y"], ["x^3", "y^4"], ["x+y"], 1))
    @example(_twisted_case(2, ["x", "y", "z"], ["x^2", "y^2", "z^2", "x*y+y*z"],
                           ["x", "y+z", "1"], 2))
    def test_equals_preimage_of_colon(self, case):
        ring, A, divisors, e = case
        q = frobenius_q(ring, e)
        quotient = zero_dimensional_quotient(A.gb, ring.poly)
        twisted = frobenius_colon(quotient, divisors, q)
        B = Ideal(ring, divisors)
        assert twisted == frobenius_preimage(A.colon(B), e).gb
        colon = buchberger(rings._colon_gens(A.lift_gens(), divisors, ring.poly))
        assert twisted == buchberger(_preimage_by_elimination(colon, q, ring.poly))
