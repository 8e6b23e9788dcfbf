import functools
import inspect
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from charp.core import AlgebraError
from charp.frobenius import bracket_power
from charp.lengths import corner_length_identity
from charp.linkage import (
    NotUnmixed,
    _lift,
    corner_power,
    direct_link,
    link_delta,
    m_primary_link_lift,
    tilde_approx,
)
from charp.rings import (
    Ideal,
    ParameterSearchFailed,
    RingContext,
    find_parameter_ideal,
    is_unmixed,
    unmixed_part,
)
from charp.singularity import test_ideal as compute_test_ideal
from test_groebner import monomials_of_degree, reference_narrow_kernel


@pytest.fixture
def fermat2():
    return RingContext(2, ["x", "y", "z"], "x^3+y^3+z^3")


@pytest.fixture
def poly3():
    return RingContext(3, ["x", "y", "z"])


class TestDirectLink:
    def test_worked_example_link(self, fermat2):
        I = fermat2.ideal("x^2", "y^2", "z^2")
        a = fermat2.ideal("x^2", "y^2")
        J, used = direct_link(I, a, rng=random.Random(0))
        assert used == a
        assert J == fermat2.ideal("x^2", "y^2", "z")
        # double link comes back
        assert a.colon(J) == I

    def test_random_links_verify(self, fermat2):
        rng = random.Random(5)
        I = fermat2.maximal_ideal()
        for _ in range(3):
            J, a = direct_link(I, rng=rng)
            assert a.colon(J) == I
            assert I.contains_ideal(a)
            assert not J.is_unit()

    def test_rejects_mixed_ideal(self, poly3):
        mixed = poly3.ideal("x").intersect(poly3.ideal("x^2", "y"))
        with pytest.raises(NotUnmixed):
            direct_link(mixed, rng=random.Random(1))

    def test_height_one_link(self, fermat2):
        I = fermat2.ideal("x")
        J, a = direct_link(I, rng=random.Random(2), check_unmixed=False)
        assert a.colon(J) == I


class TestLinkDelta:
    def test_identities_on_nested_parameters(self, fermat2):
        rng = random.Random(7)
        m = fermat2.maximal_ideal()
        for _ in range(4):
            b = find_parameter_ideal(m, rng)
            a = find_parameter_ideal(b, rng)
            delta = link_delta(a, b)
            assert a + Ideal(fermat2, [delta]) == a.colon(b)
            assert a.colon(Ideal(fermat2, [delta])) == b

    def test_equal_ideals_give_unit_delta(self, fermat2):
        a = fermat2.ideal("x", "y")
        assert link_delta(a, a) == fermat2.poly.one()

    def test_requires_nesting(self, fermat2):
        with pytest.raises(Exception):
            link_delta(fermat2.ideal("x"), fermat2.ideal("y"))


# (variables, relation) of the rings the differential test draws, per p; a
# relation must not be a p-th power, so x^3+y^3+z^3 sits out p = 3
_RINGS = {p: [(("x", "y"), None), (("x", "y", "z"), None), (("x", "y", "z"), "x*y-z^2"),
              (("x", "y", "z"), "x^4+y^4+z^4" if p == 3 else "x^3+y^3+z^3")]
          for p in (2, 3, 5, 7)}


@functools.lru_cache(maxsize=None)
def _ring(p, variables, relation):
    return RingContext(p, list(variables), relation)


@st.composite
def nested_parameter_pairs(draw, rings=_RINGS):
    """(a, b): b a parameter ideal in m, a one inside b drawn with a degree
    bump of 1 or 2, so that a != b; the ring is one of ``rings``."""
    p = draw(st.sampled_from(sorted(rings)))
    ring = _ring(p, *draw(st.sampled_from(rings[p])))
    rng = random.Random(draw(st.integers(0, 2 ** 20)))
    try:
        b = find_parameter_ideal(ring.maximal_ideal(), rng)
        a = find_parameter_ideal(b, rng, min_bump=draw(st.integers(1, 2)))
    except ParameterSearchFailed:
        assume(False)
    return a, b


def reference_delta(a, b):
    """The rule link_delta had before its closed form: the first nonzero
    normal form modulo a of an element of a : b's reduced GB, made monic."""
    for g in a.colon(b).gb:
        r = a.reduce(g)
        if not r.is_zero():
            return r.monic()


def reference_lift(f, b):
    """``_lift`` on dict vectors: the kernel vector through f's column, over
    the columns u * g of b's lifted generators g, read off the dict kernel."""
    ring = b.ring.poly
    gens = b.lift_gens()
    columns = [(j, u) for j, g in enumerate(gens)
               for u in monomials_of_degree(ring.nvars, f.degree() - g.degree())]
    columns.append(None)

    def image(column):
        if column is None:
            return f.terms
        j, u = column
        return (gens[j] * ring.monomial(u)).terms
    for vec in reference_narrow_kernel(None, columns, image, ring.field.p):
        if vec.pop(None, 0):
            return [ring.from_terms((u, -c) for (i, u), c in vec.items() if i == j)
                    for j in range(len(b.gens))]
    raise AlgebraError("need a contained in b")


class TestLift:
    """The packed ``_lift`` against the dict-kernel reference."""

    @settings(max_examples=100, deadline=None)
    @given(nested_parameter_pairs())
    def test_against_dict_reference(self, pair):
        a, b = pair
        for f in a.gens:
            assert _lift(f, b) == reference_lift(f, b)

    def test_outside_b_raises_like_the_reference(self, poly3):
        f, b = poly3.parse("x^2+z^2"), poly3.ideal("x", "y")
        for lift in (_lift, reference_lift):
            with pytest.raises(AlgebraError, match="contained"):
                lift(f, b)


class TestLinkDeltaClosedForm:
    """Northcott's det M against the colon it names."""

    @settings(max_examples=100, deadline=None)
    @given(nested_parameter_pairs())
    def test_against_colon(self, pair):
        a, b = pair
        delta = link_delta(a, b)
        assert delta.leading_coefficient() == 1
        assert a + Ideal(a.ring, [delta]) == a.colon(b)
        assert a.colon(Ideal(a.ring, [delta])) == b
        assert delta == reference_delta(a, b)

    def test_lift_uses_the_relation(self, fermat2):
        # z^3 lies in (x, y) only modulo x^3+y^3+z^3
        a, b = fermat2.ideal("x^2", "z^3"), fermat2.ideal("x", "y")
        delta = link_delta(a, b)
        assert a + Ideal(fermat2, [delta]) == a.colon(b)
        assert delta == reference_delta(a, b)

    def test_makes_no_colon_call(self, fermat2, monkeypatch):
        rng = random.Random(3)
        b = find_parameter_ideal(fermat2.maximal_ideal(), rng)
        a = find_parameter_ideal(b, rng, min_bump=1)
        calls = []
        colon = Ideal.colon

        def spy(self, other):
            calls.append(other)
            return colon(self, other)
        monkeypatch.setattr(Ideal, "colon", spy)
        link_delta(a, b)
        assert calls == []

    @pytest.mark.parametrize("a, b, message", [
        (("x^2",), ("y",), "contained"),
        (("x^2", "y^2"), ("x", "y", "z"), "as many generators"),
        (("x^2+y", "y^2"), ("x", "y"), "homogeneous"),
        (("x^2", "x*y"), ("x", "y"), "det M lies in a"),
    ], ids=["not-nested", "generator-counts", "inhomogeneous", "det-in-a"])
    def test_rejects(self, poly3, a, b, message):
        with pytest.raises(AlgebraError, match=message):
            link_delta(poly3.ideal(*a), poly3.ideal(*b))


# the rings of ``_RINGS`` at p = 2, 3, 5; a^[q] has q^dim times a's colength
_BRACKET_RINGS = {p: _RINGS[p] for p in (2, 3, 5)}
# those of dimension 2 at p = 3
_DIM2_AT_3 = {3: [(v, f) for v, f in _RINGS[3] if len(v) - (f is not None) == 2]}
# those of dimension 2 at p = 5 but the Fermat cubic, where a^[25] : b^[25]
# takes 1-5 s an example
_DIM2_AT_5 = {5: [(v, f) for v, f in _RINGS[5]
                  if len(v) - (f is not None) == 2 and f != "x^3+y^3+z^3"]}


def _check_bracket_colon(a, b, e):
    """a^[q] : b^[q] = (a^[q], delta^q): with a = M * b, a^[q] = M^[q] * b^[q]
    are nested parameter ideals again, det M^[q] = (det M)^q, and det M is
    a unit times delta modulo a."""
    q = a.ring.field.p ** e
    aq = bracket_power(a, e)
    assert aq.colon(bracket_power(b, e)) == aq + Ideal(a.ring, [link_delta(a, b) ** q])


class TestBracketPowerColon:
    """Northcott's closed form at bracket powers, a reference for the colon
    at colengths q^dim times a's."""

    @settings(max_examples=60, deadline=None)
    @given(nested_parameter_pairs(_BRACKET_RINGS), st.data())
    def test_closed_form(self, pair, data):
        a, b = pair
        e = data.draw(st.integers(1, 2 if a.ring.field.p == 2 else 1))
        _check_bracket_colon(a, b, e)

    @pytest.mark.slow
    @settings(max_examples=5, deadline=None)
    @given(nested_parameter_pairs(_DIM2_AT_3))
    def test_closed_form_at_q_9(self, pair):
        # dimension 2 at p = 3 only, up to 1.6 s an example
        _check_bracket_colon(*pair, 2)

    @settings(max_examples=10, deadline=None)
    @given(nested_parameter_pairs(_DIM2_AT_5))
    def test_closed_form_at_q_25(self, pair):
        # a^[25] has colength 625 times a's: 2,500-11,250 here, 1-1.5 s in all
        _check_bracket_colon(*pair, 2)

    def test_closed_form_at_q_25_on_the_fermat_cubic(self):
        # a^[25] has colength 7,500 on x^3+y^3+z^3 at p = 5
        ring = _ring(5, ("x", "y", "z"), "x^3+y^3+z^3")
        rng = random.Random(0)
        b = find_parameter_ideal(ring.maximal_ideal(), rng)
        a = find_parameter_ideal(b, rng, min_bump=1)
        assert bracket_power(a, 2).colength() == 7500
        _check_bracket_colon(a, b, 2)


class TestCornerPower:
    def test_worked_example_corner(self, fermat2):
        I = fermat2.ideal("x^2", "y^2", "z^2")
        corner = corner_power(I, 1, samples=3, rng=random.Random(3))
        expected = fermat2.ideal("x^4", "y^4").colon(fermat2.ideal("z^2"))
        assert corner == expected
        assert corner.contains(fermat2.parse("x*y*z"))
        assert not I.contains(fermat2.parse("x*y*z"))

    def test_well_defined_across_samples(self, fermat2):
        # 3 independent parameter choices must agree (raises otherwise)
        I = fermat2.maximal_ideal()
        for e in (1, 2):
            corner_power(I, e, samples=3, rng=random.Random(11))

    def test_parameter_corners_are_brackets(self, fermat2):
        rng = random.Random(13)
        a = find_parameter_ideal(fermat2.maximal_ideal(), rng)
        for e in (1, 2):
            assert corner_power(a, e, samples=2, rng=rng) == \
                bracket_power(a, e)

    def test_contains_bracket(self, fermat2):
        I = fermat2.ideal("x^2", "y^2", "z^2")
        for e in (1, 2):
            value = corner_power(I, e, samples=1, rng=random.Random(17))
            assert value.contains_ideal(bracket_power(I, e))

    def test_e_zero_recovers_unmixed_ideal(self, fermat2):
        I = fermat2.ideal("x^2", "y^2", "z^2")
        assert corner_power(I, 0, samples=2, rng=random.Random(19)) == I

    def test_corner_above_tau_contains_tau(self, fermat2):
        # ideals containing tau keep their corners above tau
        tau = compute_test_ideal(fermat2).tau
        I = fermat2.maximal_ideal()
        for e in (1, 2):
            value = corner_power(I, e, samples=1, rng=random.Random(23))
            assert value.contains_ideal(tau)


class TestTildeApprox:
    def test_maximal_ideal_class(self, fermat2):
        m = fermat2.maximal_ideal()
        total, record = tilde_approx(m, depth=2, samples_per_node=3,
                                     rng=random.Random(29))
        assert total == m
        assert total.is_m_primary()
        assert m.contains_ideal(total)
        assert all(m.contains_ideal(node) for node in record.nodes)
        assert record.nodes[0] == m
        assert len({node.key() for node in record.nodes}) == len(record.nodes)

    def test_sum_contains_root(self, fermat2):
        I = fermat2.ideal("x^2", "y^2", "z^2")
        total, record = tilde_approx(I, depth=2, samples_per_node=2,
                                     rng=random.Random(37))
        assert total.contains_ideal(I)


class TestMPrimaryLinkLift:
    def test_lift_contains_linked_ideal(self, fermat2):
        rng = random.Random(41)
        I = unmixed_part(fermat2.ideal("x"), rng)
        _, a = direct_link(I, rng=rng, check_unmixed=False)
        J = a.colon(I)
        for t in (1, 2):
            Jt = m_primary_link_lift(I, [a], t, rng)
            assert Jt.contains_ideal(J)
            assert Jt.is_m_primary()

    def test_m_primary_input_passes_through(self, fermat2):
        rng = random.Random(43)
        I = fermat2.ideal("x^2", "y^2", "z^2")
        a = find_parameter_ideal(I, rng)
        Jt = m_primary_link_lift(I, [a], 2, rng)
        assert Jt == a.colon(I)


@pytest.mark.parametrize("function", [
    direct_link, corner_power, tilde_approx, m_primary_link_lift,
    unmixed_part, is_unmixed, corner_length_identity,
])
def test_randomized_functions_require_an_rng(function):
    # every random draw comes from the caller's rng, so from a report's seed
    rng = inspect.signature(function).parameters["rng"]
    assert rng.default is inspect.Parameter.empty
