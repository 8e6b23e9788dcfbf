import functools
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from charp import groebner, quotient as quotient_module, rings, singularity
from charp.core import AlgebraError, PolyRing, Polynomial
from charp.frobenius import bracket_power, frobenius_preimage
from charp.groebner import INFINITE, buchberger, colength
from charp.quotient import frobenius_colon, zero_dimensional_quotient
from charp.rings import (
    Ideal,
    ParameterSearchFailed,
    RingContext,
    UnitIdeal,
    extend_to_m_primary,
    find_parameter_ideal,
    is_unmixed,
    unmixed_part,
)
from oracle import oracle_member, poly_to_dict, random_homogeneous_dict


@pytest.fixture
def fermat2():
    return RingContext(2, ["x", "y", "z"], "x^3+y^3+z^3")


@pytest.fixture
def poly3():
    return RingContext(3, ["x", "y", "z"])


class TestRingContext:
    def test_dimension(self, fermat2, poly3):
        assert poly3.dim == 3
        assert fermat2.dim == 2

    def test_flags_non_reduced_relation(self):
        ring = RingContext(3, ["x", "y"], "x^2")
        assert ring.reduced is False

    def test_rejects_pth_power_relation(self):
        with pytest.raises(AlgebraError):
            RingContext(2, ["x", "y"], "x^2+y^2")  # (x+y)^2 over F_2

    def test_accepts_squarefree_with_nonunit_single_gcd(self):
        # x*y*(x+y) over F_3: each partial shares a factor with f, but the
        # joint gcd of f with all partials is a unit, so f is squarefree
        ring = RingContext(3, ["x", "y"], "x^2*y+x*y^2")
        assert ring.reduced

    def test_rejects_inhomogeneous_relation(self):
        with pytest.raises(AlgebraError):
            RingContext(5, ["x", "y"], "x^2+y")

    def test_rejects_unit_relation(self):
        with pytest.raises(AlgebraError):
            RingContext(5, ["x", "y"], "3")


# ---------------------------------------------------------------------------
# Coprimality by height against the gcd read off an elimination.

def reference_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd in F_p[vars]: lcm(f, g) generates (f) cap (g), and the gcd
    is f*g / lcm; gcd(f, 0) = f."""
    if f.is_zero():
        return g.monic() if not g.is_zero() else g
    if g.is_zero():
        return f.monic()
    gb = buchberger(rings._intersect_gens([f], [g], f.ring))
    assert len(gb) == 1
    quotient = groebner.divide_exact(f * g, gb[0])
    assert quotient is not None
    return quotient.monic()


@st.composite
def coprime_cases(draw):
    """Two or three polynomials of F_p[x, y, z], p in {2, 3, 5, 7}: forms
    of degree 1-2 or inhomogeneous polynomials of degree at most 2, all of
    them times a planted factor of degree 1 or 2 when ``planted``, and one
    of them replaced by zero or a nonzero constant when ``odd``."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ring = PolyRing(p, VARS[:3])
    homogeneous, planted, odd = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    polys = [_random_form(ring, rng.randint(1, 2), homogeneous, rng)
             for _ in range(draw(st.integers(2, 3)))]
    if planted:
        factor = _random_form(ring, rng.randint(1, 2), homogeneous, rng)
        polys = [factor * f for f in polys]
    if odd:
        polys[rng.randrange(len(polys))] = ring.const(rng.randrange(p))
    return polys


class TestCoprime:
    def test_monomials(self, poly3):
        R = poly3.poly
        assert not rings.coprime([R.parse("x^2*y"), R.parse("x*y^2")])
        assert rings.coprime([R.parse("x^2*y"), R.parse("z^3")])

    def test_coprime(self, poly3):
        R = poly3.poly
        assert rings.coprime([R.parse("x+y"), R.parse("x+2*y")])

    def test_common_factor(self, poly3):
        R = poly3.poly
        f = R.parse("x+y") * R.parse("x^2+z^2")
        g = R.parse("x+y") * R.parse("y+z")
        assert not rings.coprime([f, g])
        assert rings.coprime([f, g, R.parse("x-y")])

    @settings(max_examples=200, deadline=None)
    @given(coprime_cases())
    def test_same_as_a_constant_gcd(self, polys):
        gcd = functools.reduce(reference_gcd, polys)
        assert rings.coprime(polys) == (gcd.is_constant() and not gcd.is_zero())


class TestIdealBasics:
    def test_equality_by_reduced_gb(self, poly3):
        I = poly3.ideal("x+y", "y+z")
        J = poly3.ideal("x+2*y+z", "y+z", "x+y")
        assert I == J
        assert hash(I) == hash(J)

    def test_contains(self, fermat2):
        I = fermat2.ideal("x^2", "y^2")
        assert I.contains(fermat2.parse("x^3+x*y^2"))
        assert not I.contains(fermat2.parse("z"))
        # the relation itself is zero in the quotient
        assert fermat2.zero_ideal().contains(fermat2.parse("x^3+y^3+z^3"))

    def test_unit_zero_flags(self, poly3):
        assert poly3.ideal("1").is_unit()
        assert poly3.zero_ideal().is_zero()
        assert poly3.ideal("x").is_proper()

    def test_heights(self, fermat2, poly3):
        assert poly3.ideal("x").height() == 1
        assert poly3.maximal_ideal().height() == 3
        assert fermat2.ideal("x").height() == 1
        assert fermat2.maximal_ideal().height() == 2
        assert fermat2.ideal("x", "y").height() == 2

    def test_colength(self, fermat2, poly3):
        assert poly3.ideal("x^2", "y^3", "z").colength() == 6
        assert fermat2.maximal_ideal().colength() == 1
        assert fermat2.ideal("x", "y").colength() == 3  # F_2[z]/(z^3)
        assert fermat2.ideal("x").colength() == float("inf")

    def test_minimal_generators(self, poly3):
        I = poly3.ideal("x", "y", "x+y", "x^2")
        mingens = I.minimal_generators()
        assert len(mingens) == 2
        assert Ideal(poly3, list(mingens)) == poly3.ideal("x", "y")


class TestIdealOperations:
    def test_colon_adjunction(self, poly3):
        rng = random.Random(31)
        ring = poly3
        for _ in range(6):
            gens_i = [Polynomial(ring.poly, random_homogeneous_dict(
                3, rng.randrange(1, 4), 3, rng)) for _ in range(2)]
            gens_j = [Polynomial(ring.poly, random_homogeneous_dict(
                3, rng.randrange(1, 3), 3, rng)) for _ in range(2)]
            I = Ideal(ring, [g for g in gens_i if not g.is_zero()] or
                      [ring.parse("x")])
            J = Ideal(ring, [g for g in gens_j if not g.is_zero()] or
                      [ring.parse("y")])
            Q = I.colon(J)
            assert Q.contains_ideal(I)
            assert I.contains_ideal(Q * J)

    def test_intersection_against_oracle(self, poly3):
        I = poly3.ideal("x^2", "y")
        J = poly3.ideal("x", "y^3")
        M = I.intersect(J)
        assert I.contains_ideal(M) and J.contains_ideal(M)
        assert M.contains_ideal(I * J)
        # oracle cross-check on the intersection generators
        for g in M.gb:
            gd = poly_to_dict(g)
            for K in (I, J):
                assert oracle_member(gd, [poly_to_dict(h) for h in K.gens],
                                     3, 3, degree_bound=8)

    def test_sum_product(self, poly3):
        I, J = poly3.ideal("x"), poly3.ideal("y")
        assert (I + J) == poly3.ideal("x", "y")
        assert (I * J) == poly3.ideal("x*y")

    def test_unmixed_part_identity(self, fermat2):
        # a : (a : I) recovers unmixed m-primary ideals
        I = fermat2.ideal("x^2", "y^2", "z")
        assert unmixed_part(I, random.Random(1)) == I

    def test_unmixed_part_strips_embedded_component(self, poly3):
        # (x) ∩ (x^2, y) has embedded structure; its unmixed part is (x)
        I = poly3.ideal("x").intersect(poly3.ideal("x^2", "y"))
        U = unmixed_part(I, random.Random(2))
        assert U == poly3.ideal("x")

    def test_unmixed_part_idempotent_and_seed_independent(self, fermat2):
        I = fermat2.ideal("x*y", "x*z")
        U1 = unmixed_part(I, random.Random(3))
        U2 = unmixed_part(I, random.Random(99))
        assert U1 == U2
        assert unmixed_part(U1, random.Random(4)) == U1

    def test_is_unmixed(self, fermat2, poly3):
        assert is_unmixed(fermat2.maximal_ideal(), random.Random(0))
        assert is_unmixed(fermat2.ideal("x^2", "y^2", "z"), random.Random(0))
        mixed = poly3.ideal("x").intersect(poly3.ideal("x^2", "y"))
        assert not is_unmixed(mixed, random.Random(0))


class TestParameterIdeals:
    def test_find_parameter_ideal_properties(self, fermat2):
        rng = random.Random(17)
        for I in (fermat2.maximal_ideal(), fermat2.ideal("x^2", "y^2", "z^2"),
                  fermat2.ideal("x")):
            g = I.height()
            a = find_parameter_ideal(I, rng)
            assert len(a.gens) == g
            assert a.height() == g
            assert I.contains_ideal(a)

    def test_rejects_unit_and_zero(self, fermat2):
        rng = random.Random(1)
        with pytest.raises(ParameterSearchFailed):
            find_parameter_ideal(fermat2.ideal("1"), rng)
        with pytest.raises(ParameterSearchFailed):
            find_parameter_ideal(fermat2.zero_ideal(), rng)

    def test_extend_to_m_primary(self, fermat2):
        rng = random.Random(23)
        b = find_parameter_ideal(fermat2.ideal("x"), rng, height=1)
        xs = extend_to_m_primary(b, rng)
        assert len(xs) == fermat2.dim - 1
        assert (b + Ideal(fermat2, xs)).is_m_primary()

    def test_extend_noop_when_m_primary(self, fermat2):
        rng = random.Random(29)
        a = find_parameter_ideal(fermat2.maximal_ideal(), rng)
        assert extend_to_m_primary(a, rng) == []


def reference_find_parameter_ideal(I, rng, max_tries=60, height=None, min_bump=0):
    """The parameter search with the minimal-generator check that Krull's
    height theorem makes redundant, as it was before that check was dropped."""
    if I.is_unit() or I.is_zero():
        raise ParameterSearchFailed("need a proper nonzero ideal")
    g = height if height is not None else I.height()
    for trial in range(max_tries):
        bump = min(trial * 3 // max_tries, 2) if max_tries >= 3 else 0
        bump = max(bump, min_bump)
        elems = []
        ok = True
        for _ in range(g):
            e = rings._random_element_of(I, bump, rng)
            if e.is_zero():
                ok = False
                break
            elems.append(e)
        if not ok:
            continue
        cand = Ideal(I.ring, elems)
        if len(cand.minimal_generators()) != g:
            continue
        try:
            if cand.is_unit() or cand.height() != g:
                continue
        except UnitIdeal:
            continue
        return cand
    raise ParameterSearchFailed("exhausted")


class TestRandomHomogeneous:
    """``_random_homogeneous`` lists the monomials of a degree once per
    (nvars, degree) and draws exactly as the scan over ``itertools.product``
    that it replaced: the same polynomials, and the generator left in the
    same state, so every sampled ideal stays the same."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_same_draws_as_product_scan(self, p):
        for n in range(5):
            ring = PolyRing(p, ["x", "y", "z", "w"][:n])
            for d in range(7):
                for seed in range(3):
                    fast, slow = random.Random(seed), random.Random(seed)
                    for _ in range(3):
                        f = rings._random_homogeneous(ring, d, fast)
                        assert poly_to_dict(f) == random_homogeneous_dict(n, d, p, slow)
                    assert fast.getstate() == slow.getstate()


class TestParameterSearchWithoutMinimalityCheck:
    @pytest.mark.parametrize("relation", ["x^3+y^3+z^3", None], ids=["fermat2", "F2xyz"])
    @pytest.mark.parametrize("gens", [("x", "y", "z"), ("x^2", "y^2", "z^2"), ("x",)],
                             ids=["m", "squares", "x"])
    def test_same_generators_as_reference(self, relation, gens):
        ring = RingContext(2, ["x", "y", "z"], relation)
        I = ring.ideal(*gens)
        for seed in range(20):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            a = find_parameter_ideal(I, rng)
            assert a.gens == reference_find_parameter_ideal(I, ref_rng).gens
            assert rng.getstate() == ref_rng.getstate()


def reference_find_parameter_ideal_by_height(I, rng, max_tries=60, height=None, min_bump=0):
    """The parameter search that certifies every candidate by its Groebner
    basis and height, as it was before the rational-zero certificate."""
    if I.is_unit() or I.is_zero():
        raise ParameterSearchFailed("need a proper nonzero ideal")
    g = height if height is not None else I.height()
    if g < 1:
        raise ParameterSearchFailed("height must be >= 1")
    for trial in range(max_tries):
        bump = min(trial * 3 // max_tries, 2) if max_tries >= 3 else 0
        bump = max(bump, min_bump)
        elems = []
        ok = True
        for _ in range(g):
            e = rings._random_element_of(I, bump, rng)
            if e.is_zero():
                ok = False
                break
            elems.append(e)
        if not ok:
            continue
        cand = Ideal(I.ring, elems)
        try:
            if cand.is_unit() or cand.height() != g:
                continue
        except UnitIdeal:
            continue
        return cand
    raise ParameterSearchFailed("exhausted")


def reference_extend_to_m_primary(b, rng, max_tries=80):
    """``extend_to_m_primary`` with every candidate certified by its height,
    as it was before the rational-zero certificate."""
    d = b.ring.dim
    g = b.height()
    extras = []
    current = b
    while g + len(extras) < d:
        for trial in range(max_tries):
            degree = 1 + min(trial // max(1, max_tries // 5), 4)
            x = rings._random_homogeneous(b.ring.poly, degree, rng)
            if x.is_zero():
                continue
            cand = current + Ideal(b.ring, [x])
            try:
                if cand.is_unit():
                    continue
                if cand.height() == current.height() + 1:
                    extras.append(x)
                    current = cand
                    break
            except UnitIdeal:
                continue
        else:
            raise ParameterSearchFailed("could not raise height to m-primary")
    if not current.is_m_primary():
        raise ParameterSearchFailed("extension is not m-primary")
    return extras


# (p, variables, relation): every P^{n-1}(F_p) here has at most 31 points,
# so the certificate lists all of its rational zeros
CERTIFIED_RINGS = {
    "fermat2": (2, "xyz", "x^3+y^3+z^3"),
    "poly2_3": (2, "xyz", None),
    "quartic3": (3, "xyz", "x^4+y^4+z^4"),
    "fermat5": (5, "xyz", "x^3+y^3+z^3"),
    "cubic3fold2": (2, "xyzw", "x^3+y^3+z^3+w^3"),
}


def _certified_ring(name):
    p, variables, relation = CERTIFIED_RINGS[name]
    return RingContext(p, list(variables), relation)


def _outcome(search, rng):
    try:
        return search(rng)
    except ParameterSearchFailed:
        return "failed"


class TestRationalZeroCertificate:
    """Candidates that share an F_p-rational zero with the relation are
    rejected before their Groebner basis, and only those the height check
    rejects too."""

    @pytest.mark.parametrize("name, count", [
        ("fermat2", 3), ("poly2_3", 7), ("quartic3", 4), ("fermat5", 6), ("cubic3fold2", 7)])
    def test_zeros_of_the_relation(self, name, count):
        ring = _certified_ring(name)
        zeros = rings._rational_zeros([], ring)
        assert len(zeros) == count
        for point, _ in zeros:
            assert point[next(i for i, c in enumerate(point) if c)] == 1
            if ring.relation is not None:
                assert sum(c * math.prod(x ** e for x, e in zip(point, m))
                           for m, c in ring.relation.terms.items()) % ring.field.p == 0

    def test_no_listing_above_the_point_bound(self):
        # P^2(F_65521) has about 4.3e9 points; listing them would never end
        assert rings._rational_zeros([], RingContext(65521, ["x", "y", "z"])) == []
        ring = RingContext(11, ["x", "y", "z"])  # 133 points
        assert rings._rational_zeros([], ring) == []
        rng, ref_rng = random.Random(3), random.Random(3)
        a = find_parameter_ideal(ring.maximal_ideal(), rng)
        assert a.gens == reference_find_parameter_ideal_by_height(ring.maximal_ideal(),
                                                                  ref_rng).gens

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(CERTIFIED_RINGS)), st.data())
    def test_rejection_is_sound(self, name, data):
        ring = _certified_ring(name)
        p, n = ring.field.p, ring.poly.nvars

        def form():
            degree = data.draw(st.integers(1, 3))
            monos = [m for m in itertools.product(range(degree + 1), repeat=n)
                     if sum(m) == degree]
            coefficients = data.draw(st.lists(st.integers(0, p - 1), min_size=len(monos),
                                              max_size=len(monos)))
            return Polynomial(ring.poly, {m: c for m, c in zip(monos, coefficients) if c})

        elems = [form() for _ in range(ring.dim)]
        assume(not any(e.is_zero() for e in elems))
        # the test of find_parameter_ideal and that of extend_to_m_primary's
        # last step say the same thing: the lift has a rational zero
        shared = rings._share_a_zero(elems, rings._rational_zeros([], ring), p)
        assert shared == rings._share_a_zero(
            elems[-1:], rings._rational_zeros(elems[:-1], ring), p)
        if shared:
            assert Ideal(ring, elems).height() < ring.dim

    @pytest.mark.parametrize("name", sorted(CERTIFIED_RINGS))
    def test_same_searches_as_reference(self, name):
        ring = _certified_ring(name)
        m = ring.maximal_ideal()
        squares = ring.ideal(*[f"{v}^2" for v in ring.variables])
        x = ring.ideal("x")

        def searches(find, extend):
            def run(rng):
                out = [find(I, rng).gens for I in (m, squares)]
                b = find(x, rng, height=1)
                out += [b.gens, tuple(extend(b, rng))]
                # every candidate inside (x) has height 1, so this search
                # exhausts its tries
                return out + [_outcome(lambda r: find(x, r, height=ring.dim), rng)]
            return run

        for seed in range(20):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = _outcome(searches(find_parameter_ideal, extend_to_m_primary), rng)
            expected = _outcome(searches(reference_find_parameter_ideal_by_height,
                                         reference_extend_to_m_primary), ref_rng)
            assert got == expected
            assert got[-1] == "failed"
            assert rng.getstate() == ref_rng.getstate()

    @pytest.fixture
    def buchberger_runs(self, monkeypatch):
        runs = []
        original = rings.buchberger

        def spy(*args, **kwargs):
            runs.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(rings, "buchberger", spy)
        return runs

    def test_shared_zero_starts_no_buchberger_in_parameter_search(self, buchberger_runs):
        # every element of (x+y, z) vanishes at [1:1:0], a point of x^3+y^3+z^3
        ring = _certified_ring("fermat2")
        I = ring.ideal("x+y", "z")
        I.gb
        buchberger_runs.clear()
        with pytest.raises(ParameterSearchFailed):
            find_parameter_ideal(I, random.Random(0), height=ring.dim)
        assert buchberger_runs == []

    def test_shared_zero_starts_no_buchberger_in_extension(self, buchberger_runs,
                                                           monkeypatch):
        # z vanishes at [1:1:0], the one rational zero of the lift of (x+y)
        ring = _certified_ring("fermat2")
        b = ring.ideal("x+y")
        b.height()
        buchberger_runs.clear()
        monkeypatch.setattr(rings, "_random_homogeneous",
                            lambda poly, degree, rng: poly.parse("z"))
        with pytest.raises(ParameterSearchFailed):
            extend_to_m_primary(b, random.Random(0))
        assert buchberger_runs == []


class TestColonReusesItsBasis:
    """``Ideal.colon`` hands its reduced GB to the result, on both paths."""

    CASES = {
        "linear-algebra": (("x^2", "y^2"), ("x^2", "y^2", "z^2")),
        "elimination": (("x^2", "x*y"), ("x",)),
    }

    @pytest.fixture(params=["fermat2", "F2xyz"])
    def ring(self, request):
        return RingContext(2, ["x", "y", "z"],
                           "x^3+y^3+z^3" if request.param == "fermat2" else None)

    @pytest.mark.parametrize("path", CASES)
    def test_colon_gb_runs_no_buchberger(self, ring, path, monkeypatch):
        a, b = self.CASES[path]
        J = ring.ideal(*a).colon(ring.ideal(*b))
        runs = []
        original = rings.buchberger

        def spy(*args, **kwargs):
            runs.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(rings, "buchberger", spy)
        J.gb
        assert runs == []

    @pytest.mark.parametrize("path", CASES)
    def test_basis_is_buchbergers(self, ring, path):
        a, b = self.CASES[path]
        J = ring.ideal(*a).colon(ring.ideal(*b))
        expected = buchberger(J.lift_gens())
        assert J.gb == expected
        assert [list(g.terms.items()) for g in J.gb] == \
            [list(g.terms.items()) for g in expected]


class TestNoteIdentity:
    def test_double_colon_recovers_unmixed(self, fermat2):
        # a : (a : I) = I for unmixed I and parameter a ⊆ I of full height
        rng = random.Random(41)
        I = fermat2.ideal("x^2", "y^2", "z^2")
        for _ in range(3):
            a = find_parameter_ideal(I, rng)
            assert a.colon(a.colon(I)) == I

    def test_case1_identity(self, fermat2):
        # a : (b : I) = a + I (a : b) for nested parameter ideals inside I
        rng = random.Random(43)
        I = fermat2.maximal_ideal()
        b = find_parameter_ideal(I, rng)
        a = find_parameter_ideal(b, rng)
        assert a.colon(b.colon(I)) == a + I * a.colon(b)


# ---------------------------------------------------------------------------
# Colons of zero-dimensional homogeneous ideals: linear algebra against the
# elimination construction ``_colon_gens``.

VARS = ("x", "y", "z", "w")


@st.composite
def zero_dim_colons(draw):
    """(ring, A, B): A generates a homogeneous ideal of finite colength,
    with or without the pure powers x_i^b among its generators, and B is
    1-3 homogeneous forms of degree 0-3 (a form may come out zero)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 4))
    ring = PolyRing(p, VARS[:nvars])

    def form(lo, hi):
        degree = draw(st.integers(lo, hi))
        monos = [m for m in itertools.product(range(degree + 1), repeat=nvars)
                 if sum(m) == degree]
        coefficients = draw(st.lists(st.integers(0, p - 1), min_size=len(monos),
                                     max_size=len(monos)))
        return Polynomial(ring, {m: c for m, c in zip(monos, coefficients) if c})

    gens = []
    if draw(st.booleans()):
        gens += [ring.var(i) ** draw(st.integers(2, 5)) for i in range(nvars)]
        gens += [form(1, 3) for _ in range(draw(st.integers(0, 3)))]
    else:
        gens += [form(1, 3) for _ in range(nvars + draw(st.integers(0, 1)))]
    gens = [g for g in gens if not g.is_zero()]
    assume(gens and colength(buchberger(gens), nvars) is not INFINITE)
    divisors = [form(0, 3) for _ in range(draw(st.integers(1, 3)))]
    return ring, gens, divisors


def _cube_colon(p):
    """(x^3, y^3, z^3) : (x + y) over F_p: kernels of up to three vectors."""
    R = PolyRing(p, VARS[:3])
    return R, [R.parse(f"{v}^3") for v in VARS[:3]], [R.parse(f"{VARS[0]}+{VARS[1]}")]


def _both_colons(ring, gens, divisors):
    quotient = zero_dimensional_quotient(buchberger(gens), ring)
    fast = frobenius_colon(quotient, divisors)
    slow = rings._colon_gens(gens, divisors, ring)
    return fast, slow


class TestColonByLinearAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(zero_dim_colons())
    def test_same_reduced_gb_as_elimination(self, case):
        fast, slow = _both_colons(*case)
        assert fast == slow

    @settings(max_examples=150, deadline=None)
    @given(zero_dim_colons())
    @example(_cube_colon(2))
    @example(_cube_colon(3))
    def test_narrowed_kernels_are_rref(self, case):
        # the basis is read off the kernels without a row reduction: each
        # vector's top field (its largest monomial) is its pivot, with
        # value 1, in no other vector, and the pivots ascend
        ring, gens, divisors = case
        kernels = []
        narrow = quotient_module._narrow

        def spy(kernel, n, image, p):
            rows = narrow(kernel, n, image, p)
            kernels.append([dict(quotient_module._fields(v, quotient_module._width(p))) for v in rows])
            return rows

        with mock.patch.object(quotient_module, "_narrow", spy):
            frobenius_colon(
                zero_dimensional_quotient(buchberger(gens), ring), divisors)
        for kernel in kernels:
            pivots = [max(v) for v in kernel]
            assert pivots == sorted(set(pivots))
            for i, (v, m) in enumerate(zip(kernel, pivots)):
                assert v[m] == 1
                assert not any(m in w for j, w in enumerate(kernel) if j != i)

    def test_unit_dividend(self):
        R = PolyRing(3, ["x", "y"])
        fast, slow = _both_colons(R, [R.one()], [R.parse("x*y")])
        assert fast == slow == [R.one()]

    def test_divisor_inside_dividend_gives_unit(self):
        R = PolyRing(5, ["x", "y", "z"])
        A = [R.parse("x^2"), R.parse("y^2"), R.parse("z^2+x*y")]
        fast, slow = _both_colons(R, A, [R.parse("x^2+2y^2")])
        assert fast == slow == [R.one()]

    def test_divisors_in_dividend_tabulate_nothing(self):
        # x^2 + 2y^2 and x*z^2 lie in A at or below its top standard degree,
        # 3 (x*y*z), and y^4 above it: the colon is (1), and no degree is
        # tabulated, by the full table or the border tables
        R = PolyRing(5, ["x", "y", "z"])
        A = [R.parse("x^2"), R.parse("y^2"), R.parse("z^2+x*y")]
        divisors = [R.parse("x^2+2y^2"), R.parse("x*z^2"), R.parse("y^4")]
        with mock.patch.object(quotient_module._Quotient, "table") as table, \
                mock.patch.object(quotient_module._Quotient, "borders") as borders:
            fast, slow = _both_colons(R, A, divisors)
        assert table.call_count == borders.call_count == 0
        assert fast == slow == [R.one()]

    @settings(max_examples=100, deadline=None)
    @given(zero_dim_colons(), st.data())
    def test_divisors_in_dividend_change_nothing(self, case, data):
        # twisted_colon drops the divisors that lie in A; with them it gives
        # the reduced GB that _colon_gens gives, with them and without them
        ring, gens, divisors = case
        multiples = [gens[data.draw(st.integers(0, len(gens) - 1))]
                     * ring.monomial(data.draw(st.tuples(*[st.integers(0, 1)] * ring.nvars)),
                                     data.draw(st.integers(1, ring.field.p - 1)))
                     for _ in range(data.draw(st.integers(1, 3)))]
        A = Ideal(RingContext(ring.field.p, list(ring.variables)), gens)
        got = list(rings.twisted_colon(A, divisors + multiples).gens)
        assert got == rings._colon_gens(gens, divisors + multiples, ring)
        assert got == rings._colon_gens(gens, divisors, ring)

    def test_constant_divisor(self):
        R = PolyRing(7, ["x", "y", "z"])
        A = [R.parse("x^2+y*z"), R.parse("y^3"), R.parse("z^2")]
        fast, slow = _both_colons(R, A, [R.const(3)])
        assert fast == slow == buchberger(A)

    def test_divisor_above_top_standard_degree(self):
        # the top standard degree of (x^2, y^3) is 3: x*y^2
        R = PolyRing(2, ["x", "y"])
        A = [R.parse("x^2"), R.parse("y^3")]
        fast, slow = _both_colons(R, A, [R.parse("x^3+x*y^3"), R.parse("y^4")])
        assert fast == slow == [R.one()]
        fast, slow = _both_colons(R, A, [R.parse("x*y^3"), R.parse("y")])
        assert fast == slow == buchberger([R.parse("x^2"), R.parse("y^2")])

    def test_zero_generator_in_divisors(self):
        R = PolyRing(3, ["x", "y"])
        A = [R.parse("x^2"), R.parse("y^2")]
        fast, slow = _both_colons(R, A, [R.zero(), R.parse("x")])
        assert fast == slow == buchberger([R.parse("x"), R.parse("y^2")])
        fast, slow = _both_colons(R, A, [R.zero()])
        assert fast == slow == [R.one()]

    def test_ideal_colon_on_fermat2(self, fermat2):
        a = fermat2.ideal("x^2", "y^2")
        I = fermat2.ideal("x^2", "y^2", "z^2")
        colon = a.colon(I)
        assert colon.gb_strings() == ["z", "y^2", "x^2"]
        assert list(colon.gens) == rings._colon_gens(a.lift_gens(), list(I.gens),
                                                     fermat2.poly)
        assert fermat2.maximal_ideal().colon(I) == fermat2.ideal("1")


class TestLargeColons:
    """(m * (x, y)^[q]) : m on the Fermat cubic at p = 5, a colon on border
    tables whose dividend has colength 3q^2 + 2: one less than (x, y)^[q]."""

    @pytest.mark.parametrize("e, length", [(2, 1874), (3, 46874)], ids=["q25", "q125"])
    def test_colength(self, e, length):
        R = RingContext(5, ["x", "y", "z"], "x^3+y^3+z^3")
        m = R.maximal_ideal()
        J = bracket_power(R.ideal("x", "y"), e)
        colon = (m * J).colon(m)
        assert colon.colength() == length == J.colength() - 1
        assert colon.contains_ideal(J)


def _spy(monkeypatch, taken, owner, name):
    """Wrap ``owner.name`` so that each call appends ``name`` to ``taken``."""
    original = getattr(owner, name)

    def wrapped(*args):
        taken.append(name)
        return original(*args)
    monkeypatch.setattr(owner, name, wrapped)


class TestColonDispatch:
    """Only homogeneous colons with an m-primary dividend skip elimination."""

    @pytest.fixture
    def paths(self, monkeypatch):
        taken = []
        for name in ("frobenius_colon", "_colon_gens"):
            _spy(monkeypatch, taken, rings, name)
        return taken

    def test_m_primary_homogeneous_takes_linear_algebra(self, paths, poly3):
        poly3.ideal("x^2", "y^2", "z^3").colon(poly3.ideal("x*y", "z"))
        assert paths == ["frobenius_colon"]

    def test_non_homogeneous_dividend_takes_elimination(self, paths, poly3):
        A = poly3.ideal("x^2+y", "y^2", "z^2")
        assert A.is_m_primary()
        A.colon(poly3.ideal("x"))
        assert paths == ["_colon_gens"]

    def test_positive_dimensional_dividend_takes_elimination(self, paths, fermat2):
        fermat2.ideal("x^2", "x*y").colon(fermat2.ideal("x"))
        assert paths == ["_colon_gens"]

    def test_non_homogeneous_divisor_takes_elimination(self, paths, poly3):
        poly3.ideal("x^2", "y^2", "z^2").colon(poly3.ideal("x+y^2"))
        assert paths == ["_colon_gens"]

    def test_unit_divisor_takes_no_elimination(self, paths, fermat2):
        # A : (1) = A, with A's reduced GB as generators, as elimination
        # would return them
        A = fermat2.ideal("x^2", "x*y")
        colon = A.colon(fermat2.ideal("x", "1"))
        assert paths == []
        assert list(colon.gens) == A.gb
        assert A.gb == rings._colon_gens(A.lift_gens(), [fermat2.poly.one()],
                                         fermat2.poly)


def test_unit_dividend_gives_unit_without_elimination(monkeypatch):
    # A's reduced GB is (1); eliminating from its raw generators against
    # this inhomogeneous B ran past 60 s
    R = RingContext(7, ["x", "y", "z", "w"])
    A = R.ideal("x^3", "y^2", "z^3", "w^4",
                "6*x^2+4*x*y+2*y^2+y*z+4*z^2+6*x*w+4*y*w+2*z*w+2*w^2+x+y+3*z+6*w+6")
    B = R.ideal("2*x^2+5*y^2+4*x*z+6*y*z+3*x*w+2*z*w+4*w^2+2*x+5*y+z+6*w+5",
                "4*x+y+5*z+4*w+2")

    def refuse(*args):
        raise AssertionError("elimination colon on a unit dividend")
    monkeypatch.setattr(rings, "_colon_gens", refuse)
    assert A.is_unit()
    for q in (1, 7):
        colon = rings.twisted_colon(A, B.gens, q)
        assert colon.is_unit() and list(colon.gens) == [R.poly.one()]


class TestIqDispatch:
    """``iq_approx`` runs one twisted kernel when tau I^[q] has a homogeneous
    lift of finite colength, and the elimination colon, then the elimination
    preimage, otherwise."""

    @pytest.fixture
    def paths(self, monkeypatch):
        taken = []
        for name in ("frobenius_colon", "_colon_gens", "_preimage_by_elimination"):
            _spy(monkeypatch, taken, rings, name)
        return taken

    @pytest.fixture
    def tau(self, fermat2):
        # the test ideal's own chain runs, and is cached on the ring, before
        # the spies are in place
        return singularity.test_ideal(fermat2).tau

    def test_m_primary_takes_one_kernel(self, fermat2, tau, paths):
        Iq = singularity.iq_approx(fermat2.maximal_ideal(), 2)
        assert paths == ["frobenius_colon"]
        assert Iq == fermat2.maximal_ideal()

    def test_non_m_primary_takes_colon_then_preimage(self, fermat2, tau, paths):
        I = fermat2.ideal("x")
        Iq = singularity.iq_approx(I, 2)
        assert paths == ["_colon_gens", "_preimage_by_elimination"]
        assert Iq.contains_ideal(I)


class TestPreimageDispatch:
    """At q > 1 the K = A : B of the elimination colon goes to the
    elimination preimage, even when K is homogeneous of finite colength:
    with the unit 1 + x of R/A as divisor, K = A."""

    @pytest.fixture
    def paths(self, monkeypatch):
        taken = []
        for name in ("frobenius_colon", "_colon_gens", "_preimage_by_elimination"):
            _spy(monkeypatch, taken, rings, name)
        return taken

    @pytest.mark.parametrize("p, relation, gens, e", [
        (2, "x^3+y^3+z^3", ("x^2", "y^2", "z"), 1),
        (2, "x^3+y^3+z^3", ("x^2", "y^2", "z"), 2),
        (3, "x^4+y^4+z^4", ("x^2", "y^2", "z^2"), 1),
    ])
    def test_inhomogeneous_divisor_takes_colon_then_preimage(self, paths, p, relation,
                                                             gens, e):
        R = RingContext(p, ["x", "y", "z"], relation)
        A = R.ideal(*gens)
        preimage = rings.twisted_colon(A, [R.parse("1+x")], p ** e)
        assert paths == ["_colon_gens", "_preimage_by_elimination"]
        assert preimage == frobenius_preimage(A, e)


def test_linkage_lift_repeats_no_elimination_colon(monkeypatch):
    # each elimination colon of a seed-1 ``linkage-lift`` pass is asked once
    from charp.suites import verify_suite
    asked = []
    original = rings._colon_gens

    def spy(gens_a, gens_b, ring):
        dividend = buchberger(gens_a)
        asked.append((tuple(g.canonical_terms() for g in dividend),
                      tuple(b.canonical_terms() for b in gens_b)))
        return original(gens_a, gens_b, ring)
    monkeypatch.setattr(rings, "_colon_gens", spy)
    verify_suite("linkage-lift", {"seed": 1})
    assert asked
    assert len(asked) == len(set(asked))


# ---------------------------------------------------------------------------
# Membership and reduction from the table of monomial normal forms, against
# a fresh division of the whole polynomial and the brute-force oracle.

def _random_form(ring: PolyRing, degree: int, homogeneous: bool,
                 rng: random.Random) -> Polynomial:
    """A random polynomial of degree at most ``degree``, all of it in that
    degree when ``homogeneous``; it may come out zero."""
    terms = {m: rng.randrange(ring.field.p)
             for m in itertools.product(range(degree + 1), repeat=ring.nvars)
             if sum(m) == degree or (not homogeneous and sum(m) < degree)}
    return Polynomial(ring, {m: c for m, c in terms.items() if c})


@st.composite
def membership_cases(draw):
    """(I, queries, homogeneous): I is the zero ideal, the unit ideal, an
    ideal of 1-3 random generators (mostly positive-dimensional), one with
    the pure powers x_i^b among them (zero-dimensional), or a colon A : B
    of such ideals, whose GB ``_with_reduced_gb`` sets; in F_p[x,...] with
    p in {2, 3, 5, 7} and 1-4 variables, or in a hypersurface ring of it.
    The queries are members, random elements and their sums, each twice, in
    a shuffled order."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 4))
    homogeneous = draw(st.booleans())
    kind = draw(st.sampled_from(["zero", "unit", "gens", "zero-dim", "colon"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    poly = PolyRing(p, VARS[:nvars])
    relation = None
    if nvars >= 2 and draw(st.booleans()):
        relation = _random_form(poly, rng.randint(2, 3), True, rng)
    try:
        ring = RingContext(p, VARS[:nvars], relation)
    except AlgebraError:
        assume(False)  # zero, or a p-th power

    def forms(count, lo=1, hi=3):
        return [_random_form(poly, rng.randint(lo, hi), homogeneous, rng)
                for _ in range(count)]

    def zero_dim():
        return [poly.var(i) ** rng.randint(2, 4) for i in range(nvars)] + \
            forms(rng.randint(0, 2))
    if kind == "zero":
        I = ring.zero_ideal()
    elif kind == "unit":
        I = Ideal(ring, forms(rng.randint(0, 2)) + [poly.const(rng.randint(1, p - 1))])
    elif kind == "gens":
        I = Ideal(ring, forms(rng.randint(1, max(1, nvars - 1))))
    elif kind == "zero-dim":
        I = Ideal(ring, zero_dim())
    else:
        # homogeneous, so that the colon takes the kernel: an elimination
        # colon of random inhomogeneous ideals in four variables can run
        # for minutes
        homogeneous = True
        I = Ideal(ring, zero_dim()).colon(Ideal(ring, forms(rng.randint(1, 2), 0, 2)))
        assert I._gb is not None
    members = []
    for _ in range(3):
        combination = poly.zero()
        for g in I.lift_gens():
            combination = combination + _random_form(poly, rng.randint(0, 1), homogeneous, rng) * g
        members.append(combination)
    others = forms(3, 0, 4)
    queries = members + others + [m + o for m, o in zip(members, others)]
    return I, draw(st.permutations(queries * 2)), homogeneous


class TestNormalFormTable:
    @settings(max_examples=150, deadline=None)
    @given(membership_cases())
    def test_same_as_dividing_the_whole_polynomial(self, case):
        I, queries, homogeneous = case
        ring = I.ring.poly
        lifted = [poly_to_dict(g) for g in I.lift_gens()]
        for f in queries:
            expected = groebner.normal_form(f, I.gb)
            assert I.reduce(f) == expected
            assert I.contains(f) == expected.is_zero()
            if f.degree() <= 3:
                # exact for homogeneous generators; otherwise only its True
                # is definitive
                verdict = oracle_member(poly_to_dict(f), lifted, ring.nvars, ring.field.p)
                if homogeneous:
                    assert I.contains(f) == verdict
                elif verdict:
                    assert I.contains(f)

    def test_colon_by_elimination(self, fermat2):
        I = fermat2.ideal("x^2+y", "x*y").colon(fermat2.ideal("x"))
        assert I._gb is not None
        for text in ("x+y", "y^2+x*y", "x*z+y*z", "z^3", "x+y", "z^3"):
            f = fermat2.parse(text)
            assert I.reduce(f) == groebner.normal_form(f, I.gb)

    def test_second_read_of_seen_monomials_divides_nothing(self, fermat2, monkeypatch):
        I = fermat2.ideal("x^2+y*z", "y^2")
        first = fermat2.parse("x^3+x*y^2+y*z^2+z")
        second = fermat2.parse("x^3+y*z^2")
        expected = [groebner.normal_form(f, I.gb) for f in (first, second)]
        calls = []
        _spy(monkeypatch, calls, rings, "remainder")
        assert I.reduce(first) == expected[0]
        assert calls
        calls.clear()
        assert I.reduce(second) == expected[1]
        assert I.contains(second) == expected[1].is_zero()
        assert not I.contains_ideal(Ideal(fermat2, [first, second]))
        assert calls == []
