import heapq
import itertools
import random
from operator import le, mul, sub

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from charp import groebner, rings
from charp.core import (
    GREVLEX,
    MAX_EXPONENT,
    ExponentOverflow,
    MonomialOrder,
    PolyRing,
    Polynomial,
    mono_mul,
)
from charp.groebner import (
    INFINITE,
    _divisor,
    _exponents,
    _guard,
    _packed,
    _staircase,
    _to_keys,
    buchberger,
    colength,
    divide_exact,
    eliminate,
    normal_form,
)
from charp.quotient import (
    _fields,
    _keys_of_degree,
    _normaliser,
    _width,
    zero_dimensional_quotient,
)
from charp.script import ScriptRunner
from oracle import oracle_member, order_key, poly_to_dict, random_homogeneous_dict


# Tuple references for the monomial arithmetic that groebner does on keys.

def mono_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def mono_div(b: tuple, a: tuple) -> tuple:
    """b / a, for a dividing b."""
    return tuple(map(sub, b, a))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    """S(f, g) built from exponent tuples by multiplying with monomials,
    which raises ExponentOverflow where a multiple leaves the envelope."""
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = mono_lcm(lf, lg)
    ring = f.ring
    return (f * ring.monomial(mono_div(lcm, lf), ring.field.inv(f.leading_coefficient(order)))
            - g * ring.monomial(mono_div(lcm, lg), ring.field.inv(g.leading_coefficient(order))))


def packed_key(m: tuple, order) -> int:
    """The packed key of m under ``order``."""
    return sum(map(mul, m, order.units(len(m))))


def is_groebner(basis, order=GREVLEX) -> bool:
    """Every S-polynomial reduces to zero: Buchberger's criterion."""
    return all(normal_form(_s_polynomial(f, g, order), basis, order).is_zero()
               for f, g in itertools.combinations(basis, 2))


def monomials_of_degree(nvars: int, e: int) -> list:
    """Every monomial of degree e, ascending in the tuple grevlex reference;
    none when e < 0."""
    def compositions(n, d):
        if n == 0:
            return [()] if d == 0 else []
        return [(i,) + m for i in range(d + 1) for m in compositions(n - 1, d - i)]
    return sorted(compositions(nvars, e), key=order_key(GREVLEX))


def standard_monomials(gb, nvars):
    """The monomials outside the lead-term ideal, ascending: [] for the unit
    ideal, None when the colength is infinite."""
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return []
    staircase = _staircase(gb, nvars)
    if staircase is None:
        return None
    unit, columns = staircase
    return sorted(_exponents(nvars)(k + t * unit) for k, height in columns for t in range(height))


def random_ideal(ring, rng, ngens=3, max_deg=3):
    gens = []
    for _ in range(ngens):
        d = rng.randrange(1, max_deg + 1)
        t = random_homogeneous_dict(ring.nvars, d, ring.field.p, rng)
        if t:
            gens.append(Polynomial(ring, t))
    return gens or [ring.var(0)]


class TestBuchberger:
    def test_known_staircase(self):
        R = PolyRing(7, ["x", "y"])
        gb = buchberger([R.parse("x^2+y"), R.parse("x*y+x")])
        assert is_groebner(gb)
        # membership sanity against the oracle at a safe degree bound
        f = R.parse("x^3+x*y^2")
        in_gb = normal_form(f, gb).is_zero()
        in_oracle = oracle_member(poly_to_dict(f),
                                  [poly_to_dict(g) for g in gb],
                                  2, 7, degree_bound=6)
        assert in_gb == in_oracle

    def test_unit_ideal(self):
        R = PolyRing(3, ["x"])
        gb = buchberger([R.parse("x+1"), R.parse("x")])
        assert gb == [R.one()]

    def test_zero_ideal(self):
        R = PolyRing(3, ["x"])
        assert buchberger([R.zero()]) == []

    def test_canonical_under_shuffles_and_scaling(self):
        R = PolyRing(5, ["x", "y", "z"])
        gens = [R.parse("x^2+y*z"), R.parse("y^2+x*z"), R.parse("z^2+x*y")]
        base = buchberger(gens)
        rng = random.Random(11)
        for _ in range(6):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            scaled = [g.scale(rng.randrange(1, 5)) for g in shuffled]
            assert buchberger(scaled) == base

    def test_membership_agrees_with_oracle_randomized(self):
        rng = random.Random(202)
        for p in (2, 3):
            for n in (2, 3):
                ring = PolyRing(p, ["x", "y", "z"][:n])
                for _ in range(5):
                    gens = random_ideal(ring, rng)
                    gb = buchberger(gens)
                    gdicts = [poly_to_dict(g) for g in gens]
                    for _ in range(4):
                        d = rng.randrange(1, 5)
                        f = Polynomial(ring, random_homogeneous_dict(
                            ring.nvars, d, p, rng))
                        in_gb = normal_form(f, gb).is_zero()
                        in_oracle = oracle_member(
                            poly_to_dict(f), gdicts, n, p)
                        assert in_gb == in_oracle

    def test_lex_order_gb_also_canonical(self):
        R = PolyRing(5, ["x", "y"])
        gens = [R.parse("x^2+y"), R.parse("y^2+x")]
        lex = MonomialOrder.lex()
        gb1 = buchberger(gens, order=lex)
        gb2 = buchberger(list(reversed(gens)), order=lex)
        assert gb1 == gb2 and is_groebner(gb1, lex)


class TestNormalForm:
    def test_linearity(self):
        R = PolyRing(5, ["x", "y"])
        gb = buchberger([R.parse("x^2+y"), R.parse("y^3")])
        f, g = R.parse("x^4+x*y"), R.parse("x^2*y^2+3")
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)

    def test_idempotent(self):
        R = PolyRing(5, ["x", "y"])
        gb = buchberger([R.parse("x^2+y")])
        r = normal_form(R.parse("x^3"), gb)
        assert normal_form(r, gb) == r


    def test_overflow_checked_per_reduction_step(self):
        R = PolyRing(5, ["x", "y"])
        lex = MonomialOrder.lex()
        basis = [R.var("x") + R.monomial((0, MAX_EXPONENT))]
        with pytest.raises(ExponentOverflow):
            normal_form(R.parse("x*y"), basis, lex)
        assert normal_form(R.var("x"), basis, lex) == -R.monomial((0, MAX_EXPONENT))

    def test_s_pair_multiple_leaving_the_envelope(self):
        # the leads x*y and x^2 (lex) divide neither each other nor any
        # other term, so S = x*z - y^(MAX+1)*z is the first multiple taken,
        # and its second half leaves the envelope
        R = PolyRing(5, ["x", "y", "z"])
        lex = MonomialOrder.lex()
        g1, g2 = R.parse("x*y+z"), R.parse("x^2") + R.monomial((0, MAX_EXPONENT, 1))
        with pytest.raises(ExponentOverflow):
            _s_polynomial(g1, g2, lex)
        with pytest.raises(ExponentOverflow, match="S-polynomial"):
            buchberger([g1, g2], lex)

    def test_reducer_cache_follows_order(self):
        # g's lead is 3*y^4 under grevlex, 2*x*y^2 under lex and x*z^3 under
        # block(1).  A reducer kept from another order would put the lead
        # back into the work and never finish, so its parts are checked
        # before dividing.
        R = PolyRing(5, ["x", "y", "z"])
        g = R.parse("x*z^3+2*x*y^2+3*y^4+z^2+y")
        h = R.parse("x*y+z")
        f = g * h + R.parse("x^3*y^2+y*z+1")
        for order in (GREVLEX, MonomialOrder.lex(), MonomialOrder.block(1), GREVLEX,
                      MonomialOrder.lex()):
            lm = max(g.terms, key=order_key(order))
            lead, lc_inv, tail, _ = _packed(g, order)
            assert lead == packed_key(lm, order)
            assert lc_inv * g.terms[lm] % 5 == 1
            assert dict(tail) == {packed_key(m, order): c for m, c in g.terms.items() if m != lm}
            want = reference_normal_form(f, [g], order)
            assert list(normal_form(f, [g], order).terms.items()) == list(want.terms.items())
            assert normal_form(g * h, [g], order).is_zero()
            assert divide_exact(g * h, g) == h


def reference_normal_form(f, basis, order):
    """Division by rescanning: reduce max(work) by the first divisible lead."""
    basis = [g for g in basis if not g.is_zero()]
    if not basis or f.is_zero():
        return f
    p = f.ring.field.p
    leads = [(max(g.terms, key=order_key(order)), g) for g in basis]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=order_key(order))
        c = work.pop(m)
        for lm, g in leads:
            if mono_divides(lm, m):
                factor = c * pow(g.terms[lm], p - 2, p) % p
                shift = mono_div(m, lm)
                for gm, gc in g.terms.items():
                    t = mono_mul(gm, shift)
                    if t == m:
                        continue
                    s = (work.get(t, 0) - factor * gc) % p
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[m] = c
    return Polynomial(f.ring, remainder)


@st.composite
def division_cases(draw):
    """A ring, an order, a polynomial and a basis that need not be a GB."""
    nvars = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ring = PolyRing(p, [f"x{i}" for i in range(nvars)])
    order = draw(st.sampled_from(["grevlex", "lex", "block"]))
    if order == "block":
        order = MonomialOrder.block(draw(st.integers(1, nvars)))
    else:
        order = MonomialOrder(order)
    mono = st.tuples(*[st.integers(0, 3) for _ in range(nvars)])
    poly = st.lists(st.tuples(mono, st.integers(1, p - 1)), max_size=5).map(ring.from_terms)
    return order, draw(poly), draw(st.lists(poly, min_size=1, max_size=4))


@pytest.mark.parametrize("nvars", range(5))
@pytest.mark.parametrize("e", [-1, -2])
def test_no_monomials_of_negative_degree(nvars, e):
    assert _keys_of_degree(GREVLEX.units(nvars), e) == []


@pytest.mark.parametrize("nvars", range(5))
def test_keys_of_degree_ascend_in_grevlex(nvars):
    for e in range(7):
        keys = _keys_of_degree(GREVLEX.units(nvars), e)
        assert [_exponents(nvars)(k) for k in keys] == monomials_of_degree(nvars, e)
        assert all(-(k >> 32 * nvars) == e for k in keys)


class TestHeapDivisionAgainstRescan:
    @settings(max_examples=300, deadline=None)
    @given(division_cases())
    def test_normal_form_term_for_term(self, case):
        order, f, basis = case
        got = normal_form(f, basis, order)
        assert list(got.terms.items()) == list(reference_normal_form(f, basis, order).terms.items())

    @settings(max_examples=300, deadline=None)
    @given(division_cases(), st.booleans())
    def test_divide_exact(self, case, multiple):
        _, f, basis = case
        g = basis[0]
        if g.is_zero():
            assert divide_exact(f, g) is None
            return
        if multiple:
            f = f * g
        q = divide_exact(f, g)
        if reference_normal_form(f, [g], GREVLEX).is_zero():
            assert q is not None and q * g == f
        else:
            assert q is None


# Exponents at the ends of the envelope, where a field without a free top
# bit would borrow from its neighbour.
_EDGE_EXPONENTS = [0, 1, MAX_EXPONENT - 1, MAX_EXPONENT]


def packed_divides(a: tuple, b: tuple, order=GREVLEX) -> bool:
    return _divisor([packed_key(a, order)], packed_key(b, order), _guard(len(a))) == 0


def _edge_pairs(n):
    monomials = list(itertools.product(_EDGE_EXPONENTS, repeat=n))
    return [(a, b) for a in monomials for b in monomials]


_EDGE_PAIRS_UP_TO_FIVE = st.integers(0, 5).flatmap(lambda n: st.tuples(
    *[st.tuples(*[st.sampled_from(_EDGE_EXPONENTS)] * n)] * 2))


class TestPackedDivisibility:
    """The guard test on keys decides divisibility under every order, though
    the keys of different orders differ above the exponent fields."""

    @pytest.mark.parametrize("nvars", range(4))
    def test_every_pair_of_edge_monomials(self, nvars):
        for order in _orders(nvars):
            for a, b in _edge_pairs(nvars):
                assert packed_divides(a, b, order) == mono_divides(a, b), (order, a, b)

    @settings(max_examples=500, deadline=None)
    @given(_EDGE_PAIRS_UP_TO_FIVE)
    def test_edge_monomials_in_up_to_five_variables(self, pair):
        a, b = pair
        for order in _orders(len(a)):
            assert packed_divides(a, b, order) == mono_divides(a, b)

    def test_first_divisor_wins(self):
        leads = [packed_key(m, GREVLEX) for m in [(2, 0), (1, 1), (0, 0)]]
        guard = _guard(2)
        assert _divisor(leads, packed_key((3, 1), GREVLEX), guard) == 0
        assert _divisor(leads, packed_key((1, 4), GREVLEX), guard) == 1
        assert _divisor(leads, packed_key((0, 7), GREVLEX), guard) == 2
        assert _divisor(leads[:2], packed_key((0, 7), GREVLEX), guard) is None


def check_keys(a: tuple, b: tuple, order):
    """A smaller key is a larger monomial, keys add as monomials multiply,
    and the low bits of a key are the exponents, even of a product past the
    envelope, whose exponents still fit in 32 bits."""
    ka, kb = packed_key(a, order), packed_key(b, order)
    key = order_key(order)
    assert (ka < kb) == (key(a) > key(b)), (order, a, b)
    assert (ka == kb) == (a == b)
    assert _exponents(len(a))(ka) == a
    assert _exponents(len(a))(ka + kb) == tuple(x + y for x, y in zip(a, b))


class TestPackedKeys:
    @pytest.mark.parametrize("nvars", range(4))
    def test_every_pair_of_edge_monomials(self, nvars):
        for order in _orders(nvars):
            for a, b in _edge_pairs(nvars):
                check_keys(a, b, order)

    @settings(max_examples=500, deadline=None)
    @given(_EDGE_PAIRS_UP_TO_FIVE)
    def test_edge_monomials_in_up_to_five_variables(self, pair):
        for order in _orders(len(pair[0])):
            check_keys(*pair, order)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        *[st.tuples(*[st.integers(0, 6)] * n)] * 3)))
    def test_products_keep_the_order(self, monomials):
        a, b, c = monomials
        for order in _orders(len(a)):
            assert ((packed_key(a, order) + packed_key(c, order)
                     < packed_key(b, order) + packed_key(c, order))
                    == (order_key(order)(mono_mul(a, c)) > order_key(order)(mono_mul(b, c))))


class TestColength:
    def test_known_box(self):
        R = PolyRing(3, ["x", "y"])
        gb = buchberger([R.parse("x^2"), R.parse("y^3")])
        assert colength(gb, 2) == 6
        assert len(standard_monomials(gb, 2)) == 6

    def test_infinite(self):
        R = PolyRing(3, ["x", "y"])
        gb = buchberger([R.parse("x")])
        assert colength(gb, 2) == INFINITE

    def test_staircase_matches_standard_monomials(self):
        rng = random.Random(5)
        R = PolyRing(2, ["x", "y", "z"])
        gens = [R.parse("x^2+y*z"), R.parse("y^3"), R.parse("z^3+x*y*z")]
        gb = buchberger(gens)
        c = colength(gb, 3)
        assert c == len(standard_monomials(gb, 3))
        # every standard monomial reduces to itself
        for m in standard_monomials(gb, 3):
            f = Polynomial(R, {m: 1})
            assert normal_form(f, gb) == f


def box_scan(leads, nvars):
    """Standard monomials by testing every point of the box of pure-power
    bounds against every lead; None when the colength is infinite."""
    if any(not any(m) for m in leads):
        return []
    bounds = []
    for i in range(nvars):
        powers = [m[i] for m in leads
                  if m[i] and all(e == 0 for j, e in enumerate(m) if j != i)]
        if not powers:
            return None
        bounds.append(min(powers))
    return [point for point in itertools.product(*(range(b) for b in bounds))
            if not any(all(x <= y for x, y in zip(m, point)) for m in leads)]


@st.composite
def lead_sets(draw):
    """(nvars, leads): mixed monomials plus a pure power x_i^b for each
    variable whose drawn b is nonzero (b = 0 leaves x_i without one)."""
    nvars = draw(st.integers(0, 4))
    leads = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars), max_size=6))
    for i, b in enumerate(draw(st.lists(st.integers(0, 6),
                                        min_size=nvars, max_size=nvars))):
        if b:
            leads.append(tuple(b if j == i else 0 for j in range(nvars)))
    return nvars, leads


class TestStaircaseAgainstBoxScan:
    @settings(max_examples=400, deadline=None)
    @given(lead_sets())
    @example((0, []))                       # zero ideal, no variables
    @example((0, [()]))                     # unit ideal, no variables
    @example((2, [(0, 0), (3, 0)]))         # unit ideal
    @example((3, []))                       # zero ideal: infinite
    @example((3, [(2, 0, 0), (0, 0, 2)]))   # y has no pure power
    @example((3, [(6, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 0), (2, 0, 1)]))
    @example((3, [(2, 0, 0), (0, 5, 0), (0, 0, 1), (1, 3, 0)]))
    @example((4, [(3, 0, 0, 0), (0, 4, 0, 0), (0, 0, 2, 0), (0, 0, 0, 4),
                  (1, 2, 0, 1), (2, 1, 1, 0), (0, 3, 1, 2)]))
    def test_colength_and_standard_monomials(self, case):
        nvars, leads = case
        ring = PolyRing(2, [f"x{i}" for i in range(nvars)])
        gb = [Polynomial(ring, {m: 1}) for m in leads]
        expected = box_scan(leads, nvars)
        if expected is None:
            assert colength(gb, nvars) == INFINITE
            assert standard_monomials(gb, nvars) is None
        else:
            assert colength(gb, nvars) == len(expected)
            assert standard_monomials(gb, nvars) == expected


@st.composite
def finite_colength_ideals(draw):
    """(ring, reduced grevlex GB) over F_p, p in {2, 3, 5}, in 0-3 variables:
    a pure power of each variable, of degree 1-5, plus up to three forms."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(0, 3))
    ring = PolyRing(p, [f"x{i}" for i in range(nvars)])
    gens = [ring.var(i) ** draw(st.integers(1, 5)) for i in range(nvars)]
    for _ in range(draw(st.integers(0, 3))):
        monos = monomials_of_degree(nvars, draw(st.integers(1, 4)))
        cs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
        gens.append(ring.from_terms(zip(monos, cs)))
    return ring, buchberger(gens)


class TestQuotientKeys:
    """The standard keys of ``zero_dimensional_quotient``, decoded, are the
    box scan's standard monomials in ascending grevlex, grouped by degree."""

    @settings(max_examples=200, deadline=None)
    @given(finite_colength_ideals())
    @example((PolyRing(2, []), []))                       # S = F_2: only 1
    @example((PolyRing(3, ["x"]), [PolyRing(3, ["x"]).parse("x^3")]))
    def test_against_box_scan(self, case):
        ring, gb = case
        n = ring.nvars
        quotient = zero_dimensional_quotient(gb, ring)
        expected = sorted(box_scan([g.leading_monomial(GREVLEX) for g in gb], n),
                          key=order_key(GREVLEX))
        degrees = list(quotient.standard)
        assert degrees == list(range(quotient.top + 1)) and quotient.top >= 0
        assert quotient.standard[0] == [0]  # the monomial 1, of degree 0
        decoded = {d: [_exponents(n)(k) for k in keys] for d, keys in quotient.standard.items()}
        assert [m for d in degrees for m in decoded[d]] == expected
        assert all(sum(m) == d for d in degrees for m in decoded[d])

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("nvars", range(4))
    def test_unit_ideal_has_no_keys(self, p, nvars):
        ring = PolyRing(p, [f"x{i}" for i in range(nvars)])
        quotient = zero_dimensional_quotient(buchberger([ring.one()]), ring)
        assert quotient.standard == {} and quotient.top == -1


# Each case: the prime, the variables, the generators, how many leading
# variables to eliminate, and the generator of the elimination ideal.
ELIMINATION_CASES = [
    # x^2 = y, x^3 = z  =>  y^3 = z^2
    (7, "xyz", ["x^2-y", "x^3-z"], 1, "y^3-z^2"),
    # (st, s^2, t^2) traces the quadric cone x^2 = yz
    (5, "stxyz", ["x-s*t", "y-s^2", "z-t^2"], 2, "x^2-y*z"),
]


class TestEliminate:
    def test_twisted_cubic_relation(self):
        R = PolyRing(7, ["x", "y", "z"])
        kept = PolyRing(7, ["y", "z"])
        out = eliminate([R.parse("x^2-y"), R.parse("x^3-z")], 1, kept)
        assert all(g.ring == kept for g in out)
        target = buchberger(out)
        assert normal_form(kept.parse("y^3-z^2"), target).is_zero()

    def test_elimination_is_contraction(self):
        # everything eliminated stays inside the original ideal
        R = PolyRing(3, ["x", "y", "z"])
        gens = [R.parse("x*y+z^2"), R.parse("x+y+z")]
        out = eliminate(gens, 1, PolyRing(3, ["y", "z"]))
        gb = buchberger(gens)
        for g in out:
            assert normal_form(Polynomial(R, {(0,) + m: c for m, c in g.terms.items()}),
                               gb).is_zero()

    @pytest.mark.parametrize("p, names, gens, k, expected", ELIMINATION_CASES,
                             ids=[f"k={case[3]}" for case in ELIMINATION_CASES])
    def test_leading_block(self, p, names, gens, k, expected):
        R = PolyRing(p, list(names))
        kept = PolyRing(p, list(names[k:]))
        out = eliminate([R.parse(g) for g in gens], k, kept)
        assert out == buchberger([kept.parse(expected)])
        # the kept block elements are their own reduced grevlex basis
        assert buchberger(out) == out


class TestDivideExact:
    def test_roundtrip(self):
        R = PolyRing(5, ["x", "y"])
        f, g = R.parse("x^2+y"), R.parse("x*y+4")
        assert divide_exact(f * g, g) == f

    def test_nondivisible_returns_none(self):
        R = PolyRing(5, ["x", "y"])
        assert divide_exact(R.parse("x^2+y"), R.parse("x")) is None


# ---------------------------------------------------------------------------
# Buchberger's Gebauer-Moeller pair update against the chain criterion.

def reference_buchberger(gens, order=GREVLEX):
    """Buchberger with the product criterion and a chain criterion that scans
    the basis for each popped pair, skipping (i, j) when some other lead_k
    divides lcm(i, j) and neither (i, k) nor (j, k) is still pending."""
    gens = [g for g in gens if g is not None and not g.is_zero()]
    if not gens:
        return []
    basis = sorted({g.monic(order) for g in gens},
                   key=lambda g: sorted((order_key(order)(m), c) for m, c in g.terms.items()))
    G, leads, pending, heap = [], [], set(), []

    def add_poly(h):
        j = len(G)
        G.append(h)
        lm = h.leading_monomial(order)
        leads.append(lm)
        for i in range(j):
            pending.add((i, j))
            heapq.heappush(heap, (order_key(order)(mono_lcm(leads[i], lm)), i, j))

    for g in basis:
        g = normal_form(g, G, order)
        if not g.is_zero():
            add_poly(g.monic(order))
    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lcm = mono_lcm(leads[i], leads[j])
        if lcm == mono_mul(leads[i], leads[j]):
            continue
        if any(k not in (i, j) and mono_divides(leads[k], lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending for k in range(len(G))):
            continue
        h = normal_form(_s_polynomial(G[i], G[j], order), G, order)
        if not h.is_zero():
            add_poly(h.monic(order))
    keep = []
    for i, lm in enumerate(leads):
        if any(mono_divides(leads[j], lm) for j in keep):
            continue
        keep = [j for j in keep if not mono_divides(lm, leads[j])]
        keep.append(i)
    minimal = [G[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        r = normal_form(g, minimal[:i] + minimal[i + 1:], order)
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order_key(order)(g.leading_monomial(order)))
    return reduced


def _orders(nvars):
    return [GREVLEX, MonomialOrder.lex()] + [MonomialOrder.block(k) for k in range(1, nvars + 1)]


@st.composite
def ideal_cases(draw):
    """A ring, an order and generators, homogeneous or not; the zero
    polynomial and constants may occur among them."""
    nvars = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ring = PolyRing(p, [f"x{i}" for i in range(nvars)])
    order = draw(st.sampled_from(_orders(nvars)))
    homogeneous = draw(st.booleans())

    def poly():
        # degree at most 3, so that no lex basis grows out of desk scale
        degrees = [draw(st.integers(0, 3))] if homogeneous else range(4)
        mono = st.sampled_from([m for d in degrees for m in monomials_of_degree(nvars, d)])
        return ring.from_terms(draw(st.lists(st.tuples(mono, st.integers(1, p - 1)),
                                             max_size=4)))
    # under lex or a block order in 4 variables, three such generators can
    # make bases that take both paths minutes to build, and two stayed under
    # 0.05 s in 7,000 drawn cases; the pinned examples keep three and four
    most = 2 if nvars == 4 and order != GREVLEX else 4
    return ring, order, [poly() for _ in range(draw(st.integers(1, most)))]


def pinned_case(p, order, *gens):
    ring = PolyRing(p, [f"x{i}" for i in range(4)])
    return ring, order, [ring.parse(g) for g in gens]


class TestPairUpdateAgainstChainCriterion:
    @settings(max_examples=300, deadline=None)
    @given(ideal_cases())
    # cubics in 4 variables under lex and block orders whose later leads
    # reach earlier tails, some of higher degree than the lead
    @example(pinned_case(5, MonomialOrder.lex(), "x0*x1*x3+4*x2^2*x3+x1*x3^2+x2*x3",
                         "3*x0*x2*x3+4*x0*x1+4*x0*x3+4*x0", "3*x0^2*x2+4*x1*x3+x2",
                         "2*x0^2*x3+2*x1*x3^2"))
    @example(pinned_case(7, MonomialOrder.block(1), "2*x0^2*x1+6*x0*x1*x3",
                         "2*x0^2*x2+4*x1^2*x2+2*x0*x2+5*x3",
                         "x0^3+4*x1*x2^2+5*x0*x2*x3+5*x1*x3^2", "6*x1^3+3*x0*x1*x3+x2*x3"))
    @example(pinned_case(5, MonomialOrder.block(2), "3*x0*x1^2+x0*x1*x2+x2^2*x3+3*x1",
                         "3*x0*x2^2+3*x1*x2^2+4*x2*x3^2", "2*x0^2+3*x3",
                         "x1^2*x2+3*x2*x3^2+2*x3^3+x1"))
    @example(pinned_case(3, MonomialOrder.block(3), "2*x0*x1*x3+2*x1*x2*x3+2*x2^2+x3^2",
                         "2*x0*x1*x2+x3^3+x2", "2*x0^2*x3+2*x0*x2*x3+2*x3"))
    @example(pinned_case(2, MonomialOrder.block(4), "x1^3+x0*x3^2+x0*x2",
                         "x0*x1*x2+x2*x3+x3^2", "x0*x2^2+x0*x3^2+x3^2+x3"))
    def test_same_reduced_gb(self, case):
        ring, order, gens = case
        assert buchberger(gens, order) == reference_buchberger(gens, order)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_zero_and_unit_ideals(self, p, nvars):
        ring = PolyRing(p, [f"x{i}" for i in range(nvars)])
        for order in _orders(nvars):
            assert buchberger([ring.zero()], order) == [] == reference_buchberger(
                [ring.zero()], order)
            unit = [ring.var(0) + 1, ring.var(0)]
            assert buchberger(unit, order) == [ring.one()] == reference_buchberger(
                unit, order)

    def test_preimage_by_elimination_on_the_quadric_cone(self, monkeypatch):
        # iq(A, 2) on xy - z^2 at p = 3 runs the elimination preimage of a
        # positive-dimensional K, whose block-order bases are large
        statements = ("ring R = char 3 vars x, y, z mod x*y-z^2", "ideal A = x^2-2*y*z",
                      "C = iq(A,2)")

        def run():
            runner = ScriptRunner(seed=0)
            for statement in statements:
                runner.execute(statement)
            return runner.ideals["C"].gb_strings()
        got = run()
        monkeypatch.setattr(groebner, "buchberger", reference_buchberger)
        monkeypatch.setattr(rings, "buchberger", reference_buchberger)
        assert got == run()


def interreductions(monkeypatch, gens, order=GREVLEX) -> tuple:
    """(buchberger(gens, order), the number of its closing interreduction
    divisions).  Every other division divides by the one running basis
    list, so a division by any other list is an interreduction."""
    reducer_lists = []
    divide = groebner._divide

    def spy(work, reducers, *args):
        reducer_lists.append(reducers)
        return divide(work, reducers, *args)
    monkeypatch.setattr(groebner, "_divide", spy)
    gb = buchberger(gens, order)
    return gb, sum(r is not reducer_lists[0] for r in reducer_lists)


class TestDirtyInterreduction:
    """The closing interreduction divides only the elements whose tail a
    later lead reaches, and returns the rest as stored."""

    def test_later_leads_reaching_earlier_tails(self, monkeypatch):
        # an elimination input of a seed-1 suites pass on fermat2, in which
        # later leads divide three earlier tails
        S = PolyRing(2, ["t", "x", "y", "z"])
        gens = [S.parse("t*x^2*z^2+t*y*z^3+t*x^2*y^2+t*y^4+t*x^3*z"),
                S.parse("t*x^3+t*y^3+t*z^3"),
                S.parse("y^3*z+y^2*z^2+y*z^3+t*y^3*z+t*y^2*z^2+t*y*z^3")]
        order = MonomialOrder.block(1)
        gb, divisions = interreductions(monkeypatch, gens, order)
        assert divisions == 3
        assert gb == reference_buchberger(gens, order)

    def test_bracket_power_basis_needs_no_interreduction(self, monkeypatch):
        # the lift of m^[169] on the Fermat cubic over F_13: 88 elements, of
        # colength (9 * 169^2 - 5) / 4 (Monsky), and no tail to interreduce
        R = PolyRing(13, ["x", "y", "z"])
        gens = [R.parse(t) for t in ("x^169", "y^169", "z^169", "x^3+y^3+z^3")]
        gb, divisions = interreductions(monkeypatch, gens)
        assert divisions == 0
        assert len(gb) == 88
        assert colength(gb, 3) == 64261


# ---------------------------------------------------------------------------
# The packed colon kernels against the dict kernels, degree by degree.

def reference_normal_form_table(reducers, standard: set, nvars: int, e: int, p: int) -> dict:
    """Normal form, as {standard monomial: coefficient}, of every degree-e monomial.

    ``reducers`` holds (lead, tail terms) of a homogeneous monic Groebner
    basis.  A non-standard m = x^c * lead(g) has NF(m) = -sum c_t NF(x^c * t)
    over g's tail terms t, each smaller than m in grevlex.
    """
    table = {}
    for m in monomials_of_degree(nvars, e):
        if m in standard:
            table[m] = {m: 1}
            continue
        lm, tail = next((lm, tail) for lm, tail in reducers if mono_divides(lm, m))
        shift = mono_div(m, lm)
        acc: dict = {}
        for t, c in tail:
            for s, v in table[mono_mul(t, shift)].items():
                acc[s] = acc.get(s, 0) + c * v
        table[m] = {s: -v % p for s, v in acc.items() if v % p}
    return table


def reference_axpy(y: dict, a: int, x: dict, p: int):
    """y += a * x over F_p, in place, dropping zeros."""
    for k, w in x.items():
        s = (y.get(k, 0) + a * w) % p
        if s:
            y[k] = s
        else:
            y.pop(k, None)


def reference_narrow_kernel(kernel, columns: list, image, p: int) -> list:
    """Basis of {v in span(kernel) : sum of v_u * image(u) over u is 0}.

    Vectors are {column: coefficient} dicts; ``kernel`` None stands for the
    unit vectors of ``columns``, and ``image`` maps a column to a dict over
    F_p.  Sparse Gaussian elimination on the images tracks the row
    combinations; those whose image vanishes span the kernel, in reduced
    row echelon form over the order of ``columns`` when ``kernel`` is.
    """
    if kernel is None:
        kernel = [{u: 1} for u in columns]
    images = {u: image(u) for u in {u for v in kernel for u in v}}
    pivots = []  # (pivot key, image with coefficient 1 there, combination)
    narrowed = []
    for vec in kernel:
        image_of_vec: dict = {}
        for u, c in vec.items():
            reference_axpy(image_of_vec, c, images[u], p)
        combo = dict(vec)
        for key, prow, pcombo in pivots:
            f = image_of_vec.get(key)
            if f:
                reference_axpy(image_of_vec, -f, prow, p)
                reference_axpy(combo, -f, pcombo, p)
        if not image_of_vec:
            narrowed.append(combo)
            continue
        key, lead = next(iter(image_of_vec.items()))
        inv = pow(lead, p - 2, p)
        pivots.append((key, {k: w * inv % p for k, w in image_of_vec.items()},
                       {k: w * inv % p for k, w in combo.items()}))
    return narrowed


def reference_image(divisors, q: int, table: dict, p: int):
    """u -> (NF(u^q * b))_b as a dict keyed (divisor index, standard monomial)."""
    def image(u):
        uq = tuple(e * q for e in u)
        acc: dict = {}
        for j, b in enumerate(divisors):
            for t, c in b.terms.items():
                for s, v in table[mono_mul(uq, t)].items():
                    acc[j, s] = acc.get((j, s), 0) + c * v
        return {k: v % p for k, v in acc.items() if v % p}
    return image


def reference_basis(gb, standard: dict, kernels: dict, ring) -> list:
    """Reduced grevlex GB of A + V from A's reduced GB ``gb`` and dict
    kernels: each minimal generator m of leads(A) + pivots(V) gives
    m - NF(m), NF(m) reduced by the RREF rows of V; a degree absent from
    ``kernels`` lies wholly in V."""
    p = ring.field.p
    rows = {}  # pivot -> RREF row
    for d, monomials in standard.items():
        for v in kernels.get(d, [{u: 1} for u in monomials]):
            rows[max(v, key=order_key(GREVLEX))] = v
    standard_set = {u for monomials in standard.values() for u in monomials}
    tails = {g.leading_monomial(GREVLEX): {t: -c % p for t, c in g.terms.items()
                                          if t != g.leading_monomial(GREVLEX)}
             for g in gb}

    def in_lead_ideal(m):
        return m in rows or m not in standard_set

    out = []
    for m in list(tails) + list(rows):
        if any(e and in_lead_ideal(m[:i] + (e - 1,) + m[i + 1:]) for i, e in enumerate(m)):
            continue
        nf = dict(tails[m]) if m in tails else {m: 1}
        for t in [t for t in nf if t in rows]:
            if nf.get(t):
                reference_axpy(nf, -nf[t], rows[t], p)
        out.append(ring.from_terms([(m, 1)] + [(t, -c) for t, c in nf.items()]))
    return sorted(out, key=lambda g: order_key(GREVLEX)(g.leading_monomial(GREVLEX)))


def _bracket_case(p, names, dividend, divisors, q, relation=None):
    """(ring, A, B) over F_p: A and B are the q-th bracket powers of the
    given generators, and A also holds ``relation`` if one is given."""
    ring = PolyRing(p, names)
    gens = [ring.parse(g) ** q for g in dividend]
    if relation is not None:
        gens.append(ring.parse(relation))
    return ring, gens, [ring.parse(b) ** q for b in divisors]


_PRIMES = (2, 3, 5, 7, 101)


@st.composite
def packed_colons(draw):
    """(ring, A, B) over F_p, p in ``_PRIMES``: A is the q-th bracket power
    of 1-2 forms per variable (plus pure powers or not), q a power of p up
    to 8, of finite colength at most 1500; B is 1-3 forms of degree 0-3,
    some raised to the q-th power too."""
    p = draw(st.sampled_from(_PRIMES))
    nvars = draw(st.integers(1, 4 if p == 2 else 3))
    ring = PolyRing(p, [f"x{i}" for i in range(nvars)])
    q = draw(st.sampled_from([p ** k for k in range(4) if p ** k <= 8]))

    def form(lo, hi):
        degree = draw(st.integers(lo, hi))
        monos = [m for m in itertools.product(range(degree + 1), repeat=nvars)
                 if sum(m) == degree]
        cs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
        return Polynomial(ring, {m: c for m, c in zip(monos, cs) if c})

    gens = [form(1, 2) for _ in range(nvars + draw(st.integers(0, 1)))]
    if draw(st.booleans()):
        gens += [ring.var(i) ** draw(st.integers(1, 3)) for i in range(nvars)]
    gens = [g ** q for g in gens if not g.is_zero()]
    assume(gens and colength(buchberger(gens), nvars) <= 1500)
    divisors = [form(0, 3) ** draw(st.sampled_from([1, q]))
                for _ in range(draw(st.integers(1, 3)))]
    return ring, gens, divisors


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_PRIMES[1:]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p * (p - 1)), max_size=40))))
@example((3, [6, 6, 6]))
@example((101, [101 * 100, 0, 100, 101, 5050]))
def test_normaliser_reduces_every_field(case):
    # fields of y + c * x hold at most p(p - 1); the normaliser leaves each
    # one mod p without disturbing its neighbours
    p, values = case
    b = _width(p)
    assert p * (p - 1) < 1 << b - 1
    normal = _normaliser(p, len(values))
    z = sum(v << i * b for i, v in enumerate(values))
    assert normal(z) == sum(v % p << i * b for i, v in enumerate(values))


class TestPackedKernels:
    """``_Quotient`` computes on packed rows what the dict kernels compute,
    degree by degree, at p = 2, 3, 5, 7 and 101: the same normal-form
    tables, the same narrowed kernels, vector for vector, as both are the
    unique reduced row echelon basis of the kernel, in ascending order of
    pivots, and the same basis.  The kernels are narrowed by the images
    u -> (NF(u^q * b))_b of ``frobenius_colon`` at q = 1, p, p^2, p^3, for
    the drawn divisors and for B = (1)."""

    @settings(max_examples=200, deadline=None)
    @given(packed_colons())
    # the lift of (x^2, y^2)^[8] : m^[8] on fermat2, top standard degree 32
    @example(_bracket_case(2, ["x", "y", "z"], ["x^2", "y^2"], ["x", "y", "z"], 8,
                           relation="x^3+y^3+z^3"))
    @example(_bracket_case(2, ["x", "y", "z"], ["x", "y", "z^2"],
                           ["x*y+z^2", "z", "x+y"], 8))          # top 29
    @example(_bracket_case(2, ["x", "y"], ["x^2+x*y", "y^2"], ["x+y", "y"], 16))  # top 62
    @example(_bracket_case(2, ["x", "y"], ["x^2", "x*y", "y^2"], ["x", "y"], 1))  # top 1
    # the lift of (x^2, y^2)^[3] : m^[3] on the Fermat quartic at p = 3
    @example(_bracket_case(3, ["x", "y", "z"], ["x^2", "y^2"], ["x", "y", "z"], 3,
                           relation="x^4+y^4+z^4"))
    @example(_bracket_case(5, ["x", "y"], ["x^2+2*x*y", "y^3"], ["3*x+y", "y^2"], 5))
    @example(_bracket_case(101, ["x", "y", "z"], ["x^3+50*y^3", "y^2-z^2", "z^4"],
                           ["x+100*y", "y*z"], 1))
    def test_against_dict_kernels(self, case):
        ring, gens, divisors = case
        p = ring.field.p
        gb = buchberger(gens)
        quotient = zero_dimensional_quotient(gb, ring)
        exponents = _exponents(ring.nvars)
        reducers = [(g.leading_monomial(GREVLEX), [t for t in g.terms.items()
                                                   if t[0] != g.leading_monomial(GREVLEX)])
                    for g in gb]
        standard = {d: list(map(exponents, keys)) for d, keys in quotient.standard.items()}
        tables = {}

        def unpack(d, vec):
            return {standard[d][i]: c for i, c in _fields(vec, _width(p))}

        def tables_at(e):
            if e not in tables:
                table = reference_normal_form_table(
                    reducers, set(standard[e]), ring.nvars, e, p)
                ptable = quotient.table(e)
                assert len(ptable) == len(table)
                assert {m: unpack(e, ptable[packed_key(m, GREVLEX)]) for m in table} == table
                tables[e] = table, ptable
            return tables[e]

        def pack(d, vec):
            index = {m: i for i, m in enumerate(standard[d])}
            return sum(c << index[m] * _width(p) for m, c in vec.items())

        # every table first, so that a wrong table fails before a narrowing
        # runs on it
        for e in range(quotient.top + 1):
            tables_at(e)
        for q in (1, p, p ** 2, p ** 3):
            for divs in (divisors, [ring.one()]):
                by_degree = {}
                for b in divs:
                    if not b.is_zero() and b.degree() <= quotient.top:
                        by_degree.setdefault(b.degree(), []).append(b)
                kernels, pkernels = {}, {}
                for e in range(quotient.top + 1):
                    for delta in sorted(by_degree):
                        d, r = divmod(e - delta, q)
                        if d < 0 or r or kernels.get(d) == []:
                            continue
                        table, ptable = tables_at(e)
                        bs = by_degree[delta]
                        kernels[d] = reference_narrow_kernel(
                            kernels.get(d), standard[d],
                            reference_image(bs, q, table, p), p)
                        pkernels[d] = quotient.narrow(
                            pkernels.get(d), d,
                            quotient.image([_to_keys(b, GREVLEX) for b in bs], q, e, ptable))
                        assert [unpack(d, v) for v in pkernels[d]] == kernels[d]
                        assert pkernels[d] == [pack(d, v) for v in kernels[d]]
                assert quotient.basis(pkernels) == reference_basis(
                    gb, standard, kernels, ring)


@st.composite
def border_cases(draw):
    """(ring, reduced grevlex GB) of a homogeneous ideal of finite colength
    at most 400 over F_p, p in {2, 3, 5, 7}, in 1-3 variables: 1-2 forms
    per variable of degree 1-3, with or without pure powers of degree 1-4."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(p, [f"x{i}" for i in range(nvars)])

    def form():
        monos = monomials_of_degree(nvars, draw(st.integers(1, 3)))
        cs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
        return ring.from_terms(zip(monos, cs))

    gens = [form() for _ in range(nvars + draw(st.integers(0, 1)))]
    if draw(st.booleans()):
        gens += [ring.var(i) ** draw(st.integers(1, 4)) for i in range(nvars)]
    gb = buchberger([g for g in gens if not g.is_zero()])
    assume(gb and colength(gb, nvars) <= 400)
    return ring, gb


class TestBorderTables:
    """``_Quotient.borders`` against ``normal_form``: the table of degree e
    holds NF(m) for exactly the standard and the border monomials m of
    degree e, those whose quotient by some variable is standard."""

    @settings(max_examples=200, deadline=None)
    @given(border_cases())
    # (x^2, y^2): x^2 * y is a border monomial but no lead, so its row is
    # y * NF(x^2) from the table one degree lower
    @example((PolyRing(3, ["x", "y"]), buchberger([PolyRing(3, ["x", "y"]).parse("x^2"),
                                                   PolyRing(3, ["x", "y"]).parse("y^2")])))
    @example((PolyRing(7, ["x", "y", "z"]), buchberger([
        PolyRing(7, ["x", "y", "z"]).parse(g) for g in ("x^2+3*y*z", "y^2-x*z", "z^3")])))
    def test_against_normal_form(self, case):
        ring, gb = case
        n, p = ring.nvars, ring.field.p
        exponents = _exponents(n)
        quotient = zero_dimensional_quotient(gb, ring)
        standard = {d: [exponents(k) for k in keys] for d, keys in quotient.standard.items()}
        tables = list(quotient.borders())
        assert len(tables) == max(quotient.top, 0)
        for e, (table, _) in enumerate(tables, 1):
            below = set(standard[e - 1])
            expected = {m for m in monomials_of_degree(n, e)
                        if any(m[i] and m[:i] + (m[i] - 1,) + m[i + 1:] in below
                               for i in range(n))}
            assert set(standard[e]) <= expected
            assert {exponents(k) for k in table} == expected
            for k, row in table.items():
                nf = Polynomial(ring, {standard[e][i]: c for i, c in _fields(row, _width(p))})
                assert nf == normal_form(ring.monomial(exponents(k)), gb)
