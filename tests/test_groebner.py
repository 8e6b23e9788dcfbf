import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from charp.core import (
    GREVLEX,
    MAX_EXPONENT,
    ExponentOverflow,
    MonomialOrder,
    PolyRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_mul,
)
from charp.groebner import (
    INFINITE,
    _PackedF2,
    _Quotient,
    _monomials_of_degree,
    _reducer,
    _s_polynomial,
    _staircase,
    _staircase_monomials,
    buchberger,
    colength,
    divide_exact,
    eliminate,
    normal_form,
)
from oracle import oracle_member, poly_to_dict, random_homogeneous_dict


def is_groebner(basis, order=GREVLEX) -> bool:
    """Every S-polynomial reduces to zero: Buchberger's criterion."""
    return all(normal_form(_s_polynomial(f, g, order), basis, order).is_zero()
               for f, g in itertools.combinations(basis, 2))


def standard_monomials(gb, nvars):
    """The monomials outside the lead-term ideal, ascending: [] for the unit
    ideal, None when the colength is infinite."""
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return []
    staircase = _staircase(gb, nvars)
    return None if staircase is None else _staircase_monomials(staircase)


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
        gb = buchberger([R.parse("x^2+y"), R.parse("x*y+x")], ring=R)
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
        gb = buchberger([R.parse("x+1"), R.parse("x")], ring=R)
        assert gb == [R.one()]

    def test_zero_ideal(self):
        R = PolyRing(3, ["x"])
        assert buchberger([R.zero()], ring=R) == []

    def test_canonical_under_shuffles_and_scaling(self):
        R = PolyRing(5, ["x", "y", "z"])
        gens = [R.parse("x^2+y*z"), R.parse("y^2+x*z"), R.parse("z^2+x*y")]
        base = buchberger(gens, ring=R)
        rng = random.Random(11)
        for _ in range(6):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            scaled = [g.scale(rng.randrange(1, 5)) for g in shuffled]
            assert buchberger(scaled, ring=R) == base

    def test_membership_agrees_with_oracle_randomized(self):
        rng = random.Random(202)
        for p in (2, 3):
            for n in (2, 3):
                ring = PolyRing(p, ["x", "y", "z"][:n])
                for _ in range(5):
                    gens = random_ideal(ring, rng)
                    gb = buchberger(gens, ring=ring)
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
        gb1 = buchberger(gens, order=lex, ring=R)
        gb2 = buchberger(list(reversed(gens)), order=lex, ring=R)
        assert gb1 == gb2 and is_groebner(gb1, lex)


class TestNormalForm:
    def test_linearity(self):
        R = PolyRing(5, ["x", "y"])
        gb = buchberger([R.parse("x^2+y"), R.parse("y^3")], ring=R)
        f, g = R.parse("x^4+x*y"), R.parse("x^2*y^2+3")
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)

    def test_idempotent(self):
        R = PolyRing(5, ["x", "y"])
        gb = buchberger([R.parse("x^2+y")], ring=R)
        r = normal_form(R.parse("x^3"), gb)
        assert normal_form(r, gb) == r


    def test_overflow_checked_per_reduction_step(self):
        R = PolyRing(5, ["x", "y"])
        lex = MonomialOrder.lex()
        basis = [R.var("x") + R.monomial((0, MAX_EXPONENT))]
        with pytest.raises(ExponentOverflow):
            normal_form(R.parse("x*y"), basis, lex)
        assert normal_form(R.var("x"), basis, lex) == -R.monomial((0, MAX_EXPONENT))

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
            lm = max(g.terms, key=order.key)
            lc_inv, tail, _ = _reducer(g, order)
            assert lc_inv * g.terms[lm] % 5 == 1
            assert dict(tail) == {m: c for m, c in g.terms.items() if m != lm}
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
    leads = [(max(g.terms, key=order.key), g) for g in basis]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=order.key)
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
    assert _monomials_of_degree(nvars, e) == []


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


class TestColength:
    def test_known_box(self):
        R = PolyRing(3, ["x", "y"])
        gb = buchberger([R.parse("x^2"), R.parse("y^3")], ring=R)
        assert colength(gb, 2) == 6
        assert len(standard_monomials(gb, 2)) == 6

    def test_infinite(self):
        R = PolyRing(3, ["x", "y"])
        gb = buchberger([R.parse("x")], ring=R)
        assert colength(gb, 2) == INFINITE

    def test_staircase_matches_standard_monomials(self):
        rng = random.Random(5)
        R = PolyRing(2, ["x", "y", "z"])
        gens = [R.parse("x^2+y*z"), R.parse("y^3"), R.parse("z^3+x*y*z")]
        gb = buchberger(gens, ring=R)
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


class TestEliminate:
    def test_twisted_cubic_relation(self):
        # x^2 = y, x^3 = z  =>  y^3 = z^2
        R = PolyRing(7, ["x", "y", "z"])
        gens = [R.parse("x^2-y"), R.parse("x^3-z")]
        out = eliminate(gens, [0], R)
        assert all(all(m[0] == 0 for m in g.terms) for g in out)
        target = buchberger(out, ring=R)
        assert normal_form(R.parse("y^3-z^2"), target).is_zero()

    def test_elimination_is_contraction(self):
        # everything eliminated stays inside the original ideal
        R = PolyRing(3, ["x", "y", "z"])
        gens = [R.parse("x*y+z^2"), R.parse("x+y+z")]
        out = eliminate(gens, [0], R)
        gb = buchberger(gens, ring=R)
        for g in out:
            assert normal_form(g, gb).is_zero()


class TestDivideExact:
    def test_roundtrip(self):
        R = PolyRing(5, ["x", "y"])
        f, g = R.parse("x^2+y"), R.parse("x*y+4")
        assert divide_exact(f * g, g) == f

    def test_nondivisible_returns_none(self):
        R = PolyRing(5, ["x", "y"])
        assert divide_exact(R.parse("x^2+y"), R.parse("x")) is None


# ---------------------------------------------------------------------------
# The packed F_2 colon kernels against the dict kernels, degree by degree.

def _f2_bracket_case(names, dividend, divisors, q, relation=None):
    """(ring, A, B) over F_2: A and B are the q-th bracket powers of the
    given generators, and A also holds ``relation`` if one is given."""
    ring = PolyRing(2, names)
    gens = [ring.parse(g) ** q for g in dividend]
    if relation is not None:
        gens.append(ring.parse(relation))
    return ring, gens, [ring.parse(b) ** q for b in divisors]


@st.composite
def f2_colons(draw):
    """(ring, A, B) over F_2: A is the q-th bracket power of 1-2 forms per
    variable (plus pure powers or not), of finite colength at most 1500;
    B is 1-3 forms of degree 0-3, some raised to the q-th power too."""
    nvars = draw(st.integers(1, 4))
    ring = PolyRing(2, [f"x{i}" for i in range(nvars)])
    q = draw(st.sampled_from([1, 2, 4, 8]))

    def form(lo, hi):
        degree = draw(st.integers(lo, hi))
        monos = [m for m in itertools.product(range(degree + 1), repeat=nvars)
                 if sum(m) == degree]
        keep = draw(st.lists(st.booleans(), min_size=len(monos), max_size=len(monos)))
        return Polynomial(ring, {m: 1 for m, k in zip(monos, keep) if k})

    gens = [form(1, 2) for _ in range(nvars + draw(st.integers(0, 1)))]
    if draw(st.booleans()):
        gens += [ring.var(i) ** draw(st.integers(1, 3)) for i in range(nvars)]
    gens = [g ** q for g in gens if not g.is_zero()]
    assume(gens and colength(buchberger(gens, ring=ring), nvars) <= 1500)
    divisors = [form(0, 3) ** draw(st.sampled_from([1, q]))
                for _ in range(draw(st.integers(1, 3)))]
    return ring, gens, divisors


class TestPackedF2Kernels:
    """``_PackedF2`` computes what the dict kernels compute, degree by degree:
    the same normal-form tables, the same narrowed kernels, vector for
    vector, as both are the unique reduced row echelon basis of the kernel,
    in ascending order of pivots, and the same basis.  The kernels are
    narrowed by the images u -> (NF(u^q * b))_b of ``frobenius_colon`` at
    q = 1, 2, 4, 8, for the drawn divisors and for B = (1)."""

    @settings(max_examples=60, deadline=None)
    @given(f2_colons())
    # the lift of (x^2, y^2)^[8] : m^[8] on fermat2, top standard degree 32
    @example(_f2_bracket_case(["x", "y", "z"], ["x^2", "y^2"], ["x", "y", "z"], 8,
                              relation="x^3+y^3+z^3"))
    @example(_f2_bracket_case(["x", "y", "z"], ["x", "y", "z^2"],
                              ["x*y+z^2", "z", "x+y"], 8))          # top 29
    @example(_f2_bracket_case(["x", "y"], ["x^2+x*y", "y^2"], ["x+y", "y"], 16))  # top 62
    @example(_f2_bracket_case(["x", "y"], ["x^2", "x*y", "y^2"], ["x", "y"], 1))  # top 1
    def test_against_dict_kernels(self, case):
        ring, gens, divisors = case
        gb = buchberger(gens, ring=ring)
        monomials = standard_monomials(gb, ring.nvars)
        plain, packed = _Quotient(gb, ring, monomials), _PackedF2(gb, ring, monomials)
        tables = {}

        def tables_at(e):
            if e not in tables:
                table, ptable = plain.table(e), packed.table(e)
                assert len(ptable) == len(table)
                assert {m: packed.unpack(e, ptable[packed.key(m)]) for m in table} == table
                tables[e] = table, ptable
            return tables[e]

        def pack(d, vec):
            assert set(vec.values()) <= {1}
            return sum(1 << packed.index[d][m] for m in vec)

        for q in (1, 2, 4, 8):
            for divs in (divisors, [ring.one()]):
                by_degree = {}
                for b in divs:
                    if not b.is_zero() and b.degree() <= plain.top:
                        by_degree.setdefault(b.degree(), []).append(b)
                kernels, pkernels = {}, {}
                for e in range(plain.top + 1):
                    for delta in sorted(by_degree):
                        d, r = divmod(e - delta, q)
                        if d < 0 or r or kernels.get(d) == []:
                            continue
                        table, ptable = tables_at(e)
                        bs = by_degree[delta]
                        kernels[d] = plain.narrow(
                            kernels.get(d), d,
                            plain.image([plain.divisor(b) for b in bs], q, e, table))
                        pkernels[d] = packed.narrow(
                            pkernels.get(d), d,
                            packed.image([packed.divisor(b) for b in bs], q, e, ptable))
                        assert [packed.unpack(d, v) for v in pkernels[d]] == kernels[d]
                        assert pkernels[d] == [pack(d, v) for v in kernels[d]]
                assert packed.basis(pkernels) == plain.basis(kernels)
