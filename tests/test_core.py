import re
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from charp.core import (
    GREVLEX,
    MAX_EXPONENT,
    AlgebraError,
    ExponentOverflow,
    MonomialOrder,
    PolyRing,
    Polynomial,
    PolynomialSyntaxError,
    PrimeField,
    UnknownVariableError,
    format_polynomial,
    mono_mul,
    parse_polynomial,
)
from oracle import order_key

R2 = PolyRing(2, ["x", "y", "z"])
R5 = PolyRing(5, ["x", "y"])


def poly_strategy(ring, max_deg=4, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(ring.nvars)])
    term = st.tuples(exps, st.integers(1, ring.field.p - 1))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: ring.from_terms(ts))


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(AlgebraError):
            PrimeField(6)

    def test_rejects_one_and_zero(self):
        for bad in (0, 1, -7):
            with pytest.raises(AlgebraError):
                PrimeField(bad)

    def test_rejects_large(self):
        with pytest.raises(AlgebraError):
            PrimeField(65537)

    def test_max_allowed(self):
        assert PrimeField(65521).p == 65521

    @given(st.integers(1, 4))
    def test_inverse(self, a):
        f = PrimeField(5)
        assert (f.inv(a) * a) % 5 == 1


def packed_key(m: tuple, order=GREVLEX) -> int:
    return sum(map(mul, m, order.units(len(m))))


def rank(order):
    """The packed key of ``order``, negated: a larger rank is a larger monomial."""
    return lambda m: -packed_key(m, order)


def guard_divides(a: tuple, b: tuple) -> bool:
    """Whether a divides b, by the guard test on their packed keys."""
    guard = sum(1 << 32 * i + 31 for i in range(len(a)))
    return ((packed_key(b) | guard) - packed_key(a)) & guard == guard


class TestMonomials:
    def test_mul_div(self):
        # monomials multiply as their packed keys add
        a, b = (1, 2, 0), (0, 1, 3)
        assert mono_mul(a, b) == (1, 3, 3)
        assert packed_key(mono_mul(a, b)) - packed_key(b) == packed_key(a)
        assert guard_divides(b, mono_mul(a, b))
        assert not guard_divides((2, 0, 0), (1, 5, 5))

    def test_div_underflow(self):
        # dividing x by x^2 would borrow from the next field; the guard bit
        # of the exponent of x catches it
        assert not guard_divides((2, 0, 0), (1, 0, 0))
        assert guard_divides((1, 0, 0), (2, 0, 0))


class TestMonomialOrder:
    @given(st.tuples(st.integers(0, 5), st.integers(0, 5)),
           st.tuples(st.integers(0, 5), st.integers(0, 5)),
           st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_multiplicative(self, u, v, w):
        for order in (MonomialOrder.lex(), MonomialOrder.grevlex(),
                      MonomialOrder.block(1)):
            key = rank(order)
            if key(u) < key(v):
                assert key(mono_mul(u, w)) < key(mono_mul(v, w))

    @given(st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_one_minimal(self, u):
        for order in (MonomialOrder.lex(), MonomialOrder.grevlex()):
            if u != (0, 0):
                assert rank(order)((0, 0)) < rank(order)(u)

    def test_grevlex_classic(self):
        # x^2 y z > x y^3 in grevlex? deg 4 vs 4; compare reversed negatives
        k = rank(GREVLEX)
        assert k((1, 1, 1)) < k((3, 0, 0)) or k((3, 0, 0)) < k((1, 1, 1))
        # x > y > z
        assert k((1, 0, 0)) > k((0, 1, 0)) > k((0, 0, 1))

    def test_block_eliminates_first_variables(self):
        order = MonomialOrder.block(1)
        # any monomial containing the first variable beats any that does not
        assert rank(order)((1, 0, 0)) > rank(order)((0, 5, 5))


    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                    max_size=12))
    def test_descending_key_reverses_key(self, monos):
        for order in (MonomialOrder.lex(), GREVLEX, MonomialOrder.block(1),
                      MonomialOrder.block(2)):
            assert (sorted(monos, key=lambda m: packed_key(m, order))
                    == sorted(monos, key=order_key(order))[::-1])

    def test_lead_cache_follows_order(self):
        # leads y^4, x*y^2, x*z^3, y^4: each order picks a different term
        f = R2.parse("x*z^3+x*y^2+y^4+z^2+y")
        for order in (GREVLEX, MonomialOrder.lex(), MonomialOrder.block(1), GREVLEX):
            assert f.leading_monomial(order) == max(f.terms, key=order_key(order))
            assert f.leading_coefficient(order) == f.terms[max(f.terms, key=order_key(order))]

    @pytest.mark.parametrize("nelim", [-1, 1.0, "1", None, True])
    def test_block_size_must_be_a_natural_number(self, nelim):
        # block(-1) once packed 4 units for 3 variables, so its lead of
        # x^2+x*y+z^3 was z^3 where the tuple order gave x^2
        with pytest.raises(AlgebraError, match="block size"):
            MonomialOrder.block(nelim)
        with pytest.raises(AlgebraError, match="block size"):
            MonomialOrder("lex", nelim)

    def test_block_of_every_size(self):
        f = R2.parse("x^2+x*y+z^3")
        assert [f.leading_monomial(MonomialOrder.block(k)) for k in range(5)] == [
            (0, 0, 3), (2, 0, 0), (2, 0, 0), (2, 0, 0), (2, 0, 0)]
        assert all(len(MonomialOrder.block(k).units(3)) == 3 for k in range(5))


_FULL_EXPONENT = st.integers(0, MAX_EXPONENT) | st.sampled_from([MAX_EXPONENT - 1, MAX_EXPONENT])


@st.composite
def ordered_polynomials(draw):
    """(order, polynomial): lex, grevlex or block(k), k = 0..n, and up to 8
    terms in 0-4 variables with exponents anywhere in [0, 2^31 - 1]."""
    n = draw(st.integers(0, 4))
    ring = PolyRing(7, [f"x{i}" for i in range(n)])
    order = draw(st.sampled_from([MonomialOrder.lex(), GREVLEX]
                                 + [MonomialOrder.block(k) for k in range(n + 1)]))
    terms = draw(st.lists(st.tuples(st.tuples(*[_FULL_EXPONENT] * n), st.integers(1, 6)),
                          min_size=1, max_size=8))
    return order, ring.from_terms(terms)


class TestPackedOrderAgainstTupleReference:
    """Leads and the canonical term order come from packed keys; they agree
    with the tuple reference of every order at every exponent."""

    @settings(max_examples=300, deadline=None)
    @given(ordered_polynomials())
    @example((MonomialOrder.block(0), R2.parse("x^2+x*y+z^3")))
    @example((GREVLEX, R2.monomial((MAX_EXPONENT, 0, 0)) + R2.monomial((0, 0, MAX_EXPONENT))
              + R2.monomial((0, MAX_EXPONENT, 0))))
    def test_lead_and_canonical_terms(self, case):
        order, f = case
        key = order_key(order)
        if f.terms:
            assert f.leading_monomial(order) == max(f.terms, key=key)
        assert f.canonical_terms() == tuple(
            sorted(f.terms.items(), key=lambda t: order_key(GREVLEX)(t[0]), reverse=True))


class TestPolynomialArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(R5), poly_strategy(R5), poly_strategy(R5))
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + R5.zero() == a
        assert a * R5.one() == a
        assert a - a == R5.zero()

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(R5, max_deg=3), poly_strategy(R5, max_deg=3))
    def test_frobenius_is_additive(self, a, b):
        p = R5.field.p
        assert (a + b) ** p == a ** p + b ** p

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(R5, max_deg=3))
    def test_p_power_termwise(self, f):
        p = R5.field.p
        expect = Polynomial(
            R5, {tuple(e * p for e in m): c for m, c in f.terms.items()})
        assert f ** p == expect

    def test_derivative_product_rule(self):
        f, g = R5.parse("x^2+y"), R5.parse("x*y+3")
        for i in range(2):
            assert (f * g).derivative(i) == \
                f.derivative(i) * g + f * g.derivative(i)

    def test_pow_zero_one(self):
        f = R5.parse("x+y")
        assert f ** 0 == R5.one()
        assert f ** 1 == f

    def test_exponent_overflow(self):
        with pytest.raises(ExponentOverflow):
            R5.parse("x^9999999999")


def tuple_product(f: Polynomial, g: Polynomial) -> dict:
    """f * g term by term on exponent tuples, raising ``ExponentOverflow``
    at every product monomial past 2^31 - 1, the ones whose coefficients
    cancel included."""
    p, out = f.ring.field.p, {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            if any(e > MAX_EXPONENT for e in m):
                raise ExponentOverflow(f"{m1} * {m2}")
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


@st.composite
def product_cases(draw):
    """Two polynomials in 0-4 variables over F_2, F_3 or F_7 whose exponents
    lie near 0, 2^30 or 2^31 - 1, so that some products overflow."""
    nvars = draw(st.integers(0, 4))
    ring = PolyRing(draw(st.sampled_from([2, 3, 7])), [f"x{i}" for i in range(nvars)])
    exponent = st.one_of(st.integers(0, 3), st.integers(2**30 - 2, 2**30 + 1),
                         st.integers(MAX_EXPONENT - 3, MAX_EXPONENT))
    term = st.tuples(st.tuples(*[exponent] * nvars), st.integers(1, ring.field.p - 1))
    return [ring.from_terms(draw(st.lists(term, max_size=5))) for _ in range(2)]


class TestProductNearExponentBound:
    @settings(max_examples=400, deadline=None)
    @given(product_cases())
    @example([R5.parse("x^2+3*y"), R5.parse("x*y+4")])
    def test_against_tuple_product(self, case):
        f, g = case
        try:
            expected = tuple_product(f, g)
        except ExponentOverflow:
            with pytest.raises(ExponentOverflow):
                f * g
        else:
            assert (f * g).terms == expected

    def test_overflow_raised_where_it_cancels(self):
        # (x^M + x^(M-1) y)(x y - x^2) over F_5: x^(M+1) y overflows, comes
        # out of two pairs and cancels; the check reads it all the same
        M = MAX_EXPONENT
        g = Polynomial(R5, {(1, 1): 1, (2, 0): 4})
        f = Polynomial(R5, {(M, 0): 1, (M - 1, 1): 1})
        for product in (tuple_product, mul):
            with pytest.raises(ExponentOverflow):
                product(f, g)
        # two steps inside the envelope, x^(M-1) y cancels and nothing overflows
        f = Polynomial(R5, {(M - 2, 0): 1, (M - 3, 1): 1})
        assert (f * g).terms == tuple_product(f, g) == {(M, 0): 4, (M - 2, 2): 1}


class TestParseFormat:
    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(R5))
    def test_roundtrip(self, f):
        assert parse_polynomial(format_polynomial(f), R5) == f

    def test_basic_forms(self):
        assert R2.parse("x^2 + 2*x*y + y^2") == R2.parse("x^2+y^2")
        assert R5.parse("7") == R5.const(2)
        assert R5.parse("3x") == R5.parse("3*x")
        assert R2.parse("x - y") == R2.parse("x+y")

    def test_zero_formats_as_zero(self):
        assert format_polynomial(R2.zero()) == "0"
        assert R2.parse("0").is_zero()

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            R5.parse("x+w")

    def test_syntax_error_has_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            R5.parse("x++y")
        assert isinstance(err.value.position, int)

    @pytest.mark.parametrize("text, position", [
        ("1" * 4301 + "*x", 0), ("x + y^" + "1" * 4301, 6), ("x^2 + " + "2" * 4301, 6)],
        ids=["coefficient", "exponent", "constant"])
    def test_over_long_digit_string_is_positioned(self, text, position):
        # past int's default max-str-digits limit of 4,300
        with pytest.raises(PolynomialSyntaxError, match="4301 digits") as err:
            R5.parse(text)
        assert err.value.position == position

    def test_rejects_garbage(self):
        for bad in ("", "x^", "^2", "x**2", "(x+y)"):
            with pytest.raises(AlgebraError):
                R5.parse(bad)


class TestParserErrorContract:
    """Arbitrary text either parses, and then round-trips through
    ``format_polynomial``, or raises an ``AlgebraError``; nothing else escapes."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(max_size=30),
                     st.text(alphabet="xyzw0123456789+-*^ ()._\t", max_size=30)))
    def test_only_algebra_errors_escape(self, text):
        try:
            f = parse_polynomial(text, R5)
        except AlgebraError:
            return
        assert parse_polynomial(format_polynomial(f), R5) == f


# The parser as it was before the single-scan rewrite: a tokenizer that
# matches one token at a time, then a loop over the token list.  It is the
# reference for the differential test below.
_REF_TOKEN = re.compile(
    r"\s*(?:(?P<nat>\d+)|(?P<var>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op>[-+*^()]))"
)


def reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolynomialSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "nat":
            tokens.append(("nat", int(m.group("nat")), m.start("nat")))
        elif m.lastgroup == "var":
            tokens.append(("var", m.group("var"), m.start("var")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def reference_parse(text, pring):
    tokens = reference_tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial", 0)
    n = pring.nvars
    p = pring.field.p
    i = 0

    def parse_term(sign):
        nonlocal i
        coeff = sign
        exps = [0] * n
        saw_factor = False
        expect_factor = True  # a factor must follow a '*'
        while i < len(tokens):
            kind, val, pos = tokens[i]
            if kind == "nat":
                coeff = (coeff * val) % p
                saw_factor = True
                expect_factor = False
                i += 1
            elif kind == "var":
                if val not in pring.variables:
                    raise UnknownVariableError(f"unknown variable {val!r} at position {pos}")
                idx = pring.variables.index(val)
                e = 1
                i += 1
                if i < len(tokens) and tokens[i][:2] == ("op", "^"):
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "nat":
                        raise PolynomialSyntaxError("expected exponent after '^'",
                                                    tokens[i - 1][2])
                    e = tokens[i][1]
                    if e > MAX_EXPONENT:
                        raise ExponentOverflow(f"exponent {e} too large")
                    i += 1
                exps[idx] += e
                if exps[idx] > MAX_EXPONENT:
                    raise ExponentOverflow("exponent overflow in term")
                saw_factor = True
                expect_factor = False
            elif kind == "op" and val == "*":
                if expect_factor:
                    raise PolynomialSyntaxError("unexpected '*'", pos)
                expect_factor = True
                i += 1
            else:
                break
        if not saw_factor:
            pos = tokens[i][2] if i < len(tokens) else len(text)
            raise PolynomialSyntaxError("expected a term", pos)
        if expect_factor:
            raise PolynomialSyntaxError("dangling '*'", tokens[i - 1][2])
        return tuple(exps), coeff % p

    terms = []
    sign = 1
    if tokens[0][:2] == ("op", "-"):
        sign = p - 1
        i = 1
    elif tokens[0][:2] == ("op", "+"):
        i = 1
    terms.append(parse_term(sign))
    while i < len(tokens):
        kind, val, pos = tokens[i]
        if kind != "op" or val not in "+-":
            raise PolynomialSyntaxError(f"expected '+' or '-', got {val!r}", pos)
        i += 1
        terms.append(parse_term(1 if val == "+" else p - 1))
    return pring.from_terms(terms)


def _outcome(parse, text, ring):
    """The parsed terms, or the class, message and position of the error."""
    try:
        return ("ok", parse(text, ring).terms)
    except AlgebraError as exc:
        return (type(exc), str(exc), getattr(exc, "position", None))


# Pieces of a random text: variables of R4 and two that are not (w; _ is no
# name), digits (an Arabic-Indic three among them, which \d matches), an
# exponent past the envelope, every operator, a stray character and spaces.
_PIECES = ["x", "y", "z", "w", "x1", "_", "\u0663", "0", "2", "13", "99999999999",
           "+", "-", "*", "^", "(", ")", "!", "\t", " ", "  "]
R4 = PolyRing(5, ["x", "y", "z", "x1"])


class TestParserAgainstReference:
    """The single-scan parser accepts what the token-list parser accepted,
    with the same polynomial, and rejects the rest with the same error class,
    message and position: a stray character anywhere still wins over a
    parse error that comes before it.  That holds however much of the text
    the ring's term memo already holds: on the first read, on a second
    read of the same text, and after a text made of the same terms."""

    @settings(max_examples=1500, deadline=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=14).map("".join))
    @example("x ^ 2 * 13y - 2x1^13 + 4")
    @example("x+y ! 2")
    @example("x^^3")
    @example("x^3^2")
    @example("x ^ !")
    @example("  x  +  ")
    @example("w^99999999999")
    @example("x^99999999999")
    def test_same_outcome(self, text):
        expected = _outcome(reference_parse, text, R4)
        ring = PolyRing(5, R4.variables)
        assert _outcome(parse_polynomial, text, ring) == expected
        assert _outcome(parse_polynomial, text, ring) == expected
        primed = PolyRing(5, R4.variables)
        _outcome(parse_polynomial, "-".join(reversed(re.split("[-+]", text))), primed)
        assert _outcome(parse_polynomial, text, primed) == expected
        assert _outcome(parse_polynomial, text, R4) == expected

    def test_memo_is_per_ring(self):
        # the same term texts: 13x1 names a variable of F_5[x,y,z,x1] only,
        # and -13 is 2 mod 5 but 1 mod 7
        r5, r7 = PolyRing(5, ["x", "y", "z", "x1"]), PolyRing(7, ["x", "y", "z"])
        for ring in (r7, r5, r7, r5):
            for text in ("13x1-13x^2", "-13x^2"):
                assert _outcome(parse_polynomial, text, ring) == \
                    _outcome(reference_parse, text, ring)
        assert r5.parse("13x1-13x^2") == r5.monomial((0, 0, 0, 1), 3) + r5.monomial((2, 0, 0, 0), 2)
        assert r7.parse("-13x^2") == r7.monomial((2, 0, 0), 1)
        with pytest.raises(UnknownVariableError, match="'x1' at position 2"):
            r7.parse("13x1-13x^2")

    @pytest.mark.parametrize("text", ["x+y+", "x+-y", "x+y-", "-+x", "x+y^", "x+y)", "x+y*"])
    def test_malformed_text_of_known_terms(self, text):
        ring = PolyRing(5, R4.variables)
        ring.parse("x+y")
        expected = _outcome(reference_parse, text, R4)
        assert expected[0] != "ok"
        assert _outcome(parse_polynomial, text, ring) == expected


class TestPolyRing:
    def test_ring_mismatch(self):
        from charp.core import RingMismatch
        other = PolyRing(5, ["x", "y", "z"])
        with pytest.raises(RingMismatch):
            R5.parse("x") + other.parse("x")

    def test_duplicate_variables_rejected(self):
        with pytest.raises(AlgebraError):
            PolyRing(5, ["x", "x"])

    def test_var_lookup(self):
        assert R5.var("y") == R5.var(1)
        with pytest.raises(UnknownVariableError):
            R5.var("q")
