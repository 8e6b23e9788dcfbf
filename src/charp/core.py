"""Exact multivariate polynomial arithmetic over prime fields F_p.

Polynomials are immutable values: a ``terms`` dict mapping each monomial to
its nonzero coefficient in [0, p), plus a canonical grevlex-descending
tuple of (monomial, coefficient) pairs built lazily from it for hashing,
equality and printing.  Monomials are plain tuples of non-negative integer
exponents, one slot per ring variable.  All operations are pure functions;
values may be freely shared.

A monomial order is given by its packed keys alone (``MonomialOrder.units``):
k(m) = sum of m_i * units[i] is one int, a smaller key is a larger monomial,
and keys add as monomials multiply.  Leading terms, the canonical term order
and every division in ``groebner`` compare these keys.

``parse_polynomial`` splits a text at its signs and reads each term text
once per ring, with one ``findall`` scan, whose tokens are a number, a
variable with its optional exponent, an operator or any other non-space
character, and one loop over them.  Token positions are found again only
when an error is raised.
"""

from __future__ import annotations

import itertools
import re
from functools import cache, total_ordering
from operator import add, mul

MAX_PRIME = 65521
MAX_EXPONENT = 2**31 - 1


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatch(AlgebraError):
    """Operands belong to different rings."""


class UnknownVariableError(AlgebraError):
    """A parsed variable name is not declared in the ring."""


class PolynomialSyntaxError(AlgebraError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExponentOverflow(AlgebraError):
    """Exponent arithmetic left the 32-bit design envelope."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p for a prime p with 2 <= p <= 65521.

    Elements are canonical integer representatives in [0, p).
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p <= MAX_PRIME:
            raise AlgebraError(f"characteristic must be a prime in [2, {MAX_PRIME}], got {p!r}")
        if not is_prime(p):
            raise AlgebraError(f"characteristic {p} is not prime")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# Monomials: plain exponent tuples.

def mono_mul(a: tuple, b: tuple) -> tuple:
    out = tuple(map(add, a, b))
    if out and max(out) > MAX_EXPONENT:
        raise ExponentOverflow(f"exponent overflow in monomial product {a} * {b}")
    return out


def mono_deg(a: tuple) -> int:
    return sum(a)


def mono_pow(a: tuple, n: int) -> tuple:
    out = tuple(e * n for e in a)
    if any(e > MAX_EXPONENT for e in out):
        raise ExponentOverflow(f"exponent overflow in monomial power {a}^{n}")
    return out


class MonomialOrder:
    """A total multiplicative monomial order, given by packed keys.

    A smaller key is a larger monomial (``units``).  Kinds: lex, grevlex,
    and a two-block elimination order (first ``nelim`` variables lex,
    compared before the grevlex-ordered tail).
    """

    __slots__ = ("kind", "nelim")

    def __init__(self, kind: str, nelim: int = 0):
        if kind not in ("lex", "grevlex", "block"):
            raise AlgebraError(f"unknown monomial order {kind!r}")
        if type(nelim) is not int or nelim < 0:
            raise AlgebraError(f"block size must be an int >= 0, got {nelim!r}")
        self.kind = kind
        self.nelim = nelim

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def block(nelim: int) -> "MonomialOrder":
        return MonomialOrder("block", nelim)

    @cache
    def units(self, nvars: int) -> tuple:
        """units[i] = 2^(32i) - w_i * 2^(32 nvars), w the weights: all 1 for
        grevlex, 2^(64(nvars - 1 - i)) for lex, both for block(k), lex ones
        on its block.  The key sum m_i * units[i] is P(m) - W(m) * 2^(32 nvars),
        P the exponents in 32-bit fields, the last on top, and W the weight,
        so a smaller key is a larger monomial (``groebner``)."""
        if self.kind == "grevlex":
            weights = [1] * nvars
        elif self.kind == "lex":
            weights = [1 << 64 * (nvars - 1 - i) for i in range(nvars)]
        else:
            k = min(self.nelim, nvars)
            weights = [1 << 64 * (self.nelim - i) for i in range(k)] + [1] * (nvars - k)
        return tuple((1 << 32 * i) - (w << 32 * nvars) for i, w in enumerate(weights))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and other.kind == self.kind
            and other.nelim == self.nelim
        )

    def __hash__(self):
        return hash(("MonomialOrder", self.kind, self.nelim))

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder('block', {self.nelim})"
        return f"MonomialOrder({self.kind!r})"


GREVLEX = MonomialOrder.grevlex()


class PolyRing:
    """The polynomial ring F_p[x_1, ..., x_n] with named variables."""

    __slots__ = ("field", "variables", "_varindex", "_terms")

    def __init__(self, p, variables):
        self.field = p if isinstance(p, PrimeField) else PrimeField(p)
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise AlgebraError("duplicate variable names")
        for v in variables:
            if not re.fullmatch(r"[a-zA-Z][a-zA-Z0-9_]*", v):
                raise AlgebraError(f"bad variable name {v!r}")
        self.variables = variables
        self._varindex = {v: i for i, v in enumerate(variables)}
        self._terms = {}  # parse_polynomial's term memo

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"PolyRing(F_{self.field.p}[{', '.join(self.variables)}])"

    # -- element constructors ------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        c %= self.field.p
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name_or_index) -> "Polynomial":
        if isinstance(name_or_index, str):
            if name_or_index not in self._varindex:
                raise UnknownVariableError(f"unknown variable {name_or_index!r}")
            i = self._varindex[name_or_index]
        else:
            i = name_or_index
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def monomial(self, exps, coeff: int = 1) -> "Polynomial":
        c = coeff % self.field.p
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise AlgebraError("exponent vector arity mismatch")
        if c == 0:
            return self.zero()
        return Polynomial(self, {exps: c})

    def from_terms(self, terms) -> "Polynomial":
        acc: dict = {}
        p = self.field.p
        for exps, c in terms:
            c = (acc.get(exps, 0) + c) % p
            if c:
                acc[exps] = c
            else:
                acc.pop(exps, None)
        return Polynomial(self, acc)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)


@total_ordering
class Polynomial:
    """An element of a PolyRing, canonically stored.

    ``terms`` maps exponent tuples to nonzero coefficients in [0, p).
    The canonical (grevlex-descending) term tuple backs hashing, equality
    and printing, so equal polynomials have identical representations.
    The leading monomial is cached for the last order it was asked under,
    and so, separately, is the packed form ``groebner`` divides by; both
    are filled in for the bases ``groebner.buchberger`` returns.
    """

    __slots__ = ("ring", "terms", "_canon", "_lead_order", "_lead", "_packed")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._canon = None
        self._lead_order = None
        self._lead = None
        self._packed = None  # (order, packed form) from groebner

    # -- canonical form -------------------------------------------------------

    def canonical_terms(self) -> tuple:
        if self._canon is None:
            units = GREVLEX.units(self.ring.nvars)
            self._canon = tuple(sorted(self.terms.items(),
                                       key=lambda t: sum(map(mul, t[0], units))))
        return self._canon

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m in self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> tuple:
        if self._lead_order is not order:
            if not self.terms:
                raise AlgebraError("zero polynomial has no leading term")
            units = order.units(self.ring.nvars)
            self._lead = min(self.terms, key=lambda m: sum(map(mul, m, units)))
            self._lead_order = order
        return self._lead

    def leading_coefficient(self, order: MonomialOrder = GREVLEX) -> int:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        inv = self.ring.field.inv(self.leading_coefficient(order))
        return self.scale(inv)

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.field.p
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Polynomial(self.ring, {m: (a * c) % p for m, a in self.terms.items()})

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatch(f"operands in different rings: {self.ring} vs {other.ring}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        p = self.ring.field.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = (out.get(m, 0) + c) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, {m: (-c) % p for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        other = self._check(other)
        if other is NotImplemented:
            return other
        p = self.ring.field.p
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = (out.get(m, 0) + c1 * c2) % p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative exponents are not supported")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def derivative(self, var) -> "Polynomial":
        i = self.ring._varindex[var] if isinstance(var, str) else var
        p = self.ring.field.p
        out: dict = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            nc = (c * m[i]) % p
            if nc == 0:
                continue
            nm = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[nm] = (out.get(nm, 0) + nc) % p
            if out[nm] == 0:
                del out[nm]
        return Polynomial(self.ring, out)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __lt__(self, other):
        # canonical comparison used only for deterministic sorting
        other = self._check(other)
        return self.canonical_terms() < other.canonical_terms()

    def __hash__(self):
        return hash((self.ring, self.canonical_terms()))

    def __bool__(self):
        return bool(self.terms)

    # -- printing -------------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form: grevlex-descending terms joined by '+'.

    Coefficients are printed only when != 1, except for the constant term;
    '*' separates variables (never coefficient and monomial).
    """
    if f.is_zero():
        return "0"
    pieces = []
    names = f.ring.variables
    for exps, c in f.canonical_terms():
        vars_part = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
        )
        if not vars_part:
            pieces.append(str(c))
        elif c == 1:
            pieces.append(vars_part)
        else:
            pieces.append(f"{c}{vars_part}")
    return "+".join(pieces)


_TOKEN = re.compile(
    r"\s*(?:(?P<op>[-+*^()])|(?P<nat>\d+)"
    r"|(?P<var>[a-zA-Z][a-zA-Z0-9_]*)(?:\s*\^\s*(?P<exp>\d+))?|(?P<bad>\S))"
)


def _position(text: str, k: int, group: str) -> int:
    """Start of ``group`` in the k-th token of text."""
    return next(itertools.islice(_TOKEN.finditer(text), k, None)).start(group)


def _token_error(text: str):
    """Text's first tokenizing error, or None if there is none: a digit
    string past int's max-str-digits limit (positioned at its first digit)
    or a stray character (positioned at the start of its token's leading
    whitespace)."""
    for m in _TOKEN.finditer(text):
        _, nat, _, exp, bad = m.groups()
        if bad:
            return PolynomialSyntaxError(f"unexpected character {bad!r}", m.start())
        try:
            int(nat or exp or 0)
        except ValueError:
            return PolynomialSyntaxError(f"number of {len(nat or exp)} digits is too long",
                                         m.start("nat" if nat else "exp"))
    return None


_SIGNS = re.compile(r"([-+])")


def parse_polynomial(text: str, ring) -> Polynomial:
    """Parse `poly := ['+'|'-'] term (('+'|'-') term)*` over the given ring.

    `term := coeff? ('*'? var ('^' nat)?)*` with integer coefficients
    reduced mod p.  Raises PolynomialSyntaxError / UnknownVariableError.

    No token holds a '+' or '-', so the text splits at its signs into term
    texts, and each is looked up in the ring's term memo, a dict from term
    text to (exponent tuple, coefficient mod p) of the terms it accepted.
    ``_scan`` reads only a term text not seen before.  The memo keeps one
    entry per distinct term text the ring accepted, and has no size limit.
    When a piece is rejected, ``_scan`` reads the whole text and raises its
    error: every error first asks ``_token_error``, so a stray character
    anywhere in the text wins over a parse error.
    """
    pring = ring if isinstance(ring, PolyRing) else ring.poly  # or a RingContext
    memo = pring._terms
    p = pring.field.p
    pieces = _SIGNS.split(text)
    # a leading sign: no token stands before it
    first = 2 if len(pieces) > 1 and (not pieces[0] or pieces[0].isspace()) else 0
    terms = []
    for k in range(first, len(pieces), 2):
        piece = pieces[k]
        term = memo.get(piece)
        if term is None:
            try:
                (term,) = _scan(piece, pring)
            except AlgebraError:
                return pring.from_terms(_scan(text, pring))
            memo[piece] = term
        if k and pieces[k - 1] == "-":
            term = term[0], (p - term[1]) % p
        terms.append(term)
    return pring.from_terms(terms)


def _scan(text: str, pring: PolyRing) -> list:
    """The (exponent tuple, coefficient) of each term of text, in order:
    one ``findall`` scan and one loop over its tokens."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial", 0)
    n = pring.nvars
    p = pring.field.p
    varindex = pring._varindex
    terms = []
    # optional leading sign
    first = 1 if tokens[0][0] in ("+", "-") else 0
    coeff = p - 1 if tokens[0][0] == "-" else 1
    exps = [0] * n
    state = 0  # 0: no factor yet in the term, 1: after a factor, 2: after a '*'
    for k, (op, nat, var, exp, _) in enumerate(tokens[first:], first):
        if var:
            j = varindex.get(var)
            if j is None:
                raise _token_error(text) or UnknownVariableError(
                    f"unknown variable {var!r} at position {_position(text, k, 'var')}")
            try:
                e = int(exp) if exp else 1
            except ValueError:  # past int's max-str-digits limit
                raise _token_error(text) from None
            if e > MAX_EXPONENT:
                raise _token_error(text) or ExponentOverflow(f"exponent {e} too large")
            e += exps[j]
            if e > MAX_EXPONENT:
                raise _token_error(text) or ExponentOverflow("exponent overflow in term")
            exps[j] = e
            state = 1
        elif op == "*":
            if state != 1:
                raise _token_error(text) or PolynomialSyntaxError(
                    "unexpected '*'", _position(text, k, "op"))
            state = 2
        elif nat:
            try:
                coeff = coeff * int(nat) % p
            except ValueError:
                raise _token_error(text) from None
            state = 1
        else:  # any other operator, or a stray character, ends the term
            if state == 0:
                raise _token_error(text) or PolynomialSyntaxError(
                    "expected a term", _position(text, k, "op"))
            if state == 2:
                raise _token_error(text) or PolynomialSyntaxError(
                    "dangling '*'", _position(text, k - 1, "op"))
            if op == "^" and tokens[k - 1][2] and not tokens[k - 1][3]:  # no number after it
                raise _token_error(text) or PolynomialSyntaxError(
                    "expected exponent after '^'", _position(text, k, "op"))
            if op != "+" and op != "-":
                raise _token_error(text) or PolynomialSyntaxError(
                    f"expected '+' or '-', got {op!r}", _position(text, k, "op"))
            terms.append((tuple(exps), coeff))
            coeff = 1 if op == "+" else p - 1
            exps = [0] * n
            state = 0
    if state == 0:
        raise _token_error(text) or PolynomialSyntaxError("expected a term", len(text))
    if state == 2:
        raise _token_error(text) or PolynomialSyntaxError(
            "dangling '*'", _position(text, len(tokens) - 1, "op"))
    terms.append((tuple(exps), coeff))
    return terms
