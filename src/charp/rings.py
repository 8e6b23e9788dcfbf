"""Ring contexts and the ideal calculus: sum, product, intersection, colon,
height, unmixedness, and randomized parameter-ideal search.

A RingContext models either a polynomial ring S = F_p[vars] or a graded
hypersurface quotient R = S/(f) with f homogeneous.  Every ideal computation
runs on the lift (generators + f) in S; two ideals of R are equal iff their
lifted reduced Groebner bases coincide.

``twisted_colon`` is the one colon engine: every colon, Frobenius preimage
and approximation I_q is {u : u^q * B in A} for some A, B and q.  A unit A
gives (1) at once.  Otherwise it tries, in order, the linear-algebra kernel
``quotient.frobenius_colon`` (B homogeneous, A's lift homogeneous of finite
colength); A itself as A : B when B holds a nonzero constant; elimination
(``_colon_gens``) for K = A : B; and for q > 1 then {u : u^q in K} by
elimination (``_preimage_by_elimination``).

Membership and reduction read a table of monomial normal forms kept on each
Ideal.  Modulo a Groebner basis G every f has one normal form NF(f), the
remainder that no lead of G divides, and NF is F_p-linear: f - NF(f) and
g - NF(g) lie in the ideal, so NF(f) + c*NF(g) is a reduced representative
of f + c*g and hence its normal form.  So NF(f) = sum c_m * NF(m) over the
terms c_m * m of f, and the table stores NF(m) once per monomial m met,
computed by dividing m by the packed view of G (``groebner.packed_basis``)
kept beside the table.  The sum equals ``normal_form(f, G)`` term for term;
it only skips the repeated divisions.

The parameter searches reject some random candidates without a Groebner
basis.  When the target height is dim R, a candidate whose elements are
homogeneous and vanish, together with the homogeneous lift they join, at a
point v of P^{n-1}(F_p) cannot reach it: the whole line through v lies in
the variety of the lift, so dim S/lift >= 1 and ht_R <= dim R - 1.  The
height check would reject exactly such a candidate too, and every random
draw happens before the certificate, so the searches return the same
ideals and leave the rng in the same state either way.  The rational
points are listed only while P^{n-1}(F_p) is small (``_MAX_POINTS``); on
larger ones every candidate goes to the height check.
"""

from __future__ import annotations

import itertools
import random
from functools import cache

from .core import (
    AlgebraError,
    PolyRing,
    Polynomial,
    PrimeField,
    RingMismatch,
)
from .groebner import (
    INFINITE,
    UnitIdeal,
    buchberger,
    colength as _gb_colength,
    divide_exact,
    eliminate,
    krull_dimension,
    packed_basis,
    remainder,
)
from .quotient import frobenius_colon, zero_dimensional_quotient


class ParameterSearchFailed(AlgebraError):
    """Randomized parameter/height search exhausted its tries."""


class DivisionWitnessFailure(AlgebraError):
    """Internal consistency error in a colon computation."""


def coprime(polys) -> bool:
    """True iff the polynomials share no nonconstant factor in F_p[vars].

    S is a UFD, where the height-1 primes are the principal primes (h): the
    polynomials share a prime factor exactly when the ideal they generate
    lies in a prime of height at most 1, so they are coprime exactly when
    it is (1) or has height at least 2.
    """
    gb = buchberger(polys)
    if len(gb) == 1 and gb[0].is_constant():
        return True
    n = polys[0].ring.nvars
    return n - krull_dimension(gb, n) >= 2


def _fresh_var(names) -> str:
    t = "t_"
    while t in names:
        t += "_"
    return t


def _intersect_gens(gens_a, gens_b, ring: PolyRing):
    """Generators of ideal(gens_a) cap ideal(gens_b) in a polynomial ring:
    eliminate t, the first variable, from t*(gens_a) + (1 - t)*(gens_b)."""
    aux = PolyRing(ring.field, (_fresh_var(ring.variables),) + ring.variables)
    t = aux.var(0)
    one_minus_t = aux.one() - t

    def lift(g):
        return Polynomial(aux, {(0,) + m: c for m, c in g.terms.items()})

    mixed = [t * lift(g) for g in gens_a] + [one_minus_t * lift(g) for g in gens_b]
    return eliminate(mixed, 1, ring)


def _colon_gens(gens_a, gens_b, ring: PolyRing):
    """Generators of (gens_a) : (gens_b) in a polynomial ring."""
    nonzero = [b for b in gens_b if not b.is_zero()]
    if not nonzero:
        return [ring.one()]
    result = None
    for b in nonzero:
        inter = _intersect_gens(gens_a, [b], ring)
        quotient = []
        for g in inter:
            q = divide_exact(g, b)
            if q is None:
                raise DivisionWitnessFailure(
                    f"{g} in intersection with ({b}) but not divisible by it")
            quotient.append(q)
        result = quotient if result is None else _intersect_gens(result, quotient, ring)
    return buchberger(result)


def _preimage_by_elimination(gb, q: int, ring: PolyRing) -> list:
    """{u : u(x)^q in K} via K + (y_i - x_i^q), eliminating the x block,
    which comes first; the y block keeps the names of ``ring``, and the x
    block's names are chosen outside them."""
    n = ring.nvars
    names = ring.variables
    suffix = "_q_"
    while any(v + suffix in names for v in names):
        suffix += "_"
    aux = PolyRing(ring.field, tuple(v + suffix for v in names) + names)
    pad = (0,) * n
    moved = [Polynomial(aux, {m + pad: c for m, c in g.terms.items()}) for g in gb]
    for i in range(n):
        moved.append(aux.var(n + i) - aux.var(i) ** q)
    return eliminate(moved, n, ring)


class RingContext:
    """Ambient ring: char p, ordered variables, optional hypersurface relation.

    With a relation f, the context models R = S/(f) with dim R = nvars - 1;
    f must be nonzero, nonunit, homogeneous and not a p-th power.  The
    ``reduced`` flag records whether f and all its partials are coprime.
    """

    def __init__(self, p, variables, relation=None):
        self.field = p if isinstance(p, PrimeField) else PrimeField(p)
        self.poly = PolyRing(self.field, variables)
        self.reduced = None
        if isinstance(relation, str):
            relation = self.poly.parse(relation)
        if relation is not None:
            if relation.ring != self.poly:
                raise RingMismatch("relation belongs to a different polynomial ring")
            if relation.is_zero() or relation.is_constant():
                raise AlgebraError("relation must be a nonzero nonunit")
            if not relation.is_homogeneous():
                raise AlgebraError("relation must be homogeneous")
            relation = relation.monic()
            partials = [relation.derivative(i) for i in range(self.poly.nvars)]
            if all(d.is_zero() for d in partials):
                raise AlgebraError("relation is a p-th power (all partials vanish)")
            self.reduced = coprime([relation, *partials])
        self.relation = relation
        self._test_ideal = None  # written only by singularity.test_ideal
        self._relation_zeros = None  # written only by _rational_zeros

    @property
    def variables(self):
        return self.poly.variables

    @property
    def dim(self) -> int:
        return self.poly.nvars - (1 if self.relation is not None else 0)

    def polynomial_ring(self) -> "RingContext":
        if self.relation is None:
            return self
        return RingContext(self.field, self.variables)

    def parse(self, text: str) -> Polynomial:
        return self.poly.parse(text)

    def ideal(self, *gens) -> "Ideal":
        parsed = [self.parse(g) if isinstance(g, str) else g for g in gens]
        return Ideal(self, parsed)

    def zero_ideal(self) -> "Ideal":
        return Ideal(self, [])

    def maximal_ideal(self) -> "Ideal":
        return Ideal(self, [self.poly.var(i) for i in range(self.poly.nvars)])

    def __eq__(self, other):
        return (
            isinstance(other, RingContext)
            and other.poly == self.poly
            and other.relation == self.relation
        )

    def __hash__(self):
        return hash((self.poly, None if self.relation is None
                     else self.relation.canonical_terms()))

    def __repr__(self):
        base = f"F_{self.field.p}[{','.join(self.variables)}]"
        if self.relation is not None:
            return f"RingContext({base}/({self.relation}))"
        return f"RingContext({base})"


class Ideal:
    """An ideal of a RingContext, with a cached lifted reduced GB.

    All computations happen on the lift (generators + relation) in the
    ambient polynomial ring; projection back is implicit (the relation is
    always a member, so carrying it among generators is harmless).
    """

    __slots__ = ("ring", "gens", "_gb", "_height", "_nf", "_packed")

    def __init__(self, ring: RingContext, gens):
        self.ring = ring
        checked = []
        for g in gens:
            if g.ring != ring.poly:
                raise RingMismatch("generator from a different ring")
            if not g.is_zero():
                checked.append(g)
        self.gens = tuple(checked)
        self._gb = None
        self._height = None
        # monomial -> NF(monomial) mod _gb as (monomial, coefficient) pairs,
        # and the packed view of _gb that computes them; exact only because
        # _gb never changes once set (``gb`` and ``_with_reduced_gb`` are its
        # only writers)
        self._nf = {}
        self._packed = None

    # -- canonical basis ------------------------------------------------------

    def lift_gens(self):
        if self.ring.relation is not None:
            return list(self.gens) + [self.ring.relation]
        return list(self.gens)

    @property
    def gb(self):
        """Reduced grevlex GB of the lift; computed once, deterministic."""
        if self._gb is None:
            self._gb = buchberger(self.lift_gens())
        return self._gb

    def key(self):
        return tuple(g.canonical_terms() for g in self.gb)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatch("comparing ideals of different rings")
        return self.key() == other.key()

    def __hash__(self):
        return hash((self.ring, self.key()))

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens) or '0'})"

    def gb_strings(self):
        return [str(g) for g in self.gb]

    # -- predicates -----------------------------------------------------------

    def contains(self, f: Polynomial) -> bool:
        """f in I: ``reduce(f)`` is zero."""
        if f.ring != self.ring.poly:
            raise RingMismatch("element from a different ring")
        return self.reduce(f).is_zero()

    def reduce(self, f: Polynomial) -> Polynomial:
        """Normal form of f against the lifted GB (canonical representative),
        summed from the table of monomial normal forms (module docstring)."""
        table = self._nf
        if self._packed is None:
            self._packed = packed_basis(self.gb)
        ring = self.ring.poly
        p = ring.field.p
        acc: dict = {}
        for m, c in f.terms.items():
            row = table.get(m)
            if row is None:
                nf = remainder(Polynomial(ring, {m: 1}), self._packed)
                row = table[m] = list(nf.terms.items())
            for t, d in row:
                acc[t] = acc.get(t, 0) + c * d
        return Polynomial(ring, {t: v % p for t, v in acc.items() if v % p})

    def contains_ideal(self, other: "Ideal") -> bool:
        self._same_ring(other)
        return all(self.contains(g) for g in other.gens)

    def is_zero(self) -> bool:
        return not self.gb

    def is_unit(self) -> bool:
        return len(self.gb) == 1 and self.gb[0].is_constant()

    def is_proper(self) -> bool:
        return not self.is_unit()

    def colength(self):
        """Vector-space dimension of R/I (counted on the lift), or INFINITE."""
        return _gb_colength(self.gb, self.ring.poly.nvars)

    def is_m_primary(self) -> bool:
        return self.colength() is not INFINITE

    def height(self) -> int:
        """ht(I); in a quotient context ht_R = ht_S(lift) - 1."""
        if self._height is None:
            if self.is_unit():
                raise UnitIdeal("height of the unit ideal is undefined")
            n = self.ring.poly.nvars
            ht = n - krull_dimension(self.gb, n)
            if self.ring.relation is not None:
                ht -= 1
            self._height = ht
        return self._height

    def minimal_generators(self):
        """Greedily prune generators contained in the span of the others."""
        gens = sorted(set(self.gens), key=lambda g: (g.degree(), g.canonical_terms()))
        kept: list[Polynomial] = []
        for i, g in enumerate(gens):
            rest = kept + gens[i + 1:]
            if not Ideal(self.ring, rest).contains(g):
                kept.append(g)
        return kept

    # -- operations -----------------------------------------------------------

    def _same_ring(self, other: "Ideal"):
        if not isinstance(other, Ideal):
            raise TypeError("expected an Ideal")
        if other.ring != self.ring:
            raise RingMismatch("ideals of different rings")

    def __add__(self, other: "Ideal") -> "Ideal":
        self._same_ring(other)
        return Ideal(self.ring, list(self.gens) + list(other.gens))

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._same_ring(other)
        prods = [a * b for a in self.gens for b in other.gens]
        return Ideal(self.ring, prods)

    def intersect(self, other: "Ideal") -> "Ideal":
        self._same_ring(other)
        gens = _intersect_gens(self.lift_gens(), other.lift_gens(), self.ring.poly)
        return Ideal(self.ring, gens)

    def colon(self, other: "Ideal") -> "Ideal":
        """A : B = {u : uB in A}, computed on lifts by ``twisted_colon``."""
        self._same_ring(other)
        return twisted_colon(self, other.gens)


def _with_reduced_gb(ring: RingContext, gens) -> Ideal:
    """The ideal generated by ``gens``, the reduced GB of a lifted ideal,
    which contains the relation: ``gens`` is already its lift's basis."""
    ideal = Ideal(ring, gens)
    ideal._gb = gens
    return ideal


def twisted_colon(A: Ideal, divisors, q: int = 1) -> Ideal:
    """{u : u^q * (divisors) in A}: at q = 1 the colon, with divisors (1)
    the Frobenius preimage.  Its engines, in order, are in the module
    docstring; the generators are the reduced GB, except after a preimage
    by elimination."""
    ring = A.ring.poly
    if A.is_unit():
        return _with_reduced_gb(A.ring, [ring.one()])
    if all(b.is_homogeneous() for b in divisors):
        quotient = zero_dimensional_quotient(A.gb, ring)
        if quotient is not None:
            return _with_reduced_gb(A.ring, frobenius_colon(quotient, divisors, q))
    if any(b.is_constant() and not b.is_zero() for b in divisors):
        K = A.gb
    else:
        K = _colon_gens(A.lift_gens(), list(divisors), ring)
    if q == 1:
        return _with_reduced_gb(A.ring, K)
    return Ideal(A.ring, _preimage_by_elimination(K, q, ring))


# ---------------------------------------------------------------------------
# Randomized search: parameter ideals and m-primary extensions.

@cache
def _degree_exponents(nvars: int, degree: int) -> tuple:
    """The exponent tuples of the given degree, in ``itertools.product`` order."""
    return tuple(e for e in itertools.product(range(degree + 1), repeat=nvars)
                 if sum(e) == degree)


def _random_homogeneous(ring: PolyRing, degree: int, rng: random.Random) -> Polynomial:
    p = ring.field.p
    terms = []
    for exps in _degree_exponents(ring.nvars, degree):
        c = rng.randrange(p)
        if c:
            terms.append((exps, c))
    return ring.from_terms(terms)


def _random_element_of(I: Ideal, bump: int, rng: random.Random) -> Polynomial:
    """Random homogeneous-ish combination sum r_i * g_i of the generators.

    With homogeneous generators the result is homogeneous of degree
    max(deg g_i) + bump, which keeps the graded/local dictionary intact.
    """
    ring = I.ring.poly
    gens = list(I.gens)
    if not gens:
        raise ParameterSearchFailed("cannot sample inside the zero ideal")
    target = max(g.degree() for g in gens) + bump
    out = ring.zero()
    for g in gens:
        d = target - g.degree()
        if d < 0:
            continue
        r = _random_homogeneous(ring, d, rng)
        out = out + r * g
    return out


# Listing P^{n-1}(F_p) costs one evaluation per point, and testing a
# candidate one per rational zero, while a random candidate shares a given
# zero with probability p^-g: the certificate pays only on small fields.
# On the parameter searches it gains at p = 2, is even at p = 3 to 7 in
# three variables, and costs ``case1`` on F_11[x,y,z] (133 points) about
# 20 %.  Unbounded, listing P^2(F_1009) kept ``case1`` running past a
# minute, against 0.03 s without the certificate.
_MAX_POINTS = 64


def _value(f: Polynomial, zero, p: int) -> int:
    """f at ``zero``, a pair (point, memo of monomial values at the point)."""
    point, memo = zero
    total = 0
    for m, c in f.terms.items():
        v = memo.get(m)
        if v is None:
            v = 1
            for x, e in zip(point, m):
                v = v * pow(x, e, p) % p
            memo[m] = v
        total += c * v
    return total % p


def _rational_zeros(gens, ring: RingContext) -> list:
    """The points of P^{n-1}(F_p) at which the relation and the homogeneous
    ``gens`` all vanish; [] when P^{n-1}(F_p) has more than ``_MAX_POINTS``
    points, which leaves every rejection to the height check.

    Each point is listed once, scaled so that its first nonzero coordinate
    is 1, as a pair (point, memo) that ``_value`` reads and fills.  The
    zeros of the relation alone are listed once per ring and kept on it.
    """
    n, p = ring.poly.nvars, ring.field.p
    if ring._relation_zeros is None:
        zeros = []
        if (p ** n - 1) // (p - 1) <= _MAX_POINTS:
            relation = ring.zero_ideal().lift_gens()
            for lead in range(n):
                for rest in itertools.product(range(p), repeat=n - lead - 1):
                    zero = ((0,) * lead + (1,) + rest, {})
                    if all(_value(f, zero, p) == 0 for f in relation):
                        zeros.append(zero)
        ring._relation_zeros = zeros
    return [z for z in ring._relation_zeros if all(_value(g, z, p) == 0 for g in gens)]


def _share_a_zero(elems, zeros, p: int) -> bool:
    """True when the homogeneous ``elems`` all vanish at one of ``zeros``."""
    return any(all(_value(e, z, p) == 0 for e in elems) for z in zeros)


_PARAMETER_TRIES = 60  # candidates ``find_parameter_ideal`` draws at most
_EXTENSION_TRIES = 80  # forms ``extend_to_m_primary`` draws per height step
_UNMIXED_SAMPLES = 3  # parameter ideals ``unmixed_part`` cross-checks


def find_parameter_ideal(I: Ideal, rng: random.Random, height: int | None = None,
                         min_bump: int = 0) -> Ideal:
    """A parameter ideal a inside I: exactly g generators with ht(a) = g.

    In the Cohen-Macaulay ambient (polynomial ring or hypersurface) this
    certifies a regular sequence, hence a Gorenstein ideal of finite
    projective dimension.  Degree bumps escalate 0 -> 1 -> 2 when plain
    F_p-combinations are degenerate (common over F_2); ``min_bump`` raises
    the floor, which callers use to avoid sampling I itself.

    When g = dim R, homogeneous candidates that vanish with the relation at
    an F_p-rational point are rejected without a Groebner basis: the line
    through that point lies in the variety of their lift, so their height
    is below g (module docstring).
    """
    if I.is_unit() or I.is_zero():
        raise ParameterSearchFailed("need a proper nonzero ideal")
    g = height if height is not None else I.height()
    if g < 1:
        raise ParameterSearchFailed("height must be >= 1")
    p = I.ring.field.p
    zeros = _rational_zeros([], I.ring) if g == I.ring.dim else []
    for trial in range(_PARAMETER_TRIES):
        bump = max(min(trial * 3 // _PARAMETER_TRIES, 2), min_bump)
        elems = []
        for _ in range(g):
            elems.append(_random_element_of(I, bump, rng))
            if elems[-1].is_zero():
                break
        if elems[-1].is_zero():
            continue
        if zeros and all(e.is_homogeneous() for e in elems) \
                and _share_a_zero(elems, zeros, p):
            continue
        cand = Ideal(I.ring, elems)
        # no minimality check: by Krull's height theorem an ideal with fewer
        # than g generators has height < g, so ht(cand) = g already makes
        # the g elements a minimal generating set
        try:
            if cand.is_unit() or cand.height() != g:
                continue
        except UnitIdeal:
            continue
        return cand
    raise ParameterSearchFailed(
        f"no parameter ideal of height {g} found in {_PARAMETER_TRIES} tries")


def extend_to_m_primary(b: Ideal, rng: random.Random):
    """d - g elements whose addition to b makes it m-primary.

    Greedy randomized height raising; deterministic under the caller's rng.
    Returns [] when b is already m-primary.

    On the step to height dim R, with a homogeneous lift of the current
    ideal, a form that vanishes at an F_p-rational zero of that lift is
    rejected without a Groebner basis: the line through the zero lies in the
    variety of the new lift, so the height does not rise (module docstring).
    """
    d = b.ring.dim
    g = b.height()
    p = b.ring.field.p
    extras: list[Polynomial] = []
    current = b
    while g + len(extras) < d:
        zeros = []
        if g + len(extras) + 1 == d and all(h.is_homogeneous() for h in current.gens):
            zeros = _rational_zeros(current.gens, b.ring)
        for trial in range(_EXTENSION_TRIES):
            # escalate degree: low-degree forms can all vanish on the
            # (many) curve components of a composite starting ideal
            degree = 1 + min(trial // (_EXTENSION_TRIES // 5), 4)
            x = _random_homogeneous(b.ring.poly, degree, rng)
            if x.is_zero() or _share_a_zero([x], zeros, p):
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


def unmixed_part(I: Ideal, rng: random.Random) -> Ideal:
    """a : (a : I) for a sampled parameter ideal a in I of the same height.

    The value is independent of the choice of a; ``_UNMIXED_SAMPLES``
    draws are made and the results of the distinct ones cross-checked
    before returning.  A draw equal to an earlier one (for a principal I
    every draw is I itself) reuses its result.
    """
    if I.is_unit():
        raise UnitIdeal("unmixed part of the unit ideal is undefined")
    results = {}
    for _ in range(_UNMIXED_SAMPLES):
        a = find_parameter_ideal(I, rng)
        if a.key() not in results:
            results[a.key()] = a.colon(a.colon(I))
    first, *rest = results.values()
    if any(r != first for r in rest):
        raise AlgebraError("unmixed part disagreed across parameter samples")
    return first


def is_unmixed(I: Ideal, rng: random.Random) -> bool:
    """True iff all associated primes of I have height ht(I)."""
    if I.is_m_primary():
        return True
    return unmixed_part(I, rng) == I
