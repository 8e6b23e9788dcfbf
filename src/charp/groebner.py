"""Buchberger's algorithm, reduced Groebner bases, elimination, dimension.

Reduced bases are canonical for a fixed order, which makes them the ideal
equality oracle used throughout the package.  Pure functions over immutable
inputs; desk-scale inputs only (no F4/F5, no Hilbert-driven variants).

Division runs on monomials packed into one int, the key k(m) = sum of
m_i * u_i with u_i = 2^(32i) - w_i * 2^(32n) (``MonomialOrder.units``), w
the order's weights in 64-bit mixed radix.  So k(m) = P(m) - W(m) * 2^(32n):
P(m) < 2^(32n) holds the exponents in 32-bit fields and W(m) is the weight,
for grevlex the degree.  A smaller key is a larger monomial, by W and then
by P, whose top field is the last exponent, so a ``heapq`` of keys pops the
largest term first (Monagan & Pearce, J. Symb. Comp. 46, 2011).  Keys add as
monomials multiply.  With G the top bit of each field, which no exponent up
to MAX_EXPONENT = 2^31 - 1 reaches, a divides b iff
((k(b) | G) - k(a)) & G == G, negative keys included (Roune & Stillman,
ISSAC 2012); against a divisor's packed slack it keeps a multiple inside
the envelope.  Tuples are packed on entry and unpacked on exit; ``_divide``
is the one division loop.  ``buchberger`` builds S-polynomials from the
packed tails of its monic elements, pops pairs by least lcm and updates them
as Gebauer & Moeller do (J. Symb. Comp. 6, 1988): a new element h adds one
pair per minimal lcm and drops each pair (i, k) whose lcm lm(h) divides,
unless lcm(i, h) or lcm(k, h) equals it.  The closing interreduction divides
only the elements that a later lead reaches: when h joins, each active
element with a tail term that lm(h) divides is marked, and only those whose
largest tail degree is at least deg lm(h) are scanned.  An unmarked element
returns as stored, since a remainder is irreducible by every lead active
when it was made, and a retired lead is a multiple of an active one.

Colengths are counted column by column: along the variable with the largest
pure-power bound, the standard monomials over each point of the remaining
box form one column, whose height the leads give directly, so the count
walks the staircase's base instead of testing every point of the box.
Colons of zero-dimensional homogeneous ideals, on the same keys, are in ``quotient``.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from functools import cache
from operator import mul

from .core import (
    GREVLEX,
    MAX_EXPONENT,
    AlgebraError,
    ExponentOverflow,
    MonomialOrder,
    PolyRing,
    Polynomial,
)


class UnitIdeal(AlgebraError):
    """Raised when an operation needs a proper ideal but got (1)."""


INFINITE = float("inf")


@cache
def _guard(nvars: int) -> int:
    """The top bit of every 32-bit exponent field."""
    return sum(1 << 32 * i + 31 for i in range(nvars))


@cache
def _exponents(nvars: int):
    """key -> exponent tuple, read off the key's low 32 * nvars bits."""
    unpack, low, size = struct.Struct(f"<{nvars}I").unpack, (1 << 32 * nvars) - 1, 4 * nvars
    return lambda k: unpack((k & low).to_bytes(size, "little"))


def _to_keys(f: Polynomial, order: MonomialOrder) -> dict:
    units = order.units(f.ring.nvars)
    return {sum(map(mul, m, units)): c for m, c in f.terms.items()}


def _from_keys(ring: PolyRing, terms: dict) -> Polynomial:
    exponents = _exponents(ring.nvars)
    return Polynomial(ring, {exponents(k): c for k, c in terms.items()})


def _slack(monomials, guard: int) -> int:
    """MAX_EXPONENT minus each variable's largest exponent, packed, | guard."""
    return sum((MAX_EXPONENT - max(col)) << 32 * i
               for i, col in enumerate(zip(*monomials))) | guard


def _packed(g: Polynomial, order: MonomialOrder):
    """The packed form of a nonzero g under ``order``, kept on g: (lead key,
    inverse lead coefficient, tail terms as (key, coefficient), slack)."""
    cached = g._packed
    if cached is None or cached[0] is not order:
        terms = list(_to_keys(g, order).items())
        lead, c = min(terms)
        cached = g._packed = order, (lead, g.ring.field.inv(c),
                                     [t for t in terms if t[0] != lead],
                                     _slack(g.terms, _guard(g.ring.nvars)))
    return cached[1]


def packed_basis(basis, order: MonomialOrder = GREVLEX) -> list:
    """The packed forms of the nonzero elements of ``basis``, in order."""
    return [_packed(g, order) for g in basis if g.terms]


def _divisor(leads, m: int, guard: int):
    """Index of the first of the ``leads`` dividing m, all keys, or None.

    Each field of m | guard is 2^31 + m_i and each lead field is below 2^31,
    so no field borrows from the next, and a field keeps its guard bit iff
    lead_i <= m_i.
    """
    m |= guard
    for i, lead in enumerate(leads):
        if (m - lead) & guard == guard:
            return i
    return None


def _divide(work: dict, reducers, guard: int, p: int, quotient=None) -> dict:
    """The remainder, largest term first, of ``work`` ({key: coefficient},
    consumed, zeros skipped) by the packed ``reducers``: the largest term is
    reduced by the first one whose lead divides it.  A dict ``quotient``
    gets each multiple's coefficient at its shift; division then stops at
    the first term that no lead divides."""
    heap = list(work)
    heapq.heapify(heap)
    rest: dict = {}
    while heap:
        m = heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue  # given as zero, or cancelled after it was pushed
        mg = m | guard
        for lead, inv, tail, slack in reducers:
            if (mg - lead) & guard == guard:
                break
        else:
            rest[m] = c
            if quotient is not None:
                break
            continue
        shift = m - lead
        if (slack - shift) & guard != guard:
            raise ExponentOverflow("exponent overflow in a multiple of a divisor")
        factor = c * inv % p
        if quotient is not None:
            quotient[shift] = factor
        for t, d in tail:
            t += shift
            s = work.get(t)
            if s is None:
                work[t] = -factor * d % p
                heapq.heappush(heap, t)
            else:
                s = (s - factor * d) % p
                if s:
                    work[t] = s
                else:
                    del work[t]
    return rest


def remainder(f: Polynomial, packed, order: MonomialOrder = GREVLEX) -> Polynomial:
    """``normal_form`` of f by the basis whose ``packed_basis`` is ``packed``."""
    ring = f.ring
    return _from_keys(ring, _divide(_to_keys(f, order), packed, _guard(ring.nvars),
                                    ring.field.p))


def normal_form(f: Polynomial, basis, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of f under multivariate division by ``basis``.

    normal_form(f, G) == 0 iff f lies in the ideal of G, provided G is a
    Groebner basis for ``order``.  Each step reduces the largest remaining
    term by the first basis element whose lead divides it.
    """
    packed = packed_basis(basis, order)
    return remainder(f, packed, order) if packed and f.terms else f


def buchberger(gens, order: MonomialOrder = GREVLEX):
    """Canonical reduced Groebner basis of the ideal generated by ``gens``.

    Returns a list of monic polynomials, auto-reduced and sorted by
    ascending leading monomial.  Deterministic and independent of the
    generator order.  Empty input (or all zero) yields [].
    """
    gens = [g for g in gens if g is not None and not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    n, p = ring.nvars, ring.field.p
    units, guard, exponents = order.units(n), _guard(n), _exponents(n)
    G, leads = [], []  # the packed form of every element added; its lead's exponents
    tops, dirty = [], set()  # each element's largest tail degree; the indices to interreduce
    active, basis = [], []  # the indices i whose lead no later lead divides; G[i]
    heap = []  # the pairs still to reduce: (-key of their lcm, i, j), least lcm first

    def add_poly(h: dict):
        """Append the remainder h, made monic, to G and update the pairs
        (Gebauer & Moeller)."""
        j, hp = len(G), next(iter(h))  # a remainder lists its lead first
        inv, monomials = pow(h[hp], p - 2, p), [exponents(k) for k in h]
        degrees = list(map(sum, monomials))
        lcms = [sum(map(mul, map(max, lead, monomials[0]), units)) for lead in leads]
        # criterion B: drop (i, k) when lm(h) divides its lcm, unless the
        # lcm is that of (i, h) or of (k, h)
        heap[:] = [pair for pair in heap if ((-pair[0] | guard) - hp) & guard != guard
                   or lcms[pair[1]] == -pair[0] or lcms[pair[2]] == -pair[0]]
        heapq.heapify(heap)
        # the new pairs (i, h), i active: one per lcm (criterion F), none
        # whose lcm another properly divides (criterion M), none of a class
        # with coprime leads in it (product criterion)
        classes = {}  # lcm -> (first i, whether some member's leads are coprime)
        for i in active:
            first, coprime = classes.get(lcms[i], (i, False))
            classes[lcms[i]] = first, coprime or lcms[i] == G[i][0] + hp
        minimal = []  # a monomial order puts every lcm after its divisors
        for lcm in sorted(classes, reverse=True):
            if _divisor(minimal, lcm, guard) is None:
                minimal.append(lcm)
                i, coprime = classes[lcm]
                if not coprime:
                    heapq.heappush(heap, (-lcm, i, j))
        # retire the active elements whose lead lm(h) divides; none divides lm(h)
        active[:] = [i for i in active if ((G[i][0] | guard) - hp) & guard != guard]
        # mark those whose tail lm(h) reaches; such a term has degree >= deg lm(h)
        dirty.update(i for i in active if tops[i] >= degrees[0]
                     and any(((t | guard) - hp) & guard == guard for t, _ in G[i][2]))
        active.append(j)
        tops.append(max(degrees[1:], default=-1))
        G.append((hp, 1, [(k, c * inv % p) for k, c in itertools.islice(h.items(), 1, None)],
                  _slack(monomials, guard)))
        leads.append(monomials[0])
        basis[:] = [G[i] for i in active]

    # deterministic start: each monic generator once (the first given), in canonical order
    starts = {}
    for g in gens:
        terms = _to_keys(g, order)
        inv = pow(terms[min(terms)], p - 2, p)
        g = g.scale(inv)
        starts.setdefault(g.canonical_terms(), (g, {k: c * inv % p for k, c in terms.items()}))
    starts = [start for _, start in sorted(starts.items())]
    for _, work in starts:
        h = _divide(work, basis, guard, p)
        if h:
            add_poly(h)

    while heap:
        lcm, i, j = heapq.heappop(heap)
        (lead_i, _, tail_i, slack_i), (lead_j, _, tail_j, slack_j) = G[i], G[j]
        shift_i, shift_j = -lcm - lead_i, -lcm - lead_j
        if (slack_i - shift_i) & guard != guard or (slack_j - shift_j) & guard != guard:
            raise ExponentOverflow("exponent overflow in an S-polynomial")
        # the S-polynomial shift_i * G[i] - shift_j * G[j], whose leads cancel
        work = {t + shift_i: c for t, c in tail_i}
        for t, c in tail_j:
            work[t + shift_j] = (work.get(t + shift_j, 0) - c) % p
        h = _divide(work, basis, guard, p)  # it skips zero coefficients
        if h:
            add_poly(h)

    if active == [0]:
        return [starts[0][0]]  # as given: division by no basis changes nothing
    # interreduce the marked tails of the minimal basis; leads stay, with
    # coefficient 1, and an unmarked element is reduced already
    reduced = []
    for pos, i in enumerate(active):
        lead, _, tail, _ = G[i]
        r = dict([(lead, 1), *tail])
        if i in dirty:
            r = _divide(r, basis[:pos] + basis[pos + 1:], guard, p)
        monomials = [exponents(k) for k in r]
        g = Polynomial(ring, dict(zip(monomials, r.values())))
        g._lead_order, g._lead = order, monomials[0]
        g._packed = order, (lead, 1, list(itertools.islice(r.items(), 1, None)),
                            _slack(monomials, guard))
        reduced.append(g)
    reduced.sort(key=lambda g: g._packed[1][0], reverse=True)
    return reduced


# ---------------------------------------------------------------------------
# Elimination.

def eliminate(gens, k: int, ring: PolyRing):
    """Generators of ideal(gens) intersected with F_p[variables after the
    first k], as polynomials of ``ring``, whose variables those are.

    The eliminated variables are always a leading block of the generators'
    ring: the two-block order compares them first (lex) and the rest by
    grevlex, so the basis elements free of them are the reduced grevlex
    basis of the intersection.
    """
    gb = buchberger(gens, MonomialOrder.block(k))
    return [Polynomial(ring, {m[k:]: c for m, c in g.terms.items()})
            for g in gb if not any(any(m[:k]) for m in g.terms)]


def krull_dimension(gb, nvars: int) -> int:
    """Krull dimension of S/I from the reduced GB of I in S.

    Maximal size of a variable subset U with no leading monomial supported
    inside U.  Raises UnitIdeal for the unit ideal.
    """
    if any(g.is_constant() and not g.is_zero() for g in gb):
        raise UnitIdeal("dimension of the zero ring is undefined")
    leads = [g.leading_monomial(GREVLEX) for g in gb]
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    for r in range(nvars, 0, -1):
        for combo in itertools.combinations(range(nvars), r):
            u = set(combo)
            if all(not s <= u for s in supports):
                return r
    return 0


def _staircase(gb, nvars: int):
    """Column heights of the staircase of the lead-term ideal of ``gb``.

    ``gb`` is not the unit ideal.  Returns None when some variable has no
    pure power among the leads (infinite colength), else ``(unit, columns)``:
    ``unit`` is the grevlex unit of the variable ``axis`` with the largest
    pure-power bound b_axis, and ``columns`` lists ``(key, height)`` for
    each point of the box prod(range(b_i)) with ``axis`` removed, ``key``
    its grevlex key.  The standard monomials over it have the keys
    key + t * unit, t < height; height is the least m[axis] over the leads
    m whose other exponents divide the point, which the pure power of
    ``axis`` caps at b_axis.  With no variables, the box's one point, key 0,
    is one column.
    """
    leads = [g.leading_monomial(GREVLEX) for g in gb]
    bounds = [None] * nvars
    for m in leads:
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or m[i] < bounds[i]:
                bounds[i] = m[i]
    if any(b is None for b in bounds):
        return None
    if not nvars:
        return 0, [(0, 1)]
    axis = max(range(nvars), key=lambda i: (bounds[i], i))
    units, guard = GREVLEX.units(nvars), _guard(nvars)
    # leads as (exponent on axis, key of the other exponents), lowest cut first
    cuts = sorted((m[axis], sum(map(mul, m, units)) - m[axis] * units[axis]) for m in leads)
    heights = [height for height, _ in cuts]
    rests = [rest for _, rest in cuts]
    keys = [0]
    for i in range(nvars):
        if i != axis:
            keys = [k + e * units[i] for k in keys for e in range(bounds[i])]
    return units[axis], [(k, heights[_divisor(rests, k, guard)]) for k in keys]


def colength(gb, nvars: int):
    """Number of standard monomials of the lead-term ideal, or INFINITE.

    Finite iff every variable has a pure power among the leading monomials.
    """
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return 0
    staircase = _staircase(gb, nvars)
    if staircase is None:
        return INFINITE
    return sum(height for _, height in staircase[1])


def divide_exact(f: Polynomial, g: Polynomial):
    """Quotient f/g when g divides f exactly, else None."""
    if g.is_zero():
        return None
    if f.is_zero():
        return f
    quotient: dict = {}
    if _divide(_to_keys(f, GREVLEX), [_packed(g, GREVLEX)], _guard(f.ring.nvars),
               f.ring.field.p, quotient):
        return None
    return _from_keys(f.ring, quotient)
