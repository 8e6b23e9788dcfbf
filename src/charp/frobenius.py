"""Frobenius bracket powers, Frobenius roots, and Frobenius preimages.

bracket_power(I, e) is the ideal of q-th powers (q = p^e).  frobenius_root
computes the minimal ideal K with J inside K^[q] (polynomial rings only);
frobenius_preimage computes the largest ideal L with L^[q] inside K, i.e.
{u : u^q in K}.  Root and preimage differ in general: (x^3) at p = 2 has
root (x) but preimage (x^2).
"""

from __future__ import annotations

import itertools

from .core import GREVLEX, AlgebraError, ExponentOverflow, PolyRing, Polynomial, mono_pow
from .groebner import (
    INFINITE,
    eliminate,
    normal_form,
    remap_polynomial,
    standard_monomials,
)
from .rings import Ideal, RingContext

MAX_E = 10


class QuotientContextUnsupported(AlgebraError):
    """Frobenius roots are only defined over the polynomial ring."""


def frobenius_q(ring: RingContext, e: int) -> int:
    if e < 0:
        raise ExponentOverflow("negative Frobenius exponent")
    if e > MAX_E:
        raise ExponentOverflow(f"e = {e} exceeds the configured cap {MAX_E}")
    return ring.field.p ** e


def bracket_power(I: Ideal, e: int) -> Ideal:
    """I^[q]: the ideal of q-th powers of the generators, q = p^e."""
    q = frobenius_q(I.ring, e)
    if q == 1:
        return I
    return Ideal(I.ring, [g ** q for g in I.gens])


def _root_of_polynomial(g: Polynomial, q: int) -> list:
    """Generators of the minimal K with g in K^[q], in a polynomial ring.

    Decomposes g over the free basis {x^mu : 0 <= mu_i < q} of S over S^q;
    coefficients are unchanged since c^q = c on F_p.
    """
    buckets: dict = {}
    for m, c in g.terms.items():
        mu = tuple(e % q for e in m)
        root = tuple(e // q for e in m)
        buckets.setdefault(mu, {})[root] = c
    return [Polynomial(g.ring, terms) for terms in buckets.values()]


def frobenius_root(J: Ideal, e: int) -> Ideal:
    """The minimal ideal K with J inside K^[q] (q = p^e).

    Requires a polynomial ring context: the decomposition of S as a free
    module over S^q is not available in a quotient.  Quotient callers must
    lift explicitly.
    """
    if J.ring.relation is not None:
        raise QuotientContextUnsupported(
            "frobenius_root needs a polynomial ring; pass the lift explicitly")
    q = frobenius_q(J.ring, e)
    if q == 1:
        return J
    gens = []
    for g in J.gens:
        gens.extend(_root_of_polynomial(g, q))
    return Ideal(J.ring, gens)


def _preimage_by_elimination(gb, q: int, ring: PolyRing) -> list:
    """{u : u(x)^q in K} via K + (y_i - x_i^q), eliminating the x block."""
    n = ring.nvars
    names = ring.variables
    aux = PolyRing(ring.field, names + tuple(f"{v}_q_" for v in names))
    ident = list(range(n))
    moved = [remap_polynomial(g, aux, ident) for g in gb]
    for i in range(n):
        moved.append(aux.var(n + i) - aux.var(i) ** q)
    elim = eliminate(moved, list(range(n)), aux)
    back = [None] * n + ident
    return [remap_polynomial(g, ring, back) for g in elim]


def _preimage_by_linear_algebra(gb, q: int, ring: PolyRing) -> list:
    """Fast path for homogeneous finite-colength K.

    u -> u^q is F_p-linear in the coefficients of u, so the preimage below
    the degree where it trivially contains a power of the maximal ideal is a
    nullspace computation over the standard monomials of K.
    """
    n = ring.nvars
    p = ring.field.p
    std = standard_monomials(gb, n)
    dmax = max((sum(m) for m in std), default=0)
    bound = -(-(dmax + 1) // q)  # ceil: m^bound lies in the preimage
    cols = [m for m in itertools.product(range(bound), repeat=n) if sum(m) < bound]
    cols.sort(key=GREVLEX.key)
    # residues of x^(q*m) mod K, one column per candidate monomial
    residues = []
    for m in cols:
        r = normal_form(Polynomial(ring, {mono_pow(m, q): 1}), gb)
        residues.append(r.terms)
    support = sorted({t for r in residues for t in r}, key=GREVLEX.key)
    row_of = {t: i for i, t in enumerate(support)}
    ncols = len(cols)
    matrix = [[0] * ncols for _ in support]
    for j, r in enumerate(residues):
        for t, c in r.items():
            matrix[row_of[t]][j] = c
    basis = _nullspace_mod_p(matrix, ncols, p)
    gens = [Polynomial(ring, {cols[j]: c for j, c in enumerate(vec) if c})
            for vec in basis]
    for m in itertools.product(range(bound + 1), repeat=n):
        if sum(m) == bound:
            gens.append(Polynomial(ring, {m: 1}))
    return gens


def _nullspace_mod_p(matrix, ncols: int, p: int):
    """Basis of the right nullspace of an integer matrix over F_p."""
    rows = [row[:] for row in matrix]
    nrows = len(rows)
    pivot_col_of_row = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c] % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivot_col_of_row.append(c)
        r += 1
        if r == nrows:
            break
    pivots = set(pivot_col_of_row)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivot_col_of_row):
            vec[pc] = (-rows[i][fc]) % p
        basis.append(vec)
    return basis


def frobenius_preimage(K: Ideal, e: int) -> Ideal:
    """The largest ideal L with L^[q] inside K, i.e. {u : u^q in K}.

    Computed on the lift in S (the lift contains the relation, so the
    quotient case reduces to the polynomial one).  Uses a linear-algebra
    fast path when the lift is homogeneous of finite colength, otherwise
    the substitution-ideal elimination construction.
    """
    q = frobenius_q(K.ring, e)
    if q == 1:
        return K
    ring = K.ring.poly
    gb = K.gb
    if K.is_unit():
        return Ideal(K.ring, [ring.one()])
    homogeneous = all(g.is_homogeneous() for g in gb)
    if homogeneous and K.colength() is not INFINITE:
        gens = _preimage_by_linear_algebra(gb, q, ring)
    else:
        gens = _preimage_by_elimination(gb, q, ring)
    return Ideal(K.ring, gens)
