"""Frobenius bracket powers, Frobenius roots, and Frobenius preimages.

bracket_power(I, e) is the ideal of q-th powers (q = p^e).  frobenius_root
computes the minimal ideal K with J inside K^[q] (polynomial rings only);
frobenius_preimage computes the largest ideal L with L^[q] inside K, i.e.
{u : u^q in K}.  Root and preimage differ in general: (x^3) at p = 2 has
root (x) but preimage (x^2).

The preimage is ``rings.twisted_colon`` with divisors (1), the one colon
engine: for a homogeneous lift of finite colength, the linear-algebra
kernel of u -> NF(u^q) over K's standard monomials, degree by degree
(``groebner.frobenius_colon``), with its reduced GB as generators; for
every other lift, an elimination of the substitution ideal K + (y_i - x_i^q).
"""

from __future__ import annotations

from .core import AlgebraError, ExponentOverflow, Polynomial, mono_pow
from .rings import Ideal, RingContext, twisted_colon

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
    """I^[q]: the ideal of q-th powers of the generators, q = p^e.

    Each power is taken term by term (freshman's dream): over F_p,
    (sum c*m)^q = sum c*m^q, since cross terms vanish and c^q = c.
    """
    q = frobenius_q(I.ring, e)
    if q == 1:
        return I
    return Ideal(I.ring, [
        Polynomial(g.ring, {mono_pow(m, q): c for m, c in g.terms.items()})
        for g in I.gens])


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


def frobenius_preimage(K: Ideal, e: int) -> Ideal:
    """The largest ideal L with L^[q] inside K, i.e. {u : u^q in K}.

    Computed on the lift in S (the lift contains the relation, so the
    quotient case reduces to the polynomial one) by ``twisted_colon`` with
    divisors (1).
    """
    q = frobenius_q(K.ring, e)
    return K if q == 1 else twisted_colon(K, [K.ring.poly.one()], q)
