"""Test elements, test ideals of hypersurfaces, and tight-closure bounds.

The test ideal of R = S/(f) is computed by the standard ascending chain:
seed with a Jacobian test element c, iterate J <- J + (f^(p-1) J)^[1/p] in S
until stable, and project.  Each step starts from the reduced Groebner basis
of J, not from its accumulated generators: the root (f^(p-1) J)^[1/p] does
not depend on the generating set of J, and raw roots would multiply the
generator count by about p^n per step.

star_colon(I) = I : tau equals I^* exactly for ideals of finite projective
dimension and is an upper bound in general.  The I_q chain of
nonincreasing upper approximations and the certified non-membership check
never claim exact tight closure unless both bounds meet.  Each I_q is one
call of the colon engine ``rings.twisted_colon``: its linear-algebra kernel
when tau I^[q] has a homogeneous lift of finite colength, elimination
otherwise.  tau and the test element c are invariants of the ring, not of
the call: every bound reads tau from ``test_ideal``, which caches it on the
ring, and the non-membership check takes c from ``test_element``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import AlgebraError, Polynomial
from .frobenius import bracket_power, frobenius_q, frobenius_root
from .rings import Ideal, RingContext, coprime, twisted_colon


class NoTestElementFound(AlgebraError):
    """The Jacobian heuristic produced no usable test element."""


class NotStabilized(AlgebraError):
    """The test-ideal chain did not stabilize within the iteration cap."""


MAX_CHAIN_STEPS = 30  # cap on the steps of the test-ideal chain
_COMBO_TRIES = 64  # random Jacobian combinations tried for a test element


@dataclass(frozen=True)
class TestIdealResult:
    tau: Ideal
    chain: tuple  # ascending stabilization trace, last two entries equal
    stable_at: int


def test_element(ring: RingContext) -> Polynomial:
    """A test element c from the Jacobian ideal of the hypersurface: c = 1
    for a polynomial ring, else the first of the nonzero partials of f, their
    pairwise sums and ``_COMBO_TRIES`` random combinations that is coprime
    to f, hence nonzero mod f (and in R^0 for reduced f).
    """
    if ring.relation is None:
        return ring.poly.one()
    if not ring.reduced:
        raise NoTestElementFound("hypersurface relation is not reduced")
    f = ring.relation
    partials = [f.derivative(i) for i in range(ring.poly.nvars)]
    partials = [d for d in partials if not d.is_zero()]
    pairs = (a + b for a, b in itertools.combinations(partials, 2))
    rng, p = random.Random(0x7E57), ring.field.p
    drawn = (sum((d.scale(rng.randrange(p)) for d in partials), ring.poly.zero())
             for _ in range(_COMBO_TRIES))
    for c in itertools.chain(partials, pairs, drawn):
        if coprime([c, f]):
            return c
    raise NoTestElementFound("no element of the Jacobian ideal is coprime to f")


def test_ideal(ring: RingContext) -> TestIdealResult:
    """The test ideal tau of the context, cached per ring.

    Polynomial rings are regular, so tau = (1).  For a reduced hypersurface
    the phi-compatible ascending chain from a Jacobian test element is
    iterated in S until it stabilizes; step k roots f^(p-1) times the
    reduced GB of J_k, and J_(k+1) is generated by that GB and the roots.
    """
    if ring._test_ideal is None:
        ring._test_ideal = _test_ideal_chain(ring)
    return ring._test_ideal


def _test_ideal_chain(ring: RingContext) -> TestIdealResult:
    if ring.relation is None:
        tau = Ideal(ring, [ring.poly.one()])
        return TestIdealResult(tau, (tau, tau), 0)
    S = ring.polynomial_ring()
    f = ring.relation
    p = ring.field.p
    c = test_element(ring)
    current = Ideal(S, [c])
    chain = [Ideal(ring, list(current.gens))]
    multiplier = f ** (p - 1)
    stable_at = None
    for k in range(MAX_CHAIN_STEPS):
        scaled = Ideal(S, [multiplier * g for g in current.gb])
        grown = Ideal(S, list(current.gb) + list(frobenius_root(scaled, 1).gens))
        chain.append(Ideal(ring, list(grown.gens)))
        if grown == current:
            stable_at = k
            break
        current = grown
    if stable_at is None:
        raise NotStabilized(f"test-ideal chain open after {MAX_CHAIN_STEPS} iterations")
    return TestIdealResult(Ideal(ring, current.gb), tuple(chain), stable_at)


def star_colon(I: Ideal) -> Ideal:
    """I : tau.  Equals I^* exactly when I has finite projective dimension
    (e.g. parameter ideals); an upper bound for I^* in general."""
    return I.colon(test_ideal(I.ring).tau)


def iq_approx(I: Ideal, e: int) -> Ideal:
    """I_q = {u : u^q tau in tau I^[q]}, the q-th upper approximation.

    With A = tau I^[q], I_q = {u : u^q t in A for each generator t of tau},
    one call of ``rings.twisted_colon``.  When tau is homogeneous and the
    lift of A is homogeneous of finite colength, that is one run of the
    kernel of u -> (NF_A(u^q t))_t, which divides only those products;
    otherwise it is the Frobenius preimage of the colon A : tau.
    """
    tau = test_ideal(I.ring).tau
    return twisted_colon(tau * bracket_power(I, e), tau.gens, frobenius_q(I.ring, e))


@dataclass(frozen=True)
class StarCertificate:
    status: str  # "not_in_star" or "inconclusive"
    witness_e: int | None = None

    @property
    def certified(self) -> bool:
        return self.status == "not_in_star"


def certify_not_in_star(x, I: Ideal, e_max: int = 3) -> StarCertificate:
    """Sound non-membership in I^*: if c x^q lies outside I^[q] for some
    q = p^e with e <= e_max, c the ring's ``test_element``, then x is not
    in I^*.  Never claims membership.
    """
    c = test_element(I.ring)
    for e in range(e_max + 1):
        q = frobenius_q(I.ring, e)
        if not bracket_power(I, e).contains(c * x ** q):
            return StarCertificate("not_in_star", e)
    return StarCertificate("inconclusive")


@dataclass(frozen=True)
class StarApproxReport:
    lower: Ideal
    upper: Ideal

    @property
    def certified(self) -> bool:
        return self.lower == self.upper


def star_approx(I: Ideal, e_max: int = 3) -> StarApproxReport:
    """Two-sided bounds on I^*: upper = I_(p^e_max), lower = I, improved to
    I : tau when I is a complete intersection (finite projective dimension).
    """
    upper = iq_approx(I, e_max)
    lower = I
    try:
        if not I.is_unit() and not I.is_zero() \
                and len(I.minimal_generators()) == I.height():
            lower = star_colon(I)
    except AlgebraError:
        pass
    return StarApproxReport(lower, upper)
