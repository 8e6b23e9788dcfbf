"""Test elements, test ideals of hypersurfaces, and tight-closure bounds.

The test ideal of R = S/(f) is computed by the standard ascending chain:
seed with a Jacobian test element c, iterate J <- J + (f^(p-1) J)^[1/p] in S
until stable, and project.  star_colon(I) = I : tau equals I^* exactly for
ideals of finite projective dimension and is an upper bound in general.
The I_q chain of nonincreasing upper approximations and the certified
non-membership check never claim exact tight closure unless both bounds
meet.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import AlgebraError, Polynomial
from .frobenius import bracket_power, frobenius_q, frobenius_root
from .frobenius import frobenius_preimage
from .groebner import normal_form
from .rings import Ideal, RingContext, poly_gcd


class NoTestElementFound(AlgebraError):
    """The Jacobian heuristic produced no usable test element."""


class NotStabilized(AlgebraError):
    """The test-ideal chain did not stabilize within the iteration cap."""


@dataclass(frozen=True)
class TestElementCertificate:
    c: Polynomial
    source: str  # "jacobian" or "user"
    ring: RingContext


@dataclass(frozen=True)
class TestIdealResult:
    tau: Ideal
    chain: tuple  # ascending stabilization trace, last two entries equal
    stable_at: int


def test_element(ring: RingContext, rng: random.Random | None = None,
                 max_combo_tries: int = 64) -> TestElementCertificate:
    """A test element from the Jacobian ideal of the hypersurface.

    For a polynomial ring the certificate is c = 1.  Otherwise candidates
    are the nonzero partials of f, then small combinations of them; c must
    be nonzero mod f and coprime to f (hence in R^0 for reduced f).
    """
    if ring.relation is None:
        return TestElementCertificate(ring.poly.one(), "jacobian", ring)
    if not ring.reduced:
        raise NoTestElementFound("hypersurface relation is not reduced")
    f = ring.relation
    partials = [f.derivative(i) for i in range(ring.poly.nvars)]
    partials = [d for d in partials if not d.is_zero()]

    def usable(c: Polynomial) -> bool:
        if c.is_zero():
            return False
        if normal_form(c, [f]).is_zero():
            return False
        return poly_gcd(c, f).is_constant()

    for c in partials:
        if usable(c):
            return TestElementCertificate(c, "jacobian", ring)
    for a, b in itertools.combinations(partials, 2):
        if usable(a + b):
            return TestElementCertificate(a + b, "jacobian", ring)
    if rng is None:
        rng = random.Random(0x7E57)
    p = ring.field.p
    for _ in range(max_combo_tries):
        c = ring.poly.zero()
        for d in partials:
            c = c + d.scale(rng.randrange(p))
        if usable(c):
            return TestElementCertificate(c, "jacobian", ring)
    raise NoTestElementFound("no element of the Jacobian ideal is coprime to f")


def user_test_element(ring: RingContext, c) -> TestElementCertificate:
    if isinstance(c, str):
        c = ring.parse(c)
    if c.is_zero() or (ring.relation is not None and normal_form(c, [ring.relation]).is_zero()):
        raise NoTestElementFound("user-supplied element vanishes in R")
    return TestElementCertificate(c, "user", ring)


def test_ideal(ring: RingContext, override: Ideal | None = None,
               max_iters: int = 30) -> TestIdealResult:
    """The test ideal tau of the context, cached per ring.

    Polynomial rings are regular, so tau = (1).  For a reduced hypersurface
    the phi-compatible ascending chain from a Jacobian test element is
    iterated in S until it stabilizes.  ``override`` installs a manual tau
    for rings where the Jacobian heuristic fails.
    """
    if override is not None:
        result = TestIdealResult(override, (override, override), 0)
        ring._test_ideal = result
        return result
    if ring._test_ideal is not None:
        return ring._test_ideal
    if ring.relation is None:
        tau = Ideal(ring, [ring.poly.one()])
        result = TestIdealResult(tau, (tau, tau), 0)
        ring._test_ideal = result
        return result
    S = ring.polynomial_ring()
    f = ring.relation
    p = ring.field.p
    c = test_element(ring).c
    current = Ideal(S, [c])
    chain = [Ideal(ring, list(current.gens))]
    multiplier = f ** (p - 1)
    stable_at = None
    for k in range(max_iters):
        scaled = Ideal(S, [multiplier * g for g in current.gens])
        grown = current + frobenius_root(scaled, 1)
        chain.append(Ideal(ring, list(grown.gens)))
        if grown == current:
            stable_at = k
            break
        current = grown
    if stable_at is None:
        raise NotStabilized(f"test-ideal chain open after {max_iters} iterations")
    tau = Ideal(ring, current.gb)
    result = TestIdealResult(tau, tuple(chain), stable_at)
    ring._test_ideal = result
    return result


def star_colon(I: Ideal, tau: Ideal | None = None) -> Ideal:
    """I : tau.  Equals I^* exactly when I has finite projective dimension
    (e.g. parameter ideals); an upper bound for I^* in general."""
    if tau is None:
        tau = test_ideal(I.ring).tau
    return I.colon(tau)


def iq_approx(I: Ideal, e: int, tau: Ideal | None = None) -> Ideal:
    """I_q = {u : u^q in tau I^[q] : tau}, the q-th upper approximation."""
    if tau is None:
        tau = test_ideal(I.ring).tau
    target = (tau * bracket_power(I, e)).colon(tau)
    if e == 0:
        return target
    return frobenius_preimage(target, e)


@dataclass(frozen=True)
class StarCertificate:
    status: str  # "not_in_star" or "inconclusive"
    witness_e: int | None = None

    @property
    def certified(self) -> bool:
        return self.status == "not_in_star"


def certify_not_in_star(x, I: Ideal,
                        c: TestElementCertificate | None = None,
                        e_max: int = 3) -> StarCertificate:
    """Sound non-membership in I^*: if c x^q lies outside I^[q] for some
    q = p^e with e <= e_max, then x is not in I^*.  Never claims membership.
    """
    if isinstance(x, str):
        x = I.ring.parse(x)
    if c is None:
        c = test_element(I.ring)
    for e in range(e_max + 1):
        q = frobenius_q(I.ring, e)
        if not bracket_power(I, e).contains(c.c * x ** q):
            return StarCertificate("not_in_star", e)
    return StarCertificate("inconclusive")


@dataclass(frozen=True)
class StarApproxReport:
    lower: Ideal
    upper: Ideal
    stabilized: bool
    q0_candidate: int | None
    chain: tuple
    m_primary: bool

    @property
    def certified(self) -> bool:
        return self.lower == self.upper


def star_approx(I: Ideal, e_max: int = 3) -> StarApproxReport:
    """Two-sided bounds on I^*: upper = I_(p^e_max), lower = I, improved to
    I : tau when I is a complete intersection (finite projective dimension).

    ``stabilized`` records I_q = I_pq at the top two levels; q0_candidate is
    the first exponent where the chain repeats.
    """
    tau = test_ideal(I.ring).tau
    chain = [iq_approx(I, e, tau) for e in range(e_max + 1)]
    lower = I
    try:
        if not I.is_unit() and not I.is_zero() \
                and len(I.minimal_generators()) == I.height():
            lower = star_colon(I, tau)
    except AlgebraError:
        pass
    q0 = None
    for e in range(e_max):
        if chain[e] == chain[e + 1]:
            q0 = e
            break
    stabilized = e_max >= 1 and chain[e_max] == chain[e_max - 1]
    return StarApproxReport(lower, chain[e_max], stabilized, q0,
                            tuple(chain), I.is_m_primary())
