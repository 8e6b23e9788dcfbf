import inspect
import itertools
import random

import pytest

from charp import singularity
from charp.core import Polynomial
from charp.frobenius import _root_of_polynomial, bracket_power, frobenius_root
from charp.rings import Ideal, RingContext, find_parameter_ideal
from charp.singularity import (
    NoTestElementFound,
    certify_not_in_star,
    iq_approx,
    star_approx,
    star_colon,
)
from charp.singularity import test_element as compute_test_element
from charp.singularity import test_ideal as compute_test_ideal


@pytest.fixture
def fermat2():
    return RingContext(2, ["x", "y", "z"], "x^3+y^3+z^3")


@pytest.fixture
def poly2():
    return RingContext(2, ["x", "y"])


class TestTestElement:
    def test_polynomial_ring_gets_unit(self, poly2):
        assert compute_test_element(poly2) == poly2.poly.one()

    def test_fermat_gets_jacobian_partial(self, fermat2):
        c = compute_test_element(fermat2)
        assert not c.is_zero()
        # the element survives in R and is coprime to the relation
        assert not fermat2.zero_ideal().contains(c)

    def test_non_reduced_relation_fails(self):
        ring = RingContext(3, ["x", "y"], "x^2")
        with pytest.raises(NoTestElementFound):
            compute_test_element(ring)


class TestTestIdeal:
    def test_fermat_cubic_tau_is_m(self, fermat2):
        result = compute_test_ideal(fermat2)
        assert result.tau == fermat2.maximal_ideal()

    def test_fermat_cubic_tau_is_m_char_5(self):
        ring = RingContext(5, ["x", "y", "z"], "x^3+y^3+z^3")
        assert compute_test_ideal(ring).tau == ring.maximal_ideal()

    def test_chain_is_ascending_and_stable(self, fermat2):
        result = compute_test_ideal(fermat2)
        chain = result.chain
        for earlier, later in zip(chain, chain[1:]):
            assert later.contains_ideal(earlier)
        assert chain[-1] == chain[-2]

    def test_chain_keeps_each_entry(self, fermat2, monkeypatch):
        # x lies in tau = m, so it is a test element; the root of f * x is
        # (x^2, y, z), which misses x, so the chain (x) -> m -> m ascends
        # only because J_(k+1) keeps the generators of J_k
        monkeypatch.setattr(singularity, "test_element", lambda ring: ring.parse("x"))
        result = compute_test_ideal(fermat2)
        assert result.chain[0] == fermat2.ideal("x")
        for earlier, later in zip(result.chain, result.chain[1:]):
            assert later.contains_ideal(earlier)
        assert result.tau == fermat2.maximal_ideal()

    def test_chain_roots_once_per_scalar_class(self, monkeypatch):
        # at p = 23 the chain roots f^22 times a basis of J_k: 276 and then
        # 828 raw roots, of which at most 9 differ by more than a scalar
        steps = []

        def spy(J, e):
            root = frobenius_root(J, e)
            steps.append((sum(len(_root_of_polynomial(g, 23)) for g in J.gens),
                          len(root.gens)))
            return root
        monkeypatch.setattr(singularity, "frobenius_root", spy)
        ring = RingContext(23, ["x", "y", "z"], "x^3+y^3+z^3")
        assert compute_test_ideal(ring).tau == ring.maximal_ideal()
        assert [raw for raw, _ in steps] == [276, 828]
        assert all(kept <= 9 for _, kept in steps)

    def test_polynomial_ring_tau_is_unit(self, poly2):
        assert compute_test_ideal(poly2).tau.is_unit()

    def test_cached_per_ring(self, fermat2):
        assert compute_test_ideal(fermat2) is compute_test_ideal(fermat2)

    def test_phi_compatibility(self, fermat2):
        # tau is a fixed point: (f^(p-1) tau)^[1/p] ⊆ tau (computed in S)
        S = fermat2.polynomial_ring()
        tau_S = Ideal(S, list(compute_test_ideal(fermat2).tau.gens))
        f = fermat2.relation
        scaled = Ideal(S, [f * g for g in tau_S.gens])  # p = 2: f^(p-1) = f
        root = frobenius_root(scaled, 1)
        assert Ideal(fermat2, list(tau_S.gens)) .contains_ideal(
            Ideal(fermat2, list(root.gens)))


def raw_chain(ring, c, max_iters=30):
    """Reference chain J <- J + (f^(p-1) J)^[1/p] from J_0 = (c) that roots
    every generator J has accumulated, not its reduced GB.

    Returns (chain, stable_at, tau) in the shape of ``TestIdealResult``.
    """
    S = ring.polynomial_ring()
    multiplier = ring.relation ** (ring.field.p - 1)
    current = Ideal(S, [c])
    chain = [Ideal(ring, list(current.gens))]
    for k in range(max_iters):
        scaled = Ideal(S, [multiplier * g for g in current.gens])
        grown = current + frobenius_root(scaled, 1)
        chain.append(Ideal(ring, list(grown.gens)))
        if grown == current:
            return chain, k, Ideal(ring, current.gb)
        current = grown
    raise AssertionError(f"reference chain open after {max_iters} iterations")


def monomials_of_degree(ring, d):
    n = ring.poly.nvars
    return [Polynomial(ring.poly, {m: 1})
            for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]


def xyz_ring(p, relation):
    return RingContext(p, ["x", "y", "z"], relation)


CUBIC = "x^3+y^3+z^3"
QUARTIC = "x^4+y^4+z^4"
QUINTIC = "x^5+y^5+z^5"


class TestTestIdealKnownValues:
    """tau of cones over smooth plane curves of degree d is m^(d-2) for
    p >> 0 (Huneke & Smith, J. reine angew. Math. 484 (1997)); the p = 2
    quintic, the cubic threefold and xy - zw are computed values."""

    @pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23])
    def test_fermat_cubic_tau_is_m(self, p):
        ring = xyz_ring(p, CUBIC)
        assert compute_test_ideal(ring).tau == ring.maximal_ideal()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_quartic_tau_is_m_squared(self, p):
        ring = xyz_ring(p, QUARTIC)
        tau = compute_test_ideal(ring).tau
        assert tau == Ideal(ring, monomials_of_degree(ring, 2))
        assert tau.colength() == 4

    def test_quintic_char_3_tau_is_m_cubed(self):
        ring = xyz_ring(3, QUINTIC)
        assert compute_test_ideal(ring).tau == Ideal(ring, monomials_of_degree(ring, 3))

    def test_quintic_char_2_tau_misses_xyz(self):
        ring = xyz_ring(2, QUINTIC)
        xyz = ring.parse("x*y*z")
        cubics = [g for g in monomials_of_degree(ring, 3) if g != xyz]
        tau = compute_test_ideal(ring).tau
        assert len(cubics) == 9
        assert tau == Ideal(ring, cubics)
        assert tau.colength() == 11

    def test_cubic_threefold_char_2_tau_is_m(self):
        ring = RingContext(2, ["x", "y", "z", "w"], "x^3+y^3+z^3+w^3")
        assert compute_test_ideal(ring).tau == ring.maximal_ideal()

    def test_quadric_cone_is_f_regular(self):
        ring = RingContext(3, ["x", "y", "z", "w"], "x*y-z*w")
        assert compute_test_ideal(ring).tau.is_unit()


FERMAT_CELLS = [(n, d, p) for n in (3, 4) for d in (3, 4, 5)
                for p in (2, 3, 5, 7, 11, 13) if d % p]

# (n, d, p) -> l(R/tau) where tau is strictly inside m^(a+1), or inside R
# when a + 1 <= 0: the p = 2 quintic curve (the nine cubics other than
# xyz), the p = 2 cubic surface (tau = m), the p = 3 quartic surface
# (tau = m^2) and the quintic surface at p = 2 and 3
FERMAT_STRICT = {(3, 5, 2): 11, (4, 3, 2): 1, (4, 4, 3): 5, (4, 5, 2): 20, (4, 5, 3): 9}


def fermat_ring(n, d, p):
    names = ["x", "y", "z", "w"][:n]
    return RingContext(p, names, "+".join(f"{v}^{d}" for v in names))


def f_pure(ring):
    """Fedder's criterion in S: f^(p-1) is not in m^[p]."""
    S, p = ring.polynomial_ring(), ring.field.p
    return not Ideal(S, [v ** p for v in S.maximal_ideal().gens]).contains(
        ring.relation ** (p - 1))


class TestFermatTable:
    """R = S/(f) for f = x_1^d + ... + x_n^d, with a-invariant a = d - n.
    tau = Ann_R 0^* lies in R_(>= a+1), with equality for p >> 0 on an
    isolated singularity (Huneke & Smith, J. reine angew. Math. 484 (1997);
    Hara, Trans. AMS 353 (2001)); R is F-pure exactly when f^(p-1) is not
    in m^[p] (Fedder, Trans. AMS 278 (1983))."""

    def test_cells(self):
        assert len(FERMAT_CELLS) == 30
        assert set(FERMAT_STRICT) <= set(FERMAT_CELLS)

    @pytest.mark.parametrize("n, d, p", FERMAT_CELLS)
    def test_tau_against_the_a_invariant(self, n, d, p):
        ring = fermat_ring(n, d, p)
        tau = compute_test_ideal(ring).tau
        bound = Ideal(ring, monomials_of_degree(ring, max(0, d - n + 1)))
        assert bound.contains_ideal(tau)
        if (n, d, p) in FERMAT_STRICT:
            assert tau != bound
            assert tau.colength() == FERMAT_STRICT[n, d, p]
        else:
            assert tau == bound

    @pytest.mark.parametrize("n, d, p", FERMAT_CELLS)
    def test_fedder_criterion_closed_form(self, n, d, p):
        # f^(p-1) is a sum of multinomial terms x^(d k) with |k| = p - 1,
        # each coefficient nonzero mod p; x^(d k) misses m^[p] exactly when
        # every d k_i < p, and such a k exists iff n floor((p-1)/d) >= p - 1
        assert f_pure(fermat_ring(n, d, p)) == (n * ((p - 1) // d) >= p - 1)

    @pytest.mark.parametrize("n, d, primes", [(3, 3, [7, 13]), (4, 4, [5, 13])],
                             ids=["cubic-curve", "quartic-surface"])
    def test_f_pure_primes_are_one_mod_d(self, n, d, primes):
        cells = [p for n_, d_, p in FERMAT_CELLS if (n_, d_) == (n, d)]
        assert [p for p in cells if f_pure(fermat_ring(n, d, p))] == primes
        assert primes == [p for p in cells if p % d == 1]


CHAIN_RINGS = [(2, CUBIC), (5, CUBIC), (3, QUARTIC), (2, QUINTIC)]


class TestTestIdealAgainstRawChain:
    @pytest.mark.parametrize("p, relation", CHAIN_RINGS)
    def test_same_chain_step_by_step(self, p, relation):
        ring = xyz_ring(p, relation)
        chain, stable_at, tau = raw_chain(ring, compute_test_element(ring))
        result = compute_test_ideal(ring)
        assert result.chain == tuple(chain)
        assert result.stable_at == stable_at
        assert result.tau == tau

    @pytest.mark.parametrize("p, relation", CHAIN_RINGS + [(3, QUINTIC)])
    def test_every_jacobian_start_reaches_tau(self, p, relation):
        ring = xyz_ring(p, relation)
        tau = compute_test_ideal(ring).tau
        f = ring.relation
        partials = [f.derivative(i) for i in range(3)]
        starts = [d for d in partials if not d.is_zero()]
        rng = random.Random(p)
        linear = monomials_of_degree(ring, 1)
        # four random sums r_i * df/dx_i with r_i of degree at most 1
        while len(starts) < len(partials) + 4:
            c = ring.poly.zero()
            for d in partials:
                r = ring.poly.const(rng.randrange(p))
                for v in linear:
                    r = r + v.scale(rng.randrange(p))
                c = c + r * d
            if not ring.zero_ideal().contains(c):
                starts.append(c)
        for c in starts:
            assert raw_chain(ring, c)[2] == tau, f"start {c}"

    def test_generator_count_follows_the_basis(self):
        # each step roots |GB(J_k)| polynomials into at most p^3 pieces each
        p = 23
        ring = xyz_ring(p, CUBIC)
        S = ring.polynomial_ring()
        chain = compute_test_ideal(ring).chain
        for before, entry in zip(chain, chain[1:]):
            basis = Ideal(S, list(before.gens)).gb
            assert len(entry.gens) <= len(basis) * (1 + p ** 3)


class TestStarColon:
    def test_known_parameter_value(self, fermat2):
        # (x, y) : tau = (x, y, z^2) in the Fermat cubic over F_2
        a = fermat2.ideal("x", "y")
        assert star_colon(a) == fermat2.ideal("x", "y", "z^2")

    def test_contains_ideal_itself(self, fermat2):
        for gens in (["x", "y"], ["x^2", "y^2"]):
            I = fermat2.ideal(*gens)
            assert star_colon(I).contains_ideal(I)

    def test_regular_ring_identity(self, poly2):
        I = poly2.ideal("x^2", "y")
        assert star_colon(I) == I


class TestIqChain:
    def test_nonincreasing(self, fermat2):
        for gens in (["x", "y"], ["x", "y", "z"]):
            I = fermat2.ideal(*gens)
            chain = [iq_approx(I, e) for e in range(4)]
            for big, small in zip(chain, chain[1:]):
                assert big.contains_ideal(small)

    def test_lower_bound_for_parameter(self, fermat2):
        a = fermat2.ideal("x", "y")
        star = star_colon(a)
        for e in range(4):
            assert iq_approx(a, e).contains_ideal(star)

    def test_contains_ideal_at_every_level(self, fermat2):
        I = fermat2.ideal("x^2", "y^2", "z^2")
        for e in range(3):
            assert iq_approx(I, e).contains_ideal(I)


class TestCertification:
    def test_certifies_non_membership(self, fermat2):
        # z is not in (x, y)^* = (x, y, z^2)
        cert = certify_not_in_star(fermat2.parse("z"), fermat2.ideal("x", "y"))
        assert cert.certified
        assert cert.witness_e is not None

    def test_inconclusive_for_closure_element(self, fermat2):
        # z^2 IS in (x, y)^*, so no certificate can exist
        cert = certify_not_in_star(fermat2.parse("z^2"), fermat2.ideal("x", "y"))
        assert not cert.certified
        assert cert.status == "inconclusive"

    def test_member_is_never_certified(self, fermat2):
        cert = certify_not_in_star(fermat2.parse("x"), fermat2.ideal("x", "y"))
        assert not cert.certified


class TestStarApprox:
    def test_parameter_two_sided(self, fermat2):
        a = fermat2.ideal("x", "y")
        report = star_approx(a, 3)
        assert report.upper.contains_ideal(report.lower)
        assert report.lower == star_colon(a)
        if report.certified:
            assert report.lower == report.upper

    def test_certified_closure_for_known_parameter(self, fermat2):
        # both bounds meet at (x, y, z^2)
        report = star_approx(fermat2.ideal("x", "y"), 3)
        assert report.certified
        assert report.upper == fermat2.ideal("x", "y", "z^2")

    def test_upper_is_last_approximation(self, fermat2):
        I = fermat2.ideal("x", "y")
        assert star_approx(I, 2).upper == iq_approx(I, 2)


@pytest.mark.parametrize("function", [iq_approx, star_colon, certify_not_in_star])
def test_bounds_read_tau_and_c_from_the_ring(function):
    assert not {"tau", "c"} & set(inspect.signature(function).parameters)
