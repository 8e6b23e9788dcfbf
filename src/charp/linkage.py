"""Direct links, delta elements, corner powers, and linkage exploration.

A direct link of an unmixed ideal I is J = a : I for a sampled parameter
ideal a inside I of the same height; corner powers are links of Frobenius
powers, I^<q> = a^[q] : J^[q], and are independent of the choice of a.
Linkage classes can be infinite, so exploration is breadth-first with a
node cap; sums over explored nodes are certified lower bounds for the sum
of the full class.

For nested parameter ideals a = M * b of one height, a : b = (a, det M)
(Northcott, Math. Ann. 150, 1963): ``link_delta`` reads delta off M.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import GREVLEX, AlgebraError, Polynomial
from .frobenius import bracket_power, frobenius_q
from .groebner import _exponents, _to_keys
from .quotient import _fields, _keys_of_degree, _narrow, _width
from .rings import (
    Ideal,
    ParameterSearchFailed,
    extend_to_m_primary,
    find_parameter_ideal,
    is_unmixed,
)

_MAX_LINK_TRIES = 24  # parameter ideals ``direct_link`` samples at most
_MAX_NODES = 64  # node cap of a ``tilde_approx`` exploration


class NotUnmixed(AlgebraError):
    """Linkage operations require unmixed input."""


class WellDefinednessViolation(AlgebraError):
    """Corner-power candidates from distinct parameter ideals disagreed."""


@dataclass
class LinkageRecord:
    """A sampled portion of a linkage class: its distinct nodes, root first,
    and whether the node cap stopped the exploration."""

    nodes: list
    capped: bool = False


def direct_link(I: Ideal, a: Ideal | None = None, *, rng: random.Random,
                check_unmixed: bool = True):
    """One direct link: J = a : I with the double link a : J = I verified.

    ``a`` is sampled via find_parameter_ideal when not given; the degenerate
    link J = (1) (a = I) is rejected by resampling with a degree bump.
    Returns (J, a).
    """
    if check_unmixed and not is_unmixed(I, rng):
        raise NotUnmixed(f"{I!r} is not unmixed")
    g = I.height()
    for trial in range(_MAX_LINK_TRIES):
        if a is None:
            # raise the degree floor on retries so principal ideals do not
            # keep sampling I itself
            cand = find_parameter_ideal(I, rng, min_bump=min(trial, 2))
        else:
            cand = a
        J = cand.colon(I)
        if not J.is_unit():
            back = cand.colon(J)
            if back != I:
                raise AlgebraError("double-link verification failed on unmixed input")
            return J, cand
        if a is not None:
            # caller pinned a = I: deepen it once via generator products
            a = Ideal(I.ring, [x * y for x, y in zip(a.gens, cand.gens)])
            if a.is_zero() or a.height() != g:
                a = None
            continue
    raise ParameterSearchFailed("every sampled parameter ideal equalled I")


def _lift(f: Polynomial, b: Ideal) -> list:
    """Row c of M with f = sum c_j * b_j modulo the relation, for homogeneous f.
    In degree deg f, the kernel of the columns u * g (g among b's generators
    and the relation) and f, the last, packed over the monomials of degree
    deg f, has one vector through f's column: 1 there, and the coefficients
    of -c_j on the columns of b_j."""
    ring = b.ring.poly
    p, w, units = ring.field.p, _width(ring.field.p), GREVLEX.units(ring.nvars)
    gens = b.lift_gens()
    keys = [_to_keys(g, GREVLEX) for g in gens + [f]]
    index = {k: i for i, k in enumerate(_keys_of_degree(units, f.degree()))}
    columns = [(j, u) for j, g in enumerate(gens)
               for u in _keys_of_degree(units, f.degree() - g.degree())]
    columns.append((len(gens), 0))  # f's own column, the last
    packed = [sum(c << index[t + u] * w for t, c in keys[j].items()) for j, u in columns]
    kernel = _narrow(None, len(packed), packed.__getitem__, p)
    if not kernel or not kernel[-1] >> (len(columns) - 1) * w:
        raise AlgebraError("need a contained in b")
    vec, exponents = dict(_fields(kernel[-1], w)), _exponents(ring.nvars)
    return [ring.from_terms((exponents(u), -vec.get(i, 0))
                            for i, (k, u) in enumerate(columns) if k == j)
            for j in range(len(b.gens))]


def _det(M, ring) -> Polynomial:
    """Determinant by cofactor expansion along the first row."""
    if not M:
        return ring.one()
    det = ring.zero()
    for j, entry in enumerate(M[0]):
        term = entry * _det([row[:j] + row[j + 1:] for row in M[1:]], ring)
        det = det - term if j % 2 else det + term
    return det


def link_delta(a: Ideal, b: Ideal) -> Polynomial:
    """delta with a : b = (a, delta) and a : delta = b, for nested parameter
    ideals a inside b of the same height and homogeneous generators.

    Northcott's closed form: with a = M * b, each generator of a lifted
    over b's generators, delta is NF_a(det M), made monic.
    """
    if len(a.gens) != len(b.gens):
        raise AlgebraError("need as many generators in a as in b")
    if not all(f.is_homogeneous() for f in a.gens + b.gens):
        raise AlgebraError("link_delta needs homogeneous generators")
    M = [_lift(f, b) for f in a.gens]
    delta = a.reduce(_det(M, a.ring.poly))
    if delta.is_zero():
        raise AlgebraError("det M lies in a: not parameter ideals of one height")
    return delta.monic()


def corner_power(I: Ideal, e: int, samples: int = 2, *, rng: random.Random) -> Ideal:
    """I^<q> = a^[q] : J^[q] with J = a : I, cross-checked over ``samples``
    independently sampled parameter ideals a.

    Disagreement between samples raises WellDefinednessViolation (an
    implementation bug or non-unmixed input).
    """
    q = frobenius_q(I.ring, e)
    candidates = []
    for _ in range(max(1, samples)):
        a = find_parameter_ideal(I, rng)
        J = a.colon(I)
        candidates.append(bracket_power(a, e).colon(bracket_power(J, e)))
    value = candidates[0]
    if any(other != value for other in candidates[1:]):
        raise WellDefinednessViolation(
            f"corner power of {I!r} at q={q} depends on the sample")
    if not value.contains_ideal(bracket_power(I, e)):
        raise AlgebraError("corner power lost the bracket-power containment")
    return value


def tilde_approx(I: Ideal, depth: int = 2, samples_per_node: int = 3, *,
                 rng: random.Random):
    """Bounded breadth-first linkage exploration from I.

    Returns (sum of all discovered node ideals, LinkageRecord).  The sum is
    a certified lower bound for the sum of the full linkage class.
    """
    record = LinkageRecord(nodes=[I])
    seen = {I.key()}
    frontier = [I]
    for _ in range(depth):
        known = len(record.nodes)
        for node in frontier:
            for _ in range(samples_per_node):
                if len(record.nodes) >= _MAX_NODES:
                    record.capped = True
                    break
                try:
                    J, _ = direct_link(node, rng=rng, check_unmixed=False)
                except AlgebraError:
                    continue
                if J.key() not in seen:
                    seen.add(J.key())
                    record.nodes.append(J)
        frontier = record.nodes[known:]
        if record.capped or not frontier:
            break
    return Ideal(I.ring, [g for node in record.nodes for g in node.gens]), record


def m_primary_link_lift(I: Ideal, chain, t: int, rng: random.Random):
    """J_t = (a_n, x^t) : (... ((a_1, x^t) : (I, x^t))) for a linkage chain
    a_1..a_n from I, where x is a system of parameters modulo a common
    parameter ideal b inside the intersection of the a_i.

    Verifies that (I, x^t) is m-primary and returns J_t.  That J_t contains
    J = a_n : (... (a_1 : I)), the untruncated end of the chain, is left to
    the caller, which holds J already (the ``linkage-lift`` suite checks it).
    """
    chain = list(chain)
    if not chain:
        raise AlgebraError("need a nonempty linkage chain")
    ring = I.ring
    g = I.height()
    if g >= ring.dim:
        # already m-primary: empty x, J_t = J
        xs = []
    else:
        common = chain[0]
        for a in chain[1:]:
            common = common.intersect(a)
        b = find_parameter_ideal(common, rng, height=g)
        xs = extend_to_m_primary(b, rng)
    xt = [x ** t for x in xs]

    def adjoin(A: Ideal) -> Ideal:
        return Ideal(ring, list(A.gens) + xt)

    current = adjoin(I)
    if not current.is_m_primary():
        raise AlgebraError("(I, x^t) is not m-primary")
    for a in chain:
        current = adjoin(a).colon(current)
    return current
