"""Direct links, delta elements, corner powers, and linkage exploration.

A direct link of an unmixed ideal I is J = a : I for a sampled parameter
ideal a inside I of the same height; corner powers are links of Frobenius
powers, I^<q> = a^[q] : J^[q], and are independent of the choice of a.
Linkage classes can be infinite, so exploration is breadth-first with a
node cap; sums over explored nodes are certified lower bounds for the sum
of the full class.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .core import AlgebraError, Polynomial
from .frobenius import bracket_power, frobenius_q
from .rings import (
    Ideal,
    ParameterSearchFailed,
    extend_to_m_primary,
    find_parameter_ideal,
    is_unmixed,
)


class NotUnmixed(AlgebraError):
    """Linkage operations require unmixed input."""


class WellDefinednessViolation(AlgebraError):
    """Corner-power candidates from distinct parameter ideals disagreed."""


class DeltaNotFound(AlgebraError):
    """The cyclic-generator search for delta exhausted its width.

    Soft failure: the mapping-cone lemma guarantees delta exists, but the
    search width is bounded; the inputs are carried for logging.
    """

    def __init__(self, a: Ideal, b: Ideal):
        super().__init__(f"no delta found for {a!r} : {b!r}")
        self.a = a
        self.b = b


@dataclass
class LinkageEdge:
    src: int
    dst: int
    linking: Ideal
    verified: bool


@dataclass
class LinkageRecord:
    """A sampled portion of a linkage class: nodes, verified double links,
    and the root the exploration started from."""

    root: Ideal
    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    capped: bool = False
    flags: dict = field(default_factory=dict)

    def node_index(self, I: Ideal) -> int:
        key = I.key()
        for i, node in enumerate(self.nodes):
            if node.key() == key:
                return i
        self.nodes.append(I)
        return len(self.nodes) - 1

    def to_json(self) -> dict:
        return {
            "nodes": [node.gb_strings() for node in self.nodes],
            "edges": [
                {"from": e.src, "to": e.dst,
                 "a": e.linking.gb_strings(), "verified": e.verified}
                for e in self.edges
            ],
            "flags": dict(self.flags, capped=self.capped),
        }


def direct_link(I: Ideal, a: Ideal | None = None,
                rng: random.Random | None = None, max_tries: int = 24,
                check_unmixed: bool = True):
    """One direct link: J = a : I with the double link a : J = I verified.

    ``a`` is sampled via find_parameter_ideal when not given; the degenerate
    link J = (1) (a = I) is rejected by resampling with a degree bump.
    Returns (J, a).
    """
    if rng is None:
        rng = random.Random(0x11A15E)
    if check_unmixed and not is_unmixed(I, rng):
        raise NotUnmixed(f"{I!r} is not unmixed")
    g = I.height()
    for trial in range(max_tries):
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


def link_delta(a: Ideal, b: Ideal, max_pair_combos: int = 200) -> Polynomial:
    """delta with a : b = (a, delta) and a : delta = b, for nested parameter
    ideals a inside b of the same height.

    Resolution-free: scans colon generators reduced mod a, then small F_p
    combinations, verifying both identities before returning.
    """
    if not b.contains_ideal(a):
        raise AlgebraError("need a contained in b")
    c = a.colon(b)
    if c.is_unit():
        return a.ring.poly.one()

    def verify(delta: Polynomial) -> bool:
        if delta.is_zero():
            return False
        if Ideal(a.ring, list(a.gens) + [delta]) != c:
            return False
        return a.colon(Ideal(a.ring, [delta])) == b

    candidates = []
    seen = set()
    for g in c.gb:
        r = a.reduce(g)
        if not r.is_zero() and r.canonical_terms() not in seen:
            seen.add(r.canonical_terms())
            candidates.append(r)
    for delta in candidates:
        if verify(delta):
            return delta
    p = a.ring.field.p
    combos = 0
    for u, v in itertools.combinations(candidates, 2):
        for s in range(1, p):
            combos += 1
            if combos > max_pair_combos:
                raise DeltaNotFound(a, b)
            delta = u + v.scale(s)
            if verify(delta):
                return delta
    raise DeltaNotFound(a, b)


@dataclass(frozen=True)
class CornerPowerResult:
    value: Ideal
    q: int
    witnesses: tuple  # (a, J, candidate) triples; all candidates agree


def corner_power(I: Ideal, e: int, samples: int = 2,
                 rng: random.Random | None = None,
                 check_unmixed: bool = False) -> CornerPowerResult:
    """I^<q> = a^[q] : J^[q] with J = a : I, cross-checked over ``samples``
    independently sampled parameter ideals a.

    Disagreement between samples raises WellDefinednessViolation (an
    implementation bug or non-unmixed input).
    """
    if rng is None:
        rng = random.Random(0xC02E2)
    if check_unmixed and not is_unmixed(I, rng):
        raise NotUnmixed(f"{I!r} is not unmixed")
    q = frobenius_q(I.ring, e)
    witnesses = []
    for _ in range(max(1, samples)):
        a = find_parameter_ideal(I, rng)
        J = a.colon(I)
        candidate = bracket_power(a, e).colon(bracket_power(J, e))
        witnesses.append((a, J, candidate))
    value = witnesses[0][2]
    for _, _, other in witnesses[1:]:
        if other != value:
            raise WellDefinednessViolation(
                f"corner power of {I!r} at q={q} depends on the sample")
    if not value.contains_ideal(bracket_power(I, e)):
        raise AlgebraError("corner power lost the bracket-power containment")
    return CornerPowerResult(value, q, tuple(witnesses))


def tilde_approx(I: Ideal, depth: int = 2, samples_per_node: int = 3,
                 rng: random.Random | None = None, max_nodes: int = 64):
    """Bounded breadth-first linkage exploration from I.

    Returns (sum of all discovered node ideals, LinkageRecord).  The sum is
    a certified lower bound for the sum of the full linkage class; the
    record flags whether it is m-primary and whether it sits inside I.
    """
    if rng is None:
        rng = random.Random(0x71DE)
    record = LinkageRecord(root=I)
    record.node_index(I)
    frontier = [I]
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            for _ in range(samples_per_node):
                if len(record.nodes) >= max_nodes:
                    record.capped = True
                    break
                try:
                    J, a = direct_link(node, rng=rng, check_unmixed=False)
                except (ParameterSearchFailed, AlgebraError):
                    continue
                known = len(record.nodes)
                j = record.node_index(J)
                i = record.node_index(node)
                record.edges.append(LinkageEdge(i, j, a, True))
                if j >= known:
                    next_frontier.append(J)
        frontier = next_frontier
        if record.capped or not frontier:
            break
    gens = []
    for node in record.nodes:
        gens.extend(node.gens)
    total = Ideal(I.ring, gens)
    record.flags = {
        "m_primary": total.is_m_primary(),
        "contained_in_root": I.contains_ideal(total),
        "capped": record.capped,
    }
    return total, record


def m_primary_link_lift(I: Ideal, chain, t: int,
                        rng: random.Random | None = None):
    """J_t = (a_n, x^t) : (... ((a_1, x^t) : (I, x^t))) for a linkage chain
    a_1..a_n from I, where x is a system of parameters modulo a common
    parameter ideal b inside the intersection of the a_i.

    Verifies J (the untruncated end of the chain) sits inside J_t and that
    (I, x^t) is m-primary; returns J_t.
    """
    if rng is None:
        rng = random.Random(0x117F7)
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

    lifted = adjoin(I)
    if not lifted.is_m_primary():
        raise AlgebraError("(I, x^t) is not m-primary")
    current_t = lifted
    current = I
    for a in chain:
        current_t = adjoin(a).colon(current_t)
        current = a.colon(current)
    if not current_t.contains_ideal(current):
        raise AlgebraError("J is not contained in J_t")
    return current_t
