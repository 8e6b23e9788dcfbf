"""Buchberger's algorithm, reduced Groebner bases, elimination, dimension.

Reduced bases are canonical for a fixed order, which makes them the ideal
equality oracle used throughout the package.  Pure functions over immutable
inputs; desk-scale inputs only (no F4/F5, no Hilbert-driven variants).

Division pops terms from a heap of ``MonomialOrder.descending_key`` keys, so
each term's order key is computed once, when the term first appears, instead
of rescanning the remaining terms for their maximum at every step.

Colengths are counted column by column: along the variable with the largest
pure-power bound, the standard monomials over each point of the remaining
box form one column, whose height the leads give directly, so the count
walks the staircase's base instead of testing every point of the box.

``colon_by_linear_algebra`` computes A : B for a homogeneous A of finite
colength and homogeneous B (``Ideal.colon`` sends exactly those colons
here; all others are eliminations): S/A is a finite F_p-vector space, so
the colon is a nullspace over A's standard monomials, degree by degree,
in the spirit of FGLM (Faugere, Gianni, Lazard & Mora, J. Symb. Comp. 16,
1993) and Marinari, Moeller & Mora (AAECC 4, 1993).  Its reduced basis is
read off the kernels' row echelon forms and equals ``buchberger``'s.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add, le, sub

from .core import (
    GREVLEX,
    MAX_EXPONENT,
    AlgebraError,
    ExponentOverflow,
    MonomialOrder,
    PolyRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class UnitIdeal(AlgebraError):
    """Raised when an operation needs a proper ideal but got (1)."""


INFINITE = float("inf")


def _reducer(g: Polynomial, lm: tuple):
    """(inverse lead coefficient, tail terms, per-variable slack) of g.

    A multiple g * x^shift stays inside the exponent envelope iff shift is
    at most the slack, MAX_EXPONENT minus g's largest exponent, in every
    variable.
    """
    terms = g.terms
    tail = [(gm, gc) for gm, gc in terms.items() if gm != lm]
    slack = tuple(MAX_EXPONENT - max(col) for col in zip(*terms))
    return g.ring.field.inv(terms[lm]), tail, slack


def _subtract_multiple(work: dict, heap: list, dkey, tail, slack, shift: tuple,
                       factor: int, p: int):
    """work -= factor * x^shift * tail; monomials new to work enter the heap."""
    if not all(map(le, shift, slack)):
        raise ExponentOverflow(f"exponent overflow in a multiple by {shift}")
    for gm, gc in tail:
        t = tuple(map(add, gm, shift))
        s = work.get(t)
        if s is None:
            work[t] = (-factor * gc) % p
            heapq.heappush(heap, (dkey(t), t))
        else:
            s = (s - factor * gc) % p
            if s:
                work[t] = s
            else:
                del work[t]


def _term_heap(work: dict, order: MonomialOrder):
    dkey = order.descending_key
    heap = [(dkey(m), m) for m in work]
    heapq.heapify(heap)
    return heap, dkey


def normal_form(f: Polynomial, basis, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of f under multivariate division by ``basis``.

    normal_form(f, G) == 0 iff f lies in the ideal of G, provided G is a
    Groebner basis for ``order``.  Each step reduces the largest remaining
    term by the first basis element whose lead divides it.
    """
    basis = [g for g in basis if not g.is_zero()]
    if not basis or f.is_zero():
        return f
    ring = f.ring
    p = ring.field.p
    leads = [g.leading_monomial(order) for g in basis]
    reducers = [None] * len(basis)  # prepared on first use
    work = dict(f.terms)
    heap, dkey = _term_heap(work, order)
    remainder: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled after it was pushed
        for i, lm in enumerate(leads):
            if all(map(le, lm, m)):
                r = reducers[i]
                if r is None:
                    r = reducers[i] = _reducer(basis[i], lm)
                lc_inv, tail, slack = r
                _subtract_multiple(work, heap, dkey, tail, slack, tuple(map(sub, m, lm)),
                                   c * lc_inv % p, p)
                break
        else:
            remainder[m] = c
    return Polynomial(ring, remainder)


def _s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf = f.leading_monomial(order)
    lg = g.leading_monomial(order)
    lcm = mono_lcm(lf, lg)
    cf = f.leading_coefficient(order)
    cg = g.leading_coefficient(order)
    field = f.ring.field
    a = f.mul_monomial(mono_div(lcm, lf), field.inv(cf))
    b = g.mul_monomial(mono_div(lcm, lg), field.inv(cg))
    return a - b


def buchberger(gens, order: MonomialOrder = GREVLEX, ring: PolyRing | None = None):
    """Canonical reduced Groebner basis of the ideal generated by ``gens``.

    Returns a list of monic polynomials, auto-reduced and sorted by
    ascending leading monomial.  Deterministic and independent of the
    generator order.  Empty input (or all zero) yields [].
    """
    gens = [g for g in gens if g is not None and not g.is_zero()]
    if not gens:
        return []
    if ring is None:
        ring = gens[0].ring
    # deterministic starting point
    basis = sorted({g.monic(order) for g in gens},
                   key=lambda g: sorted((order.key(m), c) for m, c in g.terms.items()))
    G: list[Polynomial] = []
    leads: list[tuple] = []
    pending: set[tuple] = set()
    heap: list = []

    def add_poly(h: Polynomial):
        j = len(G)
        G.append(h)
        lm = h.leading_monomial(order)
        leads.append(lm)
        for i in range(j):
            lcm = mono_lcm(leads[i], lm)
            pending.add((i, j))
            heapq.heappush(heap, (order.key(lcm), i, j))

    for g in basis:
        g = normal_form(g, G, order)
        if not g.is_zero():
            add_poly(g.monic(order))

    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        li, lj = leads[i], leads[j]
        lcm = mono_lcm(li, lj)
        # product criterion: coprime leads
        if lcm == mono_mul(li, lj):
            continue
        # chain criterion
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(leads[k], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        h = normal_form(_s_polynomial(G[i], G[j], order), G, order)
        if not h.is_zero():
            add_poly(h.monic(order))

    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for i, lm in enumerate(leads):
        if any(mono_divides(leads[j], lm) for j in keep):
            continue
        keep = [j for j in keep if not mono_divides(lm, leads[j])]
        keep.append(i)
    minimal = [G[i] for i in keep]
    # interreduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others, order)
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return reduced


def is_groebner(basis, order: MonomialOrder = GREVLEX) -> bool:
    """Every S-polynomial reduces to zero (used by tests, not hot paths)."""
    for f, g in itertools.combinations(basis, 2):
        if not normal_form(_s_polynomial(f, g, order), basis, order).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Variable remapping and elimination.

def remap_polynomial(f: Polynomial, target: PolyRing, slot_map) -> Polynomial:
    """Move f into ``target``, sending source variable i to slot slot_map[i].

    slot_map[i] may be None only if variable i does not occur in f.
    """
    n = target.nvars
    terms = {}
    for m, c in f.terms.items():
        exps = [0] * n
        for i, e in enumerate(m):
            if e == 0:
                continue
            j = slot_map[i]
            if j is None:
                raise AlgebraError("remap drops a variable that occurs in the polynomial")
            exps[j] = e
        terms[tuple(exps)] = c
    return Polynomial(target, terms)


def eliminate(gens, drop_indices, ring: PolyRing):
    """Generators of ideal(gens) intersected with F_p[kept variables].

    Returns reduced-GB generators as polynomials of ``ring`` with zero
    exponents in the dropped slots (computed with a two-block order).
    """
    drop = sorted(set(drop_indices))
    if not drop:
        return buchberger(gens, GREVLEX, ring)
    n = ring.nvars
    keep = [i for i in range(n) if i not in drop]
    perm = drop + keep  # permuted ring: dropped variables first
    reordered = PolyRing(ring.field, tuple(ring.variables[i] for i in perm))
    slot_of = {src: dst for dst, src in enumerate(perm)}
    fwd = [slot_of[i] for i in range(n)]
    moved = [remap_polynomial(g, reordered, fwd) for g in gens]
    gb = buchberger(moved, MonomialOrder.block(len(drop)), reordered)
    back = [perm[j] for j in range(n)]
    out = []
    for g in gb:
        if all(m[i] == 0 for m in g.terms for i in range(len(drop))):
            out.append(remap_polynomial(g, ring, back))
    return out


def krull_dimension(gb, nvars: int) -> int:
    """Krull dimension of S/I from the reduced GB of I in S.

    Maximal size of a variable subset U with no leading monomial supported
    inside U.  Raises UnitIdeal for the unit ideal.
    """
    if any(g.is_constant() and not g.is_zero() for g in gb):
        raise UnitIdeal("dimension of the zero ring is undefined")
    leads = [g.leading_monomial(GREVLEX) for g in gb]
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    best = 0
    for r in range(nvars, 0, -1):
        for combo in itertools.combinations(range(nvars), r):
            u = set(combo)
            if all(not s <= u for s in supports):
                return r
    return best


def _staircase(gb, nvars: int):
    """Column heights of the staircase of the lead-term ideal of ``gb``.

    ``gb`` is not the unit ideal.  Returns None when some variable has no
    pure power among the leads (infinite colength), else ``(axis, columns)``:
    ``axis`` has the largest pure-power bound b_axis, and ``columns`` lists
    ``(prefix, height)`` for each point ``prefix`` of the box prod(range(b_i))
    with ``axis`` removed, in ``itertools.product`` order.  The standard
    monomials over ``prefix`` have exponent t < height on ``axis``; height
    is the least m[axis] over the leads m whose other exponents divide
    ``prefix``, which the pure power of ``axis`` caps at b_axis.  With no
    variables, ``axis`` is None and the box's one point () is one column.
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
        return None, [((), 1)]
    axis = max(range(nvars), key=lambda i: (bounds[i], i))
    # leads as (exponent on axis, other exponents), lowest cut first
    cuts = sorted((m[axis], m[:axis] + m[axis + 1:]) for m in leads)
    others = bounds[:axis] + bounds[axis + 1:]
    columns = []
    for prefix in itertools.product(*(range(b) for b in others)):
        for height, rest in cuts:
            if mono_divides(rest, prefix):
                break
        columns.append((prefix, height))
    return axis, columns


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


def standard_monomials(gb, nvars: int):
    """All monomials outside the lead-term ideal (finite colength required).

    Sorted ascending as exponent tuples, i.e. in ``itertools.product`` order
    over the box of pure-power bounds.
    """
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return []
    staircase = _staircase(gb, nvars)
    if staircase is None:
        raise AlgebraError("infinite colength: no pure power for some variable")
    axis, columns = staircase
    if axis is None:
        return [()]
    return sorted(prefix[:axis] + (t,) + prefix[axis:]
                  for prefix, height in columns for t in range(height))


# ---------------------------------------------------------------------------
# Colons of zero-dimensional homogeneous ideals by linear algebra.

def _monomials_of_degree(nvars: int, e: int) -> list:
    """Every monomial of degree e, ascending in grevlex."""
    if nvars == 0:
        return [()] if e == 0 else []
    # ascending grevlex within a degree: the last exponent falls first, then
    # the one before it, and so on
    tails = [()]
    for _ in range(nvars - 1):
        tails = [(k,) + t for t in tails for k in range(e - sum(t), -1, -1)]
    return [(e - sum(t),) + t for t in tails]


def _normal_form_table(reducers, standard: set, nvars: int, e: int, p: int) -> dict:
    """Normal form, as {standard monomial: coefficient}, of every degree-e monomial.

    ``reducers`` holds (lead, tail terms) of a homogeneous monic Groebner
    basis.  A non-standard m = x^c * lead(g) has NF(m) = -sum c_t NF(x^c * t)
    over g's tail terms t; each x^c * t is smaller than m, so walking the
    monomials in ascending grevlex finds its normal form already computed.
    """
    table = {}
    for m in _monomials_of_degree(nvars, e):
        if m in standard:
            table[m] = {m: 1}
            continue
        for lm, tail in reducers:
            if all(map(le, lm, m)):
                break
        shift = tuple(map(sub, m, lm))
        acc: dict = {}
        for t, c in tail:
            for s, v in table[tuple(map(add, t, shift))].items():
                acc[s] = acc.get(s, 0) + c * v
        table[m] = {s: -v % p for s, v in acc.items() if v % p}
    return table


def _narrow_kernel(kernel, standard: list, divisors, table: dict, p: int) -> list:
    """Basis of {v in span(kernel) : NF(v * b) = 0 for every b in ``divisors``}.

    Vectors are {standard monomial: coefficient} dicts of one degree d;
    ``kernel`` None stands for all of span(standard).  ``divisors`` are the
    term lists of one degree delta, ``table`` the normal forms of degree
    d + delta.  Sparse Gaussian elimination on the images tracks the row
    combinations; those whose image vanishes span the kernel.
    """
    images = {}
    for u in (standard if kernel is None else {u for v in kernel for u in v}):
        acc: dict = {}
        for j, terms in enumerate(divisors):
            for t, c in terms:
                for s, v in table[tuple(map(add, u, t))].items():
                    key = (j, s)
                    acc[key] = acc.get(key, 0) + c * v
        images[u] = {k: v % p for k, v in acc.items() if v % p}
    if kernel is None:
        kernel = [{u: 1} for u in standard]
    pivots = []  # (pivot key, image with coefficient 1 there, combination)
    narrowed = []
    for vec in kernel:
        image: dict = {}
        for u, c in vec.items():
            _axpy(image, c, images[u], p)
        combo = dict(vec)
        for key, prow, pcombo in pivots:
            f = image.get(key)
            if f:
                _axpy(image, -f, prow, p)
                _axpy(combo, -f, pcombo, p)
        if not image:
            narrowed.append(combo)
            continue
        key, lead = next(iter(image.items()))
        inv = pow(lead, p - 2, p)
        pivots.append((key, {k: w * inv % p for k, w in image.items()},
                       {k: w * inv % p for k, w in combo.items()}))
    return narrowed


def _axpy(y: dict, a: int, x: dict, p: int):
    """y += a * x over F_p, in place, dropping zeros."""
    for k, w in x.items():
        s = (y.get(k, 0) + a * w) % p
        if s:
            y[k] = s
        else:
            y.pop(k, None)


def _rref_rows(vectors, p: int) -> dict:
    """{pivot: row} of the reduced row echelon form of ``vectors``.

    Columns run in grevlex-descending order, so each row's pivot is its
    largest monomial, with coefficient 1, and no other row meets it.
    """
    rows: dict = {}
    for vec in vectors:
        vec = dict(vec)
        for pivot, row in rows.items():
            f = vec.get(pivot)
            if f:
                _axpy(vec, -f, row, p)
        lead = max(vec, key=GREVLEX.key)
        inv = pow(vec[lead], p - 2, p)
        vec = {m: c * inv % p for m, c in vec.items()}
        for row in rows.values():
            f = row.get(lead)
            if f:
                _axpy(row, -f, vec, p)
        rows[lead] = vec
    return rows


def colon_by_linear_algebra(gb, divisors, ring: PolyRing):
    """Reduced grevlex GB of (gb) : (divisors), the list ``buchberger`` returns.

    ``gb`` is the reduced grevlex GB of a homogeneous ideal A of finite
    colength and ``divisors`` are homogeneous; zero divisors are ignored.
    Then A : B = A + K with K spanned by standard monomials of A, and each
    degree d of K is the kernel of u -> (NF(u * b))_b over the standard
    monomials u of degree d, one nullspace per divisor degree.  A divisor
    of degree above A's top standard degree imposes nothing, and a degree
    never narrowed lies wholly in the colon.  The lead ideal of the colon is
    leads(A) + the kernels' RREF pivots, so its reduced GB is read off
    directly: a minimal pivot gives its row, and a minimal lead of g in
    ``gb`` gives g with its pivot tail terms reduced by their rows.
    """
    divisors = [b for b in divisors if not b.is_zero()]
    if not divisors:
        return [ring.one()]
    nvars = ring.nvars
    p = ring.field.p
    standard: dict = {}  # degree -> standard monomials of that degree
    for m in standard_monomials(gb, nvars):
        standard.setdefault(sum(m), []).append(m)
    top = max(standard, default=-1)
    by_degree: dict = {}  # divisor degree -> term lists
    for b in divisors:
        if b.degree() <= top:
            by_degree.setdefault(b.degree(), []).append(list(b.terms.items()))
    reducers = []
    for g in gb:
        lm = g.leading_monomial(GREVLEX)
        reducers.append((lm, [(m, c) for m, c in g.terms.items() if m != lm]))
    kernels: dict = {}  # degree -> narrowed kernel basis; absent: never narrowed
    for e in range(top + 1):
        narrow = [(delta, e - delta) for delta in sorted(by_degree)
                  if e - delta in standard and kernels.get(e - delta) != []]
        if not narrow:
            continue
        table = _normal_form_table(reducers, set(standard[e]), nvars, e, p)
        for delta, d in narrow:
            kernels[d] = _narrow_kernel(kernels.get(d), standard[d], by_degree[delta],
                                        table, p)
    rows: dict = {}  # pivot -> RREF row, over all degrees
    for d, monomials in standard.items():
        if d in kernels:
            rows.update(_rref_rows(kernels[d], p))
        else:
            rows.update((u, {u: 1}) for u in monomials)

    def minimal(m):
        # each m / x_i is standard, so it lies in the colon's lead ideal iff
        # it is a pivot
        return not any(e and m[:i] + (e - 1,) + m[i + 1:] in rows for i, e in enumerate(m))

    out = []
    for lm, tail in reducers:
        if minimal(lm):
            terms = {lm: 1}
            terms.update(tail)
            for t, c in tail:
                row = rows.get(t)
                if row is not None:
                    _axpy(terms, -c, row, p)
            out.append(terms)
    out.extend(row for pivot, row in rows.items() if minimal(pivot))
    gens = [Polynomial(ring, dict(sorted(terms.items(),
                                         key=lambda t: GREVLEX.descending_key(t[0]))))
            for terms in out]
    gens.sort(key=lambda g: GREVLEX.key(g.leading_monomial(GREVLEX)))
    return gens


def divide_exact(f: Polynomial, g: Polynomial):
    """Quotient f/g when g divides f exactly, else None."""
    if g.is_zero():
        return None
    if f.is_zero():
        return f
    order = GREVLEX
    ring = f.ring
    p = ring.field.p
    lg = g.leading_monomial(order)
    cg_inv, tail, slack = _reducer(g, lg)
    work = dict(f.terms)
    heap, dkey = _term_heap(work, order)
    quotient: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        if not all(map(le, lg, m)):
            return None
        shift = tuple(map(sub, m, lg))
        factor = c * cg_inv % p
        quotient[shift] = factor
        _subtract_multiple(work, heap, dkey, tail, slack, shift, factor, p)
    return Polynomial(ring, quotient)
