"""Colons of homogeneous ideals of finite colength, by linear algebra.

``frobenius_colon`` computes {u : u^q * B in A} for a homogeneous A of
finite colength and homogeneous B: the colon A : B at q = 1, the Frobenius
preimage {u : u^q in A} at B = (1), and the approximation I_q at
A = tau * I^[q], B = tau.  It is the first engine of ``rings.twisted_colon``,
which falls back to elimination for every other A and B.  S/A is a finite
F_p-vector space and u - NF(u) lies in A, so the result is A plus, in each
degree d, the kernel of the F_p-linear map u -> (NF(u^q * b))_b over A's
standard monomials u of degree d (Marinari, Moeller & Mora, AAECC 4, 1993).
Its reduced basis is read off the kernels, which come out in reduced row
echelon form, and equals ``buchberger``'s.

At q = 1 the images come from border tables, NF(x_i * s) for the standard
s of each degree, the multiplication tables of Faugere, Gianni, Lazard &
Mora (J. Symb. Comp. 16, 1993): the row of x_i * u' * b is x_i times that
of u' * b, starting from NF(b).  For q > 1, ``_Quotient.image`` divides
each product u^q * b by A's basis with ``groebner._divide``, the one
division loop, since the kernel reads no other monomial of degree
q * d + deg b.

Rows are ints with one field per standard monomial, and monomials are the
grevlex keys that ``groebner`` divides with: multiplying monomials is one
integer addition, u^q one multiplication, and the degree of k is
-(k >> 32n).  Over F_2 a field is one bit and rows add by XOR (the M4RI idea
of Albrecht & Bard); over odd p, fields of ``_width`` bits take y + c * x in
one addition and one multiplication, as in Harvey's Kronecker packing
(J. Symb. Comp. 44, 2009), and ``_normaliser`` brings them back below p.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import or_

from .core import GREVLEX, PolyRing
from .groebner import _divide, _from_keys, _guard, _staircase, _to_keys, packed_basis


def _keys_of_degree(units, e: int) -> list:
    """The keys under the grevlex ``units`` of every monomial of degree e,
    descending, so ascending in grevlex; none when e < 0."""
    if not units or e < 0:
        return [0] if e == 0 else []
    # ascending grevlex within a degree: the last exponent falls first, then
    # the one before it, and so on; (key, degree left) of each tail
    tails = [(0, e)]
    for u in reversed(units[1:]):
        tails = [(k + j * u, left - j) for k, left in tails for j in range(left, -1, -1)]
    return [k + left * units[0] for k, left in tails]


def _width(p: int) -> int:
    """Bits per field of a packed row over F_p: 1 at p = 2, where rows add by
    XOR; else bitlen(p(p - 1)) + 1, so y + c * x <= p(p - 1) keeps its top bit 0."""
    return 1 if p == 2 else (p * (p - 1)).bit_length() + 1


def _fields(v: int, b: int):
    """(index, value) of each nonzero b-bit field of v, lowest first."""
    mask = (1 << b) - 1
    while v:
        i = ((v & -v).bit_length() - 1) // b
        c = v >> i * b & mask
        yield i, c
        v ^= c << i * b


def _bits(v: int):
    """Indices of the set bits of v, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _normaliser(p: int, fields: int):
    """z -> z with each of its first ``fields`` fields reduced mod p, for odd
    p and a packed z whose fields hold at most p(p - 1).

    Adding 2^(b-1) - s to every field sets a field's top bit iff the field
    is at least s, and carries into no neighbour, since both summands are
    below 2^(b-1); subtracting s from the flagged fields, for s = p * 2^j
    from the largest one at most p(p - 1) down to p, leaves each below p.
    """
    b = _width(p)
    ones = ((1 << fields * b) - 1) // ((1 << b) - 1)
    high = ones << b - 1
    steps = [(((1 << b - 1) - s) * ones, s)
             for s in (p << j for j in reversed(range((p - 1).bit_length())))]

    def normal(z: int) -> int:
        for bias, s in steps:
            z -= (((z + bias) & high) >> b - 1) * s
        return z
    return normal


def _narrow(kernel, n: int, image, p: int) -> list:
    """Basis of {v in span(kernel) : sum of v_i * image(i) over i is 0}.

    Vectors are packed rows over n columns, field i for column i, and
    ``kernel`` None stands for the n unit vectors; ``image(i)`` is column
    i's image, a packed row too.  A row is image << n fields | combination:
    eliminating on the image's top field carries the combination along,
    and the rows whose image vanishes span the kernel.

    If ``kernel`` is in reduced row echelon form with ascending pivots, each
    a vector's top field, with value 1, as unit vectors are, so is the
    result: each kept vector is its input plus a combination of earlier
    inputs, all of which became image pivots, so its top field is its
    input's, and no other kept vector meets it.
    """
    b = _width(p)
    shift = n * b
    if kernel is None:
        kernel = [1 << i * b for i in range(n)]
    support = reduce(or_, kernel, 0)
    indices = _bits(support) if p == 2 else (i for i, _ in _fields(support, b))
    images = {i: image(i) << shift for i in indices}
    pivots: dict = {}  # top field -> row with value 1 there
    narrowed = []
    if p == 2:
        for vec in kernel:
            row = vec
            for i in _bits(vec):
                row ^= images[i]
            while row >> shift:
                top = row.bit_length()
                prow = pivots.get(top)
                if prow is None:
                    pivots[top] = row
                    break
                row ^= prow
            else:
                narrowed.append(row)
        return narrowed
    normal = _normaliser(p, -(-max([shift, *map(int.bit_length, images.values())]) // b))
    for vec in kernel:
        row = vec
        for i, c in _fields(vec, b):
            row = normal(row + c * images[i])
        while row >> shift:
            top = (row.bit_length() - 1) // b
            lead = row >> top * b
            prow = pivots.get(top)
            if prow is None:
                pivots[top] = normal(pow(lead, p - 2, p) * row)
                break
            row = normal(row + (p - lead) * prow)
        else:
            narrowed.append(row)
    return narrowed


class _Quotient:
    """S/A for the reduced grevlex GB of a homogeneous A of finite colength.

    Holds the grevlex keys of A's standard monomials by degree, in ascending
    grevlex (descending key), with the top standard degree, and the
    ``packed_basis`` of the GB as reducers.  A subspace V of span(standard
    monomials) with A + V an ideal is kept as one kernel basis per degree;
    ``basis`` reads the reduced GB of A + V off them.

    A vector of degree d is a packed row whose field i, ``_width(p)`` bits
    wide, holds the coefficient of ``standard[d][i]``, so the top field is
    the largest monomial.  The index of each degree's keys is built on
    first use.
    """

    def __init__(self, gb, ring: PolyRing, keys):
        self.ring = ring
        self.p = p = ring.field.p
        self.width = _width(p)
        self.units, self.guard = GREVLEX.units(ring.nvars), _guard(ring.nvars)
        # descending keys ascend in grevlex, so in degree
        self.standard = {d: list(ks) for d, ks in itertools.groupby(keys, key=self.degree)}
        self.top = max(self.standard, default=-1)
        self.reducers = packed_basis(gb)
        self._index = {}

    def degree(self, k: int) -> int:
        """The degree of the monomial with grevlex key k, its weight."""
        return -(k >> 32 * len(self.units))

    def index(self, d: int) -> dict:
        """{key: field} over the standard monomials of degree d, built once."""
        if d not in self._index:
            self._index[d] = {k: i for i, k in enumerate(self.standard[d])}
        return self._index[d]

    def borders(self):
        """Yield (table, ``_normaliser`` or False at p = 2) for e = 1, ..., top,
        the border table {k: NF(m)} over m = x_i * s, s standard of degree
        e - 1: the standard and border monomials of degree e.  In ascending
        grevlex (FGLM), a standard m has its unit row; a lead of the reduced
        GB has -tail, whose terms are standard; any other m = x_j * s is
        x_i * m' for a non-standard m' = x_j * (s / x_i) of degree e - 1, and
        NF(m) sums the entries x_i * t < m over the terms t < m' of NF(m')."""
        tails, below, b = {lead: tail for lead, _, tail, _ in self.reducers}, {}, self.width
        for e in range(1, self.top + 1):
            index, lower, table = self.index(e), self.index(e - 1), {}
            border = table, self.p != 2 and _normaliser(self.p, len(index))
            for k in sorted({s + u for s in self.standard[e - 1] for u in self.units},
                            reverse=True):
                if k in index:
                    table[k] = 1 << index[k] * b
                elif k in tails:
                    table[k] = sum(self.p - c << index[t] * b for t, c in tails[k])
                else:  # k - u is a monomial's key only where x_i divides it
                    for u in self.units:
                        if k - u in below and k - u not in lower:
                            table[k] = self.times(below[k - u], e, u, border)
                            break
            yield border
            below = table

    def times(self, row: int, e: int, u: int, border) -> int:
        """NF(x_i * f): f's packed ``row`` of degree e - 1, x_i's unit u, ``borders`` at e."""
        keys, (table, normal), out = self.standard[e - 1], border, 0
        if not normal:
            while row:
                low = row & -row
                out ^= table[keys[low.bit_length() - 1] + u]
                row ^= low
            return out
        for i, c in _fields(row, self.width):
            out = normal(out + c * table[keys[i] + u])
        return out

    def multiples(self, rows, d: int, e: int, border) -> list:
        """Per divisor b of degree e - d, NF(u * b) over the standard u of
        degree d, from ``rows``: at d = 0 NF(b) as {key: coefficient}, else
        this at d - 1, of which u = x_i * u' takes x_i * NF(u' * b)."""
        if not d:
            return [[sum(c << self.index(e)[k] * self.width for k, c in nf.items())]
                    for nf in rows]
        parents = {}  # u of degree d -> (x_i, the field of u / x_i) for some x_i dividing u
        for i, s in enumerate(self.standard[d - 1]):
            for u in self.units:
                parents.setdefault(s + u, (u, i))
        parents = [parents[k] for k in self.standard[d]]
        return [[self.times(row[i], e, u, border) for u, i in parents] for row in rows]

    def image(self, divisors, q: int, d: int, e: int):
        """i -> NF(u^q * b_j) for the i-th standard u of degree d, packed over
        ``index(e)`` at field offset j * len(standard[e]), with the
        ``divisors`` b_j of degree e - q * d given as NF(b_j), {key:
        coefficient}.  Each product, key q * u + t for a term t of b_j, is
        divided alone: the kernel reads no other monomial of degree e."""
        keys, index, b, p = self.standard[d], self.index(e), self.width, self.p
        reducers, guard, offset = self.reducers, self.guard, len(index) * b

        def image(i):
            uk = q * keys[i]
            return sum(sum(c << index[k] * b for k, c in _divide(
                {uk + t: c for t, c in terms.items()}, reducers, guard, p).items())
                << j * offset for j, terms in enumerate(divisors))
        return image

    def basis(self, kernels: dict) -> list:
        """Reduced grevlex GB of A + V, V given by ``kernels``: degree -> kernel
        basis in reduced row echelon form; a degree absent from ``kernels``
        lies wholly in V.

        The lead ideal of A + V is leads(A) + the pivots of V, so a minimal
        pivot gives its row, and a minimal lead of g in A's GB gives g with
        its packed tail reduced by the rows of its pivot terms, each 0 at
        every other pivot; no other row reduction runs.
        """
        b, p, units, degree = self.width, self.p, self.units, self.degree
        rows = {self.standard[d][(v.bit_length() - 1) // b]: v
                for d, vecs in kernels.items() for v in vecs}  # pivot -> RREF row

        def minimal(k):
            # each m / x_i, key k - u_i where exponent i is nonzero, is
            # standard, so it lies in the lead ideal of A + V iff its degree
            # lies wholly in V or it is a pivot
            return not k if degree(k) - 1 not in kernels else not any(
                k >> 32 * i & 0xFFFFFFFF and k - u in rows for i, u in enumerate(units))

        out = []  # (lead, packed row of the lead's degree: the tail, or all of a pivot's)
        for lead, _, tail, _ in self.reducers:
            d = degree(lead)
            if minimal(lead):
                row = 0
                if d in kernels:  # else the tail lies in V
                    index, keys = self.index(d), self.standard[d]
                    normal = p != 2 and _normaliser(p, len(keys))
                    row = sum(c << index[t] * b for t, c in tail)
                    for i, c in list(_fields(row, b)):
                        pivot = rows.get(keys[i])
                        if pivot is not None:
                            row = normal(row + (p - c) * pivot) if normal else row ^ pivot
                out.append((lead, d, row))
        out.extend((pivot, degree(pivot), v) for pivot, v in rows.items() if minimal(pivot))
        # a degree wholly in V above another one adds no minimal monomial
        out.extend((u, d, 0) for d, keys in self.standard.items()
                   if d not in kernels and (d == 0 or d - 1 in kernels)
                   for u in keys if minimal(u))
        out.sort(reverse=True)  # ascending leads
        # largest term first: the lead (a pivot's comes again as its top field)
        return [_from_keys(self.ring, dict([(lead, 1), *((self.standard[d][i], c) for i, c
                                                         in reversed(list(_fields(v, b))))]))
                for lead, d, v in out]


def zero_dimensional_quotient(gb, ring: PolyRing):
    """S/A for the reduced grevlex GB ``gb`` of A, the ``_Quotient`` that
    ``frobenius_colon`` runs on, or None unless A is homogeneous of finite
    colength.  The test for finite colength and the standard monomials share
    one walk of A's staircase; their keys are sorted once, descending."""
    if not all(g.is_homogeneous() for g in gb):
        return None
    keys = []
    if not any(g.is_constant() and not g.is_zero() for g in gb):
        staircase = _staircase(gb, ring.nvars)
        if staircase is None:
            return None
        unit, columns = staircase
        keys = sorted((k + t * unit for k, height in columns for t in range(height)),
                      reverse=True)
    return _Quotient(gb, ring, keys)


def frobenius_colon(quotient: _Quotient, divisors, q: int = 1):
    """Reduced grevlex GB of {u : u^q * (divisors) in A}, as ``buchberger``
    returns it, for S/A from ``zero_dimensional_quotient`` and homogeneous
    ``divisors``: A + V, each degree d of V the kernel of u -> (NF(u^q * b))_b
    over the standard u of degree d, narrowed once per divisor degree delta
    on the images of degree q * d + delta.  A divisor in A, such as zero or
    one of degree above A's top standard degree, imposes nothing, and a
    degree never narrowed lies wholly in V."""
    by_degree: dict = {}  # degree -> NF(b) of each divisor b outside A, {key: coefficient}
    for b in divisors:
        nf = _divide(_to_keys(b, GREVLEX), quotient.reducers, quotient.guard, quotient.p)
        if nf:
            by_degree.setdefault(b.degree(), []).append(nf)
    if not by_degree:
        return [quotient.ring.one()]
    kernels: dict = {}  # degree -> narrowed kernel basis; absent: never narrowed
    borders = quotient.borders() if q == 1 else None
    rows = dict(by_degree)  # at q = 1, delta -> multiples of its divisors at degree e
    for e in range(quotient.top + 1):
        border = next(borders) if borders and e else None
        for delta in sorted(by_degree):
            d, rest = divmod(e - delta, q)
            if d < 0 or rest:
                continue
            if borders:
                rows[delta] = rs = quotient.multiples(rows[delta], d, e, border)
            if kernels.get(d) == []:
                continue
            if borders:
                offset = len(quotient.standard[e]) * quotient.width
                image = rs[0].__getitem__ if len(rs) == 1 else lambda i: sum(
                    r[i] << j * offset for j, r in enumerate(rs))
            else:
                image = quotient.image(by_degree[delta], q, d, e)
            kernels[d] = _narrow(kernels.get(d), len(quotient.standard[d]), image, quotient.p)
    return quotient.basis(kernels)
