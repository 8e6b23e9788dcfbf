"""Independent brute-force membership oracle.

Implements its own polynomial arithmetic on plain exponent-tuple dicts and
decides ideal membership by Gaussian elimination on the degree-truncated
linear system f = sum h_i g_i, with no use of the library's Groebner code.

For homogeneous generators the truncation at deg(f) is exact, so the
oracle's verdict is definitive.  For inhomogeneous generators a verdict of
True is always sound; False only means "not expressible within the degree
bound".
"""

from __future__ import annotations

import itertools
import random


def omul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}


def oadd(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def odeg(a: dict) -> int:
    return max((sum(m) for m in a), default=-1)


def monomials_upto(nvars: int, degree: int):
    for exps in itertools.product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            yield exps


def oracle_member(f: dict, gens: list, nvars: int, p: int,
                  degree_bound: int | None = None) -> bool:
    """True iff f = sum h_i g_i is solvable with deg(h_i g_i) <= bound."""
    gens = [g for g in gens if g]
    if not f:
        return True
    if not gens:
        return False
    bound = degree_bound if degree_bound is not None else odeg(f)
    columns = []
    for g in gens:
        dg = odeg(g)
        if dg > bound:
            continue
        for m in monomials_upto(nvars, bound - dg):
            columns.append(omul(g, {m: 1}, p))
    support = sorted({t for col in columns for t in col} | set(f))
    row_of = {t: i for i, t in enumerate(support)}
    nrows, ncols = len(support), len(columns)
    mat = [[0] * (ncols + 1) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for t, c in col.items():
            mat[row_of[t]][j] = c
    for t, c in f.items():
        mat[row_of[t]][ncols] = c % p
    # Gaussian elimination over F_p; consistent iff no pivot in the rhs
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] % p), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] % p:
                factor = mat[i][c]
                mat[i] = [(a - factor * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    # rows below r are all zero on the coefficient side
    return all(not (mat[i][ncols] % p) for i in range(r, nrows))


def random_homogeneous_dict(nvars: int, degree: int, p: int,
                            rng: random.Random) -> dict:
    out = {}
    for m in itertools.product(range(degree + 1), repeat=nvars):
        if sum(m) == degree:
            c = rng.randrange(p)
            if c:
                out[m] = c
    return out


def poly_to_dict(poly) -> dict:
    return {m: int(c) for m, c in poly.terms.items()}


def order_key(order):
    """The tuple sort key of a ``MonomialOrder``, independent of its packed
    keys: a larger key is a larger monomial.  Grevlex compares the degree,
    then the negated exponents from the last; block(k) compares its first
    k exponents lexicographically, then its tail by grevlex."""
    def grevlex(exps):
        return sum(exps), tuple(-e for e in reversed(exps))
    if order.kind == "grevlex":
        return grevlex
    if order.kind == "lex":
        return tuple
    return lambda exps: (exps[:order.nelim], grevlex(exps[order.nelim:]))
