"""Seeded inputs for the three benchmark workloads, and the references
their outputs are checked against.

Everything here uses only the standard library: inputs are generated and
the expected answers derived without calling charp, so a defect in charp
cannot change what the benchmark asks or what it expects.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
import random

WORKLOADS = ("suites", "frobenius-hk", "session")

# The 13 `alg verify` suites, as the README lists them.
SUITE_NAMES = (
    "case1", "corner-containment", "corner-welldef", "decr", "essential",
    "higher", "hk-identity", "linkage-lift", "lit", "main-theorem",
    "mapping-cone", "max-in-class", "paper-example",
)
# Suite seed of every call.  One suite call takes 3-19 s depending on its
# seed (corner-containment over seeds 0-9), so seeds drawn per run would
# make the pass time differ by about 28 % between workload seeds; a fixed
# seed keeps the work identical and the workload seed only orders it.
# Seed 1 carries the known linkage-lift defect, so the defect shows in
# every run.  A second seed would double a pass (about 30 s at seed 1).
SUITE_SEED = 1

# e per prime keeps the top colength l(R/m^[p^e]) near 1e4-1e5 where that
# is affordable; for p >= 17 already e = 2 gives more than 1.8e5.
HK_EXPONENT = {2: 7, 5: 3, 7: 2, 11: 2, 13: 2, 17: 1, 19: 1, 23: 1}

# (p, number of variables, Fermat cubic relation?) of the session scripts.
SESSION_RINGS = ((2, 3, True), (5, 3, True), (7, 3, True),
                 (3, 3, False), (11, 3, False), (2, 4, False), (5, 4, False))
READS_PER_CONSTRUCTION = 200

VARS = ("x", "y", "z", "w")


def generate(workload: str, seed: int):
    """The item list of one pass; identical for identical (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "suites":
        names = list(SUITE_NAMES)
        rng.shuffle(names)
        return [{"suite": name, "seed": SUITE_SEED} for name in names]
    if workload == "frobenius-hk":
        primes = sorted(HK_EXPONENT)
        rng.shuffle(primes)
        return [_hk_item(p, rng) for p in primes]
    if workload == "session":
        rings = list(SESSION_RINGS)
        rng.shuffle(rings)
        return [_session_script(p, n, fermat, rng) for p, n, fermat in rings]
    raise ValueError(f"unknown workload {workload!r}")


def ring_specs(workload: str, inputs):
    """(p, variables, relation text) of the RingContexts the workload uses."""
    if workload == "suites":
        return [(2, ["x", "y", "z"], "x^3+y^3+z^3")]  # fermat2
    if workload == "frobenius-hk":
        return [(it["p"], list(VARS[:3]), it["relation"]) for it in inputs]
    return [(s["p"], list(VARS[:s["nvars"]]), s["relation"]) for s in inputs]


def digest(inputs) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# frobenius-hk: the Fermat cubic up to a diagonal change of coordinates.

def _hk_item(p: int, rng: random.Random) -> dict:
    """One prime.  a*x^3+b*y^3+c*z^3 with a, b, c nonzero cubes is the
    Fermat cubic after x -> a^(1/3) x etc., so its Hilbert-Kunz function and
    test ideal are Fermat's; m is given by nonzero multiples of the
    variables in a random order.  Both change the text, not the work."""
    cubes = sorted({pow(a, 3, p) for a in range(1, p)})
    coeffs = [rng.choice(cubes) for _ in range(3)]
    relation = "+".join(_term(c, {v: 3}) for c, v in zip(coeffs, VARS))
    gens = [_term(rng.randrange(1, p), {v: 1}) for v in VARS[:3]]
    rng.shuffle(gens)
    return {"p": p, "e": HK_EXPONENT[p], "relation": relation, "m": gens}


def hk_reference(p: int, q: int) -> int:
    """l(R/m^[q]) for a smooth plane cubic (Monsky, Math. Ann. 263, 1983):
    8 at q = 2 and 9q^2/4 for q >= 4 when p = 2, (9q^2-5)/4 for odd p."""
    if q == 1:
        return 1
    if p == 2:
        return 8 if q == 2 else 9 * q * q // 4
    return (9 * q * q - 5) // 4


# ---------------------------------------------------------------------------
# session: `alg run` scripts whose asserts all hold by construction.
#
# Polynomials are dicts {exponent tuple: coefficient in [1, p)}.

def _add(f: dict, g: dict, p: int) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def _mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(map(operator.add, m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def _power(f: dict, q: int, p: int) -> dict:
    out = {tuple(0 for _ in next(iter(f))): 1}
    for _ in range(q):
        out = _mul(out, f, p)
    return out


@functools.lru_cache(maxsize=None)
def _monomials(n: int, degree: int) -> list:
    return [m for m in itertools.product(range(degree + 1), repeat=n) if sum(m) == degree]


def _form(n: int, degree: int, p: int, rng: random.Random) -> dict:
    """A nonzero random homogeneous form."""
    monos = _monomials(n, degree)
    while True:
        f = {m: c for m in monos if (c := rng.randrange(p))}
        if f:
            return f


def _term(c: int, powers: dict) -> str:
    body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers.items() if e)
    if not body:
        return str(c)
    return body if c == 1 else f"{c}*{body}"


def format_poly(f: dict) -> str:
    terms = sorted(f.items(), key=lambda t: (-sum(t[0]), t[0]))
    return "+".join(_term(c, dict(zip(VARS, m))) for m, c in terms)


def _combination(gens, n: int, p: int, rng: random.Random) -> dict:
    """sum r_i g_i with random linear forms r_i; nonzero."""
    while True:
        f: dict = {}
        for g in gens:
            f = _add(f, _mul(_form(n, 1, p, rng), g, p), p)
        if f:
            return f


def _scale(f: dict, lam, p: int) -> dict:
    """f(lam_1 x_1, ..., lam_n x_n)."""
    out = {}
    for m, c in f.items():
        for l, e in zip(lam, m):
            c = c * pow(l, e, p) % p
        out[m] = c
    return out


def _session_script(p: int, n: int, fermat: bool, rng: random.Random) -> dict:
    """Statements, with oracle data for the membership reads.

    A, B are generated by quadrics.  C = A:B, D = A cap B, E = A^[p].
    Members: A-combinations lie in A, C; AB-combinations in D;
    combinations of p-th powers in E.  A member plus a nonzero linear
    form lies in none of A, D, E: those are homogeneous with generators of
    degree >= 2 (the cubic relation included).  Subsets: E in A, A in C,
    D in A.  Every assert holds.  Each read names, in `oracle_ideals`, an
    ideal that contains f (a member) or that contains the ideal read and
    not f.

    A and B come from an RNG fixed per ring, and the workload seed applies
    x_i -> lam_i x_i to them and to the Fermat relation x^3+y^3+z^3.  Every
    seed thus poses the same problem up to coordinates, and the Groebner
    bases have the same shape; with A, B drawn per seed, the constructions
    in 4 variables took up to three times as long at one seed as at
    another.  The reads are drawn from the seed.
    """
    variables = VARS[:n]
    lam = [rng.randrange(1, p) for _ in range(n)]
    fixed = random.Random(f"session-ideals:{p}:{n}:{fermat}")
    A = [_scale(_form(n, 2, p, fixed), lam, p) for _ in range(n)]
    B = [_scale(_form(n, 2, p, fixed), lam, p) for _ in range(2)]
    AB = [_mul(a, b, p) for a in A for b in B]
    E = [_power(a, p, p) for a in A]
    relation = None
    head = f"ring R = char {p} vars {','.join(variables)}"
    if fermat:
        relation = {tuple(3 if i == j else 0 for i in range(n)): pow(lam[j], 3, p)
                    for j in range(3)}
        head += " mod " + format_poly(relation)
    lift = [_encode(relation)] if relation else []
    statements = [
        {"text": head, "kind": "write"},
        {"text": "ideal A = " + ", ".join(map(format_poly, A)), "kind": "write"},
        {"text": "ideal B = " + ", ".join(map(format_poly, B)), "kind": "write"},
    ]
    # (name, construction, generators inside it, ideal around it that has
    # no linear forms or None, subset fact)
    blocks = [("C", "colon(A,B)", "A", None, "assert subset(A,C)"),
              ("D", "intersect(A,B)", "AB", "A", "assert subset(D,A)"),
              ("E", f"bracket(A,{p})", "E", "E", "assert subset(E,A)")]
    gens = {"A": A, "AB": AB, "E": E}
    for name, construction, inside, around, subset in blocks:
        statements.append({"text": f"{name} = {construction}", "kind": "write"})
        reads = []
        for k in range(READS_PER_CONSTRUCTION - 2):
            f = _combination(gens[inside], n, p, rng)
            member = around is None or k % 2 == 0
            if not member:
                f = _add(f, _form(n, 1, p, rng), p)
            text = (f"assert member({format_poly(f)}, {name})" if member
                    else f"assert !member({format_poly(f)}, {name})")
            reads.append({"text": text, "kind": "read",
                          "oracle": {"f": _encode(f), "ideal": inside if member else around,
                                     "member": member}})
        reads += [{"text": subset, "kind": "read"}] * 2
        rng.shuffle(reads)
        statements += reads
    return {"p": p, "nvars": n, "relation": relation and format_poly(relation),
            "oracle_ideals": {k: [_encode(g) for g in v] + lift for k, v in gens.items()},
            "statements": statements}


def _encode(f: dict):
    return sorted([list(m), c] for m, c in f.items())


def decode(f) -> dict:
    return {tuple(m): c for m, c in f}
