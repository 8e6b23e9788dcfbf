"""Named verification suites with deterministic JSON reports.

Each suite encodes one mathematical invariant as a list of concrete
checks; every check records the canonical Groebner bases of the ideals it
used so it can be re-run standalone.  Reports are byte-identical for a
fixed (suite, params, seed) once the timings block is stripped.  A suite
runs on a ring of ``BUILTIN_RINGS`` (fermat2 by default) or on (p, vars,
mod); one that reads --ideal builds its default fixtures only without it.
"""

from __future__ import annotations

import json
import random
import time

from .core import AlgebraError
from .frobenius import bracket_power, frobenius_q
from .lengths import corner_length_identity
from .linkage import (
    WellDefinednessViolation,
    corner_power,
    direct_link,
    link_delta,
    m_primary_link_lift,
    tilde_approx,
)
from .rings import (
    Ideal,
    RingContext,
    find_parameter_ideal,
    is_unmixed,
    unmixed_part,
)
from .singularity import iq_approx, star_approx, star_colon, test_ideal

DEFAULTS = {"emax": 3, "depth": 2, "samples": 3, "tmax": 3}

# the Fermat cubics at p = 2 and p = 5 (where I_q runs up to q = 125),
# polynomial rings over F_2, and the Fermat quartic at p = 3, where tau = m^2
BUILTIN_RINGS = {
    "fermat2": (2, ["x", "y", "z"], "x^3+y^3+z^3"),
    "fermat5": (5, ["x", "y", "z"], "x^3+y^3+z^3"),
    "poly2_2": (2, ["x", "y"], None),
    "poly2_3": (2, ["x", "y", "z"], None),
    "quartic3": (3, ["x", "y", "z"], "x^4+y^4+z^4"),
}


class UnknownSuite(AlgebraError):
    pass


def make_ring(spec: str | None = None, p: int | None = None,
              variables=None, mod: str | None = None) -> RingContext:
    """A RingContext from a built-in name or explicit (p, vars, mod)."""
    if spec is not None:
        if spec not in BUILTIN_RINGS:
            raise AlgebraError(f"unknown ring {spec!r}; "
                               f"built-ins: {sorted(BUILTIN_RINGS)}")
        p, variables, mod = BUILTIN_RINGS[spec]
    if p is None or not variables:
        raise AlgebraError("ring spec needs a name or --p/--vars")
    return RingContext(p, list(variables), mod)


class _Report:
    def __init__(self, suite: str, params: dict, seed: int):
        self.data = {"suite": suite, "params": params, "seed": seed,
                     "checks": [], "timings": {}}
        self._start = time.perf_counter()

    def check(self, name: str, ok: bool, details: str = ""):
        self.data["checks"].append(
            {"name": name, "status": "pass" if ok else "fail",
             "details": details})

    def contains(self, name: str, outer: Ideal, inner: Ideal, details: str = ""):
        self.check(name, outer.contains_ideal(inner), details)

    def strictly(self, name: str, outer: Ideal, inner: Ideal, details: str = ""):
        self.check(name, outer.contains_ideal(inner) and outer != inner, details)

    def equal(self, name: str, A: Ideal, B: Ideal, details: str = ""):
        self.check(name, A == B, details)

    def skip(self, name: str, reason: str):
        self.data["checks"].append(
            {"name": name, "status": "skip", "details": reason})

    def done(self) -> dict:
        self.data["timings"] = {
            "total_s": round(time.perf_counter() - self._start, 6)}
        return self.data


def _gb(I: Ideal) -> str:
    return "(" + ", ".join(I.gb_strings()) + ")"


def _squares(ring: RingContext) -> Ideal:
    """(x^2, y^2, z^2): the squares of the variables."""
    return Ideal(ring, [v ** 2 for v in ring.maximal_ideal().gens])


def _pair(ring: RingContext) -> Ideal:
    """(x, y): the first two variables."""
    return Ideal(ring, list(ring.maximal_ideal().gens[:2]))


def _exponents(ring: RingContext, emax: int, start: int = 1) -> list:
    """(e, q = p^e) for e from ``start`` to min(3, emax): the e that --qmax allows."""
    return [(e, frobenius_q(ring, e)) for e in range(start, min(3, emax) + 1)]


def _fixtures(params: dict, label: str, default):
    """[(label, the --ideal)] when one is given, else ``default()``, so a
    default fixture is built (and draws from the rng) only without it."""
    return default() if params["ideal"] is None else [(label, params["ideal"])]


def _containing_tau(m: Ideal, tau: Ideal) -> list:
    """m, and tau when tau is proper and not m."""
    return [("m", m)] + ([("tau", tau)] if not tau.is_unit() and tau != m else [])


def _tilde(I: Ideal, params: dict, rng: random.Random):
    """tilde(I) and its record, explored to depth at most 2."""
    return tilde_approx(I, min(2, params["depth"]), params["samples"], rng=rng)


def _sample_unmixed(ring: RingContext, count: int, rng: random.Random):
    """Deterministic unmixed samples, labelled by index: m, (x^2, y^2, z^2),
    then alternating parameter ideals and unmixed parts of perturbed ones."""
    m = ring.maximal_ideal()
    out = [m, _squares(ring)]
    while len(out) < count:
        a = find_parameter_ideal(m, rng)
        out.append(a)
        if len(out) < count:
            extra = a + Ideal(ring, [m.gens[rng.randrange(len(m.gens))] ** 2])
            out.append(unmixed_part(extra, rng))
    return [(f"ideal {i}", I) for i, I in enumerate(out[:count])]


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def _suite_paper_example(ring, params, rng, rep):
    if (ring.field.p, list(ring.variables), str(ring.relation)) != BUILTIN_RINGS["fermat2"]:
        rep.skip("paper example", f"expected values hold on fermat2 only, not {ring!r}")
        return
    I = _squares(ring)
    a = ring.ideal("x^2", "y^2")
    J = a.colon(I)
    rep.equal("colon(a,I) = (x^2,y^2,z)", J, ring.ideal("x^2", "y^2", "z"), f"a:I = {_gb(J)}")
    corner = corner_power(I, 1, samples=2, rng=rng)
    rep.equal("I^<2> = (x^4,y^4):z^2", corner,
              bracket_power(a, 1).colon(ring.ideal("z^2")), f"I^<2> = {_gb(corner)}")
    xyz = ring.parse("x*y*z")
    rep.contains("xyz in I^<2>", corner, Ideal(ring, [xyz]), f"I^<2> = {_gb(corner)}")
    rep.check("xyz not in I", not I.contains(xyz), f"I = {_gb(I)}")
    bracket = bracket_power(I, 1)
    rep.strictly("I^[2] strictly inside I^<2>", corner, bracket, f"I^[2] = {_gb(bracket)}")


def _suite_corner_welldef(ring, params, rng, rep):
    I = params["ideal"] or _squares(ring)
    n = max(3, params["samples"])
    for e, q in _exponents(ring, 2):
        try:
            ok, details = True, f"I^<{q}> = {_gb(corner_power(I, e, samples=n, rng=rng))}"
        except WellDefinednessViolation as exc:
            ok, details = False, str(exc)
        rep.check(f"{n} corner candidates agree at q={q}", ok, details)


def _suite_corner_containment(ring, params, rng, rep):
    m = ring.maximal_ideal()
    exponents = _exponents(ring, max(1, params["emax"]))
    for label, I in _fixtures(params, "ideal 0", lambda: _sample_unmixed(ring, 10, rng)):
        for e, q in exponents:
            corner = corner_power(I, e, samples=1, rng=rng)
            rep.contains(f"{label}: I^[{q}] subset I^<{q}>", corner, bracket_power(I, e),
                         f"I = {_gb(I)}; I^<{q}> = {_gb(corner)}")
    # equality on parameter ideals
    for k in range(3):
        a = find_parameter_ideal(m, rng)
        for e, q in exponents:
            corner = corner_power(a, e, samples=1, rng=rng)
            rep.equal(f"parameter {k}: a^<{q}> = a^[{q}]",
                      corner, bracket_power(a, e), f"a = {_gb(a)}")
    if ring.relation is not None and ring.poly.nvars == 3:
        I = _squares(ring)
        corner = corner_power(I, 1, samples=1, rng=rng)
        rep.strictly("strict containment at q=2 for (x^2,y^2,z^2)",
                     corner, bracket_power(I, 1), f"I^<2> = {_gb(corner)}")


def _suite_essential(ring, params, rng, rep):
    tau = test_ideal(ring).tau
    m = ring.maximal_ideal()
    trivial = tau.is_unit()
    inside = rep.contains if trivial else rep.strictly
    for k in range(5):
        a = find_parameter_ideal(m, rng)
        star = star_colon(a)
        inside(f"parameter {k}: a strictly inside a:tau"
               + (" (tau unit: equality allowed)" if trivial else ""),
               star, a, f"a = {_gb(a)}; a:tau = {_gb(star)}")
        back = a.colon(star)
        rep.contains(f"parameter {k}: a:(a:tau) contains tau",
                     back, tau, f"a:(a:tau) = {_gb(back)}")
    I = params["ideal"] or _squares(ring)
    colon = I.colon(tau)
    for e, q in _exponents(ring, params["emax"]):
        rhs = corner_power(I, e, samples=1, rng=rng).colon(tau)
        rep.contains(f"(I:tau)^[{q}] subset I^<{q}>:tau",
                     rhs, bracket_power(colon, e), f"I = {_gb(I)}")


def _suite_decr(ring, params, rng, rep):
    levels = _exponents(ring, params["emax"], start=0)
    chains = {}  # label -> [I_q for (e, q) in levels]
    for label, I in _fixtures(params, "I", lambda: [("(x,y)", _pair(ring)),
                                                    ("m", ring.maximal_ideal())]):
        chain = chains[label] = [iq_approx(I, e) for e, _ in levels]
        for (e, q), (_, pq) in zip(levels, levels[1:]):
            rep.contains(f"{label}: I_{pq} subset I_{q}", chain[e], chain[e + 1],
                         f"I_{q} = {_gb(chain[e])}; I_{pq} = {_gb(chain[e + 1])}")
    a = _pair(ring)
    if a.height() == len(a.minimal_generators()):
        star = star_colon(a)
        chain = chains.get("(x,y)") or [iq_approx(a, e) for e, _ in levels]
        for (e, q), iq in zip(levels, chain):
            rep.contains(f"parameter (x,y): a:tau subset a_{q}", iq, star,
                         f"a_{q} = {_gb(iq)}")


def _suite_higher(ring, params, rng, rep):
    tau = test_ideal(ring).tau
    m = ring.maximal_ideal()
    containing = [(label, I) for label, I in _containing_tau(m, tau)
                  if I.contains_ideal(tau)]
    if not containing:
        rep.skip("ideals containing tau keep corners above tau",
                 "no proper ideal contains tau (tau is the unit ideal)")
    for label, I in containing:
        for e, q in _exponents(ring, params["emax"]):
            corner = corner_power(I, e, samples=1, rng=rng)
            rep.contains(f"{label} contains tau: {label}^<{q}> contains tau",
                         corner, tau, f"{label}^<{q}> = {_gb(corner)}")
    I = _pair(ring)
    if tau.is_unit() or not tau.contains_ideal(I) or I == tau:
        rep.skip("strict I inside tau shrinks", "tau is the unit ideal" if tau.is_unit()
                 else "no strict sub-tau fixture")
        return
    e, q = _exponents(ring, params["emax"], start=0)[-1]
    corner = corner_power(I, e, samples=1, rng=rng)
    k = 0
    while k + 1 <= e and bracket_power(m, k + 1).contains_ideal(corner):
        k += 1
    rep.check(f"I strictly inside tau: I^<{q}> inside m^[{frobenius_q(ring, k)}]",
              bracket_power(m, k).contains_ideal(corner) and corner.is_proper(),
              f"I^<{q}> = {_gb(corner)}; deepest bracket level e={k}")


def _suite_hk_identity(ring, params, rng, rep):
    fixtures = _fixtures(params, "J", lambda: [("m", ring.maximal_ideal())] + (
        [("(x^2,y^2,z)", ring.ideal("x^2", "y^2", "z"))] if ring.poly.nvars == 3 else []))
    for label, J in fixtures:
        for e in (1, 2):
            for s in range(params["samples"]):
                res = corner_length_identity(J, e, random.Random(rng.randrange(2 ** 30)))
                rep.check(f"{label}, q={frobenius_q(ring, e)}, sample {s}: "
                          f"l(R/J^<q>) = l(R/a^[q]) - l(R/I^[q])", res.equal,
                          f"lhs={res.lhs} rhs={res.rhs} a = {_gb(res.linking)}")


def _suite_mapping_cone(ring, params, rng, rep):
    m = ring.maximal_ideal()
    for k in range(10):
        b = find_parameter_ideal(m, rng)
        a = find_parameter_ideal(b, rng, min_bump=1)
        try:
            delta = link_delta(a, b)
        except AlgebraError as exc:
            rep.check(f"pair {k}: delta exists", False, str(exc))
            continue
        rep.equal(f"pair {k}: a:b = (a, delta)", a + Ideal(ring, [delta]), a.colon(b),
                  f"a = {_gb(a)}; b = {_gb(b)}; delta = {delta}")
        rep.equal(f"pair {k}: a:delta = b", a.colon(Ideal(ring, [delta])), b,
                  f"delta = {delta}")
        mixed = a + Ideal(ring, [delta * g for g in m.gens])
        rep.check(f"pair {k}: (a, delta*I) unmixed for I = m",
                  is_unmixed(mixed, rng), f"(a, delta I) = {_gb(mixed)}")


def _suite_case1(ring, params, rng, rep):
    m = ring.maximal_ideal()
    for k in range(5):
        I = m if k % 2 == 0 else unmixed_part(
            find_parameter_ideal(m, rng)
            + Ideal(ring, [m.gens[k % len(m.gens)] ** 2]), rng)
        if not I.is_m_primary():
            I = m
        b = find_parameter_ideal(I, rng)
        a = find_parameter_ideal(b, rng, min_bump=1)
        lhs = a.colon(b.colon(I))
        rep.equal(f"triple {k}: a:(b:I) = a + I(a:b)", lhs, a + I * a.colon(b),
                  f"a = {_gb(a)}; b = {_gb(b)}; I = {_gb(I)}; lhs = {_gb(lhs)}")


def _suite_linkage_lift(ring, params, rng, rep):
    if ring.dim < 2:
        rep.skip("non-m-primary chains", "ring dimension below 2")
        return
    g = ring.maximal_ideal().gens
    for k, gen in enumerate([g[0] + g[1], g[0], g[1] + g[-1]]):
        I = Ideal(ring, [gen])
        if I.is_zero() or I.is_unit():
            rep.skip(f"chain {k}", f"degenerate seed {gen}")
            continue
        I = unmixed_part(I, rng)
        chain, J = [], I  # J is the end of the chain
        for _ in range(min(2, params["depth"])):
            try:
                J, a = direct_link(J, rng=rng, check_unmixed=False)
            except AlgebraError as exc:
                rep.skip(f"chain {k}: extend", str(exc))
                break
            chain.append(a)
        if not chain:
            continue
        for t in range(1, params["tmax"] + 1):
            try:
                Jt = m_primary_link_lift(I, chain, t, rng)
            except AlgebraError as exc:
                rep.check(f"chain {k}, t={t}: J_t exists", False, str(exc))
                continue
            rep.contains(f"chain {k}, t={t}: J subset J_t", Jt, J,
                         f"I = {_gb(I)}; J = {_gb(J)}; J_t = {_gb(Jt)}")


def _suite_main_theorem(ring, params, rng, rep):
    tau = test_ideal(ring).tau

    def default():
        if ring.poly.nvars >= 2:
            yield "(x,y)", _pair(ring)
        if ring.poly.nvars == 3:
            yield "(x^2,y^2,z^2)", _squares(ring)
        yield "m", ring.maximal_ideal()

    for label, I in _fixtures(params, "I", default):
        tilde, record = _tilde(I, params, rng)
        colon = I.colon(tau)
        approx = star_approx(I, params["emax"])
        product = tilde * colon
        rep.contains(f"{label}: tilde(I)*(I:tau) subset upper bound of I^*",
                     approx.upper, product, f"tilde = {_gb(tilde)}; I:tau = {_gb(colon)}; "
                     f"upper = {_gb(approx.upper)}")
        if approx.certified:
            rep.contains(f"{label}: containment against certified closure",
                         approx.lower, product, f"I^* = {_gb(approx.lower)}")
        if I.contains_ideal(tau):
            rep.contains(f"{label} contains tau: every explored link inside it", I, tilde,
                         f"nodes = {[ _gb(n) for n in record.nodes ]}")


def _suite_max_in_class(ring, params, rng, rep):
    tau = test_ideal(ring).tau
    for label, I in _containing_tau(ring.maximal_ideal(), tau):
        if not I.contains_ideal(tau):
            rep.skip(f"{label} maximal", "does not contain tau")
            continue
        tilde, record = _tilde(I, params, rng)
        rep.contains(f"{label}: every explored link inside {label}", I, tilde,
                     f"{len(record.nodes)} nodes explored")
        rep.equal(f"{label}: explored tilde equals {label}", tilde, I, f"tilde = {_gb(tilde)}")


def _suite_lit(ring, params, rng, rep):
    tau = test_ideal(ring).tau
    if tau.is_unit() or not is_unmixed(tau, rng) or not is_unmixed(tau * tau, rng):
        rep.skip("tilde(tau)*tau = tau^2", "tau is the unit ideal" if tau.is_unit()
                 else "tau or tau^2 not unmixed")
        return
    tilde, record = _tilde(tau, params, rng)
    rhs = tau * tau
    rep.equal("tilde(tau)*tau = tau^2", tilde * tau, rhs,
              f"tilde = {_gb(tilde)}; tau^2 = {_gb(rhs)}; capped = {record.capped}")


# suite name -> (suite function, whether it reads --ideal)
_SUITES = {
    "paper-example": (_suite_paper_example, False),
    "corner-welldef": (_suite_corner_welldef, True),
    "corner-containment": (_suite_corner_containment, True),
    "essential": (_suite_essential, True),
    "decr": (_suite_decr, True),
    "higher": (_suite_higher, False),
    "hk-identity": (_suite_hk_identity, True),
    "mapping-cone": (_suite_mapping_cone, False),
    "case1": (_suite_case1, False),
    "linkage-lift": (_suite_linkage_lift, False),
    "main-theorem": (_suite_main_theorem, True),
    "max-in-class": (_suite_max_in_class, False),
    "lit": (_suite_lit, False),
}

SUITE_NAMES = sorted(_SUITES)


def verify_suite(name: str, params: dict | None = None) -> dict:
    """Run one named suite; returns the SuiteReport dict."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {SUITE_NAMES}")
    suite, takes_ideal = _SUITES[name]
    params = dict(params or {})
    seed = int(params.pop("seed", 0))
    ring, p, variables, mod = (params.pop(key, None) for key in ("ring", "p", "vars", "mod"))
    if ring is not None and (p, variables, mod) != (None, None, None):
        raise AlgebraError("--ring takes no --p, --vars or --mod")
    if p is None and (variables, mod) != (None, None):
        raise AlgebraError("--vars and --mod need --p")
    if ring is None and p is None:
        ring = "fermat2"
    if not isinstance(ring, RingContext):
        ring = make_ring(ring, p, variables, mod)
    ideal_text = params.pop("ideal", None)
    if ideal_text and not takes_ideal:
        raise AlgebraError(f"suite {name!r} takes no --ideal")
    merged = {key: int(DEFAULTS[key] if params.get(key) is None else params[key])
              for key in DEFAULTS}
    for key, value in merged.items():
        if value < 0:
            raise AlgebraError(f"{key} must be non-negative, got {value}")
    relation = None if ring.relation is None else str(ring.relation)
    public_params = {"ring": {"p": ring.field.p, "vars": list(ring.variables), "mod": relation},
                     "ideal": ideal_text, **merged}
    merged["ideal"] = ring.ideal(*ideal_text.split(",")) if ideal_text else None
    rep = _Report(name, public_params, seed)
    suite(ring, merged, random.Random(seed), rep)
    return rep.done()


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_exit_code(report: dict) -> int:
    return 1 if any(c["status"] == "fail" for c in report["checks"]) else 0
