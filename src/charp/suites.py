"""Named verification suites with deterministic JSON reports.

Each suite encodes one mathematical invariant as a list of concrete
checks; every check records the canonical Groebner bases of the ideals it
used so it can be re-run standalone.  Reports are byte-identical for a
fixed (suite, params, seed) once the timings block is stripped.
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
    ParameterSearchFailed,
    RingContext,
    find_parameter_ideal,
    is_unmixed,
    unmixed_part,
)
from .singularity import iq_approx, star_approx, star_colon, test_ideal

DEFAULTS = {"emax": 3, "depth": 2, "samples": 3, "tmax": 3}

BUILTIN_RINGS = {
    "fermat2": (2, ["x", "y", "z"], "x^3+y^3+z^3"),
    "poly2_2": (2, ["x", "y"], None),
    "poly2_3": (2, ["x", "y", "z"], None),
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

    def skip(self, name: str, reason: str):
        self.data["checks"].append(
            {"name": name, "status": "skip", "details": reason})

    def done(self) -> dict:
        self.data["timings"] = {
            "total_s": round(time.perf_counter() - self._start, 6)}
        return self.data


def _gb(I: Ideal) -> str:
    return "(" + ", ".join(I.gb_strings()) + ")"


def _sample_unmixed(ring: RingContext, count: int, rng: random.Random):
    """Deterministic unmixed samples: m, the degree-2 power ideal, then
    alternating parameter ideals and unmixed parts of perturbed ones."""
    m = ring.maximal_ideal()
    out = [m, Ideal(ring, [v ** 2 for v in m.gens])]
    while len(out) < count:
        a = find_parameter_ideal(m, rng)
        out.append(a)
        if len(out) < count:
            extra = a + Ideal(ring, [m.gens[rng.randrange(len(m.gens))] ** 2])
            out.append(unmixed_part(extra, rng))
    return out[:count]


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def _suite_paper_example(ring, params, rng, rep):
    if ring != make_ring("fermat2"):
        rep.skip("paper example", f"expected values hold on fermat2 only, not {ring!r}")
        return
    I = ring.ideal("x^2", "y^2", "z^2")
    a = ring.ideal("x^2", "y^2")
    J = a.colon(I)
    expect_J = ring.ideal("x^2", "y^2", "z")
    rep.check("colon(a,I) = (x^2,y^2,z)", J == expect_J,
              f"a:I = {_gb(J)}")
    corner = corner_power(I, 1, samples=2, rng=rng).value
    defn = bracket_power(a, 1).colon(ring.ideal("z^2"))
    rep.check("I^<2> = (x^4,y^4):z^2", corner == defn,
              f"I^<2> = {_gb(corner)}")
    rep.check("xyz in I^<2>", corner.contains(ring.parse("x*y*z")),
              f"I^<2> = {_gb(corner)}")
    rep.check("xyz not in I", not I.contains(ring.parse("x*y*z")),
              f"I = {_gb(I)}")
    rep.check("I^[2] strictly inside I^<2>",
              corner.contains_ideal(bracket_power(I, 1))
              and corner != bracket_power(I, 1),
              f"I^[2] = {_gb(bracket_power(I, 1))}")


def _suite_corner_welldef(ring, params, rng, rep):
    I = params.get("ideal") or Ideal(
        ring, [v ** 2 for v in ring.maximal_ideal().gens])
    n = max(3, params["samples"])
    for e in (1, 2):
        q = frobenius_q(ring, e)
        try:
            result = corner_power(I, e, samples=n, rng=rng)
            rep.check(f"{n} corner candidates agree at q={q}", True,
                      f"I^<{q}> = {_gb(result.value)}")
        except WellDefinednessViolation as exc:
            rep.check(f"{n} corner candidates agree at q={q}", False, str(exc))


def _suite_corner_containment(ring, params, rng, rep):
    if params.get("ideal") is not None:
        pool = [params["ideal"]]
    else:
        pool = _sample_unmixed(ring, 10, rng)
    exponents = [e for e in (1, 2, 3) if e <= params["emax"]] or [1]
    for i, I in enumerate(pool):
        for e in exponents:
            q = frobenius_q(ring, e)
            corner = corner_power(I, e, samples=1, rng=rng).value
            br = bracket_power(I, e)
            rep.check(f"ideal {i}: I^[{q}] subset I^<{q}>",
                      corner.contains_ideal(br),
                      f"I = {_gb(I)}; I^<{q}> = {_gb(corner)}")
    # equality on parameter ideals
    for k in range(3):
        a = find_parameter_ideal(ring.maximal_ideal(), rng)
        for e in exponents:
            q = frobenius_q(ring, e)
            corner = corner_power(a, e, samples=1, rng=rng).value
            rep.check(f"parameter {k}: a^<{q}> = a^[{q}]",
                      corner == bracket_power(a, e), f"a = {_gb(a)}")
    if ring.relation is not None and ring.poly.nvars == 3:
        I = Ideal(ring, [v ** 2 for v in ring.maximal_ideal().gens])
        corner = corner_power(I, 1, samples=1, rng=rng).value
        rep.check("strict containment at q=2 for (x^2,y^2,z^2)",
                  corner != bracket_power(I, 1)
                  and corner.contains_ideal(bracket_power(I, 1)),
                  f"I^<2> = {_gb(corner)}")


def _suite_essential(ring, params, rng, rep):
    tau = test_ideal(ring).tau
    for k in range(5):
        a = find_parameter_ideal(ring.maximal_ideal(), rng)
        star = star_colon(a, tau)
        trivial = tau.is_unit()
        strictly = star.contains_ideal(a) and (star != a or trivial)
        rep.check(f"parameter {k}: a strictly inside a:tau"
                  + (" (tau unit: equality allowed)" if trivial else ""),
                  strictly, f"a = {_gb(a)}; a:tau = {_gb(star)}")
        back = a.colon(star)
        rep.check(f"parameter {k}: a:(a:tau) contains tau",
                  back.contains_ideal(tau), f"a:(a:tau) = {_gb(back)}")
    I = params.get("ideal") or Ideal(
        ring, [v ** 2 for v in ring.maximal_ideal().gens])
    colon = I.colon(tau)
    for e in (1, 2, 3):
        if e > params["emax"]:
            continue
        q = frobenius_q(ring, e)
        lhs = bracket_power(colon, e)
        rhs = corner_power(I, e, samples=1, rng=rng).value.colon(tau)
        rep.check(f"(I:tau)^[{q}] subset I^<{q}>:tau",
                  rhs.contains_ideal(lhs), f"I = {_gb(I)}")


def _suite_decr(ring, params, rng, rep):
    tau = test_ideal(ring).tau
    m = ring.maximal_ideal()
    targets = [("(x,y)", Ideal(ring, list(m.gens[:2]))),
               ("m", m)]
    if params.get("ideal") is not None:
        targets = [("I", params["ideal"])]
    for label, I in targets:
        chain = [iq_approx(I, e, tau) for e in range(min(3, params["emax"]) + 1)]
        for e in range(len(chain) - 1):
            q, pq = frobenius_q(ring, e), frobenius_q(ring, e + 1)
            rep.check(f"{label}: I_{pq} subset I_{q}",
                      chain[e].contains_ideal(chain[e + 1]),
                      f"I_{q} = {_gb(chain[e])}; I_{pq} = {_gb(chain[e + 1])}")
    a = Ideal(ring, list(m.gens[:2]))
    if a.height() == len(a.minimal_generators()):
        star = star_colon(a, tau)
        for e in range(min(3, params["emax"]) + 1):
            q = frobenius_q(ring, e)
            iq = iq_approx(a, e, tau)
            rep.check(f"parameter (x,y): a:tau subset a_{q}",
                      iq.contains_ideal(star), f"a_{q} = {_gb(iq)}")


def _suite_higher(ring, params, rng, rep):
    tau = test_ideal(ring).tau
    m = ring.maximal_ideal()
    containing = [("m", m)]
    if not tau.is_unit() and tau != m:
        containing.append(("tau", tau))
    containing = [(label, I) for label, I in containing
                  if I.contains_ideal(tau)]
    if not containing:
        rep.skip("ideals containing tau keep corners above tau",
                 "no proper ideal contains tau (tau is the unit ideal)")
    for label, I in containing:
        for e in (1, 2, 3):
            if e > params["emax"]:
                continue
            q = frobenius_q(ring, e)
            corner = corner_power(I, e, samples=1, rng=rng).value
            rep.check(f"{label} contains tau: {label}^<{q}> contains tau",
                      corner.contains_ideal(tau),
                      f"{label}^<{q}> = {_gb(corner)}")
    if tau.is_unit():
        rep.skip("strict I inside tau shrinks", "tau is the unit ideal")
        return
    I = Ideal(ring, list(m.gens[:2]))
    if not tau.contains_ideal(I) or I == tau:
        rep.skip("strict I inside tau shrinks", "no strict sub-tau fixture")
        return
    e = min(3, params["emax"])
    q = frobenius_q(ring, e)
    corner = corner_power(I, e, samples=1, rng=rng).value
    k = 0
    while k + 1 <= e and bracket_power(m, k + 1).contains_ideal(corner):
        k += 1
    rep.check(f"I strictly inside tau: I^<{q}> inside m^[{frobenius_q(ring, k)}]",
              bracket_power(m, k).contains_ideal(corner) and corner.is_proper(),
              f"I^<{q}> = {_gb(corner)}; deepest bracket level e={k}")


def _suite_hk_identity(ring, params, rng, rep):
    fixtures = [("m", ring.maximal_ideal())]
    if ring.poly.nvars == 3:
        fixtures.append(("(x^2,y^2,z)", ring.ideal("x^2", "y^2", "z")))
    if params.get("ideal") is not None:
        fixtures = [("J", params["ideal"])]
    for label, J in fixtures:
        for e in (1, 2):
            for s in range(params["samples"]):
                sub = random.Random(rng.randrange(2 ** 30))
                res = corner_length_identity(J, e, sub)
                rep.check(
                    f"{label}, q={frobenius_q(ring, e)}, sample {s}: "
                    f"l(R/J^<q>) = l(R/a^[q]) - l(R/I^[q])",
                    res.equal,
                    f"lhs={res.lhs} rhs={res.rhs} a = {_gb(res.linking)}")


def _suite_mapping_cone(ring, params, rng, rep):
    m = ring.maximal_ideal()
    for k in range(10):
        b = find_parameter_ideal(m, rng)
        a = find_parameter_ideal(b, rng)
        try:
            delta = link_delta(a, b)
        except AlgebraError as exc:
            rep.check(f"pair {k}: delta exists", False, str(exc))
            continue
        with_delta = a + Ideal(ring, [delta])
        ok1 = with_delta == a.colon(b)
        ok2 = a.colon(Ideal(ring, [delta])) == b
        rep.check(f"pair {k}: a:b = (a, delta)", ok1,
                  f"a = {_gb(a)}; b = {_gb(b)}; delta = {delta}")
        rep.check(f"pair {k}: a:delta = b", ok2, f"delta = {delta}")
        I = m
        mixed = a + Ideal(ring, [delta * g for g in I.gens])
        rep.check(f"pair {k}: (a, delta*I) unmixed for I = m",
                  is_unmixed(mixed, rng), f"(a, delta I) = {_gb(mixed)}")


def _suite_case1(ring, params, rng, rep):
    m = ring.maximal_ideal()
    fixtures = []
    for k in range(5):
        I = m if k % 2 == 0 else unmixed_part(
            find_parameter_ideal(m, rng)
            + Ideal(ring, [m.gens[k % len(m.gens)] ** 2]), rng)
        if not I.is_m_primary():
            I = m
        b = find_parameter_ideal(I, rng)
        a = find_parameter_ideal(b, rng)
        fixtures.append((I, b, a))
    for k, (I, b, a) in enumerate(fixtures):
        lhs = a.colon(b.colon(I))
        rhs = a + I * a.colon(b)
        rep.check(f"triple {k}: a:(b:I) = a + I(a:b)", lhs == rhs,
                  f"a = {_gb(a)}; b = {_gb(b)}; I = {_gb(I)}; "
                  f"lhs = {_gb(lhs)}")


def _suite_linkage_lift(ring, params, rng, rep):
    if ring.dim < 2:
        rep.skip("non-m-primary chains", "ring dimension below 2")
        return
    g = ring.maximal_ideal().gens
    seeds = [g[0] + g[1], g[0], g[1] + g[-1]]
    for k, gen in enumerate(seeds[:3]):
        I = Ideal(ring, [gen])
        if I.is_zero() or I.is_unit():
            rep.skip(f"chain {k}", f"degenerate seed {gen}")
            continue
        I = unmixed_part(I, rng)
        chain = []
        current = I
        for _ in range(min(2, params["depth"])):
            try:
                _, a = direct_link(current, rng=rng, check_unmixed=False)
            except (ParameterSearchFailed, AlgebraError) as exc:
                rep.skip(f"chain {k}: extend", str(exc))
                break
            chain.append(a)
            current = a.colon(current)
        if not chain:
            continue
        J = I
        for a in chain:
            J = a.colon(J)
        for t in range(1, params["tmax"] + 1):
            try:
                Jt = m_primary_link_lift(I, chain, t, rng)
            except AlgebraError as exc:
                rep.check(f"chain {k}, t={t}: J_t exists", False, str(exc))
                continue
            rep.check(f"chain {k}, t={t}: J subset J_t",
                      Jt.contains_ideal(J),
                      f"I = {_gb(I)}; J = {_gb(J)}; J_t = {_gb(Jt)}")


def _suite_main_theorem(ring, params, rng, rep):
    tau = test_ideal(ring).tau
    m = ring.maximal_ideal()
    fixtures = []
    if ring.poly.nvars >= 2:
        fixtures.append(("(x,y)", Ideal(ring, list(m.gens[:2]))))
    if ring.poly.nvars == 3:
        fixtures.append(("(x^2,y^2,z^2)",
                         Ideal(ring, [v ** 2 for v in m.gens])))
    fixtures.append(("m", m))
    if params.get("ideal") is not None:
        fixtures = [("I", params["ideal"])]
    for label, I in fixtures:
        tilde, record = tilde_approx(I, min(2, params["depth"]),
                                     params["samples"], rng)
        colon = I.colon(tau)
        approx = star_approx(I, params["emax"])
        product = tilde * colon
        rep.check(f"{label}: tilde(I)*(I:tau) subset upper bound of I^*",
                  approx.upper.contains_ideal(product),
                  f"tilde = {_gb(tilde)}; I:tau = {_gb(colon)}; "
                  f"upper = {_gb(approx.upper)}")
        if approx.certified:
            rep.check(f"{label}: containment against certified closure",
                      approx.lower.contains_ideal(product),
                      f"I^* = {_gb(approx.lower)}")
        if I.contains_ideal(tau):
            all_inside = all(I.contains_ideal(node) for node in record.nodes)
            rep.check(f"{label} contains tau: every explored link inside it",
                      all_inside,
                      f"nodes = {[ _gb(n) for n in record.nodes ]}")


def _suite_max_in_class(ring, params, rng, rep):
    tau = test_ideal(ring).tau
    m = ring.maximal_ideal()
    candidates = [("m", m)]
    if not tau.is_unit() and tau != m:
        candidates.append(("tau", tau))
    for label, I in candidates:
        if not I.contains_ideal(tau):
            rep.skip(f"{label} maximal", "does not contain tau")
            continue
        tilde, record = tilde_approx(I, min(2, params["depth"]),
                                     params["samples"], rng)
        inside = all(I.contains_ideal(node) for node in record.nodes)
        rep.check(f"{label}: every explored link inside {label}", inside,
                  f"{len(record.nodes)} nodes explored")
        rep.check(f"{label}: explored tilde equals {label}", tilde == I,
                  f"tilde = {_gb(tilde)}")


def _suite_lit(ring, params, rng, rep):
    tau = test_ideal(ring).tau
    if tau.is_unit():
        rep.skip("tilde(tau)*tau = tau^2", "tau is the unit ideal")
        return
    if not is_unmixed(tau, rng) or not is_unmixed(tau * tau, rng):
        rep.skip("tilde(tau)*tau = tau^2", "tau or tau^2 not unmixed")
        return
    tilde, record = tilde_approx(tau, min(2, params["depth"]),
                                 params["samples"], rng)
    lhs = tilde * tau
    rhs = tau * tau
    rep.check("tilde(tau)*tau = tau^2", lhs == rhs,
              f"tilde = {_gb(tilde)}; tau^2 = {_gb(rhs)}; "
              f"capped = {record.capped}")


_SUITES = {
    "paper-example": _suite_paper_example,
    "corner-welldef": _suite_corner_welldef,
    "corner-containment": _suite_corner_containment,
    "essential": _suite_essential,
    "decr": _suite_decr,
    "higher": _suite_higher,
    "hk-identity": _suite_hk_identity,
    "mapping-cone": _suite_mapping_cone,
    "case1": _suite_case1,
    "linkage-lift": _suite_linkage_lift,
    "main-theorem": _suite_main_theorem,
    "max-in-class": _suite_max_in_class,
    "lit": _suite_lit,
}

SUITE_NAMES = sorted(_SUITES)


def verify_suite(name: str, params: dict | None = None) -> dict:
    """Run one named suite; returns the SuiteReport dict."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {SUITE_NAMES}")
    params = dict(params or {})
    seed = int(params.pop("seed", 0))
    ring = params.pop("ring", None)
    if not isinstance(ring, RingContext):
        p = params.pop("p", None)
        variables = params.pop("vars", None)
        mod = params.pop("mod", None)
        if ring is None and p is None:
            ring = "fermat2"
        ring = make_ring(ring, p, variables, mod)
    ideal_text = params.pop("ideal", None)
    merged = dict(DEFAULTS)
    for key in DEFAULTS:
        if params.get(key) is not None:
            merged[key] = int(params[key])
        if merged[key] < 0:
            raise AlgebraError(f"{key} must be non-negative, got {merged[key]}")
    if ideal_text:
        merged["ideal"] = Ideal(ring, [ring.parse(g)
                                       for g in ideal_text.split(",")])
    else:
        merged["ideal"] = None
    public_params = {
        "ring": {"p": ring.field.p, "vars": list(ring.poly.variables),
                 "mod": str(ring.relation) if ring.relation is not None else None},
        "ideal": ideal_text,
        **{k: merged[k] for k in DEFAULTS},
    }
    rep = _Report(name, public_params, seed)
    rng = random.Random(seed)
    _SUITES[name](ring, merged, rng, rep)
    return rep.done()


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_exit_code(report: dict) -> int:
    return 1 if any(c["status"] == "fail" for c in report["checks"]) else 0
