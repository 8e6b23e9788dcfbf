"""Spans around calls into charp's public functions, installed from outside.

`Tracer.install` replaces each traced function or method by a wrapper and
rebinds every reference to the original it finds in charp's modules and
classes: `from .x import f` leaves a copy of f in each importing module
(`rings.buchberger`, `frobenius.eliminate`, `suites.corner_power`, ...).
`unwrapped_references` then scans again and names any reference left.

Wrappers record spans (name, start, end, parent) in arrays and never
change program state: they read `Ideal._gb` and `RingContext._test_ideal`
but do not access `Ideal.gb`, and draw no random numbers.  Spans are turned
into per-layer metrics after the pass, and written to disk by `dump`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array

from workloads import SUITE_NAMES

# (metric layer, module, attribute) of plain functions; methods below.
FUNCTIONS = (
    ("core.parse", "charp.core", "parse_polynomial"),
    ("groebner.buchberger", "charp.groebner", "buchberger"),
    ("groebner.eliminate", "charp.groebner", "eliminate"),
    ("groebner.normal_form", "charp.groebner", "normal_form"),
    ("groebner.divide_exact", "charp.groebner", "divide_exact"),
    ("rings.find_parameter_ideal", "charp.rings", "find_parameter_ideal"),
    ("frobenius.bracket_power", "charp.frobenius", "bracket_power"),
    ("frobenius.frobenius_root", "charp.frobenius", "frobenius_root"),
    ("frobenius.frobenius_preimage", "charp.frobenius", "frobenius_preimage"),
    ("singularity.test_ideal", "charp.singularity", "test_ideal"),
    ("singularity.iq_approx", "charp.singularity", "iq_approx"),
    ("singularity.star_approx", "charp.singularity", "star_approx"),
    ("linkage.corner_power", "charp.linkage", "corner_power"),
    ("linkage.direct_link", "charp.linkage", "direct_link"),
    ("linkage.tilde_approx", "charp.linkage", "tilde_approx"),
    ("linkage.link_delta", "charp.linkage", "link_delta"),
    ("linkage.m_primary_link_lift", "charp.linkage", "m_primary_link_lift"),
    ("lengths.hk_table", "charp.lengths", "hk_table"),
    ("lengths.corner_length_identity", "charp.lengths", "corner_length_identity"),
    ("suites.verify_suite", "charp.suites", "verify_suite"),
)
METHODS = (
    ("core.poly_mul", "charp.core", "Polynomial", "__mul__"),
    ("core.poly_pow", "charp.core", "Polynomial", "__pow__"),
    ("rings.ring_init", "charp.rings", "RingContext", "__init__"),
    ("rings.colon", "charp.rings", "Ideal", "colon"),
    ("rings.intersect", "charp.rings", "Ideal", "intersect"),
    ("rings.contains", "charp.rings", "Ideal", "contains"),
    # rings binds groebner.colength as _gb_colength; the method is the layer
    ("rings.colength", "charp.rings", "Ideal", "colength"),
    ("script.execute", "charp.script", "ScriptRunner", "execute"),
)
# Classes whose dicts the alias scan covers besides the modules.
CLASSES = (("charp.rings", "Ideal"), ("charp.core", "Polynomial"),
           ("charp.rings", "RingContext"), ("charp.script", "ScriptRunner"))

# Per-layer metrics: (name, unit); the order BENCHMARK.json lists them in.
SPAN_METRICS = (
    ("core.parse", ("calls", "self_s")),
    ("core.poly_mul", ("calls", "self_s")),
    ("core.poly_pow", ("self_s",)),
    ("groebner.buchberger", ("calls", "self_s")),
    ("groebner.eliminate", ("calls", "total_s")),
    ("groebner.normal_form", ("calls", "self_s")),
    ("groebner.divide_exact", ("self_s",)),
    ("rings.colon", ("calls", "self_s", "total_s")),
    ("rings.intersect", ("calls", "total_s")),
    ("rings.contains", ("calls", "self_s")),
    ("rings.colength", ("calls", "self_s")),
    ("rings.find_parameter_ideal", ("calls", "total_s")),
    ("rings.ring_init", ("total_s",)),
    ("frobenius.bracket_power", ("calls", "self_s")),
    ("frobenius.frobenius_root", ("calls", "self_s")),
    ("frobenius.frobenius_preimage", ("calls", "total_s")),
    ("singularity.test_ideal", ("calls", "total_s")),
    ("singularity.iq_approx", ("total_s",)),
    ("singularity.star_approx", ("total_s",)),
    ("linkage.corner_power", ("calls", "total_s")),
    ("linkage.direct_link", ("calls", "total_s")),
    ("linkage.tilde_approx", ("total_s",)),
    ("linkage.link_delta", ("total_s",)),
    ("linkage.m_primary_link_lift", ("total_s",)),
    ("lengths.hk_table", ("total_s",)),
    ("lengths.corner_length_identity", ("total_s",)),
    ("script.execute", ("self_s",)),
) + tuple((f"suites.{s}", ("total_s",)) for s in SUITE_NAMES)

OTHER_METRICS = (
    ("core.leading_monomial.calls", "count"),
    ("groebner.buchberger.out_gens_max", "count"),
    ("groebner.spair_zero_ratio", "ratio"),
    ("rings.colon.mprimary_share", "ratio"),
    ("rings.gb.computed", "count"),
    ("rings.gb.hit_ratio", "ratio"),
    ("singularity.test_ideal.hit_ratio", "ratio"),
    ("linkage.tilde_approx.nodes", "count"),
    ("script.read_p50_ms", "ms"),
    ("script.write_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit)."""
    out = []
    for layer, kinds in SPAN_METRICS:
        for kind in kinds:
            out.append((f"{layer}.{kind}", "count" if kind == "calls" else "s"))
    return out + list(OTHER_METRICS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self._depth: dict[int, int] = {}
        self.paused = False
        self.originals: dict[int, object] = {}
        self.counts = {k: 0 for k in ("leading_monomial", "gb_hit", "gb_miss",
                                      "spair_nf", "spair_zero", "test_ideal_hit",
                                      "tilde_nodes", "out_gens_max")}
        self.colon_dividends: list = []
        self.script_ms = {"read": [], "write": []}

    # -- spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        depth = self._depth.get(nid, 0)
        self._depth[nid] = depth + 1
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.outer.append(depth == 0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()
        self._depth[self.name[i]] -= 1

    def _span(self, name, fn, before=None, after=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, result, i)
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced callable and rebind all references to it."""
        import charp  # noqa: F401  (loads every charp module)

        counts = self.counts

        def after_buchberger(args, result, i):
            counts["out_gens_max"] = max(counts["out_gens_max"], len(result))

        def after_normal_form(args, result, i):
            p = self.parent[i]
            if p >= 0 and self.name[p] == buchberger_id:
                counts["spair_nf"] += 1
                counts["spair_zero"] += result.is_zero()

        def before_test_ideal(args, kwargs):
            override = kwargs.get("override", args[1] if len(args) > 1 else None)
            if override is None and args[0]._test_ideal is not None:
                counts["test_ideal_hit"] += 1

        def after_tilde(args, result, i):
            counts["tilde_nodes"] += len(result[1].nodes)

        def before_colon(args, kwargs):
            self.colon_dividends.append(args[0])

        def after_execute(args, result, i):
            kind = "read" if args[1].lstrip().startswith(("assert", "print")) else "write"
            self.script_ms[kind].append((self.end[i] - self.start[i]) * 1e3)

        hooks = {
            "groebner.buchberger": (None, after_buchberger),
            "groebner.normal_form": (None, after_normal_form),
            "singularity.test_ideal": (before_test_ideal, None),
            "linkage.tilde_approx": (None, after_tilde),
            "rings.colon": (before_colon, None),
            "script.execute": (None, after_execute),
        }
        buchberger_id = self.name_id("groebner.buchberger")
        replace = {}
        for name, module, attr in FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            if name == "suites.verify_suite":
                replace[id(fn)] = self._suite_wrapper(fn)
            else:
                replace[id(fn)] = self._span(name, fn, *hooks.get(name, (None, None)))
            self.originals[id(fn)] = fn
        for name, module, cls, attr in METHODS:
            fn = vars(getattr(sys.modules[module], cls))[attr]
            replace[id(fn)] = self._span(name, fn, *hooks.get(name, (None, None)))
            self.originals[id(fn)] = fn

        from charp.core import Polynomial
        from charp.rings import Ideal
        lm = vars(Polynomial)["leading_monomial"]
        self.originals[id(lm)] = lm

        def leading_monomial(poly, *args, **kwargs):
            if not self.paused:
                counts["leading_monomial"] += 1
            return lm(poly, *args, **kwargs)
        replace[id(lm)] = functools.wraps(lm)(leading_monomial)

        gb_prop = vars(Ideal)["gb"]
        gb_get = gb_prop.fget
        self.originals[id(gb_get)] = gb_get

        def gb(ideal):
            if not self.paused:
                counts["gb_hit" if ideal._gb is not None else "gb_miss"] += 1
            return gb_get(ideal)
        replace[id(gb_prop)] = property(functools.wraps(gb_get)(gb), doc=gb_prop.__doc__)

        for _, namespace, owner in _namespaces():
            _rebind(namespace, owner, replace)

    def _suite_wrapper(self, fn):
        @functools.wraps(fn)
        def verify_suite(name, *args, **kwargs):
            if self.paused:
                return fn(name, *args, **kwargs)
            i = self._open(self.name_id(f"suites.{name}"))
            try:
                return fn(name, *args, **kwargs)
            finally:
                self._close(i)
        return verify_suite

    def unwrapped_references(self) -> list[str]:
        """Places in charp's modules and classes still holding an original."""
        left = []
        for label, namespace, _ in _namespaces():
            for key, value in _entries(namespace):
                target = value.fget if isinstance(value, property) else value
                if id(target) in self.originals:
                    left.append(f"{label}: {key}")
        return left

    # -- results ---------------------------------------------------------

    def _mprimary_share(self) -> float:
        """Share of colon dividends that are m-primary.  Run after the pass
        with tracing paused: a dividend whose GB the program computed is
        read as is, any other is copied so its own state stays untouched."""
        from charp.groebner import INFINITE, colength
        from charp.rings import Ideal
        self.paused = True
        try:
            hits = 0
            for ideal in self.colon_dividends:
                gb = ideal._gb if ideal._gb is not None else Ideal(ideal.ring, ideal.gens).gb
                hits += colength(gb, ideal.ring.poly.nvars) is not INFINITE
        finally:
            self.paused = False
        return hits / len(self.colon_dividends) if self.colon_dividends else 0.0

    def _durations(self):
        """Duration and self time (duration minus direct children) per span."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def metrics(self) -> dict:
        dur, own = self._durations()
        agg = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(len(dur)):
            a = agg[self.names[self.name[i]]]
            a["calls"] += 1
            a["self_s"] += own[i]
            if self.outer[i]:
                a["total_s"] += dur[i]
        out = {}
        for layer, kinds in SPAN_METRICS:
            for kind in kinds:
                out[f"{layer}.{kind}"] = agg.get(layer, {}).get(kind, 0)
        c = self.counts
        gb_total = c["gb_hit"] + c["gb_miss"]
        test_calls = agg.get("singularity.test_ideal", {}).get("calls", 0)
        out.update({
            "core.leading_monomial.calls": c["leading_monomial"],
            "groebner.buchberger.out_gens_max": c["out_gens_max"],
            "groebner.spair_zero_ratio": c["spair_zero"] / c["spair_nf"] if c["spair_nf"] else 0.0,
            "rings.colon.mprimary_share": self._mprimary_share(),
            "rings.gb.computed": c["gb_miss"],
            "rings.gb.hit_ratio": c["gb_hit"] / gb_total if gb_total else 0.0,
            "singularity.test_ideal.hit_ratio": c["test_ideal_hit"] / test_calls if test_calls else 0.0,
            "linkage.tilde_approx.nodes": c["tilde_nodes"],
            "script.read_p50_ms": _median(self.script_ms["read"]),
            "script.write_p50_ms": _median(self.script_ms["write"]),
        })
        return out

    def self_time_by_module(self) -> dict:
        """Self seconds per charp module (the first part of a span name)."""
        out: dict = {}
        for nid, own in zip(self.name, self._durations()[1]):
            module = self.names[nid].split(".")[0]
            out[module] = out.get(module, 0.0) + own
        return out

    def dump(self, path: str):
        """Write every span: a JSON header line, then the raw arrays."""
        columns = ("name", "parent", "outer", "start", "end")
        header = {"names": self.names, "spans": len(self.start),
                  "columns": [[c, getattr(self, c).typecode] for c in columns],
                  "note": "name and parent index names/spans (-1: none); outer "
                          "is 1 when no enclosing span has the same name; times "
                          "are seconds"}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(fh)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _namespaces():
    """(label, namespace, owning class or None) for every charp module and
    every class in CLASSES."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name == "charp" or name.startswith("charp."):
            out.append((name, vars(module), None))
    for module, name in CLASSES:
        cls = getattr(sys.modules[module], name)
        out.append((f"{module}.{name}", vars(cls), cls))
    return out


def _entries(namespace):
    """(key, value) of a namespace and of the containers one level inside."""
    for key, value in list(namespace.items()):
        yield key, value
        if isinstance(value, dict):
            for k, v in value.items():
                yield f"{key}[{k!r}]", v
        elif isinstance(value, (list, tuple, set, frozenset)):
            for k, v in enumerate(value):
                yield f"{key}[{k}]", v


def _rebind(namespace, owner, replace: dict):
    """Point every reference in namespace (and in the dicts and lists it
    holds) at the replacement of its original; class dicts are read-only
    views, so a class is updated through setattr."""
    for key, value in list(namespace.items()):
        if id(value) in replace:
            if owner is not None:
                setattr(owner, key, replace[id(value)])
            else:
                namespace[key] = replace[id(value)]
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                if id(v) in replace:
                    value[k] = replace[id(v)]
        elif isinstance(value, list):
            for k, v in enumerate(value):
                if id(v) in replace:
                    value[k] = replace[id(v)]
