"""In-memory span tracer used by the traced benchmark run.

The tracer measures convcheck from the outside.  ``install()`` rebinds
each wrapped function at every place a convcheck module holds it (a
module global or a value in a module-level dict, since the package
imports many functions by name) and replaces each wrapped method on its
class; ``restore()`` puts every original back and checks that it did.

A span is (name, start, end, parent, trace id).  Spans are appended to
flat arrays while the workload runs and written out once, when it ends.
``run_record`` and ``run_record_substituted`` are split into one call
per index n, so every verdict gets its own span and trace id; the
verdicts are the same as from one call over the whole range, because
the checks share the same context caches either way.

Nothing in convcheck waits on a queue or a lock held by another thread
(the program is single-threaded), so there are busy-time and count
metrics but no wait-time metrics.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

RINGS = ("indeterminate", "fibonacci-roots", "balancing-roots")
FAMILIES = ("L1", "R1", "BINET", "T2", "T3", "T4", "C2", "C3", "C4")

# span names reported as "<name>.s", the union of their spans' time (a
# span nested in a span of the same name is not counted twice)
_UNION_GROUPS = ("arith.format", "report.render", "sequences.number", "sequences.poly",
                 "egf.special", "catalog.register")
# span names reported as "<name>.calls" and "<name>.self_s"
_SELF_GROUPS = ("arith.mul", "arith.add", "arith.substitute", "quadext.mul", "core.conv_sum")


def _nterms(poly) -> int:
    terms = getattr(poly, "_terms", None)
    return len(terms) if terms is not None else len(poly.terms)


class Tracer:
    """Span recorder plus the table of bindings it replaced."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self._stack: List[int] = []
        self._trace = [0]
        # (span index, ring, family prefix, n) for every verdict or check span
        self.checks: List[Tuple[int, str, str, int]] = []
        self.mul_term_products = 0
        self.mul_max_terms = 0
        self._replaced: List[Tuple[object, object, object, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, span_name: str) -> int:
        nid = self._name_ids.get(span_name)
        if nid is None:
            nid = self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        return nid

    def span(self, span_name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records one span."""
        nid = self._name_id(span_name)
        start, end, name, parent, trace = self.start, self.end, self.name, self.parent, self.trace
        stack, cur = self._stack, self._trace
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            trace.append(cur[0])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _mul_span(self, fn: Callable) -> Callable:
        inner = self.span("arith.mul", fn)

        def traced_mul(a, b):
            out = inner(a, b)
            if out is not NotImplemented:
                na = _nterms(a)
                nb = _nterms(b) if type(b) is type(a) else 1
                self.mul_term_products += na * nb
                self.mul_max_terms = max(self.mul_max_terms, na, nb)
            return out

        traced_mul.__wrapped__ = fn
        return traced_mul

    def _check_span(self, span_name: str, fn: Callable) -> Callable:
        """Span for one check call, with a fresh trace id."""
        inner = self.span(span_name, fn)

        def traced_check(record, *args, n: int = -1, **kwargs):
            self._trace[0] += 1
            idx = len(self.start)
            self.checks.append((idx, record.ring, record.ident.split(".")[0], n))
            try:
                return inner(record, *args, **kwargs)
            finally:
                self._trace[0] = 0

        return traced_check

    def _per_n(self, fn: Callable) -> Callable:
        """One verdict span per index n for a function that takes a
        ``record`` and an ``n_range``, like ``run_record``."""
        check = self._check_span("core.verdict", fn)
        signature = inspect.signature(fn)

        def traced_range(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            record = call.arguments["record"]
            n_range = call.arguments["n_range"]
            lo, hi = n_range if n_range is not None else record.default_range()
            out = []
            for n in range(lo, hi + 1):
                call.arguments["n_range"] = (n, n)
                out.extend(check(*call.args, n=n, **call.kwargs))
            return out

        traced_range.__wrapped__ = fn
        return traced_range

    # -- installing and restoring ----------------------------------------

    def _rebind_function(self, module_name: str, attr: str, wrapper_for: Callable) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_for(original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "convcheck" or mod_name.startswith("convcheck.")):
                continue
            space = vars(module)
            for key, value in list(space.items()):
                if value is original:
                    self._replace(space, key, original, wrapper)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._replace(value, dkey, original, wrapper)

    def _rebind_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._replaced.append((cls, attr, original, wrapper))

    def _replace(self, space: dict, key, original, wrapper) -> None:
        space[key] = wrapper
        self._replaced.append((space, key, original, wrapper))

    def install(self) -> None:
        """Wrap the public callables of every convcheck layer."""
        import convcheck.cli  # noqa: F401  (loads every module wrapped below)
        from convcheck.arith import MultiPoly
        from convcheck.identities.core import Context
        from convcheck.quadext import QuadExtElem

        fn = self._rebind_function
        fn("convcheck.cli", "main", lambda f: self.span("cli.main", f))
        for attr in ("build_payload", "render_json", "render_text", "render_markdown"):
            fn("convcheck.report", attr, lambda f: self.span("report.render", f))
        for attr in ("select_records", "run_records", "exit_code_for"):
            fn("convcheck.report", attr, lambda f, a=attr: self.span(f"report.{a}", f))
        fn("convcheck.identities.catalog", "register_catalog",
           lambda f: self.span("catalog.register", f))
        core = "convcheck.identities.core"
        fn(core, "run_record", self._per_n)
        fn(core, "run_record_substituted", self._per_n)
        fn(core, "parity_restriction_equivalence", lambda f: self._check_span("core.parity", f))
        fn(core, "eval_convolution_sum", lambda f: self.span("core.conv_sum", f))
        for attr in ("bernoulli_number", "euler_number", "genocchi_number"):
            fn("convcheck.sequences", attr, lambda f: self.span("sequences.number", f))
        fn("convcheck.sequences", "number_polynomial", lambda f: self.span("sequences.poly", f))
        fn("convcheck.sequences", "bivariate_sequence",
           lambda f: self.span("sequences.bivariate", f))
        fn("convcheck.egf", "egf_special", lambda f: self.span("egf.special", f))
        fn("convcheck.arith", "format_poly", lambda f: self.span("arith.format", f))

        meth = self._rebind_method
        meth(Context, "pair_product", self.span("core.pair_product", Context.pair_product))
        for attr in ("__mul__", "__rmul__"):
            meth(MultiPoly, attr, self._mul_span(MultiPoly.__dict__[attr]))
            meth(QuadExtElem, attr, self.span("quadext.mul", QuadExtElem.__dict__[attr]))
        for attr in ("__add__", "__radd__", "__sub__"):
            meth(MultiPoly, attr, self.span("arith.add", MultiPoly.__dict__[attr]))
        meth(MultiPoly, "substitute", self.span("arith.substitute", MultiPoly.substitute))
        meth(QuadExtElem, "substitute", self.span("quadext.substitute", QuadExtElem.substitute))

    def restore(self) -> None:
        """Put back every replaced binding, newest first, and verify."""
        for target, key, original, _ in reversed(self._replaced):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        for target, key, original, _ in self._replaced:
            now = target[key] if isinstance(target, dict) else target.__dict__[key]
            if now is not original:
                raise RuntimeError(f"tracer failed to restore {key!r}")

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the five raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["start", "d"], ["end", "d"], ["name", "i"], ["parent", "i"], ["trace", "i"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent, self.trace):
                arr.tofile(fh)

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics computed from the recorded spans."""
        count = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * count
        parent = self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        group_of = self.name
        ids = self._name_ids
        calls: Dict[int, int] = {}
        self_s: Dict[int, float] = {}
        union_s: Dict[int, float] = {}
        union_ids = {ids[g] for g in _UNION_GROUPS if g in ids}
        for i in range(count):
            g = group_of[i]
            calls[g] = calls.get(g, 0) + 1
            self_s[g] = self_s.get(g, 0.0) + dur[i] - child[i]
            if g in union_ids:
                p = parent[i]
                while p >= 0 and group_of[p] != g:
                    p = parent[p]
                if p < 0:
                    union_s[g] = union_s.get(g, 0.0) + dur[i]

        def gid(g: str) -> int:
            return ids.get(g, -1)

        out: Dict[str, float] = {}
        for g in _SELF_GROUPS:
            out[f"{g}.calls"] = calls.get(gid(g), 0)
            out[f"{g}.self_s"] = self_s.get(gid(g), 0.0)
        out["arith.mul.term_products"] = self.mul_term_products
        out["arith.mul.max_terms"] = self.mul_max_terms
        out["arith.format.calls"] = calls.get(gid("arith.format"), 0)
        for g in _UNION_GROUPS:
            out[f"{g}.s"] = union_s.get(gid(g), 0.0)

        pp_id = gid("core.pair_product")
        pp_calls = calls.get(pp_id, 0)
        misses = {parent[i] for i in range(count) if parent[i] >= 0 and group_of[parent[i]] == pp_id}
        out["core.pair_product.calls"] = pp_calls
        out["core.pair_product.hit_ratio"] = (pp_calls - len(misses)) / pp_calls if pp_calls else 0.0

        ring_s = {r: 0.0 for r in RINGS}
        family_s = {f: 0.0 for f in FAMILIES}
        verdict_ms: List[float] = []
        t4_by_n: Dict[int, float] = {}
        verdict_id = gid("core.verdict")
        for idx, ring, family, n in self.checks:
            d = dur[idx]
            ring_s[ring] = ring_s.get(ring, 0.0) + d
            family_s[family] = family_s.get(family, 0.0) + d
            if group_of[idx] == verdict_id:
                verdict_ms.append(d * 1e3)
                if family == "T4" and ring == "indeterminate":
                    t4_by_n[n] = t4_by_n.get(n, 0.0) + d
        for ring in RINGS:
            out[f"core.ring.{ring}.s"] = ring_s[ring]
        for family in FAMILIES:
            out[f"core.family.{family}.s"] = family_s[family]
        out["core.verdict.p50_ms"] = _nearest_rank(verdict_ms, 0.50)
        out["core.verdict.p99_ms"] = _nearest_rank(verdict_ms, 0.99)
        out["core.t4.scaling_exponent"] = _upper_half_slope(t4_by_n)
        return out


def _nearest_rank(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _upper_half_slope(time_by_n: Dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(n) for n in [N/2, N]."""
    if not time_by_n:
        return 0.0
    top = max(time_by_n)
    pts = [(math.log(n), math.log(t)) for n, t in time_by_n.items()
           if n >= max(1, top / 2) and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def baseline_shape(metrics: Dict[str, float]) -> Optional[Dict[str, object]]:
    """Compare a traced catalog run with the baseline profile shape: the
    T4 family takes the most time, and the ring split is within 10
    points of 66/16/18 per cent."""
    ring_total = sum(metrics[f"core.ring.{r}.s"] for r in RINGS)
    if not ring_total:
        return None
    shares = {r: 100.0 * metrics[f"core.ring.{r}.s"] / ring_total for r in RINGS}
    expected = {"indeterminate": 66.0, "fibonacci-roots": 16.0, "balancing-roots": 18.0}
    largest = max(FAMILIES, key=lambda f: metrics[f"core.family.{f}.s"])
    ok = largest == "T4" and all(abs(shares[r] - expected[r]) <= 10.0 for r in RINGS)
    return {"ring_share_pct": shares, "largest_family": largest, "matches": ok}
