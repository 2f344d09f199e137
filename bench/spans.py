"""Spans around calls into the package's layers, recorded from outside.

`Tracer.install` rebinds selected public functions in every loaded `injhom`
module to wrappers that record a span (name, start, end, parent, operation
id) and a few counts; `uninstall` restores the originals.  Spans stay in
memory until `layer_metrics` folds them into per-layer self times: a span's
duration minus the part its child spans cover.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from types import FunctionType

import injhom

# (module, function) -> span name; one span name per per-layer time metric
TRACED = {
    ("solver", "decide"): "solver.decide",
    ("solver", "enumerate_colourings"): "solver.enumerate",
    ("solver", "enumerate_mod_aut"): "solver.enumerate",
    ("poly", "decide_small_target"): "poly.decide",
    ("reductions", "build_ios_t4"): "reductions.build",
    ("reductions", "build_iot_t4"): "reductions.build",
    ("reductions", "build_ios_t5"): "reductions.build",
    ("reductions", "build_iot_t5"): "reductions.build",
    ("reductions", "build_ios_collapse"): "reductions.build",
    ("reductions", "build_iot_collapse"): "reductions.build",
    ("reductions", "lift_colouring"): "reductions.lift",
    ("reductions", "extract_edge_colouring"): "reductions.extract",
    ("reductions", "extract_inner_colouring"): "reductions.extract",
    ("digraph", "serialize_graph"): "digraph.serialize",
    ("digraph", "parse_graph"): "digraph.parse",
    ("gadgets", "verify_contract"): "gadgets.verify",
    ("gadgets", "verify_gadget"): "gadgets.verify",
    ("gadgets", "lemma_reports"): "gadgets.verify",
    ("gadgets", "load_gadget"): "gadgets.load",
    ("catalog", "automorphisms"): "catalog.automorphisms",
}

# per-layer time metric -> the span name whose self time it sums
TIME_METRICS = {
    "solver.setup_s": "solver.setup",
    "solver.decide_s": "solver.decide",
    "solver.enumerate_s": "solver.enumerate",
    "reductions.build_s": "reductions.build",
    "reductions.lift_s": "reductions.lift",
    "reductions.extract_s": "reductions.extract",
    "digraph.serialize_s": "digraph.serialize",
    "digraph.parse_s": "digraph.parse",
    "poly.decide_s": "poly.decide",
    "gadgets.verify_s": "gadgets.verify",
    "gadgets.load_s": "gadgets.load",
    "catalog.automorphisms_s": "catalog.automorphisms",
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "injhom" or name.startswith("injhom."))]


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: object = None
        self.probe_s = 0.0  # time spent in solver.setup probes, which untraced runs lack
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op_id]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def _wrapper(self, name, fn):
        counts = self.counts
        if fn.__name__ == "decide":
            def traced(g, t, mode, fixed=None, node_budget=None):
                res = self._call(name, fn, (g, t, mode, fixed, node_budget), {})
                counts["decide_calls"] += 1
                counts["nodes"] += res.nodes
                counts["propagations"] += res.propagations
                counts["decide_vertices"] += g.n
                # engine set-up alone: tables are built, the search stops before its first node
                start = time.perf_counter()
                self._call("solver.setup", fn, (g, t, mode, fixed, 0), {})
                self.probe_s += time.perf_counter() - start
                return res
        elif fn.__name__ == "enumerate_colourings":
            def traced(*args, **kwargs):
                res = self._call(name, fn, args, kwargs)
                counts["enumerate_calls"] += 1
                counts["witnesses"] += len(res.witnesses)
                return res
        elif fn.__name__ == "decide_small_target":
            def traced(g, *args, **kwargs):
                res = self._call(name, fn, (g,) + args, kwargs)
                counts["poly_calls"] += 1
                counts["poly_vertices"] += g.n
                return res
        elif fn.__name__.startswith("build_"):
            def traced(*args, **kwargs):
                ri = self._call(name, fn, args, kwargs)
                counts["build_calls"] += 1
                counts["instance_vertices"] += ri.graph.n
                return ri
        elif fn.__name__ == "serialize_graph":
            def traced(*args, **kwargs):
                text = self._call(name, fn, args, kwargs)
                counts["bytes"] += len(text)
                return text
        elif fn.__name__ == "verify_contract":
            def traced(*args, **kwargs):
                report = self._call(name, fn, args, kwargs)
                counts["verifications"] += 1
                counts["gadget_witnesses"] += report.witness_count
                return report
        else:
            def traced(*args, **kwargs):
                return self._call(name, fn, args, kwargs)
        return traced

    def _screen(self, fn):
        def counted(*args, **kwargs):
            screened = fn(*args, **kwargs)
            if screened:
                self.counts["poly_screened"] += 1
            return screened
        return counted

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every reference to a traced function inside the package."""
        swaps = {}
        for (module, fname), name in TRACED.items():
            fn = getattr(getattr(injhom, module), fname)
            swaps[fn] = self._wrapper(name, fn)
        screen = injhom.solver.pigeonhole_unsat
        swaps[screen] = self._screen(screen)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in swaps:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, swaps[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self, factor: float) -> dict[str, float]:
        """Every per-layer metric: self times, counts, and ratios.

        `factor` turns measured seconds into reference seconds (reference.py).
        """
        st = self.self_times()
        c = self.counts
        m = {metric: st.get(span, 0.0) * factor for metric, span in TIME_METRICS.items()}
        m.update({
            "solver.decide_calls": c["decide_calls"],
            "solver.nodes": c["nodes"],
            "solver.propagations": c["propagations"],
            "solver.nodes_per_s": _ratio(c["nodes"], m["solver.decide_s"]),
            "solver.nodes_per_vertex": _ratio(c["nodes"], c["decide_vertices"]),
            "solver.enumerate_calls": c["enumerate_calls"],
            "solver.witnesses": c["witnesses"],
            "reductions.build_calls": c["build_calls"],
            "reductions.instance_vertices": c["instance_vertices"],
            "digraph.bytes": c["bytes"],
            "poly.calls": c["poly_calls"],
            "poly.vertices_per_s": _ratio(c["poly_vertices"], m["poly.decide_s"]),
            "poly.screened_frac": _ratio(c["poly_screened"], c["poly_calls"]),
            "gadgets.verifications": c["verifications"],
            "gadgets.witnesses": c["gadget_witnesses"],
        })
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
