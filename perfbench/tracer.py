"""Span tracer that wraps shellwave's public functions from outside.

Modules import functions from each other by name (``cli`` holds its own
``continuation_in_eps`` and ``write_*`` bindings, ``full_solver`` its own
``find_rho_star``), so wrapping one module attribute is not enough: every
binding of the same function object in every loaded ``shellwave`` module
is replaced, and all of them are restored when tracing stops.

Each call of a wrapped function records one span (name, start, end,
parent) plus a few counts read from its result.  Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

from workloads import STAGES

# module -> public functions wrapped under "<module>.<name>"
TARGETS = {
    "reduction": ("solve_projected", "find_rho_star", "reduced_energy_scan"),
    "full_solver": ("continuation_in_eps", "solve_full",
                    "pohozaev_refinement_check", "pohozaev_audit",
                    "tail_decay_check", "asymptotic_terms_check"),
    "ansatz": ("build_z", "build_zdot"),
    "potentials": ("find_critical_radius", "eval_M"),
    "ground_state": ("ground_state_constants", "nondegeneracy_report"),
    "normalization": ("to_original", "necessary_conditions_report",
                      "scaling_law_check"),
    "serialize": ("write_csv", "write_json", "write_plot_data", "write_svg"),
    "config": ("load_config",),
    "cli": ("main", "run"),
}
WRITERS = tuple(f"serialize.{n}" for n in TARGETS["serialize"])
# span name -> aggregates reported as "<span name>.<aggregate>"; the
# scan's ok_ratio and the serialize.write totals are added separately
LAYER_METRICS = (
    ("reduction.solve_projected", ("calls", "busy_s", "newton_iters", "unconverged")),
    ("reduction.find_rho_star", ("calls", "busy_s", "self_s", "evaluations")),
    ("reduction.reduced_energy_scan", ("busy_s",)),
    ("full_solver.continuation_in_eps", ("calls", "busy_s", "self_s")),
    ("full_solver.solve_full", ("calls", "busy_s", "newton_iters", "failed")),
    ("full_solver.pohozaev_refinement_check", ("busy_s", "failed")),
    ("full_solver.pohozaev_audit", ("busy_s",)),
    ("full_solver.tail_decay_check", ("busy_s",)),
    ("full_solver.asymptotic_terms_check", ("busy_s",)),
    ("grids.DiscreteOperators", ("calls", "busy_s")),
    ("ansatz.build_z", ("busy_s",)),
    ("ansatz.build_zdot", ("calls", "busy_s")),
    ("potentials.find_critical_radius", ("calls", "busy_s")),
    ("potentials.eval_M", ("calls",)),
    ("ground_state.ground_state_constants", ("calls", "busy_s")),
    ("ground_state.nondegeneracy_report", ("busy_s",)),
    ("normalization.to_original", ("busy_s",)),
    ("normalization.necessary_conditions_report", ("busy_s",)),
    ("normalization.scaling_law_check", ("busy_s",)),
    *((f"cli.stage.{stage}", ("busy_s",)) for stage in STAGES),
    ("cli.run", ("self_s",)),
    ("config.load_config", ("busy_s",)),
)


def _projected(out, args, kwargs):
    return {"newton_iters": out.newton_iters, "unconverged": int(not out.converged)}


def _scan(out, args, kwargs):
    return {"ok": int(out.ok.sum()), "samples": int(out.ok.size)}


def _written(out, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


EXTRACT = {
    "reduction.solve_projected": _projected,
    "reduction.find_rho_star": lambda out, a, k: {"evaluations": out.evaluations},
    "reduction.reduced_energy_scan": _scan,
    "full_solver.solve_full": lambda out, a, k: {"newton_iters": out.newton_iters},
    **{name: _written for name in WRITERS},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, parent):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    """Collects spans while active; ``overhead_s`` is the time the wrappers
    spent outside the wrapped calls (span bookkeeping and count reads)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, extract = self.spans, self._stack, EXTRACT.get(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            t_in = perf()
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            done = False
            span.start = perf()
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                span.end = t_out = perf()
                stack.pop()
                if not done:
                    span.attrs = {"failed": 1}
                elif extract is not None:
                    span.attrs = extract(out, args, kwargs)
                self.overhead_s += (span.start - t_in) + (perf() - t_out)
            return out

        return traced

    @contextmanager
    def active(self):
        """Patch every binding of the target functions, restore on exit."""
        mods = {k.split(".", 1)[1]: m for k, m in list(sys.modules.items())
                if k.startswith("shellwave.") and m is not None}
        wrappers = {}
        for mod, names in TARGETS.items():
            for name in names:
                fn = getattr(mods[mod], name)
                wrappers[id(fn)] = self._wrap(f"{mod}.{name}", fn)
        undo = []
        for m in mods.values():
            for attr, val in list(vars(m).items()):
                if callable(val) and id(val) in wrappers:
                    undo.append((m, attr, val))
                    setattr(m, attr, wrappers[id(val)])
        cli = mods["cli"]
        stage_table = dict(cli._STAGES)
        for stage, fn in stage_table.items():
            cli._STAGES[stage] = self._wrap(f"cli.stage.{stage}", fn)
        ops = mods["grids"].DiscreteOperators
        init = ops.__init__
        ops.__init__ = self._wrap("grids.DiscreteOperators", init)
        try:
            yield self
        finally:
            ops.__init__ = init
            cli._STAGES.update(stage_table)
            for m, attr, val in undo:
                setattr(m, attr, val)

    def ancestor(self, index: int, name: str) -> int:
        """Index of the nearest enclosing span called ``name``, or -1."""
        parent = self.spans[index].parent
        while parent >= 0 and self.spans[parent].name != name:
            parent = self.spans[parent].parent
        return parent

    def under(self, index: int, name: str) -> bool:
        return self.ancestor(index, name) >= 0

    def write(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start - t0, s.end - t0,
                                     s.parent, s.attrs]) + "\n")


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-layer metrics as means per job.

    busy_s sums the spans of a name that have no ancestor of the same name;
    self_s is busy time minus the time covered by direct child spans.
    """
    spans = tracer.spans
    agg: dict = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    for i, s in enumerate(spans):
        a = agg.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "failed": 0})
        a["calls"] += 1
        dur = s.end - s.start
        if not tracer.under(i, s.name):
            a["busy_s"] += dur
        a["self_s"] += dur - child_time[i]
        for k, v in (s.attrs or {}).items():
            a[k] = a.get(k, 0) + v

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    out = {f"{name}.{key}": get(name, key) / jobs
           for name, keys in LAYER_METRICS for key in keys}
    samples = get("reduction.reduced_energy_scan", "samples")
    out["reduction.reduced_energy_scan.ok_ratio"] = (
        get("reduction.reduced_energy_scan", "ok") / samples if samples else 0.0)
    for key in ("calls", "busy_s", "bytes"):
        out[f"serialize.write.{key}"] = sum(get(w, key) for w in WRITERS) / jobs
    out["trace.overhead_s"] = tracer.overhead_s / jobs
    return out
