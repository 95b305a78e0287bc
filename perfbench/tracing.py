"""Traced mode: per-layer spans and counters, wrapped around catchup from outside.

Each traced function is replaced at every module binding that holds it
(``catchup.solver.approx_project``, ``catchup.perturbation.approx_project``,
...), so calls made inside the package are seen as well as the benchmark's
own.  Spans ``[parent, name, start, end]`` are kept in memory; a span's self
time is its duration minus its children's.  The LMO, ``residual`` and the
separation oracle run up to ~10^5 times a pass and get counters only.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from catchup import cli, geometry, harness, oracles, perturbation, solver

MODULES = (geometry, oracles, perturbation, solver, harness, cli)

# (span name, module, function); both export functions count as one layer
SPANS = (
    ("oracles.approx_project", oracles, "approx_project"),
    ("oracles.fw", oracles, "frank_wolfe_project"),
    ("oracles.cutting", oracles, "cutting_plane_project"),
    ("oracles.polyhedron_qp", oracles, "_project_polyhedron"),
    ("oracles.restore", oracles, "_restore_feasibility"),
    ("geometry.exact_project", geometry, "exact_project"),
    ("geometry.distance", geometry, "distance"),
    ("perturbation.cell_integral", perturbation, "cell_integral"),
    ("perturbation.selection", perturbation, "min_norm_selection"),
    ("solver.solve", solver, "solve"),
    ("solver.step", solver, "step"),
    ("solver.interpolate", solver, "interpolate"),
    ("solver.theorem1_audit", solver, "theorem1_audit"),
    ("solver.export", solver, "trajectory_to_csv"),
    ("solver.export", solver, "trajectory_to_json"),
    ("cli.main", cli, "main"),
    ("harness.sup_error", harness, "sup_error"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
COUNTERS = (
    ("geometry.residual", geometry, "residual"),
    ("oracles.separation", oracles, "separation_oracle"),
)
PERCENTILE_SPANS = ("oracles.polyhedron_qp", "solver.step")
DEFAULT_EPS = oracles.ProjectorConfig().eps


class Tracer:
    """Installs the wrappers, records one pass at a time, restores on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    def _span(self, name: str, fn):
        spans, open_, observe = self.spans, self._open, _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            record = [parent, name, 0.0, 0.0]
            open_.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                open_.pop()
            if observe is not None:
                observe(self, parent, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lmo_for(self, fn):
        counted = self._counter

        def wrapper(s):
            return counted("oracles.lmo", fn(s))

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for name, module, attr in SPANS:
            fn = getattr(module, attr)
            self._replace(fn, self._span(name, fn))
        for name, module, attr in COUNTERS:
            fn = getattr(module, attr)
            self._replace(fn, self._counter(name, fn))
        self._replace(oracles.lmo_for, self._lmo_for(oracles.lmo_for))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, (_, name, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name in PERCENTILE_SPANS:
                durations[name].append(end - start)

        m: dict[str, float] = {}
        for name in SPAN_NAMES:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        for name in PERCENTILE_SPANS:
            us = np.array(durations[name]) * 1e6
            p50, p99 = np.percentile(us, [50, 99]) if us.size else (0.0, 0.0)
            m[f"{name}.us_p50"], m[f"{name}.us_p99"] = float(p50), float(p99)
        for name in [name for name, _, _ in COUNTERS] + ["oracles.lmo"]:
            m[f"{name}.calls"] = self.counts[name]
        for key in ("oracles.fw.iterations", "oracles.cutting.iterations",
                    "oracles.approx_project.unconverged", "perturbation.selection.unconverged",
                    "solver.export.bytes"):
            m[key] = self.counts[key]
        for key in ("oracles.fw.iter_max", "oracles.cutting.iter_max",
                    "oracles.polyhedron_qp.cuts_max", "oracles.cert_over_eps_max"):
            m[key] = self.maxima[key]
        its = m["oracles.fw.iterations"]
        m["oracles.fw.us_per_iter"] = 1e6 * m["oracles.fw.self_s"] / its if its else 0.0
        return m

    def write_spans(self, path: Path) -> None:
        """The recorded pass's spans as [id, parent, name, start_s, end_s] rows."""
        rows = [[i, parent, name, start, end] for i, (parent, name, start, end) in enumerate(self.spans)]
        path.write_text(json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s"],
                                    "spans": rows}) + "\n")


# ---------------------------------------------------------------------------
# observers: counts read off a wrapped call's arguments and result


def _observe_approx(tracer: Tracer, parent: int, args, kwargs, res) -> None:
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    eps = cfg.eps if cfg is not None else DEFAULT_EPS
    key = "oracles.cert_over_eps_max"
    tracer.maxima[key] = max(tracer.maxima[key], res.certified_eps / eps)
    if not res.converged:
        tracer.counts["oracles.approx_project.unconverged"] += 1
        if parent >= 0 and tracer.spans[parent][1] == "perturbation.selection":
            tracer.counts["perturbation.selection.unconverged"] += 1


def _observe_iterations(route: str):
    def observe(tracer: Tracer, parent: int, args, kwargs, res) -> None:
        tracer.counts[f"{route}.iterations"] += res.iterations
        key = f"{route}.iter_max"
        tracer.maxima[key] = max(tracer.maxima[key], res.iterations)

    return observe


def _observe_cuts(tracer: Tracer, parent: int, args, kwargs, res) -> None:
    key = "oracles.polyhedron_qp.cuts_max"
    tracer.maxima[key] = max(tracer.maxima[key], len(args[0]))


def _observe_bytes(tracer: Tracer, parent: int, args, kwargs, res) -> None:
    tracer.counts["solver.export.bytes"] += len(res)


_OBSERVERS = {
    "oracles.approx_project": _observe_approx,
    "oracles.fw": _observe_iterations("oracles.fw"),
    "oracles.cutting": _observe_iterations("oracles.cutting"),
    "oracles.polyhedron_qp": _observe_cuts,
    "solver.export": _observe_bytes,
}
