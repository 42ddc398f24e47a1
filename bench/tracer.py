"""In-memory span tracer for the rough_angles package, applied from outside.

``Tracer.install()`` wraps every public function of every package module and
re-points each by-name binding of it (``cli`` binds ``sra_report``,
``net_embedding`` binds ``max_sra_subset`` and so on) at the wrapper;
``uninstall()`` restores the originals.  The program is not edited: the
wrappers live here.

Each call records a span (name, start, end, parent span, command id) plus a
few counts read from the call's arguments and result.  Spans stay in memory
until ``layer_metrics`` turns one pass of them into per-layer figures.  A
layer's self time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# Modules of the package, in dependency order; the prefix of every layer
# metric is one of these names (``_hypergraph`` is reported as
# ``hypergraph``, since a metric name must start with a letter).
MODULES = ("metric_core", "_hypergraph", "sra_analysis", "dse_spaces", "curves",
           "constants_extraction", "net_embedding", "io", "cli")


@dataclass
class Span:
    name: str  # "module.function"
    start: float
    end: float
    parent: Optional[int]
    cmd: int
    info: dict = field(default_factory=dict)


def _n_of(x) -> int:
    return int(x.n)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _scan_info(args, kwargs, result) -> dict:
    n = _n_of(args[0])
    return {"n": n, "triples": n * (n - 1) * (n - 2) // 2}


def _hyperedge_info(args, kwargs, result) -> dict:
    info = _scan_info(args, kwargs, result)
    info["edges"] = len(result)
    return info


def _validate_info(args, kwargs, result) -> dict:
    n = _n_of(args[0])
    return {"n": n, "triples": n * (n - 1) * (n - 2)}


def _search_info(args, kwargs, result) -> dict:
    return {"nodes": result.nodes, "size": result.size, "optimal": result.optimal,
            "upper_bound": result.upper_bound, "target": kwargs.get("target")}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _load_info(args, kwargs, result) -> dict:
    return {"bytes": _file_size(_arg(args, kwargs, 0, "path"))}


def _save_info(args, kwargs, result) -> dict:
    return {"bytes": _file_size(_arg(args, kwargs, 1, "path"))}


# Counts read at call boundaries, keyed by "module.function".
HOOKS: dict[str, Callable[[tuple, dict, object], dict]] = {
    "sra_analysis.is_sra": _scan_info,
    "sra_analysis.critical_alpha": _scan_info,
    "sra_analysis.violating_triples": _hyperedge_info,
    "sra_analysis.euclidean_angle_audit":
        lambda a, k, r: {"entries": len(r.entries)},
    "metric_core.validate_metric": _validate_info,
    "_hypergraph.max_independent_subset": _search_info,
    "constants_extraction.refute_weird_angles":
        lambda a, k, r: {"trials": int(r.trials)},
    "io.load_distance_matrix": _load_info,
    "io.load_point_cloud": _load_info,
    "io.load_curve": _load_info,
    "io.load_dse": _load_info,
    "io.save_distance_matrix": _save_info,
    "io.save_point_cloud": _save_info,
    "io.save_curve": _save_info,
    "io.save_dse": _save_info,
}


class Tracer:
    """Collects spans while installed; ``cmd`` tags spans with the current
    command id (one CLI invocation)."""

    def __init__(self, package: str = "rough_angles"):
        self.package = package
        self.spans: list[Span] = []
        self.cmd = -1
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        spans = self.spans
        local = self._local
        hook = HOOKS.get(qualname)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = len(spans)
            span = Span(qualname, clock(), 0.0, stack[-1] if stack else None, self.cmd)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {name: sys.modules[f"{self.package}.{name}"] for name in MODULES}
        wrappers: dict[int, Callable] = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        # Re-point every by-name binding of a wrapped function, in the package
        # itself and in each of its modules.
        holders = [sys.modules[self.package], *mods.values()]
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._patched.append((holder, name, obj))
                    setattr(holder, name, w)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        self.spans.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Children of one span run one after another on one thread, so their
    intervals do not overlap and their sum is the covered part."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _under(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


# Per-layer metric: (name, unit).  The self-time metrics map a function to
# the metric that carries its self time.
SELF_TIME = {
    "sra_analysis.is_sra": "sra_analysis.is_sra_s",
    "sra_analysis.violating_triples": "sra_analysis.violating_triples_s",
    "sra_analysis.critical_alpha": "sra_analysis.critical_alpha_s",
    "sra_analysis.max_sra_subset": "sra_analysis.max_sra_subset_s",
    "sra_analysis.euclidean_angle_audit": "sra_analysis.angle_audit_s",
    "metric_core.validate_metric": "metric_core.validate_s",
    "metric_core.snowflake": "metric_core.snowflake_s",
    "curves.gen_gradient_trajectory": "curves.gradient_trajectory_s",
    "curves.is_self_contracted": "curves.self_contracted_s",
    "curves.curve_to_dse": "curves.curve_to_dse_s",
    "dse_spaces.is_dse": "dse_spaces.is_dse_s",
    "dse_spaces.check_two_lemma": "dse_spaces.two_lemma_s",
    "constants_extraction.max_theta_straight_subset": "constants_extraction.straight_subset_s",
    "constants_extraction.extract_sra_subspace": "constants_extraction.extract_s",
    "constants_extraction.refute_weird_angles": "constants_extraction.refute_s",
    "net_embedding.greedy_net": "net_embedding.greedy_net_s",
    "net_embedding.net_embed": "net_embedding.net_embed_s",
    "net_embedding.doubling_estimate": "net_embedding.doubling_s",
    "net_embedding.freeness_via_cover": "net_embedding.freeness_cover_self_s",
    "cli.main": "cli.self_s",
}

SCANS = ("sra_analysis.is_sra", "sra_analysis.violating_triples", "sra_analysis.critical_alpha")

LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("sra_analysis.is_sra_s", "s"),
    ("sra_analysis.violating_triples_s", "s"),
    ("sra_analysis.critical_alpha_s", "s"),
    ("sra_analysis.full_scans", "count"),
    ("sra_analysis.scan_triples", "count"),
    ("sra_analysis.scan_triples_per_s", "1/s"),
    ("sra_analysis.hyperedges", "count"),
    ("sra_analysis.max_sra_subset_s", "s"),
    ("sra_analysis.angle_audit_s", "s"),
    ("sra_analysis.angle_entries", "count"),
    ("metric_core.validate_s", "s"),
    ("metric_core.validate_triples", "count"),
    ("metric_core.snowflake_s", "s"),
    ("metric_core.subspace_calls", "count"),
    ("hypergraph.search_s", "s"),
    ("hypergraph.search_nodes", "count"),
    ("hypergraph.nodes_per_s", "1/s"),
    ("hypergraph.certificate_s", "s"),
    ("hypergraph.certificate_searches", "count"),
    ("hypergraph.certificate_accept_ratio", "ratio"),
    ("hypergraph.budget_exhausted", "count"),
    ("hypergraph.bound_gap", "count"),
    ("io.load_s", "s"),
    ("io.load_bytes", "B"),
    ("io.save_s", "s"),
    ("io.save_bytes", "B"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("cli.cold_start_s", "s"),
    ("curves.gradient_trajectory_s", "s"),
    ("curves.self_contracted_s", "s"),
    ("curves.curve_to_dse_s", "s"),
    ("dse_spaces.is_dse_s", "s"),
    ("dse_spaces.two_lemma_s", "s"),
    ("constants_extraction.straight_subset_s", "s"),
    ("constants_extraction.extract_s", "s"),
    ("constants_extraction.extract_direct_search", "count"),
    ("constants_extraction.refute_s", "s"),
    ("constants_extraction.refute_trials_per_s", "1/s"),
    ("net_embedding.greedy_net_s", "s"),
    ("net_embedding.net_embed_s", "s"),
    ("net_embedding.doubling_s", "s"),
    ("net_embedding.freeness_cover_self_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by the names of
    LAYER_METRICS; ``cli.report_bytes``, ``cli.cold_start_s`` and
    ``trace.overhead_s`` are left at 0 for the runner to fill."""
    own = self_times(spans)
    out: dict[str, float] = dict.fromkeys((name for name, _ in LAYER_METRICS), 0)
    scan_time = 0.0
    cert_kept = 0
    refute_trials = 0
    scan_cmds: set[int] = set()
    for i, s in enumerate(spans):
        dur = s.end - s.start
        key = SELF_TIME.get(s.name)
        if key is not None:
            out[key] += own[i]
        if s.name in SCANS:
            out["sra_analysis.full_scans"] += 1
            out["sra_analysis.scan_triples"] += s.info.get("triples", 0)
            scan_cmds.add(s.cmd)
            scan_time += own[i]
            if s.name == "sra_analysis.violating_triples":
                out["sra_analysis.hyperedges"] += s.info.get("edges", 0)
        elif s.name == "sra_analysis.euclidean_angle_audit":
            out["sra_analysis.angle_entries"] += s.info.get("entries", 0)
        elif s.name == "metric_core.validate_metric":
            out["metric_core.validate_triples"] += s.info.get("triples", 0)
        elif s.name == "metric_core.subspace":
            out["metric_core.subspace_calls"] += 1
        elif s.name == "_hypergraph.lexicographically_smallest_mis":
            out["hypergraph.certificate_s"] += dur
        elif s.name == "_hypergraph.max_independent_subset":
            if _under(spans, i, "_hypergraph.lexicographically_smallest_mis"):
                out["hypergraph.certificate_searches"] += 1
                target = s.info.get("target")
                cert_kept += int(target is not None and s.info.get("size", 0) >= target)
            else:
                out["hypergraph.search_s"] += own[i]
                out["hypergraph.search_nodes"] += s.info.get("nodes", 0)
                out["hypergraph.budget_exhausted"] += int(not s.info.get("optimal", True))
                out["hypergraph.bound_gap"] += s.info.get("upper_bound", 0) - s.info.get("size", 0)
        elif s.name.startswith("io.load_"):
            out["io.load_s"] += own[i]
            out["io.load_bytes"] += s.info.get("bytes", 0)
        elif s.name.startswith("io.save_"):
            out["io.save_s"] += own[i]
            out["io.save_bytes"] += s.info.get("bytes", 0)
        elif s.name == "sra_analysis.max_sra_subset":
            p = s.parent
            if p is not None and spans[p].name == "constants_extraction.extract_sra_subspace":
                out["constants_extraction.extract_direct_search"] += 1
        if s.name == "constants_extraction.refute_weird_angles":
            refute_trials += s.info.get("trials", 0)
    out["sra_analysis.full_scans"] = (out["sra_analysis.full_scans"] / len(scan_cmds)
                                      if scan_cmds else 0.0)
    out["sra_analysis.scan_triples_per_s"] = (out["sra_analysis.scan_triples"] / scan_time
                                              if scan_time > 0 else 0.0)
    out["hypergraph.nodes_per_s"] = (out["hypergraph.search_nodes"] / out["hypergraph.search_s"]
                                     if out["hypergraph.search_s"] > 0 else 0.0)
    tried = out["hypergraph.certificate_searches"]
    out["hypergraph.certificate_accept_ratio"] = cert_kept / tried if tried else 0.0
    refute_s = out["constants_extraction.refute_s"]
    out["constants_extraction.refute_trials_per_s"] = (refute_trials / refute_s
                                                       if refute_s > 0 else 0.0)
    return out
