"""Per-layer tracing from outside the library.

The tracer replaces public bmoext functions and methods with wrappers that
record one span per call: name, start, end and parent span. Spans stay in
memory and are written out when the pass ends; all spans of one pass share
its run id. A function is replaced in every module namespace it is bound in
(the defining module, modules that imported it by name, the package
re-exports and the workload module), and `missed()` lists any binding left
unwrapped, so a layer cannot drop out of the trace silently.

Counts come from the wrappers and from return values: `len(dec.cubes)`,
`graph.n_nodes`, `adj.nnz`, the ExtensionResult lists and report pair counts.
Self time is a span's duration minus the time of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (module, qualified name, span group). The group names the layer; a call
# nested inside a call of the same group is recorded but not counted again.
TARGETS = [
    ("bmoext.domains", "Domain.signed_distance", "domains.sd"),
    ("bmoext.whitney", "build_whitney", "whitney.build"),
    ("bmoext.whitney", "WhitneyDecomposition.neighbor_indices", "whitney.adjacency"),
    ("bmoext.whitney", "check_invariants", "whitney.check"),
    ("bmoext.whitney", "matching_cube", "whitney.matching"),
    ("bmoext.qhyper", "build_metric_graph", "qhyper.graph_build"),
    ("bmoext.qhyper", "segment_qh_batch", "qhyper.segment"),
    ("bmoext.qhyper", "MetricGraph.shortest_paths", "qhyper.dijkstra"),
    ("bmoext.qhyper", "qh_distance", "qhyper.distance"),
    ("bmoext.qhyper", "qh_length", "qhyper.length"),
    ("bmoext.cigar", "classify", "cigar.classify"),
    ("bmoext.cigar", "estimate_epsilon_delta", "cigar.estimate"),
    ("bmoext.cigar", "evaluate_pair", "cigar.pair_eval"),
    ("bmoext.cigar", "epsilon_upper_bound", "cigar.cap"),
    ("bmoext.cigar", "mirror_pairs", "cigar.mirror"),
    ("bmoext.bmo", "cube_average", "bmo.cube_average"),
    ("bmoext.bmo", "bmo_lambda_norm", "bmo.norm"),
    ("bmoext.bmo", "bmo_homogeneous_norm", "bmo.norm"),
    ("bmoext.bmo", "dyadic_abc_norm", "bmo.norm"),
    ("bmoext.bmo", "sample_grid_function", "bmo.field"),
    ("bmoext.bmo", "qh_distance_field", "bmo.field"),
    ("bmoext.bmo", "dipole_field", "bmo.field"),
    ("bmoext.bmo", "whitney_cellwise_field", "bmo.field"),
    ("bmoext.extension", "extend", "extension.extend"),
    ("bmoext.extension", "make_suite", "extension.suite"),
    ("bmoext.cli", "main", "cli.command"),
    ("bmoext.cli", "write_csv", "cli.write"),
    ("bmoext.cli", "write_grid", "cli.write"),
    ("bmoext.svgout", "render_decomposition", "svgout.render"),
    ("bmoext.svgout", "render_curves", "svgout.render"),
    ("bmoext.svgout", "render_grid", "svgout.render"),
]

# Per-layer metrics in output order: name -> unit.
METRICS = {
    "domains.sd_calls": "count", "domains.sd_points": "count",
    "domains.sd_s": "s", "domains.ns_per_point": "ns",
    "whitney.builds": "count", "whitney.build_s": "s", "whitney.build_self_s": "s",
    "whitney.adjacency_s": "s", "whitney.check_s": "s", "whitney.cubes": "count",
    "whitney.frontier_cells": "count",
    "whitney.matching_calls": "count", "whitney.matching_distinct": "count",
    "whitney.matching_s": "s",
    "qhyper.graph_builds": "count", "qhyper.graph_build_s": "s",
    "qhyper.graph_nodes": "count", "qhyper.graph_edges": "count",
    "qhyper.segment_batches": "count", "qhyper.segments": "count",
    "qhyper.segment_s": "s", "qhyper.dijkstra_calls": "count", "qhyper.dijkstra_s": "s",
    "qhyper.distance_calls": "count", "qhyper.distance_self_s": "s",
    "qhyper.length_s": "s",
    "cigar.classify_s": "s", "cigar.pairs": "count", "cigar.pair_evals": "count",
    "cigar.pair_eval_s": "s", "cigar.dijkstra_per_pair_eval": "ratio",
    "cigar.cap_calls": "count", "cigar.cap_s": "s", "cigar.mirror_s": "s",
    "bmo.cube_average_calls": "count", "bmo.cube_average_s": "s",
    "bmo.norm_calls": "count", "bmo.norm_s": "s", "bmo.field_calls": "count",
    "bmo.field_s": "s", "bmo.grid_cells": "count",
    "extension.extend_calls": "count", "extension.extend_s": "s",
    "extension.extend_self_s": "s", "extension.assigned": "count",
    "extension.zeroed": "count", "extension.failed": "count",
    "extension.frontier_filled": "count", "extension.suite_s": "s",
    "cli.commands": "count", "cli.command_s": "s", "cli.write_s": "s",
    "cli.bytes_written": "bytes", "svgout.render_s": "s",
    "bench.trace_overhead": "ratio",
}

# Counts that must repeat exactly between runs of the same code and seed.
REPEAT_COUNTS = ["domains.sd_points", "whitney.cubes", "whitney.matching_calls",
                 "qhyper.graph_edges", "qhyper.dijkstra_calls", "extension.assigned"]

_WHITNEY_BUILD = ["whitney.builds", "whitney.build_s", "whitney.build_self_s",
                  "whitney.adjacency_s", "whitney.check_s", "whitney.cubes",
                  "whitney.frontier_cells"]
_MATCHING = ["whitney.matching_calls", "whitney.matching_distinct", "whitney.matching_s"]
_GRAPH = ["qhyper.graph_builds", "qhyper.graph_build_s", "qhyper.graph_nodes",
          "qhyper.graph_edges", "qhyper.segment_batches", "qhyper.segments",
          "qhyper.segment_s", "qhyper.dijkstra_calls", "qhyper.dijkstra_s"]
_EXTEND = ["extension.extend_calls", "extension.extend_s", "extension.extend_self_s",
           "extension.assigned", "extension.zeroed"]
_FIELD = ["bmo.field_calls", "bmo.field_s", "bmo.grid_cells"]
_NORM = ["bmo.norm_calls", "bmo.norm_s"]
_CUBE_AVG = ["bmo.cube_average_calls", "bmo.cube_average_s"]
_CLI = ["cli.commands", "cli.command_s", "cli.write_s", "cli.bytes_written",
        "svgout.render_s"]
_ORACLE = ["domains.sd_calls", "domains.sd_points", "domains.sd_s", "domains.ns_per_point"]

# Metrics that must be nonzero in a traced pass of each workload: the layers
# the workload is meant to exercise. A traced pass where one stays zero fails.
EXPECTED = {
    "window-growth": _ORACLE + _WHITNEY_BUILD + _MATCHING + _EXTEND + _CUBE_AVG
    + _NORM + _FIELD + ["extension.frontier_filled"],
    "suite-ratio": _ORACLE + _WHITNEY_BUILD + _MATCHING + _EXTEND + _CUBE_AVG
    + _NORM + _FIELD + _GRAPH + ["extension.suite_s"],
    "polygon-geodesic": _ORACLE + _GRAPH + _CLI + [
        "qhyper.distance_calls", "qhyper.distance_self_s", "qhyper.length_s",
        "cigar.classify_s", "cigar.pairs", "cigar.pair_evals", "cigar.pair_eval_s",
        "cigar.dijkstra_per_pair_eval", "cigar.cap_calls", "cigar.cap_s",
        "cigar.mirror_s"],
    "decompose-deep": _ORACLE + _WHITNEY_BUILD + _CLI + _NORM + _FIELD + _GRAPH,
}


def _resolve(modname: str, qualname: str):
    owner = sys.modules[modname]
    for part in qualname.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, qualname.split(".")[-1]


class Tracer:
    """Spans and counts of one traced pass; install() patches, uninstall()
    restores every binding it replaced."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        # one column per span field; flat arrays keep the span store out of
        # the garbage collector's way
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.top = array("b")               # no open span of the same group
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}    # open spans per group
        self.counts: Counter = Counter()
        self._patches: list[tuple] = []
        self._originals: list[tuple] = []
        self._dec_ids: dict[int, int] = {}
        self._matched: set = set()

    # -- span recording ---------------------------------------------------

    def _open(self, group: str) -> int:
        idx = self._name_idx.get(group)
        if idx is None:
            idx = self._name_idx[group] = len(self.names)
            self.names.append(group)
        k = len(self.start)
        depth = self._depth.get(group, 0)
        self._depth[group] = depth + 1
        self.name.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.top.append(depth == 0)
        self.end.append(0.0)
        self._stack.append(k)
        self.start.append(time.perf_counter())
        return k

    def _close(self, group: str, k: int):
        self.end[k] = time.perf_counter()
        self._stack.pop()
        self._depth[group] -= 1

    @contextlib.contextmanager
    def span(self, group: str):
        k = self._open(group)
        try:
            yield
        finally:
            self._close(group, k)

    def _wrap(self, fn, group: str):
        tracer = self
        on_return = getattr(self, "_on_" + group.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = tracer._open(group)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(group, k)
            if on_return is not None and tracer.top[k]:
                on_return(args, kwargs, out)
            return out

        return wrapper

    # -- counts from arguments and return values ----------------------------

    def _on_domains_sd(self, args, kwargs, out):
        self.counts["domains.sd_points"] += len(out)

    def _on_whitney_build(self, args, kwargs, dec):
        self._dec_ids[id(dec)] = len(self._dec_ids)
        self.counts["whitney.cubes"] += len(dec.cubes)
        self.counts["whitney.frontier_cells"] += len(dec.frontier)

    def _on_whitney_matching(self, args, kwargs, out):
        dec = args[0] if args else kwargs["dec"]
        q = args[1] if len(args) > 1 else kwargs["q"]
        self._matched.add((self._dec_ids.get(id(dec)), q.level, q.coords))

    def _on_qhyper_graph_build(self, args, kwargs, graph):
        self.counts["qhyper.graph_nodes"] += graph.n_nodes
        self.counts["qhyper.graph_edges"] += graph.adj.nnz

    def _on_qhyper_segment(self, args, kwargs, out):
        self.counts["qhyper.segments"] += len(out[0])

    def _on_cigar_estimate(self, args, kwargs, rep):
        self.counts["cigar.pairs"] += rep.pair_count

    def _on_bmo_field(self, args, kwargs, gf):
        self.counts["bmo.grid_cells"] += gf.values.size

    def _on_extension_extend(self, args, kwargs, res):
        self.counts["extension.assigned"] += len(res.assignment)
        self.counts["extension.zeroed"] += len(res.zero_region)
        self.counts["extension.failed"] += len(res.failed)
        self.counts["extension.frontier_filled"] += res.frontier_filled

    def _on_cli_write(self, args, kwargs, out):
        self.counts["cli.bytes_written"] += os.path.getsize(args[0])

    # -- patching -----------------------------------------------------------

    def _namespaces(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "bmoext" or name.startswith("bmoext.")
                                      or name == "workloads")]

    def install(self):
        for modname, qualname, group in TARGETS:
            owner, attr = _resolve(modname, qualname)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(orig, group)
            self._originals.append((orig, qualname, owner))
            owners = [owner] if isinstance(owner, type) else self._namespaces()
            for ns in owners:
                for name, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, name, orig))
                        setattr(ns, name, wrapper)

    def uninstall(self):
        for ns, name, orig in reversed(self._patches):
            setattr(ns, name, orig)
        self._patches.clear()

    def missed(self) -> list[str]:
        """Bindings of a traced function left unwrapped while installed;
        empty when every namespace it is bound in was patched."""
        out = []
        for orig, qualname, owner in self._originals:
            spaces = self._namespaces() + ([owner] if isinstance(owner, type) else [])
            for ns in spaces:
                for name, value in vars(ns).items():
                    if value is orig:
                        out.append(f"{ns.__name__}.{name} ({qualname})")
        return out

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of this pass (all but bench.trace_overhead)."""
        n = len(self.start)
        dur = [e - b for b, e in zip(self.start, self.end)]
        child = [0.0] * n
        for k, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[k]
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for k in range(n):
            if self.top[k]:
                g = self.names[self.name[k]]
                calls[g] += 1
                total[g] += dur[k]
                self_s[g] += dur[k] - child[k]
        # Dijkstra solves made inside pair evaluations
        ev = self._name_idx.get("cigar.pair_eval")
        dj = self._name_idx.get("qhyper.dijkstra")
        dj_in_eval = 0
        for k in range(n):
            if self.name[k] == dj:
                p = self.parent[k]
                while p >= 0 and self.name[p] != ev:
                    p = self.parent[p]
                dj_in_eval += p >= 0
        c = self.counts
        m = {
            "domains.sd_calls": calls["domains.sd"],
            "domains.sd_points": c["domains.sd_points"],
            "domains.sd_s": total["domains.sd"],
            "domains.ns_per_point": 1e9 * total["domains.sd"] / max(c["domains.sd_points"], 1),
            "whitney.builds": calls["whitney.build"],
            "whitney.build_s": total["whitney.build"],
            "whitney.build_self_s": self_s["whitney.build"],
            "whitney.adjacency_s": total["whitney.adjacency"],
            "whitney.check_s": total["whitney.check"],
            "whitney.cubes": c["whitney.cubes"],
            "whitney.frontier_cells": c["whitney.frontier_cells"],
            "whitney.matching_calls": calls["whitney.matching"],
            "whitney.matching_distinct": len(self._matched),
            "whitney.matching_s": total["whitney.matching"],
            "qhyper.graph_builds": calls["qhyper.graph_build"],
            "qhyper.graph_build_s": total["qhyper.graph_build"],
            "qhyper.graph_nodes": c["qhyper.graph_nodes"],
            "qhyper.graph_edges": c["qhyper.graph_edges"],
            "qhyper.segment_batches": calls["qhyper.segment"],
            "qhyper.segments": c["qhyper.segments"],
            "qhyper.segment_s": total["qhyper.segment"],
            "qhyper.dijkstra_calls": calls["qhyper.dijkstra"],
            "qhyper.dijkstra_s": total["qhyper.dijkstra"],
            "qhyper.distance_calls": calls["qhyper.distance"],
            "qhyper.distance_self_s": self_s["qhyper.distance"],
            "qhyper.length_s": total["qhyper.length"],
            "cigar.classify_s": total["cigar.classify"],
            "cigar.pairs": c["cigar.pairs"],
            "cigar.pair_evals": calls["cigar.pair_eval"],
            "cigar.pair_eval_s": total["cigar.pair_eval"],
            "cigar.dijkstra_per_pair_eval": dj_in_eval / max(calls["cigar.pair_eval"], 1),
            "cigar.cap_calls": calls["cigar.cap"],
            "cigar.cap_s": total["cigar.cap"],
            "cigar.mirror_s": total["cigar.mirror"],
            "bmo.cube_average_calls": calls["bmo.cube_average"],
            "bmo.cube_average_s": total["bmo.cube_average"],
            "bmo.norm_calls": calls["bmo.norm"],
            "bmo.norm_s": total["bmo.norm"],
            "bmo.field_calls": calls["bmo.field"],
            "bmo.field_s": total["bmo.field"],
            "bmo.grid_cells": c["bmo.grid_cells"],
            "extension.extend_calls": calls["extension.extend"],
            "extension.extend_s": total["extension.extend"],
            "extension.extend_self_s": self_s["extension.extend"],
            "extension.assigned": c["extension.assigned"],
            "extension.zeroed": c["extension.zeroed"],
            "extension.failed": c["extension.failed"],
            "extension.frontier_filled": c["extension.frontier_filled"],
            "extension.suite_s": total["extension.suite"],
            "cli.commands": calls["cli.command"],
            "cli.command_s": total["cli.command"],
            "cli.write_s": total["cli.write"],
            "cli.bytes_written": c["cli.bytes_written"],
            "svgout.render_s": total["svgout.render"],
        }
        assert set(m) == set(METRICS) - {"bench.trace_overhead"}
        return m

    def dump(self, path: Path):
        """Write the spans as JSON columns: run id, span group names, and per
        span its group index, parent span index (-1 for a root), start and
        end in seconds of time.perf_counter."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "name": self.name.tolist(), "parent": self.parent.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist()},
                      fh, separators=(",", ":"))
