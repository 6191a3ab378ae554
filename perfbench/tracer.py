"""In-memory span tracing of the knotoperads layers, from outside the program.

``Tracer.install`` reassigns the public functions listed in ``TARGETS`` on
their modules, and every other binding of the same function object in a
loaded ``knotoperads`` module (``from .x import f`` copies), to wrappers
that record a span (name, start, end, parent, thread).  Calls one module
makes into another therefore go through the wrappers too.  A listed name a
module no longer has is reported as absent.

``PER_LAYER`` maps each per-layer metric to the spans or counters it sums.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

TARGETS = {
    "poisson": ["circ", "coface", "codegeneracy", "basis", "normalize"],
    "hochschild": ["hh_table", "build_complex", "cohomology", "rank_int",
                   "smith_normal_form", "snf_is_valid", "check_d_squared"],
    "geometry": ["gauss_map", "check_three_dependent", "_four_residuals",
                 "check_four_consistent", "membership_report",
                 "kontsevich_compose", "kontsevich_coface",
                 "kontsevich_codegeneracy", "random_sphere_configuration",
                 "random_point_configuration", "random_disk_configuration",
                 "random_boundary_configuration", "membership_trials",
                 "closure_trials", "disks_comparison_trials", "disks_compose",
                 "disks_homotopy", "project_pi_k", "insertion_e",
                 "check_insertion_naturality", "check_sphere_cosimplicial"],
    "operad_core": ["check_operad_axioms", "check_cosimplicial_identities",
                    "cosimplicial_from_operad", "structure_map",
                    "structure_map_stepwise"],
    "pair_operad": ["check_s2_iso", "check_b_functoriality",
                    "b_structure_map", "b_morphism_map", "s2_face",
                    "s2_degeneracy"],
    "trees": ["parse_tree", "corolla", "contract_with_map", "contract",
              "to_corolla", "join_vertex", "graft", "enumerate_trees"],
    "cli": ["main"],
}

_SAMPLERS = [f"geometry.{f}" for f in TARGETS["geometry"]
             if f.startswith("random_")]
_TREES = [f"trees.{f}" for f in TARGETS["trees"]]

#: (metric, unit, better, kind, source).  Kinds: "calls", "s" (inclusive
#: seconds), "self_s" sum over spans; "counter" reads a process counter
#: (``Tracer.counters``); "artifact" and "run" are filled in by run.py.
PER_LAYER = [
    ("poisson.nf_pair.misses", "count", "lower", "counter", "nf_pair.misses"),
    ("poisson.nf_pair.hits", "count", "higher", "counter", "nf_pair.hits"),
    ("poisson.circ.calls", "count", "lower", "calls", ["poisson.circ"]),
    ("poisson.circ.self_s", "s", "lower", "self_s", ["poisson.circ"]),
    ("poisson.coface.calls", "count", "lower", "calls", ["poisson.coface"]),
    ("poisson.coface.s", "s", "lower", "s", ["poisson.coface"]),
    ("poisson.codegeneracy.calls", "count", "lower", "calls",
     ["poisson.codegeneracy"]),
    ("poisson.codegeneracy.self_s", "s", "lower", "self_s",
     ["poisson.codegeneracy"]),
    ("hochschild.build_complex.s", "s", "lower", "s",
     ["hochschild.build_complex"]),
    ("hochschild.build_complex.self_s", "s", "lower", "self_s",
     ["hochschild.build_complex"]),
    ("hochschild.rank_int.calls", "count", "lower", "calls",
     ["hochschild.rank_int"]),
    ("hochschild.rank_int.self_s", "s", "lower", "self_s",
     ["hochschild.rank_int"]),
    ("hochschild.smith_normal_form.calls", "count", "lower", "calls",
     ["hochschild.smith_normal_form"]),
    ("hochschild.smith_normal_form.self_s", "s", "lower", "self_s",
     ["hochschild.smith_normal_form"]),
    ("hochschild.snf_is_valid.self_s", "s", "lower", "self_s",
     ["hochschild.snf_is_valid"]),
    ("hochschild.diff_nnz", "count", "lower", "counter", "diff_nnz"),
    ("hochschild.diff_cells", "count", "lower", "counter", "diff_cells"),
    ("geometry.gauss_map.calls", "count", "lower", "calls",
     ["geometry.gauss_map"]),
    ("geometry.gauss_map.self_s", "s", "lower", "self_s",
     ["geometry.gauss_map"]),
    ("geometry.check_three_dependent.calls", "count", "lower", "calls",
     ["geometry.check_three_dependent"]),
    ("geometry.check_three_dependent.self_s", "s", "lower", "self_s",
     ["geometry.check_three_dependent"]),
    ("geometry.kontsevich_compose.self_s", "s", "lower", "self_s",
     ["geometry.kontsevich_compose"]),
    ("geometry.four_consistency.self_s", "s", "lower", "self_s",
     ["geometry._four_residuals"]),
    ("geometry.sampling.self_s", "s", "lower", "self_s", _SAMPLERS),
    ("geometry.disks_comparison_trials.s", "s", "lower", "s",
     ["geometry.disks_comparison_trials"]),
    ("geometry.check_insertion_naturality.s", "s", "lower", "s",
     ["geometry.check_insertion_naturality"]),
    ("geometry.check_sphere_cosimplicial.s", "s", "lower", "s",
     ["geometry.check_sphere_cosimplicial"]),
    ("geometry.trials", "count", "higher", "artifact", "trials"),
    ("operad_core.check_operad_axioms.s", "s", "lower", "s",
     ["operad_core.check_operad_axioms"]),
    ("operad_core.check_cosimplicial_identities.s", "s", "lower", "s",
     ["operad_core.check_cosimplicial_identities"]),
    ("operad_core.checks", "count", "higher", "artifact", "checks"),
    ("pair_operad.check_s2_iso.s", "s", "lower", "s",
     ["pair_operad.check_s2_iso"]),
    ("trees.calls", "count", "lower", "calls", _TREES),
    ("trees.self_s", "s", "lower", "self_s", _TREES),
    ("cli.self_s", "s", "lower", "self_s", ["cli.main"]),
    ("cli.artifact_bytes", "count", "lower", "artifact", "bytes"),
    ("cpu_s", "s", "lower", "run", "cpu_s"),
    ("raw_wall_s", "s", "lower", "run", "raw_wall_s"),
    ("trace.overhead_pct", "%", "lower", "run", "overhead_pct"),
]


def _diff_counts(complex_):
    """Nonzeros and rows x cols over all differentials, or None when the
    complex no longer exposes column-dict matrices."""
    diff = getattr(complex_, "diff", None)
    if not isinstance(diff, dict):
        return None
    nnz = cells = 0
    for mat in diff.values():
        cols = getattr(mat, "col", None)
        if cols is None:
            return None
        nnz += sum(len(c) for c in cols)
        cells += mat.rows * mat.cols
    return {"diff_nnz": nnz, "diff_cells": cells}


#: post-call hooks adding counters from a wrapped function's result, with
#: the counters they feed
_HOOKS = {"hochschild.build_complex": (_diff_counts, ["diff_nnz", "diff_cells"])}


class Tracer:
    def __init__(self):
        self.names: list = []
        # [name index, start, end, parent record, thread, nested, thread CPU s]
        self.spans: list = []
        self.counters: dict = {}
        self.absent: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self) -> "Tracer":
        mods = {name: sys.modules.get(f"knotoperads.{name}") for name in TARGETS}
        for mod_name, funcs in TARGETS.items():
            mod = mods[mod_name]
            for fname in funcs:
                fn = getattr(mod, fname, None) if mod is not None else None
                if not callable(fn):
                    self.absent.append(f"{mod_name}.{fname}")
                    self.absent += _HOOKS.get(f"{mod_name}.{fname}", (0, []))[1]
                    continue
                wrapper = self._wrap(f"{mod_name}.{fname}", fn)
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("knotoperads"):
                        for attr, val in list(vars(other).items()):
                            if val is fn:
                                setattr(other, attr, wrapper)
        return self

    def _wrap(self, label: str, fn):
        idx = len(self.names)
        self.names.append(label)
        spans, local = self.spans, self._local
        clock, cpu = time.perf_counter, time.thread_time
        hook, fed = _HOOKS.get(label, (None, []))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.active = {}
                local.tid = threading.get_ident()
            active = local.active
            depth = active.get(idx, 0)
            rec = [idx, 0.0, 0.0, stack[-1] if stack else None, local.tid,
                   depth > 0, 0.0]
            spans.append(rec)
            stack.append(rec)
            active[idx] = depth + 1
            rec[6] = cpu()
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[6] = cpu() - rec[6]
                stack.pop()
                active[idx] = depth
            if hook is not None:
                counts = hook(out)
                if counts is None:
                    self.absent += [k for k in fed if k not in self.absent]
                else:
                    self._count(counts)
            return out

        return traced

    def _count(self, counts: dict) -> None:
        with self._lock:
            for key, val in counts.items():
                self.counters[key] = self.counters.get(key, 0) + val

    def read_memo(self) -> None:
        """Hit and miss counts of the normal-form rewriting memo."""
        nf = getattr(sys.modules.get("knotoperads.poisson"), "_nf_pair", None)
        info = getattr(nf, "cache_info", None)
        if info is None:
            self.absent += ["nf_pair.hits", "nf_pair.misses"]
            return
        ci = info()
        self._count({"nf_pair.hits": ci.hits, "nf_pair.misses": ci.misses})

    def by_name(self) -> dict:
        """{span name: {calls, s, self_s}}.  Inclusive ``s`` is wall time of
        the outermost of nested same-name spans.  ``self_s`` is the calling
        thread's CPU time minus that of its direct children, so a worker
        waiting for the interpreter lock is not charged for the wait."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, start, end, parent, _, nested, cpu in self.spans:
            rec = out[self.names[idx]]
            rec["calls"] += 1
            rec["self_s"] += cpu
            if not nested:
                rec["s"] += end - start
            if parent is not None:
                out[self.names[parent[0]]]["self_s"] -= cpu
        return out

    def span_table(self) -> dict:
        """Spans as rows [name, start, end, parent row or -1, thread]."""
        row = {id(rec): k for k, rec in enumerate(self.spans)}
        threads: dict = {}
        rows = []
        for idx, start, end, parent, tid, _, _ in self.spans:
            rows.append([idx, round(start, 7), round(end, 7),
                         -1 if parent is None else row[id(parent)],
                         threads.setdefault(tid, len(threads))])
        return {"names": self.names, "columns": ["name", "start", "end",
                                                 "parent", "thread"],
                "spans": rows}


def layer_values(by_name: dict, counters: dict, absent: list) -> tuple:
    """Per-layer metrics computable inside one process: ({metric: value},
    [metrics whose every source is absent])."""
    values, missing = {}, []
    for metric, _, _, kind, source in PER_LAYER:
        if kind == "counter":
            if source in absent:
                missing.append(metric)
            else:
                values[metric] = counters.get(source, 0)
        elif kind in ("calls", "s", "self_s"):
            present = [name for name in source if name not in absent]
            if not present:
                missing.append(metric)
                continue
            values[metric] = sum(by_name.get(name, {}).get(kind, 0)
                                 for name in present)
    return values, missing
