"""Span recorder that times graphonlab's layers from outside.

``Tracer.install`` wraps every public module-level function of the layer
modules and rebinds each name that refers to one of them in every loaded
graphonlab module, including names imported across modules with
``from .core import cut_norm``: internal calls go through those bindings,
so nested calls are seen too. ``uninstall`` restores the originals.

A span is ``[name, start, end, parent, job, counters]``. Times are
``time.perf_counter`` values, which are CLOCK_MONOTONIC on Linux and so
comparable between the benchmark and its subprocesses. Counters are work
counts computed from a call's inputs (or its result), never timed, so they
repeat exactly between runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("core", "densities", "metrics", "regularity", "setsystems", "fileio", "cli")

#: regularity constructions whose self time is reported
CONSTRUCTIONS = ("weak_partition_via_net", "ultra_strong_partition", "thin_ultra_partition",
                 "szemeredi_error", "net_from_partition", "edit_blowup_approx")

CLI_COMMANDS = ("zoo", "partition", "report", "thinness", "density")

#: span groups timed by their outermost member: name prefix per group
GROUPS = {"densities": "densities.", "metrics.packing": "metrics.packing",
          "fileio.load": "fileio.load", "fileio.write": "fileio.write"}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _is_zero_one(values) -> bool:
    return bool(np.all((values == 0.0) | (values == 1.0)))


# -- counters computed from inputs: (span name, args, kwargs) -> (name, counters)

def _cut_norm(name, args, kwargs):
    r = _arg(args, kwargs, 0, "r")
    mode = _arg(args, kwargs, 1, "mode", "exact")
    return f"{name}.{mode}", ({"subsets": 1 << r.k} if mode == "exact" else None)


def _partial_density(name, args, kwargs):
    f, x, w = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 2, "x"), _arg(args, kwargs, 3, "w")
    return name, {"assignments": w.k ** (f.n - len(x))}


def _partial_bigraph_density(name, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    x, y = _arg(args, kwargs, 3, "x"), _arg(args, kwargs, 4, "y")
    w = _arg(args, kwargs, 5, "w")
    return name, {"assignments": w.k1 ** (f.n1 - len(x)) * w.k2 ** (f.n2 - len(y))}


def _neighborhood_metric(name, args, kwargs):
    w = _arg(args, kwargs, 0, "w")
    kind = "binary" if _is_zero_one(w.w) else "real"
    return f"{name}.{kind}", {"row_l1_cells": w.k ** 3}


def _purify(name, args, kwargs):
    return name, {"row_l1_cells": _arg(args, kwargs, 0, "w").k ** 3}


def _bigraphon_metrics(name, args, kwargs):
    w = _arg(args, kwargs, 0, "w")
    return name, {"row_l1_cells": w.k1 * w.k1 * w.k2 + w.k2 * w.k2 * w.k1}


def _file_read(name, args, kwargs):
    return name, {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _file_write(name, args, kwargs):
    return name, {"bytes": len(_arg(args, kwargs, 1, "text").encode())}


BEFORE = {
    "core.cut_norm": _cut_norm,
    "densities.partial_density": _partial_density,
    "densities.partial_bigraph_density": _partial_bigraph_density,
    "metrics.neighborhood_metric": _neighborhood_metric,
    "metrics.purify": _purify,
    "metrics.bigraphon_metrics": _bigraphon_metrics,
    "fileio.write_text": _file_write,
    **{f"fileio.{fn}": _file_read for fn in ("load_graphon", "load_bigraphon", "load_graph",
                                              "load_bigraph", "load_partition", "load_family")},
}

# -- counters computed from results: result -> counters
AFTER = {
    "metrics.average_net": lambda res: {"iterations": len(res[0]) - 1},
    "regularity.thin_ultra_partition": lambda res: {"thin.atoms": res.atom_count,
                                                    "thin.sauer_bound": res.sauer_bound},
}


class Tracer:
    """In-memory span recorder; one per process. Calls are recorded only
    while ``job`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str, counters=None) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job, counters]
        self._stack.append(idx)
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name, start, end, parent, counters=None) -> int:
        """Record a finished span (used for spans read from a subprocess)."""
        self.spans.append([name, start, end, parent, self.job, counters])
        return len(self.spans) - 1

    def _wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:  # outside a job, e.g. in an output check
                return fn(*args, **kwargs)
            span_name, counters = before(name, args, kwargs) if before else (name, None)
            idx = self.open(span_name, counters)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after:
                self.spans[idx][5] = {**(counters or {}), **after(result)}
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module (imports them)."""
        import importlib

        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"graphonlab.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "graphonlab" or modname.startswith("graphonlab.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
                    self._patches.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "counters": counters}) + "\n")


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS or head == "process" else "other"


def per_layer_metrics(spans, counted_jobs) -> dict:
    """Per-layer metrics from the spans of traced jobs.

    Every job has one root span named ``job``. Times are seconds per job
    over all traced jobs; a layer's self time is its spans' durations minus
    their direct children's, so a call nested in the same layer
    (``density`` -> ``partial_density``) is counted once. Counts (calls and
    the computed counters) are per job over ``counted_jobs`` only, a fixed
    set of inputs, so they repeat exactly between runs.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def outermost(i, test):
        # no ancestor span satisfies ``test``
        p = spans[i][3]
        while p >= 0:
            if test(spans[p][0]):
                return False
            p = spans[p][3]
        return True

    jobs = {s[4] for s in spans if s[0] == "job"}
    n_jobs = max(len(jobs), 1)
    n_counted = max(len(counted_jobs), 1)
    job_time = sum(d for s, d in zip(spans, dur) if s[0] == "job")
    t, c = {}, {}

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    for i, s in enumerate(spans):
        name, counters = s[0], s[5] or {}
        layer = layer_of(name)
        self_time = dur[i] - child[i]
        counted = s[4] in counted_jobs
        add(t, f"layer.{layer}", self_time)
        if layer == "regularity":
            add(t, f"{name}.self_s", self_time)
        if name.startswith("cli.cmd_"):
            cmd = name[len("cli.cmd_"):]
            add(t, f"cli.{cmd}", dur[i])
            add(c, f"cli.{cmd}.n", 1)
        if name == "process":
            add(t, "cli.import", counters["import_s"])
            add(c, "cli.import.n", 1)
            continue
        if outermost(i, lambda a, name=name: a == name):
            add(t, name, dur[i])
            if counted:
                add(c, f"{name}.calls", 1)
        for group, prefix in GROUPS.items():
            if name.startswith(prefix) and outermost(i, lambda a: a.startswith(prefix)):
                add(t, group, dur[i])
                add(c, f"{group}.calls_all", 1)
                if counted:
                    add(c, f"{group}.calls", 1)
        if counted:
            for key, value in counters.items():
                add(c, f"{layer}.{key}", value)

    def per_job(v):
        return v / n_jobs

    def counted(key):
        return c.get(key, 0) / n_counted

    def share(layer):
        return t.get(f"layer.{layer}", 0.0) / job_time if job_time > 0 else 0.0

    dens_calls = c.get("densities.calls_all", 0)
    out = {
        "core.cut_norm.exact.calls": counted("core.cut_norm.exact.calls"),
        "core.cut_norm.exact.s": per_job(t.get("core.cut_norm.exact", 0.0)),
        "core.cut_norm.exact.subsets": counted("core.subsets"),
        "core.cut_norm.heuristic.calls": counted("core.cut_norm.heuristic.calls"),
        "core.cut_norm.heuristic.s": per_job(t.get("core.cut_norm.heuristic", 0.0)),
        "core.aggregate.s": per_job(t.get("core.aggregate", 0.0)),
        "core.square.s": per_job(t.get("core.square", 0.0)),
        "core.l1_norm.s": per_job(t.get("core.l1_norm", 0.0)),
        "densities.calls": counted("densities.calls"),
        "densities.s": per_job(t.get("densities", 0.0)),
        "densities.us_per_call": (t.get("densities", 0.0) / dens_calls * 1e6
                                  if dens_calls else 0.0),
        "densities.assignments": counted("densities.assignments"),
        "metrics.neighborhood_metric.binary.s":
            per_job(t.get("metrics.neighborhood_metric.binary", 0.0)),
        "metrics.neighborhood_metric.real.s":
            per_job(t.get("metrics.neighborhood_metric.real", 0.0)),
        "metrics.row_l1.cells": counted("metrics.row_l1_cells"),
        "metrics.similarity_metric.s": per_job(t.get("metrics.similarity_metric", 0.0)),
        "metrics.purify.s": per_job(t.get("metrics.purify", 0.0)),
        "metrics.average_net.s": per_job(t.get("metrics.average_net", 0.0)),
        "metrics.average_net.iterations": counted("metrics.iterations"),
        "metrics.voronoi_partition.s": per_job(t.get("metrics.voronoi_partition", 0.0)),
        "metrics.packing.s": per_job(t.get("metrics.packing", 0.0)),
    }
    for fn in CONSTRUCTIONS:
        out[f"regularity.{fn}.self_s"] = per_job(t.get(f"regularity.{fn}.self_s", 0.0))
    out["regularity.thin.atoms"] = counted("regularity.thin.atoms")
    out["regularity.thin.sauer_bound"] = counted("regularity.thin.sauer_bound")
    for fn in ("neighborhood_family", "de_dimension", "vc_dimension", "thinness_witness"):
        out[f"setsystems.{fn}.s"] = per_job(t.get(f"setsystems.{fn}", 0.0))
    out["fileio.load.s"] = per_job(t.get("fileio.load", 0.0))
    out["fileio.write.s"] = per_job(t.get("fileio.write", 0.0))
    out["fileio.bytes"] = counted("fileio.bytes")
    n_imports = c.get("cli.import.n", 0)
    out["cli.import_ms"] = t.get("cli.import", 0.0) / n_imports * 1e3 if n_imports else 0.0
    for cmd in CLI_COMMANDS:
        n = c.get(f"cli.{cmd}.n", 0)
        out[f"cli.{cmd}.ms"] = t.get(f"cli.{cmd}", 0.0) / n * 1e3 if n else 0.0
    for layer in LAYERS + ("process", "other"):
        out[f"layer.{layer}.share"] = share(layer)
    return out
