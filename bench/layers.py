"""Per-layer tracing of strongblock from outside the package.

`Tracer.install()` wraps selected public functions of each strongblock module
and records, per wrapped name, the call count, the inclusive seconds
(outermost activations only, so recursion is not double counted) and the
self seconds (span minus the spans of wrapped callees).  Counters that the
per-layer metrics need (rows, elements, cells, trials ...) are read off the
arguments and results at the same boundaries.

A name imported into another module (`search.r_tuple_matrix`,
`strong.subgeometry_points`, the package's re-exports) is patched there too,
so every caller goes through the wrapper.  The scalar `Field.add`, `Field.mul`
and `Field.sub` are never wrapped: they run millions of times per operation,
so a wrapper would dominate what it measures.  Their cost stays in the self
time of their callers, chiefly `geometry.rank`.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> (module, attribute path) of the wrapped callable
SPANS = {
    "field.build": ("strongblock.field", "Field.build"),
    "field.add_vec": ("strongblock.field", "Field.add_vec"),
    "field.mul_vec": ("strongblock.field", "Field.mul_vec"),
    "field.digits": ("strongblock.field", "Field.digits"),
    "field.coords": ("strongblock.field", "CoordinateMap.coords"),
    "geometry.rank": ("strongblock.geometry", "ProjectiveSpace.rank"),
    "geometry.point_at": ("strongblock.geometry", "ProjectiveSpace.point_at"),
    "geometry.normalize_vec": ("strongblock.geometry", "ProjectiveSpace.normalize_vec"),
    "geometry.point_index_vec": ("strongblock.geometry", "ProjectiveSpace.point_index_vec"),
    "geometry.dot_block": ("strongblock.geometry", "ProjectiveSpace.dot_block"),
    "partition.build_rgroup": ("strongblock.partition", "build_rgroup"),
    "partition.r_tuple_matrix": ("strongblock.partition", "r_tuple_matrix"),
    "partition.subgeometry_points": ("strongblock.partition", "subgeometry_points"),
    "partition.build_bset": ("strongblock.partition", "build_bset"),
    "search.is_r_independent": ("strongblock.search", "is_r_independent"),
    "search.mark_lines_through": ("strongblock.search", "mark_lines_through"),
    "search.blocking_status": ("strongblock.search", "blocking_status"),
    "search.find_independent_tuple": ("strongblock.search", "find_independent_tuple"),
    "strong.verify_strong_blocking": ("strongblock.strong", "verify_strong_blocking"),
    "strong.union_subgeometries": ("strongblock.strong", "union_subgeometries"),
    "codes.support_profiles": ("strongblock.codes", "support_profiles"),
    "codes.check_minimal": ("strongblock.codes", "check_minimal"),
    "codes.generator_from_points": ("strongblock.codes", "generator_from_points"),
    "codes.weight_distribution": ("strongblock.codes", "weight_distribution"),
}

# per-layer metric name -> (unit, better); the names BENCHMARK.json lists
PER_LAYER = {
    "field.build.calls": ("count", "lower"),
    "field.build.s": ("s", "lower"),
    "field.table_mb": ("MB", "lower"),
    "field.add_vec.calls": ("count", "lower"),
    "field.add_vec.s": ("s", "lower"),
    "field.add_vec.elems": ("count", "lower"),
    "field.mul_vec.calls": ("count", "lower"),
    "field.mul_vec.s": ("s", "lower"),
    "field.mul_vec.elems": ("count", "lower"),
    "field.coords.calls": ("count", "lower"),
    "field.coords.s": ("s", "lower"),
    "field.digits.s": ("s", "lower"),
    "geometry.rank.calls": ("count", "lower"),
    "geometry.rank.s": ("s", "lower"),
    "geometry.rank.self_s": ("s", "lower"),
    "geometry.rank.rows": ("count", "lower"),
    "geometry.point_at.calls": ("count", "lower"),
    "geometry.point_at.s": ("s", "lower"),
    "geometry.normalize_vec.s": ("s", "lower"),
    "geometry.normalize_vec.rows": ("count", "lower"),
    "geometry.point_index_vec.s": ("s", "lower"),
    "geometry.dot_block.s": ("s", "lower"),
    "geometry.dot_block.cells": ("count", "lower"),
    "partition.build_rgroup.s": ("s", "lower"),
    "partition.r_tuple_matrix.calls": ("count", "lower"),
    "partition.r_tuple_matrix.s": ("s", "lower"),
    "partition.r_tuple_matrix.rows": ("count", "lower"),
    "partition.subgeometry_points.calls": ("count", "lower"),
    "partition.subgeometry_points.s": ("s", "lower"),
    "partition.build_bset.s": ("s", "lower"),
    "search.is_r_independent.calls": ("count", "lower"),
    "search.is_r_independent.s": ("s", "lower"),
    "search.trials": ("count", "lower"),
    "search.hit_ratio": ("ratio", "higher"),
    "search.mark_lines_through.calls": ("count", "lower"),
    "search.mark_lines_through.s": ("s", "lower"),
    "search.pencil_lines": ("count", "lower"),
    "search.mark_yield": ("ratio", "higher"),
    "search.blocking_status.s": ("s", "lower"),
    "search.find_independent_tuple.s": ("s", "lower"),
    "strong.verify_strong_blocking.s": ("s", "lower"),
    "strong.verify_strong_blocking.self_s": ("s", "lower"),
    "strong.hyperplanes_checked": ("count", "lower"),
    "strong.union_subgeometries.s": ("s", "lower"),
    "codes.support_profiles.s": ("s", "lower"),
    "codes.classes": ("count", "lower"),
    "codes.check_minimal.s": ("s", "lower"),
    "codes.classes_checked": ("count", "lower"),
    "codes.generator_from_points.s": ("s", "lower"),
    "codes.weight_distribution.s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _count_field_tables(tracer, args, field):
    if id(field) not in tracer.fields:
        tracer.fields[id(field)] = (field.exp.nbytes + field.log.nbytes
                                    + field.zech.nbytes)


def _count_size(counter):
    def measure(tracer, args, result):
        tracer.add(counter, result.size)
    return measure


def _count_rows(counter):
    def measure(tracer, args, result):
        tracer.add(counter, result.shape[0])
    return measure


def _count_rank_rows(tracer, args, result):
    tracer.add("geometry.rank.rows", len(args[1]))


def _count_marking(tracer, args, marks):
    space, mat = args[0], args[1]
    tracer.add("search.pencil_lines", mat.shape[0] * (space.field.order + 1))
    tracer.add("search.lines_marked", int(marks.sum()))


def _count_search(tracer, args, result):
    if result.strategy == "random":
        tracer.add("search.trials", result.trials)
        tracer.add("search.found", result.status == "found")


def _count_result_attr(counter, attr):
    def measure(tracer, args, result):
        tracer.add(counter, getattr(result, attr))
    return measure


MEASURES = {
    "field.build": _count_field_tables,
    "field.add_vec": _count_size("field.add_vec.elems"),
    "field.mul_vec": _count_size("field.mul_vec.elems"),
    "geometry.rank": _count_rank_rows,
    "geometry.normalize_vec": _count_rows("geometry.normalize_vec.rows"),
    "geometry.dot_block": _count_size("geometry.dot_block.cells"),
    "partition.r_tuple_matrix": _count_rows("partition.r_tuple_matrix.rows"),
    "search.mark_lines_through": _count_marking,
    "search.find_independent_tuple": _count_search,
    "strong.verify_strong_blocking": _count_result_attr(
        "strong.hyperplanes_checked", "hyperplanes_checked"),
    "codes.support_profiles": _count_result_attr("codes.classes", "class_count"),
    "codes.check_minimal": _count_result_attr("codes.classes_checked",
                                              "classes_checked"),
}


class Tracer:
    """Aggregated spans and counters for one traced operation."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.incl = dict.fromkeys(SPANS, 0.0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counters = {}
        self.fields = {}  # id(Field) -> table bytes
        self._stack = []  # child seconds of each open span
        self._depth = dict.fromkeys(SPANS, 0)

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, name, fn):
        measure = MEASURES.get(name)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                if depth[name] == 0:
                    self.incl[name] += dt
                self.self_s[name] += dt - child
            if measure is not None:
                measure(self, args, result)
            return result

        return traced

    def install(self):
        """Patch every wrapped callable wherever a strongblock module holds it.

        The package and all its submodules must be imported before this runs.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "strongblock" or n.startswith("strongblock.")]
        for name, (module_name, path) in SPANS.items():
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else None
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(wrapper))
                continue
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self):
        """JSON-ready aggregate of the spans and counters."""
        return {"calls": self.calls, "s": self.incl, "self_s": self.self_s,
                "counters": self.counters,
                "table_bytes": sum(self.fields.values())}


def layer_metrics(trace, process):
    """Per-layer metric values from a `Tracer.dump()` and process figures.

    `process` holds `import_s`, `report_bytes`, `cpu_s` and `overhead_frac`.
    A layer the workload does not run reports zero calls and zero seconds.
    """
    calls, incl, self_s = trace["calls"], trace["s"], trace["self_s"]
    counters = trace["counters"]
    out = {}
    for metric in PER_LAYER:
        prefix, _, measure = metric.rpartition(".")
        if prefix in SPANS and measure == "calls":
            out[metric] = calls[prefix]
        elif prefix in SPANS and measure == "s":
            out[metric] = incl[prefix]
        elif prefix in SPANS and measure == "self_s":
            out[metric] = self_s[prefix]
        elif metric in counters:
            out[metric] = counters[metric]
    trials = counters.get("search.trials", 0)
    pencil = counters.get("search.pencil_lines", 0)
    out["search.hit_ratio"] = counters.get("search.found", 0) / trials if trials else 0.0
    out["search.mark_yield"] = (counters.get("search.lines_marked", 0) / pencil
                                if pencil else 0.0)
    out["field.table_mb"] = trace["table_bytes"] / 2 ** 20
    out["cli.import_s"] = process["import_s"]
    out["cli.report_bytes"] = process["report_bytes"]
    out["process.cpu_s"] = process["cpu_s"]
    out["trace.overhead_frac"] = process["overhead_frac"]
    return {metric: out.get(metric, 0) for metric in PER_LAYER}
