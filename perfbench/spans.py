"""Spans recorded from outside starminer, and the per-layer metrics built from them.

A traced child replaces public functions of starminer's modules with wrappers
that record a span per call: name, start, end, parent span, run id, counts
taken from the call's arguments and result, and the process's RSS high-water
mark once the call returns. Functions are wrapped where ``starminer.pipeline``
and ``starminer.cli`` look them up, except ``build_item_extents``, which
``fi_gen`` looks up in ``starminer.mining``. Spans stay in memory until the
child writes them out at exit.
"""

from __future__ import annotations

import functools
import math
import resource
import time
from pathlib import Path
from typing import Any, Callable

Counts = Callable[[tuple, dict, Any], dict[str, int]]


class Tracer:
    """Records nested spans for wrapped functions of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._stack: list[dict[str, Any]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str, counts: Counts | None = None) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "run_id": self.run_id,
                "parent": stack[-1]["id"] if stack else None,
            }
            spans.append(span)
            stack.append(span)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                stack.pop()
            span["counts"] = counts(args, kwargs, result) if counts else {}
            span["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def _artifact_bytes(result) -> dict[str, int]:
    # data/ holds synth's CSVs, which synth.bytes_written already counts
    sizes = [p.stat().st_size for key, p in result.files.items() if not key.startswith("data/")]
    return {"artifact_bytes": sum(sizes)}


def _mining_counts(args, kwargs, result) -> dict[str, int]:
    view = args[0]
    itemsets, stats = result
    return {
        "groups": view.n_groups,
        "codes": len(view.code_universe),
        "candidates": stats.candidates_generated,
        "pruned": stats.candidates_pruned,
        "frequent": len(itemsets),
        "scans": stats.full_scans_of_groups,
    }


def install(tracer: Tracer, on_fi_gen: Callable[[tuple, dict, Any], None] | None = None) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from starminer import cli, datamodel, mining, pipeline

    def fi_gen_counts(args, kwargs, result):
        if on_fi_gen is not None:
            on_fi_gen(args, kwargs, result)
        return _mining_counts(args, kwargs, result)

    def table_counts(args, kwargs, result):
        table = args[0]
        return {"rows": table.n_rows, "cells": table.n_rows * len(table.schema)}

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run_pipeline", "pipeline.run_pipeline", lambda a, k, r: _artifact_bytes(r))
    tracer.wrap(
        pipeline,
        "generate_sales",
        "synth.generate_sales",
        lambda a, k, r: {"bytes_written": sum(Path(p).stat().st_size for p in r.values())},
    )
    tracer.wrap(pipeline, "load_csv", "ingest.load_csv", lambda a, k, r: {"rows": r.n_rows})
    tracer.wrap(pipeline, "join_tables", "ingest.join_tables", lambda a, k, r: {"rows_out": r.n_rows})
    tracer.wrap(pipeline, "discretize", "ingest.discretize")
    tracer.wrap(datamodel.RelationalTable, "__post_init__", "datamodel.table_build", table_counts)
    tracer.wrap(
        pipeline,
        "combine_dims",
        "mapcode.combine_dims",
        lambda a, k, r: {"codes": len(r[0]), "pairs_out": len(r[1].rows)},
    )
    tracer.wrap(pipeline, "transform_map_code", "mapcode.transform_map_code")
    tracer.wrap(pipeline, "group_by_key", "mining.group_by_key", lambda a, k, r: {"groups": r.n_groups})
    tracer.wrap(mining, "build_item_extents", "mining.build_item_extents")
    tracer.wrap(pipeline, "fi_gen", "mining.fi_gen", fi_gen_counts)
    tracer.wrap(pipeline, "apriori_baseline", "mining.apriori_baseline", _mining_counts)
    tracer.wrap(
        pipeline,
        "gen_rules",
        "rules.gen_rules",
        lambda a, k, r: {"itemsets_in": len(a[0]), "rules_out": len(r)},
    )


def missing_spans(spans: list[dict[str, Any]], expected: frozenset[str]) -> list[str]:
    """Names that were expected to fire but recorded no span."""
    fired = {s["name"] for s in spans}
    return sorted(expected - fired)


# Every per-layer metric with its unit; BENCHMARK.json lists the same names.
LAYER_UNITS = {
    "synth.generate_sales.s": "s",
    "synth.bytes_written": "bytes",
    "ingest.load_csv.s": "s",
    "ingest.load_csv.rows": "count",
    "ingest.join_tables.s": "s",
    "ingest.join_tables.rows_out": "count",
    "ingest.discretize.s": "s",
    "datamodel.table_builds": "count",
    "datamodel.table_build_s": "s",
    "datamodel.cells_validated": "count",
    "mapcode.combine_dims.s": "s",
    "mapcode.pairs_out": "count",
    "mapcode.codes": "count",
    "mapcode.transform_map_code.s": "s",
    "mining.group_by_key.s": "s",
    "mining.groups": "count",
    "mining.build_item_extents.s": "s",
    "mining.fi_gen.s": "s",
    "mining.fi_gen.count_s": "s",
    "mining.candidates": "count",
    "mining.pruned": "count",
    "mining.frequent": "count",
    "mining.frequent_per_candidate": "ratio",
    "mining.and_bytes_computed": "bytes",
    "mining.fi_gen.w2_speedup": "ratio",
    "mining.apriori_baseline.s": "s",
    "mining.scans.apriori": "count",
    "mining.scans.rshar": "count",
    "mining.apriori_over_rshar": "ratio",
    "rules.gen_rules.s": "s",
    "rules.itemsets_in": "count",
    "rules.rules_out": "count",
    "pipeline.run_pipeline.s": "s",
    "pipeline.self_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(
    spans: list[dict[str, Any]],
    traced_run_s: float,
    untraced_run_s: float,
    w2_speedup: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Times sum over every call of a span name. A span's self time is its
    duration minus the durations of its direct children; the child runs
    single-threaded, so children never overlap. A span that did not fire
    reads 0, as do ratios whose parts did not fire.
    """
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    calls: dict[str, int] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        dur = (s["end_ns"] - s["start_ns"]) / 1e9
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + dur
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        if s["parent"] is not None:
            parent = by_id[s["parent"]]["name"]
            self_s[parent] = self_s.get(parent, 0.0) - dur
        for key, value in s["counts"].items():
            name = f"{s['name']}.{key}"
            counts[name] = counts.get(name, 0) + value

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def c(name: str) -> int:
        return counts.get(name, 0)

    groups = c("mining.group_by_key.groups")
    # Level-1 candidates are read off the extents and pruned ones are never
    # counted, so only the rest pay one AND of two group-wide masks.
    anded = c("mining.fi_gen.candidates") - c("mining.fi_gen.codes") - c("mining.fi_gen.pruned")
    out = {
        "synth.generate_sales.s": t("synth.generate_sales"),
        "synth.bytes_written": c("synth.generate_sales.bytes_written"),
        "ingest.load_csv.s": t("ingest.load_csv"),
        "ingest.load_csv.rows": c("ingest.load_csv.rows"),
        "ingest.join_tables.s": t("ingest.join_tables"),
        "ingest.join_tables.rows_out": c("ingest.join_tables.rows_out"),
        "ingest.discretize.s": t("ingest.discretize"),
        "datamodel.table_builds": calls.get("datamodel.table_build", 0),
        "datamodel.table_build_s": t("datamodel.table_build"),
        "datamodel.cells_validated": c("datamodel.table_build.cells"),
        "mapcode.combine_dims.s": t("mapcode.combine_dims"),
        "mapcode.pairs_out": c("mapcode.combine_dims.pairs_out"),
        "mapcode.codes": c("mapcode.combine_dims.codes"),
        "mapcode.transform_map_code.s": t("mapcode.transform_map_code"),
        "mining.group_by_key.s": t("mining.group_by_key"),
        "mining.groups": groups,
        "mining.build_item_extents.s": t("mining.build_item_extents"),
        "mining.fi_gen.s": t("mining.fi_gen"),
        "mining.fi_gen.count_s": self_s.get("mining.fi_gen", 0.0),
        "mining.candidates": c("mining.fi_gen.candidates"),
        "mining.pruned": c("mining.fi_gen.pruned"),
        "mining.frequent": c("mining.fi_gen.frequent"),
        "mining.frequent_per_candidate": _ratio(c("mining.fi_gen.frequent"), c("mining.fi_gen.candidates")),
        "mining.and_bytes_computed": anded * math.ceil(groups / 8),
        "mining.fi_gen.w2_speedup": w2_speedup,
        "mining.apriori_baseline.s": t("mining.apriori_baseline"),
        "mining.scans.apriori": c("mining.apriori_baseline.scans"),
        "mining.scans.rshar": c("mining.fi_gen.scans"),
        "mining.apriori_over_rshar": _ratio(t("mining.apriori_baseline"), t("mining.fi_gen")),
        "rules.gen_rules.s": t("rules.gen_rules"),
        "rules.itemsets_in": c("rules.gen_rules.itemsets_in"),
        "rules.rules_out": c("rules.gen_rules.rules_out"),
        "pipeline.run_pipeline.s": t("pipeline.run_pipeline"),
        "pipeline.self_s": self_s.get("pipeline.run_pipeline", 0.0),
        "pipeline.artifact_bytes": c("pipeline.run_pipeline.artifact_bytes"),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "trace.overhead_s": traced_run_s - untraced_run_s,
    }
    assert out.keys() == LAYER_UNITS.keys()
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
