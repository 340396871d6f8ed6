"""Metric definitions: the end-to-end metrics of an untraced run and the
per-module metrics of a traced run.

Each per-module metric names the end-to-end metrics and workloads it is
expected to move, so that a change to one module can say beforehand where
its gain should show and where nothing should change.
"""

from __future__ import annotations

import math

#: (name, unit) of the end-to-end metrics; bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),  # median seconds to build and write the workload's inputs
    ("ops_per_s", "1/s"),  # correctly completed ops per second spent in ops
    ("op_p50_ms", "ms"),  # median op latency
    ("op_p90_ms", "ms"),  # 90th-percentile op latency
    ("peak_rss_mb", "MB"),  # peak resident memory, pool workers included
    ("ok_frac", "frac"),  # correct ops / attempted ops (1 - failed fraction)
)

_CLASSIFY = "ops_per_s, op_p90_ms on classify-*"
_REDUCE = "ops_per_s on reduce-certify"
_ANALYZE = "ops_per_s on analyze-large"

#: (name, unit, what it should move); "none" means no visible effect expected
PER_LAYER = (
    ("chern.screen_2fano.self_s", "s", _CLASSIFY + "; not analyze-large"),
    ("chern.ch2_dot_invariant_surface.calls", "count", _CLASSIFY + "; not analyze-large"),
    ("chern.divisor_dot_orbit.calls", "count", _CLASSIFY + "; not analyze-large"),
    ("chern.divisor_dot_orbit.self_s", "s", _CLASSIFY + "; not analyze-large"),
    ("fan.wall_relation.calls", "count", _CLASSIFY + "; reduce-certify via is_projective"),
    ("fan.wall_relation.self_s", "s", _CLASSIFY + "; reduce-certify via is_projective"),
    ("fan.wall_relation.repeat_ratio", "ratio", _CLASSIFY + "; reduce-certify via is_projective"),
    ("fan.locate.calls", "count", _ANALYZE),
    ("fan.locate.self_s", "s", _ANALYZE),
    ("fan.spans_cone.calls", "count", _CLASSIFY),
    ("fan.spans_cone.self_s", "s", _CLASSIFY),
    ("fan.validate.calls", "count", _REDUCE + " (one validation per new fan)"),
    ("fan.validate.self_s", "s", _REDUCE),
    ("fan.is_projective.self_s", "s", _REDUCE),
    ("lattice.solve_integer_system.calls", "count", _CLASSIFY),
    ("lattice.solve_integer_system.self_s", "s", _CLASSIFY),
    ("lattice.express_in_basis.calls", "count", _ANALYZE),
    ("lattice.express_in_basis.self_s", "s", _ANALYZE),
    ("lattice.has_nonnegative_kernel.calls", "count", _REDUCE),
    ("lattice.has_nonnegative_kernel.self_s", "s", _REDUCE),
    ("primitive.primitive_collections.calls", "count", _ANALYZE + "; not classify-*"),
    ("primitive.primitive_collections.self_s", "s", _ANALYZE + "; not classify-*"),
    ("primitive.primitive_relations.calls", "count", "analyze-large and classify-*"),
    ("primitive.relation_rebuilds_per_op", "count/op", "analyze-large and classify-*"),
    ("primitive.relevant_collections.self_s", "s", "classify-* and reduce-certify"),
    ("birational.is_contractible.calls", "count", _REDUCE),
    ("birational.is_contractible.self_s", "s", _REDUCE),
    ("birational.contract.calls", "count", _REDUCE),
    ("birational.contract.self_s", "s", _REDUCE),
    ("birational.flip.calls", "count", _REDUCE + " (surgery cross-check included)"),
    ("birational.flip.self_s", "s", _REDUCE + " (surgery cross-check included)"),
    ("birational.multi_flip.calls", "count", _REDUCE),
    ("birational.multi_flip.self_s", "s", _REDUCE),
    ("pipeline.run_step1.self_s", "s", _REDUCE),
    ("pipeline.detect_exceptional.self_s", "s", _REDUCE),
    ("pipeline.verify_output.calls", "count", _REDUCE),
    ("pipeline.verify_output.self_s", "s", _REDUCE),
    ("certificate.build_certificate.self_s", "s", "none visible (reduce-certify)"),
    ("certificate.check_certificate.self_s", "s", "none visible (reduce-certify)"),
    ("fanio.read_fan.calls", "count", "classify-*"),
    ("fanio.read_fan.self_s", "s", "classify-*"),
    ("fanio.classify_file.self_s", "s", "classify-*"),
    ("fanio.reconstruct_fan.self_s", "s", "setup_s on classify-* and reduce-certify"),
    ("fanio.batch_classify.efficiency", "ratio", "ops_per_s on classify-pool only"),
    ("cli.main.self_s", "s", _ANALYZE),
    ("trace.overhead_frac", "ratio", "nothing: traced wall / untraced wall - 1"),
)


def percentile(values, q: int) -> float:
    """Nearest-rank q-th percentile: the smallest sample that at least q
    percent of the samples do not exceed."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def per_layer(span: dict, setup_span: dict, ops: int, efficiency: float, overhead: float) -> dict[str, float]:
    """Per-module metric values from a pass summary (``Tracer.summary``)
    and a set-up summary."""
    out = {}
    for name, _unit, _moves in PER_LAYER:
        func, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            source = setup_span if func == "fanio.reconstruct_fan" else span
            out[name] = source[func][stat]
    wall = span["fan.wall_relation"]
    out["fan.wall_relation.repeat_ratio"] = wall["calls"] / wall["distinct"] if wall["distinct"] else 0.0
    out["primitive.relation_rebuilds_per_op"] = span["primitive.primitive_relations"]["calls"] / ops
    out["fanio.batch_classify.efficiency"] = efficiency
    out["trace.overhead_frac"] = overhead
    return out


#: per-layer metrics that are counts and must repeat exactly between traced passes
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit == "count" or name.endswith(("repeat_ratio", "per_op")))
