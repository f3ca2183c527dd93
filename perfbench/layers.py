"""Per-layer metrics computed from the spans of a traced pass.

Times ending in ``_s`` are seconds per op (the mean over the traced ops),
counts are per op too, except the set-up and service counters, which are
totals of the traced pass.  Layers that did not fire read 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

#: per-layer metric -> unit (the ``per_layer`` list of BENCHMARK.json)
PER_LAYER_UNITS = {
    "spec_parser.self_s": "s",
    "encoder.self_s": "s",
    "encoder.facts": "count",
    "encoder.installed_candidates": "count",
    "grounder.base_self_s": "s",
    "grounder.delta_self_s": "s",
    "grounder.atoms": "count",
    "grounder.rules": "count",
    "completion.self_s": "s",
    "completion.clauses": "count",
    "completion.vars": "count",
    "search.self_s": "s",
    "search.conflicts": "count",
    "search.decisions": "count",
    "search.propagations": "count",
    "search.restarts": "count",
    "search.solve_calls": "count",
    "search.models_found": "count",
    "search.optimal_model_ratio": "ratio",
    "extract.self_s": "s",
    "explain.self_s": "s",
    "explain.calls": "count",
    "cache.solve_lookups": "count",
    "cache.solve_hit_ratio": "ratio",
    "cache.solve_read_s": "s",
    "cache.solve_write_s": "s",
    "cache.snapshot_attach_s": "s",
    "cache.base_groundings": "count",
    "cache.base_hits": "count",
    "session.self_s": "s",
    "service.core_s": "s",
    "service.transport_s": "s",
    "service.rejected": "count",
    "service.deadline_exceeded": "count",
    "op.mean_s": "s",
    "trace.overhead_share": "ratio",
}

#: span names each workload must fire; a traced run that misses one fails
REQUIRED_SPANS = {
    "family_batch": (
        "spec_parser", "encoder", "grounder.delta", "completion", "search", "extract",
        "cache.solve_read", "cache.solve_write", "cache.snapshot_attach", "session",
    ),
    "oneshot_reuse": (
        "spec_parser", "encoder", "grounder.base", "completion", "search", "extract",
    ),
    "service_mix": (
        "spec_parser", "encoder", "grounder.base", "grounder.delta", "completion", "search",
        "extract", "explain", "cache.solve_read", "cache.solve_write", "session",
        "service.core",
    ),
}

#: what each workload is meant to stress, as shares of the mean traced op:
#: completion plus search carry at least SOLVE_SHARE_MIN of a family_batch
#: op, and base grounding stays under BASE_SHARE_SPLIT of a family_batch op
#: (its base comes from the snapshot at set-up) but exceeds it on
#: oneshot_reuse, so its share there is the larger one
SOLVE_SHARE_MIN = 0.9
BASE_SHARE_SPLIT = 0.1


def check_stress(workload: str, metrics: Dict[str, float]) -> None:
    op = metrics["op.mean_s"]
    solve = (metrics["completion.self_s"] + metrics["search.self_s"]) / op
    base = metrics["grounder.base_self_s"] / op
    if workload == "family_batch":
        if solve < SOLVE_SHARE_MIN:
            raise RuntimeError(
                f"family_batch: completion + search are {solve:.1%} of an op, "
                f"under {SOLVE_SHARE_MIN:.0%}"
            )
        if base >= BASE_SHARE_SPLIT:
            raise RuntimeError(f"family_batch: base grounding is {base:.1%} of an op")
    elif workload == "oneshot_reuse" and base <= BASE_SHARE_SPLIT:
        raise RuntimeError(f"oneshot_reuse: base grounding is only {base:.1%} of an op")


def compute(workload: str, records: List[Dict], traced, untraced) -> Dict[str, float]:
    """``traced``/``untraced`` are the RunResults of the two passes."""
    fired = {r["name"] for r in records}
    missing = [name for name in REQUIRED_SPANS[workload] if name not in fired]
    if missing:
        raise RuntimeError(f"{workload}: layer entry points never fired: {missing}")

    ops = max(1, traced.attempted)
    in_ops = [r for r in records if r["op"] is not None]
    top = [r for r in in_ops if not r["nested"]]
    self_by = defaultdict(float)
    time_by = defaultdict(float)
    calls_by = defaultdict(int)
    counts_by = defaultdict(float)
    for r in in_ops:
        self_by[r["name"]] += r["self_s"]
    for r in top:
        time_by[r["name"]] += r["end"] - r["start"]
        calls_by[r["name"]] += 1
        for key, value in r["counts"].items():
            counts_by[f"{r['name']}.{key}"] += value

    def per_op(value):
        return value / ops

    lookups = counts_by["cache.solve_read.lookups"]
    models = counts_by["search.models_found"]
    metrics = {
        "spec_parser.self_s": per_op(self_by["spec_parser"]),
        "encoder.self_s": per_op(self_by["encoder"]),
        "encoder.facts": per_op(counts_by["encoder.facts"]),
        "encoder.installed_candidates": per_op(counts_by["encoder.installed_candidates"]),
        "grounder.base_self_s": per_op(self_by["grounder.base"]),
        "grounder.delta_self_s": per_op(self_by["grounder.delta"]),
        "grounder.atoms": per_op(counts_by["grounder.base.atoms"] + counts_by["grounder.delta.atoms"]),
        "grounder.rules": per_op(counts_by["grounder.base.rules"] + counts_by["grounder.delta.rules"]),
        "completion.self_s": per_op(self_by["completion"]),
        "completion.clauses": per_op(counts_by["completion.clauses"]),
        "completion.vars": per_op(counts_by["completion.vars"]),
        "search.self_s": per_op(self_by["search"]),
        "search.conflicts": per_op(counts_by["search.conflicts"]),
        "search.decisions": per_op(counts_by["search.decisions"]),
        "search.propagations": per_op(counts_by["search.propagations"]),
        "search.restarts": per_op(counts_by["search.restarts"]),
        "search.solve_calls": per_op(counts_by["search.solve_calls"]),
        "search.models_found": per_op(models),
        "search.optimal_model_ratio": calls_by["search"] / models if models else 0.0,
        "extract.self_s": per_op(self_by["extract"]),
        "explain.self_s": per_op(self_by["explain"]),
        "explain.calls": per_op(calls_by["explain"]),
        "cache.solve_lookups": per_op(lookups),
        "cache.solve_hit_ratio": counts_by["cache.solve_read.hits"] / lookups if lookups else 0.0,
        "cache.solve_read_s": per_op(time_by["cache.solve_read"]),
        "cache.solve_write_s": per_op(time_by["cache.solve_write"]),
        "session.self_s": per_op(self_by["session"]),
        "op.mean_s": sum(o.latency_s for o in traced.outcomes) / ops,
        "trace.overhead_share": untraced.ops_per_s() / traced.ops_per_s() - 1.0,
    }

    # set-up and whole-pass totals
    attach = [r for r in records if r["name"] == "cache.snapshot_attach" and r["parent"] is None]
    metrics["cache.snapshot_attach_s"] = sum(r["end"] - r["start"] for r in attach)
    metrics["cache.base_groundings"] = float(
        sum(1 for r in records if r["name"] == "grounder.base" and not r["nested"])
    )
    session = traced.env.get("session_stats", {})
    metrics["cache.base_hits"] = float(
        session.get("base_cache_hits", 0) + session.get("base_disk_hits", 0)
    )

    # service: server-side core time vs what the client saw
    core_by_op = {}
    for r in top:
        if r["name"] == "service.core":
            core_by_op[int(r["op"])] = r["end"] - r["start"]
    metrics["service.core_s"] = per_op(sum(core_by_op.values()))
    transport = [
        outcome.latency_s - core_by_op[index]
        for index, outcome in enumerate(traced.outcomes)
        if not outcome.solved and index in core_by_op
    ]
    if workload == "service_mix" and not transport:
        raise RuntimeError("service_mix: no traced hit to measure transport time on")
    metrics["service.transport_s"] = sum(transport) / len(transport) if transport else 0.0
    server = traced.env.get("server", {})
    metrics["service.rejected"] = float(server.get("rejected_overload", 0))
    metrics["service.deadline_exceeded"] = float(server.get("deadline_exceeded", 0))
    check_stress(workload, metrics)
    return metrics
