#!/usr/bin/env python3
"""Benchmark: per-stage profile of the concretization hot path.

Runs a profiling-enabled session (``profile="rules"``) over the family
workload and records where the wall-clock actually goes: the coarse paper
phases (setup / load / ground / solve) refined into the grounder's named
stages (``ground.*`` for the shared base, ``delta.*`` per solve) plus the
event counters (groundings run, ...).  CI uploads the
resulting ``results/profile.*`` table as the per-stage timing artifact, so
a grounding regression in a PR shows up as a stage delta, not just a fatter
total.

It also records the solver's total work on each workload (decisions and
conflicts, ``[#]`` rows).  The search is deterministic, so
``reporting.py --check`` fails when a change alters these counts.

The same numbers are live in production via ``/v1/stats`` — this benchmark
asserts the profile is populated (every solve accounted for, ground + solve
stages present) so the profiling hook cannot silently rot.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_profile.py --quick
    PYTHONPATH=src python benchmarks/bench_profile.py            # full
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from benchmarks.reporting import record  # noqa: E402
from benchmarks.workloads import (  # noqa: E402
    FAMILY_WORKLOAD_16,
    SOLVER_HEAVY_WORKLOAD,
    micro_repo,
    solver_heavy_repo,
)
from repro.spack.concretize import ConcretizationSession  # noqa: E402
from repro.spack.concretize.session import clear_shared_bases  # noqa: E402

#: stages whose absence would mean the profiling hook is broken
REQUIRED_STAGE_PREFIXES = ("ground", "delta", "solve")


def run_profiled(repo, workload):
    """Concretize ``workload`` under ``profile="rules"``; return the wall
    time, stage profile and total solver work."""
    clear_shared_bases()
    session = ConcretizationSession(
        repo=repo, share_ground_cache=False, profile="rules"
    )
    start = time.perf_counter()
    results = session.solve(workload)
    wall = time.perf_counter() - start
    assert len(results) == len(workload)
    asp = session.statistics().get("asp") or {}
    search = {
        key: sum(result.statistics["solver"][key] for result in results)
        for key in ("decisions", "conflicts")
    }
    return wall, asp, search


def search_rows(search, label):
    """The solver's total work: exact counts, gated by ``reporting.py``."""
    return [(f"{label} solver {key} [#]", value) for key, value in search.items()]


def stage_rows(asp, wall):
    """Table rows: stages sorted by cost, then counters, then top rules."""
    rows = []
    stages = asp.get("stages") or {}
    for name, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
        rows.append((f"stage {name} [s]", f"{seconds:.3f}"))
    accounted = sum(stages.values())
    rows.append(("stages accounted [s]", f"{accounted:.3f}"))
    rows.append(("end-to-end wall [s]", f"{wall:.3f}"))
    for name, value in sorted((asp.get("counters") or {}).items()):
        rows.append((f"count {name}", str(value)))
    top = list((asp.get("rules") or {}).items())[:5]
    for label, seconds in top:
        head = label if len(label) <= 64 else label[:61] + "..."
        rows.append((f"rule {head} [s]", f"{seconds:.4f}"))
    return rows


def check_profile(asp, label):
    stages = asp.get("stages") or {}
    failures = []
    for prefix in REQUIRED_STAGE_PREFIXES:
        if not any(name.split(".")[0] == prefix for name in stages):
            failures.append(f"{label}: no '{prefix}.*' stage in the profile")
    if not asp.get("rules"):
        failures.append(f"{label}: per-rule attribution is empty")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="micro catalog only (CI smoke); full adds the solver-heavy one",
    )
    args = parser.parse_args(argv)

    failures = []
    wall, asp, search = run_profiled(micro_repo(), list(FAMILY_WORKLOAD_16))
    failures += check_profile(asp, "micro")
    rows = [
        ("catalog / workload", f"micro / {len(FAMILY_WORKLOAD_16)} specs"),
    ] + search_rows(search, "micro") + stage_rows(asp, wall)

    if not args.quick:
        heavy_wall, heavy_asp, heavy_search = run_profiled(
            solver_heavy_repo(), list(SOLVER_HEAVY_WORKLOAD)
        )
        failures += check_profile(heavy_asp, "solver-heavy")
        rows.append(("", ""))
        rows += [
            (
                "catalog / workload",
                f"solver-heavy / {len(SOLVER_HEAVY_WORKLOAD)} specs",
            ),
        ] + search_rows(heavy_search, "solver-heavy") + stage_rows(heavy_asp, heavy_wall)

    record(
        "profile",
        "Per-stage concretization profile (profile='rules')",
        ("metric", "value"),
        rows,
    )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    stages = asp.get("stages") or {}
    print(
        f"OK: {len(stages)} stages, {len(asp.get('counters') or {})} counters, "
        f"{len(asp.get('rules') or {})} rules attributed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
