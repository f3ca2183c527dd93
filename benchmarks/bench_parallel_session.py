#!/usr/bin/env python3
"""Benchmark: parallel solve workers on a solver-heavy workload + warm caches.

Three acts.  Acts 0-1 run over the **solver-heavy** workload (a 320-package
synthetic catalog, six overlapping specs of its deepest root family, ~70
possible packages per solve) — the micro catalog the scaling act used to
run on spent its time in session bookkeeping, which is how the old ~1.04x
"speedup" caveat happened; this workload actually grounds and solves:

0. **Grounder hot path** — one cold single solve (workers=1) with the
   indexed ``Grounder`` vs. the same solve with the reference naive
   grounder of ``tests/asp/naive.py`` substituted for it.  Results must be
   signature-identical; the *full* run asserts the >=1.5x floor on the
   indexed speedup.

1. **Scaling** — one sequential :class:`ConcretizationSession` (workers=1)
   vs. the same session with ``workers=4`` fanning delta-ground + solve out
   to forked processes.  Results must be element-wise identical; the *full*
   run must additionally clear a speedup floor (2.0x with >= 4 cores,
   relaxed on 2-3 cores, waived on a single core — there is nothing to
   parallelize against).  ``--quick`` (the CI smoke) never asserts
   wall-clock floors: shared runners are too noisy for that (the trend
   regression gate compares across runs with a noise band instead).

2. **Warm start** — a session pointed at a fresh ``cache_dir`` populates the
   persistent solve/ground caches (micro catalog: this act measures cache
   plumbing, not solver muscle), then a *second process* replays the same
   batch from disk.  The child's statistics are asserted: zero solve-cache
   misses, zero delta groundings, zero base groundings — i.e. not a single
   grounding or solver call.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_parallel_session.py --quick
    PYTHONPATH=src python benchmarks/bench_parallel_session.py          # full
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, REPO_ROOT)

from benchmarks.reporting import record  # noqa: E402
from benchmarks.workloads import (  # noqa: E402
    FAMILY_WORKLOAD_16 as WARM_WORKLOAD,
    SOLVER_HEAVY_WORKLOAD as WORKLOAD,
    micro_repo,
    signature,
    solver_heavy_repo,
)
from repro.spack.concretize import ConcretizationSession, SessionConfig  # noqa: E402
from repro.spack.concretize.session import (  # noqa: E402
    clear_shared_bases,
    default_worker_count,
)
from tests.asp.naive import substituted  # noqa: E402

WORKERS = 4


def speedup_floor(quick: bool):
    """The asserted floor for the parallel speedup, given available cores.

    ``--quick`` (the CI smoke mode) never asserts a floor: shared CI runners
    have noisy neighbors, and a wall-clock assertion there would flake with
    no code defect.  Quick mode still asserts identity, worker counts, and
    the zero-solver-call warm start; the floor is enforced by the full run.
    """
    if quick:
        return None
    cores = default_worker_count()
    if cores >= WORKERS:
        return 2.0
    if cores >= 2:
        return 1.3
    return None  # single core: parallelism cannot help, only identity checked


# ---------------------------------------------------------------------------
# Act 0: grounder hot path (indexed vs the naive oracle, single cold solve)
# ---------------------------------------------------------------------------


def run_grounder_comparison(repo):
    """Cold single solve (workers=1) with each grounder.

    Uses the first workload spec only: a *single* solve is the unit the
    >=1.5x acceptance floor talks about, and base grounding — where the
    indexed grounder earns its keep — is not amortized over a batch.
    """
    times = {}
    signatures = {}
    for strategy, grounder in (
        ("indexed", contextlib.nullcontext()),
        ("naive", substituted()),
    ):
        clear_shared_bases()
        with grounder:
            session = ConcretizationSession(
                repo=repo, session_config=SessionConfig(share_ground_cache=False)
            )
            start = time.perf_counter()
            result = session.solve([WORKLOAD[0]])[0]
            times[strategy] = time.perf_counter() - start
        signatures[strategy] = signature(result)
    assert signatures["indexed"] == signatures["naive"], (
        "the grounders disagree on the solved spec"
    )
    return times


# ---------------------------------------------------------------------------
# Act 1: scaling
# ---------------------------------------------------------------------------


def run_scaling_round(repo):
    clear_shared_bases()
    sequential = ConcretizationSession(repo=repo, share_ground_cache=False)
    start = time.perf_counter()
    sequential_results = sequential.solve(list(WORKLOAD))
    sequential_time = time.perf_counter() - start

    clear_shared_bases()
    parallel = ConcretizationSession(
        repo=repo, share_ground_cache=False, workers=WORKERS
    )
    start = time.perf_counter()
    parallel_results = parallel.solve(list(WORKLOAD))
    parallel_time = time.perf_counter() - start

    for spec, a, b in zip(WORKLOAD, parallel_results, sequential_results):
        assert signature(a) == signature(b), f"results diverge for {spec!r}"

    return sequential_time, parallel_time, parallel


# ---------------------------------------------------------------------------
# Act 2: warm start from disk, in a second process
# ---------------------------------------------------------------------------


def run_replay_child(cache_dir: str) -> int:
    """Executed in the *second* process: replay the batch from disk."""
    repo = micro_repo()
    session = ConcretizationSession(
        repo=repo, share_ground_cache=False, cache_dir=cache_dir
    )
    start = time.perf_counter()
    results = session.solve(list(WARM_WORKLOAD))
    elapsed = time.perf_counter() - start
    print(
        json.dumps(
            {
                "elapsed": elapsed,
                "signatures": [repr(signature(r)) for r in results],
                "stats": session.stats.as_dict(),
                "solve_cache": session.solve_cache.statistics(),
            }
        )
    )
    return 0


def run_warm_start(repo, cache_dir):
    clear_shared_bases()
    cold = ConcretizationSession(
        repo=repo, share_ground_cache=False, cache_dir=cache_dir
    )
    start = time.perf_counter()
    cold_results = cold.solve(list(WARM_WORKLOAD))
    cold_time = time.perf_counter() - start

    env = dict(os.environ)
    src = os.path.abspath(os.path.join(REPO_ROOT, "src"))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--replay-child", cache_dir],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    if child.returncode != 0:
        raise RuntimeError(
            f"replay child failed ({child.returncode}):\n{child.stderr}"
        )
    payload = json.loads(child.stdout.strip().splitlines()[-1])
    expected = [repr(signature(r)) for r in cold_results]
    assert payload["signatures"] == expected, "warm replay diverged from cold solve"
    return cold_time, payload


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="single round with a relaxed speedup floor (CI smoke test)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="measurement rounds (best-of); default 3, or 1 with --quick",
    )
    parser.add_argument(
        "--replay-child", metavar="CACHE_DIR", default=None,
        help=argparse.SUPPRESS,  # internal: warm-start second process
    )
    args = parser.parse_args(argv)

    if args.replay_child:
        return run_replay_child(args.replay_child)

    heavy_repo = solver_heavy_repo()
    rounds = args.rounds or (1 if args.quick else 3)
    floor = speedup_floor(args.quick)
    cores = default_worker_count()

    grounder_times = run_grounder_comparison(heavy_repo)
    grounder_speedup = grounder_times["naive"] / grounder_times["indexed"]

    best = None
    for _ in range(rounds):
        sequential_time, parallel_time, parallel = run_scaling_round(heavy_repo)
        speedup = sequential_time / parallel_time
        if best is None or speedup > best[0]:
            best = (speedup, sequential_time, parallel_time, parallel)
    speedup, sequential_time, parallel_time, parallel = best

    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        cold_time, replay = run_warm_start(micro_repo(), cache_dir)

    stats = parallel.stats
    child_stats = replay["stats"]
    record(
        "parallel_session",
        f"Solver-heavy parallel session ({WORKERS} workers, {cores} cores, "
        f"{len(WORKLOAD)} overlapping specs) + warm disk replay "
        f"({len(WARM_WORKLOAD)} micro specs)",
        ["metric", "value"],
        [
            ("single solve, naive grounder [s]", f"{grounder_times['naive']:.3f}"),
            ("single solve, indexed grounder [s]", f"{grounder_times['indexed']:.3f}"),
            ("grounder speedup", f"{grounder_speedup:.2f}x"),
            ("sequential session [s]", f"{sequential_time:.3f}"),
            (f"parallel session x{WORKERS} [s]", f"{parallel_time:.3f}"),
            ("speedup", f"{speedup:.2f}x"),
            ("parallel solves", stats.parallel_solves),
            ("base groundings (parent)", stats.base_groundings),
            ("cold solve w/ cache dir [s]", f"{cold_time:.3f}"),
            ("warm replay, 2nd process [s]", f"{replay['elapsed']:.3f}"),
            ("warm solve-cache misses", child_stats["solve_cache_misses"]),
            ("warm delta groundings", child_stats["delta_groundings"]),
            ("warm base groundings", child_stats["base_groundings"]),
            ("warm disk hits", replay["solve_cache"]["disk_hits"]),
        ],
    )

    failures = []
    if stats.base_groundings != 1:
        failures.append(
            f"expected one shared base grounding in the parent, got "
            f"{stats.base_groundings}"
        )
    if stats.parallel_solves != len(WORKLOAD):
        failures.append(
            f"expected {len(WORKLOAD)} worker solves, got {stats.parallel_solves}"
        )
    if floor is None:
        reason = (
            "quick/CI mode" if args.quick else f"only {cores} core(s) visible"
        )
        print(
            f"NOTE: {reason}; speedup floor not asserted "
            f"(identity and warm start still are)"
        )
    elif speedup < floor:
        failures.append(f"speedup {speedup:.2f}x below the {floor:.1f}x floor")
    if not args.quick and grounder_speedup < 1.5:
        failures.append(
            f"indexed grounder speedup {grounder_speedup:.2f}x below the "
            f"1.5x single-solve floor"
        )
    if child_stats["solve_cache_misses"] != 0:
        failures.append(
            f"warm replay missed the cache {child_stats['solve_cache_misses']} times"
        )
    if child_stats["delta_groundings"] != 0 or child_stats["base_groundings"] != 0:
        failures.append("warm replay touched the grounder/solver")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"\nOK: grounder {grounder_speedup:.2f}x, workers {speedup:.2f}x "
            f"(x{WORKERS}); second process replayed {len(WARM_WORKLOAD)} "
            f"specs from disk with zero solver calls"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
