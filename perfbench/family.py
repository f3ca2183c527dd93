"""``family_batch``: one session concretizing many distinct specs of one family.

The facility-batch case.  One ``ConcretizationSession`` on the 320-package
solver-heavy synthetic catalog concretizes distinct specs of the
``synth-0296`` family (root variant combinations plus ``^dep+optN``
constraints on packages in its closure).  The shared base comes from a
ground snapshot written during preparation, so set-up is a snapshot warm
start; every op misses the solve cache, so op time is delta grounding,
completion and search.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from typing import Dict, List

from common import (
    BENCH_DIR, RunResult, log, peak_rss_mb, repeat_setup, round_count, run_rounds,
    time_fresh_processes,
)
import oracle

ROOT_SPEC = "synth-0296"
#: knobs of the solver-heavy catalog (the same catalog the repository's own
#: hot-path benchmarks use), frozen here so the workload never drifts
CATALOG = dict(num_packages=320, max_dependencies=6, layers=6, seed=7)
#: the recorded universe is split into this many bands of solver effort;
#: one round takes one seeded spec from each band, and runs are whole
#: rounds, so every run has the same mix of easy and hard specs whatever its
#: seed, and the median op is always from the middle band.  Five bands
#: keep a run of two rounds near 25 s of op time.
BANDS = 5
UNIVERSE_SIZE = 56
#: specs above this solver effort (decisions + conflicts) stay out of the
#: universe: a third of the candidates, taking 3-8 s each, whose search time
#: would leave room for one round per run.  Completion cost is the same for
#: every spec of the family, so the easier specs show a completion change
#: at least as clearly.
MAX_EFFORT = 6000
SETUP_REPEATS = 5


def catalog():
    from repro.spack.generator import SyntheticRepoBuilder

    return SyntheticRepoBuilder(**CATALOG).build()


def session_config(cache_dir: str):
    from repro.spack.concretize import SessionConfig

    # share_ground_cache=False: every session acquires its base from disk,
    # as a fresh process would, instead of the process-wide memo
    return SessionConfig(cache_dir=cache_dir, share_ground_cache=False)


# -- the spec universe (recorded once, see record_reference.py) -------------

def candidate_specs(repo, seed: int = 0):
    """Distinct family specs in a fixed pseudo-random order."""
    rng = random.Random(seed)
    closure = sorted(
        name for name in repo.possible_dependencies(ROOT_SPEC)
        if name != ROOT_SPEC and repo.exists(name) and repo.get(name).variants
    )
    seen = set()
    while True:
        root = ROOT_SPEC + "".join(
            rng.choice(("", f"+{v}", f"~{v}")) for v in sorted(repo.get(ROOT_SPEC).variants)
        )
        dep = rng.choice(closure)
        variant = rng.choice(sorted(repo.get(dep).variants))
        spec = f"{root} ^{dep}{rng.choice('+~')}{variant}"
        if spec not in seen:
            seen.add(spec)
            yield spec


def record() -> List[Dict[str, object]]:
    """Solve candidates until UNIVERSE_SIZE satisfiable ones are recorded."""
    import tempfile

    from repro.spack.concretize import ConcretizationSession
    from repro.spack.errors import UnsatisfiableSpecError

    repo = catalog()
    universe = []
    with tempfile.TemporaryDirectory(dir=os.path.dirname(BENCH_DIR)) as cache_dir:
        session = ConcretizationSession(repo=repo, session_config=session_config(cache_dir))
        for spec in candidate_specs(repo):
            if len(universe) == UNIVERSE_SIZE:
                break
            try:
                result = session.concretize(spec)
            except UnsatisfiableSpecError:
                continue
            solver = result.statistics["solver"]
            effort = solver["decisions"] + solver["conflicts"]
            if effort > MAX_EFFORT:
                continue
            universe.append({
                "spec": spec,
                "signature": oracle.signature(result),
                "costs": oracle.costs(result),
                "effort": effort,
            })
            log(f"family_batch reference {len(universe)}/{UNIVERSE_SIZE}: {spec}")
    return universe


def rounds_for(universe: List[Dict[str, object]], seed: int) -> List[List[str]]:
    ordered = sorted(universe, key=lambda entry: (entry["effort"], entry["spec"]))
    size = len(ordered) // BANDS
    bands = [[e["spec"] for e in ordered[i * size:(i + 1) * size]] for i in range(BANDS)]
    rng = random.Random(seed)
    for band in bands:
        rng.shuffle(band)
    rounds = [list(specs) for specs in zip(*bands)]
    for specs in rounds:
        rng.shuffle(specs)
    return rounds


# -- preparation and set-up ---------------------------------------------------

def prepare_snapshot(prep_dir: str) -> None:
    """Child-process entry: ground the family's base cold, write its snapshot."""
    from repro.spack.concretize import ConcretizationSession
    from repro.spack.spec_parser import parse_spec

    session = ConcretizationSession(repo=catalog(), session_config=session_config(prep_dir))
    session._base_for([parse_spec(ROOT_SPEC)])
    if session.statistics()["snapshot_writes"] != 1:
        raise RuntimeError("preparation wrote no ground snapshot")


def fresh_cache_dir(workdir: str, prep_dir: str, name: str) -> str:
    """A cache dir holding only the family's ground snapshot."""
    path = os.path.join(workdir, name)
    shutil.copytree(os.path.join(prep_dir, "snapshot"), os.path.join(path, "snapshot"))
    return path


def setup_session(cache_dir: str):
    """Catalog + session + base acquired from the snapshot (timed set-up)."""
    from repro.spack.concretize import ConcretizationSession
    from repro.spack.spec_parser import parse_spec

    session = ConcretizationSession(repo=catalog(), session_config=session_config(cache_dir))
    # the one private hook: acquiring the base without solving a spec
    session._base_for([parse_spec(ROOT_SPEC)])
    stats = session.statistics()
    if stats["snapshot_attaches"] != 1 or stats["base_groundings"] != 0:
        raise RuntimeError(f"set-up did not warm-start from the snapshot: {stats}")
    return session


# -- the run -------------------------------------------------------------------

def run(args, workdir: str, tracer_factory=None):
    from repro.spack.spec_parser import parse_spec

    reference = oracle.load_reference()["family_batch"]
    rounds = rounds_for(reference, args.seed)

    prep_dir = os.path.join(workdir, "prep")
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--prepare", "family_batch",
         "--workdir", prep_dir],
        check=True,
        timeout=170,
    )

    # set-up: a process from its start to the program imported (timed in
    # fresh child processes), then catalog, session and snapshot attach
    start_s, starts = time_fresh_processes("pass", SETUP_REPEATS)
    session, setup_s, setups = repeat_setup(
        lambda i: setup_session(fresh_cache_dir(workdir, prep_dir, f"setup{i}")), SETUP_REPEATS
    )
    setup_s += start_s

    expected = {entry["spec"]: entry for entry in reference}

    def check(spec, answer):
        return oracle.check_result(answer, parse_spec(spec)) or oracle.check_reference(
            answer, expected.get(spec)
        )

    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = rounds[:round_count(seconds)]
    outcomes, busy = run_rounds(rounds, session.concretize, check)
    result = RunResult(setup_s=setup_s, outcomes=outcomes, elapsed_s=busy)
    result.peak_rss_mb = peak_rss_mb()
    result.env = {
        "catalog_packages": len(session.repo),
        "store_specs": 0,
        "ops_per_run": len(outcomes),
        "rounds": len(rounds),
        "start_samples_s": starts,
        "setup_samples_s": setups,
    }
    if not args.trace:
        return result, None

    # traced pass: the same rounds on a fresh session, set-up included
    tracer = tracer_factory()
    cache_dir = fresh_cache_dir(workdir, prep_dir, "traced")
    traced_session = setup_session(cache_dir)
    traced, traced_busy = run_rounds(rounds, traced_session.concretize, check, tracer)
    tracer.uninstall()
    traced_result = RunResult(setup_s=setup_s, outcomes=traced, elapsed_s=traced_busy)
    traced_result.env = {"session_stats": traced_session.statistics()}
    return result, (tracer.records(), traced_result)
