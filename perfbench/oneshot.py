"""``oneshot_reuse``: the paper's CLI path, a fresh concretizer per request.

Every request builds a new ``Concretizer(repo=builtin, store=S,
reuse=True)``, so nothing is shared between ops: base grounding and the
encoding of installed specs are paid on every op.  Requests range from
leaves to an MPI-reaching package; ``S`` is a store of 1,200 synthetic
installs from a seeded generator (``storegen.py``), built without the
solver during preparation.
"""

from __future__ import annotations

import random
from typing import Dict, List

from common import RunResult, log, peak_rss_mb, round_count, run_rounds, time_fresh_processes
import oracle
from storegen import synthesize_store

#: one round, from leaves to an MPI-reaching package.  The count is odd and
#: three ``openssl`` requests sit in the middle, between costs far apart on
#: either side, so the median op of any whole number of rounds is one of
#: them: a median over three samples a round instead of one.
REQUESTS = (
    "zlib", "bzip2", "readline",
    "openssl", "openssl+docs", "openssl~shared",
    "libxml2", "hwloc", "hdf5",
)
#: packages whose seeded installs fill the store
STORE_ROOTS = ("zlib", "bzip2", "readline", "openssl", "libxml2", "hwloc", "hdf5",
               "pkgconf", "zfp", "sz", "c-blosc")
STORE_SIZE = 1200
#: The store and the requests are the same in every run; the run's seed
#: orders the requests.  Solve time moves by 10-25 % per request when the
#: store's contents or a request's variants change (measured on this
#: catalog), and a run has room for only two rounds, so a seeded store or
#: seeded variants would move a run's median by more than any bound a
#: regression check could use.
STORE_SEED = 1000
#: more rounds than any run makes
MAX_ROUNDS = 8
SETUP_REPEATS = 5


def store_for(repo):
    return synthesize_store(repo, STORE_ROOTS, STORE_SIZE, seed=STORE_SEED)


def rounds_for(seed: int) -> List[List[str]]:
    rng = random.Random(seed)
    rounds = []
    for _ in range(MAX_ROUNDS):
        requests = list(REQUESTS)
        rng.shuffle(requests)
        rounds.append(requests)
    return rounds


def record() -> Dict[str, object]:
    from repro.spack.concretize.concretizer import Concretizer
    from repro.spack.repo import builtin_repository

    repo = builtin_repository()
    store = store_for(repo)
    answers = {}
    for request in REQUESTS:
        result = Concretizer(repo=repo, store=store, reuse=True).concretize(request)
        answers[request] = {"signature": oracle.signature(result), "costs": oracle.costs(result)}
        log(f"oneshot_reuse reference: {request}")
    return answers


def run(args, workdir: str, tracer_factory=None):
    from repro.spack.concretize.concretizer import Concretizer
    from repro.spack.repo import builtin_repository
    from repro.spack.spec_parser import parse_spec

    reference = oracle.load_reference()["oneshot_reuse"]

    # set-up: a CLI process from its start to ready for its first solve
    # (interpreter, program import, builtin catalog); the store itself is
    # preparation, as if read from an existing install tree
    setup_s, setups = time_fresh_processes(
        "from repro.spack.repo import builtin_repository; builtin_repository()", SETUP_REPEATS
    )

    repo = builtin_repository()
    store = store_for(repo)
    rounds = rounds_for(args.seed)

    def do_op(request):
        return Concretizer(repo=repo, store=store, reuse=True).concretize(request)

    def check(request, answer):
        return oracle.check_result(answer, parse_spec(request), store) or oracle.check_reference(
            answer, reference.get(request)
        )

    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = rounds[:round_count(seconds)]
    outcomes, busy = run_rounds(rounds, do_op, check)
    result = RunResult(setup_s=setup_s, outcomes=outcomes, elapsed_s=busy)
    result.peak_rss_mb = peak_rss_mb()
    result.env = {
        "catalog_packages": len(repo),
        "store_specs": len(store),
        "ops_per_run": len(outcomes),
        "rounds": len(rounds),
        "setup_samples_s": setups,
    }
    if not args.trace:
        return result, None

    tracer = tracer_factory()
    traced, traced_busy = run_rounds(rounds, do_op, check, tracer)
    tracer.uninstall()
    return result, (tracer.records(), RunResult(setup_s=setup_s, outcomes=traced, elapsed_s=traced_busy))
