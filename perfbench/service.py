"""``service_mix``: a closed loop of ``POST /v1/concretize`` over real sockets.

The server is a separate process running ``ConcretizationServer`` over a
mid-size synthetic catalog with planted unsatisfiable packages, on a fresh
service with its own ``cache_dir``.  Load comes from this process: 2
keep-alive connections (one per core of the reference box), each sending its
next request when the previous answer arrived.  The mix is mostly repeats
(solve-cache reads), some first-seen specs (a solve plus a cache write) and
a few planted-unsat specs, whose correct answer is a 422 naming the planted
conflict core.  A run is a fixed number of whole blocks of requests, and
every run solves the same first-seen and unsat specs; the seed orders them.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List

from common import BENCH_DIR, Outcome, RunResult, log, peak_rss_mb, repeat_setup
import oracle

CATALOG = dict(num_packages=120, max_dependencies=5, layers=6, seed=11, unsat_packages=16)
#: regular roots with closures of at most this many packages make up the
#: request universe: their first solve takes 0.05-0.5 s
MAX_CLOSURE = 10
#: every WARM_STRIDE-th root of the universe (by closure size) is a warm
#: spec: solved once before the clock starts, then repeated as solve-cache
#: hits.  The other roots are first-seen specs, each sent once per run.
WARM_STRIDE = 10
FRESH_POOL = 64
#: a run is whole blocks.  Connection 0 sends, per block, one planted-unsat
#: spec, FRESH_PER_BLOCK first-seen specs and REPEATS_PER_BLOCK warm
#: repeats, in seeded order; connection 1 sends warm repeats until
#: connection 0 is done.  Solves therefore never overlap each other, and
#: every run solves the same specs (the seed only orders them).  The server
#: solves about half of the time; 8 solves per block rather than 5 made the
#: miss median steadier at the same run length.
FRESH_PER_BLOCK = 8
REPEATS_PER_BLOCK = 40
MAX_BLOCKS = FRESH_POOL // FRESH_PER_BLOCK
#: run length that buys one block (on the reference 2-core Xeon VM)
SECONDS_PER_BLOCK = 3.5
SETUP_REPEATS = 3
START_TIMEOUT_S = 60


def builder():
    from repro.spack.generator import SyntheticRepoBuilder

    return SyntheticRepoBuilder(**CATALOG)


def universe(repo):
    """(warm specs, first-seen pool): fixed, whatever the seed.

    The pool is spread evenly over closure sizes and kept in a fixed
    shuffled order, so a run of fewer blocks still solves a spread of small
    and large problems.
    """
    roots = sorted(
        (
            name for name in repo.all_package_names()
            if name.startswith("synth-")
            and not name.startswith(("synth-unsat-", "synth-mpi-"))
            and repo.possible_dependency_count(name) <= MAX_CLOSURE
        ),
        key=lambda name: (repo.possible_dependency_count(name), name),
    )
    warm = roots[::WARM_STRIDE]
    rest = [name for name in roots if name not in warm]
    pool = [rest[i * len(rest) // FRESH_POOL] for i in range(FRESH_POOL)]
    random.Random(0).shuffle(pool)
    return warm, pool


def record() -> Dict[str, object]:
    """Answer every warm and first-seen spec; check each answer first."""
    import tempfile

    from repro.spack.concretize import ConcretizationSession, SessionConfig
    from repro.spack.spec_parser import parse_spec

    gen = builder()
    repo = gen.build()
    warm, pool = universe(repo)
    answers: Dict[str, object] = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(BENCH_DIR)) as cache_dir:
        session = ConcretizationSession(repo=repo, session_config=SessionConfig(cache_dir=cache_dir))
        for spec in warm + pool:
            result = session.concretize(spec)
            problem = oracle.check_result(result, parse_spec(spec))
            if problem:
                raise RuntimeError(f"service_mix reference {spec}: {problem}")
            answers[spec] = {
                "dag_hash": result.spec.dag_hash(),
                "built": sorted(result.built),
                "reused": sorted(result.reused),
            }
            log(f"service_mix reference: {spec}")
    return {
        "answers": answers,
        "planted": {name: list(p.directives) for name, p in sorted(gen.planted.items())},
    }


def block_count(seconds: float) -> int:
    return min(MAX_BLOCKS, max(1, round(seconds / SECONDS_PER_BLOCK)))


def plan(reference: Dict[str, object], repo, seed: int, blocks: int):
    """(warm specs, connection 0's requests).

    Requests are (kind, spec) pairs, kind one of ``repeat``, ``fresh`` and
    ``unsat``.
    """
    rng = random.Random(seed)
    warm, pool = universe(repo)
    fresh = pool[:blocks * FRESH_PER_BLOCK]
    unsat = sorted(reference["planted"])
    random.Random(0).shuffle(unsat)
    unsat = unsat[:blocks]
    rng.shuffle(fresh)
    rng.shuffle(unsat)
    mixed = []
    for _ in range(blocks):
        kinds = ["unsat"] + ["fresh"] * FRESH_PER_BLOCK + ["repeat"] * REPEATS_PER_BLOCK
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "unsat":
                mixed.append((kind, unsat.pop()))
            elif kind == "fresh":
                mixed.append((kind, fresh.pop()))
            else:
                mixed.append((kind, rng.choice(warm)))
    return warm, mixed


def hit_stream(warm: List[str], seed: int):
    """Connection 1's requests: seeded warm repeats, as many as it sends."""
    rng = random.Random(f"hits-{seed}")
    while True:
        yield "repeat", rng.choice(warm)


# -- the server process ---------------------------------------------------------

def serve(workdir: str, traced: bool) -> None:
    """Child-process entry: serve until a line arrives on stdin."""
    import tracing

    tracer = None
    if traced:
        import repro.spack.service  # noqa: F401 - load every module to patch

        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        tracing.install_service_layers(tracer)
    from repro.spack.concretize import SessionConfig
    from repro.spack.service import ConcretizationServer, ConcretizationService

    service = ConcretizationService(
        base_repo=builder().build(),
        session_config=SessionConfig(cache_dir=os.path.join(workdir, "cache")),
    )
    server = ConcretizationServer(service, port=0).start()
    print(f"PORT {server.port}", flush=True)
    sys.stdin.readline()
    server.stop()
    stats = {
        "peak_rss_mb": peak_rss_mb(),
        "service": service.counters,
        "session": service.statistics()["tenants"]["default"],
    }
    service.close()
    if tracer is not None:
        tracer.uninstall()
        tracing.write_records(os.path.join(workdir, "spans.jsonl"), tracer.records())
    with open(os.path.join(workdir, "server.json"), "w") as handle:
        json.dump(stats, handle)


class Server:
    def __init__(self, workdir: str, traced: bool = False):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--serve", "--workdir", workdir]
        if traced:
            command.append("--trace-server")
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                ok = response.status == 200
                connection.close()
                if ok:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def stop(self) -> Dict[str, object]:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("stop\n")
                self.process.stdin.flush()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=10)
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()
        path = os.path.join(self.workdir, "server.json")
        if not os.path.exists(path):
            return {}
        with open(path) as handle:
            return json.load(handle)


def drive(port: int, warm: List[str], mixed, seed: int, reference, repo):
    """Warm the solve cache, then closed-loop load over two keep-alive
    connections: connection 0 sends ``mixed``, connection 1 sends warm
    repeats until connection 0 is done."""
    answers = reference["answers"]
    planted = reference["planted"]

    def judge(spec, status, body):
        if status == 200:
            result = body["result"]
            expected = answers.get(spec)
            if expected is None:
                return "answered a spec the reference says is unsatisfiable"
            problem = oracle.check_served(result["concrete"], spec, repo)
            if problem:
                return problem
            if [result["dag_hash"], result["built"], result["reused"]] != [
                expected["dag_hash"], expected["built"], expected["reused"]
            ]:
                return "answer differs from the recorded reference"
            return None
        if status == 422 and spec in planted:
            core = [entry["directive"] for entry in body["error"]["detail"].get("conflict_core", [])]
            return oracle.check_core(core, planted[spec])
        return f"HTTP {status}: {body.get('error', body)}"

    def post(connection, spec, request_id):
        headers = {"Content-Type": "application/json"}
        if request_id is not None:  # warm-up requests belong to no op
            headers["X-Request-Id"] = request_id
        connection.request("POST", "/v1/concretize", body=json.dumps({"spec": spec}), headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for spec in warm:
            status, body = post(connection, spec, None)
            problem = judge(spec, status, body)
            if problem:
                raise RuntimeError(f"warm-up request {spec}: {problem}")
    finally:
        connection.close()

    lock = threading.Lock()
    done = threading.Event()
    outcomes: Dict[int, Outcome] = {}
    next_id = [0]

    def client(requests, stop_when_done: bool):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            for kind, spec in requests:
                if stop_when_done and done.is_set():
                    return
                with lock:
                    index = next_id[0]
                    next_id[0] += 1
                start = time.perf_counter()
                try:
                    status, body = post(connection, spec, str(index))
                    latency = time.perf_counter() - start
                    error = judge(spec, status, body)
                except Exception as exc:  # any exception is a failed op
                    latency = time.perf_counter() - start
                    error = f"{type(exc).__name__}: {exc}"
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                with lock:
                    outcomes[index] = Outcome(latency, error is None, kind != "repeat", error or "")
        finally:
            connection.close()
            if not stop_when_done:
                done.set()

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(mixed, False)),
        threading.Thread(target=client, args=(hit_stream(warm, seed), True)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return [outcomes[i] for i in sorted(outcomes)], elapsed


def run(args, workdir: str, tracer_factory=None):
    reference = oracle.load_reference()["service_mix"]
    repo = builder().build()
    seconds = args.seconds / 2 if args.trace else args.seconds
    blocks = block_count(seconds)
    warm, mixed = plan(reference, repo, args.seed, blocks)

    started: List[Server] = []

    def start(i):
        started.append(Server(os.path.join(workdir, f"server{i}")))
        return started[-1]

    try:
        server, setup_s, setups = repeat_setup(start, SETUP_REPEATS)
    finally:
        # the last server takes the load; the others only timed a set-up
        for extra in started[:-1]:
            extra.stop()

    try:
        outcomes, elapsed = drive(server.port, warm, mixed, args.seed, reference, repo)
    finally:
        stats = server.stop()
    result = RunResult(setup_s=setup_s, outcomes=outcomes, elapsed_s=elapsed)
    result.peak_rss_mb = stats.get("peak_rss_mb", 0.0)
    result.env = {
        "catalog_packages": CATALOG["num_packages"] + CATALOG["unsat_packages"],
        "store_specs": 0,
        "ops_per_run": len(outcomes),
        "blocks": blocks,
        "hits": sum(1 for o in outcomes if not o.solved),
        "setup_samples_s": setups,
        "server": stats.get("service", {}),
    }
    if not args.trace:
        return result, None

    traced_dir = os.path.join(workdir, "traced")
    server = Server(traced_dir, traced=True)
    try:
        traced, traced_elapsed = drive(server.port, warm, mixed, args.seed, reference, repo)
    finally:
        traced_stats = server.stop()
    traced_result = RunResult(setup_s=setup_s, outcomes=traced, elapsed_s=traced_elapsed)
    traced_result.env = {
        "server": traced_stats.get("service", {}),
        "session_stats": traced_stats.get("session", {}),
    }
    with open(os.path.join(traced_dir, "spans.jsonl")) as handle:
        records = [json.loads(line) for line in handle]
    return result, (records, traced_result)
