"""Shared plumbing: timing, statistics, environment record, result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: the program under test
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout; every run removes its own directory
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: span dumps of traced runs (kept after the run)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: the ``end_to_end`` metrics of BENCHMARK.json with their units
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "miss_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workdir(workload: str, seed: int) -> str:
    path = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run still uses it, or it is already gone


def git_commit() -> str:
    """The checkout's commit, or a digest of ``src/`` outside a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, **sizes) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        **sizes,
    }


@dataclass
class Outcome:
    """What one op produced, as the oracle judged it."""

    latency_s: float
    ok: bool
    solved: bool = True  # False for answers served from a solve cache
    detail: str = ""


@dataclass
class RunResult:
    setup_s: float
    outcomes: List[Outcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    peak_rss_mb: float = 0.0
    env: Dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.elapsed_s

    def end_to_end(self) -> Dict[str, float]:
        latencies = [o.latency_s * 1000.0 for o in self.outcomes]
        solved = [o.latency_s * 1000.0 for o in self.outcomes if o.solved]
        return {
            "ops_per_s": self.ops_per_s(),
            "latency_p50_ms": statistics.median(latencies),
            "miss_p50_ms": statistics.median(solved),
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def samples(self) -> Dict[str, int]:
        solved = sum(1 for o in self.outcomes if o.solved)
        return {
            "ops_per_s": self.attempted,
            "latency_p50_ms": self.attempted,
            "miss_p50_ms": solved,
        }


#: run length that buys one round of a sequential workload: a 25 s run
#: holds two rounds (~30 s of op time on the reference 2-core Xeon VM), the
#: half-length passes of a traced run one round each
SECONDS_PER_ROUND = 12.5


def round_count(seconds: float) -> int:
    """How many whole rounds a run of ``seconds`` makes.

    Runs do a fixed amount of work, whole rounds only: a time limit would
    cut the last round short at a seed- and noise-dependent point and
    change the mix of the run.
    """
    return max(1, round(seconds / SECONDS_PER_ROUND))


def repeat_setup(setup, repeats: int):
    """Time ``setup(i)`` for i in range(repeats): (last result, median
    seconds, all samples).  One set-up is too noisy to compare runs on."""
    samples = []
    result = None
    for i in range(repeats):
        start = time.perf_counter()
        result = setup(i)
        samples.append(time.perf_counter() - start)
    return result, statistics.median(samples), samples


def time_fresh_processes(statement: str, repeats: int):
    """Time ``repeats`` fresh interpreters that import the program, then run
    ``statement``: (median seconds, all samples).  A process imports only
    once, so start-up is timed in child processes."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import repro.spack.concretize; {statement}"
    _, median, samples = repeat_setup(
        lambda i: subprocess.run([sys.executable, "-c", code], check=True, timeout=120), repeats
    )
    return median, samples


def run_rounds(rounds, do_op, check, tracer=None):
    """Run ``rounds`` of sequential ops.

    ``do_op(request)`` is the timed call; ``check(request, result)`` (not
    timed) returns None for a correct answer or a reason.  Returns the
    outcomes and the op time spent.
    """
    import tracing

    outcomes: List[Outcome] = []
    busy = 0.0
    for requests in rounds:
        for request in requests:
            start = time.perf_counter()
            try:
                with tracing.op_scope(tracer, len(outcomes)):
                    result = do_op(request)
                error = None
            except Exception as exc:  # any exception is a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            busy += latency
            if error is None:
                error = check(request, result)
            outcomes.append(Outcome(latency, error is None, True, error or ""))
    return outcomes, busy


def emit(result_metrics: Dict[str, object], correct: bool, attempted: int, failed: int) -> None:
    """The last stdout line: the machine-readable result of the run."""
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }), flush=True)


def report(line: Dict[str, object]) -> None:
    """An informational stdout line (never the last one)."""
    print(json.dumps(line, default=str), flush=True)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def dump_path(workload: str, seed: int) -> str:
    os.makedirs(OUT_ROOT, exist_ok=True)
    return os.path.join(OUT_ROOT, f"trace-{workload}-{seed}.jsonl")
