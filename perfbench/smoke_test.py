"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload in its smallest form (``--seconds 0.1``: one round or
one block of requests) untraced and traced, and checks that every metric of
BENCHMARK.json prints with its unit, that no op failed, and that the
benchmark refuses to run, without printing a result, when the program
under test is missing.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402
import layers  # noqa: E402


def run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == ["family_batch", "oneshot_reuse", "service_mix"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    return spec


def check_run(workload: str, trace: int, expected_units: dict) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    env = json.loads(lines[-2])["environment"]
    assert env["failed_share"] == 0, env
    for key in ("nproc", "cpu", "python", "catalog_packages", "store_specs", "ops_per_run",
                "seed", "commit"):
        assert key in env, key
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected_units, (workload, trace, got)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    print(f"ok  {workload:14s} trace={trace}  attempted={result['attempted']}")


def check_refuses_without_program() -> None:
    bare = os.path.join(common.WORK_ROOT, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("oneshot_reuse", 0, cwd=bare)
        assert proc.returncode != 0, "the benchmark ran without the program under test"
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        common.remove_workdir(bare)
    print("ok  refuses to run without src/")


def main() -> int:
    check_spec()
    check_refuses_without_program()
    for workload in ("family_batch", "oneshot_reuse", "service_mix"):
        check_run(workload, 0, common.END_TO_END_UNITS)
        check_run(workload, 1, layers.PER_LAYER_UNITS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
