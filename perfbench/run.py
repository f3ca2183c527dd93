"""The repository benchmark: one seeded workload per run, one result line.

    python3 perfbench/run.py --workload family_batch --seed 1 --seconds 25 --trace 0

Workloads: ``family_batch``, ``oneshot_reuse``, ``service_mix`` (see
README.md beside this file).  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` the run makes an untraced pass,
then the same ops again with every layer entry point wrapped, and the last
line holds the per-layer metrics.  Every op is checked by ``oracle.py``; a
wrong answer or an exception counts as a failed op.

Run from the root of a checkout: the program under test is imported from
``src/``.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import common  # noqa: E402

SRC = common.SRC
sys.path.insert(1, SRC)

WORKLOADS = ("family_batch", "oneshot_reuse", "service_mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal entry points of child processes
    parser.add_argument("--prepare", choices=("family_batch",), help=argparse.SUPPRESS)
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-server", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.prepare or args.serve or args.workload):
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Import the program under test."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        # never fall back to some other installed copy of the program
        sys.exit(f"the program under test is missing: no {SRC}/repro")
    import repro.spack.concretize  # noqa: F401
    import repro.spack.service  # noqa: F401


def measure(args) -> int:
    import_program()
    import tracing

    module = {
        "family_batch": "family",
        "oneshot_reuse": "oneshot",
        "service_mix": "service",
    }[args.workload]
    workload = __import__(module)

    def tracer_factory():
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        return tracer

    workdir = common.make_workdir(args.workload, args.seed)
    try:
        result, traced = workload.run(args, workdir, tracer_factory)
    finally:
        common.remove_workdir(workdir)

    failures = [o.detail for o in result.outcomes if not o.ok]
    env = common.environment(args.workload, args.seed, **result.env)
    env["failed_share"] = result.failed / max(1, result.attempted)
    env["samples"] = result.samples()
    if failures:
        env["first_failures"] = failures[:5]
    common.report({"environment": env})

    if traced is None:
        values = result.end_to_end()
        units = common.END_TO_END_UNITS
        attempted, failed = result.attempted, result.failed
    else:
        import layers

        records, traced_result = traced
        tracing.write_records(common.dump_path(args.workload, args.seed), records)
        values = layers.compute(args.workload, records, traced_result, result)
        units = layers.PER_LAYER_UNITS
        traced_failures = [o.detail for o in traced_result.outcomes if not o.ok]
        if traced_failures:
            common.report({"traced_failures": traced_failures[:5]})
        attempted = result.attempted + traced_result.attempted
        failed = result.failed + len(traced_failures)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    common.emit(metrics, correct=failed == 0, attempted=attempted, failed=failed)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.prepare:
        import_program()
        import family

        family.prepare_snapshot(args.workdir)
        return 0
    if args.serve:
        import_program()
        import service

        service.serve(args.workdir, args.trace_server)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
