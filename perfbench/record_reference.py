"""Record the reference answers every benchmark op is compared with.

    python3 perfbench/record_reference.py

Solves the whole request universe of each workload once and writes
``reference.json``.  Re-record only when an answer is meant to change; the
commit that does so must say why.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import family  # noqa: E402
import oneshot  # noqa: E402
import oracle  # noqa: E402
import service  # noqa: E402

RECORDERS = {
    "family_batch": family.record,
    "oneshot_reuse": oneshot.record,
    "service_mix": service.record,
}


def main() -> int:
    reference = {name: record() for name, record in sorted(RECORDERS.items())}
    with open(oracle.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
