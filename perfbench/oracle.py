"""Correctness checks that share no code with the solver.

Every op is judged three ways where they apply:

* the answer is concrete and satisfies the request;
* every reused node names a hash that is in the store;
* an unsat answer names exactly the planted conflict core.

On top of that, each answer's signature and cost vector are compared with
reference values recorded at the commit that defined the benchmark
(``reference.json``), so a later change that alters an answer shows up as
failed ops.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, Optional

from common import BENCH_DIR

REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")


def load_reference() -> Dict[str, object]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def signature(result) -> str:
    """Digest of everything that must match for two answers to be equal."""
    payload = (
        str(result.spec),
        sorted(str(s) for s in result.specs.values()),
        sorted(result.built),
        sorted(result.reused),
    )
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:24]


def costs(result) -> list:
    return [[level, cost] for level, cost in sorted(result.costs.items()) if cost]


def check_result(result, request, store=None) -> Optional[str]:
    """None when ``result`` is a valid answer to ``request``, else why not."""
    if not all(node.concrete for node in result.specs.values()):
        return "answer has abstract nodes"
    if not result.spec.satisfies(request):
        return f"answer {result.spec} does not satisfy {request}"
    for name in result.reused:
        digest = result.specs[name].installed_hash
        if store is None or digest not in store:
            return f"reused {name} names hash {digest} that is not installed"
    return None


def check_served(answer: str, request: str, repo) -> Optional[str]:
    """None when ``answer``, the root node a service returned as text, is
    concrete and satisfies ``request``, else why not."""
    from repro.spack.spec_parser import parse_spec

    node = parse_spec(answer)
    unset = [
        field for field, value in (
            ("version", node.versions.concrete),
            ("compiler", node.compiler),
            ("compiler version", node.compiler_versions.concrete),
            ("os", node.os),
            ("target", node.target),
        ) if value is None
    ]
    unset += [f"variant {name}" for name in sorted(repo.get(node.name).variants)
              if name not in node.variants]
    if unset:
        return f"answer {answer} leaves {', '.join(unset)} open"
    if not node.satisfies(parse_spec(request)):
        return f"answer {answer} does not satisfy {request}"
    return None


def check_reference(result, expected: Optional[Dict[str, object]]) -> Optional[str]:
    if expected is None:
        return "no reference answer recorded for this request"
    if signature(result) != expected["signature"]:
        return "answer differs from the recorded reference"
    if costs(result) != expected["costs"]:
        return f"cost vector {costs(result)} differs from {expected['costs']}"
    return None


def check_core(explanation: Iterable[str], planted: Iterable[str]) -> Optional[str]:
    got, want = sorted(explanation), sorted(planted)
    if got != want:
        return f"conflict core {got} is not the planted core {want}"
    return None
