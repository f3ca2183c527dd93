"""Indexed joins vs the naive grounder: an exact-equivalence oracle.

The indexed grounder (ISSUE 8 tentpole) reimplements grounding on interned
symbols, per-predicate argument indexes, and compiled join plans.  Its only
license to exist is being *faster while byte-identical*: for any program the
naive tuple-at-a-time grounder accepts, both engines must derive the same
certain facts, the same possible-atom universe, the same rule/choice/
constraint counts — and therefore the same concretization results.

The naive grounder lives with the tests (``tests/asp/naive.py``); the
oracle runs substitute it for ``repro.asp.control.Grounder``, so the very
same :class:`PreparedProgram` and session code drive both engines.  Two
layers of oracle:

* raw ASP programs chosen to stress join-planner corner cases (negation,
  comparisons binding late, arithmetic, conditionals, recursion through
  choices);
* full concretization sessions (monolithic and sharded catalogs), compared
  element-wise cold and, for the indexed grounder, warm from disk.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.asp.control import PreparedProgram
from repro.asp.grounder import Grounder
from repro.spack.concretize import ConcretizationSession, SessionConfig
from repro.spack.concretize.session import clear_shared_bases

from tests.asp.naive import NaiveGrounder, substituted
from tests.concretize.test_sharded_repo import micro_flat, micro_sharded

BATCH = [
    "example",
    "example+bzip",
    "example~bzip",
    "example@1.0.0",
    "minitool",
    "miniapp",
]

#: programs picked to hit join-planner corner cases, not to look pretty
TRICKY_PROGRAMS = (
    # multi-way join with a shared variable and a constant
    """
    p(1). p(2). p(3). q(2). q(3). r(3).
    a(X) :- p(X), q(X), r(X).
    b(X,Y) :- p(X), q(Y), X != Y.
    """,
    # negation as failure over a derived predicate
    """
    node(1). node(2). node(3). edge(1,2). edge(2,3).
    reach(X) :- node(X), edge(1,X).
    reach(Y) :- reach(X), edge(X,Y).
    isolated(X) :- node(X), not reach(X), X != 1.
    """,
    # comparison that only becomes ground after the second literal binds
    """
    v("1.0"). v("2.0"). w("2.0"). w("3.0").
    both(X) :- v(X), w(X).
    pair(X,Y) :- v(X), w(Y), X < Y.
    """,
    # choice rule feeding a constraint and a minimize statement
    """
    item(1). item(2). item(3).
    { pick(X) : item(X) }.
    :- pick(1), pick(2).
    cost(X,X) :- pick(X).
    #minimize { C@1,X : cost(X,C) }.
    """,
    # conditional literals in a rule body
    """
    p(1). p(2). ok(1). ok(2).
    all_ok :- ok(X) : p(X).
    q :- all_ok.
    """,
    # arithmetic inside comparisons over joined bindings
    """
    n(1). n(2). n(3). n(4).
    pair(X,Y) :- n(X), n(Y), X * 2 > Y, X < Y.
    near(X) :- n(X), n(Y), Y > X + 1.
    """,
)


GROUNDERS = {"indexed": Grounder, "naive": NaiveGrounder}


def with_grounder(strategy: str):
    """A context in which ``PreparedProgram`` grounds with ``strategy``:
    ``"indexed"`` (the production grounder) or ``"naive"`` (the oracle)."""
    if strategy == "naive":
        return substituted()
    return contextlib.nullcontext()


def assert_grounded_by(prepared: PreparedProgram, strategy: str) -> None:
    assert type(prepared._base) is GROUNDERS[strategy]


def ground_signature(text: str, strategy: str):
    """Everything observable about a grounding, as strategy-independent
    strings."""
    with with_grounder(strategy):
        prepared = PreparedProgram(text)
    assert_grounded_by(prepared, strategy)
    program = prepared._base.ground()
    return {
        "certain": sorted(program.format_atom(atom) for atom in program.facts),
        "possible": sorted(
            program.format_atom(atom) for atom in range(1, program.num_atoms + 1)
        ),
        "rules": program.num_rules,
        "choices": len(program.choices),
        "constraints": len(program.constraints),
        "minimize": len(program.minimize_literals),
    }


def solve_signature(text: str, strategy: str):
    with with_grounder(strategy):
        result = PreparedProgram(text).fork().solve()
    if result.model is None:
        return None
    return sorted(map(str, result.model.atoms()))


def session_signatures(repo, batch, strategy="indexed", cache_dir=None):
    clear_shared_bases()
    config = SessionConfig(share_ground_cache=False, cache_dir=cache_dir)
    with with_grounder(strategy):
        session = ConcretizationSession(repo=repo, session_config=config)
        results = session.solve(batch)
    if cache_dir is None:  # a warm run attaches its base instead
        assert_grounded_by(session._last_base.prepared, strategy)
    return [
        (
            str(r.spec),
            sorted(str(s) for s in r.specs.values()),
            {level: cost for level, cost in r.costs.items() if cost},
        )
        for r in results
    ]


# ---------------------------------------------------------------------------
# Raw-program oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index", range(len(TRICKY_PROGRAMS)))
def test_grounding_identical_on_tricky_programs(index):
    text = TRICKY_PROGRAMS[index]
    assert ground_signature(text, "indexed") == ground_signature(text, "naive")


@pytest.mark.parametrize("index", range(len(TRICKY_PROGRAMS)))
def test_solving_identical_on_tricky_programs(index):
    text = TRICKY_PROGRAMS[index]
    assert solve_signature(text, "indexed") == solve_signature(text, "naive")


def test_delta_grounding_identical():
    base = "p(1). p(2). r(X) :- p(X), extra(X)."
    signatures = {}
    for strategy in ("indexed", "naive"):
        with with_grounder(strategy):
            prepared = PreparedProgram(base)
            control = prepared.fork(extra_facts=[("extra", 2)])
            result = control.solve()
        signatures[strategy] = sorted(map(str, result.model.atoms()))
    assert signatures["indexed"] == signatures["naive"]
    assert "('r', 2)" in signatures["indexed"]


# ---------------------------------------------------------------------------
# Session-level oracle: monolithic and sharded, cold and warm
# ---------------------------------------------------------------------------


def test_sessions_identical_monolithic():
    repo = micro_flat()
    indexed = session_signatures(repo, BATCH, "indexed")
    naive = session_signatures(micro_flat(), BATCH, "naive")
    assert indexed == naive


def test_sessions_identical_sharded():
    indexed = session_signatures(micro_sharded(), BATCH, "indexed")
    naive = session_signatures(micro_sharded(), BATCH, "naive")
    assert indexed == naive
    # and sharded == monolithic under the indexed grounder
    assert indexed == session_signatures(micro_flat(), BATCH, "indexed")


def test_warm_replay_identical_across_strategies(tmp_path):
    """Cold solve, then a fresh session over the warm disk cache (solve
    cache and ground snapshot), with the indexed grounder: both runs are
    element-wise identical to a cold solve with the naive oracle."""
    cache_dir = str(tmp_path / "cache")
    cold = session_signatures(micro_flat(), BATCH, cache_dir=cache_dir)
    warm = session_signatures(micro_flat(), BATCH, cache_dir=cache_dir)
    assert cold == warm
    assert cold == session_signatures(micro_flat(), BATCH, "naive")
