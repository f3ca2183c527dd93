"""The fused CDCL solver searches exactly like the one it replaced.

``tests/asp/reference_solver.py`` is a frozen copy of the solver before its
hot loops were fused.  Both solvers are driven through the same random
script (CNF batches, linear constraints, new variables, solves under
assumptions and conflict budgets, checkpoint/restore) and must agree after
every step: answers, models, failed assumptions, the trail with its reasons,
clause and learnt-clause literal order, watch lists, activities and phases,
the decision heap's entries and the statistics.
"""

from __future__ import annotations

import random
import struct

from hypothesis import given, settings, strategies as st

from repro.asp.solver import CDCLSolver
from tests.asp import reference_solver

SETTINGS = st.fixed_dictionaries(
    {
        "heuristic": st.sampled_from(["vsids", "vsids", "fixed"]),
        "default_phase": st.booleans(),
        "restart_strategy": st.sampled_from(["luby", "geometric", "none"]),
        "restart_base": st.integers(min_value=1, max_value=4),
        "var_decay": st.sampled_from([0.8, 0.95]),
    }
)

STEPS = (
    ["cnf"] * 4 + ["clause"] * 2 + ["linear"] * 2 + ["solve"] * 4
    + ["vars", "checkpoint", "restore", "budget", "boost"]
)


def heap_entries(solver):
    """The decision heap as sorted ``(-activity, var)`` tuples, whichever
    way the solver encodes its entries."""
    entries = []
    for entry in solver._order_heap:
        if isinstance(entry, int):
            var = entry & ((1 << 32) - 1)
            bits = (var - entry) >> 32
            activity = struct.unpack("<d", struct.pack("<q", bits))[0]
            entry = (-activity, var)
        entries.append(entry)
    return sorted(entries)


def state(solver):
    """Everything the search depends on or reports."""
    return {
        "num_vars": solver.num_vars,
        "ok": solver.ok,
        "trail": list(solver.trail),
        "trail_lim": list(solver.trail_lim),
        "queue_head": solver.propagation_queue_head,
        "reasons": [solver.reasons[abs(lit)] for lit in solver.trail],
        "assigns": list(solver.assigns),
        "levels": [solver.levels[abs(lit)] for lit in solver.trail],
        "clauses": [list(clause) for clause in solver.clauses],
        "learnts": [list(clause) for clause in solver.learnts],
        "linears": [
            (list(c.lits), list(c.coeffs), c.bound) for c in solver.linears
        ],
        "watches": [[list(clause) for clause in watch] for watch in solver.watches],
        "linear_watches": [
            [solver.linears.index(c) for c in watch] for watch in solver.linear_watches
        ],
        "activity": list(solver.activity),
        "var_inc": solver.var_inc,
        "phases": list(solver.saved_phase),
        "heap": heap_entries(solver),
        "failed_assumptions": list(solver.failed_assumptions),
        "statistics": solver.statistics(),
    }


def literal(num_vars):
    return st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda var: st.sampled_from([var, -var])
    )


def apply(step, solver, args):
    """Run one script step on one solver; returns what the step answers."""
    if step == "vars":
        return [solver.new_var() for _ in range(args)]
    if step in ("cnf", "clause"):
        return [solver.add_clause(list(clause)) for clause in args]
    if step == "linear":
        lits, coeffs, bound = args
        return solver.add_linear_geq(lits, coeffs, bound)
    if step == "solve":
        outcome = solver.solve(args)
        return outcome, (solver.model() if outcome else None)
    if step == "checkpoint":
        return solver.checkpoint()
    if step == "restore":
        return solver.restore()
    if step == "budget":
        solver.conflict_budget = args
        return None
    if step == "boost":
        # close to the rescale threshold: the next bumps rescale activities
        solver.var_inc = args
        return None
    raise AssertionError(step)


def draw_args(data, step, num_vars):
    if step == "vars":
        return data.draw(st.integers(min_value=1, max_value=4))
    if step == "cnf":
        # random 3-SAT around the satisfiability threshold: conflicts,
        # learnt clauses and restarts, not just propagation
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
        count = data.draw(st.integers(min_value=1, max_value=5 * num_vars))
        return [
            [var if rng.random() < 0.5 else -var for var in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(count)
        ]
    if step == "clause":
        return data.draw(st.lists(st.lists(literal(num_vars), max_size=6), max_size=2))
    if step == "linear":
        lits = data.draw(st.lists(literal(num_vars), min_size=1, max_size=6))
        coeffs = data.draw(
            st.lists(st.integers(0, 4), min_size=len(lits), max_size=len(lits))
        )
        bound = data.draw(st.integers(min_value=0, max_value=sum(coeffs) + 1))
        return lits, coeffs, bound
    if step == "solve":
        return data.draw(st.lists(literal(num_vars), max_size=4))
    if step == "budget":
        return data.draw(st.none() | st.integers(min_value=1, max_value=5))
    if step == "boost":
        return data.draw(st.sampled_from([0.9e100, 0.99e100, 2e100]))
    return None


@settings(max_examples=300, deadline=None)
@given(SETTINGS, st.integers(min_value=3, max_value=20), st.data())
def test_random_scripts_follow_the_reference_trajectory(config, num_vars, data):
    fused = CDCLSolver(**config)
    reference = reference_solver.CDCLSolver(**config)
    for solver in (fused, reference):
        for _ in range(num_vars):
            solver.new_var()
    checkpointed = False
    for _ in range(data.draw(st.integers(min_value=1, max_value=14))):
        step = data.draw(st.sampled_from(STEPS))
        if step == "restore" and not checkpointed:
            step = "checkpoint"
        checkpointed = checkpointed or step == "checkpoint"
        args = draw_args(data, step, fused.num_vars)
        assert apply(step, fused, args) == apply(step, reference, args), step
        assert state(fused) == state(reference), step


def pigeonhole(solver, pigeons, holes):
    """Each pigeon in a hole, no two in one: many conflicts, unsatisfiable
    when pigeons > holes."""
    var = {(p, h): solver.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        solver.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                solver.add_clause([-var[p, h], -var[q, h]])


def test_activity_rescale_follows_the_reference_trajectory():
    """Activities that overflow 1e100 are rescaled; afterwards the heap
    still holds entries of the old scale, which now pop first."""
    solvers = [CDCLSolver(restart_base=3), reference_solver.CDCLSolver(restart_base=3)]
    rng = random.Random(13)
    extra = [[rng.choice([v, -v]) for v in rng.sample(range(1, 26), 3)] for _ in range(40)]
    for solver in solvers:
        pigeonhole(solver, 6, 5)
        solver.var_inc = 0.99e100
    assert [solver.solve() for solver in solvers] == [False, False]
    assert state(solvers[0]) == state(solvers[1])
    assert solvers[0].stats.conflicts > 10
    assert solvers[0].var_inc < 1e90  # rescaled at least once

    # satisfiable, with old-scale heap entries left over from the rescale
    solvers = [CDCLSolver(restart_base=2), reference_solver.CDCLSolver(restart_base=2)]
    for solver in solvers:
        pigeonhole(solver, 5, 5)
        for clause in extra:
            solver.add_clause(clause)
        solver.var_inc = 0.9e100
    for assumptions in ([1, 7], [-1], [], [13, -19, 25]):
        outcomes = [solver.solve(assumptions) for solver in solvers]
        assert outcomes[0] == outcomes[1]
        if outcomes[0]:
            assert solvers[0].model() == solvers[1].model()
        assert state(solvers[0]) == state(solvers[1])
    assert solvers[0].var_inc < 1e90
