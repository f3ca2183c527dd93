"""CDCL solver unit tests (clauses, linear constraints, assumptions)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.errors import SolveError
from repro.asp.solver import CDCLSolver, _luby


def make_solver(n, **kwargs):
    solver = CDCLSolver(**kwargs)
    variables = [solver.new_var() for _ in range(n)]
    return solver, variables


class TestBasics:
    def test_empty_problem_is_sat(self):
        solver = CDCLSolver()
        assert solver.solve() is True

    def test_unit_clause(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([a])
        assert solver.solve() is True
        assert solver.model_value(a) is True

    def test_contradictory_units(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([a])
        assert solver.add_clause([-a]) is False
        assert solver.solve() is False

    def test_empty_clause_is_unsat(self):
        solver, _ = make_solver(1)
        assert solver.add_clause([]) is False

    def test_simple_implication_chain(self):
        solver, (a, b, c) = make_solver(3)
        solver.add_clause([a])
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        assert solver.solve() is True
        assert solver.model_value(c) is True

    def test_three_sat_instance(self):
        solver, (a, b, c) = make_solver(3)
        solver.add_clause([a, b, c])
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        solver.add_clause([-c, -a])
        assert solver.solve() is True
        model = solver.model()
        # verify the model satisfies every clause
        for clause in ([a, b, c], [-a, b], [-b, c], [-c, -a]):
            assert any(model[abs(l)] == (l > 0) for l in clause)

    def test_pigeonhole_unsat(self):
        # 3 pigeons, 2 holes: variables p[i][j] = pigeon i in hole j
        solver = CDCLSolver()
        p = [[solver.new_var() for _ in range(2)] for _ in range(3)]
        for i in range(3):
            solver.add_clause([p[i][0], p[i][1]])
        for j in range(2):
            for i1, i2 in itertools.combinations(range(3), 2):
                solver.add_clause([-p[i1][j], -p[i2][j]])
        assert solver.solve() is False

    def test_tautology_is_ignored(self):
        solver, (a,) = make_solver(1)
        assert solver.add_clause([a, -a]) is True
        assert solver.solve() is True

    def test_duplicate_literals_are_deduplicated(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([a, a, b, b])
        assert solver.solve() is True


class TestIncremental:
    def test_clauses_added_between_solves(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([a, b])
        assert solver.solve() is True
        solver.add_clause([-a])
        assert solver.solve() is True
        assert solver.model_value(b) is True
        solver.add_clause([-b])
        assert solver.solve() is False

    def test_statistics_accumulate(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([a, b])
        solver.solve()
        solver.solve()
        assert solver.statistics()["solve_calls"] == 2


class TestAssumptions:
    def test_sat_under_assumption(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([-a, b])
        assert solver.solve([a]) is True
        assert solver.model_value(b) is True

    def test_unsat_under_assumption_but_sat_without(self):
        solver, (a, b) = make_solver(2)
        solver.add_clause([-a, b])
        solver.add_clause([-b])
        assert solver.solve([a]) is False
        assert solver.solve() is True
        assert solver.ok

    def test_conflicting_assumptions(self):
        solver, (a,) = make_solver(1)
        assert solver.solve([a, -a]) is False
        assert solver.solve() is True

    def test_many_assumptions(self):
        solver, variables = make_solver(20)
        for v1, v2 in zip(variables, variables[1:]):
            solver.add_clause([-v1, v2])
        assert solver.solve([variables[0]]) is True
        assert all(solver.model_value(v) for v in variables)


class TestLinearConstraints:
    def test_at_least_k(self):
        solver, variables = make_solver(4)
        solver.add_at_least(variables, 3)
        assert solver.solve() is True
        assert sum(solver.model_value(v) for v in variables) >= 3

    def test_at_most_k(self):
        solver, variables = make_solver(4)
        solver.add_at_most(variables, 1)
        solver.add_clause([variables[0]])
        assert solver.solve() is True
        assert sum(solver.model_value(v) for v in variables) <= 1

    def test_exactly_one(self):
        solver, variables = make_solver(5)
        solver.add_at_least(variables, 1)
        solver.add_at_most(variables, 1)
        assert solver.solve() is True
        assert sum(solver.model_value(v) for v in variables) == 1

    def test_infeasible_bound(self):
        solver, variables = make_solver(3)
        assert solver.add_at_least(variables, 4) is False

    def test_weighted_constraint(self):
        solver, (a, b, c) = make_solver(3)
        # 3a + 2b + 1c >= 3 and not a  =>  b and c must both be true
        solver.add_linear_geq([a, b, c], [3, 2, 1], 3)
        solver.add_clause([-a])
        assert solver.solve() is True
        assert solver.model_value(b) and solver.model_value(c)

    def test_weighted_constraint_infeasible_after_assignment(self):
        solver, (a, b, c) = make_solver(3)
        # 3a + 2b + 1c >= 4 and not a leaves at most 3: unsatisfiable
        solver.add_linear_geq([a, b, c], [3, 2, 1], 4)
        solver.add_clause([-a])
        assert solver.solve() is False

    def test_linear_conflict_is_learned(self):
        solver, variables = make_solver(6)
        solver.add_at_least(variables[:3], 2)
        solver.add_at_most(variables, 3)
        solver.add_clause([variables[3], variables[4], variables[5]])
        assert solver.solve() is True
        assert sum(solver.model_value(v) for v in variables) <= 3
        assert sum(solver.model_value(v) for v in variables[:3]) >= 2
        assert any(solver.model_value(v) for v in variables[3:])

    def test_negative_coefficient_rejected(self):
        solver, (a,) = make_solver(1)
        with pytest.raises(Exception):
            solver.add_linear_geq([a], [-1], 0)


class TestHeuristicsAndRestarts:
    @pytest.mark.parametrize("heuristic", ["vsids", "fixed"])
    @pytest.mark.parametrize("restart", ["luby", "geometric", "none"])
    def test_all_configurations_agree(self, heuristic, restart):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]]
        solver = CDCLSolver(heuristic=heuristic, restart_strategy=restart)
        for _ in range(3):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(list(clause))
        assert solver.solve() is True

    def test_default_phase_true(self):
        solver = CDCLSolver(default_phase=True)
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve() is True


class TestLuby:
    def test_luby_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


# ---------------------------------------------------------------------------
# Checkpoint / restore (hypothesis)
# ---------------------------------------------------------------------------


def _literal(num_vars):
    return st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))


def _clauses(num_vars, min_len, min_size, max_size):
    return st.lists(
        st.lists(_literal(num_vars), min_size=min_len, max_size=3, unique_by=abs),
        min_size=min_size,
        max_size=max_size,
    )


def _linears(num_vars, max_size):
    def constraint(lits):
        return st.tuples(
            st.just(lits),
            st.lists(st.integers(1, 3), min_size=len(lits), max_size=len(lits)),
        ).flatmap(
            lambda pair: st.tuples(
                st.just(pair[0]), st.just(pair[1]), st.integers(1, sum(pair[1]))
            )
        )

    lits = st.lists(_literal(num_vars), min_size=1, max_size=4, unique_by=abs)
    return st.lists(lits.flatmap(constraint), max_size=max_size)


@st.composite
def checkpoint_scenarios(draw):
    # near the 3-SAT threshold, so searches conflict, learn and restart
    base_vars = draw(st.integers(5, 10))
    all_vars = base_vars + draw(st.integers(0, 3))
    return {
        "base_vars": base_vars,
        "base_clauses": draw(_clauses(base_vars, 3, 3 * base_vars, 5 * base_vars)),
        "base_linears": draw(_linears(base_vars, 3)),
        "new_vars": all_vars - base_vars,
        "clauses": draw(_clauses(all_vars, 1, 0, 12)),
        "linears": draw(_linears(all_vars, 3)),
        "assumptions": draw(
            st.lists(_literal(all_vars), max_size=3, unique_by=abs)
        ),
    }


def _build_base(scenario):
    solver = CDCLSolver(restart_base=2)
    for _ in range(scenario["base_vars"]):
        solver.new_var()
    for clause in scenario["base_clauses"]:
        solver.add_clause(clause)
    for lits, coeffs, bound in scenario["base_linears"]:
        solver.add_linear_geq(lits, coeffs, bound)
    return solver


def _extend_and_solve(solver, scenario):
    for _ in range(scenario["new_vars"]):
        solver.new_var()
    for clause in scenario["clauses"]:
        solver.add_clause(clause)
    for lits, coeffs, bound in scenario["linears"]:
        solver.add_linear_geq(lits, coeffs, bound)
    outcomes = [solver.solve(scenario["assumptions"]), solver.solve()]
    return outcomes, (solver.model() if outcomes[-1] else None), solver.statistics()


def _state(solver):
    """Everything restore() promises to bring back, by object identity."""
    return {
        "num_vars": solver.num_vars,
        "clauses": [id(clause) for clause in solver.clauses],
        # restore() brings back the order of long clauses, which guides the
        # search for replacement watches; binary clauses are order-free
        "clause_lits": [
            tuple(clause) if len(clause) > 2 else frozenset(clause) for clause in solver.clauses
        ],
        "learnts": len(solver.learnts),
        "linears": [id(constraint) for constraint in solver.linears],
        "watches": [[id(clause) for clause in watch] for watch in solver.watches],
        "linear_watches": [[id(c) for c in watch] for watch in solver.linear_watches],
        "trail": list(solver.trail),
        "assigns": list(solver.assigns),
        "activity": list(solver.activity),
        "phases": list(solver.saved_phase),
        "heap": sorted(solver._order_heap),
        "ok": solver.ok,
        "stats": solver.statistics(),
    }


def _satisfies(model, scenario, extended):
    clauses = list(scenario["base_clauses"])
    linears = list(scenario["base_linears"])
    if extended:
        clauses += scenario["clauses"]
        linears += scenario["linears"]
    return all(any(model[abs(l)] == (l > 0) for l in clause) for clause in clauses) and all(
        sum(c for l, c in zip(lits, coeffs) if model[abs(l)] == (l > 0)) >= bound
        for lits, coeffs, bound in linears
    )


class TestCheckpoint:
    @settings(max_examples=150, deadline=None)
    @given(checkpoint_scenarios())
    def test_restore_returns_to_the_checkpoint(self, scenario):
        solver = _build_base(scenario)
        solver.checkpoint()
        before = _state(solver)

        first = _extend_and_solve(solver, scenario)
        solver.restore()
        assert _state(solver) == before

        # the restored solver is the checkpointed one exactly: a fresh build
        # answers the same, with the same model and the same search
        fresh = _build_base(scenario)
        outcome = solver.solve()
        assert outcome == fresh.solve()
        if outcome:
            assert solver.model() == fresh.model()
            assert _satisfies(solver.model(), scenario, extended=False)
        assert solver.statistics() == fresh.statistics()

        solver.restore()
        again = _extend_and_solve(solver, scenario)
        assert again == first == _extend_and_solve(_build_base(scenario), scenario)
        if again[1] is not None:
            assert _satisfies(again[1], scenario, extended=True)

    def test_restore_after_level_zero_unsat(self):
        solver, (a, b, c) = make_solver(3)
        solver.add_clause([a, b])
        solver.add_clause([-a, c])
        solver.checkpoint()
        before = _state(solver)

        solver.add_clause([-b])
        assert solver.add_clause([-c]) is False
        assert solver.ok is False
        assert solver.solve() is False

        solver.restore()
        assert _state(solver) == before
        assert solver.ok is True
        assert solver.solve() is True

    def test_checkpoint_of_an_unsat_solver_stays_unsat(self):
        solver, (a,) = make_solver(1)
        solver.add_clause([a])
        solver.add_clause([-a])
        solver.checkpoint()
        solver.new_var()
        solver.restore()
        assert solver.ok is False and solver.num_vars == 1
        assert solver.solve() is False

    def test_restore_without_checkpoint_fails(self):
        with pytest.raises(SolveError):
            CDCLSolver().restore()
