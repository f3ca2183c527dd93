# A frozen copy of the CDCL solver from before its hot loops were fused,
# used only as a test oracle: tests/asp/test_solver_trajectory.py checks that
# the live repro.asp.solver.CDCLSolver searches exactly like this one, step
# for step.  Everything below is the old module verbatim; do not edit it.

"""A CDCL (conflict-driven clause learning) SAT solver with linear constraints.

This is the propositional engine underneath the ASP system, playing the role
of *clasp* in the paper.  Features:

* two-watched-literal clause propagation,
* counter-based propagation for linear (cardinality / pseudo-Boolean)
  constraints with non-negative coefficients,
* 1UIP conflict analysis with clause learning,
* VSIDS-style activity heuristic (or a fixed variable order), phase saving,
* Luby or geometric restarts,
* incremental solving: clauses and constraints may be added between calls to
  :meth:`CDCLSolver.solve`, and assumptions are supported (used by the
  optimization driver to guard tentative objective bounds),
* checkpoints: :meth:`CDCLSolver.checkpoint` records the solver state and
  :meth:`CDCLSolver.restore` returns to it, dropping every variable,
  constraint, learnt clause and level-0 assignment added since, so one
  completed base can serve many solves (the solver-state interface of Eén &
  Sörensson, *An Extensible SAT-solver*, SAT 2003).

Literals are integers in DIMACS convention: ``+v`` is variable ``v`` true,
``-v`` is variable ``v`` false.  Variables are numbered from 1.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.asp.errors import SolveError

_UNASSIGNED = -1
_FALSE = 0
_TRUE = 1


def _lit_index(lit: int) -> int:
    """Map a literal to a dense non-negative index (for watch lists)."""
    return (lit << 1) if lit > 0 else ((-lit << 1) | 1)


#: A disjunction of literals, as a plain list: the first two are watched.
#: Propagation reorders it in place; a clause is identified by the list
#: object, not its contents.  (A plain list, not an object wrapping one:
#: completion creates ~100k clauses per solve, and every extra object is
#: one more for the cyclic garbage collector to traverse.)
Clause = List[int]

#: the linear watch list of a literal no constraint watches (most of them):
#: shared, so variables cost no list object until a constraint arrives
_NO_LINEARS: Tuple = ()


class LinearConstraint:
    """A constraint ``sum(coeff_i * [lit_i is true]) >= bound``.

    All coefficients must be positive.  Propagation is counter-based: whenever
    a literal of the constraint becomes false we recompute the remaining slack
    and propagate literals that have become necessary.
    """

    __slots__ = ("lits", "coeffs", "bound")

    def __init__(self, lits: List[int], coeffs: List[int], bound: int):
        self.lits = lits
        self.coeffs = coeffs
        self.bound = bound

    def __repr__(self):
        terms = " + ".join(f"{c}*({l})" for c, l in zip(self.coeffs, self.lits))
        return f"LinearConstraint({terms} >= {self.bound})"


class SolverStatistics:
    """Counters exposed through :meth:`CDCLSolver.statistics`."""

    def __init__(self):
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.max_decision_level = 0
        self.solve_calls = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "max_decision_level": self.max_decision_level,
            "solve_calls": self.solve_calls,
        }


class _Checkpoint:
    """What :meth:`CDCLSolver.restore` needs to return to a checkpoint.

    Propagation reorders watch lists and the literals of long clauses in
    place, so both are saved verbatim: a restored solver is the checkpointed
    one exactly, and searches the same way however it was used since.  (The
    order of a binary clause never matters.)  Restoring copies the saved
    lists into the live ones in place, so a restore creates no objects for
    the garbage collector to track.
    """

    __slots__ = (
        "num_vars", "clauses", "linears", "trail", "queue_head", "watches",
        "long_clauses", "long_lits", "phases", "activity", "heap", "var_inc",
        "ok", "stats",
    )

    def __init__(self, solver: "CDCLSolver"):
        self.num_vars = solver.num_vars
        self.clauses = len(solver.clauses)
        self.linears = len(solver.linears)
        self.trail = len(solver.trail)
        self.queue_head = solver.propagation_queue_head
        self.watches = [list(watch_list) for watch_list in solver.watches]
        self.long_clauses = [clause for clause in solver.clauses if len(clause) > 2]
        self.long_lits = [tuple(clause) for clause in self.long_clauses]
        self.phases = list(solver.saved_phase)
        self.activity = list(solver.activity)
        self.heap = list(solver._order_heap)
        self.var_inc = solver.var_inc
        self.ok = solver.ok
        self.stats = dict(vars(solver.stats))


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while True:
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << k) + 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1


class CDCLSolver:
    """Conflict-driven clause-learning solver with an incremental interface."""

    def __init__(
        self,
        heuristic: str = "vsids",
        default_phase: bool = False,
        restart_strategy: str = "luby",
        restart_base: int = 100,
        var_decay: float = 0.95,
    ):
        self.heuristic = heuristic
        self.default_phase = default_phase
        self.restart_strategy = restart_strategy
        self.restart_base = restart_base
        self.var_decay = var_decay

        self.num_vars = 0
        self.assigns: List[int] = [_UNASSIGNED]  # index 0 unused
        self.levels: List[int] = [0]
        self.reasons: List[Optional[Clause]] = [None]
        self.saved_phase: List[bool] = [default_phase]
        self.activity: List[float] = [0.0]

        self.clauses: List[Clause] = []
        self.learnts: List[Clause] = []
        self.linears: List[LinearConstraint] = []

        # watch lists indexed by _lit_index(l): traversed when l becomes FALSE
        self.watches: List[List[Clause]] = [[], []]
        self.linear_watches: List[Sequence[LinearConstraint]] = [_NO_LINEARS, _NO_LINEARS]

        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.propagation_queue_head = 0

        self.var_inc = 1.0
        self.ok = True  # False once the clause set is unsatisfiable at level 0
        self.stats = SolverStatistics()
        self._model: Optional[List[int]] = None
        self.conflict_budget: Optional[int] = None
        # assumptions involved in the last UNSAT answer (minisat analyzeFinal);
        # empty when the formula is unsatisfiable regardless of assumptions
        self.failed_assumptions: List[int] = []

        # lazy max-activity heap of (-activity, var)
        self._order_heap: List[Tuple[float, int]] = []
        self._checkpoint: Optional[_Checkpoint] = None

    @property
    def settings(self) -> Dict[str, object]:
        """The constructor arguments: two solvers with equal settings search
        the same way from the same state."""
        return {
            "heuristic": self.heuristic,
            "default_phase": self.default_phase,
            "restart_strategy": self.restart_strategy,
            "restart_base": self.restart_base,
            "var_decay": self.var_decay,
        }

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Record the current state (at decision level 0) for :meth:`restore`."""
        self.backtrack(0)
        self._checkpoint = _Checkpoint(self)

    def restore(self) -> None:
        """Return to the last :meth:`checkpoint`.

        Variables, clauses and linear constraints added since are truncated
        and unhooked from the watch lists, learnt clauses are dropped, the
        level-0 assignments made since are undone, and activity, phases, the
        decision heap, ``ok`` and the statistics are reset to the
        checkpoint's.
        """
        cp = self._checkpoint
        if cp is None:
            raise SolveError("restore() without a checkpoint")
        self.backtrack(0)
        for lit in self.trail[cp.trail:]:
            var = abs(lit)
            self.assigns[var] = _UNASSIGNED
            self.reasons[var] = None
        del self.trail[cp.trail:]
        self.propagation_queue_head = cp.queue_head

        for constraint in reversed(self.linears[cp.linears:]):
            for lit in constraint.lits:
                self.linear_watches[_lit_index(lit)].pop()
        del self.linears[cp.linears:]
        del self.clauses[cp.clauses:]
        self.learnts = []
        for clause, lits in zip(cp.long_clauses, cp.long_lits):
            clause[:] = lits

        self.num_vars = cp.num_vars
        size = cp.num_vars + 1
        del self.assigns[size:]
        del self.levels[size:]
        del self.reasons[size:]
        del self.linear_watches[2 * size:]
        del self.watches[2 * size:]
        for watch_list, saved in zip(self.watches, cp.watches):
            watch_list[:] = saved
        self.saved_phase[:] = cp.phases
        self.activity[:] = cp.activity
        self._order_heap[:] = cp.heap
        self.var_inc = cp.var_inc
        self.ok = cp.ok
        vars(self.stats).update(cp.stats)
        self._model = None
        self.failed_assumptions = []

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        self.assigns.append(_UNASSIGNED)
        self.levels.append(0)
        self.reasons.append(None)
        self.saved_phase.append(self.default_phase)
        self.activity.append(0.0)
        self.watches.append([])
        self.watches.append([])
        self.linear_watches.append(_NO_LINEARS)
        self.linear_watches.append(_NO_LINEARS)
        heapq.heappush(self._order_heap, (0.0, self.num_vars))
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause.  Returns False if the solver became UNSAT at level 0."""
        if not self.ok:
            return False
        if self.trail_lim:
            self.backtrack(0)

        # Simplify: remove duplicates and false literals, detect tautologies.
        # (Completion adds ~100k clauses per solve: literal values are read
        # inline rather than through lit_value.)
        assigns = self.assigns
        seen = set()
        simplified: List[int] = []
        for lit in lits:
            value = assigns[lit] if lit > 0 else assigns[-lit]
            if value != _UNASSIGNED:
                if (value == _TRUE) == (lit > 0):
                    return True  # already satisfied at level 0
                continue
            if lit in seen:
                continue
            if -lit in seen:
                return True  # tautology
            seen.add(lit)
            simplified.append(lit)

        if not simplified:
            self.ok = False
            return False
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], None):
                self.ok = False
                return False
            conflict = self.propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True

        self.clauses.append(simplified)
        self._watch_clause(simplified)
        return True

    def add_linear_geq(self, lits: Sequence[int], coeffs: Sequence[int], bound: int) -> bool:
        """Add ``sum(coeff_i * lit_i) >= bound`` (coefficients must be >= 0)."""
        if not self.ok:
            return False
        if self.decision_level() != 0:
            self.backtrack(0)

        filtered_lits: List[int] = []
        filtered_coeffs: List[int] = []
        for lit, coeff in zip(lits, coeffs):
            if coeff < 0:
                raise SolveError("linear constraints require non-negative coefficients")
            if coeff == 0:
                continue
            value = self.lit_value(lit)
            if value == _TRUE:
                bound -= coeff
                continue
            if value == _FALSE:
                continue
            filtered_lits.append(lit)
            filtered_coeffs.append(coeff)

        if bound <= 0:
            return True  # trivially satisfied
        if sum(filtered_coeffs) < bound:
            self.ok = False
            return False

        constraint = LinearConstraint(filtered_lits, filtered_coeffs, bound)
        self.linears.append(constraint)
        linear_watches = self.linear_watches
        for lit in filtered_lits:
            # stored under the literal itself; traversed when that literal
            # becomes false (same convention as clause watch lists)
            index = _lit_index(lit)
            if linear_watches[index] is _NO_LINEARS:
                linear_watches[index] = []
            linear_watches[index].append(constraint)

        # Propagate anything already forced at level 0.
        conflict_clause = self._linear_propagate(constraint)
        if conflict_clause is not None:
            self.ok = False
            return False
        conflict = self.propagate()
        if conflict is not None:
            self.ok = False
            return False
        return True

    def add_at_most(self, lits: Sequence[int], k: int) -> bool:
        """Add ``at most k of lits are true`` as a linear constraint."""
        negated = [-lit for lit in lits]
        return self.add_linear_geq(negated, [1] * len(negated), len(negated) - k)

    def add_at_least(self, lits: Sequence[int], k: int) -> bool:
        """Add ``at least k of lits are true``."""
        return self.add_linear_geq(list(lits), [1] * len(lits), k)

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------

    def decision_level(self) -> int:
        return len(self.trail_lim)

    def var_value(self, var: int) -> int:
        return self.assigns[var]

    def lit_value(self, lit: int) -> int:
        value = self.assigns[abs(lit)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        if lit > 0:
            return value
        return _TRUE if value == _FALSE else _FALSE

    def model_value(self, var: int) -> bool:
        if self._model is None:
            raise SolveError("no model available")
        return self._model[var] == _TRUE

    def model(self) -> List[bool]:
        if self._model is None:
            raise SolveError("no model available")
        return [False] + [self._model[v] == _TRUE for v in range(1, self.num_vars + 1)]

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _watch_clause(self, clause: Clause):
        self.watches[_lit_index(clause[0])].append(clause)
        self.watches[_lit_index(clause[1])].append(clause)

    def _enqueue(self, lit: int, reason: Optional[Clause]) -> bool:
        value = self.lit_value(lit)
        if value == _FALSE:
            return False
        if value == _TRUE:
            return True
        var = abs(lit)
        self.assigns[var] = _TRUE if lit > 0 else _FALSE
        self.levels[var] = self.decision_level()
        self.reasons[var] = reason
        self.trail.append(lit)
        return True

    def propagate(self) -> Optional[Clause]:
        """Propagate all enqueued assignments; return a conflict clause or None."""
        while self.propagation_queue_head < len(self.trail):
            lit = self.trail[self.propagation_queue_head]
            self.propagation_queue_head += 1
            self.stats.propagations += 1

            false_lit = -lit
            conflict = self._propagate_clauses(false_lit)
            if conflict is not None:
                return conflict
            conflict = self._propagate_linears(false_lit)
            if conflict is not None:
                return conflict
        return None

    def _propagate_clauses(self, false_lit: int) -> Optional[Clause]:
        watch_list = self.watches[_lit_index(false_lit)]
        index = 0
        while index < len(watch_list):
            clause = watch_list[index]
            # Ensure the false literal is at position 1.
            if clause[0] == false_lit:
                clause[0], clause[1] = clause[1], clause[0]
            first = clause[0]
            if self.lit_value(first) == _TRUE:
                index += 1
                continue
            # Look for a replacement watch.
            found = False
            for position in range(2, len(clause)):
                if self.lit_value(clause[position]) != _FALSE:
                    clause[1], clause[position] = clause[position], clause[1]
                    watch_list[index] = watch_list[-1]
                    watch_list.pop()
                    self.watches[_lit_index(clause[1])].append(clause)
                    found = True
                    break
            if found:
                continue
            # No replacement: clause is unit or conflicting.
            if not self._enqueue(first, clause):
                return clause
            index += 1
        return None

    def _propagate_linears(self, false_lit: int) -> Optional[Clause]:
        for constraint in self.linear_watches[_lit_index(false_lit)]:
            conflict = self._linear_propagate(constraint)
            if conflict is not None:
                return conflict
        return None

    def _linear_propagate(self, constraint: LinearConstraint) -> Optional[Clause]:
        """Check/propagate one linear constraint.  Returns a conflict clause."""
        max_possible = 0
        false_lits: List[int] = []
        for lit, coeff in zip(constraint.lits, constraint.coeffs):
            if self.lit_value(lit) == _FALSE:
                false_lits.append(lit)
            else:
                max_possible += coeff
        if max_possible < constraint.bound:
            # Conflict: at least one of the falsified literals must be true.
            return list(false_lits)
        slack = max_possible - constraint.bound
        for lit, coeff in zip(constraint.lits, constraint.coeffs):
            if coeff > slack and self.lit_value(lit) == _UNASSIGNED:
                reason = [lit] + false_lits
                if not self._enqueue(lit, reason):
                    return reason
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _bump_var(self, var: int):
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for index in range(1, self.num_vars + 1):
                self.activity[index] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self._order_heap, (-self.activity[var], var))

    def _decay_activities(self):
        self.var_inc /= self.var_decay

    def analyze(self, conflict: Clause) -> Tuple[List[int], int]:
        """1UIP conflict analysis.  Returns (learnt clause, backjump level).

        Precondition: at least one literal of ``conflict`` was assigned at the
        current decision level (the solve loop guarantees this by backtracking
        to the highest level present in the conflict before calling analyze).
        """
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        resolved_lit: Optional[int] = None
        clause = conflict
        index = len(self.trail) - 1
        current_level = self.decision_level()

        while True:
            for q in clause:
                var = abs(q)
                if resolved_lit is not None and var == abs(resolved_lit):
                    continue
                if not seen[var] and self.levels[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self.levels[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)

            # Select the next literal on the trail to resolve on.
            while not seen[abs(self.trail[index])]:
                index -= 1
            resolved_lit = self.trail[index]
            var = abs(resolved_lit)
            seen[var] = False
            index -= 1
            counter -= 1
            if counter <= 0:
                break
            clause = self.reasons[var]

        learnt[0] = -resolved_lit

        # Compute backjump level: highest level among the other literals.
        if len(learnt) == 1:
            backjump = 0
        else:
            max_index = 1
            for position in range(2, len(learnt)):
                if self.levels[abs(learnt[position])] > self.levels[abs(learnt[max_index])]:
                    max_index = position
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            backjump = self.levels[abs(learnt[1])]
        return learnt, backjump

    # ------------------------------------------------------------------
    # Backtracking and decisions
    # ------------------------------------------------------------------

    def backtrack(self, level: int):
        if self.decision_level() <= level:
            return
        limit = self.trail_lim[level]
        for position in range(len(self.trail) - 1, limit - 1, -1):
            lit = self.trail[position]
            var = abs(lit)
            self.saved_phase[var] = lit > 0
            self.assigns[var] = _UNASSIGNED
            self.reasons[var] = None
            heapq.heappush(self._order_heap, (-self.activity[var], var))
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.propagation_queue_head = len(self.trail)

    def _pick_branch_var(self) -> Optional[int]:
        if self.heuristic == "fixed":
            for var in range(1, self.num_vars + 1):
                if self.assigns[var] == _UNASSIGNED:
                    return var
            return None
        while self._order_heap:
            _, var = heapq.heappop(self._order_heap)
            if self.assigns[var] == _UNASSIGNED:
                return var
        # Heap exhausted (stale entries): fall back to a scan.
        for var in range(1, self.num_vars + 1):
            if self.assigns[var] == _UNASSIGNED:
                return var
        return None

    def _decide(self, var: int):
        self.stats.decisions += 1
        self.trail_lim.append(len(self.trail))
        phase = self.saved_phase[var]
        lit = var if phase else -var
        self._enqueue(lit, None)

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> Optional[bool]:
        """Search for a model.

        Returns True (SAT, model available via :meth:`model`), False (UNSAT
        under the given assumptions), or None if the conflict budget was
        exhausted.
        """
        self.stats.solve_calls += 1
        self._model = None
        self.failed_assumptions = []
        if not self.ok:
            return False
        self.backtrack(0)
        conflict = self.propagate()
        if conflict is not None:
            self.ok = False
            return False

        assumptions = list(assumptions)
        restarts = 0
        conflicts_until_restart = self._next_restart_limit(0)
        conflicts_this_call = 0

        while True:
            conflict = self.propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_this_call += 1

                conflict_level = 0
                for lit in conflict:
                    level = self.levels[abs(lit)]
                    if level > conflict_level:
                        conflict_level = level
                if conflict_level == 0:
                    self.ok = False
                    return False
                if conflict_level < self.decision_level():
                    self.backtrack(conflict_level)

                learnt, backjump = self.analyze(conflict)
                self.backtrack(backjump)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        return False
                else:
                    self.learnts.append(learnt)
                    self.stats.learned_clauses += 1
                    self._watch_clause(learnt)
                    self._enqueue(learnt[0], learnt)
                self._decay_activities()

                if self.conflict_budget is not None and conflicts_this_call >= self.conflict_budget:
                    self.backtrack(0)
                    return None
                if conflicts_until_restart is not None:
                    conflicts_until_restart -= 1
                    if conflicts_until_restart <= 0:
                        restarts += 1
                        self.stats.restarts += 1
                        conflicts_until_restart = self._next_restart_limit(restarts)
                        self.backtrack(0)
                continue

            if self.decision_level() > self.stats.max_decision_level:
                self.stats.max_decision_level = self.decision_level()

            # Place assumptions first (one pseudo decision level each).
            if self.decision_level() < len(assumptions):
                assumption = assumptions[self.decision_level()]
                value = self.lit_value(assumption)
                if value == _TRUE:
                    self.trail_lim.append(len(self.trail))
                    continue
                if value == _FALSE:
                    self.failed_assumptions = self._analyze_final(assumption)
                    self.backtrack(0)
                    return False
                self.stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(assumption, None)
                continue

            var = self._pick_branch_var()
            if var is None:
                self._model = list(self.assigns)
                return True
            self._decide(var)

    def _analyze_final(self, failed: int) -> List[int]:
        """The subset of the current assumptions that forced ``failed`` FALSE.

        Called during assumption placement, when every assigned variable
        with a ``None`` reason above level 0 is itself an earlier assumption
        (no branch decisions have been made yet).  Walking the implication
        graph backwards from the failed assumption collects exactly the
        earlier assumptions it depends on — minisat's ``analyzeFinal``.  A
        level-0 falsification means the base formula alone refutes the
        assumption, so the core is the assumption by itself.
        """
        out = [failed]
        var = abs(failed)
        if self.levels[var] == 0:
            return out
        seen = {var}
        for position in range(len(self.trail) - 1, -1, -1):
            if not seen:
                break
            trail_var = abs(self.trail[position])
            if trail_var not in seen:
                continue
            seen.discard(trail_var)
            reason = self.reasons[trail_var]
            if reason is None:
                if trail_var != var:
                    out.append(self.trail[position])
            else:
                for lit in reason:
                    lit_var = abs(lit)
                    if lit_var != trail_var and self.levels[lit_var] > 0:
                        seen.add(lit_var)
        return out

    def _next_restart_limit(self, restarts: int) -> Optional[int]:
        if self.restart_strategy == "none":
            return None
        if self.restart_strategy == "geometric":
            return int(self.restart_base * (1.5 ** restarts))
        return self.restart_base * _luby(restarts + 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        stats = self.stats.as_dict()
        stats.update(
            {
                "variables": self.num_vars,
                "clauses": len(self.clauses),
                "linear_constraints": len(self.linears),
            }
        )
        return stats
