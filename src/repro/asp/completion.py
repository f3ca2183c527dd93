"""Clark completion: translate a :class:`GroundProgram` into a CDCL instance.

Every ground atom becomes a solver variable.  Every rule body gets a *body
literal* (an auxiliary variable for bodies with more than one literal) so the
completion ("an atom is true only if one of its supporting bodies is true")
can be expressed compactly and so that the unfounded-set checker and the
optimization driver can refer to rule bodies directly.

Choice rules contribute *support* for their candidate atoms without forcing
them, plus cardinality constraints for their bounds, exactly mirroring the
semantics used by the paper's encoding (e.g. "pick exactly one version per
node", "pick at most one installed hash per package").

Completion runs in two parts, following the base/delta split of Gebser,
Kaminski, Kaufmann & Schaub, *Multi-shot ASP solving with clingo* (TPLP
2019).  The *base* part encodes the facts, rules, choices, constraints and
objectives of a base program; the *delta* part encodes what a program
extending that base added, then every atom's completion clause (a delta
rule may add support to a base atom, so no completion clause is final
before the delta is known).  A :class:`SolverTemplate` runs the base part
once into a checkpointed solver and then, per solve, restores the
checkpoint and runs only the delta part.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.asp.errors import SolveError
from repro.asp.ground import GroundMinimizeLiteral, GroundProgram
from repro.asp.solver import CDCLSolver


@dataclass(frozen=True)
class Support:
    """One way an atom can be derived: a body literal plus the body's positive
    atoms (needed by the unfounded-set check to identify external support)."""

    body_literal: int
    positive_atoms: Tuple[int, ...]


@dataclass
class ObjectiveTerm:
    """A weighted solver literal contributing to one optimization level."""

    weight: int
    variable: int
    key: Tuple = ()


@dataclass
class CompletedProgram:
    """The result of completion: a solver plus the mappings around it."""

    solver: CDCLSolver
    ground_program: GroundProgram
    atom_to_var: Dict[int, int] = field(default_factory=dict)
    var_to_atom: Dict[int, int] = field(default_factory=dict)
    supports: Dict[int, List[Support]] = field(default_factory=dict)
    fact_atoms: Set[int] = field(default_factory=set)
    objectives: Dict[int, List[ObjectiveTerm]] = field(default_factory=dict)
    objective_bases: Dict[int, int] = field(default_factory=dict)
    true_literal: int = 0
    #: suspect-group index -> selector variable, for retractable facts: the
    #: fact atoms of a group hold iff their selector is assumed true, so an
    #: unsat core over selector assumptions names the guilty fact groups
    selectors: Dict[int, int] = field(default_factory=dict)
    #: the template whose solver this program borrows; :meth:`release`
    #: hands it back once the solve is done with the solver
    template: Optional["SolverTemplate"] = None

    def variable(self, atom_id: int) -> int:
        return self.atom_to_var[atom_id]

    def release(self) -> None:
        """Return a borrowed template solver (a no-op otherwise).

        The solver must not be used afterwards: the template's next
        checkout restores it to the completed base.
        """
        template, self.template = self.template, None
        if template is not None:
            template.release()

    def true_atoms(self) -> Set[int]:
        """Atoms true in the solver's current model."""
        model = self.solver.model_values()
        return {atom_id for atom_id, var in self.atom_to_var.items() if model[var]}

    def level_cost(self, priority: int) -> int:
        """Cost of the current model at one priority level."""
        model = self.solver.model_values()
        return self.objective_bases.get(priority, 0) + sum(
            term.weight for term in self.objectives.get(priority, ()) if model[term.variable]
        )

    def cost_vector(self) -> Dict[int, int]:
        """Costs of the current model at every priority level (descending)."""
        priorities = sorted(
            set(self.objectives) | set(self.objective_bases), reverse=True
        )
        return {priority: self.level_cost(priority) for priority in priorities}


@dataclass(frozen=True)
class _ObjectiveKey:
    """How one ``#minimize`` key was encoded, so a delta can extend it."""

    conditions: Tuple[int, ...]
    #: None once the key is unconditional (its weight is in the level base)
    term: Optional[ObjectiveTerm]


def extends(base: Optional[GroundProgram], program: GroundProgram) -> bool:
    """True if ``program`` only adds to ``base`` (a fork of it, grounded on).

    Forks copy the base and append to it, except that a delta layer may
    upgrade a base choice in place (see :class:`repro.asp.grounder.Grounder`);
    such a program cannot reuse a completion of the base.
    """
    return base is not None and (
        len(program.atoms) >= len(base.atoms)
        and len(program.rules) >= len(base.rules)
        and len(program.choices) >= len(base.choices)
        and len(program.constraints) >= len(base.constraints)
        and len(program.minimize_literals) >= len(base.minimize_literals)
        and all(map(operator.is_, base.choices, program.choices))
    )


class CompletionBuilder:
    """Completes a base :class:`GroundProgram` and then programs extending it.

    :meth:`complete_base` encodes the base program;
    :meth:`complete_delta` encodes what a program extending it added, plus
    the completion clauses, and returns the :class:`CompletedProgram`.
    :meth:`build` runs both parts on one program.
    """

    def __init__(
        self,
        base: GroundProgram,
        solver: Optional[CDCLSolver] = None,
        retractable: Optional[Dict[int, int]] = None,
    ):
        self.base = base
        self.solver = solver or CDCLSolver()
        self.completed = CompletedProgram(solver=self.solver, ground_program=base)
        self._body_cache: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
        # fact atom id -> suspect-group index; these facts are guarded by a
        # per-group selector instead of being asserted unconditionally
        self._retractable: Dict[int, int] = dict(retractable or {})
        self._objective_keys: Dict[Tuple, _ObjectiveKey] = {}
        #: support lists owned by the builder this one was forked from;
        #: extended by copying, never in place
        self._shared_supports: Dict[int, List[Support]] = {}

    def fork(self) -> "CompletionBuilder":
        """A builder continuing from this one's state, on the same solver
        (which must be back at the end of this builder's encoding, as a
        restored template solver is); whatever the fork completes leaves
        this builder unchanged."""
        other = CompletionBuilder.__new__(CompletionBuilder)
        other.base = self.base
        other.solver = self.solver
        done = self.completed
        other.completed = CompletedProgram(
            solver=self.solver,
            ground_program=self.base,
            atom_to_var=dict(done.atom_to_var),
            var_to_atom=dict(done.var_to_atom),
            supports=dict(done.supports),
            fact_atoms=set(done.fact_atoms),
            objectives={p: list(terms) for p, terms in done.objectives.items()},
            objective_bases=dict(done.objective_bases),
            true_literal=done.true_literal,
            selectors=dict(done.selectors),
        )
        other._body_cache = dict(self._body_cache)
        other._retractable = self._retractable
        other._objective_keys = dict(self._objective_keys)
        other._shared_supports = done.supports
        return other

    # -- low-level helpers --------------------------------------------------

    def _atom_var(self, atom_id: int) -> int:
        var = self.completed.atom_to_var.get(atom_id)
        if var is None:
            var = self.solver.new_var()
            self.completed.atom_to_var[atom_id] = var
            self.completed.var_to_atom[var] = atom_id
        return var

    def _body_literals(self, pos: Sequence[int], neg: Sequence[int]) -> List[int]:
        literals = [self._atom_var(a) for a in pos]
        literals += [-self._atom_var(a) for a in neg]
        return literals

    def _body_literal(self, pos: Sequence[int], neg: Sequence[int]) -> int:
        """Return a literal equivalent to the conjunction of the body."""
        literals = self._body_literals(pos, neg)
        if not literals:
            return self.completed.true_literal
        if len(literals) == 1:
            return literals[0]
        key = (tuple(sorted(pos)), tuple(sorted(neg)))
        cached = self._body_cache.get(key)
        if cached is not None:
            return cached
        aux = self.solver.new_var()
        for literal in literals:
            self.solver.add_clause([-aux, literal])
        self.solver.add_clause([aux] + [-literal for literal in literals])
        self._body_cache[key] = aux
        return aux

    def _add_support(self, atom_id: int, support: Support):
        supports = self.completed.supports
        existing = supports.get(atom_id)
        if existing is None:
            supports[atom_id] = [support]
        elif existing is self._shared_supports.get(atom_id):
            supports[atom_id] = existing + [support]
        else:
            existing.append(support)

    # -- the two parts ----------------------------------------------------------

    def build(self, program: GroundProgram) -> CompletedProgram:
        """Both parts back to back: the base, then what ``program`` adds."""
        self.complete_base()
        return self.complete_delta(program)

    def complete_base(self) -> None:
        base = self.base
        self._create_true_constant()
        self._intern_atoms(base, 1)
        self._add_retractable_support()
        self._add_facts(base.facts)
        self._add_normal_rules(base.rules)
        self._add_choice_rules(base.choices)
        self._add_constraints(base.constraints)
        self._add_objectives(base.minimize_literals)

    def complete_delta(self, program: GroundProgram) -> CompletedProgram:
        """Encode what ``program`` adds to the base (see :func:`extends`),
        then the completion clauses of all its atoms."""
        base = self.base
        self.completed.ground_program = program
        self._intern_atoms(program, len(base.atoms) + 1)
        self._add_facts([atom_id for atom_id in program.facts if atom_id not in base.facts])
        self._add_normal_rules(program.rules[len(base.rules):])
        self._add_choice_rules(program.choices[len(base.choices):])
        self._add_constraints(program.constraints[len(base.constraints):])
        self._add_objectives(program.minimize_literals[len(base.minimize_literals):])
        self._add_completion_clauses(program)
        return self.completed

    # -- build steps ------------------------------------------------------------

    def _create_true_constant(self):
        true_var = self.solver.new_var()
        self.solver.add_clause([true_var])
        self.completed.true_literal = true_var

    def _intern_atoms(self, program: GroundProgram, first: int):
        for atom_id in range(first, len(program.atoms) + 1):
            self._atom_var(atom_id)

    def _add_facts(self, facts: Iterable[int]):
        for atom_id in facts:
            if atom_id in self._retractable:
                continue  # guarded by a selector, not asserted unconditionally
            self.completed.fact_atoms.add(atom_id)
            self.solver.add_clause([self._atom_var(atom_id)])

    def _add_retractable_support(self):
        """Selector-guarded support for retractable atoms.

        A retractable atom is true iff its group's selector is (assumed)
        true; the selector acts as external support so the unfounded-set
        check treats the atom like any derived one.
        """
        for atom_id, group in sorted(self._retractable.items()):
            selector = self.completed.selectors.get(group)
            if selector is None:
                selector = self.solver.new_var()
                self.completed.selectors[group] = selector
            self.solver.add_clause([-selector, self._atom_var(atom_id)])
            self._add_support(atom_id, Support(selector, ()))

    def _add_normal_rules(self, rules):
        for rule in rules:
            head_var = self._atom_var(rule.head)
            body_literal = self._body_literal(rule.pos, rule.neg)
            self.solver.add_clause([-body_literal, head_var])
            self._add_support(rule.head, Support(body_literal, tuple(rule.pos)))

    def _add_choice_rules(self, choices):
        for choice in choices:
            body_literal = self._body_literal(choice.pos, choice.neg)
            candidates: List[int] = []
            seen: Set[int] = set()
            for atom_id in choice.atoms:
                if atom_id in seen:
                    continue
                seen.add(atom_id)
                candidates.append(atom_id)
                self._add_support(atom_id, Support(body_literal, tuple(choice.pos)))
            candidate_vars = [self._atom_var(a) for a in candidates]
            count = len(candidate_vars)

            lower = choice.lower
            upper = choice.upper
            if lower is not None and lower > 0:
                if lower > count:
                    # Body must never hold: the bound is unreachable.
                    self.solver.add_clause([-body_literal])
                else:
                    self.solver.add_linear_geq(
                        candidate_vars + [-body_literal],
                        [1] * count + [lower],
                        lower,
                    )
            if upper is not None and upper < count:
                slack_needed = count - upper
                self.solver.add_linear_geq(
                    [-v for v in candidate_vars] + [-body_literal],
                    [1] * count + [slack_needed],
                    slack_needed,
                )

    def _add_constraints(self, constraints):
        for constraint in constraints:
            clause = [-self._atom_var(a) for a in constraint.pos]
            clause += [self._atom_var(a) for a in constraint.neg]
            self.solver.add_clause(clause)

    def _add_completion_clauses(self, program: GroundProgram):
        fact_atoms = self.completed.fact_atoms
        supports = self.completed.supports
        for atom_id in range(1, len(program.atoms) + 1):
            if atom_id in fact_atoms:
                continue
            atom_var = self._atom_var(atom_id)
            atom_supports = supports.get(atom_id)
            if not atom_supports:
                self.solver.add_clause([-atom_var])
                continue
            clause = [-atom_var] + [s.body_literal for s in atom_supports]
            self.solver.add_clause(clause)

    def _add_objectives(self, minimize_literals: Sequence[GroundMinimizeLiteral]):
        grouped: Dict[Tuple, List[GroundMinimizeLiteral]] = {}
        for literal in minimize_literals:
            grouped.setdefault(literal.key, []).append(literal)

        objectives = self.completed.objectives
        for key, elements in grouped.items():
            priority = elements[0].priority
            weight = elements[0].weight
            if weight < 0:
                raise SolveError("negative minimize weights are not supported")
            if weight == 0:
                continue

            encoded = self._objective_keys.get(key)
            if encoded is not None and encoded.term is None:
                continue  # already counted unconditionally
            unconditional = any(not e.pos and not e.neg for e in elements)
            if unconditional:
                base = self.completed.objective_bases.get(priority, 0)
                self.completed.objective_bases[priority] = base + weight
                if encoded is not None:
                    objectives[priority].remove(encoded.term)
                self._objective_keys[key] = _ObjectiveKey((), None)
                continue

            # One objective variable per unique key; it is true iff at least
            # one of the element conditions holds.  A key the delta extends
            # gets a fresh variable over all its conditions: the base's
            # variable stays defined over the base conditions only, unused.
            objective_var = self.solver.new_var()
            condition_literals = list(encoded.conditions) if encoded else []
            condition_literals += [
                self._body_literal(element.pos, element.neg) for element in elements
            ]
            for body_literal in condition_literals:
                self.solver.add_clause([-body_literal, objective_var])
            self.solver.add_clause([-objective_var] + condition_literals)

            term = ObjectiveTerm(weight=weight, variable=objective_var, key=key)
            terms = objectives.setdefault(priority, [])
            if encoded is None:
                terms.append(term)
            else:
                terms[terms.index(encoded.term)] = term
            self._objective_keys[key] = _ObjectiveKey(tuple(condition_literals), term)


class SolverTemplate:
    """A base program completed once into a checkpointed solver.

    Every solve of a program extending the base checks the template out
    exclusively (:meth:`checkout`), which restores the solver to the
    completed base; completion then runs only the delta part, and
    :meth:`CompletedProgram.release` hands the solver back.  A busy
    template, a program that does not :func:`extends` the base, or a solver
    with other settings than the template's gets ``checkout() == False``
    and the caller completes on the plain path instead.

    The template is built on its first checkout, with that caller's solver
    settings.  It lives in memory only: it holds a lock and a solver, so
    its owner (:class:`repro.asp.control.PreparedProgram`) never pickles or
    snapshots it.
    """

    def __init__(self, base: GroundProgram):
        self.base = base
        self.checkouts = 0
        self._lock = threading.Lock()
        self._builder: Optional[CompletionBuilder] = None

    @property
    def solver(self) -> Optional[CDCLSolver]:
        """The template's solver, once built."""
        return self._builder.solver if self._builder is not None else None

    def checkout(self, program: GroundProgram, solver: CDCLSolver) -> bool:
        """Take the template for completing ``program``; True on success.

        ``solver`` is the fresh solver the caller would complete into; its
        settings must match the template's, and it becomes the template's
        solver on the first checkout.
        """
        if not extends(self.base, program):
            return False
        if not self._lock.acquire(blocking=False):
            return False
        builder = self._builder
        if builder is None:
            try:
                builder = CompletionBuilder(self.base, solver)
                builder.complete_base()
                solver.checkpoint()
            except BaseException:
                self._lock.release()
                raise
            self._builder = builder
        elif builder.solver.settings != solver.settings:
            self._lock.release()
            return False
        else:
            builder.solver.restore()
        self.checkouts += 1
        return True

    def complete(self, program: GroundProgram) -> CompletedProgram:
        """The delta part of ``program`` on the checked-out solver."""
        try:
            completed = self._builder.fork().complete_delta(program)
        except BaseException:
            self.release()
            raise
        completed.template = self
        return completed

    def release(self) -> None:
        self._lock.release()


def complete(
    ground_program: GroundProgram,
    solver: Optional[CDCLSolver] = None,
    retractable: Optional[Dict[int, int]] = None,
    base: Optional[GroundProgram] = None,
    template: Optional[SolverTemplate] = None,
) -> CompletedProgram:
    """Clark completion of ``ground_program`` into ``solver``.

    ``base`` names a program ``ground_program`` extends (the base of a
    prepared-program fork): completion then runs the base part on it and
    the delta part on the rest, in the same order a :class:`SolverTemplate`
    of that base would.  With ``template``, the template's solver is used
    when :meth:`SolverTemplate.checkout` succeeds; the caller must then
    :meth:`~CompletedProgram.release` the result when the solve is done.
    """
    solver = solver or CDCLSolver()
    if template is not None and template.checkout(ground_program, solver):
        return template.complete(ground_program)
    if not extends(base, ground_program):
        base = ground_program
    return CompletionBuilder(base, solver, retractable=retractable).build(ground_program)
