"""Reference (naive-join) grounder: the join-equivalence oracle.

This is the grounder as it was before the indexed joins of
:mod:`repro.asp.grounder`: tuple-at-a-time joins over dict substitutions
with only a first-column index.  It lives with the tests because it is not
a production path; it exists for two reasons:

* **oracle** — the equivalence tests assert that the fast grounder
  (interned symbols, compiled join plans, argument-position hash indexes)
  derives exactly the same certain facts, possible atoms, and stable models
  (``tests/concretize/test_join_equivalence.py``);
* **baseline** — ``benchmarks/bench_parallel_session.py`` times the indexed
  grounder against this implementation to quantify the speedup.

Both substitute it for ``repro.asp.control.Grounder`` (see
:func:`substituted`), so it keeps the constructor, streaming and delta
interface that :class:`~repro.asp.control.PreparedProgram` drives.

The grounder instantiates safe rules by joining positive body literals against
the database of *possible* atoms (an over-approximation of everything that can
become true), processing predicates in dependency (SCC) order and iterating
each component to a fixpoint.  Conditional literals and choice-element
conditions are expanded over *certain* atoms (facts and atoms derived purely
from facts), which is exactly how the paper's generalized condition handling
(``condition_requirement`` / ``imposed_constraint``) uses them.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import repro.asp.control
from repro.asp.errors import GroundingError
from repro.asp.ground import (
    GroundChoice,
    GroundConstraint,
    GroundMinimizeLiteral,
    GroundProgram,
    GroundRule,
)
from repro.asp.syntax import (
    Atom,
    BinaryOp,
    Choice,
    Comparison,
    ConditionalLiteral,
    Constant,
    Literal,
    Minimize,
    Number,
    Program,
    Rule,
    String,
    Variable,
    evaluate_term,
    ground_atom,
    term_is_ground,
    term_variables,
)

Substitution = Dict[str, object]


class _Relation:
    """All known argument tuples for one predicate, with a first-column index."""

    __slots__ = ("tuples", "_seen", "index0")

    def __init__(self):
        self.tuples: List[tuple] = []
        self._seen: Set[tuple] = set()
        self.index0: Dict[object, List[tuple]] = {}

    def add(self, args: tuple) -> bool:
        if args in self._seen:
            return False
        self._seen.add(args)
        self.tuples.append(args)
        if args:
            self.index0.setdefault(args[0], []).append(args)
        return True

    def __contains__(self, args: tuple) -> bool:
        return args in self._seen

    def __len__(self) -> int:
        return len(self.tuples)

    def candidates(self, first_value=None) -> List[tuple]:
        if first_value is None:
            return self.tuples
        return self.index0.get(first_value, [])

    def copy(self) -> "_Relation":
        relation = _Relation.__new__(_Relation)
        relation.tuples = list(self.tuples)
        relation._seen = set(self._seen)
        relation.index0 = {key: list(values) for key, values in self.index0.items()}
        return relation


class _AtomDatabase:
    """Possible/certain atom storage keyed by predicate name."""

    def __init__(self):
        self.relations: Dict[str, _Relation] = {}

    def relation(self, name: str) -> _Relation:
        relation = self.relations.get(name)
        if relation is None:
            relation = _Relation()
            self.relations[name] = relation
        return relation

    def add(self, name: str, args: tuple) -> bool:
        return self.relation(name).add(args)

    def contains(self, name: str, args: tuple) -> bool:
        relation = self.relations.get(name)
        return relation is not None and args in relation

    def count(self, name: str) -> int:
        relation = self.relations.get(name)
        return len(relation) if relation else 0

    def candidates(self, name: str, first_value=None) -> List[tuple]:
        relation = self.relations.get(name)
        if relation is None:
            return []
        return relation.candidates(first_value)

    def copy(self) -> "_AtomDatabase":
        database = _AtomDatabase()
        database.relations = {
            name: relation.copy() for name, relation in self.relations.items()
        }
        return database


def _pattern_first_value(atom: Atom, substitution: Substitution):
    """If the first argument of ``atom`` is bound/ground, return its value."""
    if not atom.arguments:
        return None
    first = atom.arguments[0]
    if isinstance(first, Variable):
        if first.name == "_":
            return None
        return substitution.get(first.name)
    if term_is_ground(first):
        return evaluate_term(first, substitution)
    return None


def _match_atom(atom: Atom, args: tuple, substitution: Substitution) -> Optional[Substitution]:
    """Try to unify ``atom``'s argument patterns against a ground tuple.

    Returns an extended substitution, or None if the match fails.  The input
    substitution is not modified.
    """
    if len(atom.arguments) != len(args):
        return None
    result = substitution
    copied = False
    for pattern, value in zip(atom.arguments, args):
        if isinstance(pattern, Variable):
            if pattern.name == "_":
                continue
            bound = result.get(pattern.name, _UNBOUND)
            if bound is _UNBOUND:
                if not copied:
                    result = dict(result)
                    copied = True
                result[pattern.name] = value
            elif bound != value:
                return None
        else:
            try:
                expected = evaluate_term(pattern, result)
            except KeyError:
                raise GroundingError(
                    f"argument {pattern} of {atom} contains unbound variables"
                )
            if expected != value:
                return None
    return result


class _UnboundType:
    __repr__ = lambda self: "<unbound>"  # noqa: E731


_UNBOUND = _UnboundType()


def _collect_variables(items: Iterable) -> Set[str]:
    names: Set[str] = set()
    for item in items:
        for variable in item.variables():
            names.add(variable.name)
    return names


class NaiveGrounder:
    """Naive-join grounder (the pre-optimization reference implementation).

    Besides the one-shot :meth:`ground`, a grounder supports *incremental
    extra-facts layering*: after a base grounding, :meth:`clone` forks the
    whole grounding state cheaply (no joins, just data-structure copies) and
    :meth:`ground_delta` grounds additional facts semi-naively — only rule
    instances touching at least one new atom are enumerated, so the shared
    base program is grounded exactly once however many layers are forked on
    top of it.  This is what makes batch concretization sessions fast.

    Contract for delta facts: they may introduce new atoms freely, but they
    must not extend relations that appear in conditional-literal *conditions*
    of rule bodies for bindings that were already instantiated during the
    base grounding (e.g. adding ``condition_requirement`` rows for a
    pre-existing condition id would leave stale, weaker rule instances in the
    ground program).  Fresh ids/keys are always safe — which is exactly how
    the concretizer's spec-dependent fact layer is constructed.

    Choice *elements* are exempt from that contract: choice instances are
    registered by (rule, body substitution), and when a delta layer extends a
    relation appearing in a choice-element condition (e.g. a later repository
    shard adding ``version_declared`` rows for a package whose node was
    already possible), the affected choices are re-expanded and upgraded *in
    place* with the enlarged candidate set.  Sharded repositories rely on
    this: cross-shard dependencies may point at packages whose declarations
    arrive only in a later shard layer.
    """

    def __init__(
        self,
        program: Program,
        extra_facts: Sequence[tuple] = (),
        possible_hints: Sequence[tuple] = (),
        stats=None,
    ):
        # ``stats`` is accepted (and carried) for interface parity with the
        # indexed grounder; this one times nothing
        self.program = program
        self.stats = stats
        self.ground_program = GroundProgram()
        self.possible = _AtomDatabase()
        self.certain = _AtomDatabase()
        self._rule_keys: Set[tuple] = set()
        #: choice instances by (rule position, body substitution) -> index
        #: into ``ground_program.choices``, so a later layer can *upgrade* an
        #: instance whose element expansion grew (see class docstring).
        self._choice_instances: Dict[tuple, int] = {}
        self._constraint_keys: Set[tuple] = set()
        self._minimize_keys: Set[tuple] = set()
        self._extra_facts = list(extra_facts)
        #: atoms marked *possible* (but not certain, and not facts) before
        #: grounding starts.  Sound over-approximation knob: hinted atoms
        #: that never gain support are forced false by completion, so extra
        #: hints cost ground-program size, never correctness.  A base layer
        #: uses them to pre-ground rules whose triggers arrive only in later
        #: delta layers (e.g. "any possible package may become a root").
        self._possible_hints = list(possible_hints)
        self._components: Optional[List[List[Rule]]] = None
        self._constraints: Optional[List[Rule]] = None
        self._delta: Optional[_AtomDatabase] = None
        #: how many times this grounder ran a full base grounding / delta layer
        self.base_groundings = 0
        self.delta_groundings = 0

    # -- public API ---------------------------------------------------------

    def add_possible_hints(self, hints) -> None:
        self._possible_hints.extend(hints)

    def fact_writer(self):
        """A base-layer fact sink (call before :meth:`ground`)."""
        return lambda atom: self._extra_facts.append(ground_atom(*atom))

    def ground(self) -> GroundProgram:
        facts, rules, constraints = self._split_statements()
        for rule in rules + constraints:
            self._check_safety(rule)
        for minimize in self.program.minimizes:
            self._check_minimize_safety(minimize)
        self._add_facts(facts)
        for atom in self._possible_hints:
            self.possible.add(atom[0], tuple(atom[1:]))
        self._components = self._stratify(rules)
        self._constraints = constraints
        for component_rules in self._components:
            self._ground_component(component_rules)
        for constraint in constraints:
            self._ground_constraint(constraint)
        for minimize in self.program.minimizes:
            self._ground_minimize(minimize)
        self.base_groundings += 1
        return self.ground_program

    def clone(self) -> "NaiveGrounder":
        """Fork the complete grounding state (program objects are shared).

        The clone can be extended with :meth:`ground_delta` without touching
        this grounder, so one base grounding can serve many solves.  Cloning
        never mutates ``self`` — only plain data structures are copied and
        the immutable program/ASTs are shared — so concurrent clones of one
        base grounder are safe from threads and from ``os.fork()``-ed worker
        processes alike.
        """
        other = NaiveGrounder.__new__(NaiveGrounder)
        other.program = self.program
        other.stats = self.stats
        other.ground_program = self.ground_program.copy()
        other.possible = self.possible.copy()
        other.certain = self.certain.copy()
        other._rule_keys = set(self._rule_keys)
        other._choice_instances = dict(self._choice_instances)
        other._constraint_keys = set(self._constraint_keys)
        other._minimize_keys = set(self._minimize_keys)
        other._extra_facts = list(self._extra_facts)
        other._possible_hints = list(self._possible_hints)
        other._components = self._components
        other._constraints = self._constraints
        other._delta = None
        other.base_groundings = self.base_groundings
        other.delta_groundings = self.delta_groundings
        return other

    def ground_delta(
        self,
        extra_facts: Sequence[tuple] = (),
        possible_hints: Sequence[tuple] = (),
        fact_source=None,
    ) -> GroundProgram:
        """Ground additional facts on top of a completed :meth:`ground`.

        Rule instantiation is restricted to instances where at least one
        positive body literal matches an atom that is new in this layer
        (semi-naive evaluation); everything grounded before stays valid and
        is not re-derived.  ``possible_hints`` are additional layer-local
        possibility seeds with the same semantics as the constructor's: they
        become possible (and seed joins) without becoming facts.
        ``fact_source`` streams more facts through a ``write(atom)`` sink.
        """
        extra_facts = list(extra_facts)
        if fact_source is not None:
            fact_source(lambda atom: extra_facts.append(ground_atom(*atom)))
        if self._components is None:
            self._extra_facts.extend(extra_facts)
            self._possible_hints.extend(possible_hints)
            return self.ground()
        delta = _AtomDatabase()
        for atom in extra_facts:
            name, args = atom[0], tuple(atom[1:])
            if self.possible.add(name, args):
                delta.add(name, args)
            self.certain.add(name, args)
            atom_id = self.ground_program.atoms.intern(atom)
            self.ground_program.facts.add(atom_id)
        for atom in possible_hints:
            self._possible_hints.append(atom)
            name, args = atom[0], tuple(atom[1:])
            if self.possible.add(name, args):
                delta.add(name, args)
        for component_rules in self._components:
            self._ground_component(component_rules, delta)
        for constraint in self._constraints:
            self._ground_constraint(constraint, delta)
        for minimize in self.program.minimizes:
            self._ground_minimize(minimize, delta)
        self.delta_groundings += 1
        return self.ground_program

    # -- setup ----------------------------------------------------------------

    def _split_statements(self):
        facts: List[tuple] = list(self._extra_facts)
        rules: List[Rule] = []
        constraints: List[Rule] = []
        for rule in self.program.rules:
            if rule.is_fact and rule.head.is_ground():
                facts.append(rule.head.ground({}))
            elif rule.is_constraint:
                constraints.append(rule)
            else:
                rules.append(rule)
        return facts, rules, constraints

    def _check_safety(self, rule: Rule):
        """Static safety check: every variable must be bound by a positive
        body literal (or, for conditional/choice elements, by their local
        condition)."""
        positives, negatives, comparisons, conditionals = self._split_body(rule.body)
        bound = _collect_variables(positives)

        def require(variables: Set[str], where: str):
            unbound = variables - bound
            if unbound:
                raise GroundingError(
                    f"unsafe variables {sorted(unbound)} in {where} of rule: {rule}"
                )

        for negative in negatives:
            require({v.name for v in negative.variables()}, "negative literal")
        for comparison in comparisons:
            require({v.name for v in comparison.variables()}, "comparison")
        for conditional in conditionals:
            local = bound | _collect_variables(
                c for c in conditional.condition if isinstance(c, Literal) and not c.negated
            )
            unbound = {v.name for v in conditional.literal.variables()} - local
            if unbound:
                raise GroundingError(
                    f"unsafe variables {sorted(unbound)} in conditional literal of rule: {rule}"
                )
        if isinstance(rule.head, Atom):
            require({v.name for v in rule.head.variables()}, "head")
        elif isinstance(rule.head, Choice):
            for element in rule.head.elements:
                local = bound | _collect_variables(
                    c for c in element.condition if isinstance(c, Literal) and not c.negated
                )
                unbound = {v.name for v in element.atom.variables()} - local
                if unbound:
                    raise GroundingError(
                        f"unsafe variables {sorted(unbound)} in choice element of rule: {rule}"
                    )
            for bound_term in (rule.head.lower, rule.head.upper):
                if bound_term is not None:
                    require({v.name for v in term_variables(bound_term)}, "cardinality bound")

    def _check_minimize_safety(self, minimize: Minimize):
        for element in minimize.elements:
            positives = [
                c for c in element.condition if isinstance(c, Literal) and not c.negated
            ]
            bound = _collect_variables(positives)
            needed: Set[str] = set()
            for term in (element.weight, element.priority) + element.terms:
                needed.update(v.name for v in term_variables(term))
            for item in element.condition:
                if isinstance(item, (Comparison,)) or (
                    isinstance(item, Literal) and item.negated
                ):
                    needed.update(v.name for v in item.variables())
            unbound = needed - bound
            if unbound:
                raise GroundingError(
                    f"unsafe variables {sorted(unbound)} in minimize element: {element}"
                )

    def _add_facts(self, facts: Sequence[tuple]):
        for atom in facts:
            name, args = atom[0], tuple(atom[1:])
            self.possible.add(name, args)
            self.certain.add(name, args)
            atom_id = self.ground_program.atoms.intern(atom)
            self.ground_program.facts.add(atom_id)

    # -- stratification ---------------------------------------------------------

    def _head_predicates(self, rule: Rule) -> List[str]:
        if isinstance(rule.head, Atom):
            return [rule.head.name]
        if isinstance(rule.head, Choice):
            return [element.atom.name for element in rule.head.elements]
        return []

    def _body_predicates(self, rule: Rule) -> List[str]:
        names = []
        for element in rule.body:
            if isinstance(element, Literal):
                names.append(element.atom.name)
            elif isinstance(element, ConditionalLiteral):
                names.append(element.literal.atom.name)
                for condition in element.condition:
                    if isinstance(condition, Literal):
                        names.append(condition.atom.name)
        if isinstance(rule.head, Choice):
            for element in rule.head.elements:
                for condition in element.condition:
                    if isinstance(condition, Literal):
                        names.append(condition.atom.name)
        return names

    def _stratify(self, rules: List[Rule]) -> List[List[Rule]]:
        """Group rules into SCC components of the predicate dependency graph,
        ordered so that dependencies are grounded first."""
        rules_by_head: Dict[str, List[Rule]] = {}
        graph: Dict[str, Set[str]] = {}
        for rule in rules:
            heads = self._head_predicates(rule)
            bodies = self._body_predicates(rule)
            for head in heads:
                rules_by_head.setdefault(head, []).append(rule)
                graph.setdefault(head, set()).update(bodies)
                for body in bodies:
                    graph.setdefault(body, set())

        sccs = _tarjan_sccs(graph)
        # _tarjan_sccs returns components in reverse topological order of the
        # "head depends on body" graph, i.e. dependencies come first.
        components: List[List[Rule]] = []
        seen_rules: Set[int] = set()
        for component in sccs:
            component_rules: List[Rule] = []
            for predicate in component:
                for rule in rules_by_head.get(predicate, []):
                    if id(rule) not in seen_rules:
                        seen_rules.add(id(rule))
                        component_rules.append(rule)
            if component_rules:
                components.append(component_rules)
        return components

    # -- joining ---------------------------------------------------------------

    def _join(
        self,
        positives: List[Literal],
        comparisons: List[Comparison],
        substitution: Substitution,
        database: _AtomDatabase,
    ) -> Iterator[Substitution]:
        """Enumerate substitutions satisfying all positive literals (against
        ``database``) and all comparisons."""
        yield from self._join_step(list(positives), list(comparisons), substitution, database)

    def _join_step(self, positives, comparisons, substitution, database):
        # Evaluate any comparison whose variables are all bound.
        remaining_comparisons = []
        for comparison in comparisons:
            if all(v.name in substitution for v in comparison.variables()):
                if not comparison.evaluate(substitution):
                    return
            else:
                remaining_comparisons.append(comparison)

        if not positives:
            if remaining_comparisons:
                unresolved = ", ".join(str(c) for c in remaining_comparisons)
                raise GroundingError(f"unsafe comparison(s): {unresolved}")
            yield substitution
            return

        # Pick the cheapest literal next (fewest current candidates).
        best_index = 0
        best_cost = None
        for index, literal in enumerate(positives):
            first = _pattern_first_value(literal.atom, substitution)
            if first is not None:
                cost = len(database.candidates(literal.atom.name, first))
            else:
                cost = database.count(literal.atom.name)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = index
            if cost == 0:
                break

        literal = positives[best_index]
        rest = positives[:best_index] + positives[best_index + 1 :]
        first = _pattern_first_value(literal.atom, substitution)
        for args in database.candidates(literal.atom.name, first):
            extended = _match_atom(literal.atom, args, substitution)
            if extended is not None:
                yield from self._join_step(rest, remaining_comparisons, extended, database)

    def _join_delta(
        self,
        positives: List[Literal],
        comparisons: List[Comparison],
        delta: _AtomDatabase,
        database: _AtomDatabase,
    ) -> Iterator[Substitution]:
        """Enumerate substitutions where >= 1 positive literal matches a
        *delta* atom (the rest join against the full database).

        Instances touching several delta atoms are found once per seed; the
        caller's dedup keys make that harmless.  Bodies without positive
        literals cannot gain new instances from added facts, so they yield
        nothing here.
        """
        for index, literal in enumerate(positives):
            name = literal.atom.name
            if delta.count(name) == 0:
                continue
            rest = positives[:index] + positives[index + 1 :]
            first = _pattern_first_value(literal.atom, {})
            for args in delta.candidates(name, first):
                substitution = _match_atom(literal.atom, args, {})
                if substitution is not None:
                    yield from self._join_step(
                        rest, list(comparisons), substitution, database
                    )

    # -- body grounding -----------------------------------------------------------

    def _split_body(self, body):
        positives: List[Literal] = []
        negatives: List[Literal] = []
        comparisons: List[Comparison] = []
        conditionals: List[ConditionalLiteral] = []
        for element in body:
            if isinstance(element, Literal):
                (negatives if element.negated else positives).append(element)
            elif isinstance(element, Comparison):
                comparisons.append(element)
            elif isinstance(element, ConditionalLiteral):
                conditionals.append(element)
            else:
                raise GroundingError(f"unsupported body element: {element!r}")
        return positives, negatives, comparisons, conditionals

    def _expand_conditional(
        self, conditional: ConditionalLiteral, substitution: Substitution
    ) -> Optional[Tuple[List[tuple], List[tuple]]]:
        """Expand a conditional literal into (positive, negative) ground atoms.

        Conditions range over *certain* atoms.  Returns None if the expansion
        makes the body unsatisfiable (an instance is certainly violated).
        """
        cond_positives: List[Literal] = []
        cond_comparisons: List[Comparison] = []
        for item in conditional.condition:
            if isinstance(item, Literal):
                if item.negated:
                    raise GroundingError(
                        "negated literals are not supported in conditions: "
                        f"{conditional}"
                    )
                cond_positives.append(item)
            elif isinstance(item, Comparison):
                cond_comparisons.append(item)

        pos_atoms: List[tuple] = []
        neg_atoms: List[tuple] = []
        for local in self._join(cond_positives, cond_comparisons, substitution, self.certain):
            atom = conditional.literal.atom.ground(local)
            name, args = atom[0], tuple(atom[1:])
            if conditional.literal.negated:
                if self.certain.contains(name, args):
                    return None
                neg_atoms.append(atom)
            else:
                if self.certain.contains(name, args):
                    continue  # certainly true; drop from the conjunction
                pos_atoms.append(atom)
        return pos_atoms, neg_atoms

    def _ground_body(
        self, body, database: _AtomDatabase, delta: Optional[_AtomDatabase] = None
    ) -> Iterator[Optional[Tuple[Substitution, List[tuple], List[tuple]]]]:
        """Yield (substitution, pos_atoms, neg_atoms) for every body instance.

        Positive atoms that are certain facts are dropped; instances whose
        negative literals contradict certain facts are skipped.  With
        ``delta``, only instances touching at least one delta atom through a
        positive literal are produced (incremental grounding).
        """
        positives, negatives, comparisons, conditionals = self._split_body(body)

        bound_by_positives = _collect_variables(positives)
        for negative in negatives:
            unbound = set(v.name for v in negative.variables()) - bound_by_positives
            if unbound:
                raise GroundingError(
                    f"unsafe variables {sorted(unbound)} in negative literal {negative}"
                )

        if delta is None:
            substitutions = self._join(positives, comparisons, {}, database)
        else:
            substitutions = self._join_delta(positives, comparisons, delta, database)
        for substitution in substitutions:
            pos_atoms: List[tuple] = []
            neg_atoms: List[tuple] = []
            feasible = True

            for literal in positives:
                atom = literal.atom.ground(substitution)
                name, args = atom[0], tuple(atom[1:])
                if self.certain.contains(name, args):
                    continue
                pos_atoms.append(atom)

            for literal in negatives:
                atom = literal.atom.ground(substitution)
                name, args = atom[0], tuple(atom[1:])
                if self.certain.contains(name, args):
                    feasible = False
                    break
                neg_atoms.append(atom)
            if not feasible:
                continue

            for conditional in conditionals:
                expansion = self._expand_conditional(conditional, substitution)
                if expansion is None:
                    feasible = False
                    break
                cond_pos, cond_neg = expansion
                pos_atoms.extend(cond_pos)
                neg_atoms.extend(cond_neg)
            if not feasible:
                continue

            yield substitution, pos_atoms, neg_atoms

    # -- component grounding ---------------------------------------------------------

    def _ground_component(self, rules: List[Rule], delta: Optional[_AtomDatabase] = None):
        if delta is None:
            changed = True
            while changed:
                changed = False
                for rule in rules:
                    if isinstance(rule.head, Choice):
                        if self._ground_choice_rule(rule):
                            changed = True
                    else:
                        if self._ground_normal_rule(rule):
                            changed = True
            return

        # Semi-naive: each iteration seeds joins only from the atoms derived
        # in the previous one, so the pass-wide delta is never re-scanned.
        current = delta
        while True:
            next_delta = _AtomDatabase()
            self._delta = next_delta
            try:
                for rule in rules:
                    if isinstance(rule.head, Choice):
                        if self._choice_elements_touched(rule, current):
                            # an element-condition relation grew: existing
                            # instances may be missing candidates, so re-run
                            # the rule against the full database (the
                            # instance registry upgrades them in place)
                            self._ground_choice_rule(rule)
                        else:
                            self._ground_choice_rule(rule, current)
                    else:
                        self._ground_normal_rule(rule, current)
            finally:
                self._delta = None
            new_atoms = False
            for name, relation in next_delta.relations.items():
                for args in relation.tuples:
                    delta.add(name, args)
                    new_atoms = True
            if not new_atoms:
                break
            current = next_delta

    def _intern(self, atom: tuple) -> int:
        return self.ground_program.atoms.intern(atom)

    # -- choice instance registry -------------------------------------------

    def _rule_position(self, rule: Rule) -> int:
        """A pickle-stable identity for ``rule`` (its index in the program).

        ``id(rule)`` would not survive a pickle round trip (the persistent
        ground cache pickles grounders), so registry keys use positions.  The
        id->position memo itself is process-local and dropped on pickling.
        """
        positions = self.__dict__.get("_rule_positions")
        if positions is None or id(rule) not in positions:
            positions = {id(r): i for i, r in enumerate(self.program.rules)}
            self._rule_positions = positions
        return positions[id(rule)]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_rule_positions", None)
        return state

    @staticmethod
    def _substitution_key(substitution: Substitution) -> tuple:
        return tuple(sorted(substitution.items(), key=lambda kv: kv[0]))

    def _choice_elements_touched(self, rule: Rule, delta: _AtomDatabase) -> bool:
        """True if ``delta`` extends a relation some choice element of
        ``rule`` ranges over (so existing instances may need re-expansion)."""
        for element in rule.head.elements:
            for item in element.condition:
                if isinstance(item, Literal) and delta.count(item.atom.name):
                    return True
        return False

    def _add_possible(self, name: str, args: tuple):
        """Record a derived atom as possible (and as delta when layering)."""
        if self.possible.add(name, args) and self._delta is not None:
            self._delta.add(name, args)

    def _ground_normal_rule(self, rule: Rule, delta: Optional[_AtomDatabase] = None) -> bool:
        head: Atom = rule.head
        changed = False
        head_variables = set(v.name for v in head.variables())
        for substitution, pos_atoms, neg_atoms in self._ground_body(
            rule.body, self.possible, delta
        ):
            unbound = head_variables - set(substitution)
            if unbound:
                raise GroundingError(
                    f"unsafe variables {sorted(unbound)} in head of rule: {rule}"
                )
            head_atom = head.ground(substitution)
            key = (head_atom, tuple(pos_atoms), tuple(neg_atoms))
            if key in self._rule_keys:
                continue
            self._rule_keys.add(key)
            changed = True

            name, args = head_atom[0], tuple(head_atom[1:])
            head_id = self._intern(head_atom)
            self._add_possible(name, args)

            if not pos_atoms and not neg_atoms:
                # The body is certainly true: the head is a fact.
                if self.certain.add(name, args):
                    pass
                self.ground_program.facts.add(head_id)
                continue

            self.ground_program.rules.append(
                GroundRule(
                    head=head_id,
                    pos=tuple(self._intern(a) for a in pos_atoms),
                    neg=tuple(self._intern(a) for a in neg_atoms),
                )
            )
        return changed

    def _ground_choice_rule(self, rule: Rule, delta: Optional[_AtomDatabase] = None) -> bool:
        choice: Choice = rule.head
        rule_position = self._rule_position(rule)
        changed = False
        for substitution, pos_atoms, neg_atoms in self._ground_body(
            rule.body, self.possible, delta
        ):
            candidates: List[tuple] = []
            for element in choice.elements:
                candidates.extend(self._expand_choice_element(element, substitution))
            lower = self._evaluate_bound(choice.lower, substitution)
            upper = self._evaluate_bound(choice.upper, substitution)

            candidate_ids = []
            for atom in candidates:
                name, args = atom[0], tuple(atom[1:])
                self._add_possible(name, args)
                candidate_ids.append(self._intern(atom))
            pos = tuple(self._intern(a) for a in pos_atoms)
            neg = tuple(self._intern(a) for a in neg_atoms)

            key = (rule_position, self._substitution_key(substitution))
            index = self._choice_instances.get(key)
            if index is None:
                self._choice_instances[key] = len(self.ground_program.choices)
                self.ground_program.choices.append(
                    GroundChoice(
                        atoms=tuple(candidate_ids),
                        pos=pos,
                        neg=neg,
                        lower=lower,
                        upper=upper,
                    )
                )
                changed = True
                continue

            # The instance exists already.  Upgrade it in place if this
            # (re-)derivation expanded to candidates the stored instance is
            # missing (an element-condition relation grew since it was
            # instantiated); keep the stored candidate order and append.
            existing = self.ground_program.choices[index]
            known = set(existing.atoms)
            novel = [cid for cid in candidate_ids if cid not in known]
            if not novel and pos == existing.pos and neg == existing.neg:
                continue
            self.ground_program.choices[index] = GroundChoice(
                atoms=existing.atoms + tuple(novel),
                pos=pos,
                neg=neg,
                lower=lower,
                upper=upper,
            )
            if novel:
                changed = True
        return changed

    def _expand_choice_element(self, element, substitution: Substitution) -> List[tuple]:
        positives: List[Literal] = []
        comparisons: List[Comparison] = []
        for item in element.condition:
            if isinstance(item, Literal):
                if item.negated:
                    raise GroundingError(
                        f"negated condition in choice element is unsupported: {element}"
                    )
                positives.append(item)
            elif isinstance(item, Comparison):
                comparisons.append(item)
        atoms: List[tuple] = []
        seen: Set[tuple] = set()
        for local in self._join(positives, comparisons, substitution, self.certain):
            atom = element.atom.ground(local)
            if atom not in seen:
                seen.add(atom)
                atoms.append(atom)
        return atoms

    def _evaluate_bound(self, bound, substitution: Substitution) -> Optional[int]:
        if bound is None:
            return None
        value = evaluate_term(bound, substitution)
        if not isinstance(value, int):
            raise GroundingError(f"cardinality bound is not an integer: {value!r}")
        return value

    # -- constraints and minimize ----------------------------------------------------

    def _ground_constraint(self, rule: Rule, delta: Optional[_AtomDatabase] = None):
        for _, pos_atoms, neg_atoms in self._ground_body(rule.body, self.possible, delta):
            key = (tuple(pos_atoms), tuple(neg_atoms))
            if key in self._constraint_keys:
                continue
            self._constraint_keys.add(key)
            self.ground_program.constraints.append(
                GroundConstraint(
                    pos=tuple(self._intern(a) for a in pos_atoms),
                    neg=tuple(self._intern(a) for a in neg_atoms),
                )
            )

    def _ground_minimize(self, minimize: Minimize, delta: Optional[_AtomDatabase] = None):
        for element in minimize.elements:
            for substitution, pos_atoms, neg_atoms in self._ground_body(
                element.condition, self.possible, delta
            ):
                weight = evaluate_term(element.weight, substitution)
                priority = evaluate_term(element.priority, substitution)
                if not isinstance(weight, int) or not isinstance(priority, int):
                    raise GroundingError(
                        f"minimize weight/priority must be integers: {element}"
                    )
                terms = tuple(evaluate_term(t, substitution) for t in element.terms)
                key = (priority, weight, terms, tuple(pos_atoms), tuple(neg_atoms))
                if key in self._minimize_keys:
                    continue
                self._minimize_keys.add(key)
                self.ground_program.minimize_literals.append(
                    GroundMinimizeLiteral(
                        priority=priority,
                        weight=weight,
                        key=(priority, weight) + terms,
                        pos=tuple(self._intern(a) for a in pos_atoms),
                        neg=tuple(self._intern(a) for a in neg_atoms),
                    )
                )


def _tarjan_sccs(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Iterative Tarjan SCC; components are returned dependencies-first."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    components: List[List[str]] = []

    for start in graph:
        if start in index:
            continue
        work = [(start, iter(sorted(graph.get(start, ()))))]
        index[start] = lowlink[start] = index_counter[0]
        index_counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(graph.get(successor, ())))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    # Tarjan emits components in reverse topological order of the condensation
    # for edges "node -> successor"; since edges point head -> body, that means
    # dependencies (bodies) come first, which is the grounding order we want.
    return components




@contextlib.contextmanager
def substituted():
    """Run the block with :class:`NaiveGrounder` standing in for
    ``repro.asp.control.Grounder``: every :class:`Control` and
    :class:`PreparedProgram` built inside grounds with the oracle."""
    original = repro.asp.control.Grounder
    repro.asp.control.Grounder = NaiveGrounder
    try:
        yield
    finally:
        repro.asp.control.Grounder = original
