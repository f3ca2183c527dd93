"""clingo-like facade over the parser, grounder, completion, and optimizer.

Typical use (mirroring how the concretizer drives clingo in the paper)::

    ctl = Control(config=SolverConfig.preset("tweety"))
    ctl.load(LOGIC_PROGRAM_TEXT)          # "load" phase
    ctl.add_fact("node", "hdf5")          # facts from the problem instance
    ctl.ground()                          # "ground" phase
    result = ctl.solve()                  # "solve" phase
    if result.satisfiable:
        for atom in result.model.atoms("version"):
            ...

Phase timings (load/ground/solve) are recorded on ``ctl.timer`` so the
benchmark harness can reproduce the paper's Figure 7 measurements; the caller
(the Spack layer) accounts the fact-generation "setup" phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.asp.completion import CompletedProgram, SolverTemplate, complete
from repro.asp.configs import SolverConfig, SolverPreset, require_solver_config
from repro.asp.errors import SolveError
from repro.asp.ground import GroundProgram
from repro.asp.grounder import Grounder
from repro.asp.optimization import OptimizationResult, Optimizer
from repro.asp.parser import parse_program
from repro.asp.solver import CDCLSolver
from repro.asp.stats import ASPStats, PhaseTimer
from repro.asp.syntax import Program, ground_atom

#: Parsed-program memo: the concretizer loads the same ~300-line logic program
#: for every solve, so lexing/parsing it once per process is a free win.  The
#: cached Program objects are treated as immutable by all consumers.
_PARSE_CACHE: Dict[str, Program] = {}
_PARSE_CACHE_LIMIT = 32

def parse_program_cached(text: str) -> Program:
    """Parse ASP source text with per-process memoization.

    Callers must not mutate the returned Program (extend a fresh Program
    instead, as :meth:`Control.load` does).
    """
    program = _PARSE_CACHE.get(text)
    if program is None:
        program = parse_program(text)
        if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[text] = program
    return program


class Model:
    """A stable model: a set of ground atoms with convenient accessors."""

    def __init__(self, atoms: Iterable[Tuple], costs: Optional[Dict[int, int]] = None):
        self._atoms: Set[Tuple] = set(atoms)
        self.costs: Dict[int, int] = dict(costs or {})
        self._by_predicate: Dict[str, List[Tuple]] = {}
        for atom in self._atoms:
            self._by_predicate.setdefault(atom[0], []).append(atom)
        for values in self._by_predicate.values():
            values.sort(key=lambda a: tuple(str(x) for x in a[1:]))

    def __contains__(self, atom: Tuple) -> bool:
        return tuple(atom) in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self):
        return iter(self._atoms)

    def atoms(self, predicate: Optional[str] = None) -> List[Tuple]:
        """All atoms, or just those of one predicate."""
        if predicate is None:
            return sorted(self._atoms, key=lambda a: (a[0],) + tuple(str(x) for x in a[1:]))
        return list(self._by_predicate.get(predicate, []))

    def arguments(self, predicate: str) -> List[Tuple]:
        """Argument tuples (without the predicate name) of one predicate."""
        return [atom[1:] for atom in self._by_predicate.get(predicate, [])]

    def holds(self, predicate: str, *args) -> bool:
        return ground_atom(predicate, *args) in self._atoms

    def cost_tuple(self) -> Tuple[int, ...]:
        return tuple(self.costs[p] for p in sorted(self.costs, reverse=True))


@dataclass
class SolveResult:
    """Outcome of :meth:`Control.solve`."""

    satisfiable: bool
    optimal: bool = False
    model: Optional[Model] = None
    costs: Dict[int, int] = field(default_factory=dict)
    statistics: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.satisfiable


class Control:
    """Top-level entry point of the ASP system (the 'clingo' object)."""

    def __init__(
        self,
        config: Optional[SolverConfig] = None,
        preset: Optional[SolverPreset] = None,
        stats: Optional[ASPStats] = None,
    ):
        self.config = config or SolverConfig.preset("tweety")
        #: explicit CDCL knobs override the config's (per-request presets)
        self.preset = preset
        self.stats = stats
        self.timer = PhaseTimer()
        self.program = Program()
        self.extra_facts: List[Tuple] = []
        self.ground_program: Optional[GroundProgram] = None
        #: set by :meth:`PreparedProgram.fork`: the shared base the ground
        #: program extends, and the base's solver template (if it has one)
        self.base_program: Optional[GroundProgram] = None
        self.template: Optional[SolverTemplate] = None
        self.completed: Optional[CompletedProgram] = None
        self._optimizer: Optional[Optimizer] = None

    # -- program construction ------------------------------------------------

    def load(self, text: str) -> "Control":
        """Parse ASP source text and add it to the program ("load" phase)."""
        with self.timer.phase("load"):
            parsed = parse_program_cached(text)
            self.program.extend(parsed)
        return self

    # clingo spells this `add`; keep both for familiarity.
    add = load

    def add_fact(self, name: str, *args) -> "Control":
        """Add one ground fact built from Python values (str/int/bool)."""
        self.extra_facts.append(ground_atom(name, *args))
        return self

    def add_facts(self, facts: Iterable[Tuple]) -> "Control":
        """Add many ground facts; each is ``(predicate, arg1, arg2, ...)``."""
        for atom in facts:
            self.add_fact(*atom)
        return self

    # -- grounding ------------------------------------------------------------

    def ground(self) -> GroundProgram:
        """Ground the program against the accumulated facts ("ground" phase)."""
        with self.timer.phase("ground"):
            grounder = Grounder(self.program, self.extra_facts, stats=self.stats)
            self.ground_program = grounder.ground()
        return self.ground_program

    def adopt_ground(self, ground_program: GroundProgram) -> "Control":
        """Adopt an externally produced ground program (see
        :class:`PreparedProgram`); :meth:`solve` will use it directly."""
        self.ground_program = ground_program
        return self

    # -- solving ---------------------------------------------------------------

    def _build_solver(self) -> CDCLSolver:
        preset = self.preset or SolverPreset.from_config(self.config)
        return CDCLSolver(**preset.solver_kwargs())

    def _complete(self) -> CompletedProgram:
        return complete(
            self.ground_program,
            self._build_solver(),
            base=self.base_program,
            template=self.template,
        )

    def solve(self, on_model=None) -> SolveResult:
        """Complete, search, and optimize ("solve" phase).

        A solve on a template's solver hands it back before returning, so
        ``self.completed`` must not be read afterwards; the result carries
        the model and statistics.
        """
        if self.ground_program is None:
            self.ground()

        stats = self.stats
        stage = stats.stage if stats is not None else None
        try:
            with self.timer.phase("solve"):
                if stage is not None:
                    with stage("solve.complete"):
                        self.completed = self._complete()
                else:
                    self.completed = self._complete()
                self._optimizer = Optimizer(
                    self.completed,
                    enforce_stability=self.config.enforce_stability,
                    zero_first=self.config.zero_first,
                )
                if stage is not None:
                    with stage("solve.search"):
                        outcome: OptimizationResult = self._optimizer.optimize()
                else:
                    outcome = self._optimizer.optimize()

            statistics: Dict[str, object] = {
                "ground": self.ground_program.statistics(),
                "solver": self.completed.solver.statistics(),
                "optimization": self._optimizer.statistics(),
                "config": self.config.name,
            }
        finally:
            if self.completed is not None:
                self.completed.release()

        if not outcome.satisfiable:
            return SolveResult(
                satisfiable=False,
                statistics=statistics,
                timings=self.timer.as_dict(),
            )

        atom_table = self.ground_program.atoms
        model = Model(
            (atom_table.atom(atom_id) for atom_id in outcome.atoms),
            costs=outcome.costs,
        )
        if on_model is not None:
            on_model(model)
        return SolveResult(
            satisfiable=True,
            optimal=outcome.optimal,
            model=model,
            costs=outcome.costs,
            statistics=statistics,
            timings=self.timer.as_dict(),
        )

    # -- convenience ---------------------------------------------------------------

    def solve_text(self, text: str, facts: Sequence[Tuple] = ()) -> SolveResult:
        """One-shot helper: load text, add facts, ground, and solve."""
        self.load(text)
        self.add_facts(facts)
        self.ground()
        return self.solve()


class PreparedProgram:
    """A logic program parsed once and grounded once against a shared base
    fact layer, from which per-solve controls are forked cheaply.

    This is the reusable-ground-program primitive behind batch
    concretization: the program text and the spec-independent facts are
    lexed/parsed/grounded exactly once, and every :meth:`fork` only clones
    the ground state and layers its extra facts incrementally
    (:meth:`repro.asp.grounder.Grounder.ground_delta`).

    The delta facts handed to :meth:`fork` must obey the layering contract
    documented on :class:`~repro.asp.grounder.Grounder` (fresh condition
    ids/keys only).

    **Fork- and pickle-safety.**  Once ``__init__`` returns, a prepared
    program is only ever *read*: :meth:`fork` clones the ground state and
    mutates the clone, never the base (the ``forks`` counter and the solver
    template below are the exceptions).  Apart from the template, nothing
    here holds locks, file handles, threads, or other process-local
    resources — just parsed syntax trees and interned ground atoms.
    Parallel concretization sessions rely on that: ``os.fork()``-based
    worker pools inherit prepared programs through copy-on-write memory and
    fork them concurrently.  Later *processes* get them from flat ground
    snapshots (:mod:`repro.asp.snapshot`).

    **Solver template.**  From its second fork on, a prepared program also
    keeps a :class:`~repro.asp.completion.SolverTemplate`: the base program
    completed once into a checkpointed solver, which each later solve checks
    out so that completion runs only its delta part.  A base solved only
    once never pays for one.  The template is in-memory state (a lock and a
    solver): it is never pickled, snapshotted, or carried over by
    :meth:`extend`.
    """

    def __init__(
        self,
        text: str,
        base_facts: Sequence[Tuple] = (),
        config: Optional[SolverConfig] = None,
        possible_hints: Sequence[Tuple] = (),
        stats: Optional[ASPStats] = None,
        fact_source=None,
    ):
        """``fact_source``, when given, is a callable invoked with a
        ``write(atom)`` sink; it streams base facts straight into the
        grounder (no intermediate fact list) and may *return* extra possible
        hints computed during emission (e.g. hints that depend on what was
        encoded).  It composes with, and is ordered after, ``base_facts``.
        """
        require_solver_config(config, "PreparedProgram")
        self.config = config or SolverConfig.preset("tweety")
        self.stats = stats
        self.timer = PhaseTimer()
        #: source text kept for flat snapshots (repro.asp.snapshot): an
        #: attaching process reparses it via the per-process parse memo
        #: instead of pickling the AST.
        self.text = text
        with self.timer.phase("load"):
            self.program = parse_program_cached(text)
        atoms = [ground_atom(*fact) for fact in base_facts]
        hints = [ground_atom(*hint) for hint in possible_hints]
        with self.timer.phase("ground"):
            self._base = Grounder(
                self.program, atoms, possible_hints=hints, stats=stats
            )
            if fact_source is not None:
                streamed_hints = fact_source(self._base.fact_writer())
                if streamed_hints:
                    self._base.add_possible_hints(
                        ground_atom(*hint) for hint in streamed_hints
                    )
            self._base.ground()
        self.forks = 0

    @property
    def base_ground_program(self) -> GroundProgram:
        """The shared (spec-independent) ground program."""
        return self._base.ground_program

    @property
    def template(self) -> Optional[SolverTemplate]:
        """The base's solver template, once a second fork created it."""
        return self.__dict__.get("_template")

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_template", None)
        return state

    def extend(
        self,
        extra_facts: Sequence[Tuple] = (),
        possible_hints: Sequence[Tuple] = (),
    ) -> "PreparedProgram":
        """A new prepared program layering more *base* facts onto this one.

        Where :meth:`fork` yields a throwaway per-solve :class:`Control`,
        ``extend`` yields another shareable :class:`PreparedProgram`: the
        grounding state is cloned and the new facts (plus layer-local
        possibility hints) are grounded incrementally on the clone, so
        ``self`` is never touched and both programs remain independently
        forkable and picklable.  Sharded repository sessions chain one
        ``extend`` per shard layer, caching every prefix of the chain.
        """
        layered = PreparedProgram.__new__(PreparedProgram)
        layered.config = self.config
        layered.stats = self.stats
        layered.timer = PhaseTimer()
        layered.text = self.text
        layered.program = self.program
        atoms = [ground_atom(*fact) for fact in extra_facts]
        hints = [ground_atom(*hint) for hint in possible_hints]
        with layered.timer.phase("ground"):
            grounder = self._base.clone()
            grounder.ground_delta(atoms, possible_hints=hints)
        layered._base = grounder
        layered.forks = 0
        return layered

    def statistics(self) -> Dict[str, object]:
        return {
            "base_groundings": self._base.base_groundings,
            "forks": self.forks,
            "base_ground": self._base.ground_program.statistics(),
            "base_timings": self.timer.as_dict(),
        }

    def fork(
        self,
        extra_facts: Sequence[Tuple] = (),
        config: Optional[SolverConfig] = None,
        preset: Optional[SolverPreset] = None,
        fact_source=None,
    ) -> Control:
        """A :class:`Control` holding base + ``extra_facts``, ready to solve.

        Only the delta facts are ground here; the shared base program is
        reused as-is.  The returned control's timer accounts the incremental
        grounding under "ground" (its "load" is zero — parsing happened once,
        in :meth:`__init__`).  ``fact_source`` streams additional delta
        facts, same contract as in :meth:`__init__` (hints it returns are
        ignored here — the delta layer derives possibility itself).
        """
        self.forks += 1
        control = Control(
            config=config or self.config,
            preset=preset,
            stats=self.stats,
        )
        control.base_program = self.base_ground_program
        if self.forks > 1:
            # setdefault: concurrent forks agree on one template
            control.template = self.template or self.__dict__.setdefault(
                "_template", SolverTemplate(self.base_ground_program)
            )
        with control.timer.phase("ground"):
            grounder = self._base.clone()
            atoms = [ground_atom(*fact) for fact in extra_facts]
            grounder.ground_delta(atoms, fact_source=fact_source)
        control.adopt_ground(grounder.ground_program)
        return control


def solve_program(
    text: str,
    facts: Sequence[Tuple] = (),
    config: Optional[SolverConfig] = None,
) -> SolveResult:
    """Module-level convenience wrapper used widely in tests and examples."""
    control = Control(config=config)
    return control.solve_text(text, facts)
