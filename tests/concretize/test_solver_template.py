"""The solver template: a shared base completed once, reused by every solve.

From its second fork on, a prepared base keeps a
:class:`~repro.asp.completion.SolverTemplate` and completion runs only the
delta part of each solve on the template's restored solver.  The plain path
(``checkout`` refused) is the oracle: answers, costs, built/reused sets, unsat
cores and even solver statistics must be identical on both paths, in any
order and under concurrency, while the template stays out of pickles and
snapshots and does not grow.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.asp.completion import SolverTemplate
from repro.asp.configs import SolverPreset
from repro.asp.control import PreparedProgram
from repro.asp.snapshot import snapshot_bytes
from repro.spack.concretize import ConcretizationSession, SessionConfig
from repro.spack.errors import UnsatisfiableSpecError
from repro.spack.generator import SyntheticRepoBuilder
from repro.spack.store import Database

from tests.concretize.test_batch_session import signature
from tests.concretize.test_unsat_explanations import scenario_builder

#: one spec family of the micro catalog (one shared base); the last two
#: are unsatisfiable (example@1.1.0 needs zlib@1.2.8:)
FAMILY = [
    "example",
    "example+bzip",
    "example~bzip",
    "example@1.0.0",
    "example ^openmpi",
    "example~bzip ^mpich@3.1",
    "example@1.0.0 ^zlib@1.2.3",
    "example ^zlib~pic",
    "example@1.1.0 ^zlib@1.2.3",
    "example@1.1.0 ^zlib@1.2.3 ^openmpi",
]


def refuse_checkouts(patch):
    """Every solve takes the plain path."""
    patch.setattr(SolverTemplate, "checkout", lambda self, program, solver: False)


def new_session(repo, **inputs):
    return ConcretizationSession(
        repo=repo, session_config=SessionConfig(share_ground_cache=False), **inputs
    )


def outcome(session, spec):
    """What must not depend on the path: the answer or the unsat core, plus
    the solver's work."""
    try:
        return describe(session.concretize(spec))
    except UnsatisfiableSpecError as error:
        return ("unsat", str(error), error.core())


def describe(result):
    solver = result.statistics["solver"]
    return (
        signature(result),
        result.costs,
        solver["decisions"],
        solver["conflicts"],
        solver["propagations"],
    )


def outcomes(session, specs):
    return [outcome(session, spec) for spec in specs]


def templates(session):
    """The solver templates of the session's bases."""
    found = [base.prepared.template for base in session._local_bases.values()]
    return [template for template in found if template is not None]


def test_template_is_kept_from_the_second_fork_on(micro_repo):
    session = new_session(micro_repo)
    session.concretize(FAMILY[0])
    (base,) = session._local_bases.values()
    assert base.prepared.template is None
    session.concretize(FAMILY[1])
    (template,) = templates(session)
    solver = template.solver
    assert solver is not None and template.checkouts == 1
    session.solve(FAMILY[2:5])
    assert template.solver is solver and template.checkouts == 4


def test_family_batch_matches_plain_path(micro_repo, monkeypatch):
    with_template = outcomes(new_session(micro_repo), FAMILY)
    refuse_checkouts(monkeypatch)
    assert outcomes(new_session(micro_repo), FAMILY) == with_template
    assert sum(entry[0] == "unsat" for entry in with_template) == 2


def test_reuse_matches_plain_path(micro_repo, monkeypatch):
    store = Database()
    store.install(new_session(micro_repo).concretize("example~bzip").spec)
    specs = ["example~bzip", "example", "example ^openmpi", "minitool", "minitool+mpi"]
    with_template = outcomes(new_session(micro_repo, store=store, reuse=True), specs)
    assert any(entry[0][4] for entry in with_template)  # something was reused
    refuse_checkouts(monkeypatch)
    plain = outcomes(new_session(micro_repo, store=store, reuse=True), specs)
    assert plain == with_template


def test_two_orders_give_identical_answers(micro_repo):
    forward = dict(zip(FAMILY, outcomes(new_session(micro_repo), FAMILY)))
    backward = dict(zip(FAMILY[::-1], outcomes(new_session(micro_repo), FAMILY[::-1])))
    assert forward == backward


def test_planted_unsat_cores_match_plain_path(monkeypatch):
    for seed in (0, 3, 7):
        builder = scenario_builder(seed, 40 + 10 * seed)
        repo = builder.build()
        planted = builder.planted["synth-unsat-0000"].package
        # one root three times: the later solves run on the template
        specs = [planted, planted + "@3.0.0", planted + "@2.0.0"]
        session = new_session(repo)
        with_template = outcomes(session, specs)
        assert templates(session)[0].checkouts == 2
        with monkeypatch.context() as patch:
            refuse_checkouts(patch)
            plain = outcomes(new_session(repo), specs)
        assert plain == with_template
        assert all(entry[0] == "unsat" and entry[2] for entry in with_template)


def test_concurrent_solves_share_one_template(micro_repo):
    """Two thread workers on one base: one checks the template out, the
    other finds it busy and completes on the plain path; both answers are
    right."""
    expected = [outcome(new_session(micro_repo), spec) for spec in FAMILY[1:3]]
    session = ConcretizationSession(
        repo=micro_repo,
        session_config=SessionConfig(
            share_ground_cache=False, workers=2, worker_backend="thread"
        ),
    )
    session.concretize(FAMILY[0])

    # whichever worker takes the template holds it until the other one
    # has been refused, so the two completions overlap
    refused = threading.Event()
    taken = []
    checkout = SolverTemplate.checkout

    def contended_checkout(self, program, solver):
        ok = checkout(self, program, solver)
        taken.append(ok)
        if ok:
            assert refused.wait(timeout=120)
        else:
            refused.set()
        return ok

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SolverTemplate, "checkout", contended_checkout)
        results = session.solve(FAMILY[1:3])
    assert session.stats.parallel_solves == 2
    assert sorted(taken) == [False, True]
    assert [describe(result) for result in results] == expected
    (template,) = templates(session)
    assert template.checkouts == 1
    # the template was handed back: the next solve checks it out again
    assert outcome(session, FAMILY[3]) == outcome(new_session(micro_repo), FAMILY[3])
    assert template.checkouts == 2


def test_pickles_and_snapshots_carry_no_template(micro_repo):
    session = new_session(micro_repo)
    session.solve(FAMILY[:2])
    (base,) = session._local_bases.values()
    prepared = base.prepared
    assert prepared.template is not None and prepared.template.solver is not None

    restored = pickle.loads(pickle.dumps(prepared))
    assert restored.template is None
    assert "_template" not in restored.__dict__
    assert restored.forks == prepared.forks

    bare = PreparedProgram.__new__(PreparedProgram)
    bare.__dict__.update(prepared.__getstate__())
    assert snapshot_bytes(prepared, key="k") == snapshot_bytes(bare, key="k")


def test_template_does_not_grow(micro_repo):
    """After 20 specs the template's solver restores to its checkpoint size:
    delta variables, clauses, constraints and learnts never accumulate."""
    specs = [
        f"example{version}{bzip} ^{mpi}"
        for version in ("", "@1.0.0", "@1.1.0")
        for bzip in ("", "+bzip", "~bzip")
        for mpi in ("mpich", "openmpi", "zlib~pic")
    ][:21]
    session = new_session(micro_repo)
    session.concretize(specs[0])
    session.concretize(specs[1])
    (template,) = templates(session)
    solver = template.solver

    def size():
        return (
            solver.num_vars,
            len(solver.clauses),
            len(solver.linears),
            len(solver.learnts),
            len(solver.trail),
            len(solver.assigns),
            len(solver.watches),
            len(solver.linear_watches),
            sum(map(len, solver.watches)),
            sum(map(len, solver.linear_watches)),
        )

    solver.restore()
    checkpoint = size()
    assert checkpoint[0] == solver._checkpoint.num_vars
    for spec in specs[2:]:
        session.concretize(spec)
    assert template.checkouts == 20
    assert size() != checkpoint  # the last delta is still loaded
    solver.restore()
    assert size() == checkpoint


#: the solver's work on three specs of one session (plain path, template
#: build, template reuse), recorded before the search loop was fused: the
#: fused solver must make exactly the same search, and so must completion
#: and the optimizer, which decide the order of clauses and bound constraints
TRAJECTORY_PIN = {
    "example": dict(decisions=664, conflicts=2, propagations=16865, solve_calls=12),
    "example~bzip ^mpich@3.1": dict(
        decisions=375, conflicts=0, propagations=8078, solve_calls=15
    ),
    "example ^zlib~pic": dict(decisions=663, conflicts=2, propagations=16841, solve_calls=14),
}


def test_search_trajectory_is_pinned(micro_repo):
    session = new_session(micro_repo)
    for spec, expected in TRAJECTORY_PIN.items():
        solver = session.concretize(spec).statistics["solver"]
        assert {key: solver[key] for key in expected} == expected, spec


def test_other_solver_settings_take_the_plain_path(micro_repo):
    session = new_session(micro_repo)
    session.solve(FAMILY[:2])
    (template,) = templates(session)
    tweety = outcome(session, FAMILY[2])
    assert template.checkouts == 2
    trendy = session.concretize(FAMILY[3], preset=SolverPreset.from_value("trendy"))
    assert template.checkouts == 2
    assert trendy.spec.concrete
    assert outcome(session, FAMILY[4])[0] == outcome(new_session(micro_repo), FAMILY[4])[0]
    assert template.checkouts == 3
    assert tweety == outcome(new_session(micro_repo), FAMILY[2])


@pytest.mark.slow
def test_solver_heavy_family_sample_matches_plain_path(monkeypatch):
    """Ten specs of the synth-0296 family on the 320-package solver-heavy
    catalog: the workload the template exists for."""
    repo = SyntheticRepoBuilder(
        num_packages=320, max_dependencies=6, layers=6, seed=7
    ).build()
    root = repo.get("synth-0296")
    closure = sorted(
        name for name in repo.possible_dependencies("synth-0296")
        if name != "synth-0296" and repo.exists(name) and repo.get(name).variants
    )
    variants = sorted(root.variants)
    specs = []
    for index in range(10):
        dep = closure[(7 * index) % len(closure)]
        flags = "".join(
            ("+" if (index >> bit) & 1 else "~") + name for bit, name in enumerate(variants)
        )
        dep_variant = sorted(repo.get(dep).variants)[0]
        specs.append(f"synth-0296{flags} ^{dep}{'+~'[index % 2]}{dep_variant}")

    session = new_session(repo)
    with_template = outcomes(session, specs)
    assert templates(session)[0].checkouts == len(specs) - 1
    refuse_checkouts(monkeypatch)
    assert outcomes(new_session(repo), specs) == with_template
