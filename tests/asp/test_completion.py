"""Completion in two parts, and the solver template that reuses the first.

A :class:`~repro.asp.control.PreparedProgram` fork completes its base part
once per template and only its delta part per solve.  The delta may add
support to base atoms, extend a base ``#minimize`` key with new conditions,
or make a key unconditional; each solve must match the plain path exactly
and agree on the optimum with a one-shot solve of the whole program.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.asp.completion import SolverTemplate, complete
from repro.asp.control import Control, PreparedProgram

PROGRAM = """
{ pick(X) } :- item(X).
picked :- pick(X).
:- not picked.
alt(X) :- item(X), bonus(X), not pick(X).
#minimize { W@1,X : pick(X), weight(X,W) ; 1@1,X : alt(X) ; 1@1,X : pick(X), heavy(X) }.
#minimize { 5@2,flag : flagged ; 5@2,flag : urgent }.
flagged :- pick(X), hot(X).
urgent :- trigger.
"""

BASE = [
    ("item", "a"), ("item", "b"), ("item", "c"),
    ("weight", "a", 1), ("weight", "b", 1), ("weight", "c", 2),
    ("hot", "b"), ("heavy", "c"),
]

DELTAS = [
    [],
    [("bonus", "a")],  # extends the key (1, 1, a) with the condition alt(a)
    [("trigger",), ("hot", "a"), ("hot", "c")],  # the key (2, 5, flag) becomes
    # unconditional while flagged is forced: it still counts once
    [("item", "d"), ("weight", "d", 1), ("hot", "d")],  # new support for flagged
    [("bonus", "b"), ("hot", "a"), ("heavy", "a")],
]


def answer(result):
    return (
        result.satisfiable,
        result.costs,
        sorted(result.model.atoms()) if result.satisfiable else None,
        result.statistics["solver"],
    )


def one_shot_costs(facts):
    control = Control()
    control.load(PROGRAM)
    control.add_facts(facts)
    result = control.solve()
    return result.costs if result.satisfiable else None


def solve_all(deltas, checkout=True):
    prepared = PreparedProgram(PROGRAM, BASE)
    answers = []
    for delta in deltas:
        control = prepared.fork(delta)
        if not checkout:
            control.template = None
        answers.append(answer(control.solve()))
    return prepared, answers


def test_template_path_matches_plain_path_and_one_shot():
    prepared, with_template = solve_all(DELTAS)
    assert prepared.template.checkouts == len(DELTAS) - 1
    _, plain = solve_all(DELTAS, checkout=False)
    assert with_template == plain
    for delta, entry in zip(DELTAS, with_template):
        assert entry[1] == one_shot_costs(BASE + delta)
    assert with_template[2][1][2] == 5


def test_plain_complete_runs_both_parts_on_one_program():
    control = Control()
    control.load(PROGRAM)
    control.add_facts(BASE + DELTAS[1])
    program = control.ground()
    whole = complete(program)
    split = complete(program, base=program)
    assert whole.solver.statistics() == split.solver.statistics()
    assert whole.objectives == split.objectives


def test_busy_template_falls_back_to_the_plain_path():
    prepared = PreparedProgram(PROGRAM, BASE)
    prepared.fork().solve()
    first = prepared.fork(DELTAS[1])
    second = prepared.fork(DELTAS[3])
    template = first.template
    assert template is second.template
    template._lock.acquire()  # as if another thread held it
    try:
        busy = answer(second.solve())
    finally:
        template._lock.release()
    assert template.checkouts == 0
    assert answer(first.solve()) == solve_all([DELTAS[1]], checkout=False)[1][0]
    assert busy == solve_all([DELTAS[3]], checkout=False)[1][0]
    assert template.checkouts == 1


def test_threads_hammering_one_template():
    """More threads than cores solve forks of one base at once, with a short
    switch interval: every answer matches the plain path, and every solve
    either checked the template out or fell back."""
    prepared = PreparedProgram(PROGRAM, BASE)
    prepared.fork().solve()
    expected = solve_all(DELTAS, checkout=False)[1]
    answers = []
    fallbacks = []
    checkout = SolverTemplate.checkout

    def counting_checkout(self, program, solver):
        ok = checkout(self, program, solver)
        if not ok:
            fallbacks.append(1)
        return ok

    def worker():
        for index in range(len(DELTAS)):
            answers.append((index, answer(prepared.fork(DELTAS[index]).solve())))

    interval = sys.getswitchinterval()
    SolverTemplate.checkout = counting_checkout
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        SolverTemplate.checkout = checkout
    assert not any(thread.is_alive() for thread in threads)
    assert len(answers) == 6 * len(DELTAS)
    assert all(entry == expected[index] for index, entry in answers)
    template = prepared.template
    assert template.checkouts + len(fallbacks) == len(answers)
    assert template.checkouts > 0
    assert not template._lock.locked()


_fact = st.sampled_from(
    [("bonus", x) for x in "abcd"]
    + [("hot", x) for x in "abcd"]
    + [("heavy", x) for x in "abcd"]
    + [("item", "d"), ("weight", "d", 1), ("weight", "d", 3), ("trigger",)]
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(_fact, max_size=5, unique=True), min_size=1, max_size=4))
def test_random_deltas_match_plain_path_and_one_shot(deltas):
    _, with_template = solve_all(deltas)
    _, plain = solve_all(deltas, checkout=False)
    assert with_template == plain
    for delta, entry in zip(deltas, with_template):
        assert (entry[1] if entry[0] else None) == one_shot_costs(BASE + delta)
