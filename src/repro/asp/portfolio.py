"""A racing solver portfolio: several CDCL presets, first answer wins.

CDCL runtime is notoriously sensitive to the decision heuristic and restart
schedule: the same ground program can solve in milliseconds under one preset
and wander for seconds under another, and which preset wins varies per
instance.  A *portfolio* sidesteps preset roulette by racing 2–4
:class:`~repro.asp.configs.SolverPreset` configurations over the same ground
program on separate ``fork``-ed processes and taking the first full answer
(clasp's ``--parallel-mode`` races configurations the same way).

Determinism: racing only makes sense when the *extracted answer* does not
depend on who wins.  The concretizer's optimization criteria pin the optimum
down to a unique model in practice, and ``tests/concretize/test_portfolio.py``
asserts exactly that — every portfolio preset yields identical specs, costs,
and unsat cores — so first-answer-wins changes wall time, never results.
Unsatisfiable outcomes additionally re-derive their minimal conflict core
through the deterministic MUS path (:mod:`repro.spack.concretize.explain`),
which is preset-independent by construction.

Degradation: anywhere a race cannot run (no ``fork`` start method, a single
preset, process spawn failure, or a child dying without reporting) the solve
falls back to an in-process sequential solve under the primary (first)
preset.  A portfolio therefore never *fails* differently from a sequential
solve — it only sometimes answers sooner.

The portfolio is explicitly **not** used inside parallel-session pool
workers: those are already one process per solve, and nesting process pools
multiplies memory for no scheduling win (sessions disable it on the worker
path).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
from typing import Optional, Sequence, Tuple

from repro.asp.configs import PORTFOLIO_PRESETS, SolverPreset
from repro.asp.stats import ASPStats

__all__ = ["PortfolioSolver", "resolve_presets"]

#: how long (seconds) to keep waiting for a straggler child that is still
#: alive but has not reported; purely a liveness poll interval, not a cap on
#: solve time
_POLL_INTERVAL = 0.05
#: grace period for draining a result a finished child may still be flushing
_DRAIN_TIMEOUT = 0.25


def resolve_presets(value) -> Tuple[SolverPreset, ...]:
    """Coerce a portfolio spec into a tuple of validated presets.

    ``True`` → the default 4-preset lineup; an ``int n`` → the first ``n``
    of the lineup (capped, min 1); a sequence → each item through
    :meth:`SolverPreset.from_value`.  ``False``/``None``/empty → ``()``
    (portfolio disabled).
    """
    if not value:
        return ()
    if value is True:
        return PORTFOLIO_PRESETS
    if isinstance(value, int):
        return PORTFOLIO_PRESETS[: max(1, min(value, len(PORTFOLIO_PRESETS)))]
    return tuple(SolverPreset.from_value(item) for item in value)


def _race(result_queue, control, index: int, preset: SolverPreset):
    """Child body: solve under one preset and report (index, ok, payload)."""
    try:
        control.preset = preset
        result = control.solve()
        result_queue.put((index, True, result))
    except BaseException as error:  # report, never hang the race
        try:
            result_queue.put((index, False, repr(error)))
        except Exception:
            pass


class PortfolioSolver:
    """Races solver presets over a ready-to-solve :class:`Control`.

    The control must already hold its ground program (sessions fork it from
    a prepared base first); :meth:`solve` then either races ``fork``-ed
    children over it or, when racing is impossible, solves in-process under
    the primary preset.
    """

    def __init__(
        self,
        presets: Sequence[SolverPreset] = (),
        stats: Optional[ASPStats] = None,
    ):
        resolved = tuple(presets) or PORTFOLIO_PRESETS
        self.presets = tuple(SolverPreset.from_value(p) for p in resolved)
        self.stats = stats

    def available(self) -> bool:
        """True when an actual race can run on this platform."""
        return (
            len(self.presets) > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )

    def _sequential(self, control):
        """In-process fallback: the primary preset, no race."""
        if self.stats is not None:
            self.stats.count("portfolio.sequential_fallbacks")
        control.preset = self.presets[0]
        return control.solve()

    def solve(self, control):
        """Solve ``control``'s ground program, racing the presets.

        Returns the winning child's :class:`~repro.asp.control.SolveResult`
        verbatim (models pickle across the queue).  Losing children are
        terminated as soon as the winner reports.
        """
        # races (and their sequential fallback) complete on the plain path
        control.template = None
        if not self.available():
            return self._sequential(control)

        context = multiprocessing.get_context("fork")
        result_queue = context.Queue()
        processes = []
        try:
            try:
                for index, preset in enumerate(self.presets):
                    process = context.Process(
                        target=_race,
                        args=(result_queue, control, index, preset),
                        daemon=True,
                    )
                    process.start()
                    processes.append(process)
            except (OSError, ValueError, RuntimeError):
                # could not spawn the full lineup: abort the race entirely
                # (a partial race is just overhead) and solve sequentially
                return self._race_failed(control, processes, result_queue)

            winner = self._await_winner(processes, result_queue)
            if winner is None:
                return self._race_failed(control, processes, result_queue)
            index, ok, payload = winner
            if not ok:
                # the fastest child *errored*; a preset-dependent crash would
                # make first-answer-wins nondeterministic, so never surface
                # it — re-solve sequentially and let the real error (if any)
                # propagate deterministically
                return self._race_failed(control, processes, result_queue)
            if self.stats is not None:
                name = self.presets[index].name or f"preset-{index}"
                self.stats.count("portfolio.races")
                self.stats.count(f"portfolio.wins.{name}")
            return payload
        finally:
            self._reap(processes, result_queue)

    # ------------------------------------------------------------------

    def _await_winner(self, processes, result_queue):
        """First reported result, or None if every child died silently."""
        while True:
            try:
                return result_queue.get(timeout=_POLL_INTERVAL)
            except queue_module.Empty:
                if any(process.is_alive() for process in processes):
                    continue
                # all children exited; drain anything still in flight
                try:
                    return result_queue.get(timeout=_DRAIN_TIMEOUT)
                except queue_module.Empty:
                    return None

    def _race_failed(self, control, processes, result_queue):
        self._reap(processes, result_queue)
        return self._sequential(control)

    def _reap(self, processes, result_queue):
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5)
        # unblock the queue's feeder thread so interpreter shutdown is clean
        try:
            result_queue.close()
            result_queue.join_thread()
        except Exception:
            pass
