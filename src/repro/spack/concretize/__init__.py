"""Concretizers: the ASP-based solver (the paper's contribution) and the
original greedy baseline.

* :class:`repro.spack.concretize.concretizer.Concretizer` — drives the ASP
  pipeline: encode facts (setup), load the logic program, ground, solve,
  extract a concrete Spec DAG (Section V of the paper), with optional reuse of
  installed packages (Section VI).
* :class:`repro.spack.concretize.original.OriginalConcretizer` — the greedy
  fixed-point algorithm Spack used before, which is neither complete nor
  optimal (Section III-C); used as the baseline in Figure 7h and in the
  usability comparisons of Section VI-B.
* :class:`repro.spack.concretize.session.ConcretizationSession` — batch
  concretization: many root specs against one shared, incrementally layered
  grounding, with content-hash-keyed ground and solve caches.  All tuning
  rides in one frozen :class:`repro.spack.concretize.config.SessionConfig`:
  ``SessionConfig(workers=N)`` (or
  :class:`repro.spack.concretize.session.ParallelConcretizationSession`)
  fans per-spec solves out to a worker pool over the shared base, and
  ``SessionConfig(cache_dir=...)`` persists the solve cache and mmap-able
  ground *snapshots*, which a second process attaches near zero-copy, on
  disk across processes (see ``docs/ARCHITECTURE.md`` and
  ``docs/CACHING.md``).
* :class:`repro.spack.concretize.async_session.AsyncConcretizationSession` —
  the ``asyncio`` front-end over the same machinery: ``await
  session.concretize(spec)``, ``concretize_batch()``, and an
  ``as_completed()`` streaming API that yields results in completion order
  with bounded concurrency and clean cancellation.
* :func:`repro.spack.concretize.explain.explain_unsat` — the minimal
  conflict core behind every
  :class:`~repro.spack.errors.UnsatisfiableSpecError`.
"""

from repro.spack.concretize.async_session import AsyncConcretizationSession
from repro.spack.concretize.concretizer import ConcretizationResult, Concretizer
from repro.spack.concretize.config import SessionConfig
from repro.spack.concretize.criteria import CRITERIA, Criterion, describe_costs
from repro.spack.concretize.explain import ConstraintProvenance, explain_unsat
from repro.spack.concretize.original import OriginalConcretizer
from repro.spack.concretize.session import (
    ConcretizationSession,
    ParallelConcretizationSession,
    SessionStatistics,
    compute_content_hash,
    default_worker_count,
)

__all__ = [
    "CRITERIA",
    "AsyncConcretizationSession",
    "ConcretizationResult",
    "ConcretizationSession",
    "Concretizer",
    "ConstraintProvenance",
    "Criterion",
    "OriginalConcretizer",
    "ParallelConcretizationSession",
    "SessionConfig",
    "SessionStatistics",
    "compute_content_hash",
    "default_worker_count",
    "describe_costs",
    "explain_unsat",
]
