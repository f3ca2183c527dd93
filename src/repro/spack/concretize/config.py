"""The public session configuration: one frozen object, every knob.

:class:`~repro.spack.concretize.session.ConcretizationSession` grew its
execution knobs one keyword at a time — workers, backends, cache
directories, disk budgets, join strategies, profiling, portfolios, snapshot
behaviour.  Threading a dozen keyword arguments through every front-end
(sync session, async session, HTTP service, CLI) made each new knob an
N-signature change.  :class:`SessionConfig` collapses them into a single
frozen dataclass that all front-ends accept via ``session_config=``::

    config = SessionConfig(workers=4, cache_dir="/var/cache/concretize")
    session = ConcretizationSession(repo, session_config=config)
    service = ConcretizationService(catalogs, session_config=config)

The legacy keyword arguments keep working — each maps 1:1 onto a
:class:`SessionConfig` field (see :data:`LEGACY_SESSION_KWARGS`) and emits a
:class:`DeprecationWarning` pointing at the replacement — so existing
callers migrate on their own schedule.  Mixing is allowed: explicit legacy
kwargs override the corresponding ``session_config`` fields (the warning
still fires).

``SessionConfig`` is immutable (hashable whenever its ``portfolio`` value
is), so it is safe to share one instance across sessions, services, and
threads; derive variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Sequence, Union

from repro.asp.configs import SolverConfig, require_solver_config

__all__ = [
    "SessionConfig",
    "LEGACY_SESSION_KWARGS",
    "check_config_types",
    "resolve_session_config",
]


@dataclass(frozen=True)
class SessionConfig:
    """Execution configuration shared by every concretization front-end.

    Grouped by concern (each field mirrors one legacy keyword argument of
    :class:`~repro.spack.concretize.session.ConcretizationSession`; the
    async session and the service accept the same object):

    *Parallelism*

    * ``workers`` — solver workers per batch: ``1`` (sequential, default),
      ``N > 1`` (pool fan-out), or ``"auto"`` (scheduler-visible CPU count);
    * ``worker_backend`` — ``"process"``, ``"thread"``, or ``"auto"``
      (processes wherever ``fork`` exists);
    * ``max_concurrency`` — async front-end only: the semaphore bound on
      simultaneously leased workers (``None`` derives it from ``workers``).

    *Persistence*

    * ``cache_dir`` — directory for the persistent solve/ground/snapshot
      layers; ``None`` (default) stays purely in-memory;
    * ``persist_ground`` — set False to keep the solve cache on disk but
      skip persisting grounded bases;
    * ``snapshots`` — set False to skip the flat mmap-able ground snapshots
      (``cache_dir`` then persists pickled bases only; see
      ``docs/CACHING.md``);
    * ``cache_max_entries`` / ``cache_max_bytes`` — LRU disk budgets,
      applied to each persistent layer;
    * ``share_ground_cache`` — set False to opt out of the process-wide
      in-memory grounded-base memo.

    *Solver behaviour*

    * ``join_strategy`` — ``"indexed"`` (default) or ``"naive"`` (the
      reference oracle grounder);
    * ``profile`` — ``True`` for per-stage grounding/solving timers,
      ``"rules"`` to also time each rule;
    * ``portfolio`` — race CDCL presets per solve: ``True`` for the default
      lineup, an int for the first ``n`` presets, or a sequence of preset
      values.
    """

    workers: Union[int, str] = 1
    worker_backend: str = "auto"
    max_concurrency: Optional[int] = None
    cache_dir: Optional[str] = None
    persist_ground: bool = True
    snapshots: bool = True
    cache_max_entries: Optional[int] = None
    cache_max_bytes: Optional[int] = None
    share_ground_cache: bool = True
    join_strategy: str = "indexed"
    profile: Union[bool, str] = False
    portfolio: Union[bool, int, Sequence] = field(default=False)

    def __post_init__(self):
        if self.workers != "auto" and int(self.workers) < 1:
            raise ValueError(f"workers must be >= 1 or 'auto', got {self.workers!r}")
        if self.worker_backend not in ("auto", "process", "thread"):
            raise ValueError(f"unknown worker backend: {self.worker_backend!r}")
        if self.max_concurrency is not None and int(self.max_concurrency) < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {self.max_concurrency!r}"
            )

    def replace(self, **changes) -> "SessionConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)


#: Legacy constructor keyword -> :class:`SessionConfig` field.  Every entry
#: is accepted (with a :class:`DeprecationWarning`) by the session, async
#: session, and service constructors; this table *is* the documented
#: migration map (see the README migration note).
LEGACY_SESSION_KWARGS: Dict[str, str] = {
    "workers": "workers",
    "worker_backend": "worker_backend",
    "max_concurrency": "max_concurrency",
    "cache_dir": "cache_dir",
    "persist_ground": "persist_ground",
    "snapshots": "snapshots",
    "cache_max_entries": "cache_max_entries",
    "cache_max_bytes": "cache_max_bytes",
    "share_ground_cache": "share_ground_cache",
    "join_strategy": "join_strategy",
    "profile": "profile",
    "portfolio": "portfolio",
}

_FIELD_NAMES = frozenset(f.name for f in fields(SessionConfig))
assert frozenset(LEGACY_SESSION_KWARGS.values()) == _FIELD_NAMES


def resolve_session_config(
    session_config: Optional[SessionConfig],
    legacy: Dict[str, object],
    owner: str,
    stacklevel: int = 3,
) -> SessionConfig:
    """Merge ``session_config`` with legacy keyword arguments.

    ``legacy`` is the constructor's captured ``**kwargs``; every key must
    appear in :data:`LEGACY_SESSION_KWARGS` (anything else raises
    :class:`TypeError`, preserving the old signature's strictness).  Each
    legacy kwarg emits a :class:`DeprecationWarning` naming the
    :class:`SessionConfig` replacement and overrides the corresponding
    field of ``session_config`` (or of the default config when none was
    given).
    """
    overrides: Dict[str, object] = {}
    for name, value in legacy.items():
        target = LEGACY_SESSION_KWARGS.get(name)
        if target is None:
            raise TypeError(
                f"{owner}() got an unexpected keyword argument {name!r}"
            )
        warnings.warn(
            f"{owner}({name}=...) is deprecated; pass "
            f"session_config=SessionConfig({target}=...) instead",
            DeprecationWarning,
            stacklevel=stacklevel,
        )
        overrides[target] = value
    check_config_types(owner, session_config=session_config)
    base = session_config if session_config is not None else SessionConfig()
    return replace(base, **overrides) if overrides else base


def check_config_types(
    owner: str,
    config=None,
    session_config=None,
    config_keyword: str = "config=",
) -> None:
    """Reject a config object under the wrong keyword at construction.

    ``config`` (named ``config_keyword`` in messages) must be a
    :class:`~repro.asp.configs.SolverConfig` and ``session_config`` a
    :class:`SessionConfig`; the two are easy to swap, and a swapped one
    used to fail with an AttributeError in the middle of the first solve.
    The TypeError names the keyword the object belongs to.
    """
    hint = "; pass a SessionConfig as session_config=" if isinstance(config, SessionConfig) else ""
    require_solver_config(config, owner, hint, keyword=config_keyword)
    if session_config is not None and not isinstance(session_config, SessionConfig):
        hint = (
            f"; pass a SolverConfig as {config_keyword}"
            if isinstance(session_config, SolverConfig)
            else ""
        )
        raise TypeError(
            f"{owner}: session_config= takes a SessionConfig, "
            f"got {type(session_config).__name__}{hint}"
        )
