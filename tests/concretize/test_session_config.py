"""SessionConfig: one frozen config object instead of constructor sprawl.

The contract under test (ISSUE 9 satellite):

* every tuning knob the sessions accept lives in one frozen, validated
  :class:`~repro.spack.concretize.config.SessionConfig`;
* the legacy loose kwargs (``workers=``, ``cache_dir=``, ...) keep working
  through a documented mapping — each emits a :class:`DeprecationWarning`
  and overrides the corresponding config field;
* unknown kwargs still fail fast with a normal ``TypeError`` shape;
* :class:`ParallelConcretizationSession` keeps ``workers`` as a
  first-class (non-deprecated) parameter, applied via ``replace()``;
* the async session and the HTTP service accept the same object.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.asp.configs import SolverConfig
from repro.asp.control import PreparedProgram
from repro.spack.concretize import SessionConfig
from repro.spack.concretize.async_session import AsyncConcretizationSession
from repro.spack.concretize.config import LEGACY_SESSION_KWARGS
from repro.spack.concretize.session import (
    ConcretizationSession,
    ParallelConcretizationSession,
    clear_shared_bases,
)
from repro.spack.service import ConcretizationService


def make_session(repo, **kwargs):
    clear_shared_bases()
    return ConcretizationSession(repo=repo, **kwargs)


# ---------------------------------------------------------------------------
# The config object itself
# ---------------------------------------------------------------------------


def test_config_is_frozen_and_validated():
    config = SessionConfig(workers=2, cache_dir="/tmp/x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.workers = 4
    with pytest.raises(ValueError):
        SessionConfig(workers=0)
    with pytest.raises(ValueError):
        SessionConfig(worker_backend="carrier-pigeon")
    with pytest.raises(ValueError):
        SessionConfig(max_concurrency=0)


def test_replace_returns_a_new_validated_config():
    base = SessionConfig()
    bumped = base.replace(workers=3)
    assert bumped.workers == 3
    assert base.workers == 1  # the original is untouched
    with pytest.raises(ValueError):
        base.replace(workers=-1)


def test_legacy_mapping_covers_every_field():
    field_names = {f.name for f in dataclasses.fields(SessionConfig)}
    assert set(LEGACY_SESSION_KWARGS.values()) == field_names


# ---------------------------------------------------------------------------
# Sessions accept the config (and the legacy kwargs, with warnings)
# ---------------------------------------------------------------------------


def test_session_accepts_session_config(micro_repo):
    session = make_session(
        micro_repo,
        session_config=SessionConfig(workers=2, join_strategy="naive", profile=True),
    )
    assert session.workers == 2
    assert session.join_strategy == "naive"
    assert session.session_config.profile is True


def test_legacy_kwargs_warn_and_apply(micro_repo):
    with pytest.warns(DeprecationWarning, match="workers"):
        session = make_session(micro_repo, workers=2)
    assert session.workers == 2
    assert session.session_config.workers == 2


def test_legacy_kwargs_override_session_config(micro_repo):
    with pytest.warns(DeprecationWarning, match="join_strategy"):
        session = make_session(
            micro_repo,
            session_config=SessionConfig(join_strategy="indexed"),
            join_strategy="naive",
        )
    assert session.join_strategy == "naive"


def test_unknown_kwarg_raises_type_error(micro_repo):
    with pytest.raises(TypeError, match="unexpected keyword argument 'warp_speed'"):
        make_session(micro_repo, warp_speed=9)


# ---------------------------------------------------------------------------
# A config object under the wrong keyword fails at construction
# ---------------------------------------------------------------------------


def test_session_rejects_swapped_configs(micro_repo):
    with pytest.raises(TypeError, match="pass a SessionConfig as session_config="):
        ConcretizationSession(repo=micro_repo, config=SessionConfig())
    with pytest.raises(TypeError, match="pass a SolverConfig as config="):
        ConcretizationSession(repo=micro_repo, session_config=SolverConfig())


def test_async_session_rejects_swapped_configs(micro_repo):
    with pytest.raises(TypeError, match="AsyncConcretizationSession: config= .*session_config="):
        AsyncConcretizationSession(repo=micro_repo, config=SessionConfig())
    with pytest.raises(TypeError, match="pass a SolverConfig as config="):
        AsyncConcretizationSession(repo=micro_repo, session_config=SolverConfig())


def test_service_rejects_swapped_configs(micro_repo):
    with pytest.raises(TypeError, match=r"session_kwargs\['config'\] .*session_config="):
        ConcretizationService(micro_repo, session_kwargs={"config": SessionConfig()})
    with pytest.raises(TypeError, match=r"pass a SolverConfig as session_kwargs\['config'\]"):
        ConcretizationService(micro_repo, session_config=SolverConfig())


def test_prepared_program_rejects_a_session_config():
    with pytest.raises(TypeError, match="PreparedProgram: config= takes a SolverConfig"):
        PreparedProgram("a.", config=SessionConfig())


def test_config_only_construction_emits_no_warnings(micro_repo):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = make_session(micro_repo, session_config=SessionConfig(workers=2))
    assert session.workers == 2


def test_parallel_session_workers_is_first_class(micro_repo):
    clear_shared_bases()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = ParallelConcretizationSession(repo=micro_repo, workers=2)
    assert session.workers == 2
    # and it composes with an explicit config
    clear_shared_bases()
    session = ParallelConcretizationSession(
        repo=micro_repo,
        workers=3,
        session_config=SessionConfig(join_strategy="naive"),
    )
    assert session.workers == 3
    assert session.join_strategy == "naive"


def test_async_session_inherits_config_max_concurrency(micro_repo):
    clear_shared_bases()
    async_session = AsyncConcretizationSession(
        repo=micro_repo, session_config=SessionConfig(max_concurrency=3)
    )
    assert async_session.max_concurrency == 3
