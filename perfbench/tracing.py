"""Out-of-process-boundary tracing for the traced benchmark run.

Nothing here edits the program: spans are recorded by wrappers that the
benchmark installs around the public entry points of each ``repro`` layer,
on every name a caller resolves (a function imported into several modules
is replaced in each of them).  Spans carry the id of the benchmark op that
caused them, their parent span, and counts read from the layer's return
value or statistics.  They stay in memory and are written out when the run
ends.  A layer's self time is its span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

_current_span: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_current_op: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "counts", "nested")

    def __init__(self, name: str, op, parent: Optional["Span"]):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.counts: Dict[str, float] = {}
        #: re-entry of the same layer (e.g. a cache subclass calling its base)
        self.nested = parent is not None and parent.name == name

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration - self.child_s)


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------

    def start(self, name: str) -> Span:
        parent = _current_span.get()
        op = parent.op if parent is not None else _current_op.get()
        span = Span(name, op, parent)
        span.start = time.perf_counter()
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            if span.parent is not None:
                span.parent.child_s += span.duration
            self.spans.append(span)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span named ``name``; ``after(span, args,
        result)`` adds counts once the call returned."""
        tracer = self

        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span = tracer.start(name)
                token = _current_span.set(span)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _current_span.reset(token)
                    tracer.finish(span)
                if after is not None:
                    after(span, args, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.start(name)
            token = _current_span.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                _current_span.reset(token)
                tracer.finish(span)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def patch_function(self, module_name: str, attr: str, name: str, after=None) -> int:
        """Wrap ``module.attr`` and every ``repro`` module global bound to
        the same object; returns how many names were replaced."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(name, original, after)
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
                    self._restore.append(functools.partial(namespace.__setitem__, key, original))
                    replaced += 1
        return replaced

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, after))
        else:
            wrapped = self.wrap(name, raw, after)
        setattr(cls, attr, wrapped)
        self._restore.append(functools.partial(setattr, cls, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output --------------------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "id": i,
                "op": span.op,
                "name": span.name,
                "parent": index.get(id(span.parent)),
                "nested": span.nested,
                "start": span.start,
                "end": span.end,
                "self_s": span.self_s,
                "counts": span.counts,
            }
            for i, span in enumerate(self.spans)
        ]


def write_records(path: str, records: List[Dict[str, object]]) -> None:
    """Write span records as JSON lines."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


@contextlib.contextmanager
def op_scope(tracer: Optional[Tracer], op_id):
    """One benchmark op: an ``op`` span that every span inside inherits
    ``op_id`` from (a no-op without a tracer)."""
    if tracer is None:
        yield
        return
    op_token = _current_op.set(op_id)
    span = tracer.start("op")
    span_token = _current_span.set(span)
    try:
        yield
    finally:
        _current_span.reset(span_token)
        tracer.finish(span)
        _current_op.reset(op_token)


# ---------------------------------------------------------------------------
# The layer map: which entry point belongs to which layer
# ---------------------------------------------------------------------------

def _ground_stats(span, program) -> None:
    stats = program.statistics()
    span.counts["atoms"] = stats.get("atoms", 0)
    span.counts["rules"] = (
        stats.get("normal_rules", 0) + stats.get("choice_rules", 0) + stats.get("constraints", 0)
    )


_SEARCH_KEYS = ("conflicts", "decisions", "propagations", "restarts", "solve_calls")


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the workloads exercise."""
    import repro.asp.completion  # noqa: F401 - patch_function looks it up in sys.modules
    from repro.asp.control import Control, PreparedProgram
    from repro.asp.optimization import Optimizer
    from repro.asp.snapshot import GroundSnapshot
    from repro.spack.concretize.async_session import AsyncConcretizationSession
    from repro.spack.concretize.encoder import ProblemEncoder
    from repro.spack.concretize.session import ConcretizationSession
    from repro.spack.store import PersistentSolveCache, SolveCache

    tracer.patch_function("repro.spack.spec_parser", "parse_spec", "spec_parser")

    def encoder_wrapper(attr, with_candidates):
        raw = ProblemEncoder.__dict__[attr]

        @functools.wraps(raw)
        def traced(self, *args, **kwargs):
            span = tracer.start("encoder")
            before = len(self.facts)
            token = _current_span.set(span)
            try:
                return raw(self, *args, **kwargs)
            finally:
                _current_span.reset(token)
                tracer.finish(span)
                span.counts["facts"] = len(self.facts) - before
                if with_candidates:
                    span.counts["installed_candidates"] = self.stats.installed_candidates

        setattr(ProblemEncoder, attr, traced)
        tracer._restore.append(functools.partial(setattr, ProblemEncoder, attr, raw))

    encoder_wrapper("encode", True)
    encoder_wrapper("encode_base", True)
    encoder_wrapper("encode_base_layers", True)
    encoder_wrapper("encode_delta", False)

    tracer.patch_method(
        Control, "ground", "grounder.base", after=lambda s, a, r: _ground_stats(s, r)
    )
    tracer.patch_method(
        PreparedProgram, "__init__", "grounder.base",
        after=lambda s, a, r: _ground_stats(s, a[0].base_ground_program),
    )
    tracer.patch_method(
        PreparedProgram, "extend", "grounder.base",
        after=lambda s, a, r: _ground_stats(s, r.base_ground_program),
    )
    tracer.patch_method(
        PreparedProgram, "fork", "grounder.delta",
        after=lambda s, a, r: _ground_stats(s, r.ground_program),
    )

    def after_complete(span, args, result):
        stats = result.solver.statistics()
        span.counts["clauses"] = stats.get("clauses", 0)
        span.counts["vars"] = stats.get("variables", 0)
        # search counts are reported net of what completion already did
        result._perfbench_baseline = {key: stats.get(key, 0) for key in _SEARCH_KEYS}

    tracer.patch_function("repro.asp.completion", "complete", "completion", after=after_complete)

    def after_optimize(span, args, result):
        optimizer = args[0]
        stats = optimizer.completed.solver.statistics()
        baseline = getattr(optimizer.completed, "_perfbench_baseline", {})
        for key in _SEARCH_KEYS:
            span.counts[key] = stats.get(key, 0) - baseline.get(key, 0)
        span.counts["models_found"] = optimizer.models_found

    tracer.patch_method(Optimizer, "optimize", "search", after=after_optimize)

    for attr in ("extract_specs", "root_specs", "built_and_reused"):
        tracer.patch_function("repro.spack.concretize.extract", attr, "extract")
    tracer.patch_function("repro.spack.concretize.explain", "explain_unsat", "explain")

    def after_get(span, args, result):
        span.counts["lookups"] = 1
        span.counts["hits"] = 0 if result is None else 1

    for cls in (SolveCache, PersistentSolveCache):
        tracer.patch_method(cls, "get", "cache.solve_read", after=after_get)
        tracer.patch_method(cls, "put", "cache.solve_write")
    tracer.patch_method(GroundSnapshot, "attach", "cache.snapshot_attach")
    tracer.patch_method(GroundSnapshot, "materialize", "cache.snapshot_attach")

    tracer.patch_method(ConcretizationSession, "solve", "session")
    tracer.patch_method(AsyncConcretizationSession, "concretize_batch", "session")


def install_service_layers(tracer: Tracer) -> None:
    """Service-process spans: the request core, with its op id taken from
    the request's ``X-Request-Id`` header, and context propagation across
    the service's event loop and executor threads so inner spans keep the
    op id and parent of the request that caused them."""
    from repro.spack.service.app import ConcretizationService
    from repro.spack.service.http import ConcretizationRequestHandler

    raw_post = ConcretizationRequestHandler.__dict__["do_POST"]

    @functools.wraps(raw_post)
    def do_post(self):
        token = _current_op.set(self.headers.get("X-Request-Id"))
        try:
            return raw_post(self)
        finally:
            _current_op.reset(token)

    ConcretizationRequestHandler.do_POST = do_post
    tracer._restore.append(
        functools.partial(setattr, ConcretizationRequestHandler, "do_POST", raw_post)
    )

    raw_submit = ConcretizationService.__dict__["_submit"]

    @functools.wraps(raw_submit)
    def submit(self, coro):
        span, op = _current_span.get(), _current_op.get()

        async def with_context():
            _current_span.set(span)
            _current_op.set(op)
            return await coro

        return raw_submit(self, with_context())

    ConcretizationService._submit = submit
    tracer._restore.append(functools.partial(setattr, ConcretizationService, "_submit", raw_submit))

    raw_executor = asyncio.BaseEventLoop.run_in_executor

    def run_in_executor(self, executor, func, *args):
        return raw_executor(self, executor, contextvars.copy_context().run, func, *args)

    asyncio.BaseEventLoop.run_in_executor = run_in_executor
    tracer._restore.append(
        functools.partial(setattr, asyncio.BaseEventLoop, "run_in_executor", raw_executor)
    )

    def after_core(span, args, result):
        span.counts["ok"] = 1

    tracer.patch_method(ConcretizationService, "concretize", "service.core", after=after_core)
