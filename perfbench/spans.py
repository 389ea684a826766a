"""Spans recorded from outside the program, around each layer's entry points.

:func:`install` rebinds the public entry points of the serving stack
(and the two server helpers a request passes through) to timed
wrappers, before the server is built.  Each call records a span: its
name, the name of the span that caused it on the same thread, start and
end on the system-wide monotonic clock (so the client process can cut
spans to its load window), and self time, which is the duration less
the time of the span's children.  Spans stay in memory and are written
out once, when the server has shut down.

Names bound with ``from x import y`` are rebound where the caller looks
them up (``repro.service.session.make_delta_state`` and ``sort_pairs``).
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from functools import wraps

# (span name, "module" or "module:Class", attribute), one line per entry
# point; a span may time several.
_SERVER, _SESSION = "repro.service.server", "repro.service.session"
_DELTA = "repro.rpq.incremental:DeltaSweepState"
_NUMPY_DELTA = "repro.rpq.incremental:NumpyDeltaSweepState"
_STORE = "repro.service.store:MaterializedViewStore"
ENTRY_POINTS = (
    ("server.run_query_self", f"{_SERVER}:Tenant", "run_query"),
    ("server.encode", _SERVER, "_encode_response"),
    ("session.answer", f"{_SESSION}:QuerySession", "answer"),
    ("session.answer", f"{_SESSION}:QuerySession", "answer_from"),
    ("session.answer", f"{_SESSION}:QuerySession", "answer_pair"),
    ("plancache.get_or_build", "repro.service.plancache:RewritePlanCache", "get_or_build"),
    ("rewriting.rewrite_rpq", "repro.rpq.rewriting", "rewrite_rpq"),
    ("engine.compile", "repro.rpq.engine", "compile_automaton"),
    ("engine.single_source", "repro.rpq.engine", "evaluate_single_source"),
    ("engine.pair", "repro.rpq.engine", "evaluate_pair"),
    ("incremental.full_build", _SESSION, "make_delta_state"),
    ("incremental.insert", _DELTA, "apply_insertions"),
    ("incremental.insert", _NUMPY_DELTA, "apply_insertions"),
    ("incremental.delete", _DELTA, "apply_deletions"),
    ("incremental.delete", _NUMPY_DELTA, "apply_deletions"),
    ("incremental.decode", _DELTA, "answers"),
    ("incremental.decode", _NUMPY_DELTA, "answers"),
    ("kernel.sweep_window", "repro.rpq.kernel", "sweep_window"),
    ("evaluation.sort_pairs", _SESSION, "sort_pairs"),
    ("store.mutate", _STORE, "add"),
    ("store.mutate", _STORE, "remove"),
    ("store.delta_since", _STORE, "delta_since"),
    ("wal.commit", "repro.service.wal:WriteAheadLog", "commit"),
    ("recovery.checkpoint", "repro.service.recovery:TenantDurability", "checkpoint"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in ENTRY_POINTS)) + ("server.job",)


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Recorder:
    """In-memory spans plus the few per-call facts the layers return."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, parent, start, end, self)
        self.waits: list[tuple] = []  # (submitted, started)
        self.dispatches: list[tuple] = []  # (start, end) per tenant request
        self.rewrites: list[tuple] = []  # (end, ad_s, a_prime_s, complement_s, states)
        self.states: list[tuple] = []  # (end, class name)
        self._local = threading.local()

    def timed(self, name: str, func, after=None):
        """``func`` wrapped so each call records a span named ``name``."""
        local, spans = self._local, self.spans

        @wraps(func)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((name, parent, start, end, end - start - frame[1]))
            if after is not None:
                after(end, result)
            return result

        return wrapper

    def _rewrite_done(self, end: float, result) -> None:
        stats = result.stats
        self.rewrites.append(
            (
                end,
                stats["time_ad"],
                stats["time_a_prime"],
                stats["time_complement"],
                stats["rewriting_states"],
            )
        )

    def _state_built(self, end: float, state) -> None:
        self.states.append((end, type(state).__name__))

    def attach(self, server) -> None:
        """Time each tenant's executor queue and jobs, and each tenant
        request's whole stay on the event loop."""
        for tenant in server.tenants.values():
            tenant.executor.submit = self._queued(tenant.executor.submit)
        dispatch = type(server)._dispatch
        dispatches = self.dispatches

        async def timed_dispatch(method, path, body):
            start = time.monotonic()
            try:
                return await dispatch(server, method, path, body)
            finally:
                if path.startswith("/tenants/"):
                    dispatches.append((start, time.monotonic()))

        server._dispatch = timed_dispatch

    def _queued(self, submit):
        waits = self.waits
        run = self.timed("server.job", lambda fn, args, kwargs: fn(*args, **kwargs))

        def traced_submit(fn, *args, **kwargs):
            submitted = time.monotonic()

            def job():
                waits.append((submitted, time.monotonic()))
                return run(fn, args, kwargs)

            return submit(job)

        return traced_submit

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "waits": self.waits,
                    "dispatches": self.dispatches,
                    "rewrites": self.rewrites,
                    "states": self.states,
                },
                handle,
            )


def install() -> Recorder:
    """Rebind every entry point in :data:`ENTRY_POINTS`; call before the
    server (and hence its plan caches) is constructed."""
    recorder = Recorder()
    after = {
        "rewriting.rewrite_rpq": recorder._rewrite_done,
        "incremental.full_build": recorder._state_built,
    }
    for name, owner, attr in ENTRY_POINTS:
        owner = _resolve(owner)
        setattr(owner, attr, recorder.timed(name, getattr(owner, attr), after.get(name)))
    return recorder
