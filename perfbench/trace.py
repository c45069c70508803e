"""Span tracing from outside the program.

:func:`install` wraps public functions of each layer of ``repro`` so that
every call records a span: id, parent id, name, start and end.  Parents
come from a context variable, so each asyncio task (one per connection)
keeps its own chain.  Spans stay in memory; a forked server child ships
its list back when it stops.  A span's self time is its duration minus
the time its direct children cover.

Span names are ``"<layer>:<function>"``; metrics aggregate by layer.
Count-only hooks record ``(name, time, amount)`` events instead of spans.
Nothing under ``src/`` is changed: wrappers are installed by setting
attributes on the program's modules and classes, and removed again by
:meth:`Installed.remove`.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """In-memory span and event store for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (a forked child starts empty)."""
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.events: list[tuple[str, float, float]] = []
        #: Names of the spans currently open, by id (for ``after`` hooks).
        self.open: dict[int, str] = {}
        self._ids = itertools.count(1)

    def count(self, name: str, amount: float = 1) -> None:
        self.events.append((name, time.perf_counter(), amount))

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    """``with tracer.span(name):`` — usable around sync and async code."""

    __slots__ = ("tracer", "name", "sid", "parent", "token", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.parent = _CURRENT.get()
        self.sid = next(self.tracer._ids)
        self.token = _CURRENT.set(self.sid)
        self.tracer.open[self.sid] = self.name
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        _CURRENT.reset(self.token)
        del self.tracer.open[self.sid]
        self.tracer.spans.append(
            (self.sid, self.parent, self.name, self.start, end)
        )


# ------------------------------------------------------------ wrapping


def _wrap(tracer: Tracer, fn, name: str, before=None, after=None):
    """A recording wrapper around ``fn`` (async functions stay async).

    ``before(args, kwargs)`` runs first and returns False to skip the span
    for this call; ``after(tracer, args, kwargs, result)`` records counts.
    """
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if before is not None and not before(args, kwargs):
                return await fn(*args, **kwargs)
            with _Span(tracer, name):
                result = await fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None and not before(args, kwargs):
                return fn(*args, **kwargs)
            with _Span(tracer, name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
    return wrapper


def _counter(tracer: Tracer, fn, name: str):
    """A count-only wrapper: one event per call, no span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


class Installed:
    """The wrappers one :func:`install` put in place."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _patch_method(installed, tracer, cls, attr, name, before=None, after=None,
                  count_only=False):
    static = inspect.getattr_static(cls, attr)
    is_classmethod = isinstance(static, classmethod)
    fn = static.__func__ if is_classmethod else static
    wrapped = (
        _counter(tracer, fn, name) if count_only
        else _wrap(tracer, fn, name, before, after)
    )
    installed.patch(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)


def _patch_function(installed, tracer, module, attr, name, before=None,
                    after=None):
    """Wrap a module-level function everywhere ``repro`` bound it.

    ``from x import f`` copies the reference, so every loaded ``repro``
    module holding the same object is patched too.
    """
    original = getattr(module, attr)
    wrapped = _wrap(tracer, original, name, before, after)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                installed.patch(mod, key, wrapped)


def install(tracer: Tracer) -> Installed:
    """Wrap every traced layer; returns the handle that removes them."""
    # By module path: some packages re-export a function under the name
    # of its module (``repro.iblt.decode``).
    (adaptive, grid, rateless, repair, sketch, decode_mod, hashing, table,
     codec, engine, frames, handshake, service, session_pkg, session_base,
     storage, store) = (
        importlib.import_module(f"repro.{path}") for path in (
            "core.adaptive", "core.grid", "core.rateless", "core.repair",
            "core.sketch", "iblt.decode", "iblt.hashing", "iblt.table",
            "net.codec", "scale.engine", "serve.frames", "serve.handshake",
            "serve.service", "session", "session.base", "store.storage",
            "store.store",
        )
    )

    installed = Installed()

    def method(cls, attr, name, **kw):
        _patch_method(installed, tracer, cls, attr, name, **kw)

    def function(module, attr, name, **kw):
        _patch_function(installed, tracer, module, attr, name, **kw)

    # core.grid: point keying.  A point keyed at L levels counts L times;
    # calls nested in another keying call are not counted again.
    def level_keys_done(tracer, args, kwargs, result):
        if not _parent_is("core.grid", tracer):
            tracer.count(
                "core.grid.points", sum(len(keys) for keys in result.values())
            )

    def pass_keys_done(tracer, args, kwargs, result):
        if not _parent_is("core.grid", tracer):
            tracer.count("core.grid.points", len(result))

    method(grid.ShiftedGridHierarchy, "level_keys", "core.grid:level_keys",
           after=level_keys_done)
    method(grid.ShiftedGridHierarchy, "vector_key_pass",
           "core.grid:vector_key_pass")
    method(grid.VectorKeyPass, "keys", "core.grid:pass_keys",
           after=pass_keys_done)

    # iblt.table: build and subtract.
    def inserted(tracer, args, kwargs, result):
        keys = args[1] if len(args) > 1 else kwargs.get("keys")
        if hasattr(keys, "__len__"):
            tracer.count("iblt.table.keys", len(keys))

    method(table.IBLT, "__init__", "iblt.table.build:init")
    method(table.IBLT, "insert_many", "iblt.table.build:insert_many",
           after=inserted)
    method(table.IBLT, "delete_many", "iblt.table.build:delete_many",
           after=inserted)
    method(table.IBLT, "subtract", "iblt.table.subtract:subtract")

    # iblt.decode: peeling, with attempt/success counts.
    def decoded(tracer, args, kwargs, result):
        tracer.count("iblt.decode.attempt")
        if result.success:
            tracer.count("iblt.decode.success")

    def peeled(tracer, args, kwargs, result):
        if _parent_is("iblt.decode", tracer):
            return
        tracer.count("iblt.decode.attempt")
        if args[0].solved:
            tracer.count("iblt.decode.success")

    function(decode_mod, "decode", "iblt.decode:decode", after=decoded)
    method(decode_mod.PeelState, "extend", "iblt.decode:extend", after=peeled)
    method(decode_mod.PeelState, "feed_cells", "iblt.decode:feed_cells",
           after=peeled)

    # iblt.hashing: public-coin hash construction (counted, not timed).
    method(hashing.HashFamily, "__init__", "iblt.hashing.families",
           count_only=True)
    method(hashing.TabulationHash, "__init__", "iblt.hashing.families",
           count_only=True)

    # core.repair, core.sketch, net.codec.
    function(repair, "plan_repair", "core.repair:plan_repair")
    function(repair, "apply_repair", "core.repair:apply_repair")
    method(sketch.HierarchySketch, "to_bytes", "core.sketch:to_bytes")
    method(sketch.HierarchySketch, "from_bytes", "core.sketch:from_bytes")
    for attr in ("write_cells", "encode_cells_fixed"):
        function(codec, attr, f"net.codec.encode:{attr}")
    for attr in ("read_cells", "decode_cells_fixed"):
        function(codec, attr, f"net.codec.decode:{attr}")

    # Protocol variants.
    method(engine.ShardedReconciler, "encode", "scale.engine.encode:encode")
    method(engine.ShardedReconciler, "decode_and_repair",
           "scale.engine.decode:decode_and_repair")
    method(adaptive.AdaptiveReconciler, "alice_respond",
           "core.adaptive.respond:alice_respond")
    method(adaptive.AdaptiveReconciler, "bob_request",
           "core.adaptive.bob:bob_request")
    method(adaptive.AdaptiveReconciler, "bob_finish",
           "core.adaptive.bob:bob_finish")
    method(rateless.RatelessReconciler, "alice_increment",
           "core.rateless.increment:alice_increment")

    # Sessions, frames, handshake, service.
    method(session_base.Session, "start", "session:start")
    method(session_base.Session, "feed", "session:feed")
    function(session_pkg, "make_session", "session.make:make_session")
    function(service, "close_writer", "serve.frames.close:close_writer")
    # The client's connect is stdlib code called through the module
    # attribute, so it is wrapped there (and unwrapped with the rest).
    installed.patch(asyncio, "open_connection", _wrap(
        tracer, asyncio.open_connection, "serve.connect:open_connection"
    ))
    function(frames, "write_frame", "serve.frames.write:write_frame")
    function(frames, "read_frame", "serve.frames.read:read_frame")
    for attr in ("config_digest", "hello_bytes", "parse_hello_record",
                 "welcome_bytes", "parse_welcome"):
        function(handshake, attr, f"serve.handshake:{attr}")
    method(service.ServerCore, "warm", "serve.service.warm:warm")
    method(service.ServerCore, "encoded", "serve.service.encode:encoded",
           before=lambda args, kwargs: args[1] not in args[0]._encoded)

    # store.
    def appended(tracer, args, kwargs, result):
        if args[1] == store.WAL_NAME:
            tracer.count("store.wal_bytes", len(args[2]))

    method(store.DurableSketchStore, "open", "store.open:open")
    method(store.DurableSketchStore, "insert_batch",
           "store.insert_batch:insert_batch")
    method(store.DurableSketchStore, "encode", "store.encode:encode")
    method(store.DurableSketchStore, "one_round_encode",
           "store.encode:one_round_encode")
    method(storage.OsStorage, "fsync", "store.fsync", count_only=True)
    method(storage.OsStorage, "append", "store.append:append", after=appended)
    return installed


def _parent_is(layer: str, tracer: Tracer) -> bool:
    """True when the innermost open span (the caller's) is in ``layer``.

    Used inside ``after`` hooks, which run once the call's own span has
    closed, so the current span is the caller's.
    """
    name = tracer.open.get(_CURRENT.get())
    return name is not None and layer_of(name) == layer


# ------------------------------------------------------------ analysis


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


class SpanIndex:
    """Self times and tree queries over one process's recorded spans."""

    def __init__(self, spans):
        self.spans = spans
        covered: dict[int, float] = defaultdict(float)
        self.children: dict[int, list] = defaultdict(list)
        for span in spans:
            sid, parent, _, start, end = span
            if parent is not None:
                covered[parent] += end - start
                self.children[parent].append(span)
        self.self_time = {
            span[0]: max(0.0, span[4] - span[3] - covered[span[0]])
            for span in spans
        }

    def in_window(self, start: float, end: float):
        return [s for s in self.spans if start <= s[3] < end]

    def totals(self, spans, *, inclusive: bool = False) -> dict[str, float]:
        """Seconds per layer over ``spans`` (self time unless inclusive).

        Inclusive totals skip spans nested in a span of the same layer, so
        a layer's recursion is not counted twice.
        """
        by_id = {span[0]: span for span in self.spans}
        result: dict[str, float] = defaultdict(float)
        for span in spans:
            layer = layer_of(span[2])
            if inclusive:
                parent = by_id.get(span[1])
                if parent is not None and layer_of(parent[2]) == layer:
                    continue
                result[layer] += span[4] - span[3]
            else:
                result[layer] += self.self_time[span[0]]
        return result

    def counts(self, spans) -> dict[str, int]:
        result: dict[str, int] = defaultdict(int)
        for span in spans:
            result[span[2]] += 1
        return result


def event_totals(events, start: float, end: float) -> dict[str, float]:
    result: dict[str, float] = defaultdict(float)
    for name, at, amount in events:
        if start <= at < end:
            result[name] += amount
    return result
