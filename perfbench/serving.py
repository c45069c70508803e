"""The servers the benchmark syncs against, and its closed-loop clients.

Two server hosts:

* :class:`ForkedServer` — a :class:`~repro.serve.ReconciliationServer`
  in its own forked process (one worker), built and warmed there, so the
  server's CPU and memory are its own.
* :class:`StoreServer` — a single-process server in the benchmark
  process over a :class:`~repro.store.DurableSketchStore` on
  :class:`~repro.store.OsStorage`; the benchmark ingests through its
  :class:`~repro.serve.ServerCore` between syncs.

Load is a closed loop of ``CONNECTIONS`` clients, each a forked process
of the benchmark driven over a pipe.  A connection of its own process
sends its next sync as soon as its last one finished, and a sync's
latency is its own work and the server's: two connections on one event
loop would each wait out the other's decode, which made up most of a
one-round sync's latency on the mixed workloads.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import multiprocessing
import random
import resource
import time
import traceback
from dataclasses import dataclass, field

from repro.core.adaptive import AdaptiveConfig, AdaptiveReconciler
from repro.core.protocol import HierarchicalReconciler
from repro.core.rateless import RatelessConfig, RatelessReconciler
from repro.scale.engine import ShardedReconciler
from repro.serve import ReconciliationServer, ServerCore, sync
from repro.session.rateless import CELLS_LABEL
from repro.store import DurableSketchStore

from perfbench.workloads import (
    BATCH_POINTS,
    CONNECTIONS,
    PRELOGGED_BATCHES,
    REPLICAS,
)

#: Per-read client timeout; generous so only a hung server trips it.
TIMEOUT = 60.0


@dataclass
class SyncRecord:
    """One sync as the client saw it."""

    variant: str
    replica: int
    stage: str  # "setup", "warmup" or "window"
    cycle: int | None = None  # store-ingest cycle (its writes so far)
    latency: float = 0.0
    error: str = ""
    wire_bytes: int = 0
    levels_probed: int = 0
    increments: int = 0
    repaired: list | None = None
    digest: bytes | None = None


@dataclass
class IngestRecord:
    cycle: int
    latency: float
    error: str = ""


@dataclass
class Phase:
    """Everything one measured phase produced."""

    #: The phase's tracer (``None`` when untraced).
    tracer: object = None
    setup_s: list = field(default_factory=list)
    syncs: list = field(default_factory=list)
    ingests: list = field(default_factory=list)
    window: tuple = (0.0, 0.0)
    #: Measured seconds: the window, or on store-ingest the sum of its
    #: cycles (ingest plus syncs; the benchmark's bookkeeping excluded).
    active_s: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: ``(spans, events)`` shipped back by each forked process.
    traces: list = field(default_factory=list)
    payloads: dict = field(default_factory=dict)  # cycle -> {variant: bytes}
    replayed_deltas: int = 0

    def window_syncs(self) -> list:
        """The window's syncs that completed without an error."""
        return [s for s in self.syncs if s.stage == "window" and not s.error]


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _trace_report(tracer) -> dict:
    return {
        "spans": tracer.spans if tracer is not None else [],
        "events": tracer.events if tracer is not None else [],
    }


def repaired_digest(points) -> bytes:
    """An order-free fingerprint of a repaired multiset."""
    return hashlib.sha256(repr(sorted(points)).encode()).digest()


def _digest(record: SyncRecord) -> None:
    """Replace the repaired list by its fingerprint (cheap to ship)."""
    if record.repaired is not None:
        record.digest = repaired_digest(record.repaired)
        record.repaired = None


async def _recv(conn):
    """Receive from a pipe without blocking the event loop."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    loop.add_reader(
        conn.fileno(), lambda: ready.done() or ready.set_result(None)
    )
    try:
        await ready
    finally:
        loop.remove_reader(conn.fileno())
    return conn.recv()


class _Child:
    """A forked helper process driven over a pipe.

    ``target(conn, *args)`` is a coroutine run in the child; it answers
    each request with one ``("ok", value)``.  A failure in the child
    answers ``("error", traceback)`` and ends it.
    """

    def __init__(self, target, *args):
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_child_entry, args=(child_conn, target, args), daemon=True
        )
        self._process.start()
        child_conn.close()

    async def reply(self):
        try:
            kind, value = await _recv(self._conn)
        except EOFError:
            kind, value = "error", "the child process died"
        if kind != "ok":
            raise RuntimeError(f"benchmark child process failed: {value}")
        return value

    async def request(self, *message):
        self._conn.send(message)
        return await self.reply()

    def kill(self) -> None:
        """Make sure the child is gone (idempotent)."""
        if self._process is not None:
            self._process.join(5)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
            self._process = None
            self._conn.close()


def _child_entry(conn, target, args) -> None:
    try:
        asyncio.run(target(conn, *args))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        raise
    finally:
        conn.close()


# --------------------------------------------------------------- clients


class Client:
    """One connection's Bob side, reusing its engines across syncs the
    way a repeatedly-syncing client would."""

    def __init__(self, config):
        self.config = config
        self._engines: dict[str, object] = {}

    def engine(self, variant: str):
        if variant not in self._engines:
            factories = {
                "one-round": lambda: HierarchicalReconciler(self.config),
                "adaptive": lambda: AdaptiveReconciler(
                    self.config, AdaptiveConfig()
                ),
                "rateless": lambda: RatelessReconciler(
                    self.config, RatelessConfig()
                ),
                "sharded": lambda: ShardedReconciler(self.config),
            }
            self._engines[variant] = factories[variant]()
        return self._engines[variant]

    def close(self) -> None:
        for engine in self._engines.values():
            close = getattr(engine, "close", None)
            if close is not None:
                close()
        self._engines.clear()


async def timed_sync(client, address, variant, replica, points, stage, tracer,
                     *, cycle=None) -> SyncRecord:
    """One sync from connect until Bob's repaired set is ready."""
    record = SyncRecord(variant, replica, stage, cycle)
    span = tracer.span("bench.sync") if tracer else contextlib.nullcontext()
    started = time.perf_counter()
    try:
        with span:
            result = await sync(
                *address, client.config, points, variant=variant,
                reconciler=client.engine(variant), timeout=TIMEOUT,
            )
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        record.latency = time.perf_counter() - started
        record.error = f"{type(exc).__name__}: {exc}"
        return record
    record.latency = time.perf_counter() - started
    record.wire_bytes = result.transcript.total_bytes
    record.levels_probed = sum(
        len(p) if isinstance(p, list) else 1 for p in result.levels_probed
    )
    record.increments = result.transcript.message_labels.count(CELLS_LABEL)
    record.repaired = result.repaired
    return record


def _jobs(inputs, connection: int):
    """One connection's endless job stream: every (variant, replica) pair
    once per pass, in a seeded order reshuffled each pass, so the mix
    stays exactly 1:1:1 per pass while the two connections do not run
    in lockstep."""
    rng = random.Random(f"jobs/{inputs.workload.name}/{inputs.seed}/{connection}")
    pairs = [
        (variant, replica)
        for replica in range(REPLICAS)
        for variant in inputs.workload.variants
    ]
    while True:
        rng.shuffle(pairs)
        yield from list(pairs)


async def _drive(conn, inputs, address, connection, tracer) -> None:
    """A client process: run the syncs the benchmark asks for.

    Requests: ``("sync", variant, replica, cycle, stage)`` runs one sync
    (``cycle`` = store writes so far); ``("loop", deadline)`` runs this
    connection's job stream until ``deadline``; ``("stop",)`` answers
    with every record, the CPU time of the window stages and the spans.
    """
    if tracer is not None:
        tracer.reset()
    client = Client(inputs.config())
    jobs = _jobs(inputs, connection)
    records: list[SyncRecord] = []
    ingested: list = []
    batches = 0
    cpu = 0.0
    try:
        while True:
            command, *args = conn.recv()
            if command == "stop":
                break
            began = _cpu_seconds()
            if command == "loop":
                (deadline,) = args
                while time.perf_counter() < deadline:
                    variant, replica = next(jobs)
                    records.append(await timed_sync(
                        client, address, variant, replica,
                        inputs.replicas[replica], "window", tracer,
                    ))
            else:
                variant, replica, cycle, stage = args
                while cycle is not None and batches <= cycle:
                    ingested.extend(inputs.ingest_batch(batches))
                    batches += 1
                records.append(await timed_sync(
                    client, address, variant, replica,
                    inputs.bob(replica, ingested), stage, tracer, cycle=cycle,
                ))
            if records and records[-1].stage == "window":
                cpu += _cpu_seconds() - began
            conn.send(("ok", None))
    finally:
        client.close()
    for record in records:
        _digest(record)
    conn.send(("ok", {"records": records, "cpu_s": cpu,
                      **_trace_report(tracer)}))


async def _collect(phase: Phase, clients) -> None:
    """Stop the client processes and take in what they measured."""
    for client in clients:
        report = await client.request("stop")
        client.kill()
        phase.syncs.extend(report["records"])
        phase.client_cpu_s += report["cpu_s"]
        phase.traces.append((report["spans"], report["events"]))


# ----------------------------------------------------------------- hosts


class ForkedServer:
    """The server in a forked child process with one worker."""

    def __init__(self, config, points, variants, tracer):
        self._args = (config, points, variants, tracer)
        self._child = None

    async def start(self):
        self._child = _Child(_serve, *self._args)
        return await self._child.reply()

    async def cpu(self) -> float:
        """The server process's CPU seconds so far."""
        return await self._child.request("cpu")

    async def stop(self) -> dict:
        report = await self._child.request("stop")
        self.kill()
        return report

    def kill(self) -> None:
        if self._child is not None:
            self._child.kill()
            self._child = None


async def _serve(conn, config, points, variants, tracer) -> None:
    """The server process: build, warm, serve until asked to stop."""
    if tracer is not None:
        tracer.reset()
    core = ServerCore(config, points)
    try:
        core.warm(variants)
        async with ReconciliationServer(core=core) as server:
            conn.send(("ok", server.address))
            while await _recv(conn) != ("stop",):
                conn.send(("ok", _cpu_seconds()))
    finally:
        core.close()
    conn.send(("ok", {"peak_rss_mb": _peak_rss_mb(), **_trace_report(tracer)}))


def build_store(directory: str, config, inputs) -> None:
    """The store a restart finds: a snapshot of Alice's base points plus
    ``PRELOGGED_BATCHES`` acknowledged batches still in the WAL."""
    store = DurableSketchStore.open(config, directory)
    store.bulk_load(inputs.base)
    for index in range(PRELOGGED_BATCHES):
        store.insert_batch(
            inputs.prelogged[index * BATCH_POINTS:(index + 1) * BATCH_POINTS]
        )


class StoreServer:
    """A store-backed single-process server in the benchmark process."""

    def __init__(self, config, points, variants, directory):
        self.config = config
        self.points = points
        self.variants = variants
        self.directory = directory
        self.core = None
        self._server = None

    async def start(self):
        store = DurableSketchStore.open(self.config, self.directory)
        self.core = ServerCore(self.config, list(self.points), store=store)
        self.core.warm(self.variants)
        self._server = ReconciliationServer(core=self.core)
        return await self._server.start()

    @property
    def replayed_deltas(self) -> int:
        return self.core.store.recovery.replayed_deltas

    async def stop(self) -> None:
        await self._server.close()
        self.core.close()


# ----------------------------------------------------------------- loops


async def _setups(phase, host, config, setups, tracer, first_points):
    """Start the server ``setups`` times; time each start until its first
    sync completes.  The last start stays up for the window."""
    address = None
    for index in range(setups):
        if index:
            await host.stop()
        client = Client(config)
        started = time.perf_counter()
        address = await host.start()
        record = await timed_sync(
            client, address, "one-round", 0, first_points, "setup", tracer,
            cycle=-1,
        )
        phase.setup_s.append(time.perf_counter() - started)
        client.close()
        _digest(record)
        phase.syncs.append(record)
    return address


async def run_mixed(inputs, seconds, setups, tracer) -> Phase:
    """Each connection walks its job stream against a forked server."""
    config = inputs.config()
    variants = inputs.workload.variants
    phase = Phase(tracer=tracer)
    host = ForkedServer(config, inputs.alice, variants, tracer)
    clients = []
    try:
        address = await _setups(
            phase, host, config, setups, tracer, inputs.replicas[0]
        )
        clients = [
            _Child(_drive, inputs, address, index, tracer)
            for index in range(CONNECTIONS)
        ]

        async def warm(client, offset):
            for index, variant in enumerate(variants):
                replica = (offset + index) % REPLICAS
                await client.request("sync", variant, replica, None, "warmup")

        await asyncio.gather(*(warm(c, i) for i, c in enumerate(clients)))
        server_cpu = await host.cpu()
        start = time.perf_counter()
        await asyncio.gather(*(
            client.request("loop", start + seconds) for client in clients
        ))
        end = time.perf_counter()
        phase.server_cpu_s = await host.cpu() - server_cpu
        phase.window = (start, end)
        phase.active_s = end - start
        await _collect(phase, clients)
        report = await host.stop()
        phase.peak_rss_mb = report["peak_rss_mb"]
        phase.traces.append((report["spans"], report["events"]))
    finally:
        host.kill()
        for client in clients:
            client.kill()
    return phase


async def run_store(inputs, seconds, setups, tracer, directory) -> Phase:
    """Restart the store-backed server, then cycle: ingest one batch,
    then one one-round and one sharded sync side by side."""
    config = inputs.config()
    phase = Phase(tracer=tracer)
    host = StoreServer(config, inputs.alice, inputs.workload.variants,
                       directory)
    plan = ("one-round", "sharded")  # one variant per connection
    clients = []
    try:
        address = await _setups(
            phase, host, config, setups, tracer, inputs.bob(0, [])
        )
        phase.replayed_deltas = host.replayed_deltas
        clients = [
            _Child(_drive, inputs, address, index, tracer)
            for index in range(CONNECTIONS)
        ]
        for index, (client, variant) in enumerate(zip(clients, plan)):
            await client.request("sync", variant, index, -1, "warmup")
        cycle = 0
        start = time.perf_counter()
        while phase.active_s < seconds:
            batch = inputs.ingest_batch(cycle)
            cpu = _cpu_seconds()
            began = time.perf_counter()
            try:
                host.core.ingest(batch)
                phase.ingests.append(
                    IngestRecord(cycle, time.perf_counter() - began)
                )
            except Exception as exc:  # noqa: BLE001 - counted as failed
                phase.ingests.append(IngestRecord(
                    cycle, time.perf_counter() - began,
                    f"{type(exc).__name__}: {exc}",
                ))
                break
            await asyncio.gather(*(
                client.request(
                    "sync", variant, (2 * cycle + index) % REPLICAS, cycle,
                    "window",
                )
                for index, (client, variant) in enumerate(zip(clients, plan))
            ))
            phase.active_s += time.perf_counter() - began
            phase.server_cpu_s += _cpu_seconds() - cpu
            phase.payloads[cycle] = {
                variant: host.core.encoded(variant) for variant in plan
            }
            cycle += 1
        phase.window = (start, time.perf_counter())
        phase.peak_rss_mb = _peak_rss_mb()
        await _collect(phase, clients)
        await host.stop()
    finally:
        for client in clients:
            client.kill()
    return phase
