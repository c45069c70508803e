"""Turn measured phases into the benchmark's named metrics.

``BENCHMARK.json`` lists the end-to-end metrics every workload reports
(printed with ``--trace 0``) and the per-layer metrics (``--trace 1``).
The end-to-end figures that exist only on some workloads — per-variant
medians other than one-round, the pooled p90, ingest latency, repair
quality and the failed share — are listed with the per-layer metrics,
where a workload that lacks them reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.trace import SpanIndex, event_totals, layer_of
from perfbench.workloads import BATCH_POINTS

MS = 1000.0

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("syncs_per_s", "1/s"),
    ("sync_p50_ms.one-round", "ms"),
    ("wire_bytes_per_sync", "B"),
    ("peak_rss_mb", "MB"),
)

#: Workload-specific end-to-end figures, reported with the per-layer set.
WORKLOAD_FIGURES = (
    ("sync_p50_ms.adaptive", "ms"),
    ("sync_p50_ms.rateless", "ms"),
    ("sync_p50_ms.sharded", "ms"),
    ("sync_p90_ms", "ms"),
    ("sync_p90_ms.samples", "count"),
    ("ingest_p50_ms", "ms"),
    ("emd_bound_ratio_max", "ratio"),
    ("core.bounds.violations", "count"),
    ("failed_share", "share"),
)

#: Per-layer metrics (per sync unless the README notes otherwise).
LAYERS = (
    ("core.grid.keys_ms", "ms"),
    ("core.grid.points_keyed", "count"),
    ("iblt.table.build_ms", "ms"),
    ("iblt.table.keys_inserted", "count"),
    ("iblt.table.subtract_ms", "ms"),
    ("iblt.decode.peel_ms", "ms"),
    ("iblt.decode.attempts", "count"),
    ("iblt.decode.success_ratio", "share"),
    ("core.protocol.levels_probed", "count"),
    ("core.repair.ms", "ms"),
    ("scale.engine.encode_ms", "ms"),
    ("scale.engine.decode_ms", "ms"),
    ("iblt.hashing.families_built", "count"),
    ("core.adaptive.respond_ms", "ms"),
    ("core.adaptive.bob_ms", "ms"),
    ("net.codec.encode_ms", "ms"),
    ("net.codec.decode_ms", "ms"),
    ("core.sketch.serialize_ms", "ms"),
    ("core.rateless.increment_ms", "ms"),
    ("core.rateless.increments_per_sync", "count"),
    ("session.feed_ms", "ms"),
    ("serve.frames.write_ms", "ms"),
    ("serve.frames.read_wait_ms", "ms"),
    ("serve.frames.count", "count"),
    ("serve.handshake.ms", "ms"),
    ("serve.handshake.connect_to_welcome_ms", "ms"),
    ("serve.service.cpu_ms_per_sync", "ms"),
    ("serve.service.warm_ms", "ms"),
    ("serve.service.encode_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.replayed_deltas", "count"),
    ("store.insert_batch_ms", "ms"),
    ("store.fsyncs_per_ingest", "count"),
    ("store.wal_bytes_per_point", "B"),
    ("store.encode_ms", "ms"),
    ("bench.client_cpu_ms_per_sync", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.attributed_share", "share"),
)

PER_LAYER = WORKLOAD_FIGURES + LAYERS


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _mix_mean(syncs, variants) -> float:
    """Mean wire bytes per sync of the workload's equal variant mix: the
    mean of the per-variant means, so a run that happened to finish one
    more rateless sync than adaptive ones does not move it."""
    means = [
        statistics.mean(s.wire_bytes for s in syncs if s.variant == v)
        for v in variants
        if any(s.variant == v for s in syncs)
    ]
    return statistics.mean(means) if means else 0.0


def _p50_ms(syncs, variant: str) -> float:
    latencies = [s.latency for s in syncs if s.variant == variant]
    return statistics.median(latencies) * MS if latencies else 0.0


def figures(phase, workload, ratios, failed: int, attempted: int) -> dict:
    """Every end-to-end figure of one untraced phase (0 where absent)."""
    window = phase.window_syncs()
    values = {
        "setup_s": statistics.median(phase.setup_s),
        "syncs_per_s": len(window) / phase.active_s if window else 0.0,
        "wire_bytes_per_sync": _mix_mean(window, workload.variants),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    for variant in ("one-round", "adaptive", "rateless", "sharded"):
        values[f"sync_p50_ms.{variant}"] = _p50_ms(window, variant)
    # The p90 needs at least ten syncs beyond it.
    values["sync_p90_ms.samples"] = len(window)
    values["sync_p90_ms"] = (
        percentile([s.latency for s in window], 0.9) * MS
        if len(window) >= 100 else 0.0
    )
    ingests = [i.latency for i in phase.ingests if not i.error]
    values["ingest_p50_ms"] = statistics.median(ingests) * MS if ingests else 0.0
    values["emd_bound_ratio_max"] = max(ratios.values(), default=0.0)
    values["core.bounds.violations"] = sum(r > 1 for r in ratios.values())
    values["failed_share"] = failed / attempted
    return values


def _merge(*dicts) -> dict:
    total: dict = defaultdict(float)
    for d in dicts:
        for key, value in d.items():
            total[key] += value
    return total


def layers(base, traced) -> dict:
    """Per-layer metrics from a traced phase, with CPU, counts taken from
    results, and the trace overhead from the untraced ``base`` phase."""
    start, end = traced.window
    indexes = [SpanIndex(traced.tracer.spans)] + [
        SpanIndex(spans) for spans, _ in traced.traces
    ]
    events = [traced.tracer.events] + [e for _, e in traced.traces]
    window = [(i, i.in_window(start, end)) for i in indexes]
    setup = [(i, i.in_window(0.0, start)) for i in indexes]
    own = _merge(*(i.totals(spans) for i, spans in window))
    inclusive = _merge(*(i.totals(spans, inclusive=True) for i, spans in window))
    setup_inclusive = _merge(
        *(i.totals(spans, inclusive=True) for i, spans in setup)
    )
    counted = _merge(*(event_totals(e, start, end) for e in events))
    calls = _merge(*(i.counts(spans) for i, spans in window))

    syncs = traced.window_syncs()
    n = max(len(syncs), 1)
    by_variant = defaultdict(int)
    for s in syncs:
        by_variant[s.variant] += 1
    setups = max(len(traced.setup_s), 1)
    ingests = max(len(traced.ingests), 1)

    def per(layer, count, table=own):
        return table.get(layer, 0.0) * MS / count if count else 0.0

    def per_variant(layer, variant):
        return per(layer, by_variant[variant], inclusive)

    client = _client_view(indexes, start, end)
    base_syncs = base.window_syncs()
    base_n = max(len(base_syncs), 1)
    rateless = [s.increments for s in base_syncs if s.variant == "rateless"]
    attempts = counted.get("iblt.decode.attempt", 0.0)
    base_per_sync = base.active_s / base_n
    traced_per_sync = traced.active_s / n
    return {
        "core.grid.keys_ms": per("core.grid", n),
        "core.grid.points_keyed": counted.get("core.grid.points", 0) / n,
        "iblt.table.build_ms": per("iblt.table.build", n),
        "iblt.table.keys_inserted": counted.get("iblt.table.keys", 0) / n,
        "iblt.table.subtract_ms": per("iblt.table.subtract", n),
        "iblt.decode.peel_ms": per("iblt.decode", n),
        "iblt.decode.attempts": attempts / n,
        "iblt.decode.success_ratio": (
            counted.get("iblt.decode.success", 0.0) / attempts
            if attempts else 0.0
        ),
        "core.protocol.levels_probed": (
            statistics.mean(s.levels_probed for s in base_syncs)
            if base_syncs else 0.0
        ),
        "core.repair.ms": per("core.repair", n),
        "scale.engine.encode_ms": per_variant("scale.engine.encode", "sharded"),
        "scale.engine.decode_ms": per_variant("scale.engine.decode", "sharded"),
        "iblt.hashing.families_built": (
            counted.get("iblt.hashing.families", 0) / n
        ),
        "core.adaptive.respond_ms": per_variant(
            "core.adaptive.respond", "adaptive"
        ),
        "core.adaptive.bob_ms": per_variant("core.adaptive.bob", "adaptive"),
        "net.codec.encode_ms": per("net.codec.encode", n),
        "net.codec.decode_ms": per("net.codec.decode", n),
        "core.sketch.serialize_ms": per("core.sketch", n),
        "core.rateless.increment_ms": per_variant(
            "core.rateless.increment", "rateless"
        ),
        "core.rateless.increments_per_sync": (
            statistics.mean(rateless) if rateless else 0.0
        ),
        "session.feed_ms": per("session", n),
        "serve.frames.write_ms": per("serve.frames.write", n),
        "serve.frames.read_wait_ms": client["read_wait"] * MS / n,
        "serve.frames.count": calls.get("serve.frames.write:write_frame", 0) / n,
        "serve.handshake.ms": per("serve.handshake", n),
        "serve.handshake.connect_to_welcome_ms": client["to_welcome"] * MS,
        "serve.service.cpu_ms_per_sync": base.server_cpu_s * MS / base_n,
        "serve.service.warm_ms": per(
            "serve.service.warm", setups, setup_inclusive
        ),
        "serve.service.encode_ms": per("serve.service.encode", n, inclusive),
        "store.open_ms": per("store.open", setups, setup_inclusive),
        "store.replayed_deltas": base.replayed_deltas,
        "store.insert_batch_ms": (
            per("store.insert_batch", ingests, inclusive)
            if traced.ingests else 0.0
        ),
        "store.fsyncs_per_ingest": (
            counted.get("store.fsync", 0) / ingests if traced.ingests else 0.0
        ),
        "store.wal_bytes_per_point": (
            counted.get("store.wal_bytes", 0) / (ingests * BATCH_POINTS)
            if traced.ingests else 0.0
        ),
        "store.encode_ms": per("store.encode", n, inclusive),
        "bench.client_cpu_ms_per_sync": base.client_cpu_s * MS / base_n,
        "trace.overhead_share": (traced_per_sync - base_per_sync) / base_per_sync,
        "trace.attributed_share": client["attributed"],
    }


def _client_view(indexes, start: float, end: float) -> dict:
    """Client-side figures from the ``bench.sync`` trees in the window.

    ``attributed`` is the share of the syncs' wall time that their child
    spans' self times (socket wait in ``read_frame`` included) account
    for; the rest is unwrapped glue inside ``sync``.
    """
    read_wait = wall = unattributed = 0.0
    welcome = []
    for index in indexes:
        roots = [
            s for s in index.in_window(start, end) if s[2] == "bench.sync"
        ]
        root_ids = {s[0] for s in roots}
        parent_of = {s[0]: s[1] for s in index.spans}

        def in_sync(sid):
            while sid is not None and sid not in root_ids:
                sid = parent_of.get(sid)
            return sid is not None

        read_wait += sum(
            index.self_time[span[0]] for span in index.spans
            if layer_of(span[2]) == "serve.frames.read" and in_sync(span[0])
        )
        welcome.extend(
            child[3] - root[3]
            for root in roots
            for child in index.children.get(root[0], ())
            if child[2] == "serve.handshake:parse_welcome"
        )
        wall += sum(s[4] - s[3] for s in roots)
        unattributed += sum(index.self_time[s[0]] for s in roots)
    return {
        "read_wait": read_wait,
        "to_welcome": statistics.mean(welcome) if welcome else 0.0,
        "attributed": 1 - unattributed / wall if wall else 0.0,
    }
