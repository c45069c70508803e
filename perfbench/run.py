"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The workload's inputs come from
``--seed``; the syncs go over loopback TCP to a real server.  Every line
but the last is a human-readable report; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import platform
import shutil
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402

#: Share of each client sync's wall time the trace must account for.
ATTRIBUTED_MIN = 0.95


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(workload, seed, seconds, traced):
    """Every timed phase of one run (two when traced)."""
    from perfbench.serving import build_store, run_mixed, run_store
    from perfbench.trace import Tracer, install
    from perfbench.workloads import make_inputs

    inputs = make_inputs(workload, seed)
    config = inputs.config()
    scratch = perfbench.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    phases = []
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            pristine = os.path.join(tmp, "store")
            if workload.store:
                os.mkdir(pristine)
                build_store(pristine, config, inputs)
            for index, tracer in enumerate([None, Tracer()] if traced else [None]):
                setups = 1 if traced else workload.setups
                installed = install(tracer) if tracer is not None else None
                try:
                    if workload.store:
                        directory = os.path.join(tmp, f"phase{index}")
                        shutil.copytree(pristine, directory)
                        phase = asyncio.run(run_store(
                            inputs, seconds, setups, tracer, directory
                        ))
                    else:
                        phase = asyncio.run(
                            run_mixed(inputs, seconds, setups, tracer)
                        )
                finally:
                    if installed is not None:
                        installed.remove()
                phases.append(phase)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    return inputs, phases


def _check(inputs, phases):
    """The correctness gate over every phase, then repair quality.

    Returns ``(ratios, failures, attempted)``.
    """
    from perfbench.gate import References, quality

    workload = inputs.workload
    references = References(inputs)
    keys = {
        references.key(record.variant, record.replica, record.cycle)
        for phase in phases for record in phase.syncs if not record.error
    }
    if not workload.store:  # quality needs every (variant, replica) pair
        keys |= {
            references.key(variant, replica, None)
            for variant in workload.variants
            for replica in range(len(inputs.replicas))
        }
    references.prefetch(keys, workers=min(2, os.cpu_count() or 1))
    failures = []
    attempted = 0
    for phase in phases:
        for record in phase.syncs:
            attempted += 1
            if not references.matches(record):
                failures.append(
                    f"{record.stage} {record.variant} replica {record.replica}"
                    f" cycle {record.cycle}: {record.error or 'wrong repair'}"
                )
        for ingest in phase.ingests:
            attempted += 1
            if ingest.error:
                failures.append(f"ingest {ingest.cycle}: {ingest.error}")
        attempted += sum(len(served) for served in phase.payloads.values())
        failures.extend(
            f"payload {where}: differs from a from-scratch encode"
            for where in references.payload_mismatches(phase.payloads)
        )
    ratios = {} if workload.store else quality(inputs, references)
    return ratios, failures, attempted


def _provenance(inputs, workload, seed) -> dict:
    import numpy

    from perfbench.workloads import (
        CONNECTIONS, DELTA, K, NOISE, REPLICAS, TRUE_K, resolved_backend,
    )

    return {
        "workload": workload.name,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "transport": "loopback TCP",
        "load": f"closed loop, {CONNECTIONS} connections",
        "backend": resolved_backend(inputs),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "store_flush": (
            "fsync before every ack" if workload.store else "no store"
        ),
        "shape": {
            "n": workload.n, "d": workload.dimension, "delta": DELTA, "k": K,
            "true_k": TRUE_K, "noise": NOISE, "replicas": REPLICAS,
            "variants": list(workload.variants), "shards": workload.shards,
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not perfbench.use_checkout_source():
        print(
            f"error: no repro package under {perfbench.SRC}; run the "
            "benchmark from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    from perfbench import metrics
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    # Seed generators and the public coins take non-negative seeds.
    seed = args.seed % 2**32
    inputs, phases = _measure(workload, seed, args.seconds, traced)
    ratios, failures, attempted = _check(inputs, phases)
    print(json.dumps({"provenance": _provenance(inputs, workload, args.seed)}))
    base = phases[0]
    values = metrics.figures(
        base, workload, ratios, len(failures), attempted
    )
    for name, unit in metrics.END_TO_END + metrics.WORKLOAD_FIGURES:
        print(f"{workload.name}  {name:<28} {values[name]:>14.4f} {unit}")
    for (replica, variant), ratio in sorted(ratios.items()):
        flag = "  BOUND BROKEN" if ratio > 1 else ""
        print(f"quality  replica {replica:>2} {variant:<10} "
              f"emd/bound {ratio:.4f}{flag}")
    for failure in failures:
        print(f"FAILED  {failure}")
    if traced:
        values.update(metrics.layers(base, phases[1]))
        names = metrics.PER_LAYER
        for name, unit in metrics.LAYERS:
            print(f"{workload.name}  {name:<40} {values[name]:>14.4f} {unit}")
        share = values["trace.attributed_share"]
        verdict = "ok" if share >= ATTRIBUTED_MIN else "FAILED"
        print(f"trace check {verdict}: spans account for {share:.1%} of the "
              f"client's wall time per sync (need {ATTRIBUTED_MIN:.0%})")
    else:
        names = metrics.END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
