"""Shard executors: serial, thread pool, process pool.

The sharded engine maps one task per shard over an executor.  The kind is
never configured: :func:`executor_kind` picks it from what this process
can observe, with a pool width of ``min(shards, cpu_count)``:

* ``serial`` when that width is 1 — no concurrency, no overhead;
* ``process`` when the shard tasks run pure Python (no numpy, the pure
  backend, or keys wider than 63 bits) and this process may fork — a
  ``fork`` :class:`~concurrent.futures.ProcessPoolExecutor`, whose workers
  inherit the loaded library; only processes escape the GIL there;
* ``thread`` otherwise — a :class:`~concurrent.futures.ThreadPoolExecutor`,
  which pickles nothing while the numpy kernels release the GIL for part
  of their work.

Executors are private to each party (they never affect the wire) and are
constructed lazily so a :class:`~repro.core.config.ProtocolConfig` stays
cheap to build.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX).  Both the
    copy-on-write process pool below and the serve layer's pre-fork
    worker pool require it."""
    return "fork" in multiprocessing.get_all_start_methods()


def _width(shards: int) -> int:
    return max(1, min(shards, os.cpu_count() or 1))


def executor_kind(shards: int, pure_python: bool) -> str:
    """The executor kind for ``shards`` tasks on this machine and process.

    ``pure_python`` says the shard tasks run without the numpy fast path.
    A daemonic process may not have children, so it never gets a pool of
    processes.
    """
    if _width(shards) <= 1:
        return "serial"
    if (
        pure_python
        and fork_available()
        and not multiprocessing.current_process().daemon
    ):
        return "process"
    return "thread"


class ShardExecutor:
    """Run shard tasks inline, in order; the interface every kind offers."""

    kind = "serial"

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every task, preserving task order."""
        return [fn(task) for task in tasks]

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PoolExecutor(ShardExecutor):
    """Run shard tasks on a thread or (``fork``) process pool.

    For ``kind="process"``, task functions and arguments must be picklable;
    the engine's shard tasks are module-level functions over configs, byte
    strings, and point sequences.
    """

    def __init__(self, kind: str, workers: int):
        self.kind = kind
        if kind == "thread":
            self._pool = ThreadPoolExecutor(max_workers=workers)
        else:
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
            )

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        return list(self._pool.map(fn, tasks))

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def make_executor(shards: int, pure_python: bool) -> ShardExecutor:
    """Build the executor :func:`executor_kind` picks, ``min(shards,
    cpu_count)`` wide."""
    kind = executor_kind(shards, pure_python)
    if kind == "serial":
        return ShardExecutor()
    return PoolExecutor(kind, _width(shards))
