"""The one-round robust reconciliation protocol (the paper's algorithm).

Alice builds one IBLT per grid level over occurrence-indexed cell keys and
ships them all in a single message.  Bob subtracts his own keys level by
level, finds the **finest level that peels**, and repairs his set from the
decoded key difference: delete his surplus points, insert cell centres for
Alice's surplus.

Why the finest decodable level is the right one: at level ``ℓ`` the expected
number of *close* pairs split across cells is at most ``EMD_k / 2^ℓ``
(split-probability fact), so the symmetric key difference is about
``2·EMD_k/2^ℓ + 2k``; the sketch capacity ``Θ(k·diff_margin)`` is first
reached near ``2^{ℓ*} ≈ EMD_k / k``.  Each repaired point then costs at most
a cell diameter ``d · 2^{ℓ*}``, for a total of
``O(k · d · EMD_k / k) = O(d) · EMD_k`` — the paper's approximation factor.

Bob probes levels with a binary search (decodability is monotone in the
level up to peeling-threshold noise), so his work is ``O(n log log Δ)``
hashes rather than ``O(n log Δ)``.  That bound needs Bob to sort his points
once per sync, not once per probe: on the numpy fast path
:meth:`HierarchicalReconciler.decode_plan` builds one
:class:`~repro.core.grid.VectorKeyPass` and each probe pays only the
level's bit arithmetic, occurrence ranking and table build; the repair
planner then reads only the decoded surplus cells.  The pure-Python
reference path (no numpy, ``backend="pure"``, or keys wider than 63 bits)
keys the points per probe and gives the same result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import ProtocolConfig
from repro.core.grid import ShiftedGridHierarchy, as_points
from repro.core.repair import RepairPlan, apply_repair, check_strategy, plan_repair
from repro.core.sketch import (
    HierarchySketch,
    build_level_sketches,
    level_iblt_config,
)
from repro.emd.metrics import Point
from repro.errors import ReconciliationFailure
from repro.iblt.decode import DecodeResult, decode
from repro.iblt.table import IBLT
from repro.net.channel import SimulatedChannel
from repro.net.transcript import Transcript

#: Bob's level-search orders (see :meth:`HierarchicalReconciler.decode_and_repair`).
PROBES = ("binary", "linear")


@dataclass
class ReconcileResult:
    """Outcome of one robust reconciliation run.

    Attributes
    ----------
    repaired:
        Bob's final point multiset ``S'_B``.
    level:
        Grid level the difference was decoded at (``0`` means the repair
        was exact).
    alice_surplus, bob_surplus:
        Number of centre insertions / point deletions applied.
    plan:
        The full edit script.
    levels_probed:
        Which levels Bob attempted to decode, in probe order.
    transcript:
        Measured communication (``None`` when run without a channel).
    """

    repaired: list[Point]
    level: int
    alice_surplus: int
    bob_surplus: int
    plan: RepairPlan
    levels_probed: list[int] = field(default_factory=list)
    transcript: Transcript | None = None

    @property
    def exact(self) -> bool:
        """True when the repair happened at level 0 (centres are exact)."""
        return self.level == 0


@dataclass
class LevelDecode:
    """Bob's decoded sketch and edit script, before the repair is applied.

    Returned by :meth:`HierarchicalReconciler.decode_plan`; small and
    picklable, so a shard task can send it back from a worker process.
    """

    level: int
    levels_probed: list[int]
    plan: RepairPlan
    alice_surplus: int
    bob_surplus: int


class HierarchicalReconciler:
    """Both endpoints of the one-round protocol, bound to one config."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        shift = None if config.random_shift else (0,) * config.dimension
        self.grid = ShiftedGridHierarchy(
            config.delta, config.dimension, config.seed, config.occupancy_bits,
            shift=shift,
        )

    # ------------------------------------------------------------- Alice

    def level_table(self, points: list[Point], level: int, cells: int | None = None) -> IBLT:
        """Build one level's IBLT over a point multiset."""
        table = IBLT(
            level_iblt_config(self.config, self.grid, level, cells),
            backend=self.config.backend,
        )
        table.insert_many(self.grid.keys_for(points, level))
        return table

    def encode(self, points: list[Point]) -> bytes:
        """Alice's single message: every sketched level, finest first."""
        level_sketches = build_level_sketches(self.config, self.grid, points)
        sketch = HierarchySketch(n_points=len(points), levels=level_sketches)
        return sketch.to_bytes()

    # --------------------------------------------------------------- Bob

    def decode_and_repair(
        self,
        payload: bytes,
        bob_points: list[Point],
        strategy: str = "occurrence",
        probe: str = "binary",
    ) -> ReconcileResult:
        """Bob's side: find the finest decodable level and repair.

        Parameters
        ----------
        payload:
            Alice's message.
        bob_points:
            Bob's current point multiset.
        strategy:
            Victim-selection strategy for deletions (see
            :mod:`repro.core.repair`).
        probe:
            ``"binary"`` (default) binary-searches the finest decodable
            level; ``"linear"`` scans every level finest-first (used by
            tests and ablations to validate the search).
        """
        decoded = self.decode_plan(payload, bob_points, strategy, probe)
        return ReconcileResult(
            repaired=apply_repair(bob_points, decoded.plan),
            level=decoded.level,
            alice_surplus=decoded.alice_surplus,
            bob_surplus=decoded.bob_surplus,
            plan=decoded.plan,
            levels_probed=decoded.levels_probed,
        )

    def decode_plan(
        self,
        payload: bytes,
        bob_points,
        strategy: str = "occurrence",
        probe: str = "binary",
        read_sketch=None,
    ) -> LevelDecode:
        """Parse a payload, find the finest decodable level, plan the repair.

        The one probe-and-plan routine behind :meth:`decode_and_repair` and
        every shard of :mod:`repro.scale`.  ``read_sketch(payload, config,
        grid)`` parses the payload (default: the v1
        :meth:`HierarchySketch.from_bytes`; the sharded engine passes its
        v2 shard reader).  ``bob_points`` is a tuple sequence or an
        ``(n, d)`` integer array.  The plan is returned, not applied.

        On the fast path (:meth:`ShiftedGridHierarchy.vectorized`) Bob's
        points are keyed once per call: one
        :class:`~repro.core.grid.VectorKeyPass` sorts them, every probed
        level reuses it, and the planner looks up only the decoded surplus
        cells.  Otherwise each probe builds Bob's table with
        :meth:`level_table` and the planner buckets every point (the
        pure-Python reference path).  Both paths give the same level, probe
        order and plan.
        """
        check_strategy(strategy)
        if probe not in PROBES:
            raise ReconciliationFailure(f"unknown probe mode {probe!r}")
        read = read_sketch if read_sketch is not None else HierarchySketch.from_bytes
        sketch = read(payload, self.config, self.grid)
        levels = [level_sketch.level for level_sketch in sketch.levels]
        bob_table, key_pass = self.bob_tables(bob_points, levels)
        if key_pass is None:
            bob_points = as_points(bob_points)
        chosen, result, probed = probe_levels(
            sketch, len(bob_points), bob_table, self.config.decode_item_limit,
            probe,
        )
        if chosen is None:
            raise ReconciliationFailure(
                f"no level of the hierarchy sketch decoded "
                f"(difference exceeds budget k={self.config.k}?)"
            )
        plan = plan_repair(
            bob_points, result.alice_keys, result.bob_keys,
            self.grid, chosen, strategy, key_pass=key_pass,
        )
        return LevelDecode(
            level=chosen,
            levels_probed=probed,
            plan=plan,
            alice_surplus=len(result.alice_keys),
            bob_surplus=len(result.bob_keys),
        )

    def bob_tables(self, bob_points, levels):
        """Bob's table builder for probing ``levels``, and his key pass.

        Returns ``(bob_table, key_pass)``; ``bob_table(level, alice_table)``
        builds Bob's table in the shape of Alice's.  On the fast path
        (:meth:`ShiftedGridHierarchy.vectorized`) one
        :class:`~repro.core.grid.VectorKeyPass` sorts the points now and
        every call pays only that level's keys; ``key_pass`` is returned
        for the repair planner.  Otherwise ``key_pass`` is ``None`` and
        each call keys the points for its level alone (:meth:`level_table`).
        """
        key_pass = (
            self.grid.vector_key_pass(bob_points)
            if self.grid.vectorized(self.config.backend, levels)
            else None
        )
        if key_pass is None:
            points = as_points(bob_points)

            def bob_table(level: int, alice_table: IBLT) -> IBLT:
                return self.level_table(points, level, alice_table.config.cells)
        else:
            def bob_table(level: int, alice_table: IBLT) -> IBLT:
                table = IBLT(alice_table.config, backend=self.config.backend)
                table.insert_many(key_pass.keys(level))
                return table
        return bob_table, key_pass


def probe_levels(
    sketch, n_bob: int, bob_table, max_items: int, probe: str = "binary"
) -> tuple[int | None, DecodeResult | None, list[int]]:
    """The probe loop: the finest level of ``sketch`` whose difference peels.

    ``sketch`` has ``n_points`` and ``levels`` (:class:`LevelSketch`
    list); ``bob_table(level, alice_table)`` returns the table subtracted
    from Alice's at that level.  A decode whose surplus counts disagree
    with ``sketch.n_points - n_bob`` is a checksum-evading false decode and
    counts as a failure.  Returns the chosen level (``None`` when no level
    peels), its decode result, and the levels attempted in probe order.
    """
    by_level = {level_sketch.level: level_sketch.table for level_sketch in sketch.levels}
    probed: list[int] = []
    outcomes: dict[int, DecodeResult] = {}

    def attempt(level: int) -> DecodeResult:
        if level not in outcomes:
            probed.append(level)
            alice_table = by_level[level]
            result = decode(
                alice_table.subtract(bob_table(level, alice_table)),
                max_items=max_items,
            )
            surplus = len(result.alice_keys) - len(result.bob_keys)
            if result.success and surplus != sketch.n_points - n_bob:
                result.success = False  # checksum-evading false decode
            outcomes[level] = result
        return outcomes[level]

    levels = sorted(by_level)
    chosen = _finest_decodable(levels, attempt, probe) if levels else None
    return chosen, outcomes.get(chosen), probed


def _finest_decodable(levels, attempt, probe: str) -> int | None:
    """Locate the smallest (finest) level whose table peels."""
    if probe == "linear":
        for level in levels:
            if attempt(level).success:
                return level
        return None
    # Binary search: assume failure below the threshold, success above.
    if attempt(levels[0]).success:
        return levels[0]
    low, high = 0, len(levels) - 1  # low fails; probe for first success
    if not attempt(levels[high]).success:
        # Coarsest failed too; fall back to scanning for any success.
        for level in levels[1:-1]:
            if attempt(level).success:
                return level
        return None
    while high - low > 1:
        mid = (low + high) // 2
        if attempt(levels[mid]).success:
            high = mid
        else:
            low = mid
    return levels[high]


def reconcile(
    alice_points: list[Point],
    bob_points: list[Point],
    config: ProtocolConfig,
    channel: SimulatedChannel | None = None,
    strategy: str = "occurrence",
) -> ReconcileResult:
    """Run a complete one-round exchange over a (simulated) channel.

    A thin driver over the sans-I/O sessions (:mod:`repro.session`): it
    pumps :class:`OneRoundAliceSession`/:class:`OneRoundBobSession` over
    the channel, so the wire bytes equal a networked run's.  A channel the
    caller supplies is left open (and may be reused across runs); only a
    channel this function creates is closed.  The attached transcript
    covers this run's messages only.

    Returns Bob's :class:`ReconcileResult` with the measured transcript
    attached.

    >>> config = ProtocolConfig(delta=256, dimension=1, k=2, seed=7)
    >>> result = reconcile([(10,), (200,)], [(11,), (200,)], config)
    >>> len(result.repaired)
    2
    """
    # Imported lazily: repro.session sits above this module in the layering
    # (sessions wrap reconcilers; this driver wraps sessions).
    from repro.session import OneRoundAliceSession, OneRoundBobSession, pump

    owns_channel = channel is None
    channel = channel if channel is not None else SimulatedChannel()
    first_message = len(channel.messages)
    reconciler = HierarchicalReconciler(config)  # shared: one grid build
    alice = OneRoundAliceSession(config, alice_points, reconciler=reconciler)
    bob = OneRoundBobSession(
        config, bob_points, strategy=strategy, reconciler=reconciler
    )
    _, result = pump(alice, bob, channel)
    if owns_channel:
        channel.close()
    result.transcript = Transcript.from_messages(channel.messages[first_message:])
    return result
