"""Unit tests for the repair planner and edit application."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import ShiftedGridHierarchy
from repro.core.repair import (
    REPAIR_STRATEGIES,
    RepairPlan,
    apply_repair,
    plan_repair,
)
from repro.errors import ConfigError, ReconciliationFailure


def make_grid(delta=256, dimension=2, seed=9):
    return ShiftedGridHierarchy(delta, dimension, seed)


class TestPlanRepair:
    def test_empty_difference_empty_plan(self):
        grid = make_grid()
        plan = plan_repair([(1, 1)], [], [], grid, 3)
        assert plan.additions == []
        assert plan.removals == []

    def test_alice_surplus_becomes_centres(self):
        grid = make_grid()
        level = 4
        alice_point = (100, 100)
        cell = grid.cell(alice_point, level)
        key = grid.pack_key(cell, 0, level)
        plan = plan_repair([(200, 200)], [key], [], grid, level)
        assert plan.additions == [grid.center(cell, level)]
        assert plan.removals == []

    def test_bob_surplus_removes_his_points(self):
        grid = make_grid()
        level = 4
        bob_points = [(50, 50), (51, 50), (200, 200)]
        cell = grid.cell((50, 50), level)
        bucket = grid.bucket_points(bob_points, level)[cell]
        # Bob has len(bucket) points there; Alice has one fewer.
        key = grid.pack_key(cell, len(bucket) - 1, level)
        plan = plan_repair(bob_points, [], [key], grid, level)
        assert len(plan.removals) == 1
        assert plan.removals[0] in bucket

    def test_occurrence_strategy_removes_top_ranked(self):
        grid = make_grid()
        level = 6
        cell_points = [(10, 10), (10, 40), (40, 10)]
        # Keep only points genuinely co-located at this level.
        cell = grid.cell(cell_points[0], level)
        co_located = [p for p in cell_points if grid.cell(p, level) == cell]
        if len(co_located) >= 2:
            key = grid.pack_key(cell, len(co_located) - 1, level)
            plan = plan_repair(co_located, [], [key], grid, level)
            assert plan.removals == [sorted(co_located)[-1]]

    def test_unknown_strategy_rejected(self):
        grid = make_grid()
        with pytest.raises(ConfigError):
            plan_repair([], [], [], grid, 1, strategy="nonsense")

    def test_phantom_cell_raises(self):
        grid = make_grid()
        level = 3
        cell = grid.cell((10, 10), level)
        key = grid.pack_key(cell, 0, level)
        with pytest.raises(ReconciliationFailure):
            plan_repair([(200, 200)], [], [key], grid, level)

    def test_phantom_occurrence_raises(self):
        grid = make_grid()
        level = 3
        bob_points = [(10, 10)]
        cell = grid.cell((10, 10), level)
        key = grid.pack_key(cell, 5, level)  # rank 5 in a 1-point cell
        with pytest.raises(ReconciliationFailure):
            plan_repair(bob_points, [], [key], grid, level)

    @pytest.mark.parametrize("strategy", REPAIR_STRATEGIES)
    def test_strategies_remove_correct_counts(self, strategy):
        grid = make_grid(delta=64)
        level = 6
        rng = random.Random(1)
        bob_points = [(rng.randrange(64), rng.randrange(64)) for _ in range(30)]
        buckets = grid.bucket_points(bob_points, level)
        cell, bucket = max(buckets.items(), key=lambda item: len(item[1]))
        surplus = min(2, len(bucket))
        keys = [
            grid.pack_key(cell, len(bucket) - 1 - i, level) for i in range(surplus)
        ]
        plan = plan_repair(bob_points, [], keys, grid, level, strategy)
        assert len(plan.removals) == surplus
        for victim in plan.removals:
            assert victim in bucket


class TestApplyRepair:
    def test_apply_addition_and_removal(self):
        plan = RepairPlan(level=2, additions=[(9, 9)], removals=[(1, 1)])
        repaired = apply_repair([(1, 1), (2, 2)], plan)
        assert sorted(repaired) == [(2, 2), (9, 9)]

    def test_multiset_removal(self):
        plan = RepairPlan(level=1, additions=[], removals=[(5, 5)])
        repaired = apply_repair([(5, 5), (5, 5)], plan)
        assert repaired == [(5, 5)]

    def test_missing_removal_raises(self):
        plan = RepairPlan(level=1, additions=[], removals=[(7, 7)])
        with pytest.raises(ReconciliationFailure):
            apply_repair([(1, 1)], plan)

    def test_original_not_mutated(self):
        original = [(1, 1), (2, 2)]
        plan = RepairPlan(level=0, additions=[(3, 3)], removals=[(1, 1)])
        apply_repair(original, plan)
        assert original == [(1, 1), (2, 2)]

    def test_size_arithmetic(self):
        plan = RepairPlan(
            level=0, additions=[(8, 8), (9, 9)], removals=[(1, 1)]
        )
        repaired = apply_repair([(1, 1), (2, 2), (3, 3)], plan)
        assert len(repaired) == 3 - 1 + 2


def apply_repair_by_remove(bob_points, plan):
    """The original applier: one ``list.remove`` per victim, O(n·removals).

    Kept as the reference :func:`apply_repair`'s counting pass must match
    list for list, order and duplicates included.
    """
    repaired = list(bob_points)
    for victim in plan.removals:
        try:
            repaired.remove(victim)
        except ValueError as exc:
            raise ReconciliationFailure(
                f"repair removal {victim} not present in Bob's set"
            ) from exc
    repaired.extend(plan.additions)
    return repaired


# Coordinates in [0, 4) make duplicate points the common case.
small_points = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=40
)


class TestApplyRepairOracle:
    @given(small_points, st.data())
    @settings(max_examples=200, deadline=None)
    def test_counting_pass_equals_sequential_remove(self, points, data):
        removals = data.draw(
            st.lists(st.sampled_from(points), max_size=len(points))
            if points else st.just([])
        )
        # A drawn list may name one point more often than Bob holds it;
        # keep only what sequential removal can honour.
        remaining = list(points)
        victims = []
        for victim in removals:
            if victim in remaining:
                remaining.remove(victim)
                victims.append(victim)
        additions = data.draw(small_points)
        plan = RepairPlan(level=0, additions=additions, removals=victims)
        assert apply_repair(points, plan) == apply_repair_by_remove(points, plan)

    @given(small_points, st.tuples(st.integers(0, 3), st.integers(0, 3)))
    @settings(max_examples=100, deadline=None)
    def test_missing_victim_raises_like_the_reference(self, points, victim):
        # One removal more than Bob holds of ``victim``.
        removals = [victim] * (points.count(victim) + 1)
        plan = RepairPlan(level=0, additions=[], removals=removals)
        with pytest.raises(ReconciliationFailure):
            apply_repair_by_remove(points, plan)
        with pytest.raises(ReconciliationFailure):
            apply_repair(points, plan)

    def test_first_occurrences_removed_in_order(self):
        points = [(1, 1), (2, 2), (1, 1), (3, 3), (1, 1)]
        plan = RepairPlan(level=0, additions=[(9, 9)], removals=[(1, 1), (1, 1)])
        expected = [(2, 2), (3, 3), (1, 1), (9, 9)]
        assert apply_repair(points, plan) == expected
        assert apply_repair_by_remove(points, plan) == expected
