"""Tests for the batched Nelder-Mead minimizer: every slot of a batch must
reproduce, bit for bit, a plain sequential search from the same start."""

from __future__ import annotations

import math

import numpy as np
import pytest

from entrobox._neldermead import minimize_batch

from _explicit import nelder_mead_sequential


def rosenbrock(x: list[float]) -> float:
    return sum(
        100.0 * (x[i + 1] - x[i] * x[i]) * (x[i + 1] - x[i] * x[i])
        + (1.0 - x[i]) * (1.0 - x[i])
        for i in range(len(x) - 1)
    )


def bowl(x: list[float]) -> float:
    return sum((v - 0.5) * (v - 0.5) for v in x)


def terraced_bowl(x: list[float]) -> float:
    # Flat terraces make inside contractions tie with the worst vertex,
    # which forces shrink steps.
    return math.floor(4.0 * bowl(x)) / 4.0


def chebyshev(x: list[float]) -> float:
    return max(abs(v - 0.25 * (i + 1)) for i, v in enumerate(x))


# Per slot: objective, start point, budget. Slot 0's budget leaves exactly
# the worst-case cost of its last iteration, which must still run.
SLOTS = [
    (rosenbrock, [-1.2, 1.0, 0.3], 151),
    (bowl, [-1.2, 1.0, 0.3], 5000),
    (terraced_bowl, [2.0, -1.0, 0.0], 5000),
    (rosenbrock, [0.5, 0.5, 0.5], 4),
    (chebyshev, [1.0, 1.0, -1.0], 5000),
    (terraced_bowl, [-1.2, 1.0, 0.3], 120),
]
STEP = 0.5
FATOL = 1e-12
XATOL = 1e-9


def batch_objective(points: np.ndarray, slots: np.ndarray) -> np.ndarray:
    return np.array(
        [SLOTS[s][0]([float(v) for v in p]) for p, s in zip(points, slots)]
    )


def run_batch(order: list[int]):
    x0 = np.array([SLOTS[i][1] for i in order])
    budget = np.array([SLOTS[i][2] for i in order])

    def objective(points, slots):
        return batch_objective(points, np.asarray(order)[slots])

    return minimize_batch(objective, x0, STEP, budget, fatol=FATOL, xatol=XATOL)


def reference(i: int):
    fn, x0, budget = SLOTS[i]
    return nelder_mead_sequential(fn, x0, STEP, budget, FATOL, XATOL)


class TestBitwiseParity:
    def test_batch_matches_sequential_reference(self):
        result = run_batch(list(range(len(SLOTS))))
        assert result.x.shape == (len(SLOTS), 3)
        assert result.fun.shape == result.nfev.shape == (len(SLOTS),)
        for i in range(len(SLOTS)):
            x, fun, nfev, _, _ = reference(i)
            assert result.x[i].tolist() == x
            assert float(result.fun[i]) == fun
            assert int(result.nfev[i]) == nfev

    def test_batch_covers_every_way_a_slot_stops(self):
        refs = [reference(i) for i in range(len(SLOTS))]
        iterations = [r[3] for r in refs]
        # Slots leave the loop at different passes.
        assert len(set(iterations)) == len(SLOTS)
        # Slot 0 runs out of budget before its simplex collapses.
        assert refs[0][2] + 3 + 2 > SLOTS[0][2]
        assert refs[0][2] <= SLOTS[0][2]
        # Slot 1 converges long before its budget.
        assert refs[1][2] < SLOTS[1][2] // 4
        # Slot 2 takes shrink steps.
        assert refs[2][4] > 0
        # Slot 3 can afford the start simplex but not one iteration.
        assert iterations[3] == 0 and refs[3][2] == 4

    def test_stop_reason_per_slot(self):
        result = run_batch(list(range(len(SLOTS))))
        assert result.converged.shape == (len(SLOTS),)
        assert result.converged.dtype == bool
        # Slot 0 stops at its budget edge and slot 3 before one iteration;
        # slot 1 converges long before its budget.
        assert not result.converged[0]
        assert not result.converged[3]
        assert result.converged[1]

    def test_slot_order_does_not_matter(self):
        forward = run_batch(list(range(len(SLOTS))))
        order = [4, 2, 0, 5, 3, 1]
        shuffled = run_batch(order)
        for pos, i in enumerate(order):
            assert np.array_equal(shuffled.x[pos], forward.x[i])
            assert shuffled.fun[pos] == forward.fun[i]
            assert shuffled.nfev[pos] == forward.nfev[i]

    def test_scalar_budget_and_single_slot(self):
        result = minimize_batch(
            lambda points, slots: batch_objective(points, slots + 1),
            np.array([SLOTS[1][1]]),
            STEP,
            5000,
            FATOL,
            XATOL,
        )
        x, fun, nfev, _, _ = reference(1)
        assert result.x[0].tolist() == x
        assert float(result.fun[0]) == fun
        assert int(result.nfev[0]) == nfev


class TestPassStructure:
    def test_at_most_three_objective_calls_per_pass(self):
        # The start simplex is one call; a pass then makes the reflection,
        # one call for every slot's second point (expansion or contraction)
        # and, in a pass where a slot shrinks, one shrink call: the only
        # call that holds a slot more than once. The batch runs as many
        # passes as its longest reference search has iterations.
        calls = []

        def counted(points, slots):
            calls.append(slots.tolist())
            return batch_objective(points, slots)

        x0 = np.array([slot[1] for slot in SLOTS])
        budget = np.array([slot[2] for slot in SLOTS])
        minimize_batch(counted, x0, STEP, budget, fatol=FATOL, xatol=XATOL)
        refs = [reference(i) for i in range(len(SLOTS))]
        passes = max(r[3] for r in refs)
        shrink_passes = sum(len(set(c)) < len(c) for c in calls[1:])
        assert 0 < shrink_passes <= sum(r[4] for r in refs)
        assert sum(map(len, calls)) == sum(r[2] for r in refs)
        assert len(calls) <= 1 + 2 * passes + shrink_passes


class TestBudget:
    @pytest.mark.parametrize(
        "x0, budget",
        [(np.zeros((2, 3)), np.array([100, 3])), (np.zeros((1, 3)), 2)],
    )
    def test_budget_below_start_simplex_raises(self, x0, budget):
        with pytest.raises(ValueError, match="cannot cover the initial 4 points"):
            minimize_batch(batch_objective, x0, STEP, budget, fatol=FATOL, xatol=XATOL)
