"""Server-budget splitting: exact optima, pinning, and grid-search agreement."""

import math

import numpy as np
import pytest

from mecoffload import cpu_allocation
from mecoffload.cpu_allocation import (
    CpuRequest,
    allocate_equal,
    allocate_minmax,
    allocate_minsum,
    feasible,
)
from mecoffload.errors import InfeasibleAllocation

from _oracles import compensated_sum, grid_cpu_oracle, left_to_right_sum

LOOSE = math.inf


def reqs(cycles, caps=None):
    caps = caps or [LOOSE] * len(cycles)
    return [CpuRequest(ue=i, cycles=c, t_cap_s=t) for i, (c, t) in enumerate(zip(cycles, caps))]


def random_instance(rng, n_max=4):
    """Feasible random instance: lower bounds kept under 90% of the budget."""
    n = int(rng.integers(1, n_max + 1))
    cycles = rng.uniform(1e8, 5e9, size=n)
    budget = float(cycles.sum() / rng.uniform(0.3, 3.0))
    frac = rng.dirichlet(np.ones(n)) * rng.uniform(0.0, 0.9)
    caps = []
    for i in range(n):
        lower = frac[i] * budget
        if lower <= 0 or rng.random() < 0.3:
            caps.append(LOOSE)
        else:
            caps.append(cycles[i] / lower)
    return reqs(cycles.tolist(), caps), budget


class TestFeasible:
    def test_nonpositive_cap(self):
        assert not feasible(reqs([1e9], caps=[0.0]), 1e10)
        assert not feasible(reqs([1e9], caps=[-1.0]), 1e10)

    def test_boundary_exact_fit(self):
        # two UEs each needing exactly half the budget
        assert feasible(reqs([1e9, 1e9], caps=[2.0, 2.0]), 1e9)

    def test_over_budget(self):
        assert not feasible(reqs([1e9, 1e9], caps=[2.0, 2.0]), 0.99e9)

    def test_empty(self):
        assert not feasible([], 1e9)


class TestMinMax:
    def test_equalizes_proportional_split(self):
        out = allocate_minmax(reqs([1e9, 4e9]), 5e9)
        assert out.objective == pytest.approx(1.0, rel=1e-12)
        assert out.f[0] == pytest.approx(1e9, rel=1e-12)
        assert out.f[1] == pytest.approx(4e9, rel=1e-12)

    def test_equal_demand_equal_split(self):
        out = allocate_minmax(reqs([2e9, 2e9, 2e9]), 3e9)
        for f in out.f.values():
            assert f == pytest.approx(1e9, rel=1e-12)

    def test_pinning_hand_instance(self):
        # unconstrained time 2/3 s violates the 0.4 s cap; pin, re-solve
        out = allocate_minmax(reqs([1e9, 1e9], caps=[0.4, LOOSE]), 3e9)
        assert out.f[0] == pytest.approx(2.5e9, rel=1e-12)
        assert out.f[1] == pytest.approx(0.5e9, rel=1e-12)
        assert out.objective == pytest.approx(2.0, rel=1e-12)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleAllocation):
            allocate_minmax(reqs([1e9], caps=[0.0]), 1e10)
        with pytest.raises(InfeasibleAllocation):
            allocate_minmax(reqs([1e9, 1e9], caps=[1.0, 1.0]), 1.9e9)

    def test_never_below_averaging_bound(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            requests, budget = random_instance(rng)
            out = allocate_minmax(requests, budget)
            bound = sum(r.cycles for r in requests) / budget
            assert out.objective >= bound * (1 - 1e-12)


class TestMinSum:
    def test_sqrt_rule(self):
        out = allocate_minsum(reqs([1e9, 4e9]), 3e9)
        assert out.f[0] == pytest.approx(1e9, rel=1e-12)
        assert out.f[1] == pytest.approx(2e9, rel=1e-12)
        assert out.objective == pytest.approx(3.0, rel=1e-12)

    def test_equal_demand_equal_split(self):
        out = allocate_minsum(reqs([2e9, 2e9]), 5e9)
        assert out.f[0] == pytest.approx(2.5e9, rel=1e-12)
        assert out.f[1] == pytest.approx(2.5e9, rel=1e-12)

    def test_single_request_gets_everything(self):
        out = allocate_minsum(reqs([7e8]), 4e9)
        assert out.f[0] == pytest.approx(4e9, rel=1e-12)
        assert out.objective == pytest.approx(7e8 / 4e9, rel=1e-12)

    def test_pinned_lower_bound_respected(self):
        # sqrt rule alone would give UE0 less than its deadline needs
        out = allocate_minsum(reqs([1e9, 9e9], caps=[1.0, LOOSE]), 3e9)
        assert out.f[0] == pytest.approx(1e9, rel=1e-12)
        assert out.f[1] == pytest.approx(2e9, rel=1e-12)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleAllocation):
            allocate_minsum(reqs([1e9, 1e9], caps=[1.0, 1.0]), 1.9e9)


class TestEqualSplit:
    def test_even_shares(self):
        out = allocate_equal(reqs([1e9, 2e9]), 4e9)
        assert out.f[0] == out.f[1] == pytest.approx(2e9)
        assert out.objective == pytest.approx(0.5 + 1.0, rel=1e-12)

    def test_cap_check(self):
        with pytest.raises(InfeasibleAllocation):
            allocate_equal(reqs([1e9, 1e9], caps=[0.4, LOOSE]), 3e9)
        with pytest.raises(InfeasibleAllocation):
            allocate_equal([], 3e9)


class TestSharedInvariants:
    @pytest.mark.parametrize("solver", [allocate_minmax, allocate_minsum])
    def test_budget_and_caps(self, solver):
        rng = np.random.default_rng(200)
        for _ in range(50):
            requests, budget = random_instance(rng)
            out = solver(requests, budget)
            assert out.total_hz == pytest.approx(budget, rel=1e-9)
            for r in requests:
                assert out.f[r.ue] > 0
                assert r.cycles / out.f[r.ue] <= r.t_cap_s * (1 + 1e-9)

    def test_minsum_no_worse_than_minmax_on_sum(self):
        rng = np.random.default_rng(300)
        for _ in range(50):
            requests, budget = random_instance(rng)
            minsum = allocate_minsum(requests, budget)
            minmax = allocate_minmax(requests, budget)
            sum_under_minmax = sum(r.cycles / minmax.f[r.ue] for r in requests)
            assert minsum.objective <= sum_under_minmax * (1 + 1e-12)

    @pytest.mark.parametrize("solver", [allocate_minmax, allocate_minsum])
    @pytest.mark.parametrize("loose_cap", [1e20, LOOSE])
    def test_pins_that_use_up_the_budget_are_infeasible(self, solver, loose_cap):
        # the minimum shares sum to the budget (1.0 + 1e-20 rounds to 1.0),
        # so feasible passes; the first pin then takes the whole budget
        # while the second request is still active
        requests = reqs([1.0, 1.0], [1.0, loose_cap])
        assert feasible(requests, 1.0)
        with pytest.raises(InfeasibleAllocation):
            solver(requests, 1.0)

    @pytest.mark.parametrize("kind,solver", [("minmax", allocate_minmax), ("minsum", allocate_minsum)])
    def test_grid_oracle_agreement_small(self, kind, solver):
        rng = np.random.default_rng(400 if kind == "minmax" else 500)
        for _ in range(15):
            requests, budget = random_instance(rng)
            out = solver(requests, budget)
            lower = np.array([r.min_share_hz for r in requests])
            grid = grid_cpu_oracle(
                kind, [r.cycles for r in requests], lower, budget
            )
            assert out.objective == pytest.approx(grid, rel=1e-4)


class TestInterpreterIndependentSums:
    # every instance holds a float sum that compensated summation rounds
    # differently: the nine equal shares of 1e11 and their objective, nine
    # minimum shares of 1e11/9 against a 1e11 budget, and cycle counts whose
    # plain and square-root sums both move
    NINE = [1e9] * 9
    MIXED = [3e9, 1e9 / 3, 2e9 / 9, 9e9 / 11, 9e9 / 7, 5e9 / 9]

    def solve_all(self):
        tight = reqs(self.NINE, [1e9 / (1e11 / 9)] * 9)
        return (
            feasible(tight, 1e11),
            allocate_equal(reqs(self.NINE), 1e11),
            allocate_minmax(reqs(self.MIXED), 1e11),
            allocate_minsum(reqs(self.MIXED), 1e11),
            allocate_minmax(reqs(self.MIXED, [LOOSE, 0.01] + [LOOSE] * 4), 1e11),
            allocate_minsum(reqs(self.MIXED, [LOOSE, 0.01] + [LOOSE] * 4), 1e11),
        )

    def test_instances_are_sensitive_to_the_summation(self):
        shares = [1e11 / 9] * 9
        for values in (shares, [1e9 / f for f in shares], self.MIXED,
                       [math.sqrt(c) for c in self.MIXED]):
            assert compensated_sum(values) != left_to_right_sum(values)

    def test_compensated_builtin_sum_changes_nothing(self, monkeypatch):
        # a module-level `sum` shadows the built-in, as if the interpreter's
        # sum compensated: the solvers must not call it
        before = self.solve_all()
        monkeypatch.setattr(cpu_allocation, "sum", compensated_sum, raising=False)
        assert self.solve_all() == before

    def test_totals_and_objectives_add_left_to_right(self):
        tight_ok, equal, *split = self.solve_all()
        assert not tight_ok  # 1e11/9 nine times adds up past 1e11
        assert equal.total_hz == 100000000000.00002  # README's sample output
        assert equal.objective == left_to_right_sum([1e9 / (1e11 / 9)] * 9)
        for out in split:
            assert out.total_hz == left_to_right_sum(out.f.values())
        minsum_objective = left_to_right_sum(c / split[1].f[i] for i, c in enumerate(self.MIXED))
        assert split[1].objective == minsum_objective
