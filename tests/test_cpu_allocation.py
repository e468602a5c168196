"""Server-budget splitting: exact optima, pinning, grid-search agreement,
and the array solvers against the one-request-at-a-time oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecoffload import cpu_allocation
from mecoffload.cpu_allocation import allocate_equal, allocate_minmax, allocate_minsum
from mecoffload.errors import InfeasibleAllocation

from _oracles import (
    compensated_sum,
    cpu_requests,
    grid_cpu_oracle,
    left_to_right_sum,
    scalar_equal,
    scalar_feasible,
    scalar_minmax,
    scalar_minsum,
)

LOOSE = math.inf
SOLVERS = (allocate_minmax, allocate_minsum, allocate_equal)


def reqs(cycles, caps=None):
    """UE ids, cycles and deadline caps, the arrays every solver takes."""
    caps = caps or [LOOSE] * len(cycles)
    return np.arange(len(cycles)), np.array(cycles, dtype=float), np.array(caps, dtype=float)


def min_shares(cycles, caps):
    """Each UE's smallest share meeting its deadline, +inf for a cap <= 0."""
    return [r.min_share_hz for r in cpu_requests(range(len(cycles)), cycles, caps)]


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


def fits(requests, budget) -> bool:
    """The solvers' feasibility check: min-max raises for exactly the
    instances whose deadlines cannot all be met within the budget."""
    try:
        allocate_minmax(*requests, budget)
    except InfeasibleAllocation as exc:
        assert str(exc) == "deadline caps cannot all be met within the server budget"
        return False
    return True


class TestFeasible:
    def test_nonpositive_cap(self):
        assert not fits(reqs([1e9], caps=[0.0]), 1e10)
        assert not fits(reqs([1e9], caps=[-1.0]), 1e10)

    def test_boundary_exact_fit(self):
        # two UEs each needing exactly half the budget
        assert fits(reqs([1e9, 1e9], caps=[2.0, 2.0]), 1e9)

    def test_over_budget(self):
        assert not fits(reqs([1e9, 1e9], caps=[2.0, 2.0]), 0.99e9)

    def test_empty(self):
        assert not fits(reqs([]), 1e9)


class TestMinMax:
    def test_equalizes_proportional_split(self):
        out = allocate_minmax(*reqs([1e9, 4e9]), 5e9)
        assert out.objective == pytest.approx(1.0, rel=1e-12)
        assert out.f[0] == pytest.approx(1e9, rel=1e-12)
        assert out.f[1] == pytest.approx(4e9, rel=1e-12)

    def test_equal_demand_equal_split(self):
        out = allocate_minmax(*reqs([2e9, 2e9, 2e9]), 3e9)
        for f in out.f.values():
            assert f == pytest.approx(1e9, rel=1e-12)

    def test_pinning_hand_instance(self):
        # unconstrained time 2/3 s violates the 0.4 s cap; pin, re-solve
        out = allocate_minmax(*reqs([1e9, 1e9], caps=[0.4, LOOSE]), 3e9)
        assert out.f[0] == pytest.approx(2.5e9, rel=1e-12)
        assert out.f[1] == pytest.approx(0.5e9, rel=1e-12)
        assert out.objective == pytest.approx(2.0, rel=1e-12)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleAllocation):
            allocate_minmax(*reqs([1e9], caps=[0.0]), 1e10)
        with pytest.raises(InfeasibleAllocation):
            allocate_minmax(*reqs([1e9, 1e9], caps=[1.0, 1.0]), 1.9e9)

    def test_never_below_averaging_bound(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            requests, budget = random_instance(rng)
            out = allocate_minmax(*requests, budget)
            bound = sum(requests[1]) / budget
            assert out.objective >= bound * (1 - 1e-12)


class TestMinSum:
    def test_sqrt_rule(self):
        out = allocate_minsum(*reqs([1e9, 4e9]), 3e9)
        assert out.f[0] == pytest.approx(1e9, rel=1e-12)
        assert out.f[1] == pytest.approx(2e9, rel=1e-12)
        assert out.objective == pytest.approx(3.0, rel=1e-12)

    def test_equal_demand_equal_split(self):
        out = allocate_minsum(*reqs([2e9, 2e9]), 5e9)
        assert out.f[0] == pytest.approx(2.5e9, rel=1e-12)
        assert out.f[1] == pytest.approx(2.5e9, rel=1e-12)

    def test_single_request_gets_everything(self):
        out = allocate_minsum(*reqs([7e8]), 4e9)
        assert out.f[0] == pytest.approx(4e9, rel=1e-12)
        assert out.objective == pytest.approx(7e8 / 4e9, rel=1e-12)

    def test_pinned_lower_bound_respected(self):
        # sqrt rule alone would give UE0 less than its deadline needs
        out = allocate_minsum(*reqs([1e9, 9e9], caps=[1.0, LOOSE]), 3e9)
        assert out.f[0] == pytest.approx(1e9, rel=1e-12)
        assert out.f[1] == pytest.approx(2e9, rel=1e-12)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleAllocation):
            allocate_minsum(*reqs([1e9, 1e9], caps=[1.0, 1.0]), 1.9e9)


class TestEqualSplit:
    def test_even_shares(self):
        out = allocate_equal(*reqs([1e9, 2e9]), 4e9)
        assert out.f[0] == out.f[1] == pytest.approx(2e9)
        assert out.objective == pytest.approx(0.5 + 1.0, rel=1e-12)

    def test_cap_check(self):
        with pytest.raises(InfeasibleAllocation):
            allocate_equal(*reqs([1e9, 1e9], caps=[0.4, LOOSE]), 3e9)
        with pytest.raises(InfeasibleAllocation):
            allocate_equal(*reqs([]), 3e9)
        # a nan deadline is met by no share, as the pinning rules find
        nan_cap = ([0, 1], np.array([1e9, 1e9]), np.array([math.nan, 1.0]), 1e10)
        for solver in SOLVERS:
            with pytest.raises(InfeasibleAllocation):
                solver(*nan_cap)


class TestSharedInvariants:
    @pytest.mark.parametrize("solver", [allocate_minmax, allocate_minsum])
    def test_budget_and_caps(self, solver):
        rng = np.random.default_rng(200)
        for _ in range(50):
            requests, budget = random_instance(rng)
            out = solver(*requests, budget)
            assert out.total_hz == pytest.approx(budget, rel=1e-9)
            for ue, c, cap in zip(*requests):
                assert out.f[ue] > 0
                assert c / out.f[ue] <= cap * (1 + 1e-9)

    def test_minsum_no_worse_than_minmax_on_sum(self):
        rng = np.random.default_rng(300)
        for _ in range(50):
            requests, budget = random_instance(rng)
            minsum = allocate_minsum(*requests, budget)
            minmax = allocate_minmax(*requests, budget)
            sum_under_minmax = sum(c / minmax.f[ue] for ue, c, _ in zip(*requests))
            assert minsum.objective <= sum_under_minmax * (1 + 1e-12)

    @pytest.mark.parametrize("solver", [allocate_minmax, allocate_minsum])
    @pytest.mark.parametrize("loose_cap", [1e20, LOOSE])
    def test_pins_that_use_up_the_budget_are_infeasible(self, solver, loose_cap):
        # the minimum shares sum to the budget (1.0 + 1e-20 rounds to 1.0),
        # so the feasibility check passes; the first pin then takes the
        # whole budget while the second request is still active
        requests = reqs([1.0, 1.0], [1.0, loose_cap])
        assert scalar_feasible(cpu_requests(*requests), 1.0)
        with pytest.raises(InfeasibleAllocation, match="pinned shares use up"):
            solver(*requests, 1.0)

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("capacity", [0.0, -1.0, math.nan, math.inf])
    def test_a_budget_that_cannot_be_split_is_rejected_first(self, solver, capacity):
        # nothing is pinned and no deadline binds; a zero budget used to
        # read as a budget the pins took, and an even split divided by it
        with pytest.raises(InfeasibleAllocation, match="server budget must be finite and positive"):
            solver(*reqs([1e9, 1e9]), capacity)

    @pytest.mark.parametrize("kind,solver", [("minmax", allocate_minmax), ("minsum", allocate_minsum)])
    def test_grid_oracle_agreement_small(self, kind, solver):
        rng = np.random.default_rng(400 if kind == "minmax" else 500)
        for _ in range(15):
            requests, budget = random_instance(rng)
            out = solver(*requests, budget)
            lower = np.array(min_shares(*requests[1:]))
            grid = grid_cpu_oracle(kind, requests[1], lower, budget)
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
            fits(tight, 1e11),
            allocate_equal(*reqs(self.NINE), 1e11),
            allocate_minmax(*reqs(self.MIXED), 1e11),
            allocate_minsum(*reqs(self.MIXED), 1e11),
            allocate_minmax(*reqs(self.MIXED, [LOOSE, 0.01] + [LOOSE] * 4), 1e11),
            allocate_minsum(*reqs(self.MIXED, [LOOSE, 0.01] + [LOOSE] * 4), 1e11),
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


SCALAR = {allocate_minmax: scalar_minmax, allocate_minsum: scalar_minsum, allocate_equal: scalar_equal}

@st.composite
def oracle_instances(draw):
    """Cycles, shuffled UE ids and caps, with a budget drawn so that the
    minimum shares fit it loosely, exactly (their left-to-right sum is the
    budget) or not at all. A cap is infinite (no deadline) or gives its UE
    a drawn fraction of the budget, so several rounds of pins can use the
    budget up; now and then one cap is zero, negative or nan, and now and
    then the budget is no finite positive number."""
    n = draw(st.integers(0, 12))
    cycles = draw(st.lists(st.floats(1e6, 5e9), min_size=n, max_size=n))
    ues = draw(st.permutations(range(n)))
    budget = draw(st.floats(1e8, 3e11))
    loose = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    caps = [
        math.inf if free else c / (budget * draw(st.floats(1e-4, 1.0)))
        for c, free in zip(cycles, loose)
    ]
    if n and draw(st.integers(0, 5)) == 0:
        caps[draw(st.integers(0, n - 1))] = draw(st.sampled_from((0.0, -0.0, -1e-9, -3.0, math.nan)))
    total = left_to_right_sum(min_shares(cycles, caps))
    fit = draw(st.sampled_from(("as drawn", "exact", "scaled")))
    if 0 < total < math.inf and fit != "as drawn":
        budget = total if fit == "exact" else total * draw(st.floats(0.5, 2.0))
    if draw(st.integers(0, 7)) == 0:
        budget = draw(st.sampled_from((0.0, -0.0, -1.0, math.nan, math.inf, -math.inf)))
    return np.array(ues, dtype=np.int64), np.array(cycles), np.array(caps), budget


@settings(max_examples=400)
@given(oracle_instances(), st.sampled_from(SOLVERS))
@example(reqs([1.0, 1.0], [1.0, LOOSE]) + (1.0,), allocate_minmax)
@example(reqs([1.0, 1.0], [1.0, 1e20]) + (1.0,), allocate_minsum)
@example(reqs([1e9, 1e9], [2.0, 2.0]) + (1e9,), allocate_minsum)
@example(reqs([1e9] * 9, [1e9 / (1e11 / 9)] * 9) + (1e11,), allocate_minmax)
def test_array_solvers_equal_the_scalar_oracle(instance, solver):
    # same shares in the same order, same objective and total to the bit,
    # and infeasible exactly when the one-request-at-a-time solver is
    ues, cycles, caps, budget = instance
    try:
        want = SCALAR[solver](cpu_requests(ues, cycles, caps), budget)
    except InfeasibleAllocation as exc:
        with pytest.raises(InfeasibleAllocation, match=str(exc)):
            solver(ues, cycles, caps, budget)
        return
    got = solver(ues, cycles, caps, budget)
    assert list(got.f) == list(want.f)
    assert all(type(ue) is int for ue in got.f)
    assert np.array(list(got.f.values())).tobytes() == np.array(list(want.f.values())).tobytes()
    assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
    assert np.float64(got.total_hz).tobytes() == np.float64(left_to_right_sum(want.f.values())).tobytes()
