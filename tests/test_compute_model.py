"""Per-UE cost arithmetic against hand-computed values. The local cost
comes from load_estimation.estimate_loads, which prices every UE at once."""

import math

import numpy as np
import pytest

from mecoffload.compute_model import (
    cost_inputs,
    execution_cost,
    offload_overhead,
    upload_cost,
)
from mecoffload.errors import ZeroRate

from test_load_estimation import sized
from test_scenario import make_ue


class TestLocalOverhead:
    def test_reference_values(self):
        # 1e9 cycles at 0.7 GHz, 4.9e-12 J/cycle, equal weights
        out = sized()[0].local
        assert out.time_s == pytest.approx(1.4285714285714286, rel=1e-12)
        assert out.energy_j == pytest.approx(0.0049, rel=1e-12)
        assert out.overhead == pytest.approx(0.7167357142857143, rel=1e-12)

    def test_weights_scale_linearly(self):
        time_only = sized(wt=1.0, we=0.0)[0].local
        energy_only = sized(wt=0.0, we=1.0)[0].local
        assert time_only.overhead == pytest.approx(time_only.time_s)
        assert energy_only.overhead == pytest.approx(energy_only.energy_j)


class TestOffloadOverhead:
    def test_hand_composition(self):
        # rate 1e6 bit/s, full server: 3.44064 s upload, 1 s execution
        out = offload_overhead(make_ue(), rate_bps=1e6, f_assigned_hz=1e9)
        assert out.t_off_s == pytest.approx(3.44064, rel=1e-12)
        assert out.e_off_j == pytest.approx(0.344064, rel=1e-12)
        assert out.t_exe_s == pytest.approx(1.0, rel=1e-12)
        assert out.t_total_s == pytest.approx(4.44064, rel=1e-12)
        assert out.overhead == pytest.approx(
            0.5 * 4.44064 + 0.5 * 0.344064, rel=1e-12
        )

    def test_higher_rate_never_costs_more(self):
        slow = offload_overhead(make_ue(), 1e6, 1e9)
        fast = offload_overhead(make_ue(), 2e6, 1e9)
        assert fast.overhead < slow.overhead

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ZeroRate):
            offload_overhead(make_ue(), rate, 1e9)

    def test_bad_cpu_rejected(self):
        with pytest.raises(ZeroRate):
            offload_overhead(make_ue(), 1e6, 0.0)

    def test_array_form_prices_each_ue_as_the_scalar_form(self):
        ues = [make_ue(i, power=0.1 + 0.01 * i, bits=1e6 * (i + 1), cycles=3e8 * (i + 1),
                       wt=0.1 * i, we=1 - 0.1 * i) for i in range(5)]
        rates = np.array([1e6, 3.3e5, 7e7, 2.2e6, 9.1e5])
        speeds = np.array([1e9, 2.5e9, 3.3e8, 7.7e9, 1.1e9])
        bits, power, cycles, wt, we = np.array([cost_inputs(u) for u in ues]).T
        t_off, e_off = upload_cost(bits, power, rates)
        t_exe, t_total, overhead = execution_cost(cycles, wt, we, t_off, e_off, speeds)
        for j, ue in enumerate(ues):
            one = offload_overhead(ue, float(rates[j]), float(speeds[j]))
            assert t_off[j] == one.t_off_s and e_off[j] == one.e_off_j
            assert t_exe[j] == one.t_exe_s and t_total[j] == one.t_total_s
            assert overhead[j] == one.overhead

    @pytest.mark.parametrize("rate", [0.0, math.nan])
    def test_array_form_rejects_a_bad_rate(self, rate):
        with pytest.raises(ZeroRate):
            upload_cost(np.full(2, 1e6), np.full(2, 0.1), np.array([1e6, rate]))

    def test_array_form_rejects_a_zero_cpu_share(self):
        ones = np.ones(2)
        with pytest.raises(ZeroRate):
            execution_cost(ones, ones, ones, ones, ones, np.array([1e9, 0.0]))
