"""Offload cost arithmetic against hand-computed values and the one-UE
formula of _oracles.offload_cost. The local cost comes from
load_estimation.estimate_loads, which prices every UE at once."""

import numpy as np
import pytest

from mecoffload.compute_model import cost_inputs, execution_cost, upload_cost

from _oracles import ue_offload_cost
from test_load_estimation import sized
from test_scenario import make_ue, manual_scenario


def scenario_of(ues):
    """A scenario holding the make_ue entries `ues`, each at its own cell."""
    return manual_scenario([(0.0, 0.0)] * len(ues), ues=ues)


def priced(ues, rates, speeds):
    """The array pricing of the make_ue entries `ues`, gathered from a
    scenario's columns: (t_off, e_off, overhead)."""
    bits, power, cycles, wt, we = cost_inputs(scenario_of(ues), np.arange(len(ues)))
    t_off, e_off = upload_cost(bits, power, np.asarray(rates, dtype=float))
    return t_off, e_off, execution_cost(cycles, wt, we, t_off, e_off,
                                        np.asarray(speeds, dtype=float))


class TestLocalOverhead:
    def test_reference_values(self):
        # 1e9 cycles at 0.7 GHz, 4.9e-12 J/cycle, equal weights
        loads = sized()
        assert loads.local_time_s[0] == pytest.approx(1.4285714285714286, rel=1e-12)
        assert loads.local_overhead[0] == pytest.approx(0.7167357142857143, rel=1e-12)

    def test_weights_scale_linearly(self):
        time_only = sized(wt=1.0, we=0.0)
        energy_only = sized(wt=0.0, we=1.0)
        assert time_only.local_overhead[0] == pytest.approx(time_only.local_time_s[0])
        assert energy_only.local_overhead[0] == pytest.approx(0.0049, rel=1e-12)  # v*D


class TestOffloadOverhead:
    def test_hand_composition(self):
        # rate 1e6 bit/s, full server: 3.44064 s upload, 1 s execution
        t_off, e_off, overhead = (float(x[0]) for x in priced([make_ue()], [1e6], [1e9]))
        assert t_off == pytest.approx(3.44064, rel=1e-12)
        assert e_off == pytest.approx(0.344064, rel=1e-12)
        assert overhead == pytest.approx(0.5 * 4.44064 + 0.5 * 0.344064, rel=1e-12)
        ue = scenario_of([make_ue()]).ues[0]
        want = ue_offload_cost(ue, 1e6, 1e9)
        assert (t_off, e_off, overhead) == (want[0], want[1], want[3])

    def test_higher_rate_never_costs_more(self):
        slow, fast = priced([make_ue()] * 2, [1e6, 2e6], [1e9, 1e9])[2]
        assert fast < slow

    def test_array_form_prices_each_ue_as_the_scalar_form(self):
        ues = [make_ue(power=0.1 + 0.01 * i, bits=1e6 * (i + 1), cycles=3e8 * (i + 1),
                       wt=0.1 * i, we=1 - 0.1 * i) for i in range(5)]
        rates = np.array([1e6, 3.3e5, 7e7, 2.2e6, 9.1e5])
        speeds = np.array([1e9, 2.5e9, 3.3e8, 7.7e9, 1.1e9])
        t_off, e_off, overhead = priced(ues, rates, speeds)
        for j, ue in enumerate(scenario_of(ues).ues):
            one = ue_offload_cost(ue, float(rates[j]), float(speeds[j]))
            assert t_off[j] == one[0] and e_off[j] == one[1]
            assert overhead[j] == one[3]

    def test_bad_cpu_rejected(self):
        with pytest.raises(ValueError, match="assigned CPU speed must be positive, got"):
            priced([make_ue()], [1e6], [0.0])

    def test_array_form_rejects_a_zero_cpu_share(self):
        ones = np.ones(2)
        with pytest.raises(ValueError, match="assigned CPU speed must be positive, got"):
            execution_cost(ones, ones, ones, ones, ones, np.array([1e9, 0.0]))
