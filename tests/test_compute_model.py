"""Per-UE cost arithmetic against hand-computed values. The local cost
comes from load_estimation.estimate_loads, which prices every UE at once."""

import math

import pytest

from mecoffload.compute_model import offload_overhead
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
