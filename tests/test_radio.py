"""Rate and interference-table arithmetic against hand values and a
plain-python reference implementation."""

import numpy as np
import pytest

from mecoffload.errors import InconsistentTables
from mecoffload.radio import (
    InterferenceTable,
    OffloadDecision,
    PrbAssociation,
    interference_table,
    per_prb_power,
    uplink_rate,
)
from mecoffload.scenario import ChannelGains, RadioParams

from _oracles import brute_interference, brute_uplink_rate

RADIO = RadioParams(bandwidth_hz=20e6, num_prbs=100, noise_per_prb_w=1e-13)


class TestOffloadDecision:
    def test_validation(self):
        with pytest.raises(ValueError):
            OffloadDecision(a=(0, 2, 1))

    def test_helpers(self):
        d = OffloadDecision.from_set([0, 2], 4)
        assert d.a == (1, 0, 1, 0)
        assert d.offload_set == (0, 2)
        assert d.n_offload == 2
        assert d.flip_on(1).a == (1, 1, 1, 0)
        assert d.flip_off(0).a == (0, 0, 1, 0)
        assert OffloadDecision.all_local(3).a == (0, 0, 0)


class TestPerPrbPower:
    def test_split_and_idle(self):
        c = PrbAssociation.from_matrix([[1, 1, 0], [0, 0, 0]])
        p = per_prb_power(c, [0.1, 0.1])
        assert p[0] == pytest.approx(0.05)
        assert p[1] == 0.0


class TestInterferenceTable:
    def test_all_zero_association(self):
        c = PrbAssociation.empty(3, 4)
        g = ChannelGains(h=np.full((3, 3), 1e-10))
        o = interference_table(c, g, [0.1] * 3).o
        assert np.array_equal(o, np.zeros((3, 4)))

    def test_two_ue_shared_prb_values(self):
        # UE0 spreads 0.1 W over 2 PRBs, cross gain 1e-12: 5e-14 received,
        # recorded on every PRB it transmits on, held by cell 1 or not
        c = PrbAssociation.from_matrix([[1, 1], [1, 0]])
        h = np.array([[1e-10, 1e-12], [1e-12, 1e-10]])
        o = interference_table(c, ChannelGains(h=h), [0.1, 0.1]).o
        assert o[1, 0] == pytest.approx(5e-14, rel=1e-12)
        assert o[1, 1] == pytest.approx(5e-14, rel=1e-12)
        # UE1 holds one PRB at full power
        assert o[0, 0] == pytest.approx(1e-13, rel=1e-12)
        assert o[0, 1] == 0.0

    def test_matches_reference_on_random_tables(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n, k = rng.integers(2, 7), rng.integers(1, 9)
            c_mat = rng.integers(0, 2, size=(n, k))
            h = 10.0 ** rng.uniform(-13, -7, size=(n, n))
            powers = rng.uniform(0.01, 0.5, size=n)
            got = interference_table(
                PrbAssociation.from_matrix(c_mat), ChannelGains(h=h), powers
            ).o
            want = brute_interference(c_mat, h, powers)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


class TestUplinkRate:
    def test_local_ue_rate_zero(self):
        a = OffloadDecision(a=(0, 1))
        c = PrbAssociation.from_matrix([[0, 0], [1, 1]])
        g = ChannelGains(h=np.full((2, 2), 1e-10))
        assert uplink_rate(0, a, c, g, [0.1, 0.1], RADIO) == 0.0

    def test_single_prb_interference_free_value(self):
        # P*H/noise = 0.1*1e-10/1e-13 = 100 on one PRB of 200 kHz
        a = OffloadDecision(a=(1,))
        c = PrbAssociation.from_matrix([[1] + [0] * 99])
        g = ChannelGains(h=np.array([[1e-10]]))
        rate = uplink_rate(0, a, c, g, [0.1], RADIO)
        assert rate == pytest.approx(1331642.2965503589, rel=1e-12)

    def test_power_splits_across_held_prbs(self):
        a = OffloadDecision(a=(1,))
        row = [1, 1, 1] + [0] * 97
        c = PrbAssociation.from_matrix([row])
        g = ChannelGains(h=np.array([[1e-10]]))
        rate = uplink_rate(0, a, c, g, [0.1], RADIO)
        # 3 PRBs at SNR 100/3 each, frozen reference value
        assert rate == pytest.approx(3060922.8158772374, rel=1e-12)

    def test_consistency_guards(self):
        g = ChannelGains(h=np.full((2, 2), 1e-10))
        with pytest.raises(InconsistentTables):
            uplink_rate(
                0,
                OffloadDecision(a=(0, 1)),
                PrbAssociation.from_matrix([[1, 0], [0, 1]]),
                g, [0.1, 0.1], RADIO,
            )
        with pytest.raises(InconsistentTables):
            uplink_rate(
                0,
                OffloadDecision(a=(1, 1)),
                PrbAssociation.from_matrix([[1, 0], [0, 0]]),
                g, [0.1, 0.1], RADIO,
            )

    def test_interference_lowers_rate(self):
        g = ChannelGains(h=np.array([[1e-10, 5e-11], [5e-11, 1e-10]]))
        shared = PrbAssociation.from_matrix([[1, 0], [1, 0]])
        apart = PrbAssociation.from_matrix([[1, 0], [0, 1]])
        both = OffloadDecision(a=(1, 1))
        radio = RadioParams(bandwidth_hz=20e6, num_prbs=2, noise_per_prb_w=1e-13)
        r_shared = uplink_rate(0, both, shared, g, [0.1, 0.1], radio)
        r_apart = uplink_rate(0, both, apart, g, [0.1, 0.1], radio)
        assert r_shared < r_apart

    def test_matches_reference_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, 12))
            a = rng.integers(0, 2, size=n)
            c_mat = np.zeros((n, k), dtype=np.int64)
            for i in range(n):
                if a[i]:
                    hold = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
                    c_mat[i, hold] = 1
            h = 10.0 ** rng.uniform(-13, -7, size=(n, n))
            powers = rng.uniform(0.01, 0.5, size=n)
            radio = RadioParams(bandwidth_hz=20e6, num_prbs=k, noise_per_prb_w=1e-13)
            decision = OffloadDecision(a=tuple(int(x) for x in a))
            assoc = PrbAssociation.from_matrix(c_mat)
            for i in range(n):
                got = uplink_rate(i, decision, assoc, ChannelGains(h=h), powers, radio)
                want = brute_uplink_rate(i, a, c_mat, h, powers, 20e6, k, 1e-13)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
