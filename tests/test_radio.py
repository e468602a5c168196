"""Rate and interference-table arithmetic against hand values and a
plain-python reference implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoffload.radio import (
    OffloadDecision,
    PrbAssociation,
    held_rate,
    interference_table,
    per_prb_power,
    uplink_rate,
)
from mecoffload.scenario import ChannelGains, RadioParams

from _oracles import brute_interference, brute_uplink_rate, dense_held_rate

RADIO = RadioParams(bandwidth_hz=20e6, num_prbs=100, noise_per_prb_w=1e-13)


class TestOffloadDecision:
    @pytest.mark.parametrize(
        "ids, match",
        [
            ((2, 0), r"UE ids \[2, 0\] are not ascending and unique"),
            ((0, 1, 1), r"UE ids \[0, 1, 1\] are not ascending and unique"),
            ((-1, 0), r"UE id -1 lies outside 0\.\.2"),
            ((1, 3), r"UE id 3 lies outside 0\.\.2"),
        ],
    )
    def test_constructor_rejects_ids_not_ascending_unique_and_in_range(self, ids, match):
        with pytest.raises(ValueError, match=match):
            OffloadDecision(3, ids)

    def test_constructor_takes_a_tuple_only(self):
        # a list would make the decision unhashable and unequal to its tuple twin
        with pytest.raises(TypeError, match="must be a tuple"):
            OffloadDecision(3, [0, 2])

    def test_helpers(self):
        d = OffloadDecision(4, (0, 2))
        assert d.a == (1, 0, 1, 0)
        assert d.offload_set == (0, 2)
        assert d.n_offload == 2
        assert OffloadDecision.all_local(3) == OffloadDecision(3, ())
        assert OffloadDecision.all_local(3).a == (0, 0, 0)
        assert OffloadDecision.all_local(0).a == ()
        assert d == OffloadDecision(4, (0, 2))

    def test_constructor_rejects_ids_outside_the_cells(self):
        # an id past the cells is a caller's bug, never a UE left local
        with pytest.raises(ValueError, match=r"UE id 7 lies outside 0\.\.2"):
            OffloadDecision(3, (1, 7))
        with pytest.raises(ValueError, match=r"UE id 3 lies outside 0\.\.2"):
            OffloadDecision(3, (0, 1, 2, 3))
        with pytest.raises(ValueError, match=r"UE id 0 lies outside 0\.\.-1"):
            OffloadDecision(0, (0,))

    @pytest.mark.parametrize(
        "ids, bad",
        [
            ((True, 2), "True has type bool"),
            ((0, False), "False has type bool"),
            ((np.True_,), "np.True_ has type bool"),
            ((np.int64(1), 2), "np.int64\\(1\\) has type int64"),
            ((0, np.int32(2)), "np.int32\\(2\\) has type int32"),
            ((1.0,), "1.0 has type float"),
        ],
    )
    def test_constructor_takes_python_int_ids_only(self, ids, bad):
        # index() takes True for 1, so a bool would stand for UE 0 or 1; a
        # numpy id is no Python int, and every decision holds one kind of id
        with pytest.raises(TypeError, match=f"UE id {bad}, not int"):
            OffloadDecision(3, ids)

    @pytest.mark.parametrize(
        "n, error, match",
        [
            (True, TypeError, "UE count True has type bool, not int"),
            (2.0, TypeError, r"UE count 2\.0 has type float, not int"),
            (np.int64(3), TypeError, r"UE count np\.int64\(3\) has type int64, not int"),
            (-1, ValueError, "UE count -1 is negative"),
        ],
    )
    def test_constructor_takes_a_python_int_count_at_least_zero(self, n, error, match):
        with pytest.raises(error, match=match):
            OffloadDecision(n, ())


class TestPrbAssociation:
    def test_empty_row_sums_match_the_zero_table(self):
        assoc = PrbAssociation.empty(3, 4)
        want = assoc.c.sum(axis=1)
        assert assoc.m.dtype == want.dtype and np.array_equal(assoc.m, want)
        assert not assoc.c.any() and assoc.m is assoc.m
        assert not (assoc.c.flags.writeable or assoc.m.flags.writeable)


class TestPerPrbPower:
    def test_split_and_idle(self):
        c = PrbAssociation(c=np.array([[1, 1, 0], [0, 0, 0]]))
        p = per_prb_power(c, [0.1, 0.1])
        assert p[0] == pytest.approx(0.05)
        assert p[1] == 0.0


class TestInterferenceTable:
    def test_all_zero_association(self):
        c = PrbAssociation.empty(3, 4)
        g = ChannelGains(h=np.full((3, 3), 1e-10))
        o = interference_table(c, g, [0.1] * 3)
        assert np.array_equal(o, np.zeros((3, 4)))

    def test_two_ue_shared_prb_values(self):
        # UE0 spreads 0.1 W over 2 PRBs, cross gain 1e-12: 5e-14 received,
        # recorded on every PRB it transmits on, held by cell 1 or not
        c = PrbAssociation(c=np.array([[1, 1], [1, 0]]))
        h = np.array([[1e-10, 1e-12], [1e-12, 1e-10]])
        o = interference_table(c, ChannelGains(h=h), [0.1, 0.1])
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
                PrbAssociation(c=c_mat), ChannelGains(h=h), powers
            )
            want = brute_interference(c_mat, h, powers)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


class TestHeldRate:
    @settings(max_examples=200)
    @given(
        rows=st.integers(1, 8),
        k=st.integers(1, 40),
        kind=st.sampled_from(["zero", "finite", "inf"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_the_summed_shannon_formula(self, rows, k, kind, seed):
        # c * B_prb * log2(1 + p*g / (sigma^2 + I)), summed along each row,
        # from the held entries of c alone
        rng = np.random.default_rng(seed)
        radio = RadioParams(bandwidth_hz=20e6, num_prbs=k, noise_per_prb_w=1e-13)
        c = rng.integers(0, 2, size=(rows, k))
        p = rng.uniform(1e-4, 1.0, size=(rows, 1))
        g = 10.0 ** rng.uniform(-16, -6, size=(rows, 1))
        if kind == "zero":
            interference = 0.0
        elif kind == "finite":
            interference = 10.0 ** rng.uniform(-16, -8, size=(rows, k))
            interference[rng.random((rows, k)) < 0.3] = 0.0
        else:
            interference = np.where(rng.random((rows, k)) < 0.5, np.inf, 1e-12)
        bpp, noise = radio.prb_bandwidth_hz, radio.noise_per_prb_w
        want = (c * bpp * np.log2(1 + p * g / (noise + interference))).sum(-1)
        row, prb = c.nonzero()
        i_held = np.broadcast_to(interference, c.shape)[row, prb]
        got = held_rate(row, prb, (p * g)[row, 0], i_held, rows, radio)
        assert got.tobytes() == want.tobytes()
        for r in range(rows):
            mine = row == r
            one = held_rate(row[mine] - r, prb[mine], (p * g)[r], i_held[mine], 1, radio)
            assert one.shape == (1,)
            assert one.tobytes() == want[r:r + 1].tobytes()

    @settings(max_examples=200)
    @given(
        holds=st.lists(st.sampled_from(["none", "one", "full", "some"]), min_size=1, max_size=8),
        k=st.integers(1, 40),
        interfered=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_the_dense_oracle(self, holds, k, interfered, seed):
        # rows with no held PRB, one, the full band or some; rows share
        # PRBs, and the interference is 0.0 or positive on every entry
        rng = np.random.default_rng(seed)
        radio = RadioParams(bandwidth_hz=20e6, num_prbs=k, noise_per_prb_w=1e-13)
        rows = len(holds)
        c = np.zeros((rows, k), dtype=np.int64)
        for r, hold in enumerate(holds):
            if hold == "one":
                c[r, rng.integers(k)] = 1
            elif hold == "full":
                c[r] = 1
            elif hold == "some":
                c[r] = rng.integers(0, 2, size=k)
        signal = 10.0 ** rng.uniform(-17, -7, size=rows)
        interference = 10.0 ** rng.uniform(-16, -8, size=(rows, k)) if interfered else 0.0
        want = dense_held_rate(c, signal[:, None], interference, radio)
        row, prb = c.nonzero()
        i_held = interference[row, prb] if interfered else 0.0
        got = held_rate(row, prb, signal[row], i_held, rows, radio)
        assert got.tobytes() == want.tobytes()
        assert (got[np.array(holds) == "none"] == 0.0).all()

    def test_an_unheld_prb_adds_zero_where_its_snr_is_infinite(self):
        # the dense sum took 0 * inf = nan on every unheld PRB of the row
        radio = RadioParams(bandwidth_hz=20e6, num_prbs=4, noise_per_prb_w=1e-13)
        got = held_rate(np.array([0, 1]), np.array([1, 2]), np.array([np.inf, 1e-12]), 0.0, 2, radio)
        assert got[0] == np.inf
        assert got[1] == dense_held_rate(np.array([0, 0, 1, 0]), 1e-12, 0.0, radio)
        with np.errstate(invalid="ignore"):
            assert np.isnan(dense_held_rate(np.array([0, 1, 0, 0]), np.inf, 0.0, radio))


class TestUplinkRate:
    def test_local_ue_rate_zero(self):
        a = OffloadDecision(2, (1,))
        c = PrbAssociation(c=np.array([[0, 0], [1, 1]]))
        g = ChannelGains(h=np.full((2, 2), 1e-10))
        assert uplink_rate(0, a, c, g, [0.1, 0.1], RADIO) == 0.0

    def test_single_prb_interference_free_value(self):
        # P*H/noise = 0.1*1e-10/1e-13 = 100 on one PRB of 200 kHz
        a = OffloadDecision(1, (0,))
        c = PrbAssociation(c=np.array([[1] + [0] * 99]))
        g = ChannelGains(h=np.array([[1e-10]]))
        rate = uplink_rate(0, a, c, g, [0.1], RADIO)
        assert rate == pytest.approx(1331642.2965503589, rel=1e-12)

    def test_power_splits_across_held_prbs(self):
        a = OffloadDecision(1, (0,))
        row = [1, 1, 1] + [0] * 97
        c = PrbAssociation(c=np.array([row]))
        g = ChannelGains(h=np.array([[1e-10]]))
        rate = uplink_rate(0, a, c, g, [0.1], RADIO)
        # 3 PRBs at SNR 100/3 each, frozen reference value
        assert rate == pytest.approx(3060922.8158772374, rel=1e-12)

    def test_interference_lowers_rate(self):
        g = ChannelGains(h=np.array([[1e-10, 5e-11], [5e-11, 1e-10]]))
        shared = PrbAssociation(c=np.array([[1, 0], [1, 0]]))
        apart = PrbAssociation(c=np.array([[1, 0], [0, 1]]))
        both = OffloadDecision(2, (0, 1))
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
            decision = OffloadDecision(n, tuple(np.flatnonzero(a).tolist()))
            assoc = PrbAssociation(c=c_mat)
            p_prb = per_prb_power(assoc, powers)
            for i in range(n):
                got = uplink_rate(i, decision, assoc, ChannelGains(h=h), powers, radio)
                want = brute_uplink_rate(i, a, c_mat, h, powers, 20e6, k, 1e-13)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
                # the checker's own Shannon sum gives the bits of the schemes'
                # held_rate on the same signal and co-channel row
                contrib = c_mat * ((a.astype(bool) * p_prb) * h[:, i])[:, None]
                contrib[i] = 0.0
                prb = c_mat[i].nonzero()[0]
                co_channel = contrib.sum(axis=0)[prb]
                held = held_rate(0 * prb, prb, p_prb[i] * h[i, i], co_channel, 1, radio)
                assert type(got) is float
                assert np.float64(got).tobytes() == held[0].tobytes()
