"""Topology/config construction, determinism, and channel gain values."""

import json
import math
import pickle
import re
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecoffload.decision_engine import SCHEME_NAMES, run_scheme
from mecoffload.errors import InvalidConfig
from mecoffload.scenario import (
    ChannelGains,
    RadioParams,
    Scenario,
    ScenarioConfig,
    _check_link_budget,
    build_scenario,
    channel_gains,
    config_from_dict,
    draw_positions,
    load_config,
    tx_powers,
)

from _oracles import (
    POSITIVE_COLUMNS,
    WEIGHT_COLUMNS,
    eager_positions,
    expression_gains,
    path_loss_db,
    twelve_op_column_check,
)


# every per-UE column of a Scenario
COLUMNS = (
    "cell_xy", "ue_xy", "tx_power_w", "input_bits", "cycles", "local_speed_hz",
    "w_t", "w_e", "energy_coeff",
)


def make_ue(position=(0.0, 0.0), power=0.1, bits=3440640.0, cycles=1e9,
            speed=0.7e9, wt=0.5, we=0.5, v=4.9e-12):
    """One UE's entry in each per-UE column of a Scenario."""
    return dict(ue_xy=position, tx_power_w=power, input_bits=bits, cycles=cycles,
                local_speed_hz=speed, w_t=wt, w_e=we, energy_coeff=v)


def manual_scenario(cell_positions, ue_positions=(), ues=None, **overrides):
    """Hand-placed deployment for tests that need exact geometry.

    UE n is served by cell n. `ues` holds one make_ue entry per UE, which
    may differ; by default each UE is make_ue at its entry of ue_positions.
    """
    params = dict(
        radio=RadioParams(bandwidth_hz=20e6, num_prbs=100, noise_per_prb_w=1e-13),
        mec_capacity_hz=1e11, reuse_lambda=2.0, edge_threshold=0.1, seed=0,
        pl0_db=30.0, pl_exponent=3.7, shadowing_db=0.0,
    )
    params.update(overrides)
    if ues is None:
        ues = [make_ue(position=p) for p in ue_positions]
    columns = {name: [ue[name] for ue in ues] for name in make_ue()}
    return Scenario(cell_xy=cell_positions, **columns, **params)


class TestConfig:
    def test_defaults_validate(self):
        cfg = ScenarioConfig()
        cfg.validate()

    def test_unit_conversions(self):
        cfg = ScenarioConfig()
        assert cfg.input_bits == 420 * 1024 * 8 == 3440640
        assert cfg.noise_per_prb_w == pytest.approx(1e-13, rel=1e-12)
        assert cfg.energy_coeff == pytest.approx(4.9e-12, rel=1e-12)

    def test_energy_coeff_override(self):
        cfg = ScenarioConfig(energy_coeff_j_per_cycle=2e-12)
        assert cfg.energy_coeff == 2e-12

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig, match="unknown"):
            config_from_dict({"n_cellz": 9})

    def test_non_integer_count_rejected(self):
        with pytest.raises(InvalidConfig):
            config_from_dict({"n_cells": 9.5})

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_cells": 0},
            {"bandwidth_hz": -1.0},
            {"gamma_t": 1.5},
            {"reuse_lambda": 0.5},
            {"num_prbs": 0},
            {"tx_power_mw": 0},
        ],
    )
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InvalidConfig):
            config_from_dict(bad)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_cells": 5, "reuse_lambda": 1.5}))
        cfg = load_config(str(path))
        assert cfg.n_cells == 5
        assert cfg.reuse_lambda == 1.5
        assert cfg.num_prbs == 100  # untouched default

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(InvalidConfig):
            load_config(str(path))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(InvalidConfig):
            load_config(str(tmp_path / "nope.json"))

    def test_with_overrides_validates(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig().with_overrides(n_cells=-3)

    @pytest.mark.parametrize("name", ["n_cells", "num_prbs", "seed", "bytes_per_kb"])
    def test_integer_fields_reject_floats(self, name):
        with pytest.raises(InvalidConfig, match=f"{name} must be an integer"):
            ScenarioConfig().with_overrides(**{name: 2.5})

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"input_kb": 1e308}, "input_bits"),
            ({"noise_dbm": 1e308}, "noise_per_prb_w"),
            ({"local_ghz": 1e200}, "energy_coeff"),
            ({"tx_power_mw": 5e-324}, "tx_power_w"),
            ({"task_megacycles": 1e303}, "task_cycles"),
            ({"local_ghz": 1e300, "energy_coeff_j_per_cycle": 1.0}, "local_speed_hz"),
            ({"mec_ghz": 1e300}, "mec_capacity_hz"),
            ({"ue_radius_m": 1e200}, "ue_radius_m**2"),
            ({"area_m": 1e300}, "2 * (area_m + ue_radius_m)**2"),
            ({"reuse_lambda": 1e308}, "reuse_lambda * num_prbs"),
            ({"pl_exponent": 1e308}, "10 * pl_exponent"),
            ({"bandwidth_hz": 1e308}, "n_cells * bandwidth_hz"),
            (
                {"energy_coeff_j_per_cycle": 1e308},
                "n_cells * (task_cycles / local_speed_hz + energy_coeff * task_cycles)",
            ),
        ],
    )
    def test_derived_value_is_named(self, overrides, name):
        with pytest.raises(InvalidConfig) as exc:
            ScenarioConfig(**overrides)
        assert str(exc.value).startswith(f"{name} ")


class TestBuild:
    def test_same_seed_same_scenario(self):
        cfg = ScenarioConfig()
        a = build_scenario(cfg, seed=7)
        b = build_scenario(cfg, seed=7)
        for name in COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_different_seed_differs(self):
        cfg = ScenarioConfig()
        a = build_scenario(cfg, seed=0)
        b = build_scenario(cfg, seed=1)
        assert not np.array_equal(a.ue_xy, b.ue_xy)

    def test_seed_falls_back_to_config(self):
        cfg = ScenarioConfig(seed=11)
        a = build_scenario(cfg)
        b = build_scenario(cfg, seed=11)
        assert np.array_equal(a.ue_xy, b.ue_xy)

    def test_counts_and_parameters(self):
        cfg = ScenarioConfig(n_cells=5)
        s = build_scenario(cfg, seed=0)
        assert s.n_cells == 5 and len(s.ues) == 5
        assert s.mec_capacity_hz == 1e11
        assert s.ues[0].tx_power_w == pytest.approx(0.1)
        assert s.ues[0].task.cycles == 1e9
        assert s.ues[0].local_speed_hz == pytest.approx(0.7e9)

    def test_ue_within_serving_radius(self):
        cfg = ScenarioConfig(n_cells=30, ue_radius_m=20.0)
        s = build_scenario(cfg, seed=3)
        for cell, ue in zip(s.cell_xy, s.ue_xy):
            d = math.dist(cell, ue)
            assert 1.0 - 1e-9 <= d <= 20.0 + 1e-9

    def test_tx_powers_vector(self):
        s = build_scenario(ScenarioConfig(n_cells=4), seed=0)
        assert np.allclose(tx_powers(s), 0.1)

    def test_tx_powers_and_every_column_are_read_only(self):
        s = build_scenario(ScenarioConfig(n_cells=4), seed=0)
        assert tx_powers(s) is s.tx_power_w
        with pytest.raises(ValueError):
            tx_powers(s)[0] = 1.0
        for name in COLUMNS:
            with pytest.raises(ValueError):
                getattr(s, name)[0] = 1.0

    def test_columns_are_read_only_rows_of_one_table_and_callers_keep_theirs(self):
        s = manual_scenario([(0.0, 0.0)] * 3, [(1.0, 0.0)] * 3)
        mine = {name: np.array(getattr(s, name)) for name in COLUMNS}
        s = replace(s, **mine)
        table = s.tx_power_w.base
        assert table.shape == (7, 3) and not table.flags.writeable
        for name in COLUMNS:
            column = getattr(s, name)
            assert not column.flags.writeable, name
            if not name.endswith("_xy"):
                assert column.base is table, name
            # the caller's array is copied, never frozen
            assert mine[name].flags.writeable, name
            assert not np.shares_memory(column, mine[name]), name
            mine[name][0] = 0.25
            assert not np.array_equal(column, mine[name]), name

    def test_records_are_built_once(self):
        s = manual_scenario([(0.0, 0.0)] * 2, [(1.0, 0.0)] * 2)
        assert s.ues is s.ues

    def test_records_read_the_columns(self):
        s = manual_scenario([(0.0, 0.0)] * 2, ues=[
            make_ue(position=(3.0, 4.0)),
            make_ue(position=(5.0, 6.0), power=0.2, bits=1e6, cycles=2e9, speed=1e9,
                    wt=0.25, we=0.75, v=1e-12),
        ])
        ue = s.ues[1]
        assert (ue.id, ue.position, ue.tx_power_w) == (1, (5.0, 6.0), 0.2)
        assert (ue.task.input_bits, ue.task.cycles, ue.local_speed_hz) == (1e6, 2e9, 1e9)
        assert (ue.weight_time, ue.weight_energy, ue.energy_coeff_j_per_cycle) == (
            0.25, 0.75, 1e-12
        )
        assert s.ues[0].position == (3.0, 4.0) and s.ues[0].tx_power_w == 0.1


class TestGains:
    def test_path_loss_reference_distance(self):
        assert path_loss_db(1.0, 30.0, 3.7) == pytest.approx(30.0)

    def test_path_loss_hundred_meters(self):
        # 30 + 37*log10(100) dB
        assert path_loss_db(100.0, 30.0, 3.7) == pytest.approx(104.0, rel=1e-12)

    def test_path_loss_clamps_below_one_meter(self):
        assert path_loss_db(0.01, 30.0, 3.7) == pytest.approx(30.0)

    def test_gain_value_at_hundred_meters(self):
        s = manual_scenario([(0.0, 0.0), (100.0, 0.0)],
                            [(100.0, 0.0), (0.0, 0.0)])
        g = channel_gains(s)
        # cross link spans 100 m: 10**(-104/10), frozen reference value
        assert g.h[0, 0] == pytest.approx(3.981071705534973e-11, rel=1e-12)
        assert g.h[1, 1] == pytest.approx(3.981071705534973e-11, rel=1e-12)

    def test_gains_deterministic_with_shadowing(self):
        cfg = ScenarioConfig(shadowing_db=8.0)
        s = build_scenario(cfg, seed=5)
        a = channel_gains(s)
        b = channel_gains(s)
        assert np.array_equal(a.h, b.h)

    def test_shadowing_changes_gains_not_geometry(self):
        plain = build_scenario(ScenarioConfig(), seed=5)
        shadowed = build_scenario(ScenarioConfig(shadowing_db=8.0), seed=5)
        assert np.array_equal(plain.ue_xy, shadowed.ue_xy)
        assert not np.array_equal(channel_gains(plain).h, channel_gains(shadowed).h)

    def test_gain_matrix_shape_and_positivity(self):
        s = build_scenario(ScenarioConfig(n_cells=6), seed=2)
        g = channel_gains(s)
        assert g.h.shape == (6, 6)
        assert (g.h > 0).all()

    def test_overflowing_path_loss_is_no_link(self):
        # 10 * pl_exponent is finite, its product with log10(distance) is not
        s = build_scenario(ScenarioConfig(pl_exponent=1e307), seed=0)
        assert (channel_gains(s).h == 0).all()

    def test_serving_link_usually_strongest(self):
        # each UE sits within 20 m of its serving cell, but 9 cells share a
        # 120 m square, so dominance is frequent rather than universal
        hits = []
        for seed in range(12):
            s = build_scenario(ScenarioConfig(), seed=seed)
            g = channel_gains(s)
            hits.append((np.argmax(g.h, axis=1) == np.arange(9)).mean())
        assert np.mean(hits) >= 0.7

    def test_drawn_gains_are_read_only_without_a_copy(self, monkeypatch):
        s = build_scenario(ScenarioConfig(), seed=0)
        s.ue_xy  # draws the positions, which copies them into column-major arrays
        copies = []
        array = np.array
        monkeypatch.setattr(np, "array", lambda *a, **kw: copies.append(a) or array(*a, **kw))
        g = channel_gains(s)
        g.h  # the first read fills the matrix
        monkeypatch.undo()
        assert copies == []  # the fresh matrix is marked read-only in place
        assert not g.h.flags.writeable
        with pytest.raises(ValueError):
            g.h[0, 0] = 1.0

    def test_hand_built_gains_copy_a_writable_array(self):
        arr = np.full((2, 2), 1e-10)
        g = ChannelGains(h=arr)
        assert arr.flags.writeable  # the caller's array is never frozen
        assert not g.h.flags.writeable
        arr[0, 0] = 1.0
        assert g.h[0, 0] == 1e-10
        # a read-only array is copied too, whether a view or its own data
        view = arr.view()
        view.setflags(write=False)
        assert ChannelGains(h=view).h is not view
        assert ChannelGains(h=g.h).h is not g.h


class TestInvariantChecks:
    def test_mismatched_counts_rejected(self):
        with pytest.raises(InvalidConfig):
            manual_scenario([(0.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)])

    def test_bad_radio_rejected(self):
        # unchecked, an infinite noise priced every scheme all local, a
        # fractional block count failed in the PRB tables, and a nan was
        # blamed on the link budget
        good = dict(bandwidth_hz=20e6, num_prbs=100, noise_per_prb_w=1e-13)
        bad = [
            ("num_prbs", 0), ("num_prbs", 2.5), ("num_prbs", True),
            ("bandwidth_hz", math.nan), ("bandwidth_hz", math.inf),
            ("noise_per_prb_w", math.nan), ("noise_per_prb_w", math.inf),
        ]
        for name, value in bad:
            with pytest.raises(InvalidConfig, match=f"{name} must be"):
                RadioParams(**{**good, name: value})
        assert RadioParams(**{**good, "num_prbs": np.int64(100)}).prb_bandwidth_hz == 2e5

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["mec_capacity_hz", "reuse_lambda", "edge_threshold", "shadowing_db", "pl0_db",
         "pl_exponent"],
    )
    def test_non_finite_scalar_rejected(self, name, value):
        # unchecked, a nan reuse_lambda failed a cast in normalize_prbs, an
        # infinite server budget printed inf CPU, a nan one priced every UE
        # local, a nan shadowing_db meant no shadowing, and an infinite
        # pl0_db or pl_exponent priced every UE local
        s = build_scenario(ScenarioConfig(), 0)
        with pytest.raises(InvalidConfig, match=f"{name} must be finite"):
            replace(s, **{name: value})

    @pytest.mark.parametrize(
        "value, message",
        [(-3.7, "pl_exponent"), (0.0, "pl_exponent"), (1e308, r"10 \* pl_exponent")],
    )
    def test_path_loss_exponent_rejected_as_the_config_does(self, value, message):
        # unchecked, a negative or zero exponent ran, and one whose slope
        # overflows priced every UE local
        s = build_scenario(ScenarioConfig(), 0)
        with pytest.raises(InvalidConfig, match=f"{message} must be finite and positive"):
            replace(s, pl_exponent=value)
        with pytest.raises(InvalidConfig, match=f"{message} must be"):
            ScenarioConfig(pl_exponent=value)

    @pytest.mark.parametrize("seed", [1.5, True, -1, np.int64(3)])
    def test_a_seed_is_taken_only_as_the_config_takes_it(self, seed):
        # a Python int >= 0, no bool; unchecked, build_scenario returned with
        # 1.5 and failed at the first position read, ran True as the seed,
        # and a replaced -1 failed in the shadowing draw with numpy's error
        message = "seed must be an integer >= 0, got " + re.escape(repr(seed))
        with pytest.raises(InvalidConfig, match=message):
            build_scenario(ScenarioConfig(), seed)
        s = build_scenario(ScenarioConfig(shadowing_db=4), 0)
        with pytest.raises(InvalidConfig, match=message):
            replace(s, seed=seed)
        with pytest.raises(InvalidConfig, match=message):
            manual_scenario([(0.0, 0.0)], [(1.0, 0.0)], seed=seed)

    def test_overflowing_prb_scale_rejected(self):
        # as ScenarioConfig rejects it; unchecked, normalize_prbs overflowed
        # scaling the quotas to reuse_lambda * num_prbs
        s = build_scenario(ScenarioConfig(), 0)
        with pytest.raises(InvalidConfig, match=r"reuse_lambda \* num_prbs must be finite"):
            replace(s, reuse_lambda=1e308)
        replace(s, reuse_lambda=1e300)  # 1e302 is finite

    def test_mismatched_column_rejected(self):
        s = manual_scenario([(0.0, 0.0)] * 2, [(1.0, 0.0)] * 2)
        with pytest.raises(InvalidConfig, match="cycles"):
            replace(s, cycles=[1e9])

    def test_bad_task_rejected(self):
        with pytest.raises(InvalidConfig):
            manual_scenario([(0.0, 0.0)], ues=[make_ue(bits=0.0)])

    def test_bad_ue_weights_rejected(self):
        with pytest.raises(InvalidConfig):
            manual_scenario([(0.0, 0.0)], ues=[make_ue(wt=1.2)])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["power", "bits", "cycles", "speed", "v", "wt", "we"])
    def test_non_finite_ue_input_rejected(self, field, value):
        # a later UE, so the check must cover every entry of the column,
        # and the one-table check must still name the column
        column = {
            "power": "tx_power_w", "bits": "input_bits", "cycles": "cycles",
            "speed": "local_speed_hz", "v": "energy_coeff", "wt": "w_t", "we": "w_e",
        }[field]
        ues = [make_ue(), make_ue(**{field: value})]
        with pytest.raises(InvalidConfig, match=rf"UE (weight )?{column} must"):
            manual_scenario([(0.0, 0.0)] * 2, ues=ues)

    def test_empty_scenario_rejected(self):
        # as ScenarioConfig rejects n_cells 0; unchecked, the gain matrix
        # split its rows into blocks by dividing by the cell count
        s = manual_scenario([(0.0, 0.0)], [(1.0, 0.0)])
        empty = {name: [] for name in COLUMNS[2:]}
        with pytest.raises(InvalidConfig, match="n_cells must be >= 1"):
            replace(s, cell_xy=np.empty((0, 2)), ue_xy=np.empty((0, 2)), **empty)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["cell_xy", "ue_xy"])
    def test_non_finite_position_rejected(self, column, value):
        # the second entry of the column, so the check must cover every row;
        # unchecked, a nan is blamed on the link budget in channel_gains and
        # an inf gives a silent zero gain row
        cells, ues = [(0.0, 0.0), (50.0, 0.0)], [(5.0, 0.0), (55.0, 0.0)]
        positions = {"cell_xy": cells, "ue_xy": ues}[column]
        positions[1] = (value, 0.0)
        with pytest.raises(InvalidConfig, match=f"{column} must be finite"):
            manual_scenario(cells, ue_positions=ues)

    @pytest.mark.parametrize("name, bad, message", [
        ("cell_xy", lambda xy: np.full_like(xy, math.nan), "cell_xy must be finite"),
        ("ue_xy", lambda xy: xy[1:], r"ue_xy has shape \(2, 2\), expected \(3, 2\)"),
    ])
    def test_drawn_positions_are_checked_at_the_draw(self, monkeypatch, name, bad, message):
        def broken(*args):
            cell_xy, ue_xy = draw_positions(*args)
            return (bad(cell_xy), ue_xy) if name == "cell_xy" else (cell_xy, bad(ue_xy))

        monkeypatch.setattr("mecoffload.scenario.draw_positions", broken)
        s = build_scenario(ScenarioConfig(n_cells=3), seed=0)
        for read in ("cell_xy", "ue_xy"):
            with pytest.raises(InvalidConfig, match=message):
                getattr(s, read)
        with pytest.raises(InvalidConfig, match=message):
            channel_gains(s).h


# the values that split the column comparisons: nan, the infinities, both
# zeros, the smallest and largest subnormals and normals, and each weight
# bound with its neighbours
_EDGE_VALUES = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.225073858507201e-308, sys.float_info.min, 1e308, -1e308, sys.float_info.max,
    1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 0.5,
)
_TABLE_ROWS = POSITIVE_COLUMNS + WEIGHT_COLUMNS
# the ScenarioConfig value behind each row of its ue_table
_CONFIG_VALUES = (
    "tx_power_w", "input_bits", "task_cycles", "local_speed_hz", "energy_coeff",
    "gamma_t", "gamma_e",
)


@st.composite
def column_tables(draw):
    """(7, N) per-UE column tables: valid rows with one to three entries
    replaced by an edge value or any float, so a bad entry can sit in any
    column and at any UE (and a replaced entry may still be valid)."""
    n = draw(st.integers(1, 5))
    positive = st.floats(5e-324, sys.float_info.max)
    weight = st.floats(0.0, 1.0)
    table = np.array([
        draw(st.lists(weight if name in WEIGHT_COLUMNS else positive, min_size=n, max_size=n))
        for name in _TABLE_ROWS
    ])
    spots = st.tuples(st.integers(0, len(_TABLE_ROWS) - 1), st.integers(0, n - 1))
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats())
    for spot, bad in draw(st.lists(st.tuples(spots, value), min_size=1, max_size=3)):
        table[spot] = bad
    return table


def raised(build) -> str | None:
    """The InvalidConfig message build() raises, or None if it returns."""
    try:
        build()
    except InvalidConfig as exc:
        return str(exc)
    return None


class TestColumnCheck:
    @settings(max_examples=300)
    @given(table=column_tables())
    @example(table=np.array([[math.nan]] * 7))
    @example(table=np.array([[0.1], [1.0], [1.0], [1.0], [1.0], [-0.0], [1.0]]))
    def test_row_extremes_give_the_twelve_op_verdict(self, table):
        n = table.shape[1]
        ues = [dict(ue_xy=(1.0, 0.0), **dict(zip(_TABLE_ROWS, col))) for col in table.T.tolist()]
        assert raised(
            lambda: manual_scenario([(0.0, 0.0)] * n, ues=ues)
        ) == twelve_op_column_check(table)
        # build_scenario takes every UE's row from the config's checked
        # table, filled from the config's values; they are set past
        # validate, which rejects bad values first
        for col in table.T.tolist():
            cfg = ScenarioConfig(n_cells=n)
            want = twelve_op_column_check(np.repeat(np.array(col)[:, None], n, axis=1))
            with pytest.MonkeyPatch.context() as patch:
                for name, value in zip(_CONFIG_VALUES, col):
                    patch.setattr(ScenarioConfig, name, property(lambda _, v=value: v))
                assert raised(lambda: build_scenario(cfg, 0)) == want


class TestConfigValues:
    def test_scenarios_of_one_config_share_one_radio(self):
        cfg = ScenarioConfig(num_prbs=50, noise_dbm=-90.0)
        a, b = build_scenario(cfg, 0), build_scenario(cfg, 1)
        assert a.radio is b.radio is cfg.radio
        assert a.radio == RadioParams(
            bandwidth_hz=20e6, num_prbs=50, noise_per_prb_w=cfg.noise_per_prb_w
        )

    def test_overrides_and_replace_get_values_of_their_own(self):
        cfg = ScenarioConfig()
        build_scenario(cfg, 0)  # fills the cache
        for other in (
            cfg.with_overrides(num_prbs=50, tx_power_mw=10.0),
            replace(cfg, num_prbs=50, tx_power_mw=10.0),
        ):
            s = build_scenario(other, 0)
            assert s.radio is other.radio is not cfg.radio
            assert s.radio.num_prbs == 50 and (other.ue_table[0] == 0.01).all()
            assert (s.tx_power_w == 0.01).all()
            assert s.tx_power_w.base is other.ue_table is not cfg.ue_table
        assert replace(cfg).radio is not cfg.radio

    @pytest.mark.parametrize("built_first", [False, True])
    def test_a_pickled_config_builds_the_same_scenario(self, built_first):
        # a config pickles as ScenarioConfig called on its fields, so the
        # copy carries no cache, and its arrays are built read-only again
        cfg = ScenarioConfig(n_cells=12, shadowing_db=8.0, gamma_t=1, gamma_e=0)
        if built_first:
            s = build_scenario(cfg, 3)
            run_scheme("all_local", s, channel_gains(s))  # fills the plan
            plan = cfg._plan
            assert plan is not None
            pickled = pickle.loads(pickle.dumps(s))
            assert pickled._config == cfg and pickled._config is not cfg
            assert "_plan" not in vars(pickled._config) and pickled._config._plan is None
            for name in COLUMNS[2:]:
                assert not getattr(pickled, name).flags.writeable, name
            assert not pickled._config.ue_table.flags.writeable
            # the copy's cells plan on the copy's config
            for name in SCHEME_NAMES:
                run_scheme(name, pickled, channel_gains(pickled))
            assert pickled._config._plan is not None and cfg._plan is plan
        copy = pickle.loads(pickle.dumps(cfg))
        assert not {"radio", "ue_table", "_plan"} & set(vars(copy))
        assert not copy.ue_table.flags.writeable
        want, got = build_scenario(cfg, 3), build_scenario(copy, 3)
        assert got._config is copy and copy._plan is None
        for f in fields(Scenario):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
                assert not a.flags.writeable, f.name
            else:
                assert a == b, f.name
        assert channel_gains(got).h.tobytes() == channel_gains(want).h.tobytes()

    def test_equality_and_hash_ignore_the_cache(self):
        used, fresh = ScenarioConfig(seed=4), ScenarioConfig(seed=4)
        s = build_scenario(used)
        run_scheme("all_local", s, channel_gains(s))  # plans the first cell
        assert {"radio", "ue_table", "_plan"} <= set(vars(used))
        assert not {"radio", "ue_table", "_plan"} & set(vars(fresh))
        assert used == fresh and hash(used) == hash(fresh)
        assert used != ScenarioConfig(seed=5)
        # the plan is no field: replace and config_from_dict know it not
        assert "_plan" not in {f.name for f in fields(ScenarioConfig)}
        assert replace(used)._plan is None
        with pytest.raises(InvalidConfig, match="unknown config keys"):
            config_from_dict({"_plan": None})


@st.composite
def geometry_configs(draw):
    """Configs of 1 to 200 cells over squares from 1 mm to 1000 km wide,
    with UE radii below 1 m (the annulus then starts at 0 m) and above."""
    return ScenarioConfig(
        n_cells=draw(st.integers(1, 200)),
        area_m=draw(st.floats(1e-3, 1e6)),
        ue_radius_m=draw(st.one_of(
            st.floats(1e-6, 1.0, exclude_max=True), st.floats(1.0, 1e4),
        )),
        seed=draw(st.integers(0, 2**32)),
    )


def same_bits(xy, want) -> bool:
    return xy.shape == want.shape and np.ascontiguousarray(xy).tobytes() == want.tobytes()


class TestDeferredPositions:
    @settings(max_examples=60)
    @given(geometry_configs(), st.booleans())
    @example(ScenarioConfig(n_cells=1, ue_radius_m=0.5), True)
    @example(ScenarioConfig(n_cells=200, ue_radius_m=1.0), False)
    def test_equal_an_eager_draw_bit_for_bit(self, cfg, gains_first):
        want = eager_positions(cfg, cfg.seed)
        s = build_scenario(cfg)
        if gains_first:
            channel_gains(s).h  # the gain matrix draws them
        for name, ref in zip(("cell_xy", "ue_xy"), want):
            xy = getattr(s, name)
            assert same_bits(xy, ref), name
            assert xy.flags.f_contiguous and not xy.flags.writeable, name
            assert getattr(s, name) is xy, name  # drawn once
        if not gains_first:
            assert np.array_equal(channel_gains(s).h, expression_gains(s))

    @settings(max_examples=30)
    @given(geometry_configs(), st.booleans())
    @example(ScenarioConfig(n_cells=1, ue_radius_m=0.5), False)
    def test_survive_replace_and_pickle_before_and_after_the_draw(self, cfg, drawn):
        want = eager_positions(cfg, cfg.seed)
        for round_trip in (replace, lambda s: pickle.loads(pickle.dumps(s))):
            s = build_scenario(cfg)
            if drawn:
                s.ue_xy
            copy = round_trip(s)
            for name, ref in zip(("cell_xy", "ue_xy"), want):
                for xy in (getattr(copy, name), getattr(s, name)):
                    assert same_bits(xy, ref), name
                    assert xy.flags.f_contiguous, name
            assert copy.seed == s.seed and np.array_equal(copy.cycles, s.cycles)

    def test_a_run_cell_pickles_as_its_build_whatever_its_size(self):
        # a config's scenario pickles as build_scenario(config, seed) and
        # its gains as channel_gains(s): no column, position, gain or plan
        # travels, so the pickles stay small and the same size at any n_cells
        sizes = []
        for n_cells in (9, 160):
            s = build_scenario(ScenarioConfig(n_cells=n_cells), seed=0)
            built = len(pickle.dumps(s))
            gains = channel_gains(s)
            s.ue_xy, gains.h  # read, so that a copy would carry them
            for name in SCHEME_NAMES:
                run_scheme(name, s, gains)
            sizes.append((built, len(pickle.dumps((s, gains)))))
        assert max(max(sizes)) < 1024 and sizes[1] == sizes[0]

    def test_a_pickled_scenario_carries_no_positions_before_the_draw(self):
        s = build_scenario(ScenarioConfig(n_cells=50), seed=4)
        copy = pickle.loads(pickle.dumps(s))
        assert not {"cell_xy", "ue_xy"} & set(vars(copy))
        assert same_bits(copy.ue_xy, eager_positions(ScenarioConfig(n_cells=50), 4)[1])
        assert not copy.ue_xy.flags.writeable


@st.composite
def gain_configs(draw):
    """Configs of 1 to 160 cells, with shadowing on or off; about half take
    a reference loss so large that the far links underflow to a zero gain."""
    return ScenarioConfig(
        n_cells=draw(st.integers(1, 160)),
        area_m=draw(st.floats(1.0, 2000.0)),
        pl0_db=draw(st.one_of(st.floats(-50.0, 150.0), st.floats(3000.0, 3300.0))),
        pl_exponent=draw(st.floats(1.0, 8.0)),
        shadowing_db=draw(st.one_of(st.just(0.0), st.floats(0.5, 30.0))),
        seed=draw(st.integers(0, 2**32)),
    )


@st.composite
def budget_configs(draw):
    """Configs whose 1 m SNR or rate bound lies near a float overflow, or
    anywhere, with shadowing off or on: either link-budget check, both or
    neither fail. A 0.5 m UE radius clamps every serving link to the 1 m
    gain."""
    n_cells = draw(st.integers(1, 30))
    tx_power_mw = 10.0 ** draw(st.floats(-3.0, 308.0))
    noise_dbm = draw(st.floats(-3000.0, 3000.0))
    # decades of the 1 m SNR and of the rate bound: one on a fine grid
    # around its overflow, or neither
    near = st.integers(-20, 20).map(lambda k: math.log10(sys.float_info.max) + k / 20)
    edge = draw(st.sampled_from(("snr", "rate", None)))
    # mostly strong, so that the rate bound can overflow before the band does
    snr = draw(near if edge == "snr" else st.floats(0.0, 300.0).map(lambda x: 300.0 - x))
    rate = draw(near if edge == "rate" else st.floats(0.0, 300.0))
    pl0_db = 10.0 * (math.log10(tx_power_mw / 1000.0) - (noise_dbm / 10.0 - 3.0) - snr)
    bits = math.log2(10.0) * max(snr, 0.0) + 1.0  # about log2(1 + SNR)
    return ScenarioConfig(
        n_cells=n_cells,
        ue_radius_m=draw(st.sampled_from((0.5, 20.0))),
        # at most 1e306, so that n_cells * bandwidth_hz stays finite
        bandwidth_hz=10.0 ** min(rate - math.log10(n_cells * bits), 306.0),
        noise_dbm=noise_dbm,
        tx_power_mw=tx_power_mw,
        pl0_db=pl0_db,
        pl_exponent=draw(st.one_of(st.floats(1.0, 8.0), st.floats(1e300, 1e307))),
        shadowing_db=draw(st.sampled_from((0.0, 8.0))),
        seed=draw(st.integers(0, 2**16)),
    )


def link_budget_verdict(s, h):
    """What the fill of channel_gains(s).h must reject, priced over the
    whole gain matrix: the start of its message, or None when every SNR
    and the rate bound are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        snr = s.tx_power_w[:, None] * h / s.radio.noise_per_prb_w
        bound = s.n_cells * s.radio.bandwidth_hz * np.log2(1.0 + snr.max())
    if not np.isfinite(snr).all():
        return "a received SNR"
    if not np.isfinite(bound):
        return "n_cells \\* bandwidth_hz"
    return None


# gains a hand-made row may hold: no link, subnormal, typical, huge, inf, nan
GAINS = (0.0, 5e-324, 1e-11, 1.0, 1e300, math.inf, math.nan)


@st.composite
def link_budgets(draw):
    """A hand-made scenario and gain matrix, powers, noise and band drawn
    so that either check, both or neither fail."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.sampled_from(GAINS), st.floats(0.0, 1e308))
    h = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    powers = draw(st.lists(st.sampled_from((1e-300, 0.1, 1e300)), min_size=n, max_size=n))
    radio = RadioParams(
        bandwidth_hz=draw(st.sampled_from((20e6, 1e306, 1e308))), num_prbs=100,
        noise_per_prb_w=draw(st.sampled_from((1e-300, 1e-13, 1e300))),
    )
    ues = [make_ue(power=p) for p in powers]
    return manual_scenario([(0.0, 0.0)] * n, ues=ues, radio=radio), h


class TestGainsInPlace:
    @settings(max_examples=60)
    @given(gain_configs())
    @example(ScenarioConfig(n_cells=1))
    @example(ScenarioConfig(n_cells=160))
    @example(ScenarioConfig(n_cells=160, pl0_db=3200.0))
    @example(ScenarioConfig(n_cells=160, shadowing_db=8.0))
    @example(ScenarioConfig(n_cells=160, pl0_db=3200.0, shadowing_db=8.0))
    def test_equal_the_expression_bit_for_bit(self, cfg):
        s = build_scenario(cfg)
        h = channel_gains(s).h
        want = expression_gains(s)
        assert np.array_equal(h, want)
        assert h.tobytes() == want.tobytes()

    def test_allocates_one_gain_sized_buffer(self):
        # large enough that numpy's fixed-size ufunc buffers and the row
        # blocks stay small beside one N x N array; shadowing on or off
        for shadowing_db in (0.0, 8.0):
            s = build_scenario(ScenarioConfig(n_cells=500, shadowing_db=shadowing_db))
            channel_gains(s).h  # warm up: the first fill loads numpy's loops
            tracemalloc.start()
            try:
                channel_gains(s).h
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            h_bytes = s.n_cells**2 * np.dtype(float).itemsize
            assert h_bytes <= peak < 2 * h_bytes, shadowing_db
        # with shadowing on or off the matrix waits for its first read
        for shadowing_db in (0.0, 8.0):
            s = build_scenario(ScenarioConfig(n_cells=500, shadowing_db=shadowing_db))
            tracemalloc.start()
            try:
                channel_gains(s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < h_bytes / 10, shadowing_db

    @settings(max_examples=300)
    @given(link_budgets())
    def test_row_maximum_check_raises_exactly_when_a_full_check_would(self, case):
        s, h = case
        verdict = link_budget_verdict(s, h)
        if verdict is None:
            _check_link_budget(s, h)
        else:
            with pytest.raises(InvalidConfig, match=f"^{verdict}"):
                _check_link_budget(s, h)

    @settings(max_examples=200)
    @given(budget_configs())
    # the 1 m SNR, then the rate bound, at 1.5 and 0.7 times the largest float
    @example(ScenarioConfig(n_cells=1, ue_radius_m=0.5, pl0_db=-2964.31))
    @example(ScenarioConfig(n_cells=1, ue_radius_m=0.5, pl0_db=-2961.0))
    @example(ScenarioConfig(n_cells=1, ue_radius_m=0.5, pl0_db=-2880.0, bandwidth_hz=2.706e305))
    @example(ScenarioConfig(n_cells=1, ue_radius_m=0.5, pl0_db=-2880.0, bandwidth_hz=1.263e305))
    def test_near_overflow_either_path_keeps_the_verdict_and_the_bits(self, cfg):
        s = build_scenario(cfg)
        want = expression_gains(s)
        verdict = link_budget_verdict(s, want)
        if verdict is None:
            assert channel_gains(s).h.tobytes() == want.tobytes()
        else:
            with pytest.raises(InvalidConfig, match=f"^{verdict}"):
                channel_gains(s).h

    @pytest.mark.parametrize("overrides, verdict", [
        ({"tx_power_mw": 1e308}, "a received SNR"),
        ({"pl0_db": -1e308}, "a received SNR"),
        ({"shadowing_db": 1e308}, "a received SNR"),
        ({"bandwidth_hz": 1e307}, "n_cells \\* bandwidth_hz"),
    ])
    def test_readme_snr_examples_are_rejected(self, overrides, verdict):
        s = build_scenario(ScenarioConfig(**overrides))
        assert link_budget_verdict(s, expression_gains(s)) == verdict
        with pytest.raises(InvalidConfig, match=f"^{verdict}"):
            channel_gains(s).h

    def test_each_fill_checks_once_and_keeps_no_rejected_matrix(self, monkeypatch):
        checked = []
        check = _check_link_budget
        monkeypatch.setattr(
            "mecoffload.scenario._check_link_budget",
            lambda s, h: checked.append(h) or check(s, h),
        )
        gains = channel_gains(build_scenario(ScenarioConfig()))
        assert checked == []  # binding the gains checks nothing
        h = gains.h
        assert gains.h is h and len(checked) == 1 and checked[0] is h
        checked.clear()
        gains = channel_gains(build_scenario(ScenarioConfig(tx_power_mw=1e308)))
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidConfig, match="^a received SNR") as exc:
                gains.h
            assert "h" not in vars(gains)
            messages.append(str(exc.value))
        assert len(checked) == 2 and messages[0] == messages[1]
