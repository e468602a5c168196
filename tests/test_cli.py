"""Command-line behaviour: CSV shape, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

import mecoffload
from mecoffload.cli import CSV_HEADER, main

ALL_SORTED = [
    "all_local",
    "all_offload_orth",
    "equal_cpu",
    "proposed_minmax",
    "proposed_minsum",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_lines(out):
    return [line for line in out.splitlines() if line and not line.startswith("#")]


class TestRun:
    def test_header_and_row_shape(self, capsys):
        code, out, _ = run_cli(capsys, ["run", "--seed", "0", "--scheme", "all_local"])
        assert code == 0
        lines = csv_lines(out)
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 11

    def test_all_local_row_values(self, capsys):
        _, out, _ = run_cli(capsys, ["run", "--seed", "0", "--scheme", "all_local"])
        row = csv_lines(out)[1].split(",")
        assert row[0] == "0" and row[1] == "9"
        assert row[2] == "all_local" and row[4] == "none"
        # nine identical handsets running locally
        assert float(row[5]) == pytest.approx(6.450621428571429, rel=1e-12)
        assert row[6] == "0"  # n_offload
        assert float(row[7]) == 0.0  # mean rate
        assert float(row[8]) == 0.0  # cpu assigned
        assert row[9] == "0"  # prb slots
        assert row[10] == "0"  # wall time suppressed by default

    def test_default_scheme_is_proposed_minsum(self, capsys):
        _, out, _ = run_cli(capsys, ["run", "--seed", "0"])
        row = csv_lines(out)[1].split(",")
        assert row[2] == "proposed_minsum" and row[4] == "minsum"

    def test_objective_flag_picks_cpu_rule(self, capsys):
        _, out, _ = run_cli(
            capsys, ["run", "--seed", "0", "--scheme", "proposed", "--objective", "minmax"]
        )
        row = csv_lines(out)[1].split(",")
        assert row[2] == "proposed_minmax" and row[4] == "minmax"

    def test_matching_scheme_and_objective_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--scheme", "proposed_minmax", "--objective", "minmax"],
        )
        assert code == 0
        assert csv_lines(out)[1].split(",")[2] == "proposed_minmax"

    def test_scheme_all_emits_sorted_schemes(self, capsys):
        _, out, _ = run_cli(capsys, ["run", "--seed", "1", "--scheme", "all"])
        rows = [line.split(",") for line in csv_lines(out)[1:]]
        assert [r[2] for r in rows] == ALL_SORTED

    def test_config_file_honored(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_cells": 3, "seed": 5}))
        code, out, _ = run_cli(
            capsys, ["run", "--config", str(path), "--scheme", "all_local"]
        )
        assert code == 0
        row = csv_lines(out)[1].split(",")
        assert row[0] == "5" and row[1] == "3"  # seed falls back to config

    def test_detail_listing(self, capsys):
        _, out, _ = run_cli(
            capsys, ["run", "--seed", "0", "--scheme", "all_local", "--detail"]
        )
        detail = [line for line in out.splitlines() if line.startswith("#")]
        assert detail[0] == "# prb_allocation seed=0 scheme=all_local"
        assert detail[1:] == [f"# cell {n}: local" for n in range(9)]

    def test_detail_lists_held_prbs_for_offloaders(self, capsys):
        _, out, _ = run_cli(capsys, ["run", "--seed", "0", "--detail"])
        rows = csv_lines(out)
        n_offload = int(rows[1].split(",")[6])
        cell_lines = [line for line in out.splitlines() if line.startswith("# cell")]
        assert len(cell_lines) == 9
        holders = [line for line in cell_lines if not line.endswith("local")]
        assert len(holders) == n_offload
        for line in holders:
            held = line.split(":")[1].split()
            assert held and all(0 <= int(k) < 100 for k in held)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        argv = ["run", "--seed", "3", "--scheme", "all"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_file_uses_lf_newlines(self, tmp_path):
        path = tmp_path / "rows.csv"
        main(["run", "--seed", "0", "--scheme", "all_local", "--output", str(path)])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestSweep:
    def test_grid_shape_and_ordering(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_cells": 3}))
        code, out, _ = run_cli(
            capsys,
            [
                "sweep", "--config", str(path), "--scheme", "all",
                "--vary", "cells", "--values", "4,3", "--seeds", "0..1",
            ],
        )
        assert code == 0
        rows = [line.split(",") for line in csv_lines(out)[1:]]
        assert len(rows) == 2 * 2 * 5
        triples = [(int(r[1]), int(r[0]), r[2]) for r in rows]
        assert triples == sorted(triples)  # value, then seed, then scheme

    def test_sweep_row_replays_as_single_run(self, capsys, tmp_path):
        _, sweep_out, _ = run_cli(
            capsys,
            [
                "sweep", "--scheme", "all_local", "--vary", "cells",
                "--values", "3", "--seeds", "1",
            ],
        )
        sweep_row = csv_lines(sweep_out)[1]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_cells": 3}))
        _, run_out, _ = run_cli(
            capsys,
            ["run", "--config", str(path), "--seed", "1", "--scheme", "all_local"],
        )
        assert csv_lines(run_out)[1] == sweep_row

    def test_lambda_sweep_varies_reuse_column(self, capsys):
        _, out, _ = run_cli(
            capsys,
            [
                "sweep", "--scheme", "all_local", "--vary", "lambda",
                "--values", "1.0,2.0", "--seeds", "0",
            ],
        )
        rows = [line.split(",") for line in csv_lines(out)[1:]]
        assert [r[3] for r in rows] == ["1.0", "2.0"]


class TestExitCodes:
    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["run", "--config", str(tmp_path / "nope.json")]
        )
        assert code == 2 and "config" in err

    def test_bad_json_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops")
        code, _, _ = run_cli(capsys, ["run", "--config", str(path)])
        assert code == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cells": 9}))
        code, _, _ = run_cli(capsys, ["run", "--config", str(path)])
        assert code == 2

    def test_invalid_sweep_value_is_config_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "sweep", "--scheme", "all_local", "--vary", "lambda",
                "--values", "0.5", "--seeds", "0",
            ],
        )
        assert code == 2  # lambda below 1 fails validation, not usage

    @pytest.mark.parametrize(
        "overrides, argv",
        [
            ({"mec_ghz": math.nan}, ["run"]),
            ({"noise_dbm": math.nan}, ["run"]),
            ({"tx_power_mw": math.inf}, ["run"]),
            ({"reuse_lambda": math.nan}, ["run"]),
            ({"n_cells": True}, ["run"]),
            ({"pl_exponent": -5}, ["run"]),
            (None, ["sweep", "--vary", "lambda", "--values", "nan", "--seeds", "0"]),
            # finite, but out of range once scaled to SI units
            ({"noise_dbm": 1e308}, ["run"]),
            ({"local_ghz": 1e300}, ["run"]),
            ({"mec_ghz": 1e300}, ["run"]),
            ({"ue_radius_m": 1e200}, ["run"]),
            ({"reuse_lambda": 1e308}, ["run"]),
        ],
    )
    def test_non_finite_or_mistyped_value_is_config_error(
        self, capsys, tmp_path, overrides, argv
    ):
        argv = [*argv, "--scheme", "all"]
        if overrides is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(overrides))  # NaN / Infinity literals
            argv += ["--config", str(path)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and "config error" in err
        assert out == ""

    def test_unwritable_output_is_output_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, ["run", "--output", str(target)])
        assert code == 2 and "output error" in err
        assert out == "" and not target.exists()

    def test_scheme_objective_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, ["run", "--scheme", "all_local", "--objective", "minmax"]
        )
        assert code == 3 and "conflicts" in err

    def test_bad_seed_range(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--vary", "cells", "--values", "3", "--seeds", "x..y"],
        )
        assert code == 3

    def test_empty_seed_range(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--vary", "cells", "--values", "3", "--seeds", "5..2"],
        )
        assert code == 3

    def test_empty_values(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--vary", "cells", "--values", "", "--seeds", "0"],
        )
        assert code == 3

    def test_missing_required_sweep_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--seeds", "0"])
        assert exc.value.code == 3

    def test_unknown_scheme_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scheme", "fastest"])
        assert exc.value.code == 3


def test_module_entry_point():
    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(mecoffload.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mecoffload", "run", "--seed", "0", "--scheme", "all_local"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == CSV_HEADER
