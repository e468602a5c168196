"""Command-line behaviour: CSV shape, determinism, exit codes."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mecoffload
from mecoffload.cli import CSV_HEADER, main

README = Path(__file__).resolve().parents[1] / "README.md"

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


def readme_block(line):
    """The first fenced block of the README after the line `line`."""
    rest = README.read_text(encoding="utf-8").split(f"\n{line}\n", 1)[1]
    return rest.split("```\n", 2)[1]


class TestReadme:
    def test_sample_output_is_what_run_prints(self, capsys):
        code, out, _ = run_cli(capsys, ["run", "--seed", "0", "--scheme", "all"])
        assert code == 0 and out == readme_block("Sample output:")

    def test_every_command_line_runs(self, capsys, tmp_path):
        lines = readme_block("## Command line").splitlines()
        assert len(lines) == 4
        for line in lines:
            argv = shlex.split(line, comments=True)
            # after the console script or python3 -m mecoffload
            argv = argv[argv.index("mecoffload") + 1:]
            if "--output" in argv:
                i = argv.index("--output") + 1
                argv[i] = str(tmp_path / argv[i])
            code, _, err = run_cli(capsys, argv)
            assert code == 0 and err == "", line
        assert csv_lines((tmp_path / "results.csv").read_text())[0] == CSV_HEADER


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
        # the CPU rule rides on the scheme flag: proposed_minmax is min-max
        code, out, _ = run_cli(capsys, ["run", "--seed", "0", "--scheme", "proposed_minmax"])
        assert code == 0
        row = csv_lines(out)[1].split(",")
        assert row[2] == "proposed_minmax" and row[4] == "minmax"

    def test_matching_scheme_and_objective_accepted(self, capsys):
        # every proposed scheme reports the objective its name carries
        code, out, _ = run_cli(capsys, ["run", "--seed", "0", "--scheme", "all"])
        assert code == 0
        rows = [line.split(",") for line in csv_lines(out)[1:]]
        proposed = {r[2]: r[4] for r in rows if r[2].startswith("proposed_")}
        assert proposed == {"proposed_minmax": "minmax", "proposed_minsum": "minsum"}

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

    def test_detail_names_an_offloader_without_blocks(self, capsys, tmp_path):
        # three PRBs cannot hold nine orthogonal shares: every cell offloads
        # and holds none
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"num_prbs": 3}))
        argv = ["run", "--config", str(path), "--seed", "0",
                "--scheme", "all_offload_orth", "--detail"]
        _, out, _ = run_cli(capsys, argv)
        assert csv_lines(out)[1].split(",")[6] == "9"
        cell_lines = [line for line in out.splitlines() if line.startswith("# cell")]
        assert cell_lines == [f"# cell {n}: none" for n in range(9)]


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

    @pytest.mark.parametrize("argv", [
        "run --seed 0 --scheme all",
        "sweep --scheme all --vary cells --values 3,5 --seeds 0..1",
    ])
    def test_timing_changes_only_the_wall_time(self, capsys, argv):
        code, untimed, _ = run_cli(capsys, argv.split())
        assert code == 0
        code, timed, _ = run_cli(capsys, argv.split() + ["--timing"])
        assert code == 0
        untimed, timed = csv_lines(untimed), csv_lines(timed)
        assert timed[0] == untimed[0] == CSV_HEADER
        assert len(timed) == len(untimed) > 1
        wall = CSV_HEADER.split(",").index("wall_time_ms")
        for got, want in zip(timed[1:], untimed[1:]):
            got, want = got.split(","), want.split(",")
            ms = float(got.pop(wall))
            assert math.isfinite(ms) and ms >= 0
            assert want.pop(wall) == "0"
            assert got == want


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

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xff\xfe{}",
            b"[" * 100000 + b"]" * 100000,
            b'{"n_cells": ' + b"9" * 5000 + b"}",
        ],
        ids=["not-utf8", "nested-too-deep", "int-too-long"],
    )
    def test_unreadable_config_is_config_error(self, capsys, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, ["run", "--config", str(path)])
        assert code == 2 and "config error" in err
        assert out == ""

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
            # the received SNR overflows and rates would come out nan
            ({"tx_power_mw": 1e308}, ["run"]),
            ({"pl0_db": -1e308}, ["run"]),
            ({"shadowing_db": 1e308}, ["run"]),
            # tables too large to allocate: rejected before any is built
            ({"num_prbs": 100000000}, ["run"]),
            ({"n_cells": 100000}, ["run"]),
            # squared distances or the rate sum overflow
            ({"area_m": 1e300}, ["run"]),
            ({"bandwidth_hz": 1e308}, ["run"]),
            # a negative seed, from the config or from either seed flag
            ({"seed": -1}, ["run"]),
            (None, ["run", "--seed", "-1"]),
            (None, ["sweep", "--seeds=-3..-1", "--vary", "cells", "--values", "3"]),
            # the all-local overhead sum overflows
            ({"energy_coeff_j_per_cycle": 1e308}, ["run"]),
            ({"energy_coeff_j_per_cycle": 100, "local_ghz": 1e-308, "bandwidth_hz": 0.5}, ["run"]),
            # inf * 0 in the path loss or in the rate bound
            ({"pl_exponent": 1e308, "ue_radius_m": 0.5}, ["run"]),
            ({"bandwidth_hz": 1e308, "pl0_db": 100000.0}, ["run"]),
            # an infinite path loss plus an infinite shadowing draw
            ({"pl_exponent": 1e307, "shadowing_db": 1e308}, ["run"]),
            # a seed range too long for a list, ahead of an invalid value
            (
                None,
                ["sweep", "--seeds", "0..10000000000000000000", "--vary", "cells",
                 "--values", "0"],
            ),
            # an integer too large for a float
            (None, ["sweep", "--vary", "cells", "--values", str(10**400), "--seeds", "0"]),
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

    def test_negative_config_seed_overridden_by_seeds_is_legal(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": -1}))
        argv = ["sweep", "--config", str(path), "--vary", "cells", "--values", "3", "--seeds", "0"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and len(csv_lines(out)) == 2

    def test_readme_exit_code_examples_are_config_errors(self, capsys, tmp_path):
        section = README.read_text(encoding="utf-8").split("## Exit codes")[1].split("\n## ")[0]
        examples = re.findall(r"`(\{.*?\})`", section, flags=re.S)
        assert len(examples) >= 15
        path = tmp_path / "cfg.json"
        for example in examples:
            path.write_text(example)
            code, out, err = run_cli(capsys, ["run", "--config", str(path), "--scheme", "all"])
            assert code == 2 and "config error" in err and out == "", example

    @pytest.mark.parametrize("overrides", [{"tx_power_mw": 1e308}, {"shadowing_db": 1e308}])
    def test_a_forced_local_cell_builds_no_gain_and_is_not_checked(
        self, capsys, tmp_path, monkeypatch, overrides
    ):
        # the link budget is checked where the gain matrix is built; a
        # 1 GHz server forces all nine UEs local, so no rate is priced and
        # the gains that would fail the check are never built
        def no_gains(s):
            raise AssertionError("gain_matrix called")

        monkeypatch.setattr("mecoffload.scenario.gain_matrix", no_gains)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**overrides, "mec_ghz": 1}))
        code, out, err = run_cli(capsys, ["run", "--config", str(path), "--scheme", "all"])
        assert code == 0 and err == ""
        rows = [line.split(",") for line in csv_lines(out)[1:]]
        assert [row[2] for row in rows] == ALL_SORTED
        assert len({tuple(row[5:]) for row in rows}) == 1  # one all-local outcome
        assert float(rows[0][5]) == pytest.approx(6.450621428571429, rel=1e-12)
        assert rows[0][6:] == ["0", "0.0", "0.0", "0", "0"]

    def test_unwritable_output_is_output_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, ["run", "--output", str(target)])
        assert code == 2 and "output error" in err
        assert out == "" and not target.exists()

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

    @pytest.mark.parametrize(
        "argv", [["--objective", "minmax"], ["--scheme", "proposed"]],
        ids=["objective", "proposed"],
    )
    def test_removed_scheme_selectors_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--seed", "0", *argv])
        assert exc.value.code == 3 and capsys.readouterr().out == ""


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
