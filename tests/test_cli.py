"""Command-line interface tests: exit codes, artifacts, LP export."""
from pathlib import Path

import pytest

from relpack import cli

import lp_oracle

SMALL_YAML = (
    "racks: {count: 2, pms_per_rack: 2}\n"
    "vms: {count: 5}\n"
    "seed: 0\n"
    "solver: {kind: exact, time_cap: 5}\n"
)


@pytest.fixture
def small_scenario_file(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_YAML)
    return path


class TestSolve:
    def test_solve_ok(self, small_scenario_file, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["solve", "--scenario", str(small_scenario_file), "--out", str(out)])
        assert code == cli.EXIT_OK
        report = (out / "report.csv").read_text()
        assert report.splitlines()[0] == (
            "slot,seed,alpha,beta,gamma,active_racks,active_pms,migrations,"
            "c_ene,c_rel,g_rel,objective,wall_time"
        )
        placement = (out / "placement.csv").read_text()
        assert placement.splitlines()[0] == "vm_id,pm_id"
        assert len(placement.splitlines()) == 6

    def test_solve_rerun_byte_identical(self, small_scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["solve", "--scenario", str(small_scenario_file), "--out", str(out1)])
        cli.main(["solve", "--scenario", str(small_scenario_file), "--out", str(out2)])
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "placement.csv").read_bytes() == (out2 / "placement.csv").read_bytes()

    def test_export_lp_matches_golden(self, small_scenario_file, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "solve", "--scenario", str(small_scenario_file), "--out", str(out), "--export-lp",
        ])
        assert code == cli.EXIT_OK
        got = (out / "model.lp").read_text()
        golden = Path(__file__).with_name("data").joinpath("golden_small.lp").read_text()
        assert got == golden

    def test_exported_lp_solves_to_reported_objective(self, small_scenario_file, tmp_path):
        out = tmp_path / "out"
        cli.main(["solve", "--scenario", str(small_scenario_file), "--out", str(out), "--export-lp"])
        obj, _ = lp_oracle.solve_lp_text((out / "model.lp").read_text())
        report_line = (out / "report.csv").read_text().splitlines()[1]
        reported = float(report_line.split(",")[11])
        assert abs(obj - reported) < 1e-6

    @pytest.mark.parametrize("text, named", [
        ("racks: [oops\n", "invalid YAML"),
        ("pm: {cycle_count: -5}\n", "cycle_count"),
        ("pm: {cycle_count: -5, cycle_count_spread: 10}\n", "cycle_count"),
        ("pm: {cycle_count: 1600}\n", "cycle counts reach 1600"),
        ("pm: {cycle_count: 1599}\nn_slots: 2\n", "cycle counts reach 1600"),
        ("pm: {cycle_count: 1500, cycle_count_spread: 100}\n", "cycle counts reach 1600"),
        ("pm: {k_idle: 1.5}\n", "k_idle"),
        ("pm: {t_idle: 360}\n", "t_idle"),
        ("vms: {cpu: -1}\n", "demands"),
        ("reliability: {t_amb: 318}\n", "ambient"),
        ("n_slots: 0\n", "slot count"),
        ("pm: {ram_capacity: -5}\n", "ram_capacity"),
        ("pm: {cpu_capacity: 0}\n", "cpu_capacity"),
        ("wieghts: {alpha: 0.5}\n", "wieghts"),
        ("pm: {bw_capacity: 1000}\n", "pm.bw_capacity"),
        ("solver: {time_cap: 0}\n", "time_cap"),
        ("seed: -1\n", "seed"),
    ], ids=["bad-yaml", "negative-cycle-count", "negative-cycle-count-with-spread",
            "cycle-count-past-curve", "cycle-count-past-curve-over-slots",
            "cycle-count-spread-past-curve",
            "k-idle-above-one", "t-idle-above-t-max", "negative-vm-cpu", "t-amb-at-t-idle",
            "zero-slots", "negative-ram-capacity", "zero-cpu-capacity",
            "unknown-section", "unknown-pm-key", "time-cap-zero", "negative-seed"])
    def test_parse_error_exit_code(self, tmp_path, capsys, text, named):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        assert cli.main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err.splitlines()[0]

    @pytest.mark.parametrize("argv, flag", [
        (["solve", "--time-cap", "-1"], "--time-cap"),
        (["solve", "--time-cap", "inf"], "--time-cap"),
        (["solve", "--seed", "-1"], "--seed"),
        (["experiment", "--preset", "weights-table", "--time-cap", "0"], "--time-cap"),
        (["experiment", "--preset", "weights-table", "--seeds", "-1"], "--seeds"),
        (["experiment", "--preset", "weights-table", "--seeds", "0"], "--seeds"),
    ], ids=["solve-time-cap-negative", "solve-time-cap-inf", "solve-seed-negative",
            "experiment-time-cap-zero", "experiment-seeds-negative", "experiment-seeds-zero"])
    def test_bad_flag_exit_code(self, small_scenario_file, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        if argv[0] == "solve":
            argv = argv + ["--scenario", str(small_scenario_file)]
        with pytest.raises(SystemExit) as exc:  # argparse's exit, not a traceback
            cli.main(argv + ["--out", str(out)])
        assert exc.value.code == cli.EXIT_PARSE
        assert f"error: argument {flag}: " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["solve", "--scenario", str(tmp_path / "no.yaml")]) == cli.EXIT_PARSE

    def test_infeasible_exit_code(self, tmp_path):
        path = tmp_path / "stuffed.yaml"
        path.write_text("racks: {count: 1, pms_per_rack: 2}\nvms: {count: 9}\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_INFEASIBLE

    def test_time_cap_exit_code(self, tmp_path):
        path = tmp_path / "big.yaml"
        path.write_text("racks: {count: 4, pms_per_rack: 4}\nvms: {count: 25}\n")
        out = tmp_path / "out"
        code = cli.main([
            "solve", "--scenario", str(path), "--out", str(out), "--time-cap", "0.001",
        ])
        assert code == cli.EXIT_TIME_CAP
        assert (out / "report.csv").exists()  # incumbent still reported

    def test_seed_override_changes_result(self, small_scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["solve", "--scenario", str(small_scenario_file), "--out", str(out1), "--seed", "1"])
        cli.main(["solve", "--scenario", str(small_scenario_file), "--out", str(out2), "--seed", "2"])
        a = (out1 / "placement.csv").read_text()
        b = (out2 / "placement.csv").read_text()
        assert a != b


class TestExperiment:
    def test_scaling_preset(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "experiment", "--preset", "scaling-curves", "--out", str(out), "--time-cap", "0.2",
        ])
        assert code == cli.EXIT_OK
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[0] == (
            "n_pms,n_racks,n_vms,n_binary,n_continuous,n_constraints,nodes_explored,wall_time"
        )
        assert len(lines) == 5
        assert (out / "scaling_model_size.svg").exists()
        assert (out / "scaling_runtime.svg").exists()

    def test_weights_table_preset_small(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "experiment", "--preset", "weights-table", "--out", str(out),
            "--seeds", "1", "--time-cap", "0.2",
        ])
        assert code == cli.EXIT_OK
        lines = (out / "weights_table.csv").read_text().splitlines()
        # 3 settings x (1 seed + mean row) + header
        assert len(lines) == 1 + 3 * 2
        assert (out / "weights_table.svg").exists()
