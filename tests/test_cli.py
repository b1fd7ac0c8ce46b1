"""Command-line interface tests: exit codes, artifacts, LP export."""
import hashlib
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relpack import cli
from relpack import solver as S

import lp_oracle

SMALL_YAML = (
    "racks: {count: 2, pms_per_rack: 2}\n"
    "vms: {count: 5}\n"
    "seed: 0\n"
    "solver: {kind: exact, time_cap: 5}\n"
)


# a short cap, so that a case the checks miss still ends quickly
_CAPPED = "solver: {time_cap: 0.05}\n"

# scenario files that must exit 2, and the text their error line must contain;
# each is written as Latin-1, so a file's bytes need not be UTF-8
_PARSE_ERRORS = [
    ("\xff\xfe racks: {count: 2}", "cannot read scenario file"),
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
    ("weights: {rho: .nan}\n", "weights.rho"),
    ("reliability: {afr_floor: .nan}\n", "reliability.afr_floor"),
    ("migration: {kappa: .nan}\n", "migration.kappa"),
    ("racks: {tor_power: .nan}\n", "racks.tor_power"),
    ("reliability: {t_amb: .nan}\n", "reliability.t_amb"),
    ("pm: {p_max: .nan}\n", "pm.p_max"),
    ("vms: {cpu: .nan}\n", "vms.cpu"),
    ("migration: {kappa: -10}\n", "kappa"),
    ("migration: {pods: 0}\n", "pods"),
    ("migration: {pods: -3}\n", "pods"),
    ("pm: {p_max: -300}\n", "p_max"),
    ("racks: {tor_power: -1000}\n", "tor_power"),
    ("racks: {cooling_power: -1}\n", "cooling_power"),
    ("seed: 1.5\n", "seed"),
    ("racks: {count: true}\n", "racks.count"),
    ("reliability: {q: 400, t_amb: 317.9}\n", "q = 400"),
    # finite inputs whose cost table overflows
    (_CAPPED + "weights: {tau: 1.0e308}\n", "c_ene_ub overflows"),
    (_CAPPED + "pm: {p_max: 1.0e308}\n", "c_ene_ub overflows"),
    (_CAPPED + "pm: {p_max: 1.0e308}\nweights: {tau: 10}\n", "c_ene_ub overflows"),
    (_CAPPED + "weights: {omega: 1.0e308}\n", "c_rel_ub overflows"),
    (_CAPPED + "vms: {mem_gb: 1.0e308}\n", "c_ene_ub overflows"),
    (_CAPPED + "reliability: {hours_per_year: 1.0e308}\n", "c_rel_ub overflows"),
    (_CAPPED + "racks: {tor_power: 1.0e308}\n", "c_ene_ub overflows"),
    (_CAPPED + "racks: {cooling_power: 1.0e308}\n", "c_ene_ub overflows"),
    ("solver: {kind: greedy}\nweights: {tau: 1.0e308}\n", "c_ene_ub overflows"),
    ("solver: {kind: greedy}\npm: {p_max: 1.0e308}\n", "c_ene_ub overflows"),
    # too large to build
    ("racks: {count: 1000000000000}\n", "VM-to-PM cells"),
    ("vms: {count: 1000000000000}\n", "VM-to-PM cells"),
]
_PARSE_ERROR_IDS = [
    "not-utf8", "bad-yaml", "negative-cycle-count", "negative-cycle-count-with-spread",
    "cycle-count-past-curve", "cycle-count-past-curve-over-slots",
    "cycle-count-spread-past-curve", "k-idle-above-one", "t-idle-above-t-max",
    "negative-vm-cpu", "t-amb-at-t-idle", "zero-slots", "negative-ram-capacity",
    "zero-cpu-capacity", "unknown-section", "unknown-pm-key", "time-cap-zero", "negative-seed",
    "nan-rho", "nan-afr-floor", "nan-kappa", "nan-tor-power", "nan-t-amb", "nan-p-max",
    "nan-vm-cpu", "negative-kappa", "zero-pods", "negative-pods", "negative-p-max",
    "negative-tor-power", "negative-cooling-power", "fractional-seed", "bool-rack-count",
    "cpu-cycle-cost-overflow", "tau-overflow", "p-max-overflow", "p-max-overflow-long-slot",
    "omega-overflow", "mem-gb-overflow", "hours-per-year-overflow", "tor-power-overflow",
    "cooling-power-overflow", "greedy-tau-overflow", "greedy-p-max-overflow",
    "huge-rack-count", "huge-vm-count",
]


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

    @pytest.mark.parametrize("text, named", _PARSE_ERRORS, ids=_PARSE_ERROR_IDS)
    def test_parse_error_exit_code(self, tmp_path, capsys, text, named):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text, encoding="latin-1")
        assert cli.main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err.splitlines()[0]

    @pytest.mark.parametrize("text, named", _PARSE_ERRORS, ids=_PARSE_ERROR_IDS)
    def test_parse_error_exit_code_with_export(self, tmp_path, capsys, text, named):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text, encoding="latin-1")
        argv = ["solve", "--scenario", str(bad), "--out", str(tmp_path / "out"), "--export-lp"]
        assert cli.main(argv) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err.splitlines()[0]
        assert not (tmp_path / "out" / "model.lp").exists()

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

    @pytest.mark.parametrize("text", [
        # each PM holds 4 VMs over its 2000 by 8e-10, within the fit rule's 1e-9
        "racks: {count: 1, pms_per_rack: 2}\nvms: {count: 8, cpu: 500.0000000002}\n",
        # a full PM of capacity 0.1 runs at a utilization just over 1
        "racks: {count: 1, pms_per_rack: 3}\npm: {cpu_capacity: 0.1}\n"
        "vms: {count: 2, cpu: 0.1000000009}\n",
        # five VMs sum to 3000 + 1e-9 on the one PM of 3000, within the fit rule
        "racks: {count: 1, pms_per_rack: 1}\npm: {cpu_capacity: 3000}\n"
        "vms: {count: 5, cpu: 600.0000000002}\n",
        # full PMs 8e-10 over: the single-template program, proven well within the cap
        "racks: {count: 8, pms_per_rack: 4}\nvms: {count: 128, cpu: 500.0000000002}\n"
        "solver: {time_cap: 1}\n",
    ], ids=["fill-within-tolerance", "tiny-capacity", "one-pm-within-tolerance",
            "template-within-tolerance"])
    @pytest.mark.parametrize("export_lp", [False, True], ids=["solve", "export-lp"])
    def test_a_fleet_that_fits_exits_ok(self, tmp_path, capsys, text, export_lp):
        path = tmp_path / "full.yaml"
        path.write_text(text)
        argv = ["solve", "--scenario", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv + ["--export-lp"] * export_lp) == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    def test_time_cap_exit_code(self, tmp_path):
        path = tmp_path / "big.yaml"
        path.write_text("racks: {count: 4, pms_per_rack: 4}\nvms: {count: 25}\n")
        out = tmp_path / "out"
        one_unit = str(1 / S.NODES_PER_SECOND)  # too little for any solve to finish
        code = cli.main([
            "solve", "--scenario", str(path), "--out", str(out), "--time-cap", one_unit,
        ])
        assert code == cli.EXIT_TIME_CAP
        assert (out / "report.csv").exists()  # incumbent still reported

    def test_1200_vms_end_in_an_exit_code(self, tmp_path, capsys):
        path = tmp_path / "fleet.yaml"
        path.write_text("racks: {count: 80, pms_per_rack: 4}\nvms: {count: 1200}\n"
                        "solver: {time_cap: 0.05}\n")
        code = cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code in (cli.EXIT_OK, cli.EXIT_TIME_CAP)
        assert "Traceback" not in capsys.readouterr().err

    def test_seed_override_changes_result(self, small_scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["solve", "--scenario", str(small_scenario_file), "--out", str(out1), "--seed", "1"])
        cli.main(["solve", "--scenario", str(small_scenario_file), "--out", str(out2), "--seed", "2"])
        a = (out1 / "placement.csv").read_text()
        b = (out2 / "placement.csv").read_text()
        assert a != b


_REPO = Path(__file__).resolve().parent.parent


def _pinned(name: str) -> dict[str, dict[str, str]]:
    """Output directory -> file -> sha256, from `tests/data/<name>`."""
    pins: dict[str, dict[str, str]] = {}
    for line in (_REPO / "tests" / "data" / name).read_text().splitlines():
        digest, path = line.split()
        directory, file = path.split("/")
        pins.setdefault(directory, {})[file] = digest
    return pins


class TestGoldenPins:
    """Every shipped scenario solved with --export-lp, and every preset at its
    defaults, writes the bytes that the golden sha256 lists pin."""

    @pytest.mark.parametrize("pins, names, argv", [
        ("golden_scenarios.sha256", [f.stem for f in (_REPO / "scenarios").glob("*.yaml")],
         lambda name: ["solve", "--scenario", str(_REPO / "scenarios" / f"{name}.yaml"), "--export-lp"]),
        ("golden_presets.sha256", ["weights-table", "alpha-sweep", "scaling-curves"],
         lambda name: ["experiment", "--preset", name]),
    ], ids=["scenarios", "presets"])
    def test_outputs_match_pins(self, tmp_path, pins, names, argv):
        pinned = _pinned(pins)
        assert sorted(pinned) == sorted(names)
        got = {}
        for name, files in pinned.items():
            assert cli.main(argv(name) + ["--out", str(tmp_path / name)]) == cli.EXIT_OK
            got[name] = {f: hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
                         for f in files}
        assert got == pinned


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


# In-domain values of every scenario key (section None is the top level),
# kept small so that a solve takes milliseconds: at most 3 racks of 3 PMs,
# 8 VMs, 3 slots and a 0.05 s cap.
_VALID = {
    "racks": {"count": st.integers(1, 3), "pms_per_rack": st.integers(1, 3),
              "tor_power": st.floats(0, 1e3), "cooling_power": st.floats(0, 1e3)},
    "pm": {"cpu_capacity": st.floats(1, 4e3), "ram_capacity": st.floats(1, 2e4),
           "p_max": st.floats(0, 500), "k_idle": st.floats(0, 1), "t_idle": st.floats(290, 360),
           "t_max": st.floats(290, 400), "cycle_count": st.integers(0, 1599),
           "cycle_count_spread": st.integers(0, 100)},
    "vms": {"count": st.integers(0, 8), "cpu": st.floats(0, 2e3), "ram": st.floats(0, 2e3),
            "mem_gb": st.floats(0, 4)},
    "weights": {key: st.floats(0, 1) for key in ("alpha", "beta", "gamma", "rho", "omega", "tau")},
    "reliability": {"delta": st.floats(0, 5), "varrho": st.floats(0, 5), "varphi": st.floats(0, 5),
                    "q": st.floats(0.1, 5), "t_amb": st.floats(250, 330),
                    "mttf_hours": st.floats(1, 1e5), "hours_per_year": st.floats(1, 1e4),
                    "afr_floor": st.floats(1e-9, 1e-3)},
    "migration": {"kappa": st.floats(0, 200), "pods": st.integers(1, 4)},
    "solver": {"kind": st.sampled_from(["exact", "greedy"]), "time_cap": st.floats(1e-3, 0.05)},
    None: {"seed": st.integers(0, 100), "n_slots": st.integers(1, 3)},
}
# out-of-domain, malformed or extreme values
_JUNK = st.one_of(
    st.sampled_from([None, True, False, "", "x", "3", [], [1], {}, math.nan, math.inf, -math.inf,
                     1e308, -1e308, 10**12, -10**12, 2**63]),
    st.floats(-1e3, 0), st.floats(0, 10), st.integers(-5, 0),
)
_SMALL = {"racks": {"count": 2, "pms_per_rack": 2}, "vms": {"count": 4}, "solver": {"time_cap": 0.05}}


@st.composite
def _scenario_dicts(draw):
    data = {name: dict(section) for name, section in _SMALL.items()}
    for name in draw(st.lists(st.sampled_from(list(_VALID)), unique=True)):
        keys = _VALID[name]
        if name is None:
            target = data
        elif draw(st.integers(0, 9)) == 0:  # a section that is not a mapping
            data[name] = draw(st.sampled_from([[1], "x", 3, True]))
            continue
        else:
            target = data.setdefault(name, {})
        for key in draw(st.lists(st.sampled_from([*keys, "bogus"]), unique=True)):
            target[key] = draw(st.one_of(keys.get(key, _JUNK), _JUNK))
    return data


@given(_scenario_dicts(), st.booleans())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_scenario_ends_in_a_documented_exit_code(data, export_lp):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.yaml"
        path.write_text(yaml.safe_dump(data))
        argv = ["solve", "--scenario", str(path), "--out", str(Path(tmp) / "out")]
        assert cli.main(argv + ["--export-lp"] * export_lp) in (
            cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_INFEASIBLE, cli.EXIT_TIME_CAP)
