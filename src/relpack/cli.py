"""Command-line front end: single-scenario solves and the experiment presets."""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import costs as C
from . import milp, outputs, sim
from .scenario import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_TIME_CAP = 4
EXIT_OUTPUT = 5

# Migration-energy coefficients per experiment (Wh per GB per hop).  The
# weighting study prices migrations above the per-slot savings of an idle
# machine so the weight settings separate; the sweep uses the library default.
WEIGHTS_TABLE_KAPPA = 150.0
ALPHA_SWEEP_KAPPA = 10.0

# Disk start/stop counters for the weighting study, dealt out by load rank:
# machines that run loaded rarely cycle and sit low on the AFR curve, so
# they are expensive to power off; often-cycled idle machines are cheap.
WEIGHTS_TABLE_TIERS = ((17, 100), (5, 140), (10, 600))

WEIGHT_SETTINGS = [(0.2, 1.0, 1.0), (1.0, 0.2, 1.0), (1.0, 1.0, 0.2)]
ALPHA_GRID = [round(0.1 * i, 1) for i in range(11)]
SCALING_SIZES = [4, 8, 16, 32]  # PMs; racks = PMs/4, VMs = ceil(1.625 * PMs)


def _flag_value(kind, ok, rule: str):
    """argparse type: a `kind` value for which `ok` holds; else exit 2 naming `rule`."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse reports "invalid float value: ..."
    return parse


_TIME_CAP = _flag_value(float, lambda x: 0 < x < math.inf, "must be a positive number of seconds")
_SEED = _flag_value(int, lambda n: n >= 0, "must be >= 0")
_SEED_COUNT = _flag_value(int, lambda n: n >= 1, "must be >= 1")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="relpack",
        description="Reliability-aware server consolidation planner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one scenario file")
    p_solve.add_argument("--scenario", required=True, help="scenario YAML path")
    p_solve.add_argument("--out", default="out", help="output directory")
    p_solve.add_argument("--export-lp", action="store_true", help="also write the model in LP format")
    p_solve.add_argument("--seed", type=_SEED, default=None, help="override the scenario seed")
    p_solve.add_argument("--time-cap", type=_TIME_CAP, default=None, help="override the solver time cap, seconds")

    p_exp = sub.add_parser("experiment", help="run a predefined experiment preset")
    p_exp.add_argument("--preset", required=True,
                       choices=["weights-table", "alpha-sweep", "scaling-curves"])
    p_exp.add_argument("--out", default="out", help="output directory")
    p_exp.add_argument("--seeds", type=_SEED_COUNT, default=None, help="number of seeds (preset default)")
    p_exp.add_argument("--seed", type=_SEED, default=0, help="base seed")
    p_exp.add_argument("--time-cap", type=_TIME_CAP, default=5.0, help="per-solve time cap, seconds")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_experiment(args)
    except (ScenarioError, C.CostRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except C.InfeasibleError as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except outputs.OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    if args.time_cap is not None:
        scenario = dataclasses.replace(scenario, time_cap=args.time_cap)
    out = Path(args.out)

    state = sim.build_datacenter(scenario)
    if args.export_lp:
        mig = sim.migration_model(scenario, state)
        model = milp.build_model(state, scenario.weights, scenario.reliability, mig)
        outputs.write_text(out / "model.lp", milp.export_lp(model))

    rows = []
    reports = []
    for _ in range(scenario.n_slots):
        state, report = sim.step(state, scenario)
        reports.append(report)
        rows.append(outputs.report_row(report, scenario.seed, scenario.weights))
    outputs.write_report_csv(out / "report.csv", rows)
    outputs.write_placement_csv(out / "placement.csv", state.current.hosts())
    if any(r.proof == "time-capped" for r in reports):
        print("warning: solver hit the time cap; result is an incumbent", file=sys.stderr)
        return EXIT_TIME_CAP
    return EXIT_OK


def cmd_experiment(args) -> int:
    out = Path(args.out)
    if args.preset == "weights-table":
        return _weights_table(out, args.seeds or 10, args.seed, args.time_cap)
    if args.preset == "alpha-sweep":
        return _alpha_sweep(out, args.seeds or 5, args.seed, args.time_cap)
    return _scaling_curves(out, args.time_cap)


def weights_table_scenario(alpha: float, beta: float, gamma: float,
                           time_cap: float = 2.0) -> sim.Scenario:
    """The 32-PM weighting-study instance for one weight setting."""
    weights = C.CostWeights(alpha=alpha, beta=beta, gamma=gamma)
    return sim.Scenario(n_racks=8, pms_per_rack=4, n_vms=52,
                        kappa=WEIGHTS_TABLE_KAPPA,
                        cycle_count_tiers=WEIGHTS_TABLE_TIERS,
                        weights=weights, time_cap=time_cap)


def _run_seeds(scenario: sim.Scenario, n_seeds: int, base_seed: int,
               rows: list, means: dict[str, list[float]]) -> None:
    """Solve per seed; append the report rows and their mean row to `rows`, field means to `means`."""
    reports = []
    for s in range(n_seeds):
        report = sim.run(scenario, seed=base_seed + s)[0]
        reports.append(report)
        rows.append(outputs.report_row(report, base_seed + s, scenario.weights))
    rows.append(outputs.mean_row(reports, scenario.weights))
    for field, values in means.items():
        values.append(sum(getattr(r, field) for r in reports) / len(reports))


def _weights_table(out: Path, n_seeds: int, base_seed: int, time_cap: float) -> int:
    rows = []
    means = {"active_pms": [], "active_racks": [], "n_migrations": []}
    for alpha, beta, gamma in WEIGHT_SETTINGS:
        _run_seeds(weights_table_scenario(alpha, beta, gamma, time_cap),
                   n_seeds, base_seed, rows, means)
    outputs.write_report_csv(out / "weights_table.csv", rows)
    cats = [f"({a:g},{b:g},{g:g})" for a, b, g in WEIGHT_SETTINGS]
    svg = outputs.svg_bar_plot(
        "Impact of weighting factors", "count (seed average)", cats,
        [("active PMs", means["active_pms"]),
         ("active racks", means["active_racks"]),
         ("migrations", means["n_migrations"])],
    )
    outputs.write_text(out / "weights_table.svg", svg)
    return EXIT_OK


ALPHA_SWEEP_SHAPES = [("16x25", 4, 25), ("32x52", 8, 52)]


def alpha_sweep_scenario(n_racks: int, n_vms: int, alpha: float,
                         time_cap: float = 2.0) -> sim.Scenario:
    """One point of the energy-weight sweep on a homogeneous fleet."""
    weights = C.CostWeights(alpha=alpha, beta=1.0, gamma=1.0)
    return sim.Scenario(n_racks=n_racks, pms_per_rack=4, n_vms=n_vms,
                        kappa=ALPHA_SWEEP_KAPPA, weights=weights,
                        time_cap=time_cap)


def _alpha_sweep(out: Path, n_seeds: int, base_seed: int, time_cap: float) -> int:
    for name, n_racks, n_vms in ALPHA_SWEEP_SHAPES:
        rows = []
        curve = {"c_ene": [], "c_rel": [], "g_rel": []}
        for alpha in ALPHA_GRID:
            _run_seeds(alpha_sweep_scenario(n_racks, n_vms, alpha, time_cap),
                       n_seeds, base_seed, rows, curve)
        outputs.write_report_csv(out / f"alpha_sweep_{name}.csv", rows)
        svg = outputs.svg_line_plot(
            f"Alpha sweep, {name}", "alpha", "dollars per slot",
            [("energy cost", ALPHA_GRID, curve["c_ene"]),
             ("reliability cost", ALPHA_GRID, curve["c_rel"]),
             ("reliability gain", ALPHA_GRID, curve["g_rel"])],
        )
        outputs.write_text(out / f"alpha_sweep_{name}.svg", svg)
    return EXIT_OK


def _scaling_curves(out: Path, time_cap: float) -> int:
    lines = ["n_pms,n_racks,n_vms,n_binary,n_continuous,n_constraints,nodes_explored,wall_time"]
    curves = {"binary": [], "constraints": [], "wall": []}
    for n_pms in SCALING_SIZES:
        n_racks = n_pms // 4
        n_vms = math.ceil(1.625 * n_pms)
        scenario = sim.Scenario(n_racks=n_racks, pms_per_rack=4, n_vms=n_vms,
                                time_cap=time_cap)
        n_binary, n_continuous, n_constraints = milp.expected_counts(n_vms, n_pms, n_racks)
        _, report = sim.step(sim.build_datacenter(scenario, seed=0), scenario)
        lines.append(
            f"{n_pms},{n_racks},{n_vms},{n_binary},{n_continuous},"
            f"{n_constraints},{report.nodes_explored},{report.wall_time:.6g}"
        )
        curves["binary"].append(float(n_binary))
        curves["constraints"].append(float(n_constraints))
        curves["wall"].append(report.wall_time)
    outputs.write_text(out / "scaling.csv", "\n".join(lines) + "\n")
    xs = [float(p) for p in SCALING_SIZES]
    outputs.write_text(out / "scaling_model_size.svg", outputs.svg_line_plot(
        "Model size vs PM count", "PMs", "count",
        [("binary variables", xs, curves["binary"]),
         ("constraints", xs, curves["constraints"])],
    ))
    outputs.write_text(out / "scaling_runtime.svg", outputs.svg_line_plot(
        "Solver effort vs PM count", "PMs", "seconds (work estimate)",
        [("solve effort", xs, curves["wall"])],
    ))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
