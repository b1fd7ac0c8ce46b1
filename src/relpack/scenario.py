"""YAML scenario files.

Schema (all keys optional, defaults in parentheses; any other key is an error):

    racks:       {count (8), pms_per_rack (4), tor_power (366), cooling_power (950)}
    pm:          {cpu_capacity (2000), ram_capacity (10240), p_max (300),
                  k_idle (0.7), t_idle (318), t_max (350),
                  cycle_count (100), cycle_count_spread (0)}
    vms:         {count (52), cpu (500), ram (612), mem_gb (0.612)}
    weights:     {alpha (1), beta (1), gamma (1), rho (0.10), omega (0.1902), tau (0.5)}
    reliability: {delta (1.51), varrho (1.09), varphi (1.19), q (2.35), t_amb (298),
                  mttf_hours (26280), hours_per_year (8760), afr_floor (1e-6)}
    migration:   {kappa (10), pods (2)}
    seed:        (0)
    n_slots:     (1)
    solver:      {kind (exact), time_cap (300)}

A disk counter rises by at most 1 per slot and the AFR curve ends at 1599, so
cycle_count + cycle_count_spread + n_slots - 1 may not exceed 1599.
"""
from __future__ import annotations

from pathlib import Path

import yaml

from .costs import CostWeights, ReliabilityParams
from .sim import PmTemplate, Scenario, VmTemplate


class ScenarioError(ValueError):
    """Malformed or unreadable scenario file."""


_SECTIONS = ("racks", "pm", "vms", "weights", "reliability", "migration", "solver")


def _section(data: dict, name: str) -> dict:
    """Pop section `name` from `data`; return a copy to pop the read keys from."""
    value = data.pop(name, None)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"section {name!r} must be a mapping")
    return dict(value)


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a mapping at top level")
    return scenario_from_dict(data)


def scenario_from_dict(data: dict) -> Scenario:
    data = dict(data)
    sections = {name: _section(data, name) for name in _SECTIONS}
    racks, pm, vms, weights, rel, mig, solver = sections.values()
    try:
        scenario = Scenario(
            n_racks=int(racks.pop("count", 8)),
            pms_per_rack=int(racks.pop("pms_per_rack", 4)),
            tor_power=float(racks.pop("tor_power", 366.0)),
            cooling_power=float(racks.pop("cooling_power", 950.0)),
            n_vms=int(vms.pop("count", 52)),
            pm=PmTemplate(
                cpu_capacity=float(pm.pop("cpu_capacity", 2000.0)),
                ram_capacity=float(pm.pop("ram_capacity", 10240.0)),
                p_max=float(pm.pop("p_max", 300.0)),
                k_idle=float(pm.pop("k_idle", 0.7)),
                t_idle=float(pm.pop("t_idle", 318.0)),
                t_max=float(pm.pop("t_max", 350.0)),
            ),
            vm=VmTemplate(
                cpu_demand=float(vms.pop("cpu", 500.0)),
                ram_demand=float(vms.pop("ram", 612.0)),
                mem_gb=float(vms.pop("mem_gb", 0.612)),
            ),
            weights=CostWeights(
                alpha=float(weights.pop("alpha", 1.0)),
                beta=float(weights.pop("beta", 1.0)),
                gamma=float(weights.pop("gamma", 1.0)),
                rho=float(weights.pop("rho", 0.10)),
                omega=float(weights.pop("omega", 0.1902)),
                tau=float(weights.pop("tau", 0.5)),
            ),
            reliability=ReliabilityParams(
                delta=float(rel.pop("delta", 1.51)),
                varrho=float(rel.pop("varrho", 1.09)),
                varphi=float(rel.pop("varphi", 1.19)),
                q=float(rel.pop("q", 2.35)),
                t_amb=float(rel.pop("t_amb", 298.0)),
                mttf_hours=float(rel.pop("mttf_hours", 26280.0)),
                hours_per_year=float(rel.pop("hours_per_year", 8760.0)),
                afr_floor=float(rel.pop("afr_floor", 1e-6)),
            ),
            kappa=float(mig.pop("kappa", 10.0)),
            n_pods=int(mig.pop("pods", 2)),
            cycle_count_base=int(pm.pop("cycle_count", 100)),
            cycle_count_spread=int(pm.pop("cycle_count_spread", 0)),
            seed=int(data.pop("seed", 0)),
            n_slots=int(data.pop("n_slots", 1)),
            solver=str(solver.pop("kind", "exact")),
            time_cap=float(solver.pop("time_cap", 300.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad scenario value: {exc}") from exc
    # every key read was popped; what is left is misspelled or unsupported
    unknown = [str(key) for key in data]
    unknown += [f"{name}.{key}" for name, section in sections.items() for key in section]
    if unknown:
        raise ScenarioError(f"unknown scenario key: {', '.join(unknown)}")
    return scenario
