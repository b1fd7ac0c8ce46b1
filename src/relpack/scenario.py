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

Every number is finite and not a bool; counts, pods, seed, n_slots and the
cycle counters are whole numbers.  kappa, p_max, tor_power and
cooling_power are >= 0, pods >= 1, seed >= 0 and time_cap > 0.  The fleet
has at most `sim.MAX_CELLS` VM-to-PM cells, PMs x max(VMs, 1).  Migration
hops follow the rack/pod tree: the racks split into `pods` contiguous pods.
A disk counter rises by at most 1 per slot and the AFR curve ends at 1599, so
cycle_count + cycle_count_spread + n_slots - 1 may not exceed 1599.
"""
from __future__ import annotations

import math
from pathlib import Path

import yaml

from .costs import CostWeights, ReliabilityParams
from .sim import PmTemplate, Scenario, VmTemplate


class ScenarioError(ValueError):
    """Malformed or unreadable scenario file."""


_SECTIONS = ("racks", "pm", "vms", "weights", "reliability", "migration", "solver")


class _Keys(dict):
    """The keys of one section, named in errors as `prefix` + key.  Each read
    pops its key, so the keys left over are unknown."""

    def __init__(self, prefix: str, keys: dict):
        super().__init__(keys)
        self.prefix = prefix

    def real(self, key: str, default: float) -> float:
        """The value of `key` as a finite float."""
        return self._number(key, default, "a finite number", math.isfinite)

    def whole(self, key: str, default: int) -> int:
        """The value of `key` as an int: an integer, or a float or string holding one."""
        value = self.get(key, default)
        number = self._number(key, default, "a whole number", float.is_integer)
        return value if isinstance(value, int) else int(number)

    def _number(self, key: str, default, kind: str, ok) -> float:
        """Pop `key` as a float for which `ok` holds; a bool is not a number."""
        value = self.pop(key, default)
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if isinstance(value, bool) or not ok(number):
            raise ValueError(f"{self.prefix}{key} must be {kind}, got {value!r}")
        return number


def _section(data: dict, name: str) -> _Keys:
    """Pop section `name` from `data`."""
    value = data.pop(name, None)
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ScenarioError(f"section {name!r} must be a mapping")
    return _Keys(f"{name}.", value)


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
    top = _Keys("", data)
    sections = {name: _section(top, name) for name in _SECTIONS}
    racks, pm, vms, weights, rel, mig, solver = sections.values()
    try:
        scenario = Scenario(
            n_racks=racks.whole("count", 8),
            pms_per_rack=racks.whole("pms_per_rack", 4),
            tor_power=racks.real("tor_power", 366.0),
            cooling_power=racks.real("cooling_power", 950.0),
            n_vms=vms.whole("count", 52),
            pm=PmTemplate(
                cpu_capacity=pm.real("cpu_capacity", 2000.0),
                ram_capacity=pm.real("ram_capacity", 10240.0),
                p_max=pm.real("p_max", 300.0),
                k_idle=pm.real("k_idle", 0.7),
                t_idle=pm.real("t_idle", 318.0),
                t_max=pm.real("t_max", 350.0),
            ),
            vm=VmTemplate(
                cpu_demand=vms.real("cpu", 500.0),
                ram_demand=vms.real("ram", 612.0),
                mem_gb=vms.real("mem_gb", 0.612),
            ),
            weights=CostWeights(
                alpha=weights.real("alpha", 1.0),
                beta=weights.real("beta", 1.0),
                gamma=weights.real("gamma", 1.0),
                rho=weights.real("rho", 0.10),
                omega=weights.real("omega", 0.1902),
                tau=weights.real("tau", 0.5),
            ),
            reliability=ReliabilityParams(
                delta=rel.real("delta", 1.51),
                varrho=rel.real("varrho", 1.09),
                varphi=rel.real("varphi", 1.19),
                q=rel.real("q", 2.35),
                t_amb=rel.real("t_amb", 298.0),
                mttf_hours=rel.real("mttf_hours", 26280.0),
                hours_per_year=rel.real("hours_per_year", 8760.0),
                afr_floor=rel.real("afr_floor", 1e-6),
            ),
            kappa=mig.real("kappa", 10.0),
            n_pods=mig.whole("pods", 2),
            cycle_count_base=pm.whole("cycle_count", 100),
            cycle_count_spread=pm.whole("cycle_count_spread", 0),
            seed=top.whole("seed", 0),
            n_slots=top.whole("n_slots", 1),
            solver=str(solver.pop("kind", "exact")),
            time_cap=solver.real("time_cap", 300.0),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad scenario value: {exc}") from exc
    # every key read was popped; what is left is misspelled or unsupported
    unknown = [str(key) for key in top]
    unknown += [f"{name}.{key}" for name, section in sections.items() for key in section]
    if unknown:
        raise ScenarioError(f"unknown scenario key: {', '.join(unknown)}")
    return scenario
