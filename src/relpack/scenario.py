"""YAML scenario files.

Schema (all keys optional; any other key is an error):

    racks:       {count, pms_per_rack, tor_power, cooling_power}
    pm:          {cpu_capacity, ram_capacity, p_max, k_idle, t_idle, t_max,
                  cycle_count, cycle_count_spread}
    vms:         {count, cpu, ram, mem_gb}
    weights:     {alpha, beta, gamma, rho, omega, tau}
    reliability: {delta, varrho, varphi, q, t_amb, mttf_hours, hours_per_year, afr_floor}
    migration:   {kappa, pods}
    seed
    n_slots
    solver:      {kind, time_cap}

Each key sets one field of `sim.Scenario` (`_FIELDS`).  A key left out keeps
that field's default; the README lists the defaults.  A key's kind is its
field's type: text, a finite real or a whole number.

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
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .costs import CostWeights, ReliabilityParams
from .sim import PmTemplate, Scenario


class ScenarioError(ValueError):
    """Malformed or unreadable scenario file."""


# "section.key" (or a top-level key) -> the field of `sim.Scenario` it sets;
# "vm.cpu_demand" is the `cpu_demand` field of `Scenario.vm`.
_FIELDS = {
    "racks.count": "n_racks",
    "racks.pms_per_rack": "pms_per_rack",
    "racks.tor_power": "tor_power",
    "racks.cooling_power": "cooling_power",
    **{f"pm.{f.name}": f"pm.{f.name}" for f in fields(PmTemplate)},
    "pm.cycle_count": "cycle_count_base",
    "pm.cycle_count_spread": "cycle_count_spread",
    "vms.count": "n_vms",
    "vms.cpu": "vm.cpu_demand",
    "vms.ram": "vm.ram_demand",
    "vms.mem_gb": "vm.mem_gb",
    **{f"weights.{f.name}": f"weights.{f.name}" for f in fields(CostWeights)},
    **{f"reliability.{f.name}": f"reliability.{f.name}" for f in fields(ReliabilityParams)},
    "migration.kappa": "kappa",
    "migration.pods": "n_pods",
    "seed": "seed",
    "n_slots": "n_slots",
    "solver.kind": "solver",
    "solver.time_cap": "time_cap",
}
_SECTIONS = tuple(dict.fromkeys(key.split(".")[0] for key in _FIELDS if "." in key))
# the type of every field of `Scenario` and of its nested templates, by path
_TYPES = get_type_hints(Scenario)
_TYPES.update({f"{outer}.{name}": kind for outer, cls in list(_TYPES.items()) if is_dataclass(cls)
               for name, kind in get_type_hints(cls).items()})
_NUMBERS = {float: ("a finite number", math.isfinite), int: ("a whole number", float.is_integer)}


class _Keys(dict):
    """The keys of one section, named in errors as `prefix` + key.  Each read
    pops its key, so the keys left over are unknown."""

    def __init__(self, prefix: str, keys: dict):
        super().__init__(keys)
        self.prefix = prefix

    def read(self, key: str, kind: type):
        """Pop `key` as `kind`: text, a finite float, or an int (an integer, or
        a float or string holding one).  A bool is not a number."""
        value = self.pop(key)
        if kind is str:
            return str(value)
        what, ok = _NUMBERS[kind]
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if isinstance(value, bool) or not ok(number):
            raise ValueError(f"{self.prefix}{key} must be {what}, got {value!r}")
        if kind is float:
            return number
        return value if isinstance(value, int) else int(number)


def _section(data: dict, name: str) -> _Keys:
    """Pop section `name` from `data`."""
    value = data.pop(name, None)
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ScenarioError(f"section {name!r} must be a mapping")
    return _Keys(f"{name}.", value)


def load_scenario(path: str | Path) -> Scenario:
    # imported here, so that only reading a scenario file pays for PyYAML
    import yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    sections = {"": top} | {name: _section(top, name) for name in _SECTIONS}
    # the values read, by nested field of Scenario ("" for its own fields)
    values: dict[str, dict] = {}
    try:
        for key, path in _FIELDS.items():
            section, _, name = key.rpartition(".")
            if name in sections[section]:
                outer, _, field = path.rpartition(".")
                values.setdefault(outer, {})[field] = sections[section].read(name, _TYPES[path])
        nested = {outer: _TYPES[outer](**kwargs) for outer, kwargs in values.items() if outer}
        scenario = Scenario(**values.get("", {}), **nested)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad scenario value: {exc}") from exc
    # every key read was popped; what is left is misspelled or unsupported
    unknown = [f"{keys.prefix}{key}" for keys in sections.values() for key in keys]
    if unknown:
        raise ScenarioError(f"unknown scenario key: {', '.join(unknown)}")
    return scenario
