"""Scenario file loading tests."""
import re
from dataclasses import asdict
from pathlib import Path

import pytest
import yaml

from relpack.scenario import ScenarioError, load_scenario, scenario_from_dict
from relpack.sim import Scenario


class TestLoad:
    def test_defaults_from_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        sc = load_scenario(path)
        assert sc.n_pms == 32 and sc.n_vms == 52
        assert sc.weights.alpha == 1.0 and sc.kappa == 10.0

    def test_full_file(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(
            "racks: {count: 2, pms_per_rack: 3}\n"
            "vms: {count: 7, cpu: 400}\n"
            "weights: {alpha: 0.3, beta: 0.7, gamma: 0.1}\n"
            "migration: {kappa: 42, pods: 1}\n"
            "pm: {cycle_count: 250}\n"
            "seed: 13\n"
            "n_slots: 2\n"
            "solver: {kind: greedy, time_cap: 1.5}\n"
        )
        sc = load_scenario(path)
        assert sc.n_racks == 2 and sc.pms_per_rack == 3 and sc.n_vms == 7
        assert sc.vm.cpu_demand == 400.0
        assert sc.weights.beta == 0.7
        assert sc.kappa == 42.0 and sc.n_pods == 1
        assert sc.cycle_count_base == 250
        assert sc.seed == 13 and sc.n_slots == 2
        assert sc.solver == "greedy" and sc.time_cap == 1.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("racks: [unterminated\n")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_non_mapping_top_level(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_non_mapping_section(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"racks": [1, 2]})

    def test_bad_value_type(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"racks": {"count": "many"}})

    def test_bad_weight_range(self):
        with pytest.raises((ScenarioError, ValueError)):
            scenario_from_dict({"weights": {"alpha": 3.0}})


def _readme_defaults() -> dict:
    """The default scenario block of the README, as YAML data."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```yaml\n(.*?)```", text, re.S)
    return yaml.safe_load(block)


# a non-default, in-domain value for every documented key (section None is the
# top level); the value of each real-valued key is fractional
_OTHER = {
    "racks": {"count": 3, "pms_per_rack": 2, "tor_power": 100.5, "cooling_power": 200.5},
    "pm": {"cpu_capacity": 1999.5, "ram_capacity": 10000.5, "p_max": 250.5, "k_idle": 0.5,
           "t_idle": 320.5, "t_max": 349.5, "cycle_count": 7, "cycle_count_spread": 3},
    "vms": {"count": 5, "cpu": 400.5, "ram": 600.5, "mem_gb": 0.5},
    "weights": {"alpha": 0.5, "beta": 0.25, "gamma": 0.75, "rho": 0.15, "omega": 0.2,
                "tau": 0.25},
    "reliability": {"delta": 1.5, "varrho": 1.1, "varphi": 1.2, "q": 2.5, "t_amb": 297.5,
                    "mttf_hours": 20000.5, "hours_per_year": 8760.5, "afr_floor": 2.5e-6},
    "migration": {"kappa": 2.5, "pods": 1},
    "solver": {"kind": "greedy", "time_cap": 0.5},
    None: {"seed": 4, "n_slots": 2},
}


def _leaves(sc: Scenario) -> dict:
    """Every field of a scenario by dotted path, nested templates included."""
    out = {}
    for name, value in asdict(sc).items():
        if isinstance(value, dict):
            out.update({f"{name}.{key}": v for key, v in value.items()})
        else:
            out[name] = value
    return out


def _changed_field(section, key, value):
    """The one field of the loaded scenario that a lone `key: value` changes."""
    sc = scenario_from_dict({key: value} if section is None else {section: {key: value}})
    got, default = _leaves(sc), _leaves(Scenario())
    changed = [path for path in got if got[path] != default[path]]
    assert len(changed) == 1, f"{section}.{key} changed {changed}"
    assert got[changed[0]] == value, f"{section}.{key} set {changed[0]} to {got[changed[0]]!r}"
    return changed[0]


class TestSchema:
    def test_readme_defaults_are_the_dataclass_defaults(self):
        assert scenario_from_dict(_readme_defaults()) == Scenario()

    def test_every_documented_key_has_a_test_value(self):
        documented = set()
        for name, value in _readme_defaults().items():
            if isinstance(value, dict):
                documented |= {(name, key) for key in value}
            else:
                documented.add((None, name))
        assert documented == {(s, k) for s, keys in _OTHER.items() for k in keys}

    def test_each_key_sets_exactly_its_own_field(self):
        fields = [_changed_field(s, k, v) for s, keys in _OTHER.items() for k, v in keys.items()]
        assert len(set(fields)) == len(fields)

    def test_real_keys_take_fractions_and_whole_keys_reject_them(self):
        default = _leaves(Scenario())
        for section, keys in _OTHER.items():
            for key, value in keys.items():
                field = _changed_field(section, key, value)
                if isinstance(default[field], float):
                    assert not float(value).is_integer(), f"{section}.{key}: pick a fractional value"
                elif isinstance(default[field], int):
                    data = {key: value + 0.5}
                    with pytest.raises(ScenarioError, match="must be a whole number"):
                        scenario_from_dict(data if section is None else {section: data})
