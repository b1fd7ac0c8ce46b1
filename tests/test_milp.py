"""MILP construction, linearization, counts, and LP export tests."""
import itertools

import numpy as np
import pytest

from relpack import costs as C
from relpack import milp
from relpack.domain import Placement

import lp_oracle
from conftest import build_state, template_fleet_state, random_tiny_instance


def _model_for(state, weights=None, kappa=10.0):
    weights = weights or C.CostWeights()
    params = C.ReliabilityParams()
    mig = C.MigrationCostModel.from_layout(state, kappa=kappa)
    return milp.build_model(state, weights, params, mig), weights, params, mig


def _feasible_host_vectors(state):
    cpu = state.demands("cpu")
    ram = state.demands("ram")
    cpu_cap = state.capacities("cpu")
    ram_cap = state.capacities("ram")
    for hosts in itertools.product(range(state.n_pms), repeat=state.n_vms):
        used_c = np.bincount(hosts, weights=cpu, minlength=state.n_pms)
        used_r = np.bincount(hosts, weights=ram, minlength=state.n_pms)
        if (used_c <= cpu_cap + 1e-9).all() and (used_r <= ram_cap + 1e-9).all():
            yield list(hosts)


class TestCounts:
    @pytest.mark.parametrize("n_racks,pms_per_rack,n_vms", [(1, 2, 2), (2, 2, 3), (2, 4, 6)])
    def test_closed_form(self, n_racks, pms_per_rack, n_vms):
        hosts = [v % (n_racks * pms_per_rack) for v in range(n_vms)]
        state = template_fleet_state(hosts, n_racks=n_racks, pms_per_rack=pms_per_rack)
        model, *_ = _model_for(state)
        stats = milp.model_stats(model)
        want = milp.expected_counts(n_vms, n_racks * pms_per_rack, n_racks)
        assert (stats.n_binary, stats.n_continuous, stats.n_constraints) == want

    def test_variable_names_unique(self, tiny_state):
        model, *_ = _model_for(tiny_state)
        assert len(set(model.var_names)) == len(model.var_names)


class TestLinearization:
    def test_identity_on_all_feasible_points(self, tiny_state):
        model, weights, params, mig = _model_for(tiny_state)
        for hosts in _feasible_host_vectors(tiny_state):
            placement = Placement.from_hosts(hosts, tiny_state.n_pms)
            values = milp.assignment_for_placement(model, tiny_state, placement)
            assert milp.check_assignment(model, values) == []
            lin = milp.objective_value(model, values)
            exact, _ = C.objective(
                tiny_state.current, placement, tiny_state, weights, params, mig
            )
            assert lin == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_decode_roundtrip(self, tiny_state):
        model, *_ = _model_for(tiny_state)
        placement = Placement.from_hosts([1, 1, 3], tiny_state.n_pms)
        values = milp.assignment_for_placement(model, tiny_state, placement)
        assert milp.decode_placement(model, values) == placement

    def test_infeasible_point_flagged(self, tiny_state):
        model, *_ = _model_for(tiny_state)
        # all three VMs on one PM: 1500 MIPS fits, but claim the PM is dark
        placement = Placement.from_hosts([0, 0, 0], tiny_state.n_pms)
        values = milp.assignment_for_placement(model, tiny_state, placement)
        values["F10_0"] = 1.0
        values["X_0"] = 0.0
        bad = milp.check_assignment(model, values)
        assert any(name.startswith("dark_pm_empty") for name in bad)


class TestBigM:
    @staticmethod
    def _big_m(model, row, var):
        """The big-M constant: minus the indicator's coefficient in `row`."""
        return -next(c for c in model.constraints if c.name == row).coeffs[var]

    def test_pm_activity_constant_is_tight(self, tiny_state):
        model, *_ = _model_for(tiny_state)
        big_m = self._big_m(model, "pm_activity_1", "X_1")
        assert big_m == tiny_state.n_vms
        # witness: every VM on PM 1 saturates sum(S) = |V| = M * X
        placement = Placement.from_hosts([1, 1, 1], tiny_state.n_pms)
        values = milp.assignment_for_placement(model, tiny_state, placement)
        lhs = sum(values[f"S_{v}_1"] for v in range(3)) - big_m * values["X_1"]
        assert lhs == pytest.approx(0.0)  # any smaller M would cut this point

    def test_rack_activity_constant_is_tight(self, tiny_state):
        model, *_ = _model_for(tiny_state)
        assert self._big_m(model, "rack_activity_0", "Y_0") == 2.0
        placement = Placement.from_hosts([0, 1, 0], tiny_state.n_pms)
        values = milp.assignment_for_placement(model, tiny_state, placement)
        lhs = values["X_0"] + values["X_1"] - 2.0 * values["Y_0"]
        assert lhs == pytest.approx(0.0)


class TestExport:
    def test_sections_present(self, tiny_state):
        model, *_ = _model_for(tiny_state)
        text = milp.export_lp(model)
        for keyword in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            assert keyword in text

    def test_parse_roundtrip_preserves_structure(self, tiny_state):
        model, *_ = _model_for(tiny_state)
        parsed = lp_oracle.parse_lp(milp.export_lp(model))
        assert set(parsed.binary) == set(model.binary_names)
        assert len(parsed.constraints) == len(model.constraints)
        by_name = {name: (coeffs, sense, rhs) for name, coeffs, sense, rhs in parsed.constraints}
        for con in model.constraints:
            coeffs, sense, rhs = by_name[con.name]
            assert sense == con.sense
            assert rhs == pytest.approx(con.rhs, abs=1e-12)
            want = {k: v for k, v in con.coeffs.items() if v != 0}
            assert set(coeffs) == set(want)
            for k, v in want.items():
                assert coeffs[k] == pytest.approx(v, rel=1e-12)
        for name, coef in model.objective.items():
            if coef != 0:
                assert parsed.objective[name] == pytest.approx(coef, rel=1e-12)

    def test_export_deterministic(self, tiny_state):
        model, *_ = _model_for(tiny_state)
        assert milp.export_lp(model) == milp.export_lp(model)

    def test_external_solver_agrees_on_fixed_instance(self, tiny_state):
        model, weights, params, mig = _model_for(tiny_state)
        obj, values = lp_oracle.solve_lp_text(milp.export_lp(model))
        best = min(
            C.objective(
                tiny_state.current,
                Placement.from_hosts(h, tiny_state.n_pms),
                tiny_state, weights, params, mig,
            )[0]
            for h in _feasible_host_vectors(tiny_state)
        )
        assert obj == pytest.approx(best, abs=1e-6)
        decoded = milp.decode_placement(model, values)
        exact, _ = C.objective(
            tiny_state.current, decoded, tiny_state, weights, params, mig
        )
        assert exact == pytest.approx(best, abs=1e-6)


class TestRandomized:
    def test_linearization_random_instances(self, rng):
        for _ in range(10):
            state, weights, params, mig = random_tiny_instance(rng)
            model = milp.build_model(state, weights, params, mig)
            for hosts in itertools.islice(_feasible_host_vectors(state), 80):
                placement = Placement.from_hosts(hosts, state.n_pms)
                values = milp.assignment_for_placement(model, state, placement)
                assert milp.check_assignment(model, values) == []
                lin = milp.objective_value(model, values)
                exact, _ = C.objective(
                    state.current, placement, state, weights, params, mig
                )
                assert lin == pytest.approx(exact, rel=1e-9, abs=1e-12)
