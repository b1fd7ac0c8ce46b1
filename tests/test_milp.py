"""MILP construction, linearization, counts, and LP export tests."""
import hashlib
import itertools

import numpy as np
import pytest

from relpack import cli, milp, sim
from relpack import costs as C
from relpack.domain import Placement, StructuralError

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
        want = milp.expected_counts(n_vms, n_racks * pms_per_rack, n_racks)
        assert (len(model.binary_names), len(model.continuous_names), len(model.row_names)) == want

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

    @pytest.mark.parametrize("var, value, vm, n", [("S_0_2", 1.0, 0, 2), ("S_1_1", 0.0, 1, 0)],
                             ids=["two-hosts", "no-host"])
    def test_decode_rejects_a_vm_not_on_one_pm(self, tiny_state, var, value, vm, n):
        model, *_ = _model_for(tiny_state)
        placement = Placement.from_hosts([1, 1, 3], tiny_state.n_pms)
        values = milp.assignment_for_placement(model, tiny_state, placement)
        values[var] = value
        with pytest.raises(StructuralError, match=f"vm {vm}: the solution puts it on {n} PMs"):
            milp.decode_placement(model, values)

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


def _pinned_instances():
    """(label, state, weights, params, migration model) of every instance whose LP bytes are pinned."""
    out = []
    for label, scenario, seed in [
        ("fleet32-s0", sim.Scenario(n_racks=8, pms_per_rack=4, n_vms=52), 0),  # cli-export's 32-PM fleet
        ("weights-table-1-0.2-1-s1", cli.weights_table_scenario(1.0, 0.2, 1.0), 1),
        ("alpha-sweep-16x25-a0.5-s0", cli.alpha_sweep_scenario(4, 25, 0.5), 0),
    ]:
        state = sim.build_datacenter(scenario, seed=seed)
        out.append((label, state, scenario.weights, scenario.reliability,
                    sim.migration_model(scenario, state)))
    for seed in (0, 4, 7):  # each has offline PMs
        out.append((f"tiny-s{seed}", *random_tiny_instance(np.random.default_rng(seed))))
    # PM 1 offline, a VM with no demand and no memory to move, racks of unequal size
    state = build_state([2, 1], [(0.0, 0.0, 0.0), (500.0, 612.0, 0.612), (300.0, 200.0, 1.0)], [0, 0, 2])
    out.append(("zero-demand", state, C.CostWeights(), C.ReliabilityParams(),
                C.MigrationCostModel.from_layout(state)))
    return out


# SHA-256 of `export_lp` for `_pinned_instances`: the LP bytes are an output
# format, so any change to them must be deliberate
_LP_SHA256 = {
    "fleet32-s0": "6de93794a4c05a3fe3a0aa5fa693e2cb18f9e9f2a664a0e58750151a0435358b",
    "weights-table-1-0.2-1-s1": "f97a5c75d06eef1a3480d66e972826d046199ae14dbf99a83c6eb5e1e83f7e9c",
    "alpha-sweep-16x25-a0.5-s0": "d85f3127aa1147149c599445f4d17b50b107bbd0f36ab1aa92be9d9a7d83078e",
    "tiny-s0": "361472fd7aa3ff5910cfeaa39fdf69088bbb9147200e96e9341a445a53c43047",
    "tiny-s4": "de00b9bf41f11985a6d28a449107546a02f55adff88bc0652b6437317e9d6bef",
    "tiny-s7": "12c84f2e9baf8dd2baa188d41a5ae6d548a52affc9afa4d43c713b1a7c993a9d",
    "zero-demand": "9036215865766a405747b5db8a7bd0ae0f9e138434dab3a87841c5d8d4d31531",
}


class TestLpBytes:
    def test_export_matches_pinned_digests(self):
        got = {
            label: hashlib.sha256(milp.export_lp(milp.build_model(*inst)).encode()).hexdigest()
            for label, *inst in _pinned_instances()
        }
        assert got == _LP_SHA256

    def test_csr_columns_strictly_increase(self, rng):
        instances = [inst for _, *inst in _pinned_instances()]
        instances += [random_tiny_instance(rng) for _ in range(20)]
        for inst in instances:
            model = milp.build_model(*inst)
            ptr = model.indptr
            assert ptr[0] == 0 and ptr[-1] == len(model.cols) == len(model.vals)
            assert len(ptr) == len(model.row_names) + 1 == len(model.senses) + 1 == len(model.rhs) + 1
            assert (np.diff(ptr) >= 0).all()
            assert ((model.cols >= 0) & (model.cols < len(model.var_names))).all()
            for a, b in zip(ptr[:-1], ptr[1:]):
                assert (np.diff(model.cols[a:b]) > 0).all()

    def test_parse_roundtrip_random_instances(self, rng):
        for _ in range(20):
            model = milp.build_model(*random_tiny_instance(rng))
            parsed = lp_oracle.parse_lp(milp.export_lp(model))
            assert parsed.constraints == [
                (c.name, {k: v for k, v in c.coeffs.items() if v != 0}, c.sense, c.rhs)
                for c in model.constraints
            ]
            assert parsed.objective == model.objective
            assert parsed.binary == list(model.binary_names)
            assert parsed.lower == dict.fromkeys(model.continuous_names, 0.0)
