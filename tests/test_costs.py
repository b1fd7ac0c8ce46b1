"""Cost formula unit tests against hand-computed values, plus property tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpack import costs as C
from relpack import milp, sim
from relpack import solver as S
from relpack.domain import Placement, all_utilizations, derive_transition_flags, validate_placement

from conftest import (FLEETS, build_state, random_template_instance, random_tiny_instance,
                      template_fleet_state)


@pytest.fixture
def pm(tiny_state):
    return tiny_state.pms[0]


class TestPower:
    def test_idle_and_full(self, pm):
        assert C.pm_power(0.0, pm) == pytest.approx(210.0)
        assert C.pm_power(1.0, pm) == pytest.approx(300.0)

    def test_midpoint(self, pm):
        assert C.pm_power(0.5, pm) == pytest.approx(255.0)

    def test_out_of_range(self, pm):
        with pytest.raises(ValueError):
            C.pm_power(-0.1, pm)
        with pytest.raises(ValueError):
            C.pm_power(1.5, pm)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_affine(self, theta):
        state = template_fleet_state([0])
        pm = state.pms[0]
        assert C.pm_power(theta, pm) == pytest.approx(210.0 + 90.0 * theta)

    def test_pm_energy_half_slot(self, pm):
        assert C.pm_energy(pm, 0, 0, 0.5, 0.5) == pytest.approx(127.5)

    def test_pm_energy_dark(self, pm):
        assert C.pm_energy(pm, 1, 0, 0.0, 0.5) == 0.0
        assert C.pm_energy(pm, 0, 1, 0.0, 0.5) == 0.0


class TestRackAndMigration:
    def test_rack_energy_single_active(self, tiny_state, default_weights):
        # VMs on PMs 0,1,2: both racks active
        flags = derive_transition_flags(tiny_state.current, tiny_state.current, tiny_state)
        wh = C.rack_energy(flags, tiny_state.racks, default_weights.tau)
        assert wh == pytest.approx(2 * 0.5 * (366 + 950))

    def test_migration_energy_one_hop(self, tiny_state):
        mig = C.MigrationCostModel.from_layout(tiny_state, kappa=10.0)
        nxt = Placement.from_hosts([1, 1, 2], tiny_state.n_pms)  # VM 0 moves 0 -> 1, same rack
        wh = C.migration_energy(tiny_state.current, nxt, mig, tiny_state.vms)
        assert wh == pytest.approx(10.0 * 0.612 * 1)

    def test_migration_energy_cross_pod(self, tiny_state):
        mig = C.MigrationCostModel.from_layout(tiny_state, kappa=10.0, n_pods=2)
        nxt = Placement.from_hosts([2, 1, 2], tiny_state.n_pms)  # rack 0 -> rack 1, other pod
        wh = C.migration_energy(tiny_state.current, nxt, mig, tiny_state.vms)
        assert wh == pytest.approx(10.0 * 0.612 * 3)

    def test_no_moves_no_energy(self, tiny_state):
        mig = C.MigrationCostModel.from_layout(tiny_state, kappa=10.0)
        wh = C.migration_energy(tiny_state.current, tiny_state.current, mig, tiny_state.vms)
        assert wh == 0.0

    def test_distance_matrix_shape(self, tiny_state):
        mig = C.MigrationCostModel.from_layout(tiny_state, kappa=1.0)
        pms = np.arange(tiny_state.n_pms)
        d = mig.hops(pms[:, None], pms)
        assert d.shape == (4, 4)
        assert (np.diag(d) == 0).all()
        assert d[0, 1] == 1 and d[0, 2] == 3  # rack 0 and rack 1 sit in different pods
        with pytest.raises(ValueError):
            C.MigrationCostModel.from_layout(tiny_state, kappa=1.0, n_pods=0)


class TestReliability:
    def test_afr_at_zero(self, default_params):
        assert C.afr(0, default_params) == pytest.approx(1.19e-4)

    def test_afr_at_hundred(self, default_params):
        assert C.afr(100, default_params) == pytest.approx(0.140219, rel=1e-6)

    def test_afr_clamped_in_dip(self, default_params):
        # raw quadratic is negative around f=4
        assert C.afr(4, default_params) == default_params.afr_floor

    def test_afr_domain(self, default_params):
        with pytest.raises(ValueError):
            C.afr(-1, default_params)
        with pytest.raises(ValueError):
            C.afr(C.MAX_CYCLE_COUNT + 1, default_params)

    def test_disk_cycle_cost_at_hundred(self, default_params):
        assert C.disk_cycle_cost(100, default_params) == pytest.approx(1277.056, rel=1e-4)

    @given(st.integers(0, C.MAX_CYCLE_COUNT - 1))
    @settings(max_examples=100, deadline=None)
    def test_disk_cycle_cost_nonnegative(self, f):
        assert C.disk_cycle_cost(f, C.ReliabilityParams()) >= 0.0

    def test_cpu_cycle_cost(self, default_params):
        assert C.cpu_cycle_cost(323.0, default_params) == pytest.approx(13.62907, rel=1e-5)

    def test_cpu_cycle_cost_needs_delta(self, default_params):
        with pytest.raises(ValueError):
            C.cpu_cycle_cost(298.0, default_params)

    @given(st.floats(300.0, 360.0), st.floats(300.0, 360.0))
    @settings(max_examples=50, deadline=None)
    def test_cpu_cycle_cost_decreasing_in_temperature(self, t1, t2):
        lo, hi = sorted((t1, t2))
        p = C.ReliabilityParams()
        assert C.cpu_cycle_cost(lo, p) >= C.cpu_cycle_cost(hi, p)

    def test_avg_temperature(self, pm):
        assert C.pm_avg_temperature(0.0, pm) == 318.0
        assert C.pm_avg_temperature(1.0, pm) == 350.0
        assert C.pm_avg_temperature(0.25, pm) == 326.0

    def test_shutdown_cost_composition(self, pm, default_params):
        got = C.pm_shutdown_cost(pm, 0.25, default_params)
        want = C.disk_cycle_cost(100, default_params) + C.cpu_cycle_cost(326.0, default_params)
        assert got == pytest.approx(want)


class TestTotals:
    def test_full_transition_costs(self, default_weights, default_params):
        state = template_fleet_state([0, 1, 2])
        mig = C.MigrationCostModel.from_layout(state, kappa=10.0)
        nxt = Placement.from_hosts([0, 0, 0], state.n_pms)  # PMs 1, 2 power off
        value, bd = C.objective(state.current, nxt, state, default_weights, default_params, mig)
        # PM 0 runs three 500-MIPS VMs: theta 0.75, 252.5 W for half an hour
        assert bd.pm_energy_wh == pytest.approx(0.5 * (210 + 90 * 0.75))
        assert bd.rack_energy_wh == pytest.approx(0.5 * 1316)
        # VM 1 moves one hop, VM 2 moves three hops
        assert bd.mig_energy_wh == pytest.approx(10 * 0.612 * (1 + 3))
        assert bd.c_ene == pytest.approx(
            0.10 * (bd.pm_energy_wh + bd.rack_energy_wh + bd.mig_energy_wh) / 1000
        )
        # both shutdowns priced at their slot-t utilization (0.25 each)
        per_pm = 0.1902 * (
            C.disk_cycle_cost(100, default_params) + C.cpu_cycle_cost(326.0, default_params)
        )
        assert bd.c_rel == pytest.approx(2 * per_pm)
        # three PMs dark next slot (two powered off, one stays off)
        assert bd.g_rel == pytest.approx(0.1902 * 0.5 * 3)
        assert value == bd.objective

    def test_reliability_gain_counts_stay_off(self, default_weights):
        state = template_fleet_state([0, 0, 0])
        flags = derive_transition_flags(state.current, state.current, state)
        assert flags.n_off == 3
        assert C.reliability_gain(flags, default_weights) == pytest.approx(0.1902 * 0.5 * 3)


class TestBounds:
    def test_packing_floor_template(self):
        state = template_fleet_state([v % 32 for v in range(52)], n_racks=8, pms_per_rack=4)
        assert C.packing_floor(state) == 13

    def test_packing_floor_exact_fit(self):
        state = template_fleet_state([0, 0, 0, 0])  # 4 x 500 = one full PM
        assert C.packing_floor(state) == 1

    def test_packing_floor_heterogeneous(self):
        # floor divides by the largest capacity: 4200 / 2500 -> 2 machines
        state = build_state(
            [2], [(1800.0, 100.0, 0.5)] * 2 + [(600.0, 100.0, 0.5)], [0, 1, 1],
            cpu_caps=[2000.0, 2500.0], ram_caps=[10240.0, 10240.0],
        )
        assert C.packing_floor(state) == 2

    def test_packing_floor_fill_within_tolerance(self, default_weights, default_params):
        """Six VMs of 1000.0000000004 fit three PMs of 2000 by the fit rule,
        so the floor is 3 and one PM may go dark, as for VMs of 1000."""
        over = build_state([2, 2], [(1000.0000000004, 612.0, 0.612)] * 6, [0, 0, 1, 1, 2, 2])
        exact = build_state([2, 2], [(1000.0, 612.0, 0.612)] * 6, [0, 0, 1, 1, 2, 2])
        assert C.packing_floor(over) == C.packing_floor(exact) == 3
        bounds = C.reliability_bounds(over, default_weights, default_params)
        # the shutdown hours read the utilization, a few ulps higher on the full PMs
        assert bounds == pytest.approx(C.reliability_bounds(exact, default_weights, default_params),
                                       rel=1e-12)
        assert bounds == pytest.approx((243.36, 0.0951), abs=0.01)

    def test_reliability_bounds_slots(self, default_weights, default_params):
        state = template_fleet_state([0, 1, 2])
        c_ub, g_ub = C.reliability_bounds(state, default_weights, default_params)
        assert C.packing_floor(state) == 1
        # three slots may go dark; only three PMs are online to charge
        assert g_ub == pytest.approx(3 * 0.1902 * 0.5)
        per_pm = 0.1902 * C.pm_shutdown_cost(state.pms[0], 0.25, default_params)
        assert c_ub == pytest.approx(3 * per_pm)

    def test_energy_bound_dominates_samples(self, rng, default_weights):
        state = template_fleet_state([0, 1, 2, 3, 0, 1])
        mig = C.MigrationCostModel.from_layout(state, kappa=25.0)
        ub = C.energy_upper_bound(state, default_weights, mig)
        for _ in range(200):
            hosts = rng.integers(0, 4, size=6)
            counts = np.bincount(hosts, minlength=4)
            if (counts * 500 > 2000).any():
                continue
            nxt = Placement.from_hosts(hosts.tolist(), 4)
            flags = derive_transition_flags(state.current, nxt, state)
            wh = C.energy_components_wh(state.current, nxt, state, default_weights, mig, flags)
            cost = default_weights.rho * sum(wh) / 1000.0
            assert cost <= ub + 1e-12


class TestCostTable:
    def test_terms_match_objective_breakdown(self):
        """The table that the MILP and the B&B are written from prices each
        term of a transition as `costs.objective` does."""
        rng = np.random.default_rng(11)
        for _ in range(40):
            state, weights, params, mig = random_tiny_instance(rng)
            nxt = state.current
            for _ in range(20):
                trial = Placement.from_hosts(rng.integers(0, state.n_pms, state.n_vms), state.n_pms)
                if not validate_placement(trial, state):
                    nxt = trial
                    break
            value, bd = C.objective(state.current, nxt, state, weights, params, mig)
            flags = derive_transition_flags(state.current, nxt, state)
            t = C.cost_table(state, weights, params, mig)
            hosts = nxt.hosts()
            hosted_cpu = np.bincount(hosts, weights=state.demands("cpu"), minlength=state.n_pms)
            pm_wh = float(flags.x @ (t.idle_wh + t.slope_wh * hosted_cpu))
            rack_wh = float(t.rack_wh @ flags.y)
            mig_wh = float(t.mig_wh[np.arange(state.n_vms), hosts].sum())
            c_rel = float(t.shut @ flags.f10)
            g_rel = t.rest * flags.n_off
            assert pm_wh == pytest.approx(bd.pm_energy_wh, rel=1e-12)
            assert rack_wh == pytest.approx(bd.rack_energy_wh, rel=1e-12)
            assert mig_wh == pytest.approx(bd.mig_energy_wh, rel=1e-12, abs=1e-12)
            assert c_rel == pytest.approx(bd.c_rel, rel=1e-12, abs=1e-12)
            assert g_rel == pytest.approx(bd.g_rel, rel=1e-12, abs=1e-12)
            got = (t.ene_scale * (pm_wh + rack_wh + mig_wh) + t.rel_scale * c_rel
                   - t.gain_scale * g_rel)
            assert got == pytest.approx(value, rel=1e-9, abs=1e-12)
            assert t.gain == pytest.approx(t.gain_scale * t.rest, rel=1e-12)

    @pytest.mark.parametrize("draw", [random_tiny_instance, random_template_instance],
                             ids=["tiny", "template"])
    def test_value_matches_costs_objective_and_milp(self, rng, draw):
        """The scaled form K + A + B + R values a placement as `costs.objective`
        and the MILP's objective row do."""
        for _ in range(20):
            state, weights, params, mig = draw(rng)
            table = C.cost_table(state, weights, params, mig)
            model = milp.build_model(state, weights, params, mig)
            A = table.energy(np.arange(state.n_vms)[:, None], np.arange(state.n_pms)).tolist()
            greedy = S.greedy_incumbent(state, weights, params, mig).placement.hosts()
            for hosts in (state.current.hosts(), greedy):
                fast = table.value(hosts)
                assert table.value(hosts, A) == fast  # the full table reads the same entries
                placement = Placement.from_hosts(hosts, state.n_pms)
                exact, _ = C.objective(state.current, placement, state, weights, params, mig)
                assert fast == pytest.approx(exact, rel=1e-9, abs=1e-12)
                lin = milp.objective_value(model, milp.assignment_for_placement(model, state, placement))
                assert fast == pytest.approx(lin, rel=0, abs=1e-9)


class TestShutdownExact:
    """The table prices each distinct counter and temperature once; every
    entry must still be the scalar formula's float, compared with `==`."""

    @pytest.mark.parametrize("fleet", sorted(FLEETS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shut_is_the_scalar_shutdown_cost(self, fleet, seed):
        scenario = FLEETS[fleet]
        state = sim.build_datacenter(scenario, seed=seed)
        weights, params = scenario.weights, scenario.reliability
        table = C.cost_table(state, weights, params, sim.migration_model(scenario, state))
        thetas = all_utilizations(state.current, state)
        online = state.online_now()
        assert not online.all()  # some entries must be the dark PMs' 0.0
        want = [weights.omega * C.pm_shutdown_cost(pm, float(thetas[pm.id]), params)
                if online[pm.id] else 0.0 for pm in state.pms]
        assert table.shut.tolist() == want
        # the bound charges the dearest |P| - floor of the same scalar costs
        slots = state.n_pms - C.packing_floor(state)
        costs = sorted((C.pm_shutdown_cost(pm, float(thetas[pm.id]), params)
                        for pm in state.pms if online[pm.id]), reverse=True)
        c_rel_ub, _ = C.reliability_bounds(state, weights, params)
        assert c_rel_ub == weights.omega * sum(costs[:slots])

    def test_energy_bound_is_the_per_pm_sum(self):
        """`energy_upper_bound` prices each (load, machine) once; the total
        must be the PM-by-PM sum of `pm_power`, in PM order."""
        rng = np.random.default_rng(3)
        for _ in range(40):
            state, weights, _, mig = random_tiny_instance(rng)
            n_p, n_v = state.n_pms, state.n_vms
            mean_cpu = state.demands("cpu").sum() / n_v
            total = 0.0
            for i, pm in enumerate(state.pms):
                hosted = n_v // n_p + (1 if i < n_v % n_p else 0)
                total += C.pm_power(min(1.0, hosted * mean_cpu / pm.cpu_capacity), pm)
            rack_w = sum(r.tor_power + r.cooling_power for r in state.racks)
            mig_wh = n_v * mig.max_cell(state.vms)
            want = weights.rho * (weights.tau * (rack_w + total) + mig_wh) / 1000.0
            assert C.energy_upper_bound(state, weights, mig) == want


class TestValidation:
    def test_weight_range(self):
        with pytest.raises(ValueError):
            C.CostWeights(alpha=1.5)
        with pytest.raises(ValueError):
            C.CostWeights(rho=0.0)

    def test_reliability_params_validation(self):
        with pytest.raises(ValueError):
            C.ReliabilityParams(afr_floor=0.0)
