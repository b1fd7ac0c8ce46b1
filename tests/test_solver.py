"""Solver tests: brute force vs both exact paths, determinism, budgets."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relpack import cli, milp, sim
from relpack import costs as C
from relpack import solver as S
from relpack.domain import (FIT_TOL, Placement, all_utilizations, derive_transition_flags,
                            validate_placement)

import lp_oracle
from conftest import (FLEETS, _random_feasible_hosts, build_state, random_template_instance,
                      random_tiny_instance, template_fleet_state)


def _setup(state, kappa=10.0, weights=None):
    weights = weights or C.CostWeights()
    params = C.ReliabilityParams()
    mig = C.MigrationCostModel.from_layout(state, kappa=kappa)
    return weights, params, mig


class TestBruteForce:
    def test_matches_exact_on_fixed_instance(self):
        state = template_fleet_state([0, 1, 2])
        weights, params, mig = _setup(state)
        bf = S.solve_bruteforce(state, weights, params, mig)
        ex = S.solve_exact(state, weights, params, mig, time_cap=10.0)
        assert ex.proof == "optimal"
        assert ex.objective == pytest.approx(bf.objective, abs=1e-9)
        assert ex.placement == bf.placement  # lexicographic tie-break agreement

    def test_size_guard(self):
        state = template_fleet_state([v % 16 for v in range(20)], n_racks=4, pms_per_rack=4)
        weights, params, mig = _setup(state)
        with pytest.raises(ValueError):
            S.solve_bruteforce(state, weights, params, mig)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_random_instances_agree(self, seed):
        """Both exact paths prove brute force's optimum and return its
        placement, the smallest host list among ties.  The `campaign`
        profile runs 10,000 draws."""
        state, weights, params, mig = random_tiny_instance(np.random.default_rng(seed))
        bf = S.solve_bruteforce(state, weights, params, mig)
        ex = S.solve_exact(state, weights, params, mig, time_cap=10.0)
        assert ex.proof == "optimal"
        assert ex.objective == pytest.approx(bf.objective, abs=1e-9)
        assert ex.placement == bf.placement


class TestDeterminism:
    def test_repeat_solves_identical(self):
        state = template_fleet_state([0, 0, 1, 2, 3], n_racks=2, pms_per_rack=2)
        weights, params, mig = _setup(state, kappa=30.0)
        a = S.solve_exact(state, weights, params, mig, time_cap=5.0)
        b = S.solve_exact(state, weights, params, mig, time_cap=5.0)
        assert a.placement == b.placement
        assert a.objective == b.objective
        assert a.nodes_explored == b.nodes_explored
        assert a.wall_time == b.wall_time

    def test_wall_time_is_node_derived(self):
        state = template_fleet_state([0, 1, 2])
        weights, params, mig = _setup(state)
        res = S.solve_exact(state, weights, params, mig, time_cap=5.0)
        assert res.wall_time == res.nodes_explored / S.NODES_PER_SECOND


class TestBudget:
    def test_node_budget_respected(self):
        state = template_fleet_state([v % 8 for v in range(13)], n_racks=2, pms_per_rack=4)
        weights, params, mig = _setup(state)
        cap = 1 / S.NODES_PER_SECOND  # 1 unit, too little for any solve to finish
        res = S.solve_exact(state, weights, params, mig, time_cap=cap)
        assert res.nodes_explored <= int(cap * S.NODES_PER_SECOND)
        assert res.proof == "time-capped"
        assert not res.placement.hosts().tolist() == []  # still returns an incumbent

    def test_incumbent_no_worse_than_greedy(self):
        state = template_fleet_state([v % 8 for v in range(13)], n_racks=2, pms_per_rack=4)
        weights, params, mig = _setup(state)
        capped = S.solve_exact(state, weights, params, mig, time_cap=0.01)
        greedy = S.greedy_incumbent(state, weights, params, mig)
        assert capped.objective <= greedy.objective + 1e-9

    def test_capped_search_spends_exactly_its_budget(self):
        # mixed VM sizes: the branch-and-bound, which needs more than 3 nodes
        # to reach its first leaf
        state = build_state([2, 2], [(700.0, 900.0, 1.0), (300.0, 400.0, 0.5),
                                     (500.0, 600.0, 0.8), (900.0, 700.0, 1.5)], [0, 1, 2, 3])
        weights, params, mig = _setup(state)
        assert S._slots_per_pm(state, C.cost_table(state, weights, params, mig)) is None
        cap = 3 / S.NODES_PER_SECOND
        res = S.solve_exact(state, weights, params, mig, time_cap=cap)
        assert res.proof == "time-capped"
        assert res.nodes_explored == int(cap * S.NODES_PER_SECOND)
        assert validate_placement(res.placement, state) == []
        status_quo, _ = C.objective(state.current, state.current, state, weights, params, mig)
        greedy = S.greedy_incumbent(state, weights, params, mig).objective
        assert res.objective <= min(float(status_quo), greedy) + 1e-9

    @pytest.mark.parametrize("cap", [0.001, 0.01])
    def test_search_deeper_than_the_recursion_limit(self, cap):
        # 1,100 mixed VMs, one search level each, on 10 racks of 4 PMs
        demands = [((100.0, 150.0, 200.0)[v % 3], 200.0, 0.2) for v in range(1100)]
        loads, hosts = [0.0] * 40, []
        for cpu, _, _ in demands:
            p = next(p for p in range(40) if loads[p] + cpu <= 5000.0)
            loads[p] += cpu
            hosts.append(p)
        state = build_state([4] * 10, demands, hosts, cpu_caps=[5000.0] * 40)
        weights, params, mig = _setup(state)
        res = S.solve_exact(state, weights, params, mig, time_cap=cap)
        assert res.proof == "time-capped"
        assert res.nodes_explored == int(cap * S.NODES_PER_SECOND)
        assert validate_placement(res.placement, state) == []
        status_quo, _ = C.objective(state.current, state.current, state, weights, params, mig)
        greedy = S.greedy_incumbent(state, weights, params, mig).objective
        assert res.objective <= min(float(status_quo), greedy) + 1e-9

    def test_spend_each_stops_at_the_budget(self):
        # as one `spend(1)` per unit: the units that fit are spent, then it raises
        meter = S._Meter(5)
        meter.spend_each(3)
        with pytest.raises(S._Budget):
            meter.spend_each(4)
        assert meter.used == 5

    def test_bad_cap_rejected(self):
        state = template_fleet_state([0])
        weights, params, mig = _setup(state)
        for cap in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="time_cap"):
                S.solve_exact(state, weights, params, mig, time_cap=cap)


class TestEmptyPopulation:
    def test_no_vms_solves_to_all_dark(self):
        state = build_state([2, 2], [], [])
        weights, params, mig = _setup(state)
        res = S.solve_exact(state, weights, params, mig, time_cap=1.0)
        assert res.proof == "optimal"
        assert res.placement.hosts().tolist() == []
        assert res.objective == pytest.approx(-1.0)  # every PM dark: full rest credit


class TestGreedy:
    def test_greedy_is_feasible_and_labeled(self):
        state = template_fleet_state([v % 4 for v in range(10)])
        weights, params, mig = _setup(state)
        res = S.greedy_incumbent(state, weights, params, mig)
        assert res.proof == "heuristic"
        loads = res.placement.pm_loads()
        assert (loads * 500.0 <= 2000.0 + 1e-9).all()
        assert res.placement.hosts().shape == (10,)

    def test_first_fit_failing_keeps_the_current_placement(self):
        # first fit puts 400 and 400 together; 400+300+300 twice fits the two PMs
        demands = [(c, 100.0, 0.5) for c in (400.0, 400.0, 300.0, 300.0, 300.0, 300.0)]
        state = build_state([2], demands, [0, 1, 0, 0, 1, 1], cpu_caps=[1000.0, 1000.0])
        weights, params, mig = _setup(state)
        assert S._first_fit_decreasing(state, C.cost_table(state, weights, params, mig)) is None
        res = S.greedy_incumbent(state, weights, params, mig)
        assert (res.placement, res.proof) == (state.current, "heuristic")
        assert res.objective == C.objective(state.current, state.current, state, weights, params, mig)[0]
        assert S.solve_exact(state, weights, params, mig).placement.hosts().tolist() == [0, 1, 0, 0, 1, 1]


class TestFillWithinFitTolerance:
    """Two PMs of 2000 hold four VMs of 1000.0000000004: each PM is 8e-10
    over its capacity, within the fit rule's tolerance, while the fleet's
    total is 1.6e-9 over, past it.  The state validates, so every solver
    path and the MILP take it."""

    def test_every_path_takes_the_state(self):
        state = build_state([2], [(1000.0000000004, 612.0, 0.612)] * 4, [0, 0, 1, 1])
        weights, params, mig = _setup(state)
        value, _ = C.objective(state.current, state.current, state, weights, params, mig)
        for solve in (S.solve_exact, S.solve_bruteforce, S.greedy_incumbent):
            res = solve(state, weights, params, mig)
            assert res.placement == state.current
            assert res.objective == value
        model = milp.build_model(state, weights, params, mig)
        point = milp.assignment_for_placement(model, state, state.current)
        assert milp.check_assignment(model, point) == []

    def test_five_fill_one_pm(self):
        """Five VMs of 600.0000000002 sum to 3000 + 1e-9 on one PM of 3000,
        within the fit rule, so one PM holds them all.  Counting slots from
        a product, or subtracting remainders, kept both PMs on."""
        state = build_state([2], [(600.0000000002, 612.0, 0.612)] * 5, [1, 1, 0, 0, 0],
                            cpu_caps=[3000.0] * 2)
        weights, params, mig = _setup(state)
        ex = S.solve_exact(state, weights, params, mig)
        bf = S.solve_bruteforce(state, weights, params, mig)
        assert ex.proof == "optimal"
        assert ex.placement == bf.placement
        assert ex.placement.hosts().tolist() == [0] * 5
        model = milp.build_model(state, weights, params, mig)
        highs, _ = lp_oracle.solve_lp_text(milp.export_lp(model))
        assert abs(ex.objective - highs) <= 1e-9
        assert abs(bf.objective - highs) <= 1e-9

    @pytest.mark.parametrize("demands, caps, hosts, counters, greedy", [
        # the six sum to 10240 within the tolerance in id order, past it in CPU order
        ([2861.8676189059524, 1405.8990540790496, 1191.2204607357824, 1745.641101198785,
          1766.0807983734421, 1269.2909667079887], 10240.0, [1, 1, 1, 0, 0, 0], [100] * 2, None),
        # past it in id order, within it in CPU order: first fit packs one PM
        ([629.5586944995154, 695.8207589575261, 674.6205465439588], 2000.0, [1, 1, 0], [100] * 2,
         [0, 0, 0]),
        # the four sum to 3000 within the tolerance in id order, past it in CPU order
        ([359.67530118235686, 460.8930129421663, 562.9123902183675, 1616.5192956581093], 3000.0,
         [1, 1, 1, 2], [100, 900, 1400], None),
        ([359.67530118235686, 460.8930129421663, 562.9123902183675, 1616.5192956581093], 3000.0,
         [1, 1, 1, 2], [0] * 3, None),
    ], ids=["fits-in-id-order", "fits-in-cpu-order", "four-spread-counters", "four-new-disks"])
    def test_mixed_fleet_packed_out_of_id_order(self, demands, caps, hosts, counters, greedy):
        """Mixed demands whose sums fall on opposite sides of the limit in id
        and CPU order.  Every path adds loads in the fit order, so each returns
        a placement the rule takes, and the exact path proves brute force's optimum."""
        n_pms = len(counters)
        state = build_state([n_pms], [(d, 100.0, 0.5) for d in demands], hosts,
                            cpu_caps=[caps] * n_pms, cycle_counts=counters)
        weights, params, mig = _setup(state)
        gr, ex, bf = (solve(state, weights, params, mig)
                      for solve in (S.greedy_incumbent, S.solve_exact, S.solve_bruteforce))
        for res in (gr, ex, bf):
            assert validate_placement(res.placement, state) == []
        assert ex.proof == "optimal"
        assert abs(ex.objective - bf.objective) <= 1e-9
        assert ex.placement == bf.placement
        if greedy is not None:
            assert gr.placement.hosts().tolist() == greedy


def _first_fit_every_pm(dc, table):
    """First-fit-decreasing that scans every PM for every VM, full ones too,
    and adds loads as first fit does."""
    cpu, ram = dc.demands("cpu").tolist(), dc.demands("ram").tolist()
    cpu_lim = (dc.capacities("cpu") + FIT_TOL).tolist()
    ram_lim = (dc.capacities("ram") + FIT_TOL).tolist()
    cpu_load, ram_load = [0.0] * dc.n_pms, [0.0] * dc.n_pms
    online = dc.online_now().tolist()
    pm_order = sorted(range(dc.n_pms), key=lambda p: (0 if online[p] else 1, p))
    hosts = [-1] * dc.n_vms
    for v in table.vm_order:
        for p in pm_order:
            if cpu_load[p] + cpu[v] <= cpu_lim[p] and ram_load[p] + ram[v] <= ram_lim[p]:
                hosts[v] = p
                cpu_load[p] += cpu[v]
                ram_load[p] += ram[v]
                break
        else:
            return None
    return np.array(hosts, dtype=int)


class TestFirstFit:
    """`_first_fit_decreasing` drops a PM from its scan once no VM fits it;
    it must pack exactly as a scan over every PM does."""

    @staticmethod
    def _both(state):
        table = C.cost_table(state, *_setup(state))
        ffd, ref = S._first_fit_decreasing(state, table), _first_fit_every_pm(state, table)
        assert (ffd is None) == (ref is None)
        if ffd is not None:
            assert ffd.tolist() == ref.tolist()
        return ffd

    def test_a_pm_too_full_for_the_largest_vm_takes_a_smaller_one(self):
        state = build_state([2], [(600.0, 100.0, 0.1), (600.0, 100.0, 0.1), (300.0, 100.0, 0.1)],
                            [0, 1, 1], cpu_caps=[1000.0, 2000.0])
        assert self._both(state).tolist() == [0, 1, 0]

    def test_ram_minimum_is_over_all_vms(self):
        # CPU order is 0, 1, 2; after VM 0, PM 0 has RAM for VM 1 but not VM 2
        state = build_state([2], [(900.0, 800.0, 0.1), (500.0, 100.0, 0.1), (100.0, 500.0, 0.1)],
                            [0, 1, 1], ram_caps=[1000.0, 1000.0])
        assert self._both(state).tolist() == [0, 0, 1]

    def test_a_packing_that_fails(self):
        # 5+3+2 and 4+3+3 fit two PMs of 10; first fit puts 5 and 4 together
        demands = [(c * 100.0, 100.0, 0.1) for c in (5, 4, 3, 3, 3, 2)]
        state = build_state([2], demands, [0, 1, 1, 1, 0, 0], cpu_caps=[1000.0, 1000.0])
        assert self._both(state) is None

    def test_random_mixed_fleets(self, rng):
        outcomes = set()
        for _ in range(300):
            n_pms, n_vms = int(rng.integers(1, 7)), int(rng.integers(1, 16))
            cpu_caps = rng.choice([1000.0, 2000.0, 3000.0], n_pms).tolist()
            ram_caps = rng.choice([800.0, 1500.0, 4000.0], n_pms).tolist()
            demands = [(float(rng.choice([250.0, 500.0, 1000.0, rng.uniform(50, 900)])),
                        float(rng.choice([306.0, 612.0, 1224.0, rng.uniform(50, 900)])), 0.5)
                       for _ in range(n_vms)]
            hosts = _random_feasible_hosts(rng, demands, cpu_caps, ram_caps)
            if hosts is None:
                continue
            state = build_state([n_pms], demands, hosts, cpu_caps=cpu_caps, ram_caps=ram_caps)
            outcomes.add(self._both(state) is None)
        assert outcomes == {True, False}


class TestBound:
    def test_root_bound_admissible(self, rng):
        for _ in range(10):
            state, weights, params, mig = random_tiny_instance(rng)
            table = C.cost_table(state, weights, params, mig)
            bnb = S._BranchAndBound(state, table)
            root = bnb.node_bound(table.K, table.stake.sum(), 0)
            best = S.solve_bruteforce(state, weights, params, mig).objective
            assert root <= best + 1e-9


def _solve_path(path, state, weights, params, mig):
    """The result of `path` on the instance, or None if the instance takes another path."""
    template = S._slots_per_pm(state, C.cost_table(state, weights, params, mig)) is not None
    free = weights.alpha == 0.0 or mig.kappa == 0.0
    if path in ("template", "free-migration", "cut-template"):
        if not template or (path == "template" and free) or (path == "free-migration" and not free):
            return None
        cap = 1 / S.NODES_PER_SECOND if path == "cut-template" else 10.0
        res = S.solve_exact(state, weights, params, mig, time_cap=cap)
        # a program cut before it spent a unit found nothing: the fallback decides
        return None if path == "cut-template" and res.nodes_explored else res
    if path == "branch-and-bound":
        return None if template else S.solve_exact(state, weights, params, mig, time_cap=10.0)
    if path == "brute-force":
        return S.solve_bruteforce(state, weights, params, mig)
    return S.greedy_incumbent(state, weights, params, mig)


class TestReportedValueIsTheReference:
    """Every solver path prices its result from the cost table's shutdown
    hours and bounds and from flags derived once; the value and every
    component must still be `costs.objective`'s float, compared with `==`,
    and the shutdown cost must be the scalar `pm_shutdown_cost` sum."""

    @pytest.mark.parametrize("path", ["template", "free-migration", "branch-and-bound",
                                      "brute-force", "greedy", "cut-template"])
    def test_every_path_reports_costs_objective(self, path):
        rng = np.random.default_rng(29)
        draws = {"branch-and-bound": [random_tiny_instance],
                 "brute-force": [random_template_instance, random_tiny_instance],
                 "greedy": [random_template_instance, random_tiny_instance]}
        draws = draws.get(path, [random_template_instance])
        checked = 0
        while checked < 25:
            state, weights, params, mig = draws[checked % len(draws)](rng)
            res = _solve_path(path, state, weights, params, mig)
            if res is None:
                continue
            if path == "cut-template":
                assert res.proof == "time-capped"
            value, bd = C.objective(state.current, res.placement, state, weights, params, mig)
            assert res.objective == value
            for field in dataclasses.fields(bd):
                assert getattr(res.breakdown, field.name) == getattr(bd, field.name), field.name
            flags = derive_transition_flags(state.current, res.placement, state)
            for name in ("f00", "f10", "x", "y"):
                assert getattr(res.flags, name).tolist() == getattr(flags, name).tolist(), name
            thetas = all_utilizations(state.current, state)
            c_rel = weights.omega * sum(C.pm_shutdown_cost(pm, float(thetas[pm.id]), params)
                                        for pm in state.pms if flags.f10[pm.id])
            assert bd.c_rel == c_rel
            checked += 1

    @pytest.mark.parametrize("solver", ["exact", "greedy"])
    @pytest.mark.parametrize("fleet", ["tiered", "spread"])
    def test_fleet_steps_report_costs_objective(self, fleet, solver):
        scenario = dataclasses.replace(FLEETS[fleet], solver=solver, time_cap=1.0)
        for seed in range(3):
            state = sim.build_datacenter(scenario, seed)
            mig = sim.migration_model(scenario, state)
            nxt, report = sim.step(state, scenario)
            value, bd = C.objective(state.current, nxt.current, state, scenario.weights,
                                    scenario.reliability, mig)
            assert (report.objective, report.c_ene, report.c_rel, report.g_rel) == (
                value, bd.c_ene, bd.c_rel, bd.g_rel)


class TestSearchPins:
    """Work units, proof and placement of three template-fleet solves, fixed so
    that a change to the evaluation or bookkeeping cannot silently change
    the result."""

    @staticmethod
    def _solve(scenario, seed):
        state = sim.build_datacenter(scenario, seed)
        mig = sim.migration_model(scenario, state)
        return S.solve_exact(state, scenario.weights, scenario.reliability, mig, scenario.time_cap)

    def test_weights_table_energy_heavy(self):
        res = self._solve(cli.weights_table_scenario(1.0, 0.2, 1.0, time_cap=0.1), 0)
        assert (res.nodes_explored, res.proof) == (783, "optimal")
        assert res.placement.hosts().tolist() == [
            2, 24, 6, 6, 7, 20, 25, 20, 20, 6, 25, 2, 7, 1, 24, 12, 20, 12, 12, 24, 21,
            21, 21, 12, 1, 21, 29, 28, 25, 29, 30, 30, 28, 14, 25, 2, 7, 6, 1, 2, 7,
            14, 24, 28, 30, 1, 29, 29, 28, 14, 14, 30
        ]

    def test_default_fleet_64(self):
        scenario = sim.Scenario(n_racks=16, pms_per_rack=4, n_vms=104, time_cap=0.05)
        res = self._solve(scenario, 0)
        assert (res.nodes_explored, res.proof) == (2716, "optimal")
        assert res.placement.hosts().tolist() == [
            0, 0, 62, 61, 4, 44, 52, 0, 63, 60, 44, 60, 44, 31, 44, 1, 59, 0, 62, 45,
            45, 52, 53, 29, 62, 2, 62, 3, 55, 31, 46, 46, 2, 4, 1, 59, 2, 6, 1, 30, 2,
            53, 45, 55, 3, 3, 46, 3, 1, 4, 46, 5, 31, 47, 4, 5, 47, 6, 6, 6, 57, 60, 52,
            53, 45, 7, 30, 53, 61, 57, 7, 5, 7, 55, 56, 28, 55, 5, 63, 56, 59, 28, 56,
            29, 29, 47, 56, 57, 60, 57, 59, 47, 61, 29, 30, 30, 63, 28, 61, 28, 52, 31,
            63, 7
        ]

    def test_three_pods_spread_counters(self):
        scenario = sim.Scenario(n_racks=12, pms_per_rack=4, n_vms=78, n_pods=3, kappa=30.0,
                                cycle_count_spread=60, time_cap=0.05)
        res = self._solve(scenario, 0)
        assert (res.nodes_explored, res.proof) == (1664, "optimal")
        assert res.placement.hosts().tolist() == [
            24, 24, 25, 4, 36, 25, 28, 47, 4, 46, 19, 28, 44, 8, 32, 44, 8, 45, 28, 16,
            30, 19, 25, 36, 36, 32, 11, 24, 16, 24, 32, 5, 5, 41, 44, 29, 47, 37, 41, 4,
            32, 47, 30, 8, 46, 43, 46, 43, 11, 8, 41, 25, 5, 36, 4, 28, 16, 37, 44, 16,
            11, 19, 45, 37, 11, 47, 19, 45, 29, 46, 41, 29, 45, 29, 43, 30, 5, 30
        ]


def _product(a, b, size):
    """The min-plus product of two tables, cut at `size`, pair by pair."""
    out = [float("inf")] * min(len(a) + len(b) - 1, size)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < len(out):
                out[i + j] = min(out[i + j], x + y)
    return out


class TestMinPlus:
    def test_matches_the_minimum_over_all_pairs(self):
        # 1-40 entries a side, so both the loop and the numpy pass (17 and
        # more a side) run, each cut below, at and above its full length
        rng = np.random.default_rng(21)
        for _ in range(300):
            a, b = ([float(x) if rng.random() > 0.2 else float("inf")
                     for x in rng.normal(size=int(rng.integers(1, 41)))] for _ in range(2))
            n = len(a) + len(b) - 1
            for size in (int(rng.integers(1, n)) if n > 1 else 1, n, n + int(rng.integers(1, 4))):
                meter = S._Meter(10**6)
                assert S._minplus(a, b, size, meter) == _product(a, b, size)
                assert meter.used == len(a) * len(b)

    def test_spends_before_it_works(self):
        for la, lb in [(3, 4), (17, 20)]:  # the loop and the numpy pass
            meter = S._Meter(la * lb - 1)
            with pytest.raises(S._Budget):
                S._minplus([0.0] * la, [0.0] * lb, 10, meter)
            assert meter.used == 0


class TestRackProducts:
    """`_pair` writes out the 2 x 2 and 3 x 3 products of a 4-PM rack."""

    def test_match_the_loop(self):
        # equal sums, signed zeros and inf, so a different pick among equals shows
        rng = np.random.default_rng(27)
        values = [0.0, -0.0, 1.0, 2.5, -1.5, math.inf]
        for n in (2, 3):
            for _ in range(300):
                x, y = ([values[i] for i in rng.integers(0, len(values), n)] for _ in range(2))
                for size in range(1, 2 * n + 1):  # cut below, at and above 2n - 1
                    meter, loop = S._Meter(10**6), S._Meter(10**6)
                    cost = S._pair(S._Tree(x), S._Tree(y), size, meter).cost
                    want = S._minplus(x, y, size, loop)
                    assert [float.hex(c) for c in cost] == [float.hex(c) for c in want]
                    assert cost == _product(x, y, size)
                    assert meter.used == loop.used == n * n

    def test_spend_before_they_work(self):
        for n in (2, 3):
            meter = S._Meter(n * n - 1)
            with pytest.raises(S._Budget):
                S._pair(S._Tree([0.0] * n), S._Tree([0.0] * n), 2 * n, meter)
            assert meter.used == 0


class TestLayoutTree:
    """The tables the template program builds, checked node by node."""

    @staticmethod
    def _check(node, size):
        """Every pair node is its kids' product, every level node its kid
        plus its own term; returns the units the pairs cost."""
        if node.pm >= 0:
            return 0
        if len(node.kids) == 2:
            a, b = node.kids
            assert node.own is None
            assert node.cost == _product(a.cost, b.cost, size)
            units = len(a.cost) * len(b.cost)
        else:
            (kid,) = node.kids
            assert len(node.own) == len(kid.cost)
            assert node.cost == [c + t for c, t in zip(kid.cost, node.own)]
            units = 0
        return units + sum(TestLayoutTree._check(kid, size) for kid in node.kids)

    @staticmethod
    def _check_tree(state, weights, params, mig):
        table = C.cost_table(state, weights, params, mig)
        dp = S._TemplateDP(state, table, S._slots_per_pm(state, table))
        meter = S._Meter(10**9)
        root = dp._tree(meter)
        assert len(root.cost) == min(state.n_pms, state.n_vms) + 1
        assert TestLayoutTree._check(root, state.n_vms + 1) == meter.used

    def test_random_template_instances(self):
        for seed in range(300):
            self._check_tree(*random_template_instance(np.random.default_rng(seed)))

    @pytest.mark.parametrize("n_racks", [4, 8, 16])
    def test_default_fleets(self, n_racks):
        scenario = sim.Scenario(n_racks=n_racks, pms_per_rack=4, n_vms=26 * n_racks // 4)
        state = sim.build_datacenter(scenario, 0)
        self._check_tree(state, scenario.weights, scenario.reliability,
                         sim.migration_model(scenario, state))

    @pytest.mark.parametrize("cap, units", [(0.0005, 453), (0.001, 923), (0.002, 1374),
                                            (0.0025, 2494)])
    def test_cut_program_stops_where_it_did(self, cap, units):
        # pins the order the program charges its units in: the min-plus
        # pairs, then the tie pass
        scenario = sim.Scenario(n_racks=16, pms_per_rack=4, n_vms=104)
        state = sim.build_datacenter(scenario, 0)
        mig = sim.migration_model(scenario, state)
        res = S.solve_exact(state, scenario.weights, scenario.reliability, mig, cap)
        assert (res.nodes_explored, res.proof) == (units, "time-capped")
        assert res.objective == 0.18438112160443332

    def test_every_cap_of_a_tie_pass_stops_where_it_did(self):
        # pins the charge order at every unit of a tie pass: the tables cost
        # 687 units and the walk over 9 tied sets 469 more; the digest of
        # (units, proof, placement) at each cap from 688 to 1,156 units
        scenario = cli.alpha_sweep_scenario(8, 52, 1.0)
        state = sim.build_datacenter(scenario, 0)
        mig = sim.migration_model(scenario, state)
        digest = hashlib.sha256()
        for units in range(688, 1157):
            res = S.solve_exact(state, scenario.weights, scenario.reliability, mig,
                                (units + 0.5) / S.NODES_PER_SECOND)
            digest.update(f"{res.nodes_explored} {res.proof} {res.placement.hosts().tolist()}\n"
                          .encode())
        assert res.proof == "optimal"
        assert digest.hexdigest() == (
            "078ef2a66baa5d894efbc7b826d71e0bf17a5cf326a66e0056a55cfa836bc9f9")


def _one_frame_per_node(node, j, budget):
    """A reference walk for `solver._choices`: one generator frame for every
    node, leaves too, and a pair's term of 0.0 added and subtracted."""
    if node.pm >= 0:
        if node.cost[j] <= budget:
            yield ((node.pm,) if j else ()), node.cost[j]
        return
    own = 0.0 if node.own is None else node.own[j]
    if len(node.kids) == 1:
        for pms, cost in _one_frame_per_node(node.kids[0], j, budget - own):
            yield pms, cost + own
        return
    a, b = node.kids
    for ja in range(max(0, j - len(b.cost) + 1), min(j, len(a.cost) - 1) + 1):
        rest = b.cost[j - ja]
        if own + a.cost[ja] + rest > budget:
            continue
        for pa, ca in _one_frame_per_node(a, ja, budget - own - rest):
            for pb, cb in _one_frame_per_node(b, j - ja, budget - own - ca):
                yield pa + pb, own + ca + cb


class TestTieWalk:
    """`_choices` yields the reference walk's (PMs, cost) sequence, float for float."""

    @staticmethod
    def _root(state, weights, params, mig):
        table = C.cost_table(state, weights, params, mig)
        return S._TemplateDP(state, table, S._slots_per_pm(state, table))._tree(S._Meter(10**9))

    @staticmethod
    def _walk(walk, root, j, budget):
        return [(pms, float.hex(cost)) for pms, cost in walk(root, j, budget)]

    def _check(self, root, j, budget):
        got = self._walk(S._choices, root, j, budget)
        assert got == self._walk(_one_frame_per_node, root, j, budget)
        return len(got)

    @given(st.integers(0, 2**32 - 1))
    # at least 150 draws, and the profile's count when it asks for more (the campaign)
    @settings(max_examples=max(150, settings.default.max_examples), deadline=None)
    def test_random_template_instances(self, seed):
        # the tie pass's budgets, each count's own optimum, exact and with the
        # tie margin (a leaf's test then meets its budget), and every set of each count
        root = self._root(*random_template_instance(np.random.default_rng(seed)))
        z = min(root.cost)
        for j, c in enumerate(root.cost):
            for budget in (z + S.TIE_EPS, c, c + S.TIE_EPS, math.inf):
                self._check(root, j, budget)

    @pytest.mark.parametrize("scenario, tied", [
        (sim.Scenario(n_racks=4, pms_per_rack=4, n_vms=26), None),
        (sim.Scenario(n_racks=8, pms_per_rack=4, n_vms=52), None),
        (sim.Scenario(n_racks=16, pms_per_rack=4, n_vms=104), None),
        (cli.alpha_sweep_scenario(8, 52, 1.0), 9),
    ], ids=["default-16", "default-32", "default-64", "alpha-sweep-32x52-a1"])
    def test_fleets(self, scenario, tied):
        state = sim.build_datacenter(scenario, 0)
        root = self._root(state, scenario.weights, scenario.reliability,
                          sim.migration_model(scenario, state))
        limit = min(root.cost) + S.TIE_EPS
        sets = sum(self._check(root, j, limit) for j, c in enumerate(root.cost) if c <= limit)
        assert sets == tied if tied else sets > 0


class TestTemplateProgram:
    """The layout-tree program that solves fleets of one VM and one PM template."""

    @given(st.integers(0, 2**32 - 1))
    # at least 150 draws, and the profile's count when it asks for more (the campaign)
    @settings(max_examples=max(150, settings.default.max_examples), deadline=None)
    def test_matches_brute_force(self, seed):
        state, weights, params, mig = random_template_instance(np.random.default_rng(seed))
        assert S._slots_per_pm(state, C.cost_table(state, weights, params, mig)) is not None
        bf = S.solve_bruteforce(state, weights, params, mig)
        ex = S.solve_exact(state, weights, params, mig, time_cap=10.0)
        assert ex.proof == "optimal"
        assert ex.objective == pytest.approx(bf.objective, abs=1e-9)
        assert ex.placement == bf.placement  # the same lexicographic tie-break

    @pytest.mark.parametrize("n_racks, n_vms, alpha, kappa, seed", [
        (2, 13, 1.0, 10.0, 0), (3, 20, 0.5, 30.0, 1), (4, 25, 0.0, 10.0, 2), (4, 24, 1.0, 0.0, 3),
    ])
    def test_matches_highs(self, n_racks, n_vms, alpha, kappa, seed):
        scenario = sim.Scenario(n_racks=n_racks, pms_per_rack=4, n_vms=n_vms, kappa=kappa,
                                cycle_count_spread=60,
                                weights=C.CostWeights(alpha=alpha, beta=1.0, gamma=1.0))
        state = sim.build_datacenter(scenario, seed)
        mig = sim.migration_model(scenario, state)
        res = S.solve_exact(state, scenario.weights, scenario.reliability, mig, time_cap=2.0)
        assert res.proof == "optimal"
        model = milp.build_model(state, scenario.weights, scenario.reliability, mig)
        highs, _ = lp_oracle.solve_lp_text(milp.export_lp(model))
        assert res.objective == pytest.approx(highs, abs=1e-6)

    @pytest.mark.parametrize("n_racks, n_pods, alpha, seed", [
        (6, 1, 1.0, 0), (7, 2, 0.5, 0), (8, 3, 1.0, 1), (9, 4, 0.5, 1),
        (10, 2, 1.0, 1), (12, 4, 0.5, 0), (14, 3, 1.0, 0), (14, 4, 0.5, 1),
    ])
    def test_tie_pass_moves_only_the_excess(self, n_racks, n_pods, alpha, seed):
        # beyond brute-force size: the VMs of PMs kept on stay, and the
        # migration is the tree-transport excess of the open set returned
        scenario = sim.Scenario(n_racks=n_racks, pms_per_rack=4, n_vms=13 * n_racks // 2,
                                n_pods=n_pods, kappa=30.0, cycle_count_spread=60,
                                weights=C.CostWeights(alpha=alpha, beta=1.0, gamma=1.0))
        state = sim.build_datacenter(scenario, seed)
        mig = sim.migration_model(scenario, state)
        k = S._slots_per_pm(state, C.cost_table(state, scenario.weights, scenario.reliability, mig))
        res = S.solve_exact(state, scenario.weights, scenario.reliability, mig, time_cap=2.0)
        assert res.proof == "optimal"
        prev, hosts = state.current.hosts(), res.placement.hosts()
        kept = res.placement.pm_loads() > 0
        assert (hosts[kept[prev]] == prev[kept[prev]]).all()
        rack = np.asarray(mig.rack_of)
        excess = 0
        for node in (np.arange(state.n_pms), rack, np.asarray(mig.pod_of_rack)[rack]):
            n = np.bincount(node[prev], minlength=node.max() + 1)
            j = np.bincount(node[kept], minlength=node.max() + 1)
            excess += np.maximum(0, n - k * j).sum()
        want = scenario.kappa * scenario.vm.mem_gb * excess
        assert res.breakdown.mig_energy_wh == pytest.approx(want)

    def test_free_migration_fleet_packs_to_the_floor(self):
        # free migration and equal machines: a huge family of tied open sets,
        # resolved without walking it
        scenario = sim.Scenario(n_racks=32, pms_per_rack=4, n_vms=208, kappa=0.0, time_cap=0.1,
                                weights=C.CostWeights(alpha=1.0, beta=0.0, gamma=0.0))
        state = sim.build_datacenter(scenario, 0)
        _, report = sim.step(state, scenario)
        assert report.proof == "optimal"
        assert (report.active_pms, report.active_racks) == (C.packing_floor(state), 13)

    def test_cut_program_returns_better_of_status_quo_and_greedy(self):
        state = template_fleet_state([v % 8 for v in range(13)], n_racks=2, pms_per_rack=4)
        weights, params, mig = _setup(state)
        res = S.solve_exact(state, weights, params, mig, time_cap=1 / S.NODES_PER_SECOND)
        assert (res.nodes_explored, res.proof) == (0, "time-capped")
        table = C.cost_table(state, weights, params, mig)
        greedy = S.greedy_incumbent(state, weights, params, mig).placement.hosts()
        want = min(table.value(state.current.hosts()), table.value(greedy))
        assert table.value(res.placement.hosts()) == want

    def test_cut_tie_pass_returns_an_optimum(self):
        # two equal machines with one VM each: either one is optimal to keep
        state = template_fleet_state([0, 1], n_racks=1, pms_per_rack=2)
        weights, params, mig = _setup(state, weights=C.CostWeights(alpha=1.0, beta=0.0, gamma=0.0))
        full = S.solve_exact(state, weights, params, mig, time_cap=1.0)
        assert full.proof == "optimal"
        cap = (full.nodes_explored - 1) / S.NODES_PER_SECOND
        cut = S.solve_exact(state, weights, params, mig, time_cap=cap)
        assert cut.proof == "time-capped"
        assert cut.nodes_explored < full.nodes_explored
        assert cut.objective == pytest.approx(full.objective, abs=1e-12)
        assert tuple(cut.placement.hosts()) > tuple(full.placement.hosts())

    def test_other_instances_take_the_search(self, rng):
        for _ in range(10):
            state, weights, params, mig = random_tiny_instance(rng)
            if state.n_pms > 1 and state.n_vms > 1:
                assert S._slots_per_pm(state, C.cost_table(state, weights, params, mig)) is None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_incumbents_carry_their_objective(seed):
    """Every incumbent the B&B records, seeded or found at a leaf, is valued
    at the cost table's `value` of its placement.  Every offered placement is
    valid, none is seeded twice before the search starts, and a leaf is
    offered only when it replaces the incumbent.  Draws of one VM and one PM
    template go to the layout-tree program instead and are skipped."""
    state, weights, params, mig = random_tiny_instance(np.random.default_rng(seed))
    assume(S._slots_per_pm(state, C.cost_table(state, weights, params, mig)) is None)
    gaps, seeded = [], []
    seed_fn = S._BranchAndBound.seed

    def recording_seed(bnb, hosts, obj):
        assert validate_placement(Placement.from_hosts(hosts, state.n_pms), state) == []
        if bnb.meter.used == 0:
            seeded.append(tuple(hosts))
        before = bnb.best_hosts
        seed_fn(bnb, hosts, obj)
        gaps.append(abs(bnb.best - bnb.table.value(bnb.best_hosts)))
        if bnb.meter.used > 0:
            assert not np.array_equal(bnb.best_hosts, before)

    S._BranchAndBound.seed = recording_seed
    try:
        S.solve_exact(state, weights, params, mig, time_cap=10.0)
    finally:
        S._BranchAndBound.seed = seed_fn
    assert gaps and max(gaps) <= 1e-9
    assert seeded and len(set(seeded)) == len(seeded)


def _boundary_instance(rng: np.random.Generator):
    """2-3 PMs and 3-6 VMs of CPU demand uniform on 50-1200, whose CPU limit
    falls between one subset's sums in id order and in the fit order, from a
    current placement with slack.  Returns (state, weights, params, mig)."""
    while True:
        n_pms, n_vms = int(rng.integers(2, 4)), int(rng.integers(3, 7))
        cpu = rng.uniform(50, 1200, n_vms).tolist()
        subset = sorted(rng.choice(n_vms, int(rng.integers(3, n_vms + 1)), replace=False).tolist())
        lo, hi = sorted((sum(cpu[v] for v in subset),
                         sum(cpu[v] for v in sorted(subset, key=lambda v: (-cpu[v], v)))))
        cap = lo - FIT_TOL
        if not lo <= cap + FIT_TOL < hi:
            continue
        loads, hosts = [0.0] * n_pms, []
        for d in cpu:
            room = [p for p in range(n_pms) if loads[p] + d <= cap * (1 - 1e-6)]
            if not room:
                break
            p = int(rng.choice(room))
            loads[p] += d
            hosts.append(p)
        if len(hosts) == n_vms:
            break
    layout = [[n_pms], [1, n_pms - 1]][int(rng.integers(2))]
    state = build_state(layout, [(d, 100.0, 0.5) for d in cpu], hosts, cpu_caps=[cap] * n_pms,
                        cycle_counts=rng.integers(0, 1501, n_pms).tolist())
    weights = C.CostWeights(*rng.uniform(0, 1, 3).tolist())
    return state, *_setup(state, kappa=float(rng.choice([0.0, 10.0, 150.0])), weights=weights)


@given(st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_exact_agrees_with_bruteforce_at_the_fit_limit(seed):
    """Where a subset fits in one summation order and not in the other, the
    exact path proves brute force's optimum, and every placement fits.  The
    `campaign` profile runs 10,000 draws."""
    state, weights, params, mig = _boundary_instance(np.random.default_rng(seed))
    ex = S.solve_exact(state, weights, params, mig)
    bf = S.solve_bruteforce(state, weights, params, mig)
    assert ex.proof == "optimal"
    assert abs(ex.objective - bf.objective) <= 1e-9
    assert ex.placement == bf.placement
    for res in (ex, S.greedy_incumbent(state, weights, params, mig)):
        assert validate_placement(res.placement, state) == []
