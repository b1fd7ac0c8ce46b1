"""Solver tests: brute force vs branch-and-bound, determinism, budgets."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relpack import cli, sim
from relpack import costs as C
from relpack import solver as S
from relpack.domain import Placement, validate_placement

from conftest import build_state, template_fleet_state, random_tiny_instance


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

    def test_random_instances_agree(self, rng):
        for _ in range(25):
            state, weights, params, mig = random_tiny_instance(rng)
            bf = S.solve_bruteforce(state, weights, params, mig)
            ex = S.solve_exact(state, weights, params, mig, time_cap=10.0)
            assert ex.proof == "optimal"
            assert ex.objective == pytest.approx(bf.objective, abs=1e-9)


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
        cap = 0.01  # 200 nodes
        res = S.solve_exact(state, weights, params, mig, time_cap=cap)
        assert res.nodes_explored <= int(cap * S.NODES_PER_SECOND) + 1
        assert res.proof == "time-capped"
        assert not res.placement.hosts().tolist() == []  # still returns an incumbent

    def test_incumbent_no_worse_than_greedy(self):
        state = template_fleet_state([v % 8 for v in range(13)], n_racks=2, pms_per_rack=4)
        weights, params, mig = _setup(state)
        capped = S.solve_exact(state, weights, params, mig, time_cap=0.01)
        greedy = S.greedy_incumbent(state, weights, params, mig)
        assert capped.objective <= greedy.objective + 1e-9

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


class TestBound:
    def test_root_bound_admissible(self, rng):
        for _ in range(10):
            state, weights, params, mig = random_tiny_instance(rng)
            ev = S._FastEval(state, weights, params, mig)
            bnb = S._BranchAndBound(state, ev, node_budget=10**9)
            root = bnb.node_bound(ev.K, ev.shut_total, 0)
            best = S.solve_bruteforce(state, weights, params, mig).objective
            assert root <= best + 1e-9


class TestFastEval:
    def test_matches_costs_objective(self, rng):
        for _ in range(20):
            state, weights, params, mig = random_tiny_instance(rng)
            ev = S._FastEval(state, weights, params, mig)
            greedy = S.greedy_incumbent(state, weights, params, mig).placement.hosts()
            for hosts in (state.current.hosts(), greedy):
                fast = ev.objective(hosts)
                exact, _ = C.objective(
                    state.current, Placement.from_hosts(hosts, state.n_pms),
                    state, weights, params, mig,
                )
                assert fast == pytest.approx(exact, rel=1e-9, abs=1e-12)


class TestSearchPins:
    """Node counts, proof and placement of two capped solves, fixed so that a
    change to the evaluation or bookkeeping cannot silently change the search."""

    @staticmethod
    def _solve(scenario, seed):
        state = sim.build_datacenter(scenario, seed)
        mig = sim.migration_model(scenario, state)
        return S.solve_exact(state, scenario.weights, scenario.reliability, mig, scenario.time_cap)

    def test_weights_table_energy_heavy(self):
        res = self._solve(cli.weights_table_scenario(1.0, 0.2, 1.0, time_cap=0.1), 0)
        assert (res.nodes_explored, res.proof) == (2001, "time-capped")
        assert res.placement.hosts().tolist() == [
            2, 25, 2, 6, 6, 20, 25, 20, 21, 6, 24, 2, 7, 1, 24, 14, 21, 12, 12, 24, 29,
            21, 20, 12, 1, 21, 29, 28, 25, 29, 30, 30, 28, 14, 25, 2, 7, 6, 1, 7, 7,
            12, 24, 28, 30, 1, 29, 30, 28, 14, 14, 20
        ]

    def test_default_fleet_64(self):
        scenario = sim.Scenario(n_racks=16, pms_per_rack=4, n_vms=104, time_cap=0.05)
        res = self._solve(scenario, 0)
        assert (res.nodes_explored, res.proof) == (1001, "time-capped")
        assert res.placement.hosts().tolist() == [
            11, 11, 62, 61, 4, 44, 52, 9, 63, 60, 44, 60, 44, 31, 44, 8, 59, 24, 62,
            45, 45, 52, 53, 30, 62, 26, 62, 24, 55, 31, 46, 46, 4, 4, 4, 59, 27, 6, 28,
            30, 9, 53, 45, 55, 30, 8, 46, 31, 63, 27, 45, 6, 31, 46, 6, 26, 47, 24, 11,
            6, 57, 60, 47, 47, 47, 7, 30, 52, 61, 57, 7, 7, 7, 52, 56, 26, 53, 8, 63,
            53, 59, 11, 56, 26, 8, 57, 57, 63, 60, 55, 59, 55, 61, 9, 9, 24, 56, 28,
            61, 28, 56, 27, 27, 28
        ]


class TestCandidates:
    @staticmethod
    def _check(state, weights, params, mig):
        ev = S._FastEval(state, weights, params, mig)
        cands = [tuple(h) for h in S._candidate_placements(state, ev)]
        assert cands[0] == tuple(state.current.hosts())
        assert len(set(cands)) == len(cands)

    def test_status_quo_first_and_distinct(self, rng):
        for _ in range(20):
            self._check(*random_tiny_instance(rng))
        scenario = sim.Scenario(n_racks=16, pms_per_rack=4, n_vms=104)
        state = sim.build_datacenter(scenario, 0)
        self._check(state, scenario.weights, scenario.reliability,
                    sim.migration_model(scenario, state))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_incumbents_carry_their_objective(seed):
    """Every incumbent the B&B records, seeded or found at a leaf, is valued
    at `_FastEval.objective` of its placement.  Every offered placement is
    valid, none is seeded twice before the search starts, and a leaf is
    offered only when it replaces the incumbent."""
    state, weights, params, mig = random_tiny_instance(np.random.default_rng(seed))
    gaps, seeded = [], []
    seed_fn = S._BranchAndBound.seed

    def recording_seed(bnb, hosts, obj):
        assert validate_placement(Placement.from_hosts(hosts, state.n_pms), state) == []
        if bnb.nodes == 0:
            seeded.append(tuple(hosts))
        before = bnb.best_hosts
        seed_fn(bnb, hosts, obj)
        gaps.append(abs(bnb.best - bnb.ev.objective(bnb.best_hosts)))
        if bnb.nodes > 0:
            assert not np.array_equal(bnb.best_hosts, before)

    S._BranchAndBound.seed = recording_seed
    try:
        S.solve_exact(state, weights, params, mig, time_cap=10.0)
    finally:
        S._BranchAndBound.seed = seed_fn
    assert gaps and max(gaps) <= 1e-9
    assert seeded and len(set(seeded)) == len(seeded)
