"""Simulation harness tests: seeding, stepping, counters, tiers."""
import collections
import dataclasses
import sys

import numpy as np
import pytest

from relpack import costs as C
from relpack import domain as D
from relpack import sim
from relpack import solver as S

from conftest import build_state


def small_scenario(**kw):
    defaults = dict(n_racks=2, pms_per_rack=2, n_vms=5, time_cap=5.0)
    defaults.update(kw)
    return sim.Scenario(**defaults)


class TestBuild:
    def test_same_seed_same_state(self):
        sc = small_scenario()
        a = sim.build_datacenter(sc, seed=7)
        b = sim.build_datacenter(sc, seed=7)
        assert a.current == b.current
        assert [p.cycle_count for p in a.pms] == [p.cycle_count for p in b.pms]

    def test_different_seeds_differ(self):
        sc = small_scenario(n_vms=12)
        a = sim.build_datacenter(sc, seed=1)
        b = sim.build_datacenter(sc, seed=2)
        assert a.current != b.current

    def test_initial_placement_feasible(self):
        sc = small_scenario(n_vms=16)  # exactly full: 4 PMs x 4 VMs
        state = sim.build_datacenter(sc, seed=3)
        loads = state.current.pm_loads()
        assert loads.sum() == 16
        assert (loads * 500.0 <= 2000.0 + 1e-9).all()

    def test_impossible_population_raises(self):
        sc = small_scenario(n_vms=17)
        with pytest.raises(C.InfeasibleError):
            sim.build_datacenter(sc, seed=0)

        class CountingRng:
            """A generator that counts the VM orders it draws."""

            def __init__(self):
                self.rng, self.orders = np.random.default_rng(0), 0

            def permutation(self, n):
                self.orders += 1
                return self.rng.permutation(n)

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

        rng = CountingRng()
        with pytest.raises(C.InfeasibleError):
            sim.random_initial_placement(sc, rng)
        assert rng.orders == 1  # every VM is alike, so the first draw decides

    def test_cycle_spread(self):
        sc = small_scenario(cycle_count_base=100, cycle_count_spread=30)
        state = sim.build_datacenter(sc, seed=5)
        counts = [p.cycle_count for p in state.pms]
        assert all(70 <= c <= 130 for c in counts)

    def test_cycle_tiers_follow_load(self):
        sc = small_scenario(n_vms=9, cycle_count_tiers=((1, 100), (1, 140), (2, 600)))
        state = sim.build_datacenter(sc, seed=11)
        loads = state.current.pm_loads()
        counts = np.array([p.cycle_count for p in state.pms])
        order = np.lexsort((np.arange(4), -loads))
        assert counts[order].tolist() == [100, 140, 600, 600]

    def test_tier_counts_validated(self):
        with pytest.raises(ValueError):
            small_scenario(cycle_count_tiers=((1, 100),))

    def test_solver_kind_validated(self):
        with pytest.raises(ValueError):
            small_scenario(solver="annealing")


class TestStep:
    def test_step_reports_consistent(self):
        sc = small_scenario()
        state = sim.build_datacenter(sc, seed=0)
        nxt, rep = sim.step(state, sc)
        assert rep.slot == 0
        assert nxt.slot_index == 1
        assert rep.active_pms == int((nxt.current.pm_loads() > 0).sum())
        moved = int((state.current.hosts() != nxt.current.hosts()).sum())
        assert rep.n_migrations == moved

    def test_counters_advance_only_on_shutdown(self):
        sc = small_scenario()
        state = sim.build_datacenter(sc, seed=0)
        nxt, _ = sim.step(state, sc)
        was_on = state.current.pm_loads() > 0
        is_on = nxt.current.pm_loads() > 0
        for pm0, pm1, on0, on1 in zip(state.pms, nxt.pms, was_on, is_on):
            expected = pm0.cycle_count + (1 if on0 and not on1 else 0)
            assert pm1.cycle_count == expected

    def test_run_is_pure_fold(self):
        sc = small_scenario(n_slots=3)
        reports = sim.run(sc, seed=4)
        state = sim.build_datacenter(sc, seed=4)
        replayed = []
        for _ in range(3):
            state, rep = sim.step(state, sc)
            replayed.append(rep)
        assert replayed == reports

    def test_greedy_solver_path(self):
        sc = small_scenario(solver="greedy")
        reports = sim.run(sc, seed=0)
        assert reports[0].proof == "heuristic"

    def test_run_deterministic(self):
        sc = small_scenario(n_slots=2)
        assert sim.run(sc, seed=9) == sim.run(sc, seed=9)


class TestStepKeepsNoCache:
    @pytest.mark.parametrize("solver", ["exact", "greedy"])
    def test_step_leaves_its_input_as_it_was(self, solver):
        """A step derives what it needs from the state and drops it: no memo
        on the state or its PMs, which a repeated step would find filled."""
        sc = small_scenario(cycle_count_spread=40, solver=solver)
        state = sim.build_datacenter(sc, seed=2)
        before = dict(vars(state)), [dict(vars(pm)) for pm in state.pms]
        first = sim.step(state, sc)
        second = sim.step(state, sc)
        after = dict(vars(state)), [dict(vars(pm)) for pm in state.pms]
        for was, now in zip([before[0], *before[1]], [after[0], *after[1]]):
            assert now.keys() == was.keys()
            assert all(now[k] is was[k] for k in was)
        assert first[1] == second[1]
        assert first[0].current == second[0].current
        assert first[0].pms == second[0].pms


COUNTED = {C: ("shutdown_hours", "reliability_bounds", "energy_upper_bound"),
           D: ("derive_transition_flags", "validate_placement")}


def _count_calls(monkeypatch) -> collections.Counter:
    """Count calls of the COUNTED functions, under every relpack module name
    bound to each, and of `CostTable.move_wh`, which builds migration energies."""
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name == "relpack" or name.startswith("relpack.")]

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for home, names in COUNTED.items():
        for name in names:
            original = getattr(home, name)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting(name, original))
    monkeypatch.setattr(C.CostTable, "move_wh", counting("move_wh", C.CostTable.move_wh))
    return calls


class TestStepDerivesEachQuantityOnce:
    @pytest.mark.parametrize("solver", ["exact", "greedy"])
    def test_step_prices_its_decision_once(self, monkeypatch, solver):
        """One step derives the shutdown hours, bounds and flags once, checks
        the new placement at most twice (when it prices it and when it makes
        it current), and the template program builds no migration table."""
        sc = small_scenario(cycle_count_spread=40, solver=solver)
        state = sim.build_datacenter(sc, seed=2)
        calls = _count_calls(monkeypatch)
        _, report = sim.step(state, sc)
        assert report.proof == ("optimal" if solver == "exact" else "heuristic")
        for name in ("shutdown_hours", "reliability_bounds", "energy_upper_bound",
                     "derive_transition_flags"):
            assert calls[name] == 1, name
        assert calls["validate_placement"] <= 2
        assert calls["move_wh"] == 0

    def test_the_search_builds_the_migration_table(self, monkeypatch):
        # mixed VM sizes take the branch-and-bound, which reads every V x P entry
        state = build_state([2, 2], [(700.0, 900.0, 1.0), (300.0, 400.0, 0.5)], [0, 2])
        mig = C.MigrationCostModel.from_layout(state)
        calls = _count_calls(monkeypatch)
        S.solve_exact(state, C.CostWeights(), C.ReliabilityParams(), mig, time_cap=1.0)
        assert calls["move_wh"] >= 1
