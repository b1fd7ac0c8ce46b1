"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints a PASS line with the measured quantities so a log skim
shows what was actually verified.
"""
import itertools
import math

import numpy as np
import pytest

from relpack import cli
from relpack import costs as C
from relpack import milp, sim
from relpack import solver as S
from relpack.domain import Placement, derive_transition_flags

import lp_oracle
from conftest import template_fleet_state, random_tiny_instance


def test_01_oracle_equivalence():
    """Branch-and-bound, brute force, and an external MILP solver agree.

    200 random heterogeneous instances (|P| <= 4, |V| <= 5, |R| <= 2) with
    random weights; optimal objectives must match within 1e-6 absolute.
    """
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(200):
        state, weights, params, mig = random_tiny_instance(rng)
        bf = S.solve_bruteforce(state, weights, params, mig)
        ex = S.solve_exact(state, weights, params, mig, time_cap=30.0)
        assert ex.proof == "optimal", f"instance {i} hit the cap"
        model = milp.build_model(state, weights, params, mig)
        external, _ = lp_oracle.solve_lp_text(milp.export_lp(model))
        spread = max(bf.objective, ex.objective, external) - min(
            bf.objective, ex.objective, external
        )
        worst = max(worst, spread)
        assert spread <= 1e-6, (
            f"instance {i}: brute={bf.objective!r} exact={ex.objective!r} "
            f"external={external!r}"
        )
    print(f"\nACCEPTANCE 1 PASS: 200 instances, worst three-way spread {worst:.3e}")


def test_02_linearization_identity():
    """The linear objective equals the exact cost at every integer point.

    50 tiny models, exhaustively enumerated feasible assignments; relative
    tolerance 1e-9.
    """
    rng = np.random.default_rng(7)
    models = 0
    points = 0
    while models < 50:
        state, weights, params, mig = random_tiny_instance(rng)
        model = milp.build_model(state, weights, params, mig)
        cpu, ram = state.demands("cpu"), state.demands("ram")
        cpu_cap, ram_cap = state.capacities("cpu"), state.capacities("ram")
        for hosts in itertools.product(range(state.n_pms), repeat=state.n_vms):
            used_c = np.bincount(hosts, weights=cpu, minlength=state.n_pms)
            used_r = np.bincount(hosts, weights=ram, minlength=state.n_pms)
            if (used_c > cpu_cap + 1e-9).any() or (used_r > ram_cap + 1e-9).any():
                continue
            placement = Placement.from_hosts(list(hosts), state.n_pms)
            values = milp.assignment_for_placement(model, state, placement)
            assert milp.check_assignment(model, values) == []
            lin = milp.objective_value(model, values)
            exact, _ = C.objective(state.current, placement, state, weights, params, mig)
            assert lin == pytest.approx(exact, rel=1e-9, abs=1e-12)
            points += 1
        models += 1
    print(f"\nACCEPTANCE 2 PASS: {models} models, {points} integer-feasible points")


def test_03_normalization_bounds():
    """Every random feasible transition respects the normalization bounds.

    >= 1000 placements across >= 20 homogeneous-template instances (the
    bounds' setting); zero violations allowed.
    """
    rng = np.random.default_rng(99)
    checked = 0
    instances = 0
    while instances < 20 or checked < 1000:
        n_racks = int(rng.integers(1, 4))
        pms_per_rack = int(rng.integers(2, 5))
        n_pms = n_racks * pms_per_rack
        n_vms = int(rng.integers(1, 4 * n_pms + 1))
        sc = sim.Scenario(
            n_racks=n_racks, pms_per_rack=pms_per_rack, n_vms=n_vms,
            kappa=float(rng.uniform(0, 200)),
            cycle_count_base=int(rng.integers(0, 1500)),
            cycle_count_spread=int(rng.integers(0, 90)),
        )
        state = sim.build_datacenter(sc, seed=int(rng.integers(1 << 30)))
        weights = C.CostWeights(
            alpha=float(rng.uniform(0, 1)), beta=float(rng.uniform(0, 1)),
            gamma=float(rng.uniform(0, 1)),
        )
        params = sc.reliability
        mig = sim.migration_model(sc, state)
        ene_ub = C.energy_upper_bound(state, weights, mig)
        rel_ub, gain_ub = C.reliability_bounds(state, weights, params)
        instances += 1
        for _ in range(60):
            hosts = rng.integers(0, n_pms, size=n_vms)
            loads = np.bincount(hosts, minlength=n_pms)
            if (loads * sc.vm.cpu_demand > sc.pm.cpu_capacity + 1e-9).any():
                continue
            nxt = Placement.from_hosts(hosts.tolist(), n_pms)
            _, bd = C.objective(state.current, nxt, state, weights, params, mig)
            assert bd.c_ene <= ene_ub + 1e-9, "energy bound violated"
            assert bd.c_rel <= rel_ub + 1e-9, "reliability cost bound violated"
            assert bd.g_rel <= gain_ub + 1e-9, "reliability gain bound violated"
            checked += 1
    print(f"\nACCEPTANCE 3 PASS: {checked} placements on {instances} instances, 0 violations")


def test_04_bin_packing_floor():
    """52 standard VMs on 32 standard PMs need exactly 13 machines.

    The alpha-dominant solve must stay at >= 13 active machines, and reach
    13 when migration is free (exactly, if proven optimal).
    """
    sc = sim.Scenario(
        n_racks=8, pms_per_rack=4, n_vms=52, kappa=0.0,
        weights=C.CostWeights(alpha=1.0, beta=0.0, gamma=0.0), time_cap=2.0,
    )
    state = sim.build_datacenter(sc, seed=0)
    floor = C.packing_floor(state)
    assert floor == 13
    _, rep = sim.step(state, sc)
    assert rep.active_pms >= 13
    if rep.proof == "optimal":
        assert rep.active_pms == 13
    assert rep.active_pms == 13  # observed: the seeded incumbents reach the floor
    print(f"\nACCEPTANCE 4 PASS: floor=13, alpha-dominant active PMs={rep.active_pms} "
          f"({rep.proof})")


def _weights_table_means(n_seeds=10, time_cap=2.0):
    means = []
    for alpha, beta, gamma in cli.WEIGHT_SETTINGS:
        sc = cli.weights_table_scenario(alpha, beta, gamma, time_cap)
        reps = [sim.run(sc, seed=s)[0] for s in range(n_seeds)]
        n = len(reps)
        means.append({
            "racks": sum(r.active_racks for r in reps) / n,
            "pms": sum(r.active_pms for r in reps) / n,
            "migs": sum(r.n_migrations for r in reps) / n,
            "c_ene": sum(r.c_ene for r in reps) / n,
        })
    return means


def test_05_weighting_directions():
    """Directional reproduction of the weighting study, 10 seeds.

    Low-energy-weight row keeps strictly more racks and machines and moves
    strictly fewer VMs than the low-reliability-cost row; raw energy cost
    orders row1 > row3 > row2. Strict comparisons, no tolerance.
    """
    r1, r2, r3 = _weights_table_means()
    assert r1["racks"] > r2["racks"], (r1, r2)
    assert r1["pms"] > r2["pms"], (r1, r2)
    assert r1["migs"] < r2["migs"], (r1, r2)
    assert r1["c_ene"] > r3["c_ene"] > r2["c_ene"], (r1, r2, r3)
    print(
        "\nACCEPTANCE 5 PASS: "
        f"racks {r1['racks']:.2f}>{r2['racks']:.2f}, "
        f"pms {r1['pms']:.2f}>{r2['pms']:.2f}, "
        f"migs {r1['migs']:.2f}<{r2['migs']:.2f}, "
        f"c_ene {r1['c_ene']:.4f}>{r3['c_ene']:.4f}>{r2['c_ene']:.4f}"
    )


def test_06_alpha_sweep_trends():
    """Energy cost falls and reliability terms rise as alpha grows.

    Both fleet shapes, 5 seeds averaged, 2% per-step non-monotonicity
    tolerance.
    """
    for name, n_racks, n_vms in cli.ALPHA_SWEEP_SHAPES:
        prev = None
        for alpha in cli.ALPHA_GRID:
            sc = cli.alpha_sweep_scenario(n_racks, n_vms, alpha, time_cap=2.0)
            reps = [sim.run(sc, seed=s)[0] for s in range(5)]
            c_ene = sum(r.c_ene for r in reps) / 5
            c_rel = sum(r.c_rel for r in reps) / 5
            g_rel = sum(r.g_rel for r in reps) / 5
            if prev is not None:
                p_ene, p_rel, p_gain = prev
                assert c_ene <= p_ene * 1.02, f"{name}: c_ene rose >2% at alpha={alpha}"
                assert c_rel >= p_rel * 0.98, f"{name}: c_rel fell >2% at alpha={alpha}"
                assert g_rel >= p_gain * 0.98, f"{name}: g_rel fell >2% at alpha={alpha}"
            prev = (c_ene, c_rel, g_rel)
    print("\nACCEPTANCE 6 PASS: both shapes monotone within 2% per step over alpha 0..1")


def test_07_model_size_counts():
    """Closed-form variable/constraint counts, and superlinear growth."""
    sizes = []
    for n_pms in (4, 8, 16, 32):
        n_racks = n_pms // 4
        n_vms = math.ceil(1.625 * n_pms)
        sc = sim.Scenario(n_racks=n_racks, pms_per_rack=4, n_vms=n_vms)
        state = sim.build_datacenter(sc, seed=0)
        mig = sim.migration_model(sc, state)
        model = milp.build_model(state, sc.weights, sc.reliability, mig)
        counts = (len(model.binary_names), len(model.continuous_names), len(model.row_names))
        assert counts == milp.expected_counts(n_vms, n_pms, n_racks)
        sizes.append((n_pms, counts[0], counts[2]))
    for (p0, b0, c0), (p1, b1, c1) in zip(sizes, sizes[1:]):
        ratio = p1 / p0
        assert b1 / b0 > ratio, "binary count must grow superlinearly in |P|"
        assert c1 / c0 > ratio, "constraint count must grow superlinearly in |P|"
    print(f"\nACCEPTANCE 7 PASS: counts exact for |P| in 4..32, growth ratios "
          f"{[round(b1 / b0, 2) for (_, b0, _), (_, b1, _) in zip(sizes, sizes[1:])]}")


def test_08_formula_spot_checks():
    """Pinned constants of the failure-rate and power models."""
    params = C.ReliabilityParams()
    assert C.afr(0, params) == pytest.approx(1.19e-4, rel=1e-12)
    assert C.afr(100, params) == pytest.approx(0.140219, rel=1e-6)
    pm = template_fleet_state([0]).pms[0]
    assert C.pm_power(0.0, pm) == pytest.approx(210.0)
    assert C.pm_power(1.0, pm) == pytest.approx(300.0)
    omega = C.CostWeights().omega
    assert omega == pytest.approx(5000.0 / (3 * 8760), rel=1e-3)
    assert omega == 0.1902
    print("\nACCEPTANCE 8 PASS: afr(0)=1.19e-4, afr(100)=0.140219, "
          "power 210..300 W, omega=0.1902")


def test_09_determinism(tmp_path):
    """Identical seeds produce byte-identical CSV and SVG artifacts."""
    args = [
        "experiment", "--preset", "weights-table",
        "--seeds", "2", "--time-cap", "0.5",
    ]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    for name in ("weights_table.csv", "weights_table.svg"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    sc_path = tmp_path / "s.yaml"
    sc_path.write_text("racks: {count: 2, pms_per_rack: 2}\nvms: {count: 6}\nseed: 3\n")
    solve1, solve2 = tmp_path / "s1", tmp_path / "s2"
    cli.main(["solve", "--scenario", str(sc_path), "--out", str(solve1)])
    cli.main(["solve", "--scenario", str(sc_path), "--out", str(solve2)])
    assert (solve1 / "report.csv").read_bytes() == (solve2 / "report.csv").read_bytes()
    print("\nACCEPTANCE 9 PASS: CSV and SVG artifacts byte-identical across reruns")
