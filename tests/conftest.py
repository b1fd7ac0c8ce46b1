"""Shared builders for unit and acceptance tests."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from relpack import costs as C
from relpack import sim
from relpack.domain import DatacenterState, Placement, PmSpec, RackSpec, VmSpec

# `pytest --hypothesis-profile=campaign` runs the long draws that CI runs
settings.register_profile("campaign", max_examples=10_000, deadline=None)


def build_state(
    rack_layout: list[int],
    vm_demands: list[tuple[float, float, float]],
    hosts: list[int],
    *,
    cpu_caps=None,
    ram_caps=None,
    cycle_counts=None,
    p_max=300.0,
    k_idle=0.7,
    tor_power=366.0,
    cooling_power=950.0,
) -> DatacenterState:
    """Small-instance builder.  rack_layout gives PMs per rack."""
    n_pms = sum(rack_layout)
    cpu_caps = cpu_caps or [2000.0] * n_pms
    ram_caps = ram_caps or [10240.0] * n_pms
    cycle_counts = cycle_counts if cycle_counts is not None else [100] * n_pms
    racks = []
    pms = []
    pid = 0
    for r, size in enumerate(rack_layout):
        ids = tuple(range(pid, pid + size))
        racks.append(RackSpec(r, ids, tor_power, cooling_power))
        for p in ids:
            pms.append(
                PmSpec(
                    id=p,
                    rack_id=r,
                    cpu_capacity=cpu_caps[p],
                    ram_capacity=ram_caps[p],
                    bw_capacity=1000.0,
                    p_max=p_max,
                    k_idle=k_idle,
                    cycle_count=cycle_counts[p],
                )
            )
        pid += size
    vms = [
        VmSpec(v, cpu, ram, mem) for v, (cpu, ram, mem) in enumerate(vm_demands)
    ]
    placement = Placement.from_hosts(hosts, n_pms)
    return DatacenterState(tuple(racks), tuple(pms), tuple(vms), placement)


# scenario fleets with tiered and with spread disk counters
FLEETS = {
    "tiered": sim.Scenario(cycle_count_tiers=((8, 10), (8, 300), (16, 1200))),
    "spread": sim.Scenario(n_racks=6, pms_per_rack=3, n_vms=30, cycle_count_base=500,
                           cycle_count_spread=400),
}


def template_fleet_state(hosts: list[int], n_racks=2, pms_per_rack=2) -> DatacenterState:
    """Homogeneous fleet built from the standard machine template."""
    return build_state(
        [pms_per_rack] * n_racks,
        [(500.0, 612.0, 0.612)] * len(hosts),
        hosts,
    )


def random_tiny_instance(rng: np.random.Generator):
    """Random heterogeneous instance small enough for brute force.

    Returns (state, weights, params, migration model).
    """
    while True:
        n_racks = int(rng.integers(1, 3))
        pms_per_rack = int(rng.integers(1, 3))
        n_pms = n_racks * pms_per_rack
        n_vms = int(rng.integers(1, 6))
        cpu_caps = rng.uniform(800, 3000, n_pms).round(0).tolist()
        ram_caps = rng.uniform(1500, 8000, n_pms).round(0).tolist()
        cycle_counts = rng.integers(0, 1500, n_pms).tolist()
        vm_demands = [
            (
                round(float(rng.uniform(100, 900)), 0),
                round(float(rng.uniform(200, 1500)), 0),
                round(float(rng.uniform(0.2, 2.0)), 3),
            )
            for _ in range(n_vms)
        ]
        hosts = _random_feasible_hosts(rng, vm_demands, cpu_caps, ram_caps)
        if hosts is None:
            continue
        state = build_state(
            [pms_per_rack] * n_racks,
            vm_demands,
            hosts,
            cpu_caps=cpu_caps,
            ram_caps=ram_caps,
            cycle_counts=cycle_counts,
            p_max=round(float(rng.uniform(200, 400)), 0),
            k_idle=round(float(rng.uniform(0.5, 0.9)), 2),
        )
        weights = C.CostWeights(
            alpha=round(float(rng.uniform(0, 1)), 3),
            beta=round(float(rng.uniform(0, 1)), 3),
            gamma=round(float(rng.uniform(0, 1)), 3),
        )
        params = C.ReliabilityParams()
        mig = C.MigrationCostModel.from_layout(
            state, kappa=round(float(rng.uniform(0, 50)), 2), n_pods=int(rng.integers(1, 3))
        )
        return state, weights, params, mig


def random_template_instance(rng: np.random.Generator, max_assignments: int = 50_000):
    """Random fleet of one VM and one PM template, small enough for brute force.

    1-3 racks of 1-3 PMs in 1-3 pods, disk counters spread at random or dealt
    from three tiers, and one time in five alpha = 0 or kappa = 0 (free
    migration).  Returns (state, weights, params, migration model).
    """
    while True:
        layout = rng.integers(1, 4, size=int(rng.integers(1, 4))).tolist()
        n_pms, n_vms = sum(layout), int(rng.integers(1, 8))
        cpu = float(rng.choice([300.0, 500.0, 700.0, 1000.0]))
        slots = int(2000.0 // cpu)
        if slots * n_pms >= n_vms and n_pms**n_vms <= max_assignments:
            break
    loads, hosts = [0] * n_pms, []
    for _ in range(n_vms):
        p = int(rng.choice([q for q in range(n_pms) if loads[q] < slots]))
        loads[p] += 1
        hosts.append(p)
    if rng.random() < 0.5:
        cycle_counts = rng.integers(0, 1500, n_pms).tolist()
    else:
        cycle_counts = rng.choice([100, 140, 600], n_pms).tolist()
    state = build_state(layout, [(cpu, 612.0, 0.612)] * n_vms, hosts, cycle_counts=cycle_counts)
    weights = C.CostWeights(
        alpha=0.0 if rng.random() < 0.2 else round(float(rng.uniform(0, 1)), 3),
        beta=round(float(rng.uniform(0, 1)), 3),
        gamma=round(float(rng.uniform(0, 1)), 3),
    )
    kappa = 0.0 if rng.random() < 0.2 else round(float(rng.uniform(0, 200)), 2)
    mig = C.MigrationCostModel.from_layout(state, kappa=kappa, n_pods=int(rng.integers(1, 4)))
    return state, weights, C.ReliabilityParams(), mig


def _random_feasible_hosts(rng, vm_demands, cpu_caps, ram_caps):
    n_pms = len(cpu_caps)
    for _ in range(50):
        cpu_rem = np.array(cpu_caps, dtype=float)
        ram_rem = np.array(ram_caps, dtype=float)
        hosts = []
        ok = True
        for cpu, ram, _ in vm_demands:
            start = int(rng.integers(n_pms))
            for k in range(n_pms):
                p = (start + k) % n_pms
                if cpu <= cpu_rem[p] and ram <= ram_rem[p]:
                    hosts.append(p)
                    cpu_rem[p] -= cpu
                    ram_rem[p] -= ram
                    break
            else:
                ok = False
                break
        if ok:
            return hosts
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_state():
    # 2 racks x 2 PMs, 3 VMs, everything online except PM 3
    return template_fleet_state([0, 1, 2])


@pytest.fixture
def default_weights():
    return C.CostWeights()


@pytest.fixture
def default_params():
    return C.ReliabilityParams()
