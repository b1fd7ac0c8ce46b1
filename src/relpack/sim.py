"""Slotted-time consolidation simulation: seed an initial mapping, run the
placement policy once per slot, and account for the resulting costs and
disk cycle counts."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import costs as C
from . import solver as S
from .domain import DatacenterState, Placement, PmSpec, RackSpec, VmSpec, fit_count


# every machine records this bandwidth (Mbps); no constraint reads it
PM_BW_CAPACITY = 1000.0

# Largest fleet a scenario may describe, in VM-to-PM cells, |P| x max(|V|, 1):
# the MILP and the branch-and-bound's table A hold one entry per cell, while a
# placement holds one host per VM.
# Checked before anything is built; admits 320 PMs x 1200 VMs (384k cells).
MAX_CELLS = 10**6


@dataclass(frozen=True)
class PmTemplate:
    cpu_capacity: float = 2000.0   # MIPS
    ram_capacity: float = 10240.0  # MB
    p_max: float = 300.0
    k_idle: float = 0.7
    t_idle: float = 318.0
    t_max: float = 350.0


@dataclass(frozen=True)
class VmTemplate:
    cpu_demand: float = 500.0
    ram_demand: float = 612.0
    mem_gb: float = 0.612


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce a run: topology, templates, prices, seed."""

    n_racks: int = 8
    pms_per_rack: int = 4
    tor_power: float = 366.0
    cooling_power: float = 950.0
    n_vms: int = 52
    pm: PmTemplate = field(default_factory=PmTemplate)
    vm: VmTemplate = field(default_factory=VmTemplate)
    weights: C.CostWeights = field(default_factory=C.CostWeights)
    reliability: C.ReliabilityParams = field(default_factory=C.ReliabilityParams)
    kappa: float = 10.0
    n_pods: int = 2
    cycle_count_base: int = 100
    cycle_count_spread: int = 0  # counters drawn uniformly from base +/- spread
    # alternative: explicit (pm_count, cycle_count) tiers dealt out by
    # descending current load; overrides base/spread when set.  Machines that
    # run loaded rarely power-cycle, so they sit in the low-count tiers.
    cycle_count_tiers: tuple[tuple[int, int], ...] | None = None
    seed: int = 0
    n_slots: int = 1
    solver: str = "exact"  # "exact" | "greedy"
    time_cap: float = 300.0

    def __post_init__(self):
        if self.n_racks <= 0 or self.pms_per_rack <= 0 or self.n_vms < 0 or self.n_slots <= 0:
            raise ValueError("rack, PM-per-rack and slot counts must be positive, VM count >= 0")
        if self.n_pms * max(self.n_vms, 1) > MAX_CELLS:
            raise ValueError(f"{self.n_pms} PMs x {self.n_vms} VMs exceed the limit of "
                             f"{MAX_CELLS} VM-to-PM cells")
        if self.solver not in ("exact", "greedy"):
            raise ValueError(f"unknown solver kind {self.solver!r}")
        if not 0 < self.time_cap < float("inf"):
            raise ValueError(f"time_cap must be a positive number of seconds, got {self.time_cap}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.n_pods < 1:
            raise ValueError(f"n_pods must be >= 1, got {self.n_pods}")
        if self.cycle_count_tiers is not None:
            if sum(n for n, _ in self.cycle_count_tiers) != self.n_pms:
                raise ValueError("cycle_count_tiers counts must sum to the PM count")
            counters = [f for _, f in self.cycle_count_tiers]
        elif self.cycle_count_spread < 0:
            raise ValueError("cycle_count_spread must be >= 0")
        else:
            counters = [self.cycle_count_base, self.cycle_count_base + self.cycle_count_spread]
        # the templates must pass the rack, machine and VM rules at every starting counter
        RackSpec(0, (0,), self.tor_power, self.cooling_power)
        for f in counters:
            PmSpec(0, 0, bw_capacity=PM_BW_CAPACITY, cycle_count=f, **asdict(self.pm))
        VmSpec(0, **asdict(self.vm))
        C.cpu_cycle_cost(self.pm.t_idle, self.reliability)  # the coolest PM must beat ambient
        # a counter rises by at most 1 per slot, and the AFR curve ends at MAX_CYCLE_COUNT
        top = max(counters) + self.n_slots - 1
        if top > C.MAX_CYCLE_COUNT - 1:
            raise ValueError(f"cycle counts reach {top} within {self.n_slots} slots; "
                             f"the AFR curve covers 0 to {C.MAX_CYCLE_COUNT - 1}")

    @property
    def n_pms(self) -> int:
        return self.n_racks * self.pms_per_rack


@dataclass(frozen=True)
class SlotReport:
    slot: int
    active_racks: int
    active_pms: int
    n_migrations: int
    c_ene: float
    c_rel: float
    g_rel: float
    objective: float
    nodes_explored: int
    wall_time: float
    proof: str


def build_datacenter(scenario: Scenario, seed: int | None = None) -> DatacenterState:
    """Instantiate the topology and a random initial mapping for the given seed."""
    if seed is None:
        seed = scenario.seed
    rng = np.random.default_rng(seed)
    racks = []
    pms = []
    for r in range(scenario.n_racks):
        ids = tuple(range(r * scenario.pms_per_rack, (r + 1) * scenario.pms_per_rack))
        racks.append(RackSpec(r, ids, scenario.tor_power, scenario.cooling_power))
    placement = random_initial_placement(scenario, rng)
    if scenario.cycle_count_tiers is not None:
        pool = [f for n, f in scenario.cycle_count_tiers for _ in range(n)]
        loads = placement.pm_loads()
        rank = np.lexsort((np.arange(scenario.n_pms), -loads))
        counters = np.empty(scenario.n_pms, dtype=int)
        counters[rank] = pool
    elif scenario.cycle_count_spread:
        counters = rng.integers(
            max(0, scenario.cycle_count_base - scenario.cycle_count_spread),
            scenario.cycle_count_base + scenario.cycle_count_spread + 1,
            size=scenario.n_pms,
        )
    else:
        counters = np.full(scenario.n_pms, scenario.cycle_count_base)
    template = asdict(scenario.pm)
    for p in range(scenario.n_pms):
        pms.append(PmSpec(p, p // scenario.pms_per_rack, bw_capacity=PM_BW_CAPACITY,
                          cycle_count=int(counters[p]), **template))
    vms = [
        VmSpec(v, scenario.vm.cpu_demand, scenario.vm.ram_demand, scenario.vm.mem_gb)
        for v in range(scenario.n_vms)
    ]
    return DatacenterState(tuple(racks), tuple(pms), tuple(vms), placement, slot_index=0)


def random_initial_placement(scenario: Scenario, rng: np.random.Generator) -> Placement:
    """Uniform random feasible mapping: random host per VM with a first-fit
    fallback scan.  Every VM is alike, so a PM holds `fit_count` of them, the
    scan fails (`InfeasibleError`) only when every PM is full, and no other
    draw could place the population."""
    n_v, n_p, vm, pm = scenario.n_vms, scenario.n_pms, scenario.vm, scenario.pm
    k = min(fit_count(vm.cpu_demand, pm.cpu_capacity, n_v),
            fit_count(vm.ram_demand, pm.ram_capacity, n_v))
    counts = [0] * n_p
    hosts = np.full(n_v, -1, dtype=int)
    for v in rng.permutation(n_v):
        start = int(rng.integers(n_p))
        for i in range(n_p):
            p = (start + i) % n_p
            if counts[p] < k:
                hosts[v] = p
                counts[p] += 1
                break
        else:
            raise C.InfeasibleError("could not place the VM population")
    return Placement.from_hosts(hosts, n_p)


def migration_model(scenario: Scenario, dc: DatacenterState) -> C.MigrationCostModel:
    return C.MigrationCostModel.from_layout(dc, kappa=scenario.kappa, n_pods=scenario.n_pods)


def _solve(dc: DatacenterState, scenario: Scenario, mig: C.MigrationCostModel) -> S.SolveResult:
    if scenario.solver == "greedy":
        return S.greedy_incumbent(dc, scenario.weights, scenario.reliability, mig)
    return S.solve_exact(dc, scenario.weights, scenario.reliability, mig, scenario.time_cap)


def step(state: DatacenterState, scenario: Scenario) -> tuple[DatacenterState, SlotReport]:
    """Run the policy for one slot and advance the state."""
    mig = migration_model(scenario, state)
    result = _solve(state, scenario, mig)
    flags = result.flags
    n_migrations = int(
        (state.current.hosts() != result.placement.hosts()).sum()
    )
    report = SlotReport(
        slot=state.slot_index,
        active_racks=int(flags.y.sum()),
        active_pms=int(flags.x.sum()),
        n_migrations=n_migrations,
        c_ene=result.breakdown.c_ene,
        c_rel=result.breakdown.c_rel,
        g_rel=result.breakdown.g_rel,
        objective=result.objective,
        nodes_explored=result.nodes_explored,
        wall_time=result.wall_time,
        proof=result.proof,
    )
    next_state = state.with_placement(result.placement, cycle_increments=flags.f10)
    return next_state, report


def run(scenario: Scenario, seed: int | None = None) -> list[SlotReport]:
    """Simulate `n_slots` consolidation decisions from a seeded initial mapping."""
    state = build_datacenter(scenario, seed)
    reports = []
    for _ in range(scenario.n_slots):
        state, report = step(state, scenario)
        reports.append(report)
    return reports
