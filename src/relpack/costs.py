"""Energy and reliability cost formulas, normalization bounds, and the weighted objective.

Everything here is a pure function of immutable inputs.  Energy is tracked
internally in watt-hours; the electricity price applies after conversion to kWh.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import (
    FIT_TOL,
    DatacenterState,
    Placement,
    PmSpec,
    StructuralError,
    TransitionFlags,
    all_utilizations,
    derive_transition_flags,
)


class InfeasibleError(ValueError):
    """No placement of the VMs fits the PMs.  Only `sim.random_initial_placement`
    raises it: every `DatacenterState` holds a placement that fits."""


class CostRangeError(ValueError):
    """The instance's numbers overflow a cost coefficient, scale or bound."""


@dataclass(frozen=True)
class CostWeights:
    """Objective weights plus the unit prices and slot length they apply to."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    rho: float = 0.10      # $/kWh electricity
    omega: float = 0.1902  # $/h reliability utility (machine cost / lifetime)
    tau: float = 0.5       # slot length, hours

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.rho <= 0 or self.omega <= 0 or self.tau <= 0:
            raise ValueError("rho, omega, tau must be positive")


@dataclass(frozen=True)
class ReliabilityParams:
    """Coefficients of the disk AFR curve and the CPU thermal-cycle model."""

    delta: float = 1.51      # x 1e-5, quadratic AFR coefficient
    varrho: float = 1.09     # x 1e-4, linear AFR coefficient
    varphi: float = 1.19     # x 1e-4, constant AFR coefficient
    q: float = 2.35          # thermal-cycle fatigue exponent
    t_amb: float = 298.0     # ambient temperature, kelvin
    mttf_hours: float = 26280.0  # 3 years
    hours_per_year: float = 8760.0
    afr_floor: float = 1e-6  # failures/year; the raw quadratic dips below zero

    def __post_init__(self):
        if self.afr_floor <= 0 or self.q <= 0 or self.mttf_hours <= 0:
            raise ValueError("afr_floor, q, mttf_hours must be positive")


MAX_CYCLE_COUNT = 1600  # domain of the empirical AFR curve


@dataclass(frozen=True)
class MigrationCostModel:
    """Migration energy = kappa x VM memory (GB) x hops between hosts.

    Hops follow the layout tree PM < rack < pod: 0 on the same PM, 1 within a
    rack, 2 within a pod, 3 across pods.  A PM's pod is its rack's pod.
    """

    kappa: float                  # Wh per GB per hop
    rack_of: tuple[int, ...]      # [p] rack of each PM
    pod_of_rack: tuple[int, ...]  # [r] pod of each rack

    @classmethod
    def from_layout(cls, dc: DatacenterState, kappa: float = 10.0, n_pods: int = 2) -> "MigrationCostModel":
        """The layout of `dc`, its racks split into `n_pods` contiguous pods."""
        if n_pods < 1:
            raise ValueError(f"need at least one pod, got {n_pods}")
        racks_per_pod = math.ceil(dc.n_racks / n_pods)
        return cls(kappa=kappa, rack_of=tuple(dc.rack_of().tolist()),
                   pod_of_rack=tuple(r // racks_per_pod for r in range(dc.n_racks)))

    def check_layout(self, dc: DatacenterState) -> None:
        """Raise StructuralError unless this is the layout of `dc`'s PMs and racks."""
        if self.rack_of != tuple(dc.rack_of().tolist()) or len(self.pod_of_rack) != dc.n_racks:
            raise StructuralError(f"migration layout of {len(self.rack_of)} PMs in "
                                  f"{len(self.pod_of_rack)} racks is not that of the fleet, "
                                  f"{dc.n_pms} PMs in {dc.n_racks} racks")

    def hops(self, src, dst) -> np.ndarray:
        """Hops between PMs `src` and `dst`, elementwise with broadcasting."""
        rack = np.asarray(self.rack_of)
        pod = np.asarray(self.pod_of_rack)[rack]
        src, dst = np.asarray(src), np.asarray(dst)
        return 3 - (pod[src] == pod[dst]) - (rack[src] == rack[dst]) - (src == dst)

    def max_cell(self, vms) -> float:
        """Largest possible single-migration energy for this VM population, Wh."""
        if len(vms) == 0:
            return 0.0
        # hops are an ultrametric, so no PM is farther from another than the farthest from PM 0
        far = self.hops(0, np.arange(len(self.rack_of))).max()
        return self.kappa * max(v.mem_gb for v in vms) * float(far)


@dataclass(frozen=True)
class CostBreakdown:
    c_ene: float
    c_rel: float
    g_rel: float
    pm_energy_wh: float
    rack_energy_wh: float
    mig_energy_wh: float
    objective: float


# ---------------------------------------------------------------------------
# energy side


def pm_power(theta: float, pm: PmSpec) -> float:
    """Linear power curve: idle floor plus a utilization-proportional term, watts."""
    if not 0.0 <= theta <= 1.0 + 1e-9:
        raise ValueError(f"utilization {theta} outside [0, 1]")
    theta = min(theta, 1.0)
    return pm.k_idle * pm.p_max + (1.0 - pm.k_idle) * pm.p_max * theta


def pm_energy(pm: PmSpec, f00: int, f10: int, theta: float, tau: float) -> float:
    """Slot energy of one PM, Wh; zero when it is dark next slot."""
    return tau * (1 - f00 - f10) * pm_power(theta, pm)


def rack_energy(flags: TransitionFlags, racks, tau: float) -> float:
    """Slot energy of ToR switches and cooling for active racks, Wh."""
    y = flags.y.tolist()
    return tau * sum((r.tor_power + r.cooling_power) * y[r.id] for r in racks)


def migration_energy(s_prev: Placement, s_next: Placement, model: MigrationCostModel, vms) -> float:
    """Total energy spent moving VMs between the two mappings, Wh."""
    hops = model.hops(s_prev.hosts(), s_next.hosts()).tolist()
    return sum((model.kappa * vm.mem_gb * hops[vm.id] for vm in vms), 0.0)


def energy_components_wh(
    s_prev: Placement,
    s_next: Placement,
    dc: DatacenterState,
    weights: CostWeights,
    model: MigrationCostModel,
    flags: TransitionFlags,
) -> tuple[float, float, float]:
    """(pm, rack, migration) slot energies in Wh.  A PM that fits runs at
    most at full load, so utilizations are capped at 1."""
    thetas = np.minimum(all_utilizations(s_next, dc), 1.0).tolist()
    f00, f10 = flags.f00.tolist(), flags.f10.tolist()
    pm_wh = sum(
        pm_energy(pm, f00[pm.id], f10[pm.id], thetas[pm.id], weights.tau) for pm in dc.pms
    )
    rack_wh = rack_energy(flags, dc.racks, weights.tau)
    mig_wh = migration_energy(s_prev, s_next, model, dc.vms)
    return pm_wh, rack_wh, mig_wh


# ---------------------------------------------------------------------------
# reliability side


def afr(f: float, params: ReliabilityParams) -> float:
    """Empirical disk annual failure rate at start/stop count f, clamped positive.

    The raw quadratic goes negative on a short interval; a negative failure
    rate is nonphysical, so the value is floored at params.afr_floor.
    """
    if not 0 <= f <= MAX_CYCLE_COUNT:
        raise ValueError(f"cycle count {f} outside [0, {MAX_CYCLE_COUNT}]")
    raw = params.delta * 1e-5 * f * f - params.varrho * 1e-4 * f + params.varphi * 1e-4
    return max(raw, params.afr_floor)


def disk_cycle_cost(f: float, params: ReliabilityParams) -> float:
    """Hours of disk lifetime consumed by one more start/stop cycle."""
    if not 0 <= f <= MAX_CYCLE_COUNT - 1:
        raise ValueError(f"cycle count {f} outside [0, {MAX_CYCLE_COUNT - 1}]")
    h = params.hours_per_year
    return max(h / afr(f, params) - h / afr(f + 1, params), 0.0)


def cpu_cycle_cost(t_avg: float, params: ReliabilityParams) -> float:
    """Hours of CPU lifetime consumed by one off/on thermal cycle of amplitude
    t_avg - t_amb."""
    dt = t_avg - params.t_amb
    if dt <= 0:
        raise ValueError(f"average CPU temperature {t_avg} K must exceed ambient {params.t_amb} K")
    try:
        return params.mttf_hours * dt ** (-params.q)
    except OverflowError:
        raise ValueError(f"CPU cycle cost at {t_avg} K overflows with q = {params.q}") from None


def pm_avg_temperature(theta: float, pm: PmSpec) -> float:
    """Affine utilization-to-temperature map, kelvin."""
    return pm.t_idle + (pm.t_max - pm.t_idle) * theta


def pm_shutdown_cost(pm: PmSpec, theta_now: float, params: ReliabilityParams) -> float:
    """Lifetime hours lost if this PM powers off after running at theta_now."""
    return disk_cycle_cost(pm.cycle_count, params) + cpu_cycle_cost(
        pm_avg_temperature(theta_now, pm), params
    )


def shutdown_hours(dc: DatacenterState, params: ReliabilityParams) -> np.ndarray:
    """[p] lifetime hours lost if PM p powers off after running at its current
    utilization, `pm_shutdown_cost` bit for bit; 0.0 for PMs dark now.

    The scalar formulas run once per distinct counter (disk) and once per
    distinct temperature (CPU), with the same operands, so the floats are
    the same.  The CPU term stays a Python `**` on purpose: numpy's `x ** -q`
    over an array is not always correctly rounded (on an AVX-512 machine it
    differed from Python's `**` in 5,270 of 100,000 random draws), and one
    ulp there moves the cost table and the exported LP.
    """
    thetas = all_utilizations(dc.current, dc).tolist()
    disk: dict[int, float] = {}
    cpu: dict[float, float] = {}
    hours = []
    for pm, theta, online in zip(dc.pms, thetas, dc.online_now().tolist()):
        if not online:
            hours.append(0.0)
            continue
        f, t = pm.cycle_count, pm_avg_temperature(theta, pm)
        if f not in disk:
            disk[f] = disk_cycle_cost(f, params)
        if t not in cpu:
            cpu[t] = cpu_cycle_cost(t, params)
        hours.append(disk[f] + cpu[t])
    return np.array(hours)


def total_reliability_cost(flags: TransitionFlags, hours: np.ndarray, weights: CostWeights) -> float:
    """Dollar value of lifetime consumed by the PMs powering off this slot;
    `hours` is `shutdown_hours` of the state they power off from."""
    return weights.omega * sum(hours[flags.f10.astype(bool)].tolist())


def reliability_gain(flags: TransitionFlags, weights: CostWeights) -> float:
    """Dollar value of lifetime conserved by PMs staying dark for the slot."""
    return weights.omega * weights.tau * flags.n_off


# ---------------------------------------------------------------------------
# normalization bounds


def energy_upper_bound(dc: DatacenterState, weights: CostWeights, model: MigrationCostModel) -> float:
    """Largest electricity bill any feasible transition can produce, dollars.

    All racks on, all PMs on with the VM population spread in a balanced
    floor/ceiling split, and every VM migrating at the maximum per-migration
    energy.  The migration term is energy per event, so it is not scaled by
    the slot length.
    """
    rack_w = sum(r.tor_power + r.cooling_power for r in dc.racks)
    pm_w = _max_pm_power(dc)
    mig_wh = dc.n_vms * model.max_cell(dc.vms)
    return weights.rho * (weights.tau * (rack_w + pm_w) + mig_wh) / 1000.0


def _max_pm_power(dc: DatacenterState) -> float:
    """Total PM draw with everything online and VMs split floor/ceiling evenly."""
    n_p, n_v = dc.n_pms, dc.n_vms
    if n_p == 0:
        return 0.0
    mean_cpu = dc.demands("cpu").sum() / n_v if n_v else 0.0
    base = n_v // n_p
    eps = n_v - base * n_p  # PMs that host one extra VM
    # fleets repeat a few machine templates: price each (load, template) once
    power: dict[tuple, float] = {}
    total = 0.0
    for i, pm in enumerate(dc.pms):
        hosted = base + (1 if i < eps else 0)
        key = (hosted, pm.cpu_capacity, pm.k_idle, pm.p_max)
        if key not in power:
            power[key] = pm_power(min(1.0, hosted * mean_cpu / pm.cpu_capacity), pm)
        total += power[key]
    return total


def packing_floor(dc: DatacenterState) -> int:
    """Fewest PMs able to carry the total CPU demand, each up to capacity + FIT_TOL."""
    cap = dc.capacities("cpu").max(initial=0.0)
    demand = dc.demands("cpu").sum()
    if cap <= 0 or demand <= 0:
        return 0
    return math.ceil(demand / (cap + FIT_TOL) - 1e-12)


def reliability_bounds(
    dc: DatacenterState, weights: CostWeights, params: ReliabilityParams,
    hours: np.ndarray | None = None,
) -> tuple[float, float]:
    """(reliability-cost bound, reliability-gain bound).

    At most |P| - `packing_floor` PMs can be dark next slot; the cost bound
    charges the most expensive such set (only PMs online now can incur a
    shutdown), the gain bound credits all of them.  `hours` is
    `shutdown_hours(dc, params)` if the caller holds it.
    """
    slots = max(dc.n_pms - packing_floor(dc), 0)
    if hours is None:
        hours = shutdown_hours(dc, params)
    shutdown_costs = sorted(hours[dc.online_now()].tolist(), reverse=True)
    c_rel_ub = weights.omega * sum(shutdown_costs[:slots])
    g_rel_ub = slots * weights.omega * weights.tau
    return c_rel_ub, g_rel_ub


# ---------------------------------------------------------------------------
# objective


def _safe_ratio(value: float, bound: float) -> float:
    # a zero bound means the term cannot occur; its normalized value is 0
    return value / bound if bound > 0 else 0.0


def objective(
    s_prev: Placement,
    s_next: Placement,
    dc: DatacenterState,
    weights: CostWeights,
    params: ReliabilityParams,
    model: MigrationCostModel,
) -> tuple[float, CostBreakdown]:
    """Normalized weighted objective for the transition, plus raw components.

    The independent reference: it derives the flags, shutdown hours and
    normalization bounds itself, from the formulas above, and prices them
    with `price_transition`."""
    model.check_layout(dc)
    flags = derive_transition_flags(s_prev, s_next, dc)
    hours = shutdown_hours(dc, params)
    c_rel_ub, g_rel_ub = reliability_bounds(dc, weights, params, hours)
    return price_transition(s_prev, s_next, dc, weights, model, flags, hours,
                            energy_upper_bound(dc, weights, model), c_rel_ub, g_rel_ub)


def price_transition(
    s_prev: Placement,
    s_next: Placement,
    dc: DatacenterState,
    weights: CostWeights,
    model: MigrationCostModel,
    flags: TransitionFlags,
    hours: np.ndarray,
    c_ene_ub: float,
    c_rel_ub: float,
    g_rel_ub: float,
) -> tuple[float, CostBreakdown]:
    """Objective and components of the transition, given its `flags`, the
    state's `shutdown_hours` and the three normalization bounds: the one
    place that sums a `CostBreakdown`."""
    pm_wh, rack_wh, mig_wh = energy_components_wh(s_prev, s_next, dc, weights, model, flags)
    c_ene = weights.rho * (pm_wh + rack_wh + mig_wh) / 1000.0
    c_rel = total_reliability_cost(flags, hours, weights)
    g_rel = reliability_gain(flags, weights)
    value = (
        weights.alpha * _safe_ratio(c_ene, c_ene_ub)
        + weights.beta * _safe_ratio(c_rel, c_rel_ub)
        - weights.gamma * _safe_ratio(g_rel, g_rel_ub)
    )
    return value, CostBreakdown(
        c_ene=c_ene,
        c_rel=c_rel,
        g_rel=g_rel,
        pm_energy_wh=pm_wh,
        rack_energy_wh=rack_wh,
        mig_energy_wh=mig_wh,
        objective=value,
    )


# ---------------------------------------------------------------------------
# per-instance coefficient table


@dataclass(frozen=True)
class CostTable:
    """The objective's coefficients for one instance.

    Unscaled, the objective is ene_scale x (PM, rack and migration Wh) +
    rel_scale x shutdown dollars - gain_scale x rest x dark PMs, and `gain`
    is the objective credit of one dark PM.  The MILP is written from these
    coefficients and the three scales.

    The objective is linear in the assignment, PM, rack and transition
    variables, so for a complete assignment `hosts`

        objective = K + sum_v A[v][hosts[v]] + sum_{open p} B[p] + sum_{open r} R[r]

    where `A` is the load-proportional and migration energy of a VM on a PM
    (`energy`), `B` the cost of keeping a PM on (idle energy, minus the
    shutdown cost it avoids and the rest credit it forgoes), `R` the energy
    of an active rack, and `K` the objective of a fully dark fleet.  This
    scaled form is what brute force and both exact paths read; K, B, R are
    derived on first read, and B and R are lists because the exact paths
    index them one scalar at a time.

    The table also keeps the shutdown `hours` and the three bounds it is
    derived from, and a solve prices its result with `price_transition`
    from these; `objective` is the independent scalar reference, which
    derives its own flags, hours and bounds from the same formulas.
    """

    c_ene_ub: float        # energy_upper_bound
    c_rel_ub: float        # reliability_bounds: dearest shutdowns ...
    g_rel_ub: float        # ... and largest gain
    idle_wh: np.ndarray    # [p] slot energy of an active PM at zero load
    slope_wh: np.ndarray   # [p] slot energy per unit of hosted CPU demand
    rack_wh: np.ndarray    # [r] slot energy of an active rack
    shut: np.ndarray       # [p] dollars of lifetime lost by powering off; 0 if dark now
    rest: float            # dollars of lifetime conserved by one dark PM
    ene_scale: float       # objective weight of one Wh
    rel_scale: float       # objective weight of one shutdown dollar
    gain_scale: float      # objective weight of one conserved dollar
    gain: float            # gain_scale * omega * tau, left to right (not gain_scale * rest)
    hours: np.ndarray      # [p] shutdown_hours: lifetime hours lost by powering off
    hop_wh: np.ndarray     # [v] energy of moving VM v one hop, kappa x mem_gb
    prev: np.ndarray       # [v] current host of VM v
    cpu: np.ndarray        # [v] CPU demand of VM v
    vm_order: list[int]    # VM ids in the fit order, which `value` sums in
    model: MigrationCostModel  # the fleet's layout: hops, and `rack_of`, which R is indexed by

    def move_wh(self, vms, pms) -> np.ndarray:
        """Energy of moving VMs `vms` from their current hosts to PMs `pms`,
        index arrays that broadcast together: entries of `mig_wh`."""
        return self.hop_wh[vms] * self.model.hops(self.prev[vms], pms).astype(float)

    @property
    def mig_wh(self) -> np.ndarray:
        """[v, p] energy of moving VM v from its current host to p, built on
        each read: only the MILP reads all of it; brute force and the
        branch-and-bound build A through `energy`."""
        return self.move_wh(np.arange(len(self.prev))[:, None], np.arange(len(self.idle_wh)))

    @cached_property
    def stake(self) -> np.ndarray:
        """[p] objective cost of powering PM p off; 0 if it is dark now."""
        return self.rel_scale * self.shut

    @cached_property
    def B(self) -> list[float]:
        return (self.ene_scale * self.idle_wh - self.stake + self.gain).tolist()

    @cached_property
    def R(self) -> list[float]:
        return (self.ene_scale * self.rack_wh).tolist()

    @cached_property
    def K(self) -> float:
        return float(self.stake.sum()) - self.gain * len(self.idle_wh)

    def energy(self, vms, pms) -> np.ndarray:
        """A[v][p] for index arrays `vms` and `pms` that broadcast together."""
        return self.ene_scale * (self.slope_wh[pms] * self.cpu[vms] + self.move_wh(vms, pms))

    def value(self, hosts, A: list[list[float]] | None = None) -> float:
        """Objective of a complete assignment, summed in `vm_order` as the
        branch-and-bound carries its total.  Reads the full table `A` if the
        caller holds it, else computes the V entries it needs.  Matches
        `objective` up to float summation order, so it only ranks
        placements; the value a solve reports is priced by `price_transition`."""
        hosts = np.asarray(hosts, dtype=int)
        a = (self.energy(np.arange(len(hosts)), hosts).tolist() if A is None
             else [A[v][p] for v, p in enumerate(hosts.tolist())])
        hosts = hosts.tolist()
        B, R, rack_of = self.B, self.R, self.model.rack_of
        pm_open = [False] * len(B)
        rack_open = [False] * len(R)
        cost = self.K
        for v in self.vm_order:
            p = hosts[v]
            cost += a[v]
            if not pm_open[p]:
                pm_open[p] = True
                cost += B[p]
                r = rack_of[p]
                if not rack_open[r]:
                    rack_open[r] = True
                    cost += R[r]
        return cost


# checked for finiteness, bounds first; `mig_wh` needs no check, since no
# entry exceeds `max_cell`, which `c_ene_ub` holds
_CHECKED = ("c_ene_ub", "c_rel_ub", "g_rel_ub", "idle_wh", "slope_wh", "rack_wh", "shut", "rest",
            "ene_scale", "rel_scale", "gain_scale", "gain")


# overflow is reported by the finiteness check, naming the entry, not warned about
@np.errstate(over="ignore", invalid="ignore")
def cost_table(
    dc: DatacenterState,
    weights: CostWeights,
    params: ReliabilityParams,
    model: MigrationCostModel,
) -> CostTable:
    """The coefficient table for deciding `dc`'s next-slot placement; `model`
    must be `dc`'s layout (StructuralError)."""
    model.check_layout(dc)
    tau = weights.tau
    hours = shutdown_hours(dc, params)
    c_ene_ub = energy_upper_bound(dc, weights, model)
    c_rel_ub, g_rel_ub = reliability_bounds(dc, weights, params, hours)
    gain_scale = _safe_ratio(weights.gamma, g_rel_ub)
    table = CostTable(
        c_ene_ub=c_ene_ub,
        c_rel_ub=c_rel_ub,
        g_rel_ub=g_rel_ub,
        idle_wh=np.array([tau * pm.k_idle * pm.p_max for pm in dc.pms]),
        slope_wh=np.array([tau * (1.0 - pm.k_idle) * pm.p_max / pm.cpu_capacity for pm in dc.pms]),
        rack_wh=np.array([tau * (r.tor_power + r.cooling_power) for r in dc.racks]),
        shut=weights.omega * hours,
        rest=weights.omega * tau,
        ene_scale=_safe_ratio(weights.alpha * weights.rho / 1000.0, c_ene_ub),
        rel_scale=_safe_ratio(weights.beta, c_rel_ub),
        gain_scale=gain_scale,
        gain=gain_scale * weights.omega * tau,
        hours=hours,
        hop_wh=model.kappa * np.array([v.mem_gb for v in dc.vms]),
        prev=dc.current.hosts(),
        cpu=dc.demands("cpu"),
        vm_order=dc.fit_order(),
        model=model,
    )
    # a non-finite entry would silently zero a term's scale or poison the objective;
    # one pass over every entry, then entry by entry to name the first bad one
    values = [getattr(table, name) for name in _CHECKED]
    arrays = [v for v in values if isinstance(v, np.ndarray)]
    scalars = [v for v in values if not isinstance(v, np.ndarray)]
    if not np.isfinite(np.concatenate([*arrays, scalars])).all():
        for name, value in zip(_CHECKED, values):
            finite = np.isfinite(value)
            if not finite.all():
                bad = np.asarray(value)[~finite]
                raise CostRangeError(f"cost table entry {name} overflows to {bad[0]}; "
                                     "the scenario's numbers are too large")
    return table
