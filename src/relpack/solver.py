"""Exact and heuristic solvers for the next-slot placement decision.

`solve_exact` has two exact paths, chosen by its input:

- A fleet of one VM and one PM template (every scenario file builds one) is
  solved by a dynamic program over the layout tree: how many PMs each rack,
  pod and the root keep on.  A tie pass then picks the lexicographically
  smallest optimal placement.  No search.
- Any other instance goes to a depth-first branch-and-bound over VM hosts,
  in first fit's PM order, seeded with the status quo and first fit.

Both paths, and brute force, read the objective's scaled linear form from
`costs.CostTable`.  Both paths spend deterministic work units on one
`_Meter`, whose budget is derived from the time cap at a fixed calibrated
rate, so a given instance always does exactly the same work, never more
than the budget, regardless of wall clock or host speed.  On either path
`optimal` is a proof and `time-capped` means the budget ran out first;
`solve_exact` says what each path returns then.  `solve_bruteforce` is the
enumeration oracle.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import costs as C
from .domain import (FIT_TOL, PACKED_RESOURCES, DatacenterState, Placement, TransitionFlags,
                     derive_transition_flags, fit_count)

# Deterministic work accounting: a "second" of cap buys this many work units
# (B&B nodes, min-plus pairs, tie-pass host checks and walked PMs).  Calibrated
# on one core with the benchmark's instances.  The B&B runs ~2M nodes per CPU
# second (mixed 8-16 PM fleets), so a cap-second buys ~0.5 s of its work.  The
# template program's `solve_exact` runs 1.6M units/s (median of 36 paper
# instances, 16-32 PMs) to 3.3M units/s (ten 64-PM fleets), so a cap-second
# buys 0.3-0.6 s of its work there; large fleets spend units faster (11M/s at
# 320 PMs, where most units are long min-plus products).  Process time, best
# of 7, on one core of a shared 2-CPU x86-64 machine.
NODES_PER_SECOND = 1_000_000

BRUTE_FORCE_LIMIT = 10_000_000

TIE_EPS = 1e-12


@dataclass(frozen=True)
class SolveResult:
    placement: Placement
    objective: float
    breakdown: C.CostBreakdown
    flags: TransitionFlags = field(compare=False)  # of the move from the current placement
    nodes_explored: int
    proof: str  # "optimal" | "time-capped" | "heuristic"

    @property
    def wall_time(self) -> float:
        """Deterministic work estimate: work units / NODES_PER_SECOND (1M per second)."""
        return self.nodes_explored / NODES_PER_SECOND


def _result(
    hosts: np.ndarray,
    dc: DatacenterState,
    weights: C.CostWeights,
    table: C.CostTable,
    nodes: int,
    proof: str,
) -> SolveResult:
    """The placement `hosts`, priced by `costs.price_transition` as
    `costs.objective` prices it, from the same formulas and bit for bit,
    but with the shutdown hours and bounds that `table` holds and with
    flags derived once, which the result carries."""
    placement = Placement.from_hosts(hosts, dc.n_pms)
    flags = derive_transition_flags(dc.current, placement, dc)
    value, breakdown = C.price_transition(dc.current, placement, dc, weights, table.model, flags,
                                          table.hours, table.c_ene_ub, table.c_rel_ub,
                                          table.g_rel_ub)
    return SolveResult(
        placement=placement,
        objective=float(value),
        breakdown=breakdown,
        flags=flags,
        nodes_explored=nodes,
        proof=proof,
    )


class _Budget(Exception):
    pass


class _Meter:
    """Work units spent so far; spending past the budget raises `_Budget`."""

    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0

    def spend(self, units: int):
        if self.used + units > self.budget:
            raise _Budget
        self.used += units

    def spend_each(self, units: int):
        """As `units` calls of `spend(1)`: out of budget, the meter stops at it."""
        if self.used + units > self.budget:
            self.used = self.budget
            raise _Budget
        self.used += units


def _limits(dc: DatacenterState) -> list[list[float]]:
    """Per-PM CPU and RAM capacity + FIT_TOL, which `validate_placement` holds loads to."""
    return [(dc.capacities(r) + FIT_TOL).tolist() for r in PACKED_RESOURCES]


def _beats(obj: float, hosts, best: float, best_hosts) -> bool:
    """Better than the incumbent by more than TIE_EPS, or tied and lexicographically smaller."""
    return obj < best - TIE_EPS or (obj <= best + TIE_EPS and tuple(hosts) < tuple(best_hosts))


# ---------------------------------------------------------------------------
# brute force oracle


def solve_bruteforce(
    dc: DatacenterState,
    weights: C.CostWeights,
    params: C.ReliabilityParams,
    mig_model: C.MigrationCostModel,
) -> SolveResult:
    """Enumerate every assignment the fit rule takes, VMs in the fit order;
    among objectives within TIE_EPS the smallest host list wins (`_beats`)."""
    n_v, n_p = dc.n_vms, dc.n_pms
    if n_p**n_v > BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large for enumeration: {n_p}^{n_v} assignments")
    table = C.cost_table(dc, weights, params, mig_model)
    A = table.energy(np.arange(n_v)[:, None], np.arange(n_p)).tolist()
    cpu, ram = table.cpu.tolist(), dc.demands("ram").tolist()
    cpu_lim, ram_lim = _limits(dc)
    cpu_load, ram_load = [0.0] * n_p, [0.0] * n_p
    hosts = np.zeros(n_v, dtype=int)
    best_hosts: np.ndarray | None = None
    best = float("inf")
    nodes = 0

    def recurse(depth: int):
        nonlocal best, best_hosts, nodes
        nodes += 1
        if depth == n_v:
            obj = table.value(hosts, A)
            if _beats(obj, hosts, best, best_hosts):
                best = min(obj, best)
                best_hosts = hosts.copy()
            return
        v = table.vm_order[depth]
        for p in range(n_p):
            c, r = cpu_load[p], ram_load[p]
            if c + cpu[v] <= cpu_lim[p] and r + ram[v] <= ram_lim[p]:
                hosts[v] = p
                cpu_load[p], ram_load[p] = c + cpu[v], r + ram[v]
                recurse(depth + 1)
                cpu_load[p], ram_load[p] = c, r

    recurse(0)
    return _result(best_hosts, dc, weights, table, nodes, "optimal")


# ---------------------------------------------------------------------------
# greedy


def _pm_order(dc: DatacenterState) -> list[int]:
    """The PMs online now, then the others, each by id: the order first fit and the B&B scan."""
    return np.argsort(~dc.online_now(), kind="stable").tolist()


def _first_fit_decreasing(dc: DatacenterState, table: C.CostTable) -> np.ndarray | None:
    """First-fit-decreasing on CPU demand (the fit order), online PMs first; None if it fails.

    A PM past its limit with the smallest CPU or RAM demand of any VM added
    can take no further VM, so it leaves the scan list once it is that full.
    Demands are fixed and loads only grow, so the packing is the one a scan
    over every PM finds.
    """
    cpu, ram = dc.demands("cpu").tolist(), dc.demands("ram").tolist()
    cpu_lim, ram_lim = _limits(dc)
    cpu_load, ram_load = [0.0] * dc.n_pms, [0.0] * dc.n_pms
    cpu_min, ram_min = min(cpu, default=0.0), min(ram, default=0.0)
    pm_order = _pm_order(dc)
    hosts = [-1] * dc.n_vms
    for v in table.vm_order:
        for i, p in enumerate(pm_order):
            c, r = cpu_load[p] + cpu[v], ram_load[p] + ram[v]
            if c <= cpu_lim[p] and r <= ram_lim[p]:
                hosts[v] = p
                cpu_load[p], ram_load[p] = c, r
                if c + cpu_min > cpu_lim[p] or r + ram_min > ram_lim[p]:
                    del pm_order[i]
                break
        else:
            return None
    return np.array(hosts, dtype=int)


def greedy_incumbent(
    dc: DatacenterState,
    weights: C.CostWeights,
    params: C.ReliabilityParams,
    mig_model: C.MigrationCostModel,
) -> SolveResult:
    """First-fit-decreasing on CPU demand, trying currently-online PMs first;
    the current placement when first fit cannot pack the VMs."""
    # built before the packing, so coefficients that overflow raise CostRangeError first
    table = C.cost_table(dc, weights, params, mig_model)
    hosts = _first_fit_decreasing(dc, table)
    if hosts is None:
        hosts = dc.current.hosts()
    return _result(hosts, dc, weights, table, 0, "heuristic")


def _seeds(dc: DatacenterState, table: C.CostTable) -> list[np.ndarray]:
    """The status quo, and first-fit-decreasing if it packs and differs from it."""
    seeds = [dc.current.hosts()]
    ffd = _first_fit_decreasing(dc, table)
    if ffd is not None and not np.array_equal(ffd, seeds[0]):
        seeds.append(ffd)
    return seeds


# ---------------------------------------------------------------------------
# one VM and one PM template: dynamic program over the layout tree


def _slots_per_pm(dc: DatacenterState, table: C.CostTable) -> int | None:
    """VM slots of every PM if `dc` is a fleet of one VM and one PM template, else None.

    One template means equal VM demands and memory, and equal PM capacities
    and load slopes.  Slots are the fewer of `fit_count`'s for CPU and RAM,
    so the current placement, which fits, fills no more.
    """
    if len({(v.cpu_demand, v.ram_demand, v.mem_gb) for v in dc.vms}) > 1:
        return None
    if len({(p.cpu_capacity, p.ram_capacity) for p in dc.pms}) > 1 or len(set(table.slope_wh.tolist())) > 1:
        return None
    # PM ids run rack by rack
    rack_of = table.model.rack_of
    if list(rack_of) != sorted(rack_of):
        return None
    if dc.n_vms == 0:
        return 0
    vm, pm = dc.vms[0], dc.pms[0]
    return min(fit_count(vm.cpu_demand, pm.cpu_capacity, dc.n_vms),
               fit_count(vm.ram_demand, pm.ram_capacity, dc.n_vms))


class _Tree:
    """A node of the layout tree (PM < rack < pod < root), or a pair of a
    node's children, as a table: cost[j] is the cheapest cost of keeping j
    of its PMs on.  `own` is the node's own term, already in `cost`."""

    __slots__ = ("cost", "own", "kids", "pm")

    def __init__(self, cost: list[float], own: list[float] | None = None, kids=(), pm: int = -1):
        self.cost, self.own, self.kids, self.pm = cost, own, kids, pm


def _minplus(a: list[float], b: list[float], size: int, meter: _Meter) -> list[float]:
    """Min-plus convolution of two tables, cut at `size` entries.

    A numpy pass has a fixed cost of ~6 us, more than the plain loop's
    whole product up to ~10 entries a side (2.2 us at 5 x 5,
    5.3 us at 9 x 9); the two break even near 12.  From 17 x 17 on, the
    tables of 16-PM nodes and up, numpy wins (8 against 14 us at 17 x 17,
    12 against 44 us at 33 x 33).  Trees of 4-PM racks have tables of 2, 3,
    5, 9, 17, ... entries, so none is in 10-16, where the choice hardly
    matters.  Row i of the buffer holds a[i] + b; read back with rows one
    entry shorter, row i is shifted by i, so the column minima are the
    products.  Each candidate is the loop's sum and a minimum is exact, so
    both give the same table.
    """
    meter.spend(len(a) * len(b))
    n = len(a) + len(b) - 1
    if len(a) >= 17 and len(b) >= 17:
        buf = np.full((len(a), n + 1), math.inf)
        np.add(np.array(a)[:, None], b, out=buf[:, :len(b)])
        return buf.ravel()[:len(a) * n].reshape(len(a), n)[:, :size].min(axis=0).tolist()
    out = [math.inf] * min(n, size)
    if n <= size:
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                if x + y < out[j]:
                    out[j] = x + y
        return out
    for i, x in enumerate(a[:size]):
        for j, y in enumerate(b[:size - i], i):
            if x + y < out[j]:
                out[j] = x + y
    return out


def _pair(a: _Tree, b: _Tree, size: int, meter: _Meter) -> _Tree:
    """The node over `a` and `b`: their min-plus product, cut at `size`.

    The products of a 4-PM rack, 2 x 2 (two leaves) and then 3 x 3 (two
    pairs of leaves), are written out as the loop's own sums and minima, in
    its order: `min` keeps the first of equal sums, as the loop's strict
    test does, so the tables are `_minplus`'s to the bit.  Their units are
    spent first, as `_minplus` spends them.  Longer products, and products
    cut short at `size`, go to `_minplus`.
    """
    x, y = a.cost, b.cost
    if len(x) == 2 == len(y) and size > 2:
        meter.spend(4)
        a0, a1 = x
        b0, b1 = y
        cost = [a0 + b0, min(a0 + b1, a1 + b0), a1 + b1]
    elif len(x) == 3 == len(y) and size > 4:
        meter.spend(9)
        a0, a1, a2 = x
        b0, b1, b2 = y
        cost = [a0 + b0, min(a0 + b1, a1 + b0), min(a0 + b2, a1 + b1, a2 + b0),
                min(a1 + b2, a2 + b1), a2 + b2]
    else:
        cost = _minplus(x, y, size, meter)
    return _Tree(cost, kids=(a, b))


def _level(kids: list[_Tree], term: list[float], size: int, meter: _Meter) -> _Tree:
    """A node over `kids`, combined pairwise as a balanced tree, plus its
    `term`, which has an entry for each count of the node's PMs kept on."""
    while len(kids) > 1:
        paired = [_pair(kids[i], kids[i + 1], size, meter) for i in range(0, len(kids) - 1, 2)]
        if len(kids) % 2:
            paired.append(kids[-1])
        kids = paired
    return _Tree([c + t for c, t in zip(kids[0].cost, term)], term, (kids[0],))


def _choices(node: _Tree, j: int, budget: float):
    """Yield (PMs, cost) for every way to keep `j` PMs of `node` on at cost <= budget.

    Level nodes and pairs each walk in a frame of their own.  A pair tests
    a leaf kid itself, by the leaf's test (cost <= the budget left), so a
    leaf is walked as a node only under a level (a rack of one PM).  A pair
    has no term of its own: its sums are its kids' alone, as adding and
    subtracting a term of 0.0 would leave them.
    """
    if node.pm >= 0:
        if node.cost[j] <= budget:
            yield ((node.pm,) if j else ()), node.cost[j]
        return
    if node.own is not None:
        own = node.own[j]
        for pms, cost in _choices(node.kids[0], j, budget - own):
            yield pms, cost + own
        return
    a, b = node.kids
    x, y = a.cost, b.cost
    for ja in range(max(0, j - len(y) + 1), min(j, len(x) - 1) + 1):
        jb = j - ja
        rest = y[jb]
        if x[ja] + rest > budget:
            continue
        if a.pm < 0:
            heads = _choices(a, ja, budget - rest)
        elif x[ja] <= budget - rest:
            heads = ((((a.pm,) if ja else ()), x[ja]),)
        else:
            continue
        for pa, ca in heads:
            if b.pm < 0:
                for pb, cb in _choices(b, jb, budget - ca):
                    yield pa + pb, ca + cb
            elif y[jb] <= budget - ca:
                yield ((*pa, b.pm) if jb else pa), ca + y[jb]


class _TemplateDP:
    """Exact solver for a fleet of one VM and one PM template.

    Every VM costs the same load energy on any PM, and m = ene_scale x kappa
    x mem_gb per hop it migrates.  Hops are a tree metric, so the cheapest
    way to move the VMs off the PMs turned off, with k slots per PM kept on,
    costs m x the sum over every PM, rack and pod d of max(0, n_d - k x J_d):
    n_d VMs on d now, J_d PMs of d kept on (tree transport; Evans & Matsen,
    JRSS-B 74, 2012).  A PM kept on keeps its VMs.  The objective of an open
    set is then a constant (K and the load energy) plus a sum of per-PM,
    per-rack and per-pod terms, so a min-plus dynamic program over the
    layout tree gives the optimum z*.

    The tie pass walks the open sets that reach z* (within TIE_EPS) lazily,
    places each one's VMs greedily in id order, and keeps the
    lexicographically smallest placement, as brute force does.  A VM off a
    closed PM takes the smallest open PM that leaves the excess sum as it
    is: any host in its own rack, or one outside its rack (pod) when its
    rack (pod) has more VMs to move than free slots and the host's rack
    (pod) more free slots than VMs to move; see `_move`.  When
    migration is free (m = 0) no walk is needed; see `_solve_free`.
    """

    def __init__(self, dc: DatacenterState, table: C.CostTable, k: int):
        self.table, self.k, self.n_vms = table, k, dc.n_vms
        # objective cost of one VM-hop, as in the cost table's migration energy;
        # a Python float, so the tables' sums are plain float sums
        self.m = float(table.ene_scale * table.hop_wh[0]) if dc.n_vms else 0.0
        self.loads = dc.current.pm_loads().tolist()
        self.prev = table.prev.tolist()
        pod_of_rack = table.model.pod_of_rack
        rack_of_vm = dc.rack_of()[table.prev]
        self.rack_loads = np.bincount(rack_of_vm, minlength=dc.n_racks).tolist()
        self.pod_loads = np.bincount(np.asarray(pod_of_rack, dtype=int)[rack_of_vm],
                                     minlength=max(pod_of_rack, default=-1) + 1).tolist()
        # [p] the node ids of PM p's rack and pod: rack r is r, pod d is n_racks + d
        n_racks = len(self.rack_loads)
        self.nodes = [(r, n_racks + pod_of_rack[r]) for r in table.model.rack_of]
        self.best_hosts: list[int] | None = None

    def _tree(self, meter: _Meter) -> _Tree:
        m, k, size, t = self.m, self.k, self.n_vms + 1, self.table
        B, rack_of = t.B, t.model.rack_of
        racks: dict[int, list[_Tree]] = {}
        for p, n in enumerate(self.loads):
            racks.setdefault(rack_of[p], []).append(_Tree([m * n, B[p]], pm=p))
        # a node's term has an entry for each count j of its PMs kept on, cut at `size`
        counts = lambda n_pms: range(min(n_pms + 1, size))
        pods: dict[int, list[_Tree]] = {}
        pod_pms: dict[int, int] = {}
        for r in sorted(racks):
            n, R, d = self.rack_loads[r], t.R[r], t.model.pod_of_rack[r]
            # the rack's R is paid from one PM on
            term = [m * n] + [R + m * max(0, n - k * j) for j in counts(len(racks[r]))[1:]]
            pods.setdefault(d, []).append(_level(racks[r], term, size, meter))
            pod_pms[d] = pod_pms.get(d, 0) + len(racks[r])
        pod_trees = []
        for d in sorted(pods):
            n = self.pod_loads[d]
            term = [m * max(0, n - k * j) for j in counts(pod_pms[d])]
            pod_trees.append(_level(pods[d], term, size, meter))
        # the open PMs must hold every VM
        term = [0.0 if k * j >= self.n_vms else math.inf for j in counts(len(self.loads))]
        return _level(pod_trees, term, size, meter)

    def solve(self, meter: _Meter) -> None:
        """Leave the lexicographically smallest optimal placement in
        `best_hosts`.  Raises `_Budget` if the meter runs out first;
        `best_hosts` then holds the smallest optimum found so far, or None."""
        if self.m == 0:
            return self._solve_free(meter)
        root = self._tree(meter)
        z = min(root.cost)  # finite: the status quo's open set is a candidate
        for j in [j for j, c in enumerate(root.cost) if c <= z + TIE_EPS]:
            for pms, _ in _choices(root, j, z + TIE_EPS):
                meter.spend(len(pms))
                hosts = self._move(sorted(pms), meter)
                if hosts is not None:
                    self.best_hosts = hosts

    def _cheapest(self, pms: list[int], r: int, rack_on: bool) -> list[float]:
        """[j] cheapest cost of keeping j more of `pms`, PMs of rack r, on."""
        sums = itertools.accumulate(sorted(self.table.B[p] for p in pms))
        return [0.0, *(sums if rack_on else (c + self.table.R[r] for c in sums))]

    def _solve_free(self, meter: _Meter) -> None:
        """Migration is free (m = 0), so the pod and excess terms vanish: an
        open set costs its PMs' B and its racks' R.  The racks' tables,
        convolved in id order, price every size J.  All placements of one
        size fill the same number of slots in the same pattern, so the
        lexicographically first tied set of that size gives its smallest
        placement; it is built PM by PM, each kept on if the cheapest
        completion still reaches z*.  Needs PM ids to run rack by rack.
        """
        size, rack_of, B, R = self.n_vms + 1, self.table.model.rack_of, self.table.B, self.table.R
        racks = [list(g) for _, g in itertools.groupby(range(len(rack_of)), rack_of.__getitem__)]
        # suffix[i][j]: cheapest j PMs of racks[i:]
        suffix = [[0.0]]
        for pms in reversed(racks):
            suffix.append(_minplus(self._cheapest(pms, rack_of[pms[0]], False), suffix[-1],
                                   size, meter))
        suffix.reverse()
        root = [c if self.k * j >= self.n_vms else math.inf for j, c in enumerate(suffix[0])]
        limit = min(root) + TIE_EPS
        for j in [j for j, c in enumerate(root) if c <= limit]:
            chosen, cost = [], 0.0
            for i, pms in enumerate(racks):
                r, tail = rack_of[pms[0]], suffix[i + 1]
                for n, p in enumerate(pms):
                    need = j - len(chosen) - 1
                    if need < 0:
                        break
                    rack_on = bool(chosen) and rack_of[chosen[-1]] == r
                    rest = self._cheapest(pms[n + 1:], r, True)
                    lo, hi = max(0, need - len(tail) + 1), min(need, len(rest) - 1)
                    meter.spend(max(1, hi - lo + 1))
                    here = cost + B[p] + (0.0 if rack_on else R[r])
                    after = min((rest[t] + tail[need - t] for t in range(lo, hi + 1)), default=math.inf)
                    if here + after <= limit:
                        chosen.append(p)
                        cost = here
            if len(chosen) == j:  # short only if rounding hid the set
                hosts = self._fill(chosen, meter)
                if self.best_hosts is None or hosts < self.best_hosts:
                    self.best_hosts = hosts

    def _fill(self, opened: list[int], meter: _Meter) -> list[int]:
        """Migration is free: fill the open PMs in id order, none left empty."""
        k, n_v = self.k, self.n_vms
        meter.spend(n_v)
        hosts, i, load, empty = [], 0, 0, len(opened)
        for v in range(n_v):
            if load == k or (load and empty >= n_v - v):
                i, load = i + 1, 0
            if not load:
                empty -= 1
            load += 1
            hosts.append(opened[i])
        return hosts

    def _move(self, opened: list[int], meter: _Meter) -> list[int] | None:
        """VMs on open PMs stay; each other VM, in id order, takes the smallest
        open PM that keeps the migration minimal.  None unless
        lexicographically smaller than `best_hosts`.

        Minimal means the excess sum over racks and pods stays as it is.  Per
        rack and pod, `movers` counts the VMs still to move off its closed
        PMs and `spare` the free slots on its open PMs.  A host in the
        mover's rack always keeps the excess; leaving the rack (the pod) keeps
        it only when the mover's rack (pod) has more movers than spare slots
        and the host's rack (pod) more spare slots than movers.

        A VM that stays is a unit; the VMs that stay between two movers are
        charged and compared with `best_hosts` as one run, as if one by one.
        """
        best, k, loads, nodes, prev = self.best_hosts, self.k, self.loads, self.nodes, self.prev
        movers = self.rack_loads + self.pod_loads
        spare = [0] * len(movers)
        free = {}
        for q in opened:
            n = loads[q]
            free[q] = f = k - n
            r, d = nodes[q]
            movers[r] -= n
            movers[d] -= n
            spare[r] += f
            spare[d] += f
        avail = [q for q in opened if free[q]]
        tied = best is not None
        hosts = prev.copy()
        start = 0  # the first VM of the run that stays
        # each mover in id order, then the end, which closes the last run
        for v in [v for v, h in enumerate(prev) if h not in free] + [len(prev)]:
            if tied and prev[start:v] != best[start:v]:
                i = next(i for i in range(start, v) if prev[i] != best[i])
                if prev[i] > best[i]:
                    meter.spend_each(i + 1 - start)
                    return None
                tied = False
            meter.spend_each(v - start)
            if v == len(prev):
                break
            r, d = nodes[prev[v]]
            checks = 0
            for host in avail:
                checks += 1
                if tied and host > best[v]:
                    meter.spend(checks)
                    return None
                rq, dq = nodes[host]
                if rq == r or (movers[r] > spare[r] and spare[rq] > movers[rq] and (
                        dq == d or (movers[d] > spare[d] and spare[dq] > movers[dq]))):
                    break
            else:
                raise AssertionError("tie pass found no host for a migrating VM")
            meter.spend(checks)
            movers[r] -= 1
            movers[d] -= 1
            spare[rq] -= 1
            spare[dq] -= 1
            free[host] -= 1
            if not free[host]:
                avail.remove(host)
            if tied and host != best[v]:
                if host > best[v]:
                    return None
                tied = False
            hosts[v] = host
            start = v + 1
        return None if tied else hosts


# ---------------------------------------------------------------------------
# any other instance: branch-and-bound over VM hosts


class _BranchAndBound:
    """Depth-first search over hosts for the VMs in the table's `vm_order`,
    hosts tried in `_pm_order`, as one loop with an explicit stack.

    Each child entered carries the objective `cost` of its partial
    assignment, read from the table's K, A, B and R, and the shutdown cost
    `stake` of the PMs not yet opened, so a leaf and a bound cost O(1).  The
    root and each child entered are one unit of the meter.  Each PM's load
    is the fit rule's own sum, so a host refused at some depth is refused at
    every leaf below it.
    """

    def __init__(self, dc: DatacenterState, table: C.CostTable):
        self.dc, self.table = dc, table
        self.A = table.energy(np.arange(dc.n_vms)[:, None], np.arange(dc.n_pms)).tolist()
        # fluid[d]: cheapest load energy of the VMs vm_order[d:], any host
        fluid = (table.slope_wh.min() if dc.n_pms else 0.0) * table.cpu[table.vm_order]
        self.fluid = (table.ene_scale * np.append(np.cumsum(fluid[::-1])[::-1], 0.0)).tolist()
        self.meter: _Meter | None = None
        self.best = float("inf")
        self.best_hosts: np.ndarray | None = None

    def seed(self, hosts: np.ndarray, obj: float):
        if _beats(obj, hosts, self.best, self.best_hosts):
            self.best = min(obj, self.best)
            self.best_hosts = hosts.copy()

    def node_bound(self, cost: float, stake: float, depth: int) -> float:
        """Admissible lower bound for all completions of a partial assignment.

        Drops the shutdown cost still at stake (those PMs may yet open) and
        adds the cheapest load energy of the unplaced VMs.
        """
        return cost - stake + self.fluid[depth]

    def solve(self, meter: _Meter) -> None:
        """Leave the lexicographically smallest optimal placement in
        `best_hosts`, seeded with the status quo and first-fit-decreasing.
        Raises `_Budget` if the meter runs out first; `best_hosts` then
        holds the incumbent."""
        dc, t, A = self.dc, self.table, self.A
        self.meter = meter
        for hosts in _seeds(dc, t):
            self.seed(hosts, t.value(hosts, A))
        n_vms, vm_order, rack_of, B, R = dc.n_vms, t.vm_order, t.model.rack_of, t.B, t.R
        stake_of, order = t.stake.tolist(), _pm_order(dc)
        cpu, ram = t.cpu.tolist(), dc.demands("ram").tolist()
        cpu_lim, ram_lim = _limits(dc)
        cpu_load, ram_load = [0.0] * dc.n_pms, [0.0] * dc.n_pms
        hosts, counts, rack_open = [0] * n_vms, [0] * dc.n_pms, [0] * dc.n_racks
        cost, stake = t.K, float(t.stake.sum())
        meter.spend(1)  # the root
        # with no VMs the status quo, already seeded, is the one placement
        if n_vms == 0 or self.node_bound(cost, stake, 0) > self.best + TIE_EPS:
            return
        # stack[d]: how the node at depth d + 1 was entered, as (the position
        # in `order` to resume depth d at, its host, the host's loads before
        # it, and the cost and stake at depth d)
        stack: list[tuple] = []
        depth, start = 0, 0
        while True:
            v = vm_order[depth]
            c, r, a, leaf = cpu[v], ram[v], A[v], depth + 1 == n_vms
            for i in range(start, len(order)):
                p = order[i]
                c0, r0 = cpu_load[p], ram_load[p]
                if c0 + c > cpu_lim[p] or r0 + r > ram_lim[p]:
                    continue
                # inline rather than `meter.spend(1)`, which is a call per child
                if meter.used >= meter.budget:
                    raise _Budget
                meter.used += 1
                hosts[v] = p
                child, child_stake = cost + a[p], stake
                if not counts[p]:
                    child += B[p]
                    if not rack_open[rack_of[p]]:
                        child += R[rack_of[p]]
                    child_stake -= stake_of[p]
                if leaf:
                    # most leaves fail the cheap test, which skips a call
                    if child <= self.best + TIE_EPS and _beats(child, hosts, self.best, self.best_hosts):
                        self.seed(np.array(hosts, dtype=int), child)
                elif self.node_bound(child, child_stake, depth + 1) <= self.best + TIE_EPS:
                    stack.append((i + 1, p, c0, r0, cost, stake))
                    cpu_load[p], ram_load[p] = c0 + c, r0 + r
                    counts[p] += 1
                    if counts[p] == 1:
                        rack_open[rack_of[p]] += 1
                    cost, stake, depth, start = child, child_stake, depth + 1, 0
                    break
            else:  # every host tried: back to the parent
                if not stack:
                    return
                start, p, c0, r0, cost, stake = stack.pop()
                cpu_load[p], ram_load[p] = c0, r0
                counts[p] -= 1
                if not counts[p]:
                    rack_open[rack_of[p]] -= 1
                depth -= 1


def solve_exact(
    dc: DatacenterState,
    weights: C.CostWeights,
    params: C.ReliabilityParams,
    mig_model: C.MigrationCostModel,
    time_cap: float = 300.0,
) -> SolveResult:
    """Exact solve with deterministic effort capping.

    The cap buys `time_cap x NODES_PER_SECOND` work units on one meter, and
    `nodes_explored` is the units spent, never more than that budget.  A
    fleet of one VM and one PM template goes to the layout-tree dynamic
    program: its min-plus pairs, and its tie pass's host checks and the PMs
    of each open set it walks, are the units.  Any other instance goes to
    the branch-and-bound: each node it enters within the budget is a unit.

    "optimal": the result is a global optimum, the lexicographically smallest
    assignment among ties.  "time-capped": the budget ran out.  The result
    is then the branch-and-bound's incumbent, or the smallest optimum the
    template path's tie pass found; if the template path found none, or the
    program itself was cut, the better of the status quo and
    first-fit-decreasing.
    """
    if not 0 < time_cap < float("inf"):
        raise ValueError("time_cap must be positive and finite")
    table = C.cost_table(dc, weights, params, mig_model)
    k = _slots_per_pm(dc, table)
    search = _BranchAndBound(dc, table) if k is None else _TemplateDP(dc, table, k)
    # a cap too large to count in units leaves the solve unbounded
    meter = _Meter(max(1, int(min(time_cap * NODES_PER_SECOND, 2.0**63))))
    try:
        search.solve(meter)
        proof = "optimal"
    except _Budget:
        proof = "time-capped"
    hosts = search.best_hosts
    if hosts is None:
        hosts = min(_seeds(dc, table), key=table.value)
    return _result(np.asarray(hosts, dtype=int), dc, weights, table, meter.used, proof)
