"""Exact and heuristic solvers for the next-slot placement decision.

`solve_exact` is a depth-first branch-and-bound over VM-to-PM assignments,
seeded with deterministic greedy incumbents.  Its search effort is capped by
a node budget derived from the time cap at a fixed calibrated rate, so a
given instance always explores exactly the same nodes regardless of wall
clock or host speed.  `solve_bruteforce` is the enumeration oracle.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import costs as C
from .domain import DatacenterState, Placement

# Deterministic work accounting: a "second" of cap buys this many search nodes.
NODES_PER_SECOND = 20_000

BRUTE_FORCE_LIMIT = 10_000_000

TIE_EPS = 1e-12


@dataclass(frozen=True)
class SolveResult:
    placement: Placement
    objective: float
    breakdown: C.CostBreakdown
    nodes_explored: int
    wall_time: float  # deterministic work estimate, nodes / NODES_PER_SECOND
    proof: str        # "optimal" | "time-capped" | "heuristic"
    clock_seconds: float = 0.0  # measured, informational only


class _FastEval:
    """Per-solve cost table of a fixed instance.

    The objective is linear in the assignment, PM, rack and transition
    variables, so for a complete assignment `hosts`

        objective = K + sum_v A[v][hosts[v]] + sum_{open p} B[p] + sum_{open r} R[r]

    where `A` is the load-proportional and migration energy of a VM on a PM,
    `B` the cost of keeping a PM on (idle energy, minus the shutdown cost it
    avoids and the rest credit it forgoes), `R` the energy of an active rack,
    and `K` the objective of a fully dark fleet.  All four are derived from
    `costs.cost_table`, the coefficients the MILP is written from.  Matches
    `costs.objective` up to float summation order; the authoritative value
    reported in a SolveResult is always recomputed through `costs`.  The
    tables are Python lists because the search loops index them one scalar
    at a time.
    """

    def __init__(self, dc: DatacenterState, weights: C.CostWeights,
                 params: C.ReliabilityParams, mig_model: C.MigrationCostModel):
        self.n_pms = dc.n_pms
        self.cpu = dc.demands("cpu")
        self.ram = dc.demands("ram")
        self.cpu_cap = dc.capacities("cpu")
        self.ram_cap = dc.capacities("ram")
        self.rack_of = dc.rack_of().tolist()
        self.online_prev = dc.online_now()
        self.prev_hosts = dc.current.hosts()
        self.vm_order = sorted(range(dc.n_vms), key=lambda v: (-self.cpu[v], v))
        t = C.cost_table(dc, weights, params, mig_model)
        self.floor = t.floor
        shut = t.rel_scale * t.shut
        self.shut = shut.tolist()  # shutdown cost of each PM, 0 if it is dark now
        self.shut_total = float(shut.sum())
        self.A = (t.ene_scale * (t.slope_wh[None, :] * self.cpu[:, None] + t.mig_wh)).tolist()
        self.B = (t.ene_scale * t.idle_wh - shut + t.gain).tolist()
        self.R = (t.ene_scale * t.rack_wh).tolist()
        self.K = self.shut_total - t.gain * dc.n_pms
        # fluid[d]: cheapest load energy of the VMs vm_order[d:], any host
        fluid = (t.slope_wh.min() if dc.n_pms else 0.0) * self.cpu[self.vm_order]
        self.fluid = (t.ene_scale * np.append(np.cumsum(fluid[::-1])[::-1], 0.0)).tolist()
        # near[p]: every PM ranked by (hop distance from p, id)
        self.near = np.argsort(mig_model.distance, axis=1, kind="stable").tolist()

    def objective(self, hosts) -> float:
        """Sum the table in `vm_order`, the order the search carries its total."""
        hosts = np.asarray(hosts).tolist()
        A, B, R, rack_of = self.A, self.B, self.R, self.rack_of
        pm_open = [False] * self.n_pms
        rack_open = [False] * len(R)
        cost = self.K
        for v in self.vm_order:
            p = hosts[v]
            cost += A[v][p]
            if not pm_open[p]:
                pm_open[p] = True
                cost += B[p]
                r = rack_of[p]
                if not rack_open[r]:
                    rack_open[r] = True
                    cost += R[r]
        return cost


def _result(
    hosts: np.ndarray,
    dc: DatacenterState,
    weights: C.CostWeights,
    params: C.ReliabilityParams,
    mig_model: C.MigrationCostModel,
    nodes: int,
    proof: str,
    clock: float,
) -> SolveResult:
    placement = Placement.from_hosts(hosts, dc.n_pms)
    value, breakdown = C.objective(dc.current, placement, dc, weights, params, mig_model)
    return SolveResult(
        placement=placement,
        objective=float(value),
        breakdown=breakdown,
        nodes_explored=nodes,
        wall_time=nodes / NODES_PER_SECOND,
        proof=proof,
        clock_seconds=clock,
    )


# ---------------------------------------------------------------------------
# brute force oracle


def solve_bruteforce(
    dc: DatacenterState,
    weights: C.CostWeights,
    params: C.ReliabilityParams,
    mig_model: C.MigrationCostModel,
) -> SolveResult:
    """Enumerate every assignment in lexicographic order; ties keep the first."""
    n_v, n_p = dc.n_vms, dc.n_pms
    if n_p**n_v > BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large for enumeration: {n_p}^{n_v} assignments")
    ev = _FastEval(dc, weights, params, mig_model)
    hosts = np.zeros(n_v, dtype=int)
    best_hosts: np.ndarray | None = None
    best = float("inf")
    nodes = 0
    cpu_rem = ev.cpu_cap.copy()
    ram_rem = ev.ram_cap.copy()
    t0 = time.perf_counter()

    def recurse(v: int):
        nonlocal best, best_hosts, nodes
        nodes += 1
        if v == n_v:
            obj = ev.objective(hosts)
            if obj < best - TIE_EPS:
                best = obj
                best_hosts = hosts.copy()
            return
        for p in range(n_p):
            if ev.cpu[v] <= cpu_rem[p] + 1e-9 and ev.ram[v] <= ram_rem[p] + 1e-9:
                hosts[v] = p
                cpu_rem[p] -= ev.cpu[v]
                ram_rem[p] -= ev.ram[v]
                recurse(v + 1)
                cpu_rem[p] += ev.cpu[v]
                ram_rem[p] += ev.ram[v]

    recurse(0)
    if best_hosts is None:
        raise C.InfeasibleError("no feasible assignment exists")
    return _result(best_hosts, dc, weights, params, mig_model, nodes, "optimal",
                   time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# greedy + candidate construction


def greedy_incumbent(
    dc: DatacenterState,
    weights: C.CostWeights,
    params: C.ReliabilityParams,
    mig_model: C.MigrationCostModel,
) -> SolveResult:
    """First-fit-decreasing on CPU demand, trying currently-online PMs first."""
    cpu, ram = dc.demands("cpu"), dc.demands("ram")
    cpu_rem, ram_rem = dc.capacities("cpu"), dc.capacities("ram")
    online = dc.online_now()
    pm_order = sorted(range(dc.n_pms), key=lambda p: (0 if online[p] else 1, p))
    hosts = np.full(dc.n_vms, -1, dtype=int)
    for v in sorted(range(dc.n_vms), key=lambda v: (-cpu[v], v)):
        for p in pm_order:
            if cpu[v] <= cpu_rem[p] + 1e-9 and ram[v] <= ram_rem[p] + 1e-9:
                hosts[v] = p
                cpu_rem[p] -= cpu[v]
                ram_rem[p] -= ram[v]
                break
        else:
            raise C.InfeasibleError("first-fit-decreasing found no feasible assignment")
    return _result(hosts, dc, weights, params, mig_model, 0, "heuristic", 0.0)


def _candidate_placements(dc: DatacenterState, ev: _FastEval) -> list[np.ndarray]:
    """Deterministic family of distinct starting placements, status quo first."""
    cpu, ram = ev.cpu.tolist(), ev.ram.tolist()
    prev_hosts = ev.prev_hosts.tolist()
    # an insertion-ordered set; every packing fits the capacities, as the status quo does
    cands = dict.fromkeys([tuple(prev_hosts)])
    util_now = np.bincount(ev.prev_hosts, weights=ev.cpu, minlength=dc.n_pms) / ev.cpu_cap
    # pack onto m machines, keeping the fullest current hosts and cheap moves;
    # the second ranking fills the busiest racks first so whole racks go dark
    rack_util = np.bincount(ev.rack_of, weights=util_now, minlength=dc.n_racks)
    ranked_by_pm = sorted(range(dc.n_pms), key=lambda p: (not ev.online_prev[p], -util_now[p], p))
    ranked_by_rack = sorted(
        range(dc.n_pms),
        key=lambda p: (-rack_util[ev.rack_of[p]], ev.rack_of[p], -util_now[p], p),
    )
    lo = max(ev.floor, 1) if dc.n_vms else 0
    for m in range(lo, dc.n_pms + 1):
        for ranked in (ranked_by_pm, ranked_by_rack):
            target = [False] * dc.n_pms
            for p in ranked[:m]:
                target[p] = True
            cpu_rem = ev.cpu_cap.tolist()
            ram_rem = ev.ram_cap.tolist()
            hosts = [-1] * dc.n_vms
            for v in ev.vm_order:
                c, r = cpu[v], ram[v]
                # targets nearest the current host first
                for p in ev.near[prev_hosts[v]]:
                    if target[p] and c <= cpu_rem[p] + 1e-9 and r <= ram_rem[p] + 1e-9:
                        hosts[v] = p
                        cpu_rem[p] -= c
                        ram_rem[p] -= r
                        break
                else:
                    break
            else:
                cands.setdefault(tuple(hosts))
    return [np.array(h, dtype=int) for h in cands]


def _local_search(hosts: np.ndarray, ev: _FastEval) -> np.ndarray:
    """Greedy descent over single-PM shutdown moves, each priced by its delta."""
    cpu, ram = ev.cpu.tolist(), ev.ram.tolist()
    A, B, R, rack_of = ev.A, ev.B, ev.R, ev.rack_of
    best = ev.objective(hosts)
    hosts = np.asarray(hosts).tolist()
    for _ in range(ev.n_pms):
        best_move = None
        counts = np.bincount(hosts, minlength=ev.n_pms).tolist()
        cpu_left = (ev.cpu_cap - np.bincount(hosts, weights=ev.cpu, minlength=ev.n_pms)).tolist()
        ram_left = (ev.ram_cap - np.bincount(hosts, weights=ev.ram, minlength=ev.n_pms)).tolist()
        rack_open = [0] * len(R)
        members = [[] for _ in range(ev.n_pms)]
        for p, n in enumerate(counts):
            if n:
                rack_open[rack_of[p]] += 1
        for v in ev.vm_order:  # each PM's VMs by decreasing CPU demand
            members[hosts[v]].append(v)
        for victim, vms in enumerate(members):
            if not vms:
                continue
            cpu_rem, ram_rem = cpu_left[:], ram_left[:]
            # closing the victim drops its open cost, and its rack's if it is
            # the rack's last active PM
            delta = -B[victim] - (R[rack_of[victim]] if rack_open[rack_of[victim]] == 1 else 0.0)
            # evictees may only land on PMs that stay active; opening a new PM
            # is never part of a shutdown move
            choices = [p for p in ev.near[victim] if counts[p] and p != victim]
            moves = []
            for v in vms:
                c, r = cpu[v], ram[v]
                for p in choices:
                    if c <= cpu_rem[p] + 1e-9 and r <= ram_rem[p] + 1e-9:
                        moves.append((v, p))
                        cpu_rem[p] -= c
                        ram_rem[p] -= r
                        delta += A[v][p] - A[v][victim]
                        break
                else:
                    break
            else:
                obj = best + delta
                if obj < best - TIE_EPS and (best_move is None or obj < best_move[0] - TIE_EPS):
                    best_move = (obj, moves)
        if best_move is None:
            break
        best, moves = best_move
        for v, p in moves:
            hosts[v] = p
    return np.array(hosts, dtype=int)


class _Budget(Exception):
    pass


class _BranchAndBound:
    """Depth-first search over hosts for the VMs in `vm_order`.

    Each node carries the objective `cost` of its partial assignment, read
    from the cost table, and the shutdown cost `stake` of the PMs not yet
    opened, so a leaf and a bound cost O(1).
    """

    def __init__(self, dc, ev: _FastEval, node_budget: int):
        self.ev = ev
        self.node_budget = node_budget
        self.nodes = 0
        self.best = float("inf")
        self.best_hosts: np.ndarray | None = None
        self.complete = True
        self.n_vms = dc.n_vms
        self.cpu, self.ram = ev.cpu.tolist(), ev.ram.tolist()
        self.hosts = [0] * dc.n_vms
        self.counts = [0] * dc.n_pms
        self.rack_open = [0] * dc.n_racks
        self.cpu_rem = ev.cpu_cap.tolist()
        self.ram_rem = ev.ram_cap.tolist()
        self._orders: dict[tuple, list[int]] = {}

    def _beats(self, hosts, obj: float) -> bool:
        """Better than the incumbent by more than TIE_EPS, or tied and lexicographically smaller."""
        return obj < self.best - TIE_EPS or (
            obj <= self.best + TIE_EPS and tuple(hosts) < tuple(self.best_hosts)
        )

    def seed(self, hosts: np.ndarray, obj: float):
        if self._beats(hosts, obj):
            self.best = min(obj, self.best)
            self.best_hosts = hosts.copy()

    def node_bound(self, cost: float, stake: float, depth: int) -> float:
        """Admissible lower bound for all completions of a partial assignment.

        Drops the shutdown cost still at stake (those PMs may yet open) and
        adds the cheapest load energy of the unplaced VMs.
        """
        return cost - stake + self.ev.fluid[depth]

    def _branch_order(self) -> list[int]:
        """Online PMs first, then PMs in racks with more open PMs, then by id."""
        key = tuple(self.rack_open)
        order = self._orders.get(key)
        if order is None:
            ev, rack_open = self.ev, self.rack_open
            order = sorted(
                range(len(self.counts)),
                key=lambda p: (0 if ev.online_prev[p] else 1, -rack_open[ev.rack_of[p]], p),
            )
            self._orders[key] = order
        return order

    def run(self):
        try:
            self._dfs(0, self.ev.K, self.ev.shut_total, self._branch_order())
        except _Budget:
            self.complete = False

    def _dfs(self, depth, cost, stake, order):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _Budget
        if depth == self.n_vms:
            # most leaves fail the cheap test, which skips a method call
            if cost <= self.best + TIE_EPS and self._beats(self.hosts, cost):
                self.seed(np.array(self.hosts, dtype=int), cost)
            return
        if self.node_bound(cost, stake, depth) > self.best + TIE_EPS:
            return
        ev = self.ev
        hosts, counts, rack_open = self.hosts, self.counts, self.rack_open
        cpu_rem, ram_rem = self.cpu_rem, self.ram_rem
        v = ev.vm_order[depth]
        c, r, a = self.cpu[v], self.ram[v], ev.A[v]
        for p in order:
            if c > cpu_rem[p] + 1e-9 or r > ram_rem[p] + 1e-9:
                continue
            hosts[v] = p
            cpu_rem[p] -= c
            ram_rem[p] -= r
            if counts[p]:
                counts[p] += 1
                self._dfs(depth + 1, cost + a[p], stake, order)
                counts[p] -= 1
            else:
                # opening p changes the branch order below it
                counts[p] = 1
                k = ev.rack_of[p]
                rack_open[k] += 1
                opened = cost + a[p] + ev.B[p]
                if rack_open[k] == 1:
                    opened += ev.R[k]
                self._dfs(depth + 1, opened, stake - ev.shut[p], self._branch_order())
                rack_open[k] -= 1
                counts[p] = 0
            cpu_rem[p] += c
            ram_rem[p] += r


def solve_exact(
    dc: DatacenterState,
    weights: C.CostWeights,
    params: C.ReliabilityParams,
    mig_model: C.MigrationCostModel,
    time_cap: float = 300.0,
) -> SolveResult:
    """Branch-and-bound with deterministic effort capping.

    Within the cap the result is globally optimal with the lexicographically
    smallest assignment among ties; past the cap the best incumbent is
    returned and labeled as such.
    """
    if not 0 < time_cap < float("inf"):
        raise ValueError("time_cap must be positive and finite")
    t0 = time.perf_counter()
    ev = _FastEval(dc, weights, params, mig_model)
    # a cap too large to count in nodes leaves the search unbounded
    bnb = _BranchAndBound(dc, ev, max(1, int(min(time_cap * NODES_PER_SECOND, 2.0**63))))
    # seed each distinct descent once; a start it moved from is worse by > TIE_EPS, so cannot win
    descents = dict.fromkeys(tuple(_local_search(h, ev)) for h in _candidate_placements(dc, ev))
    for hosts in descents:
        bnb.seed(np.array(hosts, dtype=int), ev.objective(hosts))
    bnb.run()
    if bnb.best_hosts is None:
        raise C.InfeasibleError("no feasible assignment exists")
    proof = "optimal" if bnb.complete else "time-capped"
    return _result(bnb.best_hosts, dc, weights, params, mig_model, bnb.nodes, proof,
                   time.perf_counter() - t0)
