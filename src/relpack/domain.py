"""Datacenter data model: racks, PMs, VMs, placements, transition flags."""
from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np


class StructuralError(ValueError):
    """Shape/cross-reference problem, as opposed to a reported constraint violation."""


class PlacementError(ValueError):
    """Operation received a placement that fails validation."""


@dataclass(frozen=True)
class PmSpec:
    """A physical machine. Capacities are absolute (MIPS, MB, Mbps).

    `k_idle` is the idle power draw as a fraction of `p_max`; `cycle_count`
    is the cumulative number of disk start/stop cycles so far.  `t_idle` and
    `t_max` parameterize the affine utilization-to-CPU-temperature map used
    when pricing a shutdown thermal cycle.
    """

    id: int
    rack_id: int
    cpu_capacity: float
    ram_capacity: float
    bw_capacity: float  # never constrained
    p_max: float
    k_idle: float
    cycle_count: int = 0
    t_idle: float = 318.0
    t_max: float = 350.0

    def __post_init__(self):
        if self.cpu_capacity <= 0 or self.ram_capacity <= 0:
            raise StructuralError(f"pm {self.id}: cpu_capacity and ram_capacity must be > 0")
        if not 0.0 <= self.k_idle <= 1.0:
            raise StructuralError(f"pm {self.id}: k_idle must be in [0, 1]")
        if self.cycle_count < 0:
            raise StructuralError(f"pm {self.id}: cycle_count must be >= 0")
        if not self.t_idle <= self.t_max:
            raise StructuralError(f"pm {self.id}: need t_idle <= t_max")
        if self.p_max < 0:
            raise StructuralError(f"pm {self.id}: p_max must be >= 0")


@dataclass(frozen=True)
class VmSpec:
    """A virtual machine: resource demands plus memory footprint for migration."""

    id: int
    cpu_demand: float
    ram_demand: float
    mem_gb: float

    def __post_init__(self):
        if self.cpu_demand < 0 or self.ram_demand < 0 or self.mem_gb < 0:
            raise StructuralError(f"vm {self.id}: demands must be >= 0")


@dataclass(frozen=True)
class RackSpec:
    """A rack: member PMs plus the constant draw of its ToR switch and cooling."""

    id: int
    pm_ids: tuple[int, ...]
    tor_power: float
    cooling_power: float

    def __post_init__(self):
        if not self.pm_ids:
            raise StructuralError(f"rack {self.id}: needs at least one PM")
        if self.tor_power < 0 or self.cooling_power < 0:
            raise StructuralError(f"rack {self.id}: tor_power and cooling_power must be >= 0")


# resource types that participate in packing
PACKED_RESOURCES = ("cpu", "ram")


@dataclass(frozen=True)
class Violation:
    subject: str
    amount: float  # load past the capacity

    def __str__(self):
        return f"capacity: {self.subject} ({self.amount:g})"


@dataclass(frozen=True, eq=False)
class Placement:
    """Each VM's host: `host[v]` is the id of the PM that runs VM v, one of
    `range(n_pms)`.  `host` is a read-only `np.intp` copy of what it is
    built from; a host outside that range, a fraction, a NaN or infinity, or
    a bool is rejected."""

    host: np.ndarray
    n_pms: int

    def __post_init__(self):
        given = np.array(self.host)
        if given.ndim != 1:
            raise StructuralError(f"placement hosts must be one per VM, got shape {given.shape}")
        if given.dtype.kind == "f":
            # a float outside the id range (NaN and inf too) has no integer cast; -1 stands in
            host = np.where((given >= 0) & (given < self.n_pms), given, -1).astype(np.intp)
        else:
            host = given.astype(np.intp, copy=False)
        # a fraction, or any bool, is not a PM id even where it casts to one
        bad = np.flatnonzero((host < 0) | (host >= self.n_pms) | (host != given) | (given.dtype == bool))
        if bad.size:
            v = int(bad[0])
            raise StructuralError(f"vm {v}: host {given[v]} is not a PM id in [0, {self.n_pms})")
        host.setflags(write=False)
        object.__setattr__(self, "host", host)

    @classmethod
    def from_hosts(cls, hosts: Iterable[int], n_pms: int) -> "Placement":
        return cls(hosts if isinstance(hosts, np.ndarray) else list(hosts), n_pms)

    @property
    def n_vms(self) -> int:
        return len(self.host)

    def hosts(self) -> np.ndarray:
        """Per-VM host index, read-only."""
        return self.host

    def pm_loads(self) -> np.ndarray:
        """Number of VMs hosted per PM."""
        return np.bincount(self.host, minlength=self.n_pms)

    def __eq__(self, other):
        return (isinstance(other, Placement) and self.n_pms == other.n_pms
                and np.array_equal(self.host, other.host))

    def __hash__(self):
        return hash((self.n_pms, self.host.tobytes()))


@dataclass(frozen=True)
class TransitionFlags:
    """Per-PM on/off transition indicators between consecutive slots.

    f00: stayed offline; f10: powered off; x: active in the next slot;
    y: per-rack activity (1 while any member PM is active).
    """

    f00: np.ndarray
    f10: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("f00", "f10", "x", "y"):
            a = np.asarray(getattr(self, name), dtype=np.int8)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_off(self) -> int:
        """PMs that are dark in the next slot (stayed off or powering off)."""
        return int(self.f00.sum() + self.f10.sum())


@dataclass(frozen=True)
class DatacenterState:
    racks: tuple[RackSpec, ...]
    pms: tuple[PmSpec, ...]
    vms: tuple[VmSpec, ...]
    current: Placement
    slot_index: int = 0
    # built once from the specs, read-only: per-resource VM demands and PM
    # capacities, and each PM's rack
    _demand: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    _capacity: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    _rack_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "racks", tuple(self.racks))
        object.__setattr__(self, "pms", tuple(self.pms))
        object.__setattr__(self, "vms", tuple(self.vms))
        owners: dict[int, int] = {}
        for rack in self.racks:
            for pid in rack.pm_ids:
                if pid in owners:
                    raise StructuralError(f"pm {pid} listed in racks {owners[pid]} and {rack.id}")
                owners[pid] = rack.id
        for pm in self.pms:
            if owners.get(pm.id) != pm.rack_id:
                raise StructuralError(f"pm {pm.id}: rack_id {pm.rack_id} inconsistent with rack layout")
        for i, pm in enumerate(self.pms):
            if pm.id != i:
                raise StructuralError("PM ids must be dense 0-based indices in order")
        for i, vm in enumerate(self.vms):
            if vm.id != i:
                raise StructuralError("VM ids must be dense 0-based indices in order")
        for i, rack in enumerate(self.racks):
            if rack.id != i:
                raise StructuralError("rack ids must be dense 0-based indices in order")
        vms, pms = self.vms, self.pms
        object.__setattr__(self, "_demand", {"cpu": _frozen([v.cpu_demand for v in vms], float),
                                             "ram": _frozen([v.ram_demand for v in vms], float)})
        object.__setattr__(self, "_capacity", {"cpu": _frozen([p.cpu_capacity for p in pms], float),
                                               "ram": _frozen([p.ram_capacity for p in pms], float)})
        object.__setattr__(self, "_rack_of", _frozen([p.rack_id for p in pms], int))
        bad = validate_placement(self.current, self)
        if bad:
            raise PlacementError(f"current placement invalid: {bad[0]}")

    @property
    def n_pms(self) -> int:
        return len(self.pms)

    @property
    def n_vms(self) -> int:
        return len(self.vms)

    @property
    def n_racks(self) -> int:
        return len(self.racks)

    def capacities(self, resource: str) -> np.ndarray:
        """Per-PM capacity of `resource`; a fresh array the caller may change."""
        return self._capacity[resource].copy()

    def demands(self, resource: str) -> np.ndarray:
        """Per-VM demand of `resource`; a fresh array the caller may change."""
        return self._demand[resource].copy()

    def rack_of(self) -> np.ndarray:
        """Per-PM rack index."""
        return self._rack_of.copy()

    def online_now(self) -> np.ndarray:
        """Per-PM boolean: hosting at least one VM in the current slot."""
        return self.current.pm_loads() > 0

    def with_placement(self, placement: Placement, cycle_increments: np.ndarray | None = None) -> "DatacenterState":
        """Next-slot state: `placement` becomes current, counters advance.
        PMs whose counter does not move are carried over as they are.  Only
        counters change, so the layout checks are not run again and the
        demand, capacity and rack arrays are shared; `placement` is checked."""
        pms = self.pms
        if cycle_increments is not None:
            pms = list(pms)
            for p in np.flatnonzero(cycle_increments).tolist():
                pms[p] = replace(pms[p], cycle_count=pms[p].cycle_count + int(cycle_increments[p]))
        bad = validate_placement(placement, self)
        if bad:
            raise PlacementError(f"current placement invalid: {bad[0]}")
        state = copy.copy(self)
        object.__setattr__(state, "pms", tuple(pms))
        object.__setattr__(state, "current", placement)
        object.__setattr__(state, "slot_index", self.slot_index + 1)
        return state


def validate_placement(p: Placement, dc: DatacenterState) -> list[Violation]:
    """Check per-PM capacity; returns all violations found.

    A placement for another fleet size raises StructuralError instead of
    being reported.  Loads are summed in VM id order.
    """
    if (p.n_vms, p.n_pms) != (len(dc.vms), len(dc.pms)):
        raise StructuralError(f"placement of {p.n_vms} VMs on {p.n_pms} PMs does not match "
                              f"({len(dc.vms)}, {len(dc.pms)})")
    out: list[Violation] = []
    for resource in PACKED_RESOURCES:
        used = np.bincount(p.host, weights=dc._demand[resource], minlength=p.n_pms)
        cap = dc._capacity[resource]
        for j in np.nonzero(used > cap + 1e-9)[0]:
            out.append(Violation(f"pm {j} {resource} demand {used[j]:g} > capacity {cap[j]:g}",
                                 float(used[j] - cap[j])))
    return out


def derive_transition_flags(s_prev: Placement, s_next: Placement, dc: DatacenterState) -> TransitionFlags:
    """Compute f00/f10/x/y for the slot transition described by the two mappings.

    Both are checked first, except `dc.current`, which was checked when
    the state was made."""
    for name, placement in (("previous", s_prev), ("next", s_next)):
        if placement is dc.current:
            continue
        bad = validate_placement(placement, dc)
        if bad:
            raise PlacementError(f"{name} placement invalid: {bad[0]}")
    online_prev = s_prev.pm_loads() > 0
    online_next = s_next.pm_loads() > 0
    f10 = (online_prev & ~online_next).astype(np.int8)
    f00 = (~online_prev & ~online_next).astype(np.int8)
    x = online_next.astype(np.int8)
    y = np.bincount(dc._rack_of[online_next], minlength=len(dc.racks)) > 0
    return TransitionFlags(f00=f00, f10=f10, x=x, y=y)


def all_utilizations(p: Placement, dc: DatacenterState) -> np.ndarray:
    """Per-PM CPU utilization vector, loads summed in VM id order."""
    return np.bincount(p.host, weights=dc._demand["cpu"], minlength=p.n_pms) / dc._capacity["cpu"]


def _frozen(values: list, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a
