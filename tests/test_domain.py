"""Data model unit tests: placements, validation, transition flags."""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relpack.domain import (
    FIT_TOL,
    DatacenterState,
    Placement,
    PlacementError,
    PmSpec,
    RackSpec,
    StructuralError,
    VmSpec,
    all_utilizations,
    derive_transition_flags,
    fit_count,
    validate_placement,
)

from conftest import build_state, template_fleet_state


class TestPlacement:
    def test_from_hosts_roundtrip(self):
        p = Placement.from_hosts([2, 0, 2], 3)
        assert p.n_vms == 3 and p.n_pms == 3
        assert p.hosts().tolist() == [2, 0, 2]
        assert p.pm_loads().tolist() == [1, 0, 2]

    def test_immutability(self):
        hosts = np.array([0, 1])
        p = Placement.from_hosts(hosts, 2)
        with pytest.raises(ValueError):
            p.hosts()[0] = 1
        hosts[0] = 1  # the placement holds a copy
        assert p.hosts().tolist() == [0, 1]

    @pytest.mark.parametrize("hosts", [[2, 0, 2], np.array([2, 0, 2], dtype=np.int32),
                                       (h for h in [2, 0, 2])], ids=["list", "int32", "generator"])
    def test_hosts_are_read_only_intp(self, hosts):
        p = Placement.from_hosts(hosts, 3)
        assert p.hosts().dtype == np.intp
        assert not p.hosts().flags.writeable
        assert p.hosts().tolist() == [2, 0, 2]

    def test_equality_and_hash(self):
        a = Placement.from_hosts([0, 1], 2)
        b = Placement.from_hosts([0, 1], 2)
        c = Placement.from_hosts([1, 1], 2)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != Placement.from_hosts([0, 1], 3)  # same hosts, another fleet

    @pytest.mark.parametrize("hosts, vm", [([-1, 0], 0), ([0, 1, 3], 2), ([0.7, 1.9], 0),
                                           ([True, False], 0), ([float("nan"), 0], 0),
                                           ([float("inf"), 0], 0)],
                             ids=["negative", "past-the-last-pm", "fractional", "bool", "nan", "inf"])
    def test_from_hosts_rejects_a_host_that_is_not_a_pm(self, hosts, vm):
        with pytest.raises(StructuralError, match=f"vm {vm}: host {hosts[vm]} "):
            Placement.from_hosts(hosts, 3)

    @pytest.mark.parametrize("build", [
        lambda hosts, n: Placement(hosts, n),
        lambda hosts, n: Placement(np.array(hosts), n),
        lambda hosts, n: Placement.from_hosts(np.array(hosts), n),
    ], ids=["init-list", "init-array", "from-array"])
    @pytest.mark.parametrize("host", [-1, 3, 0.5], ids=["minus-one", "n-pms", "fractional"])
    def test_every_constructor_rejects_a_host_that_is_not_a_pm(self, build, host):
        with pytest.raises(StructuralError, match=f"vm 1: host {host} "):
            build([0, host, 2], 3)

    def test_a_matrix_is_not_a_placement(self):
        with pytest.raises(StructuralError, match="one per VM"):
            Placement(np.eye(3, dtype=int), 3)


class TestValidation:
    def test_valid_placement_no_violations(self, tiny_state):
        assert validate_placement(tiny_state.current, tiny_state) == []

    def test_capacity_violation(self):
        state = template_fleet_state([0, 0, 0, 0])
        overfull = Placement.from_hosts([0, 0, 0, 0, 0], 4)
        with pytest.raises(StructuralError):
            validate_placement(overfull, state)  # five rows vs four VMs
        state5 = build_state([2, 2], [(500.0, 612.0, 0.612)] * 5, [0, 0, 0, 0, 1])
        out = validate_placement(Placement.from_hosts([0] * 5, 4), state5)
        assert [str(v) for v in out] == ["capacity: pm 0 cpu demand 2500 > capacity 2000 (500)"]

    @settings(max_examples=400, deadline=None)
    @given(cap=st.floats(1.0, 1e5), j=st.integers(1, 12),
           off=st.just(0.0) | st.floats(-2e-9, 2e-9), ulps=st.integers(-16, 16))
    def test_fit_count_is_the_rule(self, cap, j, off, ulps):
        """`fit_count` admits j VMs of one demand, drawn near where j of them
        fill the PM to capacity + FIT_TOL, exactly when the placement check
        takes j of them on one PM."""
        d = (cap + FIT_TOL + off) / j * (1.0 + ulps * 2.0**-52)
        assume(d > 0)
        # PM 1 holds them all now, with room to spare
        state = build_state([2], [(d, 1.0, 0.1)] * j, [1] * j, cpu_caps=[cap, 2 * cap + 1.0])
        fits = validate_placement(Placement.from_hosts([0] * j, 2), state) == []
        assert (fit_count(d, cap, j) >= j) == fits

    def test_fit_count_limits(self):
        assert fit_count(0.0, 100.0, 7) == 7
        assert fit_count(30.0, 100.0, 7) == 3
        assert fit_count(25.0, 100.0, 3) == 3

    def test_shape_mismatch_raises(self, tiny_state):
        with pytest.raises(StructuralError):
            validate_placement(Placement.from_hosts([0, 1], 3), tiny_state)

    def test_state_rejects_bad_current(self):
        with pytest.raises(PlacementError):
            build_state([1], [(1500.0, 100.0, 0.1)] * 2, [0, 0])

    def test_state_rejects_inconsistent_rack(self):
        racks = (RackSpec(0, (0,), 366.0, 950.0),)
        pms = (PmSpec(0, 1, 2000.0, 10240.0, 1000.0, 300.0, 0.7),)
        vms = ()
        with pytest.raises(StructuralError):
            DatacenterState(racks, pms, vms, Placement.from_hosts([], 1))

    def test_state_rejects_sparse_ids(self):
        racks = (RackSpec(0, (0,), 366.0, 950.0),)
        pms = (PmSpec(0, 0, 2000.0, 10240.0, 1000.0, 300.0, 0.7),)
        vms = (VmSpec(3, 100.0, 100.0, 0.1),)
        with pytest.raises(StructuralError):
            DatacenterState(racks, pms, vms, Placement.from_hosts([0], 1))


class TestTransitions:
    def test_flags_for_consolidation(self):
        state = template_fleet_state([0, 1, 2])
        nxt = Placement.from_hosts([0, 0, 0], state.n_pms)
        flags = derive_transition_flags(state.current, nxt, state)
        assert flags.x.tolist() == [1, 0, 0, 0]
        assert flags.f10.tolist() == [0, 1, 1, 0]  # were on, now off
        assert flags.f00.tolist() == [0, 0, 0, 1]  # stayed off
        assert flags.y.tolist() == [1, 0]
        assert flags.n_off == 3

    def test_flags_for_power_on(self):
        state = template_fleet_state([0, 0, 0])
        nxt = Placement.from_hosts([0, 0, 3], state.n_pms)
        flags = derive_transition_flags(state.current, nxt, state)
        assert flags.x.tolist() == [1, 0, 0, 1]
        assert flags.f10.tolist() == [0, 0, 0, 0]
        assert flags.f00.tolist() == [0, 1, 1, 0]
        assert flags.y.tolist() == [1, 1]

    def test_flags_reject_invalid(self):
        state = template_fleet_state([0, 1, 2, 3, 0])
        bad = Placement.from_hosts([0] * 5, state.n_pms)  # 2500 MIPS on a 2000 MIPS PM
        with pytest.raises(PlacementError):
            derive_transition_flags(state.current, bad, state)

    def test_with_placement_advances_counters(self):
        state = template_fleet_state([0, 1, 2])
        nxt = Placement.from_hosts([0, 0, 0], state.n_pms)
        flags = derive_transition_flags(state.current, nxt, state)
        state2 = state.with_placement(nxt, cycle_increments=flags.f10)
        assert [pm.cycle_count for pm in state2.pms] == [100, 101, 101, 100]
        assert state2.slot_index == 1
        assert state2.current == nxt


class TestUtilization:
    def test_single_pm(self):
        state = template_fleet_state([0, 0, 1])
        assert all_utilizations(state.current, state)[0] == pytest.approx(0.5)
        assert all_utilizations(state.current, state)[1] == pytest.approx(0.25)

    def test_vector(self):
        state = template_fleet_state([0, 0, 1])
        np.testing.assert_allclose(
            all_utilizations(state.current, state), [0.5, 0.25, 0.0, 0.0]
        )

    def test_online_now(self):
        state = template_fleet_state([0, 0, 1])
        assert state.online_now().tolist() == [True, True, False, False]


class TestDerivedArrays:
    def test_from_hosts_matches_a_loop(self, rng):
        hosts = rng.integers(0, 7, size=40)
        counts = [0] * 7
        for p in hosts.tolist():
            counts[p] += 1
        for given in (hosts, hosts.tolist()):
            p = Placement.from_hosts(given, 7)
            assert (p.n_vms, p.n_pms) == (40, 7)
            assert p.hosts().tolist() == hosts.tolist()
            assert p.pm_loads().tolist() == counts
        empty = Placement.from_hosts([], 3)
        assert (empty.n_vms, empty.n_pms) == (0, 3)
        assert empty.pm_loads().tolist() == [0, 0, 0]

    def test_loads_are_summed_in_vm_order(self):
        """Utilization and the capacity check sum each PM's demands in the fit
        order, decreasing CPU and then id: the same floats as a Python loop,
        compared with `==`."""
        cpu = [333.3, 100.1, 250.7, 199.9, 0.3, 66.6, 12.35, 7.77] * 2
        state = build_state([2, 2], [(c, 10.0, 0.5) for c in cpu], [v % 4 for v in range(16)],
                            cpu_caps=[1000.0] * 4)
        cap = state.capacities("cpu").tolist()
        order = sorted(range(16), key=lambda v: (-cpu[v], v))
        assert state.fit_order() == order
        overfilled = []
        for hosts in ([v % 4 for v in range(16)], [v % 2 for v in range(16)], [0] * 16):
            used = [0.0] * 4
            for v in order:
                used[hosts[v]] += cpu[v]
            placement = Placement.from_hosts(hosts, 4)
            assert all_utilizations(placement, state).tolist() == [u / c for u, c in zip(used, cap)]
            over = [(f"pm {p} cpu", u - c) for p, (u, c) in enumerate(zip(used, cap)) if u > c + 1e-9]
            got = [(v.subject.split(" demand")[0], v.amount) for v in validate_placement(placement, state)]
            assert got == over
            overfilled.append(len(over))
        assert overfilled == [0, 1, 1]

    def test_rack_activity_matches_a_loop(self, rng):
        state = build_state([3, 1, 2, 2], [(500.0, 612.0, 0.612)] * 6, [0, 0, 4, 5, 7, 7])
        for _ in range(50):
            hosts = rng.integers(0, state.n_pms, size=state.n_vms)
            if (np.bincount(hosts, minlength=state.n_pms) > 4).any():
                continue
            flags = derive_transition_flags(state.current, Placement.from_hosts(hosts, 8), state)
            want = [int(any(flags.x[p] for p in rack.pm_ids)) for rack in state.racks]
            assert flags.y.tolist() == want

    def test_with_placement_replaces_only_moved_counters(self):
        state = build_state([3, 3], [(500.0, 612.0, 0.612)] * 5, [0, 1, 2, 3, 4],
                            cycle_counts=[5, 9, 100, 0, 7, 3])
        nxt = Placement.from_hosts([0, 0, 0, 0, 4], state.n_pms)
        flags = derive_transition_flags(state.current, nxt, state)
        state2 = state.with_placement(nxt, cycle_increments=flags.f10)
        assert flags.f10.tolist() == [0, 1, 1, 1, 0, 0]
        for old, new, inc in zip(state.pms, state2.pms, flags.f10.tolist()):
            assert new.cycle_count == old.cycle_count + inc
            assert (new is old) == (inc == 0)
        fresh = DatacenterState(state2.racks, state2.pms, state2.vms, state2.current,
                                state2.slot_index)
        for resource in ("cpu", "ram"):
            assert np.array_equal(state2.demands(resource), fresh.demands(resource))
            assert np.array_equal(state2.capacities(resource), fresh.capacities(resource))
        assert np.array_equal(state2.rack_of(), fresh.rack_of())

    def test_with_placement_keeps_every_other_pm_field(self):
        # `with_placement` passes PmSpec's fields by position, so a field added
        # or reordered must be added there too
        assert [f.name for f in dataclasses.fields(PmSpec)] == [
            "id", "rack_id", "cpu_capacity", "ram_capacity", "bw_capacity", "p_max", "k_idle",
            "cycle_count", "t_idle", "t_max"]
        base = build_state([2, 2], [(500.0, 612.0, 0.612)] * 4, [0, 1, 2, 3])
        pms = tuple(PmSpec(p, p // 2, 2000.0 + p, 10240.0 + p, 900.0 + p, 250.0 + p, 0.6 + p / 10,
                           7 * p, 300.0 + p, 340.0 + p) for p in range(4))
        state = DatacenterState(base.racks, pms, base.vms, base.current)
        nxt = Placement.from_hosts([0, 0, 0, 0], state.n_pms)
        state2 = state.with_placement(nxt, cycle_increments=np.array([0, 1, 2, 1]))
        for old, new, inc in zip(state.pms, state2.pms, [0, 1, 2, 1]):
            assert new == dataclasses.replace(old, cycle_count=old.cycle_count + inc)

    def test_accessors_return_fresh_copies(self, tiny_state):
        cpu = tiny_state.capacities("cpu")
        cpu[:] = 0.0
        assert (tiny_state.capacities("cpu") == 2000.0).all()
        demand = tiny_state.demands("ram")
        demand[:] = 0.0
        assert (tiny_state.demands("ram") == 612.0).all()
        with pytest.raises(KeyError):
            tiny_state.demands("bw")
