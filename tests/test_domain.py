"""Data model unit tests: placements, validation, transition flags."""
import numpy as np
import pytest

from relpack.domain import (
    DatacenterState,
    Placement,
    PlacementError,
    PmSpec,
    RackSpec,
    StructuralError,
    VmSpec,
    all_utilizations,
    derive_transition_flags,
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
        p = Placement.from_hosts([0], 2)
        with pytest.raises(ValueError):
            p.assign[0, 0] = 0

    def test_equality_and_hash(self):
        a = Placement.from_hosts([0, 1], 2)
        b = Placement.from_hosts([0, 1], 2)
        c = Placement.from_hosts([1, 1], 2)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestValidation:
    def test_valid_placement_no_violations(self, tiny_state):
        assert validate_placement(tiny_state.current, tiny_state) == []

    def test_row_sum_violation(self, tiny_state):
        a = np.array(tiny_state.current.assign)
        bad = a.copy()
        bad[0, :] = 0
        out = validate_placement(Placement(bad), tiny_state)
        assert len(out) == 1 and out[0].kind == "row-sum"

    def test_capacity_violation(self):
        state = template_fleet_state([0, 0, 0, 0])
        overfull = Placement.from_hosts([0, 0, 0, 0, 0], 4)
        with pytest.raises(StructuralError):
            validate_placement(overfull, state)  # five rows vs four VMs
        state5 = build_state([2, 2], [(500.0, 612.0, 0.612)] * 5, [0, 0, 0, 0, 1])
        out = validate_placement(Placement.from_hosts([0] * 5, 4), state5)
        assert any(v.kind == "capacity" for v in out)

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
            DatacenterState(racks, pms, vms, Placement(np.zeros((0, 1))))

    def test_state_rejects_sparse_ids(self):
        racks = (RackSpec(0, (0,), 366.0, 950.0),)
        pms = (PmSpec(0, 0, 2000.0, 10240.0, 1000.0, 300.0, 0.7),)
        vms = (VmSpec(3, 100.0, 100.0, 0.1),)
        with pytest.raises(StructuralError):
            DatacenterState(racks, pms, vms, Placement(np.zeros((1, 1))))


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

    def test_flags_reject_invalid(self, tiny_state):
        bad = Placement(np.zeros((3, 4), dtype=np.int8))
        with pytest.raises(PlacementError):
            derive_transition_flags(tiny_state.current, bad, tiny_state)

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
