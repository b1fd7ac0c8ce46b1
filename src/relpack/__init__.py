"""Reliability-aware server consolidation for slotted-time datacenters."""

from .costs import (
    CostBreakdown,
    CostWeights,
    InfeasibleError,
    MigrationCostModel,
    ReliabilityParams,
    objective,
    packing_floor,
)
from .domain import (
    DatacenterState,
    Placement,
    PlacementError,
    PmSpec,
    RackSpec,
    StructuralError,
    VmSpec,
    derive_transition_flags,
    validate_placement,
)
from .milp import build_model, export_lp
from .scenario import ScenarioError, load_scenario
from .sim import Scenario, SlotReport, build_datacenter, run, step
from .solver import SolveResult, greedy_incumbent, solve_bruteforce, solve_exact

__version__ = "0.1.0"

__all__ = [
    "CostBreakdown",
    "CostWeights",
    "DatacenterState",
    "InfeasibleError",
    "MigrationCostModel",
    "Placement",
    "PlacementError",
    "PmSpec",
    "RackSpec",
    "ReliabilityParams",
    "Scenario",
    "ScenarioError",
    "SlotReport",
    "SolveResult",
    "StructuralError",
    "VmSpec",
    "build_datacenter",
    "build_model",
    "derive_transition_flags",
    "export_lp",
    "greedy_incumbent",
    "load_scenario",
    "objective",
    "packing_floor",
    "run",
    "solve_bruteforce",
    "solve_exact",
    "step",
    "validate_placement",
]
