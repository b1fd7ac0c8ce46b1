"""Exact MILP formulation of the consolidation problem, plus LP-format export.

The model is linear by construction: the bilinear product between a PM's
on/off state and its load-dependent power vanishes at every integer-feasible
point, because the assignment columns of a dark PM are forced to zero.  The
activity indicators are pinned to the assignment (not just bounded by it) so
that every integer-feasible point decodes to a unique placement with the
same objective value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs as C
from .domain import PACKED_RESOURCES, DatacenterState, Placement, derive_transition_flags


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict[str, float]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class ModelStats:
    n_binary: int
    n_continuous: int
    n_constraints: int


@dataclass
class MilpModel:
    binary_names: list[str]
    continuous_names: list[str]
    objective: dict[str, float]
    constraints: list[Constraint]
    # cont var -> (linear coeffs over binaries, constant); used for decoding
    definitions: dict[str, tuple[dict[str, float], float]]
    n_vms: int
    n_pms: int
    n_racks: int

    @property
    def var_names(self) -> list[str]:
        return self.binary_names + self.continuous_names


def _s(v: int, p: int) -> str:
    return f"S_{v}_{p}"


def build_model(
    dc: DatacenterState,
    weights: C.CostWeights,
    params: C.ReliabilityParams,
    mig_model: C.MigrationCostModel,
) -> MilpModel:
    """Assemble the full model for deciding the next slot's placement."""
    n_v, n_p, n_r = dc.n_vms, dc.n_pms, dc.n_racks

    for resource in ("cpu", "ram"):
        if dc.demands(resource).sum() > dc.capacities(resource).sum() + 1e-9:
            raise C.InfeasibleError(f"aggregate {resource} demand exceeds capacity")
        if n_v and dc.demands(resource).max() > dc.capacities(resource).max() + 1e-9:
            raise C.InfeasibleError(f"some VM's {resource} demand fits on no PM")

    table = C.cost_table(dc, weights, params, mig_model)

    binaries = (
        [_s(v, p) for v in range(n_v) for p in range(n_p)]
        + [f"X_{p}" for p in range(n_p)]
        + [f"Y_{r}" for r in range(n_r)]
        + [f"F00_{p}" for p in range(n_p)]
        + [f"F10_{p}" for p in range(n_p)]
    )
    continuous = [f"Epm_{p}" for p in range(n_p)] + ["Erack", "Emig", "Crel", "Grel"]

    cons: list[Constraint] = []
    online = dc.online_now()
    cpu = dc.demands("cpu").tolist()

    # transition flags consistent with the current slot's on/off states
    for p in range(n_p):
        dead = "F10" if not online[p] else "F00"
        cons.append(Constraint(f"fix_{dead.lower()}_{p}", {f"{dead}_{p}": 1.0}, "=", 0.0))

    # a dark PM hosts nothing...
    for v in range(n_v):
        for p in range(n_p):
            cons.append(
                Constraint(
                    f"dark_pm_empty_{v}_{p}",
                    {_s(v, p): 1.0, f"F10_{p}": 1.0, f"F00_{p}": 1.0},
                    "<=",
                    1.0,
                )
            )
    # ...and an empty PM must be dark
    for p in range(n_p):
        coeffs = {_s(v, p): 1.0 for v in range(n_v)}
        coeffs[f"F10_{p}"] = 1.0
        coeffs[f"F00_{p}"] = 1.0
        cons.append(Constraint(f"empty_pm_dark_{p}", coeffs, ">=", 1.0))

    # capacity per packed resource
    for resource in PACKED_RESOURCES:
        demand = dc.demands(resource)
        cap = dc.capacities(resource)
        for p in range(n_p):
            cons.append(
                Constraint(
                    f"cap_{resource}_{p}",
                    {_s(v, p): float(demand[v]) for v in range(n_v)},
                    "<=",
                    float(cap[p]),
                )
            )

    # every VM on exactly one PM
    for v in range(n_v):
        cons.append(
            Constraint(f"one_host_{v}", {_s(v, p): 1.0 for p in range(n_p)}, "=", 1.0)
        )

    # PM activity switch: hosting forces X=1 (big-M = |V|, the tightest valid constant)
    big_m = float(max(n_v, 1))
    for p in range(n_p):
        coeffs = {_s(v, p): 1.0 for v in range(n_v)}
        coeffs[f"X_{p}"] = -big_m
        cons.append(Constraint(f"pm_activity_{p}", coeffs, "<=", 0.0))

    # rack activity switch: any active member PM forces Y=1 (big-M = rack size)
    for rack in dc.racks:
        m = float(len(rack.pm_ids))
        coeffs = {f"X_{p}": 1.0 for p in rack.pm_ids}
        coeffs[f"Y_{rack.id}"] = -m
        cons.append(Constraint(f"rack_activity_{rack.id}", coeffs, "<=", 0.0))

    # pin the indicators so every feasible point decodes uniquely:
    # X complements the dark flags; Y cannot exceed its racks' activity
    for p in range(n_p):
        cons.append(
            Constraint(
                f"x_link_{p}",
                {f"X_{p}": 1.0, f"F00_{p}": 1.0, f"F10_{p}": 1.0},
                "=",
                1.0,
            )
        )
    for rack in dc.racks:
        coeffs = {f"X_{p}": -1.0 for p in rack.pm_ids}
        coeffs[f"Y_{rack.id}"] = 1.0
        cons.append(Constraint(f"y_link_{rack.id}", coeffs, "<=", 0.0))

    definitions: dict[str, tuple[dict[str, float], float]] = {}
    idle_wh, slope_wh, shut = table.idle_wh.tolist(), table.slope_wh.tolist(), table.shut.tolist()

    # per-PM slot energy, Wh; linear because dark PMs carry no assignments
    for p in range(n_p):
        expr = {f"F00_{p}": -idle_wh[p], f"F10_{p}": -idle_wh[p]}
        for v in range(n_v):
            expr[_s(v, p)] = slope_wh[p] * cpu[v]
        definitions[f"Epm_{p}"] = (expr, idle_wh[p])

    # rack slot energy, Wh
    definitions["Erack"] = ({f"Y_{r}": wh for r, wh in enumerate(table.rack_wh.tolist())}, 0.0)

    # migration energy, Wh; the current mapping is data, so this is linear in S
    expr = {}
    for v, row in enumerate(table.mig_wh.tolist()):
        for p, cell in enumerate(row):
            if cell:
                expr[_s(v, p)] = cell
    definitions["Emig"] = (expr, 0.0)

    # reliability cost: lifetime value destroyed by shutdowns, dollars
    definitions["Crel"] = ({f"F10_{p}": shut[p] for p in range(n_p) if online[p]}, 0.0)

    # reliability gain: lifetime value conserved by dark PMs, dollars
    definitions["Grel"] = ({f"{k}_{p}": table.rest for p in range(n_p) for k in ("F00", "F10")}, 0.0)

    for name, (expr, const) in definitions.items():
        coeffs = {name: 1.0}
        for var, coef in expr.items():
            coeffs[var] = coeffs.get(var, 0.0) - coef
        cons.append(Constraint(f"def_{name.lower()}", coeffs, "=", const))

    obj: dict[str, float] = {}
    for p in range(n_p):
        obj[f"Epm_{p}"] = table.ene_scale
    obj["Erack"] = table.ene_scale
    obj["Emig"] = table.ene_scale
    obj["Crel"] = table.rel_scale
    obj["Grel"] = -table.gain_scale

    return MilpModel(
        binary_names=binaries,
        continuous_names=continuous,
        objective=obj,
        constraints=cons,
        definitions=definitions,
        n_vms=n_v,
        n_pms=n_p,
        n_racks=n_r,
    )


def model_stats(model: MilpModel) -> ModelStats:
    return ModelStats(
        n_binary=len(model.binary_names),
        n_continuous=len(model.continuous_names),
        n_constraints=len(model.constraints),
    )


def expected_counts(n_vms: int, n_pms: int, n_racks: int) -> tuple[int, int, int]:
    """(binary, continuous, constraint) counts from the documented closed form."""
    return (
        n_vms * n_pms + 3 * n_pms + n_racks,
        n_pms + 4,
        n_vms * n_pms + n_vms + 7 * n_pms + 2 * n_racks + 4,
    )


# ---------------------------------------------------------------------------
# assignment helpers


def assignment_for_placement(model: MilpModel, dc: DatacenterState, placement: Placement) -> dict[str, float]:
    """Full variable assignment implied by a next-slot placement."""
    flags = derive_transition_flags(dc.current, placement, dc)
    values: dict[str, float] = {}
    for v in range(model.n_vms):
        for p in range(model.n_pms):
            values[_s(v, p)] = float(placement.assign[v, p])
    for p in range(model.n_pms):
        values[f"X_{p}"] = float(flags.x[p])
        values[f"F00_{p}"] = float(flags.f00[p])
        values[f"F10_{p}"] = float(flags.f10[p])
    for r in range(model.n_racks):
        values[f"Y_{r}"] = float(flags.y[r])
    for name, (expr, const) in model.definitions.items():
        values[name] = const + sum(coef * values[var] for var, coef in expr.items())
    return values


def objective_value(model: MilpModel, values: dict[str, float]) -> float:
    return sum(coef * values[name] for name, coef in model.objective.items())


def check_assignment(model: MilpModel, values: dict[str, float], tol: float = 1e-6) -> list[str]:
    """Names of constraints the assignment violates."""
    bad = []
    for con in model.constraints:
        lhs = sum(coef * values.get(var, 0.0) for var, coef in con.coeffs.items())
        ok = (
            lhs <= con.rhs + tol
            if con.sense == "<="
            else lhs >= con.rhs - tol
            if con.sense == ">="
            else abs(lhs - con.rhs) <= tol
        )
        if not ok:
            bad.append(con.name)
    return bad


def decode_placement(model: MilpModel, values: dict[str, float]) -> Placement:
    """Read the assignment matrix out of a solved variable vector."""
    a = np.zeros((model.n_vms, model.n_pms), dtype=np.int8)
    for v in range(model.n_vms):
        for p in range(model.n_pms):
            if values[_s(v, p)] > 0.5:
                a[v, p] = 1
    return Placement(a)


# ---------------------------------------------------------------------------
# LP-format export


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _terms(coeffs: dict[str, float], index: dict[str, int], first: str) -> str:
    """A row's nonzero terms in model variable order; `index` maps name to position."""
    parts = [
        f"{'-' if c < 0 else '+'} {_num(abs(c))} {name}"
        for _, name, c in sorted((index[name], name, c) for name, c in coeffs.items() if c != 0)
    ]
    if not parts:
        return "0 " + first
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def export_lp(model: MilpModel) -> str:
    """Serialize to CPLEX LP format with a fixed variable and constraint order."""
    order = model.var_names
    index = {name: i for i, name in enumerate(order)}
    lines = ["\\ server consolidation model", "Minimize",
             f" obj: {_terms(model.objective, index, order[0])}"]
    lines.append("Subject To")
    for con in model.constraints:
        lines.append(f" {con.name}: {_terms(con.coeffs, index, order[0])} {con.sense} {_num(con.rhs)}")
    lines.append("Bounds")
    for name in model.continuous_names:
        lines.append(f" 0 <= {name}")
    lines.append("Binary")
    for name in model.binary_names:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"
