"""Exact MILP formulation of the consolidation problem, plus LP-format export.

The model is linear by construction: the bilinear product between a PM's
on/off state and its load-dependent power vanishes at every integer-feasible
point, because the assignment columns of a dark PM are forced to zero.  The
activity indicators are pinned to the assignment (not just bounded by it) so
that every integer-feasible point decodes to a unique placement with the
same objective value.

The constraints are one sparse coefficient matrix in CSR form over the
variables in their fixed order: S_v_p (VM-major), X_p, Y_r, F00_p, F10_p,
then Epm_p, Erack, Emig, Crel and Grel.  `build_model` fills it one
constraint family at a time with numpy blocks, and every row's columns are
in strictly increasing variable order by construction, so the LP export
writes rows straight from the arrays without sorting.  The V x P name
families join a per-VM prefix to a per-PM suffix rather than format each
cell.  The export formats each distinct coefficient once and picks every
term's text by that value's rank among the distinct ones.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import costs as C
from .domain import PACKED_RESOURCES, DatacenterState, Placement, StructuralError, derive_transition_flags


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict[str, float]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass
class MilpModel:
    """min cost @ x subject to, for each row i, A[i] @ x (sense[i]) rhs[i].

    A is stored in CSR form: row i's entries are cols[indptr[i]:indptr[i+1]]
    and vals[indptr[i]:indptr[i+1]], its columns strictly increasing.  Zero
    coefficients are kept in the matrix and dropped by the export.  The last
    len(continuous_names) rows define the continuous variables, in order.
    """

    binary_names: list[str]
    continuous_names: list[str]
    cost: np.ndarray       # [var] objective coefficient
    row_names: list[str]
    senses: list[str]      # [row] "<=", ">=" or "="
    rhs: np.ndarray        # [row]
    indptr: np.ndarray     # [row + 1]
    cols: np.ndarray       # [entry] variable index
    vals: np.ndarray       # [entry] coefficient
    n_vms: int
    n_pms: int

    @property
    def var_names(self) -> list[str]:
        return self.binary_names + self.continuous_names

    @property
    def objective(self) -> dict[str, float]:
        """Nonzero objective coefficients by variable name."""
        names = self.var_names
        return {names[i]: float(self.cost[i]) for i in np.flatnonzero(self.cost)}

    @property
    def constraints(self) -> Sequence[Constraint]:
        """The rows as `Constraint`s, read-only, each built when it is read."""
        return _RowView(self)

    def row_values(self, x: np.ndarray) -> np.ndarray:
        """A @ x: every row's left-hand side at the point `x`."""
        rows = np.repeat(np.arange(len(self.row_names)), np.diff(self.indptr))
        return np.bincount(rows, weights=self.vals * x[self.cols], minlength=len(self.row_names))


class _RowView(Sequence):
    """A model's rows as `Constraint`s: zero coefficients included, Python floats."""

    def __init__(self, model: MilpModel):
        self._model = model

    def __len__(self) -> int:
        return len(self._model.row_names)

    @cached_property
    def _lists(self) -> tuple[list, list, list, list, list]:
        m = self._model
        return m.var_names, m.cols.tolist(), m.vals.tolist(), m.indptr.tolist(), m.rhs.tolist()

    def __getitem__(self, i: int) -> Constraint:
        names, cols, vals, ptr, rhs = self._lists
        i = range(len(self))[i]
        a, b = ptr[i], ptr[i + 1]
        coeffs = {names[c]: v for c, v in zip(cols[a:b], vals[a:b])}
        return Constraint(self._model.row_names[i], coeffs, self._model.senses[i], rhs[i])


class _Rows:
    """The constraint matrix, appended one family of rows at a time."""

    def __init__(self):
        self.names: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[np.ndarray] = []
        self.lens: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []

    def add(self, names: list[str], sense: str, rhs, cols, vals) -> None:
        """Rows `names`: `cols` is an (n, k) block, each row's columns
        increasing; `vals` broadcasts to it."""
        cols = np.asarray(cols)
        n = len(names)
        self.names += names
        self.senses += [sense] * n
        self.rhs.append(np.broadcast_to(np.asarray(rhs, dtype=float), (n,)))
        self.lens.append(np.full(n, cols.shape[1]))
        self.cols.append(cols.ravel())
        self.vals.append(np.broadcast_to(np.asarray(vals, dtype=float), cols.shape).ravel())

    def define(self, names: list[str], var, expr_cols, expr_vals, const) -> None:
        """Rows `var - expr = const` defining each continuous `var`; every
        column of `expr` precedes `var`."""
        cols = np.column_stack([expr_cols, var])
        vals = np.column_stack([0.0 - np.asarray(expr_vals), np.ones(len(names))])
        self.add(names, "=", const, cols, vals)

    def matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rhs, indptr, cols, vals)."""
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(self.lens))])
        return (np.concatenate(self.rhs), indptr,
                np.concatenate(self.cols).astype(np.int64), np.concatenate(self.vals))


def _grid_names(family: str, n_vms: int, n_pms: int) -> list[str]:
    """`{family}_{v}_{p}` for every VM v and PM p, VM-major."""
    suffixes = [str(p) for p in range(n_pms)]
    return [prefix + s for prefix in [f"{family}_{v}_" for v in range(n_vms)] for s in suffixes]


def build_model(
    dc: DatacenterState,
    weights: C.CostWeights,
    params: C.ReliabilityParams,
    mig_model: C.MigrationCostModel,
) -> MilpModel:
    """Assemble the full model for deciding the next slot's placement."""
    n_v, n_p, n_r = dc.n_vms, dc.n_pms, dc.n_racks
    table = C.cost_table(dc, weights, params, mig_model)

    pms, vms, racks = range(n_p), range(n_v), range(n_r)
    binaries = (
        _grid_names("S", n_v, n_p)
        + [f"X_{p}" for p in pms]
        + [f"Y_{r}" for r in racks]
        + [f"F00_{p}" for p in pms]
        + [f"F10_{p}" for p in pms]
    )
    continuous = [f"Epm_{p}" for p in pms] + ["Erack", "Emig", "Crel", "Grel"]

    # column of each variable
    n_s = n_v * n_p
    S = np.arange(n_s).reshape(n_v, n_p)
    X = n_s + np.arange(n_p)
    Y = n_s + n_p + np.arange(n_r)
    F00 = n_s + n_p + n_r + np.arange(n_p)
    F10 = F00 + n_p
    EPM = F10 + n_p
    ERACK, EMIG, CREL, GREL = n_s + 4 * n_p + n_r + np.arange(4)

    rows = _Rows()
    online = dc.online_now()
    cpu = dc.demands("cpu")

    # transition flags consistent with the current slot's on/off states
    rows.add([f"fix_f10_{p}" if not online[p] else f"fix_f00_{p}" for p in pms], "=", 0.0,
             np.where(online, F00, F10)[:, None], 1.0)

    # a dark PM hosts nothing...
    rows.add(_grid_names("dark_pm_empty", n_v, n_p), "<=", 1.0,
             np.column_stack([S.ravel(), np.tile(F00, n_v), np.tile(F10, n_v)]), 1.0)
    # ...and an empty PM must be dark
    rows.add([f"empty_pm_dark_{p}" for p in pms], ">=", 1.0, np.column_stack([S.T, F00, F10]), 1.0)

    # capacity per packed resource
    for resource in PACKED_RESOURCES:
        rows.add([f"cap_{resource}_{p}" for p in pms], "<=", dc.capacities(resource),
                 S.T, dc.demands(resource))

    # every VM on exactly one PM
    rows.add([f"one_host_{v}" for v in vms], "=", 1.0, S, 1.0)

    # PM activity switch: hosting forces X=1 (big-M = |V|, the tightest valid constant)
    big_m = float(max(n_v, 1))
    rows.add([f"pm_activity_{p}" for p in pms], "<=", 0.0,
             np.column_stack([S.T, X]), np.append(np.ones(n_v), -big_m))

    # rack rows: each rack's PM columns in increasing order, then the rack's Y column
    racked = [(rack.id, X[np.sort(rack.pm_ids)]) for rack in dc.racks]

    # rack activity switch: any active member PM forces Y=1 (big-M = rack size)
    for r, xs in racked:
        rows.add([f"rack_activity_{r}"], "<=", 0.0, [np.append(xs, Y[r])],
                 np.append(np.ones(len(xs)), -float(len(xs))))

    # pin the indicators so every feasible point decodes uniquely:
    # X complements the dark flags; Y cannot exceed its racks' activity
    rows.add([f"x_link_{p}" for p in pms], "=", 1.0, np.column_stack([X, F00, F10]), 1.0)
    for r, xs in racked:
        rows.add([f"y_link_{r}"], "<=", 0.0, [np.append(xs, Y[r])], np.append(-np.ones(len(xs)), 1.0))

    # per-PM slot energy, Wh; linear because dark PMs carry no assignments
    idle_wh = table.idle_wh
    rows.define([f"def_epm_{p}" for p in pms], EPM, np.column_stack([S.T, F00, F10]),
                np.column_stack([table.slope_wh[:, None] * cpu, -idle_wh, -idle_wh]), idle_wh)

    # rack slot energy, Wh
    rows.define(["def_erack"], [ERACK], Y[None, :], table.rack_wh[None, :], 0.0)

    # migration energy, Wh; the current mapping is data, so this is linear in S
    mig_wh = table.mig_wh.ravel()
    moves = np.flatnonzero(mig_wh)
    rows.define(["def_emig"], [EMIG], moves[None, :], mig_wh[moves][None, :], 0.0)

    # reliability cost: lifetime value destroyed by shutdowns, dollars
    rows.define(["def_crel"], [CREL], F10[online][None, :], table.shut[online][None, :], 0.0)

    # reliability gain: lifetime value conserved by dark PMs, dollars
    rows.define(["def_grel"], [GREL], np.concatenate([F00, F10])[None, :],
                np.full((1, 2 * n_p), table.rest), 0.0)

    cost = np.zeros(len(binaries) + len(continuous))
    cost[EPM] = table.ene_scale
    cost[[ERACK, EMIG, CREL, GREL]] = [table.ene_scale, table.ene_scale,
                                       table.rel_scale, -table.gain_scale]

    rhs, indptr, cols, vals = rows.matrix()
    return MilpModel(
        binary_names=binaries,
        continuous_names=continuous,
        cost=cost,
        row_names=rows.names,
        senses=rows.senses,
        rhs=rhs,
        indptr=indptr,
        cols=cols,
        vals=vals,
        n_vms=n_v,
        n_pms=n_p,
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
    n_bin, n_cont = len(model.binary_names), len(model.continuous_names)
    x = np.zeros(n_bin + n_cont)
    x[np.arange(model.n_vms) * model.n_pms + placement.hosts()] = 1.0  # S, VM-major
    x[model.n_vms * model.n_pms:n_bin] = np.concatenate([flags.x, flags.y, flags.f00, flags.f10])
    # each defining row reads `var - expr = const`; with var at 0 it holds -expr
    x[n_bin:] = model.rhs[-n_cont:] - model.row_values(x)[-n_cont:]
    return dict(zip(model.var_names, x.tolist()))


def objective_value(model: MilpModel, values: dict[str, float]) -> float:
    cols = np.flatnonzero(model.cost)
    names = model.var_names
    return float(model.cost[cols] @ np.array([values[names[c]] for c in cols], dtype=float))


def check_assignment(model: MilpModel, values: dict[str, float], tol: float = 1e-6) -> list[str]:
    """Names of constraints the assignment violates."""
    lhs = model.row_values(np.array([values.get(n, 0.0) for n in model.var_names], dtype=float))
    sense = np.array(model.senses)
    ok = np.where(sense == "<=", lhs <= model.rhs + tol,
                  np.where(sense == ">=", lhs >= model.rhs - tol, np.abs(lhs - model.rhs) <= tol))
    return [model.row_names[i] for i in np.flatnonzero(~ok)]


def decode_placement(model: MilpModel, values: dict[str, float]) -> Placement:
    """Read the placement out of a solved variable vector; a VM whose S value
    exceeds 0.5 on no PM or on several raises StructuralError."""
    s = np.array([values[n] for n in model.binary_names[:model.n_vms * model.n_pms]], dtype=float)
    s = s.reshape(model.n_vms, model.n_pms) > 0.5
    bad = np.flatnonzero(s.sum(axis=1) != 1)
    if bad.size:
        v = int(bad[0])
        raise StructuralError(f"vm {v}: the solution puts it on {int(s[v].sum())} PMs, not one")
    return Placement.from_hosts(s.argmax(axis=1), model.n_pms)


# ---------------------------------------------------------------------------
# LP-format export


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _formatted(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(`_num` of each distinct value, index of each value's text).

    The index is each value's rank among the sorted distinct values, found by
    binary search; a model has a handful of distinct coefficients, so this
    costs far less than sorting the positions of every value.
    """
    distinct = np.unique(values)
    return [_num(v) for v in distinct.tolist()], np.searchsorted(distinct, values)


def _row_texts(indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray, spaced: list[str]) -> list[str]:
    """Each CSR row's nonzero terms as LP text, in column order, given each
    variable's name after a space; a row without terms reads `0 <first
    variable>`."""
    keep = vals != 0
    kept = np.concatenate([[0], np.cumsum(keep)])  # nonzero terms ahead of each entry
    starts, ends = kept[indptr[:-1]], kept[indptr[1:]]
    cols, vals = cols[keep], vals[keep]
    text, inverse = _formatted(np.abs(vals))
    # the text alternates coefficient and name pieces; a row's leading
    # coefficient drops its separator, and its sign too if positive
    forms = np.array([f for t in text for f in (" + " + t, " - " + t, t, "- " + t)], dtype=object)
    pick = 4 * inverse + (vals < 0)
    pick[starts[starts < ends]] += 2
    pieces = np.empty(2 * len(cols), dtype=object)
    pieces[0::2] = forms[pick]
    pieces[1::2] = np.array(spaced, dtype=object)[cols]
    pieces = pieces.tolist()
    empty = "0" + spaced[0]
    return ["".join(pieces[2 * a:2 * b]) if a < b else empty for a, b in zip(starts.tolist(), ends.tolist())]


def export_lp(model: MilpModel) -> str:
    """Serialize to CPLEX LP format with a fixed variable and constraint order."""
    spaced = [" " + name for name in model.var_names]
    # the objective is row 0, ahead of the constraint rows
    obj = np.flatnonzero(model.cost)
    texts = _row_texts(np.concatenate([[0], len(obj) + model.indptr]),
                       np.concatenate([obj, model.cols]),
                       np.concatenate([model.cost[obj], model.vals]), spaced)
    rhs_text, rhs_at = _formatted(model.rhs)
    lines = ["\\ server consolidation model", "Minimize", f" obj: {texts[0]}", "Subject To"]
    lines += [
        f" {name}: {text} {sense} {rhs_text[i]}"
        for name, text, sense, i in zip(model.row_names, texts[1:], model.senses, rhs_at.tolist())
    ]
    n_bin = len(model.binary_names)
    lines.append("Bounds")
    lines += [" 0 <=" + name for name in spaced[n_bin:]]
    lines.append("Binary")
    lines += spaced[:n_bin]
    lines.append("End")
    return "\n".join(lines) + "\n"
