"""Spans around the calls into each relpack layer, installed from outside.

`Tracer.install` replaces layer functions and methods by timing wrappers, in
every relpack module namespace that holds them, so calls made through
`from x import f` bindings are caught too.  Spans are kept in flat arrays in
memory and written when the run ends.  A target missing from the checked-out
code is recorded as absent and its metrics are reported as 0.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# "<layer>.<attribute path>": a function of relpack.<layer>, or a method.
TARGETS = [
    "scenario.load_scenario",
    "sim.build_datacenter",
    "sim.step",
    "sim.run",
    "solver.solve_exact",
    "solver.greedy_incumbent",
    "solver._FastEval.__init__",
    "solver._FastEval.objective",
    "solver._candidate_placements",
    "solver._local_search",
    "solver._BranchAndBound.run",
    "solver._BranchAndBound.seed",
    "costs.objective",
    "domain.derive_transition_flags",
    "milp.build_model",
    "milp.export_lp",
    "outputs.write_text",
    "outputs.write_report_csv",
    "outputs.write_placement_csv",
    "outputs.report_row",
    "outputs.mean_row",
    "outputs.svg_line_plot",
    "outputs.svg_bar_plot",
    "cli.main",
]


def _array_equal(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


def _hooks():
    """Numbers and tags read from a span's arguments and result.

    "before"(args) returns a token for "after"(args, result, token), whose
    return value is stored with the span; "tag"(args) labels the span.
    """
    return {
        # nodes this search explored
        "solver._BranchAndBound.run": {"after": lambda a, r, t: a[0].nodes},
        # 1 if the offered placement replaced the incumbent
        "solver._BranchAndBound.seed": {
            "before": lambda a: a[0].best_hosts,
            "after": lambda a, r, t: float(a[0].best_hosts is not t),
        },
        # 1 if local search moved away from its starting placement
        "solver._local_search": {"after": lambda a, r, t: float(not _array_equal(r, a[0]))},
        "solver._candidate_placements": {"after": lambda a, r, t: len(r)},
        "milp.export_lp": {"after": lambda a, r, t: len(r)},
        "milp.build_model": {"after": lambda a, r, t: len(r.constraints)},
        "outputs.write_text": {"after": lambda a, r, t: len(a[1]),
                               "tag": lambda a: Path(a[0]).suffix},
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.active = False
        self.tags: dict[int, str] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target of the imported relpack package."""
        modules = [m for n, m in sys.modules.items()
                   if n == "relpack" or n.startswith("relpack.")]
        hooks = _hooks()
        for span in TARGETS:
            mod_name, path = span.split(".", 1)
            mod = sys.modules.get(f"relpack.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(span)
                continue
            wrapped = self._wrap(span, fn, **hooks.get(span, {}))
            if owner_name:  # a method: patch the class
                self._patch(owner, attr, wrapped)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def _wrap(self, span: str, fn, before=None, after=None, tag=None):
        nid = len(self.names)
        self.names.append(span)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.value.append(0.0)
            if tag:
                self.tags[idx] = tag(args)
            token = before(args) if before else None
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after:
                self.value[idx] = after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\top\tname\tstart\tend\tvalue\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                        f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.value[i]:g}\n")


class Spans:
    """Vector view of the recorded spans, with self time per span."""

    def __init__(self, tr: Tracer):
        self.names = tr.names
        self.tags = tr.tags
        self.name = np.array(tr.name, dtype=np.int64)
        self.parent = np.array(tr.parent, dtype=np.int64)
        self.op = np.array(tr.op, dtype=np.int64)
        self.value = np.array(tr.value, dtype=float)
        self.dur = np.array(tr.end, dtype=float) - np.array(tr.start, dtype=float)
        child = np.zeros(len(self.dur))
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_time = self.dur - child
        self.parent_name = np.where(has, self.name[np.maximum(self.parent, 0)], -1)

    def _id(self, span: str) -> int:
        return self.names.index(span) if span in self.names else -2

    def of(self, span: str, timed_only: bool = True) -> np.ndarray:
        """Mask of the spans named `span`, by default only in timed operations."""
        m = self.name == self._id(span)
        return m & (self.op >= 0) if timed_only else m

    def under(self, span: str, parent_span: str) -> np.ndarray:
        """Spans named `span` whose direct parent is named `parent_span`."""
        return self.of(span) & (self.parent_name == self._id(parent_span))

    def top_level(self, span: str) -> np.ndarray:
        """Spans named `span` not called directly from a span of the same layer."""
        layer = span.split(".", 1)[0] + "."
        same = [i for i, n in enumerate(self.names) if n.startswith(layer)]
        return self.of(span) & ~np.isin(self.parent_name, same)

    def tagged(self, mask: np.ndarray, tag: str) -> np.ndarray:
        idx = np.nonzero(mask)[0]
        keep = np.array([self.tags.get(int(i)) == tag for i in idx], dtype=bool)
        out = np.zeros_like(mask)
        out[idx[keep]] = True
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric -> (unit, spans that must exist in the code to measure it)
LAYER_METRICS = {
    "solver.bnb_s": ("s/op", ["solver._BranchAndBound.run"]),
    "solver.bnb_nodes": ("count/op", ["solver._BranchAndBound.run"]),
    "solver.bnb_us_per_node": ("us", ["solver._BranchAndBound.run"]),
    "solver.leaf_evals": ("count/op", ["solver._BranchAndBound.run", "solver._FastEval.objective"]),
    "solver.eval_calls": ("count/op", ["solver._FastEval.objective"]),
    "solver.eval_s": ("s/op", ["solver._FastEval.objective"]),
    "solver.bnb_improve_ratio": ("share", ["solver._BranchAndBound.run", "solver._BranchAndBound.seed",
                                           "solver._FastEval.objective"]),
    "solver.candidates_s": ("s/op", ["solver._candidate_placements"]),
    "solver.candidates_n": ("count/op", ["solver._candidate_placements"]),
    "solver.local_search_s": ("s/op", ["solver._local_search"]),
    "solver.local_search_calls": ("count/op", ["solver._local_search"]),
    "solver.ls_improve_ratio": ("share", ["solver._local_search"]),
    "solver.fasteval_init_s": ("s/op", ["solver._FastEval.__init__"]),
    "solver.solve_s": ("s/op", ["solver.solve_exact"]),
    "solver.solve_self_share": ("share", ["solver.solve_exact"]),
    "costs.objective_calls": ("count/op", ["costs.objective"]),
    "costs.objective_s": ("s/op", ["costs.objective"]),
    "milp.build_s": ("s/op", ["milp.build_model"]),
    "milp.export_s": ("s/op", ["milp.export_lp"]),
    "milp.lp_bytes": ("B/op", ["milp.export_lp"]),
    "milp.constraints": ("count/op", ["milp.build_model"]),
    "outputs.csv_s": ("s/op", ["outputs.write_text"]),
    "outputs.svg_s": ("s/op", ["outputs.write_text"]),
    "outputs.bytes": ("B/op", ["outputs.write_text"]),
    "scenario.load_s": ("s/op", ["scenario.load_scenario"]),
    "cli.main_self_s": ("s/op", ["cli.main"]),
    "sim.build_datacenter_s": ("s/call", ["sim.build_datacenter"]),
    "sim.step_self_s": ("s/op", ["sim.step"]),
    "sim.slots": ("count/op", ["sim.step"]),
    "domain.flags_s": ("s/op", ["domain.derive_transition_flags"]),
}

LAYER_UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
LAYER_UNITS.update({"trace.untraced_ops_per_s": "ops/s", "trace.ops_per_s": "ops/s",
                    "trace.overhead_share": "share"})

CSV_SPANS = ("outputs.write_report_csv", "outputs.write_placement_csv",
             "outputs.report_row", "outputs.mean_row")
SVG_SPANS = ("outputs.svg_line_plot", "outputs.svg_bar_plot")


def layer_metrics(tr: Tracer, n_ops: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers over the `n_ops` traced timed operations.

    Times and counts are per operation, except `sim.build_datacenter_s`,
    which is per call and includes the traced set-up.  Returns the metrics
    and the names of those whose spans are absent from the code (reported 0).
    """
    s = Spans(tr)
    n = max(n_ops, 1)

    def dur(m):
        return float(s.dur[m].sum())

    def val(m):
        return float(s.value[m].sum())

    bnb = s.of("solver._BranchAndBound.run")
    leaf = s.under("solver._FastEval.objective", "solver._BranchAndBound.run")
    improved = s.under("solver._BranchAndBound.seed", "solver._BranchAndBound.run")
    ls = s.of("solver._local_search")
    cands = s.of("solver._candidate_placements")
    evals = s.of("solver._FastEval.objective")
    solves = s.of("solver.solve_exact")
    writes = s.top_level("outputs.write_text")
    builds = s.of("sim.build_datacenter", timed_only=False)
    csv_s = sum(dur(s.top_level(x)) for x in CSV_SPANS) + dur(s.tagged(writes, ".csv"))
    svg_s = sum(dur(s.top_level(x)) for x in SVG_SPANS) + dur(s.tagged(writes, ".svg"))

    out = {
        "solver.bnb_s": dur(bnb) / n,
        "solver.bnb_nodes": val(bnb) / n,
        "solver.bnb_us_per_node": 1e6 * _ratio(dur(bnb), val(bnb)),
        "solver.leaf_evals": leaf.sum() / n,
        "solver.eval_calls": evals.sum() / n,
        "solver.eval_s": dur(evals) / n,
        "solver.bnb_improve_ratio": _ratio(val(improved), leaf.sum()),
        "solver.candidates_s": dur(cands) / n,
        "solver.candidates_n": val(cands) / n,
        "solver.local_search_s": dur(ls) / n,
        "solver.local_search_calls": ls.sum() / n,
        "solver.ls_improve_ratio": _ratio(val(ls), ls.sum()),
        "solver.fasteval_init_s": dur(s.of("solver._FastEval.__init__")) / n,
        "solver.solve_s": (dur(solves) + dur(s.of("solver.greedy_incumbent"))) / n,
        "solver.solve_self_share": float((s.self_time[solves] / s.dur[solves]).max()) if solves.any() else 0.0,
        "costs.objective_calls": s.of("costs.objective").sum() / n,
        "costs.objective_s": dur(s.of("costs.objective")) / n,
        "milp.build_s": dur(s.of("milp.build_model")) / n,
        "milp.export_s": dur(s.of("milp.export_lp")) / n,
        "milp.lp_bytes": val(s.of("milp.export_lp")) / n,
        "milp.constraints": val(s.of("milp.build_model")) / n,
        "outputs.csv_s": csv_s / n,
        "outputs.svg_s": svg_s / n,
        "outputs.bytes": val(s.of("outputs.write_text")) / n,
        "scenario.load_s": dur(s.of("scenario.load_scenario")) / n,
        "cli.main_self_s": float(s.self_time[s.of("cli.main")].sum()) / n,
        "sim.build_datacenter_s": _ratio(dur(builds), builds.sum()),
        "sim.step_self_s": float(s.self_time[s.of("sim.step")].sum()) / n,
        "sim.slots": s.of("sim.step").sum() / n,
        "domain.flags_s": dur(s.top_level("domain.derive_transition_flags")) / n,
    }
    out = {k: float(v) for k, v in out.items()}
    absent = sorted(name for name, (_, needs) in LAYER_METRICS.items()
                    if any(span in tr.absent for span in needs))
    for name in absent:
        out[name] = 0.0
    return out, absent
