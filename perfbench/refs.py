"""HiGHS reference optima for the paper-bnb instances.

Each instance is exported with `relpack.milp.export_lp`, read back with the
benchmark's own LP reader and solved by scipy's HiGHS to a zero relative gap,
as `tests/lp_oracle.py` does.  This module imports scipy, so it only ever runs
in a process of its own, never in the one that times the solver.

    python3 perfbench/refs.py --pin 0-9       # (re)write refs.json for sets 0..9
    python3 perfbench/refs.py --check         # recompute every pinned optimum
    python3 perfbench/refs.py --seed 3 --missing   # JSON for unpinned instances
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"
# Deterministic HiGHS effort cap for instances without a pinned optimum, so a
# run never spends minutes here.  An instance HiGHS does not close within it
# has no reference.
MISSING_NODE_LIMIT = 1
# Pinned optima are recomputed by the same solver on the same LP text.
CHECK_TOL = 1e-9


def load_pinned() -> dict:
    if not REFS_PATH.exists():
        return {}
    return json.loads(REFS_PATH.read_text())["instances"]


def solve_lp(text: str, node_limit: int | None = None) -> float | None:
    """Proven optimum of an LP file, or None if HiGHS stopped before proving one."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    import lpfile

    lp = lpfile.parse(text)
    names = lp.variables()
    col = {n: i for i, n in enumerate(names)}
    c = np.zeros(len(names))
    for n, v in lp.objective.items():
        c[col[n]] = v
    rows, cols, vals, lo, hi = [], [], [], [], []
    for i, (_, coeffs, sense, rhs) in enumerate(lp.constraints):
        for n, v in coeffs.items():
            rows.append(i)
            cols.append(col[n])
            vals.append(v)
        lo.append(-np.inf if sense == "<=" else rhs)
        hi.append(np.inf if sense == ">=" else rhs)
    a = coo_array((vals, (rows, cols)), shape=(len(lp.constraints), len(names))).tocsr()
    lb = np.array([lp.lower.get(n, 0.0) for n in names])
    ub = np.full(len(names), np.inf)
    integrality = np.zeros(len(names))
    for n in lp.binary:
        ub[col[n]] = 1.0
        integrality[col[n]] = 1
    options = {"mip_rel_gap": 0.0}
    if node_limit is not None:
        options["node_limit"] = node_limit
    res = milp(c, constraints=LinearConstraint(a, lo, hi), bounds=Bounds(lb, ub),
               integrality=integrality, options=options)
    if res.status == 0:
        return float(res.fun)
    if res.status == 1 or "limit" in str(res.message).lower():
        return None
    raise RuntimeError(f"HiGHS failed: {res.message}")


def _instance_lp(scenario, state) -> str:
    from relpack import milp, sim

    mig = sim.migration_model(scenario, state)
    return milp.export_lp(milp.build_model(state, scenario.weights, scenario.reliability, mig))


def _instances(seed: int):
    from relpack import sim

    from instances import instance_key, paper_instances

    for label, scenario, s in paper_instances(seed):
        state = sim.build_datacenter(scenario, seed=s)
        yield label, scenario, state, instance_key(scenario, state)


def pin(sets: list[int]) -> None:
    pinned = load_pinned()
    for k in sets:
        for label, scenario, state, key in _instances(k):
            if key in pinned:
                continue
            t0 = time.perf_counter()
            value = solve_lp(_instance_lp(scenario, state))
            pinned[key] = {"set": k, "label": label, "objective": value,
                           "highs_s": round(time.perf_counter() - t0, 2)}
            print(f"set {k} {label}: {value!r}", flush=True)
            _write(pinned)


def _write(pinned: dict) -> None:
    doc = {
        "solver": "scipy.optimize.milp (HiGHS), mip_rel_gap=0",
        "instances": dict(sorted(pinned.items(), key=lambda kv: (kv[1]["set"], kv[1]["label"]))),
    }
    tmp = REFS_PATH.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    os.replace(tmp, REFS_PATH)


def check(sets: list[int] | None = None) -> int:
    """Recompute the pinned optima of `sets` (all by default); 1 if any differs."""
    pinned = load_pinned()
    bad = 0
    for k in sets if sets is not None else sorted({e["set"] for e in pinned.values()}):
        for label, scenario, state, key in _instances(k):
            want = pinned.get(key)
            if want is None:
                print(f"MISSING set {k} {label} ({key})", flush=True)
                bad += 1
                continue
            got = solve_lp(_instance_lp(scenario, state))
            ok = got is not None and abs(got - want["objective"]) <= CHECK_TOL
            bad += not ok
            print(f"{'ok  ' if ok else 'DIFF'} set {k} {label}: pinned {want['objective']!r} "
                  f"recomputed {got!r}", flush=True)
    print(f"{bad} pinned references differ or are missing")
    return 1 if bad else 0


def missing(seed: int) -> dict:
    """References for the seed's instances that have no pinned optimum."""
    pinned = load_pinned()
    out = {}
    for _, scenario, state, key in _instances(seed):
        if key not in pinned:
            out[key] = solve_lp(_instance_lp(scenario, state), MISSING_NODE_LIMIT)
    return out


def _sets(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pin", type=_sets, help="instance sets to solve and pin, e.g. 0-9")
    ap.add_argument("--check", action="store_true", help="recompute and compare pinned optima")
    ap.add_argument("--sets", type=_sets, help="instance sets for --check (default: all pinned)")
    ap.add_argument("--seed", type=int, help="workload seed for --missing")
    ap.add_argument("--missing", action="store_true", help="print references for unpinned instances")
    args = ap.parse_args(argv)
    if args.pin is not None:
        pin(args.pin)
        return 0
    if args.check:
        return check(args.sets)
    if args.missing and args.seed is not None:
        print(json.dumps(missing(args.seed)))
        return 0
    ap.error("choose --pin, --check or --seed N --missing")
    return 2


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    raise SystemExit(main())
