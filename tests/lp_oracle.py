"""HiGHS oracle for exported LP files: read the file, solve it with scipy.

The file is read by `perfbench/lpfile.py`, which is written from the LP
grammar rather than from the exporter, so solving an exported model is a
genuine round trip through an external representation.  That reader stays
free of scipy because the timed benchmark process uses it too.  It is loaded
by file path, so no other module of `perfbench/` can shadow a module on
`sys.path`.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

_spec = importlib.util.spec_from_file_location(
    "lpfile", Path(__file__).resolve().parents[1] / "perfbench" / "lpfile.py")
lpfile = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = lpfile  # dataclasses look their module up here
_spec.loader.exec_module(lpfile)

parse_lp = lpfile.parse


def solve_lp_text(text: str) -> tuple[float, dict[str, float]]:
    """Parse and solve to proven optimality; returns (objective, assignment)."""
    lp = parse_lp(text)
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
    binary = [col[n] for n in lp.binary]
    ub[binary] = 1.0
    integrality[binary] = 1
    res = milp(c, constraints=LinearConstraint(a, lo, hi), bounds=Bounds(lb, ub),
               integrality=integrality, options={"mip_rel_gap": 0.0})
    if not res.success:
        raise RuntimeError(f"external solver failed: {res.message}")
    return float(res.fun), dict(zip(names, res.x.tolist()))
