"""The paper-bnb instances and their identity, shared by the benchmark and the
HiGHS reference solver.  Importing this module imports relpack but not scipy.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from relpack import cli, sim

# Acceptance cap of the paper experiments: 2 s, i.e. a 40k-node budget.
PAPER_TIME_CAP = 2.0
# The workload seed picks one of this many instance sets, all with pinned
# HiGHS optima; a reference costs up to ~3 min of HiGHS per set.
PAPER_SETS = 10
ALPHAS = (0.0, 0.5, 1.0)


def paper_instances(seed: int) -> list[tuple[str, sim.Scenario, int]]:
    """(label, scenario, simulation seed) for the 12 paper-scale instances.

    Set 0 is the presets' default: weights-table seeds 0 and 1, alpha-sweep
    seed 0.  Set k uses seeds 2k, 2k + 1 and 2k.
    """
    base = 2 * (seed % PAPER_SETS)
    out = []
    for alpha, beta, gamma in cli.WEIGHT_SETTINGS:
        scenario = cli.weights_table_scenario(alpha, beta, gamma, PAPER_TIME_CAP)
        for s in (base, base + 1):
            out.append((f"wt-{alpha:g}-{beta:g}-{gamma:g}-s{s}", scenario, s))
    for shape, n_racks, n_vms in cli.ALPHA_SWEEP_SHAPES:
        for alpha in ALPHAS:
            scenario = cli.alpha_sweep_scenario(n_racks, n_vms, alpha, PAPER_TIME_CAP)
            out.append((f"as-{shape}-a{alpha:g}-s{base}", scenario, base))
    return out


def instance_key(scenario: sim.Scenario, state) -> str:
    """Digest of everything that defines the optimisation instance.

    A pinned reference is used only for an instance whose key matches, so a
    change to instance generation can never pair a stale optimum with it.
    """
    doc = {
        "racks": [asdict(r) for r in state.racks],
        "pms": [asdict(p) for p in state.pms],
        "vms": [asdict(v) for v in state.vms],
        "hosts": [int(h) for h in state.current.hosts()],
        "weights": asdict(scenario.weights),
        "reliability": asdict(scenario.reliability),
        "kappa": scenario.kappa,
        "pods": scenario.n_pods,
    }
    text = json.dumps(doc, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
