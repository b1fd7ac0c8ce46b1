"""The three workloads: their inputs, their operations and the checks on
every operation's output.

A workload's `setup(seed)` builds every input and returns the list of
operations; one pass runs each operation once.  `Op.call` is the timed call
into relpack.  `Op.check` runs untimed and returns the operation's
deterministic outcome, or raises `CheckFailed`.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from relpack import cli, costs, milp, sim
from relpack import solver as relpack_solver
from relpack.domain import Placement, validate_placement
from relpack.scenario import load_scenario

import lpfile
from instances import instance_key, paper_instances

# `costs.objective` recompute against the reported objective
OBJ_TOL = 1e-9
# a proven optimum may not sit above the HiGHS optimum by more than this
REF_TOL = 1e-6
# report.csv holds objectives at 6 significant digits
CSV_REL_TOL = 1e-5
CLI_EXPECTED_EXIT = (0, 4)


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], dict]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _node_budget(time_cap: float) -> int:
    rate = getattr(relpack_solver, "NODES_PER_SECOND", 20_000)
    return max(1, int(time_cap * rate))


# ---------------------------------------------------------------------------
# exact solves: paper-bnb and fleet-seeding


class SolveWorkload:
    """One `sim.step` per prebuilt `DatacenterState`: one exact solve."""

    name = ""
    has_refs = False

    def instances(self, seed: int) -> list[tuple[str, sim.Scenario, int]]:
        raise NotImplementedError

    def setup(self, seed: int) -> list[Op]:
        self.items = []
        ops = []
        for label, scenario, s in self.instances(seed):
            state = sim.build_datacenter(scenario, seed=s)
            self.items.append((label, scenario, state))
            ops.append(Op(
                label,
                # look `sim.step` up at call time so tracing can wrap it
                lambda st=state, sc=scenario: sim.step(st, sc),
                lambda result, sc=scenario, st=state: self._check(sc, st, result),
            ))
        self.refs: dict[str, float] = {}
        self._keys: dict[int, str] = {}
        return ops

    def keys(self) -> dict[str, str]:
        """label -> instance key; computed after set-up, outside its timing."""
        self._keys = {id(st): instance_key(sc, st) for _, sc, st in self.items}
        return {label: self._keys[id(st)] for label, _, st in self.items}

    def _check(self, scenario, state, result) -> dict:
        next_state, report = result
        placement = next_state.current
        bad = validate_placement(placement, state)
        if bad:
            raise CheckFailed(f"invalid placement: {bad[0]}")
        mig = sim.migration_model(scenario, state)
        value, _ = costs.objective(state.current, placement, state, scenario.weights,
                                   scenario.reliability, mig)
        value = float(value)
        if abs(value - report.objective) > OBJ_TOL:
            raise CheckFailed(f"objective {report.objective!r} but costs.objective gives {value!r}")
        budget = _node_budget(scenario.time_cap)
        if report.nodes_explored > budget + 1:
            raise CheckFailed(f"{report.nodes_explored} nodes over a budget of {budget}")
        if report.proof not in ("optimal", "time-capped"):
            raise CheckFailed(f"unexpected proof label {report.proof!r}")
        ref = self.refs.get(self._keys.get(id(state)))
        if ref is not None:
            if report.proof == "optimal" and report.objective > ref + REF_TOL:
                raise CheckFailed(f"claims optimal at {report.objective!r}, HiGHS optimum {ref!r}")
            if report.objective < ref - REF_TOL:
                raise CheckFailed(f"objective {report.objective!r} below the proven optimum {ref!r}")
        return {
            "objective": report.objective,
            "proof": report.proof,
            "nodes": report.nodes_explored,
            "gap": None if ref is None else report.objective - ref,
            "digests": {"placement": _digest(placement.hosts().tobytes())},
        }

    def summary(self, outcomes: list[dict]) -> dict:
        gaps = [o["gap"] for o in outcomes if o["gap"] is not None]
        return {
            "optimal_rate": sum(o["proof"] == "optimal" for o in outcomes) / len(outcomes),
            "objective_mean": sum(o["objective"] for o in outcomes) / len(outcomes),
            "ref_gap_max": max(gaps) if gaps else None,
            "ref_count": len(gaps),
        }


class PaperBnb(SolveWorkload):
    """The paper's 12 instances at the 2 s acceptance cap (40k nodes)."""

    name = "paper-bnb"
    has_refs = True

    def instances(self, seed):
        return paper_instances(seed)


class FleetSeeding(SolveWorkload):
    """64-PM / 104-VM default-template fleets at a 1,000-node budget."""

    name = "fleet-seeding"
    N_FLEETS = 5
    TIME_CAP = 0.05

    def instances(self, seed):
        scenario = sim.Scenario(n_racks=16, pms_per_rack=4, n_vms=104, time_cap=self.TIME_CAP)
        return [(f"fleet64-s{s}", scenario, s)
                for s in range(self.N_FLEETS * seed, self.N_FLEETS * (seed + 1))]


# ---------------------------------------------------------------------------
# cli-export


def _csv_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


class CliExport:
    """`relpack.cli.main` in-process: greedy multi-slot solves with LP export,
    and the scaling-curves preset."""

    name = "cli-export"
    has_refs = False
    PMS = (32, 48, 64, 96)
    N_SLOTS = 8
    TIME_CAP = 0.05

    def __init__(self, work: Path):
        self.work = work

    def setup(self, seed: int) -> list[Op]:
        self.work.mkdir(parents=True, exist_ok=True)
        self._verified: dict[str, dict] = {}
        ops = []
        for n_pms in self.PMS:
            path = self.work / f"fleet{n_pms}.yaml"
            path.write_text(
                f"racks: {{count: {n_pms // 4}, pms_per_rack: 4}}\n"
                f"vms: {{count: {math.ceil(1.625 * n_pms)}}}\n"
                f"seed: {seed}\n"
                f"n_slots: {self.N_SLOTS}\n"
                "solver: {kind: greedy}\n"
            )
            out = self.work / f"solve{n_pms}"
            argv = ["solve", "--scenario", str(path), "--out", str(out), "--export-lp"]
            ops.append(Op(f"solve-{n_pms}pm",
                          lambda argv=argv: cli.main(argv),
                          lambda code, p=path, o=out: self._check_solve(p, o, code)))
        out = self.work / "scaling"
        argv = ["experiment", "--preset", "scaling-curves", "--time-cap", str(self.TIME_CAP),
                "--out", str(out)]
        ops.append(Op("scaling-curves", lambda: cli.main(argv),
                      lambda code: self._check_scaling(out, code)))
        return ops

    def _digests(self, out: Path, names) -> dict:
        missing = [n for n in names if not (out / n).is_file()]
        if missing:
            raise CheckFailed(f"missing artifacts {missing}")
        return {n: _digest((out / n).read_bytes()) for n in names}

    @staticmethod
    def _consume(out: Path, names) -> None:
        """Delete checked artifacts, so the next call must write them again."""
        for n in names:
            (out / n).unlink(missing_ok=True)

    def _check_solve(self, scenario_path: Path, out: Path, code) -> dict:
        names = ("model.lp", "report.csv", "placement.csv")
        try:
            if code not in CLI_EXPECTED_EXIT:
                raise CheckFailed(f"exit code {code!r}")
            digests = self._digests(out, names)
            key = str(out)
            if key not in self._verified or self._verified[key]["digests"] != digests:
                # byte-identical artifacts were verified already
                self._verified[key] = self._verify_solve(scenario_path, out, code, digests)
            return self._verified[key]
        finally:
            self._consume(out, names)

    def _verify_solve(self, scenario_path: Path, out: Path, code, digests) -> dict:
        scenario = load_scenario(scenario_path)
        state0 = sim.build_datacenter(scenario)
        mig0 = sim.migration_model(scenario, state0)
        model = milp.build_model(state0, scenario.weights, scenario.reliability, mig0)
        diff = lpfile.model_mismatches(lpfile.parse((out / "model.lp").read_text()), model)
        if diff:
            raise CheckFailed(f"model.lp does not decode to the model: {diff[:3]}")

        # replay the slots and recompute every objective through costs
        state, objectives, proofs = state0, [], []
        for _ in range(scenario.n_slots):
            nxt, report = sim.step(state, scenario)
            if validate_placement(nxt.current, state):
                raise CheckFailed("replayed placement invalid")
            value, _ = costs.objective(state.current, nxt.current, state, scenario.weights,
                                       scenario.reliability, sim.migration_model(scenario, state))
            objectives.append(float(value))
            proofs.append(report.proof)
            state = nxt

        rows = _csv_rows(out / "report.csv")
        slot_rows = [r for r in rows if r.get("seed") != "mean"]
        if len(slot_rows) != scenario.n_slots or len(rows) - len(slot_rows) > 1:
            raise CheckFailed(f"report.csv has {len(rows)} rows for {scenario.n_slots} slots")
        for row, value in zip(slot_rows, objectives):
            if not math.isclose(float(row["objective"]), value, rel_tol=CSV_REL_TOL, abs_tol=1e-12):
                raise CheckFailed(f"report.csv objective {row['objective']} but costs gives {value!r}")

        placed = _csv_rows(out / "placement.csv")
        if len(placed) != scenario.n_vms:
            raise CheckFailed(f"placement.csv has {len(placed)} rows for {scenario.n_vms} VMs")
        hosts = [int(r["pm_id"]) for r in placed]
        if hosts != [int(h) for h in state.current.hosts()]:
            raise CheckFailed("placement.csv differs from the replayed final placement")
        if validate_placement(Placement.from_hosts(hosts, scenario.n_pms), state0):
            raise CheckFailed("placement.csv violates capacity")
        return {
            "exit": code,
            "objective": sum(objectives) / len(objectives),
            "proofs": proofs,
            "digests": digests,
        }

    def _check_scaling(self, out: Path, code) -> dict:
        names = ("scaling.csv", "scaling_model_size.svg", "scaling_runtime.svg")
        try:
            return self._verify_scaling(out, code, names)
        finally:
            self._consume(out, names)

    def _verify_scaling(self, out: Path, code, names) -> dict:
        if code != 0:
            raise CheckFailed(f"exit code {code!r}")
        digests = self._digests(out, names)
        rows = _csv_rows(out / "scaling.csv")
        if len(rows) != len(cli.SCALING_SIZES):
            raise CheckFailed(f"scaling.csv has {len(rows)} rows for {len(cli.SCALING_SIZES)} sizes")
        for row in rows:
            p, r, v = int(row["n_pms"]), int(row["n_racks"]), int(row["n_vms"])
            want = milp.expected_counts(v, p, r)
            got = (int(row["n_binary"]), int(row["n_continuous"]), int(row["n_constraints"]))
            if got != want:
                raise CheckFailed(f"scaling.csv model size {got} for {p} PMs, closed form {want}")
        for name in names[1:]:
            try:
                root = ET.fromstring((out / name).read_text())
            except ET.ParseError as exc:
                raise CheckFailed(f"{name} is not XML: {exc}") from exc
            if not root.tag.endswith("svg"):
                raise CheckFailed(f"{name} root is <{root.tag}>")
        return {"exit": code, "digests": digests}

    def summary(self, outcomes: list[dict]) -> dict:
        solves = [o for o in outcomes if "proofs" in o]
        proofs = [p for o in solves for p in o["proofs"]]
        return {
            "optimal_rate": sum(p == "optimal" for p in proofs) / len(proofs),
            "objective_mean": sum(o["objective"] for o in solves) / len(solves),
            "ref_gap_max": None,
            "ref_count": 0,
        }


def make(name: str, work: Path):
    """The workload called `name`; `work` is its scratch directory."""
    if name == CliExport.name:
        return CliExport(work)
    return {PaperBnb.name: PaperBnb, FleetSeeding.name: FleetSeeding}[name]()

