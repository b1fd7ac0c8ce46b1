"""Compare the benchmark's deterministic outcomes with tests/data/golden_outcomes.json.

    python -m pytest perfbench/test_repeat.py          # writes perfbench/out/test_repeat/
    python tests/golden_outcomes.py check perfbench/out/test_repeat
    python tests/golden_outcomes.py write perfbench/out/test_repeat   # re-pin, on purpose only

Each workload's record `<workload>-1.json` (seed 0) holds one outcome per
operation.  The golden file keeps, per operation, the objective's repr, the
proof label or labels, the work units, the exit code and the artifact
digests (placement, LP, CSV, SVG).  A change that moves any of them fails
`check`, which prints every operation that differs.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_outcomes.json"
WORKLOADS = ("paper-bnb", "fleet-seeding", "cli-export")
KEPT = ("objective", "proof", "proofs", "nodes", "exit", "digests")


def pinned(outcome: dict) -> dict:
    """The fields of one outcome that the golden file pins."""
    out = {k: outcome[k] for k in KEPT if k in outcome}
    if "objective" in out:
        out["objective"] = repr(out["objective"])
    return out


def outcomes(records: Path) -> dict:
    """workload -> operation -> pinned outcome, from the first run's records."""
    found = {}
    for workload in WORKLOADS:
        record = json.loads((records / f"{workload}-1.json").read_text())
        found[workload] = {label: pinned(o) for label, o in record["outcomes"].items()}
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("check", "write"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    found = outcomes(Path(argv[1]))
    if argv[0] == "write":
        GOLDEN.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
        return 0
    golden = json.loads(GOLDEN.read_text())
    diffs = [
        f"{workload} {label}: {golden[workload].get(label)} != {found[workload].get(label)}"
        for workload in WORKLOADS
        for label in sorted(set(golden[workload]) | set(found[workload]))
        if golden[workload].get(label) != found[workload].get(label)
    ]
    for line in diffs:
        print(line)
    print(f"{len(diffs)} operations differ from {GOLDEN.name}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
