"""Two runs of the same code must agree exactly on every deterministic outcome:
objectives, proof labels, node counts, gaps to the HiGHS optima, the quality
metrics and the digests of every artifact (placement, LP, CSV, SVG).

    python3 -m pytest perfbench/test_repeat.py     # about 3 minutes
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _run(workload: str, record: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--record", str(record)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return json.loads(record.read_text())


@pytest.mark.parametrize("workload", ["paper-bnb", "fleet-seeding", "cli-export"])
def test_two_runs_match_exactly(workload):
    out = HERE / "out" / "test_repeat"
    first = _run(workload, out / f"{workload}-1.json")
    second = _run(workload, out / f"{workload}-2.json")
    assert first["outcomes"] == second["outcomes"]
    assert first["quality"] == second["quality"]
    assert first["quality"]["failed_share"] == 0
