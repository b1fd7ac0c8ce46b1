"""relpack benchmark: plan quality and solve throughput on three workloads.

    python3 perfbench/run.py --workload paper-bnb --seed 0 --seconds 30 --trace 0

One process, one thread, a closed loop: one operation at a time, the next
starting when the previous one returns.  The run

1. imports relpack and builds every input of the workload from `--seed`,
   timing this set-up, then repeats it in fresh processes (`setup_s` is the
   median);
2. gets HiGHS reference optima for paper-bnb (pinned in refs.json; any
   unpinned instance is solved in a separate process, never this one);
3. runs one untimed warm-up operation;
4. runs whole passes over the operations, timing each call with
   `time.perf_counter` and `time.process_time`, and checks every result
   outside the timed calls;
5. prints a table, writes a record (deterministic outcomes, artifact digests)
   and the spans under perfbench/out/, and prints the result JSON last.

With `--trace 1` it times one untraced pass set and one traced pass set and
reports the per-layer metrics instead of the end-to-end ones.

    python3 perfbench/run.py --check-refs [--sets 0-9]   # recompute pinned optima
"""
from __future__ import annotations

import os

# pin native thread pools before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # this process plus four fresh ones
WORKLOAD_NAMES = ("paper-bnb", "fleet-seeding", "cli-export")

END_TO_END = {
    "ops_per_s": "ops/s",
    "cpu_s_per_op": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# deterministic; printed and recorded, not part of the result JSON
QUALITY_UNITS = {
    "optimal_rate": "share",
    "objective_mean": "objective",
    "ref_gap_max": "objective",
    "ref_count": "count",
    "failed_share": "share",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(ROOT / "src")])
    return env


def timed_setup(name: str, seed: int):
    """Import relpack and build the workload's inputs; (seconds, workload, ops)."""
    t0 = time.perf_counter()
    import relpack  # noqa: F401

    import workloads

    workload = workloads.make(name, OUT / "work" / name)
    ops = workload.setup(seed)
    return time.perf_counter() - t0, workload, ops


def setup_samples(name: str, seed: int, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def references(workload, seed: int) -> dict[str, float]:
    """Instance key -> HiGHS optimum for every instance that has one."""
    import refs  # its scipy imports are local to the solving functions

    keys = workload.keys()
    pinned = refs.load_pinned()
    out = {k: pinned[k]["objective"] for k in keys.values() if k in pinned}
    if any(k not in pinned for k in keys.values()):
        proc = subprocess.run(
            [sys.executable, str(HERE / "refs.py"), "--seed", str(seed), "--missing"],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"reference solve failed: {proc.stderr.strip()[-500:]}")
        computed = json.loads(proc.stdout.strip().splitlines()[-1])
        out.update({k: v for k, v in computed.items() if v is not None})
    return out


class Runner:
    """Runs passes of operations, times every call and checks every result."""

    def __init__(self, ops):
        self.ops = ops
        self.tracer = None  # a tracing.Tracer during traced passes
        self.first: list[dict | None] = [None] * len(ops)  # outcome of pass 1
        self.attempted = 0
        self.failures: list[str] = []

    def _run_op(self, i: int, op):
        """(wall s, cpu s) of one operation, then its check, untimed."""
        tracer = self.tracer
        if tracer:
            tracer.op_id, tracer.active = i, True
        error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer:
            tracer.active = False
        self.attempted += 1
        if error is None:
            error = self._check(i, op, result)
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
        return t1 - t0, c1 - c0

    def _check(self, i: int, op, result) -> str | None:
        try:
            outcome = op.check(result)
        except Exception as exc:  # CheckFailed, or output the check cannot read
            return f"{type(exc).__name__}: {exc}"
        if self.first[i] is None:
            self.first[i] = outcome
        elif outcome != self.first[i]:
            return "outcome differs from the first pass"
        return None

    def warm_up(self) -> None:
        """One untimed operation; a failure here shows again in the passes."""
        op = self.ops[0]
        try:
            op.check(op.call())
        except Exception:
            pass

    def passes(self, seconds: float) -> tuple[list[list[float]], list[list[float]]]:
        """Whole passes until another one would overrun `seconds` of timed calls.

        Returns per-operation lists of wall and CPU times.
        """
        wall = [[] for _ in self.ops]
        cpu = [[] for _ in self.ops]
        spent, n_passes = 0.0, 0
        while True:
            for i, op in enumerate(self.ops):
                w, c = self._run_op(i, op)
                wall[i].append(w)
                cpu[i].append(c)
                spent += w
            n_passes += 1
            if spent + spent / n_passes > seconds:
                return wall, cpu


def throughput(wall: list[list[float]]) -> float:
    """Operations per second over one pass of per-operation median times."""
    return len(wall) / sum(statistics.median(w) for w in wall)


def fmt_table(rows: list[tuple[str, object, str]]) -> str:
    width = max(len(r[0]) for r in rows)
    out = []
    for name, value, unit in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        out.append(f"  {name:<{width}}  {text:>12}  {unit}")
    return "\n".join(out)


def run(args) -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    first_setup, workload, ops = timed_setup(args.workload, args.seed)
    setup = setup_samples(args.workload, args.seed, first_setup)
    if workload.has_refs:
        workload.refs = references(workload, args.seed)
    runner = Runner(ops)
    runner.warm_up()

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_samples_s": setup}
    if args.trace:
        import tracing

        wall_plain, _ = runner.passes(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op_id, tracer.active = -1, True
        timed_setup(args.workload, args.seed)  # traced set-up: build spans only
        tracer.active = False
        runner.tracer = tracer
        wall_traced, _ = runner.passes(args.seconds / 2)
        tracer.uninstall()
        n_traced = sum(len(w) for w in wall_traced)
        layer, absent = tracing.layer_metrics(tracer, n_traced)
        plain, traced = throughput(wall_plain), throughput(wall_traced)
        layer["trace.untraced_ops_per_s"] = plain
        layer["trace.ops_per_s"] = traced
        layer["trace.overhead_share"] = 1.0 - traced / plain
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in layer.items()}
        record["absent"] = absent
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        wall, cpu = runner.passes(args.seconds)
        ops_per_s = throughput(wall)
        metrics = {
            "ops_per_s": ops_per_s,
            "cpu_s_per_op": sum(statistics.median(c) for c in cpu) / len(cpu),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        record["op_wall_s"] = {op.label: w for op, w in zip(ops, wall)}
        record["op_cpu_s"] = {op.label: c for op, c in zip(ops, cpu)}

    harness_problems = []
    if "scipy" in sys.modules:
        harness_problems.append("scipy was loaded in the timed process")
    if any(o is None for o in runner.first) and not runner.failures:
        harness_problems.append("an operation never produced an outcome")
    outcomes = [o for o in runner.first if o is not None]
    quality = workload.summary(outcomes) if len(outcomes) == len(ops) else {}
    failed = len(runner.failures)
    quality["failed_share"] = failed / runner.attempted
    record.update({
        "metrics": metrics,
        "quality": quality,
        "outcomes": {op.label: o for op, o in zip(ops, runner.first)},
        "failures": runner.failures,
        "harness_problems": harness_problems,
    })
    record_path = Path(args.record) if args.record else (
        OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    rows = [(k, m["value"], m["unit"]) for k, m in metrics.items()]
    if not args.trace:
        rows += [(k, "n/a" if v is None else v, QUALITY_UNITS[k]) for k, v in quality.items()]
    print(f"relpack benchmark  workload={args.workload} seed={args.seed} "
          f"ops/pass={len(ops)} attempted={runner.attempted} failed={failed}")
    print(fmt_table(rows))
    if args.trace and record["absent"]:
        print(f"  absent from the code (reported as 0): {', '.join(record['absent'])}")
    for line in runner.failures[:10] + harness_problems:
        print(f"  FAILED {line}")
    print(f"  record: {record_path.relative_to(ROOT) if record_path.is_relative_to(ROOT) else record_path}")
    result = {
        "correct": failed == 0 and not harness_problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="relpack benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="where to write the run record (JSON)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--check-refs", action="store_true",
                    help="recompute the pinned HiGHS optima and fail on any difference")
    ap.add_argument("--sets", default=None, help="instance sets for --check-refs, e.g. 0 or 0-9")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "relpack" / "__init__.py").is_file():
        print(f"error: no relpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.check_refs:
        cmd = [sys.executable, str(HERE / "refs.py"), "--check"]
        if args.sets:
            cmd += ["--sets", args.sets]
        return subprocess.run(cmd, env=_child_env(), cwd=ROOT).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        print(timed_setup(args.workload, args.seed)[0])
        return 0
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
