"""permlab benchmark: cold-process workloads with exact output checks.

    python3 perfbench/run.py --workload count-paper --seed 1 --seconds 25 --trace 0

Run it from the repository root.  Each repetition of a workload runs in a
fresh interpreter (``cold.py``), because users start ``permlab`` as a
fresh process and because the in-process level cache would otherwise
turn repetitions into cache hits.  The on-disk count cache is kept out:
``PERMLAB_CACHE_DIR`` is unset and no ``--cache-dir`` is passed.  One
operation runs at a time (a closed loop with one client); only
count-par2 starts worker processes, exactly two.

With ``--trace 0`` the run spends ``--seconds`` on set-up probes and on
as many untraced repetitions as fit, and reports the medians of the
end-to-end metrics.  Times are normalised to a fixed machine speed (see
``cold.py``); the raw ones are kept in the record under ``.perfbench/``.
With ``--trace 1`` it makes one untraced and one traced repetition,
three times over, and reports the per-layer metrics as medians; see
``tracing.py``.

The last line of standard output is the result object; the line before
it records the environment.  A fuller record, with every operation's
time, goes to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
TRACE_PAIRS = 3  # untraced/traced repetitions, alternated, in a --trace 1 run
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402


def hermetic_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PERMLAB_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_revision() -> str:
    """The checked-out commit, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def spawn(args: list[str], env: dict[str, str]) -> tuple[dict | None, float, float, str]:
    """Run cold.py; return (record or None, start time, seconds, stderr)."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return None, start, time.monotonic() - start, f"timed out: {exc}"
    seconds = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, start, seconds, f"exit code {proc.returncode}: {proc.stderr.strip()}"
    return json.loads(lines[-1]), start, seconds, proc.stderr


class Rep:
    """One cold repetition: its record, or the failure that replaced it."""

    def __init__(self, workload: str, seed: int, n_ops: int, env, trace_out=None):
        args = ["--workload", workload, "--seed", str(seed)]
        if trace_out:
            args += ["--trace-out", str(trace_out)]
        self.record, start, self.seconds, self.stderr = spawn(args, env)
        if self.record is None:
            self.setup_s = None
            self.failed = n_ops  # a crashed repetition fails every operation it owned
        else:
            self.setup_s = normalised_setup(self.record, start)
            self.failed = sum(1 for op in self.record["ops"] if op["error"])


def normalised_setup(record: dict, start: float) -> float:
    """Set-up time scaled by the speed kernel timed right after it (see cold.py)."""
    return (record["ready"] - start) * record["ready_speed"]


def setup_probe(env) -> float | None:
    record, start, _, _ = spawn(["--setup-only"], env)
    return normalised_setup(record, start) if record else None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="permlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "permlab" / "cli.py").is_file():
        print(f"error: no permlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    env = hermetic_env()
    n_ops = len(WORKLOADS[args.workload](args.seed, load_reference()))
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_probe(env)  # untimed: writes the bytecode cache a user's second run would find

    reps: list[Rep] = []
    setups: list[float] = []
    if args.trace:
        for i in range(TRACE_PAIRS):
            reps.append(Rep(args.workload, args.seed, n_ops, env))
            reps.append(Rep(args.workload, args.seed, n_ops, env,
                            OUT_DIR / f"spans-{tag}-{i}.json"))
    else:
        setups = [s for s in (setup_probe(env) for _ in range(SETUP_PROBES)) if s is not None]
        while True:
            reps.append(Rep(args.workload, args.seed, n_ops, env))
            typical = statistics.median(r.seconds for r in reps)
            if time.monotonic() - t0 + typical > args.seconds:
                break
        setups += [r.setup_s for r in reps if r.setup_s is not None]

    attempted = n_ops * len(reps)
    failed = sum(r.failed for r in reps)
    complete = all(r.record for r in reps)
    if args.trace:
        layers = {}
        if complete:
            untraced = [r.record for r in reps[0::2]]
            traced = [r.record for r in reps[1::2]]
            layers = {name: statistics.median(t["layers"][name] for t in traced)
                      for name in traced[0]["layers"]}
            wall = statistics.median(u["wall_s"] for u in untraced)
            layers["enumeration.pool_worker_peak_rss_mb"] = statistics.median(
                u["worker_peak_rss_mb"] for u in untraced)
            layers["enumeration.perms_per_s"] = untraced[0]["members"] / wall
            layers["trace_overhead_s"] = statistics.median(t["wall_s"] for t in traced) - wall
        layers["failed_ops_ratio"] = failed / attempted
        metrics = {name: metric(layers.get(name, 0), unit) for name, unit, _ in PER_LAYER}
    else:
        def med(key: str) -> float:  # over the repetitions that produced a record
            values = [r.record[key] for r in reps if r.record]
            return statistics.median(values) if values else 0.0

        metrics = {
            "wall_s": metric(med("wall_s"), "s"),
            "cpu_s": metric(med("cpu_s"), "s"),
            "setup_s": metric(statistics.median(setups) if setups else 0.0, "s"),
            "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        }

    environment = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_revision": git_revision(), "repetitions": len(reps),
        "setup_samples": len(setups), "run_s": time.monotonic() - t0,
    }
    result = {"correct": failed == 0 and complete,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {"environment": environment, "result": result,
              "repetitions": [{"seconds": r.seconds, "setup_s": r.setup_s,
                               "stderr": r.stderr, "record": r.record} for r in reps],
              "setup_s_samples": setups}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
