"""One cold repetition of a workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, so every repetition pays
what a user's ``permlab`` process pays: interpreter start, ``import
permlab.cli`` and an empty in-process level cache.  It prints one JSON
record as its last line of output.

Times are also reported normalised to a fixed machine speed.  The shared
machines this runs on drift between fast and slow states, for fractions
of a second to minutes at a time, which moves every raw time by half or
more.  So a fixed pure-Python probe kernel is timed right after set-up,
between operations, and every 0.1 s during each operation (from a
SIGALRM handler; its time is taken out of the operation's time).  Each
operation's raw time is scaled by ``(CAL_REF_S / median probe time) **
SPEED_EXPONENT`` over its own samples.  The exponent is below 1 because
a slow state slows the probe, a tight loop, more than it slows permlab's
operations, part of whose time is memory access; 0.8 is the value that
made all four workloads steadiest on a two-CPU sandbox.  A change to
permlab moves the normalised times as it moves the raw ones; a change of
machine state moves the probe and the operations together, and cancels.

    python3 perfbench/cold.py --setup-only
    python3 perfbench/cold.py --workload count-paper --seed 1 [--trace-out FILE]
"""

import time

import permlab.cli

READY = time.monotonic()  # set-up ends here; run.py took the start time

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from permlab import enumeration  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

CAL_REF_S = 0.002  # the probe's time on a two-CPU sandbox in its fast state
SPEED_EXPONENT = 0.8
PROBE_INTERVAL_S = 0.1


def _kernel() -> int:
    d: dict[tuple, int] = {}
    t = tuple(range(12))
    for i in range(4000):
        k = t[i % 7:] + (i,)
        d[k[:3]] = d.get(k[:3], 0) + i * 3
    return len(d)


def _probe_s() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def calibration_s() -> float:
    """The probe's median time over five calls: the machine's current speed."""
    return sorted(_probe_s() for _ in range(5))[2]


def speed(probe_times: list[float]) -> float:
    """The factor that turns raw seconds into seconds at the reference speed."""
    return (CAL_REF_S / statistics.median(probe_times)) ** SPEED_EXPONENT


class SpeedProbe:
    """Times the probe every PROBE_INTERVAL_S while an operation runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(_probe_s())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def cpu_time_s() -> float:
    """User plus system time of this process and of its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def run_op(op, probe: SpeedProbe) -> dict:
    """Time one command line, net of the probe's samples, and check its output."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    cpu = cpu_time_s()
    with probe:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = permlab.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception:  # noqa: BLE001 - a crash fails this op, not the run
            error = traceback.format_exc()
    probed = sum(probe.samples)
    seconds = time.perf_counter() - start - probed
    cpu = cpu_time_s() - cpu - probed
    text = out.getvalue()
    if error is None:
        error = op.check(rc, text)
    if error and err.getvalue():
        error += f"; stderr {err.getvalue().strip()!r}"
    return {"label": op.label, "argv": list(op.argv), "seconds": seconds, "cpu_s": cpu,
            "error": error, "output_bytes": len(text.encode())}


def levels_members() -> int:
    """Class members held by the level cache, over every level built."""
    return sum(len(lv) for levels in enumeration._LEVELS_CACHE.values() for lv in levels[1:])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    cal = calibration_s()
    if args.setup_only:
        print(json.dumps({"ready": READY, "ready_speed": speed([cal])}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if enumeration._LEVELS_CACHE:
        raise SystemExit("the level cache is not empty before the first operation")

    ops = WORKLOADS[args.workload](args.seed, load_reference())
    tracer = None
    if args.trace_out:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    records = []
    probe = SpeedProbe()
    cal_before = cal
    for op in ops:
        record = run_op(op, probe)
        cal_after = calibration_s()
        samples = [cal_before, cal_after, *probe.samples]
        record["speed"] = speed(samples)
        record["speed_samples"] = len(samples)
        records.append(record)
        cal_before = cal_after

    layers = None
    if tracer is not None:
        tracer.counts["cli.output_bytes"] = sum(r["output_bytes"] for r in records)
        layers = tracer.metrics()
        tracer.write_spans(args.trace_out)
    print(json.dumps({
        "ready": READY,
        "ready_speed": speed([cal]),
        "ops": records,
        "raw_wall_s": sum(r["seconds"] for r in records),
        "raw_cpu_s": sum(r["cpu_s"] for r in records),
        "wall_s": sum(r["seconds"] * r["speed"] for r in records),
        "cpu_s": sum(r["cpu_s"] * r["speed"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "members": levels_members(),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
