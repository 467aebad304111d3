"""Span tracing of permlab's layers, installed from outside the program.

``install`` rebinds the public functions of each layer to wrappers that
open a span around the call.  Nothing under ``src/`` changes: the
wrappers replace module attributes in the traced process only.

A span has a name, a start, an end and a parent.  Self time is the
span's duration minus the time its child spans cover.  Spans stay in
memory until the run ends.  The perms functions are called millions of
times, so their spans are rolled up: they still count towards their
parent's child time and their own call count and self time, but are not
stored one by one.  Per-layer times are raw seconds, not normalised to
the machine's speed as the end-to-end times are, and include the speed
probe's samples (about 2 %) wherever they fall (see ``cold.py``).

Layers and their spans:

- perms: ``contains``, ``is_simple``, ``deflate`` wherever they are
  called, and ``occurs_with_new_max`` at the name enumeration calls.
- enumeration: ``class_levels`` (with exact counts derived from the
  level cache before and after each call) and ``refined_count``.
- series: ``MSeries`` multiplication, ``reciprocal``, ``sqrt1``,
  ``substitute``, ``fixed_point_solve``, one step counter per registered
  equation, and one span per ``check_identity`` call.
- verification: one span per structural check, ``cross-count``, and the
  identity checks together as ``verification.identities``.  Each also
  gets ``enum_s``, the class_levels time inside it, so that the check
  that first touches a class is not charged with its enumeration in
  ``self_s``.
- cli: ``main``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from time import perf_counter

from workloads import CLOSED_FORM_IDENTITIES, ENUM_BACKED_IDENTITIES, STRUCTURAL_CHECK_IDS

ENUM_SPAN = "enumeration.class_levels"
VERIFY_PREFIX = "verification."

PERMS_FUNCTIONS = ("occurs_with_new_max", "contains", "is_simple", "deflate")
EQUATION_IDS = ("catalan-fixed", "stat132-system", "gf-263514-fixed", "kernel-root")
CHECK_IDS = STRUCTURAL_CHECK_IDS + ("cross-count",)
IDENTITY_IDS = tuple(sorted(CLOSED_FORM_IDENTITIES + ENUM_BACKED_IDENTITIES))


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for fn in PERMS_FUNCTIONS:
        spec += [(f"perms.{fn}.calls", "count", "lower"), (f"perms.{fn}.self_s", "s", "lower")]
    spec += [
        ("enumeration.class_levels.calls", "count", "lower"),
        ("enumeration.class_levels.cold_calls", "count", "lower"),
        ("enumeration.class_levels.self_s", "s", "lower"),
        ("enumeration.levels_built", "count", "lower"),
        ("enumeration.slots_tested", "count", "lower"),
        ("enumeration.children", "count", "lower"),
        ("enumeration.accept_ratio", "ratio", "higher"),
        ("enumeration.refined_count.self_s", "s", "lower"),
        ("enumeration.pool_worker_peak_rss_mb", "MB", "lower"),
        ("enumeration.perms_per_s", "1/s", "higher"),
        ("series.mul.calls", "count", "lower"),
        ("series.mul.self_s", "s", "lower"),
        ("series.mul.max_terms", "count", "lower"),
    ]
    for op in ("reciprocal", "sqrt1", "substitute", "fixed_point_solve"):
        spec += [(f"series.{op}.calls", "count", "lower"), (f"series.{op}.self_s", "s", "lower")]
    spec += [(f"series.fixed_point.iterations.{e}", "count", "lower") for e in EQUATION_IDS]
    spec += [(f"series.identity.{i}.s", "s", "lower") for i in IDENTITY_IDS]
    for c in CHECK_IDS:
        spec += [(f"verification.{c}.self_s", "s", "lower"), (f"verification.{c}.enum_s", "s", "lower")]
    spec += [
        ("verification.identities.self_s", "s", "lower"),
        ("verification.identities.enum_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
        ("trace_overhead_s", "s", "lower"),
        ("failed_ops_ratio", "ratio", "lower"),
    ]
    return spec


PER_LAYER = _per_layer_spec()


class Tracer:
    """In-memory spans and per-name aggregates for one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.enum_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # open frames: [name, span id or -1, child_s, enum_s]
        self._next_id = 0

    def run(self, name: str, fn, args, kwargs, *, record: bool = True):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack
        sid = -1
        if record:
            sid = self._next_id
            self._next_id += 1
        frame = [name, sid, 0.0, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self.calls[name] += 1
            self.self_s[name] += dur - frame[2]
            self.total_s[name] += dur
            if stack:
                stack[-1][2] += dur
            if name == ENUM_SPAN:
                self._charge_enumeration(dur)
            elif name.startswith(VERIFY_PREFIX):
                self.enum_s[name] += frame[3]
            if record:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                self.spans.append((sid, name, start, end, parent))

    def _charge_enumeration(self, dur: float) -> None:
        for frame in reversed(self._stack):
            if frame[0].startswith(VERIFY_PREFIX):
                frame[3] += dur
                return

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent"], "spans": self.spans},
                fh,
            )

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the tracer itself can see; absent ones are 0."""
        out: dict[str, float] = {}
        for fn in PERMS_FUNCTIONS:
            out[f"perms.{fn}.calls"] = self.calls[f"perms.{fn}"]
            out[f"perms.{fn}.self_s"] = self.self_s[f"perms.{fn}"]
        out["enumeration.class_levels.calls"] = self.calls[ENUM_SPAN]
        out["enumeration.class_levels.self_s"] = self.self_s[ENUM_SPAN]
        for name in (f"{ENUM_SPAN}.cold_calls", "enumeration.levels_built",
                     "enumeration.slots_tested", "enumeration.children"):
            out[name] = self.counts[name]
        slots = self.counts["enumeration.slots_tested"]
        out["enumeration.accept_ratio"] = (
            self.counts["enumeration.children"] / slots if slots else 0
        )
        out["enumeration.refined_count.self_s"] = self.self_s["enumeration.refined_count"]
        out["series.mul.calls"] = self.calls["series.mul"]
        out["series.mul.self_s"] = self.self_s["series.mul"]
        out["series.mul.max_terms"] = self.counts["series.mul.max_terms"]
        for op in ("reciprocal", "sqrt1", "substitute", "fixed_point_solve"):
            out[f"series.{op}.calls"] = self.calls[f"series.{op}"]
            out[f"series.{op}.self_s"] = self.self_s[f"series.{op}"]
        for e in EQUATION_IDS:
            key = f"series.fixed_point.iterations.{e}"
            out[key] = self.counts[key]
        for i in IDENTITY_IDS:
            out[f"series.identity.{i}.s"] = self.total_s[f"series.identity.{i}"]
        for c in (*CHECK_IDS, "identities"):
            out[f"verification.{c}.self_s"] = self.self_s[f"verification.{c}"]
            out[f"verification.{c}.enum_s"] = self.enum_s[f"verification.{c}"]
        out["cli.main.self_s"] = self.self_s["cli.main"]
        out["cli.output_bytes"] = self.counts["cli.output_bytes"]
        return out


def _rebind(modules, orig, wrapper) -> None:
    """Point every module attribute that names ``orig`` at ``wrapper``."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer in the current process."""
    import permlab
    from permlab import cli, enumeration, perms, series, verification

    modules = (permlab, perms, enumeration, series, verification, cli)

    def span(name, fn, record=True):
        def wrapper(*args, **kwargs):
            return tracer.run(name, fn, args, kwargs, record=record)

        return wrapper

    # perms: rolled-up leaf spans
    for fn_name in ("contains", "is_simple", "deflate"):
        orig = getattr(perms, fn_name)
        _rebind(modules, orig, span(f"perms.{fn_name}", orig, record=False))
    enumeration.occurs_with_new_max = span(
        "perms.occurs_with_new_max", perms.occurs_with_new_max, record=False
    )

    # enumeration
    cache = enumeration._LEVELS_CACHE
    orig_levels = enumeration.class_levels

    def class_levels(basis, max_n, **kwargs):
        before = len(cache.get(basis.patterns, ((),)))
        result = tracer.run(ENUM_SPAN, orig_levels, (basis, max_n), kwargs)
        levels = cache[basis.patterns]
        if len(levels) > before:
            tracer.counts[f"{ENUM_SPAN}.cold_calls"] += 1
        for n in range(before, len(levels)):
            tracer.counts["enumeration.levels_built"] += 1
            tracer.counts["enumeration.slots_tested"] += len(levels[n - 1]) * n
            tracer.counts["enumeration.children"] += len(levels[n])
        return result

    _rebind(modules, orig_levels, class_levels)
    orig_refined = enumeration.refined_count
    _rebind(modules, orig_refined, span("enumeration.refined_count", orig_refined))

    # series
    MSeries = series.MSeries
    orig_mul = MSeries.__mul__

    def mul(self, other):
        result = tracer.run("series.mul", orig_mul, (self, other), {})
        if len(result.coeffs) > tracer.counts["series.mul.max_terms"]:
            tracer.counts["series.mul.max_terms"] = len(result.coeffs)
        return result

    MSeries.__mul__ = MSeries.__rmul__ = mul
    for op in ("reciprocal", "sqrt1", "substitute"):
        setattr(MSeries, op, span(f"series.{op}", getattr(MSeries, op)))
    orig_solve = series.fixed_point_solve
    _rebind(modules, orig_solve, span("series.fixed_point_solve", orig_solve))
    for eq_id, eq in list(series.EQUATIONS.items()):
        series.EQUATIONS[eq_id] = dataclasses.replace(
            eq, step=_counted(tracer, f"series.fixed_point.iterations.{eq_id}", eq.step)
        )
    orig_identity = series.check_identity

    def check_identity(identity_id, *args, **kwargs):
        return tracer.run(f"series.identity.{identity_id}", orig_identity,
                          (identity_id, *args), kwargs)

    _rebind(modules, orig_identity, check_identity)

    # verification
    checks = verification.STRUCTURAL_CHECKS
    for cid, fn in list(checks.items()):
        checks[cid] = span(f"verification.{cid}", fn)
    orig_cross = verification.check_cross_counts
    _rebind(modules, orig_cross, span("verification.cross-count", orig_cross))
    orig_run_check = verification.run_check
    identity_ids = set(series.identity_ids())

    def run_check(check_id, *args, **kwargs):
        if check_id in identity_ids:
            return tracer.run("verification.identities", orig_run_check,
                              (check_id, *args), kwargs)
        return orig_run_check(check_id, *args, **kwargs)

    _rebind(modules, orig_run_check, run_check)

    # cli
    orig_main = cli.main
    _rebind(modules, orig_main, span("cli.main", orig_main))


def _counted(tracer: Tracer, key: str, fn):
    def wrapper(*args):
        tracer.counts[key] += 1
        return fn(*args)

    return wrapper
