"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

About two minutes: every workload is run traced twice, and the held-out
table is re-checked by brute force to n = 8 (``heldout.py --check`` goes
to n = 9).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import heldout  # noqa: E402
import run  # noqa: E402
from tracing import ENUM_SPAN, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

EXACT_KEYS = ("slots_tested", "children", "accept_ratio", "levels_built",
              "fixed_point.iterations.", "max_terms")


def _is_exact(name: str) -> bool:
    return name.endswith(".calls") or any(k in name for k in EXACT_KEYS)


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    assert spec["paths"] == ["perfbench"]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


# -- reference data ----------------------------------------------------------


def _series_sqrt(a: list[Fraction]) -> list[Fraction]:
    """Square root of a power series with constant term 1."""
    r = [Fraction(1)]
    for n in range(1, len(a)):
        r.append((a[n] - sum(r[i] * r[n - i] for i in range(1, n))) / 2)
    return r


def _series_inverse(a: list[Fraction]) -> list[Fraction]:
    r = [1 / a[0]]
    for n in range(1, len(a)):
        r.append(-sum(a[i] * r[n - i] for i in range(1, n + 1)) / a[0])
    return r


def test_reference_counts_match_their_closed_forms():
    ref = load_reference()
    n = len(ref["large_schroder"])
    pad = [Fraction(0)] * n
    rad = _series_sqrt(([Fraction(1), Fraction(-6), Fraction(1)] + pad)[:n])
    schroder = [(3 if k == 0 else 0) - (1 if k == 1 else 0) - rad[k] for k in range(n)]
    assert [c / 2 for c in schroder] == ref["large_schroder"]
    # (1 - x)(1 - 5x) = 1 - 6x + 5x^2
    rad = _series_sqrt(([Fraction(1), Fraction(-6), Fraction(5)] + pad)[:n])
    denom = [(1 if k <= 1 else 0) + rad[k] for k in range(n)]
    assert [2 * c for c in _series_inverse(denom)] == ref["a033321"]


def test_heldout_table_agrees_with_brute_force():
    ref = load_reference()
    assert sorted(heldout.pool()) == sorted(ref["heldout"])
    brute = heldout.brute_counts(heldout.pool(), 8)
    for tau, counts in brute.items():
        assert ref["heldout"][tau][:9] == counts
    avoiders = heldout.brute_avoiders(7, [(2, 1, 4, 3), (3, 1, 4, 2)])
    assert [len(heldout.brute_avoiders(n, [(2, 1, 4, 3), (3, 1, 4, 2)])) for n in range(7)] \
        + [len(avoiders)] == ref["near_miss"]


def test_checks_reject_wrong_outputs():
    ref = load_reference()
    count_op = WORKLOADS["count-paper"](0, ref)[0]
    good = "".join(f"{n}\t{c}\n" for n, c in enumerate(ref["large_schroder"][:10]))
    assert count_op.check(0, good) is None
    assert count_op.check(0, good.replace("41586", "41585"))
    assert count_op.check(1, good)
    ident = WORKLOADS["series-order20"](0, ref)[0]
    name = ident.argv[2]
    assert ident.check(0, f"{name} pass [1.0 ms]\n") is None
    assert ident.check(1, f"{name} fail [1.0 ms]\n")
    verify = WORKLOADS["verify-all"](0, ref)[0]
    assert verify.check(0, json.dumps([{"checkId": "top-values", "status": "pass",
                                        "witnesses": []}]))  # checks missing


# -- the tracer --------------------------------------------------------------


def test_self_time_excludes_child_spans_and_charges_enumeration_to_the_check():
    tracer = Tracer()

    def enumerate_levels():
        time.sleep(0.02)

    def check():
        time.sleep(0.01)
        tracer.run(ENUM_SPAN, enumerate_levels, (), {})

    tracer.run("verification.demo", check, (), {})
    total = tracer.total_s["verification.demo"]
    enum = tracer.total_s[ENUM_SPAN]
    assert tracer.enum_s["verification.demo"] == enum
    assert tracer.self_s["verification.demo"] == pytest.approx(total - enum)
    (child, parent) = tracer.spans
    assert child[1] == ENUM_SPAN and child[4] == parent[0] and parent[4] == -1


# -- traced cold runs ----------------------------------------------------------


def _traced(workload: str, seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), "--workload", workload, "--seed", str(seed),
         "--trace-out", str(out)],
        cwd=ROOT, env=run.hermetic_env(), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(op["error"] is None for op in record["ops"]), record["ops"]
    return record


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("spans")
    return {
        w: [_traced(w, 7, tmp / f"{w}-{i}.json") for i in range(2)]
        for w in WORKLOADS
    }


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_layer_counts_repeat(traced_pairs, workload):
    first, second = (r["layers"] for r in traced_pairs[workload])
    exact = {k: v for k, v in first.items() if _is_exact(k)}
    assert exact == {k: second[k] for k in exact}
    assert any(exact.values())


def test_series_workload_never_enumerates(traced_pairs):
    layers = traced_pairs["series-order20"][0]["layers"]
    assert layers["enumeration.class_levels.calls"] == 0
    assert layers["perms.occurs_with_new_max.calls"] == 0
    assert layers["series.fixed_point_solve.calls"] > 0


def test_count_workload_solves_no_series(traced_pairs):
    layers = traced_pairs["count-paper"][0]["layers"]
    assert layers["series.fixed_point_solve.calls"] == 0
    assert layers["series.mul.calls"] == 0
    assert layers["enumeration.class_levels.cold_calls"] == 7


def test_verify_splits_enumeration_from_check_time(traced_pairs):
    layers = traced_pairs["verify-all"][0]["layers"]
    enum_total = sum(v for k, v in layers.items()
                     if k.startswith("verification.") and k.endswith(".enum_s"))
    # class_levels' only child spans are the generic checker's perms calls
    inclusive = (layers["enumeration.class_levels.self_s"]
                 + layers["perms.occurs_with_new_max.self_s"])
    assert enum_total == pytest.approx(inclusive, rel=0.05)
    assert layers["verification.rebuild-524361.enum_s"] > 0
    # --count-n above --max-n: cross-count builds the last levels, and is charged
    # for them in enum_s, not in self_s
    assert layers["verification.cross-count.enum_s"] > layers["verification.cross-count.self_s"]


# -- whole runs ------------------------------------------------------------


def _checkout_copy(tmp_path: Path, with_sources: bool) -> Path:
    dest = tmp_path / "checkout"
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True, timeout=170)


def test_wrong_reference_value_makes_failed_ops_ratio_nonzero(tmp_path):
    checkout = _checkout_copy(tmp_path, with_sources=True)
    ref_path = checkout / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["large_schroder"][9] += 1
    ref_path.write_text(json.dumps(ref))
    proc = _run(checkout, "--workload", "count-par2", "--seed", "1",
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["failed_ops_ratio"]["value"] == 1.0
    detail = json.loads(
        (checkout / ".perfbench" / "result-count-par2-seed1-trace1.json").read_text())
    ops = [op for rep in detail["repetitions"] for op in rep["record"]["ops"]]
    assert all(op["error"] and op["seconds"] > 0 for op in ops)  # failures keep their time


def test_refuses_to_run_without_the_program(tmp_path):
    checkout = _checkout_copy(tmp_path, with_sources=False)
    proc = _run(checkout, "--workload", "count-paper", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
