"""Tests of the benchmark harness itself, at the smallest sizes.

No timing is asserted.  The negative tests feed deliberately wrong results
into each op kind's checker and require them to surface as failures in
``failed_ratio``, never as a pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, ops, run, tracing, workloads  # noqa: E402
from qmelon import LaurentPoly, identities  # noqa: E402


def _small_ops(workload: str) -> list[dict]:
    return workloads.GENERATORS[workload](seed=3, small=True)


def _run_pass(op_list: list[dict]) -> dict:
    """One pass in this process, with the set-up time a worker would add."""
    return {**ops.run_pass(op_list), "setup_s": 0.1}


def test_box_oracle_matches_oeis_a008793():
    for n, count in enumerate(checks.A008793):
        assert checks.box_count(n, n, n) == count
        assert sum(checks.box_genfunc(n, n, n)) == count


def test_box_oracle_accepts_closed_products():
    from qmelon.paths import closed_genfunc

    for box in [(1, 1, 1), (2, 3, 4), (4, 2, 3), (3, 3, 3)]:
        assert checks.box_poly_problems(closed_genfunc(*box).to_pairs(), *box) == []


def test_full_size_generators_are_seeded():
    for name, generate in workloads.GENERATORS.items():
        assert generate(7) == generate(7), name
        assert generate(7) != generate(8), name
    assert len(workloads.verify_grid(1)) == 217


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _corrupt_case(out):
    reports, _ = out
    bad = [dataclasses.replace(r, equal=False) for r in reports]
    return bad, [identities.report_json_line(r) for r in bad]


def _corrupt_count(out):
    # Move one unit between two coefficients: q=1 value and degree survive,
    # only the full coefficient comparison can catch it.
    code, text = out
    data = json.loads(text)
    data["value"][1][1] = str(int(data["value"][1][1]) + 1)
    data["value"][2][1] = str(int(data["value"][2][1]) - 1)
    return code, json.dumps(data)


def _corrupt_render(out):
    code, text = out
    return code, text.replace("volume=", "volume=1", 1)


CORRUPTIONS = {
    "case": _corrupt_case,
    "count": _corrupt_count,
    "det": lambda out: out + LaurentPoly.q_power(1) - LaurentPoly.q_power(2),
    "roundtrip": lambda out: (out[0], ((out[1][0][0] + 1,) + out[1][0][1:],) + out[1][1:]),
    "render": _corrupt_render,
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_results_count_as_failures(workload, monkeypatch):
    op_list = _small_ops(workload)
    clean = _run_pass(op_list)
    assert clean["failures"] == []
    for kind in sorted({op["kind"] for op in op_list}):
        original = ops.RUNNERS[kind]
        monkeypatch.setitem(ops.RUNNERS, kind,
                            lambda op, run=original, bad=CORRUPTIONS[kind]: bad(run(op)))
        record = _run_pass(op_list)
        monkeypatch.setitem(ops.RUNNERS, kind, original)
        wrong = [i for i, op in enumerate(op_list) if op["kind"] == kind]
        assert [f["op"] for f in record["failures"]] == wrong, kind
        result = run.summarize(len(op_list), [clean, record], [])
        assert result["failed"] == len(wrong)
        assert result["notes"]["failed_ratio"] > 0
        assert not result["correct"]


def test_raising_op_is_a_failure(monkeypatch):
    op_list = _small_ops("genfunc-boxes")

    def boom(op):
        raise ArithmeticError("injected")

    monkeypatch.setitem(ops.RUNNERS, "det", boom)
    record = ops.run_pass(op_list)
    assert len(record["failures"]) == sum(op["kind"] == "det" for op in op_list)


def test_changed_output_digest_is_not_correct():
    record = _run_pass(_small_ops("melon-enum"))
    assert run.summarize(1, [record], [], record["digest"])["correct"]
    assert not run.summarize(1, [record], [], "0" * 64)["correct"]


def _check_schema(result: dict, expected: list[tuple[str, str]]) -> None:
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_sizes_end_to_end_schema(workload):
    result = run.measure(workload, seed=1, seconds=0, trace=False, small=True)
    _check_schema(result, list(run.END_TO_END))
    assert result["notes"]["passes"] == run.MIN_PASSES


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_sizes_traced_counts_repeat(workload):
    first = run.measure(workload, seed=2, seconds=0, trace=True, small=True)
    second = run.measure(workload, seed=2, seconds=0, trace=True, small=True)
    _check_schema(first, [(name, unit) for name, unit, _ in tracing.LAYER_METRICS])
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"
               and k != "trace.overhead_ratio"} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["laurent.mul.calls"] > 0


TRACE_PROBE = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
import qmelon.cli
from qmelon import identities, laurent, paths, planepartitions, schur, cli
from perfbench import tracing
originals = (laurent.det_fraction_free, paths.closed_genfunc)
tracing.install(tracing.Tracer())
for mod in (laurent, paths, schur, identities):
    assert mod.det_fraction_free is not originals[0], mod
for mod in (paths, identities, planepartitions, cli):
    assert mod.closed_genfunc is not originals[1], mod
assert laurent.det_fraction_free.__wrapped__ is originals[0]
cls = laurent.LaurentPoly
assert cls.__rmul__ is cls.__mul__ and hasattr(cls.__mul__, "__wrapped__")
assert cls.__radd__ is cls.__add__ and hasattr(cls.__add__, "__wrapped__")
assert all(hasattr(f, "__wrapped__") for f in identities._CASE_FUNCS.values())
print("ok")
"""


def test_tracer_patches_every_binding():
    out = subprocess.run([sys.executable, "-I", "-c", TRACE_PROBE, str(ROOT)],
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "ok", out.stderr


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "melon-enum",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
