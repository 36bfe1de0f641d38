"""qmelon benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Each pass runs the workload's op list once in a fresh interpreter
(``worker.py``), one pass at a time.  Passes repeat until ``--seconds`` have
gone by, and at least ``MIN_PASSES`` times.  With ``--trace 1`` every
iteration runs an untraced pass and a traced one, and the per-layer metrics
come from the traced passes.  Human-readable lines come first; the last
line of stdout is the JSON result.  ``--workload all`` runs the three
workloads in turn.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import tracing, workloads  # noqa: E402

WORKER = ROOT / "perfbench" / "worker.py"
BASELINE = ROOT / "perfbench" / "baseline.json"
MIN_PASSES = 4
TRACED_MIN_PASSES = 2
PASS_TIMEOUT_S = 120
# Every time of a pass is scaled by CAL_REFERENCE_S / (CPU seconds of
# ops.calibrate() in that pass), so figures read as if the calibration loop
# took CAL_REFERENCE_S.  The CPU speed of a shared VM drifts by up to 2x
# within minutes; the loop drifts with it and the program does not change it.
CAL_REFERENCE_S = 0.025
TAIL_LADDER = (99.9, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it.

    Fixed by the op count and MIN_PASSES, so every run of a workload uses
    the same percentile whatever the number of passes it got through.  The
    ladder and MIN_PASSES put each workload's tail inside a group of ops of
    similar cost rather than at the edge between two groups, where it would
    jump between them from run to run.
    """
    samples = ops_per_pass * MIN_PASSES
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def run_pass(ops: list[dict], trace: bool) -> dict:
    """The record of one pass in a fresh interpreter."""
    proc = subprocess.Popen([sys.executable, "-I", str(WORKER)], cwd=ROOT, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(json.dumps({"ops": ops, "trace": trace}),
                                  timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def _recorded_digest(workload: str, seed: int) -> str | None:
    if not BASELINE.is_file():
        return None
    digests = json.loads(BASELINE.read_text()).get("digests", {})
    return digests.get(workload, {}).get(str(seed))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> dict:
    """Run one workload and return its result: correctness, metrics, notes."""
    ops = workloads.GENERATORS[workload](seed, small)
    plain, traced = [], []
    min_passes = TRACED_MIN_PASSES if trace else MIN_PASSES
    deadline = time.perf_counter() + seconds
    while len(plain) < min_passes or time.perf_counter() < deadline:
        plain.append(run_pass(ops, False))
        if trace:
            traced.append(run_pass(ops, True))
    recorded = None if small else _recorded_digest(workload, seed)
    return summarize(len(ops), plain, traced, recorded)


def summarize(ops_per_pass: int, plain: list[dict], traced: list[dict],
              recorded_digest: str | None = None) -> dict:
    """Result of a run from its pass records; traced runs report layer metrics."""
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = len(failures)
    digests = {p["digest"] for p in passes}
    problems = [f"op {f['op']} ({f['kind']}): {'; '.join(f['problems'])}"
                for f in failures[:5]]
    if len(digests) != 1:
        problems.append("passes of one seed gave different outputs")
    if recorded_digest is not None and digests != {recorded_digest}:
        problems.append("output digest differs from the one recorded for this seed")

    for p in passes:
        p["speed"] = CAL_REFERENCE_S / p["calibration_s"]
    speed = statistics.median(p["speed"] for p in passes)
    notes = {"passes": len(plain), "ops_per_pass": ops_per_pass,
             "failed_ratio": failed / attempted, "digest": min(digests), "speed": speed}
    if traced:
        metrics = {}
        for name, unit, _ in tracing.LAYER_METRICS:
            if name == "trace.overhead_ratio":
                value = (statistics.median(p["pass_s"] * p["speed"] for p in traced)
                         / statistics.median(p["pass_s"] * p["speed"] for p in plain))
            elif unit == "s":
                value = statistics.median(p["layers"][name] * p["speed"] for p in traced)
            else:  # counts and ratios repeat exactly, as checked below
                value = traced[0]["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
        timed = {name for name, unit, _ in tracing.LAYER_METRICS if unit == "s"}
        counts = [{k: v for k, v in p["layers"].items() if k not in timed} for p in traced]
        if any(c != counts[0] for c in counts):
            problems.append("traced passes of one seed gave different counts")
        notes["traced_passes"] = len(traced)
        notes["top_spans"] = traced[0]["top_spans"]
    else:
        latencies = [s * p["speed"] for p in plain for s in p["latencies_s"]]
        tail = tail_percentile(ops_per_pass)
        values = {
            "setup_s": statistics.median(p["setup_s"] * p["speed"] for p in plain),
            "pass_s": statistics.median(p["pass_s"] * p["speed"] for p in plain),
            "op_ms.p50": percentile(latencies, 50.0) * 1000.0,
            "op_ms.tail": percentile(latencies, tail) * 1000.0,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        notes["op_samples"] = len(latencies)
        notes["tail_percentile"] = tail
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "problems": problems,
    }


def describe(workload: str, result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit, then notes."""
    notes = result["notes"]
    lines = [f"# {workload}: passes={notes['passes']} ops/pass={notes['ops_per_pass']} "
             f"failed_ratio={notes['failed_ratio']:.6g} speed={notes['speed']:.4f} "
             f"digest={notes['digest']}"]
    for name, metric in result["metrics"].items():
        extra = ""
        if name == "op_ms.tail":
            extra = f"  (p{notes['tail_percentile']:g} of {notes['op_samples']} ops)"
        elif name == "op_ms.p50":
            extra = f"  ({notes['op_samples']} ops)"
        elif name in ("setup_s", "pass_s", "peak_rss_mb"):
            extra = f"  (median of {notes['passes']} passes)"
        lines.append(f"{workload:14s} {name:44s} {metric['value']:14.6g} {metric['unit']}{extra}")
    for op, span, seconds in notes.get("top_spans", []):
        lines.append(f"# largest self time: op {op} {span} {seconds:.4f} s")
    lines += [f"# problem: {p}" for p in result["problems"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmelon" / "cli.py").is_file():
        print("error: no qmelon sources under src/qmelon next to perfbench/", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(describe(name, results[name])), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{metric}": value for name, r in results.items()
                   for metric, value in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
