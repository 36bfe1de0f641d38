"""The timed program calls, one per op kind, and the pass that runs them.

Every call goes through a module attribute (``identities.run_cases``,
``cli.main``, ...) so that the spans installed by ``tracing.install`` see
it.  A pass times each op alone in CPU seconds of the process, keeps the
outputs, and checks them with ``checks.CHECKERS`` only after the last op,
so no check runs inside a timed region or a span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

from qmelon import cli, identities, paths, planepartitions

from perfbench import checks


def run_case(op: dict):
    reports = identities.run_cases([(op["identity"], op["params"])])
    return reports, [identities.report_json_line(r) for r in reports]


def _cli(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def run_count(op: dict):
    n, l, m = op["box"]
    return _cli(["count", "--what", "genfunc", "--format", "json",
                 "--n", str(n), "--l", str(l), "--m", str(m)])


def run_det(op: dict):
    return paths.genfunc_det_forms(*op["box"], form=op["form"])


def run_roundtrip(op: dict):
    melon = planepartitions.gradient_bijection(op["pp"], *op["box"])
    return melon, planepartitions.gradient_bijection_inverse(melon)


def run_render(op: dict):
    n, l, m = op["box"]
    data = {"N": n, "L": l, "M": m, "parts": op["pp"]}
    return _cli(["render", "--input", "-", "--style", op["style"]], json.dumps(data))


def calibrate() -> float:
    """CPU seconds of a fixed loop of dict, int and big-int work, best of three.

    It tracks how fast the machine runs this kind of Python code right now;
    ``run.py`` scales every time of the pass by it.
    """
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        acc: dict[int, int] = {}
        for i in range(60000):
            k = i & 511
            acc[k] = acc.get(k, 0) + i * k
        big = 7 ** 4000
        for _ in range(150):
            big * big
        best = min(best, time.process_time() - start)
    return best


RUNNERS = {
    "case": run_case,
    "count": run_count,
    "det": run_det,
    "roundtrip": run_roundtrip,
    "render": run_render,
}


def run_pass(ops: list[dict], tracer=None) -> dict:
    """Run and then check every op once; returns the pass record.

    An op fails when it raises or when its checker finds a problem.  The
    digest covers the timing-free output of every op in order.
    """
    clock = time.process_time
    calibration_s = calibrate()
    latencies, outputs = [], []
    for i, op in enumerate(ops):
        run = RUNNERS[op["kind"]]
        if tracer is not None:
            tracer.begin_op(i, op["kind"])
        start = clock()
        try:
            out = run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        latencies.append(clock() - start)
        outputs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reports = sum(len(out[0]) for op, out in zip(ops, outputs)
                  if op["kind"] == "case" and not isinstance(out, Exception))
    layers = tracer.layer_metrics(reports) if tracer is not None else None

    digest = hashlib.sha256()
    failures = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Exception):
            problems, text = [f"raised {type(out).__name__}: {out}"], ""
        else:
            try:
                problems, text = checks.CHECKERS[op["kind"]](op, out)
            except Exception as exc:  # a malformed output is a failed op
                problems, text = [f"check raised {type(exc).__name__}: {exc}"], ""
        digest.update(text.encode() + b"\0")
        if problems:
            failures.append({"op": i, "kind": op["kind"], "problems": problems[:3]})
    return {
        "latencies_s": latencies,
        "pass_s": sum(latencies),
        "calibration_s": (calibration_s + calibrate()) / 2,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "reports": reports,
        "digest": digest.hexdigest(),
        "layers": layers,
    }
