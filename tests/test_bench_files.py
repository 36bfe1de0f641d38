"""Every committed benchmark record at the repository root is a correct run.

A ``BENCH_*.json`` file holds, under ``runs``, the final JSON line of each
``perfbench/run.py`` run behind a performance claim, as ``result``.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_committed_bench_runs_are_correct():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files, "no BENCH_*.json at the repository root"
    for path in files:
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        assert runs, path.name
        for i, run in enumerate(runs):
            result = run["result"]
            assert result["correct"] is True, (path.name, i)
            assert result["failed"] == 0, (path.name, i)
