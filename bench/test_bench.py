"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest bench/test_bench.py -q

They check that the per-layer counts and the verdict digest (every
certificate's model_to_json, every frames_examined, every arrangement
size) repeat exactly across runs and between the traced and untraced
passes of a run, and that the benchmark refuses to run without the
package.
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# queries that finish in milliseconds, including two known defects
QUICK_FAMILIES = ("eq1/", "eq2/", "partition", "sc_part", "k5m", "stack3(", "phi_pcp(7")
SUBSET = {
    "solve-families": lambda qs: [q for q in qs if q.name.startswith(QUICK_FAMILIES)],
    "solve-random": lambda qs: qs[:90],
    "plane-sweep": lambda qs: qs[:8],
    "plane-large": lambda qs: qs[:30],
}


@pytest.fixture
def modules(monkeypatch):
    monkeypatch.chdir(ROOT)
    previous = signal.signal(signal.SIGALRM, workloads.raise_capped)
    try:
        yield run.import_package()[0]
    finally:
        signal.signal(signal.SIGALRM, previous)


def traced_pass(name: str, modules: dict, seed: int):
    tc = workloads.Topoconn(modules)
    workload = workloads.WORKLOADS[name](tc)
    workload.trace_rounds = 1
    full = workload.make_round
    workload.make_round = lambda s, i, tracer=None: SUBSET[name](full(s, i, tracer))
    tracer = spans.Tracer()
    tally, counts, _, digest = run.traced_run(
        workload, workloads.Api(tc), workloads.Api(tc, tracer), tracer, modules, seed
    )
    # a digest that differs between the traced and untraced pass counts
    # as a failed query
    assert tally.failed == 0, tally.problems
    assert tally.wrong == 0, tally.problems
    calls = {k: v["calls"] for k, v in tracer.totals().items()}
    return counts, calls, digest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name, modules):
    first = traced_pass(name, modules, seed=7)
    second = traced_pass(name, modules, seed=7)
    assert first == second
    counts, calls, _ = first
    assert any(counts.values())
    assert calls


def test_known_defects_stay_undecided(modules):
    counts, _, _ = traced_pass("solve-families", modules, seed=7)
    assert counts["solver.exhausted"] == 1
    assert counts["solver.recursion_errors"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
