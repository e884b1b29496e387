"""Benchmark of topoconn: one seeded workload per run, closed loop, one
process and one thread.

Run from the root of a checkout:

    python3 bench/run.py --workload solve-families --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the current directory, never
from an installed copy.  A run generates its inputs from the seed, sets
up five times (the median is ``setup_s``), then measures whole rounds
of queries until ``--seconds`` of timed work are done.  Every verdict is
checked outside the timed phase.  With ``--trace 1`` a fixed number of
rounds runs untraced and then traced, and the run reports per-layer
metrics instead of end-to-end ones; the spans go to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when a verdict was wrong or a query failed,
and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time

import spans
import workloads

MODULES = ("syntax", "parser", "quasisaw", "solver", "constructions", "plane")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package() -> tuple[dict, float]:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "topoconn", "__init__.py")):
        fail("no src/topoconn in the current directory; "
             "run from the root of a topoconn checkout")
    sys.path.insert(0, src)
    start = time.perf_counter()
    modules = {name: importlib.import_module(f"topoconn.{name}") for name in MODULES}
    elapsed = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(modules["solver"].__file__))
    if where != os.path.join(src, "topoconn"):
        fail(f"topoconn was imported from {where}, not from {src}")
    return modules, elapsed


def measure_round(workload, api, queries) -> tuple[list, list, float]:
    outcomes, latencies = [], []
    clock = time.perf_counter

    def record(query, fn):
        start = clock()
        out = fn()
        latencies.append(clock() - start)
        outcomes.append(out)

    start = clock()
    workload.run(api, queries, record)
    return outcomes, latencies, clock() - start


def quantile(values: list, q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts it."""
    return statistics.quantiles(values, n=100)[q - 1]


SETUPS = 5


def set_up(workload, api, seed: int) -> list:
    """Times of several set-ups, each generating the warm-up queries and
    running them.  The measured rounds are generated between rounds,
    outside both the set-up and the timed phase."""
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        measure_round(workload, api, workload.warm(seed))
        times.append(time.perf_counter() - start)
    return times


def timed_run(workload, api, seed: int, seconds: float):
    tally = workloads.Tally()
    digest = hashlib.sha256()
    timed, rounds, throughputs = 0.0, 0, []
    while timed < seconds:
        queries = workload.make_round(seed, rounds)
        outcomes, latencies, wall = measure_round(workload, api, queries)
        timed += wall
        throughputs.append(len(queries) / wall)
        for out, latency in zip(outcomes, latencies):
            tally.add(out, latency)
        workload.check(queries, outcomes, tally)
        workloads.digest_update(digest, outcomes)
        rounds += 1
    return tally, timed, throughputs, digest.hexdigest()


def traced_run(workload, api, traced_api, tracer, modules, seed: int):
    """Run a fixed number of rounds untraced and then traced, so that the
    counts repeat exactly for a seed and the overhead is measured on the
    same queries."""
    tally = workloads.Tally()
    counts: dict = {}
    walls = [0.0, 0.0]
    digests = [hashlib.sha256(), hashlib.sha256()]
    for index in range(workload.trace_rounds):
        tracer.query = -1
        queries = workload.make_round(seed, index, tracer)
        plain, _, wall = measure_round(workload, api, queries)
        walls[0] += wall
        workloads.digest_update(digests[0], plain)
        with tracer.patched(modules):
            traced, latencies, wall = measure_round(workload, traced_api, queries)
        walls[1] += wall
        workloads.digest_update(digests[1], traced)
        for out, latency in zip(traced, latencies):
            tally.add(out, latency)
        workload.check(queries, traced, tally)
        for name, value in workload.counts(traced).items():
            counts[name] = counts.get(name, 0) + value
    if digests[0].hexdigest() != digests[1].hexdigest():
        tally.problems.append("traced and untraced runs gave different verdicts")
        tally.failed += 1
    if "plane.faces" in counts:
        counts["plane.faces_per_segment"] = counts["plane.faces"] / max(
            counts["plane.segments"], 1
        )
    return tally, counts, walls, digests[1].hexdigest()


def layer_metrics(tracer, counts: dict, walls: list) -> dict:
    totals = tracer.totals()

    def span(name: str, key: str = "ms") -> float:
        return totals.get(name, {}).get(key, 0)

    values = {
        "solver.self_ms": span("solver.solve", "self_ms"),
        "solver.verify_ms": span("solver.verify"),
        "quasisaw.check_calls": span("quasisaw.check", "calls"),
        "quasisaw.check_ms": span("quasisaw.check"),
        "quasisaw.classify_ms": span("quasisaw.classify_frame"),
        "quasisaw.oracle_calls": span("quasisaw.oracle_check", "calls"),
        "quasisaw.oracle_ms": span("quasisaw.oracle_check"),
        "parser.parse_ms": span("parser.parse"),
        "parser.chars": tracer.counts.get("parser.chars", 0),
        "syntax.ms": sum(v["ms"] for k, v in totals.items() if k.startswith("syntax.")),
        "constructions.gen_ms": span("constructions.gen"),
        "plane.load_ms": span("plane.scene_from_json"),
        "plane.validate_ms": span("plane.validate_scene"),
        "plane.build_self_ms": span("plane.build_arrangement", "self_ms"),
        "plane.eval_ms": span("plane.plane_eval"),
        "plane.rcc8_ms": span("plane.rcc8"),
        "plane.cgraph_ms": span("plane.component_graph"),
        "trace.overhead_share": walls[1] / walls[0] - 1,
    }
    for name in ("plane.segments", "plane.vertices", "plane.edges", "plane.faces",
                 "plane.faces_per_segment", "solver.sat", "solver.unsat_up_to",
                 "solver.exhausted", "solver.capped", "solver.recursion_errors",
                 "solver.frames_examined", "solver.cert_w0", "solver.cert_w1"):
        values[name] = counts.get(name, 0)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    modules, import_s = import_package()
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tc = workloads.Topoconn(modules)
    workload = workloads.WORKLOADS[args.workload](tc)
    api = workloads.Api(tc)
    signal.signal(signal.SIGALRM, workloads.raise_capped)

    setup_times = set_up(workload, api, args.seed)
    lines = [f"workload {workload.name}, seed {args.seed}"]
    if args.trace:
        tracer = spans.Tracer()
        traced_api = workloads.Api(tc, tracer)
        tally, counts, walls, digest = traced_run(
            workload, api, traced_api, tracer, modules, args.seed
        )
        os.makedirs(os.path.join("bench", "out"), exist_ok=True)
        tracer.write(os.path.join("bench", "out", f"spans-{workload.name}.tsv"))
        values = layer_metrics(tracer, counts, walls)
        wanted = spec["per_layer"]
        lines.append(f"{workload.trace_rounds} rounds untraced {walls[0]:.2f} s, "
                     f"traced {walls[1]:.2f} s; {len(tracer.spans)} spans")
    else:
        tally, timed, throughputs, digest = timed_run(
            workload, api, args.seed, args.seconds
        )
        lat = tally.latencies
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            # the median round: every round has the same mix of queries,
            # and a median is steadier than the mean on a shared machine
            "queries_per_s": statistics.median(throughputs),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": quantile(lat, 90) * 1e3,
            "decided_share": tally.decided / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
        lines.append("set-ups took " + ", ".join(f"{t:.3f}" for t in setup_times)
                     + f" s after {import_s:.3f} s of imports")
        lines.append(f"{tally.attempted} queries in {len(throughputs)} rounds, "
                     f"{timed:.2f} s timed, {tally.attempted / timed:.6g} queries/s overall")
        if tally.attempted >= 1000:
            lines.append(f"  latency_p99_ms {quantile(lat, 99) * 1e3:.4f} ms")
        else:
            lines.append("  latency_p99_ms not reported: fewer than 1000 queries")
    for m in wanted:
        lines.append(f"  {m['name']} {values[m['name']]:.6g} {m['unit']}")
    lines.append(f"  wrong_verdicts {tally.wrong} count")
    lines.append(f"verdicts checked against a reference: {tally.checked}, "
                 f"pinned: {tally.pinned}; digest {digest[:16]}")
    for name, n in sorted(tally.undecided_names.items()):
        lines.append(f"undecided: {name} x{n}")
    for problem in tally.problems[:20]:
        lines.append(f"PROBLEM: {problem}")
    print("\n".join(lines))
    correct = tally.wrong == 0 and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed + tally.wrong,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
