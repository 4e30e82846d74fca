"""Run one workload of the adelic benchmark and print its metrics.

    python3 bench/run.py --workload theta_fe --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload runs as a closed loop with one client for
``--seconds`` seconds and the end-to-end metrics are reported.  With
``--trace 1`` a fixed, seed-determined request list runs once untraced and
once with layer wrappers installed (see ``spans.py``); the per-layer
metrics come from the traced pass, the overhead is the difference of the
two wall times, and the spans are written to ``.bench_out/``.  The last
line of stdout is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15

# name, unit, key in spans.layer_metrics (None: computed in traced_run)
PER_LAYER = (
    ("lattice.enumerate.calls", "count", "lattice.enumerate.calls"),
    ("lattice.enumerate.vectors", "count", "lattice.enumerate.count"),
    ("lattice.enumerate.self_s", "s", "lattice.enumerate.self_s"),
    ("lattice.theta.calls", "count", "lattice.theta.calls"),
    ("lattice.theta.terms", "count", "lattice.theta.count"),
    ("lattice.theta.self_s", "s", "lattice.theta.self_s"),
    ("lattice.lambda.calls", "count", "lattice.lambda.calls"),
    ("lattice.lambda.terms", "count", "lattice.lambda.count"),
    ("lattice.lambda.self_s", "s", "lattice.lambda.self_s"),
    ("lattice.zeta_direct.vectors", "count", "lattice.zeta_direct.count"),
    ("lattice.zeta_direct.self_s", "s", "lattice.zeta_direct.self_s"),
    ("lattice.gram.calls", "count", "lattice.gram.calls"),
    ("lattice.gram.s", "s", "lattice.gram.s"),
    ("lattice.dual.calls", "count", "lattice.dual.calls"),
    ("lattice.dual.s", "s", "lattice.dual.s"),
    ("numeric.upper_G.calls", "count", "numeric.upper_G.calls"),
    ("numeric.upper_G.s", "s", "numeric.upper_G.s"),
    ("numeric.gamma.calls", "count", "numeric.gamma.calls"),
    ("numeric.gamma.s", "s", "numeric.gamma.s"),
    ("numeric.fsum.terms", "count", "numeric.fsum.count"),
    ("numeric.fsum.s", "s", "numeric.fsum.s"),
    ("heights.projpoint.calls", "count", "heights.projpoint.calls"),
    ("heights.projpoint.s", "s", "heights.projpoint.s"),
    ("heights.restrict.calls", "count", "heights.restrict.calls"),
    ("heights.restrict.s", "s", "heights.restrict.s"),
    ("heights.height_sq.calls", "count", "heights.height_sq.calls"),
    ("heights.height_sq.s", "s", "heights.height_sq.s"),
    ("arakelov.base_points.points", "count", "arakelov.base_points.count"),
    ("arakelov.base_points.s", "s", "arakelov.base_points.s"),
    ("arakelov.term_rows.calls", "count", "arakelov.term_rows.calls"),
    ("arakelov.term_rows.self_s", "s", "arakelov.term_rows.self_s"),
    ("arakelov.term_rows.points", "count", "arakelov.term_rows.points"),
    ("arakelov.restrictions.distinct", "count", "arakelov.restriction.calls"),
    ("arakelov.cache_hit_ratio", "1", None),
    ("cli.import_s", "s", None),
    ("cli.import.modules", "count", None),
    ("cli.main_s", "s", "cli.main.s"),
    ("tamagawa.number.s", "s", "tamagawa.number.s"),
    ("tamagawa.number.primes_used", "count", "tamagawa.number.count"),
    ("tamagawa.density.s", "s", "tamagawa.density.s"),
    ("counts.count.s", "s", "counts.count.s"),
    ("counts.enumerate.s", "s", "counts.enumerate.s"),
    ("counts.enumerate.points", "count", "counts.enumerate.count"),
    ("counts.fit.s", "s", "counts.fit.s"),
    ("fibration.enumerate.points", "count", "fibration.enumerate.count"),
    ("fibration.enumerate.s", "s", "fibration.enumerate.s"),
    ("trace.spans", "count", None),
    ("trace.overhead_s", "s", None),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_ratio": "1",
    "peak_rss_mb": "MiB",
}


class Loop:
    """Runs requests one after another and keeps the tally."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.attempted = 0
        self.failed = 0

    def issue(self, request) -> None:
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            request()
        except Exception as exc:  # a failed request is counted, never retried
            self.failed += 1
            if self.failed <= 5:
                print(f"request failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                if not isinstance(exc, workloads.CheckFailed):
                    traceback.print_exc(file=sys.stderr)
        self.latencies_ns.append(time.perf_counter_ns() - t0)


def invoke(workload: str, seed: int, seconds: int, trace: int = 0, *extra: str) -> dict:
    """Run this script in a fresh interpreter and return its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout.decode().splitlines()[-1])


def setup_samples(args) -> list[float]:
    """Set-up time of fresh interpreters, each importing the workload's
    modules and building its inputs."""
    return [invoke(args.workload, args.seed, args.seconds, 0, "--setup-probe")["setup_s"] for _ in range(SETUP_PROBES)]


def timed_run(wl, args) -> dict:
    cli = isinstance(wl, workloads.CliCold)
    setups = [] if cli else setup_samples(args)
    pool = wl.build(wl.draw(args.seed, wl.pool_size(args.seconds)))
    loop = Loop()
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        loop.issue(pool[i % len(pool)])
        i += 1
    wall = time.perf_counter() - start
    if i > len(pool):
        print(f"note: input pool of {len(pool)} requests wrapped around", file=sys.stderr)

    lat = sorted(loop.latencies_ns)
    n = len(lat)
    # the highest percentile with at least ten samples beyond it
    tail = lat[-11] if n > 10 else lat[-1]
    tail_pct = 100.0 * (n - 10) / n if n > 10 else 100.0
    if cli:
        setups = [c["import_s"] for c in wl.children]
        rss = max(c["maxrss_kb"] for c in wl.children) / 1024.0
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setups),
        "throughput_rps": (loop.attempted - loop.failed) / wall,
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_tail_ms": tail / 1e6,
        "success_ratio": 1.0 - loop.failed / loop.attempted,
        "peak_rss_mb": rss,
    }
    print(f"workload {wl.name}: seed {args.seed}, {loop.attempted} requests in {wall:.2f} s, "
          f"closed loop with one client, {loop.failed} failed (fail_ratio {loop.failed / loop.attempted:.4f})")
    print(f"latency_tail_ms is p{tail_pct:.1f} over {n} samples; setup_s is the median of {len(setups)} set-ups")
    return {"loop": loop, "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}}


def traced_run(wl, args) -> dict:
    import spans

    cli = isinstance(wl, workloads.CliCold)
    raw = wl.draw(args.seed, wl.TRACE_SIZE)
    plain = wl.build(raw)
    traced = wl.build(raw)  # fresh objects: no warm caches
    loop = Loop()
    t0 = time.perf_counter()
    for req in plain:
        loop.issue(req)
    untraced_wall = time.perf_counter() - t0

    tracer = spans.Tracer()
    if cli:
        plain_children, wl.children = wl.children, []
        wl.trace = True
    else:
        tracer.install()
    t0 = time.perf_counter()
    try:
        for i, req in enumerate(traced):
            tracer.request = i
            loop.issue(req)
    finally:
        traced_wall = time.perf_counter() - t0
        tracer.uninstall()

    if cli:
        dump = spans.merge([c["spans"] for c in wl.children])
    else:
        dump = tracer.export()
    layers = spans.layer_metrics(dump)
    points = layers.get("arakelov.term_rows.points", 0)
    distinct = layers.get("arakelov.restriction.calls", 0)
    values = {
        "arakelov.cache_hit_ratio": 1.0 - distinct / points if points else 0.0,
        "cli.import_s": sum(c["import_s"] for c in wl.children) if cli else 0.0,
        "cli.import.modules": max((c["modules"] for c in wl.children), default=0) if cli else 0,
        "trace.spans": len(dump["spans"]),
        # a cli child is traced only inside main(); its import is not
        "trace.overhead_s": (sum(c["main_s"] for c in wl.children) - sum(c["main_s"] for c in plain_children)
                             if cli else traced_wall - untraced_wall),
    }
    metrics = {}
    for name, unit, key in PER_LAYER:
        value = values[name] if key is None else layers.get(key, 0)
        metrics[name] = {"value": value, "unit": unit}

    workloads.OUT.mkdir(exist_ok=True)
    path = workloads.OUT / f"trace-{wl.name}-seed{args.seed}.json"
    path.write_text(json.dumps(dump, separators=(",", ":")))
    print(f"workload {wl.name}: seed {args.seed}, {len(plain)} requests untraced in {untraced_wall:.2f} s "
          f"and traced in {traced_wall:.2f} s; {len(dump['spans'])} spans written to {path.relative_to(ROOT)}")
    print(f"arakelov.cache_hit_ratio base: {points} base points, {distinct} distinct restrictions")
    return {"loop": loop, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "adelic" / "__init__.py").is_file():
        print(f"error: {SRC / 'adelic'} not found; run from the root of an adelic checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        print(json.dumps({"setup_s": workloads.setup_time(wl, args.seed, args.seconds)}))
        return 0
    import adelic

    if Path(adelic.__file__).resolve().parent != SRC / "adelic":
        print(f"error: imported adelic from {adelic.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    result = traced_run(wl, args) if args.trace else timed_run(wl, args)
    loop = result["loop"]
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
