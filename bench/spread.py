"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py [--seeds 1-10] [--json OUT] [WORKLOAD ...]

Runs ``bench/run.py`` once per seed and workload, one run at a time and
for the ``run_seconds`` of ``BENCHMARK.json``, and
prints for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
quartile distance as a share of the median.  With ``--json`` the same
figures, and the per-layer counts of one traced run on the first seed,
are written to a file in the format of ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan"), "runs": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for wl in args.workloads:
        runs: dict[str, list[float]] = {}
        for seed in args.seeds:
            result = run.invoke(wl, seed, bench["run_seconds"])
            if not result["correct"]:
                print(f"{wl} seed {seed}: {result['failed']} of {result['attempted']} requests failed")
            for name, m in result["metrics"].items():
                runs.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + ", ".join(f"{k} {v[-1]:.4g}" for k, v in runs.items()), flush=True)
        summary[wl] = {name: summarize(values) for name, values in runs.items()}
        for name, s in summary[wl].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above a third of the bound"
            print(f"  {wl} {name}: median {s['median']:.6g} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] "
                  f"spread {s['spread']:.3f} (bound {bound}){flag}", flush=True)
    if args.json:
        out = {"seeds": [args.seeds[0], args.seeds[-1]], "seconds": bench["run_seconds"], "workloads": {}}
        for w in bench["workloads"]:
            if w["name"] not in summary:
                continue
            traced = run.invoke(w["name"], args.seeds[0], bench["run_seconds"], 1)["metrics"]
            out["workloads"][w["name"]] = {
                "why": w["why"],
                "end_to_end": summary[w["name"]],
                "per_layer_counts": {k: m["value"] for k, m in traced.items() if m["unit"] == "count"},
            }
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
