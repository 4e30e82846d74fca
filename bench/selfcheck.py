"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

For every workload, runs the traced run twice with seed 7 and requires
that every per-layer count (unit ``count``) is identical between the two
runs, that both runs pass their checks, and that the printed metric names
and units are exactly those declared in ``BENCHMARK.json``.  Exits 1 on
any difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        first, second = (run.invoke(wl, SEED, bench["run_seconds"], 1) for _ in range(2))
        for result in (first, second):
            if not result["correct"]:
                problems.append(f"{wl}: {result['failed']} of {result['attempted']} requests failed")
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            if printed != declared:
                problems.append(f"{wl}: printed per-layer metrics differ from BENCHMARK.json")
        counts = [k for k, unit in declared.items() if unit == "count"]
        differ = [k for k in counts if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        for k in differ:
            problems.append(f"{wl}: {k} is {first['metrics'][k]['value']} then {second['metrics'][k]['value']}")
        print(f"{wl}: {len(counts) - len(differ)} of {len(counts)} counts repeat exactly", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selfcheck: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
