"""Record the golden outputs of the ``cli_cold`` command mix.

    python3 bench/record_goldens.py

Run from the root of a checkout.  Every command of ``workloads.CLI_MIX``
runs twice through ``adelic.cli:main``; the exit code and stdout must
agree between the two runs, and are written to ``bench/cli_goldens.json``.
The committed goldens were recorded at the commit that introduced the
benchmark: a change that makes the benchmark report a golden mismatch has
changed what the CLI prints, and re-recording the goldens hides that.
"""

import json
import sys

import workloads


def main() -> int:
    out = []
    for name, argv in workloads.CLI_MIX:
        runs = [workloads.run_cli_child(argv)[:2] for _ in range(2)]
        if runs[0] != runs[1]:
            print(f"{name}: two runs disagree; output is not deterministic", file=sys.stderr)
            return 1
        rc, stdout = runs[0]
        out.append({"name": name, "argv": argv, "exit": rc, "stdout": stdout.decode("utf-8")})
        print(f"{name}: exit {rc}, {len(stdout)} bytes")
    workloads.GOLDENS.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
