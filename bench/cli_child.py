"""Run ``adelic.cli:main`` the way the ``adelic`` console script does, and
report what the run cost.

    python3 bench/cli_child.py REPORT.json TRACE ARGS...

With PYTHONPATH=src this imports ``adelic.cli``, calls ``main(ARGS)`` and
exits with its return code; stdout is the command's own.  REPORT.json
receives the import time, the number of modules the import added, the
time spent in ``main``, the peak resident set, and with TRACE=1 the spans
of every traced call.
"""

import json
import resource
import sys
import time

report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]

modules_before = len(sys.modules)
t0 = time.perf_counter()
import adelic.cli  # noqa: E402

t1 = time.perf_counter()
modules = len(sys.modules) - modules_before

tracer = None
if trace:
    import spans

    tracer = spans.Tracer()
    tracer.install()

t2 = time.perf_counter()
try:
    rc = adelic.cli.main(argv)
finally:
    t3 = time.perf_counter()
    sys.stdout.flush()
    info = {
        "import_s": t1 - t0,
        "modules": modules,
        "main_s": t3 - t2,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        info["spans"] = tracer.export()
    with open(report_path, "w") as fh:
        json.dump(info, fh)
sys.exit(rc)
