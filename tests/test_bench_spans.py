"""The benchmark's layer tracer finds program functions by name.

``bench/spans.py`` lists (module, attribute) pairs and wraps them when a
traced run (``bench/run.py --trace 1``) starts.  A renamed or moved
function would only show there, as an AttributeError at install, so every
pair is resolved here the way ``Tracer.install`` resolves it.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import adelic

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {m.name: importlib.import_module(m.name) for m in pkgutil.iter_modules(adelic.__path__, "adelic.")}
    targets = [(modname, attr) for modname, attr, *_ in spans.TARGETS]
    targets += [("adelic.arakelov", attr) for attr in spans.RESTRICTION_EVALS]
    assert spans.TARGETS
    missing = []
    for modname, attr in targets:
        mod = modules.get(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # install patches the method in the class's own namespace
            found = mod is not None and meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{modname}:{attr}")
    assert missing == []
