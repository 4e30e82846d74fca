"""Layer tracing from outside the program.

``Tracer.install`` replaces module-level functions (and a few methods) of
the ``adelic`` package with timing wrappers.  Each call records one span
``[name, start_ns, end_ns, parent, request, count]``; ``count`` is a
machine-independent figure read from the call (vectors returned, terms
summed, points enumerated).  Library code calls its own helpers through
module globals, and names imported with ``from .x import y`` are rebound
in every loaded ``adelic`` module, so internal calls are traced as well
and no file under ``src/`` changes.

``layer_metrics`` turns spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time


def _len_result(args, result):
    return len(result)


def _terms_used(args, result):
    return result.terms_used


def _primes_used(args, result):
    return result.primes_used


# (module, attribute, span name, count extractor, index of an iterable
# argument whose length is the count).  "Class.method" patches the class.
TARGETS = (
    ("adelic.lattice", "HermitianLattice.__init__", "lattice.gram", None, None),
    ("adelic.lattice", "dual", "lattice.dual", None, None),
    ("adelic.lattice", "_enumerate_scaled", "lattice.enumerate", _len_result, None),
    ("adelic.lattice", "theta", "lattice.theta", _terms_used, None),
    ("adelic.lattice", "completed_lambda", "lattice.lambda", _terms_used, None),
    ("adelic.lattice", "zeta_direct_truncated", "lattice.zeta_direct", _terms_used, None),
    ("adelic.numeric", "upper_G", "numeric.upper_G", None, None),
    ("adelic.numeric", "Ctx.upper_G", "numeric.upper_G", None, None),
    ("adelic.numeric", "gamma_complex", "numeric.gamma", None, None),
    ("adelic.numeric", "Ctx.gamma", "numeric.gamma", None, None),
    ("adelic.numeric", "fsum_c", "numeric.fsum", None, 0),
    ("adelic.numeric", "Ctx.fsum", "numeric.fsum", None, 1),
    ("adelic.numeric", "Ctx.fsum_complex", "numeric.fsum", None, 1),
    ("adelic.heights", "ProjPoint.__init__", "heights.projpoint", None, None),
    ("adelic.heights", "restrict_bundle_sum", "heights.restrict", None, None),
    ("adelic.heights", "height_point_sq", "heights.height_sq", None, None),
    ("adelic.arakelov", "base_points_by_height", "arakelov.base_points", _len_result, None),
    ("adelic.arakelov", "arakelov_term_rows", "arakelov.term_rows", None, None),
    ("adelic.counts", "count_Pn", "counts.count", None, None),
    ("adelic.counts", "enumerate_Pn", "counts.enumerate", _len_result, None),
    ("adelic.counts", "fit_asymptotics", "counts.fit", None, None),
    ("adelic.fibration", "enumerate_Fn", "fibration.enumerate", _len_result, None),
    ("adelic.tamagawa", "tamagawa_number", "tamagawa.number", _primes_used, None),
    ("adelic.tamagawa", "_archimedean_density_err", "tamagawa.density", None, None),
    ("adelic.cli", "main", "cli.main", None, None),
)

# Series evaluations that arakelov makes per distinct restriction (its
# per-call cache misses); bound only in the arakelov namespace.
RESTRICTION_EVALS = ("theta", "lattice_zeta")


class Tracer:
    """Records spans in memory; ``request`` tags the spans of one request."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.request = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None, list_arg=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if list_arg is not None and not isinstance(args[list_arg], list):
                args = args[:list_arg] + (list(args[list_arg]),) + args[list_arg + 1 :]
            rec = [nid, 0, 0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, result)
            elif list_arg is not None:
                rec[5] = len(args[list_arg])
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target whose module is already imported."""
        mods = {k: m for k, m in sys.modules.items() if k == "adelic" or k.startswith("adelic.")}
        for modname, attr, name, count, list_arg in TARGETS:
            mod = mods.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.wrap(name, vars(cls)[meth], count, list_arg))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, count, list_arg)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
        ark = mods.get("adelic.arakelov")
        if ark is not None:
            for attr in RESTRICTION_EVALS:
                self._set(ark, attr, self.wrap("arakelov.restriction", getattr(ark, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def export(self) -> dict:
        return {"names": list(self.names), "spans": self.spans}


def merge(dumps) -> dict:
    """Concatenate span dumps, one per process and request, remapping
    names and parent indices; the request id is the dump's position."""
    names: list[str] = []
    spans: list[list[int]] = []
    for request, dump in enumerate(dumps):
        ids = []
        for n in dump["names"]:
            if n not in names:
                names.append(n)
            ids.append(names.index(n))
        base = len(spans)
        for nid, start, end, parent, _, cnt in dump["spans"]:
            spans.append([ids[nid], start, end, parent + base if parent >= 0 else -1, request, cnt])
    return {"names": names, "spans": spans}


def layer_metrics(dump) -> dict:
    """Per-layer totals keyed ``<span>.calls|s|self_s|count``.

    ``calls``, ``s`` and ``count`` take only the outermost span of a run
    of same-named nested spans (recursion, or a method delegating to the
    module function), so nothing is counted twice; ``self_s`` sums each
    span's duration minus the time covered by its direct children.
    """
    names, spans = dump["names"], dump["spans"]
    child_ns = [0] * len(spans)
    for nid, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for i, (nid, start, end, parent, _, cnt) in enumerate(spans):
        name = names[nid]
        dur = end - start
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (dur - child_ns[i]) / 1e9
        if parent >= 0 and spans[parent][0] == nid:
            continue
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".s"] = out.get(name + ".s", 0.0) + dur / 1e9
        out[name + ".count"] = out.get(name + ".count", 0) + cnt
    # base points enumerated for arakelov term rows; the cache-hit ratio
    # of the per-restriction series cache is measured against them
    ark = names.index("arakelov.term_rows") if "arakelov.term_rows" in names else -2
    bp = names.index("arakelov.base_points") if "arakelov.base_points" in names else -2
    out["arakelov.term_rows.points"] = sum(
        cnt for nid, _, _, parent, _, cnt in spans if nid == bp and parent >= 0 and spans[parent][0] == ark
    )
    return out
