"""The benchmark's four workloads: seeded inputs, requests and checks.

A workload draws raw inputs from a seed (``draw``: Fractions, floats,
cutoffs; no program code) and turns them into requests (``build``: imports
the program and constructs its objects, such as ``HermitianLattice``).
Only ``build`` counts as set-up.  A request is a zero-argument callable
that performs one call into the program and checks its result; it raises
``CheckFailed`` (or whatever the program raised) when the result is
wrong.  Library calls go through module
attributes at call time, so the tracing wrappers of ``spans.py`` see them.

Inputs are cycled in fixed strata (ranks, scales, cutoff bands) so that
every run of a workload has the same mix whatever its seed; the seed
draws the values inside each stratum.  That keeps throughput and the
latency percentiles comparable from seed to seed.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"


class CheckFailed(Exception):
    """A result that breaks an identity, a gate or a golden output."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- seeded inputs -------------------------------------------------------


def random_fraction(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int = 8) -> Fraction:
    """A rational in [lo, hi] with denominator at most ``max_den``."""
    den = rng.randint(1, max_den)
    lo_n = int(lo * den) + 1
    hi_n = int(hi * den)
    return Fraction(rng.randint(min(lo_n, hi_n), hi_n), den)


def random_gram(rng: random.Random, d: int, lo=Fraction(1, 4), hi=Fraction(4)) -> list[list[Fraction]]:
    """Dense symmetric Gram matrix with entries in [lo, hi] (check 02).

    Off-diagonal entries lie in [lo, 3/4]; each diagonal entry exceeds
    its row's off-diagonal sum by at least 1/2, so the matrix is strictly
    diagonally dominant and hence positive definite.
    """
    off = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            off[i][j] = off[j][i] = random_fraction(rng, lo, min(hi, Fraction(3, 4)))
    rows = []
    for i in range(d):
        dlo = max(lo, sum(off[i]) + Fraction(1, 2))
        diag = random_fraction(rng, dlo, max(hi, dlo))
        rows.append([diag if j == i else off[i][j] for j in range(d)])
    return rows


def totient(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _load(names) -> list:
    return [importlib.import_module(n) for n in names]


# -- theta_fe ------------------------------------------------------------


class ThetaFE:
    """check-02 requests: one theta functional equation check each.

    A block is one lattice of each of the ranks in ``RANKS`` at the three
    scales.  Requests at rank 1-2 take under 1.5 ms and those at rank 3-4
    over 2 ms, so with one lattice per rank the median fell in that gap
    and jumped by a quarter from run to run; the second rank-3 lattice
    puts it inside the rank-3 requests.  The rank-4 lattice at t = 2 takes
    almost all of a block's time and its enumeration sets peak memory, so
    the rank-4 lattices come from a fixed set of twelve (drawn by
    ``random_gram`` from check 02's seed) that the run seed orders; freshly
    drawn ones moved peak memory by a fifth from seed to seed.  The run
    seed draws the lattices of ranks 1-3.
    """

    name = "theta_fe"
    modules = ("adelic.lattice",)
    SCALES = (Fraction(1, 3), Fraction(1), Fraction(2))
    RANKS = (1, 2, 3, 3)  # drawn from the run seed; rank 4 follows
    RANK4_SEED, RANK4_SET = 20260822, 12
    TRACE_SIZE = 2  # blocks

    @staticmethod
    def pool_size(seconds: int) -> int:
        # a block takes about 1 s
        return 3 * seconds

    def draw(self, seed: int, blocks: int) -> list:
        rng4 = random.Random(self.RANK4_SEED)
        rank4 = [random_gram(rng4, 4) for _ in range(self.RANK4_SET)]
        rng = random.Random(seed)
        queue: list = []
        grams = []
        for _ in range(blocks):
            if not queue:
                queue = rng.sample(rank4, len(rank4))
            grams.extend([random_gram(rng, d) for d in self.RANKS] + [queue.pop()])
        return grams

    def build(self, grams: list) -> list:
        (lattice,) = _load(self.modules)
        reqs = []
        for g in grams:
            L = lattice.HermitianLattice(g)
            reqs.extend(partial(self.request, lattice, L, t) for t in self.SCALES)
        return reqs

    @staticmethod
    def request(lattice, L, t) -> None:
        rep = lattice.theta_functional_equation_defect(L, t, 1e-12)
        check(rep.defect <= rep.allowance, f"rank {L.rank} t={t}: defect {rep.defect:.3e} > allowance {rep.allowance:.3e}")


# -- zeta_cont -----------------------------------------------------------


class ZetaCont:
    """(a) direct against continued zeta on the check-04 lattices,
    interleaved with (b) Lambda duality pairs on the check-03 lattices at
    64 and 128 bits.

    The check-04 set (12 rank-1 and 8 rank-2 lattices, drawn by
    ``random_gram`` from check 04's own seed) is fixed: peak memory is set
    by the largest rank-2 enumeration at radius 400, and with freshly drawn
    lattices that maximum moved by a quarter from seed to seed.  The run
    seed orders the set and draws every s of (b).
    """

    name = "zeta_cont"
    modules = ("adelic.lattice", "adelic.numeric")
    CHECK04_SEED = 20260822
    DIRECT_RANKS = (1, 1, 1, 2, 2)  # the 12:8 rank split of check 04
    CHECK03 = ([[2]], [[2, 1], [1, 2]], [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    TRACE_SIZE = 5  # cycles of one (a), one 64-bit (b) and one 128-bit (b)

    @staticmethod
    def pool_size(seconds: int) -> int:
        # a cycle of three requests takes about 0.45 s
        return 6 * seconds

    def draw(self, seed: int, cycles: int) -> list:
        """Per cycle: a check-04 Gram matrix, the index of a check-03
        lattice, and an s for each of the 64- and 128-bit pairs."""
        rng04 = random.Random(self.CHECK04_SEED)
        check04 = {1: [], 2: []}
        for i in range(20):
            d = 1 if i < 12 else 2
            check04[d].append(random_gram(rng04, d))
        rng = random.Random(seed)
        queues = {1: [], 2: []}
        out = []
        for i in range(cycles):
            d = self.DIRECT_RANKS[i % len(self.DIRECT_RANKS)]
            if not queues[d]:
                queues[d] = rng.sample(check04[d], len(check04[d]))
            j = i % len(self.CHECK03)
            rank = len(self.CHECK03[j])
            out.append((queues[d].pop(), j, self.draw_s(rng, rank), self.draw_s(rng, rank)))
        return out

    def build(self, cycles: list) -> list:
        lattice, numeric = _load(self.modules)
        ctxs = (numeric.DEFAULT_CTX, numeric.Ctx(128))
        pairs = []
        for g in self.CHECK03:
            L = lattice.HermitianLattice([[Fraction(v) for v in row] for row in g])
            pairs.append((L, lattice.dual(L)))
        reqs = []
        for gram, j, s64, s128 in cycles:
            reqs.append(partial(self.direct_vs_continued, lattice, lattice.HermitianLattice(gram)))
            L, Ld = pairs[j]
            for ctx, s in zip(ctxs, (s64, s128)):
                reqs.append(partial(self.duality, lattice, L, Ld, s, ctx))
        return reqs

    @staticmethod
    def draw_s(rng: random.Random, d: int) -> complex:
        """Complex s over the check-03 strip Re s = d/2 +- 3.5, kept a
        quarter away from the poles at 0 and d."""
        while True:
            s = complex(d / 2 + rng.uniform(-3.5, 3.5), rng.uniform(-2.0, 2.0))
            if abs(s) >= 0.25 and abs(s - d) >= 0.25:
                return s

    @staticmethod
    def direct_vs_continued(lattice, L) -> None:
        d = L.rank
        s = d + 2.0
        if d == 1:
            R = 20000
            direct = lattice.zeta_direct_truncated(L, s, R)
            a = L.gram[0][0]
            # nonzero k with a k^2 <= R^2, counted exactly
            want = 2 * isqrt(R * R * a.denominator // a.numerator)
            check(direct.terms_used == want, f"rank 1 direct sum used {direct.terms_used} vectors, expected {want}")
        else:
            direct = lattice.zeta_direct_truncated(L, s, 400, tail_correction=True)
        cont = lattice.lattice_zeta(L, s)
        gap = abs(complex(direct.value) - complex(cont.value))
        check(gap < 1e-8, f"rank {d}: direct vs continued gap {gap:.3e} >= 1e-8")

    @staticmethod
    def duality(lattice, L, Ld, s: complex, ctx) -> None:
        lhs = lattice.completed_lambda(L, s, 1e-12, ctx)
        rhs = lattice.completed_lambda(Ld, L.rank - s, 1e-12, ctx)
        gap = abs(complex(lhs.value) - complex(rhs.value))
        check(gap < 1e-9, f"rank {L.rank} s={s} {ctx.bits}-bit: Lambda duality gap {gap:.3e} >= 1e-9")


# -- arakelov_group ------------------------------------------------------


class ArakelovGroup:
    """Grouped theta-series coefficients over a jittered cutoff ladder,
    and the check-06 duality defects at cutoff 50."""

    name = "arakelov_group"
    modules = ("adelic.arakelov", "adelic.heights")
    BANDS = ((20, 30), (30, 40), (40, 50), (50, 60), (60, 70))
    DUALITY_DEGREES = ((1,), (1, 2))
    TRACE_SIZE = 1  # cycles of one grouped request per band plus both dualities

    @staticmethod
    def pool_size(seconds: int) -> int:
        # a cycle of seven requests takes about 4 s
        return math.ceil(seconds * 0.8) + 2

    def draw(self, seed: int, cycles: int) -> list:
        """("grouped", B, s) and ("duality", degrees, s) in request order."""
        rng = random.Random(seed)
        out = []
        for _ in range(cycles):
            out.extend(("grouped", rng.randrange(lo, hi), rng.uniform(2.0, 4.0)) for lo, hi in self.BANDS)
            out.extend(("duality", degrees, rng.uniform(2.5, 4.0)) for degrees in self.DUALITY_DEGREES)
        return out

    def build(self, raw: list) -> list:
        arakelov, heights = _load(self.modules)
        reqs = []
        for kind, arg, s in raw:
            if kind == "grouped":
                reqs.append(partial(self.grouped, arakelov, heights.ArchKind.MAX, arg, s))
            else:
                spec = arakelov.ArakelovSeriesSpec(arg, s=s, cutoff=50)
                reqs.append(partial(self.duality, arakelov, spec))
        return reqs

    @staticmethod
    def grouped(arakelov, arch, B: int, s: float) -> None:
        # the library itself raises when the regrouped sum is not
        # bit-identical to the direct sum; that counts as a failure here
        rows = arakelov.grouped_series_coefficients(B, (1,), arch, s, 1e-8)
        check([r.height for r in rows] == list(range(1, B + 1)), f"B={B}: heights are not 1..{B}")
        summatory = 0
        for r in rows:
            N = r.height
            phi = totient(N)
            summatory += phi
            check(r.count == (4 if N == 1 else 4 * phi), f"B={B}: count {r.count} at N={N}, expected 4*phi(N)")
            check(r.reference_coefficient == 2 * (1 + 2 * summatory), f"B={B}: reference coefficient at N={N}")
            # Poisson summation: theta of [[1/N^2]] at t=1 is N * theta of [[N^2]]
            k_max = max(1, math.ceil(6.0 / N))
            want = N * (1.0 + 2.0 * math.fsum(math.exp(-math.pi * N * N * k * k) for k in range(1, k_max + 1)))
            check(abs(r.theta_value - want) <= 1e-9, f"B={B}: theta value at N={N} off by {abs(r.theta_value - want):.3e}")
            term = r.theta_value * math.exp(-s * math.log(N))
            check(abs(r.term - term) <= 1e-12 * abs(term), f"B={B}: term at N={N} is not theta * N^-s")

    @staticmethod
    def duality(arakelov, spec) -> None:
        defect = arakelov.theta_duality_defect(spec, 1e-12)
        check(defect < 1e-9, f"degrees {spec.bundle_degrees} s={spec.s}: duality defect {defect:.3e} >= 1e-9")


# -- cli_cold ------------------------------------------------------------

# The fixed command mix; file arguments are relative to the checkout root.
CLI_MIX = (
    ("height", ["height", "2", "3", "l2", "1", "2", "3/7"]),
    ("twist", ["twist", "1", "2", "max", "3", "5", "--element", "bench/data/twist2.txt"]),
    ("lattice-theta", ["lattice", "theta", "--gram", "bench/data/gram3.txt", "--t", "1/2"]),
    ("lattice-lambda", ["lattice", "lambda", "--gram", "bench/data/gram3.txt", "--s", "1.3+0.7j"]),
    ("lattice-lambda-128", ["--precision-bits", "128", "lattice", "lambda", "--gram", "diag:2,3", "--s", "0.8+1.1j"]),
    ("count", ["count", "--n", "2", "--arch", "l2", "--H", "40"]),
    ("zeta", ["zeta", "--n", "1", "--s", "3", "--H", "60"]),
    ("fit", ["fit", "--n", "1", "--thresholds", "10,20,40,80,160,320,640,1000"]),
    ("hirzebruch-height", ["hirzebruch", "height", "--n", "2", "--cls", "1,0,1", "--base", "2,3", "--fiber", "1,5"]),
    ("hirzebruch-enumerate", ["hirzebruch", "enumerate", "--n", "1", "--cls", "1,0,1", "--H", "6"]),
    ("arakelov", ["arakelov", "--degrees", "1,2", "--s", "2.5", "--cutoff", "12"]),
    ("tamagawa-P1-peyre", ["tamagawa", "--variety", "P1", "--cutoff", "1000", "--peyre-check", "--H", "90000"]),
    ("tamagawa-F2", ["tamagawa", "--variety", "F2", "--cutoff", "1000"]),
)
GOLDENS = BENCH / "cli_goldens.json"


def run_cli_child(argv, trace: bool = False) -> tuple[int, bytes, dict]:
    """Run ``adelic.cli:main`` in a fresh interpreter with PYTHONPATH=src
    (the console script is not required).  Returns the exit code, the
    stdout bytes and the child's own report (import and main times, module
    count, peak RSS, and spans when traced)."""
    OUT.mkdir(exist_ok=True)
    report = OUT / f"cli-child-{os.getpid()}.json"
    env = dict(os.environ, PYTHONPATH="src", PYTHONIOENCODING="utf-8")
    cmd = [sys.executable, str(BENCH / "cli_child.py"), str(report), "1" if trace else "0", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        info = json.loads(report.read_text())
    finally:
        report.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, info


class CliCold:
    """Each request is a fresh interpreter running one command of the mix."""

    name = "cli_cold"
    modules = ()
    TRACE_SIZE = 1  # passes over the mix

    def __init__(self):
        goldens = json.loads(GOLDENS.read_text())
        self.goldens = {g["name"]: g for g in goldens}
        for name, argv in CLI_MIX:
            if self.goldens.get(name, {}).get("argv") != argv:
                raise SystemExit(f"cli golden for {name!r} is missing or was recorded for other arguments")
        self.trace = False
        self.children: list[dict] = []

    @staticmethod
    def pool_size(seconds: int) -> int:
        # a pass over the mix takes about 10 s
        return seconds // 5 + 2

    def draw(self, seed: int, passes: int) -> list:
        rng = random.Random(seed)
        order = []
        for _ in range(passes):
            order.extend(rng.sample(CLI_MIX, len(CLI_MIX)))
        return order

    def build(self, order: list) -> list:
        return [partial(self.request, name, argv) for name, argv in order]

    def request(self, name: str, argv) -> None:
        rc, out, info = run_cli_child(argv, self.trace)
        self.children.append(info)
        golden = self.goldens[name]
        check(rc == golden["exit"], f"{name}: exit code {rc}, golden {golden['exit']}")
        check(out == golden["stdout"].encode("utf-8"), f"{name}: stdout differs from the golden output")


WORKLOADS = {w.name: w for w in (ThetaFE, ZetaCont, ArakelovGroup, CliCold)}


def setup_time(workload, seed: int, seconds: int) -> float:
    """Import the workload's modules and build the program's inputs from
    the drawn ones; the caller is a fresh interpreter, so this is the cost
    a new process pays."""
    raw = workload.draw(seed, workload.pool_size(seconds))
    t0 = time.perf_counter()
    workload.build(raw)
    return time.perf_counter() - t0
