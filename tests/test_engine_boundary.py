"""Only adelic.numeric knows which floating point engine runs.

Ctx chooses IEEE double or mpmath once and binds the engine's functions;
every other module talks to the context.  A module that asks which engine
is running, or imports mpmath itself, reopens the fork Ctx closes.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "adelic"


def test_only_numeric_knows_the_engine():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "numeric.py")
    assert modules, "no modules found next to numeric.py"
    offenders = [
        f"{p.name}:{n}: {line.strip()}"
        for p in modules
        for n, line in enumerate(p.read_text().splitlines(), 1)
        if re.search(r"is_float|mpmath", line)
    ]
    assert offenders == []


def test_counting_needs_no_factorisation():
    # count_Pn peels off multiples by quotients alone: no Moebius function,
    # so the counting layer imports nothing from adelic.places
    lines = (SRC / "counts.py").read_text().splitlines()
    assert [line for line in lines if re.search(r"\bplaces\b|mobius", line)] == []


def test_arakelov_needs_no_factorisation():
    # height class multiplicities come from a totient sieve and gcd
    # counts, and the grouped reference column from their running sum
    lines = (SRC / "arakelov.py").read_text().splitlines()
    assert [line for line in lines if re.search(r"\bplaces\b|euler_phi", line)] == []


def test_one_exact_elimination():
    # exact.bareiss is the one elimination: no other module runs a
    # fraction-free row update, the lattice imports no inverse, and
    # exact.py keeps no Gauss-Jordan over Fraction
    offenders = [
        f"{p.name}:{n}: {line.strip()}"
        for p in sorted(SRC.glob("*.py"))
        if p.name != "exact.py"
        for n, line in enumerate(p.read_text().splitlines(), 1)
        if re.search(r"//\s*prev\b", line)
    ]
    assert offenders == []
    lattice = (SRC / "lattice.py").read_text().splitlines()
    assert [line for line in lattice if re.search(r"import.*\binverse\b", line)] == []
    assert re.findall(r"\binvert\b|\bdef (inverse|_eliminate)\b|/ piv\b", (SRC / "exact.py").read_text()) == []
