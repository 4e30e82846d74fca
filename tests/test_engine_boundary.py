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
