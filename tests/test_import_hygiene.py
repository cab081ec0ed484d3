"""Cold-start guard: importing the library loads neither scipy nor networkx.

scipy serves only :mod:`repro.speedup.fit` and networkx only
``to_networkx``/``from_networkx``; both import lazily inside those
functions.  Each module is imported in a fresh interpreter, because this
test process has usually loaded both already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy", "networkx")
MODULES = [
    "repro",
    "repro.experiments",
    "repro.service",
    "repro.lint",
    "repro.runtime",
    "repro.obs",
]


@pytest.mark.parametrize("module", MODULES)
def test_import_loads_no_heavy_dependency(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    code = f"import {module}, sys; print(sorted({set(HEAVY)!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]", f"import {module} loaded {out.strip()}"
