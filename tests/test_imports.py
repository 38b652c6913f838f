"""Every ``repro`` package imports cleanly as a process's first import,
and the runtime needs numpy only."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(p.parent.name for p in (SRC / "repro").glob("*/__init__.py"))


# Refuses every scipy import, then profiles a pair, provisions it with
# the Hercules LP and replays a short fleet.
_WITHOUT_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused: the runtime needs numpy only")
        return None


sys.meta_path.insert(0, RefuseScipy())

from repro.cli import main
from repro.cluster import HerculesClusterScheduler
from repro.hardware import SERVER_TYPES
from repro.models import build_model
from repro.scheduling import OfflineProfiler

table = OfflineProfiler().profile([SERVER_TYPES["T2"]], [build_model("DLRM-RMC1")])
allocation = HerculesClusterScheduler(table, {"T2": 8}).allocate({"DLRM-RMC1": 2000.0})
assert allocation.counts and not allocation.has_shortfall, allocation
code = main(
    ["fleet", "--servers", "4", "--server-types", "T2", "--models", "DLRM-RMC1",
     "--duration", "2", "--segments", "8"]
)
assert code == 0, code
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first(package):
    """A fresh interpreter whose first import is ``repro.<package>``
    must not hit a circular ImportError."""
    proc = _run(f"import repro.{package}")
    assert proc.returncode == 0, proc.stderr


def test_runtime_needs_numpy_only():
    """Profiling, LP provisioning and a fleet replay run with every
    scipy import refused, and never load scipy."""
    proc = _run(_WITHOUT_SCIPY)
    assert proc.returncode == 0, proc.stderr
