"""Every ``repro`` package imports cleanly as a process's first import."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(p.parent.name for p in (SRC / "repro").glob("*/__init__.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first(package):
    """A fresh interpreter whose first import is ``repro.<package>``
    must not hit a circular ImportError."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import repro.{package}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
