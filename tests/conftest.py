"""Test-session setup shared by every test module.

The CLI tests run ``python -m twolevel.cli`` in a subprocess whose working
directory is a temporary path, so a relative ``src`` on PYTHONPATH does not
reach the package there.  Put the absolute ``src`` path first instead.
"""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
