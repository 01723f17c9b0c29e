"""Every script under ``examples/`` runs to completion.

The examples are the first code a new user copies, so an API change that
breaks one must fail the suite.  Each runs in a fresh interpreter with
``src`` on ``PYTHONPATH``, exactly as its module docstring says to run it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_are_collected():
    assert EXAMPLES, f"no example scripts under {EXAMPLES_DIR}"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, (
        f"{script.name} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
    )
    assert proc.stdout.strip(), f"{script.name} printed nothing"
