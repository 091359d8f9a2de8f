"""Importing the package leaves scipy unloaded; only the GHD LP loads it."""

import os
import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(repro.__file__).resolve().parents[1])


def test_scipy_loads_only_for_the_ghd_lp():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_import_footprint.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "scipy loads only for the GHD LP" in done.stdout
