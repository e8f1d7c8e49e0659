"""Runs Python in a fresh interpreter on this checkout's binomlcm."""

import os
import subprocess
import sys
from pathlib import Path

import binomlcm


def fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports binomlcm from
    where this process found it."""
    paths = [str(Path(binomlcm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def run_python(script: str, *argv: str) -> str:
    """Last stdout line of script run with argv in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", script, *argv], env=fresh_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.splitlines()[-1]
