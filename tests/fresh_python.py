"""Runs a script in a fresh interpreter on this checkout's binomlcm."""

import os
import subprocess
import sys
from pathlib import Path

import binomlcm


def run_python(script: str, *argv: str) -> str:
    """Last stdout line of script run with argv in a fresh interpreter, which
    imports binomlcm from where this process found it."""
    paths = [str(Path(binomlcm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.splitlines()[-1]
