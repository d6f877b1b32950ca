"""The quick demos run to completion, so a change that breaks one fails here.

Demos 01-04 each take about a second. Each runs as its own process in a
temporary working directory, since demo 02 writes its PGM maps to the
working directory. Two demos are left out: 05 trains a model for about a
minute, and 06 drives the installed `firecast` console script, which a
source checkout does not have.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ["01_raster_stacks.py", "02_synthetic_scenes.py",
               "03_tiles_and_splits.py", "04_autodiff.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
