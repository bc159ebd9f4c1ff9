"""Every script under demos/ runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cheatlab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = Path(cheatlab.__file__).resolve().parent.parent


def test_every_demo_is_listed():
    assert [d.name for d in DEMOS] == [
        "cheat_transfer.py", "evolve_controller.py", "expert_flight.py",
        "full_pipeline.py", "train_scan_vae.py", "world_tour.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Each demo runs from an empty directory with its own temp root, so
    # whatever it writes or leaves behind shows up there.
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(scratch.iterdir()) == []
