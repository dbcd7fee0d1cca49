"""perfbench's traced run resolves every library entry point it wraps.

``perfbench/layers.py`` wraps each name in its ``WRAPPED`` table by
attribute lookup, and CI runs perfbench untraced only, so a renamed or
deleted method would surface only in a traced benchmark run.  Installing
the wrappers in a fresh process makes such a rename fail here instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
from perfbench import layers
layers.install()
print(len(layers.WRAPPED))
"""


def test_every_wrapped_entry_point_resolves():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    result = subprocess.run(
        [sys.executable, "-c", INSTALL],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.strip()) > 0
