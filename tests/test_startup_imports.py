"""Start-up guard: no run imports ``scipy.ndimage`` or ``scipy.special``.

Importing ``scipy.ndimage`` (which loads ``scipy.special``) adds about
0.12 s to every process start.  The lane march's heat-spreading filter is
NumPy, and ``hot_spot_count`` imports ``scipy.ndimage`` on its first call,
so a fresh interpreter that imports every ``repro`` module and marches one
stack of lanes must leave both packages unloaded.  The check is on
``sys.modules``, so it does not depend on the machine; it times nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages whose import would put start-up time back on every run.
UNWANTED = ("scipy.ndimage", "scipy.special")

PROGRAM = f"""
import importlib, json, pkgutil, sys

import numpy as np

import repro
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.thermosyphon.loop import ThermosyphonLoop

modules = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))
for name in modules:
    importlib.import_module(name)
loop = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN)
maps = np.random.default_rng(0).random((2, 9, 12))
points = [loop.operating_point(float(m.sum())) for m in maps]
boundaries = loop.cooling_boundaries(maps, (1.5, 1.5), points)
print(json.dumps({{
    "modules": modules,
    "marched": len(boundaries),
    "loaded": [name for name in {UNWANTED!r} if name in sys.modules],
}}))
"""


def test_no_run_module_loads_scipy_ndimage_or_special():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(completed.stdout.splitlines()[-1])
    for package in (
        "repro.core",
        "repro.datacenter",
        "repro.experiments.runner",
        "repro.obs",
        "repro.thermal",
        "repro.thermosyphon",
    ):
        assert package in report["modules"]
    assert report["marched"] == 2
    assert report["loaded"] == []
