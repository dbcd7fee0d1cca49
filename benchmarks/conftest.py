"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
corresponding rows/series, so ``pytest benchmarks/ --benchmark-only -s``
doubles as the reproduction report.  A 1.5 mm thermal grid balances fidelity
against runtime; use ``repro.experiments.runner`` for the full-resolution
version.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# The assembly benchmarks compare against the golden-model loop assembler
# kept under tests/; make the repository root importable for them.
_ROOT = Path(__file__).parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from repro.experiments.common import build_platform  # noqa: E402


@pytest.fixture(scope="session")
def platform():
    """Shared experiment platform with a 1.5 mm thermal grid."""
    return build_platform(cell_size_mm=1.5)
