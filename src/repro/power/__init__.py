"""Server processor power models.

This subsystem reproduces Section IV-C of the paper: the per-core dynamic
power as a function of frequency and activity, the idle C-state power
(Table I) and the uncore power (LLC plus memory controller / IO).  All
models are analytical and calibrated to the numbers the paper publishes
for the Intel Xeon E5 v4 (Broadwell-EP) platform.
"""

from repro.power.dvfs import (
    CORE_FREQUENCIES_GHZ,
    FMAX_GHZ,
    FMIN_GHZ,
    UNCORE_FMAX_GHZ,
    UNCORE_FMIN_GHZ,
    VoltageFrequencyTable,
)
from repro.power.cstates import CState, CStateTable, XEON_E5_V4_CSTATE_TABLE
from repro.power.core_power import CorePowerModel
from repro.power.uncore_power import UncorePowerModel
from repro.power.power_model import CoreActivity, ServerPowerModel

__all__ = [
    "CORE_FREQUENCIES_GHZ",
    "FMAX_GHZ",
    "FMIN_GHZ",
    "UNCORE_FMAX_GHZ",
    "UNCORE_FMIN_GHZ",
    "VoltageFrequencyTable",
    "CState",
    "CStateTable",
    "XEON_E5_V4_CSTATE_TABLE",
    "CorePowerModel",
    "UncorePowerModel",
    "CoreActivity",
    "ServerPowerModel",
]
