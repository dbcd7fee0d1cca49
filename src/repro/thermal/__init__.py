"""Compact thermal simulation substrate (3D-ICE-like layered RC model).

The paper uses the 3D-ICE compact thermal simulator to obtain die and
package temperatures from a spatial power map.  This subsystem implements
the same modelling approach at reduced fidelity: the chip/cooling assembly is
discretised into a uniform grid of cells across a stack of material layers
(die silicon, thermal interface, copper heat spreader, second interface,
evaporator base), lateral and vertical conductances connect neighbouring
cells, the top surface exchanges heat with the thermosyphon micro-channel
fluid through per-cell convective conductances, and the resulting sparse
linear system is solved for steady-state or transient temperatures.
"""

from repro.thermal.materials import MATERIALS, Material
from repro.thermal.layers import Layer, LayerStack, standard_thermosyphon_stack
from repro.thermal.grid import ThermalGrid
from repro.thermal.boundary import BottomBoundary, CoolingBoundary, uniform_cooling_boundary
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver_cache import CacheStats, FactorizationCache
from repro.thermal.metrics import (
    HotSpot,
    ThermalMetrics,
    compute_metrics,
    hot_spot_count,
    hot_spot_location,
    max_spatial_gradient,
)
from repro.thermal.simulator import ThermalResult, ThermalSimulator
from repro.thermal.warm_store import WarmStore, WarmStoreStats

__all__ = [
    "MATERIALS",
    "Material",
    "Layer",
    "LayerStack",
    "standard_thermosyphon_stack",
    "ThermalGrid",
    "CoolingBoundary",
    "BottomBoundary",
    "uniform_cooling_boundary",
    "ThermalNetwork",
    "CacheStats",
    "FactorizationCache",
    "HotSpot",
    "ThermalMetrics",
    "compute_metrics",
    "hot_spot_count",
    "hot_spot_location",
    "max_spatial_gradient",
    "ThermalResult",
    "ThermalSimulator",
    "WarmStore",
    "WarmStoreStats",
]
