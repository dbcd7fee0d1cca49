"""The paper's primary contribution.

QoS-aware configuration selection (Algorithm 1), thermal-aware workload
mapping tailored to the two-phase thermosyphon, the runtime water-flow
controller (single-server and rack traces), the thermosyphon design-space
optimiser, and the end-to-end evaluation pipeline.
"""

from repro.core.batch import BatchEvaluator, SweepPoint
from repro.core.config_selection import ConfigurationSelection, QoSAwareConfigSelector
from repro.core.mapping_policies import (
    MappingPolicy,
    ProposedThermalAwareMapping,
    ClusteredMapping,
)
from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.pipeline import CooledServerSimulation, EvaluationResult, ThermalAwarePipeline
from repro.core.rack_session import RackAdvance, RackSession, ServerAdvance, ServerLoad
from repro.core.runtime_controller import (
    ControllerDecision,
    ControllerTrace,
    RackServer,
    RackTrace,
    ThermosyphonController,
)
from repro.core.design_optimizer import DesignCandidateResult, ThermosyphonDesignOptimizer

__all__ = [
    "BatchEvaluator",
    "SweepPoint",
    "ConfigurationSelection",
    "QoSAwareConfigSelector",
    "MappingPolicy",
    "ProposedThermalAwareMapping",
    "ClusteredMapping",
    "ThreadMapper",
    "WorkloadMapping",
    "CooledServerSimulation",
    "EvaluationResult",
    "ThermalAwarePipeline",
    "RackAdvance",
    "RackSession",
    "ServerAdvance",
    "ServerLoad",
    "ControllerDecision",
    "ControllerTrace",
    "RackServer",
    "RackTrace",
    "ThermosyphonController",
    "DesignCandidateResult",
    "ThermosyphonDesignOptimizer",
]
