"""Exception hierarchy and Seuret uniform-heat-flux baseline tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import exceptions
from repro.baselines.seuret_design import uniform_heat_flux_boundary
from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.rack_session import RackSession, ServerLoad
from repro.datacenter.floor import FloorEngine
from repro.datacenter.model import CoarseningConfig, DatacenterModel
from repro.datacenter.scenarios import build_scenario
from repro.datacenter.supervisory import MpcSupervisoryController, SupervisoryController
from repro.obs.telemetry import Histogram
from repro.obs.tracing import Tracer
from repro.thermal.rom import RomConfig
from repro.thermal.solver_cache import FactorizationCache
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, SEURET_REFERENCE_DESIGN
from repro.thermosyphon.loop import ThermosyphonLoop
from repro.workloads.configuration import Configuration


def _datacenter_model(ctx, parallel_groups):
    return DatacenterModel(
        ctx.racks,
        floorplan=ctx.floorplan,
        power_model=ctx.power_model,
        thermal_simulator=ctx.simulator,
        parallel_groups=parallel_groups,
    )


def _rack_session(ctx, n_servers):
    return RackSession(
        n_servers,
        floorplan=ctx.floorplan,
        power_model=ctx.power_model,
        thermal_simulator=ctx.simulator,
    )


#: Every caller-input check, each given an input it must reject.
CALLER_INPUT_SITES = {
    "FloorEngine.advance dt_s": lambda ctx: ctx.floor.advance([[ctx.load]], 0.0),
    "FloorEngine.advance n_substeps": lambda ctx: ctx.floor.advance(
        [[ctx.load]], 2.0, n_substeps=0
    ),
    "FloorEngine.advance fractional n_substeps": lambda ctx: ctx.floor.advance(
        [[ctx.load]], 2.0, n_substeps=2.5
    ),
    "FloorEngine.advance_span dt_s": lambda ctx: ctx.floor.advance_span(
        [[ctx.load]], 0.0, 4, rom=RomConfig()
    ),
    "FloorEngine.advance_span span": lambda ctx: ctx.floor.advance_span(
        [[ctx.load]], 2.0, 0, rom=RomConfig()
    ),
    "FloorEngine.advance_span n_substeps": lambda ctx: ctx.floor.advance_span(
        [[ctx.load]], 2.0, 4, rom=RomConfig(), n_substeps=0
    ),
    "FloorEngine.advance_span fractional span": lambda ctx: ctx.floor.advance_span(
        [[ctx.load]], 2.0, 2.5, rom=RomConfig()
    ),
    "FloorEngine.advance_span fractional n_substeps": lambda ctx: ctx.floor.advance_span(
        [[ctx.load]], 2.0, 4, rom=RomConfig(), n_substeps=2.5
    ),
    "SupervisoryController setpoints": lambda ctx: SupervisoryController(
        setpoint_min_c=30.0, setpoint_max_c=20.0
    ),
    "MpcSupervisoryController candidates": lambda ctx: MpcSupervisoryController(
        candidates=()
    ),
    "RomConfig krylov_iterations": lambda ctx: RomConfig(krylov_iterations=-1),
    "RomConfig fractional krylov_iterations": lambda ctx: RomConfig(
        krylov_iterations=2.5
    ),
    "RomConfig boolean krylov_iterations": lambda ctx: RomConfig(
        krylov_iterations=True
    ),
    "CoarseningConfig fractional min_span": lambda ctx: CoarseningConfig(min_span=4.5),
    "CoarseningConfig nan max_span": lambda ctx: CoarseningConfig(
        max_span=float("nan")
    ),
    "CoarseningConfig infinite max_span": lambda ctx: CoarseningConfig(
        max_span=float("inf")
    ),
    "ThermalResult.core_temperature_c reduce": lambda ctx: (
        ctx.result.core_temperature_c(0, reduce="median")
    ),
    "ThermalResult.component_temperature_c reduce": lambda ctx: (
        ctx.result.component_temperature_c("core0", reduce="median")
    ),
    "DatacenterModel fractional parallel_groups": lambda ctx: _datacenter_model(ctx, 2.5),
    "DatacenterModel boolean parallel_groups": lambda ctx: _datacenter_model(ctx, True),
    "DatacenterModel nan parallel_groups": lambda ctx: _datacenter_model(
        ctx, float("nan")
    ),
    "DatacenterModel string parallel_groups": lambda ctx: _datacenter_model(ctx, "2"),
    "FloorEngine fractional parallel_groups": lambda ctx: FloorEngine(
        [ctx.rack], parallel_groups=2.5
    ),
    "RackSession fractional n_servers": lambda ctx: _rack_session(ctx, 2.5),
    "RackSession boolean n_servers": lambda ctx: _rack_session(ctx, True),
    "FactorizationCache fractional max_entries": lambda ctx: FactorizationCache(
        ctx.simulator.network, max_entries=2.5
    ),
    "Tracer capacity": lambda ctx: Tracer(capacity=0),
    "Histogram empty bounds": lambda ctx: Histogram(()),
    "Histogram unsorted bounds": lambda ctx: Histogram((2.0, 1.0)),
}


@pytest.fixture(scope="module")
def caller_input_context(floorplan, power_model, coarse_thermal_simulator, x264):
    simulator = coarse_thermal_simulator
    mapper = ThreadMapper(floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation)
    mapping = mapper.map(x264, Configuration(8, 2, 3.2), ProposedThermalAwareMapping())
    rack = RackSession(
        1, floorplan=floorplan, power_model=power_model, thermal_simulator=simulator
    )
    scenario = build_scenario(
        "diurnal", n_racks=1, servers_per_rack=1, duration_s=4.0, seed=1, floorplan=floorplan
    )
    return SimpleNamespace(
        floorplan=floorplan,
        power_model=power_model,
        simulator=simulator,
        rack=rack,
        racks=scenario.racks,
        floor=FloorEngine([rack]),
        load=ServerLoad(benchmark=x264, mapping=mapping),
        result=simulator.result_from_vector(np.full(simulator.grid.n_cells, 40.0)),
    )


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            exceptions.ValidationError,
            exceptions.ConfigurationError,
            exceptions.FloorplanError,
            exceptions.ConvergenceError,
            exceptions.ThermalEmergencyError,
            exceptions.QoSViolationError,
            exceptions.MappingError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, exceptions.ReproError)

    def test_validation_error_is_also_value_error(self):
        assert issubclass(exceptions.ValidationError, ValueError)

    def test_catching_base_class_catches_specifics(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.ThermalEmergencyError("no actuator left")

    @pytest.mark.parametrize("site", sorted(CALLER_INPUT_SITES))
    def test_caller_input_checks_raise_validation_error(self, site, caller_input_context):
        with pytest.raises(exceptions.ValidationError):
            CALLER_INPUT_SITES[site](caller_input_context)


class TestUniformHeatFluxBoundary:
    def test_boundary_is_spatially_uniform(self):
        loop = ThermosyphonLoop(SEURET_REFERENCE_DESIGN)
        boundary = uniform_heat_flux_boundary(loop, 70.0, (12, 12), (3.0, 3.0))
        assert boundary.shape == (12, 12)
        # Uniform flux: every lane sees the same profile, so the HTC field is
        # constant along the direction perpendicular to the flow.
        htc = boundary.htc_w_m2k
        if SEURET_REFERENCE_DESIGN.orientation.channels_run_north_south:
            assert np.allclose(htc, htc[:, :1], rtol=1e-6)
        else:
            assert np.allclose(htc, htc[:1, :], rtol=1e-6)

    def test_zero_power_gives_saturation_temperature_fluid(self):
        loop = ThermosyphonLoop(SEURET_REFERENCE_DESIGN)
        boundary = uniform_heat_flux_boundary(loop, 0.0, (6, 6), (3.0, 3.0))
        assert np.all(boundary.fluid_temperature_c <= 31.0)

    def test_negative_power_rejected(self):
        loop = ThermosyphonLoop(SEURET_REFERENCE_DESIGN)
        with pytest.raises(Exception):
            uniform_heat_flux_boundary(loop, -1.0, (6, 6), (3.0, 3.0))
