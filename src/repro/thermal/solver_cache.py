"""Cached banded Cholesky factorizations for repeated thermal solves.

The thermal system ``A @ T = b`` splits into a power-independent operator
(bulk conduction + bottom boundary + top convective boundary) and a
power-dependent right-hand side: power injection only ever touches ``b``
(see :meth:`repro.thermal.network.ThermalNetwork.conductance_system`).  The
operator therefore only changes when the *cooling boundary* changes — and,
for backward-Euler transient stepping, when the step size ``dt_s`` changes.

:class:`FactorizationCache` exploits this: it factors the operator once
per distinct ``(cooling boundary, dt)`` and reuses the factor for every
solve with a different power map, turning repeated solves into a single
back-substitution each.

Kernel: banded Cholesky from the bulk band
------------------------------------------
The operator is symmetric positive definite, and every cell couples only
to its six grid neighbours.  :class:`BandOrdering` renumbers the cells with
the layer index innermost, then the narrower in-plane axis, then the wider
one, so every coupling lies within ``min(n_rows, n_columns) * n_layers``
of the diagonal.  A cooling boundary only adds to the diagonal: the
operator is the network's fixed bulk matrix (conduction plus bottom
boundary) plus the top-layer conductance ``g``, plus ``C/dt`` for a
transient operator.  So the cache records, once per network, where the
upper triangle of the bulk matrix lands in LAPACK band storage and with
which values.  Each factorization zero-fills a band, scatters those
values, adds ``g`` and then ``C/dt`` to the diagonal row — the order in
which ``(bulk + diags(g)) + diags(C/dt)`` rounds, so no sparse operator
is assembled and the factor is bit-identical to factoring the assembled
one — and factors it with ``dpbtrf``.  :class:`BandedCholesky` solves
through ``dpbtrs``, which back-substitutes the columns of a multi-column
right-hand side one at a time, so an ``(n, k)`` solve is bit-identical to
``k`` single-column solves.  SciPy's band wrappers hold the GIL for the
whole call.

Caching/invalidation contract
-----------------------------
* Entries are keyed by :meth:`CoolingBoundary.cache_token`, a content hash
  of the HTC and fluid-temperature fields.  Distinct boundary objects with
  equal fields share one factorization; a boundary with *any* differing
  cell produces a new key, so changing the cooling mid-run invalidates the
  cached operator automatically — no explicit call needed.
* ``CoolingBoundary`` is a frozen dataclass; its arrays must not be mutated
  in place after construction (the token is memoised on first use).
* The underlying :class:`ThermalNetwork` is assumed immutable after
  construction.  If it is rebuilt or mutated in place, call
  :meth:`FactorizationCache.invalidate` to drop every cached factorization
  and the recorded bulk band.
* The cache is LRU-bounded (``max_entries`` per operator kind) so boundary
  sweeps cannot grow memory without limit.

Iterative lane
--------------
Some operators would be factored to serve a single back-substitution.  An
MPC rollout refreshes every server's boundary each period, and a steady
sweep meets a new boundary at almost every distinct thermal state it
evaluates.  The lane serves such a solve without factoring its operator:
preconditioned conjugate gradients (PCG) on ``(bulk + diag(g)) x = b``
(plus ``diag(C/dt)`` for a transient step), preconditioned by the exact
factor ``F`` of a *reference* boundary, looked up through
:meth:`~FactorizationCache.steady_operator` or
:meth:`~FactorizationCache.transient_operator` at the same ``dt``.  Both
solve bodies of the cache take that ``reference``, and
:meth:`FactorizationCache._preconditioned_operator` builds the operator
they solve with.  PCG starts from ``x0 = F^-1 b`` and stops once
``||F^-1 r||_inf <= ITERATIVE_TOL_C``; past ``ITERATIVE_MAX_STEPS`` steps
it solves exactly through the cache instead.  The bulk operator is
recorded once per cache, beside its band, and
:meth:`~FactorizationCache.invalidate` drops both.  Its contracts:

* **Two callers take it, and only they.**  Only a caller that passes a
  reference reaches the lane: the floor engine during MPC rollouts, and
  the sweep engine (:class:`repro.core.batch.BatchEvaluator`, behind
  Table II, Section VIII-B and Fig. 7).  Committed floor traces,
  steady-mode controller traces, one-off evaluations and the floor's
  steady initialization run the exact path, so they stay bit-identical
  (tier A): floor == per-server golden loop, hold-only MPC == fixed
  trace, snapshot replay, telemetry on/off, serial == parallel groups.
* **Its results are tier B against the exact path.**  Rollout worst
  peaks agree within 1e-9 degC, plant energies within 1e-9 relative, and
  the planner chooses the same candidate.  A sweep point's field agrees
  within 1e-9 degC.
* **The reference is never cache contents.**  The floor passes each
  server's boundary from the snapshot the rollout started from; the sweep
  engine passes one boundary per design, that of a fixed uniform die load
  at the design's own water loop
  (:meth:`repro.core.pipeline.CooledServerSimulation.reference_boundary`).
  The lane's result is a function of (reference, boundary, ``dt``,
  right-hand side) only: a factorization is deterministic, so a
  reference factor found in the LRU and one factored afresh are the same
  bits.  A rollout's result is therefore a function of the snapshot and
  the candidate, and a sweep point's bits a function of (design, network,
  request), whatever the cache held and whatever the sweep order.
* **A cap fallback is the exact solve, bit for bit.**  It
  back-substitutes the same right-hand side through the operator's own
  cached factor.

The lane publishes ``cache.iterative_solves`` (columns it served),
``cache.iterative_fallbacks`` (columns that hit the cap) and the
``cache.iterative_steps`` histogram to the active :mod:`repro.obs` hub.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs

from repro.exceptions import ConvergenceError, ValidationError
from repro.obs.telemetry import Counters, get_telemetry
from repro.thermal.boundary import CoolingBoundary
from repro.thermal.grid import ThermalGrid
from repro.thermal.network import ThermalNetwork
from repro.utils.validation import check_positive, check_positive_int

_SINGULAR_MESSAGE = (
    "thermal system factorization failed (singular matrix); check that at "
    "least one boundary has a non-zero heat transfer coefficient"
)

#: The iterative lane stops once ``||F^-1 r||_inf`` is at most this (degC).
ITERATIVE_TOL_C = 1e-12
#: PCG steps after which the iterative lane solves exactly instead.
ITERATIVE_MAX_STEPS = 40
#: Bucket bounds of the ``cache.iterative_steps`` histogram.
_STEP_BOUNDS = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 40.0)


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one :class:`FactorizationCache`.

    Stats are additive: ``a + b`` (or ``sum(stats_list, CacheStats.zero())``)
    merges counters across caches, so rack-level engines spanning several
    sessions/simulators can report one rack-wide hit rate and factorization
    count.
    """

    hits: int
    misses: int
    steady_entries: int
    transient_entries: int

    @property
    def hit_rate(self) -> float:
        """Fraction of operator lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @classmethod
    def zero(cls) -> "CacheStats":
        """The additive identity (useful as a ``sum`` start value)."""
        return cls(hits=0, misses=0, steady_entries=0, transient_entries=0)

    def __add__(self, other: "CacheStats") -> "CacheStats":
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            steady_entries=self.steady_entries + other.steady_entries,
            transient_entries=self.transient_entries + other.transient_entries,
        )

    def __radd__(self, other) -> "CacheStats":
        # Accept the int 0 that a plain sum(stats_list) starts from.
        if other == 0:
            return self
        return NotImplemented

    def delta(self, before: "CacheStats") -> "CacheStats":
        """The activity between two snapshots of the same cache.

        Hit/miss counters become the difference since ``before``; the entry
        counts stay at this (later) snapshot's values — entries are a state,
        not an accumulator.  The single source of the before/after
        bookkeeping trace engines report (rack traces, datacenter runs).
        """
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            steady_entries=self.steady_entries,
            transient_entries=self.transient_entries,
        )


@dataclass(frozen=True)
class BandedCholesky:
    """A factored operator ``A = U^T U``, callable as its solve.

    ``factor`` holds ``U`` in LAPACK upper band storage for the operator
    renumbered by ``perm`` (band position -> cell); ``inverse`` maps cells
    back to band positions.  Calling it solves ``A x = rhs`` for one RHS
    vector of shape ``(n_cells,)`` or a multi-column RHS of shape
    ``(n_cells, k)``, leaving ``rhs`` unmodified.
    """

    factor: np.ndarray
    perm: np.ndarray
    inverse: np.ndarray

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        # Gathering along the last axis of the transpose yields a fresh
        # Fortran-ordered copy, which dpbtrs may then overwrite in place.
        permuted = rhs.T[..., self.perm].T
        # dpbtrs reports a non-zero info only for an illegal argument.
        solution, _ = dpbtrs(self.factor, permuted, overwrite_b=True)
        return solution[self.inverse]


@dataclass(frozen=True)
class PreconditionedSolve:
    """PCG solve of ``(bulk + diags(diagonal)) x = rhs``, callable.

    ``preconditioner`` is the factored solve of a nearby operator;
    ``fallback`` is the operator's own exact solve, run only for a column
    that reaches :data:`ITERATIVE_MAX_STEPS`.  Accepts one RHS vector or
    an ``(n_cells, k)`` RHS, solved column by column.
    """

    bulk: sparse.csr_matrix
    diagonal: np.ndarray
    preconditioner: Callable[[np.ndarray], np.ndarray]
    fallback: Callable[[np.ndarray], np.ndarray]

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 1:
            return self._solve_column(rhs)
        return np.stack([self._solve_column(column) for column in rhs.T], axis=1)

    def _solve_column(self, rhs: np.ndarray) -> np.ndarray:
        obs = get_telemetry()
        obs.inc("cache.iterative_solves")
        solution, steps = self._pcg(rhs)
        obs.observe("cache.iterative_steps", steps, bounds=_STEP_BOUNDS)
        if solution is None:
            obs.inc("cache.iterative_fallbacks")
            return self.fallback(rhs)
        return solution

    def _pcg(self, rhs: np.ndarray) -> tuple[np.ndarray | None, int]:
        """``(x, steps)``, or ``(None, ITERATIVE_MAX_STEPS)`` at the cap."""

        def apply(x: np.ndarray) -> np.ndarray:
            return self.bulk @ x + self.diagonal * x

        solution = self.preconditioner(rhs)
        residual = rhs - apply(solution)
        preconditioned = self.preconditioner(residual)
        if np.max(np.abs(preconditioned)) <= ITERATIVE_TOL_C:
            return solution, 0
        direction = preconditioned
        rz = residual @ preconditioned
        for step in range(1, ITERATIVE_MAX_STEPS + 1):
            image = apply(direction)
            alpha = rz / (direction @ image)
            solution += alpha * direction
            residual -= alpha * image
            preconditioned = self.preconditioner(residual)
            if np.max(np.abs(preconditioned)) <= ITERATIVE_TOL_C:
                return solution, step
            rz_next = residual @ preconditioned
            direction = preconditioned + (rz_next / rz) * direction
            rz = rz_next
        return None, ITERATIVE_MAX_STEPS


class BandOrdering:
    """Cell numbering that makes one grid's thermal operator narrow-banded.

    Cells are numbered with the layer index innermost, then along the
    narrower in-plane axis, then along the wider one.  Every cell couples
    only to its six grid neighbours, which land 1, ``n_layers`` and
    ``min(n_rows, n_columns) * n_layers`` band positions away — the
    half-bandwidth.
    """

    def __init__(self, grid: ThermalGrid) -> None:
        cells = np.arange(grid.n_cells).reshape(
            grid.n_layers, grid.n_rows, grid.n_columns
        )
        if grid.n_rows <= grid.n_columns:
            order, narrow = cells.transpose(2, 1, 0), grid.n_rows
        else:
            order, narrow = cells.transpose(1, 2, 0), grid.n_columns
        self.n_cells = grid.n_cells
        self.bandwidth = min(narrow * grid.n_layers, grid.n_cells - 1)
        self.perm = order.ravel()
        self.inverse = np.argsort(self.perm)

    def upper_band(self, matrix: sparse.spmatrix) -> tuple[np.ndarray, np.ndarray]:
        """Where a symmetric operator's upper triangle lands in band storage.

        Returns ``(positions, values)``: ``positions`` index the
        column-major flattening of LAPACK upper band storage, shape
        ``(bandwidth + 1, n_cells)``, and ``values`` are the matching
        entries, read straight from the operator's CSC structure.
        """
        matrix = matrix.tocsc()
        columns = self.inverse[
            np.repeat(np.arange(self.n_cells), np.diff(matrix.indptr))
        ]
        offsets = columns - self.inverse[matrix.indices]
        if np.any(np.abs(offsets) > self.bandwidth):
            raise ValueError("operator couples cells that are not grid neighbours")
        upper = offsets >= 0
        positions = (self.bandwidth - offsets[upper]) + (
            self.bandwidth + 1
        ) * columns[upper]
        return positions, matrix.data[upper]

    def factorize(
        self, upper_band: tuple[np.ndarray, np.ndarray], *diagonals: np.ndarray
    ) -> BandedCholesky:
        """Banded Cholesky factor of ``bulk + diags(d1) + diags(d2) ...``.

        ``upper_band`` is :meth:`upper_band` of the bulk operator; each
        diagonal is a per-cell vector, added in the order given.
        """
        positions, values = upper_band
        band = np.zeros((self.bandwidth + 1, self.n_cells), order="F")
        band.reshape(-1, order="F")[positions] = values
        diagonal = band[self.bandwidth]
        for addition in diagonals:
            diagonal += addition[self.perm]
        factor, info = dpbtrf(band, overwrite_ab=True)
        if info != 0:
            raise ConvergenceError(f"{_SINGULAR_MESSAGE} (dpbtrf info {info})")
        return BandedCholesky(factor=factor, perm=self.perm, inverse=self.inverse)


def check_steady_solvable(network: ThermalNetwork, cooling: CoolingBoundary) -> None:
    """Reject a steady operator that no boundary ties to a temperature.

    With the top-boundary conductance zero in every cell and a zero bottom
    HTC, the steady operator is a pure conduction Laplacian: singular, yet
    rounding can leave it pivots that pass a factorization's test and a
    solve that returns nonsense.  So the structure is checked instead.
    Transient operators need no check: ``C/dt > 0`` keeps them definite.
    """
    if network.bottom_boundary.htc_w_m2k <= 0.0 and not np.any(
        cooling.htc_w_m2k > 0.0
    ):
        raise ConvergenceError(_SINGULAR_MESSAGE)


@dataclass(frozen=True)
class ThermalOperator:
    """The operator of one cooling boundary, and of one ``dt`` if transient.

    A steady operator is ``A = bulk + diags(g)``; the backward-Euler
    operator adds ``diags(C/dt)``, kept as ``capacitance_over_dt`` (None
    for a steady operator).  ``solve`` accepts one RHS vector of shape
    ``(n_cells,)`` or a multi-column RHS of shape ``(n_cells, k)``.  From
    :meth:`FactorizationCache.steady_operator` and
    :meth:`FactorizationCache.transient_operator` it is the cached
    :class:`BandedCholesky`, which back-substitutes the columns
    independently, so a whole rack of servers sharing this boundary is
    solved in one call with results identical to ``k`` separate
    single-column solves.  On the iterative lane it is a
    :class:`PreconditionedSolve`.
    """

    boundary_rhs: np.ndarray
    capacitance_over_dt: np.ndarray | None
    solve: Callable[[np.ndarray], np.ndarray]


class FactorizationCache:
    """LRU cache of factorized thermal operators for one network.

    It also holds the two solve bodies of a
    :class:`repro.thermal.simulator.ThermalSimulator`: steady fields for a
    stack of power maps at one boundary (:meth:`_steady_fields`) and one
    backward-Euler step for a stack of fields (:meth:`_step_fields`).  Both
    draw from one instance, so a trace that alternates transient steps and
    steady solves at a fixed cooling boundary factorizes each operator
    exactly once.
    """

    def __init__(self, network: ThermalNetwork, *, max_entries: int = 16) -> None:
        self.max_entries = check_positive_int(max_entries, "max_entries")
        self.network = network
        self._steady: OrderedDict[tuple, ThermalOperator] = OrderedDict()
        self._transient: OrderedDict[tuple, ThermalOperator] = OrderedDict()
        self._reduced: OrderedDict[tuple, object] = OrderedDict()
        self._ordering = BandOrdering(network.grid)
        # The bulk operator and its upper band, recorded on first use
        # (``ThermalNetwork.bulk_matrix`` copies on every access).
        self._bulk_csr: sparse.csr_matrix | None = None
        self._bulk_band: tuple[np.ndarray, np.ndarray] | None = None
        self._warm_store = None
        self._network_key: str | None = None
        # Hit/miss tallies live in a telemetry counter bag; the public
        # ``stats`` CacheStats is a view over it (repro.obs unification).
        self._counters = Counters()
        # Get-or-build stays guarded for callers that share one cache
        # across threads: the lock serializes the bookkeeping and the
        # factorization; the back-substitutions run outside it (the band
        # routines hold the GIL, so threads interleave rather than overlap
        # inside them).
        # Reentrant because a factorization, made with the lock held, reads
        # the recorded bulk operator through ``_bulk_operator``, which takes
        # the lock too.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Warm store (repro.thermal.warm_store)
    # ------------------------------------------------------------------ #
    def attach_warm_store(self, store) -> None:
        """Attach a :class:`~repro.thermal.warm_store.WarmStore` (or None).

        With a store attached, reduced-operator misses first consult the
        disk entries keyed by the network's content key, so a hit skips
        the whole Arnoldi build; cold builds persist their results back
        (first write wins).  Factorizations never touch the store: they
        start from the recorded bulk band and assemble no sparse operator,
        so a persisted system would save them nothing.
        """
        with self._lock:
            self._warm_store = store
            self._network_key = None

    @property
    def warm_store(self):
        """The attached warm store, or None."""
        return self._warm_store

    def _warm_network_key(self) -> str:
        if self._network_key is None:
            self._network_key = self.network.content_key()
        return self._network_key

    # ------------------------------------------------------------------ #
    # Operators
    # ------------------------------------------------------------------ #
    def _bulk_operator(self) -> sparse.csr_matrix:
        """The network's bulk operator, recorded once per cache."""
        with self._lock:
            if self._bulk_csr is None:
                self._bulk_csr = self.network.bulk_matrix
            return self._bulk_csr

    def _factorize(self, *diagonals: np.ndarray) -> BandedCholesky:
        """Factor the bulk operator plus ``diagonals`` (lock held)."""
        if self._bulk_band is None:
            self._bulk_band = self._ordering.upper_band(self._bulk_operator())
        return self._ordering.factorize(self._bulk_band, *diagonals)

    def steady_operator(self, cooling: CoolingBoundary) -> ThermalOperator:
        """Factorized ``A`` and boundary RHS for a cooling boundary."""
        return self._operator(cooling, None)

    def transient_operator(
        self, cooling: CoolingBoundary, dt_s: float
    ) -> ThermalOperator:
        """Factorized ``A + C/dt`` and boundary RHS for one (cooling, dt)."""
        check_positive(dt_s, "dt_s")
        return self._operator(cooling, float(dt_s))

    def _terms(
        self, cooling: CoolingBoundary, dt_s: float | None
    ) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray | None]:
        """``(diagonals, boundary_rhs, capacitance_over_dt)`` of one operator.

        ``diagonals`` are what the operator adds to the bulk, in the order
        the factor adds them: the top-boundary conductance, then ``C/dt``
        for a transient operator (``dt_s`` not None).
        """
        top_conductance, boundary_rhs = self.network.boundary_terms(cooling)
        if dt_s is None:
            return (top_conductance,), boundary_rhs, None
        capacitance_over_dt = self.network.capacitance / dt_s
        diagonals = (top_conductance, capacitance_over_dt)
        return diagonals, boundary_rhs, capacitance_over_dt

    def _operator(
        self, cooling: CoolingBoundary, dt_s: float | None
    ) -> ThermalOperator:
        """Get or factor the steady (``dt_s`` None) or transient operator.

        Each kind keeps its own LRU.  A steady operator is checked with
        :func:`check_steady_solvable` before it is factored.  Evicting a
        transient factor evicts the reduced-order operator of the same key
        with it: the basis is only ever stepped against this exact
        (boundary, dt) operator, so an orphaned basis would pin memory for a
        key the cache already dropped under pressure.  A steady key (``dt``
        None) never names a reduced operator.
        """
        steady = dt_s is None
        entries = self._steady if steady else self._transient
        key = (cooling.cache_token(), dt_s)
        with self._lock:
            entry = entries.get(key)
            if entry is not None:
                self._counters.add("hits")
                entries.move_to_end(key)
                return entry
            if steady:
                check_steady_solvable(self.network, cooling)
            self._counters.add("misses")
            kind = "steady" if steady else "transient"
            with get_telemetry().span("cache.factorize", kind=kind):
                diagonals, boundary_rhs, capacitance_over_dt = self._terms(
                    cooling, dt_s
                )
                entry = ThermalOperator(
                    boundary_rhs=boundary_rhs,
                    capacitance_over_dt=capacitance_over_dt,
                    solve=self._factorize(*diagonals),
                )
            entries[key] = entry
            while len(entries) > self.max_entries:
                evicted_key, _ = entries.popitem(last=False)
                self._reduced.pop(evicted_key, None)
            return entry

    def _preconditioned_operator(
        self,
        cooling: CoolingBoundary,
        reference: CoolingBoundary,
        dt_s: float | None,
    ) -> ThermalOperator:
        """``cooling``'s operator, solved by PCG from ``reference``.

        Nothing is factored for ``cooling``: the returned operator's
        ``solve`` is a :class:`PreconditionedSolve` preconditioned by the
        cached operator of ``reference`` at the same ``dt_s`` (None:
        steady), which falls back to the exact factored solve of
        ``cooling`` at the step cap.  A steady operator is checked with
        :func:`check_steady_solvable` before anything is solved.  The
        boundary RHS and ``C/dt`` are computed exactly as the factored
        operator computes them, so both see bit-identical right-hand
        sides.  See the module docstring's "Iterative lane" for the
        contracts.
        """
        if dt_s is None:
            check_steady_solvable(self.network, cooling)
            lookup = self.steady_operator
        else:
            lookup = functools.partial(self.transient_operator, dt_s=dt_s)
        preconditioner = lookup(reference)
        diagonals, boundary_rhs, capacitance_over_dt = self._terms(cooling, dt_s)
        return ThermalOperator(
            boundary_rhs=boundary_rhs,
            capacitance_over_dt=capacitance_over_dt,
            solve=PreconditionedSolve(
                bulk=self._bulk_operator(),
                # ``g``, plus ``C/dt`` for a transient operator.
                diagonal=functools.reduce(np.add, diagonals),
                preconditioner=preconditioner.solve,
                fallback=lambda rhs: lookup(cooling).solve(rhs),
            ),
        )

    # ------------------------------------------------------------------ #
    # Solves (the bodies of ThermalSimulator's solve methods)
    # ------------------------------------------------------------------ #
    def _steady_fields(
        self,
        power_maps_w: np.ndarray,
        cooling: CoolingBoundary,
        *,
        reference: CoolingBoundary | None = None,
    ) -> np.ndarray:
        """Equilibrium fields ``(k, n_cells)`` for ``k`` maps at one boundary.

        ``power_maps_w`` has shape ``(k, n_rows, n_columns)``.  The exact
        lane is one factorization plus one multi-column back-substitution.
        With a ``reference`` boundary the operator is not factored: every
        field is solved by the iterative lane, within tier B of the exact
        solve.  On either lane row ``i`` is identical to the one-row solve
        of map ``i``.

        Raises
        ------
        ConvergenceError
            If no boundary ties the field to a temperature (a zero-HTC top
            boundary everywhere with no bottom path), the operator cannot
            be factorized, or the linear solve produces non-finite values.
        """
        if reference is None:
            operator = self.steady_operator(cooling)
        else:
            operator = self._preconditioned_operator(cooling, reference, None)
        rhs = (
            operator.boundary_rhs[:, np.newaxis]
            + self.network.power_vectors(power_maps_w).T
        )
        temperatures = np.asarray(operator.solve(rhs), dtype=float).T
        if not np.all(np.isfinite(temperatures)):
            raise ConvergenceError(
                "steady-state solve produced non-finite temperatures; "
                "check that at least one boundary has a non-zero heat transfer coefficient"
            )
        return temperatures

    def _step_fields(
        self,
        temperatures: np.ndarray,
        power_maps_w: np.ndarray,
        cooling: CoolingBoundary,
        dt_s: float,
        *,
        reference: CoolingBoundary | None = None,
    ) -> np.ndarray:
        """One backward-Euler step of ``C dT/dt = -A T + b`` for ``k`` fields.

        ``temperatures`` has shape ``(k, n_cells)`` and ``power_maps_w``
        shape ``(k, n_rows, n_columns)``; the advanced fields come back as
        ``(k, n_cells)``.  All ``k`` fields share one operator and are
        back-substituted as a multi-column RHS, so row ``i`` does not
        depend on the other rows.  With a ``reference`` boundary the
        operator is not factored: each field is solved by the iterative
        lane, preconditioned by the factor of ``(reference, dt_s)`` and
        within tier B of the exact step.
        """
        check_positive(dt_s, "dt_s")
        n_cells = self.network.grid.n_cells
        temperatures = np.asarray(temperatures, dtype=float)
        power_maps_w = np.asarray(power_maps_w, dtype=float)
        if temperatures.ndim != 2 or temperatures.shape[1] != n_cells:
            raise ValidationError(
                f"temperature stack shape {temperatures.shape} does not match "
                f"(k, {n_cells})"
            )
        if temperatures.shape[0] != power_maps_w.shape[0]:
            raise ValidationError(
                "temperature stack and power map stack disagree on the number "
                f"of fields ({temperatures.shape[0]} vs {power_maps_w.shape[0]})"
            )
        if reference is None:
            operator = self.transient_operator(cooling, dt_s)
        else:
            operator = self._preconditioned_operator(
                cooling, reference, float(dt_s)
            )
        rhs = (
            operator.boundary_rhs[:, np.newaxis]
            + self.network.power_vectors(power_maps_w).T
            + operator.capacitance_over_dt[:, np.newaxis] * temperatures.T
        )
        return np.asarray(operator.solve(rhs), dtype=float).T

    # ------------------------------------------------------------------ #
    # Reduced-order operators (repro.thermal.rom)
    # ------------------------------------------------------------------ #
    def reduced_operator(self, cooling: CoolingBoundary, dt_s: float, config=None):
        """The cached reduced-order operator for one (cooling, dt), or None.

        Reduced operators live beside the Cholesky factors under the same
        content-keyed LRU discipline, but are built by the caller (the
        floor's reduced-order lane decides the basis seeds) and stored via
        :meth:`store_reduced_operator`.  With a warm store attached and a
        :class:`~repro.thermal.rom.RomConfig` given, an in-memory miss
        falls through to the persisted entry for (network, boundary, dt,
        config) — the cross-run path that makes run N+1 skip every first
        Arnoldi build (it still computes its rebuilds).  Lookups
        deliberately do not touch the :class:`CacheStats` hit/miss
        counters — those count factorizations, which trace engines report
        as physical work.
        """
        key = (cooling.cache_token(), float(dt_s))
        with self._lock:
            entry = self._reduced.get(key)
            if entry is not None:
                self._reduced.move_to_end(key)
                return entry
            store = self._warm_store
            if store is None or config is None:
                return None
            entry = store.load_reduced(
                store.reduced_key(self._warm_network_key(), key[0], dt_s, config)
            )
            if entry is not None:
                self._insert_reduced(key, entry)
            return entry

    def _insert_reduced(self, key: tuple, operator) -> None:
        self._reduced[key] = operator
        self._reduced.move_to_end(key)
        while len(self._reduced) > self.max_entries:
            self._reduced.popitem(last=False)

    def store_reduced_operator(
        self, cooling: CoolingBoundary, dt_s: float, operator, config=None
    ) -> None:
        """Insert/replace the reduced operator for one (cooling, dt).

        With a warm store attached and a config given, the operator is
        also persisted to disk under first-write-wins: the *first* build
        of a key defines the stored entry and rebuilds of a stale basis
        never overwrite it, which is what keeps a warm replay bit-identical
        to the cold run (both start every key from the same basis).
        """
        key = (cooling.cache_token(), float(dt_s))
        with self._lock:
            self._insert_reduced(key, operator)
            store = self._warm_store
            if store is not None and config is not None:
                store.store_reduced(
                    store.reduced_key(self._warm_network_key(), key[0], dt_s, config),
                    operator,
                )

    @property
    def reduced_entries(self) -> int:
        """Number of cached reduced-order operators (kept out of
        :class:`CacheStats` for backward compatibility)."""
        return len(self._reduced)

    # ------------------------------------------------------------------ #
    # Introspection and invalidation
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> CacheStats:
        """Hit/miss counters and current entry counts.

        A frozen *view* built from the live telemetry counter bag — the
        legacy reporting surface of the unified observability layer.
        """
        return CacheStats(
            hits=self._counters.get("hits"),
            misses=self._counters.get("misses"),
            steady_entries=len(self._steady),
            transient_entries=len(self._transient),
        )

    def __len__(self) -> int:
        return len(self._steady) + len(self._transient)

    def invalidate(self) -> None:
        """Drop every cached factorization (counters are kept).

        Required only when the underlying network is replaced or mutated in
        place; cooling-boundary changes invalidate implicitly through the
        content-based key.  Every lane drops together — steady and
        transient factors, the reduced-operator bases riding beside
        them, the recorded bulk operator and band (the next factorization
        or iterative solve re-reads the network's bulk matrix), and the
        memoised warm-store network key
        (the mutated network must re-hash, so stale disk entries under the
        old key can never be loaded again).
        """
        with self._lock:
            self._steady.clear()
            self._transient.clear()
            self._reduced.clear()
            self._bulk_csr = None
            self._bulk_band = None
            self._network_key = None
            # The network memoises its own content key; a mutation-driven
            # invalidate must force a re-hash there too.
            try:
                del self.network._content_key
            except AttributeError:
                pass
