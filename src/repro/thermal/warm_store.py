"""Persistent warm store: reduced bases across runs.

The costliest thing the long-trace engine builds lazily on a cold start is
a pure function of content the floor can hash: the reduced-order Krylov
bases (:class:`~repro.thermal.rom.ReducedOperator`) depend only on the
thermal network, the cooling boundary, the substep size, the
:class:`~repro.thermal.rom.RomConfig` and the (scenario-stable) seed
fields.  :class:`WarmStore` persists them to disk keyed by exactly those
content keys — the network's :meth:`~repro.thermal.network.\
ThermalNetwork.content_key`, the boundary's :meth:`~repro.thermal.\
boundary.CoolingBoundary.cache_token` and the ROM config — so run ``N+1``
of the same floor skips every first basis build.  Rebuilds of a stale
basis are not stored: each depends on its run's own entry fields and
power, so only a bit-for-bit replay of the filling run could load one.

The store can also hold assembled backward-Euler / steady systems
(:meth:`WarmStore.store_system` / :meth:`WarmStore.load_system`), but the
factorization cache no longer reads or writes them: it factors straight
from the network's bulk band and assembles no system a stored one could
replace.  Factors are never persisted.

Bit-identity contract
---------------------
A warm run must match the cold run bit for bit, which dictates two rules:

* **First write wins.**  The cold run persists each reduced operator when
  it is *first built*; rebuilds of a stale basis never overwrite the
  stored entry.  The warm run therefore starts from exactly the operator
  the cold run started from, replays the same staleness tests, performs
  the same rebuilds from the same seeds, and lands on the same trajectory
  — with ``RomStats.basis_builds == 0``.
* **Arrays round-trip losslessly.**  Entries are ``.npy``-format float64
  arrays inside an ``.npz`` container; loading reproduces the cold run's
  operators byte for byte, so every downstream matmul is identical.

Robustness
----------
The file format is versioned (`FORMAT_VERSION`).  Corrupt, truncated,
wrong-version or wrong-shape entries are treated as misses, counted on
:attr:`WarmStoreStats.stale` and removed (best effort), so the run that
found one stale rewrites it with its own cold build — a stale store
degrades to one cold start, never to an exception, a wrong answer or a
store that stays damaged.  Two format versions sharing one directory
therefore evict each other's entries.  Writes go through a temp file +
:func:`os.replace` so a crashed run cannot leave a torn entry behind.

The store directory is safe to share between processes (the cross-worker
factorization-sharing unlock of the serving-layer roadmap item): keys are
content hashes, writes are atomic, and first-write-wins makes concurrent
writers idempotent.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.obs.telemetry import Counters, get_telemetry
from repro.thermal.rom import ReducedOperator, RomConfig

__all__ = ["FORMAT_VERSION", "WarmStore", "WarmStoreStats"]

#: Bump when the on-disk entry layout changes; old entries become stale.
FORMAT_VERSION = 1


@dataclass(frozen=True)
class WarmStoreStats:
    """Counters of one :class:`WarmStore`'s activity.

    ``reduced_hits`` / ``reduced_misses`` count reduced-operator lookups,
    ``system_hits`` / ``system_misses`` assembled-system lookups;
    ``stores`` counts entries actually written (first write wins, so a
    re-store of an existing key does not count); ``stale`` counts entries
    that existed on disk but were ignored and removed (corrupt, truncated
    or written by an incompatible format version).
    """

    reduced_hits: int = 0
    reduced_misses: int = 0
    system_hits: int = 0
    system_misses: int = 0
    stores: int = 0
    stale: int = 0

    @property
    def hits(self) -> int:
        """Total lookups served from disk."""
        return self.reduced_hits + self.system_hits

    @property
    def misses(self) -> int:
        """Total lookups that fell through to a cold build."""
        return self.reduced_misses + self.system_misses


def _config_fingerprint(config: RomConfig) -> tuple:
    """The RomConfig part of a reduced-operator key (all knobs matter:
    any of them changes the basis the cold run would have built)."""
    return (
        config.max_basis,
        config.krylov_iterations,
        config.projection_tol_c,
        config.step_error_tol_c,
        config.guard_band_c,
    )


class WarmStore:
    """Content-keyed on-disk store of reduced operators (and systems).

    Parameters
    ----------
    path:
        Directory holding the entries (created on first write).  One
        store may serve many networks — the network content key is part
        of every entry key, so mixed-SKU floors share one directory.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        # One store may serve every hardware group's cache, and the
        # thread-parallel floor engine drives those caches from worker
        # threads; the telemetry counter bag locks its own increments.
        self._counters = Counters()

    @property
    def stats(self) -> WarmStoreStats:
        """Hit/miss/store/stale counters since construction.

        A frozen *view* assembled from the live telemetry counter bag —
        the legacy reporting surface of the unified observability layer.
        """
        return WarmStoreStats(
            **{
                name: self._counters.get(name)
                for name in (
                    "reduced_hits",
                    "reduced_misses",
                    "system_hits",
                    "system_misses",
                    "stores",
                    "stale",
                )
            }
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WarmStore({str(self.path)!r})"

    # ------------------------------------------------------------------ #
    # Keys and files
    # ------------------------------------------------------------------ #
    @staticmethod
    def _digest(kind: str, parts: tuple) -> str:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(kind.encode())
        digest.update(repr(parts).encode())
        return digest.hexdigest()

    def _entry_path(self, kind: str, parts: tuple) -> Path:
        return self.path / f"{kind}-{self._digest(kind, parts)}.npz"

    def _count(self, **deltas: int) -> None:
        for name, value in deltas.items():
            self._counters.add(name, value)

    def _write_entry(self, path: Path, payload: dict) -> bool:
        """Atomically write one entry; first write wins.  Returns True when
        this call created the entry."""
        if path.exists():
            return False
        with get_telemetry().span("warm_store.store", kind=path.stem.split("-", 1)[0]):
            self.path.mkdir(parents=True, exist_ok=True)
            buffer = io.BytesIO()
            np.savez(buffer, **payload)
            descriptor, temp_name = tempfile.mkstemp(
                dir=self.path, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    handle.write(buffer.getvalue())
                os.replace(temp_name, path)
            except OSError:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                return False
        self._count(stores=1)
        return True

    def _read_entry(self, path: Path) -> dict | None:
        """Load one entry's arrays; None on a miss or any stale entry."""
        if not path.exists():
            return None
        with get_telemetry().span(
            "warm_store.load", kind=path.stem.split("-", 1)[0]
        ) as span:
            try:
                with np.load(path) as archive:
                    payload = {name: archive[name] for name in archive.files}
                if int(payload["format_version"]) != FORMAT_VERSION:
                    raise ValueError("format version mismatch")
                return payload
            except Exception:
                # Corrupt, truncated, unreadable or incompatible: a stale
                # entry degrades to a cold build, never to a failed run.
                self._evict(path)
                span.set(stale=True)
                return None

    def _evict(self, path: Path) -> None:
        """Count a stale entry and remove it, so this run's build replaces
        it (first write wins only over entries that exist)."""
        self._count(stale=1)
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Reduced operators
    # ------------------------------------------------------------------ #
    def reduced_key(
        self, network_key: str, boundary_token: tuple, dt_s: float, config: RomConfig
    ) -> tuple:
        """The content key of one reduced-operator entry."""
        return (network_key, boundary_token, float(dt_s), _config_fingerprint(config))

    def store_reduced(self, key: tuple, operator: ReducedOperator) -> bool:
        """Persist a cold-built reduced operator (first write wins)."""
        lu_matrix, lu_pivots = operator.reduced_lu
        payload = {
            "format_version": np.array(FORMAT_VERSION),
            "kind": np.array("reduced"),
            "dt_s": np.array(operator.dt_s),
            "case_cell_index": np.array(operator.case_cell_index),
            "basis": operator.basis,
            "boundary_rhs": operator.boundary_rhs,
            "lu_matrix": np.asarray(lu_matrix),
            "lu_pivots": np.asarray(lu_pivots),
            "reduced_capacitance": operator.reduced_capacitance,
            "conductance_basis": operator.conductance_basis,
            "capacitance_basis": operator.capacitance_basis,
            "basis_boundary_rhs": operator.basis_boundary_rhs,
            "inverse_capacitance_dt": operator.inverse_capacitance_dt,
            "step_matrix": operator.step_matrix,
        }
        return self._write_entry(self._entry_path("reduced", key), payload)

    def load_reduced(self, key: tuple) -> ReducedOperator | None:
        """The persisted reduced operator for a key, or None."""
        payload = self._read_entry(self._entry_path("reduced", key))
        if payload is None:
            self._count(reduced_misses=1)
            return None
        try:
            operator = ReducedOperator(
                basis=payload["basis"],
                dt_s=float(payload["dt_s"]),
                boundary_rhs=payload["boundary_rhs"],
                reduced_lu=(payload["lu_matrix"], payload["lu_pivots"]),
                reduced_capacitance=payload["reduced_capacitance"],
                conductance_basis=payload["conductance_basis"],
                capacitance_basis=payload["capacitance_basis"],
                basis_boundary_rhs=payload["basis_boundary_rhs"],
                case_cell_index=int(payload["case_cell_index"]),
                inverse_capacitance_dt=payload["inverse_capacitance_dt"],
                step_matrix=payload["step_matrix"],
            )
        except KeyError:
            self._evict(self._entry_path("reduced", key))
            self._count(reduced_misses=1)
            return None
        self._count(reduced_hits=1)
        return operator

    # ------------------------------------------------------------------ #
    # Assembled operator systems (the input of a factorization)
    # ------------------------------------------------------------------ #
    def system_key(
        self,
        network_key: str,
        kind: str,
        boundary_token: tuple,
        dt_s: float | None,
    ) -> tuple:
        """The content key of one assembled system (``kind`` is ``"steady"``
        or ``"transient"``; ``dt_s`` is None for steady)."""
        return (network_key, kind, boundary_token, None if dt_s is None else float(dt_s))

    def store_system(
        self, key: tuple, matrix: sparse.spmatrix, boundary_rhs: np.ndarray
    ) -> bool:
        """Persist one assembled system matrix + boundary RHS (first write
        wins).  The matrix is stored in CSC layout — the exact input the
        factorization consumes, so a warm load feeds the banded Cholesky
        byte-identical data and reproduces the cold run's factors."""
        csc = matrix.tocsc()
        payload = {
            "format_version": np.array(FORMAT_VERSION),
            "kind": np.array("system"),
            "shape": np.array(csc.shape),
            "data": csc.data,
            "indices": csc.indices,
            "indptr": csc.indptr,
            "boundary_rhs": np.asarray(boundary_rhs),
        }
        return self._write_entry(self._entry_path("system", key), payload)

    def load_system(self, key: tuple) -> tuple[sparse.csc_matrix, np.ndarray] | None:
        """The persisted ``(csc_matrix, boundary_rhs)`` for a key, or None."""
        payload = self._read_entry(self._entry_path("system", key))
        if payload is None:
            self._count(system_misses=1)
            return None
        try:
            shape = tuple(int(side) for side in payload["shape"])
            matrix = sparse.csc_matrix(
                (payload["data"], payload["indices"], payload["indptr"]),
                shape=shape,
            )
            boundary_rhs = payload["boundary_rhs"]
            if boundary_rhs.shape != (shape[0],):
                raise ValueError("boundary RHS shape mismatch")
        except Exception:
            self._evict(self._entry_path("system", key))
            self._count(system_misses=1)
            return None
        self._count(system_hits=1)
        return matrix, boundary_rhs
