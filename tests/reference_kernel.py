"""Golden reference for the thermal factorization kernel.

COLAMD-ordered SuperLU (:func:`scipy.sparse.linalg.splu`) is a general
sparse LU that assumes nothing about the operator's symmetry or band
structure.  The banded Cholesky kernel of
:mod:`repro.thermal.solver_cache` is held to it at contract tier B.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

#: Contract tier B: a kernel swap may move a temperature by at most this.
TIER_B_C = 1e-9


def golden_solve(matrix: sparse.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` through COLAMD-ordered SuperLU."""
    return splu(matrix.tocsc(), permc_spec="COLAMD").solve(rhs)
