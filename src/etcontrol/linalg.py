"""Dense symmetric linear algebra helpers used throughout the toolkit.

All routines operate on plain float64 numpy arrays and validate their
inputs: shapes, finiteness, and (where required) symmetry. They are thin
wrappers over LAPACK via numpy, with the tolerance conventions
of the rest of the package baked in so callers do not re-derive them.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficiencyError, SingularMatrixError

SYMMETRY_TOL = 1e-9
DEFINITENESS_TOL = 1e-9
RCOND_LIMIT = 1e-13
RANK_TOL = 1e-10


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(values, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def require_square(values, name: str = "matrix") -> np.ndarray:
    m = as_matrix(values, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def symmetrize(values, name: str = "matrix", tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate near-symmetry and return the exactly symmetric part.

    The symmetry defect is measured entrywise relative to nothing; the
    default tolerance is loose enough for accumulated round-off from a few
    chained products but tight enough to flag transposition mistakes.
    """
    m = require_square(values, name)
    defect = float(np.max(np.abs(m - m.T)))
    if defect > tol * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError(f"{name} is not symmetric (defect {defect:.3e})")
    return 0.5 * (m + m.T)


def sym_eigvals(values, name: str = "matrix") -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(symmetrize(values, name))


def is_positive_definite(values, tol: float = DEFINITENESS_TOL) -> bool:
    """True when every eigenvalue exceeds tol (scaled by the matrix magnitude)."""
    m = symmetrize(values)
    return bool(sym_eigvals(m)[0] > tol * max(1.0, float(np.max(np.abs(m)))))


def is_positive_semidefinite(values, tol: float = DEFINITENESS_TOL) -> bool:
    """True when no eigenvalue falls below -tol (scaled by the matrix magnitude)."""
    m = symmetrize(values)
    return bool(sym_eigvals(m)[0] >= -tol * max(1.0, float(np.max(np.abs(m)))))


def inverse(values, name: str = "matrix") -> np.ndarray:
    """Matrix inverse with an explicit conditioning guard.

    Raises SingularMatrixError when the reciprocal condition number falls
    below RCOND_LIMIT, instead of silently returning garbage.
    """
    m = require_square(values, name)
    s = np.linalg.svd(m, compute_uv=False)
    smax = float(s[0])
    smin = float(s[-1])
    if smax == 0.0 or smin / smax < RCOND_LIMIT:
        rcond = smin / smax if smax > 0.0 else 0.0
        raise SingularMatrixError(
            f"{name} is singular to working precision (rcond {rcond:.2e})"
        )
    return np.linalg.solve(m, np.eye(m.shape[0]))


def pseudo_inverse(values, name: str = "matrix", rank_tol: float = RANK_TOL) -> np.ndarray:
    """Left pseudo-inverse of a full-column-rank matrix.

    Computed from the normal equations as (M' M)^-1 M', which is exact for
    full column rank and keeps the projector arithmetic transparent.
    """
    m = as_matrix(values, name)
    s = np.linalg.svd(m, compute_uv=False)
    smin = float(s[-1]) if s.size else 0.0
    if smin <= rank_tol:
        raise RankDeficiencyError(
            f"{name} has deficient column rank (smallest singular value {smin:.2e}); "
            "the input-channel projector cannot be formed reliably"
        )
    return np.linalg.solve(m.T @ m, m.T)


def spectral_norm(values) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_matrix(values), 2))
