"""Dense symmetric linear algebra helpers used throughout the toolkit.

All routines operate on plain float64 numpy arrays and are thin wrappers
over LAPACK via numpy, with the tolerance conventions of the rest of the
package baked in so callers do not re-derive them. Constructors and public
functions validate their inputs (shapes, finiteness, symmetry) once;
kernels trust theirs. Every routine here validates except the kernel
``smallest_eigenvalues``, which takes an already symmetric stack.

The ``*_stack`` forms hold the tests, tolerances and messages, and apply
them to each matrix of a (k, n, n) stack in one LAPACK call per routine.
The single-matrix forms validate their 2-D input and run the stack form
on a stack of one. numpy runs each routine slice by slice, so every slice
of a stacked result equals the single-matrix result bit for bit.
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
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def require_square(values, name: str = "matrix") -> np.ndarray:
    m = as_matrix(values, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def symmetrize(values, name: str = "matrix") -> np.ndarray:
    """Validate near-symmetry and return the exactly symmetric part.

    The symmetry defect is measured entrywise against SYMMETRY_TOL times
    max(1, max|m|): loose enough for accumulated round-off from a few
    chained products but tight enough to flag transposition mistakes.
    """
    return symmetrize_stack(require_square(values, name)[None], name)[0]


def sym_eigvals(values, name: str = "matrix") -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(symmetrize(values, name))


def is_positive_definite(values) -> bool:
    """True when every eigenvalue exceeds the definiteness threshold."""
    smallest, threshold = smallest_eigenvalues(symmetrize(values)[None])
    return bool(smallest[0] > threshold[0])


def is_positive_semidefinite(values) -> bool:
    """True when no eigenvalue falls below minus the definiteness threshold."""
    smallest, threshold = smallest_eigenvalues(symmetrize(values)[None])
    return bool(smallest[0] >= -threshold[0])


def inverse(values, name: str = "matrix") -> np.ndarray:
    """Matrix inverse with an explicit conditioning guard.

    Raises SingularMatrixError when the reciprocal condition number falls
    below RCOND_LIMIT, instead of silently returning garbage.
    """
    return inverse_stack(require_square(values, name)[None], name)[0]


def pseudo_inverse(values, name: str = "matrix") -> np.ndarray:
    """Left pseudo-inverse of a full-column-rank matrix.

    Computed from the thin SVD M = U S V' that the rank test takes, as
    V S^-1 U'. The normal equations (M' M)^-1 M' square the condition
    number: on a 4 x 4 matrix with condition number 4.4e4 they leave
    M^+ M - I at 2.2e-8, the SVD at 1.7e-12.
    """
    m = as_matrix(values, name)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    smin = float(s[-1]) if s.size else 0.0
    if smin <= RANK_TOL:
        raise RankDeficiencyError(
            f"{name} has deficient column rank (smallest singular value {smin:.2e}); "
            "the input-channel projector cannot be formed reliably"
        )
    return (vt.T / s) @ u.T


def spectral_norm(values) -> float:
    """Largest singular value."""
    return float(spectral_norm_stack(as_matrix(values)[None])[0])


def as_stack(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a (k, m, n) float64 stack, rejecting non-finite entries."""
    m = np.asarray(values, dtype=float)
    if m.ndim != 3:
        raise ValueError(f"{name} must be a (k, m, n) stack, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def require_square_stack(values, name: str = "matrix") -> np.ndarray:
    m = as_stack(values, name)
    if m.shape[1] != m.shape[2]:
        raise ValueError(f"{name} must be a stack of square matrices, got shape {m.shape}")
    return m


def symmetrize_stack(values, name: str = "matrix") -> np.ndarray:
    """symmetrize for each matrix of a stack; the message gives the first defect."""
    m = require_square_stack(values, name)
    mt = m.transpose(0, 2, 1)
    defect = abs(m - mt).max(axis=(1, 2))
    bad = defect > SYMMETRY_TOL * np.maximum(1.0, abs(m).max(axis=(1, 2)))
    if bad.any():
        raise ValueError(f"{name} is not symmetric (defect {defect[bad.argmax()]:.3e})")
    return 0.5 * (m + mt)


def smallest_eigenvalues(m):
    """Smallest eigenvalue and definiteness threshold of each matrix of a stack.

    The threshold DEFINITENESS_TOL * max(1, max|m|) is the one scale of
    both definiteness tests. m is not validated: it must be an exactly
    symmetric (k, n, n) float64 stack, such as symmetrize_stack returns.
    """
    threshold = DEFINITENESS_TOL * np.maximum(1.0, abs(m).max(axis=(1, 2)))
    return np.linalg.eigvalsh(m)[:, 0], threshold


def positive_definite_stack(values) -> np.ndarray:
    """is_positive_definite for each matrix of a stack, as a boolean array."""
    smallest, threshold = smallest_eigenvalues(symmetrize_stack(values))
    return smallest > threshold


def inverse_stack(values, name: str = "matrix") -> np.ndarray:
    """inverse for each matrix of a stack; raises for the first ill-conditioned one."""
    m = require_square_stack(values, name)
    s = np.linalg.svd(m, compute_uv=False)
    smax = s[:, 0]
    rcond = s[:, -1] / np.where(smax > 0.0, smax, np.inf)
    bad = rcond < RCOND_LIMIT
    if bad.any():
        raise SingularMatrixError(
            f"{name} is singular to working precision (rcond {rcond[bad.argmax()]:.2e})"
        )
    return np.linalg.solve(m, np.eye(m.shape[1])[None])


def spectral_norm_stack(values) -> np.ndarray:
    """Largest singular value of each matrix of a stack."""
    return np.linalg.svd(as_stack(values), compute_uv=False).max(axis=1)
