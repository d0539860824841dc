"""Dense symmetric linear algebra helpers used throughout the toolkit.

All routines operate on plain float64 numpy arrays and are thin wrappers
over LAPACK via numpy, with the tolerance conventions of the rest of the
package baked in so callers do not re-derive them. Only outside input is
validated: as_real refuses complex values, as_matrix is the 2-D gate on
it (shape, finiteness), require_square adds squareness and symmetrize
near-symmetry, each on one (n, n) matrix. Every other routine trusts its
array, which the package formed or checked: a caller guards a product
that can overflow before passing it on (synthesis._require_finite).
inverse and pseudo_inverse take one matrix; spectral_norm and
smallest_eigenvalues take a matrix or a (k, n, n) stack, in one LAPACK
call. numpy runs a stack slice by slice, so every slice of a stacked
result equals the result on that slice alone bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficiencyError, SingularMatrixError

SYMMETRY_TOL = 1e-9
DEFINITENESS_TOL = 1e-9
RCOND_LIMIT = 1e-13
RANK_TOL = 1e-10


def as_real(values, name: str) -> np.ndarray:
    """Coerce to a float64 array; complex values, which numpy would truncate, raise ValueError."""
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must be real, got complex entries")
    return np.asarray(values, dtype=float)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting complex and non-finite entries."""
    m = as_real(values, name)
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
    An input equal to its transpose bit for bit (signed zeros included) is
    its own symmetric part and comes back as a fresh copy, without the
    defect arithmetic; the test compares the two arrays' bytes in C order.
    Any other comes back as _symmetric_part(m), 0.5 m + 0.5 m', which has
    the bits of 0.5 (m + m') for normal floats and cannot overflow.
    """
    m = require_square(values, name)
    if m.tobytes() == m.T.tobytes():
        return m.copy()
    with np.errstate(over="ignore"):  # near the float maximum the defect is inf, refused below
        defect = abs(m - m.T).max()
    if defect > SYMMETRY_TOL * max(1.0, abs(m).max()):
        raise ValueError(f"{name} is not symmetric (defect {defect:.3e})")
    return _symmetric_part(m)


def _symmetric_part(m: np.ndarray) -> np.ndarray:
    """0.5 m + 0.5 m', unvalidated: the symmetric part of every matrix the package forms."""
    return 0.5 * m + 0.5 * m.swapaxes(-1, -2)


def smallest_eigenvalues(m):
    """Smallest eigenvalue and definiteness threshold of a matrix or of each of a stack.

    The threshold DEFINITENESS_TOL * max(1, max|m|) is the one scale of
    every definiteness test: positive definite when the smallest eigenvalue
    exceeds it, positive semidefinite when it is at least its negative. m is
    not validated: it must be exactly symmetric, such as symmetrize returns.
    """
    threshold = DEFINITENESS_TOL * np.maximum(1.0, abs(m).max(axis=(-2, -1)))
    return np.linalg.eigvalsh(m)[..., 0], threshold


def inverse(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Inverse of a finite square matrix, with an explicit conditioning guard.

    Raises SingularMatrixError naming m when the reciprocal condition
    number falls below RCOND_LIMIT, instead of silently returning garbage.
    """
    s = np.linalg.svd(m, compute_uv=False)
    rcond = s[-1] / s[0] if s[0] > 0.0 else 0.0
    if rcond < RCOND_LIMIT:
        raise SingularMatrixError(f"{name} is singular to working precision (rcond {rcond:.2e})")
    return np.linalg.solve(m, np.eye(len(m)))


def pseudo_inverse(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Left pseudo-inverse of a finite matrix of full column rank.

    Computed from the thin SVD M = U S V' that the rank test takes, as
    V S^-1 U'. The normal equations (M' M)^-1 M' square the condition
    number: on a 4 x 4 matrix with condition number 4.4e4 they leave
    M^+ M - I at 2.2e-8, the SVD at 1.7e-12.
    """
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    smin = float(s[-1]) if s.size else 0.0
    if smin <= RANK_TOL:
        raise RankDeficiencyError(
            f"{name} has deficient column rank (smallest singular value {smin:.2e}); "
            "the input-channel projector cannot be formed reliably"
        )
    return (vt.T / s) @ u.T


def spectral_norm(m):
    """Largest singular value of a finite matrix (a float) or of each of a stack (an array)."""
    norms = np.linalg.svd(m, compute_uv=False).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms
