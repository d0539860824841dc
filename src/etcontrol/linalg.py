"""Dense symmetric linear algebra helpers used throughout the toolkit.

All routines operate on plain float64 numpy arrays and are thin wrappers
over LAPACK via numpy, with the tolerance conventions of the rest of the
package baked in so callers do not re-derive them. Constructors and public
functions validate their inputs (shapes, finiteness, symmetry) once;
kernels trust theirs. as_matrix is the 2-D gate on outside input.

symmetrize, inverse, spectral_norm and smallest_eigenvalues each take an
(n, n) matrix or a (k, n, n) stack, with one LAPACK call per routine; a
test or a message on a stack is the one its first failing slice would
give, and inverse takes one name per slice, so that message names the
slice. numpy runs each routine slice by slice, so every slice of a stacked
result equals the result on that slice alone bit for bit. Every public
routine here validates its input except smallest_eigenvalues, the one
definiteness test, which takes exactly symmetric arrays.
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


def _first(name, bad) -> str:
    """name, or of one name per slice the name of the first slice flagged in bad."""
    return name if isinstance(name, str) else name[int(np.argmax(bad))]


def _matrices(values, name) -> np.ndarray:
    """Coerce to an (m, n) matrix or a (k, m, n) stack, rejecting non-finite entries."""
    m = np.asarray(values, dtype=float)
    if m.ndim not in (2, 3):
        raise ValueError(f"{name} must be a matrix or a stack of matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        bad = ~np.isfinite(m).all(axis=(-2, -1))
        raise ValueError(f"{_first(name, bad)} contains non-finite entries")
    return m


def _square(m: np.ndarray, name: str) -> np.ndarray:
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def require_square(values, name: str = "matrix") -> np.ndarray:
    return _square(as_matrix(values, name), name)


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
    m = _square(_matrices(values, name), name)
    mt = m.swapaxes(-1, -2)
    if m.tobytes() == mt.tobytes():
        return m.copy()
    defect = abs(m - mt).max(axis=(-2, -1))
    bad = defect > SYMMETRY_TOL * np.maximum(1.0, abs(m).max(axis=(-2, -1)))
    if bad.any():
        raise ValueError(f"{name} is not symmetric (defect {defect[bad][0]:.3e})")
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


def inverse(values, name="matrix") -> np.ndarray:
    """Matrix inverse with an explicit conditioning guard.

    Raises SingularMatrixError when the reciprocal condition number falls
    below RCOND_LIMIT, instead of silently returning garbage. name is one
    name, or for a stack a sequence of one name per slice; a message names
    the first failing slice.
    """
    m = _square(_matrices(values, name), name)
    s = np.linalg.svd(m, compute_uv=False)
    smax = s[..., 0]
    rcond = s[..., -1] / np.where(smax > 0.0, smax, np.inf)
    bad = rcond < RCOND_LIMIT
    if bad.any():
        raise SingularMatrixError(
            f"{_first(name, bad)} is singular to working precision (rcond {rcond[bad][0]:.2e})"
        )
    # An (n, n) or (1, n, n) identity: numpy before 2.0 reads a right-hand
    # side with one dimension less than m as a stack of vectors.
    return np.linalg.solve(m, np.eye(m.shape[-1])[(None,) * (m.ndim - 2)])


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


def spectral_norm(values):
    """Largest singular value: a float for a matrix, an array for a stack."""
    m = _matrices(values, "matrix")
    norms = np.linalg.svd(m, compute_uv=False).max(axis=-1)
    return float(norms) if m.ndim == 2 else norms
