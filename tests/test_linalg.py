"""Unit tests for the dense linear algebra helpers."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etcontrol.errors import RankDeficiencyError, SingularMatrixError
from etcontrol.linalg import (
    DEFINITENESS_TOL,
    as_matrix,
    inverse,
    inverse_stack,
    is_positive_definite,
    is_positive_semidefinite,
    positive_definite_stack,
    pseudo_inverse,
    require_square,
    require_square_stack,
    spectral_norm,
    spectral_norm_stack,
    sym_eigvals,
    symmetrize,
    symmetrize_stack,
)

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n))
    return 0.5 * (g + g.T)


def _random_spd(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n))
    return g @ g.T + 0.5 * np.eye(n)


def test_as_matrix_rejects_vectors():
    with pytest.raises(ValueError, match="2-D"):
        as_matrix([1.0, 2.0])


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, np.nan], [0.0, 1.0]])


def test_require_square_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        require_square([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetrize([[0.0, 1.0], [0.0, 0.0]])


def test_symmetrize_cleans_roundoff():
    m = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
    out = symmetrize(m)
    assert np.array_equal(out, out.T)


def test_sym_eigvals_sorted():
    vals = sym_eigvals(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [-1.0, 2.0, 3.0])


@given(dims, seeds)
@settings(max_examples=60, deadline=None)
def test_eigenvalue_sum_matches_trace(n, seed):
    m = _random_symmetric(seed, n)
    assert np.isclose(np.sum(sym_eigvals(m)), np.trace(m), atol=1e-9 * max(1.0, abs(np.trace(m))))


def test_definiteness_examples():
    assert is_positive_definite(np.eye(3))
    assert not is_positive_definite(-np.eye(2))
    assert not is_positive_definite(np.diag([1.0, 0.0]))
    assert is_positive_semidefinite(np.diag([1.0, 0.0]))
    assert is_positive_semidefinite(np.ones((2, 2)))
    assert not is_positive_semidefinite(np.array([[1.0, 2.0], [2.0, 1.0]]))


@given(dims, seeds)
@settings(max_examples=60, deadline=None)
def test_definiteness_agrees_with_eigenvalues(n, seed):
    m = _random_symmetric(seed, n)
    eigs = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.max(np.abs(m))))
    if eigs[0] > 1e-6 * scale:
        assert is_positive_definite(m)
    if eigs[0] < -1e-6 * scale:
        assert not is_positive_semidefinite(m)


def test_inverse_golden():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    expected = np.array([[1.0, -1.0], [-1.0, 2.0]])
    assert np.allclose(inverse(m), expected, atol=1e-14)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError, match="singular"):
        inverse(np.ones((2, 2)))


@given(dims, seeds)
@settings(max_examples=40, deadline=None)
def test_inverse_involution(n, seed):
    m = _random_spd(seed, n)
    again = inverse(inverse(m))
    assert np.allclose(again, m, atol=1e-8 * max(1.0, spectral_norm(m)))


@given(dims, seeds)
@settings(max_examples=40, deadline=None)
def test_stack_forms_match_single_matrix_forms(n, seed):
    """Each slice of a stacked result equals the single-matrix result bit for bit."""
    rng = np.random.default_rng(seed)
    spd = np.array([_random_spd(seed + i, n) for i in range(5)])
    general = rng.normal(size=(5, n, n)) + n * np.eye(n)
    mixed = np.array([_random_symmetric(seed + i, n) for i in range(5)])
    assert np.array_equal(symmetrize_stack(spd), [symmetrize(m) for m in spd])
    assert np.array_equal(inverse_stack(general), [inverse(m) for m in general])
    assert np.array_equal(spectral_norm_stack(general), [spectral_norm(m) for m in general])
    assert np.array_equal(
        positive_definite_stack(mixed), [is_positive_definite(m) for m in mixed]
    )
    # The single-matrix forms run the stack forms on a stack of one; they
    # still give the plain numpy results bit for bit.
    wide = rng.normal(size=(n, n + 2))
    for m in general:
        assert np.array_equal(inverse(m), np.linalg.solve(m, np.eye(n)))
    for m in (*general, wide):
        assert spectral_norm(m) == float(np.linalg.norm(m, 2))
    for m in mixed:
        assert np.array_equal(symmetrize(m), 0.5 * (m + m.T))
        scale = DEFINITENESS_TOL * max(1.0, float(np.max(np.abs(m))))
        assert is_positive_definite(m) == bool(np.linalg.eigvalsh(m)[0] > scale)


def test_stack_forms_keep_messages():
    """A bad slice raises what the single-matrix form raises on it."""
    good = np.eye(2)
    for bad, stacked, single, error in (
        ([[0.0, 1.0], [0.0, 0.0]], symmetrize_stack, symmetrize, ValueError),
        (np.ones((2, 2)), inverse_stack, inverse, SingularMatrixError),
        ([[1.0, 0.0], [0.0, 1e-15]], inverse_stack, inverse, SingularMatrixError),
    ):
        with pytest.raises(error) as single_info:
            single(bad, "M")
        with pytest.raises(error) as stacked_info:
            stacked(np.array([good, bad, good]), "M")
        assert str(stacked_info.value) == str(single_info.value)
    with pytest.raises(ValueError, match=r"M is not symmetric \(defect 1\.000e\+00\)$"):
        symmetrize([[0.0, 1.0], [0.0, 0.0]], "M")
    with pytest.raises(SingularMatrixError, match=r"working precision \(rcond 0\.00e\+00\)$"):
        inverse(np.zeros((2, 2)), "M")
    with pytest.raises(ValueError, match=r"M must be a \(k, m, n\) stack"):
        require_square_stack(good, "M")
    with pytest.raises(ValueError, match="M must be a stack of square matrices"):
        require_square_stack(np.ones((3, 2, 4)), "M")
    with pytest.raises(ValueError, match="M contains non-finite entries"):
        require_square_stack([[[1.0, np.inf], [0.0, 1.0]]], "M")


def test_pseudo_inverse_tall_column():
    b = np.array([[0.0], [1.0]])
    bp = pseudo_inverse(b)
    assert np.allclose(bp, [[0.0, 1.0]])


@given(dims, seeds)
@example(n=4, seed=92178528)  # condition number 4.4e4: the normal equations miss by 2.2e-8
@settings(max_examples=40, deadline=None)
def test_pseudo_inverse_penrose_identities(n, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n + 1))
    b = rng.normal(size=(n, m)) + np.eye(n, m)
    bp = pseudo_inverse(b)
    assert np.allclose(b @ bp @ b, b, atol=1e-8)
    assert np.allclose(bp @ b @ bp, bp, atol=1e-8)
    assert np.allclose(bp @ b, np.eye(m), atol=1e-8)


def test_pseudo_inverse_rank_deficient_raises():
    with pytest.raises(RankDeficiencyError, match="column rank"):
        pseudo_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_spectral_norm_examples():
    assert spectral_norm(np.zeros((2, 2))) == 0.0
    assert np.isclose(spectral_norm(np.diag([3.0, -4.0])), 4.0)


def test_import_does_not_load_scipy():
    """The package and its CLI import on numpy alone."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, etcontrol, etcontrol.cli; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True)
