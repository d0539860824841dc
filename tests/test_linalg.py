"""Unit tests for the dense linear algebra helpers."""

import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etcontrol import SynthesisParams
from etcontrol.errors import RankDeficiencyError, SingularMatrixError
from etcontrol.linalg import (
    DEFINITENESS_TOL,
    as_matrix,
    as_scalar,
    definite,
    inverse,
    pseudo_inverse,
    require_square,
    smallest_eigenvalues,
    spectral_norm,
    symmetrize,
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


def test_symmetrize_refuses_an_overflowing_defect_without_a_warning():
    """m - m' overflows on finite entries near the float maximum: numpy must not warn.

    The defect is inf, and the message says so, from symmetrize and from
    the constructor that calls it.
    """
    m = [[1e308, -1e308], [1e308, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^Q is not symmetric \(defect inf\)$"):
            symmetrize(m, "Q")
        with pytest.raises(ValueError, match=r"^Q is not symmetric \(defect inf\)$"):
            SynthesisParams(
                Q=m, R1=[[1.0]], R2=np.eye(2), alpha=1.0, beta=0.2, epsilon=10.0, sigma=0.5
            )


def test_symmetrize_cleans_roundoff():
    m = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
    out = symmetrize(m)
    assert np.array_equal(out, out.T)


def _bits(m):
    return np.asarray(m, dtype=float).view(np.uint64)


def test_symmetrize_keeps_entries_near_the_float_maximum():
    """0.5 (m + m') overflows above about 9e307; the symmetric part does not."""
    m = np.array([[1e308, 0.0], [0.0, 1.0]])
    out = symmetrize(m)
    assert np.array_equal(_bits(out), _bits(m))
    # A fresh array: the constructors mark what symmetrize returns read-only.
    assert not np.shares_memory(out, m)
    near = np.array([[1.7e308, 1.6e308], [1.6e308 * (1.0 + 1e-12), -1.7e308]])
    out = symmetrize(near)
    assert np.isfinite(out).all() and np.array_equal(out, out.T)
    assert np.array_equal(out, 0.5 * near + 0.5 * near.T)
    assert out[0, 1] == pytest.approx(1.6e308, rel=1e-12)


@pytest.mark.parametrize(
    "m",
    [
        [[2.0, -0.0], [-0.0, 1.0]],
        [[5e-324, 1e-310], [1e-310, -3.0]],
        [[0.0, -0.0], [0.0, 1.0]],
        [[1.0, 0.5 + 1e-14], [0.5, 2.0]],
        [[1e-320, 3e-320], [2e-320, 1.0]],
    ],
    ids=["signed zeros", "subnormals", "mixed zeros", "round-off", "subnormal defect"],
)
def test_symmetrize_bits_of_the_mean(m):
    """Both paths give the bits of 0.5 (m + m') wherever that does not overflow."""
    m = np.array(m)
    assert np.array_equal(_bits(symmetrize(m)), _bits(0.5 * (m + m.T)))


def _definite(m):
    """(positive definite, positive semidefinite) by the one definiteness test."""
    m = symmetrize(m)
    smallest = smallest_eigenvalues(m)
    return definite(smallest, m), definite(smallest, m, strict=False)


def test_definiteness_examples():
    assert _definite(np.eye(3)) == (True, True)
    assert _definite(-np.eye(2)) == (False, False)
    assert _definite(np.diag([1.0, 0.0])) == (False, True)
    assert _definite(np.ones((2, 2))) == (False, True)
    assert _definite(np.array([[1.0, 2.0], [2.0, 1.0]])) == (False, False)


@given(dims, seeds)
@settings(max_examples=60, deadline=None)
def test_definiteness_agrees_with_eigenvalues(n, seed):
    m = _random_symmetric(seed, n)
    eigs = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.max(np.abs(m))))
    if eigs[0] > 1e-6 * scale:
        assert _definite(m)[0]
    if eigs[0] < -1e-6 * scale:
        assert not _definite(m)[1]


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
    """Each slice of a stacked call equals the 2-D call of the same function bit for bit."""
    rng = np.random.default_rng(seed)
    general = rng.normal(size=(5, n, n)) + n * np.eye(n)
    wide = rng.normal(size=(5, n, n + 2))
    mixed = np.array([_random_symmetric(seed + i, n) for i in range(5)])
    for stack in (general, wide):
        assert np.array_equal(spectral_norm(stack), [spectral_norm(m) for m in stack])
    assert np.array_equal(smallest_eigenvalues(mixed), [smallest_eigenvalues(m) for m in mixed])
    # The 2-D calls give the plain numpy results bit for bit.
    for m in general:
        assert np.array_equal(inverse(m), np.linalg.solve(m, np.eye(n)))
    for m in (*general, *wide):
        assert spectral_norm(m) == float(np.linalg.norm(m, 2))
    for m in mixed:
        assert np.array_equal(symmetrize(m), 0.5 * (m + m.T))
        assert smallest_eigenvalues(m) == np.linalg.eigvalsh(m)[0]


def test_stack_forms_keep_messages():
    """symmetrize refuses a stack as any input that is not 2-D; the 2-D messages stand."""
    for shape in ((2,), (3, 2, 2), (1, 1, 2, 2)):
        message = f"^M must be 2-D, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            symmetrize(np.ones(shape), "M")
    with pytest.raises(ValueError, match=r"^M is not symmetric \(defect 1\.000e\+00\)$"):
        symmetrize([[0.0, 1.0], [0.0, 0.0]], "M")
    with pytest.raises(ValueError, match="^M contains non-finite entries$"):
        symmetrize([[1.0, np.inf], [0.0, 1.0]], "M")
    with pytest.raises(ValueError, match=r"^M must be square, got shape \(2, 3\)$"):
        symmetrize(np.ones((2, 3)), "M")
    with pytest.raises(SingularMatrixError, match="^M is singular to working precision"):
        inverse(np.ones((2, 2)), "M")


def test_inverse_names_each_slice():
    """A singular matrix raises under its one name, with its rcond; a regular one inverts."""
    for bad, name, rcond in (
        (np.diag([1.0, 1e-15]), "b", "1.00e-15"),
        (np.zeros((2, 2)), "a", "0.00e+00"),
    ):
        with pytest.raises(SingularMatrixError) as info:
            inverse(bad, name)
        assert str(info.value) == f"{name} is singular to working precision (rcond {rcond})"
    assert np.array_equal(inverse(2.0 * np.eye(2), "c"), 0.5 * np.eye(2))


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


def test_spectral_norm_beside_non_finite_slices():
    """A NaN or inf slice gets norm 0; the others keep the bits of the 2-D call.

    tests/test_synthesis.py::test_slack_margins_beside_a_non_finite_slack
    pins the same for smallest_eigenvalues, where such a slice gets NaN.
    """
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(4, 3, 3))
    stack[1, 0, 2] = np.nan
    stack[3, 1, 1] = np.inf
    norms = spectral_norm(stack)
    assert norms.shape == (4,) and norms[1] == norms[3] == 0.0
    for i in (0, 2):
        assert _bits(norms[i]) == _bits(spectral_norm(stack[i]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_alone(bad):
    """One (n, n) matrix that is not finite: margin NaN, norm 0, neither definite."""
    m = np.eye(3)
    m[2, 2] = bad
    smallest = smallest_eigenvalues(m)
    assert np.ndim(smallest) == 0 and np.isnan(smallest)
    assert spectral_norm(m) == 0.0
    assert not definite(smallest, np.eye(3)) and not definite(smallest, np.eye(3), strict=False)


@pytest.mark.parametrize("peak", [0.5, 1.0, 40.0])
def test_definite_at_its_edges(peak):
    """The threshold 1e-9 max(1, max|m|): above it definite, at minus it semidefinite."""
    m = np.diag([peak, 0.0])
    threshold = DEFINITENESS_TOL * max(1.0, peak)
    assert definite(np.nextafter(threshold, np.inf), m)
    assert not definite(threshold, m)
    assert definite(threshold, m, strict=False)
    assert definite(-threshold, m, strict=False)
    assert not definite(np.nextafter(-threshold, -np.inf), m, strict=False)
    assert not definite(np.nan, m) and not definite(np.nan, m, strict=False)


@pytest.mark.parametrize(
    "value, expected",
    [(0.5, 0.5), (np.float64(0.25), 0.25), (3, 3.0), (np.int64(2), 2.0), ("0.125", 0.125),
     (np.array(0.75), 0.75)],
    ids=["float", "float64", "int", "int64", "string", "0-d array"],
)
def test_as_scalar_keeps_real_numbers(value, expected):
    out = as_scalar(value, "x")
    assert type(out) is float and out == expected


@pytest.mark.parametrize(
    "value, message",
    [
        (0.5 + 0.1j, "must be real, got complex entries"),
        (np.complex128(1.0 + 1.0j), "must be real, got complex entries"),
        (np.complex128(0.3), "must be real, got complex entries"),
        (np.array(0.3 + 0j), "must be real, got complex entries"),
        ([0.5], r"must be a scalar, got shape \(1,\)"),
        (np.array([0.5]), r"must be a scalar, got shape \(1,\)"),
        (np.ones((2, 2)), r"must be a scalar, got shape \(2, 2\)"),
    ],
    ids=["complex", "complex128", "complex128 real", "0-d complex", "list", "array", "matrix"],
)
def test_as_scalar_refuses_by_name(value, message):
    """numpy would truncate a complex scalar with a ComplexWarning; no warning is raised here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^x {message}$"):
            as_scalar(value, "x")


def test_import_does_not_load_scipy():
    """The package and its CLI import on numpy alone."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, etcontrol, etcontrol.cli; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True)
