"""Synthesis pipeline tests: solver, gains, trigger threshold, feasibility."""

import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest

import oracles
from conftest import CONFIG_DIR
from etcontrol import (
    NumericalError,
    RankDeficiencyError,
    RiccatiConvergenceError,
    SynthesisParams,
    TriggerUndefinedError,
    UncertaintyModel,
    as_matched_model,
    decay_matrix,
    error_weight,
    feedback_gain,
    feasibility_report,
    solve_modified_dare,
    synthesize,
    synthesize_matched,
    trigger_coefficient,
    virtual_gain,
)
from etcontrol.config import load_config
from etcontrol.errors import SingularMatrixError
from etcontrol.linalg import inverse, smallest_eigenvalues, spectral_norm
from etcontrol.synthesis import (
    COND_DECAY_PSD,
    COND_EPS_WINDOW,
    COND_MATCHED_DECAY,
    COND_PERIODIC_DECAY,
    COND_UNC_MATCHED,
    COND_UNC_SCALED,
    COND_UNC_WEIGHTED,
    COND_WEIGHT_PD,
    FAILS,
    HOLD_TOL,
    HOLDS,
    MARGINAL,
    MARGINAL_BAND,
    RICCATI_MAX_ITER,
    RICCATI_RESIDUAL_TOL,
    _channel_weights,
    _check,
    _decay_matrix,
    _effective_weight,
    _feedback_gain,
    _riccati,
    _trigger_coefficient,
    _virtual_gain,
    _window_weights,
)

# Frozen regression values for the benchmark fixtures.
REFERENCE_P = np.array(
    [[33.0587289210233, 6.090057589958272], [6.090057589958272, 32.09999686993529]]
)
REFERENCE_K = np.array([[-0.9687289210233019, -5.7589958272385576e-05]])
REFERENCE_L = np.array(
    [[-0.0005758995827237611, -0.09996869935283209], [0.0, 0.0]]
)
REFERENCE_MU = 0.07484563239353818
DEMO_MU = 0.3338688807956774
MATCHED_DEMO_MU = 1.5388828322307198


# ---------------------------------------------------------------------------
# projector


def _projector(b):
    """The projector Pi = I - B B^+ that the synthesis forms, at identity weights."""
    n, m = b.shape
    return _channel_weights(b, _nominal_params(np.eye(n), np.eye(m), np.eye(n)), 1.0)[1]


def test_projector_complement_single_column():
    proj = _projector(np.array([[0.0], [1.0]]))
    assert np.allclose(proj, np.diag([1.0, 0.0]), atol=1e-14)


def test_projector_complement_properties():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        b = rng.normal(size=(n, m)) + np.eye(n, m)
        proj = _projector(b)
        assert np.allclose(proj, proj.T, atol=1e-10)
        assert np.allclose(proj @ proj, proj, atol=1e-10)
        assert np.allclose(proj @ b, 0.0, atol=1e-10)


def test_projector_complement_rank_deficient(demo_system):
    A, _, model, params = demo_system
    params = dataclasses.replace(params, R1=np.eye(2))
    with pytest.raises(RankDeficiencyError, match="^B has deficient column rank"):
        synthesize(A, np.array([[1.0, 1.0], [2.0, 2.0]]), model, params)


# ---------------------------------------------------------------------------
# Riccati solver


def _nominal_params(Q, R1, R2):
    return SynthesisParams(
        Q=Q, R1=R1, R2=R2, alpha=0.0, beta=0.0, epsilon=1.0, sigma=0.5
    )


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["alpha", "beta", "epsilon"])
def test_params_reject_non_finite_scalars(name, value):
    scalars = {"alpha": 0.0, "beta": 0.0, "epsilon": 1.0, "sigma": 0.5, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SynthesisParams(Q=[[1.0]], R1=[[1.0]], R2=[[1.0]], **scalars)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("alpha", 1e200, "alpha is too large: alpha^2 overflows"),
        ("beta", 1e200, "beta is too large: beta^2 overflows"),
        ("epsilon", 1e-310, "epsilon is too small: 1/epsilon overflows"),
    ],
)
def test_params_reject_overflowing_scalars(name, value, message):
    """A finite scalar whose square (alpha, beta) or reciprocal (epsilon) overflows is refused."""
    scalars = {"alpha": 0.0, "beta": 0.0, "epsilon": 1.0, "sigma": 0.5, name: value}
    with pytest.raises(ValueError) as info:
        SynthesisParams(Q=[[1.0]], R1=[[1.0]], R2=[[1.0]], **scalars)
    assert str(info.value) == message
    # Just inside the float range is accepted.
    scalars[name] = 1e-308 if name == "epsilon" else 1e154
    SynthesisParams(Q=[[1.0]], R1=[[1.0]], R2=[[1.0]], **scalars)


@pytest.mark.parametrize(
    "p_lo, p_hi", [([np.nan], [np.inf]), ([-np.inf], [1.0]), ([0.0], [np.nan])]
)
def test_model_rejects_non_finite_box_bounds(p_lo, p_hi):
    with pytest.raises(ValueError, match="^p_lo and p_hi must be finite$"):
        UncertaintyModel(basis=(np.eye(2),), p_lo=p_lo, p_hi=p_hi, F=np.eye(2))


def test_constructors_own_read_only_arrays(demo_system):
    _, _, model, params = demo_system
    for array in (params.Q, params.R1, params.R2, model.F, model.basis[0], model.p_lo, model.p_hi):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    # The model keeps copies: the caller's arrays stay its own.
    basis, p_lo, F = np.eye(2), np.array([-0.5]), np.eye(2)
    owned = UncertaintyModel(basis=(basis,), p_lo=p_lo, p_hi=[0.5], F=F)
    basis[0, 0], p_lo[0], F[0, 0] = 7.0, -7.0, 7.0
    assert owned.basis[0][0, 0] == 1.0 and owned.p_lo[0] == -0.5 and owned.F[0, 0] == 1.0


@pytest.mark.parametrize(
    "duplicate",
    [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_copies_are_rebuilt_read_only(demo_system, duplicate):
    """pickle and copy go through the constructor: equal values, read-only arrays."""
    _, _, model, params = demo_system
    for original in (params, model):
        clone = duplicate(original)
        assert type(clone) is type(original) and clone is not original
        for field in dataclasses.fields(original):
            before, after = getattr(original, field.name), getattr(clone, field.name)
            pairs = zip(before, after) if field.name == "basis" else [(before, after)]
            for a, b in pairs:
                assert np.array_equal(a, b), field.name
                if isinstance(b, np.ndarray):
                    assert not b.flags.writeable, field.name


def test_golden_ratio_scalar():
    """Scalar unit instance: the solution is the golden ratio."""
    params = _nominal_params([[1.0]], [[1.0]], [[1.0]])
    P = solve_modified_dare([[1.0]], [[1.0]], params, [[0.0]])
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    assert abs(P[0, 0] - golden) <= 1e-12
    K = feedback_gain([[1.0]], [[1.0]], P, params)
    assert abs(K[0, 0] + (np.sqrt(5.0) - 1.0) / 2.0) <= 1e-12


def test_scalar_quadratic_formula_oracle(scalar_system):
    A, B, model, params = scalar_system
    P = solve_modified_dare(A, B, params, model.F)
    w = 1.0 / params.R1[0, 0]
    q_bar = params.Q[0, 0] + model.F[0, 0] + params.beta**2
    expected = oracles.scalar_riccati_root(A[0, 0], w, q_bar)
    assert abs(P[0, 0] - expected) <= 1e-12


def test_zero_dynamics_gives_effective_weight_exactly():
    params = SynthesisParams(
        Q=np.diag([0.3, 0.4]),
        R1=[[1.0]],
        R2=np.eye(2),
        alpha=1.0,
        beta=0.5,
        epsilon=1.0,
        sigma=0.5,
    )
    F = 0.1 * np.eye(2)
    P = solve_modified_dare(np.zeros((2, 2)), [[0.0], [1.0]], params, F)
    assert np.array_equal(P, np.diag([0.65, 0.75]))


def test_reference_riccati_solution(reference_system):
    A, B, model, params = reference_system
    P = solve_modified_dare(A, B, params, model.F)
    assert np.allclose(P, REFERENCE_P, atol=1e-9)


def test_random_instances_satisfy_equation():
    """The returned solution satisfies the equation evaluated independently."""
    rng = np.random.default_rng(314)
    for _ in range(20):
        A, B, Q, R1, R2, F, alpha, beta = oracles.random_instance(rng)
        params = SynthesisParams(
            Q=Q, R1=R1, R2=R2, alpha=alpha, beta=beta, epsilon=1.0, sigma=0.5
        )
        P = solve_modified_dare(A, B, params, F)
        residual = oracles.riccati_residual_explicit(A, B, P, Q, R1, R2, alpha, beta, F)
        assert residual <= 1e-9 * max(1.0, float(np.max(np.abs(P))))


def test_unstabilizable_pair_raises():
    params = SynthesisParams(
        Q=np.eye(2), R1=[[1.0]], R2=np.eye(2), alpha=0.0, beta=0.0, epsilon=1.0, sigma=0.5
    )
    with pytest.raises(RiccatiConvergenceError) as info:
        solve_modified_dare(np.diag([1.2, 0.5]), [[0.0], [1.0]], params, np.zeros((2, 2)))
    err = info.value
    assert err.iterations is not None and 1 <= err.iterations <= RICCATI_MAX_ITER
    assert err.last_step is not None
    message = str(err)
    assert f"step {err.iterations}" in message
    assert "last relative step" in message and "largest entry of H" in message


def test_riccati_without_convergence_raises(monkeypatch, demo_system):
    A, B, model, params = demo_system
    monkeypatch.setattr("etcontrol.synthesis.RICCATI_MAX_ITER", 1)
    with pytest.raises(RiccatiConvergenceError) as info:
        solve_modified_dare(A, B, params, model.F)
    err = info.value
    assert err.iterations == 1 and err.last_step > 0.0
    message = str(err)
    assert message.startswith("no convergence within 1 doubling steps (last relative step ")
    assert f"last relative step {err.last_step:.3e}, largest entry of H" in message


def test_riccati_residual_above_tolerance_raises(monkeypatch, demo_system):
    A, B, model, params = demo_system
    iterations = synthesize(A, B, model, params).iterations
    monkeypatch.setattr("etcontrol.synthesis.RICCATI_RESIDUAL_TOL", -1.0)
    with pytest.raises(RiccatiConvergenceError) as info:
        solve_modified_dare(A, B, params, model.F)
    err = info.value
    assert err.iterations == iterations and err.last_step is not None
    message = str(err)
    assert message.startswith("converged point has residual ")
    assert f"after {iterations} doubling steps (last relative step " in message


def test_riccati_solution_not_positive_definite_raises():
    """With Q, F and beta all zero the doubling stays at P = 0."""
    params = _nominal_params(np.zeros((2, 2)), [[1.0]], np.eye(2))
    with pytest.raises(NumericalError) as info:
        solve_modified_dare(np.diag([0.5, 0.2]), [[0.0], [1.0]], params, np.zeros((2, 2)))
    assert not isinstance(info.value, RiccatiConvergenceError)
    assert str(info.value) == (
        "Riccati solution is not positive definite (smallest eigenvalue 0.000e+00)"
    )


_INTEGRATOR = np.array([[1.0, 0.1], [0.0, 1.0]])
_OSCILLATOR = 0.997 * np.array([[np.cos(0.25), np.sin(0.25)], [-np.sin(0.25), np.cos(0.25)]])


@pytest.mark.parametrize(
    "A, R1",
    [(_INTEGRATOR, 1e2), (_INTEGRATOR, 1e4), (_INTEGRATOR, 1e6), (_OSCILLATOR, 10.0)],
    ids=["integrator-R1=1e2", "integrator-R1=1e4", "integrator-R1=1e6", "oscillator-0.997"],
)
def test_slowly_converging_plants_match_symplectic_oracle(A, R1):
    """Plants whose closed loop has spectral radius near 1 solve in few steps.

    rho(A + B K) is 0.9998 for the integrator at R1 = 1e6, where a
    fixed-point iteration needs far more than 10,000 steps.
    """
    B = np.array([[0.0], [0.1]])
    Q = 1e-4 * np.eye(2)
    F = np.zeros((2, 2))
    params = _nominal_params(Q, [[R1]], np.eye(2))
    W, _ = _channel_weights(B, params, params.alpha)
    P, iterations, _, _ = _riccati(A, W, _effective_weight(params, F))
    assert iterations <= 30
    scale = max(1.0, float(np.max(np.abs(P))))
    residual = oracles.riccati_residual_explicit(A, B, P, Q, [[R1]], np.eye(2), 0.0, 0.0, F)
    assert residual <= 1e-9 * scale
    X = oracles.dare_symplectic(A, B @ B.T / R1, Q)
    assert np.max(np.abs(P - X)) <= 1e-7 * float(np.max(np.abs(X)))
    K = feedback_gain(A, B, P, params)
    assert max(abs(np.linalg.eigvals(A + B @ K))) < 1.0


def test_monotone_in_state_weight():
    rng = np.random.default_rng(99)
    for _ in range(5):
        A, B, Q, R1, R2, F, alpha, beta = oracles.random_instance(rng, max_dim=4)
        params = SynthesisParams(
            Q=Q, R1=R1, R2=R2, alpha=alpha, beta=beta, epsilon=1.0, sigma=0.5
        )
        bumped = dataclasses.replace(params, Q=Q + 0.5 * np.eye(A.shape[0]))
        P_small = solve_modified_dare(A, B, params, F)
        P_large = solve_modified_dare(A, B, bumped, F)
        assert np.linalg.eigvalsh(P_large - P_small)[0] >= -1e-9


# ---------------------------------------------------------------------------
# gains


def test_reference_gains(reference_system):
    A, B, model, params = reference_system
    P = solve_modified_dare(A, B, params, model.F)
    assert np.allclose(feedback_gain(A, B, P, params), REFERENCE_K, atol=1e-9)
    assert np.allclose(virtual_gain(A, B, P, params), REFERENCE_L, atol=1e-9)


def test_feedback_gain_explicit_route(demo_system):
    A, B, model, params = demo_system
    P = solve_modified_dare(A, B, params, model.F)
    proj = np.eye(2) - B @ np.linalg.pinv(B)
    W = B @ np.linalg.inv(params.R1) @ B.T
    W += params.alpha**2 * proj @ np.linalg.inv(params.R2) @ proj.T
    S_inv = np.linalg.inv(np.linalg.inv(P) + W)
    expected_K = -np.linalg.inv(params.R1) @ B.T @ S_inv @ A
    expected_L = -params.alpha * np.linalg.inv(params.R2) @ proj @ S_inv @ A
    assert np.allclose(feedback_gain(A, B, P, params), expected_K, atol=1e-12)
    assert np.allclose(virtual_gain(A, B, P, params), expected_L, atol=1e-12)


def test_virtual_gain_zero_without_virtual_channel(demo_system):
    A, B, model, params = demo_system
    params0 = dataclasses.replace(params, alpha=0.0)
    P = solve_modified_dare(A, B, params0, model.F)
    assert not virtual_gain(A, B, P, params0).any()


# ---------------------------------------------------------------------------
# error weight and trigger threshold


def test_error_weight_scalar_examples():
    assert np.allclose(error_weight([[2.0]], 0.25), [[6.0]])
    assert np.allclose(error_weight([[3.0]], 0.1), [[10.0 + 9.0 / 7.0]])


def test_error_weight_relaxed_outside_window():
    assert np.allclose(error_weight([[2.0]], 1.0), [[-3.0]])


def test_error_weight_singular_gap_raises():
    from etcontrol.errors import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        error_weight(np.diag([0.5, 0.25]), 2.0)


def test_error_weight_overflowing_design_gap_raises():
    """A P near the float maximum that is not semidefinite overflows (1/eps) I - P."""
    with pytest.raises(NumericalError, match="^design window gap contains non-finite entries$"):
        error_weight(np.diag([-1e308, 1.0]), 1e-308)


def test_error_weight_alternative_evaluation():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        g = rng.normal(size=(n, n))
        P = g @ g.T / n + 0.1 * np.eye(n)
        lam_max = float(np.linalg.eigvalsh(P)[-1])
        eps = 1.0 / (lam_max * (1.0 + rng.uniform(0.2, 2.0)))
        Z = error_weight(P, eps)
        direct = np.eye(n) / eps + eps * P @ np.linalg.inv(np.eye(n) - eps * P) @ P
        assert np.allclose(Z, direct, atol=1e-9 * max(1.0, float(np.max(np.abs(Z)))))


def _assert_window_weights_match_explicit(P, epsilon):
    """Z and the inner window matrix within 1e-10 of their magnitudes."""
    for got, want in zip(_window_weights(P, epsilon), oracles.window_weights_explicit(P, epsilon)):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


@pytest.mark.parametrize("design", ["demo_system", "reference_system", "holding_system"])
def test_window_weights_match_explicit_inverses_on_designs(request, design):
    A, B, model, params = request.getfixturevalue(design)
    P = synthesize(A, B, model, params).P
    _assert_window_weights_match_explicit(P, params.epsilon)


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
def test_window_weights_match_explicit_inverses_on_random_P(inside):
    """1/epsilon at least 10% above lambda_max(P) (inside the window) or at least 10%
    below lambda_min(P) (outside it), so neither gap is near singular."""
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        for _ in range(4):
            g = rng.normal(size=(n, n))
            P = g @ g.T / n + 0.1 * np.eye(n)
            lam = np.linalg.eigvalsh(P)
            if inside:
                inv_eps = lam[-1] * (1.0 + rng.uniform(0.1, 3.0))
            else:
                inv_eps = lam[0] * rng.uniform(0.1, 0.9)
            _assert_window_weights_match_explicit(P, 1.0 / inv_eps)


def test_trigger_coefficient_reference_value(reference_system):
    A, B, model, params = reference_system
    out = synthesize(A, B, model, params)
    assert out.mu == pytest.approx(REFERENCE_MU, rel=1e-12)


def test_trigger_coefficient_linear_in_sigma():
    K = np.array([[-0.5, 0.1]])
    B = np.array([[0.0], [1.0]])
    Z = np.diag([2.0, 3.0])
    Q1 = np.diag([1.0, 4.0])
    mu1 = trigger_coefficient(K, B, Z, Q1, 0.2)
    mu2 = trigger_coefficient(K, B, Z, Q1, 0.4)
    assert mu2 == pytest.approx(2.0 * mu1, rel=1e-12)


def test_trigger_coefficient_rejects_bad_sigma():
    with pytest.raises(ValueError):
        trigger_coefficient([[1.0]], [[1.0]], [[1.0]], [[1.0]], 1.0)


def test_trigger_coefficient_requires_positive_decay():
    with pytest.raises(TriggerUndefinedError, match="decay matrix"):
        trigger_coefficient([[1.0]], [[1.0]], [[1.0]], [[-1.0]], 0.5)


def test_trigger_coefficient_zero_feedback_channel():
    with pytest.raises(TriggerUndefinedError, match="vanishes"):
        trigger_coefficient([[0.0]], [[1.0]], [[1.0]], [[1.0]], 0.5)


def test_trigger_coefficient_overflowing_error_gain():
    """Finite K, B and Z whose error gain K' B' Z B K overflows: NumericalError, not ValueError."""
    K = np.array([[1e200, 0.0]])
    B = np.array([[0.0], [1.0]])
    with pytest.raises(NumericalError, match="^trigger error gain contains non-finite entries$"):
        trigger_coefficient(K, B, np.eye(2), np.eye(2), 0.5)


def test_decay_matrix_explicit_route(demo_system):
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    A_fb = A + B @ out.K
    expected = (
        params.beta**2 * np.eye(2)
        + out.K.T @ params.R1 @ out.K
        + out.L.T @ params.R2 @ out.L
        - A_fb.T @ out.Z @ A_fb
    )
    assert np.allclose(decay_matrix(A, B, out.K, out.L, out.Z, params), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# feasibility report


def test_reference_report_flags_window_and_bound(reference_system):
    A, B, model, params = reference_system
    out = synthesize(A, B, model, params)
    report = out.report
    assert not report.all_hold
    assert report.get(COND_EPS_WINDOW).verdict == FAILS
    scaled = report.get(COND_UNC_SCALED)
    assert scaled.verdict == FAILS
    assert scaled.margin == pytest.approx(-0.62, abs=1e-6)
    assert scaled.witness_p == pytest.approx((0.8,))
    assert report.get(COND_WEIGHT_PD).verdict == FAILS
    assert report.get(COND_PERIODIC_DECAY).verdict == HOLDS
    # Outside the window Z is indefinite, so the weighted bound has no
    # vertex certificate and is reported as not certified.
    weighted = report.get(COND_UNC_WEIGHTED)
    assert weighted.verdict == FAILS
    assert weighted.margin is None
    assert weighted.witness_p is None
    assert "not certified" in weighted.description
    assert report.get(COND_DECAY_PSD).verdict == HOLDS
    failed = {c.condition for c in report.failed()}
    assert failed == {COND_EPS_WINDOW, COND_UNC_SCALED, COND_WEIGHT_PD, COND_UNC_WEIGHTED}


def test_demo_report_all_hold(demo_system):
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    assert out.report.all_hold
    for check in out.report.checks:
        assert check.margin > 0.0


def test_marginal_band(reference_system):
    """A bound violated by less than the marginal band is flagged marginal."""
    A, B, model, params = reference_system
    trimmed = UncertaintyModel(
        basis=model.basis, p_lo=model.p_lo, p_hi=[0.7803848], F=model.F
    )
    out = synthesize(A, B, trimmed, params)
    assert out.report.get(COND_UNC_SCALED).verdict == MARGINAL


def test_marginal_matrix_conditions_equal_per_call_oracle():
    """The window gap and Q1 miss definiteness by 1e-7: both matrix conditions are marginal."""
    model = UncertaintyModel(basis=([[1.0]],), p_lo=[-1.0], p_hi=[1.0], F=[[1.0]])
    params = SynthesisParams(
        Q=[[1.0]], R1=[[1.0]], R2=[[1.0]], alpha=1.0, beta=0.5, epsilon=2.0, sigma=0.5
    )
    one = np.ones((1, 1))
    A, B, K, L, Z = 0.5 * one, one, 0.1 * one, 0 * one, 3.0 * one
    P, Q1 = (0.5 + 1e-7) * one, -1e-7 * one
    report = feasibility_report(A, B, model, params, P, K, L, Z, Q1)
    for condition in (COND_EPS_WINDOW, COND_DECAY_PSD):
        check = report.get(condition)
        assert check.verdict == MARGINAL and check.margin == pytest.approx(-1e-7, rel=1e-8)
    expected = oracles.feasibility_report_per_condition(
        "mismatched", A + B @ K, model, params, P, K, L, Z, Q1
    )
    assert report.checks == expected


def test_report_orders_conditions(demo_system):
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    names = [c.condition for c in out.report.checks]
    assert names == [
        COND_EPS_WINDOW,
        COND_UNC_SCALED,
        COND_PERIODIC_DECAY,
        COND_WEIGHT_PD,
        COND_UNC_WEIGHTED,
        COND_DECAY_PSD,
    ]


def test_feasibility_report_standalone(demo_system):
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    report = feasibility_report(A, B, model, params, out.P, out.K, out.L, out.Z, out.Q1)
    assert report.all_hold
    # P, K and L do not depend on epsilon; at epsilon = 100 they leave the window.
    narrow = dataclasses.replace(params, epsilon=100.0)
    Z = error_weight(out.P, narrow.epsilon)
    Q1 = decay_matrix(A, B, out.K, out.L, Z, narrow)
    report = feasibility_report(A, B, model, narrow, out.P, out.K, out.L, Z, Q1)
    assert not report.all_hold
    assert report.get(COND_EPS_WINDOW).verdict == FAILS


def test_feasibility_report_accepts_nested_lists(scalar_system):
    A, B, model, params = scalar_system
    out = synthesize(A, B, model, params)
    matrices = (A, B, out.P, out.K, out.L, out.Z, out.Q1)
    from_arrays = feasibility_report(*matrices[:2], model, params, *matrices[2:])
    lists = [m.tolist() for m in matrices]
    from_lists = feasibility_report(*lists[:2], model, params, *lists[2:])
    assert from_lists == from_arrays
    assert from_arrays.all_hold


@pytest.mark.parametrize("name", ["B", "K", "L", "P", "Z", "Q1"])
def test_feasibility_report_rejects_wrong_shape(demo_system, name):
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    args = {"B": B, "P": out.P, "K": out.K, "L": out.L, "Z": out.Z, "Q1": out.Q1}
    n = A.shape[0]
    wrong = {"B": np.ones((n + 1, B.shape[1])), "K": np.ones((B.shape[1], n + 1))}
    args[name] = wrong.get(name, np.eye(n + 1))
    with pytest.raises(ValueError, match=f"^{name} has shape"):
        feasibility_report(
            A, args["B"], model, params, args["P"], args["K"], args["L"], args["Z"], args["Q1"]
        )


# ---------------------------------------------------------------------------
# vertex certificates of the box conditions


def _random_report_inputs(rng, d, n=3):
    """A random parameter box plus the other report inputs (unused by the box checks)."""
    G = rng.normal(size=(n, n))
    model = UncertaintyModel(
        basis=tuple(rng.normal(size=(n, n)) for _ in range(d)),
        p_lo=rng.uniform(-1.0, 0.0, size=d),
        p_hi=rng.uniform(0.5, 1.5, size=d),
        F=G @ G.T,
    )
    params = SynthesisParams(
        Q=np.eye(n), R1=np.eye(1), R2=np.eye(n), alpha=1.0, beta=0.5, epsilon=2.0, sigma=0.5
    )
    return rng.normal(size=(n, n)), rng.normal(size=(n, 1)), model, params


@pytest.mark.parametrize("d, points", [(1, 401), (2, 61), (3, 15)])
def test_box_margins_are_vertex_minima(d, points):
    """With Z >= 0 both box margins are the vertex minimum and no grid point beats them."""
    rng = np.random.default_rng(100 + d)
    A, B, model, params = _random_report_inputs(rng, d)
    n = A.shape[0]
    H = rng.normal(size=(n, n - 1))
    Z = H @ H.T  # positive semidefinite and singular
    report = feasibility_report(
        A, B, model, params, 0.1 * np.eye(n), rng.normal(size=(1, n)), np.zeros((n, n)), Z, np.eye(n)
    )
    F = model.F
    basis = np.array(model.basis)

    def dA(p):
        return np.tensordot(p, basis, axes=1)

    slacks = {
        COND_UNC_SCALED: lambda p: F - dA(p).T @ dA(p) / params.epsilon,
        COND_UNC_WEIGHTED: lambda p: F - dA(p).T @ Z @ dA(p),
    }
    tol = 1e-12 * max(1.0, np.linalg.norm(F, 2))
    vertices = [np.array(v) for v in itertools.product(*zip(model.p_lo, model.p_hi))]
    for condition, slack in slacks.items():
        check = report.get(condition)
        vertex_min = min(float(np.linalg.eigvalsh(slack(v))[0]) for v in vertices)
        assert check.margin == pytest.approx(vertex_min, rel=0.0, abs=tol)
        witness = np.array(check.witness_p)
        assert all(w in (lo, hi) for w, lo, hi in zip(witness, model.p_lo, model.p_hi))
        assert float(np.linalg.eigvalsh(slack(witness))[0]) == pytest.approx(
            check.margin, rel=0.0, abs=tol
        )
        dense_min = oracles.box_min_dense(slack, model.p_lo, model.p_hi, points)
        assert dense_min >= check.margin - tol
        assert check.points_evaluated == 2**d
        assert check.margin_exact
    # The per-vertex loop that the stacked check replaced gives the same bits.
    loop_slacks = {
        COND_UNC_SCALED: lambda dA: F - (1.0 / params.epsilon) * (dA.T @ dA),
        COND_UNC_WEIGHTED: lambda dA: F - dA.T @ Z @ dA,
    }
    for condition, loop_slack in loop_slacks.items():
        margins = [float(np.linalg.eigvalsh(loop_slack(model.matrix_at(v)))[0]) for v in vertices]
        check = report.get(condition)
        assert check.margin == min(margins)
        assert check.witness_p == tuple(vertices[int(np.argmin(margins))])


def test_vertices_are_rows_in_product_order():
    empty = UncertaintyModel(basis=(), p_lo=[], p_hi=[], F=np.eye(2))
    assert empty.vertices().shape == (1, 0)
    lo, hi = [-1.0, -2.0, -3.0], [1.0, 2.0, 3.5]
    box = UncertaintyModel(basis=(np.eye(2),) * 3, p_lo=lo, p_hi=hi, F=np.eye(2))
    vertices = box.vertices()
    assert vertices.shape == (8, 3) and vertices.dtype == float
    assert np.array_equal(vertices, list(itertools.product(*zip(lo, hi))))


@pytest.mark.parametrize("d", [1, 2])
def test_box_witness_is_first_of_tied_vertices(d):
    """Slacks even in p_1 tie at every vertex; the witness is the first one."""
    model = UncertaintyModel(
        basis=([[1.0]],) + ([[0.0]],) * (d - 1), p_lo=[-1.0] * d, p_hi=[1.0] * d, F=[[1.0]]
    )
    params = SynthesisParams(
        Q=[[1.0]], R1=[[1.0]], R2=[[1.0]], alpha=1.0, beta=0.5, epsilon=2.0, sigma=0.5
    )
    one = np.ones((1, 1))
    report = feasibility_report(
        0.5 * one, one, model, params, 0.1 * one, 0.1 * one, 0 * one, 3.0 * one, one
    )
    # F - p_1^2 / epsilon = 1 - 0.5 and F - 3 p_1^2 = 1 - 3 at every vertex.
    for condition, margin in ((COND_UNC_SCALED, 0.5), (COND_UNC_WEIGHTED, -2.0)):
        check = report.get(condition)
        assert check.margin == margin
        assert check.witness_p == (-1.0,) * d
        assert check.points_evaluated == 2**d


def test_box_check_non_finite_slack_fails_at_first_such_vertex(demo_system):
    """dA' W dA overflows where p_1 != 0: the box is not certified, no NaN margin."""
    A, B, model, params = demo_system
    huge = UncertaintyModel(
        basis=(np.diag([1e300, -1e300]), model.basis[0]),
        p_lo=[0.0, -0.3],
        p_hi=[0.3, 0.3],
        F=model.F,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        out = synthesize(A, B, huge, params)
    for condition in (COND_UNC_SCALED, COND_UNC_WEIGHTED):
        check = out.report.get(condition)
        assert check.verdict == FAILS
        assert check.margin is None and not check.margin_exact
        assert check.witness_p == (0.3, -0.3)
        assert check.points_evaluated == 4
    assert out.report.get(COND_EPS_WINDOW).verdict == HOLDS


@pytest.mark.parametrize("kind", ["box", "matrix"])
def test_check_reads_finiteness_from_the_slack(kind):
    """LAPACK can return finite eigenvalues for a NaN matrix; a NaN slack still fails.

    A box condition keeps its points and names the first such vertex; a
    matrix condition has neither.
    """
    slack = np.array([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]])
    margins = smallest_eigenvalues(slack).tolist()
    if kind == "box":
        check = _check(COND_UNC_SCALED, "", margins, 1.0, [[-1.0], [1.0]])
        assert (check.witness_p, check.points_evaluated) == ((1.0,), 2)
    else:
        check = _check(COND_DECAY_PSD, "", margins[1], 1.0)
        assert (check.witness_p, check.points_evaluated) == (None, 0)
    assert check.verdict == FAILS and check.margin is None and not check.margin_exact


@pytest.mark.parametrize("scale", [1.0, 40.0])
@pytest.mark.parametrize("kind", ["box", "matrix"])
def test_check_band_edges(kind, scale):
    """Both kinds: hold down to -HOLD_TOL scale, marginal down to -MARGINAL_BAND scale."""
    hold, band = -HOLD_TOL * scale, -MARGINAL_BAND * scale
    below = [np.nextafter(hold, -np.inf), np.nextafter(band, -np.inf)]
    edges = zip([hold, *below, band], [HOLDS, MARGINAL, FAILS, MARGINAL])
    for margin, verdict in edges:
        margin = float(margin)
        if kind == "box":
            check = _check(COND_UNC_SCALED, "", [1.0, margin, margin], scale, [[0.0], [1.0], [2.0]])
            assert check.witness_p == (1.0,)
        else:
            check = _check(COND_DECAY_PSD, "", margin, scale)
        assert check.margin == margin
        assert check.verdict == verdict == oracles._verdict(margin, scale, MARGINAL_BAND * scale)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_slack_margins_beside_a_non_finite_slack(bad):
    """A NaN or inf slack gets margin NaN; every other slack keeps the bits of its 2-D call.

    A raw stacked eigvalsh can fail on such a slice ("Eigenvalues did not
    converge") and so lose the whole stack: the kernel keeps it out of LAPACK.
    """
    rng = np.random.default_rng(8)
    stack = np.array([g + g.T for g in rng.normal(size=(4, 3, 3))])
    stack[2, 0, 1] = stack[2, 1, 0] = bad
    margins = smallest_eigenvalues(stack)
    assert margins.shape == (4,) and np.isnan(margins[2])
    for i in (0, 1, 3):
        assert margins[i] == smallest_eigenvalues(stack[i])
        assert margins[i].tobytes() == np.linalg.eigvalsh(stack[i])[0].tobytes()


def test_weighted_bound_not_certified_for_indefinite_weight():
    """Without Z >= 0 the minimum may be interior, so no vertex margin is reported."""
    model = UncertaintyModel(basis=([[1.0]],), p_lo=[-1.0], p_hi=[1.0], F=[[1.0]])
    params = SynthesisParams(
        Q=[[1.0]], R1=[[1.0]], R2=[[1.0]], alpha=1.0, beta=0.5, epsilon=2.0, sigma=0.5
    )
    Z = np.array([[-1.0]])
    one = np.ones((1, 1))
    report = feasibility_report(0.5 * one, one, model, params, 0.1 * one, 0.1 * one, 0 * one, Z, one)
    check = report.get(COND_UNC_WEIGHTED)
    assert check.verdict == FAILS
    assert check.margin is None
    assert check.witness_p is None
    assert "not certified" in check.description
    assert check.points_evaluated == 0
    assert not check.margin_exact
    assert COND_UNC_WEIGHTED in {c.condition for c in report.failed()}
    # The slack 1 + p^2 is smallest at p = 0, inside the box: a vertex scan
    # would overstate the margin (2 instead of 1).
    dense_min = oracles.box_min_dense(
        lambda p: model.F - model.matrix_at(p).T @ Z @ model.matrix_at(p), [-1.0], [1.0], 101
    )
    assert dense_min == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# synthesize end to end


def test_synthesize_outcome_consistency(demo_system):
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    assert out.mode == "mismatched"
    assert np.allclose(out.A_closed, A + B @ out.K, atol=1e-14)
    assert out.iterations > 0
    assert out.residual <= 1e-9
    assert out.mu == pytest.approx(DEMO_MU, rel=1e-12)


def test_synthesize_rejects_indefinite_decay(demo_system):
    """Just inside the window the error weight explodes and decay is lost."""
    A, B, model, params = demo_system
    tight = dataclasses.replace(params, epsilon=13.1578947368)
    with pytest.raises(TriggerUndefinedError):
        synthesize(A, B, model, tight)


def test_undefined_trigger_carries_the_report(demo_system):
    """Both pipelines attach the report they computed before mu to the error."""
    A, B, model, params = demo_system
    params = dataclasses.replace(params, epsilon=2.0)
    with pytest.raises(TriggerUndefinedError) as info:
        synthesize(A, B, model, params)
    report = info.value.report
    assert [c.condition for c in report.failed()] == [COND_DECAY_PSD]
    assert report.get(COND_DECAY_PSD).margin == pytest.approx(-0.00565756, abs=1e-8)
    A, B, model, params = _matched_demo()
    with pytest.raises(TriggerUndefinedError, match="inner window weight vanishes") as info:
        synthesize_matched(np.zeros((2, 2)), B, model, params)
    assert [c.condition for c in info.value.report.checks] == [
        COND_EPS_WINDOW,
        COND_UNC_MATCHED,
        COND_MATCHED_DECAY,
    ]
    with pytest.raises(TriggerUndefinedError) as info:
        trigger_coefficient(np.zeros((1, 2)), B, np.eye(2), np.eye(2), 0.5)
    assert info.value.report is None


def test_synthesize_dimension_mismatch(demo_system):
    A, B, model, params = demo_system
    with pytest.raises(ValueError, match="state dimension"):
        synthesize(np.eye(3), np.ones((3, 1)), model, params)


def _random_design(seed, d, alpha):
    """A seeded random design whose trigger coefficient is defined.

    Draws until some epsilon inside the design window gives a positive
    definite decay matrix; the same seed gives the same design.
    """
    rng = np.random.default_rng(seed)
    n, m = 3, 1 + seed % 2
    while True:
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.3, 0.9) / max(abs(np.linalg.eigvals(A)))
        B = rng.normal(size=(n, m))
        model = UncertaintyModel(
            basis=tuple(0.05 * rng.normal(size=(n, n)) for _ in range(d)),
            p_lo=-np.ones(d),
            p_hi=np.ones(d),
            F=0.02 * np.eye(n),
        )
        params = SynthesisParams(
            Q=0.01 * np.eye(n),
            R1=10.0 ** rng.uniform(-2.0, 0.0) * np.eye(m),
            R2=np.eye(n),
            alpha=alpha,
            beta=0.5,
            epsilon=1.0,
            sigma=0.5,
        )
        lam_max = float(np.linalg.eigvalsh(solve_modified_dare(A, B, params, model.F))[-1])
        for factor in (1.2, 1.5, 2.0, 3.0):
            params = dataclasses.replace(params, epsilon=1.0 / (factor * lam_max))
            try:
                synthesize(A, B, model, params)
            except TriggerUndefinedError:
                continue
            return A, B, model, params


def _public_chain(A, B, model, params):
    """The design by the public stage functions, one after another."""
    P = solve_modified_dare(A, B, params, model.F)
    K = feedback_gain(A, B, P, params)
    L = virtual_gain(A, B, P, params)
    Z = error_weight(P, params.epsilon)
    Q1 = decay_matrix(A, B, K, L, Z, params)
    report = feasibility_report(A, B, model, params, P, K, L, Z, Q1)
    mu = trigger_coefficient(K, B, Z, Q1, params.sigma)
    return {"P": P, "K": K, "L": L, "Z": Z, "Q1": Q1, "A_closed": A + B @ K}, mu, report


def _assert_same_bits(out, matrices, mu):
    for name, expected in matrices.items():
        got = getattr(out, name)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name
    assert out.mu == mu


RANDOM_DESIGNS = [
    (seed, d, alpha) for d in range(4) for alpha in (0.0, 0.8) for seed in range(3)
]


@pytest.mark.parametrize(
    "instance",
    ["demo_system", "reference_system", "holding_system"]
    + [f"random-{seed}-{d}-{alpha}" for seed, d, alpha in RANDOM_DESIGNS],
)
def test_synthesize_equals_public_stage_chain(request, instance):
    """synthesize runs the kernels behind the public stages: same bits, same report."""
    if instance.startswith("random"):
        _, seed, d, alpha = instance.split("-")
        A, B, model, params = _random_design(int(seed), int(d), float(alpha))
    else:
        A, B, model, params = request.getfixturevalue(instance)
    out = synthesize(A, B, model, params)
    matrices, mu, report = _public_chain(A, B, model, params)
    _assert_same_bits(out, matrices, mu)
    assert out.report.checks == report.checks
    W, _ = _channel_weights(B, params, params.alpha)
    _, iterations, residual, _ = _riccati(A, W, _effective_weight(params, model.F))
    assert (out.iterations, out.residual) == (iterations, residual)


def test_synthesize_matched_equals_public_stage_chain():
    A, B, model, params = _matched_demo()
    out = synthesize_matched(A, B, as_matched_model(B, model), params)
    params0 = dataclasses.replace(params, alpha=0.0)
    matrices, _, _ = _public_chain(A, B, model, params0)
    del matrices["Q1"]
    P, K = matrices["P"], matrices["K"]
    Q_eff = params.Q + model.F + params.beta**2 * np.eye(2)
    inner = P @ inverse(np.eye(2) - params.epsilon * P)
    mu = float(params.sigma * np.linalg.eigvalsh(Q_eff)[0] / spectral_norm(K.T @ B.T @ inner @ B @ K))
    _assert_same_bits(out, {**matrices, "Q1": Q_eff}, mu)


@pytest.mark.parametrize(
    "epsilon, error, message",
    [
        (13.1578947368, TriggerUndefinedError, "decay matrix is not positive definite"),
        (None, SingularMatrixError, "design window gap is singular"),
    ],
)
def test_synthesize_fails_like_public_stage_chain(demo_system, epsilon, error, message):
    A, B, model, params = demo_system
    if epsilon is None:  # the window gap (1/epsilon) I - P is singular
        epsilon = 1.0 / float(np.linalg.eigvalsh(synthesize(A, B, model, params).P)[-1])
    params = dataclasses.replace(params, epsilon=epsilon)
    with pytest.raises(error, match=message) as from_pipeline:
        synthesize(A, B, model, params)
    with pytest.raises(error) as from_chain:
        _public_chain(A, B, model, params)
    assert str(from_pipeline.value) == str(from_chain.value)


# Each public stage function with the names of its arguments.
STAGES = {
    "feedback_gain": (feedback_gain, "A B P params"),
    "error_weight": (error_weight, "P epsilon"),
    "decay_matrix": (decay_matrix, "A B K L Z params"),
    "trigger_coefficient": (trigger_coefficient, "K B Z Q1 sigma"),
}


def _stage_call(demo_system, stage):
    """The stage's function, its demo arguments, and their names."""
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    values = dict(A=A, B=B, P=out.P, K=out.K, L=out.L, Z=out.Z, Q1=out.Q1, params=params)
    values.update(epsilon=params.epsilon, sigma=params.sigma)
    function, names = STAGES[stage]
    return function, [values[name] for name in names.split()], names.split()


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_stage_accepts_nested_lists(demo_system, stage):
    function, args, _ = _stage_call(demo_system, stage)
    lists = [a.tolist() if isinstance(a, np.ndarray) else a for a in args]
    expected = function(*args)
    assert np.asarray(function(*lists)).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("stage", sorted(STAGES))
@pytest.mark.parametrize(
    "fault, message",
    [("1-D", "must be 2-D"), ("not square", "must be square"), ("not symmetric", "is not symmetric")],
)
def test_stage_rejects_bad_matrix_naming_it(demo_system, stage, fault, message):
    """A 1-D first argument, or a non-square or non-symmetric P or Z."""
    function, args, names = _stage_call(demo_system, stage)
    index = 0 if fault == "1-D" else names.index("Z" if "Z" in names else "P")
    args[index] = {
        "1-D": np.ones(2),
        "not square": np.ones((2, 3)),
        "not symmetric": args[index] + np.array([[0.0, 1.0], [0.0, 0.0]]),
    }[fault]
    with pytest.raises(ValueError, match=f"^{names[index]} {message}"):
        function(*args)


def test_clean_reports_satisfy_the_lyapunov_inequality_at_the_vertices():
    """Every clean report's design satisfies R - M_v >= 0 at every box vertex.

    The margin is scaled by max(1, ||P||). Errors in the null space of K
    change nothing, so the margin is structurally 0 up to round-off (the
    worst of the 93 clean reports here reads -6.8e-17). The inequality
    needs neither the design window nor the weighted bound: when this was
    written, 200 of the 207 failing reports satisfied it too, a count the
    test does not pin.
    """
    clean = 0
    for seed in range(150):
        for d in (1, 2):
            A, B, model, params = _random_design(seed, d, 1.0)
            out = synthesize(A, B, model, params)
            if not out.report.all_hold:
                continue
            clean += 1
            margin = oracles.lyapunov_vertex_margins(A, B, model, out.P, out.K, out.Q1, out.Z)
            assert margin >= -1e-9 * max(1.0, spectral_norm(out.P)), (seed, d, margin)
    assert clean > 0


# ---------------------------------------------------------------------------
# matched pipeline


def _matched_demo():
    A = np.array([[0.0, 0.3], [0.3, 0.0]])
    B = np.array([[0.0], [1.0]])
    model = UncertaintyModel(
        basis=(B @ np.array([[0.1, 0.1]]),),
        p_lo=[-0.3],
        p_hi=[0.3],
        F=0.02 * np.eye(2),
    )
    params = SynthesisParams(
        Q=0.01 * np.eye(2),
        R1=[[0.01]],
        R2=np.eye(2),
        alpha=1.0,
        beta=0.2,
        epsilon=10.0,
        sigma=0.5,
    )
    return A, B, model, params


def test_as_matched_model_roundtrip():
    A, B, model, params = _matched_demo()
    assert as_matched_model(B, model) is model
    for e in model.basis:
        phi = np.linalg.lstsq(B, e, rcond=None)[0]
        assert np.allclose(B @ phi, e, atol=1e-12)


def test_as_matched_model_rejects_mismatched(reference_system):
    _, B, model, _ = reference_system
    with pytest.raises(ValueError, match="not matched"):
        as_matched_model(B, model)


def test_as_matched_model_rejects_wrong_row_count(reference_system):
    _, _, model, _ = reference_system
    with pytest.raises(ValueError, match="B has 3 rows"):
        as_matched_model(np.ones((3, 1)), model)


def test_synthesize_matched_rejects_mismatched(demo_system):
    """The matched mode checks its model before any stage runs."""
    A, B, model, params = demo_system
    with pytest.raises(ValueError, match=r"basis\[0\] is not matched"):
        synthesize_matched(A, B, model, params)


def test_matched_synthesis_values():
    A, B, model, params = _matched_demo()
    matched = as_matched_model(B, model)
    out = synthesize_matched(A, B, matched, params)
    assert out.mode == "matched"
    assert not out.L.any()
    assert out.mu == pytest.approx(MATCHED_DEMO_MU, rel=1e-10)
    assert out.report.all_hold
    names = [c.condition for c in out.report.checks]
    assert names == [COND_EPS_WINDOW, COND_UNC_MATCHED, COND_MATCHED_DECAY]


def test_matched_equals_mismatched_without_virtual_channel():
    """With alpha forced to zero the two pipelines share the same equation."""
    A, B, model, params = _matched_demo()
    matched = as_matched_model(B, model)
    out_matched = synthesize_matched(A, B, matched, params)
    params0 = dataclasses.replace(params, alpha=0.0)
    P0 = solve_modified_dare(A, B, params0, model.F)
    K0 = feedback_gain(A, B, P0, params0)
    assert np.max(np.abs(out_matched.P - P0)) <= 1e-12
    assert np.max(np.abs(out_matched.K - K0)) <= 1e-12


# ---------------------------------------------------------------------------
# stacked LAPACK calls against the per-call oracles


def _per_call_synthesis(A, B, model, params, matched=False):
    """Either pipeline by the per-call oracles: the hstack doubling loop, one
    inverse per window gap and one LAPACK call per report condition and scale.

    Returns the outcome's matrices, mu, the step count, the residual and
    the report's checks.
    """
    W, Pi = _channel_weights(B, params, 0.0 if matched else params.alpha)
    Qbar = _effective_weight(params, model.F)
    P, iterations, residual, S_inv = oracles.riccati_hstack(A, W, Qbar)
    K = _feedback_gain(A, B, S_inv, params)
    L = np.zeros_like(P) if matched else _virtual_gain(A, Pi, S_inv, params)
    Z, inner = oracles.window_weights_separate(P, params.epsilon)
    A_fb = A + B @ K
    Q1 = Qbar if matched else _decay_matrix(A_fb, K, L, Z, params)
    mode = "matched" if matched else "mismatched"
    checks = oracles.feasibility_report_per_condition(mode, A_fb, model, params, P, K, L, Z, Q1)
    if matched:
        names = ("effective state weight", "inner window weight")
        mu = _trigger_coefficient(K, B, inner, np.linalg.eigvalsh(Q1)[0], params.sigma, None, names)
    else:
        margin = {c.condition: c for c in checks}[COND_DECAY_PSD].margin
        mu = _trigger_coefficient(K, B, Z, margin, params.sigma)
    matrices = {"P": P, "K": K, "L": L, "Z": Z, "Q1": Q1, "A_closed": A_fb}
    return matrices, mu, iterations, residual, checks


def _assert_equals_per_call(out, per_call):
    matrices, mu, iterations, residual, checks = per_call
    _assert_same_bits(out, matrices, mu)
    assert (out.iterations, out.residual) == (iterations, residual)
    assert out.report.checks == checks


@pytest.mark.parametrize(
    "instance",
    ["feasible_demo", "reference_example"]
    + [f"random-{seed}-{d}-{alpha}" for seed, d, alpha in RANDOM_DESIGNS],
)
def test_synthesize_equals_per_call_oracles(instance):
    """The stacked calls give the bits and checks of one call per condition, d = 0..3."""
    if instance.startswith("random"):
        _, seed, d, alpha = instance.split("-")
        A, B, model, params = _random_design(int(seed), int(d), float(alpha))
    else:
        config = load_config(CONFIG_DIR / f"{instance}.json")
        A, B, model, params = config.A, config.B, config.model, config.params
    out = synthesize(A, B, model, params)
    _assert_equals_per_call(out, _per_call_synthesis(A, B, model, params))
    assert out.report.get(COND_UNC_SCALED).points_evaluated == 2**model.dimension


@pytest.mark.parametrize("d", [0, 1, 2])
def test_synthesize_matched_equals_per_call_oracles(d):
    A, B, model, params = _matched_demo()
    directions = (model.basis[0], B @ np.array([[0.0, 0.2]]))
    box = UncertaintyModel(basis=directions[:d], p_lo=[-0.3] * d, p_hi=[0.3] * d, F=model.F)
    out = synthesize_matched(A, B, box, params)
    _assert_equals_per_call(out, _per_call_synthesis(A, B, box, params, matched=True))
    assert out.report.get(COND_UNC_MATCHED).points_evaluated == 2**d


def test_overflowing_basis_equals_per_call_oracles(demo_system):
    """Overflowing vertex slacks: margin None, witness at the first non-finite vertex."""
    A, B, model, params = demo_system
    huge = UncertaintyModel(
        basis=(np.diag([1e300, -1e300]), model.basis[0]),
        p_lo=[0.0, -0.3],
        p_hi=[0.3, 0.3],
        F=model.F,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        out = synthesize(A, B, huge, params)
        per_call = _per_call_synthesis(A, B, huge, params)
    _assert_equals_per_call(out, per_call)
    for condition in (COND_UNC_SCALED, COND_UNC_WEIGHTED):
        check = out.report.get(condition)
        assert check.margin is None and check.witness_p == (0.3, -0.3)


def test_overflowing_slack_stays_out_of_lapack():
    """A NaN pair off the diagonal of a 3 x 3 vertex slack fails its box, not the report.

    Given such a slice, eigvalsh raises "Eigenvalues did not converge" for
    the whole stack; the report keeps it out of the call.
    """
    A, B, model, params = _random_design(0, 1, 0.8)
    E = np.zeros((3, 3))
    E[0, 0] = E[0, 1] = E[1, 0] = 1e300
    E[1, 1] = -1e300
    huge = UncertaintyModel(basis=(E,), p_lo=[-0.3], p_hi=[0.3], F=model.F)
    with np.errstate(over="ignore", invalid="ignore"):
        out = synthesize(A, B, huge, params)
    for condition in (COND_UNC_SCALED, COND_UNC_WEIGHTED):
        check = out.report.get(condition)
        assert (check.verdict, check.margin, check.witness_p) == (FAILS, None, (-0.3,))
    assert out.report.checks[2:4] == synthesize(A, B, model, params).report.checks[2:4]


def test_huge_error_weight_keeps_finite_margins(demo_system):
    """epsilon 1e-308: Z is 1e308 I, finite, and so are the margins of the conditions
    on Z and Q1. Q1 is indefinite, so the trigger coefficient is undefined; the report
    equals the per-call oracle's."""
    A, B, model, params = demo_system
    params = dataclasses.replace(params, epsilon=1e-308)
    with pytest.raises(TriggerUndefinedError, match=r"\(smallest eigenvalue -9e\+306\)") as info:
        synthesize(A, B, model, params)
    W, Pi = _channel_weights(B, params, params.alpha)
    P, _, _, S_inv = oracles.riccati_hstack(A, W, _effective_weight(params, model.F))
    K, L = _feedback_gain(A, B, S_inv, params), _virtual_gain(A, Pi, S_inv, params)
    Z, _ = oracles.window_weights_separate(P, params.epsilon)
    assert np.array_equal(Z, 1e308 * np.eye(2))
    assert np.array_equal(Z, error_weight(P, params.epsilon))
    Q1 = _decay_matrix(A + B @ K, K, L, Z, params)
    report = info.value.report
    assert report.checks == oracles.feasibility_report_per_condition(
        "mismatched", A + B @ K, model, params, P, K, L, Z, Q1
    )
    margins = {c.condition: (c.verdict, c.margin) for c in report.checks}
    assert margins[COND_WEIGHT_PD] == (HOLDS, 1e308)
    assert margins[COND_UNC_WEIGHTED] == (FAILS, pytest.approx(-1.8e305, rel=1e-12))
    assert margins[COND_DECAY_PSD] == (FAILS, pytest.approx(-9e306, rel=1e-12))


def test_overflowing_inner_gap_raises(reference_system):
    """epsilon P overflows: a NumericalError names the inner window gap, report included."""
    A, B, model, params = reference_system
    out = synthesize(A, B, model, params)
    params = dataclasses.replace(params, epsilon=1e308)
    message = "^inner window gap contains non-finite entries$"
    with pytest.raises(NumericalError, match=message):
        synthesize(A, B, model, params)
    with pytest.raises(NumericalError, match=message):
        feasibility_report(A, B, model, params, out.P, out.K, out.L, out.Z, out.Q1)


def test_overflowing_effective_state_weight_raises(demo_system):
    """Q = 1e308 I and beta = 1.3e154 overflow Q + F + beta^2 I: a NumericalError, no warning."""
    A, B, model, params = demo_system
    params = dataclasses.replace(params, Q=1e308 * np.eye(2), beta=1.3e154)
    message = "^effective state weight contains non-finite entries$"
    with pytest.raises(NumericalError, match=message):
        synthesize(A, B, model, params)
    with pytest.raises(NumericalError, match=message):
        solve_modified_dare(A, B, params, model.F)


def test_report_without_psd_weight_equals_per_call_oracle():
    """Z not positive semidefinite: the weighted bound is not certified."""
    model = UncertaintyModel(basis=([[1.0]],), p_lo=[-1.0], p_hi=[1.0], F=[[1.0]])
    params = SynthesisParams(
        Q=[[1.0]], R1=[[1.0]], R2=[[1.0]], alpha=1.0, beta=0.5, epsilon=2.0, sigma=0.5
    )
    one = np.ones((1, 1))
    A, B, P, K, L, Z, Q1 = 0.5 * one, one, 0.1 * one, 0.1 * one, 0 * one, -one, one
    report = feasibility_report(A, B, model, params, P, K, L, Z, Q1)
    assert report.get(COND_UNC_WEIGHTED).margin is None
    expected = oracles.feasibility_report_per_condition(
        "mismatched", A + B @ K, model, params, P, K, L, Z, Q1
    )
    assert report.checks == expected


def test_report_with_singular_window_gap_equals_per_call_oracle(demo_system):
    """Both window gaps singular: the periodic decay is not evaluable and fails."""
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    P, params = np.diag([0.5, 0.25]), dataclasses.replace(params, epsilon=2.0)
    report = feasibility_report(A, B, model, params, P, out.K, out.L, out.Z, out.Q1)
    check = report.get(COND_PERIODIC_DECAY)
    assert (check.verdict, check.margin, check.margin_exact) == (FAILS, None, False)
    assert "not evaluable" in check.description
    expected = oracles.feasibility_report_per_condition(
        "mismatched", A + B @ out.K, model, params, P, out.K, out.L, out.Z, out.Q1
    )
    assert report.checks == expected
    with pytest.raises(SingularMatrixError, match="^design window gap is singular"):
        error_weight(P, params.epsilon)


def test_riccati_failures_equal_hstack_loop():
    """A divergent plant stops where, and with the message, the hstack loop stops."""
    A = np.diag([1.2, 0.5])
    params = SynthesisParams(
        Q=np.eye(2), R1=[[1.0]], R2=np.eye(2), alpha=0.0, beta=0.0, epsilon=0.1, sigma=0.5
    )
    W, _ = _channel_weights(np.array([[0.0], [1.0]]), params, 0.0)
    with pytest.raises(RiccatiConvergenceError) as stacked:
        _riccati(A, W, np.eye(2))
    with pytest.raises(RiccatiConvergenceError) as per_call:
        oracles.riccati_hstack(A, W, np.eye(2))
    assert str(stacked.value) == str(per_call.value)
    assert (stacked.value.iterations, stacked.value.last_step) == (
        per_call.value.iterations,
        per_call.value.last_step,
    )


def _scaled(system, name, factor):
    """The system with F (of the model) or Q (of the params) scaled by factor."""
    A, B, model, params = system
    if name == "F":
        model = dataclasses.replace(model, F=factor * model.F)
    else:
        params = dataclasses.replace(params, Q=factor * params.Q)
    return A, B, model, params


@pytest.mark.parametrize(
    "system, name, factor",
    [("reference_system", "F", 1e8), ("demo_system", "F", 1e20), ("demo_system", "Q", 1e20)],
)
def test_scaled_instances_solve_on_a_relative_scale(request, system, name, factor):
    """Large weights converge, and the residual is judged relative to max|P|."""
    A, B, model, params = _scaled(request.getfixturevalue(system), name, factor)
    W, _ = _channel_weights(B, params, params.alpha)
    Q_eff = _effective_weight(params, model.F)
    P, iterations, residual, _ = _riccati(A, W, Q_eff)
    scale = max(1.0, float(np.max(np.abs(P))))
    assert residual <= RICCATI_RESIDUAL_TOL * scale
    explicit = oracles.riccati_residual_explicit(
        A, B, P, params.Q, params.R1, params.R2, params.alpha, params.beta, model.F
    )
    assert explicit <= RICCATI_RESIDUAL_TOL * scale
    expected = oracles.riccati_hstack(A, W, Q_eff)
    assert np.array_equal(P, expected[0]) and (iterations, residual) == expected[1:3]


def test_singular_doubling_system_raises(reference_system):
    """F x 1e18 makes I + G H singular in floating point at the first step."""
    A, B, model, params = _scaled(reference_system, "F", 1e18)
    with pytest.raises(RiccatiConvergenceError) as info:
        solve_modified_dare(A, B, params, model.F)
    assert (info.value.iterations, info.value.last_step) == (1, None)
    assert str(info.value) == (
        "doubling step 1 met a singular system I + G H "
        "(last relative step none, largest entry of H 6.090e+18); the effective state "
        "weight has smallest eigenvalue 0.000e+00 and largest 1.218e+19"
    )
    W, _ = _channel_weights(B, params, params.alpha)
    with pytest.raises(RiccatiConvergenceError) as per_call:
        oracles.riccati_hstack(A, W, _effective_weight(params, model.F))
    assert str(per_call.value) == str(info.value)
