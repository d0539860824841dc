"""Numerical audit tests: identities, bounds, dissipation, campaigns."""

import numpy as np
import pytest

from etcontrol import (
    FeasibilityError,
    ParamTrajectory,
    TriggerPolicy,
    check_cross_term_bound,
    check_dissipation,
    check_inversion_identity,
    check_loop_energy_bound,
    cross_term_campaign,
    identity_campaign,
    simulate,
    synthesize,
)


# ---------------------------------------------------------------------------
# inversion identity


def test_inversion_identity_scalar_exact():
    # lhs: 2 / (1 - 0.1 * 2) = 2.5, rhs: 2 + 2 * (1 / (10 - 2)) * 2 = 2.5
    result = check_inversion_identity([[2.0]], 0.1)
    assert result.holds
    assert result.margin <= 1e-14


def test_inversion_identity_requires_definite_P():
    with pytest.raises(ValueError, match="positive definite"):
        check_inversion_identity([[-1.0]], 0.1)


def test_inversion_identity_outside_window(reference_system):
    """The identity is purely algebraic and holds even outside the window."""
    A, B, model, params = reference_system
    out = synthesize(A, B, model, params)
    result = check_inversion_identity(out.P, params.epsilon)
    assert result.holds
    assert result.margin <= 1e-10


# ---------------------------------------------------------------------------
# cross-term bound


def test_cross_term_bound_zero_perturbation():
    P = np.diag([1.0, 2.0])
    result = check_cross_term_bound(P, 0.2, np.array([[0.1, 0.3], [0.0, 0.2]]), np.zeros((2, 2)))
    assert result.holds
    assert result.margin >= 0.0


def test_cross_term_bound_zero_loop():
    P = np.diag([1.0, 2.0])
    dA = np.array([[0.5, 0.1], [0.0, 0.4]])
    result = check_cross_term_bound(P, 0.2, np.zeros((2, 2)), dA)
    assert result.holds


def test_cross_term_bound_window_precondition(reference_system):
    A, B, model, params = reference_system
    out = synthesize(A, B, model, params)
    with pytest.raises(FeasibilityError):
        check_cross_term_bound(out.P, params.epsilon, out.A_closed, model.matrix_at([0.5]))


def test_cross_term_bound_demo_vertices(demo_system):
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    for p in model.vertices():
        result = check_cross_term_bound(
            out.P, params.epsilon, out.A_closed, model.matrix_at(p)
        )
        assert result.holds


# ---------------------------------------------------------------------------
# loop energy bound


def test_loop_energy_bound_reference(reference_system):
    A, B, model, params = reference_system
    out = synthesize(A, B, model, params)
    result = check_loop_energy_bound(A, B, out.P, params, out.K, out.L)
    assert result.holds
    assert result.margin == pytest.approx(0.0503292, abs=1e-6)


def test_loop_energy_bound_demo(demo_system):
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    result = check_loop_energy_bound(A, B, out.P, params, out.K, out.L)
    assert result.holds


def test_loop_energy_bound_zero_dynamics(demo_system):
    """With A = 0 the gains vanish, both sides are zero, and the bound is tight."""
    from etcontrol import feedback_gain, solve_modified_dare, virtual_gain

    _, B, model, params = demo_system
    A = np.zeros((2, 2))
    P = solve_modified_dare(A, B, params, model.F)
    K = feedback_gain(A, B, P, params)
    L = virtual_gain(A, B, P, params)
    assert not K.any() and not L.any()
    result = check_loop_energy_bound(A, B, P, params, K, L)
    assert result.holds
    assert abs(result.margin) <= 1e-12


# ---------------------------------------------------------------------------
# dissipation


def _demo_trace(demo_system, trajectory, n_steps=30):
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    trace = simulate(
        A, B, model, out.K,
        TriggerPolicy.event(out.mu),
        trajectory,
        [1.0, -1.0], n_steps, out.P,
    )
    return A, B, model, params, out, trace


def test_dissipation_holds_on_demo(demo_system):
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.random(7))
    result = check_dissipation(
        trace, out.P, out.Q1, out.K, B, out.Z, params.sigma, model=model, F=model.F
    )
    assert result.holds
    assert result.margin >= -1e-8
    assert "30 steps audited" in result.note


def test_dissipation_fails_on_reference(reference_system):
    A, B, model, params = reference_system
    out = synthesize(A, B, model, params)
    trace = simulate(
        A, B, model, out.K,
        TriggerPolicy.event(0.29),
        ParamTrajectory.constant([0.8]),
        [1.0, -1.0], 20, out.P,
    )
    result = check_dissipation(
        trace, out.P, out.Q1, out.K, B, out.Z, params.sigma, model=model, F=model.F
    )
    assert not result.holds
    assert result.margin < 0.0
    assert "violated at step" in result.note


def test_dissipation_gate_skips_unsupported_steps(demo_system):
    """With a tiny F every sampled perturbation violates the weighted bound."""
    A, B, model, params, out, trace = _demo_trace(
        demo_system, ParamTrajectory.constant([0.3])
    )
    tiny_F = 1e-9 * np.eye(2)
    result = check_dissipation(
        trace, out.P, out.Q1, out.K, B, out.Z, params.sigma, model=model, F=tiny_F
    )
    assert result.holds
    assert "no eligible steps" in result.note


def test_dissipation_gate_skips_exactly_the_violating_steps(demo_system):
    """F is set so that the weighted bound F - dA' Z dA >= 0 holds only for |p| <= 0.15."""
    rows = np.where(np.arange(31) < 10, 0.3, 0.1)[:, None]
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.sequence(rows))
    E = model.basis[0]
    F = 0.15**2 * np.linalg.eigvalsh(E.T @ out.Z @ E)[-1] * np.eye(2)
    tol = 1e-8 * max(1.0, np.linalg.norm(F, 2))
    expected = sum(
        np.linalg.eigvalsh(F - (p * E).T @ out.Z @ (p * E))[0] < -tol for (p,) in trace.p[:-1]
    )
    assert expected == 10
    result = check_dissipation(
        trace, out.P, out.Q1, out.K, B, out.Z, params.sigma, model=model, F=F
    )
    assert f"{trace.n_steps - expected} steps audited, {expected} skipped" in result.note


def test_dissipation_without_gate(demo_system):
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.constant([0.0]))
    result = check_dissipation(trace, out.P, out.Q1, out.K, B, out.Z, params.sigma)
    assert result.holds
    assert "0 skipped" in result.note


# ---------------------------------------------------------------------------
# campaigns


def test_identity_campaign_clean():
    result = identity_campaign(samples=200, seed=5)
    assert result.holds
    assert "0 failures" in result.note
    assert result.margin <= 1e-10


def test_cross_term_campaign_clean():
    result = cross_term_campaign(samples=200, seed=5)
    assert result.holds
    assert "0 failures" in result.note


def test_campaigns_deterministic():
    a = identity_campaign(samples=50, seed=9)
    b = identity_campaign(samples=50, seed=9)
    assert a.margin == b.margin
    assert a.witness == b.witness
