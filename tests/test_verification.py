"""Numerical audit tests: identities, bounds, dissipation, campaigns."""

import copy
import dataclasses
import gc
import json
import pickle
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from conftest import CONFIG_DIR
from etcontrol import (
    CheckResult,
    FeasibilityError,
    NumericalError,
    ParamTrajectory,
    SingularMatrixError,
    SynthesisParams,
    TriggerPolicy,
    UncertaintyModel,
    check_cross_term_bound,
    check_dissipation,
    check_epsilon_interval,
    check_inversion_identity,
    check_loop_energy_bound,
    compare_policies,
    cross_term_campaign,
    decay_matrix,
    error_weight,
    feasibility_report,
    feedback_gain,
    identity_campaign,
    load_config,
    simulate,
    solve_modified_dare,
    synthesize,
    virtual_gain,
)
from etcontrol.cli import main
from oracles import campaign_stepwise, dissipation_stepwise, epsilon_margins, epsilon_scan
from test_synthesis import _random_design as _synthesis_design


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


def test_loop_energy_bound_fails_on_an_overflowing_slack(demo_system):
    """B x 1e160: finite inputs whose slack overflows fail, with margin -inf and tolerance inf."""
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    result = check_loop_energy_bound(A, 1e160 * B, out.P, params, out.K, out.L)
    assert (result.holds, result.margin, result.witness) == (False, -np.inf, {"tolerance": np.inf})


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
# epsilon interval


def _design_gains(A, B, model, params):
    P = solve_modified_dare(A, B, params, model.F)
    return P, feedback_gain(A, B, P, params), virtual_gain(A, B, P, params)


def _random_design(seed):
    """A random mismatched design near the demo's scales, with d = seed % 4 box axes."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 4)), seed % 4
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.1, 0.6) / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, 1))
    G = rng.normal(size=(n, n))
    model = UncertaintyModel(
        basis=tuple(rng.uniform(0.02, 0.1) * rng.normal(size=(n, n)) for _ in range(d)),
        p_lo=-rng.uniform(0.1, 0.5, size=d),
        p_hi=rng.uniform(0.1, 0.5, size=d),
        F=0.01 * np.eye(n) + 0.01 * G @ G.T / n,
    )
    params = SynthesisParams(
        Q=0.01 * np.eye(n),
        R1=[[rng.uniform(0.005, 0.05)]],
        R2=np.eye(n),
        alpha=rng.uniform(0.0, 1.5),
        beta=rng.uniform(0.1, 0.3),
        epsilon=rng.uniform(2.0, 15.0),
        sigma=0.5,
    )
    return A, B, model, params


def _inside(s, ends):
    if ends is None:
        return np.zeros(s.size, dtype=bool)
    lo, hi = ends
    return (s >= lo) & (s <= (np.inf if hi is None else hi))


def _near_end(s, ends, rtol=1e-9):
    if ends is None:
        return np.zeros(s.size, dtype=bool)
    return np.any([np.abs(s - end) <= rtol * end for end in ends if end is not None], axis=0)


def _assert_interval_matches_scan(A, B, model, params):
    """check_epsilon_interval against the dense explicit-inverse scan.

    Every scan point farther than 1e-9 relative from an end is inside a
    reported interval exactly when the scan finds the condition holding
    there, so each end lies within one scan spacing of the scan's. The
    report holds just inside the intersection, some margin is negative
    just outside it, and no scanned mu beats mu_best.
    """
    P, K, L = _design_gains(A, B, model, params)
    result = check_epsilon_interval(A, B, model, params, P, K, L)
    witness = result.witness
    s, margins, mu = epsilon_scan(A, B, model, params, P, K, L)
    for condition, margin in margins.items():
        ends = witness["intervals"][condition]
        far = ~_near_end(s, ends)
        assert np.array_equal(_inside(s, ends)[far], (margin >= 0.0)[far]), condition

    all_hold = np.all([margin >= 0.0 for margin in margins.values()], axis=0)
    lo, hi = witness["inv_eps_lo"], witness["inv_eps_hi"]
    ends = None if lo is None else (lo, hi)
    far = ~_near_end(s, ends)
    assert np.array_equal(_inside(s, ends)[far], all_hold[far])
    inv_eps = 1.0 / params.epsilon
    if ends is None:
        assert not result.holds and result.margin == -np.inf
        assert witness["epsilon_best"] is None and witness["mu_best"] is None
        return witness

    top = hi if hi is not None else 10.0 * lo
    s_best = 1.0 / witness["epsilon_best"]
    assert lo <= s_best <= top or hi is None
    for s_in in (lo * (1.0 + 1e-9), top * (1.0 - 1e-9), np.sqrt(lo * top), s_best):
        params_in = dataclasses.replace(params, epsilon=1.0 / s_in)
        Z = error_weight(P, 1.0 / s_in)
        Q1 = decay_matrix(A, B, K, L, Z, params_in)
        assert feasibility_report(A, B, model, params_in, P, K, L, Z, Q1).all_hold, s_in
    outside = [lo * (1.0 - 1e-6)] + ([hi * (1.0 + 1e-6)] if hi is not None else [])
    margins_out, _ = epsilon_margins(A, B, model, params, P, K, L, outside)
    assert np.all(np.min(list(margins_out.values()), axis=0) < 0.0)
    assert witness["mu_best"] >= np.max(mu[all_hold], initial=0.0) * (1.0 - 1e-6)
    expected_margin = min(inv_eps - lo, np.inf if hi is None else hi - inv_eps)
    assert result.margin == expected_margin
    assert result.holds == (expected_margin >= 0.0)
    return witness


def test_epsilon_interval_demo(demo_system):
    A, B, model, params = demo_system
    witness = _assert_interval_matches_scan(A, B, model, params)
    assert witness["inv_eps_lo"] == pytest.approx(0.08455, abs=1e-4)
    assert witness["inv_eps_hi"] == pytest.approx(0.43506, abs=1e-4)
    assert witness["binding_lo"] == witness["binding_hi"] == "decay_matrix_psd"
    assert witness["intervals"]["periodic_decay"][0] == pytest.approx(0.08405, abs=1e-4)
    assert witness["mu_best"] == pytest.approx(0.6624, abs=1e-4)
    assert 1.0 / witness["epsilon_best"] == pytest.approx(0.1472, abs=1e-3)


def test_epsilon_interval_holding_system(holding_system):
    A, B, model, params = holding_system
    witness = _assert_interval_matches_scan(A, B, model, params)
    assert witness["inv_eps_lo"] <= 1.0 / params.epsilon <= witness["inv_eps_hi"]


def test_epsilon_interval_reference_is_empty(reference_system):
    """No epsilon repairs the reference design: the window and the scaled bound never meet."""
    A, B, model, params = reference_system
    witness = _assert_interval_matches_scan(A, B, model, params)
    window_lo = witness["intervals"]["epsilon_window"][0]
    scaled_lo, scaled_hi = witness["intervals"]["uncertainty_bound_scaled"]
    assert window_lo == pytest.approx(38.688, abs=1e-3)
    # F - s dA' dA = (6.09 - 0.64 s) 11' at the vertex p = 0.8
    assert scaled_lo == 0.0 and scaled_hi == pytest.approx(6.09 / 0.64, rel=1e-12)
    assert window_lo > scaled_hi


def test_epsilon_interval_disjoint_conditions():
    """Two conditions that each hold on an interval, the two disjoint: no epsilon.

    With P = diag(0.01, 1), K = L = 0 and s = 1/epsilon, the decay matrix
    needs beta^2 >= s + 1 / (s - 1), which holds for s in [1.8, 2.25], and
    the weighted bound at the vertex p = 1 needs
    0.015 >= 0.01 (s + 1e-4 / (s - 0.01)), which holds up to s = 1.49993.
    Each end is where the oracle's margin changes sign.
    """
    model = UncertaintyModel(
        basis=([[0.1, 0.0], [0.0, 0.0]],), p_lo=[0.0], p_hi=[1.0], F=0.015 * np.eye(2)
    )
    params = SynthesisParams(
        Q=np.eye(2), R1=np.eye(2), R2=np.eye(2), alpha=1.0, beta=np.sqrt(3.05), epsilon=0.5,
        sigma=0.5,
    )
    design = (np.diag([0.0, 1.0]), np.eye(2), model, params, np.diag([0.01, 1.0]))
    gains = (np.zeros((2, 2)), np.zeros((2, 2)))
    result = check_epsilon_interval(*design, *gains)
    witness = result.witness
    assert (result.holds, result.margin) == (False, -np.inf)
    decay, weighted = "decay_matrix_psd", "uncertainty_bound_weighted"
    assert (witness["binding_lo"], witness["binding_hi"]) == (decay, weighted)
    assert result.note == (
        "no epsilon: decay_matrix_psd needs 1/epsilon >= 1.8, "
        "uncertainty_bound_weighted needs 1/epsilon <= 1.49993"
    )
    for key in ("inv_eps_lo", "inv_eps_hi", "epsilon_best", "mu_best"):
        assert witness[key] is None, key
    lo = witness["intervals"][decay][0]
    hi = witness["intervals"][weighted][1]
    assert lo == pytest.approx(1.8, rel=1e-12)
    assert hi == pytest.approx((1.51 + np.sqrt(1.51**2 - 4 * 0.0151)) / 2, rel=1e-12)
    around = [lo * (1.0 - 1e-9), lo * (1.0 + 1e-9), hi * (1.0 - 1e-9), hi * (1.0 + 1e-9)]
    with np.errstate(divide="ignore"):  # the oracle's mu divides by the zero error gain
        margins, _ = epsilon_margins(*design, *gains, around)
    assert margins[decay][0] < 0.0 < margins[decay][1]
    assert margins[weighted][2] > 0.0 > margins[weighted][3]


@pytest.mark.parametrize("seed", range(24))
def test_epsilon_interval_random_designs(seed):
    A, B, model, params = _random_design(seed)
    _assert_interval_matches_scan(A, B, model, params)


def test_epsilon_interval_random_designs_cover_both_outcomes():
    """The random designs above include nonempty and empty intersections at every d."""
    found = set()
    for seed in range(24):
        A, B, model, params = _random_design(seed)
        P, K, L = _design_gains(A, B, model, params)
        witness = check_epsilon_interval(A, B, model, params, P, K, L).witness
        found.add((model.dimension, witness["inv_eps_lo"] is None))
    assert len({d for d, _ in found}) == 4
    assert {empty for _, empty in found} == {True, False}


def test_epsilon_interval_validates_design(demo_system):
    A, B, model, params = demo_system
    P, K, L = _design_gains(A, B, model, params)
    with pytest.raises(ValueError, match=r"K has shape \(2, 2\), expected \(1, 2\)"):
        check_epsilon_interval(A, B, model, params, P, np.vstack([K, K]), L)
    with pytest.raises(ValueError, match="P must be positive definite"):
        check_epsilon_interval(A, B, model, params, -P, K, L)


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


def test_dissipation_gate_keeps_the_sandwich_bound(demo_system):
    """The gate skips the raw and rate bounds only: V(5) = -1 breaks the sandwich."""
    A, B, model, params, out, trace = _demo_trace(
        demo_system, ParamTrajectory.constant([0.3])
    )
    V = trace.V.copy()
    V[5] = -1.0
    result = check_dissipation(
        dataclasses.replace(trace, V=V), out.P, out.Q1, out.K, B, out.Z, params.sigma,
        model=model, F=1e-9 * np.eye(2),
    )
    assert not result.holds
    assert result.note == "violated at step 5 (0 steps audited, 6 skipped)"
    assert result.witness["step"] == 5 and result.witness["bound"] == "sandwich"
    assert result.margin <= -1.0


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


# The audited runs: fixture, parameter path and threshold (None: the
# design's own mu). The reference run violates its bounds at step 0.
_AUDITED_RUNS = {
    "demo": ("demo_system", ParamTrajectory.random(7), None),
    "reference": ("reference_system", ParamTrajectory.constant([0.8]), 0.29),
    "holding": ("holding_system", ParamTrajectory.random(3), None),
}


def _audited_run(request, run):
    """The event trace of one audited run and check_dissipation's arguments."""
    fixture, trajectory, mu = _AUDITED_RUNS[run]
    A, B, model, params = request.getfixturevalue(fixture)
    out = synthesize(A, B, model, params)
    trace = simulate(
        A, B, model, out.K,
        TriggerPolicy.event(out.mu if mu is None else mu),
        trajectory, [1.0, -1.0], 30, out.P,
    )
    return trace, [out.P, out.Q1, out.K, B, out.Z, params.sigma], model


def _break_bound(trace, args, bound, where):
    """A copy of trace whose V breaks one bound at one step, and that step.

    raw and rate raise V(k+1) just past the bound's right-hand side (a
    broken rate bound breaks the tighter raw bound too); sandwich lowers
    V(k) just under lambda_min(P) ||x(k)||^2. "terminal" is row n_steps,
    which only the sandwich bound audits.
    """
    P, Q1, K, B, Z, sigma = args
    n = trace.n_steps
    k = {"first": 0, "middle": n // 2, "last": n - 1, "terminal": n}[where]
    x, e, V = trace.states[k], trace.errors[k], trace.V.copy()
    push = 1e-3 * (1.0 + abs(V[k]))
    if bound == "raw":
        V[k + 1] = V[k] - x @ Q1 @ x + e @ (K.T @ B.T @ Z @ B @ K) @ e + push
    elif bound == "rate":
        V[k + 1] = V[k] - (1.0 - sigma) * np.linalg.eigvalsh(Q1)[0] * (x @ x) + push
    else:
        V[k] = np.linalg.eigvalsh(P)[0] * (x @ x) - push
    return dataclasses.replace(trace, V=V), k


_DISSIPATION_CASES = [
    (run, gate, None) for run in _AUDITED_RUNS for gate in ("gate", "stepwise gate", "all gated")
] + [
    ("demo", "gate", "Q1 indefinite"),
    ("holding", "stepwise gate", "Q1 indefinite"),
] + [
    ("demo", "gate", (bound, where))
    for bound in ("raw", "rate", "sandwich")
    for where in ("first", "middle", "last")
] + [
    (run, gate, ("sandwich", "terminal"))
    for run in ("demo", "holding")
    for gate in ("gate", "stepwise gate")
]


@pytest.mark.parametrize("run, gate, edit", _DISSIPATION_CASES)
def test_dissipation_matches_stepwise_oracle(request, run, gate, edit):
    """The array audit agrees with the per-step loop on verdict, note and witness."""
    trace, args, model = _audited_run(request, run)
    # A box at the origin leaves every row outside it, so the vertices
    # certify nothing and each step's gate matrix is formed. F = -1000 I
    # fails the gate's test F - dA' Z dA >= 0 at every step of every run,
    # the reference's too, whose Z is negative definite.
    origin = np.zeros(model.dimension)
    point_box = dataclasses.replace(model, p_lo=origin, p_hi=origin)
    kwargs = {
        "gate": {"model": model, "F": model.F},
        "stepwise gate": {"model": point_box, "F": model.F},
        "all gated": {"model": model, "F": -1e3 * np.eye(2)},
    }[gate]
    step = None
    if edit == "Q1 indefinite":
        Q1 = args[1]
        args[1] = Q1 - 2.0 * np.linalg.eigvalsh(Q1)[-1] * np.eye(2)
    elif edit is not None:
        trace, step = _break_bound(trace, args, *edit)
    result = check_dissipation(trace, *args, **kwargs)
    expected = dissipation_stepwise(trace, *args, **kwargs)
    assert (result.holds, result.note, result.witness) == (
        expected.holds, expected.note, expected.witness
    )
    assert result.margin == pytest.approx(expected.margin, rel=1e-12, abs=0.0)
    if gate == "all gated":
        assert result.holds and "no eligible steps" in result.note
    elif gate == "stepwise gate":
        assert result == check_dissipation(trace, *args, model=model, F=model.F)
    elif run == "reference":
        assert result.note.startswith("violated at step 0 (")
    if step is not None:
        assert result.note.startswith(f"violated at step {step} (")
        assert result.witness["step"] == step and result.margin < 0.0


@pytest.mark.parametrize("run", ["demo", "holding"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_dissipation_gated_sandwich_matches_stepwise_oracle(request, run, where):
    """Every step gated, one sandwich broken: the audit and the loop fail alike."""
    trace, args, model = _audited_run(request, run)
    trace, step = _break_bound(trace, args, "sandwich", where)
    kwargs = {"model": model, "F": -1e3 * np.eye(2)}
    result = check_dissipation(trace, *args, **kwargs)
    expected = dissipation_stepwise(trace, *args, **kwargs)
    assert (result.holds, result.note, result.witness) == (
        expected.holds, expected.note, expected.witness
    )
    assert result.margin == pytest.approx(expected.margin, rel=1e-12, abs=0.0)
    assert result.note == f"violated at step {step} (0 steps audited, {step + 1} skipped)"
    assert result.witness["step"] == step and result.witness["bound"] == "sandwich"


def _gate_case(demo_system, case):
    """A demo event trace and the model, F and Z of one gate case.

    "certified": the demo's own gate, which every vertex passes. "vertex
    breaks": F admits only |p| <= 0.15 of the box [-0.3, 0.3], and the path
    spends ten steps at 0.3. "vertex near the tolerance": F puts the
    vertices' smallest gate eigenvalue at -0.75 times the gate tolerance,
    inside it but beyond the half that certifies. "row below" and "row
    above": F admits |p| <= 0.35, every vertex of the audited box
    [-0.3, 0.3] passes, and the run draws p from [-1, 0.3] or [-0.3, 1].
    "Z indefinite": on a d = 2 box,
    dA = [[p1, 0], [p2, 0]] and Z = diag(1, -1) make the gate slack
    diag(0.5 - p1^2 + p2^2, 0.5), which fails on the edge p = (1, 0), where
    a periodic run spends every third step, but at no vertex.
    """
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    E, Z = model.basis[0], out.Z
    F, run_model = model.F, model
    rows = np.where(np.arange(31) < 10, 0.3, 0.1)[:, None]
    trajectory, policy = ParamTrajectory.random(7), TriggerPolicy.event(out.mu)
    if case == "vertex breaks":
        F = 0.15**2 * np.linalg.eigvalsh(E.T @ Z @ E)[-1] * np.eye(2)
        trajectory = ParamTrajectory.sequence(rows)
    elif case == "vertex near the tolerance":
        F = (0.3**2 * np.linalg.eigvalsh(E.T @ Z @ E)[-1] - 0.75e-8) * np.eye(2)
        trajectory = ParamTrajectory.sequence(rows)
    elif case in ("row below", "row above"):
        F = 0.35**2 * np.linalg.eigvalsh(E.T @ Z @ E)[-1] * np.eye(2)
        wide = {"row below": {"p_lo": [-1.0]}, "row above": {"p_hi": [1.0]}}[case]
        run_model = dataclasses.replace(model, **wide)
    elif case == "Z indefinite":
        run_model = model = UncertaintyModel(
            basis=([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),
            p_lo=[-1.0, -1.0], p_hi=[1.0, 1.0], F=0.5 * np.eye(2),
        )
        F, Z = model.F, np.diag([1.0, -1.0])
        path = np.tile([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], (11, 1))[:31]
        trajectory, policy = ParamTrajectory.sequence(path), TriggerPolicy.periodic()
    trace = simulate(A, B, run_model, out.K, policy, trajectory, [1.0, -1.0], 30, out.P)
    return trace, [out.P, out.Q1, out.K, B, Z, params.sigma], {"model": model, "F": F}


@pytest.mark.parametrize(
    "case, skipped",
    [
        ("certified", 0),
        ("vertex breaks", 10),
        ("vertex near the tolerance", 0),
        ("row below", None),
        ("row above", None),
        ("Z indefinite", 10),
    ],
)
def test_dissipation_gate_certified_at_vertices(demo_system, monkeypatch, case, skipped):
    """The vertices decide the gate or the audit gates step by step, as the per-step loop does.

    Only a certified gate skips forming the steps' dA; every case agrees
    with the loop on verdict, note, witness and margin. The model's vertex
    stack is formed once, with the design terms of the first audit of a
    fresh model, whatever its trace, and a second audit reuses them.
    """
    trace, args, kwargs = _gate_case(demo_system, case)
    # A fresh copy: synthesize formed the demo model's vertex stack already.
    kwargs["model"] = dataclasses.replace(kwargs["model"])
    n, d = trace.n_steps, kwargs["model"].dimension
    if case.startswith("row"):
        assert (np.abs(trace.p[:n, 0]) > 0.35).any()
    shapes = []
    matrix_at = UncertaintyModel.matrix_at

    def counting(self, p):
        shapes.append(np.shape(p))
        return matrix_at(self, p)

    monkeypatch.setattr(UncertaintyModel, "matrix_at", counting)
    result = check_dissipation(trace, *args, **kwargs)
    # The vertex certificate is a design term: a trace outside the box is
    # gated step by step, but the first audit forms the vertex stack all the same.
    vertices = [(2**d, d)]
    steps = [] if case == "certified" else [(n, d)]
    assert shapes == vertices + steps
    assert check_dissipation(trace, *args, **kwargs) == result
    assert shapes == vertices + steps + steps
    monkeypatch.undo()
    expected = dissipation_stepwise(trace, *args, **kwargs)
    assert (result.holds, result.note, result.witness) == (
        expected.holds, expected.note, expected.witness
    )
    assert result.margin == pytest.approx(expected.margin, rel=1e-12, abs=0.0)
    if skipped is not None:
        assert f"{n - skipped} steps audited, {skipped} skipped" in result.note
    else:
        assert " 0 skipped" not in result.note


@pytest.mark.parametrize("p", [0.3, 0.5], ids=["inside the box", "outside the box"])
def test_dissipation_gate_slacks_that_are_not_finite(p):
    """An overflowing basis makes the gate slacks F - dA' Z dA not finite; the audit still reports.

    They stay out of eigvalsh, which fails on them ("Eigenvalues did not
    converge"). At p = 0.3 the trace lies in the box [-0.3, 0.3]: the vertex
    slacks certify nothing and every step's slack is formed; at p = 0.5 it
    lies outside and only the steps' slacks are formed. A step whose slack
    is not finite is not gated, so its raw bound, which overflowed, fails.
    """
    A, B, model, params = _synthesis_design(0, 1, 0.8)
    out = synthesize(A, B, model, params)
    E = np.zeros((3, 3))
    E[0, 0] = E[0, 1] = E[1, 0] = 1e300
    E[1, 1] = -1e300
    huge = UncertaintyModel(basis=(E,), p_lo=[-0.3], p_hi=[0.3], F=model.F)
    run_model = dataclasses.replace(huge, p_lo=[-1.0], p_hi=[1.0])
    args = (out.P, out.Q1, out.K, B, out.Z, params.sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = simulate(
            A, B, run_model, out.K, TriggerPolicy.event(out.mu), ParamTrajectory.constant([p]),
            np.ones(3), 10, out.P,
        )
        assert trace.diverged and trace.n_steps == 1
        assert not np.isfinite(model.F - huge.vertex_stack[0].T @ out.Z @ huge.vertex_stack[0]).all()
        result = check_dissipation(trace, *args, model=huge, F=huge.F)
    assert isinstance(result, CheckResult)
    assert (result.holds, result.margin) == (False, -np.inf)
    assert result.note == "violated at step 0 (1 steps audited, 0 skipped)"
    assert result.witness == {"step": 0, "bound": "raw", "dV": np.inf}


def test_dissipation_fails_on_an_overflowing_error_gain(demo_system):
    """K x 10 and Z = 1e308 I: K' B' Z B K overflows, its norm counts as 0 (no rate bound
    applies) and the raw bound fails at step 0 instead of raising. At p = 0 the gate
    slack is F, so the gate keeps every step."""
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.constant([0.0]))
    result = check_dissipation(
        trace, out.P, out.Q1, 10.0 * out.K, B, 1e308 * np.eye(2), params.sigma,
        model=model, F=model.F,
    )
    assert (result.holds, result.margin) == (False, -np.inf)
    assert result.note == "violated at step 0 (1 steps audited, 0 skipped)"
    assert (result.witness["step"], result.witness["bound"]) == (0, "raw")


@pytest.mark.parametrize("d", [0, 2])
def test_dissipation_rejects_trace_of_another_parameter_width(demo_system, d):
    """A gated audit needs one trace.p column per parameter, even where the box would broadcast."""
    trace, args, kwargs = _gate_case(demo_system, "certified")
    demo_model = kwargs["model"]
    model = UncertaintyModel(
        basis=demo_model.basis * d, p_lo=[-0.3] * d, p_hi=[0.3] * d, F=demo_model.F
    )
    assert trace.p.shape == (31, 1)
    with pytest.raises(ValueError, match=r"p has shape \(\d+, 1\), expected"):
        check_dissipation(trace, *args, model=model, F=kwargs["F"])


@pytest.mark.parametrize("skipped", [0, 30], ids=["gate", "all gated"])
def test_dissipation_audits_terminal_row(demo_system, skipped):
    """A terminal V of -1 breaks the sandwich at row n_steps, which takes no step and
    which the gate never skips; F = -1000 I gates every step."""
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.random(7))
    V = trace.V.copy()
    V[-1] = -1.0
    F = -1e3 * np.eye(2) if skipped else model.F
    result = check_dissipation(
        dataclasses.replace(trace, V=V), out.P, out.Q1, out.K, B, out.Z, params.sigma,
        model=model, F=F,
    )
    assert not result.holds
    assert result.note == f"violated at step 30 ({30 - skipped} steps audited, {skipped} skipped)"
    assert result.witness == {"step": 30, "bound": "sandwich"}
    assert result.margin <= -1.0


def test_dissipation_non_finite_slack_is_minus_inf(demo_system):
    """An overflowing run fails the audit with margin -inf at the step it breaks.

    The second row is [inf, -inf], so V there is NaN and so are the raw and
    rate slacks of step 0; the sandwich slack of step 0 stays finite and
    positive and must not become the margin.
    """
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    K = np.zeros((1, 2))
    trace = simulate(
        np.diag([1e300, -1e300]), B, model, K,
        TriggerPolicy.event(out.mu), ParamTrajectory.random(7), [1e10, 1e10], 30, out.P,
    )
    assert trace.diverged and np.isnan(trace.V[-1])
    assert np.array_equal(trace.states[-1], [np.inf, -np.inf])
    result = check_dissipation(
        trace, out.P, out.Q1, K, B, out.Z, params.sigma, model=model, F=model.F
    )
    assert not result.holds
    assert result.margin == -np.inf
    assert result.witness["step"] == 0 and result.witness["bound"] == "raw"
    assert np.isnan(result.witness["dV"])
    assert result.note == "violated at step 0 (1 steps audited, 0 skipped)"


def test_overflowing_basis_gives_verdicts_without_warning():
    """The demo with basis diag(1e300, -1e300): dA' dA overflows at both vertices.

    The runs diverge and the audits fail, and none of the four lets numpy
    warn (tier 1 turns a RuntimeWarning into an error).
    """
    config = load_config(CONFIG_DIR / "feasible_demo.json")
    A, B, params, sim = config.A, config.B, config.params, config.simulation
    model = dataclasses.replace(config.model, basis=(np.diag([1e300, -1e300]),))
    out = synthesize(A, B, model, params)
    run = (sim.trajectory, sim.x0, sim.n_steps, out.P)
    trace = simulate(A, B, model, out.K, TriggerPolicy.event(out.mu), *run)
    comparison = compare_policies(A, B, model, out.K, out.mu, *run)
    assert trace.diverged and comparison.periodic.diverged and comparison.event.diverged
    dissipation = check_dissipation(
        trace, out.P, out.Q1, out.K, B, out.Z, params.sigma, model=model, F=model.F
    )
    interval = check_epsilon_interval(A, B, model, params, out.P, out.K, out.L)
    assert not dissipation.holds and not interval.holds
    assert interval.margin == -np.inf


def test_epsilon_interval_keeps_overflowing_slacks_out_of_eigvalsh():
    """A 3-state design whose basis overflows dA' dA: the check fails, it does not raise.

    The scaled and weighted bound matrices are not finite at every 1/epsilon;
    they stay out of LAPACK, which fails on them ("Eigenvalues did not
    converge"), get margin NaN and hold nowhere. numpy does not warn.
    """
    A, B, model, params = _synthesis_design(0, 1, 0.8)
    E = np.zeros((3, 3))
    E[0, 0] = E[0, 1] = E[1, 0] = 1e300
    E[1, 1] = -1e300
    huge = dataclasses.replace(model, basis=(E,))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = synthesize(A, B, huge, params)
        result = check_epsilon_interval(A, B, huge, params, out.P, out.K, out.L)
    assert (result.holds, result.margin) == (False, -np.inf)
    intervals = result.witness["intervals"]
    assert intervals["uncertainty_bound_scaled"] is None
    assert intervals["uncertainty_bound_weighted"] is None
    assert result.note == (
        "no epsilon: uncertainty_bound_scaled, uncertainty_bound_weighted "
        "hold for no 1/epsilon in the window"
    )


# ---------------------------------------------------------------------------
# the design terms check_dissipation keeps on the model

_SLOT = "_dissipation_terms"


def _kept(model):
    """The (key, terms) of the last design audited on model, or None.

    The slot lives on the model, and every test builds its own models, so
    each starts with nothing kept.
    """
    return model.__dict__.get(_SLOT)


def _cleared_audit(trace, *args, model, **kwargs):
    """check_dissipation with nothing kept on model: every design term is formed afresh."""
    model.__dict__.pop(_SLOT, None)
    return check_dissipation(trace, *args, model=model, **kwargs)


@pytest.mark.parametrize("run, gate, edit", _DISSIPATION_CASES)
def test_dissipation_memo_hit_matches_stepwise_oracle(request, run, gate, edit):
    """Two audits in a row, the second from the kept terms, both agree with the per-step loop."""
    trace, args, model = _audited_run(request, run)
    origin = np.zeros(model.dimension)
    kwargs = {
        "gate": {"model": model, "F": model.F},
        "stepwise gate": {
            "model": dataclasses.replace(model, p_lo=origin, p_hi=origin), "F": model.F
        },
        "all gated": {"model": model, "F": -1e3 * np.eye(2)},
    }[gate]
    if edit == "Q1 indefinite":
        args[1] = args[1] - 2.0 * np.linalg.eigvalsh(args[1])[-1] * np.eye(2)
    elif edit is not None:
        trace, _ = _break_bound(trace, args, *edit)
    expected = dissipation_stepwise(trace, *args, **kwargs)
    assert _kept(kwargs["model"]) is None
    first = check_dissipation(trace, *args, **kwargs)
    kept = _kept(kwargs["model"])
    second = check_dissipation(trace, *args, **kwargs)
    assert kept is not None and _kept(kwargs["model"]) is kept
    for result in (first, second):
        assert (result.holds, result.note, result.witness) == (
            expected.holds, expected.note, expected.witness
        )
        assert result.margin == pytest.approx(expected.margin, rel=1e-12, abs=0.0)
    assert first == second


@pytest.mark.parametrize("name", ["P", "Z"])
def test_dissipation_memo_sees_an_edit_in_place(demo_system, name):
    """An array edited in place between two audits is a new design, not a hit.

    P x 2 moves the sandwich bounds; Z x 1e6 breaks the gate, so steps are
    skipped. The model keeps read-only copies of its own, so the edit
    reaches neither the kept terms nor the next audit of the old content.
    """
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.random(7))
    arrays = {"P": out.P.copy(), "Z": out.Z.copy()}
    args = [arrays["P"], out.Q1, out.K, B, arrays["Z"], params.sigma]
    kwargs = {"model": model, "F": model.F}
    before = check_dissipation(trace, *args, **kwargs)
    _, terms = _kept(model)
    kept = [terms.Q1, terms.Z, terms.F, terms.error_gain]
    assert not any(a.flags.writeable for a in kept)
    assert not any(np.shares_memory(a, b) for a in kept for b in arrays.values())
    original = arrays[name].copy()
    arrays[name] *= {"P": 2.0, "Z": 1e6}[name]
    after = check_dissipation(trace, *args, **kwargs)
    assert _kept(model)[1] is not terms
    assert after != before
    assert after == _cleared_audit(trace, *args, **kwargs)
    arrays[name][...] = original
    assert check_dissipation(trace, *args, **kwargs) == before


def test_dissipation_memo_keeps_equal_models_apart(demo_system):
    """Two models built separately with equal content keep terms each, each audited right."""
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.random(7))
    args = (out.P, out.Q1, out.K, B, out.Z, params.sigma)
    twins = [
        UncertaintyModel(basis=model.basis, p_lo=model.p_lo, p_hi=model.p_hi, F=model.F)
        for _ in range(2)
    ]
    results = [check_dissipation(trace, *args, model=m, F=model.F) for m in twins]
    first, second = (_kept(m) for m in twins)
    assert first[0] == second[0] and first[1] is not second[1]
    expected = dissipation_stepwise(trace, *args, model=model, F=model.F)
    for m, result in zip(twins, results):
        assert result == check_dissipation(trace, *args, model=m, F=model.F)
        assert result == _cleared_audit(trace, *args, model=m, F=model.F)
        assert (result.holds, result.note, result.witness) == (
            expected.holds, expected.note, expected.witness
        )


def test_dissipation_memo_keeps_the_last_design(demo_system):
    """A second design audited on one model replaces the first; a copy keeps none.

    Each sigma is a design of its own. Equality, repr, pickle, copy and
    dataclasses.replace read the model's fields only, so none of them sees
    the kept terms.
    """
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.random(7))
    text = repr(model)

    def audit(sigma):
        return check_dissipation(
            trace, out.P, out.Q1, out.K, B, out.Z, sigma, model=model, F=model.F
        )

    first = audit(0.2)
    (sigma, *_), terms = _kept(model)
    assert sigma == 0.2
    audit(0.7)
    (sigma, *_), replaced = _kept(model)
    assert sigma == 0.7 and replaced.mu_derived != terms.mu_derived
    assert audit(0.2) == first and _kept(model)[1] is not terms
    assert repr(model) == text
    for other in (
        copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model)),
        dataclasses.replace(model),
    ):
        assert _kept(other) is None and repr(other) == text


def test_dissipation_memo_goes_away_with_the_model(demo_system):
    """A model dropped after an audit is freed by reference counting alone.

    The kept terms hold no reference to their model, so the slot makes no
    cycle, and the model needs no garbage collection to go.
    """
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.random(7))
    twin = UncertaintyModel(basis=model.basis, p_lo=model.p_lo, p_hi=model.p_hi, F=model.F)
    result = check_dissipation(
        trace, out.P, out.Q1, out.K, B, out.Z, params.sigma, model=twin, F=model.F
    )
    assert result.holds and _kept(twin) is not None
    ref = weakref.ref(twin)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del twin
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _race(audit, sigmas, expected):
    """Eight threads audit the sigmas in turns, switching every microsecond.

    audit(thread, sigma) is one audit; every result must equal expected's,
    formed with nothing kept, and no thread may raise.
    """
    errors = []

    def work(thread):
        try:
            for i in range(400):
                sigma = sigmas[(7 * i + thread) % sigmas.size]
                if audit(thread, sigma) != expected[sigma]:
                    errors.append(f"thread {thread}, sigma {sigma}: another result")
        except Exception as error:  # collected, so the assertion below shows it
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def _expected_audits(demo_system, sigmas):
    """The demo's trace and arguments, and each sigma's audit formed with nothing kept."""
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.random(7))
    args = (trace, out.P, out.Q1, out.K, B, out.Z)
    expected = {s: _cleared_audit(*args, s, model=model, F=model.F) for s in sigmas}
    return model, args, expected


def test_dissipation_memo_under_threads(demo_system):
    """Eight threads audit 24 designs on one model, switching often.

    Nearly every audit replaces the one slot another thread has just
    filled; each must still get the terms of its own design.
    """
    sigmas = np.linspace(0.1, 0.9, 24)
    model, args, expected = _expected_audits(demo_system, sigmas)
    _race(
        lambda thread, sigma: check_dissipation(*args, sigma, model=model, F=model.F),
        sigmas,
        expected,
    )


def test_dissipation_memo_under_threads_with_a_model_each(demo_system):
    """Eight threads audit 24 designs, each thread on a model of its own."""
    sigmas = np.linspace(0.1, 0.9, 24)
    model, args, expected = _expected_audits(demo_system, sigmas)
    models = [dataclasses.replace(model) for _ in range(8)]
    _race(
        lambda thread, sigma: check_dissipation(*args, sigma, model=models[thread], F=model.F),
        sigmas,
        expected,
    )


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("P", np.full((2, 2), np.nan), "P contains non-finite entries"),
        ("K", np.ones((2, 2)), "K has shape (2, 2), expected (1, 2), m from B"),
        ("Z", [[1.0, 0.0], [0.0]], None),
        ("F", np.eye(2, dtype=complex), None),
    ],
    ids=["NaN P", "misshaped K", "ragged Z", "complex F"],
)
def test_dissipation_memo_keeps_no_failed_design(demo_system, name, value, message):
    """An input that fails the contract raises the same message on every call and is not kept.

    A ragged or complex array cannot be keyed and goes straight to the
    contract, which raises for it (message None: taken from a first call
    with nothing kept).
    """
    A, B, model, params, out, trace = _demo_trace(demo_system, ParamTrajectory.random(7))
    v = {"P": out.P, "Q1": out.Q1, "K": out.K, "B": B, "Z": out.Z, "F": model.F}
    v[name] = value
    errors = []
    for _ in range(2):
        with pytest.raises(Exception) as info:
            check_dissipation(
                trace, v["P"], v["Q1"], v["K"], v["B"], v["Z"], params.sigma, model=model, F=v["F"]
            )
        errors.append((type(info.value), str(info.value)))
        assert _kept(model) is None
    assert errors[0] == errors[1]
    if message is not None:
        assert errors[0] == (ValueError, message)


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


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["identity", "cross_term"])
def test_campaigns_match_stepwise_oracle(kind, seed):
    """The campaigns keep the per-sample loop's draws, margins, witness and counts."""
    campaign = identity_campaign if kind == "identity" else cross_term_campaign
    for samples in (0, 1, 7, 200, 1000):
        for max_dim in (1, 5, 8):
            expected = campaign_stepwise(kind, samples, seed, max_dim)
            assert campaign(samples=samples, seed=seed, max_dim=max_dim) == expected


def test_empty_campaigns():
    empty = identity_campaign(samples=0)
    assert (empty.holds, empty.margin, empty.witness) == (True, 0.0, {})
    empty = cross_term_campaign(samples=0)
    assert (empty.holds, empty.margin, empty.witness) == (True, np.inf, {})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"samples": -1}, {"samples": 2.5}, {"samples": "10"}, {"samples": True},
        {"max_dim": 0}, {"max_dim": 2.5}, {"max_dim": True},
    ],
    ids=[
        "negative-samples", "fractional-samples", "string-samples", "bool-samples",
        "zero-dim", "fractional-dim", "bool-dim",
    ],
)
@pytest.mark.parametrize("campaign", [identity_campaign, cross_term_campaign])
def test_campaigns_reject_bad_sizes(campaign, kwargs):
    with pytest.raises(ValueError, match="samples|max_dim"):
        campaign(**kwargs)


# ---------------------------------------------------------------------------
# the lemma checks' exceptions


def test_single_checks_keep_their_exceptions():
    """Each lemma check raises for its contract, its epsilon, P, the design window and a gap
    that overflows (NumericalError)."""
    loop = np.array([[0.1, 0.3], [0.0, 0.2]])
    for check in (
        check_inversion_identity,
        lambda P, eps: check_cross_term_bound(P, eps, loop, 0.1 * loop),
    ):
        with pytest.raises(ValueError, match="P is not symmetric"):
            check([[1.0, 0.5], [0.0, 1.0]], 0.1)
        with pytest.raises(ValueError, match="P must be 2-D"):
            check([1.0, 2.0], 0.1)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            check(np.eye(2), 0.0)
    with pytest.raises(ValueError, match="P must be positive definite"):
        check_inversion_identity(np.diag([1.0, -1.0]), 0.1)
    with pytest.raises(SingularMatrixError, match="inner window gap is singular"):
        check_inversion_identity(np.diag([1.0, 2.0]), 0.5)
    with pytest.raises(FeasibilityError) as excinfo:
        check_cross_term_bound(np.diag([1.0, 2.0]), 1.0, loop, 0.1 * loop)
    assert excinfo.value.condition == "epsilon_window"
    # A P near the float maximum overflows the design window gap, and a large
    # epsilon P the inner gap.
    with pytest.raises(NumericalError, match="^design window gap contains non-finite entries$"):
        check_cross_term_bound(np.diag([-1e308, 1.0]), 1e-308, loop, 0.1 * loop)
    with pytest.raises(NumericalError, match="^inner window gap contains non-finite entries$"):
        check_inversion_identity(1e10 * np.eye(2), 1e300)


def test_checks_reject_misfit_arguments(demo_system):
    """The single checks refuse, by name, what their kernels would trust; the 2-state demo."""
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    P, loop = out.P, out.A_closed
    asymmetric = [[1.0, 0.5], [0.0, 2.0]]
    not_finite = np.array([[0.1, np.nan], [0.0, 0.2]])

    def cross_term(P=P, epsilon=params.epsilon, A_closed=loop, dA=0.1 * loop):
        return check_cross_term_bound(P, epsilon, A_closed, dA)

    for check in (check_inversion_identity, lambda P, epsilon: cross_term(P, epsilon)):
        with pytest.raises(ValueError, match=r"^P is not symmetric \(defect 5\.000e-01\)$"):
            check(asymmetric, 0.1)
        with pytest.raises(ValueError, match=r"^P must be square, got shape \(2, 3\)$"):
            check(np.ones((2, 3)), 0.1)
        with pytest.raises(ValueError, match="^P must be 2-D"):
            check(np.repeat(P[None], 4, axis=0), 0.1)
        for bad_eps in (-0.1, 0.0, np.nan):
            with pytest.raises(ValueError, match="^epsilon must be positive$"):
                check(P, bad_eps)
    for name in ("A_closed", "dA"):
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            cross_term(**{name: not_finite})
        # Its own shape, not a stack's, and the array that fixed n.
        with pytest.raises(
            ValueError, match=rf"^{name} has shape \(3, 3\), expected \(2, 2\), n from P$"
        ):
            cross_term(**{name: np.zeros((3, 3))})
        with pytest.raises(ValueError, match=f"^{name} must be 2-D"):
            cross_term(**{name: np.repeat(loop[None], 4, axis=0)})


def test_cross_term_margins_non_finite_slack_fails():
    """An instance whose products overflow fails with margin -inf; a finite one keeps its bits."""
    P = 0.5 * np.eye(2)
    loop = np.array([[0.2, 0.1], [0.0, 0.3]])
    result = check_cross_term_bound(P, 0.5, loop, np.diag([1e300, -1e300]))
    assert (result.margin, result.witness["tolerance"], result.holds) == (-np.inf, np.inf, False)
    result = check_cross_term_bound(P, 0.5, loop, 0.1 * np.eye(2))
    assert (result.margin, result.witness["tolerance"], result.holds) == (
        -2.168404344971009e-18, 1e-08, True
    )


# ---------------------------------------------------------------------------
# the loop energy bound is not implied by the design conditions


def _loop_energy_counterexample():
    """A round-number design with the demo's simulation block."""
    data = json.loads((CONFIG_DIR / "feasible_demo.json").read_text(encoding="utf-8"))
    data["system"] = {"A": [[0.0, 0.1], [-0.1, -0.3]], "B": [[0.0], [1.0]]}
    data["uncertainty"] = {
        "basis": [[[-0.05, 0.0], [0.07, -0.02]]],
        "p_lo": [-1.0],
        "p_hi": [1.0],
        "F": (0.1 * np.eye(2)).tolist(),
    }
    data["design"] = {
        "Q": (0.31 * np.eye(2)).tolist(),
        "R1": [[0.29]],
        "R2": np.eye(2).tolist(),
        "alpha": 0.3,
        "beta": 0.2,
        "epsilon": 0.6,
        "sigma": 0.5,
    }
    return data


def test_loop_energy_bound_fails_where_every_certificate_holds(tmp_path):
    """Every report condition, the epsilon interval and the dissipation audit
    hold, yet the loop energy bound fails: the report does not imply it."""
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(_loop_energy_counterexample()), encoding="utf-8")
    config = load_config(path)
    A, B, model, params, run = config.A, config.B, config.model, config.params, config.simulation
    out = synthesize(A, B, model, params)
    assert out.report.all_hold
    assert check_epsilon_interval(A, B, model, params, out.P, out.K, out.L).holds
    trace = simulate(
        A, B, model, out.K, TriggerPolicy.event(out.mu), run.trajectory, run.x0, run.n_steps, out.P
    )
    audit = check_dissipation(
        trace, out.P, out.Q1, out.K, B, out.Z, params.sigma, model=model, F=model.F
    )
    assert audit.holds and audit.note == "30 steps audited, 0 skipped"
    energy = check_loop_energy_bound(A, B, out.P, params, out.K, out.L)
    assert not energy.holds
    assert energy.margin == pytest.approx(-0.0184299, rel=1e-6)

    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
    payload = json.loads((tmp_path / "out" / "verification.json").read_text(encoding="utf-8"))
    assert [c["name"] for c in payload["checks"] if not c["holds"]] == ["loop_energy_bound"]
