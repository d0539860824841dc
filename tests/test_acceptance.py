"""Acceptance gate: one pass or fail line per criterion.

Each test prints a single bracketed status line before asserting, so the
suite output doubles as the acceptance checklist. Criteria 02 and 07 check
what the method promises rather than the published figures of the
benchmark configuration, whose inputs break the design window
(1/epsilon) I - P > 0 for every Riccati solution: the modified equation
gives P >= Q + F + beta^2 I, so lambda_max(P) >= 38.18 > 1/epsilon = 10.
Criterion 02 checks that the benchmark's trigger coefficient is the
documented formula, recomputed by an explicit-inverse oracle, and that the
report flags the window and the error weight as failed. Criterion 07 audits
the per-step dissipation bound on a design whose report is clean, triggered
at that design's derived coefficient.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import oracles
from conftest import CONFIG_DIR
from etcontrol import (
    ParamTrajectory,
    SynthesisParams,
    TriggerPolicy,
    UncertaintyModel,
    feedback_gain,
    simulate,
    solve_modified_dare,
    synthesize,
    synthesize_matched,
)
from etcontrol.cli import main
from etcontrol.synthesis import (
    COND_EPS_WINDOW,
    COND_UNC_SCALED,
    COND_WEIGHT_PD,
    FAILS,
    HOLDS,
    MARGINAL,
)
from etcontrol.verification import cross_term_campaign, identity_campaign

# Canonical trigger coefficient for the benchmark fixture, frozen at first
# derivation. Criterion 2 pins it; the paper's published threshold (about
# 0.29, bracket [0.26, 0.32]) cannot be reproduced from the benchmark's
# inputs, because they break the design window the derivation assumes.
CANONICAL_MU = 0.07484563239353818

REFERENCE_CONFIG = CONFIG_DIR / "reference_example.json"
DEMO_CONFIG = CONFIG_DIR / "feasible_demo.json"


def _report(capsys, number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number:02d}] {status} {detail}")


def test_criterion_01_gain_reproduction(reference_system, capsys):
    A, B, model, params = reference_system
    start = time.perf_counter()
    outcome = synthesize(A, B, model, params)
    elapsed = time.perf_counter() - start
    K_expected = np.array([[-0.9687, -0.0001]])
    L_expected = np.array([[-0.0006, -0.1], [0.0, 0.0]])
    k_err = float(np.max(np.abs(outcome.K - K_expected)))
    l_err = float(np.max(np.abs(outcome.L - L_expected)))
    passed = k_err <= 1e-3 and l_err <= 1e-3 and elapsed < 1.0
    _report(
        capsys,
        1,
        passed,
        f"gain reproduction: max|dK| = {k_err:.2e}, max|dL| = {l_err:.2e} "
        f"(tol 1e-3), {elapsed:.3f} s",
    )
    assert k_err <= 1e-3
    assert l_err <= 1e-3
    assert elapsed < 1.0


def test_criterion_02_trigger_coefficient_bracket(reference_system, capsys):
    A, B, model, params = reference_system
    outcome = synthesize(A, B, model, params)
    assert outcome.mu == pytest.approx(CANONICAL_MU, rel=1e-12)
    mu_oracle = oracles.trigger_coefficient_explicit(
        A,
        B,
        outcome.P,
        params.R1,
        params.R2,
        params.alpha,
        params.beta,
        params.epsilon,
        params.sigma,
    )
    mu_err = abs(outcome.mu - mu_oracle) / abs(mu_oracle)
    n = A.shape[0]
    inv_eps = 1.0 / params.epsilon
    window_margin = inv_eps - float(np.linalg.eigvalsh(outcome.P)[-1])
    # The modified equation gives P - (Q + F + beta^2 I) = A' (P^-1 + W)^-1 A >= 0,
    # so no Riccati solution of these inputs can sit inside the window.
    structural_bound = inv_eps - float(
        np.linalg.eigvalsh(params.Q + model.F + params.beta**2 * np.eye(n))[-1]
    )
    window = outcome.report.get(COND_EPS_WINDOW)
    weight = outcome.report.get(COND_WEIGHT_PD)
    passed = (
        mu_err <= 1e-10
        and window.verdict == FAILS
        and window.margin == pytest.approx(window_margin, rel=1e-12)
        and window_margin <= structural_bound < 0.0
        and weight.verdict == FAILS
    )
    _report(
        capsys,
        2,
        passed,
        f"trigger coefficient: mu = {outcome.mu:.12g} (oracle rel err {mu_err:.1e}); "
        f"window margin {window_margin:.6g} <= structural bound {structural_bound:.6g} "
        f"< 0 and error weight {weight.verdict}, so the published bracket "
        "[0.26, 0.32] does not apply",
    )
    assert mu_err <= 1e-10
    assert window.verdict == FAILS
    assert window.margin == pytest.approx(window_margin, rel=1e-12)
    assert window_margin <= structural_bound < 0.0
    assert weight.verdict == FAILS


def test_criterion_03_riccati_residuals(reference_system, capsys):
    A, B, model, params = reference_system
    start = time.perf_counter()
    P = solve_modified_dare(A, B, params, model.F)
    worst = oracles.riccati_residual_explicit(
        A, B, P, params.Q, params.R1, params.R2, params.alpha, params.beta, model.F
    )
    rng = np.random.default_rng(3)
    for _ in range(100):
        A2, B2, Q2, R12, R22, F2, alpha2, beta2 = oracles.random_instance(rng)
        params2 = SynthesisParams(
            Q=Q2, R1=R12, R2=R22, alpha=alpha2, beta=beta2, epsilon=1.0, sigma=0.5
        )
        P2 = solve_modified_dare(A2, B2, params2, F2)
        residual = oracles.riccati_residual_explicit(
            A2, B2, P2, Q2, R12, R22, alpha2, beta2, F2
        )
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-9 and elapsed < 10.0
    _report(
        capsys,
        3,
        passed,
        f"equation residuals: worst {worst:.2e} over benchmark plus 100 random "
        f"instances (tol 1e-9), {elapsed:.2f} s",
    )
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_04_scalar_golden_ratio(capsys):
    A = np.array([[1.0]])
    B = np.array([[1.0]])
    params = SynthesisParams(
        Q=np.array([[1.0]]),
        R1=np.array([[1.0]]),
        R2=np.array([[1.0]]),
        alpha=0.0,
        beta=0.0,
        epsilon=0.25,
        sigma=0.5,
    )
    P = solve_modified_dare(A, B, params, np.array([[0.0]]))
    K = feedback_gain(A, B, P, params)
    p_err = abs(float(P[0, 0]) - (1.0 + np.sqrt(5.0)) / 2.0)
    k_err = abs(float(K[0, 0]) + (np.sqrt(5.0) - 1.0) / 2.0)
    passed = p_err <= 1e-10 and k_err <= 1e-10
    _report(
        capsys,
        4,
        passed,
        f"scalar closed form: |dP| = {p_err:.2e}, |dK| = {k_err:.2e} (tol 1e-10)",
    )
    assert p_err <= 1e-10
    assert k_err <= 1e-10


def test_criterion_05_matched_reduces_to_lqr(capsys):
    rng = np.random.default_rng(11)
    worst_p = 0.0
    worst_k = 0.0
    for _ in range(50):
        A, B, Q, R1, R2, _, _, _ = oracles.random_instance(rng)
        n = A.shape[0]
        params = SynthesisParams(
            Q=Q, R1=R1, R2=R2, alpha=0.0, beta=0.0, epsilon=1e-9, sigma=0.5
        )
        model = UncertaintyModel(
            basis=(np.zeros((n, n)),),
            p_lo=[0.0],
            p_hi=[0.0],
            F=np.zeros((n, n)),
        )
        outcome = synthesize_matched(A, B, model, params)
        P_ref = oracles.lqr_value_iteration(A, B, Q, R1, tol=1e-12)
        K_ref = oracles.lqr_gain(A, B, P_ref, R1)
        worst_p = max(worst_p, float(np.max(np.abs(outcome.P - P_ref))))
        worst_k = max(worst_k, float(np.max(np.abs(outcome.K - K_ref))))
    passed = worst_p <= 1e-8 and worst_k <= 1e-8
    _report(
        capsys,
        5,
        passed,
        f"matched synthesis equals standard regulator: max|dP| = {worst_p:.2e}, "
        f"max|dK| = {worst_k:.2e} over 50 instances (tol 1e-8)",
    )
    assert worst_p <= 1e-8
    assert worst_k <= 1e-8


def test_criterion_06_event_triggered_convergence(reference_system, capsys):
    A, B, model, params = reference_system
    start = time.perf_counter()
    outcome = synthesize(A, B, model, params)
    trace = simulate(
        A,
        B,
        model,
        outcome.K,
        TriggerPolicy.event(0.29),
        ParamTrajectory.constant([0.8]),
        [1.0, -1.0],
        20,
        outcome.P,
    )
    elapsed = time.perf_counter() - start
    ratio = float(np.linalg.norm(trace.states[-1]) / np.linalg.norm(trace.states[0]))
    passed = trace.transmissions < 20 and ratio <= 0.05 and elapsed < 1.0
    _report(
        capsys,
        6,
        passed,
        f"event-triggered convergence: {trace.transmissions}/20 transmissions, "
        f"final/initial norm ratio {ratio:.2e} (required <= 0.05), {elapsed:.3f} s",
    )
    assert trace.transmissions < 20
    assert ratio <= 0.05
    assert elapsed < 1.0


def test_criterion_07_dissipation_bound(holding_system, capsys):
    A, B, model, params = holding_system
    outcome = synthesize(A, B, model, params)
    assert outcome.report.all_hold
    decay = (1.0 - params.sigma) * float(np.linalg.eigvalsh(outcome.Q1)[0])
    lo, hi = model.p_lo, model.p_hi
    rng = np.random.default_rng(2026)
    trajectories = [
        (f"constant p={lo[0]:g}", ParamTrajectory.constant(lo)),
        (f"constant p={hi[0]:g}", ParamTrajectory.constant(hi)),
        (f"ramp {lo[0]:g} to {hi[0]:g}", ParamTrajectory.ramp(lo, hi)),
        ("seeded sequence", ParamTrajectory.sequence(rng.uniform(lo, hi, size=(21, 1)))),
    ]
    worst = np.inf
    where = ("", 0)
    transmissions = []
    for label, trajectory in trajectories:
        trace = simulate(
            A,
            B,
            model,
            outcome.K,
            TriggerPolicy.event(outcome.mu),
            trajectory,
            [1.0, -1.0],
            20,
            outcome.P,
        )
        transmissions.append(trace.transmissions)
        for k in range(trace.states.shape[0] - 1):
            allowed = -decay * float(trace.states[k] @ trace.states[k])
            allowed += 1e-8 * (1.0 + trace.V[k])
            slack = allowed - (trace.V[k + 1] - trace.V[k])
            if slack < worst:
                worst = float(slack)
                where = (label, k)
    holds_input = min(transmissions) < 20
    passed = worst >= 0.0 and holds_input
    _report(
        capsys,
        7,
        passed,
        f"dissipation bound: worst slack {worst:.6g} at step {where[1]} ({where[0]}), "
        f"mu = {outcome.mu:.6g}, transmissions "
        + "/".join(str(t) for t in transmissions)
        + " of 20",
    )
    assert worst >= 0.0, (
        f"dissipation bound violated by {-worst:.6g} at step {where[1]} of the "
        f"{where[0]} trace, although every design condition holds"
    )
    assert holds_input, "every trace transmitted at every step; the held input went unaudited"


def test_criterion_08_random_campaigns(capsys):
    identity = identity_campaign(samples=1000, seed=0)
    cross = cross_term_campaign(samples=1000, seed=0)
    passed = identity.holds and cross.holds
    _report(
        capsys,
        8,
        passed,
        f"random campaigns: identity worst residual {identity.margin:.2e}, "
        f"bound worst slack {cross.margin:.2e}, 1000 samples each",
    )
    assert identity.holds
    assert cross.holds
    assert "0 failures" in identity.note
    assert "0 failures" in cross.note


def test_criterion_09_feasibility_audit(reference_system, capsys):
    A, B, model, params = reference_system
    report = synthesize(A, B, model, params).report
    check = report.get(COND_UNC_SCALED)
    flagged = (
        check.verdict == FAILS
        and check.witness_p is not None
        and abs(float(check.witness_p[0]) - 0.8) <= 1e-9
        and check.margin == pytest.approx(-0.62, abs=0.02)
    )
    restricted_model = dataclasses.replace(model, p_hi=np.array([0.7]))
    restricted = synthesize(A, B, restricted_model, params).report
    restricted_ok = restricted.get(COND_UNC_SCALED).verdict == HOLDS and all(
        c.verdict in (HOLDS, MARGINAL, FAILS) for c in restricted.checks
    )
    passed = flagged and restricted_ok
    witness = None if check.witness_p is None else float(check.witness_p[0])
    _report(
        capsys,
        9,
        passed,
        f"feasibility audit: scaled bound {check.verdict} at p = {witness} with "
        f"margin {check.margin:.6g}; restricted box verdict "
        f"{restricted.get(COND_UNC_SCALED).verdict}",
    )
    assert flagged
    assert restricted_ok


# The artifact holds deterministic diagnostics only; timings stay out of it.
SYNTHESIS_KEYS = {
    "mode", "P", "K", "L", "Z", "Q1", "mu", "A_closed", "iterations", "residual", "feasibility",
}
CHECK_KEYS = {
    "condition", "verdict", "margin", "witness_p", "description", "points_evaluated",
    "margin_exact",
}


def _expected_diagnostics(check):
    """Box checks scan the 2^d vertices exactly; matrix checks scan no box point."""
    if check["margin"] is None:
        return 0, False
    if check["witness_p"] is None:
        return 0, True
    return 2 ** len(check["witness_p"]), True


def test_criterion_10_deterministic_outputs(tmp_path, capsys):
    configs = {"reference": REFERENCE_CONFIG, "demo": DEMO_CONFIG}
    artifacts = ("synthesis.json", "trace.csv", "comparison.json", "verification.json")
    mismatched, bad_diagnostics = [], []
    for name, config in configs.items():
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / name / run
            for command in ("synth", "simulate", "compare", "verify"):
                main([command, "--config", str(config), "--out", str(out)])
            outputs.append(out)
        for filename in artifacts:
            if (outputs[0] / filename).read_bytes() != (outputs[1] / filename).read_bytes():
                mismatched.append(f"{name}/{filename}")
        synthesis = json.loads((outputs[0] / "synthesis.json").read_text())
        bad_diagnostics += [
            f"{name}/{check['condition']}"
            for check in synthesis["feasibility"]["checks"]
            if check.keys() != CHECK_KEYS
            or (check["points_evaluated"], check["margin_exact"]) != _expected_diagnostics(check)
        ]
        if synthesis.keys() != SYNTHESIS_KEYS:
            bad_diagnostics.append(f"{name}/synthesis.json keys")
    passed = not mismatched and not bad_diagnostics
    detail = "all CSV/JSON artifacts byte-identical across repeated runs, diagnostics as expected"
    if not passed:
        detail = "non-deterministic artifacts: " + (", ".join(mismatched) or "none")
        detail += "; wrong diagnostics: " + (", ".join(bad_diagnostics) or "none")
    _report(capsys, 10, passed, detail)
    assert not mismatched
    assert not bad_diagnostics
