"""Numerical audit tests: identities, bounds, dissipation, campaigns."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import CONFIG_DIR
from etcontrol import (
    FeasibilityError,
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
from etcontrol.verification import (
    check_cross_term_bound_at_vertices,
    cross_term_margins,
    inversion_identity_margins,
)
from oracles import campaign_stepwise, epsilon_margins, epsilon_scan


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
        Z = error_weight(P, 1.0 / s_in, require_window=False)
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


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["identity", "cross_term"])
def test_campaigns_match_stepwise_oracle(kind, seed):
    """Batching by dimension keeps every draw, margin, witness and count."""
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
    [{"samples": -1}, {"samples": 2.5}, {"samples": "10"}, {"max_dim": 0}, {"max_dim": 2.5}],
    ids=["negative-samples", "fractional-samples", "string-samples", "zero-dim", "fractional-dim"],
)
@pytest.mark.parametrize("campaign", [identity_campaign, cross_term_campaign])
def test_campaigns_reject_bad_sizes(campaign, kwargs):
    with pytest.raises(ValueError, match="samples|max_dim"):
        campaign(**kwargs)


# ---------------------------------------------------------------------------
# stacked kernels


def test_single_checks_keep_their_exceptions():
    """The stack-of-one wrappers raise what the per-instance checks raised."""
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


def _stack(matrix, bad, at=2, k=4):
    stack = np.repeat(np.asarray(matrix, dtype=float)[None], k, axis=0)
    stack[at] = bad
    return stack


def test_kernels_validate_every_instance():
    """A bad matrix anywhere in a stack raises, not only in the first slot."""
    P = np.diag([1.0, 2.0])
    eps = np.full(4, 0.1)
    loop = np.repeat(np.array([[[0.1, 0.3], [0.0, 0.2]]]), 4, axis=0)
    asymmetric = [[1.0, 0.5], [0.0, 2.0]]
    with pytest.raises(ValueError, match=r"P is not symmetric \(defect 5\.000e-01\)"):
        inversion_identity_margins(_stack(P, asymmetric), eps)
    with pytest.raises(ValueError, match=r"P is not symmetric \(defect 5\.000e-01\)"):
        cross_term_margins(_stack(P, asymmetric), eps, loop, loop)
    with pytest.raises(ValueError, match="P must be positive definite"):
        inversion_identity_margins(_stack(P, np.diag([1.0, -1.0])), eps)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        inversion_identity_margins(_stack(P, P), [0.1, 0.1, -0.1, 0.1])
    with pytest.raises(SingularMatrixError, match="inner window gap"):
        inversion_identity_margins(_stack(P, np.diag([1.0, 10.0])), eps)
    with pytest.raises(FeasibilityError):
        cross_term_margins(_stack(P, np.diag([1.0, 20.0])), eps, loop, loop)
    with pytest.raises(ValueError, match="A_closed contains non-finite entries"):
        cross_term_margins(_stack(P, P), eps, _stack(loop[0], np.nan), loop)


def test_kernels_reject_mismatched_stacks():
    """Each argument must cover the k instances of P; nothing broadcasts."""
    P = np.repeat(np.diag([1.0, 2.0])[None], 4, axis=0)
    eps = np.full(4, 0.1)
    loop = np.repeat(np.array([[[0.1, 0.3], [0.0, 0.2]]]), 4, axis=0)
    for bad_eps in (0.1, [0.1], np.full(3, 0.1), np.full((4, 1), 0.1)):
        with pytest.raises(ValueError, match=r"epsilon must have shape \(4,\)"):
            inversion_identity_margins(P, bad_eps)
        with pytest.raises(ValueError, match=r"epsilon must have shape \(4,\)"):
            cross_term_margins(P, bad_eps, loop, loop)
    for bad_loop in (loop[:1], loop[:3], np.zeros((4, 3, 3))):
        with pytest.raises(ValueError, match="A_closed must have the shape of P"):
            cross_term_margins(P, eps, bad_loop, loop)
        with pytest.raises(ValueError, match="dA must have the shape of P"):
            cross_term_margins(P, eps, loop, bad_loop)
    with pytest.raises(ValueError, match=r"dA must be a \(k, m, n\) stack"):
        cross_term_margins(P, eps, loop, loop[0])


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_verify_cross_term_entry_matches_vertex_loop(tmp_path, d):
    """verify's one kernel call over the 2^d vertices equals a loop of single checks."""
    data = json.loads((CONFIG_DIR / "feasible_demo.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(40 + d)
    data["uncertainty"]["basis"] = (0.1 * rng.normal(size=(d, 2, 2))).tolist()
    data["uncertainty"]["p_lo"] = (-rng.uniform(0.1, 0.5, size=d)).tolist()
    data["uncertainty"]["p_hi"] = rng.uniform(0.1, 0.5, size=d).tolist()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    payload = json.loads((tmp_path / "out" / "verification.json").read_text(encoding="utf-8"))
    (entry,) = [check for check in payload["checks"] if check["name"] == "cross_term_bound"]

    config = load_config(path)
    out = synthesize(config.A, config.B, config.model, config.params)
    worst = worst_p = None
    for p in config.model.vertices():
        result = check_cross_term_bound(
            out.P, config.params.epsilon, out.A_closed, config.model.matrix_at(p)
        )
        if worst is None or result.margin < worst.margin:
            worst, worst_p = result, p
    assert check_cross_term_bound_at_vertices(
        out.P, config.params.epsilon, out.A_closed, config.model
    ) == dataclasses.replace(
        worst,
        witness={**worst.witness, "p": [float(v) for v in worst_p]},
        note=worst.note + "; worst over box vertices",
    )
    rounded = lambda value: float(f"{value:.12g}")  # noqa: E731
    assert entry == {
        "name": "cross_term_bound",
        "holds": worst.holds,
        "margin": rounded(worst.margin),
        "witness": {
            "p": [rounded(v) for v in worst_p],
            "tolerance": rounded(worst.witness["tolerance"]),
        },
        "note": worst.note + "; worst over box vertices",
    }
