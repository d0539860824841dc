"""Closed-loop simulation tests: trajectories, trigger rule, traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etcontrol import (
    ParamTrajectory,
    SynthesisParams,
    TriggerPolicy,
    UncertaintyModel,
    check_dissipation,
    compare_policies,
    should_trigger,
    simulate,
    synthesize,
)
from oracles import simulate_stepwise


@pytest.fixture
def reference_gain(reference_system):
    A, B, model, params = reference_system
    out = synthesize(A, B, model, params)
    return A, B, model, out


# ---------------------------------------------------------------------------
# policies and trajectories


def test_policy_validation():
    TriggerPolicy.periodic()
    TriggerPolicy.event(0.3)
    with pytest.raises(ValueError):
        TriggerPolicy(kind="event")
    with pytest.raises(ValueError):
        TriggerPolicy(kind="periodic", mu=0.3)
    with pytest.raises(ValueError):
        TriggerPolicy(kind="sometimes")
    with pytest.raises(ValueError):
        TriggerPolicy.event(0.0)


@pytest.mark.parametrize("mu", [float("nan"), float("inf")])
def test_policy_rejects_non_finite_mu(mu):
    with pytest.raises(ValueError, match="finite"):
        TriggerPolicy.event(mu)


def test_matrix_at(reference_system):
    _, _, model, _ = reference_system
    assert np.allclose(model.matrix_at([0.8]), [[0.8, 0.8], [0.0, 0.0]])
    assert np.allclose(model.matrix_at([0.0]), np.zeros((2, 2)))


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_matrix_at_stack_matches_rows(d):
    """A (k, d) stack gives the single-row matrices bit for bit."""
    rng = np.random.default_rng(d)
    model = UncertaintyModel(
        basis=tuple(rng.normal(size=(3, 3)) for _ in range(d)),
        p_lo=-np.ones(d),
        p_hi=np.ones(d),
        F=np.eye(3),
    )
    rows = rng.uniform(-1.0, 1.0, size=(7, d))
    stack = model.matrix_at(rows)
    assert stack.shape == (7, 3, 3)
    for row, dA in zip(rows, stack):
        assert np.array_equal(dA, model.matrix_at(row))
    assert model.matrix_at(rows[:0]).shape == (0, 3, 3)
    for bad in (np.zeros((7, d + 1)), np.zeros((2, 7, d))):
        with pytest.raises(ValueError, match="p has shape"):
            model.matrix_at(bad)


def test_constant_trajectory(reference_system):
    _, _, model, _ = reference_system
    rows, clamped = ParamTrajectory.constant([0.5]).realize(4, model)
    assert rows.shape == (5, 1)
    assert np.all(rows == 0.5)
    assert clamped == 0


def test_constant_trajectory_clamps_with_warning(reference_system):
    _, _, model, _ = reference_system
    with pytest.warns(UserWarning, match="clamped"):
        rows, clamped = ParamTrajectory.constant([1.5]).realize(3, model)
    assert np.all(rows == 0.8)
    assert clamped == 4


def test_ramp_trajectory(reference_system):
    _, _, model, _ = reference_system
    rows, clamped = ParamTrajectory.ramp([0.0], [0.8]).realize(8, model)
    assert rows.shape == (9, 1)
    assert rows[0, 0] == 0.0
    assert rows[-1, 0] == 0.8
    assert np.allclose(np.diff(rows[:, 0]), 0.1)
    assert clamped == 0


def test_sequence_trajectory(reference_system):
    _, _, model, _ = reference_system
    values = [[0.1], [0.2], [0.3], [0.4]]
    rows, _ = ParamTrajectory.sequence(values).realize(3, model)
    assert np.allclose(rows, values)
    with pytest.raises(ValueError, match="rows"):
        ParamTrajectory.sequence(values).realize(10, model)


def test_random_trajectory_seeded(reference_system):
    _, _, model, _ = reference_system
    rows_a, _ = ParamTrajectory.random(3).realize(50, model)
    rows_b, _ = ParamTrajectory.random(3).realize(50, model)
    rows_c, _ = ParamTrajectory.random(4).realize(50, model)
    assert np.array_equal(rows_a, rows_b)
    assert not np.array_equal(rows_a, rows_c)
    assert np.all(rows_a >= 0.0) and np.all(rows_a <= 0.8)


@pytest.mark.parametrize("seed", [-3, 2.5, "7"])
def test_random_trajectory_rejects_bad_seed(seed):
    """A seed numpy would refuse at realize time is refused at construction."""
    with pytest.raises(ValueError, match="seed must be"):
        ParamTrajectory.random(seed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "make, name",
    [
        (lambda bad: ParamTrajectory.constant([bad]), "value"),
        (lambda bad: ParamTrajectory.ramp([bad], [0.0]), "start"),
        (lambda bad: ParamTrajectory.ramp([0.0], [bad]), "end"),
        (lambda bad: ParamTrajectory.sequence([[0.1], [bad]]), "values"),
    ],
    ids=["constant", "ramp-start", "ramp-end", "sequence"],
)
def test_trajectory_rejects_non_finite_entries(make, name, bad):
    """A NaN used to pass np.clip and be reported as a clamped row."""
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        make(bad)


# ---------------------------------------------------------------------------
# trigger rule


def test_should_trigger_boundary_counts():
    # squared error 1.0 equals mu * ||x||^2 = 0.25 * 4.0 exactly
    assert should_trigger([2.0, 0.0], [3.0, 0.0], 0.25)
    assert not should_trigger([2.0, 0.0], [2.9, 0.0], 0.25)


def test_should_trigger_zero_state_nonzero_error():
    assert should_trigger([0.0, 0.0], [0.1, 0.0], 0.29)


def test_should_trigger_origin_rest():
    assert not should_trigger([0.0, 0.0], [0.0, 0.0], 0.29)


@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=1.0, max_value=4.0),
)
@settings(max_examples=80, deadline=None)
def test_should_trigger_monotone_in_mu(x, held, mu, factor):
    """Raising the threshold can only suppress transmissions."""
    if should_trigger([x], [held], mu * factor):
        assert should_trigger([x], [held], mu)


# ---------------------------------------------------------------------------
# simulate


def test_scalar_decay_law():
    """Periodic loop with the golden-ratio gain contracts by 2 - golden ratio."""
    model = UncertaintyModel(basis=(), p_lo=[], p_hi=[], F=[[0.0]])
    K = np.array([[-(np.sqrt(5.0) - 1.0) / 2.0]])
    trace = simulate(
        [[1.0]],
        [[1.0]],
        model,
        K,
        TriggerPolicy.periodic(),
        ParamTrajectory.constant([]),
        [1.0],
        10,
        [[1.0]],
    )
    rate = 1.0 + K[0, 0]
    expected = rate ** np.arange(11)
    assert np.allclose(trace.states[:, 0], expected, atol=1e-12)
    assert trace.transmissions == 10
    assert not trace.diverged


def test_reference_event_trace(reference_gain):
    A, B, model, out = reference_gain
    trace = simulate(
        A, B, model, out.K,
        TriggerPolicy.event(0.29),
        ParamTrajectory.constant([0.8]),
        [1.0, -1.0], 20, out.P,
    )
    assert trace.transmissions == 10
    assert trace.trigger_indices.tolist() == [0, 1, 3, 4, 9, 10, 13, 14, 17, 18]
    assert np.linalg.norm(trace.states[-1]) == pytest.approx(0.00125863804496564, rel=1e-9)
    assert trace.states.shape == (21, 2)
    assert not trace.triggered[-1]
    assert not trace.diverged


def test_event_trace_soundness(reference_gain):
    """Between transmissions the monitored error stays below the threshold."""
    A, B, model, out = reference_gain
    trace = simulate(
        A, B, model, out.K,
        TriggerPolicy.event(0.29),
        ParamTrajectory.constant([0.8]),
        [1.0, -1.0], 20, out.P,
    )
    for k in range(1, trace.n_steps):
        if trace.triggered[k]:
            assert trace.monitored_sq[k] >= trace.thresholds[k]
            assert np.allclose(trace.errors[k], 0.0)
        else:
            assert trace.monitored_sq[k] < trace.thresholds[k]
            assert trace.monitored_sq[k] == pytest.approx(
                float(trace.errors[k] @ trace.errors[k]), abs=1e-15
            )


def test_zero_order_hold(reference_gain):
    A, B, model, out = reference_gain
    trace = simulate(
        A, B, model, out.K,
        TriggerPolicy.event(0.29),
        ParamTrajectory.constant([0.8]),
        [1.0, -1.0], 20, out.P,
    )
    for k in range(1, trace.states.shape[0]):
        if not trace.triggered[k]:
            assert np.array_equal(trace.inputs[k], trace.inputs[k - 1])
        else:
            assert np.allclose(trace.inputs[k], out.K @ trace.states[k], atol=1e-15)


def test_zero_initial_state_transmits_once(reference_gain):
    A, B, model, out = reference_gain
    trace = simulate(
        A, B, model, out.K,
        TriggerPolicy.event(0.29),
        ParamTrajectory.constant([0.8]),
        [0.0, 0.0], 15, out.P,
    )
    assert trace.transmissions == 1
    assert trace.triggered[0]
    assert not trace.triggered[1:].any()
    assert not trace.states.any()


def test_simulate_deterministic(reference_gain):
    A, B, model, out = reference_gain
    runs = [
        simulate(
            A, B, model, out.K,
            TriggerPolicy.event(0.29),
            ParamTrajectory.random(11),
            [1.0, -1.0], 25, out.P,
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].states, runs[1].states)
    assert np.array_equal(runs[0].inputs, runs[1].inputs)
    assert np.array_equal(runs[0].triggered, runs[1].triggered)
    assert np.array_equal(runs[0].p, runs[1].p)


def test_divergence_flag():
    model = UncertaintyModel(basis=(), p_lo=[], p_hi=[], F=np.zeros((2, 2)))
    trace = simulate(
        2.0 * np.eye(2),
        [[0.0], [1.0]],
        model,
        np.zeros((1, 2)),
        TriggerPolicy.periodic(),
        ParamTrajectory.constant([]),
        [1.0, 1.0],
        60,
        np.eye(2),
    )
    assert trace.diverged
    assert trace.states.shape[0] < 61
    assert np.linalg.norm(trace.states[-1]) > 1e12
    assert not trace.triggered[-1]


def test_lyapunov_column(reference_gain):
    A, B, model, out = reference_gain
    trace = simulate(
        A, B, model, out.K,
        TriggerPolicy.event(0.29),
        ParamTrajectory.constant([0.8]),
        [1.0, -1.0], 10, out.P,
    )
    for k in range(trace.states.shape[0]):
        x = trace.states[k]
        assert trace.V[k] == pytest.approx(float(x @ out.P @ x), rel=1e-12, abs=1e-300)


def test_simulate_validates_shapes(reference_gain):
    A, B, model, out = reference_gain
    with pytest.raises(ValueError, match="x0"):
        simulate(
            A, B, model, out.K,
            TriggerPolicy.periodic(),
            ParamTrajectory.constant([0.5]),
            [1.0, 2.0, 3.0], 5, out.P,
        )
    with pytest.raises(ValueError, match="n_steps"):
        simulate(
            A, B, model, out.K,
            TriggerPolicy.periodic(),
            ParamTrajectory.constant([0.5]),
            [1.0, -1.0], 0, out.P,
        )
    with pytest.raises(ValueError, match="K has shape"):
        simulate(
            A, B, model, np.zeros((1, 3)),
            TriggerPolicy.periodic(),
            ParamTrajectory.constant([0.5]),
            [1.0, -1.0], 5, out.P,
        )


def test_compare_policies_validates_shapes(reference_gain):
    A, B, model, out = reference_gain

    def run(K=out.K, x0=(1.0, -1.0), n_steps=5):
        compare_policies(A, B, model, K, 0.29, ParamTrajectory.constant([0.5]), x0, n_steps, out.P)

    with pytest.raises(ValueError, match="x0"):
        run(x0=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="K has shape"):
        run(K=np.zeros((1, 3)))
    with pytest.raises(ValueError, match="n_steps"):
        run(n_steps=0)


# ---------------------------------------------------------------------------
# comparison


def test_compare_policies_reference(reference_gain):
    A, B, model, out = reference_gain
    comparison = compare_policies(
        A, B, model, out.K, 0.29,
        ParamTrajectory.constant([0.8]),
        [1.0, -1.0], 20, out.P,
    )
    assert comparison.periodic.transmissions == 20
    assert comparison.event.transmissions == 10
    assert comparison.savings_ratio == pytest.approx(0.5)
    assert (comparison.min_gap, comparison.mean_gap, comparison.max_gap) == (1.0, 2.0, 5.0)


def test_compare_policies_shares_parameter_path(reference_gain):
    A, B, model, out = reference_gain
    comparison = compare_policies(
        A, B, model, out.K, 0.29,
        ParamTrajectory.random(42),
        [1.0, -1.0], 30, out.P,
    )
    assert np.array_equal(comparison.periodic.p, comparison.event.p)


def test_tiny_threshold_recovers_periodic(reference_gain):
    """As mu approaches zero the event loop transmits every step."""
    A, B, model, out = reference_gain
    comparison = compare_policies(
        A, B, model, out.K, 1e-9,
        ParamTrajectory.constant([0.8]),
        [1.0, -1.0], 20, out.P,
    )
    assert comparison.event.transmissions == 20
    assert comparison.savings_ratio == 0.0
    assert np.array_equal(comparison.event.states, comparison.periodic.states)
    assert np.array_equal(comparison.event.inputs, comparison.periodic.inputs)
    assert np.array_equal(comparison.event.triggered, comparison.periodic.triggered)


# ---------------------------------------------------------------------------
# the step loop against the per-step oracle

SECOND_AXIS = np.array([[0.05, 0.1], [-0.1, 0.0]])


def _assert_matches_oracle(trace, A, B, model, K, mu, rows, x0, P):
    """Every SimTrace column equals the stepwise oracle's bit for bit."""
    expected, diverged = simulate_stepwise(A, B, model.basis, K, mu, rows, x0, P)
    for name, column in expected.items():
        assert np.array_equal(getattr(trace, name), column), name
    assert trace.diverged == diverged
    assert trace.transmissions == int(expected["triggered"].sum())


def _traces_against_oracle(A, B, model, K, mu, trajectory, x0, n_steps, P):
    """simulate and compare_policies under both policies, each checked by the oracle."""
    rows, _ = trajectory.realize(n_steps, model)
    comparison = compare_policies(A, B, model, K, mu, trajectory, x0, n_steps, P)
    for policy, pair_trace in ((None, comparison.periodic), (mu, comparison.event)):
        single = TriggerPolicy.periodic() if policy is None else TriggerPolicy.event(policy)
        trace = simulate(A, B, model, K, single, trajectory, x0, n_steps, P)
        _assert_matches_oracle(trace, A, B, model, K, policy, rows, x0, P)
        _assert_matches_oracle(pair_trace, A, B, model, K, policy, rows, x0, P)
    return comparison


@pytest.mark.parametrize("kind", ["constant", "ramp", "sequence", "random"])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_trace_matches_stepwise_oracle(holding_system, d, kind):
    """mu = 30 makes the event loop hold its input on every path here."""
    A, B, model, params = holding_system
    out = synthesize(A, B, model, params)
    model = UncertaintyModel(
        basis=(model.basis[0], SECOND_AXIS)[:d], p_lo=-np.ones(d), p_hi=np.ones(d), F=model.F
    )
    n_steps = 25
    trajectory = {
        "constant": ParamTrajectory.constant(np.full(d, 0.7)),
        "ramp": ParamTrajectory.ramp(-np.ones(d), np.ones(d)),
        "sequence": ParamTrajectory.sequence(
            np.random.default_rng(2026).uniform(-1.0, 1.0, size=(n_steps + 1, d))
        ),
        "random": ParamTrajectory.random(5),
    }[kind]
    comparison = _traces_against_oracle(
        A, B, model, out.K, 30.0, trajectory, [1.0, -1.0], n_steps, out.P
    )
    assert comparison.event.transmissions < n_steps


@pytest.mark.parametrize("x0", [[1.0, 1.0], [0.0, 0.0]], ids=["diverging", "at-rest"])
def test_diverging_and_resting_runs_match_stepwise_oracle(x0):
    model = UncertaintyModel(basis=(0.1 * np.eye(2),), p_lo=[-1.0], p_hi=[1.0], F=0.01 * np.eye(2))
    comparison = _traces_against_oracle(
        2.0 * np.eye(2), [[0.0], [1.0]], model, np.array([[0.0, -0.5]]), 0.3,
        ParamTrajectory.random(3), x0, 60, np.eye(2),
    )
    assert comparison.periodic.diverged == comparison.event.diverged == any(x0)


def test_tiny_threshold_matches_stepwise_oracle(reference_gain):
    A, B, model, out = reference_gain
    comparison = _traces_against_oracle(
        A, B, model, out.K, 1e-9, ParamTrajectory.constant([0.8]), [1.0, -1.0], 20, out.P
    )
    assert comparison.event.transmissions == 20


def test_plant_realized_once_per_run(holding_system, monkeypatch):
    """compare_policies and the dissipation audit each build dA(p_k) in one call."""
    A, B, model, params = holding_system
    out = synthesize(A, B, model, params)
    shapes = []
    matrix_at = UncertaintyModel.matrix_at

    def counting(self, p):
        shapes.append(np.shape(p))
        return matrix_at(self, p)

    monkeypatch.setattr(UncertaintyModel, "matrix_at", counting)
    trajectory = ParamTrajectory.random(1)
    comparison = compare_policies(A, B, model, out.K, out.mu, trajectory, [1.0, -1.0], 20, out.P)
    assert shapes == [(20, 1)]
    audit = check_dissipation(
        comparison.event, out.P, out.Q1, out.K, B, out.Z, params.sigma, model=model, F=model.F
    )
    assert audit.holds
    assert shapes == [(20, 1)] * 2
    simulate(A, B, model, out.K, TriggerPolicy.periodic(), trajectory, [1.0, -1.0], 20, out.P)
    assert shapes == [(20, 1)] * 3
