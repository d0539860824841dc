"""Closed-loop simulation tests: trajectories, trigger rule, traces."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from etcontrol import (
    ParamTrajectory,
    SynthesisParams,
    TriggerPolicy,
    UncertaintyModel,
    check_dissipation,
    compare_policies,
    load_config,
    simulate,
    synthesize,
)
from etcontrol.cli import main
from etcontrol.simulation import _quadratic_rows, _transmits
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


@pytest.mark.parametrize(
    "trajectory, message",
    [
        (ParamTrajectory.constant([0.1, 0.2]), "value: has length 2, expected 1"),
        (ParamTrajectory.constant([[0.1]]), "value: has 2 dimensions, expected 1"),
        (ParamTrajectory.ramp([0.1], [0.2, 0.3]), "end: has length 2, expected 1"),
        (ParamTrajectory.sequence([[0.1, 0.2]] * 4), "values: rows have length 2, expected 1"),
        (ParamTrajectory.sequence([[0.1]] * 3), "values: needs at least 4 rows, has 3"),
    ],
    ids=["constant", "constant-nested", "ramp-end", "sequence-width", "sequence-rows"],
)
def test_trajectory_that_does_not_fit_names_its_field(reference_system, trajectory, message):
    """realize refuses a trajectory for another box or a shorter horizon, field first."""
    _, _, model, _ = reference_system
    with pytest.raises(ValueError) as info:
        trajectory.realize(3, model)
    assert str(info.value) == message


def test_random_trajectory_seeded(reference_system):
    _, _, model, _ = reference_system
    rows_a, _ = ParamTrajectory.random(3).realize(50, model)
    rows_b, _ = ParamTrajectory.random(3).realize(50, model)
    rows_c, _ = ParamTrajectory.random(4).realize(50, model)
    assert np.array_equal(rows_a, rows_b)
    assert not np.array_equal(rows_a, rows_c)
    assert np.all(rows_a >= 0.0) and np.all(rows_a <= 0.8)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_trajectory_is_generator_uniform(d):
    """realize draws the bits of Generator.uniform(p_lo, p_hi, size), a degenerate box too."""
    rng = np.random.default_rng(40 + d)
    for box in range(6):
        lo = rng.uniform(-2.0, 1.0, size=d)
        hi = lo + rng.uniform(0.0, 3.0, size=d) * (rng.random(d) < 0.8)
        if box == 0:
            hi = lo.copy()
        model = UncertaintyModel(
            basis=tuple(np.eye(2) for _ in range(d)), p_lo=lo, p_hi=hi, F=np.eye(2)
        )
        for seed in range(40):
            rows, clamped = ParamTrajectory.random(seed).realize(30, model)
            expected = np.random.default_rng(seed).uniform(lo, hi, size=(31, d))
            assert rows.tobytes() == expected.tobytes(), (box, seed)
            assert clamped == 0
        if box == 0:
            assert np.array_equal(rows, np.tile(lo, (31, 1)))


def test_random_trajectory_overflowing_range(tmp_path, capsys):
    """A finite box whose width overflows is refused: by the model, and by every command."""
    lo, hi = np.array([-1e308]), np.array([1e308])
    with pytest.raises(ValueError, match="box width p_hi - p_lo must be finite"):
        UncertaintyModel(basis=(np.eye(2),), p_lo=lo, p_hi=hi, F=np.eye(2))
    data = json.loads((CONFIG_DIR / "feasible_demo.json").read_text(encoding="utf-8"))
    data["uncertainty"]["p_lo"], data["uncertainty"]["p_hi"] = lo.tolist(), hi.tolist()
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("synth", "simulate", "compare", "verify"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: uncertainty: ")
    assert not out.exists()


def test_ramp_overflowing_span(tmp_path, capsys):
    """A ramp whose span end - start overflows is refused: by the library, and by every command.

    Its first row would be start + 0 * inf = NaN, which the clamp keeps.
    """
    model = UncertaintyModel(basis=(np.eye(2),), p_lo=[-1e308], p_hi=[1e307], F=np.eye(2))
    ramp = ParamTrajectory.ramp([-1e308], [1e308])
    with pytest.raises(ValueError, match="^end: the ramp's span end - start must be finite$"):
        ramp.check_fits(1, 30)
    with pytest.raises(ValueError, match="^end: "):
        simulate(
            np.eye(2), [[0.0], [1.0]], model, np.zeros((1, 2)), TriggerPolicy.periodic(), ramp,
            [1.0, -1.0], 30, np.eye(2),
        )
    data = json.loads((CONFIG_DIR / "feasible_demo.json").read_text(encoding="utf-8"))
    data["uncertainty"]["p_lo"], data["uncertainty"]["p_hi"] = [-1e308], [1e307]
    data["simulation"]["trajectory"] = {"kind": "ramp", "start": [-1e308], "end": [1e308]}
    path = tmp_path / "nan_ramp.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("synth", "simulate", "compare", "verify"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: simulation.trajectory.end: ")
    assert not out.exists()


@pytest.mark.parametrize("seed", [-3, 2.5, "7", True])
def test_random_trajectory_rejects_bad_seed(seed):
    """A seed numpy would refuse at realize time, or a bool, is refused at construction."""
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
    assert _transmits(1.0, 4.0, 0.25)
    assert not _transmits(0.9**2, 4.0, 0.25)


def test_should_trigger_zero_state_nonzero_error():
    assert _transmits(0.1**2, 0.0, 0.29)


def test_should_trigger_origin_rest():
    assert not _transmits(0.0, 0.0, 0.29)


@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=1.0, max_value=4.0),
)
@settings(max_examples=80, deadline=None)
def test_should_trigger_monotone_in_mu(x, held, mu, factor):
    """Raising the threshold can only suppress transmissions."""
    e_sq, x_sq = (held - x) ** 2, x**2
    if _transmits(e_sq, x_sq, mu * factor):
        assert _transmits(e_sq, x_sq, mu)


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


@pytest.mark.parametrize(
    "n_steps", [2.7, 5.0, "5", None, True], ids=["2.7", "5.0", "str", "None", "True"]
)
def test_runs_refuse_a_non_integer_n_steps(reference_gain, n_steps):
    """n_steps is an integer: 2.7 used to run 2 steps, "5" five and True one."""
    A, B, model, out = reference_gain
    trajectory, x0 = ParamTrajectory.constant([0.5]), [1.0, -1.0]
    match = re.escape(f"n_steps must be an integer, got {n_steps!r}")
    with pytest.raises(ValueError, match=match):
        simulate(A, B, model, out.K, TriggerPolicy.periodic(), trajectory, x0, n_steps, out.P)
    with pytest.raises(ValueError, match=match):
        compare_policies(A, B, model, out.K, 0.29, trajectory, x0, n_steps, out.P)


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


@pytest.mark.parametrize("n", range(1, 9))
def test_random_systems_match_stepwise_oracle(n):
    """Every column of every run is the oracle's bit for bit, for m = 1..3 and d = 0..3.

    V and monitored_sq come from stacked matmuls; this sweep pins that they
    equal the per-row dot products at every state and input dimension. Each
    n also gets a diverging run and a run from rest at the origin.
    """
    rng = np.random.default_rng(100 + n)
    for m in range(1, 4):
        for d in range(4):
            A = rng.normal(size=(n, n))
            A *= 0.95 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-3)
            B, K = rng.normal(size=(n, m)), 0.3 * rng.normal(size=(m, n))
            G = rng.normal(size=(n, n))
            model = UncertaintyModel(
                basis=tuple(0.1 * rng.normal(size=(d, n, n))),
                p_lo=-np.ones(d), p_hi=np.ones(d), F=np.eye(n),
            )
            _traces_against_oracle(
                A, B, model, K, rng.uniform(0.05, 2.0), ParamTrajectory.random(n + m + d),
                rng.normal(size=n), 30, G @ G.T + np.eye(n),
            )
    diverging = _traces_against_oracle(
        3.0 * np.eye(n), B, model, np.zeros_like(K), 0.5, ParamTrajectory.random(1), np.ones(n),
        40, np.eye(n),
    )
    assert diverging.periodic.diverged and diverging.event.diverged
    resting = _traces_against_oracle(
        A, B, model, K, 0.5, ParamTrajectory.random(2), np.zeros(n), 20, np.eye(n)
    )
    assert resting.event.transmissions == 1 and not resting.event.V.any()


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("branch", ["copied", "event loop", "diverging copied", "diverging event loop"])
def test_compare_policies_branches_are_simulate(n, branch):
    """Both branches of compare_policies give simulate's traces, column by column, bit for bit.

    mu = 1e-9 never declines, so the event trace is the copied periodic one;
    mu = 30 declines, so the event loop runs. The loop writes K x straight
    into the input row of a transmitting step, and a held step's row is
    gathered from the last transmitting one; m = n / 2 inputs.
    """
    rng = np.random.default_rng(500 + n)
    m = n // 2
    A = rng.normal(size=(n, n))
    A *= 0.9 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-3)
    if branch.startswith("diverging"):
        A = 3.0 * np.eye(n) + 0.1 * A
    B, K = rng.normal(size=(n, m)), 0.2 * rng.normal(size=(m, n))
    model = UncertaintyModel(
        basis=tuple(0.1 * rng.normal(size=(2, n, n))), p_lo=-np.ones(2), p_hi=np.ones(2),
        F=np.eye(n),
    )
    G = rng.normal(size=(n, n))
    mu = 1e-9 if branch.endswith("copied") else 30.0
    args = (A, B, model, K, mu, ParamTrajectory.random(n), rng.normal(size=n), 40, G @ G.T)
    comparison = compare_policies(*args)
    assert (_first_decline(comparison) is None) == branch.endswith("copied")
    assert comparison.event.diverged == branch.startswith("diverging")
    for policy, trace in (
        (TriggerPolicy.periodic(), comparison.periodic),
        (TriggerPolicy.event(mu), comparison.event),
    ):
        single = simulate(*args[:4], policy, *args[5:])
        for name in _COLUMNS:
            column = getattr(trace, name)
            assert column.tobytes() == getattr(single, name).tobytes(), (policy.kind, name)
            assert column.shape == getattr(single, name).shape, (policy.kind, name)
        assert (trace.diverged, trace.clamped_steps, trace.policy) == (
            single.diverged, single.clamped_steps, single.policy
        )
    if branch == "event loop":
        held = ~comparison.event.triggered[:-1]
        assert held.any()
        # A held step copies the input applied at the last transmission.
        rows = comparison.event.inputs
        last_sent = np.maximum.accumulate(np.where(~held, np.arange(held.size), 0))
        assert np.array_equal(rows[:-1], rows[last_sent])


def test_tiny_threshold_matches_stepwise_oracle(reference_gain):
    A, B, model, out = reference_gain
    comparison = _traces_against_oracle(
        A, B, model, out.K, 1e-9, ParamTrajectory.constant([0.8]), [1.0, -1.0], 20, out.P
    )
    assert comparison.event.transmissions == 20


def test_plant_realized_once_per_run(holding_system, monkeypatch):
    """compare_policies builds dA(p_k) in one call; the model builds dA at the box vertices once.

    The feasibility report forms the model's vertex stack; the audit reads
    it, and its 2^d vertices certify the gate, so no step's dA is formed.
    """
    A, B, model, params = holding_system
    shapes = []
    matrix_at = UncertaintyModel.matrix_at

    def counting(self, p):
        shapes.append(np.shape(p))
        return matrix_at(self, p)

    monkeypatch.setattr(UncertaintyModel, "matrix_at", counting)
    out = synthesize(A, B, model, params)
    assert shapes == [(2, 1)]
    trajectory = ParamTrajectory.random(1)
    comparison = compare_policies(A, B, model, out.K, out.mu, trajectory, [1.0, -1.0], 20, out.P)
    assert shapes == [(2, 1), (20, 1)]
    audit = check_dissipation(
        comparison.event, out.P, out.Q1, out.K, B, out.Z, params.sigma, model=model, F=model.F
    )
    assert audit.holds
    assert shapes == [(2, 1), (20, 1)]
    simulate(A, B, model, out.K, TriggerPolicy.periodic(), trajectory, [1.0, -1.0], 20, out.P)
    assert shapes == [(2, 1), (20, 1), (20, 1)]


# ---------------------------------------------------------------------------
# the event run shares the periodic run's prefix

_COLUMNS = ("states", "inputs", "errors", "monitored_sq", "thresholds", "triggered", "p", "V")


def _config_run(name):
    """The bundled config's plant, design and closed-loop settings."""
    config = load_config(CONFIG_DIR / f"{name}.json")
    out = synthesize(config.A, config.B, config.model, config.params)
    sim = config.simulation
    mu = out.mu if sim.mu is None else sim.mu
    return config.A, config.B, config.model, out.K, mu, sim.trajectory, sim.x0, sim.n_steps, out.P


def _first_decline(comparison):
    """The first decision row at which the event run does not transmit (None: none)."""
    held = np.flatnonzero(~comparison.event.triggered[1 : comparison.event.n_steps])
    return int(held[0]) + 1 if held.size else None


@pytest.mark.parametrize(
    "name, decline", [("feasible_demo", None), ("reference_example", 2)], ids=["demo", "reference"]
)
def test_bundled_configs_share_the_prefix(name, decline):
    """The demo's event run never declines at its formula mu; the reference's declines at row 2."""
    args = _config_run(name)
    comparison = _traces_against_oracle(*args)
    assert _first_decline(comparison) == decline
    assert comparison.savings_ratio == (0.0 if decline is None else 0.5)
    rows = decline or comparison.event.n_steps + 1
    for column in ("states", "inputs", "monitored_sq", "V"):
        assert np.array_equal(
            getattr(comparison.event, column)[:rows], getattr(comparison.periodic, column)[:rows]
        ), column


def test_event_trace_owns_its_columns():
    """A fully shared prefix still gives the event trace arrays of its own."""
    args = _config_run("feasible_demo")
    comparison = compare_policies(*args)
    assert _first_decline(comparison) is None
    for column in _COLUMNS:
        assert not np.shares_memory(
            getattr(comparison.event, column), getattr(comparison.periodic, column)
        ), column
    assert comparison.event.policy == TriggerPolicy.event(args[4])


def test_decline_at_step_one(holding_system):
    A, B, model, params = holding_system
    out = synthesize(A, B, model, params)
    comparison = _traces_against_oracle(
        A, B, model, out.K, 30.0, ParamTrajectory.random(5), [1.0, -1.0], 25, out.P
    )
    assert _first_decline(comparison) == 1


@pytest.mark.parametrize(
    "mu, decline, n_steps",
    [(0.3, None, n) for n in (60, 24, 25)] + [(0.5, 1, n) for n in (60, 24, 25)],
    ids=["in prefix", "in prefix-24", "in prefix-25"]
    + ["after decline", "after decline-24", "after decline-25"],
)
def test_divergence_and_the_prefix(mu, decline, n_steps):
    """x(k) = 3 x(k - 1): the rule sees e'e = (4/9) x'x at every decision row.

    |x(k)| = sqrt(2) 3^k first passes 1e12 at k = 25 (1.2e12; 4.0e11 at
    k = 24), so 24 steps stay bounded, and at 25 the cut falls on the
    terminal row.
    """
    model = UncertaintyModel(basis=(0.0 * np.eye(2),), p_lo=[-1.0], p_hi=[1.0], F=np.eye(2))
    comparison = _traces_against_oracle(
        3.0 * np.eye(2), [[0.0], [1.0]], model, np.zeros((1, 2)), mu,
        ParamTrajectory.random(4), [1.0, 1.0], n_steps, np.eye(2),
    )
    for trace in (comparison.periodic, comparison.event):
        assert trace.diverged == (n_steps >= 25)
        assert trace.n_steps == min(n_steps, 25) and not trace.triggered[-1]
    assert _first_decline(comparison) == decline


def test_origin_declines_at_step_one(reference_gain):
    A, B, model, out = reference_gain
    comparison = _traces_against_oracle(
        A, B, model, out.K, 0.29, ParamTrajectory.constant([0.8]), [0.0, 0.0], 15, out.P
    )
    assert _first_decline(comparison) == 1
    assert comparison.event.transmissions == 1


@pytest.mark.parametrize("mu", [1e-9, 0.29, 30.0])
def test_single_step_runs(reference_gain, mu):
    """One step has no decision row: the event run is the periodic one."""
    A, B, model, out = reference_gain
    comparison = _traces_against_oracle(
        A, B, model, out.K, mu, ParamTrajectory.constant([0.8]), [1.0, -1.0], 1, out.P
    )
    assert comparison.event.transmissions == comparison.periodic.transmissions == 1


@pytest.mark.parametrize("d", range(4))
def test_prefix_sweep_over_parameter_dimensions(d):
    """mu from 1e-9 to 5 on random loops: runs that never decline, decline at row 1 or later."""
    rng = np.random.default_rng(300 + d)
    declines = set()
    for n in (1, 2, 3, 5):
        A = rng.normal(size=(n, n))
        A *= 0.9 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-3)
        B, K = rng.normal(size=(n, 2)), 0.3 * rng.normal(size=(2, n))
        model = UncertaintyModel(
            basis=tuple(0.1 * rng.normal(size=(d, n, n))),
            p_lo=-np.ones(d), p_hi=np.ones(d), F=np.eye(n),
        )
        for mu in (1e-9, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0):
            comparison = _traces_against_oracle(
                A, B, model, K, mu, ParamTrajectory.random(n + d), rng.normal(size=n), 30, np.eye(n)
            )
            declines.add(_first_decline(comparison))
    assert None in declines and len(declines - {None, 1}) > 0


def test_event_rule_on_arrays_is_the_rule_on_each_pair():
    """The prefix scan applies _transmits to whole columns; each entry is the scalar rule."""
    e_sq = np.array([0.0, 0.0, 1.0, 0.29, 0.28, np.nan, 1.0, np.inf, 0.0])
    x_sq = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0, np.nan, 1.0, np.inf])
    fires = _transmits(e_sq, x_sq, 0.29)
    assert fires.tolist() == [_transmits(float(e), float(x), 0.29) for e, x in zip(e_sq, x_sq)]
    assert fires.tolist() == [False, False, True, True, False, False, False, True, False]
    assert _transmits(0.0, 0.0, 0.29) is False and _transmits(0.3, 1.0, 0.29) is True


def test_overflow_inside_the_prefix(demo_system):
    """A run that overflows at row 1 has no decision row: the event run is the periodic one."""
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    args = (np.diag([1e300, -1e300]), B, model, np.zeros((1, 2)))
    rest = (ParamTrajectory.random(7), [1e10, 1e10], 30, out.P)
    comparison = compare_policies(*args, out.mu, *rest)
    single = simulate(*args, TriggerPolicy.event(out.mu), *rest)
    assert comparison.event.diverged and comparison.event.n_steps == 1
    assert np.isinf(comparison.event.thresholds[-1])
    for column in _COLUMNS:
        assert np.array_equal(
            getattr(comparison.event, column), getattr(single, column), equal_nan=True
        ), column


@pytest.mark.parametrize("n", range(1, 9))
def test_quadratic_rows_are_the_row_dots(n):
    """The shared-prefix scan reads x'x and e'e from _quadratic_rows: the loop's own dots."""
    rng = np.random.default_rng(n)
    S = rng.normal(size=(41, n)) * np.exp2(rng.integers(-30, 30, size=(41, 1)))
    S[3] = 0.0
    expected = np.array([float(s.dot(s)) for s in S])
    assert np.array_equal(_quadratic_rows(S), expected)
    M = rng.normal(size=(n, n))
    assert np.array_equal(_quadratic_rows(S, M), [float(s @ M @ s) for s in S])
