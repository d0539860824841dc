"""Closed-loop simulation under periodic or event-triggered transmission.

The controller side holds the most recently transmitted state and applies
u = K x_held between transmissions (zero-order hold). A periodic policy
transmits every step; an event policy transmits when the squared holding
error reaches a fraction mu of the squared state norm. Parameter
trajectories describe how the uncertain plant parameters evolve over the
horizon. They are realized once per run, together with the plant matrices
A + dA(p_k) along the run, so that policy comparisons see the exact same
plant.
"""

from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, require_square, symmetrize
from .synthesis import UncertaintyModel, _require_state_dim

DIVERGENCE_NORM = 1e12

POLICY_PERIODIC = "periodic"
POLICY_EVENT = "event"

TRAJ_CONSTANT = "constant"
TRAJ_RAMP = "ramp"
TRAJ_SEQUENCE = "sequence"
TRAJ_RANDOM = "random"


@dataclass(frozen=True)
class TriggerPolicy:
    """Transmission policy: kind is "periodic" or "event".

    mu is the relative threshold coefficient and must be present (and
    finite and positive) exactly when kind is "event".
    """

    kind: str
    mu: float | None = None

    def __post_init__(self):
        if self.kind not in (POLICY_PERIODIC, POLICY_EVENT):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == POLICY_EVENT:
            if self.mu is None:
                raise ValueError("event policy requires a threshold coefficient mu")
            object.__setattr__(self, "mu", float(self.mu))
            if not np.isfinite(self.mu):
                raise ValueError("mu must be finite")
            if self.mu <= 0.0:
                raise ValueError("mu must be positive")
        elif self.mu is not None:
            raise ValueError("periodic policy takes no threshold coefficient")

    @classmethod
    def periodic(cls) -> "TriggerPolicy":
        return cls(kind=POLICY_PERIODIC)

    @classmethod
    def event(cls, mu: float) -> "TriggerPolicy":
        return cls(kind=POLICY_EVENT, mu=mu)


@dataclass(frozen=True)
class ParamTrajectory:
    """How the plant parameters evolve over the simulation horizon.

    kind is one of "constant", "ramp", "sequence", or "random". constant
    holds value; ramp interpolates linearly from start to end across the
    horizon; sequence plays back given rows; random draws each step
    uniformly from the parameter box using the given seed, a nonnegative
    integer. Every given value must be finite; values outside the box are
    clamped with a warning when realized.
    """

    kind: str
    value: np.ndarray | None = None
    start: np.ndarray | None = None
    end: np.ndarray | None = None
    values: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (TRAJ_CONSTANT, TRAJ_RAMP, TRAJ_SEQUENCE, TRAJ_RANDOM):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        for name, coerce in (
            ("value", np.atleast_1d),
            ("start", np.atleast_1d),
            ("end", np.atleast_1d),
            ("values", np.atleast_2d),
        ):
            v = getattr(self, name)
            if v is not None:
                v = coerce(np.asarray(v, dtype=float))
                if not np.all(np.isfinite(v)):
                    raise ValueError(f"{name} must be finite")
                object.__setattr__(self, name, v)
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        object.__setattr__(self, "seed", seed)
        if self.kind == TRAJ_CONSTANT and self.value is None:
            raise ValueError("constant trajectory requires a value")
        if self.kind == TRAJ_RAMP and (self.start is None or self.end is None):
            raise ValueError("ramp trajectory requires start and end")
        if self.kind == TRAJ_SEQUENCE and self.values is None:
            raise ValueError("sequence trajectory requires values")

    @classmethod
    def constant(cls, value) -> "ParamTrajectory":
        return cls(kind=TRAJ_CONSTANT, value=value)

    @classmethod
    def ramp(cls, start, end) -> "ParamTrajectory":
        return cls(kind=TRAJ_RAMP, start=start, end=end)

    @classmethod
    def sequence(cls, values) -> "ParamTrajectory":
        return cls(kind=TRAJ_SEQUENCE, values=values)

    @classmethod
    def random(cls, seed: int = 0) -> "ParamTrajectory":
        return cls(kind=TRAJ_RANDOM, seed=seed)

    def realize(self, n_steps: int, model: UncertaintyModel):
        """Materialize n_steps + 1 parameter rows, clamped into the box.

        Returns (rows, clamped_count) where clamped_count is the number of
        rows that had to be clipped; a warning is emitted when nonzero.
        """
        d = model.dimension
        rows = None
        if self.kind == TRAJ_CONSTANT:
            if self.value.shape != (d,):
                raise ValueError(f"value has shape {self.value.shape}, expected ({d},)")
            rows = np.tile(self.value, (n_steps + 1, 1))
        elif self.kind == TRAJ_RAMP:
            if self.start.shape != (d,) or self.end.shape != (d,):
                raise ValueError(f"start and end must have shape ({d},)")
            if n_steps == 0:
                rows = self.start[None, :].copy()
            else:
                fractions = np.arange(n_steps + 1) / n_steps
                rows = self.start[None, :] + fractions[:, None] * (self.end - self.start)[None, :]
        elif self.kind == TRAJ_SEQUENCE:
            if self.values.shape[1] != d:
                raise ValueError(
                    f"sequence rows have length {self.values.shape[1]}, expected {d}"
                )
            if self.values.shape[0] < n_steps + 1:
                raise ValueError(
                    f"sequence provides {self.values.shape[0]} rows, "
                    f"needs at least {n_steps + 1}"
                )
            rows = self.values[: n_steps + 1].copy()
        elif self.kind == TRAJ_RANDOM:
            rng = np.random.default_rng(self.seed)
            rows = rng.uniform(model.p_lo, model.p_hi, size=(n_steps + 1, d))
        clipped = np.clip(rows, model.p_lo, model.p_hi)
        clamped = int(np.sum(np.any(clipped != rows, axis=1)))
        if clamped:
            warnings.warn(
                f"{clamped} parameter rows fell outside the box and were clamped",
                stacklevel=2,
            )
        return clipped, clamped


def should_trigger(x, x_held, mu: float) -> bool:
    """Relative threshold rule: transmit when ||x_held - x||^2 >= mu ||x||^2.

    The boundary counts as a transmission. The corner case of a zero state
    with zero holding error does not retransmit, because the controller
    already holds the exact state.
    """
    x = np.asarray(x, dtype=float)
    e = np.asarray(x_held, dtype=float) - x
    e_sq = float(e @ e)
    x_sq = float(x @ x)
    if e_sq == 0.0 and x_sq == 0.0:
        return False
    return e_sq >= float(mu) * x_sq


@dataclass
class SimTrace:
    """Row-per-step record of one closed-loop run.

    Row k (for k = 0 .. n_steps - 1) describes the state at time k, the
    transmission decision taken there, and the input applied while moving
    to k + 1. The final row records the terminal state; no decision happens
    there, so its triggered flag is always False and its input is the held
    value. errors holds the post-decision holding error (zero right after a
    transmission); monitored_sq holds the squared error the trigger rule
    examined before deciding, which is what the trace file exports.
    """

    states: np.ndarray
    inputs: np.ndarray
    errors: np.ndarray
    monitored_sq: np.ndarray
    thresholds: np.ndarray
    triggered: np.ndarray
    p: np.ndarray
    V: np.ndarray
    diverged: bool
    clamped_steps: int
    policy: TriggerPolicy

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def transmissions(self) -> int:
        return int(self.triggered.sum())

    @property
    def trigger_indices(self) -> np.ndarray:
        return np.flatnonzero(self.triggered)

    @property
    def inter_event_gaps(self) -> np.ndarray:
        return np.diff(self.trigger_indices)


@dataclass
class PolicyComparison:
    """Paired periodic and event runs over one realized parameter path."""

    periodic: SimTrace
    event: SimTrace
    savings_ratio: float
    min_gap: float | None
    mean_gap: float | None
    max_gap: float | None


def _validated_run(A, B, K, P, x0, n_steps):
    """Coerce and shape-check the closed-loop inputs of one run."""
    A = require_square(A, "A")
    B = as_matrix(B, "B")
    K = as_matrix(K, "K")
    P = symmetrize(P, "P")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    n, m = A.shape[0], B.shape[1]
    shapes = {"B": (n, m), "K": (m, n), "P": (n, n), "x0": (n,)}
    for (name, shape), value in zip(shapes.items(), (B, K, P, x0)):
        if value.shape != shape:
            raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 contains non-finite entries")
    return A, B, K, P, x0, n_steps


def _realized_plant(A, model, trajectory, n_steps):
    """The parameter rows of one run and the plant matrices A + dA(p_k) along it."""
    _require_state_dim(model, A)
    p_rows, clamped = trajectory.realize(n_steps, model)
    return A + model.matrix_at(p_rows[:n_steps]), p_rows, clamped


def _simulate_realized(plant, B, K, policy, p_rows, x0, P, clamped_steps):
    """Step x(k+1) = plant[k] x(k) + B u(k) through a realized plant stack.

    The loop carries only the state, the held state and the input, and
    records states, inputs and decisions; the other columns are derived
    from those once it ends.
    """
    n_steps = plant.shape[0]
    if policy.kind == POLICY_PERIODIC:
        transmits = lambda x, held: True  # noqa: E731
    else:
        transmits = functools.partial(should_trigger, mu=policy.mu)
    states = np.zeros((n_steps + 1, x0.size))
    inputs = np.zeros((n_steps + 1, B.shape[1]))
    triggered = np.zeros(n_steps + 1, dtype=bool)
    states[0] = x0
    held = u = None
    last, diverged = n_steps, False
    for k in range(n_steps):
        x = states[k]
        if k == 0 or transmits(x, held):
            held = x
            u = K @ held
            triggered[k] = True
        inputs[k] = u
        states[k + 1] = plant[k] @ x + B @ u
        # A non-finite state fails this comparison too.
        if not float(np.linalg.norm(states[k + 1])) <= DIVERGENCE_NORM:
            last, diverged = k + 1, True
            break
    inputs[last] = u

    end = last + 1
    states, inputs, triggered = states[:end], inputs[:end], triggered[:end]
    # The row whose state the controller holds after the decision at k, and
    # the one it held while deciding (row 0 compares the state with itself).
    held_after = np.maximum.accumulate(np.where(triggered, np.arange(end), 0))
    held_before = np.concatenate(([0], held_after[:-1]))
    if policy.kind == POLICY_PERIODIC:
        thresholds = np.zeros(end)
    else:
        thresholds = np.array([policy.mu * float(x @ x) for x in states])
    return SimTrace(
        states=states,
        inputs=inputs,
        errors=states[held_after] - states,
        monitored_sq=np.array([float(e @ e) for e in states[held_before] - states]),
        thresholds=thresholds,
        triggered=triggered,
        p=p_rows[:end].copy(),
        V=np.array([float(x @ P @ x) for x in states]),
        diverged=diverged,
        clamped_steps=clamped_steps,
        policy=policy,
    )


def simulate(
    A,
    B,
    model: UncertaintyModel,
    K,
    policy: TriggerPolicy,
    trajectory: ParamTrajectory,
    x0,
    n_steps: int,
    P,
) -> SimTrace:
    """Run one closed loop for n_steps plant steps.

    The trace has n_steps + 1 rows unless the state norm exceeds the
    divergence limit, in which case the run stops early with the diverged
    flag set. P supplies the Lyapunov value column V = x' P x.
    """
    A, B, K, P, x0, n_steps = _validated_run(A, B, K, P, x0, n_steps)
    plant, p_rows, clamped = _realized_plant(A, model, trajectory, n_steps)
    return _simulate_realized(plant, B, K, policy, p_rows, x0, P, clamped)


def compare_policies(
    A,
    B,
    model: UncertaintyModel,
    K,
    mu: float,
    trajectory: ParamTrajectory,
    x0,
    n_steps: int,
    P,
) -> PolicyComparison:
    """Run periodic and event policies against one shared plant realization.

    The parameter path and the plant matrices along it are realized once
    and reused, so the two traces differ only through the transmission
    policy. savings_ratio is 1 - event transmissions / periodic
    transmissions.
    """
    A, B, K, P, x0, n_steps = _validated_run(A, B, K, P, x0, n_steps)
    policies = (TriggerPolicy.periodic(), TriggerPolicy.event(mu))
    plant, p_rows, clamped = _realized_plant(A, model, trajectory, n_steps)
    periodic, event = (
        _simulate_realized(plant, B, K, policy, p_rows, x0, P, clamped) for policy in policies
    )
    savings = 1.0 - event.transmissions / periodic.transmissions
    gaps = event.inter_event_gaps
    stats = (float(gaps.min()), float(gaps.mean()), float(gaps.max())) if gaps.size else (None,) * 3
    return PolicyComparison(periodic, event, float(savings), *stats)
