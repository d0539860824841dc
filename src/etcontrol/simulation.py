"""Closed-loop simulation under periodic or event-triggered transmission.

The controller side holds the most recently transmitted state and applies
u = K x_held between transmissions (zero-order hold). A periodic policy
transmits every step; an event policy transmits when the squared holding
error reaches a fraction mu of the squared state norm. Parameter
trajectories describe how the uncertain plant parameters evolve over the
horizon. They are realized once per run, together with the plant matrices
A + dA(p_k) along the run, so that policy comparisons see the exact same
plant. simulate and compare_policies validate the arrays of a design once:
the model keeps the conformed A, B, K and P of its last run as read-only
copies (synthesis._kept), and repeated runs of that design reuse them.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import as_real, as_scalar
from .synthesis import UncertaintyModel, _conform, _kept, _read_only

DIVERGENCE_NORM = 1e12

POLICY_PERIODIC = "periodic"
POLICY_EVENT = "event"

TRAJ_CONSTANT = "constant"
TRAJ_RAMP = "ramp"
TRAJ_SEQUENCE = "sequence"
TRAJ_RANDOM = "random"

# The trajectory kinds and the fields each takes, with each field's number
# of array dimensions: 1 for one row of box parameters, 2 for one row per
# step, 0 for the integer seed. ParamTrajectory and the configuration
# format (parsing and saving) both read their fields from here.
TRAJECTORY_FIELDS = {
    TRAJ_CONSTANT: {"value": 1},
    TRAJ_RAMP: {"start": 1, "end": 1},
    TRAJ_SEQUENCE: {"values": 2},
    TRAJ_RANDOM: {"seed": 0},
}


@dataclass(frozen=True)
class TriggerPolicy:
    """Transmission policy: kind is "periodic" or "event".

    mu is the relative threshold coefficient and must be present (a real
    number, finite and positive) exactly when kind is "event".
    """

    kind: str
    mu: float | None = None

    def __post_init__(self):
        if self.kind not in (POLICY_PERIODIC, POLICY_EVENT):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == POLICY_EVENT:
            if self.mu is None:
                raise ValueError("event policy requires a threshold coefficient mu")
            object.__setattr__(self, "mu", as_scalar(self.mu, "mu"))
            if not math.isfinite(self.mu):
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


def _integer(value, name: str) -> int:
    """value as an int; anything else, a bool included, raises ValueError naming name."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ParamTrajectory:
    """How the plant parameters evolve over the simulation horizon.

    kind is one of "constant", "ramp", "sequence", or "random". constant
    holds value; ramp interpolates linearly from start to end across the
    horizon; sequence plays back given rows; random draws each step
    uniformly from the parameter box using the given seed, a nonnegative
    integer. Every given value must be real and finite; values outside the
    box are clamped with a warning when realized.
    """

    kind: str
    value: np.ndarray | None = None
    start: np.ndarray | None = None
    end: np.ndarray | None = None
    values: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        # A str test first: an unhashable kind cannot be looked up.
        if not isinstance(self.kind, str) or self.kind not in TRAJECTORY_FIELDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        for fields in TRAJECTORY_FIELDS.values():
            for name, ndim in fields.items():
                v = getattr(self, name)
                if ndim and v is not None:
                    v = (np.atleast_1d if ndim == 1 else np.atleast_2d)(as_real(v, name))
                    if not np.all(np.isfinite(v)):
                        raise ValueError(f"{name} must be finite")
                    object.__setattr__(self, name, v)
        seed = _integer(self.seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        object.__setattr__(self, "seed", seed)
        fields = TRAJECTORY_FIELDS[self.kind]
        if any(getattr(self, name) is None for name in fields):
            raise ValueError(f"{self.kind} trajectory requires {' and '.join(fields)}")

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

    def check_fits(self, dimension: int, n_steps: int) -> None:
        """Raise ValueError, its message starting with the field's name, unless the trajectory fits.

        A value, start or end needs one entry per box parameter, and a
        sequence at least n_steps + 1 rows of that length. A ramp's span
        end - start must be finite. A random one fits.
        """
        for name, ndim in TRAJECTORY_FIELDS[self.kind].items():
            v = getattr(self, name)
            if ndim and v.shape[ndim - 1 :] != (dimension,):
                if v.ndim > ndim:
                    raise ValueError(f"{name}: has {v.ndim} dimensions, expected {ndim}")
                length = "has length" if ndim == 1 else "rows have length"
                raise ValueError(f"{name}: {length} {v.shape[-1]}, expected {dimension}")
            if ndim == 2 and len(v) < n_steps + 1:
                raise ValueError(f"{name}: needs at least {n_steps + 1} rows, has {len(v)}")
        if self.kind == TRAJ_RAMP:
            with np.errstate(over="ignore"):
                if not np.isfinite(self.end - self.start).all():
                    raise ValueError("end: the ramp's span end - start must be finite")

    def realize(self, n_steps: int, model: UncertaintyModel):
        """Materialize n_steps + 1 parameter rows, clamped into the box.

        Returns (rows, clamped_count) where clamped_count is the number of
        rows that had to be clipped; a warning is emitted when nonzero.
        """
        d = model.dimension
        if self.kind == TRAJ_RANDOM:
            # Generator.uniform(p_lo, p_hi, size): it draws
            # p_lo + (p_hi - p_lo) * random() in the same order, bit for bit,
            # but its array-bound path takes about twice as long. The model
            # guarantees a finite width, so uniform's overflow check cannot fire.
            span = model.p_hi - model.p_lo
            rows = model.p_lo + span * np.random.default_rng(self.seed).random((n_steps + 1, d))
        else:
            self.check_fits(d, n_steps)
            if self.kind == TRAJ_CONSTANT:
                rows = np.tile(self.value, (n_steps + 1, 1))
            elif self.kind == TRAJ_SEQUENCE:
                rows = self.values[: n_steps + 1].copy()
            elif n_steps == 0:  # a ramp over no step stays at its start
                rows = self.start[None, :].copy()
            else:
                fractions = np.arange(n_steps + 1) / n_steps
                rows = self.start[None, :] + fractions[:, None] * (self.end - self.start)[None, :]
        # np.clip's arithmetic without its dispatch.
        clipped = np.minimum(np.maximum(rows, model.p_lo), model.p_hi)
        clamped = int(np.count_nonzero((clipped != rows).any(axis=1)))
        if clamped:
            warnings.warn(
                f"{clamped} parameter rows fell outside the box and were clamped",
                stacklevel=2,
            )
        return clipped, clamped


def _transmits(e_sq, x_sq, mu: float):
    """The event rule on squared norms: e_sq = ||x_held - x||^2 >= mu ||x||^2 = mu x_sq.

    The boundary counts as a transmission. A zero state with zero error does
    not retransmit: the controller already holds the exact state. Takes
    floats, or arrays elementwise; a NaN operand declines.
    """
    return (e_sq >= mu * x_sq) & ((e_sq != 0.0) | (x_sq != 0.0))


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
        return int(np.count_nonzero(self.triggered))

    @property
    def trigger_indices(self) -> np.ndarray:
        return np.flatnonzero(self.triggered)

    @property
    def inter_event_gaps(self) -> np.ndarray:
        indices = self.trigger_indices
        return indices[1:] - indices[:-1]


# TriggerPolicy is frozen, so every periodic run of compare_policies shares one.
_PERIODIC = TriggerPolicy.periodic()
# The columns an event run that transmits at every decision row has in
# common with the periodic run; only its thresholds differ.
_SHARED_COLUMNS = ("states", "inputs", "errors", "monitored_sq", "triggered", "p", "V")


@dataclass
class PolicyComparison:
    """Paired periodic and event runs over one realized parameter path."""

    periodic: SimTrace
    event: SimTrace
    savings_ratio: float
    min_gap: float | None
    mean_gap: float | None
    max_gap: float | None


def _validated_run(x0, n_steps, n):
    """Coerce the initial state of one run to a finite (n,) row and check n_steps, an integer."""
    x0 = np.atleast_1d(as_real(x0, "x0"))
    n_steps = _integer(n_steps, "n_steps")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected {(n,)}")
    if not np.isfinite(x0).all():
        raise ValueError("x0 contains non-finite entries")
    return x0, n_steps


def _conformed_run(model, A, B, K, P):
    """_conform(model, A=A, B=B, K=K, P=P), kept on the model as read-only C-ordered copies."""

    def build():
        conformed = _conform(model, A=A, B=B, K=K, P=P)
        return tuple(None if M is None else _read_only(np.array(M, order="C")) for M in conformed)

    return _kept(model, "_run_arrays", build, (A, B, K, P))


def _realized_plant(A, model, trajectory, n_steps):
    """The parameter rows of one run and the plant matrices A + dA(p_k) along it."""
    p_rows, clamped = trajectory.realize(n_steps, model)
    return A + model.matrix_at(p_rows[:n_steps]), p_rows, clamped


def _quadratic_rows(S, M=None):
    """S_k' M S_k for each row S_k of S (S_k' S_k when M is None).

    Stacked np.matmul makes, for each row, the same BLAS call as the 1-D
    float(x @ M @ x), so the column equals that per-row loop bit for bit;
    einsum and sum reductions accumulate in another order and do not.
    """
    left = S[:, None, :] if M is None else np.matmul(S[:, None, :], M)
    return np.matmul(left, S[:, :, None])[:, 0, 0]


def _step(plant, B, K, x0, mu):
    """Step x(k+1) = plant[k] x(k) + B u(k) through a realized plant stack.

    Returns the state rows, the K x rows and the decisions over the whole
    horizon. mu None transmits at every step; otherwise row 0 transmits and
    the event rule decides every later row. The loop carries only the
    state, the held state and B u. It writes each new state into its row of
    states and, on a transmitting step, K x into its row of inputs, with
    ndarray.dot and out=: the BLAS call of @ without the ufunc dispatch or
    a copy. B u is formed only when a transmission changes u, and only the
    event rule forms x'x and the holding error, once per row. A diverging
    run steps on to the horizon; _trace cuts it.
    """
    n_steps = plant.shape[0]
    states = np.zeros((n_steps + 1, x0.size))
    inputs = np.zeros((n_steps + 1, B.shape[1]))
    triggered = np.zeros(n_steps + 1, dtype=bool)
    states[0] = x0
    x = states[0]
    fire = True
    for k, (plant_k, x_next, u_k) in enumerate(zip(plant, states[1:], inputs)):
        if fire:
            held = x
            Bu = B.dot(K.dot(held, out=u_k))
            triggered[k] = True
        x = plant_k.dot(x, out=x_next)
        x += Bu
        if mu is not None:
            e = held - x
            fire = _transmits(float(e.dot(e)), float(x.dot(x)), mu)
    return states, inputs, triggered


def _trace(states, inputs, triggered, p_rows, P, policy, clamped_steps):
    """The SimTrace of the rows _step recorded, cut where the run diverged, and its x'x.

    The run diverges at the first row after row 0 whose state norm exceeds
    DIVERGENCE_NORM or is not finite; the trace ends with that row, whose
    triggered entry is set to False in place, since no decision is kept
    there. Every row's input is gathered from the row that last
    transmitted, and V, monitored_sq and x'x (for the cut and an event
    run's thresholds mu x'x) come from stacked matmuls (_quadratic_rows),
    bit for bit the per-row dots. x'x is returned too, one entry per row
    of the trace.
    """
    x_sq = _quadratic_rows(states)
    # A non-finite state fails this comparison too.
    past = np.flatnonzero(~(np.sqrt(x_sq[1:]) <= DIVERGENCE_NORM))
    end = int(past[0]) + 2 if past.size else len(states)
    states, triggered = states[:end], triggered[:end]
    triggered[-1] = False
    # The row whose state the controller holds after the decision at k, and
    # the one it held while deciding (row 0 compares the state with itself).
    held_after = np.maximum.accumulate(np.where(triggered, np.arange(end), 0))
    held_before = np.concatenate(([0], held_after[:-1]))
    trace = SimTrace(
        states=states,
        inputs=inputs[held_after],
        errors=states[held_after] - states,
        monitored_sq=_quadratic_rows(states[held_before] - states),
        thresholds=np.zeros(end) if policy.mu is None else policy.mu * x_sq[:end],
        triggered=triggered,
        p=p_rows[:end].copy(),
        V=_quadratic_rows(states, P),
        diverged=bool(past.size),
        clamped_steps=clamped_steps,
        policy=policy,
    )
    return trace, x_sq[:end]


# A run whose state overflows ends in a diverged trace, so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
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
    divergence limit: the run still steps to its horizon, and the trace
    ends with the first row past the limit, with the diverged flag set. P
    supplies the Lyapunov value column V = x' P x.
    """
    A, B, K, P = _conformed_run(model, A, B, K, P)
    x0, n_steps = _validated_run(x0, n_steps, len(A))
    plant, p_rows, clamped = _realized_plant(A, model, trajectory, n_steps)
    return _trace(*_step(plant, B, K, x0, policy.mu), p_rows, P, policy, clamped)[0]


# A run whose state overflows ends in a diverged trace, so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
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

    The periodic run goes first. When the event rule fires at every
    decision row of the periodic trace's own numbers (its monitored_sq and
    x'x columns, the operands the event loop would form), the event run
    would repeat the periodic run bit for bit, a divergence included: its
    trace is then built from copies of the periodic trace's columns, with
    thresholds mu x'x from the same x'x, and no event loop runs. Otherwise
    the event loop runs from row 0. Every column equals that of simulate
    under the same policy, and neither trace shares memory with the other.
    The mean inter-event gap is the exact integer sum over the count, the
    bits of gaps.mean().
    """
    A, B, K, P = _conformed_run(model, A, B, K, P)
    x0, n_steps = _validated_run(x0, n_steps, len(A))
    event_policy = TriggerPolicy.event(mu)
    mu = event_policy.mu
    plant, p_rows, clamped = _realized_plant(A, model, trajectory, n_steps)
    periodic, x_sq = _trace(*_step(plant, B, K, x0, None), p_rows, P, _PERIODIC, clamped)
    # The rule at the decision rows 1 .. n - 1 of the periodic run.
    decided = slice(1, periodic.n_steps)
    if _transmits(periodic.monitored_sq[decided], x_sq[decided], mu).all():
        event = SimTrace(
            **{name: getattr(periodic, name).copy() for name in _SHARED_COLUMNS},
            thresholds=mu * x_sq,
            diverged=periodic.diverged,
            clamped_steps=clamped,
            policy=event_policy,
        )
    else:
        event, _ = _trace(*_step(plant, B, K, x0, mu), p_rows, P, event_policy, clamped)
    savings = 1.0 - event.transmissions / periodic.transmissions
    gaps = event.inter_event_gaps
    # The sum of integer gaps is exact, so this is gaps.mean() bit for bit.
    stats = (
        (float(gaps.min()), float(gaps.sum() / gaps.size), float(gaps.max()))
        if gaps.size
        else (None,) * 3
    )
    return PolicyComparison(periodic, event, float(savings), *stats)
