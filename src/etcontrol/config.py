"""Experiment configuration: JSON schema, strict validation, scaffolding.

A configuration file fully describes one experiment: the plant, its
uncertainty model, the design weights, and the simulation settings. Parsing
is strict. Unknown keys, missing keys, wrong types, and inconsistent
dimensions all raise ConfigError with the dotted path of the offending
field, so a typo never turns into a silently different experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .simulation import (
    POLICY_EVENT,
    POLICY_PERIODIC,
    TRAJ_CONSTANT,
    TRAJ_RAMP,
    TRAJ_RANDOM,
    TRAJ_SEQUENCE,
    ParamTrajectory,
)
from .synthesis import SynthesisParams, UncertaintyModel

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SimulationSettings:
    x0: np.ndarray
    trajectory: ParamTrajectory
    n_steps: int = 20
    policy: str = POLICY_EVENT
    mu: float | None = None
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    A: np.ndarray
    B: np.ndarray
    model: UncertaintyModel
    params: SynthesisParams
    simulation: SimulationSettings
    schema_version: int = SCHEMA_VERSION


def _require_block(data, path, required, optional=()):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{path}: missing required key '{key}'")
    allowed = set(required) | set(optional)
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = float("inf")
    if not np.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {number}")
    return number


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {type(value).__name__}")
    return int(value)


def _as_seed(value, path):
    seed = _as_int(value, path)
    if seed < 0:
        raise ConfigError(f"{path}: must be a nonnegative integer, got {seed}")
    return seed


def _as_vector(value, path):
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: expected a list of numbers") from None
    if v.ndim != 1:
        raise ConfigError(f"{path}: expected a flat list of numbers, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{path}: contains non-finite entries")
    return v


def _as_matrix(value, path):
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: expected a list of rows of numbers") from None
    if m.ndim != 2:
        raise ConfigError(f"{path}: expected a list of rows, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"{path}: contains non-finite entries")
    return m


def _parse_trajectory(data, path, default_seed):
    _require_block(data, path, required=("kind",), optional=("value", "start", "end", "values", "seed"))
    kind = data["kind"]
    if kind == TRAJ_CONSTANT:
        _require_block(data, path, required=("kind", "value"))
        return ParamTrajectory.constant(_as_vector(data["value"], f"{path}.value"))
    if kind == TRAJ_RAMP:
        _require_block(data, path, required=("kind", "start", "end"))
        return ParamTrajectory.ramp(
            _as_vector(data["start"], f"{path}.start"),
            _as_vector(data["end"], f"{path}.end"),
        )
    if kind == TRAJ_SEQUENCE:
        _require_block(data, path, required=("kind", "values"))
        return ParamTrajectory.sequence(_as_matrix(data["values"], f"{path}.values"))
    if kind == TRAJ_RANDOM:
        _require_block(data, path, required=("kind",), optional=("seed",))
        seed = _as_seed(data["seed"], f"{path}.seed") if "seed" in data else default_seed
        return ParamTrajectory.random(seed)
    raise ConfigError(
        f"{path}.kind: unknown trajectory kind {kind!r} "
        f"(expected one of constant, ramp, sequence, random)"
    )


def config_from_dict(data) -> ExperimentConfig:
    """Build a validated ExperimentConfig from parsed JSON."""
    _require_block(
        data, "config", required=("schema_version", "system", "uncertainty", "design", "simulation")
    )
    version = _as_int(data["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version}"
        )

    sys_block = data["system"]
    _require_block(sys_block, "system", required=("A", "B"))
    A = _as_matrix(sys_block["A"], "system.A")
    B = _as_matrix(sys_block["B"], "system.B")
    if A.shape[0] != A.shape[1]:
        raise ConfigError(f"system.A: must be square, got shape {A.shape}")
    n = A.shape[0]
    if B.shape[0] != n:
        raise ConfigError(f"system.B: has {B.shape[0]} rows, expected {n}")

    unc = data["uncertainty"]
    _require_block(unc, "uncertainty", required=("basis", "p_lo", "p_hi", "F"))
    if not isinstance(unc["basis"], list):
        raise ConfigError("uncertainty.basis: expected a list of matrices")
    basis = tuple(
        _as_matrix(e, f"uncertainty.basis[{i}]") for i, e in enumerate(unc["basis"])
    )
    for i, e in enumerate(basis):
        if e.shape != (n, n):
            raise ConfigError(
                f"uncertainty.basis[{i}]: has shape {e.shape}, expected {(n, n)}"
            )
    p_lo = _as_vector(unc["p_lo"], "uncertainty.p_lo")
    p_hi = _as_vector(unc["p_hi"], "uncertainty.p_hi")
    F = _as_matrix(unc["F"], "uncertainty.F")
    if F.shape != (n, n):
        raise ConfigError(f"uncertainty.F: has shape {F.shape}, expected {(n, n)}")
    try:
        model = UncertaintyModel(basis=basis, p_lo=p_lo, p_hi=p_hi, F=F)
    except ValueError as exc:
        raise ConfigError(f"uncertainty: {exc}") from None

    design = data["design"]
    _require_block(
        design, "design", required=("Q", "R1", "R2", "alpha", "beta", "epsilon", "sigma")
    )
    try:
        params = SynthesisParams(
            Q=_as_matrix(design["Q"], "design.Q"),
            R1=_as_matrix(design["R1"], "design.R1"),
            R2=_as_matrix(design["R2"], "design.R2"),
            alpha=_as_float(design["alpha"], "design.alpha"),
            beta=_as_float(design["beta"], "design.beta"),
            epsilon=_as_float(design["epsilon"], "design.epsilon"),
            sigma=_as_float(design["sigma"], "design.sigma"),
        )
    except ValueError as exc:
        raise ConfigError(f"design: {exc}") from None
    if params.Q.shape != (n, n):
        raise ConfigError(f"design.Q: has shape {params.Q.shape}, expected {(n, n)}")
    m = B.shape[1]
    if params.R1.shape != (m, m):
        raise ConfigError(f"design.R1: has shape {params.R1.shape}, expected {(m, m)}")
    if params.R2.shape != (n, n):
        raise ConfigError(f"design.R2: has shape {params.R2.shape}, expected {(n, n)}")

    sim = data["simulation"]
    _require_block(
        sim,
        "simulation",
        required=("x0", "trajectory"),
        optional=("n_steps", "policy", "mu", "seed"),
    )
    x0 = _as_vector(sim["x0"], "simulation.x0")
    if x0.shape != (n,):
        raise ConfigError(f"simulation.x0: has length {x0.size}, expected {n}")
    n_steps = _as_int(sim.get("n_steps", 20), "simulation.n_steps")
    if n_steps < 1:
        raise ConfigError("simulation.n_steps: must be at least 1")
    policy = sim.get("policy", POLICY_EVENT)
    if policy not in (POLICY_EVENT, POLICY_PERIODIC):
        raise ConfigError(
            f"simulation.policy: unknown policy {policy!r} (expected event or periodic)"
        )
    mu = sim.get("mu")
    if mu is not None:
        mu = _as_float(mu, "simulation.mu")
        if mu <= 0.0:
            raise ConfigError("simulation.mu: must be positive")
        if policy != POLICY_EVENT:
            raise ConfigError("simulation.mu: only valid for the event policy")
    seed = _as_seed(sim.get("seed", 0), "simulation.seed")
    trajectory = _parse_trajectory(sim["trajectory"], "simulation.trajectory", seed)
    if trajectory.kind == TRAJ_CONSTANT and trajectory.value.shape != (model.dimension,):
        raise ConfigError(
            f"simulation.trajectory.value: has length {trajectory.value.size}, "
            f"expected {model.dimension}"
        )

    settings = SimulationSettings(
        x0=x0, trajectory=trajectory, n_steps=n_steps, policy=policy, mu=mu, seed=seed
    )
    return ExperimentConfig(
        A=A, B=B, model=model, params=params, simulation=settings, schema_version=version
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment configuration."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(data)


def _trajectory_to_dict(trajectory: ParamTrajectory) -> dict:
    if trajectory.kind == TRAJ_CONSTANT:
        return {"kind": trajectory.kind, "value": trajectory.value.tolist()}
    if trajectory.kind == TRAJ_RAMP:
        return {
            "kind": trajectory.kind,
            "start": trajectory.start.tolist(),
            "end": trajectory.end.tolist(),
        }
    if trajectory.kind == TRAJ_SEQUENCE:
        return {"kind": trajectory.kind, "values": trajectory.values.tolist()}
    return {"kind": trajectory.kind, "seed": trajectory.seed}


def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-data form of a configuration, suitable for JSON round-trips."""
    sim = config.simulation
    return {
        "schema_version": config.schema_version,
        "system": {"A": config.A.tolist(), "B": config.B.tolist()},
        "uncertainty": {
            "basis": [e.tolist() for e in config.model.basis],
            "p_lo": config.model.p_lo.tolist(),
            "p_hi": config.model.p_hi.tolist(),
            "F": config.model.F.tolist(),
        },
        "design": {
            "Q": config.params.Q.tolist(),
            "R1": config.params.R1.tolist(),
            "R2": config.params.R2.tolist(),
            "alpha": config.params.alpha,
            "beta": config.params.beta,
            "epsilon": config.params.epsilon,
            "sigma": config.params.sigma,
        },
        "simulation": {
            "x0": sim.x0.tolist(),
            "n_steps": sim.n_steps,
            "policy": sim.policy,
            "mu": sim.mu,
            "seed": sim.seed,
            "trajectory": _trajectory_to_dict(sim.trajectory),
        },
    }


def save_config(config: ExperimentConfig, path) -> None:
    """Write a configuration as deterministic, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config_to_dict(config), handle, indent=2, sort_keys=True)
        handle.write("\n")


def scaffold_config() -> ExperimentConfig:
    """A small self-contained example where every design condition holds.

    Two-state plant with one input, one uncertain parameter entering
    through the first state row, and a design window wide enough for the
    whole box. Useful as a template and as a smoke test.
    """
    return config_from_dict(
        {
            "schema_version": SCHEMA_VERSION,
            "system": {"A": [[0.0, 0.3], [0.3, 0.0]], "B": [[0.0], [1.0]]},
            "uncertainty": {
                "basis": [[[0.1, 0.1], [0.0, 0.0]]],
                "p_lo": [-0.3],
                "p_hi": [0.3],
                "F": [[0.02, 0.0], [0.0, 0.02]],
            },
            "design": {
                "Q": [[0.01, 0.0], [0.0, 0.01]],
                "R1": [[0.01]],
                "R2": [[1.0, 0.0], [0.0, 1.0]],
                "alpha": 1.0,
                "beta": 0.2,
                "epsilon": 10.0,
                "sigma": 0.5,
            },
            "simulation": {
                "x0": [1.0, -1.0],
                "n_steps": 30,
                "policy": "event",
                "mu": None,
                "seed": 7,
                "trajectory": {"kind": "random", "seed": 7},
            },
        }
    )
