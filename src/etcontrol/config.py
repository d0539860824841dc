"""Experiment configuration: JSON schema, strict validation, scaffolding.

A configuration file fully describes one experiment: the plant, its
uncertainty model, the design weights, and the simulation settings. The
format is spelled out once: _FORMAT lists each block's keys with their
parsers and defaults, and simulation.TRAJECTORY_FIELDS each trajectory
kind's fields. config_from_dict parses by these tables and config_to_dict
writes by them. Parsing is strict. Unknown keys, missing keys, wrong
types, and inconsistent dimensions all raise ConfigError with the dotted
path of the offending field, so a typo never turns into a silently
different experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .simulation import POLICY_EVENT, POLICY_PERIODIC, TRAJECTORY_FIELDS, ParamTrajectory
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


def _as_basis(value, path):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of matrices")
    return tuple(_as_matrix(e, f"{path}[{i}]") for i, e in enumerate(value))


def _as_steps(value, path):
    n_steps = _as_int(value, path)
    if n_steps < 1:
        raise ConfigError(f"{path}: must be at least 1")
    return n_steps


def _as_policy(value, path):
    if value not in (POLICY_EVENT, POLICY_PERIODIC):
        raise ConfigError(f"{path}: unknown policy {value!r} (expected event or periodic)")
    return value


def _as_mu(value, path):
    """null, for the design's mu, or a positive number."""
    if value is None:
        return None
    mu = _as_float(value, path)
    if mu <= 0.0:
        raise ConfigError(f"{path}: must be positive")
    return mu


def _as_kind(value, path):
    # A str test first: an unhashable kind cannot be looked up.
    if not isinstance(value, str) or value not in TRAJECTORY_FIELDS:
        expected = ", ".join(TRAJECTORY_FIELDS)
        raise ConfigError(f"{path}: unknown trajectory kind {value!r} (expected one of {expected})")
    return value


# The parser of a trajectory field by its number of array dimensions. A seed
# left out is None until config_from_dict puts the simulation's seed there.
_TRAJECTORY_PARSERS = {0: (_as_seed, None), 1: _as_vector, 2: _as_matrix}


def _as_trajectory(value, path):
    """The fields of a trajectory block: its kind and those the kind takes."""
    every_field = [name for fields in TRAJECTORY_FIELDS.values() for name in fields]
    _require_block(value, path, ("kind",), every_field)
    fields = TRAJECTORY_FIELDS[_as_kind(value["kind"], f"{path}.kind")]
    keys = {name: _TRAJECTORY_PARSERS[ndim] for name, ndim in fields.items()}
    return _parse_block(value, path, {"kind": _as_kind, **keys})


# The configuration format: the keys of each block, after schema_version. A
# key maps to its parser, or to (parser, default) when it is optional; it is
# also the attribute that config_to_dict reads back. The simulation block's
# defaults are SimulationSettings' (a dataclass keeps each field's default
# as a class attribute).
_FORMAT = {
    "system": {"A": _as_matrix, "B": _as_matrix},
    "uncertainty": {"basis": _as_basis, "p_lo": _as_vector, "p_hi": _as_vector, "F": _as_matrix},
    "design": {
        "Q": _as_matrix,
        "R1": _as_matrix,
        "R2": _as_matrix,
        "alpha": _as_float,
        "beta": _as_float,
        "epsilon": _as_float,
        "sigma": _as_float,
    },
    "simulation": {
        "x0": _as_vector,
        "n_steps": (_as_steps, SimulationSettings.n_steps),
        "policy": (_as_policy, SimulationSettings.policy),
        "mu": (_as_mu, SimulationSettings.mu),
        "seed": (_as_seed, SimulationSettings.seed),
        "trajectory": _as_trajectory,
    },
}


def _parse_block(data, path, keys):
    """Parse an object by its table of keys, into a dict in the table's order."""
    optional = [key for key, spec in keys.items() if isinstance(spec, tuple)]
    _require_block(data, path, [key for key in keys if key not in optional], optional)
    parsed = {}
    for key, spec in keys.items():
        parser, *default = spec if isinstance(spec, tuple) else (spec,)
        parsed[key] = parser(data[key], f"{path}.{key}") if key in data else default[0]
    return parsed


def _require_shape(value, path, shape):
    if value.shape != shape:
        raise ConfigError(f"{path}: has shape {value.shape}, expected {shape}")


def config_from_dict(data) -> ExperimentConfig:
    """Build a validated ExperimentConfig from parsed JSON."""
    _require_block(data, "config", required=("schema_version", *_FORMAT))
    version = _as_int(data["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version}"
        )

    system = _parse_block(data["system"], "system", _FORMAT["system"])
    A, B = system["A"], system["B"]
    if A.shape[0] != A.shape[1]:
        raise ConfigError(f"system.A: must be square, got shape {A.shape}")
    n, m = A.shape[0], B.shape[1]
    if B.shape[0] != n:
        raise ConfigError(f"system.B: has {B.shape[0]} rows, expected {n}")

    unc = _parse_block(data["uncertainty"], "uncertainty", _FORMAT["uncertainty"])
    for i, e in enumerate(unc["basis"]):
        _require_shape(e, f"uncertainty.basis[{i}]", (n, n))
    _require_shape(unc["F"], "uncertainty.F", (n, n))
    try:
        model = UncertaintyModel(**unc)
    except ValueError as exc:
        raise ConfigError(f"uncertainty: {exc}") from None

    design = _parse_block(data["design"], "design", _FORMAT["design"])
    try:
        params = SynthesisParams(**design)
    except ValueError as exc:
        raise ConfigError(f"design: {exc}") from None
    _require_shape(params.Q, "design.Q", (n, n))
    _require_shape(params.R1, "design.R1", (m, m))
    _require_shape(params.R2, "design.R2", (n, n))

    sim = _parse_block(data["simulation"], "simulation", _FORMAT["simulation"])
    if sim["x0"].shape != (n,):
        raise ConfigError(f"simulation.x0: has length {sim['x0'].size}, expected {n}")
    if sim["mu"] is not None and sim["policy"] != POLICY_EVENT:
        raise ConfigError("simulation.mu: only valid for the event policy")
    trajectory = sim["trajectory"]
    if trajectory.get("seed", 0) is None:  # a random trajectory left its seed out
        trajectory["seed"] = sim["seed"]
    sim["trajectory"] = ParamTrajectory(**trajectory)
    try:
        sim["trajectory"].check_fits(model.dimension, sim["n_steps"])
    except ValueError as exc:
        raise ConfigError(f"simulation.trajectory.{exc}") from None

    return ExperimentConfig(
        A=A, B=B, model=model, params=params, simulation=SimulationSettings(**sim)
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


def _plain(value):
    """The JSON form of a parsed value: arrays as nested lists, a trajectory as its block."""
    if isinstance(value, ParamTrajectory):
        fields = TRAJECTORY_FIELDS[value.kind]
        return {"kind": value.kind, **{name: _plain(getattr(value, name)) for name in fields}}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-data form of a configuration, suitable for JSON round-trips."""
    sources = (config, config.model, config.params, config.simulation)  # _FORMAT's blocks
    data = {"schema_version": SCHEMA_VERSION}
    for (block, keys), source in zip(_FORMAT.items(), sources):
        data[block] = {key: _plain(getattr(source, key)) for key in keys}
    return data


def save_config(config: ExperimentConfig, path) -> None:
    """Write a configuration as deterministic, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config_to_dict(config), handle, indent=2, sort_keys=True)
        handle.write("\n")


def scaffold_config() -> ExperimentConfig:
    """A small self-contained example where every design condition holds.

    Two-state plant with one input, one uncertain parameter entering
    through the first state row, and a design window wide enough for the
    whole box. Useful as a template and as a smoke test. It is the bundled
    configs/feasible_demo.json, and a test keeps the two equal.
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
