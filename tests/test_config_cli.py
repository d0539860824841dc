"""Configuration schema and command line behavior."""

import copy
import csv
import dataclasses
import importlib.util
import json
import re
import warnings

import numpy as np
import pytest

from conftest import CONFIG_DIR
from etcontrol import ConfigError, config_from_dict, config_to_dict, load_config, scaffold_config
from etcontrol.cli import _COMMANDS, build_parser, main

REFERENCE_CONFIG = CONFIG_DIR / "reference_example.json"
DEMO_CONFIG = CONFIG_DIR / "feasible_demo.json"


def _reference_dict():
    with open(REFERENCE_CONFIG, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# configuration schema


def test_scaffold_round_trip():
    config = scaffold_config()
    data = config_to_dict(config)
    again = config_to_dict(config_from_dict(data))
    assert again == data


def test_load_reference_config():
    config = load_config(REFERENCE_CONFIG)
    assert np.allclose(config.A, [[0.0, 1.0], [1.0, 0.0]])
    assert config.model.p_hi[0] == 0.8
    assert config.params.epsilon == 0.1
    assert config.simulation.mu == 0.29
    assert config.simulation.n_steps == 20
    assert config.simulation.trajectory.kind == "constant"


def test_unknown_key_rejected():
    data = _reference_dict()
    data["design"]["gamma"] = 1.0
    with pytest.raises(ConfigError, match=r"design\.gamma"):
        config_from_dict(data)


def test_missing_key_rejected():
    data = _reference_dict()
    del data["design"]["sigma"]
    with pytest.raises(ConfigError, match="design: missing required key 'sigma'"):
        config_from_dict(data)


def test_wrong_x0_length_rejected():
    data = _reference_dict()
    data["simulation"]["x0"] = [1.0, -1.0, 0.0]
    with pytest.raises(ConfigError, match=r"simulation\.x0"):
        config_from_dict(data)


def test_bad_policy_rejected():
    data = _reference_dict()
    data["simulation"]["policy"] = "sometimes"
    with pytest.raises(ConfigError, match=r"simulation\.policy"):
        config_from_dict(data)


def test_mu_for_periodic_rejected():
    data = _reference_dict()
    data["simulation"]["policy"] = "periodic"
    with pytest.raises(ConfigError, match=r"simulation\.mu"):
        config_from_dict(data)


def test_negative_mu_rejected():
    data = _reference_dict()
    data["simulation"]["mu"] = -0.1
    with pytest.raises(ConfigError, match=r"simulation\.mu"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), 10**400], ids=["NaN", "Infinity", "huge-integer"]
)
@pytest.mark.parametrize("path", ["design.alpha", "design.beta", "design.epsilon", "simulation.mu"])
def test_non_finite_scalar_rejected(tmp_path, capsys, path, value):
    """JSON's NaN and Infinity literals are refused by every subcommand."""
    with open(DEMO_CONFIG, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    section, key = path.split(".")
    data[section][key] = value
    with pytest.raises(ConfigError, match=rf"{re.escape(path)}: must be finite"):
        config_from_dict(data)
    config_path = tmp_path / "non_finite.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")
    for command in ("synth", "simulate", "compare", "verify"):
        assert main([command, "--config", str(config_path), "--out", str(tmp_path / command)]) == 2
        assert f"{path}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("path", ["uncertainty.p_lo", "uncertainty.F"])
def test_huge_integer_in_array_rejected(path):
    data = _reference_dict()
    section, key = path.split(".")
    data[section][key] = [[10**400] * 2] * 2 if key == "F" else [10**400]
    with pytest.raises(ConfigError, match=re.escape(path)):
        config_from_dict(data)


@pytest.mark.parametrize("path", ["simulation.seed", "simulation.trajectory.seed"])
def test_negative_seed_rejected(path):
    with open(DEMO_CONFIG, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    block = data["simulation"] if path == "simulation.seed" else data["simulation"]["trajectory"]
    block["seed"] = -3
    with pytest.raises(ConfigError, match=rf"{re.escape(path)}: must be a nonnegative integer"):
        config_from_dict(data)


def test_unknown_trajectory_kind_rejected():
    data = _reference_dict()
    data["simulation"]["trajectory"] = {"kind": "sinusoid"}
    with pytest.raises(ConfigError, match="trajectory"):
        config_from_dict(data)


def test_schema_version_checked():
    data = _reference_dict()
    data["schema_version"] = 2
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict(data)


def test_indefinite_design_weight_rejected():
    data = _reference_dict()
    data["design"]["R1"] = [[-1.0]]
    with pytest.raises(ConfigError, match="design"):
        config_from_dict(data)


def _demo_dict():
    with open(DEMO_CONFIG, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _set(path, value):
    """An edit of the demo config that sets the value at a dotted path."""

    def edit(data):
        *blocks, key = path.split(".")
        for block in blocks:
            data = data[block]
        data[key] = value

    return edit


_CONFIG_ERRORS = {
    "system.A": (_set("system.A", [[0.0, 0.3, 0.0], [0.3, 0.0, 0.0]]), "must be square"),
    "system.B": (_set("system.B", [[0.0], [1.0], [0.0]]), "has 3 rows, expected 2"),
    "uncertainty.basis": (_set("uncertainty.basis", {"E": [[0.1]]}), "expected a list"),
    "uncertainty.basis[0]": (_set("uncertainty.basis", [[[0.1]]]), "has shape (1, 1)"),
    "uncertainty.F": (_set("uncertainty.F", [[0.02]]), "has shape (1, 1), expected (2, 2)"),
    "uncertainty (p_lo > p_hi)": (
        _set("uncertainty.p_lo", [0.5]),
        "p_lo must not exceed p_hi componentwise",
    ),
    "design.Q": (_set("design.Q", [[0.01]]), "has shape (1, 1), expected (2, 2)"),
    "design.R1": (_set("design.R1", np.eye(2).tolist()), "has shape (2, 2), expected (1, 1)"),
    "design.R2": (_set("design.R2", [[1.0]]), "has shape (1, 1), expected (2, 2)"),
    "simulation.n_steps": (_set("simulation.n_steps", 0), "must be at least 1"),
    "simulation.trajectory.value": (
        _set("simulation.trajectory", {"kind": "constant", "value": [0.1, 0.2]}),
        "has length 2, expected 1",
    ),
    "simulation.trajectory.start": (
        _set("simulation.trajectory", {"kind": "ramp", "start": [0.1, 0.2], "end": [0.3, 0.4]}),
        "has length 2, expected 1",
    ),
    "simulation.trajectory.values": (
        _set("simulation.trajectory", {"kind": "sequence", "values": [[0.1, 0.2]] * 31}),
        "rows have length 2, expected 1",
    ),
    # A second fault of one field: the path is the key up to the space.
    "simulation.trajectory.values (1 row)": (
        _set("simulation.trajectory", {"kind": "sequence", "values": [[0.1]]}),
        "needs at least 31 rows, has 1",
    ),
    "design": (_set("design", [1.0]), "expected an object, got list"),
    # Finite design scalars whose square or reciprocal overflows.
    "design (alpha 1e200)": (_set("design.alpha", 1e200), "alpha is too large: alpha^2 overflows"),
    "design (beta 1e200)": (_set("design.beta", 1e200), "beta is too large: beta^2 overflows"),
    "design (epsilon 1e-310)": (
        _set("design.epsilon", 1e-310),
        "epsilon is too small: 1/epsilon overflows",
    ),
    # A value of the wrong type or shape, or a JSON NaN, fails in its parser.
    "design.epsilon (str)": (_set("design.epsilon", "0.1"), "expected a number, got str"),
    "design.epsilon (bool)": (_set("design.epsilon", True), "expected a number, got bool"),
    "simulation.n_steps (2.5)": (
        _set("simulation.n_steps", 2.5),
        "expected an integer, got float",
    ),
    "simulation.x0 (1 x 2)": (
        _set("simulation.x0", [[1, -1]]),
        "expected a flat list of numbers, got shape (1, 2)",
    ),
    "simulation.x0 (NaN)": (
        _set("simulation.x0", [float("nan"), -1.0]),
        "contains non-finite entries",
    ),
    "system.A (NaN)": (
        _set("system.A", [[0.0, float("nan")], [0.3, 0.0]]),
        "contains non-finite entries",
    ),
    "system.A (3-D)": (
        _set("system.A", [[[0.0, 0.3], [0.3, 0.0]]]),
        "expected a list of rows, got shape (1, 2, 2)",
    ),
}


def _config_error(key):
    """The dotted path, the config edit and the message of one _CONFIG_ERRORS entry."""
    edit, message = _CONFIG_ERRORS[key]
    return key.partition(" ")[0], edit, message


@pytest.mark.parametrize("path", sorted(_CONFIG_ERRORS))
def test_config_error_names_its_path(path):
    path, edit, message = _config_error(path)
    data = _demo_dict()
    edit(data)
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


@pytest.mark.parametrize("key", sorted(_CONFIG_ERRORS))
def test_cli_config_error_names_its_path(tmp_path, capsys, key):
    """Every subcommand that reads a config exits 2 with the path, and writes nothing."""
    path, edit, message = _config_error(key)
    data = _demo_dict()
    edit(data)
    config_path = tmp_path / "broken.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("synth", "simulate", "compare", "verify"):
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "trajectory",
    [
        {"kind": "constant", "value": [0.1]},
        {"kind": "ramp", "start": [-0.2], "end": [0.3]},
        {"kind": "sequence", "values": [[0.1], [-0.1], [0.25]]},
    ],
    ids=lambda trajectory: trajectory["kind"],
)
def test_trajectory_round_trips(trajectory):
    data = _demo_dict()
    data["simulation"]["trajectory"] = trajectory
    data["simulation"]["n_steps"] = 2  # the sequence has the 3 rows of 2 steps
    saved = config_to_dict(config_from_dict(data))
    assert saved["simulation"]["trajectory"] == trajectory
    assert config_to_dict(config_from_dict(saved)) == saved


def test_random_trajectory_without_seed_takes_the_simulation_seed():
    data = _demo_dict()
    data["simulation"]["seed"] = 11
    data["simulation"]["trajectory"] = {"kind": "random"}
    assert config_from_dict(data).simulation.trajectory.seed == 11


@pytest.mark.parametrize("path", [DEMO_CONFIG, REFERENCE_CONFIG], ids=lambda path: path.stem)
def test_bundled_config_round_trips(path):
    """Saving a loaded bundled config gives back the file's own data."""
    with open(path, "r", encoding="utf-8") as handle:
        assert config_to_dict(load_config(path)) == json.load(handle)


def test_scaffold_is_the_bundled_demo():
    """The template and configs/feasible_demo.json are one config; neither drifts from the other."""
    assert config_to_dict(scaffold_config()) == _demo_dict()


def test_saved_config_round_trips(tmp_path):
    from etcontrol import save_config

    config = scaffold_config()
    path = tmp_path / "experiment.json"
    save_config(config, path)
    assert config_to_dict(load_config(path)) == config_to_dict(config)
    # A config holds no version of its own, so none can disagree with the file format.
    with pytest.raises(TypeError, match="schema_version"):
        dataclasses.replace(config, schema_version=2)


# ---------------------------------------------------------------------------
# command line


def test_cli_synth_demo(tmp_path):
    code = main(["synth", "--config", str(DEMO_CONFIG), "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "synthesis.json", "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["mode"] == "mismatched"
    assert payload["feasibility"]["all_hold"] is True
    assert payload["mu"] == pytest.approx(0.3338688807956774, rel=1e-9)
    assert payload["K"][0][0] == pytest.approx(-0.2650961164937438, rel=1e-9)


def test_cli_synth_reference_reports_failures(tmp_path):
    code = main(["synth", "--config", str(REFERENCE_CONFIG), "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "synthesis.json", "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["feasibility"]["all_hold"] is False
    verdicts = {c["condition"]: c["verdict"] for c in payload["feasibility"]["checks"]}
    assert verdicts["epsilon_window"] == "fails"
    assert verdicts["uncertainty_bound_scaled"] == "fails"
    assert verdicts["periodic_decay"] == "holds"


def test_cli_json_rounds_to_twelve_digits(tmp_path):
    main(["synth", "--config", str(REFERENCE_CONFIG), "--out", str(tmp_path)])
    with open(tmp_path / "synthesis.json", "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["P"][0][0] == float(f"{33.0587289210233:.12g}")


def test_cli_simulate_trace_format(tmp_path):
    code = main(["simulate", "--config", str(REFERENCE_CONFIG), "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "trace.csv", "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["k", "x_1", "x_2", "u_1", "e_norm_sq", "threshold", "triggered", "p", "V"]
    assert len(rows) == 22
    assert [row[0] for row in rows[1:]] == [str(k) for k in range(21)]
    triggered = [row[6] for row in rows[1:]]
    assert set(triggered) <= {"0", "1"}
    assert triggered[0] == "1"
    assert triggered[-1] == "0"
    assert sum(value == "1" for value in triggered) == 10


def test_cli_simulate_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["simulate", "--config", str(DEMO_CONFIG), "--out", str(out_a)])
    main(["simulate", "--config", str(DEMO_CONFIG), "--out", str(out_b)])
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_cli_seed_override(tmp_path):
    base = tmp_path / "base"
    seeded = tmp_path / "seeded"
    seeded_again = tmp_path / "seeded_again"
    main(["simulate", "--config", str(DEMO_CONFIG), "--out", str(base)])
    main(["simulate", "--config", str(DEMO_CONFIG), "--out", str(seeded), "--seed", "123"])
    main(["simulate", "--config", str(DEMO_CONFIG), "--out", str(seeded_again), "--seed", "123"])
    assert (base / "trace.csv").read_bytes() != (seeded / "trace.csv").read_bytes()
    assert (seeded / "trace.csv").read_bytes() == (seeded_again / "trace.csv").read_bytes()


_SEEDLESS_RUNS = [
    ("synth", DEMO_CONFIG, "synthesis.json", "the design draws nothing at random"),
    ("scaffold", None, "experiment.json", "the template is fixed"),
] + [
    (command, REFERENCE_CONFIG, artifact, "the configured trajectory is constant, not random")
    for command, artifact in (
        ("simulate", "trace.csv"), ("compare", "comparison.json"), ("verify", "verification.json")
    )
]


@pytest.mark.parametrize("command, config, artifact, reason", _SEEDLESS_RUNS)
def test_cli_says_when_seed_has_no_effect(tmp_path, capsys, command, config, artifact, reason):
    """A --seed the command cannot use changes no byte or exit code, and says so."""
    argv = [command] + ([] if config is None else ["--config", str(config)])
    plain = main(argv + ["--out", str(tmp_path / "plain")])
    assert "--seed" not in capsys.readouterr().err
    seeded = main(argv + ["--out", str(tmp_path / "seeded"), "--seed", "5"])
    err = capsys.readouterr().err.splitlines()
    assert err == [f"note: --seed has no effect on {command}: {reason}"]
    assert seeded == plain
    assert (tmp_path / "seeded" / artifact).read_bytes() == (
        tmp_path / "plain" / artifact
    ).read_bytes()


@pytest.mark.parametrize("command", ["simulate", "compare", "verify"])
def test_cli_seed_of_random_trajectory_is_silent(tmp_path, capsys, command):
    main([command, "--config", str(DEMO_CONFIG), "--out", str(tmp_path), "--seed", "5"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["simulate", "compare", "verify"])
def test_cli_negative_seed_rejected(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(DEMO_CONFIG), "--out", str(tmp_path), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: expected a nonnegative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_cli_compare(tmp_path):
    code = main(["compare", "--config", str(REFERENCE_CONFIG), "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "comparison.json", "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["periodic"]["transmissions"] == 20
    assert payload["event"]["transmissions"] == 10
    assert payload["savings_ratio"] == pytest.approx(0.5)
    assert payload["inter_event_gaps"]["max"] == 5.0


def test_cli_simulate_periodic_policy(tmp_path, capsys):
    """A config with policy periodic transmits at every step, with threshold zero."""
    data = _demo_dict()
    data["simulation"]["policy"] = "periodic"
    config_path = tmp_path / "periodic.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("periodic run: 30 transmissions")
    with open(tmp_path / "trace.csv", "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["triggered"] for row in rows[:30]] == ["1"] * 30
    assert all(float(row["threshold"]) == 0.0 for row in rows)


@pytest.mark.parametrize("command", ["simulate", "compare", "verify"])
def test_cli_reports_clamped_rows_once(tmp_path, capsys, command):
    """Rows clamped into the box: one line of the command's own on stdout, no Python warning."""
    data = _demo_dict()
    data["simulation"]["trajectory"] = {"kind": "constant", "value": [0.5]}
    config_path = tmp_path / "clamped.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(config_path), "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    warned = [line for line in out.splitlines() if line.startswith("warning:")]
    assert warned == ["warning: 31 parameter rows were clamped into the box"]
    assert err == ""


# verify's audits, in the order verification.json lists them.
_VERIFY_AUDITS = ["loop_energy_bound", "dissipation", "epsilon_interval"]


def test_cli_verify_exit_codes(tmp_path):
    assert main(["verify", "--config", str(DEMO_CONFIG), "--out", str(tmp_path / "demo")]) == 0
    assert main(["verify", "--config", str(REFERENCE_CONFIG), "--out", str(tmp_path / "ref")]) == 4
    with open(tmp_path / "ref" / "verification.json", "r", encoding="utf-8") as handle:
        payload = json.load(handle, parse_constant=_reject_constant)
    assert payload["all_hold"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert list(by_name) == _VERIFY_AUDITS
    assert by_name["dissipation"]["holds"] is False
    assert not [name for name in by_name if name.endswith("_campaign")]
    interval = by_name["epsilon_interval"]
    assert interval["holds"] is False
    window_lo = interval["witness"]["intervals"]["epsilon_window"][0]
    scaled_hi = interval["witness"]["intervals"]["uncertainty_bound_scaled"][1]
    assert window_lo > scaled_hi

    text = (tmp_path / "demo" / "verification.json").read_text(encoding="utf-8")
    demo = {c["name"]: c for c in json.loads(text, parse_constant=_reject_constant)["checks"]}
    assert list(demo) == _VERIFY_AUDITS
    assert not [name for name in demo if name.endswith("_campaign")]
    assert demo["epsilon_interval"]["holds"] is True


def _reject_constant(name):
    raise AssertionError(f"verification.json holds the non-JSON constant {name}")


def test_cli_overflowing_box_fails_its_checks(tmp_path):
    """dA' dA overflows at both vertices: synth reports, verify fails, no NaN written."""
    data = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    data["uncertainty"]["basis"] = [[[1e300, 0.0], [0.0, -1e300]]]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["synth", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 4
    synthesis, verification = (
        json.loads((tmp_path / name).read_text(encoding="utf-8"), parse_constant=_reject_constant)
        for name in ("synthesis.json", "verification.json")
    )
    box = {c["condition"]: c for c in synthesis["feasibility"]["checks"]}
    for condition in ("uncertainty_bound_scaled", "uncertainty_bound_weighted"):
        check = box[condition]
        assert check["verdict"] == "fails" and check["margin"] is None
        assert check["margin_exact"] is False and check["witness_p"] == [-0.3]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_command_takes_the_common_options(capsys, command):
    """--out and --seed on every subcommand; --config is required by all but scaffold."""
    parser = build_parser()
    config = [] if command == "scaffold" else ["--config", "experiment.json"]
    args = parser.parse_args([command, *config, "--out", "elsewhere", "--seed", "3"])
    assert (args.command, args.out, args.seed) == (command, "elsewhere", 3)
    if command == "scaffold":
        assert parser.parse_args([command]).out == "results"
        return
    with pytest.raises(SystemExit) as info:
        parser.parse_args([command])
    assert info.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["synth", "--config", str(missing), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["synth", "scaffold"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_cli_unwritable_out_exit_code(tmp_path, capsys, command, below):
    """An --out that is a file, or lies below one, is one line on stderr and exit 2."""
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "out" if below else blocker
    argv = [command, "--out", str(out)]
    if command == "synth":
        argv += ["--config", str(DEMO_CONFIG)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("output error: ") and str(out) in err[0]
    assert blocker.read_text(encoding="utf-8") == ""


def _divergent(data):
    data["system"]["A"] = [[1.2, 0.0], [0.0, 0.5]]
    data["uncertainty"]["basis"] = [[[0.0, 0.0], [0.0, 0.0]]]
    data["uncertainty"]["F"] = [[0.0, 0.0], [0.0, 0.0]]
    data["design"]["alpha"] = 0.0


def _overflowing_weight(data):
    data["design"]["Q"] = [[1e308, 0.0], [0.0, 1e308]]
    data["design"]["beta"] = 1.3e154


def _overflowing_error_gain(data):
    """One state, A = 1e60: K and Z are finite, but K' B' Z B K overflows."""
    data["system"] = {"A": [[1e60]], "B": [[1.0]]}
    data["uncertainty"] = {"basis": [[[0.0]]], "p_lo": [0.0], "p_hi": [0.0], "F": [[0.0]]}
    data["design"] = {
        "Q": [[1.0]], "R1": [[1.0]], "R2": [[1.0]],
        "alpha": 0.0, "beta": 0.0, "epsilon": 1e-200, "sigma": 0.5,
    }
    data["simulation"]["x0"] = [1.0]


# Finite configs that synth cannot design: the base config, its edit and the
# start of the one line on stderr. Each but the first overflows a product.
_NUMERICAL_FAILURES = {
    "divergent": (_reference_dict, _divergent, "numerical failure: doubling diverged at step "),
    "Q 1e308, beta 1.3e154": (
        _demo_dict,
        _overflowing_weight,
        "numerical failure: effective state weight contains non-finite entries",
    ),
    "epsilon 1e-308": (
        _demo_dict,
        _set("design.epsilon", 1e-308),
        "numerical failure: decay matrix is not positive definite (smallest eigenvalue -9e+306)",
    ),
    "reference, epsilon 1e308": (
        _reference_dict,
        _set("design.epsilon", 1e308),
        "numerical failure: inner window gap contains non-finite entries",
    ),
    "one state, A 1e60": (
        _demo_dict,
        _overflowing_error_gain,
        "numerical failure: trigger error gain contains non-finite entries",
    ),
}


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    """Exit 3 with one line on stderr and no file, overflow included."""
    for label, (base, edit, message) in _NUMERICAL_FAILURES.items():
        data = base()
        edit(data)
        config_path = tmp_path / "failing.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 3, label
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message), (label, err)
        assert not out.exists(), label


@pytest.mark.parametrize("command", ["synth", "verify"])
def test_cli_undefined_trigger_prints_report(tmp_path, capsys, command):
    """The demo at epsilon 2.0: exit 3, no file, and the report that says why on stdout."""
    data = _demo_dict()
    data["design"]["epsilon"] = 2.0
    config_path = tmp_path / "epsilon2.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 6 and "[   fails] decay_matrix_psd (margin -0.00565756)" in lines[-1]
    assert all("[   holds]" in line for line in lines[:-1])
    assert captured.err == (
        "numerical failure: decay matrix is not positive definite "
        "(smallest eigenvalue -0.00565756); the trigger threshold is undefined\n"
    )


def test_cli_scaffold_chain(tmp_path):
    assert main(["scaffold", "--out", str(tmp_path)]) == 0
    written = tmp_path / "experiment.json"
    assert config_to_dict(load_config(written)) == config_to_dict(scaffold_config())
    assert main(["synth", "--config", str(written), "--out", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# pipeline script


def _run_experiment():
    """The run() function of scripts/run_experiment.py."""
    path = CONFIG_DIR.parent / "scripts" / "run_experiment.py"
    spec = importlib.util.spec_from_file_location("run_experiment", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run


@pytest.mark.parametrize("config, code", [(DEMO_CONFIG, 0), (REFERENCE_CONFIG, 4)])
def test_run_experiment_writes_every_artifact(tmp_path, capsys, config, code):
    assert _run_experiment()(["--config", str(config), "--out", str(tmp_path)]) == code
    for artifact in ("synthesis.json", "trace.csv", "comparison.json", "verification.json"):
        assert (tmp_path / artifact).is_file()
    assert capsys.readouterr().out.startswith("==> synth\n")


def test_run_experiment_rejects_negative_seed(tmp_path, capsys):
    run = _run_experiment()
    with pytest.raises(SystemExit) as info:
        run(["--config", str(DEMO_CONFIG), "--out", str(tmp_path), "--seed", "-1"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a nonnegative integer, got '-1'" in captured.err
