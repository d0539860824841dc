"""Configuration schema and command line behavior."""

import copy
import csv
import json
import re

import numpy as np
import pytest

from conftest import CONFIG_DIR
from etcontrol import ConfigError, config_from_dict, config_to_dict, load_config, scaffold_config
from etcontrol.cli import main

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


def test_saved_config_round_trips(tmp_path):
    from etcontrol import save_config

    config = scaffold_config()
    path = tmp_path / "experiment.json"
    save_config(config, path)
    assert config_to_dict(load_config(path)) == config_to_dict(config)


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


def test_cli_verify_exit_codes(tmp_path):
    assert main(["verify", "--config", str(DEMO_CONFIG), "--out", str(tmp_path / "demo")]) == 0
    assert main(["verify", "--config", str(REFERENCE_CONFIG), "--out", str(tmp_path / "ref")]) == 4
    with open(tmp_path / "ref" / "verification.json", "r", encoding="utf-8") as handle:
        payload = json.load(handle, parse_constant=_reject_constant)
    assert payload["all_hold"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["cross_term_bound"]["holds"] is False
    assert by_name["dissipation"]["holds"] is False
    assert not [name for name in by_name if name.endswith("_campaign")]
    interval = by_name["epsilon_interval"]
    assert interval["holds"] is False
    window_lo = interval["witness"]["intervals"]["epsilon_window"][0]
    scaled_hi = interval["witness"]["intervals"]["uncertainty_bound_scaled"][1]
    assert window_lo > scaled_hi

    text = (tmp_path / "demo" / "verification.json").read_text(encoding="utf-8")
    demo = {c["name"]: c for c in json.loads(text, parse_constant=_reject_constant)["checks"]}
    assert not [name for name in demo if name.endswith("_campaign")]
    assert demo["epsilon_interval"]["holds"] is True


def _reject_constant(name):
    raise AssertionError(f"verification.json holds the non-JSON constant {name}")


def test_cli_config_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["synth", "--config", str(missing), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    data = _reference_dict()
    data["system"]["A"] = [[1.2, 0.0], [0.0, 0.5]]
    data["uncertainty"]["basis"] = [[[0.0, 0.0], [0.0, 0.0]]]
    data["uncertainty"]["F"] = [[0.0, 0.0], [0.0, 0.0]]
    data["design"]["alpha"] = 0.0
    config_path = tmp_path / "divergent.json"
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    assert main(["synth", "--config", str(config_path), "--out", str(tmp_path)]) == 3


def test_cli_scaffold_chain(tmp_path):
    assert main(["scaffold", "--out", str(tmp_path)]) == 0
    written = tmp_path / "experiment.json"
    assert config_to_dict(load_config(written)) == config_to_dict(scaffold_config())
    assert main(["synth", "--config", str(written), "--out", str(tmp_path)]) == 0
