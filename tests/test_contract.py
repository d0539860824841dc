"""The input contract: every entry point names the argument that does not fit."""

import dataclasses
import re

import numpy as np
import pytest

from etcontrol import (
    ParamTrajectory,
    TriggerPolicy,
    UncertaintyModel,
    as_matched_model,
    check_dissipation,
    check_epsilon_interval,
    check_inversion_identity,
    check_loop_energy_bound,
    compare_policies,
    decay_matrix,
    error_weight,
    feasibility_report,
    feedback_gain,
    simulate,
    solve_modified_dare,
    synthesize,
    synthesize_matched,
    trigger_coefficient,
    virtual_gain,
)


def _demo(demo_system):
    """The demo's inputs, its design and its 30-step event trace at p = 0.3."""
    A, B, model, params = demo_system
    out = synthesize(A, B, model, params)
    trace = simulate(
        A, B, model, out.K,
        TriggerPolicy.event(out.mu),
        ParamTrajectory.constant([0.3]),
        [1.0, -1.0], 30, out.P,
    )
    return dict(
        A=A, B=B, model=model, params=params, P=out.P, K=out.K, L=out.L, Z=out.Z, Q1=out.Q1,
        F=model.F, sigma=params.sigma, trace=trace, x0=[1.0, -1.0], mu=0.3,
        epsilon=params.epsilon,
    )


def _matched(v):
    """The demo with its basis moved into the range of B, so the model is matched."""
    E = v["B"] @ np.array([[0.1, 0.1]])
    model = UncertaintyModel(basis=(E,), p_lo=[-0.3], p_hi=[0.3], F=v["F"])
    return synthesize_matched(v["A"], v["B"], as_matched_model(v["B"], model), v["params"])


def _dissipation(v):
    return check_dissipation(
        v["trace"], v["P"], v["Q1"], v["K"], v["B"], v["Z"], v["sigma"], model=v["model"], F=v["F"]
    )


# Each entry point, the argument made wrong, and how.
_WRONG = {
    "B 3x1": ("B", lambda v: np.ones((3, 1))),
    "P 3x3": ("P", lambda v: np.eye(3)),
    "A 2x3": ("A", lambda v: np.ones((2, 3))),
    "K 2x2": ("K", lambda v: np.vstack([v["K"], v["K"]])),
    "F 3x3": ("F", lambda v: np.eye(3)),
    "R1 2x2": ("R1", lambda v: dataclasses.replace(v["params"], R1=np.eye(2))),
    "trace 3 states": (
        "trace.states",
        lambda v: dataclasses.replace(
            v["trace"], states=np.hstack([v["trace"].states, v["trace"].states[:, :1]])
        ),
    ),
    "sigma 2.0": ("sigma", lambda v: 2.0),
    # numpy would drop the imaginary part of an array (with a ComplexWarning)
    # and refuse a list of complex numbers with a bare TypeError.
    "A complex": ("A", lambda v: v["A"] + 0.5j * np.eye(2)),
    "A complex list": ("A", lambda v: (v["A"] + 0.5j * np.eye(2)).tolist()),
    "P complex": ("P", lambda v: v["P"] * (1.0 + 0.1j)),
    "x0 complex": ("x0", lambda v: np.array([1.0 + 1.0j, -1.0])),
    "x0 complex list": ("x0", lambda v: [1.0 + 1.0j, -1.0]),
    # A scalar goes through the one scalar gate: float() would refuse a
    # complex number with a bare TypeError and truncate a numpy one.
    "sigma complex": ("sigma", lambda v: 0.5 + 0.1j),
    "sigma complex128": ("sigma", lambda v: np.complex128(v["sigma"])),
    "sigma array": ("sigma", lambda v: np.array([v["sigma"]])),
    "mu complex": ("mu", lambda v: 0.3 + 0j),
    "mu complex128": ("mu", lambda v: np.complex128(0.3 + 0.1j)),
    "mu list": ("mu", lambda v: [0.3]),
    "epsilon complex": ("epsilon", lambda v: v["epsilon"] + 0.5j),
    "epsilon list": ("epsilon", lambda v: [v["epsilon"]]),
    # numpy would refuse a ragged list with a message that names nothing.
    "A ragged": ("A", lambda v: [[1.0, 0.0], [0.0]]),
    "epsilon ragged": ("epsilon", lambda v: [[0.1], [0.1, 0.2]]),
    "mu ragged": ("mu", lambda v: [0.3, [0.1]]),
    # float() would take a bool as 0.0 or 1.0; the config refuses it too.
    "epsilon bool": ("epsilon", lambda v: True),
    "mu bool": ("mu", lambda v: True),
    "mu numpy bool": ("mu", lambda v: np.True_),
    "sigma numpy bool": ("sigma", lambda v: np.False_),
}
# The message of each wrong argument that is not a wrong shape.
_MESSAGES = (
    {"sigma 2.0": "must lie strictly between 0 and 1"}
    | {wrong: "must be real, got complex entries$" for wrong in _WRONG if "complex" in wrong}
    | dict.fromkeys(
        ("sigma array", "mu list", "epsilon list"), r"must be a scalar, got shape \(1,\)$"
    )
    | {
        wrong: "does not convert to a real array: setting an array element with a sequence"
        for wrong in _WRONG
        if "ragged" in wrong
    }
    | {wrong: "must be a real number, got bool$" for wrong in _WRONG if "bool" in wrong}
)
_ENTRY_POINTS = {
    "feedback_gain": lambda v: feedback_gain(v["A"], v["B"], v["P"], v["params"]),
    "virtual_gain": lambda v: virtual_gain(v["A"], v["B"], v["P"], v["params"]),
    "decay_matrix": lambda v: decay_matrix(v["A"], v["B"], v["K"], v["L"], v["Z"], v["params"]),
    "trigger_coefficient": lambda v: trigger_coefficient(
        v["K"], v["B"], v["Z"], v["Q1"], v["sigma"]
    ),
    "solve_modified_dare": lambda v: solve_modified_dare(v["A"], v["B"], v["params"], v["F"]),
    "synthesize": lambda v: synthesize(v["A"], v["B"], v["model"], v["params"]),
    "synthesize_matched": _matched,
    "check_epsilon_interval": lambda v: check_epsilon_interval(
        v["A"], v["B"], v["model"], v["params"], v["P"], v["K"], v["L"]
    ),
    "check_loop_energy_bound": lambda v: check_loop_energy_bound(
        v["A"], v["B"], v["P"], v["params"], v["K"], v["L"]
    ),
    "check_dissipation": _dissipation,
    "simulate": lambda v: simulate(
        v["A"], v["B"], v["model"], v["K"], TriggerPolicy.periodic(),
        ParamTrajectory.constant([0.3]), v["x0"], 5, v["P"],
    ),
    "compare_policies": lambda v: compare_policies(
        v["A"], v["B"], v["model"], v["K"], v["mu"], ParamTrajectory.constant([0.3]), v["x0"], 5,
        v["P"],
    ),
    "check_inversion_identity": lambda v: check_inversion_identity(v["P"], v["epsilon"]),
    "error_weight": lambda v: error_weight(v["P"], v["epsilon"]),
}
_CASES = [
    ("feedback_gain", "B 3x1"),
    ("feedback_gain", "P 3x3"),
    ("virtual_gain", "B 3x1"),
    ("decay_matrix", "B 3x1"),
    ("trigger_coefficient", "B 3x1"),
    ("solve_modified_dare", "R1 2x2"),
    ("synthesize", "R1 2x2"),
    ("synthesize_matched", "R1 2x2"),
    ("check_epsilon_interval", "R1 2x2"),
    ("check_loop_energy_bound", "A 2x3"),
    ("check_dissipation", "K 2x2"),
    ("check_dissipation", "P 3x3"),
    ("check_dissipation", "F 3x3"),
    ("check_dissipation", "trace 3 states"),
    ("check_dissipation", "sigma 2.0"),
    ("trigger_coefficient", "K 2x2"),
    ("synthesize", "A complex"),
    ("synthesize", "A complex list"),
    ("check_dissipation", "P complex"),
    ("simulate", "x0 complex"),
    ("simulate", "x0 complex list"),
    ("compare_policies", "x0 complex"),
    ("check_dissipation", "sigma complex"),
    ("check_dissipation", "sigma complex128"),
    ("trigger_coefficient", "sigma array"),
    ("compare_policies", "mu complex"),
    ("compare_policies", "mu complex128"),
    ("compare_policies", "mu list"),
    ("error_weight", "epsilon complex"),
    ("check_inversion_identity", "epsilon list"),
    ("synthesize", "A ragged"),
    ("error_weight", "epsilon ragged"),
    ("compare_policies", "mu ragged"),
    ("error_weight", "epsilon bool"),
    ("compare_policies", "mu bool"),
    ("compare_policies", "mu numpy bool"),
    ("check_dissipation", "sigma numpy bool"),
]
# A wrong first argument fixes the dimensions, so the next one misfits; the
# message names both.
_FIXED_BY_THE_WRONG_ONE = {
    ("trigger_coefficient", "K 2x2"): r"^B has shape \(2, 1\), expected \(2, 2\), m from K$",
}


@pytest.mark.parametrize("entry, wrong", _CASES, ids=[f"{e}-{w}" for e, w in _CASES])
def test_entry_point_names_the_wrong_argument(demo_system, entry, wrong):
    v = _demo(demo_system)
    name, make = _WRONG[wrong]
    v["params" if name == "R1" else name.split(".")[0]] = make(v)
    message = _MESSAGES.get(wrong, "has shape")
    pattern = _FIXED_BY_THE_WRONG_ONE.get((entry, wrong), rf"^{name} {message}")
    with pytest.raises(ValueError, match=pattern):
        _ENTRY_POINTS[entry](v)


# Each constructor argument made complex, and the constructor call.
_COMPLEX_ARGUMENTS = {
    "p_lo": lambda v: dataclasses.replace(v["model"], p_lo=[-0.3 + 0.1j]),
    "p_hi": lambda v: dataclasses.replace(v["model"], p_hi=np.array([0.3 + 0.0j])),
    "basis[0]": lambda v: dataclasses.replace(v["model"], basis=(v["model"].basis[0] * 1j,)),
    "p": lambda v: v["model"].matrix_at([0.1j]),
    "Q": lambda v: dataclasses.replace(v["params"], Q=v["params"].Q * (1.0 + 0.1j)),
    "value": lambda v: ParamTrajectory.constant(np.array([0.1 + 0.1j])),
    "start": lambda v: ParamTrajectory.ramp([0.1j], [0.2]),
    "end": lambda v: ParamTrajectory.ramp([0.1], np.array([0.2j])),
    "values": lambda v: ParamTrajectory.sequence([[0.1j]] * 31),
    "alpha": lambda v: dataclasses.replace(v["params"], alpha=0.5 + 0.1j),
    "beta": lambda v: dataclasses.replace(v["params"], beta=np.complex128(0.2)),
    "epsilon": lambda v: dataclasses.replace(v["params"], epsilon=np.complex128(1.0 + 1.0j)),
    "sigma": lambda v: dataclasses.replace(v["params"], sigma=np.array(0.5 + 0j)),
    "mu": lambda v: TriggerPolicy.event(0.3 + 0j),
}


@pytest.mark.parametrize("name", list(_COMPLEX_ARGUMENTS))
def test_constructors_refuse_complex_arguments_by_name(demo_system, name):
    v = _demo(demo_system)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be real, got complex entries$"):
        _COMPLEX_ARGUMENTS[name](v)


# Each constructor argument made a bool or ragged, the constructor call, and
# the message after the argument's name.
_REFUSED_ARGUMENTS = {
    "mu bool": ("mu", lambda v: TriggerPolicy.event(True)),
    "alpha bool": ("alpha", lambda v: dataclasses.replace(v["params"], alpha=True)),
    "beta numpy bool": ("beta", lambda v: dataclasses.replace(v["params"], beta=np.False_)),
    "mu ragged": ("mu", lambda v: TriggerPolicy.event([0.3, [0.1]])),
    "p_lo ragged": ("p_lo", lambda v: dataclasses.replace(v["model"], p_lo=[[-0.3], [0.1, 0.2]])),
    "values ragged": ("values", lambda v: ParamTrajectory.sequence([[0.1], [0.1, 0.2]])),
}


@pytest.mark.parametrize("case", list(_REFUSED_ARGUMENTS))
def test_constructors_refuse_bool_and_ragged_arguments_by_name(demo_system, case):
    v = _demo(demo_system)
    name, make = _REFUSED_ARGUMENTS[case]
    message = (
        "must be a real number, got bool$"
        if "bool" in case
        else "does not convert to a real array: setting an array element with a sequence"
    )
    with pytest.raises(ValueError, match=rf"^{name} {message}"):
        make(v)


def test_scalars_parse_numeric_strings_and_refuse_none(demo_system):
    """The scalar gate keeps float()'s parsing of a numeric string and its refusal of None."""
    params = demo_system[3]
    parsed = dataclasses.replace(params, alpha=str(params.alpha), epsilon=str(params.epsilon))
    assert (parsed.alpha, parsed.epsilon) == (params.alpha, params.epsilon)
    assert TriggerPolicy.event("0.3").mu == 0.3
    with pytest.raises(TypeError):
        dataclasses.replace(params, beta=None)


@pytest.mark.parametrize("entry", ["solve_modified_dare", "check_dissipation"])
def test_entry_point_refuses_an_asymmetric_F(demo_system, entry):
    """F is in the symmetric contract: an eigvalsh of it would read one triangle."""
    v = _demo(demo_system)
    v["F"] = [[0.02, 0.01], [0.0, 0.02]]
    with pytest.raises(ValueError, match=r"^F is not symmetric \(defect 1\.000e-02\)$"):
        _ENTRY_POINTS[entry](v)


def test_symmetric_F_keeps_its_results(demo_system):
    v = _demo(demo_system)
    certified = _dissipation(v)
    v["F"] = [[0.02, 0.01], [0.01, 0.02]]
    np.testing.assert_allclose(
        _ENTRY_POINTS["solve_modified_dare"](v),
        [[0.07079505806496532, 0.010098973733345104], [0.010098973733345104, 0.07585695821555805]],
        rtol=1e-12,
    )
    # The gate is certified at the vertices for both F, so the audit is the same.
    assert _dissipation(v) == certified
    assert certified.note == "30 steps audited, 0 skipped"


# Each entry point that takes an uncertainty model.
_MODEL_ENTRY_POINTS = {
    "synthesize": _ENTRY_POINTS["synthesize"],
    "as_matched_model": lambda v: as_matched_model(v["B"], v["model"]),
    "feasibility_report": lambda v: feasibility_report(
        v["A"], v["B"], v["model"], v["params"], v["P"], v["K"], v["L"], v["Z"], v["Q1"]
    ),
    "simulate": lambda v: simulate(
        v["A"], v["B"], v["model"], v["K"], TriggerPolicy.periodic(),
        ParamTrajectory.constant([0.3]), [1.0, -1.0], 5, v["P"],
    ),
    "compare_policies": lambda v: compare_policies(
        v["A"], v["B"], v["model"], v["K"], 0.3, ParamTrajectory.constant([0.3]),
        [1.0, -1.0], 5, v["P"],
    ),
    "check_dissipation": _dissipation,
    "check_epsilon_interval": _ENTRY_POINTS["check_epsilon_interval"],
}


@pytest.mark.parametrize("entry", sorted(_MODEL_ENTRY_POINTS))
def test_entry_point_rejects_a_model_of_another_state_dimension(demo_system, entry):
    v = _demo(demo_system)
    v["model"] = UncertaintyModel(basis=(np.eye(3),), p_lo=[0.0], p_hi=[0.3], F=np.eye(3))
    with pytest.raises(ValueError, match=r"^uncertainty model is for state dimension 3, but "):
        _MODEL_ENTRY_POINTS[entry](v)
