"""Command line front end.

Subcommands: synth (design the controller and report feasibility),
simulate (run one closed loop and export a CSV trace), compare (periodic
versus event-triggered on a shared plant realization), verify (audits of
the configured design: the loop energy bound of the trigger proof, the
dissipation of one event-triggered run, and the exact interval of
1/epsilon on which every design condition holds), and scaffold (write a
template configuration).
--seed overrides the seed of a random parameter trajectory; nothing else
is random, so a command that has no such trajectory says on stderr that
the seed has no effect. All file outputs are deterministic: floats are
rounded to 12 significant digits (inf and NaN become null in JSON), JSON
keys are sorted, and no timestamps are recorded, so identical inputs
produce byte-identical outputs.

Exit codes: 0 success, 2 configuration error (or an --out that cannot be
written), 3 numerical failure, 4 verification found failing checks. A
numerical failure, overflow included, writes no file and one line on
stderr; when the trigger coefficient is undefined, the feasibility report
that shows why is printed on stdout before it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from dataclasses import asdict, fields

import numpy as np

from .config import load_config, save_config, scaffold_config
from .errors import ConfigError, ToolkitError
from .simulation import (
    POLICY_EVENT,
    TRAJ_RANDOM,
    ParamTrajectory,
    TriggerPolicy,
    compare_policies,
    simulate,
)
from .synthesis import synthesize
from .verification import check_dissipation, check_epsilon_interval, check_loop_energy_bound

# verify runs no random campaign any more. The name stays, at 0, because
# the benchmark (perfbench/workloads.py) still reads it.
CAMPAIGN_SAMPLES = 0


def _round_floats(obj):
    """Round floats to 12 significant digits; a non-finite float becomes None.

    JSON has no token for inf or NaN, so they are written as null.
    """
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return float(f"{obj:.12g}") if np.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(value) for value in obj]
    return obj


def _write_json(payload, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_round_floats(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _fmt(value) -> str:
    return f"{float(value):.12g}"


def write_trace_csv(trace, path) -> None:
    """Export a simulation trace with one row per recorded step.

    Columns: k, the state, the applied input, the squared holding error the
    trigger examined, the trigger threshold mu ||x||^2 (zero for periodic
    runs), the transmission decision as 1 or 0, the plant parameters, and
    the Lyapunov value V = x' P x.
    """
    n = trace.states.shape[1]
    m = trace.inputs.shape[1]
    d = trace.p.shape[1]
    header = ["k"]
    header += [f"x_{i + 1}" for i in range(n)]
    header += [f"u_{i + 1}" for i in range(m)]
    header += ["e_norm_sq", "threshold", "triggered"]
    header += ["p"] if d == 1 else [f"p_{i + 1}" for i in range(d)]
    header += ["V"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for k in range(trace.states.shape[0]):
            row = [str(k)]
            row += [_fmt(v) for v in trace.states[k]]
            row += [_fmt(v) for v in trace.inputs[k]]
            row += [_fmt(trace.monitored_sq[k]), _fmt(trace.thresholds[k])]
            row += [str(int(trace.triggered[k]))]
            row += [_fmt(v) for v in trace.p[k]]
            row += [_fmt(trace.V[k])]
            writer.writerow(row)


def _outcome_payload(outcome) -> dict:
    payload = {f.name: getattr(outcome, f.name) for f in fields(outcome)}
    report = payload.pop("report")
    checks = [asdict(check) for check in report.checks]
    payload["feasibility"] = {"all_hold": report.all_hold, "checks": checks}
    return payload


def _print_report(report) -> None:
    for check in report.checks:
        margin = "n/a" if check.margin is None else f"{check.margin:.6g}"
        print(f"  [{check.verdict:>8s}] {check.condition} (margin {margin})")


def _artifact(args, name: str) -> str:
    """The path of the named artifact in --out, creating the directory."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _note_unused_seed(args, reason: str) -> None:
    """Say on stderr that a given --seed cannot change what the command writes."""
    if args.seed is not None:
        print(f"note: --seed has no effect on {args.command}: {reason}", file=sys.stderr)


def _resolve_trajectory(config, args):
    trajectory = config.simulation.trajectory
    if trajectory.kind != TRAJ_RANDOM:
        _note_unused_seed(args, f"the configured trajectory is {trajectory.kind}, not random")
    elif args.seed is not None:
        return ParamTrajectory.random(args.seed)
    return trajectory


def cmd_synth(args) -> int:
    _note_unused_seed(args, "the design draws nothing at random")
    config = load_config(args.config)
    outcome = synthesize(config.A, config.B, config.model, config.params)
    out_path = _artifact(args, "synthesis.json")
    _write_json(_outcome_payload(outcome), out_path)
    print(
        f"synthesis converged in {outcome.iterations} iterations "
        f"(residual {outcome.residual:.3e}), mu = {outcome.mu:.9g}"
    )
    _print_report(outcome.report)
    if not outcome.report.all_hold:
        print("warning: some design conditions fail; the trigger guarantee does not apply")
    print(f"wrote {out_path}")
    return 0


def _closed_loop(args):
    """The set-up that simulate, compare and verify share.

    Loads the config and synthesizes it. Returns the config, the outcome,
    the trigger coefficient of the run (the configured mu, else the
    design's) and run(function, how): function is simulate or
    compare_policies and how its policy or mu, on the configured plant,
    initial state, length and parameter trajectory (--seed applies, or is
    noted as unused, when run is called). Parameter rows clamped into the
    box are reported once, in one line of the command's own on stdout,
    in place of the library's UserWarning.
    """
    config = load_config(args.config)
    outcome = synthesize(config.A, config.B, config.model, config.params)
    settings = config.simulation
    mu = settings.mu if settings.mu is not None else outcome.mu

    def run(function, how):
        trajectory = _resolve_trajectory(config, args)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"\d+ parameter rows fell outside", UserWarning)
            result = function(
                config.A, config.B, config.model, outcome.K, how, trajectory,
                settings.x0, settings.n_steps, outcome.P,
            )
        clamped = getattr(result, "periodic", result).clamped_steps
        if clamped:
            print(f"warning: {clamped} parameter rows were clamped into the box")
        return result

    return config, outcome, mu, run


def cmd_simulate(args) -> int:
    config, _, mu, run = _closed_loop(args)
    event = config.simulation.policy == POLICY_EVENT
    policy = TriggerPolicy.event(mu) if event else TriggerPolicy.periodic()
    trace = run(simulate, policy)
    out_path = _artifact(args, "trace.csv")
    write_trace_csv(trace, out_path)
    final_norm = float(np.linalg.norm(trace.states[-1]))
    print(
        f"{policy.kind} run: {trace.transmissions} transmissions over "
        f"{trace.n_steps} steps, final state norm {final_norm:.6g}"
    )
    if trace.diverged:
        print("warning: state norm exceeded the divergence limit; trace was truncated")
    print(f"wrote {out_path}")
    return 0


def cmd_compare(args) -> int:
    config, _, mu, run = _closed_loop(args)
    comparison = run(compare_policies, mu)
    payload = {
        "mu": mu,
        "n_steps": config.simulation.n_steps,
        "savings_ratio": comparison.savings_ratio,
        "inter_event_gaps": {
            "min": comparison.min_gap,
            "mean": comparison.mean_gap,
            "max": comparison.max_gap,
        },
    }
    table = [f"{'policy':>10s} {'transmissions':>14s} {'final norm':>12s}"]
    for label, trace in (("periodic", comparison.periodic), ("event", comparison.event)):
        norm = float(np.linalg.norm(trace.states[-1]))
        payload[label] = {
            "transmissions": trace.transmissions,
            "final_state_norm": norm,
            "diverged": trace.diverged,
        }
        table.append(f"{label:>10s} {trace.transmissions:>14d} {norm:>12.6g}")
    out_path = _artifact(args, "comparison.json")
    _write_json(payload, out_path)
    print("\n".join(table))
    print(f"savings ratio: {comparison.savings_ratio:.4f} (mu = {mu:.9g})")
    print(f"wrote {out_path}")
    return 0


def cmd_verify(args) -> int:
    config, outcome, mu, run = _closed_loop(args)
    A, B, model, params = config.A, config.B, config.model, config.params
    P, K, L = outcome.P, outcome.K, outcome.L
    # The audits, in the order verification.json lists them.
    results = [
        check_loop_energy_bound(A, B, P, params, K, L),
        check_dissipation(
            run(simulate, TriggerPolicy.event(mu)),
            P,
            outcome.Q1,
            K,
            B,
            outcome.Z,
            params.sigma,
            model=model,
            F=model.F,
        ),
        check_epsilon_interval(A, B, model, params, P, K, L),
    ]
    all_hold = all(result.holds for result in results)
    payload = {
        "all_hold": all_hold,
        "checks": [asdict(result) for result in results],
    }
    out_path = _artifact(args, "verification.json")
    _write_json(payload, out_path)
    for result in results:
        status = "ok" if result.holds else "FAIL"
        print(f"  [{status:>4s}] {result.name} (margin {result.margin:.6g}) {result.note}")
    print(f"wrote {out_path}")
    if not all_hold:
        print("verification found failing checks")
        return 4
    return 0


def cmd_scaffold(args) -> int:
    _note_unused_seed(args, "the template is fixed")
    config = scaffold_config()
    out_path = _artifact(args, "experiment.json")
    save_config(config, out_path)
    print(f"wrote {out_path}")
    return 0


# Each subcommand: its handler and its help line.
_COMMANDS = {
    "synth": (cmd_synth, "design the controller and report feasibility"),
    "simulate": (cmd_simulate, "run one closed loop and export a CSV trace"),
    "compare": (cmd_compare, "periodic versus event-triggered transmission"),
    "verify": (cmd_verify, "audit the configured design and its epsilon"),
    "scaffold": (cmd_scaffold, "write a template configuration"),
}


def _seed(text: str) -> int:
    """The argparse type of --seed: a nonnegative integer."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def add_common_options(parser, needs_config=True) -> None:
    """Declare --config (unless needs_config is false), --out and --seed on parser."""
    if needs_config:
        parser.add_argument("--config", required=True, help="experiment configuration (JSON)")
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    parser.add_argument(
        "--seed",
        type=_seed,
        default=None,
        help="override the seed of a random parameter trajectory (a nonnegative integer)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etcontrol",
        description="Robust event-triggered state feedback for uncertain linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        # scaffold writes a template and reads no configuration.
        add_common_options(sub.add_parser(name, help=help_line), needs_config=name != "scaffold")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every overflow that matters fails a check or raises NumericalError.
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        # An undefined trigger coefficient comes with the report that explains it.
        if getattr(exc, "report", None) is not None:
            _print_report(exc.report)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # not from the config, which raises ConfigError: from --out
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
