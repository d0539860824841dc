"""Command line front end.

Subcommands: synth (design the controller and report feasibility),
simulate (run one closed loop and export a CSV trace), compare (periodic
versus event-triggered on a shared plant realization), verify (audits of
the configured design: its identities and bounds, the dissipation of one
event-triggered run, and the exact interval of 1/epsilon on which every
design condition holds), and scaffold (write a template configuration).
--seed overrides the seed of a random parameter trajectory; nothing else
is random. All file outputs are deterministic: floats are rounded to
12 significant digits, JSON keys are sorted, and no timestamps are
recorded, so identical inputs produce byte-identical outputs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 verification found failing checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .config import load_config, save_config, scaffold_config
from .errors import ConfigError, FeasibilityError, ToolkitError
from .simulation import (
    POLICY_EVENT,
    TRAJ_RANDOM,
    ParamTrajectory,
    TriggerPolicy,
    compare_policies,
    simulate,
)
from .synthesis import synthesize
from .verification import (
    CheckResult,
    check_cross_term_bound_at_vertices,
    check_dissipation,
    check_epsilon_interval,
    check_inversion_identity,
    check_loop_energy_bound,
)

# verify runs no random campaign any more. The name stays, at 0, because
# the benchmark (perfbench/workloads.py) still reads it.
CAMPAIGN_SAMPLES = 0


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
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
    checks = []
    for check in outcome.report.checks:
        checks.append(
            {
                "condition": check.condition,
                "verdict": check.verdict,
                "margin": check.margin,
                "witness_p": list(check.witness_p) if check.witness_p is not None else None,
                "description": check.description,
                "points_evaluated": check.points_evaluated,
                "margin_exact": check.margin_exact,
            }
        )
    return {
        "mode": outcome.mode,
        "P": outcome.P,
        "K": outcome.K,
        "L": outcome.L,
        "Z": outcome.Z,
        "Q1": outcome.Q1,
        "mu": outcome.mu,
        "A_closed": outcome.A_closed,
        "iterations": outcome.iterations,
        "residual": outcome.residual,
        "feasibility": {"all_hold": outcome.report.all_hold, "checks": checks},
    }


def _print_report(report) -> None:
    for check in report.checks:
        margin = "n/a" if check.margin is None else f"{check.margin:.6g}"
        print(f"  [{check.verdict:>8s}] {check.condition} (margin {margin})")


def _resolve_trajectory(config, seed_override):
    trajectory = config.simulation.trajectory
    if seed_override is not None and trajectory.kind == TRAJ_RANDOM:
        return ParamTrajectory.random(seed_override)
    return trajectory


def cmd_synth(args) -> int:
    config = load_config(args.config)
    outcome = synthesize(config.A, config.B, config.model, config.params)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "synthesis.json")
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


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    outcome = synthesize(config.A, config.B, config.model, config.params)
    settings = config.simulation
    if settings.policy == POLICY_EVENT:
        mu = settings.mu if settings.mu is not None else outcome.mu
        policy = TriggerPolicy.event(mu)
    else:
        policy = TriggerPolicy.periodic()
    trajectory = _resolve_trajectory(config, args.seed)
    trace = simulate(
        config.A,
        config.B,
        config.model,
        outcome.K,
        policy,
        trajectory,
        settings.x0,
        settings.n_steps,
        outcome.P,
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "trace.csv")
    write_trace_csv(trace, out_path)
    final_norm = float(np.linalg.norm(trace.states[-1]))
    print(
        f"{policy.kind} run: {trace.transmissions} transmissions over "
        f"{trace.n_steps} steps, final state norm {final_norm:.6g}"
    )
    if trace.diverged:
        print("warning: state norm exceeded the divergence limit; trace was truncated")
    if trace.clamped_steps:
        print(f"warning: {trace.clamped_steps} parameter rows were clamped into the box")
    print(f"wrote {out_path}")
    return 0


def cmd_compare(args) -> int:
    config = load_config(args.config)
    outcome = synthesize(config.A, config.B, config.model, config.params)
    settings = config.simulation
    mu = settings.mu if settings.mu is not None else outcome.mu
    trajectory = _resolve_trajectory(config, args.seed)
    comparison = compare_policies(
        config.A,
        config.B,
        config.model,
        outcome.K,
        mu,
        trajectory,
        settings.x0,
        settings.n_steps,
        outcome.P,
    )
    payload = {
        "mu": mu,
        "n_steps": settings.n_steps,
        "periodic": {
            "transmissions": comparison.periodic.transmissions,
            "final_state_norm": float(np.linalg.norm(comparison.periodic.states[-1])),
            "diverged": comparison.periodic.diverged,
        },
        "event": {
            "transmissions": comparison.event.transmissions,
            "final_state_norm": float(np.linalg.norm(comparison.event.states[-1])),
            "diverged": comparison.event.diverged,
        },
        "savings_ratio": comparison.savings_ratio,
        "inter_event_gaps": {
            "min": comparison.min_gap,
            "mean": comparison.mean_gap,
            "max": comparison.max_gap,
        },
    }
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "comparison.json")
    _write_json(payload, out_path)
    print(f"{'policy':>10s} {'transmissions':>14s} {'final norm':>12s}")
    for label, trace in (("periodic", comparison.periodic), ("event", comparison.event)):
        norm = float(np.linalg.norm(trace.states[-1]))
        print(f"{label:>10s} {trace.transmissions:>14d} {norm:>12.6g}")
    print(f"savings ratio: {comparison.savings_ratio:.4f} (mu = {mu:.9g})")
    print(f"wrote {out_path}")
    return 0


def cmd_verify(args) -> int:
    config = load_config(args.config)
    outcome = synthesize(config.A, config.B, config.model, config.params)
    results = []

    results.append(check_inversion_identity(outcome.P, config.params.epsilon))

    try:
        results.append(
            check_cross_term_bound_at_vertices(
                outcome.P, config.params.epsilon, outcome.A_closed, config.model
            )
        )
    except FeasibilityError as exc:
        results.append(
            CheckResult(
                name="cross_term_bound",
                holds=False,
                margin=float("-inf"),
                witness={},
                note=f"precondition failed: {exc}",
            )
        )

    results.append(
        check_loop_energy_bound(
            config.A, config.B, outcome.P, config.params, outcome.K, outcome.L
        )
    )

    settings = config.simulation
    mu = settings.mu if settings.mu is not None else outcome.mu
    trajectory = _resolve_trajectory(config, args.seed)
    trace = simulate(
        config.A,
        config.B,
        config.model,
        outcome.K,
        TriggerPolicy.event(mu),
        trajectory,
        settings.x0,
        settings.n_steps,
        outcome.P,
    )
    results.append(
        check_dissipation(
            trace,
            outcome.P,
            outcome.Q1,
            outcome.K,
            config.B,
            outcome.Z,
            config.params.sigma,
            model=config.model,
            F=config.model.F,
        )
    )

    results.append(
        check_epsilon_interval(
            config.A, config.B, config.model, config.params, outcome.P, outcome.K, outcome.L
        )
    )

    all_hold = all(result.holds for result in results)
    payload = {
        "all_hold": all_hold,
        "checks": [
            {
                "name": result.name,
                "holds": result.holds,
                "margin": None if not np.isfinite(result.margin) else result.margin,
                "witness": _round_floats(result.witness),
                "note": result.note,
            }
            for result in results
        ],
    }
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "verification.json")
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
    config = scaffold_config()
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "experiment.json")
    save_config(config, out_path)
    print(f"wrote {out_path}")
    return 0


def _seed(text: str) -> int:
    """The argparse type of --seed: a nonnegative integer."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etcontrol",
        description="Robust event-triggered state feedback for uncertain linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="experiment configuration (JSON)")
        p.add_argument("--out", default="results", help="output directory (default: results)")
        p.add_argument(
            "--seed",
            type=_seed,
            default=None,
            help="override the seed of a random parameter trajectory (a nonnegative integer)",
        )

    add_common(sub.add_parser("synth", help="design the controller and report feasibility"))
    add_common(sub.add_parser("simulate", help="run one closed loop and export a CSV trace"))
    add_common(sub.add_parser("compare", help="periodic versus event-triggered transmission"))
    add_common(sub.add_parser("verify", help="audit the configured design and its epsilon"))
    add_common(sub.add_parser("scaffold", help="write a template configuration"), needs_config=False)
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "verify": cmd_verify,
    "scaffold": cmd_scaffold,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
