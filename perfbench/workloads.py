"""The three workloads: set-up, one timed pass, and the output checks.

Each workload is a closed loop: one process, one operation at a time, the
next one starting when the previous one returns. A pass runs every input of
the workload once, in a fixed order; a timed run repeats whole passes.
"""

import contextlib
import io
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import etcontrol
import etcontrol.cli
import etcontrol.simulation
import etcontrol.synthesis
from etcontrol import ParamTrajectory, SynthesisParams, TriggerPolicy, UncertaintyModel

import oracle
import tracing
from hostspeed import HostClock

ROOT = Path(__file__).resolve().parent.parent
DEMO = str(ROOT / "configs" / "feasible_demo.json")
REFERENCE = str(ROOT / "configs" / "reference_example.json")
CONFIGS = {"demo": DEMO, "reference": REFERENCE}
CLI_COMMANDS = ("synth", "simulate", "compare", "verify")
ARTIFACTS = {
    "synth": "synthesis.json",
    "simulate": "trace.csv",
    "compare": "comparison.json",
    "verify": "verification.json",
}
# The reference config breaks the design window on purpose; its verify run
# reports the failing checks with exit code 4, a documented finding.
EXPECTED_EXIT = {("verify", "reference"): 4}
WARMUP_CAMPAIGN_SAMPLES = 50
SLOW_ITERATIONS = 1000

P_REL_TOL = 1e-8
MU_REL_TOL = 1e-8
ROW_REL_TOL = 1e-12


# The public names the benchmark and cli.main call, with the hooks that
# count the work of each call. They are traced in both namespaces.
TRACED = {
    "load_config": None,
    "synthesize": tracing.iterations_hook,
    "synthesize_matched": tracing.iterations_hook,
    "as_matched_model": None,
    "simulate": tracing.simulate_hook,
    "compare_policies": tracing.compare_hook,
    "check_inversion_identity": None,
    "check_cross_term_bound": None,
    "check_loop_energy_bound": None,
    "check_dissipation": tracing.dissipation_hook,
    "identity_campaign": tracing.campaign_hook,
    "cross_term_campaign": tracing.campaign_hook,
}


def op(tracer, key):
    """Context of one top-level operation; a span when tracing."""
    return contextlib.nullcontext() if tracer is None else tracer.span("op", key=key)


def install_tracing(tracer):
    """Trace the public names the workloads, cli.main and synthesize call.

    The workloads call etcontrol.<name> and etcontrol.cli.main; cli.main
    gets spans around every public function it calls; synthesize gets spans
    around its gain, trigger and report steps, so the Riccati solve is the
    self time of the synthesize span. The report span counts the box
    evaluations (matrix_at calls) made while it runs.
    """
    for owner in (etcontrol, etcontrol.cli):
        for attr, hook in TRACED.items():
            if hasattr(owner, attr):
                tracer.install(owner, attr, hook)
    tracer.install(etcontrol.cli, "main")
    tracer.install(etcontrol.cli, "write_trace_csv", tracing.csv_hook)
    for attr in ("feedback_gain", "virtual_gain", "error_weight", "decay_matrix", "trigger_coefficient"):
        tracer.install(etcontrol.synthesis, attr)
    tracer.install(etcontrol.simulation.ParamTrajectory, "realize")

    report = etcontrol.synthesis.feasibility_report
    model_cls = etcontrol.synthesis.UncertaintyModel
    matrix_at = model_cls.matrix_at

    def counted_report(*args, **kwargs):
        calls = [0]

        def counting(self, p):
            calls[0] += 1
            return matrix_at(self, p)

        model_cls.matrix_at = counting
        try:
            with tracer.span("synthesis.feasibility_report") as s:
                result = report(*args, **kwargs)
                s.attrs = {"evals": calls[0]}
        finally:
            model_cls.matrix_at = matrix_at
        return result

    tracer.replace(etcontrol.synthesis, "feasibility_report", counted_report)


@contextlib.contextmanager
def quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def warm_up(tracer, out_dir, seed):
    """One pass of the demo pipeline through every layer, before timing.

    Every workload runs it in set-up, so that lazy initialisation is done
    before the timed ops and every layer has spans in every traced run.
    """
    with op(tracer, "warm-up"):
        common = ["--config", DEMO, "--out", str(out_dir), "--seed", str(seed)]
        with quiet():
            codes = [etcontrol.cli.main([cmd] + common) for cmd in ("synth", "simulate", "compare")]
        if any(codes):
            raise RuntimeError(f"warm-up CLI exit codes {codes}")
        cfg = etcontrol.load_config(DEMO)
        outcome = etcontrol.synthesize(cfg.A, cfg.B, cfg.model, cfg.params)
        trace = etcontrol.simulate(
            cfg.A,
            cfg.B,
            cfg.model,
            outcome.K,
            TriggerPolicy.event(outcome.mu),
            ParamTrajectory.random(seed),
            cfg.simulation.x0,
            cfg.simulation.n_steps,
            outcome.P,
        )
        eps = cfg.params.epsilon
        etcontrol.check_inversion_identity(outcome.P, eps)
        etcontrol.check_cross_term_bound(outcome.P, eps, outcome.A_closed, cfg.model.matrix_at(cfg.model.p_hi))
        etcontrol.check_loop_energy_bound(cfg.A, cfg.B, outcome.P, cfg.params, outcome.K, outcome.L)
        audit = etcontrol.check_dissipation(
            trace, outcome.P, outcome.Q1, outcome.K, cfg.B, outcome.Z, cfg.params.sigma,
            model=cfg.model, F=cfg.model.F,
        )
        etcontrol.identity_campaign(samples=WARMUP_CAMPAIGN_SAMPLES, seed=seed)
        etcontrol.cross_term_campaign(samples=WARMUP_CAMPAIGN_SAMPLES, seed=seed)
        if not audit.holds:
            raise RuntimeError(f"warm-up dissipation audit failed: {audit.note}")


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


class Workload:
    """A workload's inputs, program set-up, timed pass and output checks."""

    name = None

    def __init__(self, inputs, seed, out_dir, clock=None):
        self.inputs = inputs
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.clock = clock or HostClock()
        # (operation key, perf_counter stamps around its timed parts, ok)
        self.records = []
        self.check_failures = []
        self.wrong = 0

    def setup(self, tracer):
        """Program work done once before timing (inside setup_s)."""

    def run_pass(self, tracer):
        raise NotImplementedError

    def attempted_failed(self):
        return len(self.records), sum(1 for r in self.records if not r[-1])

    def fail(self, what, wrong=True):
        """Note a failed operation; wrong means the program's output was wrong."""
        self.wrong += wrong
        if len(self.check_failures) < 20:
            self.check_failures.append(what)

    def summary(self, scaled=True):
        """(end-to-end metrics except setup_s, named metrics, input properties)."""
        raise NotImplementedError

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def per_key(self, part=None, scaled=True):
        """Operation key -> median over the passes of its time.

        part selects one timed component (None: the whole operation);
        scaled times are at the reference host speed (see hostspeed.py).
        """
        groups = {}
        for key, stamps, _ in self.records:
            if part is None:
                t = stamps[-1] - stamps[0]
            else:
                t = stamps[part + 1] - stamps[part]
            if scaled:
                t *= self.clock.factor(stamps[0], stamps[-1])
            groups.setdefault(key, []).append(t)
        return {key: statistics.median(times) for key, times in groups.items()}

    def generic(self, scaled):
        """Percentiles across the distinct inputs of their per-input medians."""
        times = list(self.per_key(scaled=scaled).values())
        return {
            "op_ms_p50": 1e3 * tracing.quantile(times, 50),
            "op_ms_p90": 1e3 * tracing.quantile(times, 90),
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": self.peak_rss_mb(),
        }


class CliBundled(Workload):
    """etcontrol synth|simulate|compare|verify on both bundled configs.

    Untraced, each command runs in a fresh process, as users type it.
    Traced, cli.main runs in-process so its calls can carry spans.
    """

    name = "cli-bundled"

    def __init__(self, inputs, seed, out_dir, clock=None, in_process=False):
        super().__init__(inputs, seed, out_dir, clock)
        self.in_process = in_process
        self.first_bytes = {}
        self.child_rss_kb = 0

    def run_pass(self, tracer):
        for cmd in CLI_COMMANDS:
            for label, path in CONFIGS.items():
                out = self.out_dir / f"{label}-{cmd}"
                argv = [cmd, "--config", path, "--out", str(out), "--seed", str(self.seed)]
                self.clock.tick()
                if self.in_process:
                    with op(tracer, f"{cmd}:{label}"), quiet():
                        t0 = time.perf_counter()
                        code = etcontrol.cli.main(argv)
                        t1 = time.perf_counter()
                else:
                    t0, t1, code = self._spawn(argv)
                ok = self._check(cmd, label, code, out / ARTIFACTS[cmd])
                self.records.append(((cmd, label), (t0, t1), ok))

    def _spawn(self, argv):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "etcontrol.cli"] + argv,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return t0, t1, proc.returncode

    def _check(self, cmd, label, code, artifact):
        expected = EXPECTED_EXIT.get((cmd, label), 0)
        if code != expected:
            self.fail(f"{cmd} {label}: exit code {code}, expected {expected}")
            return False
        try:
            data = artifact.read_bytes()
        except OSError as exc:
            self.fail(f"{cmd} {label}: no artifact ({exc})")
            return False
        first = self.first_bytes.setdefault((cmd, label), data)
        if data != first:
            self.fail(f"{cmd} {label}: {artifact.name} differs from the first repetition")
            return False
        return True

    def peak_rss_mb(self):
        if self.in_process:
            return super().peak_rss_mb()
        return self.child_rss_kb / 1024.0

    def summary(self, scaled=True):
        per_key = self.per_key(scaled=scaled)
        details = {
            f"cli_{cmd}_s": (statistics.median(t for k, t in per_key.items() if k[0] == cmd), "s")
            for cmd in CLI_COMMANDS
        }
        props = {
            "configs": sorted(CONFIGS),
            "commands": list(CLI_COMMANDS),
            "runs_per_command": len(self.records) // len(per_key),
            "campaign_samples_per_verify": 2 * etcontrol.cli.CAMPAIGN_SAMPLES,
            "process_per_command": not self.in_process,
        }
        return self.generic(scaled), details, props


def _model(inst):
    return UncertaintyModel(basis=tuple(inst["basis"]), p_lo=inst["p_lo"], p_hi=inst["p_hi"], F=inst["F"])


def _params(inst):
    return SynthesisParams(
        Q=inst["Q"],
        R1=inst["R1"],
        R2=inst["R2"],
        alpha=inst["alpha"],
        beta=inst["beta"],
        epsilon=inst["epsilon"],
        sigma=inst["sigma"],
    )


class DesignFamily(Workload):
    """One design per seeded instance: synthesize, or the matched pipeline."""

    name = "design-family"

    def __init__(self, inputs, seed, out_dir, clock=None):
        super().__init__(inputs, seed, out_dir, clock)
        self.outcomes = {}

    def run_pass(self, tracer):
        for inst in self.inputs["instances"]:
            error = None
            self.clock.tick()
            with op(tracer, inst["id"]):
                t0 = time.perf_counter()
                try:
                    model, params = _model(inst), _params(inst)
                    if inst["matched"]:
                        matched = etcontrol.as_matched_model(inst["B"], model)
                        outcome = etcontrol.synthesize_matched(inst["A"], inst["B"], matched, params)
                    else:
                        outcome = etcontrol.synthesize(inst["A"], inst["B"], model, params)
                except Exception as exc:  # every instance is well-posed: count, go on
                    outcome, error = None, exc
                t1 = time.perf_counter()
            if error is not None:
                self.fail(
                    f"instance {inst['id']} ({inst['slice']}): {type(error).__name__}: {error}",
                    wrong=False,
                )
            ok = error is None and self._check(inst, outcome)
            self.outcomes.setdefault(inst["id"], (outcome, error))
            self.records.append((inst["id"], (t0, t1), ok))

    def _check(self, inst, outcome):
        label = f"instance {inst['id']} ({inst['slice']})"
        rel = _rel(outcome.P, inst["X"])
        if rel > P_REL_TOL:
            self.fail(f"{label}: P differs from the scipy DARE by {rel:.2e} relative")
            return False
        residual = oracle.riccati_residual(inst, outcome.P)
        if abs(residual - outcome.residual) > 1e-12 * max(1.0, float(np.max(np.abs(outcome.P)))):
            self.fail(f"{label}: residual {outcome.residual:.3e}, recomputed {residual:.3e}")
            return False
        mu = oracle.trigger_mu(inst, outcome.P)
        if mu is None or abs(mu - outcome.mu) > MU_REL_TOL * abs(mu):
            self.fail(f"{label}: mu {outcome.mu!r}, recomputed {mu!r}")
            return False
        return True

    def summary(self, scaled=True):
        e2e = self.generic(scaled)
        details = {
            "design_ms_p50": (e2e["op_ms_p50"], "ms"),
            "design_ms_p90": (e2e["op_ms_p90"], "ms"),
            "designs_per_s": (e2e["ops_per_s"], "1/s"),
        }
        insts = self.inputs["instances"]
        iterations = []
        clean = failed = 0
        p_error = {}
        for inst in insts:
            outcome, error = self.outcomes[inst["id"]]
            if outcome is not None:
                iterations.append(outcome.iterations)
                clean += outcome.report.all_hold
                rel = _rel(outcome.P, inst["X"])
                p_error[inst["slice"]] = max(p_error.get(inst["slice"], 0.0), rel)
            else:
                iterations.append(getattr(error, "iterations", None) or 0)
                failed += 1
        share = lambda pred: sum(1 for i in insts if pred(i)) / len(insts)  # noqa: E731
        props = {
            "instances": len(insts),
            "share_d2": share(lambda i: len(i["basis"]) == 2),
            "share_matched": share(lambda i: i["matched"]),
            "share_slow_converging": sum(1 for it in iterations if it >= SLOW_ITERATIONS) / len(insts),
            "share_clean_report": clean / len(insts),
            "share_window_holds": share(lambda i: i["window"]),
            "riccati_failures": failed,
            "riccati_iterations_median": statistics.median(iterations),
            "riccati_iterations_max": max(iterations),
            # Largest relative distance of P from the scipy DARE per slice,
            # next to the check's tolerance, so accuracy changes show.
            "p_rel_error_max": dict(sorted(p_error.items())),
            "p_rel_tolerance": P_REL_TOL,
        }
        return e2e, details, props


class ClosedLoopMC(Workload):
    """compare_policies over many seeds and initial states, then the audit."""

    name = "closed-loop-mc"

    def __init__(self, inputs, seed, out_dir, clock=None):
        super().__init__(inputs, seed, out_dir, clock)
        self.designs = []
        self.sample_stats = {}

    def setup(self, tracer):
        for k, spec in enumerate(self.inputs["designs"]):
            with op(tracer, f"design-{k}"):
                if spec is None:
                    cfg = etcontrol.load_config(DEMO)
                    A, B, model, params = cfg.A, cfg.B, cfg.model, cfg.params
                else:
                    A, B, model, params = spec["A"], spec["B"], _model(spec), _params(spec)
                outcome = etcontrol.synthesize(A, B, model, params)
            if not outcome.report.all_hold:
                raise RuntimeError(f"design {k} has failing design conditions")
            if spec is not None and _rel(outcome.P, spec["X"]) > P_REL_TOL:
                raise RuntimeError(f"design {k}: P differs from the scipy DARE")
            self.designs.append((A, B, model, params, outcome))

    def run_pass(self, tracer):
        for sample in self.inputs["samples"]:
            A, B, model, params, outcome = self.designs[sample["design"]]
            trajectory = ParamTrajectory.random(sample["traj_seed"])
            self.clock.tick()
            with op(tracer, sample["id"]):
                t0 = time.perf_counter()
                comparison = etcontrol.compare_policies(
                    A, B, model, outcome.K, outcome.mu, trajectory,
                    sample["x0"], sample["n_steps"], outcome.P,
                )
                t1 = time.perf_counter()
                audit = etcontrol.check_dissipation(
                    comparison.event, outcome.P, outcome.Q1, outcome.K, B, outcome.Z,
                    params.sigma, model=model, F=model.F,
                )
                t2 = time.perf_counter()
            ok = self._check(sample, A, B, model, outcome, comparison, audit)
            self.records.append((sample["id"], (t0, t1, t2), ok))

    def _check(self, sample, A, B, model, outcome, comparison, audit):
        label = f"sample {sample['id']}"
        basis = np.array(model.basis)
        min_norm = np.inf
        for trace in (comparison.periodic, comparison.event):
            n = trace.n_steps
            x, u, fired = trace.states, trace.inputs, trace.triggered[:n]
            steps = A + np.einsum("kd,dij->kij", trace.p[:n], basis)
            expect = np.einsum("kij,kj->ki", steps, x[:n]) + u[:n] @ B.T
            scale = np.einsum("kij,kj->ki", np.abs(steps), np.abs(x[:n])) + np.abs(u[:n]) @ np.abs(B).T
            if np.any(np.abs(x[1:] - expect) > ROW_REL_TOL * scale + 1e-300):
                self.fail(f"{label}: a {trace.policy.kind} row breaks the plant equation")
                return False
            # The state the controller holds at step k is the last one it was
            # sent before k; the rule must reproduce every decision.
            sent = np.where(fired, np.arange(n), -1)
            last = np.maximum.accumulate(np.concatenate([[-1], sent[:-1]]))
            if trace.policy.kind == "event" and n > 1:
                e = x[np.maximum(last, 0)] - x[:n]
                e_sq, x_sq = np.einsum("ki,ki->k", e, e), np.einsum("ki,ki->k", x[:n], x[:n])
                rule = (last < 0) | ((e_sq >= outcome.mu * x_sq) & ~((e_sq == 0.0) & (x_sq == 0.0)))
            else:
                rule = np.ones(n, dtype=bool)
            if not np.array_equal(rule, fired) or trace.triggered[n]:
                self.fail(f"{label}: a {trace.policy.kind} row breaks the trigger rule")
                return False
            if trace.transmissions != int(trace.triggered.sum()):
                self.fail(f"{label}: transmissions != triggered.sum()")
                return False
            min_norm = min(min_norm, float(np.min(np.linalg.norm(x, axis=1))))
        if not audit.holds:
            self.fail(f"{label}: dissipation audit fails on a clean design: {audit.note}")
            return False
        self.sample_stats.setdefault(sample["id"], (min_norm, comparison.savings_ratio))
        return True

    def summary(self, scaled=True):
        sim, audit = self.per_key(0, scaled), self.per_key(1, scaled)
        samples = self.inputs["samples"]
        horizons = {s["id"]: s["n_steps"] for s in samples}
        e2e = self.generic(scaled)
        details = {
            "sim_ms_p50": (1e3 * tracing.quantile(list(sim.values()), 50), "ms"),
            "sim_ms_p90": (1e3 * tracing.quantile(list(sim.values()), 90), "ms"),
            "sim_steps_per_s": (sum(2 * horizons[k] for k in sim) / sum(sim.values()), "1/s"),
            "audit_steps_per_s": (sum(horizons[k] for k in audit) / sum(audit.values()), "1/s"),
        }
        norms = [v[0] for v in self.sample_stats.values()]
        props = {
            "samples": len(samples),
            "designs": [
                {"n": d[0].shape[0], "d": d[2].dimension, "clean_report": d[4].report.all_hold}
                for d in self.designs
            ],
            "share_per_design": [
                sum(1 for s in samples if s["design"] == k) / len(samples)
                for k in range(len(self.designs))
            ],
            "horizon_min": min(horizons.values()),
            "horizon_median": statistics.median(horizons.values()),
            "horizon_max": max(horizons.values()),
            "min_state_norm": min(norms) if norms else None,
            "savings_ratio_median": (
                statistics.median(v[1] for v in self.sample_stats.values()) if norms else None
            ),
        }
        return e2e, details, props


WORKLOADS = {w.name: w for w in (CliBundled, DesignFamily, ClosedLoopMC)}


def load_inputs(path):
    with open(path, "rb") as handle:
        return pickle.load(handle)
