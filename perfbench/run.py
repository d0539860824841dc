"""etcontrol benchmark: one workload, one run.

    python3 perfbench/run.py --workload design-family --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run generates its inputs from --seed
(in a separate process, with a scipy oracle), sets up, measures whole
passes over the inputs for about --seconds, checks every output, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the same workload runs with spans around the calls into
etcontrol's public functions, and the metrics are the per-layer ones.
A fuller record (environment, host-speed probe, input properties, the
named metrics of each workload, spans) goes to perfbench/out/.
"""

import os

# Before numpy loads here or in any child: the matrices are tiny, so extra
# BLAS threads would only add noise on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "import.numpy_ms": "ms",
    "import.scipy_linalg_ms": "ms",
    "import.etcontrol_ms": "ms",
    "config.load_ms": "ms",
    "synthesis.riccati_ms_p50": "ms",
    "synthesis.riccati_ms_p90": "ms",
    "synthesis.riccati_iterations_median": "count",
    "synthesis.riccati_iterations_max": "count",
    "synthesis.riccati_failures": "count",
    "synthesis.gains_ms": "ms",
    "synthesis.report_ms": "ms",
    "synthesis.report_box_evals": "count",
    "synthesis.report_us_per_box_eval": "us",
    "simulation.realize_ms": "ms",
    "simulation.step_us": "us",
    "simulation.event_tx_ratio": "ratio",
    "verification.dissipation_us_per_step": "us",
    "verification.dissipation_skipped_ratio": "ratio",
    "verification.checks_ms": "ms",
    "verification.identity_campaign_us_per_sample": "us",
    "verification.cross_term_campaign_us_per_sample": "us",
    "verification.campaign_samples": "count",
    "cli.artifact_write_ms": "ms",
    "cli.write_trace_csv_us_per_row": "us",
}
WORKLOAD_NAMES = ("cli-bundled", "design-family", "closed-loop-mc")


def run_child(argv, **kwargs):
    """Run a child to completion; a failure or a timeout ends the benchmark."""
    proc = subprocess.run(
        [sys.executable] + argv,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        **kwargs,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def generate_inputs(workload, seed, out_dir):
    path = out_dir / "inputs.pkl"
    script = str(HERE / "inputs.py")
    run_child([script, "--workload", workload, "--seed", str(seed), "--out", str(path)])
    return path


def setup_probe(workload, seed, inputs, out_dir, clock):
    """Seconds from spawning a fresh interpreter to the end of its warm-up.

    The child imports etcontrol, does the workload's program set-up and the
    warm-up, then reports; the time it spent loading the generated inputs
    is benchmark work and is subtracted. Returns (scaled, raw) seconds.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--out", str(out_dir)]
    if inputs is not None:
        argv += ["--inputs", str(inputs)]
    clock.tick(force=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    clock.tick(force=True)
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()[-2000:]}")
    raw = ready - t0 - float(line.split()[1])
    return raw * clock.factor(t0, ready), raw


def probe_main(args):
    import workloads

    t0 = time.perf_counter()
    inputs = workloads.load_inputs(args.inputs) if args.inputs else None
    excluded = time.perf_counter() - t0
    workload = workloads.WORKLOADS[args.workload](inputs, args.seed, args.out)
    workload.setup(None)
    workloads.warm_up(None, Path(args.out) / "warm-up", args.seed)
    print(f"ready {excluded!r}", flush=True)
    return 0


def import_times(clock):
    """Cumulative import times of numpy, scipy.linalg and etcontrol.

    Measured with -X importtime in fresh interpreters that import numpy and
    then etcontrol, so scipy.linalg counts only if etcontrol pulls it in.
    """
    runs = []
    for _ in range(IMPORT_PROBES):
        clock.tick(force=True)
        t0 = time.perf_counter()
        proc = run_child(["-X", "importtime", "-c", "import numpy; import etcontrol"])
        factor = clock.factor(t0, time.perf_counter())
        clock.tick(force=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), factor * int(parts[1]) / 1e3)
        runs.append({
            "import.numpy_ms": cumulative.get("numpy", 0.0),
            "import.scipy_linalg_ms": cumulative.get("scipy.linalg", 0.0),
            "import.etcontrol_ms": cumulative.get("etcontrol", 0.0),
        })
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def measure(workload, tracer, seconds):
    """Whole passes until another would end after --seconds (at least one)."""
    workload.clock.tick(force=True)
    t0 = time.perf_counter()
    passes = 0
    while True:
        workload.run_pass(tracer)
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / passes > seconds:
            workload.clock.tick(force=True)
            return passes, elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "etcontrol" / "__init__.py", ROOT / "configs" / "feasible_demo.json")
               if not p.is_file()]
    if missing:
        print(f"error: run from an etcontrol checkout; missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Every child (inputs, probes, CLI processes) imports this checkout's etcontrol.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if args.setup_probe:
        return probe_main(args)
    # One CPU for this process and every child it starts, so that the
    # host-speed probes run where the timed work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from hostspeed import REFERENCE_PROBE_S, HostClock

    env = environment()
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    needs_inputs = args.workload != "cli-bundled"
    inputs_path = generate_inputs(args.workload, args.seed, out_dir) if needs_inputs else None

    clock = HostClock()
    setups, layer_imports = [], {}
    if args.trace:
        layer_imports = import_times(clock)
    else:
        for k in range(SETUP_PROBES):
            setups.append(setup_probe(args.workload, args.seed, inputs_path, out_dir / f"probe-{k}", clock))

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        workloads.install_tracing(tracer)
    cls = workloads.WORKLOADS[args.workload]
    inputs = workloads.load_inputs(inputs_path) if inputs_path else None
    kwargs = {"in_process": bool(args.trace)} if cls is workloads.CliBundled else {}
    workload = cls(inputs, args.seed, out_dir / "run", clock=clock, **kwargs)
    workload.setup(tracer)
    workloads.warm_up(tracer, out_dir / "warm-up", args.seed)

    passes, elapsed = measure(workload, tracer, args.seconds)
    if tracer:
        tracer.uninstall()

    e2e, details, props = workload.summary(scaled=True)
    e2e_raw, details_raw, _ = workload.summary(scaled=False)
    if setups:
        e2e["setup_s"] = statistics.median(s for s, _ in setups)
        e2e_raw["setup_s"] = statistics.median(r for _, r in setups)
    attempted, failed = workload.attempted_failed()
    details["error_rate"] = (failed / attempted, f"failed/attempted = {failed}/{attempted}")
    if args.trace:
        dump = tracer.dump()
        metrics = dict(tracing.layer_metrics(dump, clock.factor), **layer_imports)
        dump["probes"] = {"starts": clock.starts, "durations": clock.durations}
        with open(out_dir / "spans.json", "w", encoding="utf-8") as handle:
            json.dump(dump, handle, default=str)
        units = LAYER_UNITS
    else:
        metrics = e2e
        units = E2E_UNITS
    host = clock.summary_ms()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "measured_s": elapsed,
        "environment": dict(env, loadavg_end=os.getloadavg()),
        "host_probe_ms": host,
        "reference_probe_ms": 1e3 * REFERENCE_PROBE_S,
        "setup_s_samples": setups,
        "end_to_end": e2e,
        "end_to_end_raw": e2e_raw,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        "named_raw": {k: {"value": v, "unit": u} for k, (v, u) in details_raw.items()},
        "properties": props,
        "per_layer": {k: {"value": metrics[k], "unit": u} for k, u in units.items()} if args.trace else None,
        "attempted": attempted,
        "failed": failed,
        "failures": workload.check_failures,
    }
    with open(out_dir / "result.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, default=str)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{passes} passes in {elapsed:.2f} s, {attempted} ops, {failed} failed")
    print(f"host probe {host['median']:.3f} ms median of {host['probes']} "
          f"(min {host['min']:.3f}, max {host['max']:.3f}; reference {1e3 * REFERENCE_PROBE_S:g}); "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, {env['cpu_model']}")
    for name, (value, unit) in details.items():
        print(f"  {name:<40s} {value:>14.6g} {unit}")
    for name, value in metrics.items():
        print(f"  {name:<40s} {value:>14.6g} {units[name]}")
    for line in workload.check_failures:
        print(f"  failed: {line}")
    print(json.dumps({
        "correct": workload.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
