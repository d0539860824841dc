#!/usr/bin/env python3
"""Repeated end-to-end benchmark runs, summarized into BENCH_<label>.json.

    python3 scripts/bench.py --label after --workloads closed-loop-mc --seeds 1 2 3
    python3 scripts/bench.py --label after --against ../parent --against-label before

Runs `perfbench/run.py --trace 0` once per workload and seed, each run in a
fresh process, in this checkout and, with --against, in a second checkout
as well. The two sides of a pair run back to back on the same workload
and seed, and the side that goes first alternates from seed to seed.
Nothing under perfbench/ is changed; every run reads its metrics from the
last line run.py prints.

Each checkout gets one file, BENCH_<label>.json in --out-dir, with per
workload the median and quartiles of each end-to-end metric of
BENCHMARK.json over the runs, every run's value, the operations attempted
and failed, and whether every run checked its outputs correct. It also
records the machine, the numpy version, the bytecode regime (whether
PYTHONDONTWRITEBYTECODE is set, and whether the checkout's src/ held a
__pycache__ before the first run) and a digest of the checkout's src/
tree, so that a file names the code it measured. With --against, this
checkout's file also gets, per workload and metric, the pairs it won, lost
and tied, and the gain test of the benchmark: at least nine tenths of
the pairs won, and the medians apart by more than the other side's
quartile spread, in the metric's better direction.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def _benchmark(root):
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _src_state(root):
    """Whether src/ holds a __pycache__, and the sha256 of its .py files (path and bytes)."""
    src = root / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return any(src.rglob("__pycache__")), digest.hexdigest()


def _run(root, workload, seed, seconds):
    """One perfbench run in root; the parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} in {root.name} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    """(q1, median, q3) of the values, inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _summary(results, metrics):
    """Per-workload summary of one side's runs: {workload: [(seed, result), ...]}."""
    out = {}
    for workload, runs in results.items():
        entry = {
            "seeds": [seed for seed, _ in runs],
            "correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": {},
        }
        for name in metrics:
            values = [r["metrics"][name]["value"] for _, r in runs]
            q1, median, q3 = _quartiles(values)
            entry["metrics"][name] = {
                "unit": runs[0][1]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3, "values": values,
            }
        out[workload] = entry
    return out


def _pairs(mine, theirs, metrics):
    """Per workload and metric: pairs won, lost and tied by mine, and the gain test."""
    out = {}
    for workload, runs in mine.items():
        out[workload] = {}
        for name, better in metrics.items():
            sign = 1.0 if better == "higher" else -1.0
            a = runs["metrics"][name]
            b = theirs[workload]["metrics"][name]
            diffs = [sign * (x - y) for x, y in zip(a["values"], b["values"])]
            wins = sum(d > 0 for d in diffs)
            out[workload][name] = {
                "pairs": len(diffs),
                "wins": wins,
                "losses": sum(d < 0 for d in diffs),
                "ties": sum(d == 0 for d in diffs),
                "median_change": a["median"] / b["median"] - 1.0 if b["median"] else None,
                "other_spread": b["q3"] - b["q1"],
                "gain": wins >= 0.9 * len(diffs)
                and sign * (a["median"] - b["median"]) > b["q3"] - b["q1"],
            }
    return out


def _environment():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = (ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name"))
            cpu = next(models, None)
    except OSError:
        pass
    return {
        "machine": {
            "system": platform.system(), "arch": platform.machine(), "cpu_model": cpu,
            "nproc": os.cpu_count(), "python": platform.python_version(),
        },
        "numpy": metadata.version("numpy"),
    }


def main(argv=None):
    benchmark = _benchmark(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    known = [w["name"] for w in benchmark["workloads"]]
    parser.add_argument("--workloads", nargs="+", choices=known, default=known)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--against", type=Path, help="a second checkout to alternate with")
    parser.add_argument("--against-label")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    labels = [args.label] + ([args.against_label] if args.against else [])
    if args.against and not args.against_label:
        parser.error("--against needs --against-label")
    for label in labels:
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
            parser.error(f"label {label!r}: use letters, digits, '_', '.' and '-' only")
    if len(set(labels)) != len(labels):
        parser.error("the two labels must differ")
    roots = [ROOT] + ([args.against.resolve()] if args.against else [])
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    states = [_src_state(root) for root in roots]
    results = [{w: [] for w in args.workloads} for _ in roots]
    for index, seed in enumerate(args.seeds):
        # Each workload's pairs alternate the side that runs first.
        order = list(range(len(roots)))[:: 1 if index % 2 == 0 else -1]
        for workload in args.workloads:
            for side in order:
                result = _run(roots[side], workload, seed, args.seconds)
                results[side][workload].append((seed, result))
                print(f"{labels[side]}: {workload} seed {seed}: "
                      + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)

    summaries = [_summary(r, metrics) for r in results]
    env = _environment()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for side, label in enumerate(labels):
        pycache, digest = states[side]
        record = {
            "label": label,
            "src_sha256": digest,
            "seconds": args.seconds,
            "workloads": summaries[side],
            **env,
            "bytecode": {
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                "src_pycache_before": pycache,
            },
        }
        if args.against:
            other = 1 - side
            record["against"] = labels[other]
            if side == 0:
                record["pairs"] = _pairs(summaries[0], summaries[1], metrics)
        path = args.out_dir / f"BENCH_{label}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
