"""Every metric of every workload in one table, with the tracing overhead.

    python3 perfbench/report.py --seed 1

Runs every workload of BENCHMARK.json twice through run.py, untraced and
traced, each for the run_seconds given there, then prints
the end-to-end metrics by name with their units, the per-layer metrics of
the traced runs, the error rate with its base, and the tracing overhead
(traced minus untraced, for every timing both runs measure). The table is
also written to perfbench/out/report.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=HERE.parent)
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    table = {}
    for workload in (w["name"] for w in bench["workloads"]):
        plain = run(workload, args.seed, bench["run_seconds"], 0)
        traced = run(workload, args.seed, bench["run_seconds"], 1)
        end_to_end = {k: {"value": v, "unit": UNITS[k]} for k, v in plain["end_to_end"].items()}
        end_to_end.update(plain["named"])
        overhead = {}
        for name in plain["named"]:
            if name != "error_rate":
                overhead[name] = traced["named"][name]["value"] - plain["named"][name]["value"]
        for name in ("op_ms_p50", "op_ms_p90", "ops_per_s"):
            overhead[name] = traced["end_to_end"][name] - plain["end_to_end"][name]
        table[workload] = {
            "end_to_end": end_to_end,
            "per_layer": traced["per_layer"],
            "tracing_overhead": overhead,
            "properties": plain["properties"],
            "host_probe_ms": plain["host_probe_ms"],
            "environment": plain["environment"],
        }

        print(f"== {workload} (seed {args.seed}, {plain['passes']} passes untraced, "
              f"{traced['passes']} traced)")
        for name, m in end_to_end.items():
            value = m["value"]
            print(f"  {name:<46s} {value:>14.6g} {m['unit']}")
        for name, m in traced["per_layer"].items():
            print(f"  {name:<46s} {m['value']:>14.6g} {m['unit']}")
        for name, value in overhead.items():
            print(f"  tracing overhead {name:<29s} {value:>+14.6g}")
        for line in plain["failures"][:5]:
            print(f"  failed: {line}")

    with open(HERE / "out" / "report.json", "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
