"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1 2 3 4 5

Runs run.py once per seed on every workload of BENCHMARK.json, untraced and
for the run_seconds given there, and prints for every
end-to-end metric its median and the distance between the first and third
quartiles as a share of the median (statistics.quantiles, n=4), next to the
metric's bound in BENCHMARK.json. Writes the runs and the summary to
perfbench/out/spread.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)

    runs, summary = {}, {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=HERE.parent)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs[workload].append(dict(result, seed=seed))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound,
            }
        attempted = [r["attempted"] for r in runs[workload]]
        failed = [r["failed"] for r in runs[workload]]
        print(f"== {workload}: failed {failed} of {attempted}, "
              f"correct {all(r['correct'] for r in runs[workload])}")
        for name, s in summary[workload].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- over a third of the bound"
            print(f"  {name:<12s} median {s['median']:>12.5g}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}{flag}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "spread.json", "w", encoding="utf-8") as handle:
        json.dump({"seconds": bench["run_seconds"], "runs": runs, "summary": summary}, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
