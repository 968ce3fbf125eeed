"""Repeat run.py over seeds and workloads and report the run-to-run spread.

    python3 perfbench/sweep.py [--runs 10] [--seed-base 100]

Run i uses seed seed-base + i for every workload of BENCHMARK.json, for its
run_seconds, in the declared order for even i and reversed for odd i.  For
each end-to-end metric the report gives the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, marked "!"
when it is not below a third of the metric's bound.  Every run's result,
with the host context, is written to .bench_trace/sweep.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, TRACE_DIR, host_context, load_benchmark


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    args = ap.parse_args()
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    record = {"host": host_context(os.getloadavg()), "runs": []}
    for i in range(args.runs):
        seed = args.seed_base + i
        for name in names if i % 2 == 0 else names[::-1]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            record["runs"].append({"workload": name, "seed": seed, "exit": proc.returncode, "result": result})
            status = "ok" if result and result["correct"] else f"FAILED (exit {proc.returncode})"
            print(f"run {i} {name} seed {seed}: {status}", file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in names:
        results = [r["result"] for r in record["runs"] if r["workload"] == name and r["result"]]
        print(f"{name}: {len(results)} runs, failed ops {sum(r['failed'] for r in results)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            flag = " " if spread < bound / 3 else "!"
            print(f"  {metric:<40} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}{flag}")
    TRACE_DIR.mkdir(exist_ok=True)
    with open(TRACE_DIR / "sweep.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
