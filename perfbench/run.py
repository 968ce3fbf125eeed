"""Benchmark of the quartic-census engine: one workload per invocation.

    python3 perfbench/run.py --workload cond-count --seed 1 --seconds 25 --trace 0

Every operation runs in a fresh interpreter (worker.py), so set-up time and
peak RSS are measured per operation.  Operations repeat until --seconds have
passed (at least MIN_OPS of each kind); each is checked against the pinned
references in references.json, and the medians are reported.  --trace 1
alternates untraced and traced operations and reports the per-layer metrics
of BENCHMARK.json instead of the end-to-end ones.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.

See README.md for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

#: Each census workload pins this many X values; the seed picks one of them.
OFFSETS = 16
MIN_OPS = 3
#: Times are reported at a fixed host speed, because the speed of a shared
#: VM drifts (by up to 1.6x within a minute on two cores): each time is
#: multiplied by PROBE_REF_S / probe, with the probe nearest to it, that is
#: worker.host_probe() right after the set-up for setup_s and the mean of the
#: probes just before and just after the operation for the operation's times.
#: PROBE_REF_S is the probe's typical value on a 2-core Xeon VM with Python
#: 3.11 and numpy 2.4.
PROBE_REF_S = 0.040
OP_TIMEOUT_S = 90

#: Sizes are scaled down from the seed-commit study (README.md) so that an
#: operation takes about 2 s on two cores and a 25-second run gathers 7-18.
WORKLOADS = {
    "cond-count": {"kind": "census", "mode": "conductor", "x": 600_000, "step": 150, "shards": 1, "emit": False},
    "disc-count": {"kind": "census", "mode": "discriminant", "x": 600_000, "step": 150, "shards": 1, "emit": False},
    "cond-emit": {"kind": "census", "mode": "conductor", "x": 300_000, "step": 75, "shards": 2, "emit": True},
    "oracle-box": {"kind": "oracle", "box": 20, "pmax": 13, "triples": 800},
}

PINNED = ("total", "per_family", "excluded")


def pinned_fields(workload: dict) -> tuple:
    return PINNED + ("output_hash",) if workload["emit"] else PINNED


def op_spec(workload: dict, seed: int, index: int, trace: bool, trace_out: str = "") -> dict:
    spec = dict(workload, trace=trace, trace_out=trace_out)
    if workload["kind"] == "census":
        spec["x"] = workload["x"] + workload["step"] * (seed % OFFSETS)
    else:
        spec.update(seed=seed, batch=index)
    return spec


def launch(spec: dict):
    """Run one operation in a fresh process; (result or None, error text)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {OP_TIMEOUT_S} s"
    finally:
        # the worker's shard processes share its session; leave none behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        return None, (err.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "worker printed no result"


def oracle_comparisons(workload: dict) -> int:
    """Comparisons in one oracle-box batch if no triple were degenerate."""
    primes = [p for p in range(2, workload["pmax"] + 1) if all(p % d for d in range(2, p))]
    return workload["triples"] * len(primes)


def check(name: str, workload: dict, spec: dict, res, refs: dict):
    """(attempted, failed, reason) of one operation against the references.

    A census run is one operation; on oracle-box each comparison is one, and
    a batch that crashed counts all the comparisons it would have made (an
    upper bound, as degenerate triples make none) as failed."""
    if workload["kind"] == "oracle":
        if res is None:
            n = oracle_comparisons(workload)
            return n, n, "batch crashed"
        return res["checked"], res["mismatches"], f"{res['mismatches']} oracle mismatches"
    if res is None:
        return 1, 1, "census crashed"
    ref = refs.get(name, {}).get(str(spec["x"]))
    if ref is None:
        return 1, 1, f"no pinned reference for X={spec['x']}"
    bad = [k for k in pinned_fields(workload) if res.get(k) != ref.get(k)]
    return 1, int(bool(bad)), f"differs from the reference in {bad}"


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def host_context(loadavg: tuple) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": loadavg,
    }


def _line(out, name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {value:>16.6g} {unit:<6} {note}".rstrip(), file=out)


def run_workload(name: str, workload: dict, seed: int, seconds: float, trace: bool, refs: dict, out=sys.stdout) -> dict:
    """Measure one workload; prints a report on `out` and returns the result
    object of the last output line."""
    bench = load_benchmark()
    loadavg = os.getloadavg()
    untraced, traced = [], []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        traced_op = trace and index % 2 == 1
        trace_out = str(TRACE_DIR / f"{name}.tsv") if traced_op else ""
        spec = op_spec(workload, seed, index, traced_op, trace_out)
        res, err = launch(spec)
        a, f, reason = check(name, workload, spec, res, refs)
        attempted += a
        failed += f
        if err or f:
            print(f"  op {index}: {err or reason}", file=out)
        if res is not None:
            res["speed"] = PROBE_REF_S / res["probe_s"]
            (traced if traced_op else untraced).append(res)
        index += 1
        if time.monotonic() >= deadline and index >= (2 if trace else 1) * MIN_OPS:
            break
    if not untraced or (trace and not traced):
        raise SystemExit(f"{name}: no operation completed, nothing to report")

    census = workload["kind"] == "census"
    scale = [r["speed"] for r in untraced]
    raw = [r["wall_s"] for r in untraced]
    wall = [w * k for w, k in zip(raw, scale)]
    work = "records_per_s" if census else "oracle_checks_per_s"
    rate = [(r["total"] if census else r["checked"]) / w for r, w in zip(untraced, wall)]
    e2e = {
        "wall_s": statistics.median(wall),
        "throughput_per_s": statistics.median(rate),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] * PROBE_REF_S / r["probe_before_s"] for r in untraced),
    }
    size = f"X={op_spec(workload, seed, 0, False)['x']}" if census else f"{workload['triples']} triples/op"
    print(f"workload {name}  seed {seed}  {size}  untraced ops {len(untraced)}  traced ops {len(traced)}", file=out)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    _line(out, "wall_s", e2e["wall_s"], "s", f"median of {len(wall)}, min {min(wall):.4g}, max {max(wall):.4g}")
    _line(out, "unscaled wall_s", statistics.median(raw), "s", f"host speed {statistics.median(scale):.3f} of the reference")
    _line(out, work, e2e["throughput_per_s"], "1/s", "reported as throughput_per_s")
    for key in ("peak_rss_mb", "setup_s"):
        _line(out, key, e2e[key], units[key])
    _line(out, "failed_ops", failed / attempted, "share", f"{failed} of {attempted}")

    if trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(raw)
        for key, value in layers.items():
            _line(out, key, value, units.get(key, "?"))
        metrics, declared = layers, bench["per_layer"]
    else:
        metrics, declared = e2e, bench["end_to_end"]
    print("host " + json.dumps(host_context(loadavg)), file=out)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quartic_census" / "census.py").is_file():
        print(f"error: no quartic_census sources under {SRC}", file=sys.stderr)
        return 2
    # compile the bytecode and warm the file cache before anything is timed
    warm = subprocess.run(
        [sys.executable, "-c", "import quartic_census.cli, quartic_census.census"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=OP_TIMEOUT_S,
    )
    if warm.returncode != 0:
        print(f"error: cannot import quartic_census:\n{warm.stderr}", file=sys.stderr)
        return 1
    with open(HERE / "references.json") as fh:
        refs = json.load(fh)
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), refs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
