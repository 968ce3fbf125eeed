"""One benchmark operation in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

The spec comes from run.py.  The first thing `main` does is import
`quartic_census.cli` and `quartic_census.census`; set-up time runs from the
worker's first statement (the interpreter is up) to the end of those
imports.  The operation is then timed alone, and one JSON object is printed
on stdout.

Around the operation the worker times `host_probe` (see run.py, which
scales every time by it).
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def host_probe() -> float:
    """Host speed: geometric mean of the times of a pure-Python loop and of
    a loop of numpy operations on small arrays (the census's typical mix),
    neither of which uses quartic_census.  Its arrays are a few KB, so it
    adds nothing to the peak RSS."""
    import numpy as np

    t0 = time.monotonic()
    acc = 0
    for i in range(300_000):
        acc += i * i
    t1 = time.monotonic()
    for i in range(300):
        a = np.arange(i, i + 4000, dtype=np.int64)
        b = (a * a - 7) % 97
        keep = (np.gcd(a, b + 1) == 1) & (b > 40)
        np.concatenate([np.sqrt(a[keep].astype(np.float64)).astype(np.int64), a[:10]]).sum()
    t2 = time.monotonic()
    return math.sqrt((t1 - t0) * (t2 - t1))


def census_op(spec: dict) -> dict:
    from quartic_census import census

    cfg = census.CensusConfig(
        x=spec["x"], mode=spec["mode"], shards=spec["shards"], emit=spec["emit"]
    )
    t0 = time.monotonic()
    tal = census.run_census(cfg)
    # summarize's first call imports asymptotics and with it scipy, a fixed
    # ~0.6 s that no census change can move; it is imported here, after the
    # shards have forked as in a CLI run, but left out of the wall time
    t_import = time.monotonic()
    import quartic_census.asymptotics  # noqa: F401

    t_import = time.monotonic() - t_import
    summary = census.summarize(cfg, tal)
    csv = census.records_csv(tal) if cfg.emit else ""
    digest = census.output_hash(summary, tal if cfg.emit else None)
    wall = time.monotonic() - t0 - t_import
    return {
        "wall_s": wall,
        "total": summary["total"],
        "per_family": summary["per_family"],
        "excluded": summary["excluded"],
        "output_hash": digest,
        "records": len(tal.records),
        "csv_bytes": len(csv),
    }


def oracle_triples(seed: int, batch: int, box: int, n: int) -> list:
    """The seeded sample of family triples from the criterion-2 box."""
    rng = random.Random(f"oracle-box:{seed}:{batch}")
    a_values = [a for a in range(-box, box + 1) if a != 0]
    return [
        (rng.randint(1, 3), rng.choice(a_values), rng.randint(-box, box), rng.randint(-box, box))
        for _ in range(n)
    ]


def oracle_op(spec: dict) -> dict:
    """The inner loop of `cli.validate_box`, through the same bindings, on a
    seeded sample of the box."""
    from quartic_census import arith, cli, forms

    triples = oracle_triples(spec["seed"], spec["batch"], spec["box"], spec["triples"])
    primes = [int(p) for p in arith.primes_upto(spec["pmax"])]
    checked = mismatches = 0
    t0 = time.monotonic()
    for fam, A, B, C in triples:
        c = forms.FamilyCoords(fam, A, B, C)
        F = forms.to_form(c)
        if cli.disc_quartic(F) == 0:
            continue
        table = cli.order_from_form(F)
        for p in primes:
            checked += 1
            if cli.is_maximal_at(c, p) != cli.p_maximality_oracle(table, p):
                mismatches += 1
    wall = time.monotonic() - t0
    return {
        "wall_s": wall,
        "checked": checked,
        "mismatches": mismatches,
        "records": 0,
        "csv_bytes": 0,
    }


def own_peak_rss_kb() -> int:
    """Peak RSS of this process since exec.  getrusage's ru_maxrss would
    also count the launching process's peak, which exec carries over."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.loads(sys.argv[1])
    import quartic_census.census  # noqa: F401  (the set-up being measured)
    import quartic_census.cli  # noqa: F401

    setup_s = time.monotonic() - T_START
    active = None
    if spec["trace"]:
        import tracer

        active = tracer.install()
    before = host_probe()
    out = census_op(spec) if spec["kind"] == "census" else oracle_op(spec)
    out["probe_before_s"] = before
    out["probe_s"] = (before + host_probe()) / 2
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = (own_peak_rss_kb() + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    if active is not None:
        out["layers"] = tracer.layer_metrics(active.spans, out["records"], out["csv_bytes"])
        tracer.write_spans(active.spans, spec["trace_out"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
