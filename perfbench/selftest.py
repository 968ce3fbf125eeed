"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric is printed with its unit,
that idle layers read zero, that a deliberately wrong pinned hash is counted
as a failure and not as a pass, that a crashed oracle batch counts all its
comparisons as failed, and that run.py refuses to report from a directory
that holds only the benchmark's own files.
"""

import io
import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, check, launch, load_benchmark, op_spec, oracle_comparisons, pinned_fields, run_workload

TINY = {
    "cond-count": {"kind": "census", "mode": "conductor", "x": 20_000, "step": 0, "shards": 1, "emit": False},
    "disc-count": {"kind": "census", "mode": "discriminant", "x": 20_000, "step": 0, "shards": 1, "emit": False},
    "cond-emit": {"kind": "census", "mode": "conductor", "x": 20_000, "step": 0, "shards": 2, "emit": True},
    "oracle-box": {"kind": "oracle", "box": 20, "pmax": 13, "triples": 40},
}

#: names the report must print, with their units, besides BENCHMARK.json's
REPORTED = {"census": ("records_per_s 1/s", "failed_ops share"), "oracle": ("oracle_checks_per_s 1/s", "failed_ops share")}


def tiny_refs() -> dict:
    refs = {}
    for name, w in TINY.items():
        if w["kind"] == "census":
            spec = op_spec(w, 0, 0, False)
            res, err = launch(spec)
            assert res is not None, err
            refs[name] = {str(spec["x"]): {k: res[k] for k in pinned_fields(w)}}
    return refs


def measure(name, refs, trace):
    report = io.StringIO()
    result = run_workload(name, TINY[name], 0, 0.0, trace, refs, out=report)
    json.dumps(result)  # the last output line must serialise
    return result, " ".join(report.getvalue().split())


def main() -> int:
    bench = load_benchmark()
    refs = tiny_refs()
    for name, w in TINY.items():
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result, report = measure(name, refs, trace)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in declared}, (name, trace, got)
            for m in declared:
                assert f"{m['name']} " in report and m["unit"] in report, (name, m)
            for phrase in REPORTED[w["kind"]]:
                metric, unit = phrase.split()
                assert f" {metric} " in report and unit in report, (name, phrase)
            if not trace:
                assert all(v["value"] > 0 for v in result["metrics"].values()), (name, result)
            else:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                idle = ["order_oracle.", "maximality.is_maximal_at", "forms."] if w["kind"] == "census" else ["census.", "arith.", "maximality.vec"]
                for k, v in values.items():
                    if any(k.startswith(p) for p in idle):
                        assert v == 0, (name, k, v)
                if name == "cond-count":
                    assert values["census.records"] == 0 and values["census.fam3.candidates"] > 0
                if name == "cond-emit":
                    assert values["census.shard.busy_min_s"] > 0 and values["census.records"] > 0
                if name == "oracle-box":
                    assert values["order_oracle.p_maximality_oracle_calls"] > 0
        print(f"selftest: {name} ok", file=sys.stderr)

    # a wrong pinned hash must fail every census operation of cond-emit
    wrong = json.loads(json.dumps(refs))
    for ref in wrong["cond-emit"].values():
        ref["output_hash"] = "0" * 64
    result, _ = measure("cond-emit", wrong, False)
    assert not result["correct"] and result["failed"] == result["attempted"] > 0, result
    print("selftest: wrong pinned hash counted as a failure", file=sys.stderr)

    # a crashed oracle batch counts every comparison it would have made (a
    # box of 0 leaves no A to draw, so the worker raises)
    broken = dict(TINY["oracle-box"], box=0)
    spec = op_spec(broken, 0, 0, False)
    res, err = launch(spec)
    assert res is None and err, (res, err)
    attempted, failed, _ = check("oracle-box", broken, spec, res, refs)
    assert attempted == failed == oracle_comparisons(broken) == 40 * 6, (attempted, failed)
    print("selftest: a crashed oracle batch counts all its comparisons as failed", file=sys.stderr)

    # a directory with only BENCHMARK.json and the benchmark's files
    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "cond-count", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print("selftest: refuses to run without the sources", file=sys.stderr)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
