"""Regenerate references.json: the census outputs at every pinned X.

    python3 perfbench/pin.py

Run this only at a commit whose outputs are trusted (the references were made
at the seed commit, before any optimisation).  A change that alters `src/`
must leave references.json alone: the benchmark's correctness gate is the
comparison with these values.
"""

import json
import sys

from run import HERE, OFFSETS, WORKLOADS, launch, op_spec, pinned_fields


def reference(name: str, workload: dict, seed: int) -> tuple[int, dict]:
    spec = op_spec(workload, seed, 0, False)
    res, err = launch(spec)
    if res is None:
        raise SystemExit(f"{name} X={spec['x']}: {err}")
    return spec["x"], {k: res[k] for k in pinned_fields(workload)}


def main() -> int:
    refs = {}
    for name, workload in WORKLOADS.items():
        if workload["kind"] != "census":
            continue
        refs[name] = dict(reference(name, workload, seed) for seed in range(OFFSETS))
        print(name, "pinned", len(refs[name]), "values of X", file=sys.stderr)
    with open(HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
