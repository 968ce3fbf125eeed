"""Outside-in tracer for the census benchmark.

Nothing in `src/` knows about it: `install()` replaces module attributes and
class methods of `quartic_census` with wrappers that record one span per
call (id, parent id, name, start, end, attrs).  Each name is patched where
the caller looks it up: `census` imported `vec_isqrt`, `factorize` and
`vec_is_maximal_at` by name, and `cli` imported `disc_quartic`,
`order_from_form`, `p_maximality_oracle` and `is_maximal_at`, so those
bindings are the ones patched.

Spans stay in memory; `layer_metrics` reduces them to the per-layer metrics
named in BENCHMARK.json and `write_spans` dumps them once the operation is
over.  Forked shard children hand their spans back through the pickled shard
result (see `_ShardResult`), so shard busy time and the work done inside the
shards are measured too.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

_now = time.monotonic

#: The tracer of this process; the parent's copy receives shard spans while
#: shard results are unpickled, which needs a module-level hook.
_ACTIVE: "Tracer | None" = None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, attrs)
        self.stack = [0]
        self.pid = os.getpid()
        self.n = 0

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a span-recording wrapper.

        before(args) runs ahead of the call; after(args, before_value) runs
        after it and gives the span's attrs (else the before value does)."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.n += 1
            sid = (self.pid << 32) | self.n
            parent = stack[-1]
            pre = before(args) if before else None
            stack.append(sid)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, after(args, pre) if after else pre))

        setattr(owner, attr, traced)


class _ShardResult(tuple):
    """Shard return value carrying the child's spans; unpickles in the parent
    into the plain tuple that `run_census` expects."""

    def __reduce__(self):
        return (_deposit, (tuple(self), self.spans))


def _deposit(values, spans):
    if _ACTIVE is not None:
        _ACTIVE.spans.extend(spans)
    return values


def _elems(args):
    return int(np.broadcast(*args[1:4]).size)


def _classify_before(args):
    fam, tal = args[1], args[7]
    return fam, len(args[2]), int(tal.counts[fam].sum())


def _classify_after(args, pre):
    fam, cand, acc0 = pre
    return fam, cand, int(args[7].counts[fam].sum()) - acc0


def install() -> Tracer:
    """Patch the quartic_census entry points; returns the active tracer."""
    global _ACTIVE
    from quartic_census import arith, census, cli, forms, maximality

    t = _ACTIVE = Tracer()
    # census driver, set-up and emission
    t.wrap(census, "run_census", "census.run_census")
    t.wrap(census._Ctx, "__init__", "census.setup")
    t.wrap(census._Windows, "__init__", "census.windows_build")
    t.wrap(arith.PackedSquarefree, "__init__", "arith.sieve_build")
    t.wrap(census.Tallies, "merge", "census.merge")
    t.wrap(census, "summarize", "census.summarize")
    t.wrap(census, "records_csv", "census.records_csv")
    t.wrap(census, "output_hash", "census.output_hash")
    # enumeration
    for fam in (1, 2, 3):
        t.wrap(census, f"_family{fam}_unit", f"census.fam{fam}.unit")
    t.wrap(census, "vec_isqrt", "census.vec_isqrt", before=lambda a: len(a[0]))
    t.wrap(arith, "vec_isqrt", "arith.vec_isqrt")
    t.wrap(census._Windows, "contains_mask", "census.contains_mask")
    # filter
    t.wrap(census, "_classify_and_tally", "census.classify", _classify_before, _classify_after)
    t.wrap(census, "_deep_check", "census.deep_check")
    t.wrap(census, "factorize", "arith.factorize")
    t.wrap(census, "vec_is_maximal_at", "maximality.vec_is_maximal_at", before=_elems)
    # oracle path: the cli bindings (as validate_box calls them)
    t.wrap(forms, "to_form", "forms.to_form")
    t.wrap(cli, "disc_quartic", "forms.disc_quartic")
    t.wrap(cli, "order_from_form", "order_oracle.order_from_form")
    t.wrap(cli, "p_maximality_oracle", "order_oracle.p_maximality_oracle")
    t.wrap(cli, "is_maximal_at", "maximality.is_maximal_at")
    # shards: the fork pool resolves the task function by name in the child,
    # which hands its spans back inside the result
    t.wrap(census, "_run_shard_fork", "census.shard")
    shard_fn = census._run_shard_fork

    @functools.wraps(shard_fn)
    def shard_with_spans(units):
        t.pid = os.getpid()
        start = len(t.spans)
        out = _ShardResult(shard_fn(units))
        out.spans = t.spans[start:]
        del t.spans[start:]
        return out

    census._run_shard_fork = shard_with_spans
    return t


def _union(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(spans, records: int, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced operation (names as in BENCHMARK.json,
    without trace.overhead_s, which needs the untraced runs)."""
    by: dict[str, list] = {}
    for s in spans:
        by.setdefault(s[2], []).append(s)

    def busy(name):
        return sum(s[4] - s[3] for s in by.get(name, ()))

    def calls(name):
        return len(by.get(name, ()))

    m = {
        "census.windows_build_s": busy("census.windows_build"),
        "arith.sieve_build_s": busy("arith.sieve_build"),
    }
    classify = [s for s in by.get("census.classify", ()) if s[5] is not None]
    candidates = 0
    for fam in (1, 2, 3):
        mine = [s for s in classify if s[5][0] == fam]
        cls_s = sum(s[4] - s[3] for s in mine)
        cand = sum(s[5][1] for s in mine)
        acc = sum(s[5][2] for s in mine)
        candidates += cand
        m[f"census.fam{fam}.units"] = calls(f"census.fam{fam}.unit")
        # every classify call of a family runs inside one of its units
        m[f"census.fam{fam}.enum_s"] = busy(f"census.fam{fam}.unit") - cls_s
        m[f"census.fam{fam}.classify_s"] = cls_s
        m[f"census.fam{fam}.candidates"] = cand
        m[f"census.fam{fam}.accepted"] = acc
        m[f"census.fam{fam}.yield"] = acc / cand if cand else 0.0
    xscan = sum(s[5] for s in by.get("census.vec_isqrt", ()))
    m.update(
        {
            "arith.vec_isqrt_s": busy("census.vec_isqrt") + busy("arith.vec_isqrt"),
            "census.xscan_elems": xscan,
            "census.scan_per_candidate": xscan / candidates if candidates else 0.0,
            "census.contains_mask_s": busy("census.contains_mask"),
            "census.contains_mask_calls": calls("census.contains_mask"),
            "census.deep_check_calls": calls("census.deep_check"),
            "census.deep_check_s": busy("census.deep_check"),
            "arith.factorize_s": busy("arith.factorize"),
            "maximality.vec_is_maximal_at_s": busy("maximality.vec_is_maximal_at"),
            "maximality.vec_is_maximal_at_elems": sum(
                s[5] for s in by.get("maximality.vec_is_maximal_at", ())
            ),
            "census.records": records,
            "census.records_csv_s": busy("census.records_csv"),
            "census.csv_bytes": csv_bytes,
            "census.output_hash_s": busy("census.output_hash"),
            "census.merge_s": busy("census.merge"),
            "census.summarize_s": busy("census.summarize"),
        }
    )
    driver_self = 0.0
    for run in by.get("census.run_census", ()):
        kids = [(s[3], s[4]) for s in spans if s[1] == run[0]]
        driver_self += (run[4] - run[3]) - _union(kids)
    m["census.driver_self_s"] = driver_self
    shard = [s[4] - s[3] for s in by.get("census.shard", ())]
    wait = 0.0
    if shard and by.get("census.merge"):
        # the parent waits from the end of the set-up to the first merge
        setup_end = max(s[4] for s in by["census.setup"])
        first_merge = min(s[3] for s in by["census.merge"])
        wait = (first_merge - setup_end) - max(shard)
    m.update(
        {
            "census.shard.busy_max_s": max(shard, default=0.0),
            "census.shard.busy_min_s": min(shard, default=0.0),
            "census.shard.imbalance": max(shard) / min(shard) if shard else 0.0,
            "census.shard.wait_s": wait,
        }
    )
    for name in (
        "order_oracle.order_from_form",
        "order_oracle.p_maximality_oracle",
        "maximality.is_maximal_at",
    ):
        m[f"{name}_s"] = busy(name)
        m[f"{name}_calls"] = calls(name)
    m["forms.to_form_s"] = busy("forms.to_form")
    m["forms.disc_quartic_s"] = busy("forms.disc_quartic")
    return m


def write_spans(spans, path: str) -> None:
    """One tab-separated line per span: id, parent, name, start, end, attrs."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart_s\tend_s\tattrs\n")
        for sid, parent, name, t0, t1, attrs in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{attrs if attrs is not None else ''}\n")
