import dataclasses
import os
import random
import signal
from math import isqrt

import pytest
from class_oracle import brute_force_class_oracle

from quartic_census.census import (
    SHARDS_MAX,
    CensusConfig,
    Tallies,
    count_d4_by_conductor,
    count_d4_by_disc,
    count_v4_by_disc,
    output_hash,
    records_csv,
    run_census,
    summarize,
)
from quartic_census.classify import GaloisTag, canonical_coords, galois_tag
from quartic_census.forms import FamilyCoords, disc_quartic, to_form
from quartic_census.maximality import is_maximal
from quartic_census.resolvent import conductor_poly

rng = random.Random(2)


def _check_windows(bound, square, xlim):
    """The window table at bound against a numpy brute force at every
    |x| <= xlim, and past its xmax every window empty.  The table is the
    window less the y with 1 <= |x^2 - y| <= 3 above the peak of
    y (x^2 - y)^e, which no family reaches."""
    import numpy as np

    from quartic_census.census import _Windows

    w = _Windows(bound, square)
    e = 2 if square else 1
    for x in range(max(xlim, w.xmax + 1) + 1):
        x2 = x * x
        # y > 0 has y (y - x^2)^e <= bound only within bound // x^2 of x^2,
        # and y < 0 has |y|^(1+e) <= bound
        y = np.arange(-isqrt(bound) - 2, x2 + bound // max(x2, 1) + 3, dtype=np.int64)
        want = (y != 0) & (y != x2) & (np.abs(y) * np.abs(x2 - y) ** e <= bound)
        want &= ~((y > x2 // (e + 1)) & (np.abs(x2 - y) <= 3))
        if x > w.xmax:
            assert not want.any(), (bound, e, x)
            continue
        got = (y < 0) & (-y <= w.neg_hi[x])
        for k in range(3):
            assert w.pos_lo[k, x] >= 1, (bound, e, x)
            got |= (w.pos_lo[k, x] <= y) & (y <= w.pos_hi[k, x])
        assert np.array_equal(got, want), (bound, e, x)
        assert w.reach[x] == np.abs(y[want]).max(initial=0), (bound, e, x)


def test_windows_exhaustive(monkeypatch):
    from quartic_census import census

    for square in (False, True):
        for bound in (1, 3, 17, 120, 801):
            _check_windows(bound, square, 44)
        # larger bounds, where the peak of y (x^2 - y)^e sits far from both
        # ends of the positive range
        seeded = random.Random(8)
        for _ in range(8):
            _check_windows(seeded.randint(10**4, 3 * 10**5), square, 0)
    # the check sees near-square pieces that start nearer x^2 than 4
    for near in (1, 2, 3):
        monkeypatch.setattr(census, "NEAR_SQUARE", near)
        for square in (False, True):
            with pytest.raises(AssertionError):
                _check_windows(801, square, 44)


def test_window_span():
    # span(u^2) is the first and the last |x| whose window holds some
    # |y| >= u^2, for every outer value u <= isqrt(y_eff) + 1: at every X up
    # to 2,000 against the table itself, in both modes.  So it holds every
    # such |x|, and is exactly their set wherever that set is one interval,
    # which it is at every X >= 14 sampled, up to the caps
    import numpy as np

    from quartic_census import census

    big = [10**5, 6 * 10**5, 10**7]
    for mode, cap in (("conductor", census.X_MAX_CONDUCTOR), ("discriminant", census.X_MAX_DISC)):
        gaps = []
        for X in [*range(1, 2001), *big, cap]:
            ctx = census._Ctx(CensusConfig(x=X, mode=mode, families=(1,)))
            w = ctx.windows
            us = np.arange(1, isqrt(ctx.y_eff) + 2, dtype=np.int64)
            lo, hi = w.span(us * us)
            if X <= 2000:
                held = w.reach[None, :] >= (us * us)[:, None]
                some = held.any(axis=1)
                ax = np.arange(w.xmax + 1)
                assert np.array_equal(lo[some], held[some].argmax(axis=1)), (mode, X)
                assert np.array_equal(hi[some], w.xmax - held[some, ::-1].argmax(axis=1)), (mode, X)
                assert (lo[~some] > hi[~some]).all(), (mode, X)
                inside = (lo[:, None] <= ax) & (ax <= hi[:, None])
                one = held.sum(axis=1) == np.maximum(hi - lo + 1, 0)
                assert (held <= inside).all() and np.array_equal(held[one], inside[one]), (mode, X)
            else:
                # the number of |x| that hold some |y| >= u^2 fills the span
                r = np.sort(w.reach)
                one = len(r) - np.searchsorted(r, us * us) == np.maximum(hi - lo + 1, 0)
            if not one.all():
                gaps.append(X)
        assert gaps == ([6, 7, 8, 13] if mode == "conductor" else [6, 7, 8]), (mode, gaps)


def test_one_window_table_per_run(monkeypatch):
    # families 1 and 2 share one table at the bound M = 4^e X - 1; a run of
    # family 3 alone builds none
    from quartic_census import census

    real, built = census._Windows, []

    def recording(bound, square):
        built.append((bound, square))
        return real(bound, square)

    monkeypatch.setattr(census, "_Windows", recording)
    for mode, e in (("conductor", 1), ("discriminant", 2)):
        for fams in ((1, 2, 3), (1,), (2,), (1, 3), (3,)):
            built.clear()
            run_census(CensusConfig(x=2000, mode=mode, families=fams))
            want = [] if fams == (3,) else [(4**e * 2000 - 1, mode == "discriminant")]
            assert built == want, (mode, fams)


def _slow_census(X, mode, fams):
    """Independent reference: direct coefficient boxes + scalar pipeline."""
    counts = [0, 0, 0]
    excl = {"c4": 0, "v4": 0, "reducible": 0, "boundary_orbits": 0}
    recs = []
    for fam in fams:
        if fam == 1:
            Am = X // 16 + 1
            Bm = isqrt(X) + 2
            Cm = Am
        elif fam == 2:
            Am = (2 * X + 2 * isqrt(5 * X) + 20) // 16 + 2
            Bm = X // 2 + 2
            Cm = (2 * X + 2 * isqrt(5 * X) + 20) // 4 + 2
        else:
            m = isqrt(X) + 2
            Am, Bm, Cm = 2 * m + 2, m // 2 + 2, 5 * m + 10
        for A in range(-Am, Am + 1):
            if A == 0:
                continue
            for B in range(-Bm, Bm + 1):
                for C in range(-Cm, Cm + 1):
                    c = FamilyCoords(fam, A, B, C)
                    cond = conductor_poly(c)
                    if cond == 0:
                        continue
                    val = abs(cond) if mode == "conductor" else abs(cond * c.disc_h())
                    if not 0 < val < X:
                        continue
                    canon, flag = canonical_coords(c)
                    if canon != c:
                        continue
                    if not is_maximal(c).is_maximal:
                        continue
                    tag = galois_tag(c)
                    if tag != GaloisTag.D4:
                        if tag.value in excl:
                            excl[tag.value] += 1
                        continue
                    if flag:
                        excl["boundary_orbits"] += 1
                    from quartic_census.classify import family_real_signature

                    counts[family_real_signature(c).r2] += 1
                    recs.append((fam, A, B, C))
    return counts, excl, sorted(recs)


@pytest.mark.parametrize("mode,X", [("conductor", 420), ("discriminant", 300)])
def test_engine_matches_slow_reference(mode, X):
    fams = (1, 2, 3)
    counts, excl, recs = _slow_census(X, mode, fams)
    cfg = CensusConfig(x=X, mode=mode, galois="d4", families=fams, emit=True)
    tal = run_census(cfg)
    assert [tal.total(k) for k in range(3)] == counts
    assert tal.excluded == excl
    got = sorted(map(tuple, tal.records[:, :4].tolist()))
    assert got == recs


def test_record_audit():
    # every emitted record passes the scalar pipeline end to end
    s, tal = count_d4_by_conductor(3000, emit=True)
    rows = tal.records.tolist()
    assert len(rows) > 100
    for fam, A, B, C, disc, conductor, r2 in rows[:: max(1, len(rows) // 200)]:
        c = FamilyCoords(fam, A, B, C)
        F = to_form(c)
        assert 0 < abs(conductor) < 3000
        assert conductor == conductor_poly(c)
        assert disc == disc_quartic(F)
        assert is_maximal(c).is_maximal
        assert galois_tag(c) == GaloisTag.D4
        canon, _ = canonical_coords(c)
        assert canon == c
        from quartic_census.classify import family_real_signature

        assert family_real_signature(c).r2 == r2
    # sorted per the documented ordering
    keys = [(abs(cond), fam, A, B, C) for fam, A, B, C, _, cond, _ in rows]
    assert keys == sorted(keys)


def test_strict_bounds_and_empty():
    s, _ = count_d4_by_conductor(1)
    assert s["total"] == 0
    s, _ = count_d4_by_conductor(40)
    # smallest dihedral conductor in range shows up quickly
    assert s["total"] > 0


#: output_hash with emit at X = 2e4, as computed by the per-u enumeration
#: that preceded block enumeration
PINNED_HASH_2E4 = {
    "conductor": "cc7bae1b90c4cf8fda3f5248a62c2612bf1a32f82a8c09ddcc0d3cc74ec0207f",
    "discriminant": "c5aa82878157188f46e03a01217ba251506524e12e54df065a46dc654ae8df93",
}


#: output_hash with emit at conductor X = 1e5, 2 shards, as computed by the
#: per-record emission that preceded column blocks
PINNED_HASH_1E5 = "e8b082bccd3fd33361dcdfde87e4ac1b840ef77b596f39f32f76830da573697b"


def _run_emit(x, mode, shards=1):
    cfg = CensusConfig(x=x, mode=mode, shards=shards, emit=True)
    return cfg, run_census(cfg)


def _hash_2e4(mode, shards=1):
    cfg, tal = _run_emit(20000, mode, shards)
    return output_hash(summarize(cfg, tal), tal)


def test_shard_invariance():
    for mode, pinned in PINNED_HASH_2E4.items():
        for shards in (1, 2, 3, 4):
            assert _hash_2e4(mode, shards) == pinned, (mode, shards)
    cfg, tal = _run_emit(10**5, "conductor", shards=2)
    assert output_hash(summarize(cfg, tal), tal) == PINNED_HASH_1E5


class TwoArgError(Exception):
    """Pickles, but its unpickling calls TwoArgError(message) and fails."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _assert_no_child_left():
    # neither a running child nor a zombie: waitpid has nothing to wait for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def alarm():
    # a hang in the shard path fails the test instead of the whole run
    def hang(signum, frame):
        raise TimeoutError("the shard path hung")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_forked_shard_failures(monkeypatch, alarm):
    # each failure is raised in the parent, and no child outlives run_census;
    # with 3 shards, the second child is still unreaped when the first fails
    from quartic_census import census

    cfg = CensusConfig(x=20000, shards=3, emit=True)
    run_census(cfg)
    _assert_no_child_left()
    parent = os.getpid()
    real = census._run_shard_fork

    class LocalError(Exception):
        pass  # defined in a function, so it cannot be pickled by name

    def shard(job):
        # a child raises the failure of the case, or exits with it if an int
        if os.getpid() != parent:
            if isinstance(failure, int):
                os._exit(failure)
            raise failure
        return real(job)

    monkeypatch.setattr(census, "_run_shard_fork", shard)
    cases = [
        (ValueError("shard failed on purpose"), ValueError, "shard failed on purpose"),
        (3, RuntimeError, "shard 1 exited with status 3 and no result"),
        (LocalError("local failure"), RuntimeError, "(?s)shard child failed.*LocalError: local failure"),
        (TwoArgError("one", "two"), RuntimeError, "(?s)shard child failed.*TwoArgError: one and two"),
    ]
    for failure, exc_type, message in cases:
        with pytest.raises(exc_type, match=message):
            run_census(cfg)
        _assert_no_child_left()
    monkeypatch.setattr(census, "_run_shard_fork", real)

    # an error in the parent's own shard: the children are killed and reaped
    real_run_shard = census._run_shard

    def parent_fails(ctx, units, tal):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real_run_shard(ctx, units, tal)

    monkeypatch.setattr(census, "_run_shard", parent_fails)
    with pytest.raises(KeyboardInterrupt):
        run_census(cfg)
    _assert_no_child_left()


def test_records_agree_with_tallies():
    for mode in ("conductor", "discriminant"):
        for shards in (1, 2):
            _, tal = _run_emit(20000, mode, shards)
            rec = tal.records
            assert len(rec) == tal.total() > 0
            for fam in (1, 2, 3):
                for r2 in (0, 1, 2):
                    rows = (rec[:, 0] == fam) & (rec[:, 6] == r2)
                    assert rows.sum() == tal.counts[fam][r2], (mode, shards, fam, r2)


def test_boundary_records_canonical():
    # the flagged boundary pairs are C = -A (family 1) and C = -4A (family 2);
    # their records must be the canonical member of the pair
    for mode in ("conductor", "discriminant"):
        _, tal = _run_emit(20000, mode)
        fam, A, C = tal.records[:, 0], tal.records[:, 1], tal.records[:, 3]
        pair = ((fam == 1) & (C == -A)) | ((fam == 2) & (C == -4 * A))
        rows = tal.records[pair, :4].tolist()
        assert len(rows) == tal.excluded["boundary_orbits"] > 0, mode
        for row in rows:
            c = FamilyCoords(*row)
            assert canonical_coords(c) == (c, True), row


def _force_side(monkeypatch, fam, vside):
    """Send every outer value of family fam to one side, the x-scan or the
    (u, v) pivot; the other families keep their own choice."""
    import numpy as np

    from quartic_census import census

    real = census._vside
    monkeypatch.setattr(
        census, "_vside", lambda ctx, f, us: np.full(len(us), vside) if f == fam else real(ctx, f, us)
    )


@pytest.mark.parametrize("size", [1, 10**9])
def test_block_and_chunk_edges(monkeypatch, size):
    # one (u, x) or (u, v) pair per piece of either side and one candidate
    # per classification pass, or each side's pairs in one piece and one
    # pass: off-by-ones at edges show here
    from quartic_census import census

    monkeypatch.setattr(census, "CHUNK_CANDIDATES", size)
    for mode, pinned in PINNED_HASH_2E4.items():
        # families 1 and 2 run on both sides here, so the pairs of the v side
        # are split into one-pair pieces or merged into one piece as well
        ctx = census._Ctx(CensusConfig(x=20000, mode=mode))
        for fam in (1, 2):
            vside = census._vside(ctx, fam, [u for f, u in ctx.units() if f == fam])
            assert vside.any() and not vside.all(), (mode, fam)
        assert _hash_2e4(mode) == pinned, mode


def test_one_unit_per_side(monkeypatch):
    # a shard calls each family's unit at most once per side, with a bool
    # side and exactly the outer values that _vside puts on that side; family
    # 3 runs on the v side only.  On one shard and on each half of a 2-shard
    # split, in both modes
    import numpy as np

    from quartic_census import census

    calls = []
    for fam in (1, 2, 3):

        def unit(ctx, u, vside, tal, fam=fam, real=getattr(census, f"_family{fam}_unit")):
            calls.append((fam, u.tolist(), vside))
            real(ctx, u, vside, tal)

        monkeypatch.setattr(census, f"_family{fam}_unit", unit)
    for mode in ("conductor", "discriminant"):
        cfg = CensusConfig(x=20000, mode=mode)
        ctx = census._Ctx(cfg)
        units = ctx.units()
        for k, part in ((None, units), (0, units[0::2]), (1, units[1::2])):
            calls.clear()
            if k is None:
                run_census(cfg)
            else:
                census._run_shard(ctx, part, Tallies("d4"))
            for fam in (1, 2, 3):
                outers = np.array([u for f, u in part if f == fam], dtype=np.int64)
                vside = census._vside(ctx, fam, outers)
                mine = [(u, side) for f, u, side in calls if f == fam]
                sides = [side for _, side in mine]
                assert all(type(side) is bool for side in sides), (mode, k, fam)
                assert sides == ([True] if fam == 3 else [False, True]), (mode, k, fam)
                for u, side in mine:
                    assert u == outers[vside == side].tolist(), (mode, k, fam, side)


def test_v_side_band_passes_are_full(monkeypatch):
    # the v side of a family runs as one unit, so its band passes are cut by
    # CHUNK_CANDIDATES alone: at most floor(live pairs / CHUNK_CANDIDATES) + 1
    # calls of _band_rows per family
    from quartic_census import census

    live, passes = {}, {}
    real_live, real_band = census._live_pairs, census._band_rows

    def live_pairs(ctx, fam, u_v, v):
        out = real_live(ctx, fam, u_v, v)
        live[fam] = live.get(fam, 0) + len(out[0])
        return out

    def band_rows(ctx, fam, u_v, v, root):
        passes[fam] = passes.get(fam, 0) + 1
        return real_band(ctx, fam, u_v, v, root)

    monkeypatch.setattr(census, "_live_pairs", live_pairs)
    monkeypatch.setattr(census, "_band_rows", band_rows)
    for mode in ("conductor", "discriminant"):
        live.clear()
        passes.clear()
        run_census(CensusConfig(x=10**5, mode=mode))
        assert sorted(passes) == [1, 2, 3], mode
        for fam, n in passes.items():
            assert n <= live[fam] // census.CHUNK_CANDIDATES + 1, (mode, fam, n, live[fam])


@pytest.mark.parametrize("size", [1, None])
def test_x_side_pairs_per_chunk(monkeypatch, size):
    # each family's x side passes its (u, x) pairs to _xrows in pieces of
    # exactly CHUNK_CANDIDATES but the last, and those pairs are the x of
    # u's parity with |x| in the span of u^2, each once.  At X = 1e6 by
    # default, and at X = 2e4 with one-pair pieces (at 1e6 those are ~1e5
    # calls per mode); the x side runs alone, without the classification
    import numpy as np

    from quartic_census import census

    X = 10**6
    if size is not None:
        monkeypatch.setattr(census, "CHUNK_CANDIDATES", size)
        X = 20000
    seen = []
    real = census._xrows

    def xrows(w, fam, u, xs):
        seen.append((u, xs))
        return real(w, fam, u, xs)

    monkeypatch.setattr(census, "_xrows", xrows)
    for mode in ("conductor", "discriminant"):
        ctx = census._Ctx(CensusConfig(x=X, mode=mode))
        w = ctx.windows
        for fam in (1, 2):
            us = np.array([u for f, u in ctx.units() if f == fam], dtype=np.int64)
            us = us[~census._vside(ctx, fam, us)]
            seen.clear()
            for _ in census._xside(ctx, fam, us):
                pass
            sizes = [len(u) for u, _ in seen]
            assert len(sizes) > 1, (mode, fam)
            assert all(n == census.CHUNK_CANDIDATES for n in sizes[:-1]), (mode, fam)
            assert 0 < sizes[-1] <= census.CHUNK_CANDIDATES, (mode, fam)
            got = sorted(zip(*(np.concatenate(c).tolist() for c in zip(*seen))))
            lo, hi = w.span(us * us)
            want = sorted(
                (u, x)
                for u, a, b in zip(us.tolist(), lo.tolist(), hi.tolist())
                for x in range(-b, b + 1)
                if abs(x) >= a and (x - u) % 2 == 0
            )
            assert got == want, (mode, fam)


def test_r2_filter():
    # a census filtered by r2 keeps that r2 alone: its total is the
    # unfiltered run's count of that r2, every record has it, its boundary
    # orbits are its boundary records (C = -A in family 1, C = -4A in family
    # 2, all with r2 = 1), and its ratio is over the main term of that r2
    from quartic_census.asymptotics import main_term

    X = 10**5
    full, _ = count_d4_by_conductor(X)
    for r2 in (0, 1, 2):
        s, tal = count_d4_by_conductor(X, r2=r2, emit=True)
        rec = tal.records
        assert s["total"] == full["counts"][f"r2_{r2}"] == len(rec) > 0, r2
        assert (rec[:, 6] == r2).all(), r2
        fam, A, C = rec[:, 0], rec[:, 1], rec[:, 3]
        boundary = ((fam == 1) & (C == -A)) | ((fam == 2) & (C == -4 * A))
        assert s["excluded"]["boundary_orbits"] == int(boundary.sum()), (r2, s["excluded"])
        assert s["ratio"] == s["total"] / main_term("d4_conductor", X, r2).value, r2


def test_record_blocks_one_per_pass(monkeypatch):
    # passes of at most 16 candidates, so that small X make many blocks: no
    # output can change, each pass that keeps a record adds one block of at
    # most two rows per candidate, column-major in a mapping of its own, and
    # the joined table is one such array too
    import mmap

    from quartic_census import census

    monkeypatch.setattr(census, "CHUNK_CANDIDATES", 16)
    for mode, pinned in PINNED_HASH_2E4.items():
        assert _hash_2e4(mode) == pinned, mode
    cfg, tal = _run_emit(10**5, "conductor", shards=2)
    assert output_hash(summarize(cfg, tal), tal) == PINNED_HASH_1E5

    kept, added = [], []  # per pass, whether it kept a record; per call, its rows
    classify, add_records = census._classify_and_tally, Tallies.add_records

    def counted_classify(ctx, fam, u, v, x, y, w, tal):
        before = tal.total()
        classify(ctx, fam, u, v, x, y, w, tal)
        kept.append(tal.total() > before)

    def counted_add(self, *columns):
        added.append(len(columns[-1]))
        add_records(self, *columns)

    monkeypatch.setattr(census, "_classify_and_tally", counted_classify)
    monkeypatch.setattr(Tallies, "add_records", counted_add)
    ctx = census._Ctx(CensusConfig(x=20000, emit=True))
    tal = census._run_shard(ctx, ctx.units(), Tallies("d4"))
    assert len(tal.blocks) == len(added) == sum(kept) > 10
    for block, n in zip(tal.blocks, added):
        assert len(block) == n <= 2 * 16
        assert block.flags.f_contiguous and isinstance(block.base, mmap.mmap)
    rec = tal.records
    assert len(rec) == tal.total() > 0
    assert rec.flags.f_contiguous and isinstance(rec.base, mmap.mmap)

    # the merge of two half-shards holds the whole run's records
    units = ctx.units()
    parts = [census._run_shard(ctx, units[k::2], Tallies("d4")) for k in (0, 1)]
    merged = parts[0].merge(parts[1])
    census._sort_records(rec)
    census._sort_records(merged.records)
    assert (merged.records == rec).all()


def _lexsorted(rec):
    """rec in the output order by a 5-key lexsort on |conductor|, family, A,
    B and C: the reference for census._sort_records."""
    import numpy as np

    return rec[np.lexsort((rec[:, 3], rec[:, 2], rec[:, 1], rec[:, 0], np.abs(rec[:, 5])))]


def _tied_records(g, n, conds, As, span):
    """n distinct seeded records whose |conductor| and A come from the
    lists conds and As, so that many share (|conductor|, family, A); B and C
    lie within +-span, and every column but the family takes both signs."""
    import numpy as np

    rec = g.integers(-span, span + 1, (n, 7))
    rec[:, 0] = g.integers(1, 4, n)
    rec[:, 1] = g.choice(As, n)
    rec[:, 5] = g.choice(conds, n) * g.choice([-1, 1], n)
    # records are distinct in (family, A, B, C), so their order is unique
    return rec[np.sort(np.unique(rec[:, :4], axis=0, return_index=True)[1])]


def test_sort_records_matches_lexsort():
    # the packed key and its pass over the ties against the 5-key lexsort,
    # on seeded tables in both layouts, empty and one-row tables among them
    import numpy as np

    from quartic_census import census

    g = np.random.default_rng(22)
    tables = [
        _tied_records(g, 0, [1], [0], 1),
        _tied_records(g, 1, [7], [-3], 5),
        _tied_records(g, 400, [1, 2], [-1, 0, 1], 3),
        _tied_records(g, 3000, list(range(1, 30)), list(range(-20, 9)), 4),
        _tied_records(g, 3000, g.integers(1, 1000, 40), g.integers(-(10**6), 10**6, 40), 10**9),
        # the key budget's magnitudes: |A| up to 2^24 and |conductor| to 2^30
        _tied_records(g, 3000, [1, 2**30 - 1, 2**29], [-(2**24), -1, 0, 2**24 - 1], 10**12),
    ]
    assert sum(len(t) for t in tables) > 6000
    for rec in tables:
        want = _lexsorted(rec)
        assert len(set(map(tuple, rec[:, :4].tolist()))) == len(rec)
        for layout in ("C", "F"):
            got = np.array(rec[g.permutation(len(rec))], order=layout)
            census._sort_records(got)
            assert np.array_equal(got, want), (len(rec), layout)
    # a key past 63 bits is refused, not missorted
    for A, cond in (((0, 1), 2**61), ((-(2**40), 2**40), 2**21)):
        rec = np.zeros((2, 7), dtype=np.int64)
        rec[:, 0], rec[:, 1], rec[:, 5] = 3, A, cond
        with pytest.raises(AssertionError):
            census._sort_records(rec)


@pytest.mark.parametrize("fam,side", [(1, "x"), (1, "v"), (2, "x"), (2, "v")])
def test_family_side_forced(monkeypatch, fam, side):
    # every outer value of family 1 or 2 from one side, the x-scan or the
    # pairs of the pivot: the per-value choice of side cannot change any output
    _force_side(monkeypatch, fam, side == "v")
    for mode, pinned in PINNED_HASH_2E4.items():
        assert _hash_2e4(mode) == pinned, mode
    cfg, tal = _run_emit(10**5, "conductor", shards=2)
    assert output_hash(summarize(cfg, tal), tal) == PINNED_HASH_1E5


@pytest.mark.parametrize("fam", [1, 2])
def test_family_sides_make_the_same_candidates(monkeypatch, fam):
    # stronger than the hashes, which see only accepted records: the x-scan
    # and the pivot pass the same candidates, multiplicities included, to the
    # filter, and each passes every orbit once, through one member, and
    # every candidate at the canonical sign of u (its mirror at the other
    # sign is counted through it)
    import numpy as np

    from quartic_census import census

    def candidates(mode, vside):
        seen = []

        def record(ctx, f, u, v, x, y, w, tal):
            seen.append(np.stack([u, v, x, y, w], axis=1))

        _force_side(monkeypatch, fam, vside)
        monkeypatch.setattr(census, "_classify_and_tally", record)
        run_census(CensusConfig(x=20000, mode=mode, families=(fam,)))
        rows = np.concatenate(seen)
        return rows[np.lexsort(rows.T[::-1])]

    for mode in ("conductor", "discriminant"):
        xs = candidates(mode, False)
        assert len(xs) > 0 and np.array_equal(xs, candidates(mode, True)), mode
        u, v, x = xs[:, 0], xs[:, 1], xs[:, 2]
        assert (np.sign(u) == census._CANONICAL_SIGN[fam]).all(), mode
        # the other member of the orbit, (C, B, A) in family 1 and (A, -B, C)
        # in family 2, is (v, u, x) in both; a tie (u = v) is its own
        # partner, a boundary pair (v = -u) is not
        partner = np.stack([v, u, x], axis=1)
        tie = u == v
        boundary = v == -u
        triples = {tuple(t) for t in xs[:, :3].tolist()}
        assert len(triples) == len(xs), mode
        assert not any(tuple(p) in triples for p in partner[~tie].tolist()), mode
        assert tie.any() and boundary.any(), mode


def test_records_closed_under_the_mirror():
    # every emitted record's mirror, (-A, -B, -C) in families 1 and 2 and
    # (-A, B, -C) in family 3, is a record with the same disc, conductor and
    # r2, except for the boundary pairs, whose mirror is the other member of
    # a boundary orbit and is counted through its canonical one
    for mode in ("conductor", "discriminant"):
        _, tal = _run_emit(10**5, mode)
        rows = {tuple(r[:4]): tuple(r[4:]) for r in tal.records.tolist()}
        assert len(rows) == len(tal.records) > 0, mode
        unmatched = 0
        for (fam, A, B, C), rest in rows.items():
            mirror = (fam, -A, B if fam == 3 else -B, -C)
            if mirror in rows:
                assert rows[mirror] == rest, (mode, fam, A, B, C)
            else:
                assert (fam == 1 and C == -A) or (fam == 2 and C == -4 * A), (mode, fam, A, B, C)
                unmatched += 1
        assert unmatched == tal.excluded["boundary_orbits"] > 0, mode


def _outer_value(fam, A, B, C):
    """The outer value of family coordinates, elementwise: |4A| in family
    1, |4A - 2B + C| in family 2 and |4A - C| in family 3."""
    import numpy as np

    return np.abs(np.select([fam == 1, fam == 2], [4 * A, 4 * A - 2 * B + C], 4 * A - C))


def _outer_ok_2adic(fam, u):
    """The 2-adic part of census._outer_ok: its verdict on the outer values
    u with every odd part taken as squarefree."""
    from types import SimpleNamespace

    import numpy as np

    from quartic_census import census

    every = SimpleNamespace(odd_squarefree=lambda n: np.ones(len(n), dtype=bool))
    return census._outer_ok(every, fam, u)


def test_dropped_filter_tests_stay_implied():
    # the filter tests neither gcd(A, B, C) = 1 nor, for family 1, A and
    # C != 0 mod 4, and _Ctx.units skips the outer values that fail the
    # 2-adic part of _outer_ok: on any coordinates the 2-adic clauses and a
    # squarefree odd part of w = B^2 - 4AC must imply them.  Seeded triples
    # of both signs up to 2^30, many scaled by a common factor
    import numpy as np

    from quartic_census.arith import is_squarefree, odd_part, primes_upto
    from quartic_census.maximality import vec_is_maximal_at

    # exhaustively over (A, B, C) mod 4, which fix u mod 16 in family 1 and
    # u mod 4 in families 2 and 3: every class whose outer value u fails the
    # 2-adic part of _outer_ok fails the 2-adic clauses, and every residue
    # of u that it passes has a class that passes them
    A, B, C = (t.ravel() for t in np.indices((4, 4, 4), dtype=np.int64))
    for fam, period in ((1, 16), (2, 4), (3, 4)):
        u = _outer_value(fam, A, B, C)
        two_adic = vec_is_maximal_at(fam, A, B, C, 2)
        outer = _outer_ok_2adic(fam, u)
        assert two_adic.any() and not (two_adic & ~outer).any(), fam
        passing = set((u[two_adic] % period).tolist())
        assert passing == set((u[outer] % period).tolist()) == ({4, 8, 12} if fam == 1 else {1, 2, 3}), fam

    seeded = np.random.default_rng(15)
    odd_squares = [int(p) ** 2 for p in primes_upto(1000)[1:]]
    n, scales = 3000, (1, 2, 3, 4, 5, 9, 15, 25, 49, 63)
    for fam in (1, 2, 3):
        shared = 0
        for bits, scaled in ((3, True), (10, True), (24, True), (30, False)):
            g = seeded.choice(scales, size=n) if scaled else 1
            A, B, C = (seeded.integers(-(1 << bits), 1 << bits, size=n) * g for _ in range(3))
            two_adic = vec_is_maximal_at(fam, A, B, C, 2)
            if fam == 1:
                assert not (two_adic & ((A % 4 == 0) | (C % 4 == 0))).any(), bits
            else:
                assert not (two_adic & (_outer_value(fam, A, B, C) % 4 == 0)).any(), (fam, bits)
            common = np.gcd(np.gcd(A, B), C) != 1
            for a, b, c in zip(*(t[two_adic & common].tolist() for t in (A, B, C))):
                # w has an odd square factor: a small one, or by factoring
                w = b * b - 4 * a * c
                assert any(w % q == 0 for q in odd_squares) or not is_squarefree(odd_part(w)), (fam, a, b, c)
                shared += 1
        assert shared > 1000, fam


def _unpruned_units(ctx):
    """Every outer value of every family, including those ctx.units() skips
    because they cannot pass the filter: family 1's u = 4|A| and the u >= 1
    of families 2 and 3, all with u^2 <= y_eff.  (Family 3's u = 0 has
    4A = C and C = 0 mod 4 on every candidate; _vrows does not build it.)"""
    top = isqrt(ctx.y_eff)
    out = []
    for fam in ctx.config.families:
        step = 4 if fam == 1 else 1
        out.extend((fam, u) for u in range(step, top + 1, step))
    return out


def test_skipped_outer_values_carry_no_field(monkeypatch):
    # the filter does not test the odd part of the outer value u, +-family
    # 1's 4A, family 2's 4A - 2B + C and family 3's 4A - C; it tests u's
    # 2-adic part only through the 2-adic clauses.  So _Ctx.units must leave
    # out exactly the outer values without a maximal form: an unpruned run
    # adds the rows whose outer value fails _outer_ok, none of them maximal,
    # and no other row, and every candidate at an outer value that fails
    # _outer_ok's 2-adic part fails the 2-adic clauses
    import numpy as np

    from quartic_census import census
    from quartic_census.maximality import vec_is_maximal_at

    cfg = CensusConfig(x=10**5, shards=2, emit=True)
    ctx = census._Ctx(cfg)
    pruned, full = ctx.units(), _unpruned_units(ctx)
    assert set(pruned) < set(full)
    for fam in (1, 2, 3):
        assert sum(f == fam for f, _ in pruned) < sum(f == fam for f, _ in full), fam
    # families 2 and 3 skip every u = 0 mod 4, family 3 nothing else
    assert not any(u % 4 == 0 for f, u in pruned if f != 1)
    top = isqrt(ctx.y_eff)
    assert [u for f, u in pruned if f == 3] == [u for u in range(top + 1) if u % 4 != 0]
    tal = run_census(cfg)
    monkeypatch.setattr(census._Ctx, "units", _unpruned_units)
    assert census._Ctx(cfg).units() == full
    real_classify, failed = census._classify_and_tally, {1: 0, 2: 0, 3: 0}

    def checking_classify(ctx, fam, u, v, x, y, w, tal):
        A, B, C = census._family_coords(fam, u, v, x)
        skip = ~_outer_ok_2adic(fam, np.abs(u))
        assert not vec_is_maximal_at(fam, A[skip], B[skip], C[skip], 2).any(), fam
        failed[fam] += int(skip.sum())
        real_classify(ctx, fam, u, v, x, y, w, tal)

    monkeypatch.setattr(census, "_classify_and_tally", checking_classify)
    # on one shard, so that every candidate is counted in this process
    unpruned = run_census(dataclasses.replace(cfg, shards=1)).records
    assert all(failed.values()), failed
    fam, A, B, C = unpruned[:, :4].T
    outer = _outer_value(fam, A, B, C)
    skipped = np.zeros(len(unpruned), dtype=bool)
    for f in (1, 2, 3):
        skipped[fam == f] = ~census._outer_ok(ctx.sf, f, outer[fam == f])
    assert np.array_equal(unpruned[~skipped], tal.records) and len(tal.records) > 0
    extra = unpruned[skipped, :4].tolist()
    assert {row[0] for row in extra} == {1, 2}
    for row in extra:
        assert not is_maximal(FamilyCoords(*row)).is_maximal, row


def test_squarefree_lookups_stay_within_the_table(monkeypatch):
    # an index past the limit of the packed table reads the zero padding of
    # its last byte, "not squarefree", or raises past it; a run alone of
    # family 1, whose table is y_eff // 16, must stay within it too
    from quartic_census import census
    from quartic_census.arith import PackedSquarefree

    real_lookup, seen = PackedSquarefree.lookup, []

    def recording_lookup(self, n):
        seen.append((self.limit, int(n.min(initial=0)), int(n.max(initial=0))))
        return real_lookup(self, n)

    monkeypatch.setattr(PackedSquarefree, "lookup", recording_lookup)
    for mode in ("conductor", "discriminant"):
        for fams in ((1,), (2,), (3,), (1, 2, 3)):
            cfg = CensusConfig(x=20000, mode=mode, families=fams)
            ctx = census._Ctx(cfg)
            limit = ctx.sf.limit
            assert (limit < ctx.y_eff) == (fams == (1,)), (mode, fams)
            seen.clear()
            run_census(cfg)
            assert seen and all(s[0] == limit and 0 <= s[1] <= s[2] <= limit for s in seen), (mode, fams)


def test_pruned_xs_keeps_every_row():
    # the x side scans only the |x| of the span of u^2 at each outer value:
    # every x of u's parity with a nonempty row of _xrows at any outer value
    # u must have its |x| there (u = 4|A| for family 1), and some x are
    # pruned
    import numpy as np

    from quartic_census import census

    for mode in ("conductor", "discriminant"):
        ctx = census._Ctx(CensusConfig(x=20000, mode=mode))
        w = ctx.windows
        x = np.arange(-w.xmax, w.xmax + 1, dtype=np.int64)
        for fam in (1, 2):
            outers = np.array([u for f, u in _unpruned_units(ctx) if f == fam], dtype=np.int64)
            u, xs = np.repeat(outers, len(x)), np.tile(x, len(outers))
            u, xs = u[(u - xs) % 2 == 0], xs[(u - xs) % 2 == 0]
            # row columns: the signed outer value, x, start, count, step
            rows = list(census._xrows(w, fam, u, xs))
            row_u = np.abs(np.concatenate([r[0] for r in rows]))
            row_x = np.concatenate([r[1] for r in rows])
            lo, hi = w.span(outers * outers)
            scanned = 0
            for a, first, last in zip(outers.tolist(), lo.tolist(), hi.tolist()):
                ax = np.abs(row_x[row_u == a])
                assert ((first <= ax) & (ax <= last)).all(), (mode, fam, a)
                scanned += int(((first <= np.abs(x)) & (np.abs(x) <= last) & ((x - a) % 2 == 0)).sum())
            assert len(row_x) > 0 and scanned < len(xs), (mode, fam)


def _ragged_reference(starts, counts, step):
    steps = step if isinstance(step, list) else [step] * len(starts)
    return [(k, s + t * j) for k, (s, c, t) in enumerate(zip(starts, counts, steps)) for j in range(c)]


def test_ragged_expansion():
    import numpy as np

    from quartic_census.census import _ragged, _ragged_pieces

    seeded = random.Random(11)
    for trial in range(200):
        n = seeded.randint(0, 12)
        starts = [seeded.randint(-50, 50) for _ in range(n)]
        counts = [seeded.randint(-3, 7) for _ in range(n)]  # zero and negative counts are empty
        step = seeded.choice([seeded.randint(-16, 16), [seeded.randint(-16, 16) for _ in range(n)]])
        want = _ragged_reference(starts, counts, step)
        arr = lambda a: np.array(a, dtype=np.int64)  # noqa: E731
        idx, vals = _ragged(arr(range(n)), arr(starts), arr(counts), arr(step))
        assert list(zip(idx.tolist(), vals.tolist())) == want, trial
        # pieces of one and three values split rows, and join to the whole
        if isinstance(step, list):
            nonneg = [max(c, 0) for c in counts]
            for cap in (1, 3):
                pieces = list(_ragged_pieces(arr(starts), arr(nonneg), arr(step), cap))
                assert all(0 < len(v) <= cap for _, v in pieces), trial
                got = [p for r, v in pieces for p in zip(r.tolist(), v.tolist())]
                assert got == want, (trial, cap)


def deep_check_reference(y_odd: int, g: int) -> bool:
    """The family-3 depth condition by scalar factorisation: the reference
    for census._deep_check."""
    from quartic_census.arith import factorize

    for p, e in factorize(y_odd).items():
        if e >= 2 and (g % p != 0 or e >= 3):
            return False
    return True


def test_deep_check_matches_reference(monkeypatch):
    import numpy as np

    from quartic_census import census

    def odd(y):
        return y >> ((y & -y).bit_length() - 1)

    real, seen = census._deep_check, []

    def recording(ctx, y, g):
        out = real(ctx, y, g)
        seen.append((y.copy(), g.copy(), out))
        return out

    monkeypatch.setattr(census, "_deep_check", recording)
    # X large enough for more than 1000 entries: each candidate stands for
    # its mirror too, so a run checks one member of each pair
    for X, mode in ((2 * 10**5, "conductor"), (3 * 10**6, "discriminant")):
        seen.clear()
        run_census(CensusConfig(x=X, mode=mode, families=(3,)))
        y, g, out = (np.concatenate(c) for c in zip(*seen))
        assert len(y) > 1000 and out.any() and not out.all(), mode
        assert out.tolist() == [deep_check_reference(odd(a), b) for a, b in zip(y.tolist(), g.tolist())], mode
    # constructed points (u, v) at conductor X = 1e5, y = u^2 + v^2 and
    # g = gcd(u, v), as the filter passes them
    ctx = census._Ctx(CensusConfig(x=10**5, families=(3,)))
    Y = ctx.y_eff
    assert Y == ctx.sf.limit == 99_999
    cases = [
        (3, 6, True),  # y = 9 * 5: p^2 exactly divides y, and p | g
        (11, 2, False),  # y = 5^3: p^2 | y with p not dividing g
        (5, 10, False),  # ... and p^3 | y with p | g
        (9, 0, False),  # v = 0, so g = u: y = 3^4
        (53, 0, True),  # y = 53^2, g = 53
        (45, 28, False),  # ... with g = 1
        (159, 0, True),  # y = 9 * 53^2, g = 3 * 53
        (6, 12, True),  # an even g = 6: y = 4 * 9 * 5
        (18, 0, False),  # an even g = 18: y = 4 * 3^4
        (313, 0, True),  # the largest prime r with r^2 <= Y
        (25, 312, False),  # y = 313^2 with g = 1
        (1, 0, True),
    ]
    u = np.array([c[0] for c in cases], dtype=np.int64)
    v = np.array([c[1] for c in cases], dtype=np.int64)
    y, g = u * u + v * v, np.gcd(u, v)
    got = real(ctx, y, g).tolist()
    assert got == [c[2] for c in cases]
    assert got == [deep_check_reference(odd(a), b) for a, b in zip(y.tolist(), g.tolist())]
    # every point with u >= 1 and even v >= 0 whose y is within the table
    u, v = (a.ravel() for a in np.meshgrid(np.arange(1, isqrt(Y) + 1), np.arange(0, isqrt(Y) + 1, 2)))
    u, v = u[u * u + v * v <= Y], v[u * u + v * v <= Y]
    y, g = u * u + v * v, np.gcd(u, v)
    assert y.max() == Y - 2 and g.max() == isqrt(Y)  # the top of the table, and g = u at v = 0
    got = real(ctx, y, g).tolist()
    assert got == [deep_check_reference(odd(a), b) for a, b in zip(y.tolist(), g.tolist())]


def _pivot_bounds(X, mode):
    """Python-int bounds on the pivot's intermediates at X, from the bound
    M = 4^e X - 1 of every family and y_eff = M // 4^e."""
    e = 1 if mode == "conductor" else 2
    M = 4**e * X - 1
    Y = M // 4**e  # |u v| and u^2 + v^2 are at most Y; |u| <= isqrt(Y)
    r = isqrt(Y)
    d = max(2 * r + 1, isqrt(M) + 1)  # distance to the nearest square, capped
    xm = isqrt(Y + M)  # |x|, as x^2 <= y + s
    # family 3's coordinates: A = (u + x)/8, B = v/2, C = (x - u)/2
    a, b, c = (r + xm) // 8, r // 2, (xm + r) // 2
    # y < 0 needs |y|^(1+e) <= M, the reach at x = 0
    reach = isqrt(M) if e == 1 else max(t for t in range(int(M ** (1 / 3)) + 2) if t**3 <= M)
    return {
        # the conductor y w and the disc y w^2 of _classify_and_tally: by
        # conductor |y w| <= M // 4 and |w| <= M // 4, as |y| >= 1; by
        # discriminant |y w^2| <= M // 16
        "|y w|": Y,
        "|disc|": (M // 4) ** 2 if e == 1 else M // 16,
        "M // |y|": M,
        "y + s": Y + M,
        "|y - s|": Y + M,
        "x^2": xm**2,
        "(root + 1)^2": (r + 1) ** 2,
        "d^e |y|": d**e * Y,
        "|x^2 - y|": 2 * Y + M,
        "|u v|": Y,
        "u^2 + v^2": Y,
        "|u + v + 2x|": r + Y + 2 * xm,
        "negative reach": reach,
        # _r2_vec: u x in families 1 and 2, and family 3's 4H and 4S
        "|u x|": r * xm,
        "|(x - 3u)(x + u) - 3v^2|": (xm + 3 * r) * (xm + r) + 3 * Y,
        "|2u^2 + 2ux + 3v^2|": 2 * r * r + 2 * r * xm + 3 * Y,
        # family 3's w in its (A, B, C), and _fam3_type1_pattern's
        # s2 b2 = (1 - 4mA)(1 - mC), compared with B^2
        "|B^2 - 4AC|": b * b + 4 * a * c,
        "|s2 b2|": (1 + 4 * a) * (1 + c),
        "B^2": b * b,
    }


def test_pivot_int64_envelope(monkeypatch):
    # at the caps every bound stays below 2^62, where vec_isqrt is exact
    from types import SimpleNamespace

    import numpy as np

    from quartic_census import census
    from quartic_census.arith import vec_isqrt

    real_isqrt, seen = census.vec_isqrt, []

    def recording_isqrt(n):
        seen.append(int(n.max(initial=0)))
        return real_isqrt(n)

    monkeypatch.setattr(census, "vec_isqrt", recording_isqrt)
    for X, mode in ((census.X_MAX_CONDUCTOR, "conductor"), (census.X_MAX_DISC, "discriminant")):
        bounds = _pivot_bounds(X, mode)
        for name, bound in bounds.items():
            assert bound < 2**62, (mode, name, bound)
        # the window table at the cap: every y of the table has
        # |x^2 - y| >= 4 or lies at most at the peak, so |y| <= M // 4^e;
        # the bisection probes y up to x^2 + M at x = xmax + 1 and takes
        # square roots of M // |y| <= M
        e = 1 if mode == "conductor" else 2
        M = 4**e * X - 1
        seen.clear()
        w = census._Windows(M, mode == "discriminant")
        assert 0 < w.reach.max() <= M // 4**e == bounds["|u v|"], mode
        assert (w.xmax + 1) ** 2 + M < 2**62, mode
        assert max(seen, default=0) <= M < 2**62, mode
        assert w.neg_hi[0] == bounds["negative reach"], mode
        # _sort_records' key ((4|conductor| + family) << b) | (A - min A),
        # b the bit width of the A range: |A| from the inverse coordinate
        # maps, u / 4 (family 1), (u + v + 2x) / 16 (2) and (u + x) / 8 (3)
        r, xm = isqrt(bounds["|u v|"]), isqrt(bounds["x^2"])
        a = max(r // 4, bounds["|u + v + 2x|"] // 16, (r + xm) // 8)
        b = (2 * a).bit_length()
        assert (4 * bounds["|y w|"] + 3) << b < 2**63, mode
        # the sort itself takes a table at those extremes
        rec = np.array([[3, a, 0, 0, 0, -bounds["|y w|"], 0], [1, -a, 0, 0, 0, 1, 0]])
        census._sort_records(rec)
        assert rec[:, 1].tolist() == [-a, a], mode
    # the family-3 depth check at the caps (the squarefree table is not
    # built) looks up y // g with g = gcd(u, v) >= 1, as u >= 1, so
    # y // g <= y <= y_eff, within the table; checked on the outermost
    # point (u, v) of each u, with v the largest even value
    for X, mode in ((census.X_MAX_CONDUCTOR, "conductor"), (census.X_MAX_DISC, "discriminant")):
        with monkeypatch.context() as mp:
            mp.setattr(census, "PackedSquarefree", lambda limit: SimpleNamespace(limit=limit))
            ctx = census._Ctx(CensusConfig(x=X, mode=mode, families=(3,)))
        Y = ctx.y_eff
        assert Y == _pivot_bounds(X, mode)["u^2 + v^2"] < 2**62, mode
        u = np.arange(1, isqrt(Y) + 1, dtype=np.int64)
        v = vec_isqrt(Y - u * u) & ~1
        y = u * u + v * v
        assert 0 < (y // np.gcd(u, v)).max() <= y.max() <= Y <= ctx.sf.limit, mode
    # and the bounds hold in a run: the largest square-root argument of a
    # census with every family-1 and family-2 outer value on the v side is
    # within its bound, and so are the filter's products on every candidate
    real_classify, products = census._classify_and_tally, {}

    def recording_classify(ctx, fam, u, v, x, y, w, tal):
        for name, p in (("|y w|", y * w), ("|disc|", y * w * w), ("|u x|", u * x)):
            products[name] = max(products.get(name, 0), int(np.abs(p).max(initial=0)))
        real_classify(ctx, fam, u, v, x, y, w, tal)

    monkeypatch.setattr(census, "_classify_and_tally", recording_classify)
    _force_side(monkeypatch, 1, True)
    _force_side(monkeypatch, 2, True)
    for mode in ("conductor", "discriminant"):
        bounds = _pivot_bounds(20000, mode)
        for fams in ((1,), (2, 3)):
            seen.clear()
            products.clear()
            run_census(CensusConfig(x=20000, mode=mode, families=fams))
            assert 0 < max(seen) <= bounds["y + s"], (mode, fams)
            assert len(products) == 3, (mode, fams)
            for name, p in products.items():
                assert 0 < p <= bounds[name], (mode, fams, name)


def _lattice(fam, A, B, C):
    """(u, v, x) of (A, B, C) in family fam: the maps that
    census._family_coords inverts."""
    if fam == 1:
        return 4 * A, 4 * C, 2 * B
    if fam == 2:
        return 4 * A - 2 * B + C, 4 * A + 2 * B + C, 4 * A - C
    return 4 * A - C, 2 * B, 4 * A + C


def _cap_reach(X, mode):
    """isqrt(y_eff) and the largest |x| of a census at X: |u| and, in
    family 3, |v| are at most the first, |u v| at most y_eff."""
    bounds = _pivot_bounds(X, mode)
    return isqrt(bounds["|u v|"]), isqrt(bounds["x^2"])


def test_family_coords_round_trip():
    # _family_coords inverts the three maps to (u, v, x), on seeded triples
    # small and at the magnitudes the lattice points of the caps reach
    import numpy as np

    from quartic_census import census

    seeded = np.random.default_rng(20)
    for fam in (1, 2, 3):
        boxes = [(9, 9, 9), (200, 200, 200)]
        for X, mode in ((census.X_MAX_CONDUCTOR, "conductor"), (census.X_MAX_DISC, "discriminant")):
            r, xm = _cap_reach(X, mode)
            Y = r * r
            boxes.append(
                {
                    1: (r // 4, xm // 2, Y // 4),
                    2: ((r + Y + 2 * xm) // 16, (Y + r) // 4, (r + Y + 2 * xm) // 4),
                    3: ((r + xm) // 8, r // 2, (xm + r) // 2),
                }[fam]
            )
        for box in boxes:
            A, B, C = (seeded.integers(-m, m + 1, size=3000) for m in box)
            got = census._family_coords(fam, *_lattice(fam, A, B, C))
            assert all(np.array_equal(g, want) for g, want in zip(got, (A, B, C))), (fam, box)


def test_family3_r2_from_factored_seminvariants():
    # _r2_vec(3, ...) takes H and S of the form (A, B, C - 2A, -B, A) as
    # quadratics in (u, v, x) and the product of two signs; against the
    # generic sign table on the embedded form, on seeded triples small and
    # at the magnitudes of family-3 coordinates at the caps
    import numpy as np

    from quartic_census import census
    from quartic_census.classify import real_signature

    seeded = random.Random(19)
    boxes = [(9, 9, 9), (200, 200, 200)]
    for X, mode in ((census.X_MAX_CONDUCTOR, "conductor"), (census.X_MAX_DISC, "discriminant")):
        r, xm = _cap_reach(X, mode)
        boxes.append(((r + xm) // 8, r // 2, (xm + r) // 2))
    for box in boxes:
        rows = []
        while len(rows) < 3000:
            A, B, C = (seeded.randint(-m, m) for m in box)
            F = to_form(FamilyCoords(3, A, B, C))
            if A != 0 and disc_quartic(F) != 0:
                rows.append((*_lattice(3, A, B, C), B * B - 4 * A * C, real_signature(F).r2))
        u, v, x, w, want = np.array(rows, dtype=np.int64).T
        got = census._r2_vec(3, u, v, x, w)
        assert np.array_equal(got, want), box
        assert set(got.tolist()) == {0, 2}, box


def test_family12_r2_at_the_caps():
    # the one r2 rule of families 1 and 2 against the generic sign table, on
    # seeded lattice points of each family at the magnitudes of the caps:
    # 0 < |u| <= isqrt(y_eff), |u v| <= y_eff, |x| <= the largest x
    import numpy as np

    from quartic_census import census
    from quartic_census.classify import real_signature

    seeded = np.random.default_rng(21)
    n = 3100
    for X, mode in ((census.X_MAX_CONDUCTOR, "conductor"), (census.X_MAX_DISC, "discriminant")):
        r, xm = _cap_reach(X, mode)
        for fam in (1, 2):
            u = seeded.integers(1, r + 1, size=n) * seeded.choice([-1, 1], size=n)
            v = seeded.integers(-r * r, r * r + 1, size=n) // np.abs(u)
            x = seeded.integers(-xm, xm + 1, size=n)
            # onto the family's lattice
            if fam == 1:
                u, v, x = u & -4, v & -4, x & -2
            else:
                v = v - ((v - u) & 3)
                x = x - ((x + ((u + v) >> 1)) & 7)
            A, B, C = census._family_coords(fam, u, v, x)
            assert all(np.array_equal(a, b) for a, b in zip(_lattice(fam, A, B, C), (u, v, x))), (mode, fam)
            keep, want = [], []
            for k, (a, b, c) in enumerate(zip(A.tolist(), B.tolist(), C.tolist())):
                F = to_form(FamilyCoords(fam, a, b, c))
                if a != 0 and disc_quartic(F) != 0:
                    keep.append(k)
                    want.append(real_signature(F).r2)
            u, v, x, A, B, C = (t[keep] for t in (u, v, x, A, B, C))
            got = census._r2_vec(fam, u, v, x, B * B - 4 * A * C)
            assert len(keep) > 3000 and got.tolist() == want, (mode, fam)
            assert set(want) == {0, 1, 2}, (mode, fam)


def test_mirror_keeps_every_verdict():
    # the engine classifies one member of each mirror pair, (A, B, C) and
    # (-A, -B, -C) in families 1 and 2, (-A, B, -C) in family 3, and counts
    # it for both: on seeded triples of every family, maximal or not and of
    # every Galois type, the two agree on maximality, the tag, r2, |conductor|
    # and the disc, and the mirror is (-u, -v, -x), or (-u, v, -x), in the
    # enumeration's coordinates
    from collections import Counter

    from quartic_census.classify import family_real_signature

    seeded = random.Random(23)
    for fam in (1, 2, 3):
        seen, maximal = Counter(), Counter()
        for box in (3, 12, 60):
            n = 0
            while n < 300:
                A, B, C = (seeded.randint(-box, box) for _ in range(3))
                c = FamilyCoords(fam, A, B, C)
                if A == 0 or disc_quartic(to_form(c)) == 0:
                    continue
                n += 1
                m = FamilyCoords(fam, -A, B if fam == 3 else -B, -C)
                u, v, x = _lattice(fam, A, B, C)
                assert _lattice(fam, m.A, m.B, m.C) == (-u, v if fam == 3 else -v, -x), c
                tag, ok = galois_tag(c), is_maximal(c).is_maximal
                assert (galois_tag(m), is_maximal(m).is_maximal) == (tag, ok), c
                assert family_real_signature(m).r2 == family_real_signature(c).r2, c
                assert abs(conductor_poly(m)) == abs(conductor_poly(c)), c
                assert disc_quartic(to_form(m)) == disc_quartic(to_form(c)), c
                seen[tag] += 1
                maximal[ok] += 1
        assert set(seen) == {GaloisTag.D4, GaloisTag.C4, GaloisTag.V4, GaloisTag.REDUCIBLE}, (fam, seen)
        assert min(maximal[True], maximal[False]) > 100, (fam, maximal)


def test_v4_dual_route():
    for X in (10**4, 10**6, 4 * 10**7):
        cfg = CensusConfig(x=X, mode="discriminant", galois="v4", families=(1,))
        tal = run_census(cfg)
        assert tal.total() == count_v4_by_disc(X)


def test_v4_examples():
    # smallest qualifying pairs are (+-1, -+1) at cubic value 12, then
    # (+-1, 0) at value 16
    assert count_v4_by_disc(144) == 0
    assert count_v4_by_disc(145) == 2
    assert count_v4_by_disc(257) == 4
    # hand-checkable box: no values below 12 at all
    assert count_v4_by_disc(100) == 0


def test_v4_count_cap():
    # above the cap the count refuses before allocating its sqrt(X) sieve
    from quartic_census.census import X_MAX_V4_COUNT

    with pytest.raises(ValueError):
        count_v4_by_disc(X_MAX_V4_COUNT + 1)
    with pytest.raises(ValueError):
        count_v4_by_disc(10**40)


def test_d4_disc_growth():
    prev = 0
    for X in (10**4, 4 * 10**4, 16 * 10**4):
        s, _ = count_d4_by_disc(X)
        assert s["total"] > prev
        prev = s["total"]


def test_d4_disc_order_of_magnitude_trend():
    # sandwich between X^(1/2) (log X)^2 and X^(1/2 + 1/loglog X) log X with
    # fitted constants: the lower-normalized ratio sits in a narrow band and
    # the upper-normalized ratio falls
    import math

    lo_ratios, hi_ratios = [], []
    for X in (10**5, 10**6, 10**7):
        s, _ = count_d4_by_disc(X)
        n = s["total"]
        lo_ratios.append(n / (X**0.5 * math.log(X) ** 2))
        hi_ratios.append(n / (X ** (0.5 + 1 / math.log(math.log(X))) * math.log(X)))
    assert all(0.04 < r < 0.08 for r in lo_ratios), lo_ratios
    assert hi_ratios[0] > hi_ratios[1] > hi_ratios[2], hi_ratios


def test_class_oracle_examples():
    classes = brute_force_class_oracle(2)
    by_tag = {}
    for c in classes:
        by_tag.setdefault(c["tag"], []).append(c)
    # x^4 - 2y^4 present with tag d4; x^4 + y^4 with tag v4; no zero-disc
    d4_discs = {c["disc"] for c in by_tag["d4"]}
    assert -2048 in d4_discs
    v4_discs = {c["disc"] for c in by_tag["v4"]}
    assert 256 in v4_discs
    assert all(c["disc"] != 0 for c in classes)


def test_census_agrees_with_class_oracle():
    classes = brute_force_class_oracle(13)
    X0 = 150
    s, tal = count_d4_by_conductor(X0, emit=True)
    census_set = set(map(tuple, tal.records[:, :4].tolist()))
    oracle_set = set()
    for c in classes:
        if c["tag"] != "d4" or not c["maximal"]:
            continue
        if not 0 < abs(c["conductor"]) < X0:
            continue
        reps = {canonical_coords(co)[0] for co in c["members"]}
        assert len(reps) == 1
        canon = reps.pop()
        oracle_set.add((canon.family, canon.A, canon.B, canon.C))
    assert census_set == oracle_set


def test_config_validation():
    with pytest.raises(ValueError):
        CensusConfig(x=0)
    with pytest.raises(ValueError):
        CensusConfig(x=10, mode="nope")
    with pytest.raises(ValueError):
        CensusConfig(x=10, galois="c4")
    with pytest.raises(ValueError):
        CensusConfig(x=10**10)  # beyond the supported vectorized bound
    with pytest.raises(ValueError):
        CensusConfig(x=10, families=(4,))
    with pytest.raises(ValueError, match="nonempty"):
        CensusConfig(x=100, families=())
    with pytest.raises(ValueError, match="shards"):
        CensusConfig(x=10, shards=SHARDS_MAX + 1)


def test_family3_share_decreases():
    shares = []
    for X in (10**5, 10**6):
        s, _ = count_d4_by_conductor(X)
        shares.append(sum(s["per_family"]["3"]) / s["total"])
    assert shares[1] < shares[0]


def test_csv_and_summary_output():
    cfg = CensusConfig(x=600, emit=True)
    tal = run_census(cfg)
    csv = records_csv(tal)
    lines = csv.strip().split("\n")
    assert lines[0] == "family,A,B,C,disc,conductor,galois,r2"
    assert len(lines) == len(tal.records) + 1
    assert all(line.split(",")[6] == "d4" for line in lines[1:])
    # the run's Galois tag is stored once and written on every row
    talv = run_census(CensusConfig(x=10**4, mode="discriminant", galois="v4", families=(1,), emit=True))
    rows = records_csv(talv).strip().split("\n")[1:]
    assert len(rows) == talv.total() > 0
    assert all(row.split(",")[6] == "v4" for row in rows)
    s = summarize(cfg, tal)
    assert set(s["counts"]) == {"r2_0", "r2_1", "r2_2"}
    assert s["ratio"] == s["total"] / s["main_term"]
    assert set(s["excluded"]) == {"c4", "v4", "reducible", "boundary_orbits"}


def _csv_reference(tal: Tallies) -> str:
    """The records CSV from one Python % format per row, as it was formatted
    before the numpy formatter: the reference that must match it byte for
    byte."""
    row = "%d,%d,%d,%d,%d,%d," + tal.galois + ",%d\n"
    return "family,A,B,C,disc,conductor,galois,r2\n" + "".join(row % tuple(r) for r in tal.records.tolist())


def _random_records(seed: int, n: int):
    """n seeded int64 record rows of every width from 1 to 19 digits: column
    0 never negative, the others of both signs, with rows of 0 and of
    +-(2^63 - 1) among them."""
    import numpy as np

    g = np.random.default_rng(seed)
    width = g.integers(1, 20, (n, 7))
    lo = np.array([0, 0] + [10 ** (w - 1) for w in range(2, 20)], dtype=np.int64)
    hi = np.array([0] + [10**w - 1 for w in range(1, 19)] + [2**63 - 1], dtype=np.int64)
    rows = g.integers(lo[width], hi[width], endpoint=True)
    rows[:, 1:] *= g.choice([-1, 1], (n, 6))
    rows[g.integers(0, n, 20)] = 0
    rows[g.integers(0, n, 20)] = 2**63 - 1
    rows[g.integers(0, n, 20), 1:] = -(2**63 - 1)
    return rows


@pytest.mark.parametrize("rows_per_chunk", [1, 3, 4097, None])
def test_csv_formatter_matches_reference(monkeypatch, rows_per_chunk):
    # the numpy formatter against one % format per row, chunk edges
    # included; output_hash writes the same bytes it hashes
    import hashlib
    import io

    import numpy as np

    from quartic_census import census

    if rows_per_chunk is not None:
        monkeypatch.setattr(census, "CSV_CHUNK_ROWS", rows_per_chunk)
    n = 200 if rows_per_chunk in (1, 3) else 5000  # tiny chunks cost ~0.5 ms each
    for seed, tag in ((1, "d4"), (2, "v4")):
        table = _random_records(seed, n)
        for rows in (table, table[:0], np.asfortranarray(table)):
            tal = Tallies(tag)
            tal.add_records(*rows.T)
            want = _csv_reference(tal)
            assert records_csv(tal) == want, (seed, len(rows))
            out = io.BytesIO()
            digest = output_hash({}, tal, out=out)
            assert out.getvalue() == want.encode()
            # the header alone, with no records, is written but not hashed
            hashed = want.encode() if len(rows) else b""
            assert digest == hashlib.sha256(b"{}" + hashed).hexdigest()
    widths = {len(str(abs(v))) for v in _random_records(1, 5000).ravel().tolist()}
    assert widths == set(range(1, 20))
    # -2^63 has no int64 magnitude: refused, not misprinted
    tal = Tallies("d4")
    tal.add_records(*np.array([[1, 2, 3, 4, -(2**63), 6, 0]], dtype=np.int64).T)
    with pytest.raises(AssertionError):
        records_csv(tal)


def test_benchmark_references():
    # the benchmark's correctness gate: the smallest pinned X of each census
    # workload of perfbench/run.py, computed as perfbench/worker.py does,
    # matches perfbench/references.json in every field the benchmark checks
    import importlib.util
    import json
    from pathlib import Path

    bench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    refs = json.loads((bench / "references.json").read_text())
    census_workloads = {k: w for k, w in run.WORKLOADS.items() if w["kind"] == "census"}
    assert sorted(census_workloads) == sorted(refs)
    for name, work in census_workloads.items():
        x = min(int(k) for k in refs[name])
        cfg = CensusConfig(x=x, mode=work["mode"], shards=work["shards"], emit=work["emit"])
        tal = run_census(cfg)
        summary = summarize(cfg, tal)
        got = dict(summary, output_hash=output_hash(summary, tal if cfg.emit else None))
        for field in run.pinned_fields(work):
            assert got[field] == refs[name][str(x)][field], (name, x, field)
