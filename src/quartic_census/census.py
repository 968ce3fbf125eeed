"""Exact desk-scale censuses: dihedral-field counts by conductor and by
discriminant, and the symmetric-family count by discriminant.

Enumeration strategy: every family is written in coordinates (u, v, x)
with y built from (u, v) and x^2 - y = +-4w, w = B^2 - 4AC (minus in family
3), so the conductor is y w and the bound becomes |y(x^2-y)| <= M
(conductor) or |y(x^2-y)^2| <= M (discriminant), M = 4^e X - 1 for all
three families.  Family 1 is (u, v, x) = (4A, 4C, 2B) with y = uv, a
sublattice of family 2's (u, v) = (4A - 2B + C, 4A + 2B + C); family 3 has
y = u^2 + v^2.  The outer loop runs over the small cofactor u.  The other
two coordinates are enumerated from one of two sides:

* the x side: a numpy array of x of u's parity, with the v ranges read
  from one table of exact window endpoints per |x| (families 1 and 2 at
  small u, where the band of x around each y is wide);
* the v side: (u, v) pairs, with the x of each pair solved from the band
  (family 3, and families 1 and 2 at the outer values where their pairs
  cost less than their x-scan; see X_PAIR_COST).

Families 1 and 2 differ only in their residues (family 1: v = 0 mod 4 and
x even; family 2: u + v + 2x = 0 mod 16) and in their canonical sign of u,
the one that takes the boundary pair v = -u.  Both sides test one exact
integer band, |x^2 - y| <= _gap(|y|): the v side solves it for x, and the
table bisects on it for its window endpoints at all |x| at once.  The
table also keeps the largest |y| of each window, which rises and then falls
with |x|, so the |x| whose window reaches u^2 make one interval (see
_Windows.span): the x side scans that interval, and the choice of side
counts it.

The outer values where no candidate can be maximal are skipped before
either side runs (see _outer_ok): in families 1 and 2 those with an odd
part that is not squarefree, in family 1 those with A = 0 mod 4, and in
families 2 and 3 those with u = 0 mod 4, where every candidate has
2B + C = 0 or C = 0 mod 4 and so fails a 2-adic clause.
A shard splits each family's remaining outer values by side once (see
_vside) and runs each side as one unit: stepped rows of x (x side) or v
(v side) at each outer value, expanded into pairs in pieces of at most
CHUNK_CANDIDATES (see _pairs), give rows of stepped ranges of the other
coordinate, expanded into candidates that are classified in chunks of at
most CHUNK_CANDIDATES, so a unit's memory stays bounded whatever its size.
Classification takes the candidates in (u, v, x) too (_family_coords maps
them to (A, B, C) for the 2-adic clauses and the records) and tests
maximality in two stages (see _classify_and_tally): the 2-adic clauses,
then the odd-part squarefree lookups of w and of v in families 1 and 2 (u
is the outer value, whose odd part _outer_ok has passed), or of
y / gcd(u, v) in family 3, its depth condition.  The 2-adic stage tests
every candidate in full, the clauses that _outer_ok implies included.

Both sides build their rows at the canonical sign of u only (u > 0 in
family 3).  The mirror sigma, (u, v, x) -> (-u, -v, -x) in families 1 and
2, that is (A, B, C) -> (-A, -B, -C), and (-u, v, -x) in family 3, that is
(-A, B, -C), maps the rows at one sign onto those at the other, less the
boundary pairs, and keeps the conductor, the disc, maximality, the Galois
type and r2.  So each classified candidate stands for itself and its
mirror: it weighs 2 in the tallies and emits both records, and a boundary
pair, whose mirror is counted through another boundary pair, weighs 1.

Shards partition the outer values by stride; every aggregate is a
commutative sum, so neither the shard count, the chunk sizes nor the side
chosen for an outer value can change any output.  Shard 0 runs in the
calling process and every other shard in a forked child that pickles its
tallies back through a pipe (see _run_forked).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import pickle
import signal
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import PackedSquarefree, vec_is_square, vec_isqrt
# factorize is unused here, but perfbench/tracer.py times census.factorize
from .arith import factorize  # noqa: F401
from .maximality import vec_is_maximal_at

#: int64 safety caps for the vectorized engines (explicit errors above).
X_MAX_CONDUCTOR = 250_000_000
X_MAX_DISC = 200_000_000
#: count_v4_by_disc sieves up to sqrt(X): a 12.5 MB table at this cap.
X_MAX_V4_COUNT = 10**16
#: Every shard but the first is a forked process; more are refused.
SHARDS_MAX = 64

#: A family-1 or family-2 outer value is enumerated from the v side when its
#: pairs number at most this many times its x-scan: an x-side (u, x) pair
#: goes through four window pieces, a v-side pair through one square root.
#: Both sides are counted at both signs of u, which each row stands for (see
#: _v_pairs).  Medians at 2 / 3 / 4, timed when both signs were enumerated
#: (2-vCPU Xeon VM, two rounds): cond-count 0.165 / 0.147-0.150 /
#: 0.144-0.147 s, disc-count 0.118 / 0.106-0.113 / 0.103-0.110 s, conductor
#: X = 1e8 11.1 / 9.2-10.4 / 9.2-11.0 s in process: 2 is slowest, 3 ties
#: with 4 (and 5) within noise.
X_PAIR_COST = 3
#: At most this many candidates go through one classification pass, and at
#: most this many pairs through _xrows or _live_pairs, which bounds the size
#: of their temporaries (2^15 pairs per band pass raised the peak RSS of a
#: shard at conductor X = 3e5 by 1.2 MB, at equal speed).
CHUNK_CANDIDATES = 1 << 13
#: Records are formatted and hashed this many CSV rows at a time.  The
#: formatter's temporaries are a few times the chunk's size: on the
#: cond-emit benchmark (conductor X ~ 3e5, 2 shards, 2-vCPU VM) the median
#: peak RSS was 79.7 MB at 2^12, 80.9 MB at 2^13 and 84.2 MB at 2^14
#: (79.6 MB with the % formatter at 2^14), at equal speed within noise.
CSV_CHUNK_ROWS = 1 << 12

#: Every candidate of every family has |x^2 - y| = 4|w| >= 4, so the window
#: table leaves out the y nearer x^2 than this above the peak.
NEAR_SQUARE = 4

#: The columns of a record row, in CSV order; the Galois tag, the same for
#: every record of a run, sits between conductor and r2 in the CSV.
RECORD_COLUMNS = ("family", "A", "B", "C", "disc", "conductor", "r2")


@dataclass
class CensusConfig:
    x: int
    mode: str = "conductor"  # or "discriminant"
    galois: str = "d4"  # or "v4"
    r2: int | None = None
    families: tuple[int, ...] = (1, 2, 3)
    shards: int = 1
    emit: bool = False

    def __post_init__(self):
        self.families = tuple(sorted(set(self.families)))
        if self.x < 1:
            raise ValueError("X must be >= 1")
        if self.mode not in ("conductor", "discriminant"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.galois not in ("d4", "v4"):
            raise ValueError(f"unsupported galois filter {self.galois!r}")
        if self.r2 not in (None, 0, 1, 2):
            raise ValueError("r2 filter must be None, 0, 1 or 2")
        if not self.families or any(f not in (1, 2, 3) for f in self.families):
            raise ValueError("families must be a nonempty subset of {1,2,3}")
        if not 1 <= self.shards <= SHARDS_MAX:
            raise ValueError(f"shards must be within [1, {SHARDS_MAX}], got {self.shards}")
        cap = X_MAX_CONDUCTOR if self.mode == "conductor" else X_MAX_DISC
        if self.x > cap:
            raise ValueError(
                f"X={self.x} exceeds the supported bound {cap} for {self.mode} mode"
            )


class Tallies:
    """Order-independent aggregation of census results.

    Emitted records are int64 blocks of rows laid out as RECORD_COLUMNS, in
    column order (order="F"), each in a mapping of its own (see _mapped):
    `add_records` writes one block per classification pass, and `records`
    joins all of them on first use into one such array, so that the sort's
    permutation and the CSV formatter read each column as one contiguous
    run, and the join frees each block back to the OS as it goes."""

    def __init__(self, galois: str):
        self.counts = np.zeros((4, 3), dtype=np.int64)  # [family][r2]
        self.excluded = {"c4": 0, "v4": 0, "reducible": 0, "boundary_orbits": 0}
        self.galois = galois  # the tag of every record
        self.blocks: list[np.ndarray] = []

    def add_records(self, *columns) -> None:
        """Append one block from its RECORD_COLUMNS columns (the family may be a scalar)."""
        block = _mapped((len(columns[-1]), len(RECORD_COLUMNS)), order="F")
        for k, col in enumerate(columns):
            block[:, k] = col
        self.blocks.append(block)

    @property
    def records(self) -> np.ndarray:
        if len(self.blocks) != 1:
            # each block is freed once it is copied, so the blocks and the
            # joined table are not held in full at the same time
            n = sum(len(b) for b in self.blocks)
            rec = _mapped((n, len(RECORD_COLUMNS)), order="F")
            while self.blocks:
                block = self.blocks.pop()
                rec[n - len(block) : n] = block
                n -= len(block)
            self.blocks = [rec]
        return self.blocks[0]

    def merge(self, other: "Tallies") -> "Tallies":
        self.counts += other.counts
        for k in self.excluded:
            self.excluded[k] += other.excluded[k]
        self.blocks.extend(other.blocks)
        return self

    def total(self, r2: int | None = None) -> int:
        if r2 is None:
            return int(self.counts.sum())
        return int(self.counts[:, r2].sum())


def _mapped(shape, order="C") -> np.ndarray:
    """An int64 array over an anonymous mapping of its own, which freeing it
    always unmaps, whatever glibc's mmap threshold; private, so that a forked
    shard's copy is copy-on-write, as with malloc."""
    buf = mmap.mmap(-1, max(8 * shape[0] * shape[1], 1), flags=mmap.MAP_PRIVATE)
    return np.ndarray(shape, dtype=np.int64, buffer=buf, order=order)


# ---------------------------------------------------------------------------
# exact integer window endpoints


def _gap(bound: int, square: bool, ay):
    """The widest |x^2 - y| the bound M allows at |y| = ay >= 1: M // |y| by
    conductor, isqrt(M // |y|) by discriminant (exact, as x^2 - y is an
    integer)."""
    s = bound // ay
    return vec_isqrt(s) if square else s


def _reach(ok, hi):
    """Elementwise the largest t in [0, hi] with ok(t), for ok true up to some
    t and false past it.  ok is probed within [0, hi] and must accept t = 0,
    which counts as true whatever ok says."""
    a, b = np.zeros_like(hi), hi + 1
    while True:
        live = b - a > 1
        if not live.any():
            return a
        mid = (a + b) >> 1
        good = ok(mid)
        a = np.where(live & good, mid, a)
        b = np.where(live & ~good, mid, b)


class _Windows:
    """Per-|x| exact window endpoints of the y with y != 0, y != x^2 and
    |y (x^2 - y)^e| <= bound, less the y above the peak of y (x^2 - y)^e
    (at x^2 // (e+1)) within NEAR_SQUARE - 1 of x^2: one negative run (y
    from -neg_hi to -1) and three positive runs [pos_lo[k], pos_hi[k]],
    empty as lo = 1 > hi = 0.

    Each run is monotone in its distance t from where it starts, so its far
    end comes from one vectorised bisection over all |x| on the test
    |x^2 - y| <= _gap(|y|): y = -t; y = t up to the peak; y = x^2 - t down
    to past the peak; y = x^2 + t.  The two runs next to x^2 start at
    t = NEAR_SQUARE, and are empty where their far end is nearer.

    reach, the largest |y| of the window at each |x|, is a hill: it rises
    and then falls.  At each y < x^2, |x^2 - y| grows with |x|, so the far
    ends of the negative and inner runs shrink; at each y > x^2 it shrinks,
    so the far ends of the two runs next to x^2 (x^2 - NEAR_SQUARE, and the
    last y above x^2) grow while those runs are nonempty; and at x = 0 the
    run above x^2 reaches as far as the negative run.  So the |x| whose
    window holds some |y| >= u^2 make one interval (see span), but at tiny
    bounds: at X = 5 to 8 and 13 the run above x^2 is empty at one |x| (2,
    or 3 at X = 13) where the run below x^2 is empty or short, and reach
    dips there."""

    def __init__(self, bound: int, square: bool):
        # beyond xmax every run is empty: the cheapest point of the window
        # is y = x^2 - 1 with value x^2 - 1 for either exponent; row xmax + 1
        # is built as well to check that
        xmax = isqrt(bound + 1)
        x2 = np.arange(xmax + 2, dtype=np.int64) ** 2
        peak = x2 // (3 if square else 2)

        def ok(y):
            return np.abs(x2 - y) <= _gap(bound, square, np.maximum(np.abs(y), 1))

        # the far ends: y = -t needs t^(1+e) <= bound, and y = x^2 + t needs
        # t <= bound // y <= bound // max(x^2, 1)
        neg = _reach(lambda t: ok(-t), np.full_like(x2, isqrt(bound)))
        inner = _reach(ok, peak)
        outer = _reach(lambda t: ok(x2 - t), np.maximum(x2 - peak - 1, 0))
        right = _reach(lambda t: ok(x2 + t), bound // np.maximum(x2, 1))
        lo = np.stack([np.ones_like(x2), x2 - outer, x2 + NEAR_SQUARE])
        hi = np.stack([inner, x2 - NEAR_SQUARE, x2 + right])
        empty = np.stack([inner < 1, outer < NEAR_SQUARE, right < NEAR_SQUARE])
        lo[empty], hi[empty] = 1, 0
        assert neg[-1] == 0 and empty[:, -1].all()
        self.xmax = xmax
        self.neg_hi = neg[:-1]
        self.pos_lo = lo[:, :-1].copy()
        self.pos_hi = hi[:, :-1].copy()
        # the largest |y| of the window at each |x| (0 where it is empty)
        self.reach = np.maximum(self.neg_hi, self.pos_hi.max(axis=0))
        self._rise = np.maximum.accumulate(self.reach)
        self._fall = np.maximum.accumulate(self.reach[::-1])

    def span(self, ysq):
        """Elementwise the first and the last |x| whose window holds some
        |y| >= ysq (first > last where none does), from the running maxima
        of reach from each end; the |x| between them all hold one but at the
        dips of the tiny bounds (see the class)."""
        return np.searchsorted(self._rise, ysq), self.xmax - np.searchsorted(self._fall, ysq)

    # unused by the engine; perfbench/tracer.py times contains_mask by name
    def contains_mask(self, ax: np.ndarray, y) -> np.ndarray:
        """Vectorized membership of y in the window at each |x|; y is one
        integer or one per |x|, all of one sign."""
        if np.any(y < 0):
            return self.neg_hi[ax] >= -y
        m = np.zeros(len(ax), dtype=bool)
        for k in range(3):
            m |= (self.pos_lo[k, ax] <= y) & (y <= self.pos_hi[k, ax])
        return m


def _ragged(idx, starts, counts, step):
    """Expand stepped ranges: for each k, counts[k] values starts[k]+step*j,
    where step is one integer or one per range.

    Returns (gathered idx entries, values) as flat arrays."""
    counts = np.maximum(counts, 0)
    # value j of range k sits at flat position base[k] + j, so it is
    # starts[k] - step*base[k] + step*position; a zero count repeats nothing
    base = np.cumsum(counts) - counts
    step = np.broadcast_to(step, counts.shape)
    pos = np.arange(int(counts.sum()), dtype=np.int64)
    return np.repeat(idx, counts), np.repeat(starts - step * base, counts) + np.repeat(step, counts) * pos


# ---------------------------------------------------------------------------
# shared candidate classification


class _Ctx:
    """Read-only tables shared by all units of one census run."""

    def __init__(self, config: CensusConfig):
        self.config = config
        # the bound M on |y (x^2 - y)^e|: 4^e |conductor| (e = 1) or
        # 16 |disc| (e = 2) is below 4^e X in every family
        self.square = config.mode == "discriminant"
        e = 2 if self.square else 1
        self.bound = 4**e * config.x - 1
        # every family has |x^2 - y| = 4|w| >= 4, so |y| <= M // 4^e
        self.y_eff = self.bound // 4**e
        # one table for families 1 and 2; family 3 solves x per (u, v)
        self.windows = _Windows(self.bound, self.square) if config.families != (3,) else None
        # one packed table serves cofactors and quadratic-cover discriminants;
        # family 1 alone looks up nothing above y_eff / 16 (or 16): the odd
        # parts of v = 4C, as u >= 4, and of w, as |y| >= 16, and the outer
        # values u <= isqrt(y_eff)
        sf_limit = self.y_eff // 16 if config.families == (1,) else self.y_eff
        self.sf = PackedSquarefree(max(sf_limit, 16))

    def units(self) -> list[tuple[int, int]]:
        """The (family, outer value) pairs of the run: the outer values
        1 <= u <= isqrt(y_eff) of each family that pass _outer_ok."""
        u = np.arange(1, isqrt(self.y_eff) + 1, dtype=np.int64)
        return [(fam, v) for fam in self.config.families for v in u[_outer_ok(self.sf, fam, u)].tolist()]


def _outer_ok(sf: PackedSquarefree, fam: int, u: np.ndarray) -> np.ndarray:
    """Which outer values u > 0 of family fam can carry a maximal form.  On
    every candidate of outer value u, family 1's 4A, family 2's 4A - 2B + C
    and family 3's 4A - C are +-u, and the filter would reject any other u
    there.  Families 1 and 2 need a squarefree odd part.  The 2-adic clauses
    need u = 4, 8 or 12 mod 16 in family 1 (u = 4|A| with A != 0 mod 4) and
    u != 0 mod 4 in families 2 and 3 (u = 2B + C or -C mod 4, and 2B + C or
    C != 0 mod 4)."""
    if fam == 1:
        return ((u & 3) == 0) & ((u & 15) != 0) & sf.odd_squarefree(u)
    ok = (u & 3) != 0
    return ok & sf.odd_squarefree(u) if fam == 2 else ok


def _classify_and_tally(ctx: _Ctx, fam: int, u, v, x, y, w, tal: Tallies):
    """Maximality filter + Galois/r2 classification of candidates in the
    enumeration's coordinates (u, v, x), accumulated into the tallies.

    y is uv (u^2+v^2 in family 3) and w = B^2-4AC, so the conductor is y w
    and the disc y w^2.  The odd primes are handled by squarefree-odd-part
    tests, p=2 by the clause set; jointly these are exactly global
    maximality.  Two stages run, the second on the survivors of the first:
    the 2-adic clauses, then the odd-part squarefree lookups of w and of v
    (families 1 and 2) or of y / gcd(u, v) (family 3's depth condition, see
    _deep_check).  (A, B, C) come from _family_coords for the clauses, and
    again on the survivors for family 3's pattern and the records.

    gcd(A, B, C) = 1 needs no test of its own: an odd p dividing A, B and C
    puts p^2 in w, whose odd-part test rejects it, and 2 dividing all three
    fails the 2-adic clauses.  Family 1's A, C != 0 mod 4 are 2-adic clauses
    too.  The 2-adic stage runs in full, so it also rejects the outer values
    whose 2-adic part _outer_ok fails, which no unit holds.  Families 1 and
    2 look up v (4C, or 4A + 2B + C) but not u (4A, or 4A - 2B + C): u is
    +-the outer value, and the units hold only those whose odd part
    _outer_ok has passed.  So the filter is exact on the candidates of
    those units, not on arbitrary ones.

    The candidates come at one sign of u (see _xrows and _vrows), and each
    stands for itself and its mirror: (u, v, x) -> (-u, -v, -x) in families
    1 and 2, (A, B, C) -> (-A, -B, -C), and (-u, v, -x) in family 3,
    (-A, B, -C).  The mirror keeps y, w and so the conductor, disc and
    bound, every clause of the filter (each tests a term that the mirror
    maps to +-itself, but family 3's A - B + C goes to -(A + B + C), which
    is 0 mod 4 together with it, as that clause needs B even), the
    gcd(u, v) of the depth condition, r2 and the Galois type.  So each
    candidate weighs 2 in the counts and exclusions, and emits its mirror's
    record too.  The boundary pairs v = -u (families 1 and 2) weigh 1: the
    mirror of one is a boundary pair of the other sign, in the class of
    (u, -u, -x), which is a candidate of its own; each such orbit is passed
    through its canonical member only.  With emit, the pass's records go to
    Tallies.add_records as one block: the kept rows, then their mirrors.
    """
    cfg = ctx.config
    A, B, C = _family_coords(fam, u, v, x)
    u, v, x, y, w = _compact((A != 0) & vec_is_maximal_at(fam, A, B, C, 2), u, v, x, y, w)
    odd_sf = ctx.sf.odd_squarefree
    ok = odd_sf(w)
    ok &= odd_sf(v) if fam != 3 else _deep_check(ctx, y, np.gcd(u, v))
    u, v, x, y, w = _compact(ok, u, v, x, y, w)
    if len(u) == 0:
        return

    A, B, C = _family_coords(fam, u, v, x)
    conductor = y * w
    disc = conductor * w

    reducible = w == 1
    if fam == 3:
        reducible = reducible | _fam3_type1_pattern(A, B, C)
    v4 = ~reducible & vec_is_square(disc)
    c4 = ~reducible & ~v4 & vec_is_square(conductor)
    d4 = ~(reducible | v4 | c4)

    boundary = (v == -u) if fam != 3 else np.zeros(len(u), dtype=bool)
    weight = 2 - boundary
    tal.excluded["reducible"] += int(weight[reducible].sum())
    tal.excluded["c4"] += int(weight[c4].sum())

    keep = v4 if cfg.galois == "v4" else d4
    if cfg.galois == "d4":
        tal.excluded["v4"] += int(weight[v4].sum())

    r2v = _r2_vec(fam, u, v, x, w)
    if cfg.r2 is not None:
        keep = keep & (r2v == cfg.r2)
    tal.excluded["boundary_orbits"] += int((keep & boundary).sum())
    for r2 in (0, 1, 2):
        tal.counts[fam][r2] += int(weight[keep & (r2v == r2)].sum())

    if cfg.emit and keep.any():
        # s = -1 on the mirrors, of the kept rows but the boundary pairs
        k = np.flatnonzero(keep)
        j = np.concatenate([k, k[~boundary[k]]])
        s = np.where(np.arange(len(j)) < len(k), 1, -1)
        tal.add_records(fam, s * A[j], (1 if fam == 3 else s) * B[j], s * C[j], disc[j], conductor[j], r2v[j])


def _family_coords(fam: int, u, v, x):
    """(A, B, C) of the lattice point (u, v, x) of family fam, the inverse
    of (4A, 4C, 2B) in family 1, (4A - 2B + C, 4A + 2B + C, 4A - C) in
    family 2 and (4A - C, 2B, 4A + C) in family 3."""
    if fam == 1:
        return u >> 2, x >> 1, v >> 2
    if fam == 2:
        return (u + v + 2 * x) >> 4, (v - u) >> 2, (u + v - 2 * x) >> 2
    return (u + x) >> 3, v >> 1, (x - u) >> 1


def _compact(ok, *cols):
    """The entries of each column where ok holds."""
    keep = np.flatnonzero(ok)
    return [c[keep] for c in cols]


def _r2_vec(fam, u, v, x, w):
    """r2 of candidates (u, v, x) with w = B^2 - 4AC.  Families 1 and 2:
    1 where uv < 0, and 0 where uv > 0, w > 0 and ux < 0 (ux has the sign
    of AB, or of u(4A - C)).  Family 3: disc > 0, so r2 is 0 or 2 by the
    sign table of the form (A, B, C - 2A, -B, A): 0 where H < 0 and w S > 0,
    with 4H = (x - 3u)(x + u) - 3v^2 and 4S = 2u^2 + 2ux + 3v^2."""
    r2 = np.full(len(u), 2, dtype=np.int64)
    if fam != 3:
        uv = u * v
        r2[uv < 0] = 1
        r2[(uv > 0) & (w > 0) & (u * x < 0)] = 0
        return r2
    H = (x - 3 * u) * (x + u) - 3 * v * v
    q = 2 * u * u + 2 * u * x + 3 * v * v
    r2[(np.sign(w) * np.sign(q) > 0) & (H < 0)] = 0
    return r2


def _fam3_type1_pattern(A, B, C):
    """Vectorized test for the involution-pair split that survives the
    family-3 maximality filters (scale factor forced to |m(a+c)| = 1)."""
    out = np.zeros(len(A), dtype=bool)
    for m in (1, -1):
        s2 = 1 - 4 * m * A
        b2 = 1 - m * C
        out |= vec_is_square(s2) & vec_is_square(b2) & (B * B == s2 * b2)
    return out


def _deep_check(ctx: _Ctx, y, g):
    """Family 3's depth condition on y = u^2 + v^2, g = gcd(u, v) >= 1: at
    each odd p, v_p(y) <= 1, or v_p(y) <= 2 where p | g.  As g^2 | y, that
    is v_p(y / g) = v_p(y) - v_p(g) <= 1 at each odd p (where v_p(g) >= 2,
    both fail), so the odd part of y / g is squarefree; y / g <= y <= y_eff,
    within the table."""
    return ctx.sf.odd_squarefree(y // g)


# ---------------------------------------------------------------------------
# per-family units


# perfbench/tracer.py times each family by these three names
def _family1_unit(ctx: _Ctx, A: np.ndarray, vside: bool, tal: Tallies):
    _unit(ctx, 1, A, vside, tal)


def _family2_unit(ctx: _Ctx, u: np.ndarray, vside: bool, tal: Tallies):
    _unit(ctx, 2, u, vside, tal)


def _family3_unit(ctx: _Ctx, u: np.ndarray, vside: bool, tal: Tallies):
    _unit(ctx, 3, u, vside, tal)


def _unit(ctx: _Ctx, fam: int, us: np.ndarray, vside: bool, tal: Tallies):
    """Classify the candidates of the outer values us of family fam that one
    shard runs on one side: a stream of row batches (u, v, x ranges) on the
    v side if vside, else (u, x, v ranges), with w = +-(x^2 - y)/4 (minus in
    family 3).  Batches are held back until they reach CHUNK_CANDIDATES
    candidates, so the unit's rows never sit in memory all at once, and
    expanded at most CHUNK_CANDIDATES candidates per classification pass."""
    rows = _vband(ctx, fam, us) if vside else _xside(ctx, fam, us)
    for u_v, fixed, start, count, step in _batched(rows, CHUNK_CANDIDATES, lambda rows: int(rows[3].sum())):
        for r, vals in _ragged_pieces(start, count, step, CHUNK_CANDIDATES):
            u = u_v[r]
            v, x = (fixed[r], vals) if vside else (vals, fixed[r])
            y = _pair_y(fam, u, v)
            w = (x * x - y) >> 2 if fam != 3 else (y - x * x) >> 2
            _classify_and_tally(ctx, fam, u, v, x, y, w, tal)


def _vside(ctx: _Ctx, fam: int, us) -> np.ndarray:
    """Which outer values enumerate from the v side: every one in family 3,
    and in families 1 and 2 those whose pairs number at most X_PAIR_COST
    times their x-scan, about as many as the |x| of their span."""
    u = np.asarray(us, dtype=np.int64)
    if fam == 3:
        return np.ones(len(u), dtype=bool)
    lo, hi = ctx.windows.span(u * u)
    return _v_pairs(ctx, fam, u) <= X_PAIR_COST * np.maximum(hi - lo + 1, 0)


def _xside(ctx: _Ctx, fam: int, us: np.ndarray):
    """Row batches of stepped v ranges of the (u, x) pairs of the outer
    values us: the x of u's parity with |x| in the span [lo, hi] of u^2, as
    the rows -hi .. -max(lo, 1) and lo .. hi, expanded by _pairs."""
    w = ctx.windows
    lo, hi = w.span(us * us)
    neg = -hi + ((us + hi) & 1)
    pos = lo + ((us - lo) & 1)
    rows = [(us, neg, (-np.maximum(lo, 1) - neg) // 2 + 1, 2), (us, pos, (hi - pos) // 2 + 1, 2)]
    for u, xs in _pairs(rows):
        yield from _xrows(w, fam, u, xs)


#: The canonical sign of u in families 1 and 2, the only one their rows are
#: built at (A < 0 in family 1, B = -u/2 < 0 on its boundary pairs in family
#: 2); it takes the boundary pairs v = -u of both.  Family 3 builds u > 0.
_CANONICAL_SIGN = {1: -1, 2: 1}


def _xrows(w: _Windows, fam: int, u, xs):
    """Row batches of the (u, x) pairs of family 1 or 2 at the sign
    _CANONICAL_SIGN of u: each branch with v from |v| = u on (the v = u
    ties, the singleton orbits, and the boundary pairs v = -u) and
    v = -(u + 2x) mod 4 (family 1: v = 4C) or mod 16 (family 2).  The rows
    at the other sign are their mirrors (u, v, x) -> (-u, -v, -x), as xs
    holds both signs of each |x|; _classify_and_tally counts each candidate
    for both.  In family 2 the residue puts u + x = 0 mod 8 on a tie and
    x = 0 mod 8 on a boundary pair, so u is even there, as x has u's
    parity."""
    step = 4 if fam == 1 else 16
    s = _CANONICAL_SIGN[fam]
    ax = np.abs(xs)
    # (sign of y, least |y|, largest |y|) of each window piece at each x
    pieces = [(-1, np.ones_like(ax), w.neg_hi[ax])] + [(1, w.pos_lo[k, ax], w.pos_hi[k, ax]) for k in range(3)]
    for sign, lo_a, hi_a in pieces:
        # a piece is reachable only if it holds some y = u*v with |v| >= u
        live = np.flatnonzero(hi_a >= np.maximum(lo_a, u * u))
        ul, xl = u[live], xs[live]
        vlo = np.maximum(-(-lo_a[live] // ul), ul)  # ceil(lo / u), and |v| >= u
        sv, u_v = s * sign, s * ul
        res = (sv * (-u_v - 2 * xl)) & (step - 1)
        first = vlo + ((res - vlo) & (step - 1))
        yield _rows(u_v, xl, sv * first, (hi_a[live] // ul - first) // step + 1, step * sv)


def _vrows(ctx: _Ctx, fam: int, u: np.ndarray) -> list[tuple]:
    """v-side rows (u_v, first v, count, step) at outer values u, at the
    canonical sign of u only: the rows at the other sign are their mirrors,
    (u, v, x) -> (-u, -v, -x) in families 1 and 2 and (-u, v, -x) in
    family 3, as _band_rows takes both signs of x.

    Families 1 and 2, v = u mod 4, u_v = _CANONICAL_SIGN * u: v of u_v's
    sign from v = u_v (the tie) while uv <= y_eff, then v of the other sign
    from v = -u_v (the boundary pair) while -uv stays within the negative
    window piece, whose widest reach is at x = 0.

    Family 3, u >= 1: v = 0, 2, 4, ... with u^2 + v^2 <= y_eff."""
    Y = ctx.y_eff
    if fam == 3:
        return [(u, 0, vec_isqrt(Y - u * u) // 2 + 1, 2)]
    N = min(Y, int(ctx.windows.neg_hi[0]))
    s = _CANONICAL_SIGN[fam]
    first = u + ((-2 * u) & 3)  # the least |v| >= u with -|v| = u mod 4
    return [(s * u, s * u, (Y // u - u) // 4 + 1, 4 * s), (s * u, -s * first, (N // u - first) // 4 + 1, -4 * s)]


def _v_pairs(ctx: _Ctx, fam: int, u: np.ndarray) -> np.ndarray:
    """The number of (u_v, v) pairs the v side stands for at each outer
    value u: twice those it enumerates, each with its mirror, as the x-scan
    that _vside weighs it against counts x whose rows stand for both signs
    of u too."""
    return 2 * sum(np.maximum(count, 0) for _, _, count, _ in _vrows(ctx, fam, u))


def _vband(ctx: _Ctx, fam: int, us: np.ndarray):
    """Row batches of stepped x ranges of the v side at the outer values us:
    the (u_v, v) pairs of _vrows are expanded and tested against their band
    at most CHUNK_CANDIDATES at a time, and the x values of the live ones
    are solved in batches of at least CHUNK_CANDIDATES pairs."""
    live = (_live_pairs(ctx, fam, u_v, v) for u_v, v in _pairs(_vrows(ctx, fam, us)))
    for pairs in _batched(live, CHUNK_CANDIDATES, lambda pairs: len(pairs[0])):
        yield from _band_rows(ctx, fam, *pairs)


def _pair_y(fam, u_v, v):
    return u_v * u_v + v * v if fam == 3 else u_v * v


def _live_pairs(ctx: _Ctx, fam: int, u_v, v):
    """The (u_v, v) pairs whose band |x^2 - y| <= s (see _band_rows) holds
    a square, with isqrt(max(y, 0)) at each: the square nearest y, at
    distance d, must lie in the band, that is d |y| <= M, or d^2 |y| <= M by
    discriminant.  For y < 0, d = |y| is capped at isqrt(M) + 1, past which
    the test fails anyway, so d^2 |y| stays within int64."""
    M = ctx.bound
    y = _pair_y(fam, u_v, v)
    root = vec_isqrt(np.maximum(y, 0))
    below = y - root * root  # (root + 1)^2 - y = 2 root + 1 - below
    d = np.where(y > 0, np.minimum(below, 2 * root + 1 - below), np.minimum(-y, isqrt(M) + 1))
    if ctx.square:
        d = d * d
    live = np.flatnonzero(d * np.abs(y) <= M)
    return [u_v[live], v[live], root[live]]


def _band_rows(ctx: _Ctx, fam: int, u_v, v, root):
    """Row batches of x at each (u_v, v) pair, root = isqrt(max(y, 0)) from
    _live_pairs: x = the family's residue (family 1: x = 2B even; family 2:
    u + v + 2x = 0 mod 16; family 3: x = -u mod 8), x^2 != y, and
    |x^2 - y| <= s = _gap(|y|)."""
    y = _pair_y(fam, u_v, v)
    if fam == 1:
        res, step = 0, 2
    elif fam == 2:
        res, step = -((u_v + v) >> 1) & 7, 8
    else:
        res, step = -u_v & 7, 8
    s = _gap(ctx.bound, ctx.square, np.abs(y))
    hi = vec_isqrt(y + s)
    bot = y - s
    lo = np.where(bot > 0, vec_isqrt(np.maximum(bot - 1, 0)) + 1, 0)  # ceil sqrt
    # |x| runs over [lo, hi] less the root of a square y, where w = 0
    cut = np.where((y > 0) & (root * root == y), root, hi + 1)
    for a, b in ((lo, cut - 1), (cut + 1, hi)):
        first = a + ((res - a) & (step - 1))
        yield _rows(u_v, v, first, (b - first) // step + 1, step)
        first = -b + ((res + b) & (step - 1))  # negative x, from -b up to -max(a, 1)
        yield _rows(u_v, v, first, (-np.maximum(a, 1) - first) // step + 1, step)


def _pairs(rows):
    """The (fixed value, value) pairs of the stepped rows (fixed, start,
    count, step), all joined, in pieces of at most CHUNK_CANDIDATES."""
    fixed, start, count, step = (np.concatenate(c) for c in zip(*(_rows(*r) for r in rows)))
    for r, vals in _ragged_pieces(start, count, step, CHUNK_CANDIDATES):
        yield fixed[r], vals


def _ragged_pieces(start, count, step, cap):
    """_ragged over all rows, in pieces of at most cap values; a longer row
    is split across pieces.  Yields (row index, value) arrays."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, cap):
        hi = min(lo + cap, total)
        a = int(np.searchsorted(ends, lo, side="right"))
        b = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        st, ct = start[a:b].copy(), count[a:b].copy()
        skip = lo - int(ends[a] - count[a])  # values of row a already done
        st[0] += skip * step[a]
        ct[0] -= skip
        ct[-1] -= int(ends[b - 1]) - hi
        yield _ragged(np.arange(a, b), st, ct, step[a:b])


def _rows(*cols):
    """The nonempty rows of stepped ranges: fixed columns, then start, count
    and step; count values start + step*j per row.  Arguments broadcast
    against each other."""
    cols = np.broadcast_arrays(*cols[:-2], np.asarray(cols[-2], dtype=np.int64), cols[-1])
    keep = cols[-2] > 0
    return [c[keep] for c in cols]


def _batched(stream, cap, size):
    """Join a stream of column lists into batches whose sizes sum to at
    least cap (the last batch may hold less; an empty one is dropped)."""
    pending, n = [], 0
    for cols in stream:
        pending.append(cols)
        n += size(cols)
        if n >= cap:
            yield [np.concatenate(c) for c in zip(*pending)]
            pending, n = [], 0
    if n:
        yield [np.concatenate(c) for c in zip(*pending)]


# ---------------------------------------------------------------------------
# drivers


def _run_shard(ctx: _Ctx, units, tal: Tallies) -> Tallies:
    """Run units into tal: the outer values of each family, split once by
    _vside, in at most two calls of its unit, one per side (family 3 has
    the v side only)."""
    for fam in ctx.config.families:
        u = np.array([outer for f, outer in units if f == fam], dtype=np.int64)
        vside = _vside(ctx, fam, u)
        unit = (_family1_unit, _family2_unit, _family3_unit)[fam - 1]
        for side in (False, True):
            if (vside == side).any():
                unit(ctx, u[vside == side], side, tal)
    return tal


def _run_shard_fork(job):
    ctx, units = job  # one argument, as perfbench/tracer.py's wrapper takes one
    tal = _run_shard(ctx, units, Tallies(ctx.config.galois))
    # joined here: sent as blocks, the tables stayed on the parent's heap
    # after its join (VmHWM 182 against 154 MB, conductor X = 1e7, 2 shards)
    tal.records
    # a tuple, as perfbench/tracer.py rebuilds the result of this name as one
    return (tal,)


def run_census(config: CensusConfig) -> Tallies:
    """Execute a census; deterministic for any shard count."""
    ctx = _Ctx(config)
    units = ctx.units()
    tal = Tallies(config.galois)
    _run_forked(ctx, units, tal)
    _sort_records(tal.records)
    return tal


def _run_forked(ctx: _Ctx, units, tal: Tallies) -> None:
    """Run units by stride on config.shards processes into tal: shard 0 in
    this process, every other shard in a forked child (see _shard_child)
    that pickles its result into a pipe; every shard count takes this path,
    and on one shard nothing is forked.  The children's results are read,
    the children reaped and the results merged in shard order; a child's
    exception is raised here.  Whatever ends the call, no child outlives it:
    those not yet reaped are killed and reaped on the way out.  The results
    are dropped on return, so tal holds the only reference to each table."""
    shards = ctx.config.shards
    chunks = [units[k::shards] for k in range(shards)]
    live = {}  # pid -> read end of its pipe, for every child not yet reaped
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _shard_child((ctx, chunk), w, [r, *(fh.fileno() for fh in live.values())])
            os.close(w)
            live[pid] = os.fdopen(r, "rb")
        _run_shard(ctx, chunks[0], tal)
        for k, (pid, fh) in enumerate(list(live.items()), 1):
            try:
                # unpickled from the stream: each table is read straight
                # into its own buffer, with no copy of the pickled bytes
                msg = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                msg = None
            fh.close()
            status = os.waitpid(pid, 0)[1]
            del live[pid]
            if msg is None:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"shard {k} exited with status {code} and no result")
            ok, value = msg
            if not ok:
                raise value
            tal.merge(value[0])
    finally:
        for pid, fh in live.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _shard_child(job, w: int, inherited: list[int]) -> None:
    """The body of a forked shard child: it runs _run_shard_fork(job) (looked
    up as a module global, so a wrapper of that name runs too) and pickles
    (True, result) or (False, exception) into the pipe w.  An exception that
    does not survive pickling is sent as a RuntimeError with its traceback.
    It first closes the read ends it inherited, its own among them, so that
    if the parent dies a full pipe fails its write instead of blocking it
    for good.  The child always ends in os._exit, so nothing of the
    parent's stack (finally blocks, atexit handlers, buffered output) runs
    in it."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(w, "wb") as out:
            try:
                result = _run_shard_fork(job)
            except BaseException as exc:  # sent to the parent, whatever it is
                out.write(_pickled_error(exc))
            else:
                pickle.dump((True, result), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc: BaseException) -> bytes:
    import traceback

    try:
        data = pickle.dumps((False, exc))
        pickle.loads(data)
    except Exception:
        text = "".join(traceback.format_exception(exc))
        data = pickle.dumps((False, RuntimeError(f"shard child failed:\n{text}")))
    return data


def _sort_records(rec: np.ndarray) -> None:
    """Put the rows of rec in the output order, by |conductor|, family, A, B,
    C, in place one column at a time, so no second table is built.

    The order is one argsort of the packed key ((4|conductor| + family) << b)
    | (A - min A), where b is the bit width of the A range and the family is
    1, 2 or 3, then a lexsort by B and C of only the rows whose key is
    shared, written back at their positions.  The records are distinct, so the order is
    unique and no sort need be stable.  A key past 63 bits fails an
    assertion.  rec may have either layout; in column order (as
    Tallies.records joins it) each column it permutes is contiguous."""
    if len(rec) == 0:
        return
    A = rec[:, 1]
    lo = int(A.min())
    bits = (int(A.max()) - lo).bit_length()
    key = np.abs(rec[:, 5])
    assert (4 * int(key.max()) + 3) << bits < 1 << 63, "the sort key needs more than 63 bits"
    key <<= 2
    key += rec[:, 0]
    key <<= bits
    key |= A - lo
    order = np.argsort(key)
    key = key[order]
    tie = np.zeros(len(key), dtype=bool)
    np.equal(key[1:], key[:-1], out=tie[1:])
    tie[:-1] |= tie[1:]
    if tie.any():
        rows = order[tie]
        order[tie] = rows[np.lexsort((rec[rows, 3], rec[rows, 2], key[tie]))]
    for c in range(rec.shape[1]):
        rec[:, c] = rec[:, c].take(order)


def summarize(config: CensusConfig, tal: Tallies) -> dict:
    """Machine-readable summary in the documented schema."""
    from .asymptotics import main_term

    counts = {f"r2_{k}": tal.total(k) for k in (0, 1, 2)}
    mt = None
    if config.mode == "conductor" and config.galois == "d4":
        mt = main_term("d4_conductor", config.x, config.r2).value
    elif config.mode == "discriminant" and config.galois == "v4":
        mt = main_term("v4_disc", config.x).value
    total = tal.total(config.r2)
    out = {
        "x": config.x,
        "mode": config.mode,
        "galois": config.galois,
        "r2_filter": config.r2,
        "families": list(config.families),
        "counts": counts,
        "total": total,
        "per_family": {
            str(f): [int(v) for v in tal.counts[f]] for f in config.families
        },
        "excluded": dict(tal.excluded),
        "main_term": mt,
        "ratio": (total / mt) if mt else None,
    }
    return out


def count_d4_by_conductor(
    X: int,
    r2: int | None = None,
    families=(1, 2, 3),
    shards: int = 1,
    emit: bool = False,
):
    cfg = CensusConfig(x=X, mode="conductor", galois="d4", r2=r2, families=tuple(families), shards=shards, emit=emit)
    tal = run_census(cfg)
    return summarize(cfg, tal), tal


def count_d4_by_disc(X: int, families=(1, 2, 3), shards: int = 1, emit: bool = False):
    cfg = CensusConfig(x=X, mode="discriminant", galois="d4", families=tuple(families), shards=shards, emit=emit)
    tal = run_census(cfg)
    return summarize(cfg, tal), tal


def count_v4_by_disc(X: int) -> int:
    """Number of symmetric-family pairs (a, b), each its own class, that are
    irreducible with maximal ring and 0 < |4a(b-2a)(b+2a)| < sqrt(X).

    The strict irrational bound is exact over integers: value <= isqrt(X-1).
    Signs: (a,b), (a,-b), (-a,b), (-a,-b) are four distinct classes (two when
    b = 0); negating both coordinates preserves maximality, negating b alone
    does not, so both b signs are tested.
    """
    if X > X_MAX_V4_COUNT:
        raise ValueError(f"X={X} exceeds the supported bound {X_MAX_V4_COUNT} for the V4 count")
    Y = isqrt(X - 1) if X > 1 else 0
    if Y < 12:
        return 0
    total = 0
    sf = PackedSquarefree(max(Y, 4))
    amax = 1
    while 4 * amax * (4 * amax - 1) <= Y:
        amax += 1
    # a < amax has K >= 4a - 1 >= |(2a-1)^2 - 4a^2|; no a >= amax has a b
    a_all = np.arange(1, amax, dtype=np.int64)
    # (a, b, a) is a family-1 form with outer value u = 4A = 4a
    for a in a_all[_outer_ok(sf, 1, 4 * a_all)].tolist():
        K = Y // (4 * a)
        b = np.arange(0, isqrt(4 * a * a + K) + 1, dtype=np.int64)
        t = b * b - 4 * a * a
        keep = (t != 0) & (np.abs(t) <= K)
        b, t = b[keep], t[keep]
        # gcd(a, b) = 1 is implied: an odd p | (a, b) puts p^2 in t, and
        # 2 | (a, b) fails the 2-adic clauses
        base = sf.odd_squarefree(t)
        aA = np.full(len(b), a, dtype=np.int64)
        okp = base & vec_is_maximal_at(1, aA, b, aA, 2)
        okm = base & vec_is_maximal_at(1, aA, -b, aA, 2)
        total += 2 * int(okp.sum()) + 2 * int((okm & (b > 0)).sum())
    return total


# ---------------------------------------------------------------------------
# output helpers


def _csv_rows(chunk: np.ndarray, seps: list[bytes]) -> bytes:
    """The rows of chunk, a nonempty (n, k) int64 array, as ASCII CSV: each
    value in decimal followed by its column's separator in seps.

    The bytes are built column by column in a (width, n) uint8 matrix: per
    column, a sign row if it holds a negative value, one row per digit of its
    largest magnitude, and its separator.  A 0 byte marks what a row leaves
    out (the sign of a value >= 0, a leading zero), so the rows, in order,
    are the nonzero bytes of the transposed matrix."""
    plan = []
    for col, sep in zip(chunk.T.copy(), seps):
        lo, hi = int(col.min()), int(col.max())
        assert lo > -(1 << 63), "-2**63 has no int64 magnitude"
        plan.append((col, lo < 0, len(str(max(hi, -lo))), sep))
    M = np.empty((sum(neg + d + len(sep) for _, neg, d, sep in plan), len(chunk)), np.uint8)
    r = 0
    for col, neg, d, sep in plan:
        if neg:
            np.multiply(col < 0, ord("-"), out=M[r], casting="unsafe")
            r += 1
        m = np.abs(col)
        q = m // 10
        M[r + d - 1] = m - 10 * q + 48  # the units digit, kept for 0 too
        for j in range(r + d - 2, r - 1, -1):
            m, q = q, q // 10
            M[j] = (m - 10 * q + 48) * (m != 0)
        r += d
        M[r : r + len(sep)] = np.frombuffer(sep, np.uint8)[:, None]
        r += len(sep)
    rows = M.T.ravel()
    return np.compress(rows != 0, rows).tobytes()


def _csv_chunks(tal: Tallies):
    """The records CSV as ASCII bytes in pieces: the header, then at most
    CSV_CHUNK_ROWS rows per piece."""
    yield b"family,A,B,C,disc,conductor,galois,r2\n"
    rec = tal.records
    seps = [b","] * 5 + [b",%s," % tal.galois.encode(), b"\n"]
    for lo in range(0, len(rec), CSV_CHUNK_ROWS):
        yield _csv_rows(rec[lo : lo + CSV_CHUNK_ROWS], seps)


def records_csv(tal: Tallies) -> str:
    return b"".join(_csv_chunks(tal)).decode("ascii")


def summary_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, separators=(",", ":"))


def output_hash(summary: dict, tal: Tallies | None = None, out=None) -> str:
    """sha256 of the summary JSON, followed by the records CSV if there are
    records.  With `out`, a binary file, the CSV is written to it in the same
    pass, as the bytes hashed (header included when there are no records)."""
    h = hashlib.sha256(summary_json(summary).encode())
    if tal is not None:
        hashed = len(tal.records) > 0
        for chunk in _csv_chunks(tal):
            if hashed:
                h.update(chunk)
            if out is not None:
                out.write(chunk)
    return h.hexdigest()
