"""Bounded exhaustive verification of the amplitude and nonvanishing claims.

Every claim quantifies over canonical (sorted-descending) pairs or families
inside a finite window, a SearchBounds.  Enumeration is partitioned by the
largest weight entry.  With workers = N > 1 the calling process is one of N
processes that take partitions from one queue, the other N - 1 forked from it
(`_run_forked`; fork only, so the children inherit its module state at the
fork, and workers > 1 are refused where os.fork is missing), and the merged
report is sorted by canonical encoding, so output is byte-identical for any
worker count.  `enumerate_instances` walks the same weight-tuple domain and
alone takes a FamilyFilter, which selects the families it lists.

Every claim counts degrees with one tool.  Each degree window has one
universe whose multisets, by ascending sum, are the bit positions of
Python-int bitsets, and the count ladder of a degree mask M (`_ladder`) holds,
for each j, the entries with at least j degrees in M.

Regularity is decided wholesale, on a prefix walk of the weight tuples
(`_regular_tuples`).  A tuple's regular multisets are its parent's ANDed with
one row of a count ladder, that of the multiples of g, for each g dividing the
weight it appends; a tuple with none is pruned with all its extensions.  With
cones and codims over the cap masked out, a popcount is the number checked,
and only set bits below the largest amplitude bound (a prefix) are visited
one by one.  The three regular-pair claims share that worker,
`_part_regular`, and differ only in the bound and in what an equality case
records.  The nonvanishing claim walks the same kind of universe, where
delta <= 0 is a prefix too.

The two family claims walk the weight tuples as a prefix tree as well
(`_family_tuples`).  Each node carries a degree table, one immutable record
per stratum without a unit weight with its masks R_W and B_W and the ladder
of R_W, the series of 1/prod(1 - t^a), and three facts it derives from its
parent's: whether the space is well formed, the lcm of the pairwise gcds of
the weights and their lcm.  A child shares its parent's records and adds or
replaces only those its appended weight changes.  One mask engine reads a
node's records over a degree universe: the hypersurface claim's has the
codim-1 multisets (f) alone.  Per record, count ladders
(memoized on the universe) give the entries that fail well-formedness and
those that fail Q1; at codim 1 a count of the outside coordinates that reach
R_W decides Q2, and at codim >= 2 the degrees that no outside class reaches
rule out the entries that hold one.  The per-family Q2 check runs only on
the rows where a survivor of codim >= 2 fails Q1.  The index and smoothness
of the survivors are masks too, condition (i) read off the same ladder of
multiples as regularity.  The hypersurface claim's base loci are bit tests
on the same records, so a WciFamily is built only for a counterexample.
"""

from __future__ import annotations

import json
import math
import os
import sys
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, combinations_with_replacement
from time import perf_counter
from typing import NamedTuple, NoReturn

from . import hilbert
from .arith import _repr_over, frobenius, is_prime
from .errors import BoundsExceededError, CeilingExceededError, UsageError
from .hilbert import _divide
from .pairs import Pair, _encode_run_length, encode_sides, is_regular
from .wci import (
    WciFamily,
    WeightClasses,
    _base_locus,
    _geometry,
    _stratum_outcome,
    canonical_degree,
)

DEFAULT_CEILING = 10**8


@dataclass(frozen=True)
class SearchBounds:
    """Finite search window: the largest codimension, number of variables,
    weight and degree of an instance."""

    max_codim: int
    max_vars: int
    max_weight: int
    max_degree: int

    def __post_init__(self):
        if self.max_codim < 0:
            raise UsageError("max_codim must be nonnegative")
        for name in ("max_vars", "max_weight", "max_degree"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be at least 1")


@dataclass(frozen=True)
class FamilyFilter:
    """Which enumerated instances `enumerate_instances` keeps; all off keeps all.

    gcd_one_weights reads only the weights; the others read a family's
    annotations and apply to kind='families' only.
    """

    require_fano: bool = False
    require_calabi_yau: bool = False
    require_smooth: bool = False
    require_quasi_smooth: bool = False
    require_well_formed: bool = False
    exclude_linear_cones: bool = False
    gcd_one_weights: bool = False

    def keeps(self, ann: dict) -> bool:
        """Do a family's annotations pass the geometric filters?"""
        wanted = {"fano": self.require_fano, "calabi_yau": self.require_calabi_yau}
        kinds = [kind for kind, on in wanted.items() if on]
        return not (
            (self.exclude_linear_cones and ann["linear_cone"])
            or (self.require_well_formed and not ann["well_formed"])
            or (self.require_quasi_smooth and not ann["quasi_smooth"])
            or (self.require_smooth and not ann["smooth"])
            or (kinds and ann["kind"] not in kinds)
        )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one claim run; deterministic apart from elapsed_ms."""

    claim: str
    bounds: SearchBounds
    instances_checked: int
    counterexamples: tuple[dict, ...]
    equality_witnesses: tuple[dict, ...]
    elapsed_ms: int

    def as_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "claim": self.claim,
            "bounds": {**asdict(self.bounds), "filters": asdict(FamilyFilter())},
            "checked": self.instances_checked,
            "counterexamples": list(self.counterexamples),
            "equality_witnesses": list(self.equality_witnesses),
        }
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def canonical_json(self) -> str:
        """Byte-identical across runs and worker counts (no timing field)."""
        return json.dumps(self.as_dict(include_elapsed=False), sort_keys=True)


def instance_ceiling() -> int:
    """Hard cap on enumerated instances; WCI_INSTANCE_CEILING overrides."""
    raw = os.environ.get("WCI_INSTANCE_CEILING")
    if raw is None:
        return DEFAULT_CEILING
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"WCI_INSTANCE_CEILING must be an integer, got {raw!r}") from None
    if value < 1:
        raise UsageError("WCI_INSTANCE_CEILING must be positive")
    return value


def default_workers() -> int:
    """Available parallelism: the CPUs this process may run on, or 1 where
    there is no os.fork to run partitions in parallel."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# -- enumeration primitives -----------------------------------------------------


def _weight_values(max_weight: int, min_value: int = 1, divisor: int = 1) -> list[int]:
    return [v for v in range(max_weight, min_value - 1, -1) if v % divisor == 0]


def _tuples_with_first(first: int, values_desc: list[int], min_len: int, max_len: int):
    """Non-increasing tuples of the given lengths whose largest entry is first."""
    smaller = [v for v in values_desc if v <= first]
    for length in range(max(min_len, 1), max_len + 1):
        for rest in combinations_with_replacement(smaller, length - 1):
            yield (first,) + rest


def _count_tuples(num_values: int, min_len: int, max_len: int) -> int:
    return sum(math.comb(num_values + L - 1, L) for L in range(min_len, max_len + 1))


class _Universe(NamedTuple):
    """A degree window's multisets, one bit position each; see `_degree_universe`."""

    entries: tuple[tuple[int, ...], ...]  # by ascending sum, in no set order within one sum
    sums: list[int]
    at: list[dict[int, int]]  # [p][d]: entries whose p-th largest degree is d
    without: list[int]  # [v]: entries with no degree equal to v, v <= max_weight
    codim_le: list[int]  # [c]: entries with codim <= c
    divisors: list[tuple[int, ...]]  # [a]: the g >= 2 dividing a, a <= max_weight
    multiples: list[int]  # [g]: the degree mask of the multiples of g, 1 <= g <= max_weight
    full: int  # the degree mask of 0..max_degree
    ladders: dict[int, list[int]]  # [M]: `_ladder(self, M)`, filled as asked


# A universe holds a bitset per (position, degree) over every multiset:
# max_codim x #degrees x #multisets bits, 10^12 at codim 1 and degrees to 10^6,
# so more than this are refused before anything is built.
_MAX_UNIVERSE_BITS = 1 << 30


@lru_cache(maxsize=16)
def _degree_universe(max_codim: int, max_degree: int, divisor: int, max_weight: int) -> _Universe:
    """Every multiset of 1..max_codim degrees, multiples of divisor up to
    max_degree, as one bit position, by ascending sum, with its per-position
    tables, which every count ladder (`_ladder`) reads, the degree masks of
    the multiples of each g and of 0..max_degree, and an empty memo of the
    ladders, which lives as long as this cache entry.  Built lazily, by each
    process of a run that walks it: in a forked run the calling process and
    every child build their own, unless an estimate's refinement
    (`_estimate`) built it before the fork, which the children then inherit.

    The entries are bucketed by sum; no order within one sum is needed, since
    `_sum_at_most` reads only the sums and every report is sorted by
    `_entry_key`.  Each table is set bit by bit in one bytearray per
    (position, degree) and per codim, and read as one int at the end."""
    values = _weight_values(max_degree, divisor=divisor)
    bits = max_codim * len(values) * _count_tuples(len(values), 1, max_codim)
    if bits > _MAX_UNIVERSE_BITS:
        raise CeilingExceededError("degree universe bits", bits, _MAX_UNIVERSE_BITS)
    sizes = range(1, max_codim + 1)
    by_sum: list[list[tuple[int, ...]]] = [[] for _ in range(max_codim * max_degree + 1)]
    for c in sizes:
        for ds in combinations_with_replacement(values, c):
            by_sum[sum(ds)].append(ds)
    entries = tuple(chain.from_iterable(by_sum))
    sums = [s for s, bucket in enumerate(by_sum) for _ in bucket]
    size = (len(entries) >> 3) + 1
    columns = [{d: bytearray(size) for d in values} for _ in range(max_codim)]  # [p][d], as `at`
    codim_is = [bytearray(size) for _ in range(max_codim + 1)]  # [c]: entries with codim c
    for i, ds in enumerate(entries):
        byte, bit = i >> 3, 1 << (i & 7)
        for column, d in zip(columns, ds):
            column[d][byte] |= bit
        codim_is[len(ds)][byte] |= bit
    at = [{d: int.from_bytes(col, "little") for d, col in column.items()} for column in columns]
    codim_le = [int.from_bytes(col, "little") for col in codim_is]
    for c in sizes:
        codim_le[c] |= codim_le[c - 1]
    weights = range(max_weight + 1)
    without = [codim_le[-1]] * (max_weight + 1)
    for at_p in at:
        for v in weights:
            without[v] &= ~at_p.get(v, 0)
    divisors = [tuple(g for g in weights[2:] if a % g == 0) for a in weights]
    full = (1 << max_degree + 1) - 1
    multiples = [0] + [_closure(1, g, full) for g in weights[1:]]
    return _Universe(entries, sums, at, without, codim_le, divisors, multiples, full, {})


def _ladder(universe: _Universe, M: int) -> list[int]:
    """The count ladder of a degree bitmask M: [j], j = 0..max_codim, holds the
    entries with at least j degrees, counted with multiplicity, in M.

    Memoized on the universe: the masks the claims ask for (the multiples of
    a g, R_W, its shifts and its single-monomial part, the starved degrees)
    recur across weight tuples and partitions."""
    memo = universe.ladders
    ge = memo.get(M)
    if ge is not None:
        return ge
    max_codim = len(universe.at)
    ge = [universe.codim_le[-1]] + [0] * max_codim
    for at_p in universe.at:  # add one degree position at a time
        inside = 0
        for d, entries in at_p.items():
            if M >> d & 1:
                inside |= entries
        for j in range(max_codim, 0, -1):
            ge[j] |= ge[j - 1] & inside
    memo[M] = ge
    return ge


def _closure(mask: int, v: int, full: int) -> int:
    """The degrees t + e*v (e >= 0) for t in mask, within full: by doubling."""
    step = v
    while step < full.bit_length():
        mask = (mask | mask << step) & full
        step <<= 1
    return mask


# (universe key, g) -> its `_requirement_bits`, built when g is first required.
_match_cache: dict[tuple, list[int]] = {}


def _requirement_bits(universe_key: tuple, g: int) -> list[int]:
    """bits[g, k] for k = 0..max_codim: the entries with at least k degrees
    divisible by g, the ladder of the multiples of g."""
    bits = _match_cache.get((universe_key, g))
    if bits is None:
        universe = _degree_universe(*universe_key)
        bits = _match_cache[universe_key, g] = _ladder(universe, universe.multiples[g])
    return bits


def _regular_tuples(universe_key: tuple, values: list[int], first: int, min_len: int, max_len: int):
    """(weights, mask) for the canonical weight tuples led by first, with
    min_len..max_len entries from values (descending), whose mask, the entries
    ds over which (ds; weights) is 1-regular, is not empty.

    1-regular means: for every subset of the weights with gcd h > 1, at least
    as many degrees as the subset has entries are divisible by h.  Requiring,
    for every g >= 2 dividing some weight, as many g-divisible degrees as
    there are weights divisible by g selects exactly the same multisets: a
    subset with gcd h lies inside the weights divisible by h; conversely, the
    weights divisible by g have a gcd g' with g | g', that subset asks for
    that many degrees divisible by g', and each of them is divisible by g.

    The tuples are walked as a prefix tree: a child appends a weight a no
    larger than the last one, and its mask is its parent's ANDed, for each g
    dividing a, with the ladder of the multiples of g at the new count of
    g-divisible weights (no entry when that count exceeds max_codim).  Ladder
    rows nest, row k + 1 inside row k, so this is the one-shot AND over the
    child's counts.  Masks only shrink along the walk, so a tuple with an
    empty mask is skipped together with every tuple that extends it.
    """
    universe = _degree_universe(*universe_key)
    count = [0] * len(universe.divisors)  # [g]: weights of the prefix divisible by g

    def extend(weights: tuple[int, ...], mask: int, j: int):
        a = values[j]
        gs = universe.divisors[a]
        for g in gs:
            count[g] += 1
            bits = _requirement_bits(universe_key, g)
            mask &= bits[count[g]] if count[g] < len(bits) else 0
        if mask:
            weights += (a,)
            if len(weights) >= min_len:
                yield weights, mask
            if len(weights) < max_len:
                for i in range(j, len(values)):
                    yield from extend(weights, mask, i)
        for g in gs:
            count[g] -= 1

    yield from extend((), universe.codim_le[-1], values.index(first))


@lru_cache(maxsize=None)
def _frobenius_cached(values: frozenset[int]) -> int:
    """The Frobenius number of a generator set: it depends on the distinct values alone."""
    return frobenius(values)


def _entry_key(entry: dict) -> tuple[str, str]:
    enc = entry.get("pair") or entry.get("family") or entry.get("weights") or ""
    return (enc, json.dumps(entry, sort_keys=True))


def _set_bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sum_at_most(universe: _Universe, bound: int) -> int:
    """The entries whose degrees sum to at most bound: a prefix."""
    return (1 << bisect_right(universe.sums, bound)) - 1


# -- per-claim partition workers --------------------------------------------------


def _frobenius_limits(weights: tuple[int, ...], max_codim: int, q):
    """delta >= Frobenius(weights) at every c <= n - 1, for coprime weights only."""
    if reduce(math.gcd, weights) != 1:
        return None
    return [_frobenius_cached(frozenset(weights))] * len(weights)


_EXPECTED_FORM_NOTE = "(6^s,1^(c-s); 2^s,3^s)"


def _prop_equality(ds: tuple[int, ...], weights: tuple[int, ...], cex: list, wits: list) -> None:
    """gcd-one pairs with delta = c must be of the form (6^s,1^(c-s); 2^s,3^s)."""
    if reduce(math.gcd, weights) != 1:
        return
    s = ds.count(6)
    ok = all(d in (6, 1) for d in ds) and Counter(weights) == Counter({2: s, 3: s})
    enc = encode_sides(ds, _encode_run_length(weights))
    wits.append({"pair": enc, "s": s if ok else None, "matches_form": ok})
    if not ok:
        cex.append(
            {
                "pair": enc,
                "delta": len(ds),
                "reason": f"equality pair not of the form {_EXPECTED_FORM_NOTE}",
            }
        )


def _qdiv_equality(ds: tuple[int, ...], weights: tuple[int, ...], cex: list, wits: list) -> None:
    """delta = cq is recorded with whether c equals the number of variables."""
    wits.append(
        {
            "pair": encode_sides(ds, _encode_run_length(weights)),
            "codim": len(ds),
            "nvars": len(weights),
            "c_equals_nvars": len(ds) == len(weights),
        }
    )


def _part_regular(claim: str, bounds: SearchBounds, q, first: int):
    spec, values, universe_key = _domain(claim, bounds, q)
    universe = _degree_universe(*universe_key)
    checked = 0
    cex: list[dict] = []
    wits: list[dict] = []
    for weights, mask in _regular_tuples(universe_key, values, first, spec.min_len, bounds.max_vars):
        for v in set(weights):
            mask &= universe.without[v]  # not a linear cone
        if not mask:
            continue
        limits = spec.limits(weights, bounds.max_codim, q)
        if limits is None:
            continue
        mask &= universe.codim_le[min(len(limits) - 1, bounds.max_codim)]
        checked += mask.bit_count()
        # Only an entry with delta <= max(limits) can fall below or meet its bound.
        sum_a = sum(weights)
        mask &= _sum_at_most(universe, sum_a + max(limits))
        for i in _set_bits(mask):
            ds = universe.entries[i]
            delta = universe.sums[i] - sum_a
            bound = limits[len(ds)]
            if delta < bound:
                enc = encode_sides(ds, _encode_run_length(weights))
                cex.append({"pair": enc, "delta": delta, spec.bound_key: bound})
            elif delta == bound and spec.on_equality is not None:
                spec.on_equality(ds, weights, cex, wits)
    return checked, cex, wits


def _at_least(ge: list[int], j: int) -> int:
    """A ladder's entries with at least j degrees in its mask."""
    return ge[j] if j < len(ge) else 0


class _Node(NamedTuple):
    """One weight tuple of the family walk; see `_family_tuples`."""

    weights: tuple[int, ...]
    classes: WeightClasses
    rows: tuple  # the degree table: one record per stratum without a unit weight
    series: list[int]  # of 1/prod(1 - t^a), to order max_degree
    well_formed: bool  # the space: `wci.space_well_formed(classes)`
    gcd_lcm: int  # the lcm of gcd(a_s, a_t) over the pairs s < t
    lcm: int  # the lcm of the weights


def _family_tuples(universe: _Universe, values: list[int], first: int, min_len: int, max_len: int):
    """A `_Node` for each canonical weight tuple led by first, with
    min_len..max_len entries from values (descending).

    The tuples are walked as a prefix tree, as in `_regular_tuples`: a child
    appends a weight a no larger than the last one.  Its classes are indexed
    in the order their values first appear, so a class index never changes.
    rows holds one record (wmask, k, g, R, B, ge, W, D) per value subset W
    without the unit weight, whose (W, k, g, wmask, D) is W's row of
    `wci._strata(classes)`: R and B are bitmasks over the degrees
    0..max_degree, R the degrees representable over W and B those with
    exactly one monomial over W's coordinates, and ge is
    `_ladder(universe, R)`.  Over a unit weight every degree is
    representable, so the quasi-smoothness verdict skips those strata and none
    has gcd > 1.  series is that of 1/prod(1 - t^a) to order max_degree.
    The space is well formed iff no n - 1 of its n coordinates have a common
    factor: iff every row with g > 1 has k <= n - 2.

    Records are immutable, and a child shares its parent's.  A new value a
    adds the row {a} and W + {a} per row W after the rows, the recurrence of
    `wci._strata` (which puts them before), with R closed under adding a and
    B by the one-coordinate rule: a degree d has one monomial iff exactly one
    e >= 0 puts d - e*a in R_W, that one in B_W.  A repeated a gives the rows
    holding it k + 1, and on its first repeat B is W less a's B less the d
    with d - a in R (two coordinates of weight a give two monomials of every
    positive power of a).  R depends on W alone and B on W and D, so (R, B,
    ge) come from a memo keyed by (W, D) that lives as long as the walk.  A
    child's series is its parent's times 1/(1 - t^a): one prefix sum per
    residue of a.  The rows holding a are the only ones it adds or changes, so
    its largest k of a row with g > 1 is its parent's or one of theirs.  Its
    pairwise-gcd lcm is its parent's lcm'd with gcd(a, v) for each value v of
    the parent, a itself included when repeated, and its lcm the parent's
    lcm'd with a.
    """
    full = universe.full
    memo: dict[tuple, tuple] = {}  # (W, D) -> (R, B, ge)
    empty = (0, 0, 0, 1, 1, None, (), ())  # the empty stratum: one monomial, of degree 0

    def added(rows: tuple, a: int, bit: int) -> tuple:
        """{a}, then W + {a} for each row W, for a new value a of class bit."""
        out = []
        for wmask, k, g, R0, B0, _ge, W0, D in (empty,) + rows:
            W = (a,) + W0  # a is below every value of W0
            key = W, D
            got = memo.get(key)
            if got is None:
                R = _closure(R0, a, full)
                B = _closure(B0, a, full) & ~_closure(R0 & R << a, a, full)
                got = memo[key] = R, B, _ladder(universe, R)
            out.append((wmask | bit, k + 1, math.gcd(g, a), *got, W, D))
        return rows + tuple(out)

    def repeated(rows: tuple, a: int, m: int) -> tuple:
        """The rows after a further coordinate of weight a, the last class,
        which m coordinates carried: those holding a are the last half and
        one, {a} first and then W + {a} in the order of the rows W before."""
        base = len(rows) // 2
        out = list(rows[:base])
        for (_wm, _k, _g, _R, B0, _ge, _W, _D), row in zip((empty,) + rows[:base], rows[base:]):
            wmask, k, g, R, B, ge, W, D = row
            if m == 1:
                D = (a,) + D
                got = memo.get((W, D))
                if got is None:
                    got = memo[W, D] = R, B0 & ~(R << a), ge
                R, B, ge = got
            out.append((wmask, k + 1, g, R, B, ge, W, D))
        return tuple(out)

    # Preorder, depth first: a node's children are pushed last-first, each as
    # its parent's state and the index of the value it appends.  No recursive
    # closure holds the memo, so it is freed when the walk ends.
    stack = [(((), (), (), [1] + [0] * (full.bit_length() - 1), 0, 1, 1), values.index(first))]
    while stack:
        (weights, classes, rows, series, top, gcd_lcm, lcm), j = stack.pop()
        a = values[j]
        weights += (a,)
        gcd_lcm = math.lcm(gcd_lcm, *(math.gcd(a, v) for v, _m in classes))
        lcm = math.lcm(lcm, a)
        if classes and classes[-1][0] == a:
            m = classes[-1][1]
            classes = classes[:-1] + ((a, m + 1),)
            if a > 1:
                rows = repeated(rows, a, m)
        else:
            classes += ((a, 1),)
            if a > 1:
                rows = added(rows, a, 1 << len(classes) - 1)
        if a > 1:  # the rows holding a are the last half and one
            top = max([top] + [row[1] for row in rows[len(rows) // 2:] if row[2] > 1])
        series = _divide(series, a)
        if len(weights) >= min_len:
            well_formed = top <= len(weights) - 2
            yield _Node(weights, WeightClasses(classes), rows, series, well_formed, gcd_lcm, lcm)
        if len(weights) < max_len:
            state = weights, classes, rows, series, top, gcd_lcm, lcm
            stack += [(state, i) for i in range(len(values) - 1, j - 1, -1)]


def _stratum_masks(universe: _Universe, classes: WeightClasses, rows: tuple, alive: int):
    """(well_formed, failed, pending) for the entries in alive, as families
    over classes, from the rows of their walk node (`_family_tuples`).

    Each is exact: the rules of `_excess` / `_well_formed` and of
    `_stratum_outcome` read as masks, where a codim-c entry ds has
    dim = n - 1 - c and rep the degrees (with multiplicity) in R_W.
    - well_formed: the entries no row with g > 1 and k > dim - 1 rules out; a
      row does so when #rep <= min(k - 1, k - dim).  `_excess` also spares a
      row where a degree d of rep has one monomial over W (d in B_W), but that
      never changes the verdict: each value v of that monomial has one
      coordinate, and W less v has gcd > 1, one coordinate fewer and at least
      one rep fewer (d is not representable there), so it meets the same
      bound; repeat until no rep degree has one monomial.
    - failed: entries that are not quasi-smooth.  A row fails Q1 for the
      entries with #rep < min(c, k).  At c = 1 Q2 is a count: the one degree f
      needs k outside coordinates v, with multiplicity, with f - v in R_W.  At
      c >= 2 an entry failing Q1 fails the row when it holds a degree d that
      is neither in R_W nor at v above it for an outside class v: such a d is
      not in rep, so it is left over in the Q2 selection with no class
      available.
    - pending: per row, the entries of codim >= 2 failing Q1 there that no
      earlier row ruled out, as (row, mask) pairs; `_stratum_outcome`
      decides them.
    """
    full = universe.full
    total = classes.total
    bits = [(1 << b, v, m) for b, (v, m) in enumerate(classes.classes)]
    layers = [
        (c, total - 1 - c, alive & universe.codim_le[c] & ~universe.codim_le[c - 1])
        for c in range(1, len(universe.at) + 1)
    ]
    layers = [layer for layer in layers if layer[2]]
    single = alive & universe.codim_le[1]
    well_formed, failed, pending = alive, 0, []
    for row in rows:
        wmask, k, g, R, _B, ge, _W, _D = row
        failing = 0
        for c, dim, layer in layers:
            if g > 1 and k > dim - 1:
                well_formed &= ~(layer & ~_at_least(ge, min(k - 1, k - dim) + 1))
            failing |= layer & ~ge[min(c, k)]  # c <= max_codim
        failing &= well_formed & ~failed  # the others are out already
        q2 = failing & single
        failing ^= q2
        if q2 and total - k >= k:  # else too few outside coordinates
            avail = [q2] + [0] * k  # [j]: with j or more available coordinates
            for bit, v, m in bits:
                if wmask & bit:
                    continue  # an inside class
                hit = _ladder(universe, R << v & full)[1]
                for j in range(k, 0, -1):
                    avail[j] |= hit & avail[max(j - m, 0)]
            q2 &= ~avail[k]
        failed |= q2
        if failing:
            reach = R
            for bit, v, _m in bits:
                if not wmask & bit:
                    reach |= R << v
            failed |= failing & _ladder(universe, full & ~reach)[1]
            pending.append((row, failing))
    return well_formed, failed, pending


def _geometric_families(universe: _Universe, classes: WeightClasses, rows: tuple, alive: int):
    """({index: entries}, smooth) for the well-formed, quasi-smooth non-cones
    among the entries in alive, as families over classes, whose walk node
    (`_family_tuples`) holds rows.

    The masks of `_stratum_masks` give the kept families, with
    `_stratum_outcome` run on each row where a survivor fails Q1.  Their index
    and smoothness are `_index` and `_smooth` over the rows of
    `_singular_strata`, read as masks: a row with g > 1 is met by the entries
    with at most k - 1 degrees in R_W, none of them in B_W (`_excess`).  Every
    entry it meets is singular, and it adds g to the index of those with
    fewer than k degrees divisible by g (condition (i) fails)."""
    for v in classes.values():
        alive &= universe.without[v]  # not a linear cone
    well_formed, failed, pending = _stratum_masks(universe, classes, rows, alive)
    kept = well_formed & ~failed
    for (wmask, k, _g, _R, _B, _ge, W, _D), failing in pending:
        for i in _set_bits(failing & kept):
            if _stratum_outcome(universe.entries[i], W, k, classes, wmask, False)[0] == "FAIL":
                kept ^= 1 << i
    if not kept:
        return {}, 0
    by_index, smooth = {1: kept}, kept
    for _wmask, k, g, _R, B, ge, _W, _D in rows:
        if g == 1:
            continue
        met = kept & ~_at_least(ge, k) & ~_ladder(universe, B)[1]  # B lies inside R
        if not met:
            continue
        smooth &= ~met
        raised = met & ~_at_least(_ladder(universe, universe.multiples[g]), k)
        if raised:
            split: dict[int, int] = {}
            for index, entries in by_index.items():
                for new, part in ((index, entries & ~raised), (math.lcm(index, g), entries & raised)):
                    if part:
                        split[new] = split.get(new, 0) | part
            by_index = split
    return by_index, smooth


def _h0(series: list[int], degrees: tuple[int, ...], h: int) -> int:
    """dim H^0(O(h)) on a family of these degrees: the t^h coefficient of
    series * prod(1 - t^d), series being that of 1/prod(1 - t^a)."""
    subsets = (S for size in range(len(degrees) + 1) for S in combinations(degrees, size))
    return sum((-1) ** len(S) * series[h - sum(S)] for S in subsets if sum(S) <= h)


def _part_nonvanishing(claim: str, bounds: SearchBounds, q, first: int):
    spec, values, universe_key = _domain(claim, bounds, q)
    universe = _degree_universe(*universe_key)
    checked = 0
    cex: list[dict] = []
    wits: list[dict] = []
    walk = _family_tuples(universe, values, first, spec.min_len, bounds.max_vars)
    for weights, classes, rows, series, well_formed, _gcd_lcm, _lcm in walk:
        if not well_formed:
            continue
        sum_a = sum(weights)
        max_c = min(bounds.max_codim, len(weights) - 1)
        alive = universe.codim_le[max_c] & _sum_at_most(universe, sum_a)
        by_index, smooth = _geometric_families(universe, classes, rows, alive)
        checked += sum(entries.bit_count() for entries in by_index.values())
        top = max(by_index, default=0)
        if top >= len(series):  # an index above max_degree
            series = reduce(_divide, weights, [1] + [0] * top)
        encoded = _encode_run_length(weights)
        c1 = classes.multiplicity(1)
        for index, entries in by_index.items():
            for i in _set_bits(entries):
                ds = universe.entries[i]
                c = len(ds)
                enc = encode_sides(ds, encoded)
                if _h0(series, ds, index) < 1:
                    cex.append({"family": enc, "check": "nonvanishing", "index": index, "h0": 0})
                if not smooth >> i & 1:
                    continue  # (b) and (c) do not apply
                delta = universe.sums[i] - sum_a
                if c1 < c:
                    cex.append({"family": enc, "check": "c1_ge_c", "c1": c1, "codim": c})
                elif c1 == c:
                    ok = ds == (6,) * c and classes.classes == ((3, c), (2, c), (1, c))
                    wits.append({"family": enc, "c1": c1, "is_expected_form": ok})
                    if not ok:
                        cex.append(
                            {
                                "family": enc,
                                "check": "equality_form",
                                "reason": "c1 = c outside the classified family",
                            }
                        )
                if c1 <= -delta:
                    cex.append(
                        {
                            "family": enc,
                            "check": "c1_gt_index",
                            "c1": c1,
                            "fano_index": -delta,
                        }
                    )
    return checked, cex, wits


def _base_locus_rows(rows: tuple, f: int, ell: int, max_degree: int):
    """The W, lazily, of the strata that the general hypersurface of degree f
    meets and that lie in the base locus of |O(ell)|, from its walk node's
    rows: `_base_locus`'s hits, less the unit strata, which represent every
    ell.  A stratum lies in the base locus iff ell is not representable over
    W (a bit of R_W up to max_degree), and is met iff f is not representable
    over W or, with k >= 2, has more than one monomial there (`_excess` at
    codim 1)."""
    for _wmask, k, _g, R, B, _ge, W, _D in rows:
        if (not R >> f & 1 or k >= 2 and not B >> f & 1) and not (
            R >> ell & 1 if ell <= max_degree else _repr_over(ell, W)
        ):
            yield W


def _part_hypersurface(claim: str, bounds: SearchBounds, q, first: int):
    spec, values, _ = _domain(claim, bounds, q)
    # one entry (f) per degree f <= max_degree
    universe = _degree_universe(1, bounds.max_degree, 1, bounds.max_weight)
    alive = universe.codim_le[1]
    checked = 0
    cex: list[dict] = []
    walk = _family_tuples(universe, values, first, spec.min_len, bounds.max_vars)
    for weights, classes, rows, series, well_formed, gcd_lcm, lcm in walk:
        # (a) the amplitude inequality for the lcm degree
        if all(gcd_lcm % a != 0 for a in weights):
            checked += 1
            lhs = lcm - sum(weights)
            for s, t in combinations(range(len(weights)), 2):
                a_s, a_t = weights[s], weights[t]
                rhs = math.lcm(a_s, a_t) - a_s - a_t
                if lhs < rhs:
                    cex.append(
                        {
                            "part": "a",
                            "weights": _encode_run_length(weights),
                            "s": a_s,
                            "t": a_t,
                            "lhs": lhs,
                            "rhs": rhs,
                        }
                    )
        # (b), (c): quasi-smooth well-formed non-cone hypersurfaces
        if not well_formed:
            continue
        by_index, _ = _geometric_families(universe, classes, rows, alive)
        checked += sum(entries.bit_count() for entries in by_index.values())
        sum_a = sum(weights)
        # h0(O(h)) on X_f is P[h] - P[h - f], P the series of 1/prod(1 - t^a)
        for index, entries in by_index.items():
            for i in _set_bits(entries):
                f = universe.sums[i]
                delta = f - sum_a
                start = (max(delta, 0) // index + 1) * index  # least multiple > max(delta, 0)
                for h_prime in range(start, bounds.max_degree + 1, index):
                    if series[h_prime] - (series[h_prime - f] if h_prime >= f else 0) < 1:
                        enc = encode_sides((f,), _encode_run_length(weights))
                        cex.append({"part": "b", "family": enc, "h_prime": h_prime, "h0": 0})
                if delta % index == 0:
                    n = len(weights) - 1
                    for m in range(n, n + 3):
                        ell = delta + m * index
                        if ell < 1 or not any(_base_locus_rows(rows, f, ell, bounds.max_degree)):
                            continue  # an empty system, or a base-point-free one
                        components = _base_locus(WciFamily((f,), classes), ell)
                        cex.append(
                            {
                                "part": "c",
                                "family": encode_sides((f,), _encode_run_length(weights)),
                                "ell": ell,
                                "m": m,
                                "components": [list(comp.values) for comp in components],
                            }
                        )
    return checked, cex, []


# -- the claim table and estimates -----------------------------------------------


# Refining an estimate beyond the raw product requires materializing the degree
# universe and walking the weight tuples (the regular-pair claims only those
# with a regular multiset); only do so below these sizes.
_REFINE_MULTISET_CAP = 500_000
_REFINE_TUPLE_CAP = 2_000_000


def _estimate_regular(claim: str, bounds: SearchBounds, q, first: int) -> int:
    spec, values, universe_key = _domain(claim, bounds, q)
    walk = _regular_tuples(universe_key, values, first, spec.min_len, bounds.max_vars)
    return sum(mask.bit_count() for _, mask in walk)


def _estimate_delta_le_zero(claim: str, bounds: SearchBounds, q, first: int) -> int:
    spec, values, universe_key = _domain(claim, bounds, q)
    universe = _degree_universe(*universe_key)
    total = 0
    for weights in _tuples_with_first(first, values, spec.min_len, bounds.max_vars):
        max_c = min(bounds.max_codim, len(weights) - 1)
        total += (universe.codim_le[max_c] & _sum_at_most(universe, sum(weights))).bit_count()
    return total


@dataclass(frozen=True)
class _Claim:
    """How one claim walks its window.

    Weight tuples have min_len..max_vars entries drawn from the multiples of q
    (over_q) or of 1 between min_weight and max_weight; partitions are keyed
    by the largest entry.  `refine(claim, bounds, q, first)` counts the
    instances one partition yields, for when the raw estimate trips the
    ceiling; hypersurface has none.  The regular-pair claims share
    `_part_regular` and differ only in `limits(weights, max_codim, q)`, the
    least allowed delta indexed by codim (its length caps c; None skips the
    tuple), the counterexample key of that bound, and `on_equality`.
    """

    part: Callable
    refine: Callable | None
    min_len: int
    min_weight: int = 1
    over_q: bool = False
    limits: Callable | None = None
    bound_key: str = ""
    on_equality: Callable | None = None


_CLAIM_SPECS = {
    "conjecture-regular": _Claim(
        _part_regular,
        _estimate_regular,
        min_len=2,
        min_weight=2,
        limits=_frobenius_limits,
        bound_key="frobenius",
    ),
    "prop-regular": _Claim(
        _part_regular,
        _estimate_regular,
        min_len=1,
        min_weight=2,
        limits=lambda weights, max_codim, q: list(range(max_codim + 1)),
        bound_key="codim",
        on_equality=_prop_equality,
    ),
    "lemma-qdiv": _Claim(
        _part_regular,
        _estimate_regular,
        min_len=1,
        over_q=True,
        limits=lambda weights, max_codim, q: [c * q for c in range(max_codim + 1)],
        bound_key="bound",
        on_equality=_qdiv_equality,
    ),
    "nonvanishing": _Claim(_part_nonvanishing, _estimate_delta_le_zero, min_len=2),
    "hypersurface": _Claim(_part_hypersurface, None, min_len=2),
}


def _domain(claim: str, bounds: SearchBounds, q) -> tuple[_Claim, list[int], tuple]:
    """(spec, weight values, degree-universe key) of a claim in a window.

    Every claim's instances have codim >= 1, so a window with max_codim 0 has
    no weight values: no partitions, and an estimate of 0.
    """
    spec = _CLAIM_SPECS[claim]
    divisor = q if spec.over_q else 1
    values = _weight_values(bounds.max_weight, spec.min_weight, divisor) if bounds.max_codim else []
    return spec, values, (bounds.max_codim, bounds.max_degree, divisor, bounds.max_weight)


def _estimate(claim: str, bounds: SearchBounds, q, ceiling: int) -> int:
    spec, values, universe_key = _domain(claim, bounds, q)
    n_tuples = _count_tuples(len(values), spec.min_len, bounds.max_vars)
    if spec.refine is None:  # part (a) plus every degree up to max_degree
        return n_tuples * (bounds.max_degree + 1)
    divisor = universe_key[2]
    n_multisets = _count_tuples(bounds.max_degree // divisor, 1, bounds.max_codim)
    raw = n_tuples * n_multisets
    if raw <= ceiling or n_multisets > _REFINE_MULTISET_CAP or n_tuples > _REFINE_TUPLE_CAP:
        return raw
    # The raw product trips the ceiling, but far fewer instances usually get
    # visited; count them per partition.
    return sum(spec.refine(claim, bounds, q, first) for first in values)


def _run_partition(args):
    return _CLAIM_SPECS[args[0]].part(*args)


def _take(tasks: list, task_r: int) -> list:
    """[(number, result)] of the partitions whose numbers this process reads
    from task_r until the pipe is empty."""
    done = []
    while number := os.read(task_r, 4):  # whole numbers: each write is atomic
        i = int.from_bytes(number, "little")
        done.append((i, _run_partition(tasks[i])))
    return done


def _serve(tasks: list, task_r: int, result_w: int, inherited: set[int]) -> NoReturn:
    """A forked child's whole life: run the partitions it takes from task_r
    (`_take`), write one pickle of its [(number, result)], or of the exception
    raised, to result_w, and exit without ever returning into the caller's
    stack."""
    status = 1
    try:
        import pickle

        for fd in inherited:  # the task pipe must reach EOF once the parent is done
            os.close(fd)
        try:
            payload = pickle.dumps(_take(tasks, task_r))
        except Exception as exc:  # the parent re-raises it
            payload = pickle.dumps(exc)
        with open(result_w, "wb") as out:
            out.write(payload)
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    finally:
        os._exit(status)


def _run_forked(tasks: list, workers: int) -> list:
    """`_run_partition` over tasks on min(workers, len(tasks)) processes, this
    one and the others forked from it, results in task order.

    The children inherit this process's module state at the fork.  Every
    process takes task numbers from one pipe as it goes idle, this one once it
    has queued them all, and this one keeps its own results as they are.  The
    queue never blocks: where the pipe is full, this process runs the task it
    could not queue, so a child that died cannot stall it.  A child's
    exception is raised here with its type; a child that exits without a
    result makes the run raise.  Every child is reaped before this returns or
    raises, those still running killed first."""
    import pickle
    import signal

    sys.stdout.flush()  # else a child could print the parent's buffered text again
    sys.stderr.flush()
    task_r, task_w = os.pipe()
    fds = {task_r, task_w}  # open here
    children: dict[int, int] = {}  # unreaped pid -> read end of its result pipe

    def close(fd: int) -> None:
        fds.remove(fd)
        os.close(fd)

    try:
        for _ in range(min(workers, len(tasks)) - 1):
            result_r, result_w = os.pipe()
            fds |= {result_r, result_w}
            pid = os.fork()
            if pid == 0:
                _serve(tasks, task_r, result_w, fds - {task_r, result_w})
            close(result_w)
            children[pid] = result_r
        os.set_blocking(task_w, False)
        parts = {}
        for i in range(len(tasks)):
            try:
                os.write(task_w, i.to_bytes(4, "little"))
            except BlockingIOError:  # the pipe is full
                parts[i] = _run_partition(tasks[i])
        close(task_w)
        parts.update(_take(tasks, task_r))
        for pid, result_r in list(children.items()):
            payload = b"".join(iter(partial(os.read, result_r, 1 << 16), b""))
            close(result_r)
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if not payload:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"verify worker {pid} exited with status {code} and no result")
            done = pickle.loads(payload)
            if isinstance(done, Exception):
                raise done
            parts.update(done)
        return [parts[i] for i in range(len(tasks))]
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


# -- drivers ----------------------------------------------------------------------


def _within_ceiling(estimate: Callable[[int], int]) -> None:
    """Refuse a run whose instance estimate, given the ceiling, exceeds it."""
    ceiling = instance_ceiling()
    count = estimate(ceiling)
    if count > ceiling:
        raise BoundsExceededError(count, ceiling)


def _run_claim(claim: str, bounds: SearchBounds, q=None, workers: int | None = None) -> VerifyReport:
    if workers is None:
        workers = 1
    elif workers < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    elif workers > 1 and not hasattr(os, "fork"):
        raise UsageError(f"workers above 1 need os.fork, which this platform lacks; got {workers}")
    start = perf_counter()
    _within_ceiling(lambda ceiling: _estimate(claim, bounds, q, ceiling))
    tasks = [(claim, bounds, q, first) for first in _domain(claim, bounds, q)[1]]
    if workers > 1 and len(tasks) > 1:
        parts = _run_forked(tasks, workers)
    else:
        parts = [_run_partition(t) for t in tasks]
    checked = sum(p[0] for p in parts)
    cex = sorted((e for p in parts for e in p[1]), key=_entry_key)
    wits = sorted((e for p in parts for e in p[2]), key=_entry_key)
    elapsed_ms = int((perf_counter() - start) * 1000)
    return VerifyReport(claim, bounds, checked, tuple(cex), tuple(wits), elapsed_ms)


def verify_conjecture_regular(bounds: SearchBounds, workers: int | None = None) -> VerifyReport:
    """delta >= frobenius(weights) for regular pairs without units or cones."""
    return _run_claim("conjecture-regular", bounds, workers=workers)


def verify_prop_regular(bounds: SearchBounds, workers: int | None = None) -> VerifyReport:
    """delta >= codim for regular pairs with weights > 1; gcd-one equality
    pairs must be of the form (6^s,1^(c-s); 2^s,3^s)."""
    return _run_claim("prop-regular", bounds, workers=workers)


def verify_lemma_qdiv(bounds: SearchBounds, q: int, workers: int | None = None) -> VerifyReport:
    """delta >= codim*q when q divides every entry; equality forces c = n+1."""
    if not is_prime(q):
        raise UsageError(f"q must be prime, got {q!r}")
    return _run_claim("lemma-qdiv", bounds, q=q, workers=workers)


def verify_nonvanishing(bounds: SearchBounds, workers: int | None = None) -> VerifyReport:
    """Fundamental linear systems are nonempty on Fano/Calabi-Yau families, and
    smooth ones satisfy the unit-count inequalities."""
    return _run_claim("nonvanishing", bounds, workers=workers)


def verify_hypersurface(bounds: SearchBounds, workers: int | None = None) -> VerifyReport:
    """Hypersurface amplitude inequality, Cartier nonvanishing, and base-point
    freeness of the adjoint systems in the Gorenstein case."""
    if bounds.max_codim and bounds.max_degree > hilbert._MAX_SERIES_ORDER:
        # Its series runs to max_degree; refuse before a partition builds a
        # universe of O(max_degree^2) bits.
        raise CeilingExceededError("series order", bounds.max_degree, hilbert._MAX_SERIES_ORDER)
    return _run_claim("hypersurface", bounds, workers=workers)


CLAIMS = {
    "conjecture-regular": verify_conjecture_regular,
    "prop-regular": verify_prop_regular,
    "lemma-qdiv": verify_lemma_qdiv,
    "nonvanishing": verify_nonvanishing,
    "hypersurface": verify_hypersurface,
}


# -- instance enumeration ----------------------------------------------------------


def _pair_annotations(pair: Pair) -> dict:
    return {
        "codim": pair.codim,
        "delta": sum(pair.degrees) - sum(pair.weights),
        "regular": is_regular(pair),
        "gcd_one": reduce(math.gcd, pair.weights) == 1,
    }


def _family_annotations(family: WciFamily) -> dict:
    geo = _geometry(family)
    return {
        "codim": family.codim,
        "delta": canonical_degree(family),
        "linear_cone": geo.linear_cone,
        "well_formed": geo.well_formed,
        "quasi_smooth": geo.quasi_smooth,
        "smooth": geo.smooth,
        "kind": geo.kind,
    }


def enumerate_instances(
    bounds: SearchBounds, kind: str = "families", keep: FamilyFilter = FamilyFilter()
) -> list[tuple[str, dict]]:
    """Canonical encodings with per-instance annotations, sorted by encoding.

    kind='pairs' yields bare degree/weight pairs (codim may be 0) annotated
    with the pair predicates; of keep, only gcd_one_weights applies and the
    other filters are refused.  kind='families' yields shape-valid families
    (at least two weights, 1 <= c <= n) annotated with the geometric
    predicates, and keep drops the non-matching ones.
    """
    if kind not in ("pairs", "families"):
        raise UsageError(f"kind must be 'pairs' or 'families', got {kind!r}")
    families = kind == "families"
    if not families:
        refused = [name for name, on in asdict(keep).items() if on and name != "gcd_one_weights"]
        if refused:
            raise UsageError(f"filters {refused} apply only to kind='families'")
    min_len, min_codim = (2, 1) if families else (1, 0)
    values = _weight_values(bounds.max_weight)
    _within_ceiling(
        lambda ceiling: _count_tuples(bounds.max_degree, min_codim, bounds.max_codim)
        * _count_tuples(len(values), min_len, bounds.max_vars)
    )
    degree_values = _weight_values(bounds.max_degree)
    out: list[tuple[str, dict]] = []
    for first in values:
        for weights in _tuples_with_first(first, values, min_len, bounds.max_vars):
            if keep.gcd_one_weights and reduce(math.gcd, weights) != 1:
                continue
            max_c = min(bounds.max_codim, len(weights) - 1) if families else bounds.max_codim
            classes = WeightClasses.from_weights(weights)
            for c in range(min_codim, max_c + 1):
                for ds in combinations_with_replacement(degree_values, c):
                    if not families:
                        pair = Pair.of(ds, weights)
                        out.append((pair.encode(), _pair_annotations(pair)))
                        continue
                    family = WciFamily.of(ds, classes)
                    ann = _family_annotations(family)
                    if keep.keeps(ann):
                        out.append((family.encode(), ann))
    out.sort(key=lambda item: item[0])
    return out
