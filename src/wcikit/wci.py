"""Weighted complete intersection families: well-formedness, quasi-smoothness,
smoothness, Cartier index of the hyperplane class, classification, base loci.

A family X_{d_1..d_c} in P(a_0..a_n) is encoded by its degree multiset and its
weight classes.  All predicates about the singular strata of the ambient space
reduce to distinct-value subsets W of the weights: within one value class the
coordinates are interchangeable, and for each W the maximal coordinate subset
(all coordinates carrying those values) is the binding case.  That reduction
is validated against an exhaustive all-index-subsets oracle in the test suite.

What a stratum is (k, gcd W, its coordinate weights, the outside classes)
depends on the weights alone, so `_strata` builds one table of rows per
`WeightClasses`, kept in a bounded cache; every family predicate reads those
rows and tests which degrees are representable over W once per stratum, and
whether one has a single monomial there (`_one_monomial`) by the same
representability questions, never by counting monomials.

The verify partitions, which test many degree multisets per weight tuple,
keep their own degree tables instead: records with bitmasks over all degrees
up to a bound, extended weight by weight along a prefix walk of the weight
tuples (`verify._family_tuples`).  Where Q1 fails at codim >= 2 they call
`_stratum_outcome`, the one-shot rule, which asks arith's Apery tables.
One-shot calls build no degree table (a 12-value weight tuple has 4,095
rows), and `space_well_formed` reads only the gcds of the values.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .arith import _repr_over
from .errors import CeilingExceededError, DomainError, UsageError
from .pairs import Pair, _encode_run_length, encode_sides, parse_sides


@dataclass(frozen=True)
class WeightClasses:
    """Run-length form of a weight multiset: (value, multiplicity) descending."""

    classes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.classes:
            raise UsageError("weights must be nonempty")
        last = None
        for v, m in self.classes:
            if v < 1 or m < 1:
                raise UsageError(f"bad weight class ({v}, {m})")
            if last is not None and v >= last:
                raise UsageError("weight classes must be strictly descending")
            last = v

    @classmethod
    def from_weights(cls, weights) -> "WeightClasses":
        counts = Counter(weights)
        if not counts:
            raise UsageError("weights must be nonempty")
        return cls(tuple(sorted(counts.items(), reverse=True)))

    def expand(self) -> tuple[int, ...]:
        out: list[int] = []
        for v, m in self.classes:
            out.extend([v] * m)
        return tuple(out)

    def values(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.classes)

    def multiplicity(self, value: int) -> int:
        for v, m in self.classes:
            if v == value:
                return m
        return 0

    @cached_property
    def total(self) -> int:
        return sum(m for _, m in self.classes)


@dataclass(frozen=True)
class WciFamily:
    """A complete intersection family: degrees (descending) and weight classes.

    Construction enforces codimension <= dimension of the ambient space, so
    every family has dim X = n - c >= 0; the pure pair calculus (pairs module)
    stays shape-free.
    """

    degrees: tuple[int, ...]
    weights: WeightClasses

    def __post_init__(self):
        if list(self.degrees) != sorted(self.degrees, reverse=True):
            raise UsageError("degrees must be sorted descending")
        for d in self.degrees:
            if d < 1:
                raise UsageError(f"degrees must be positive, got {d}")
        if len(self.degrees) > self.weights.total - 1:
            raise UsageError(
                f"codimension {len(self.degrees)} exceeds ambient dimension "
                f"{self.weights.total - 1}"
            )

    @classmethod
    def of(cls, degrees, weights) -> "WciFamily":
        ws = weights if isinstance(weights, WeightClasses) else WeightClasses.from_weights(weights)
        return cls(tuple(sorted(degrees, reverse=True)), ws)

    @classmethod
    def parse(cls, text: str) -> "WciFamily":
        degrees, weights = parse_sides(text)
        return cls.of(degrees, weights)

    def encode(self) -> str:
        return encode_sides(self.degrees, _encode_run_length(self.weights.expand()))

    def pair(self) -> Pair:
        return Pair(self.degrees, self.weights.expand())

    @property
    def codim(self) -> int:
        return len(self.degrees)

    @property
    def nvars(self) -> int:
        return self.weights.total

    @property
    def dim(self) -> int:
        return self.nvars - 1 - self.codim


# -- ambient space ------------------------------------------------------------


def space_well_formed(weights) -> bool:
    """True iff the gcd of any n of the n+1 weights is 1."""
    ws = weights if isinstance(weights, WeightClasses) else WeightClasses.from_weights(weights)
    if ws.total < 2:
        raise UsageError("well-formedness needs at least two weights")
    # Dropping a coordinate leaves every value but the dropped one, and that
    # one too when its class has another coordinate.
    values = ws.values()
    return all(
        math.gcd(*values[:i], *values[i + 1:], v if m > 1 else 0) == 1
        for i, (v, m) in enumerate(ws.classes)
    )


def is_linear_cone(family: WciFamily) -> bool:
    """True iff some degree equals some weight."""
    return _is_cone(family.degrees, family.weights)


def _is_cone(degrees, weights: WeightClasses) -> bool:
    return not set(weights.values()).isdisjoint(degrees)


# -- stratum bookkeeping --------------------------------------------------------


# A table has 2^n - 1 rows for n distinct values, and its memory doubles with
# each further value (111 MB at 16), so more are refused before any row is built.
_MAX_DISTINCT_WEIGHTS = 16


# Small, because a table has a row per value subset (4,095 rows, 1.8 MB, at 12
# distinct values), and enough, because `verify.enumerate_instances` walks every
# family of one weight tuple before it moves to the next.
@lru_cache(maxsize=16)
def _strata(weights: WeightClasses) -> tuple:
    """One row (W, k, g, coords, outside, mults) per nonempty subset W of the
    distinct values, W an ascending tuple in lex order: k coordinates carry
    the values in W, g = gcd W, coords are their weights (descending), and
    outside / mults the values and multiplicities of the other classes
    (descending)."""
    if len(weights.classes) > _MAX_DISTINCT_WEIGHTS:
        raise CeilingExceededError("distinct weights", len(weights.classes), _MAX_DISTINCT_WEIGHTS)
    classes = weights.classes[::-1]
    top = len(classes) - 1
    rows = []
    root = ((), 0, 0, (), weights.values(), tuple(m for _, m in weights.classes))
    stack = [(root, 0)]
    while stack:  # preorder depth-first walk, children pushed last-first
        row, start = stack.pop()
        if row[0]:
            rows.append(row)
        W, k, g, coords, outside, mults = row
        for i in range(top, start - 1, -1):
            # v exceeds every value in W, so the top - i classes above it are
            # all outside: v is outside[top - i] and heads the new coords.
            v, m = classes[i]
            j = top - i
            rest = outside[:j] + outside[j + 1:], mults[:j] + mults[j + 1:]
            stack.append(((W + (v,), k + m, math.gcd(g, v), (v,) * m + coords, *rest), i + 1))
    return tuple(rows)


def _rep(degrees: tuple[int, ...], W: tuple[int, ...]) -> list[int]:
    """The degrees representable over W, in order: those that cut its stratum."""
    return [d for d in degrees if _repr_over(d, W)]


def _one_monomial(d: int, W: tuple[int, ...], coords: tuple[int, ...]) -> bool:
    """Has degree d exactly one monomial in coordinates of weights coords, whose
    distinct values are W (ascending)?

    Decided on the distinct values, the largest v first: the monomials are
    v^e times one of d - e*v over the rest.  Two coordinates of weight v give
    two monomials of every positive power, so then only e = 0 may leave a
    representable remainder; with one coordinate exactly one e may, and the
    question moves to that remainder over the rest."""
    while W:
        v, rest = W[-1], W[:-1]
        if coords.count(v) == 1:  # the least e leaving a remainder representable over the rest
            if rest:
                e = next((e for e in range(d // v + 1) if _repr_over(d - e * v, rest)), None)
            else:
                e = d // v if d % v == 0 else None
            if e is None:
                return False  # no monomial at all
            d -= e * v
        if d >= v and _repr_over(d - v, W):
            return False  # another e, or a positive power of a doubled v
        W = rest
    return d == 0


def _excess(degrees, W: tuple[int, ...], k: int, coords: tuple[int, ...]) -> int | None:
    """Dimension excess (k - 1) - #degrees representable over W of the maximal
    stratum with k coordinates of weights coords, or None when a general member
    misses it: too many degrees cut it, or one restricts to a single monomial."""
    rep = _rep(degrees, W)
    excess = (k - 1) - len(rep)
    if excess < 0 or any(_one_monomial(d, W, coords) for d in rep):
        return None
    return excess


# -- Q2 selection search --------------------------------------------------------
#
# Q2 asks, for the degrees left over after l pure ones, for sets S_j of exactly
# r = k - l outside coordinates (drawn from the availability set E_j) with
# |union over j in J of S_j| >= r + |J| - 1 for every nonempty J.  That holds
# iff the E_j themselves meet the bound (`_selection_exists`).
#
# Only the largest l, min(rho - 1, #rep), needs trying.  Moving one more
# representable degree from the leftover to the pure ones lowers r by one: the
# union bound of each remaining J drops by one and the J holding that degree
# are gone, so availability sets that pass the bound at l pass it at l + 1.


def _union_violation(r: int, masks, mults: tuple[int, ...]):
    """(J, available) for the first J, by size and then lex, whose union of
    availability masks holds fewer than r + |J| - 1 coordinates, or None.
    masks[j] is the bitmask of outside classes available to the j-th degree,
    mults the class multiplicities."""
    for size in range(1, len(masks) + 1):
        for J in combinations(range(len(masks)), size):
            union = 0
            for j in J:
                union |= masks[j]
            cap = sum(m for b, m in enumerate(mults) if union >> b & 1)
            if cap < r + len(J) - 1:
                return J, cap
    return None


@lru_cache(maxsize=100_000)
def _selection_exists(r: int, masks: tuple[int, ...], mults: tuple[int, ...]) -> bool:
    """Exact decision of the Q2 selection problem: the union bound on the full
    availability sets E_j, counted in coordinates, is necessary and sufficient.

    Sufficient, by shrinking the E_j to size r one coordinate at a time while
    the bound holds.  f(J) = |union over J of E_j| - |J| is submodular, so if
    J1 and J2 both contain j and are tight (f = r - 1), then f(J1 | J2) +
    f(J1 & J2) <= 2(r - 1) with both terms >= r - 1: the tight sets holding j
    are closed under intersection, and have a least one, T.  Let |E_j| > r.  A
    coordinate of E_j lying in some E_i, i in T - {j}, can be dropped: it
    stays covered in every tight set holding j, and only those can break.
    One exists: were E_j disjoint from the other E_i of T, f(T) would be
    |E_j| - 1 > r - 1 for T = {j}, else |E_j| - 1 + f(T - {j}) > r - 1.  With
    no tight set holding j, any coordinate can be dropped.  Repeat until every
    |E_j| = r (J = {j} gives |E_j| >= r), and take S_j = E_j.
    """
    return _union_violation(r, masks, mults) is None


# -- quasi-smoothness -----------------------------------------------------------


@dataclass(frozen=True)
class StratumCheck:
    """Outcome of the tangency conditions on one singular stratum class."""

    values: tuple[int, ...]
    k: int
    outcome: str  # "Q1" | "Q2" | "FAIL"
    witness: dict

    def as_dict(self) -> dict:
        return {
            "values": list(self.values),
            "k": self.k,
            "outcome": self.outcome,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class QsReport:
    verdict: bool
    strata: tuple[StratumCheck, ...]

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "strata": [s.as_dict() for s in self.strata]}


def _leftover(degrees: tuple[int, ...], taken) -> list[int]:
    """The degrees, in order, less one occurrence of each taken degree."""
    left = list(degrees)
    for d in taken:
        left.remove(d)
    return left


def _stratum_outcome(degrees, W, k, outside, mults, detailed: bool):
    """Classify one distinct-value stratum (k coordinates; outside classes of
    values outside and multiplicities mults) as Q1 / Q2 / FAIL."""
    rho = min(len(degrees), k)
    rep = _rep(degrees, W)
    if len(rep) >= rho:
        return "Q1", ({"degrees": rep[:rho]} if detailed else {})

    def avail_mask(d: int) -> int:
        """The outside classes v with d - v >= 0 representable over W."""
        mask = 0
        for b, v in enumerate(outside):
            if d >= v and _repr_over(d - v, W):
                mask |= 1 << b
        return mask

    mask_of = {d: avail_mask(d) for d in set(degrees)}
    l = min(rho - 1, len(rep))
    r = k - l
    # each multiset of l pure degrees once, the most of the largest first
    for pure in dict.fromkeys(combinations(rep, l)):
        leftover = _leftover(degrees, pure)
        if _selection_exists(r, tuple(sorted(mask_of[d] for d in leftover)), mults):
            if not detailed:
                return "Q2", {}
            witness = {
                "l": l,
                "pure_degrees": list(pure),
                "availability": [
                    {
                        "degree": d,
                        "classes": [v for b, v in enumerate(outside) if mask_of[d] >> b & 1],
                    }
                    for d in sorted(set(leftover), reverse=True)
                ],
            }
            return "Q2", witness
    if not detailed:
        return "FAIL", {}
    return "FAIL", _fail_diagnosis(rho, rep, r, _leftover(degrees, rep[:l]), mask_of, mults)


def _fail_diagnosis(rho, rep, r, leftover, mask_of, mults) -> dict:
    """Why the first pure choice of `_stratum_outcome`, the first l degrees of
    rep, fails with this leftover: a degree with no available class, else the
    first violated union bound."""
    diag = {"rho": rho, "representable": len(rep)}
    starved = [d for d in leftover if mask_of[d] == 0]
    if starved:
        diag["q2"] = {"reason": "no availability", "degree": max(starved), "r": r}
        return diag
    J, cap = _union_violation(r, [mask_of[d] for d in leftover], mults)
    diag["q2"] = {
        "reason": "union bound",
        "degrees": sorted((leftover[j] for j in J), reverse=True),
        "available": cap,
        "required": r + len(J) - 1,
    }
    return diag


def _qs_walk(degrees, weights: WeightClasses, detailed: bool):
    """(W, k, outcome, witness) per stratum in lex order, lazily.  The
    verdict-only form (detailed false) skips the strata with a unit weight,
    where every degree is representable and Q1 holds, and leaves the witnesses
    empty.  A linear cone raises at once."""
    if _is_cone(degrees, weights):
        raise DomainError("quasi-smoothness undefined for a linear cone")
    rows = _strata(weights) if degrees else ()
    return (
        (W, k) + _stratum_outcome(degrees, W, k, outside, mults, detailed)
        for W, k, _g, _coords, outside, mults in rows
        if detailed or W[0] != 1
    )


def quasi_smooth(family: WciFamily) -> QsReport:
    """Tangency criterion for the general member over every singular stratum
    class; verdict true iff no stratum fails.  Linear cones are rejected."""
    walk = _qs_walk(family.degrees, family.weights, detailed=True)
    strata = tuple(StratumCheck(*row) for row in walk)
    return QsReport(all(s.outcome != "FAIL" for s in strata), strata)


def is_quasi_smooth(family: WciFamily) -> bool:
    """Verdict-only fast path of quasi_smooth: stops at the first FAIL."""
    return all(row[2] != "FAIL" for row in _qs_walk(family.degrees, family.weights, False))


# -- the singular-stratum walk ----------------------------------------------------


def _singular_strata(degrees, weights: WeightClasses):
    """Rows (W, gcd, excess, condition (i) holds) per value subset W with gcd > 1,
    lex order; excess as in _excess, condition (i) that at least k degrees are
    divisible by the gcd."""
    for W, k, g, coords, _outside, _mults in _strata(weights):
        if g > 1:
            cond_i = sum(1 for d in degrees if d % g == 0) >= k
            yield W, g, _excess(degrees, W, k, coords), cond_i


def _well_formed(rows, dim: int) -> bool:
    """Well-formedness of a family of dimension dim from its `_singular_strata`
    rows: a general member meets no stratum with gcd > 1 in codimension < 2.
    The ambient space is not checked."""
    return not any(excess is not None and dim - excess < 2 for _W, _g, excess, _i in rows)


def _index(rows) -> int:
    """lcm of the gcds of the met strata that fail condition (i)."""
    return math.lcm(*(g for _W, g, excess, cond_i in rows if excess is not None and not cond_i))


def _smooth(rows) -> bool:
    return all(excess is None for _W, _g, excess, _cond_i in rows)


def wci_well_formed(family: WciFamily) -> bool:
    """True iff the general member misses every singular stratum in codimension
    at least 2; empty intersections pass vacuously."""
    if not space_well_formed(family.weights):
        raise DomainError("ambient space is not well formed")
    return _well_formed(_singular_strata(family.degrees, family.weights), family.dim)


def stratum_meets(family: WciFamily, value_subset) -> bool:
    """Does a general member meet the open stratum of these weight values?

    Degrees not representable over the values restrict to zero and impose no
    condition; representable degrees each cut the dimension by one, and a
    single-monomial restriction empties the intersection.
    """
    W = tuple(sorted(set(value_subset)))
    if not W:
        raise UsageError("value subset must be nonempty")
    for row_W, k, _g, coords, _outside, _mults in _strata(family.weights):
        if row_W == W:
            return _excess(family.degrees, W, k, coords) is not None
    unknown = min(set(W) - set(family.weights.values()))
    raise UsageError(f"value {unknown} is not a weight of this family")


# -- geometric gatekeeping ------------------------------------------------------


@dataclass(frozen=True)
class Geometry:
    """The predicates of one family, None where undefined: quasi-smoothness on a
    linear cone; smoothness, kind and index off the geometric case; kind in
    codimension 0."""

    linear_cone: bool
    space_well_formed: bool
    well_formed: bool
    quasi_smooth: bool | None
    smooth: bool | None
    kind: str | None  # "fano" | "calabi_yau" | "general"
    index: int | None

    @property
    def geometric(self) -> bool:
        return not self.linear_cone and self.well_formed and self.quasi_smooth is True


def _annotate(family: WciFamily, qs: bool | None) -> Geometry:
    """The record of a family from its quasi-smoothness verdict (None on a cone)."""
    cone = is_linear_cone(family)
    space_wf = family.nvars >= 2 and space_well_formed(family.weights)
    rows = list(_singular_strata(family.degrees, family.weights)) if space_wf else []
    wf = space_wf and _well_formed(rows, family.dim)
    if cone or not wf or not qs:
        return Geometry(cone, space_wf, wf, qs, None, None, None)
    kind = None
    if family.codim:
        delta = canonical_degree(family)
        kind = "fano" if delta < 0 else ("calabi_yau" if delta == 0 else "general")
    return Geometry(cone, space_wf, True, qs, _smooth(rows), kind, _index(rows))


@lru_cache(maxsize=65536)
def _geometry(family: WciFamily) -> Geometry:
    return _annotate(family, None if is_linear_cone(family) else is_quasi_smooth(family))


def _require_geometric(family: WciFamily, op: str) -> Geometry:
    geo = _geometry(family)
    if geo.linear_cone:
        raise DomainError(f"{op}: family is a linear cone")
    if not geo.space_well_formed:
        raise DomainError(f"{op}: ambient space is not well formed")
    if not geo.well_formed:
        raise DomainError(f"{op}: family is not well formed")
    if not geo.quasi_smooth:
        raise DomainError(f"{op}: family is not quasi-smooth")
    return geo


# -- index, classification, smoothness ------------------------------------------


@dataclass(frozen=True)
class IndexStratum:
    values: tuple[int, ...]
    gcd: int
    meets: bool
    condition_i_holds: bool

    def as_dict(self) -> dict:
        return {
            "values": list(self.values),
            "gcd": self.gcd,
            "meets": self.meets,
            "condition_i_holds": self.condition_i_holds,
        }


@dataclass(frozen=True)
class IndexReport:
    """Smallest h with O_X(h) Cartier, modeled as the lcm of stratum gcds over
    strata that meet a general member and fail the divisibility condition."""

    index: int
    contributors: tuple[IndexStratum, ...]

    def as_dict(self) -> dict:
        return {"index": self.index, "contributors": [s.as_dict() for s in self.contributors]}


def fundamental_index(family: WciFamily) -> IndexReport:
    """Cartier index of the hyperplane class on a general member."""
    _require_geometric(family, "fundamental_index")
    rows = list(_singular_strata(family.degrees, family.weights))
    contributors = tuple(
        IndexStratum(W, g, excess is not None, cond_i) for W, g, excess, cond_i in rows
    )
    return IndexReport(_index(rows), contributors)


def canonical_degree(family: WciFamily) -> int:
    """Degree of the canonical class: sum of degrees minus sum of weights."""
    return sum(family.degrees) - sum(family.weights.expand())


@dataclass(frozen=True)
class Classification:
    kind: str  # "fano" | "calabi_yau" | "general"
    delta: int
    fano_index: int | None

    def as_dict(self) -> dict:
        return {"kind": self.kind, "delta": self.delta, "fano_index": self.fano_index}


def classify(family: WciFamily) -> Classification:
    """Fano / Calabi-Yau / general type by the sign of the canonical degree."""
    if family.codim == 0:
        raise DomainError("classify: the ambient space itself is not classified")
    kind = _require_geometric(family, "classify").kind
    d = canonical_degree(family)
    return Classification(kind, d, -d if kind == "fano" else None)


def is_smooth(family: WciFamily) -> bool:
    """True iff a general member misses every singular stratum of the space."""
    return _require_geometric(family, "is_smooth").smooth


# -- base locus ------------------------------------------------------------------


@dataclass(frozen=True)
class BaseLocusComponent:
    values: tuple[int, ...]
    family: WciFamily

    def as_dict(self) -> dict:
        return {"values": list(self.values), "family": self.family.encode()}


def base_locus(family: WciFamily, ell: int) -> list[BaseLocusComponent]:
    """Components of the base locus of |O_X(ell)| on a general member.

    A stratum lies in the base locus iff no monomial of degree ell exists in
    its variables; reported are the inclusion-maximal value subsets among
    those whose stratum the general member actually meets, each with the
    induced intersection family on the stratum.  Empty list means the class
    is base-point free.
    """
    if not isinstance(ell, int) or ell < 1:
        raise UsageError(f"ell must be a positive integer, got {ell!r}")
    _require_geometric(family, "base_locus")
    return _base_locus(family, ell)


def _base_locus(family: WciFamily, ell: int) -> list[BaseLocusComponent]:
    """`base_locus` for a family already known to be geometric and ell >= 1."""
    hits = []
    for W, k, _g, coords, _outside, _mults in _strata(family.weights):
        if not _repr_over(ell, W) and _excess(family.degrees, W, k, coords) is not None:
            hits.append(W)
    components = []
    for W in hits:
        sw = set(W)
        if any(sw < set(W2) for W2 in hits):
            continue
        classes = WeightClasses(tuple((v, m) for v, m in family.weights.classes if v in sw))
        rep = _rep(family.degrees, W)
        components.append(BaseLocusComponent(W, WciFamily.of(rep, classes)))
    return components


def augment(family: WciFamily, ell: int) -> WciFamily:
    """Family of general degree-ell divisors inside the family's members."""
    if not isinstance(ell, int) or ell < 1:
        raise UsageError(f"ell must be a positive integer, got {ell!r}")
    return WciFamily.of(family.degrees + (ell,), family.weights)
