"""Degree/weight pair calculus: amplitude, h-regularity, cancellation, unit
stripping, and prime splits.

A pair is a multiset of degrees together with a multiset of weights, stored
sorted descending.  Pairs put no shape constraint on the two sides; the
geometric layer (wci) adds the codimension restriction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import ParseError, UsageError
from .arith import is_prime


def _canon(values, what: str) -> tuple[int, ...]:
    vals = tuple(sorted(values, reverse=True))
    for v in vals:
        if not isinstance(v, int) or v < 1:
            raise UsageError(f"{what} must be positive integers, got {v!r}")
    return vals


@dataclass(frozen=True)
class Pair:
    """A (degrees; weights) pair, both sides sorted descending."""

    degrees: tuple[int, ...]
    weights: tuple[int, ...]

    @classmethod
    def of(cls, degrees, weights) -> "Pair":
        return cls(_canon(degrees, "degrees"), _canon(weights, "weights"))

    @classmethod
    def parse(cls, text: str) -> "Pair":
        degrees, weights = parse_sides(text)
        return cls.of(degrees, weights)

    @property
    def codim(self) -> int:
        return len(self.degrees)

    def encode(self) -> str:
        return encode_pair(self)


# -- text codec ---------------------------------------------------------------
#
# Grammar:  degrees "/" weights, each side a comma list of entries, an entry
# being "v" or "v^m" (value with multiplicity).  Whitespace is insignificant;
# either side may be empty.  The canonical encoder writes degrees in full and
# weights run-length compressed, both descending.


def _parse_side(text: str, what: str) -> tuple[int, ...]:
    if text == "":
        return ()
    out: list[int] = []
    for entry in text.split(","):
        if not entry:
            raise ParseError(f"empty entry in {what}")
        value, sep, mult = entry.partition("^")
        try:
            v = int(value)
            m = int(mult) if sep else 1
        except ValueError:
            raise ParseError(f"bad entry {entry!r} in {what}") from None
        if v < 1 or m < 1:
            raise ParseError(f"entries must be positive, got {entry!r} in {what}")
        out.extend([v] * m)
    return tuple(out)


def parse_sides(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse 'd1,...,dc / a-spec' into (degrees, weights) tuples."""
    compact = "".join(text.split())
    if compact.count("/") != 1:
        raise ParseError(f"expected exactly one '/' in {text!r}")
    left, right = compact.split("/")
    return _parse_side(left, "degrees"), _parse_side(right, "weights")


def _encode_run_length(values: tuple[int, ...]) -> str:
    parts = []
    for v, m in sorted(Counter(values).items(), reverse=True):
        parts.append(f"{v}^{m}" if m > 1 else str(v))
    return ",".join(parts)


def encode_sides(degrees, weights_text: str) -> str:
    """The canonical text of descending degrees, written in full, and weights
    already run-length encoded (`_encode_run_length`)."""
    return ",".join(map(str, degrees)) + "/" + weights_text


def encode_pair(pair: Pair) -> str:
    """Canonical text form; round-trips with Pair.parse."""
    return encode_sides(pair.degrees, _encode_run_length(pair.weights))


# -- the calculus --------------------------------------------------------------


def delta(pair: Pair) -> int:
    """Amplitude of the pair: sum of degrees minus sum of weights."""
    return sum(pair.degrees) - sum(pair.weights)


@dataclass(frozen=True)
class RegularityCheck:
    """Outcome of an h-regularity check; witness is the lexicographically
    smallest failing weight-value subset (ascending), or None when regular."""

    ok: bool
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.ok


def check_h_regular(pair: Pair, h: int = 1) -> RegularityCheck:
    """Check h-regularity: every weight-index subset I with a_I = gcd > 1 must
    satisfy a_I | h or carry at least |I| degrees divisible by a_I.

    Only maximal index subsets per distinct-value subset are examined: a
    sub-multiset with the same value support has the same gcd and a smaller
    |I|, so the maximal subset is the binding case.  Weight-1 classes never
    constrain (any subset containing them has gcd 1).
    """
    if not isinstance(h, int) or h < 1:
        raise UsageError(f"h must be a positive integer, got {h!r}")
    mult = Counter(pair.weights)
    values = sorted(v for v in mult if v > 1)
    degrees = pair.degrees

    def scan(start: int, gcd_so_far: int, count_so_far: int, chosen: list[int]):
        for i in range(start, len(values)):
            v = values[i]
            g = math.gcd(gcd_so_far, v)
            if g == 1:
                continue  # every superset through v also has gcd 1
            chosen.append(v)
            k = count_so_far + mult[v]
            if h % g != 0 and sum(1 for d in degrees if d % g == 0) < k:
                return tuple(chosen)
            found = scan(i + 1, g, k, chosen)
            if found is not None:
                return found
            chosen.pop()
        return None

    witness = scan(0, 0, 0, [])
    return RegularityCheck(witness is None, witness)


def is_h_regular(pair: Pair, h: int = 1) -> bool:
    """Boolean form of check_h_regular."""
    return check_h_regular(pair, h).ok


def is_regular(pair: Pair) -> bool:
    """1-regularity: the unconditioned form of h-regularity."""
    return check_h_regular(pair, 1).ok


def cancel(pair: Pair) -> Pair:
    """Remove the maximal common multiset of degrees and weights."""
    shared = Counter(pair.degrees) & Counter(pair.weights)
    d = Counter(pair.degrees) - shared
    a = Counter(pair.weights) - shared
    return Pair.of(d.elements(), a.elements())


def strip_units(pair: Pair) -> tuple[Pair, int]:
    """Drop weight-1 entries; returns the stripped pair and how many dropped."""
    kept = tuple(a for a in pair.weights if a != 1)
    return Pair(pair.degrees, kept), len(pair.weights) - len(kept)


@dataclass(frozen=True)
class PairSplit:
    """Split of a pair at a prime q.

    `top` divides every q-divisible entry by q and keeps the rest; `at_prime`
    keeps only the q-divisible entries, undivided.  The amplitude identity
    q * delta(pair) = q * delta(top) + (q - 1) * delta(at_prime) holds exactly.
    """

    prime: int
    top: Pair
    at_prime: Pair


def split_prime(pair: Pair, q: int) -> PairSplit:
    """Split the pair at the prime q."""
    if not is_prime(q):
        raise UsageError(f"split requires a prime, got {q!r}")
    top_d = tuple(d // q if d % q == 0 else d for d in pair.degrees)
    top_a = tuple(a // q if a % q == 0 else a for a in pair.weights)
    at_d = tuple(d for d in pair.degrees if d % q == 0)
    at_a = tuple(a for a in pair.weights if a % q == 0)
    return PairSplit(q, Pair.of(top_d, top_a), Pair.of(at_d, at_a))
