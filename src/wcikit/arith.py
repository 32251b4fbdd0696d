"""Numerical semigroup arithmetic: representability, Frobenius numbers, Brauer
bounds, and weighted monomial counts.

Everything here is exact integer arithmetic.  Membership and Frobenius numbers
come from the Apery set modulo the least generator a (Nijenhuis 1979): t is
representable iff t >= ap[t mod a], and the Frobenius number is max(ap) - a.
One table per distinct generator set is cached, because the geometric layer
asks the same representability questions for many families.  Monomial counts
are dense lists indexed by target value.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

from .errors import CeilingExceededError, DomainError, UsageError

# Apery tables hold one entry per residue of the least generator, a monomial
# count one entry per degree up to its target, and trial division tries up to
# sqrt(n) / 2 odd factors (about 70 ms at 10^12, Python 3.11 on one core).
_MAX_APERY_MODULUS = 10**6
_MAX_MONOMIAL_TARGET = 10**6
_MAX_PRIME_CANDIDATE = 10**12


def _check_positive(values, what: str) -> tuple[int, ...]:
    vals = tuple(values)
    if not vals:
        raise UsageError(f"{what} must be nonempty")
    for v in vals:
        if not isinstance(v, int) or v < 1:
            raise UsageError(f"{what} must be positive integers, got {v!r}")
    return vals


def is_prime(n: int) -> bool:
    """Trial-division primality test, for n up to 10^12."""
    if n > _MAX_PRIME_CANDIDATE:
        raise CeilingExceededError("prime candidate", n, _MAX_PRIME_CANDIDATE)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# -- Apery tables -------------------------------------------------------------

# Keys are sorted distinct generator tuples; values are Apery tables modulo the
# least generator a: ap[r] is the least representable t with t = r (mod a), or
# None when no representable t has that residue (the generators share a
# factor).  A table costs O(k * a) to build, independent of the targets asked.
_membership_cache: dict[tuple[int, ...], list[int | None]] = {}


def _apery(generators) -> list[int | None]:
    """The cached Apery table of the generators modulo the least one.

    Built by round-robin shortest paths (Boecker-Liptak 2007): each further
    generator b closes the residues into gcd(a, b) cycles of r -> r + b mod a,
    and one walk around a cycle, started at its least entry, relaxes it.
    """
    key = tuple(sorted(set(generators)))
    table = _membership_cache.get(key)
    if table is not None:
        return table
    a = key[0]
    if a > _MAX_APERY_MODULUS:
        raise CeilingExceededError("least generator", a, _MAX_APERY_MODULUS)
    table = [None] * a
    table[0] = 0
    for b in key[1:]:
        d = math.gcd(a, b)
        step = b % a
        for p in range(d):
            least = r = None
            for q in range(p, a, d):
                known = table[q]
                if known is not None and (least is None or known < least):
                    least, r = known, q
            if least is None:
                continue  # this residue class is out of reach
            for _ in range(a // d - 1):
                r += step
                if r >= a:
                    r -= a
                least += b
                known = table[r]
                if known is not None and known < least:
                    least = known
                else:
                    table[r] = least
    _membership_cache[key] = table
    return table


def representable(target: int, generators) -> bool:
    """True iff target is a nonnegative integer combination of the generators."""
    gens = _check_positive(generators, "generators")
    if not isinstance(target, int) or target < 0:
        raise UsageError(f"target must be a nonnegative integer, got {target!r}")
    if target < min(gens):
        return target == 0
    return _repr_over(target, tuple(sorted(set(gens))))


def _repr_over(t: int, values: tuple[int, ...]) -> bool:
    """Representability of t >= 0 over an ascending distinct-value tuple."""
    table = _membership_cache.get(values) or _apery(values)
    least = table[t % len(table)]
    return least is not None and t >= least


def monomial_count(target: int, weights) -> int:
    """Number of monomials of weighted degree `target` in one variable per
    weight entry, i.e. the coefficient of x^target in prod 1/(1 - x^w_i).

    Repeated weights are distinct variables.  Negative targets give 0.
    """
    ws = _check_positive(weights, "weights")
    if target < 0:
        return 0
    if target > _MAX_MONOMIAL_TARGET:
        raise CeilingExceededError("monomial target", target, _MAX_MONOMIAL_TARGET)
    counts = [0] * (target + 1)
    counts[0] = 1
    for w in ws:
        for t in range(w, target + 1):
            counts[t] += counts[t - w]
    return counts[target]


def brauer_bound(generators) -> int:
    """Order-sensitive bound: every integer above it is representable.

    With g_j = gcd(a_0..a_j) this is sum_{j>=1} a_j * g_{j-1}/g_j - sum a_i;
    it depends on the ordering of the generators as given.
    """
    gens = _check_positive(generators, "generators")
    if reduce(math.gcd, gens) != 1:
        raise DomainError("Brauer bound requires generators with gcd 1")
    g = gens[0]
    total = 0
    for a in gens[1:]:
        g_next = math.gcd(g, a)
        total += a * (g // g_next)
        g = g_next
    return total - sum(gens)


def brauer_bound_min(generators) -> int:
    """Minimum Brauer bound over all orderings; exhaustive for <= 8 entries."""
    gens = _check_positive(generators, "generators")
    if len(gens) > 8:
        raise UsageError("brauer_bound_min is exhaustive only up to 8 entries")
    if reduce(math.gcd, gens) != 1:
        raise DomainError("Brauer bound requires generators with gcd 1")
    return min(brauer_bound(p) for p in set(itertools.permutations(gens)))


def frobenius(generators) -> int:
    """Largest integer not representable by the generators; -1 if none.

    Undefined (DomainError) when the generators have a common factor.
    """
    gens = _check_positive(generators, "generators")
    if reduce(math.gcd, gens) != 1:
        raise DomainError("Frobenius number undefined: generators share a factor")
    table = _apery(gens)
    return max(table) - len(table)
