"""Independent brute-force reference implementations used to validate the library.

Everything here works at the level of individual coordinates (index subsets of
{0..n}), with no value-class grouping and no search-space reductions, so that
agreement with the library exercises its maximal-subset reduction and its Q2
decision.  `_q2_subset` searches for an actual selection of coordinates, so it
is the twin of a closed-form check: the library decides Q2 by the union bound
on the availability sets alone (`wci._selection_exists`).
"""

import json
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm


# -- numerical semigroup ----------------------------------------------------------


@lru_cache(maxsize=None)
def representable(d: int, weights: tuple[int, ...]) -> bool:
    """Is d a nonnegative integer combination of the weights (plain recursion)?"""
    if d == 0:
        return True
    if d < 0 or not weights:
        return False
    head, rest = weights[0], weights[1:]
    t = d
    while t >= 0:
        if representable(t, rest):
            return True
        t -= head
    return False


@lru_cache(maxsize=None)
def monomial_count(d: int, weights: tuple[int, ...]) -> int:
    """Number of monomials of weighted degree d (plain recursion)."""
    if d == 0:
        return 1
    if d < 0 or not weights:
        return 0
    head, rest = weights[0], weights[1:]
    return sum(monomial_count(d - m * head, rest) for m in range(d // head + 1))


def frobenius(gens: list[int]) -> int:
    """Largest non-representable integer, by sieving until min(gens) hits in a row."""
    g = gcd(*gens) if len(gens) > 1 else gens[0]
    if g != 1:
        raise ValueError("generators must have gcd 1")
    if 1 in gens:
        return -1
    step = min(gens)
    limit = step * max(gens)  # safe restart ceiling; grown if the run is not found
    while True:
        reach = [False] * (limit + 1)
        reach[0] = True
        run, last_gap = 0, -1
        for i in range(1, limit + 1):
            if any(a <= i and reach[i - a] for a in gens):
                reach[i] = True
                run += 1
                if run == step:
                    return last_gap
            else:
                run, last_gap = 0, i
        limit *= 2


# -- pair regularity ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _subset_gcds(weights: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(gcd a_I, |I|) of every index subset I of the weights, repeats dropped."""
    n1 = len(weights)
    return tuple(
        dict.fromkeys(
            (gcd(*(weights[i] for i in idx)), k)
            for k in range(1, n1 + 1)
            for idx in combinations(range(n1), k)
        )
    )


def h_regular(degrees: tuple[int, ...], weights: tuple[int, ...], h: int) -> bool:
    """Every index subset I with gcd(a_i) > 1 divides h or |I| of the degrees."""
    for g, k in _subset_gcds(tuple(weights)):
        if g > 1 and h % g and sum(1 for d in degrees if d % g == 0) < k:
            return False
    return True


# -- quasi-smoothness over all index subsets ---------------------------------------


def _q2_subset(
    rest_avail: list[tuple[int, ...]], r: int, universe: tuple[int, ...]
) -> bool:
    """Can each remaining degree pick r distinct outside coordinates from its
    availability set so that every union over a sub-collection J has at least
    r + |J| - 1 coordinates?"""
    if any(len(av) < r for av in rest_avail):
        return False

    def extend(chosen: list[frozenset]) -> bool:
        t = len(chosen)
        if t == len(rest_avail):
            return True
        for pick in combinations(rest_avail[t], r):
            s = frozenset(pick)
            ok = True
            for size in range(1, t + 1):
                for js in combinations(range(t), size):
                    union = s.union(*(chosen[j] for j in js))
                    if len(union) < r + size:  # |J| = size + 1 including s
                        ok = False
                        break
                if not ok:
                    break
            if ok and extend(chosen + [s]):
                return True
        return False

    return extend([])


def quasi_smooth(degrees: tuple[int, ...], weights: tuple[int, ...]) -> bool:
    """Stratum-by-stratum smoothness test over every index subset of coordinates."""
    n1 = len(weights)
    c = len(degrees)
    if c == 0:
        return True
    for k in range(1, n1 + 1):
        for idx in combinations(range(n1), k):
            stratum = tuple(weights[i] for i in idx)
            rho = min(c, k)
            pure = [j for j in range(c) if representable(degrees[j], stratum)]
            if len(pure) >= rho:
                continue  # Q1
            outside = [e for e in range(n1) if e not in idx]
            found = False
            for l in range(min(len(pure), rho - 1) + 1):
                r = k - l
                for chosen_pure in combinations(pure, l):
                    rest = [j for j in range(c) if j not in chosen_pure]
                    avail = [
                        tuple(
                            e
                            for e in outside
                            if degrees[j] >= weights[e]
                            and representable(degrees[j] - weights[e], stratum)
                        )
                        for j in rest
                    ]
                    if _q2_subset(avail, r, tuple(outside)):
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
    return True


# -- well-formedness, strata, fundamental index ------------------------------------


def _stratum_excess(degrees, stratum: tuple[int, ...]) -> tuple[int, bool]:
    """(number of degrees representable on the stratum, any with a single monomial)."""
    repr_count = 0
    single = False
    for d in degrees:
        if representable(d, stratum):
            repr_count += 1
            if monomial_count(d, stratum) == 1:
                single = True
    return repr_count, single


def strata(ws: tuple[int, ...]) -> list[tuple]:
    """(W, k, gcd, coords, outside, mults) per distinct value set W, ascending
    and sorted, from every index subset: k is the size of the largest index
    subset whose weights take exactly the values W, coords those weights and
    outside / mults the values and counts of the other coordinates, all
    descending."""
    n1 = len(ws)
    largest: dict[tuple[int, ...], tuple[int, ...]] = {}
    for k in range(1, n1 + 1):
        for idx in combinations(range(n1), k):
            largest[tuple(sorted({ws[i] for i in idx}))] = idx  # k only grows
    rows = []
    for W, idx in sorted(largest.items()):
        coords = tuple(sorted((ws[i] for i in idx), reverse=True))
        rest = [ws[i] for i in range(n1) if i not in idx]
        outside = tuple(sorted(set(rest), reverse=True))
        mults = tuple(rest.count(v) for v in outside)
        rows.append((W, len(idx), gcd(*coords), coords, outside, mults))
    return rows


def stratum_meets(degrees, weights, idx: tuple[int, ...]) -> bool:
    """Does the coordinate stratum for idx intersect a general member?"""
    stratum = tuple(weights[i] for i in idx)
    repr_count, single = _stratum_excess(degrees, stratum)
    return (len(idx) - 1) - repr_count >= 0 and not single


def wci_well_formed(degrees: tuple[int, ...], weights: tuple[int, ...]) -> bool:
    """Every singular coordinate stratum misses X or meets it in codimension >= 2."""
    n1 = len(weights)
    dim_x = n1 - 1 - len(degrees)
    for k in range(1, n1 + 1):
        for idx in combinations(range(n1), k):
            g = gcd(*(weights[i] for i in idx))
            if g == 1:
                continue
            stratum = tuple(weights[i] for i in idx)
            repr_count, single = _stratum_excess(degrees, stratum)
            excess = (k - 1) - repr_count
            if excess < 0 or single:
                continue  # the stratum misses a general member
            if dim_x - excess < 2:
                return False
    return True


def fundamental_index(degrees: tuple[int, ...], weights: tuple[int, ...]) -> int:
    """lcm of the orders of singular strata meeting X where divisibility fails."""
    n1 = len(weights)
    out = 1
    for k in range(1, n1 + 1):
        for idx in combinations(range(n1), k):
            g = gcd(*(weights[i] for i in idx))
            if g == 1:
                continue
            if sum(1 for d in degrees if d % g == 0) >= k:
                continue
            if stratum_meets(degrees, weights, idx):
                out = lcm(out, g)
    return out


def is_smooth(degrees: tuple[int, ...], weights: tuple[int, ...]) -> bool:
    """Quasi-smooth and every singular stratum of the ambient space misses X."""
    if not quasi_smooth(degrees, weights):
        return False
    n1 = len(weights)
    for k in range(1, n1 + 1):
        for idx in combinations(range(n1), k):
            g = gcd(*(weights[i] for i in idx))
            if g > 1 and stratum_meets(degrees, weights, idx):
                return False
    return True


# -- Hilbert series -----------------------------------------------------------------


def h0(degrees: tuple[int, ...], weights: tuple[int, ...], k: int) -> int:
    """Coefficient of t^k in prod(1-t^d) / prod(1-t^a) by inclusion-exclusion."""
    total = 0
    for size in range(len(degrees) + 1):
        for sub in combinations(degrees, size):
            e = k - sum(sub)
            if e >= 0:
                total += (-1) ** size * monomial_count(e, tuple(weights))
    return total


# -- regular-pair claims -------------------------------------------------------------


def _run_length(weights: tuple[int, ...]) -> str:
    """'a^m,...': the weights run-length encoded, descending."""
    ws = sorted(weights, reverse=True)
    return ",".join(
        f"{a}^{ws.count(a)}" if ws.count(a) > 1 else str(a) for a in sorted(set(ws), reverse=True)
    )


def _encode_pair(degrees: tuple[int, ...], weights: tuple[int, ...]) -> str:
    """'d1,d2,.../a^m,...': degrees listed, weights run-length encoded, both descending."""
    return ",".join(map(str, sorted(degrees, reverse=True))) + "/" + _run_length(weights)


def verify_regular(claim: str, window: tuple[int, int, int, int], q: int | None = None) -> dict:
    """Naive walk of one regular-pair claim over every canonical pair in a window.

    window is (max_codim, max_vars, max_weight, max_degree).  A pair (ds; ws)
    is checked when no degree equals a weight (not a cone), it is 1-regular,
    and the claim's own rule holds:
      prop-regular: every weight > 1; bound c; gcd-one equality pairs must be
        (6^s,1^(c-s); 3^s,2^s).
      conjecture-regular: every weight > 1, gcd(ws) = 1 and c <= len(ws) - 1;
        bound frobenius(ws).
      lemma-qdiv: q divides every degree and weight; bound c*q; equality is
        recorded with whether c = len(ws).
    Returns {"checked", "counterexamples", "equality_witnesses"}, the lists
    sorted by (pair, JSON).
    """
    max_codim, max_vars, max_weight, max_degree = window
    checked, cex, wits = 0, [], []
    for n1 in range(1, max_vars + 1):
        for ws in combinations_with_replacement(range(max_weight, 0, -1), n1):
            if claim == "lemma-qdiv":
                if any(a % q for a in ws):
                    continue
            elif min(ws) == 1 or (claim == "conjecture-regular" and gcd(*ws) != 1):
                continue
            frob = frobenius(list(ws)) if claim == "conjecture-regular" else None
            for c in range(1, max_codim + 1):
                if claim == "conjecture-regular" and c > n1 - 1:
                    continue
                for ds in combinations_with_replacement(range(max_degree, 0, -1), c):
                    if claim == "lemma-qdiv" and any(d % q for d in ds):
                        continue
                    if set(ds) & set(ws) or not h_regular(ds, ws, 1):
                        continue
                    checked += 1
                    enc = _encode_pair(ds, ws)
                    delta = sum(ds) - sum(ws)
                    if claim == "prop-regular":
                        key, bound = "codim", c
                    elif claim == "lemma-qdiv":
                        key, bound = "bound", c * q
                    else:
                        key, bound = "frobenius", frob
                    if delta < bound:
                        cex.append({"pair": enc, "delta": delta, key: bound})
                    elif delta > bound:
                        continue
                    elif claim == "lemma-qdiv":
                        wits.append(
                            {"pair": enc, "codim": c, "nvars": n1, "c_equals_nvars": c == n1}
                        )
                    elif claim == "prop-regular" and gcd(*ws) == 1:
                        s = ds.count(6)
                        ok = ds == (6,) * s + (1,) * (c - s) and ws == (3,) * s + (2,) * s
                        wits.append({"pair": enc, "s": s if ok else None, "matches_form": ok})
                        if not ok:
                            cex.append(
                                {
                                    "pair": enc,
                                    "delta": c,
                                    "reason": "equality pair not of the form (6^s,1^(c-s); 2^s,3^s)",
                                }
                            )

    return _report(checked, cex, wits)


def _report(checked: int, cex: list, wits: list) -> dict:
    """The compared part of a report; entries sorted by (encoding, JSON)."""

    def order(entries):
        def key(e):
            enc = e.get("pair") or e.get("family") or e.get("weights")
            return (enc, json.dumps(e, sort_keys=True))

        return sorted(entries, key=key)

    return {"checked": checked, "counterexamples": order(cex), "equality_witnesses": order(wits)}


# -- family claims -------------------------------------------------------------------


def space_well_formed(weights: tuple[int, ...]) -> bool:
    """The gcd of any n of the n+1 weights is 1 (every one-coordinate drop)."""
    return all(gcd(*(weights[:i] + weights[i + 1:])) == 1 for i in range(len(weights)))


def _family_weights(max_vars: int, max_weight: int):
    """Every descending weight tuple with 2 <= length <= max_vars."""
    for n1 in range(2, max_vars + 1):
        yield from combinations_with_replacement(range(max_weight, 0, -1), n1)


def _canonical_families(window: tuple[int, int, int, int]):
    """(ds, ws) for every family of the window: 2 <= len(ws) <= max_vars,
    1 <= c <= min(max_codim, len(ws) - 1), both sides descending."""
    max_codim, max_vars, max_weight, max_degree = window
    for ws in _family_weights(max_vars, max_weight):
        for c in range(1, min(max_codim, len(ws) - 1) + 1):
            for ds in combinations_with_replacement(range(max_degree, 0, -1), c):
                yield ds, ws


def _geometric(ds: tuple[int, ...], ws: tuple[int, ...]) -> bool:
    """Not a linear cone, ambient and family well formed, quasi-smooth."""
    return (
        not set(ds) & set(ws)
        and space_well_formed(ws)
        and wci_well_formed(ds, ws)
        and quasi_smooth(ds, ws)
    )


def verify_nonvanishing(window: tuple[int, int, int, int]) -> dict:
    """Naive walk of the nonvanishing claim over every canonical family in a window.

    A family is checked when it is geometric (see _geometric) with delta <= 0.
    Its fundamental system must have a section; a smooth one must also have
    c1 >= c units among its weights, c1 = c only for (6^c; 3^c,2^c,1^c) (a
    witness either way), and c1 > the Fano index -delta.
    """
    checked, cex, wits = 0, [], []
    for ds, ws in _canonical_families(window):
        delta = sum(ds) - sum(ws)
        if delta > 0 or not _geometric(ds, ws):
            continue
        checked += 1
        enc, c = _encode_pair(ds, ws), len(ds)
        index = fundamental_index(ds, ws)
        if h0(ds, ws, index) < 1:
            cex.append({"family": enc, "check": "nonvanishing", "index": index, "h0": 0})
        if not is_smooth(ds, ws):
            continue
        c1 = ws.count(1)
        if c1 < c:
            cex.append({"family": enc, "check": "c1_ge_c", "c1": c1, "codim": c})
        elif c1 == c:
            ok = ds == (6,) * c and ws == (3,) * c + (2,) * c + (1,) * c
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
            cex.append({"family": enc, "check": "c1_gt_index", "c1": c1, "fano_index": -delta})
    return _report(checked, cex, wits)


def base_locus(ds: tuple[int, ...], ws: tuple[int, ...], ell: int) -> list[tuple[int, ...]]:
    """Inclusion-maximal value subsets W (ascending, in lex order) whose stratum
    a general member meets and on which no monomial has degree ell."""
    values = sorted(set(ws))
    hits = []
    for k in range(1, len(values) + 1):
        for W in combinations(values, k):
            idx = tuple(i for i, a in enumerate(ws) if a in W)
            if not representable(ell, W) and stratum_meets(ds, ws, idx):
                hits.append(W)
    return sorted(W for W in hits if not any(set(W) < set(V) for V in hits))


def verify_hypersurface(window: tuple[int, int, int, int]) -> dict:
    """Naive walk of the hypersurface claim over every canonical family in a window.

    No codim-1 family fits a window with max_codim 0, so nothing is checked.
    (a) For weights where no weight divides the lcm of the pairwise gcds, one
    instance: lcm(ws) - sum(ws) >= lcm(a_s, a_t) - a_s - a_t for every pair of
    positions.  (b) For each geometric hypersurface (f; ws) with f <= max_degree:
    h0(h') >= 1 at every multiple h' <= max_degree of the index i with
    h' > max(delta, 0); (c) when i divides delta, |O(delta + m*i)| is
    base-point free for n <= m <= n + 2 wherever delta + m*i >= 1.
    """
    max_codim, max_vars, max_weight, max_degree = window
    checked, cex = 0, []
    if max_codim < 1:
        return _report(checked, cex, [])
    for ws in _family_weights(max_vars, max_weight):
        pair_gcds = [gcd(x, y) for x, y in combinations(ws, 2)]
        if all(lcm(*pair_gcds) % a for a in ws):
            checked += 1
            lhs = lcm(*ws) - sum(ws)
            for a_s, a_t in combinations(ws, 2):
                rhs = lcm(a_s, a_t) - a_s - a_t
                if lhs < rhs:
                    cex.append(
                        {
                            "part": "a",
                            "weights": _run_length(ws),
                            "s": a_s,
                            "t": a_t,
                            "lhs": lhs,
                            "rhs": rhs,
                        }
                    )
        for f in range(1, max_degree + 1):
            if not _geometric((f,), ws):
                continue
            checked += 1
            enc = _encode_pair((f,), ws)
            delta = f - sum(ws)
            index = fundamental_index((f,), ws)
            for h_prime in range(1, max_degree + 1):
                if h_prime % index == 0 and h_prime > max(delta, 0) and h0((f,), ws, h_prime) < 1:
                    cex.append({"part": "b", "family": enc, "h_prime": h_prime, "h0": 0})
            if delta % index:
                continue
            n = len(ws) - 1
            for m in range(n, n + 3):
                ell = delta + m * index
                components = base_locus((f,), ws, ell) if ell >= 1 else []
                if components:
                    cex.append(
                        {
                            "part": "c",
                            "family": enc,
                            "ell": ell,
                            "m": m,
                            "components": [list(W) for W in components],
                        }
                    )
    return _report(checked, cex, [])
