"""Acceptance gate: one test (and one pass/fail line) per release criterion.

Every criterion is exact — zero tolerance on values, zero counterexamples on
exhaustive runs — with a wall-clock budget asserted per criterion.  Run with
`pytest -v tests/test_acceptance.py` to get the one-line-per-criterion view.
"""

import math
import random
import time
from itertools import combinations_with_replacement

import oracles
from wcikit import hilbert, pairs, wci
from wcikit.arith import brauer_bound, frobenius
from wcikit.pairs import Pair
from wcikit.verify import (
    SearchBounds,
    verify_conjecture_regular,
    verify_hypersurface,
    verify_nonvanishing,
    verify_prop_regular,
)
from wcikit.wci import WciFamily


class Budget:
    """Asserts the body ran inside the criterion's wall-clock budget."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "FAIL" if exc_type else "PASS"
        print(f"{status} {self.name}: {elapsed:.2f}s (budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded budget: {elapsed:.2f}s >= {self.seconds}s"
            )
        return False


CURATED = (
    ((8, 8, 8), (5, 5, 5, 3, 3, 3, 3, 3, 2, 2, 2, 2)),
    ((8, 8, 8), (5, 5, 5, 3, 3, 3, 3, 2, 2, 2)),
    ((35,), (7, 5, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2)),
    ((35, 6), (7, 5, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2)),
    ((6,), (3, 2, 1)),
    ((6, 6), (3, 3, 2, 2, 1, 1)),
    ((231, 231, 26), (11, 11, 7, 7, 3, 3)),
    ((35, 30, 42), (21, 15, 14, 10)),
)


def test_criterion_1_worked_example_regression():
    with Budget("criterion 1a (quasi-smooth hypersurface triple)", 5.0):
        assert wci.is_quasi_smooth(WciFamily.parse("8,8,8/2^4,3^5,5^3")) is True
        assert wci.is_quasi_smooth(WciFamily.parse("8,8,8/2^3,3^4,5^3")) is False
    with Budget("criterion 1b (fundamental index and augmentation)", 5.0):
        x35 = WciFamily.parse("35/5,7,2^5,3^5")
        assert wci.fundamental_index(x35).index == 6
        assert wci.is_quasi_smooth(wci.augment(x35, 6)) is False
    with Budget("criterion 1c (base locus of the Fano 3-fold)", 5.0):
        x = WciFamily.parse("231,231,26/3^2,7^2,11^2,1^447")
        assert wci.wci_well_formed(x) is True
        assert wci.is_quasi_smooth(x) is True
        assert wci.is_smooth(x) is True
        assert wci.classify(x).kind == "fano"
        assert wci.canonical_degree(x) == -1
        components = wci.base_locus(x, 1)
        assert len(components) == 1
        assert components[0].values == (3, 7, 11)
        y = components[0].family
        assert y.encode() == "231,231,26/11^2,7^2,3^2"
        assert wci.is_quasi_smooth(y) is False


def test_criterion_2_frobenius_closed_form():
    with Budget("criterion 2 (two-generator closed form)", 10.0):
        for a in range(2, 61):
            for b in range(a + 1, 61):
                if math.gcd(a, b) == 1:
                    assert frobenius([a, b]) == a * b - a - b


def test_criterion_3_oracle_equivalence():
    with Budget("criterion 3 (naive all-subsets oracle agreement)", 60.0):
        rng = random.Random(1999)
        instances = list(CURATED)
        while len(instances) < 1000 + len(CURATED):
            n1 = rng.randint(2, 9)
            c = rng.randint(1, min(4, n1 - 1))
            ws = tuple(sorted((rng.randint(1, 12) for _ in range(n1)), reverse=True))
            ds = tuple(sorted((rng.randint(1, 40) for _ in range(c)), reverse=True))
            instances.append((ds, ws))
        for ds, ws in instances:
            family = WciFamily.of(ds, ws)
            if not wci.is_linear_cone(family):
                assert wci.is_quasi_smooth(family) == oracles.quasi_smooth(ds, ws)
            index = wci._index(wci._singular_strata(family.degrees, family.weights))
            assert index == oracles.fundamental_index(ds, ws)
            pair = Pair.of(ds, ws)
            for h in (1, 2, 6):
                assert pairs.is_h_regular(pair, h) == oracles.h_regular(ds, ws, h)


def test_criterion_4_split_and_cancel_lemmas():
    with Budget("criterion 4 (delta identity and closure lemmas)", 30.0):
        rng = random.Random(2025)
        for _ in range(10_000):
            q = rng.choice((2, 3, 5, 7))
            nd, nw = rng.randint(0, 4), rng.randint(0, 5)
            ds = tuple(rng.randint(1, 12) * rng.choice((1, q)) for _ in range(nd))
            ws = tuple(rng.randint(1, 9) * rng.choice((1, q)) for _ in range(nw))
            h = rng.randint(1, 10) * rng.choice((1, 1, q))
            pair = Pair.of(ds, ws)
            split = pairs.split_prime(pair, q)
            lhs = q * pairs.delta(pair)
            rhs = q * pairs.delta(split.top) + (q - 1) * pairs.delta(split.at_prime)
            assert lhs == rhs
            if pairs.is_regular(pair):
                assert pairs.is_regular(split.top)
                assert pairs.is_regular(split.at_prime)
            if pairs.is_h_regular(pair, h):
                assert pairs.is_h_regular(split.at_prime, h)
                top_h = h // q if h % q == 0 else h
                assert pairs.is_h_regular(split.top, top_h)
                assert pairs.is_h_regular(pairs.cancel(pair), h)


def test_criterion_5_exhaustive_claim_verification():
    with Budget("criterion 5a (regular pairs, codim <= 3)", 600.0):
        report = verify_prop_regular(
            SearchBounds(max_codim=3, max_vars=6, max_weight=12, max_degree=40)
        )
        assert report.counterexamples == ()
        assert report.equality_witnesses  # gcd-1 equality pairs do occur
        assert all(w["matches_form"] for w in report.equality_witnesses)
    with Budget("criterion 5b (amended bound, codim <= 2)", 600.0):
        report = verify_conjecture_regular(
            SearchBounds(max_codim=2, max_vars=5, max_weight=10, max_degree=40)
        )
        assert report.counterexamples == ()
    with Budget("criterion 5c (anticanonical nonvanishing)", 600.0):
        report = verify_nonvanishing(
            SearchBounds(max_codim=2, max_vars=6, max_weight=8, max_degree=24)
        )
        assert report.counterexamples == ()
        assert all(w["is_expected_form"] for w in report.equality_witnesses)
    with Budget("criterion 5d (hypersurface amplitude and base loci)", 600.0):
        report = verify_hypersurface(
            SearchBounds(max_codim=1, max_vars=5, max_weight=10, max_degree=60)
        )
        assert report.counterexamples == ()


def test_criterion_6_brauer_comparison():
    with Budget("criterion 6 (instantiated Brauer pair)", 1.0):
        pair = Pair.of((35, 30, 42), (10, 15, 14, 21))
        assert pairs.is_regular(pair) is True
        assert pairs.delta(pair) == 47
        assert brauer_bound([10, 15, 14, 21]) == 61
        value = frobenius([10, 14, 15, 21])
        assert value == oracles.frobenius((10, 14, 15, 21)) == 47  # frozen
        assert value <= 47 < 61


def test_criterion_7_section_count_oracle():
    with Budget("criterion 7 (inclusion-exclusion section counts)", 60.0):
        top_k = 60
        for nvars in range(2, 6):
            for ws in combinations_with_replacement(range(6, 0, -1), nvars):
                table = [oracles.monomial_count(k, ws) for k in range(top_k + 1)]
                max_c = min(2, nvars - 1)
                for c in range(1, max_c + 1):
                    for ds in combinations_with_replacement(range(18, 0, -1), c):
                        got = hilbert.series_coefficients(ds, ws, top_k)
                        total = sum(ds)
                        for k in range(top_k + 1):
                            want = table[k]
                            for j, d in enumerate(ds):
                                if d <= k:
                                    want -= table[k - d]
                            if c == 2 and total <= k:
                                want += table[k - total]
                            assert got[k] == want, (ds, ws, k)
    with Budget("criterion 7 (nonnegativity on corpus families)", 10.0):
        for ds, ws in CURATED:
            family = WciFamily.of(ds, ws)
            if wci.is_linear_cone(family) or not wci.wci_well_formed(family):
                continue
            if not wci.is_quasi_smooth(family):
                continue
            coeffs = hilbert.series_coefficients(ds, ws, 80)
            assert all(v >= 0 for v in coeffs)
