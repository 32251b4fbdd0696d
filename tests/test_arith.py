"""Numerical semigroup primitives against brute-force oracles."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wcikit import arith
from wcikit.arith import (
    brauer_bound,
    brauer_bound_min,
    frobenius,
    is_prime,
    monomial_count,
    representable,
)
from wcikit.errors import CeilingExceededError, DomainError, UsageError


def test_is_prime_small():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)


@given(
    d=st.integers(min_value=0, max_value=60),
    weights=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
)
def test_representable_matches_oracle(d, weights):
    assert representable(d, weights) == oracles.representable(d, tuple(weights))


@given(
    d=st.integers(min_value=0, max_value=40),
    weights=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=5),
)
def test_monomial_count_matches_oracle(d, weights):
    assert monomial_count(d, weights) == oracles.monomial_count(d, tuple(weights))


def test_monomial_count_examples():
    assert monomial_count(8, [2, 2, 2, 2]) == 35  # compositions of 4 into 4 parts
    assert monomial_count(35, [2] * 5) == 0
    assert monomial_count(0, [3, 5]) == 1
    assert monomial_count(6, [1, 2, 3]) == 7


def test_monomial_count_refuses_targets_over_ceiling(capsys):
    from wcikit import cli

    assert monomial_count(arith._MAX_MONOMIAL_TARGET, [arith._MAX_MONOMIAL_TARGET]) == 1
    with pytest.raises(CeilingExceededError) as info:
        monomial_count(arith._MAX_MONOMIAL_TARGET + 1, [2])
    assert (info.value.what, info.value.ceiling) == ("monomial target", 10**6)
    # The geometry layer decides single monomials without counting them.
    assert cli.run(["check", "4000000/2^3,3,5"]) == 0
    assert "delta: 3999986" in capsys.readouterr().out
    assert cli.run(["check", "1000000000/2,3,5"]) == 0
    assert "delta: 999999990" in capsys.readouterr().out


def test_representable_prefix_and_gaps():
    hits = [k for k in range(16) if representable(k, [3, 5])]
    assert hits == [0, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15]
    assert [k for k in range(16) if k not in hits] == [1, 2, 4, 7]


def test_representable_matches_oracle_up_to_300():
    # gcd > 1 sets leave residues unreachable; a generator 1 reaches them all
    rng = random.Random(12)
    cases = [(6, 10), (4, 6, 8), (9, 12, 15), (1,), (1, 7), (2,), (7,), (6, 10, 15)]
    cases += [tuple(rng.randint(1, 40) for _ in range(rng.randint(1, 5))) for _ in range(60)]
    for weights in cases:
        for d in range(301):
            assert representable(d, weights) == oracles.representable(d, weights), (d, weights)


def test_representable_below_least_generator_needs_no_table():
    assert representable(5, [10**9]) is False
    assert representable(0, [10**9]) is True
    assert (10**9,) not in arith._membership_cache
    with pytest.raises(CeilingExceededError):
        representable(10**9 + 5, [10**9])


def test_frobenius_pairs_closed_form():
    assert frobenius([2, 3]) == 1
    assert frobenius([3, 5]) == 7
    assert frobenius([5, 8]) == 27
    pairs = [(a, b) for a in range(2, 40) for b in range(a + 1, 60) if math.gcd(a, b) == 1]
    pairs += [(97, 101), (1000, 1001), (2999, 3001), (3001, 3011)]
    for a, b in pairs:
        assert frobenius([a, b]) == a * b - a - b
        assert frobenius([b, a]) == a * b - a - b


def test_frobenius_classics():
    assert frobenius([6, 10, 15]) == 29
    assert frobenius([10, 14, 15, 21]) == 47
    assert frobenius([1, 7]) == -1


def test_frobenius_requires_gcd_one():
    with pytest.raises(DomainError):
        frobenius([6, 10])
    with pytest.raises(UsageError):
        frobenius([])


@settings(max_examples=150)
@given(
    gens=st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=5).filter(
        lambda g: math.gcd(*g) == 1
    )
)
def test_frobenius_matches_oracle(gens):
    assert frobenius(gens) == oracles.frobenius(gens)


def test_frobenius_refuses_least_generator_over_ceiling():
    with pytest.raises(CeilingExceededError) as info:
        frobenius([10**6 + 3, 10**6 + 33])
    assert isinstance(info.value, UsageError)
    assert info.value.ceiling == arith._MAX_APERY_MODULUS


def test_brauer_bound_order_sensitive():
    assert brauer_bound([10, 15, 14, 21]) == 61
    assert brauer_bound([2, 3]) == 1  # sharp for coprime pairs: ab - a - b
    assert brauer_bound_min([10, 15, 14, 21]) == 61
    with pytest.raises(UsageError):
        brauer_bound([])


@settings(max_examples=100)
@given(
    gens=st.lists(st.integers(min_value=2, max_value=24), min_size=2, max_size=4).filter(
        lambda g: math.gcd(*g) == 1
    )
)
def test_brauer_bound_dominates_frobenius(gens):
    f = frobenius(gens)
    assert brauer_bound(gens) >= f
    assert brauer_bound_min(gens) >= f
