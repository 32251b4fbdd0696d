"""Claim verification runs, enumeration, and the instance ceiling."""

import dataclasses
import math
import os
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import oracles
from wcikit import hilbert, verify
from wcikit.errors import BoundsExceededError, CeilingExceededError, DomainError, UsageError
from wcikit.pairs import Pair, delta
from wcikit.verify import (
    CLAIMS,
    FamilyFilter,
    SearchBounds,
    enumerate_instances,
    instance_ceiling,
    verify_conjecture_regular,
    verify_hypersurface,
    verify_lemma_qdiv,
    verify_nonvanishing,
    verify_prop_regular,
)

SMALL = SearchBounds(max_codim=2, max_vars=4, max_weight=8, max_degree=16)


def test_claim_registry():
    assert set(CLAIMS) == {
        "conjecture-regular",
        "prop-regular",
        "lemma-qdiv",
        "nonvanishing",
        "hypersurface",
    }


def test_prop_regular_small_window():
    report = verify_prop_regular(SMALL)
    assert report.claim == "prop-regular"
    assert report.instances_checked == 621
    assert report.counterexamples == ()
    wits = {(w["pair"], w["s"]) for w in report.equality_witnesses}
    assert wits == {("6,1/3,2", 1), ("6,6/3^2,2^2", 2), ("6/3,2", 1)}
    assert all(w["matches_form"] for w in report.equality_witnesses)


def test_conjecture_regular_small_window():
    report = verify_conjecture_regular(
        SearchBounds(max_codim=2, max_vars=4, max_weight=8, max_degree=32)
    )
    assert report.instances_checked == 928
    assert report.counterexamples == ()
    assert report.equality_witnesses == ()


def test_qdiv_equality_witnesses_q3():
    report = verify_lemma_qdiv(
        SearchBounds(max_codim=2, max_vars=3, max_weight=9, max_degree=12), q=3
    )
    assert report.instances_checked == 22
    assert report.counterexamples == ()
    wits = {(w["pair"], w["c_equals_nvars"]) for w in report.equality_witnesses}
    assert wits == {("6,6/3^2", True), ("6/3", True)}


def test_qdiv_q2_flags_equality_outside_expected_shape():
    report = verify_lemma_qdiv(
        SearchBounds(max_codim=3, max_vars=4, max_weight=16, max_degree=32), q=2
    )
    assert report.instances_checked == 14165
    assert report.counterexamples == ()
    flagged = {w["pair"]: w["c_equals_nvars"] for w in report.equality_witnesses}
    assert flagged["12,2,2/6,4"] is False  # delta = cq with c != number of variables


def test_qdiv_requires_prime():
    bounds = SearchBounds(max_codim=1, max_vars=2, max_weight=4, max_degree=8)
    for q in (0, 1, 4, 6, -3):
        with pytest.raises(UsageError):
            verify_lemma_qdiv(bounds, q)


def test_nonvanishing_small_window():
    report = verify_nonvanishing(
        SearchBounds(max_codim=2, max_vars=4, max_weight=6, max_degree=12)
    )
    assert report.counterexamples == ()
    assert all(w["is_expected_form"] for w in report.equality_witnesses)


def test_hypersurface_small_window():
    report = verify_hypersurface(
        SearchBounds(max_codim=1, max_vars=4, max_weight=6, max_degree=18)
    )
    assert report.counterexamples == ()


# Tiny windows (codim <= 3, vars <= 4, weight <= 9, degree <= 16, plus the
# pinned 928 window) on which every regular-pair claim is walked naively; the
# last three reach six weights, so the prefix walk prunes deep subtrees.
REGULAR_GRID = [
    ("prop-regular", (2, 4, 8, 16), None),
    ("prop-regular", (3, 3, 6, 12), None),
    ("prop-regular", (3, 4, 6, 13), None),
    ("prop-regular", (1, 4, 9, 16), None),
    ("conjecture-regular", (2, 4, 8, 32), None),
    ("conjecture-regular", (2, 3, 7, 14), None),
    ("conjecture-regular", (3, 4, 9, 12), None),
    ("lemma-qdiv", (2, 3, 9, 12), 3),
    ("lemma-qdiv", (3, 4, 9, 16), 2),
    ("lemma-qdiv", (3, 4, 9, 16), 3),
    ("prop-regular", (2, 6, 6, 12), None),
    ("conjecture-regular", (2, 6, 7, 14), None),
    ("lemma-qdiv", (3, 6, 8, 12), 2),
]


@pytest.mark.parametrize(
    "claim, window, q",
    REGULAR_GRID,
    ids=[f"{claim}-{'-'.join(map(str, window))}-q{q}" for claim, window, q in REGULAR_GRID],
)
def test_regular_claims_match_naive_walk(claim, window, q):
    expected = oracles.verify_regular(claim, window, q)
    kwargs = {"q": q} if q else {}
    for workers in (1, 2):
        report = CLAIMS[claim](SearchBounds(*window), workers=workers, **kwargs)
        got = report.as_dict(include_elapsed=False)
        assert {key: got[key] for key in expected} == expected, workers


# Tiny windows on which the two family claims are walked naively; (0, 3, 3, 4)
# admits no codim-1 family, so the hypersurface claim checks nothing there.
FAMILY_GRID = [
    ("nonvanishing", (2, 4, 6, 12)),
    ("nonvanishing", (3, 5, 4, 8)),
    ("nonvanishing", (1, 4, 7, 14)),
    ("nonvanishing", (3, 5, 6, 12)),
    ("hypersurface", (1, 4, 6, 18)),
    ("hypersurface", (0, 3, 3, 4)),
    ("hypersurface", (1, 3, 9, 20)),
    ("hypersurface", (2, 4, 5, 12)),
    ("hypersurface", (1, 5, 6, 24)),
]


@pytest.mark.parametrize(
    "claim, window",
    FAMILY_GRID,
    ids=[f"{claim}-{'-'.join(map(str, window))}" for claim, window in FAMILY_GRID],
)
def test_family_claims_match_naive_walk(claim, window):
    expected = getattr(oracles, f"verify_{claim}")(window)
    for workers in (1, 2):
        report = CLAIMS[claim](SearchBounds(*window), workers=workers)
        got = report.as_dict(include_elapsed=False)
        assert {key: got[key] for key in expected} == expected, workers


# (claim, window, another window, the degree universe (max_codim, max_degree,
# divisor, max_weight) that both windows walk)
WARM_WINDOWS = [
    ("nonvanishing", (2, 5, 6, 16), (2, 4, 6, 16), (2, 16, 1, 6)),
    ("hypersurface", (1, 5, 8, 30), (1, 4, 8, 30), (1, 30, 1, 8)),
]


@pytest.mark.parametrize(
    "claim, window, other, universe_key", WARM_WINDOWS, ids=[w[0] for w in WARM_WINDOWS]
)
def test_family_claims_rerun_on_a_warm_ladder_memo(claim, window, other, universe_key):
    verify._degree_universe.cache_clear()
    cold = CLAIMS[claim](SearchBounds(*window), workers=1).canonical_json()
    CLAIMS[claim](SearchBounds(*other), workers=1)
    universe = verify._degree_universe(*universe_key)
    assert verify._degree_universe.cache_info().currsize == 1  # one universe for both
    filled = len(universe.ladders)
    assert filled > 0
    warm = CLAIMS[claim](SearchBounds(*window), workers=1).canonical_json()
    assert warm == cold
    assert len(universe.ladders) == filled  # every ladder the rerun asked for was kept


def test_hypersurface_checks_nothing_without_codim_one():
    window = SearchBounds(max_codim=0, max_vars=3, max_weight=3, max_degree=4)
    assert verify._estimate("hypersurface", window, None, instance_ceiling()) == 0
    for workers in (1, 2):
        report = verify_hypersurface(window, workers=workers)
        assert (report.instances_checked, report.counterexamples) == (0, ())


def test_conjecture_counterexamples_carry_the_frobenius_bound(monkeypatch):
    monkeypatch.setattr(verify, "_frobenius_cached", lambda weights: 10**6)
    report = verify_conjecture_regular(SearchBounds(2, 4, 8, 16), workers=1)
    assert report.instances_checked > 0
    assert len(report.counterexamples) == report.instances_checked
    for entry in report.counterexamples:
        assert set(entry) == {"pair", "delta", "frobenius"}
        assert entry["frobenius"] == 10**6
        assert entry["delta"] == delta(Pair.parse(entry["pair"]))


def test_hypersurface_part_b_covers_every_multiple_of_the_index(monkeypatch):
    # With every section count planted at 0, part (b) reports each multiple
    # h' <= max_degree of the index i with h' > max(delta, 0), and nothing else.
    monkeypatch.setattr(hilbert, "series_coefficients", lambda ds, ws, upto: [0] * (upto + 1))
    window = (1, 4, 6, 18)
    expected = []
    for ds, ws in oracles._canonical_families(window):
        if oracles._geometric(ds, ws):
            index = oracles.fundamental_index(ds, ws)
            floor = max(sum(ds) - sum(ws), 0)
            enc = oracles._encode_pair(ds, ws)
            expected += [(enc, h) for h in range(index, window[3] + 1, index) if h > floor]
    assert len(expected) > 100
    for workers in (1, 2):
        report = verify_hypersurface(SearchBounds(*window), workers=workers)
        got = [(e["family"], e["h_prime"]) for e in report.counterexamples if e["part"] == "b"]
        assert sorted(got) == sorted(expected), workers


def test_nonvanishing_counterexamples_carry_the_index(monkeypatch):
    # With every section count planted at 0, every checked family, and only
    # those, fails the nonvanishing check at its own fundamental index.
    monkeypatch.setattr(hilbert, "series_coefficients", lambda ds, ws, upto: [0] * (upto + 1))
    window = (2, 4, 6, 12)
    expected = [
        (oracles._encode_pair(ds, ws), oracles.fundamental_index(ds, ws))
        for ds, ws in oracles._canonical_families(window)
        if sum(ds) <= sum(ws) and oracles._geometric(ds, ws)
    ]
    assert len(expected) > 10
    for workers in (1, 2):
        report = verify_nonvanishing(SearchBounds(*window), workers=workers)
        got = [
            (e["family"], e["index"])
            for e in report.counterexamples
            if e["check"] == "nonvanishing"
        ]
        assert sorted(got) == sorted(expected), workers
        assert report.instances_checked == len(expected)


def test_reports_deterministic_across_worker_counts():
    one = verify_prop_regular(SMALL, workers=1)
    two = verify_prop_regular(SMALL, workers=2)
    assert one.canonical_json() == two.canonical_json()
    q_one = verify_lemma_qdiv(SMALL, q=2, workers=1)
    q_three = verify_lemma_qdiv(SMALL, q=2, workers=3)
    assert q_one.canonical_json() == q_three.canonical_json()


def test_workers_below_one_refused():
    for workers in (0, -1):
        with pytest.raises(UsageError, match="workers"):
            verify_prop_regular(SMALL, workers=workers)


def test_pool_never_outnumbers_partitions(monkeypatch):
    real_fork = os.fork
    forked = []

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    report = verify_prop_regular(SMALL, workers=10**6)
    assert len(forked) == 7  # one child per partition, weights 2..8
    assert report.instances_checked == 621


def _hook_partitions(monkeypatch, claim, hook):
    """Make every partition of claim call hook(first) before its real part."""
    spec = verify._CLAIM_SPECS[claim]

    def part(claim, bounds, q, first):
        hook(first)
        return spec.part(claim, bounds, q, first)

    monkeypatch.setitem(verify._CLAIM_SPECS, claim, dataclasses.replace(spec, part=part))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_run_reraises_typed_errors_and_reaps(monkeypatch):
    assert verify_prop_regular(SMALL, workers=2).instances_checked == 621
    _assert_no_child_left()
    # CeilingExceededError takes three arguments, so it has to pickle by them.
    for error in (DomainError("partition 5 is undefined"), CeilingExceededError("series order", 7, 5)):

        def fail(first, error=error):
            if first == 5:
                raise error

        _hook_partitions(monkeypatch, "prop-regular", fail)
        with pytest.raises(type(error)) as raised:
            verify_prop_regular(SMALL, workers=2)
        assert str(raised.value) == str(error)
        assert type(raised.value) is type(error)
        _assert_no_child_left()


def test_forked_run_raises_when_a_child_dies(monkeypatch):
    def crash(first):
        if first == 5:
            os._exit(3)

    _hook_partitions(monkeypatch, "prop-regular", crash)
    with pytest.raises(RuntimeError, match="status 3 and no result"):
        verify_prop_regular(SMALL, workers=2)
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_hypersurface_refuses_series_order_before_any_universe(monkeypatch, workers):
    def refuse(first):
        raise AssertionError(f"partition {first} ran")

    monkeypatch.setattr(hilbert, "_MAX_SERIES_ORDER", 50)
    _hook_partitions(monkeypatch, "hypersurface", refuse)
    verify._degree_universe.cache_clear()
    with pytest.raises(CeilingExceededError) as raised:
        verify_hypersurface(SearchBounds(1, 3, 4, 60), workers=workers)
    assert (raised.value.what, raised.value.value, raised.value.ceiling) == ("series order", 60, 50)
    assert verify._degree_universe.cache_info().misses == 0
    _assert_no_child_left()


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # so stdout, a pipe, is block-buffered
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(verify.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_forked_run_prints_buffered_output_once():
    # stdout is a pipe here, so "before" sits in the buffer when the children
    # fork; each partition flushes its own line.
    proc = _run_python(
        "import dataclasses, sys\n"
        "from wcikit import verify\n"
        "spec = verify._CLAIM_SPECS['prop-regular']\n"
        "def part(*args):\n"
        "    sys.stdout.write(f'part {args[-1]}\\n')\n"
        "    sys.stdout.flush()\n"
        "    return spec.part(*args)\n"
        "verify._CLAIM_SPECS['prop-regular'] = dataclasses.replace(spec, part=part)\n"
        "sys.stdout.write('before\\n')\n"
        "report = verify.verify_prop_regular(verify.SearchBounds(2, 4, 8, 16), workers=2)\n"
        "print('after', report.instances_checked)\n"
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "before" and lines[-1] == "after 621"
    assert sorted(lines[1:-1]) == sorted(f"part {first}" for first in range(2, 9))


def test_pooled_run_imports_no_executor():
    proc = _run_python(
        "import sys\n"
        "import wcikit.cli\n"
        "heavy = ('pickle', 'concurrent.futures', 'multiprocessing')\n"
        "print(*[name for name in heavy if name in sys.modules])\n"
        "from wcikit import verify\n"
        "verify.verify_prop_regular(verify.SearchBounds(2, 4, 8, 16), workers=2)\n"
        "print(*[name for name in heavy[1:] if name in sys.modules])\n"
    )
    assert proc.stdout.splitlines() == ["", ""]


def test_default_workers_is_available_parallelism(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert verify.default_workers() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert verify.default_workers() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify.default_workers() == 1


def test_workers_above_one_refused_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert verify.default_workers() == 1
    with pytest.raises(UsageError, match="os.fork"):
        verify_prop_regular(SMALL, workers=2)
    assert verify_prop_regular(SMALL, workers=1).instances_checked == 621


# Every weight tuple of these windows; the lemma-qdiv one walks the divisor-2
# universe.
MATCH_WINDOWS = [
    ("prop-regular", (3, 5, 8, 24), None),
    ("conjecture-regular", (2, 5, 10, 30), None),
    ("lemma-qdiv", (3, 6, 12, 30), 2),
]


@pytest.mark.parametrize("claim, window, q", MATCH_WINDOWS, ids=[w[0] for w in MATCH_WINDOWS])
def test_regular_mask_matches_naive_scan(claim, window, q):
    verify._match_cache.clear()  # build fresh requirement bitsets, not earlier tests'
    max_codim, max_vars, _, max_degree = window
    spec, values, universe_key = verify._domain(claim, SearchBounds(*window), q)
    universe = verify._degree_universe(*universe_key)
    entries = universe.entries
    degrees = range(q or 1, max_degree + 1, q or 1)
    every = [
        ds for c in range(1, max_codim + 1) for ds in combinations_with_replacement(degrees, c)
    ]
    assert sorted(map(sorted, entries)) == sorted(map(sorted, every))
    assert universe.sums == sorted(universe.sums) == [sum(ds) for ds in entries]
    def chosen(mask):
        return {entries[i] for i, bit in enumerate(format(mask, "b")[::-1]) if bit == "1"}

    tuples = [
        ws
        for first in values
        for ws in verify._tuples_with_first(first, values, spec.min_len, max_vars)
    ]
    walked = [
        (ws, mask)
        for first in values
        for ws, mask in verify._regular_tuples(universe_key, values, first, spec.min_len, max_vars)
    ]
    yielded = dict(walked)
    assert len(yielded) == len(walked)  # no tuple twice
    assert 10 < len(yielded) < len(tuples)  # some subtrees are pruned
    assert set(yielded) <= set(tuples)
    for ws in tuples:
        regular = {ds for ds in entries if oracles.h_regular(ds, ws, 1)}
        # a tuple left out has no regular multiset of codim <= max_codim
        assert chosen(yielded.get(ws, 0)) == regular, ws
    over = (2,) * (max_codim + 1)  # asks for more even degrees than any multiset has
    assert list(verify._regular_tuples(universe_key, [2], 2, len(over), len(over))) == []
    assert not any(oracles.h_regular(ds, over, 1) for ds in entries)

    max_weight = window[2]
    for v in range(max_weight + 1):
        assert chosen(universe.without[v]) == {ds for ds in entries if v not in ds}, v
    multiples = [{d for d in degrees if d % g == 0} for g in range(2, max_weight + 1)]
    for M in multiples + [{2, 3, 6, 10, 11}]:  # the last is no set of multiples
        ladder = verify._ladder(universe, sum(1 << d for d in M))
        assert len(ladder) == max_codim + 1
        for j, held in enumerate(ladder):
            assert chosen(held) == {ds for ds in entries if sum(d in M for d in ds) >= j}, (M, j)


def test_no_universe_built_before_the_pool_forks():
    verify._degree_universe.cache_clear()
    verify._match_cache.clear()
    report = verify_prop_regular(SearchBounds(2, 4, 6, 12), workers=2)
    assert report.instances_checked > 0
    assert verify._degree_universe.cache_info().currsize == 0
    assert verify._match_cache == {}


# Tiny windows whose raw product, tuples x multisets, exceeds the ceiling given.
ESTIMATE_WINDOWS = [
    ("prop-regular", (2, 3, 6, 10), None),
    ("conjecture-regular", (2, 4, 6, 12), None),
    ("lemma-qdiv", (3, 3, 8, 12), 2),
]


@pytest.mark.parametrize("claim, window, q", ESTIMATE_WINDOWS, ids=[w[0] for w in ESTIMATE_WINDOWS])
def test_estimate_refinement_counts_regular_multisets(claim, window, q):
    """Above the ceiling the estimate counts, per canonical weight tuple, the
    1-regular degree multisets, cones and codims over the claim's cap included."""
    max_codim, max_vars, max_weight, max_degree = window
    step = q or 1
    weight_values = [a for a in range(max(step, 2), max_weight + 1) if a % step == 0]
    min_len = 2 if claim == "conjecture-regular" else 1
    tuples = [
        ws
        for n in range(min_len, max_vars + 1)
        for ws in combinations_with_replacement(weight_values, n)
    ]
    degrees = range(step, max_degree + 1, step)
    multisets = [
        ds for c in range(1, max_codim + 1) for ds in combinations_with_replacement(degrees, c)
    ]
    expected = sum(oracles.h_regular(ds, ws, 1) for ws in tuples for ds in multisets)
    assert 0 < expected < len(tuples) * len(multisets)  # the raw product is not it
    assert verify._estimate(claim, SearchBounds(*window), q, 1) == expected


def test_estimate_refinement_counts_nonvanishing_multisets():
    """Above the ceiling the nonvanishing estimate counts, per canonical tuple
    of 2..max_vars weights, the degree multisets with codim <= min(max_codim,
    n - 1) and delta <= 0, cones and non-well-formed spaces included."""
    window = (3, 4, 5, 12)
    max_codim, max_vars, max_weight, max_degree = window
    tuples = [
        ws
        for n in range(2, max_vars + 1)
        for ws in combinations_with_replacement(range(max_weight, 0, -1), n)
    ]
    multisets = [
        ds
        for c in range(1, max_codim + 1)
        for ds in combinations_with_replacement(range(max_degree, 0, -1), c)
    ]
    expected = sum(
        len(ds) <= min(max_codim, len(ws) - 1) and sum(ds) <= sum(ws)
        for ws in tuples
        for ds in multisets
    )
    assert 0 < expected < len(tuples) * len(multisets)  # the raw product is not it
    assert verify._estimate("nonvanishing", SearchBounds(*window), None, 1) == expected


def test_report_serialization_shape():
    report = verify_prop_regular(SMALL)
    data = report.as_dict()
    assert data["bounds"]["max_weight"] == 8
    assert set(data["bounds"]["filters"]) == {
        "require_fano",
        "require_calabi_yau",
        "require_smooth",
        "require_quasi_smooth",
        "require_well_formed",
        "exclude_linear_cones",
        "gcd_one_weights",
    }
    assert data["elapsed_ms"] >= 0
    assert "elapsed_ms" not in report.as_dict(include_elapsed=False)


def test_verify_refuses_family_filters():
    # A window carries no filters, so no verify_* call can be handed one.
    with pytest.raises(TypeError):
        SearchBounds(2, 3, 4, 6, require_fano=True)


def test_ceiling_refuses_oversized_windows():
    huge = SearchBounds(max_codim=6, max_vars=12, max_weight=60, max_degree=120)
    with pytest.raises(BoundsExceededError) as exc:
        verify_prop_regular(huge)
    assert exc.value.estimate > exc.value.ceiling
    assert exc.value.ceiling == instance_ceiling()


def test_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("WCI_INSTANCE_CEILING", "10")
    assert instance_ceiling() == 10
    with pytest.raises(BoundsExceededError):
        verify_prop_regular(SMALL)
    monkeypatch.setenv("WCI_INSTANCE_CEILING", "junk")
    with pytest.raises(UsageError):
        instance_ceiling()
    monkeypatch.setenv("WCI_INSTANCE_CEILING", "0")
    with pytest.raises(UsageError):
        instance_ceiling()


def test_bounds_validation():
    with pytest.raises(UsageError):
        SearchBounds(max_codim=-1, max_vars=2, max_weight=2, max_degree=2)
    with pytest.raises(UsageError):
        SearchBounds(max_codim=1, max_vars=0, max_weight=2, max_degree=2)


def test_enumerate_families_spec_window():
    bounds = SearchBounds(max_codim=1, max_vars=3, max_weight=3, max_degree=6)
    keep = FamilyFilter(
        require_quasi_smooth=True,
        require_well_formed=True,
        exclude_linear_cones=True,
        require_fano=True,
        require_calabi_yau=True,
    )
    items = enumerate_instances(bounds, kind="families", keep=keep)
    encodings = [enc for enc, _ in items]
    assert encodings == ["2/1^2", "2/1^3", "3/1^3", "4/2,1^2", "6/3,2,1"]
    by_enc = dict(items)
    assert by_enc["6/3,2,1"]["kind"] == "calabi_yau"
    assert by_enc["2/1^3"]["kind"] == "fano"
    assert by_enc["6/3,2,1"]["smooth"] is True


def test_enumerate_pairs_trivial_window():
    items = enumerate_instances(
        SearchBounds(max_codim=0, max_vars=1, max_weight=2, max_degree=1), kind="pairs"
    )
    assert [enc for enc, _ in items] == ["/1", "/2"]
    by_enc = dict(items)
    assert by_enc["/1"]["regular"] is True and by_enc["/1"]["gcd_one"] is True
    assert by_enc["/2"]["regular"] is False and by_enc["/2"]["gcd_one"] is False


def test_enumerate_empty_window():
    bounds = SearchBounds(max_codim=2, max_vars=1, max_weight=3, max_degree=6)
    assert enumerate_instances(bounds, kind="families") == []


def test_enumerate_rejects_geometric_filters_for_pairs():
    bounds = SearchBounds(max_codim=1, max_vars=2, max_weight=2, max_degree=2)
    with pytest.raises(UsageError):
        enumerate_instances(bounds, kind="pairs", keep=FamilyFilter(require_smooth=True))
    with pytest.raises(UsageError):
        enumerate_instances(bounds, kind="junk")


def test_enumerate_sorted_and_duplicate_free():
    bounds = SearchBounds(max_codim=2, max_vars=3, max_weight=4, max_degree=6)
    encodings = [enc for enc, _ in enumerate_instances(bounds, kind="pairs")]
    assert encodings == sorted(encodings)
    assert len(encodings) == len(set(encodings))


def test_each_family_filter_keeps_its_annotation():
    bounds = SearchBounds(max_codim=2, max_vars=4, max_weight=5, max_degree=8)
    everything = enumerate_instances(bounds, kind="families")
    cases = {
        "require_fano": lambda ann: ann["kind"] == "fano",
        "require_calabi_yau": lambda ann: ann["kind"] == "calabi_yau",
        "require_smooth": lambda ann: ann["smooth"] is True,
        "require_quasi_smooth": lambda ann: ann["quasi_smooth"] is True,
        "require_well_formed": lambda ann: ann["well_formed"],
        "exclude_linear_cones": lambda ann: not ann["linear_cone"],
    }
    for name, wanted in cases.items():
        expected = [item for item in everything if wanted(item[1])]
        assert 0 < len(expected) < len(everything), name
        assert enumerate_instances(bounds, "families", FamilyFilter(**{name: True})) == expected
    both = FamilyFilter(require_fano=True, require_calabi_yau=True)
    expected = [item for item in everything if item[1]["kind"] in ("fano", "calabi_yau")]
    assert enumerate_instances(bounds, "families", both) == expected
    coprime = [item for item in everything if math.gcd(*Pair.parse(item[0]).weights) == 1]
    assert 0 < len(coprime) < len(everything)
    assert enumerate_instances(bounds, "families", FamilyFilter(gcd_one_weights=True)) == coprime


def test_pairs_gcd_one_filter_matches_annotation():
    bounds = SearchBounds(max_codim=2, max_vars=3, max_weight=6, max_degree=6)
    everything = enumerate_instances(bounds, kind="pairs")
    expected = [item for item in everything if item[1]["gcd_one"]]
    assert 0 < len(expected) < len(everything)
    assert enumerate_instances(bounds, "pairs", FamilyFilter(gcd_one_weights=True)) == expected


def test_enumerate_pairs_count_matches_closed_form():
    w, max_vars, d, max_c = 4, 3, 6, 2
    items = enumerate_instances(
        SearchBounds(max_codim=max_c, max_vars=max_vars, max_weight=w, max_degree=d),
        kind="pairs",
    )
    weight_tuples = sum(math.comb(w + k - 1, k) for k in range(1, max_vars + 1))
    degree_tuples = sum(math.comb(d + k - 1, k) for k in range(0, max_c + 1))
    assert len(items) == weight_tuples * degree_tuples


def test_enumerate_families_count_matches_closed_form():
    w, max_vars, d, max_c = 4, 4, 5, 2
    items = enumerate_instances(
        SearchBounds(max_codim=max_c, max_vars=max_vars, max_weight=w, max_degree=d)
    )
    expected = sum(
        math.comb(w + n - 1, n)
        * sum(math.comb(d + c - 1, c) for c in range(1, min(max_c, n - 1) + 1))
        for n in range(2, max_vars + 1)
    )
    assert len(items) == expected
