"""Geometry layer: well-formedness, quasi-smoothness, index, classification, base loci."""

import math
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wcikit import verify, wci
from wcikit.cli import check_report
from wcikit.errors import CeilingExceededError, DomainError, UsageError
from wcikit.hilbert import h0, series_coefficients as hilbert_series
from wcikit.pairs import is_h_regular
from wcikit.verify import FamilyFilter, SearchBounds, enumerate_instances
from wcikit.wci import (
    WciFamily,
    WeightClasses,
    _index,
    _repr_over,
    _selection_exists,
    _singular_strata,
    _strata,
    augment,
    base_locus,
    canonical_degree,
    classify,
    fundamental_index,
    is_linear_cone,
    is_quasi_smooth,
    is_smooth,
    quasi_smooth,
    space_well_formed,
    stratum_meets,
    wci_well_formed,
)

X888_GOOD = WciFamily.parse("8,8,8 / 2^4,3^5,5^3")
X888_BAD = WciFamily.parse("8,8,8 / 2^3,3^4,5^3")
X35 = WciFamily.parse("35 / 5,7,2^5,3^5")
X231 = WciFamily.parse("231,231,26 / 3^2,7^2,11^2,1^447")
X6 = WciFamily.parse("6 / 1,2,3")
X66 = WciFamily.parse("6,6 / 1^2,2^2,3^2")


# -- construction and codec ---------------------------------------------------------


def test_weight_classes_round_trip():
    wc = WeightClasses.from_weights([3, 2, 2, 1, 3])
    assert wc.classes == ((3, 2), (2, 2), (1, 1))
    assert wc.expand() == (3, 3, 2, 2, 1)
    assert wc.total == 5
    assert wc.multiplicity(2) == 2
    assert wc.multiplicity(7) == 0


def test_family_encode_round_trip():
    assert X231.encode() == "231,231,26/11^2,7^2,3^2,1^447"
    assert WciFamily.parse(X231.encode()) == X231
    assert X66.codim == 2
    assert X66.nvars == 6
    assert X66.dim == 3


def test_family_codim_bound():
    with pytest.raises(UsageError):
        WciFamily.of((2, 2, 2), (1, 1, 1))
    WciFamily.of((), (1, 1))  # ambient space itself is fine


# -- ambient space ------------------------------------------------------------------


def test_space_well_formed_examples():
    assert space_well_formed([1, 1, 1])
    assert not space_well_formed([1, 2, 2])
    assert space_well_formed([3, 3, 7, 7, 11, 11] + [1] * 447)
    with pytest.raises(UsageError):
        space_well_formed([5])


def test_linear_cone_examples():
    assert is_linear_cone(WciFamily.parse("2/2,1^2"))
    assert not is_linear_cone(X6)
    assert not is_linear_cone(X231)


# -- quasi-smoothness ---------------------------------------------------------------


def test_quasi_smooth_known_examples():
    assert is_quasi_smooth(X888_GOOD)
    assert not is_quasi_smooth(X888_BAD)
    assert is_quasi_smooth(X35)
    assert not is_quasi_smooth(augment(X35, 6))
    assert is_quasi_smooth(X6)
    assert is_quasi_smooth(X66)
    assert is_quasi_smooth(X231)


def test_quasi_smooth_report_structure():
    report = quasi_smooth(X888_BAD)
    assert not report.verdict
    fails = [s for s in report.strata if s.outcome == "FAIL"]
    assert fails and fails[0].values == (5,)
    assert all(s.outcome in ("Q1", "Q2", "FAIL") for s in report.strata)
    report = quasi_smooth(X888_GOOD)
    assert report.verdict
    assert not any(s.outcome == "FAIL" for s in report.strata)


def test_quasi_smooth_rejects_cones():
    with pytest.raises(DomainError):
        quasi_smooth(WciFamily.parse("2/2,1^2"))


def test_quasi_smooth_ambient_trivial():
    assert is_quasi_smooth(WciFamily.of((), (1, 2, 3)))


def test_verdict_walk_skips_unit_strata(monkeypatch):
    asked = []
    outcome = wci._stratum_outcome

    def spy(degrees, W, *rest):
        asked.append(W)
        return outcome(degrees, W, *rest)

    monkeypatch.setattr(wci, "_stratum_outcome", spy)
    assert is_quasi_smooth(X231)
    assert asked == [W for W, *_row in _strata(X231.weights) if 1 not in W]
    asked.clear()
    assert quasi_smooth(X231).verdict
    assert asked == [W for W, *_row in _strata(X231.weights)]


# -- well-formedness of the family ---------------------------------------------------


def test_wci_well_formed_examples():
    assert wci_well_formed(X66)
    assert wci_well_formed(WciFamily.parse("231,231,26 / 3^2,7^2,11^2"))
    with pytest.raises(DomainError):
        wci_well_formed(WciFamily.parse("6/1,2,2"))


# -- stratum analysis ----------------------------------------------------------------


def test_stratum_meets_examples():
    assert stratum_meets(X35, {2})
    assert not stratum_meets(X66, {3})
    assert stratum_meets(X66, {1, 2, 3})
    with pytest.raises(UsageError):
        stratum_meets(X66, {4})
    with pytest.raises(UsageError):
        stratum_meets(X66, set())


# -- fundamental index ----------------------------------------------------------------


def test_fundamental_index_examples():
    report = fundamental_index(X35)
    assert report.index == 6
    contributing = {s.values: s for s in report.contributors}
    assert contributing[(2,)].meets and not contributing[(2,)].condition_i_holds
    assert fundamental_index(X66).index == 1
    assert fundamental_index(X231).index == 1
    assert fundamental_index(X6).index == 1
    # the {4,6} stratum meets this (not quasi-smooth) family, but 2 | both degrees
    family = WciFamily.parse("12,2/6,4,1^3")
    assert _index(_singular_strata(family.degrees, family.weights)) == 1


def test_fundamental_index_gate():
    with pytest.raises(DomainError):
        fundamental_index(WciFamily.parse("2/2,1^2"))  # linear cone
    with pytest.raises(DomainError):
        fundamental_index(X888_BAD)  # not quasi-smooth


# -- classification -------------------------------------------------------------------


def test_classify_examples():
    assert canonical_degree(X66) == 0
    assert classify(X66).kind == "calabi_yau"
    c = classify(X231)
    assert (c.kind, c.fano_index) == ("fano", 1)
    m = 2
    fuji = WciFamily.of(((2 * m + 1) * (2 * m + 2),), (1,) * (1 + 2 * m * (2 * m + 1)) + (2 * m + 1, 2 * m + 2))
    assert classify(fuji) == classify(fuji)
    assert classify(fuji).kind == "fano" and classify(fuji).fano_index == 2
    assert classify(WciFamily.parse("8/3,2,1^2")).kind == "general"
    with pytest.raises(DomainError):
        classify(WciFamily.parse("7/1,2,3"))  # the {3} stratum point sits on X in codim 1


def test_classify_rejects_ambient():
    with pytest.raises(DomainError):
        classify(WciFamily.of((), (1, 2, 3)))


# -- smoothness ------------------------------------------------------------------------


def test_is_smooth_examples():
    assert is_smooth(X231)
    assert not is_smooth(X35)
    assert is_smooth(X6)  # both singular points of P(1,2,3) miss a general member
    assert is_smooth(X66)
    assert not is_smooth(X888_GOOD)


# -- base locus ------------------------------------------------------------------------


def test_base_locus_curve_example():
    comps = base_locus(X231, 1)
    assert len(comps) == 1
    comp = comps[0]
    assert comp.values == (3, 7, 11)
    assert comp.family.encode() == "231,231,26/11^2,7^2,3^2"
    assert not is_quasi_smooth(comp.family)


def test_base_locus_free_cases():
    assert base_locus(X6, 6) == []
    assert base_locus(X6, 2) == []
    assert base_locus(X66, 6) == []


def test_base_locus_x66_degree_one():
    # only the two weight-1 sections exist, so |O(1)| cuts the curve on P(2^2,3^2)
    comps = base_locus(X66, 1)
    assert [c.family.encode() for c in comps] == ["6,6/3^2,2^2"]


def test_base_locus_usage():
    with pytest.raises(UsageError):
        base_locus(X6, 0)
    with pytest.raises(UsageError):
        base_locus(X6, -3)


def test_base_locus_components_maximal():
    comps = base_locus(X35, 1)
    value_sets = [set(c.values) for c in comps]
    for a in value_sets:
        assert not any(a < b for b in value_sets)


# -- augment ---------------------------------------------------------------------------


def test_augment_examples():
    assert augment(X35, 6) == WciFamily.parse("35,6/5,7,2^5,3^5")
    assert augment(WciFamily.of((), (1, 2, 3)), 6) == X6
    cone = augment(X66, 1)
    assert is_linear_cone(cone)
    with pytest.raises(UsageError):
        augment(X6, 0)


# -- structural invariants over a small exhaustive universe -----------------------------------


def _geometric_universe():
    bounds = SearchBounds(max_codim=2, max_vars=4, max_weight=6, max_degree=15)
    keep = FamilyFilter(
        require_quasi_smooth=True, require_well_formed=True, exclude_linear_cones=True
    )
    return [WciFamily.parse(enc) for enc, _ in enumerate_instances(bounds, "families", keep)]


def test_invariants_on_small_universe():
    families = _geometric_universe()
    assert len(families) > 100
    for fam in families:
        ix = fundamental_index(fam).index
        # smooth families: every singular class divides enough degrees, index 1
        if is_smooth(fam):
            assert ix == 1
            for (g, k) in ((v, m) for v, m in fam.weights.classes if v > 1):
                assert sum(1 for d in fam.degrees if d % g == 0) >= k
        # weight value dividing no degree forces its divisibility into the index
        for v, _m in fam.weights.classes:
            if v > 1 and all(d % v != 0 for d in fam.degrees):
                assert ix % v == 0
        # the underlying pair is regular at level h = index
        assert is_h_regular(fam.pair(), ix)
        # base-point-free fundamental class has sections
        if base_locus(fam, ix) == []:
            assert h0(fam, ix) >= 1


def test_enumerate_annotations_match_check_report():
    bounds = SearchBounds(max_codim=2, max_vars=4, max_weight=5, max_degree=8)
    items = enumerate_instances(bounds, kind="families")
    seen = set()
    for enc, ann in items:
        family = WciFamily.parse(enc)
        report = check_report(family)
        assert report["family"] == enc
        assert ann == {
            "codim": family.codim,
            "delta": report["delta"],
            "linear_cone": report["linear_cone"],
            "well_formed": report["well_formed"],
            "quasi_smooth": report["quasi_smooth"],
            "smooth": report["smooth"],
            "kind": report["type"],
        }
        seen.add((ann["linear_cone"], ann["well_formed"], ann["quasi_smooth"], ann["smooth"], ann["kind"]))
    # every outcome occurs: cones, not well formed, not quasi-smooth, each kind, singular
    assert {s[0] for s in seen} == {True, False}
    assert {s[1] for s in seen} == {True, False}
    assert {s[2] for s in seen} == {True, False, None}
    assert {s[3] for s in seen} == {True, False, None}
    assert {s[4] for s in seen} == {"fano", "calabi_yau", "general", None}


# -- value-subset reduction vs index-level brute force -----------------------------------


def _random_family(rng, units, max_weight):
    n1 = rng.randint(2, 7)
    c = rng.randint(1, min(3, n1 - 1))
    units = min(units, n1 - 1)
    ws = (1,) * units + tuple(rng.randint(1, max_weight) for _ in range(n1 - units))
    ds = tuple(rng.randint(1, 30) for _ in range(c))
    return tuple(sorted(ds, reverse=True)), tuple(sorted(ws, reverse=True))


def test_reduction_matches_oracle_randomized():
    rng = random.Random(411)
    smooth_verdicts = []
    # two unit weights and small weights make the second half mostly geometric
    for units, max_weight in [(0, 10)] * 150 + [(2, 6)] * 150:
        ds, ws = _random_family(rng, units, max_weight)
        fam = WciFamily.of(ds, ws)
        qs = None
        if not is_linear_cone(fam):
            qs = is_quasi_smooth(fam)
            assert qs == oracles.quasi_smooth(ds, ws)
            assert quasi_smooth(fam).verdict == qs
        wf = False
        if space_well_formed(list(ws)):
            wf = wci_well_formed(fam)
            assert wf == oracles.wci_well_formed(ds, ws)
        index = _index(_singular_strata(fam.degrees, fam.weights))
        assert index == oracles.fundamental_index(ds, ws)
        if qs and wf:
            smooth = is_smooth(fam)
            assert smooth == oracles.is_smooth(ds, ws)
            smooth_verdicts.append(smooth)
        # the maximal index set of each value subset is the binding case
        values = sorted(set(ws))
        for size in range(1, len(values) + 1):
            for W in combinations(values, size):
                idx = tuple(i for i, w in enumerate(ws) if w in W)
                assert stratum_meets(fam, W) == oracles.stratum_meets(ds, ws, idx)
    assert smooth_verdicts.count(True) >= 10 and smooth_verdicts.count(False) >= 10


def test_repr_over_matches_oracle_on_every_stratum():
    rng = random.Random(12)
    gcd_strata = 0
    for units, max_weight in [(0, 12)] * 40 + [(1, 8)] * 20:
        ds, ws = _random_family(rng, units, max_weight)
        table = _strata(WciFamily.of(ds, ws).weights)
        assert list(table) == oracles.strata(ws), ws
        for W, *_row in table:
            gcd_strata += math.gcd(*W) > 1
            for d in range(61):
                assert _repr_over(d, W) == oracles.representable(d, W), (d, W)
    assert gcd_strata > 0


def test_strata_refuse_too_many_distinct_weights_before_any_row(monkeypatch, capsys):
    from wcikit import cli

    many = ",".join(map(str, range(2, 19)))  # 17 distinct values: 131,071 rows
    assert cli.run(["check", f"100/{many}"]) == 2
    assert "distinct weights 17 exceeds ceiling 16" in capsys.readouterr().err
    weights = WeightClasses.from_weights(range(2, 19))
    monkeypatch.setattr(wci, "math", None)  # every row needs math.gcd
    with pytest.raises(CeilingExceededError) as raised:
        _strata(weights)
    assert (raised.value.what, raised.value.value, raised.value.ceiling) == (
        "distinct weights", 17, 16
    )
    monkeypatch.undo()
    monkeypatch.setattr(wci, "_MAX_DISTINCT_WEIGHTS", 3)
    _strata.cache_clear()  # a cached table is returned without the check
    assert len(_strata(WeightClasses.from_weights((7, 5, 3)))) == 7
    with pytest.raises(CeilingExceededError):
        _strata(WeightClasses.from_weights((7, 5, 3, 2)))


def _selection_oracle(r, masks, mults):
    """`oracles._q2_subset` on the classes expanded into coordinates."""
    ids, offset = [], 0
    for m in mults:
        ids.append(range(offset, offset + m))
        offset += m
    avail = [
        tuple(e for cls, cls_ids in enumerate(ids) if mask >> cls & 1 for e in cls_ids)
        for mask in masks
    ]
    return oracles._q2_subset(avail, r, tuple(range(offset)))


@settings(max_examples=250, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=4),
    mults=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5),
    data=st.data(),
)
def test_selection_search_matches_brute_force(r, mults, data):
    t = data.draw(st.integers(min_value=1, max_value=4))
    masks = tuple(
        data.draw(st.integers(min_value=0, max_value=(1 << len(mults)) - 1)) for _ in range(t)
    )
    assert _selection_exists(r, masks, tuple(mults)) == _selection_oracle(r, masks, mults)


def test_selection_exists_matches_brute_force_exhaustively():
    # Every input with <= 3 classes of multiplicity <= 2, t <= 3 and r <= 3.
    checked = passing = 0
    for n_classes in range(1, 4):
        for mults in product((1, 2), repeat=n_classes):
            for t in range(1, 4):
                for masks in product(range(1 << n_classes), repeat=t):
                    for r in range(1, 4):
                        expected = _selection_oracle(r, masks, mults)
                        assert _selection_exists(r, masks, mults) == expected, (r, masks, mults)
                        checked += 1
                        passing += expected
    assert checked == 15_108 and 0 < passing < checked


# -- the family walk's degree tables vs the per-family path and the oracles ------------


def _walk(universe, values, min_len, max_len):
    """Every node of the family claims' prefix walk, each partition in turn."""
    for first in values:
        yield from verify._family_tuples(universe, values, first, min_len, max_len)


def test_one_monomial_matches_oracle_exhaustively():
    checked = single = 0
    for size in range(1, 5):
        for W in combinations(range(1, 8), size):
            for mults in product((1, 2), repeat=size):
                coords = tuple(v for v, m in sorted(zip(W, mults), reverse=True) for _ in range(m))
                for d in range(61):
                    expected = oracles.monomial_count(d, coords) == 1
                    assert wci._one_monomial(d, W, coords) == expected, (d, coords)
                    checked += 1
                    single += expected
    assert checked == 57_218 and 0 < single < checked


def test_degree_table_masks_match_oracle():
    # Every node of three windows: repeated values, unit weights, tuples led by 1.
    tables = rows_seen = single_rows = 0
    for max_vars, max_weight, upto, values in [
        (6, 8, 30, [8, 7, 6, 5, 4, 3, 2, 1]),
        (6, 12, 40, [12, 9, 8, 6, 1]),
        (6, 10, 24, [10, 7, 5, 3, 2]),
    ]:
        universe = verify._degree_universe(1, upto, 1, max_weight)
        nodes = list(_walk(universe, values, 1, max_vars))
        assert sorted(ws for ws, *_ in nodes) == sorted(
            ws for first in values for ws in verify._tuples_with_first(first, values, 1, max_vars)
        )
        for ws, classes, rows, series, *_carried in nodes:
            tables += 1
            assert classes == WeightClasses.from_weights(ws)
            assert series == hilbert_series((), ws, upto)
            expected = {row[0]: row for row in _strata(classes) if row[0][0] != 1}
            assert sorted(row[6] for row in rows) == sorted(expected), ws
            for wmask, k, g, R, B, ge, W, D in rows:
                _W, k_, g_, coords, outside, mults = expected[W]
                assert (k, g) == (k_, g_)
                assert [v for b, (v, _m) in enumerate(classes.classes) if wmask >> b & 1] == list(W[::-1])
                assert verify._outside(classes, wmask) == (outside, mults)
                assert D == tuple(v for v in W if classes.multiplicity(v) > 1)
                assert ge == verify._ladder(universe, R)
                assert R >> upto + 1 == 0 and B >> upto + 1 == 0
                for d in range(upto + 1):
                    assert R >> d & 1 == oracles.representable(d, W), (ws, W, d)
                    assert B >> d & 1 == (oracles.monomial_count(d, coords) == 1), (ws, W, d)
                rows_seen += 1
                single_rows += B != R
    assert tables > 3_500 and rows_seen > 30_000 and single_rows > 20_000


def test_walk_carries_well_formedness_and_lcms():
    # Every node of both family claims' walks over weights <= 8 and at most 5
    # variables: the facts carried from parent to child against the one-shot
    # values.
    window = SearchBounds(max_codim=1, max_vars=5, max_weight=8, max_degree=16)
    verdicts = Counter()
    for claim in ("nonvanishing", "hypersurface"):
        spec, values, universe_key = verify._domain(claim, window, None)
        universe = verify._degree_universe(*universe_key)
        for node in _walk(universe, values, spec.min_len, window.max_vars):
            assert node.well_formed == space_well_formed(node.classes), node.weights
            pairwise = math.lcm(*(math.gcd(x, y) for x, y in combinations(node.weights, 2)))
            assert (node.gcd_lcm, node.lcm) == (pairwise, math.lcm(*node.weights)), node.weights
            verdicts[node.well_formed] += 1
    assert verdicts[True] > 1_000 and verdicts[False] > 100


def _mask_indices(universe, weights, rows, alive):
    """{entry: index} and the smooth entries of the geometric families among
    alive, from the family claims' masks over a walk node's rows."""
    by_index, smooth = verify._geometric_families(universe, weights, rows, alive)
    index = {i: ix for ix, entries in by_index.items() for i in verify._set_bits(entries)}
    assert len(index) == sum(entries.bit_count() for entries in by_index.values())  # one index each
    return index, smooth


def test_hypersurface_masks_match_per_family_predicates():
    # The engine at codim 1, over the hypersurface claim's universe.
    upto = 40
    universe = verify._degree_universe(1, upto, 1, 10)
    families = passing = 0
    for _ws, weights, table, *_rest in _walk(universe, list(range(10, 0, -1)), 2, 5):
        expected = {}
        for f in range(1, upto + 1):
            if weights.multiplicity(f):
                continue
            families += 1
            degrees = (f,)
            rows = list(wci._singular_strata(degrees, weights))
            if wci._well_formed(rows, weights.total - 2) and is_quasi_smooth(
                WciFamily.of(degrees, weights)
            ):
                expected[f] = wci._index(rows)
        index, _smooth = _mask_indices(universe, weights, table, universe.codim_le[1])
        got = {universe.entries[i][0]: ix for i, ix in sorted(index.items())}
        assert list(got.items()) == list(expected.items()), weights
        passing += len(got)
    assert families > 100_000 and passing > 5_000


def test_nonvanishing_masks_match_per_family_predicates():
    # Every non-cone family with 2-5 weights <= 6, codim 1-3 and degrees <= 16:
    # the nonvanishing claim's masks against the one-shot predicates.
    upto = 16
    universe = verify._degree_universe(3, upto, 1, 6)
    checked = by_starved = by_q1 = 0
    verdicts = set()
    for _ws, weights, table, *_rest in _walk(universe, list(range(6, 0, -1)), 2, 5):
        alive = universe.codim_le[min(3, weights.total - 1)]
        for v in weights.values():
            alive &= universe.without[v]
        well_formed, failed, pending = verify._stratum_masks(universe, weights, table, alive)
        index, smooth = _mask_indices(universe, weights, table, alive)
        kept = sum(1 << i for i in index)
        assert smooth & ~kept == 0
        no_search = well_formed & ~failed
        for (wmask, k, _g, _R, _B, _ge, W, _D), failing in pending:
            outside, mults = verify._outside(weights, wmask)
            no_search &= ~failing
            for i in verify._set_bits(failing):
                assert len(universe.entries[i]) >= 2, (universe.entries[i], weights, W)
            for i in verify._set_bits(failing & well_formed & ~failed):
                outcome = wci._stratum_outcome(universe.entries[i], W, k, outside, mults, False)
                assert outcome[0] != "Q1", (universe.entries[i], weights, W)
        by_starved += (well_formed & failed).bit_count()
        by_q1 += no_search.bit_count()
        for i in verify._set_bits(alive):
            degrees = universe.entries[i]
            rows = list(wci._singular_strata(degrees, weights))
            wf = wci._well_formed(rows, weights.total - 1 - len(degrees))
            qs = is_quasi_smooth(WciFamily.of(degrees, weights))
            assert (well_formed >> i & 1, kept >> i & 1) == (wf, wf and qs), (degrees, weights)
            assert not (qs and failed >> i & 1), (degrees, weights)
            assert not (wf and not qs and no_search >> i & 1), (degrees, weights)
            if wf and qs:
                assert index[i] == wci._index(rows), (degrees, weights)
                assert smooth >> i & 1 == wci._smooth(rows), (degrees, weights)
                verdicts.add((wf, qs, wci._smooth(rows), wci._index(rows) > 1))
            else:
                verdicts.add((wf, qs))
            checked += 1
    assert checked > 200_000 and by_starved > 0 and by_q1 > 0
    assert {verdict[:2] for verdict in verdicts} == {
        (True, True), (True, False), (False, True), (False, False)
    }
    assert {(True, True, True, False), (True, True, False, True)} <= verdicts


def test_hypersurface_base_locus_bits_match_base_locus():
    # Part (c) of the hypersurface claim: the strata the bit test on a walk
    # node's rows puts in the base locus, against the one-shot base locus's
    # components (its maximal strata), over the window (1, 5, 8, 30).  The claim
    # asks for each Gorenstein family at ell = delta + m * index, m = n..n+2,
    # where no stratum is hit; every ell up to 42 is asked too.
    upto = 30
    universe = verify._degree_universe(1, upto, 1, 8)
    verdicts = {True: 0, False: 0}
    gorenstein = above = spared = 0  # ell over max_degree; a hit that B spares
    for ws, weights, table, *_rest in _walk(universe, list(range(8, 0, -1)), 2, 5):
        if not space_well_formed(weights):
            continue
        index, _smooth = _mask_indices(universe, weights, table, universe.codim_le[1])
        n = weights.total - 1
        without_b = [(*row[:4], 0, *row[5:]) for row in table]
        for i, ix in index.items():
            f = universe.entries[i][0]
            delta = f - sum(ws)
            claimed = {delta + m * ix for m in range(n, n + 3)} if delta % ix == 0 else set()
            gorenstein += bool(claimed)
            family = WciFamily((f,), weights)
            for ell in sorted(claimed | set(range(1, upto + 13))):
                if ell < 1:
                    continue
                hits = set(verify._base_locus_rows(table, f, ell, upto))
                maximal = {W for W in hits if not any(set(W) < set(W2) for W2 in hits)}
                components = wci._base_locus(family, ell)
                assert maximal == {comp.values for comp in components}, (family.encode(), ell)
                assert not (claimed & {ell} and hits), (family.encode(), ell)
                verdicts[bool(hits)] += 1
                above += ell > upto
                spared += len(hits) < len(set(verify._base_locus_rows(without_b, f, ell, upto)))
    assert gorenstein > 500 and min(verdicts.values()) > 10_000 and above > 10_000 and spared > 100


def test_space_well_formed_matches_oracle():
    for n in range(2, 7):
        for ws in combinations_with_replacement(range(12, 0, -1), n):
            assert space_well_formed(ws) == oracles.space_well_formed(ws), ws


def test_one_shot_requests_build_no_degree_table(monkeypatch, capsys):
    from wcikit import cli

    def refuse(*args):
        raise AssertionError("a one-shot request built a degree table")

    monkeypatch.setattr(verify, "_family_tuples", refuse)
    assert cli.run(["check", "8,8,8/2^4,3^5,5^3", "--json"]) == 0
    assert cli.run(["check", "35/5,7,2^5,3^5"]) == 0
    assert cli.run(["base-locus", "231,231,26/11^2,7^2,3^2,1^447", "1", "--json"]) == 0
    capsys.readouterr()
