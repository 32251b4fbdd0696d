"""Classical classifications as oracles from outside the code.

Two lists from the literature pin the shared stratum rules (well-formedness,
quasi-smoothness, linear cones) at delta = 0, where every expected value of the
other tests comes from this repository:

- M. Reid's 95 families of K3 surfaces X_d in P(a_0..a_3) with d = sum a,
  listed in A. R. Iano-Fletcher, "Working with weighted complete
  intersections", in Explicit Birational Geometry of 3-folds, LMS Lecture
  Note Series 281 (2000);
- Iano-Fletcher's 84 families of codimension-2 K3 surfaces X_{d1,d2} in
  P(a_0..a_4) with d1 + d2 = sum a, in the same paper.

Every family of both lists is well formed, quasi-smooth and not a linear cone.
The windows hold each list's extremes: X_66 in P(5,6,22,33) has the largest
hypersurface weight and degree, X_{21,20} in P(17,10,7,4,3) the largest
codim-2 weight and X_{30,24} in P(15,12,10,9,8) the largest codim-2 degree.
A change that moves a count is wrong unless it shows that the definitions
differ.
"""

from itertools import combinations_with_replacement

import oracles
from wcikit import verify
from wcikit.wci import WciFamily


def _engine_k3s(codim: int, nvars: int, max_weight: int, max_degree: int) -> set:
    """(degrees, weights) of the families the family claims' engine keeps, of
    this codim with sum d = sum a, over the well-formed spaces of nvars
    weights <= max_weight, with degrees <= max_degree."""
    universe = verify._degree_universe(codim, max_degree, 1, max_weight)
    values = list(range(max_weight, 0, -1))
    layer = universe.codim_le[codim] & ~universe.codim_le[codim - 1]
    found = set()
    for first in values:
        for node in verify._family_tuples(universe, values, first, nvars, nvars):
            if not node.well_formed:
                continue
            s = sum(node.weights)
            alive = layer & verify._sum_at_most(universe, s) & ~verify._sum_at_most(universe, s - 1)
            by_index, _smooth = verify._geometric_families(universe, node.classes, node.rows, alive)
            for entries in by_index.values():
                found.update((universe.entries[i], node.weights) for i in verify._set_bits(entries))
    return found


def _members(*texts: str) -> set:
    families = [WciFamily.parse(text) for text in texts]
    return {(family.degrees, family.weights.expand()) for family in families}


def test_reid_95_k3_hypersurfaces_through_the_engine():
    found = _engine_k3s(1, 4, 33, 66)
    assert len(found) == 95
    assert _members("4/1^4", "66/33,22,6,5") <= found


def test_reid_95_k3_hypersurfaces_through_the_oracles():
    found = set()
    for ws in combinations_with_replacement(range(33, 0, -1), 4):
        d = sum(ws)  # d in ws is a linear cone
        if d > 66 or d in ws or not oracles.space_well_formed(ws):
            continue
        if oracles.wci_well_formed((d,), ws) and oracles.quasi_smooth((d,), ws):
            found.add(((d,), ws))
    assert len(found) == 95
    assert _members("4/1^4", "66/33,22,6,5") <= found


def test_iano_fletcher_84_codim_two_k3s_through_the_engine():
    # The codim-2 families that fail Q1 somewhere reach the pending Q2 check.
    found = _engine_k3s(2, 5, 17, 30)
    assert len(found) == 84
    assert _members("30,24/15,12,10,9,8", "21,20/17,10,7,4,3") <= found
