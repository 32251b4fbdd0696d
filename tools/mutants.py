"""Check that the test suite kills a fixed set of planted mutants.

Each mutant replaces one exact piece of source text.  For each one the tree is
copied to a temporary directory, the mutant is applied there, and only the
tests named for it are run; a mutant whose tests all pass survives.  Run from
the repository root (it is not part of the tier-1 suite):

    python3 tools/mutants.py

The named tests are first run once on an unmutated copy, which must pass.
Exit code 0 when every mutant is killed, 1 when some survive, 2 when the
unmutated run fails, a mutant's source text is not found exactly once, or
pytest cannot run a mutant's tests.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, exact old text, new text, tests expected to fail)
MUTANTS = [
    (
        "hypersurface start off by one",
        "src/wcikit/verify.py",
        "start = (max(delta, 0) // index + 1) * index",
        "start = (max(delta, 0) // index + 2) * index",
        ["tests/test_verify.py::test_hypersurface_part_b_covers_every_multiple_of_the_index"],
    ),
    (
        "nonvanishing without the space_well_formed prune",
        "src/wcikit/verify.py",
        "        if not space_well_formed(classes):\n"
        "            continue\n"
        "        sum_a = sum(weights)\n",
        "        sum_a = sum(weights)\n",
        [
            "tests/test_verify.py::test_nonvanishing_counterexamples_carry_the_index",
            "tests/test_verify.py::test_family_claims_match_naive_walk",
        ],
    ),
    (
        "regular pairs without the without[v] cone mask",
        "src/wcikit/verify.py",
        "        for v in set(weights):\n"
        "            mask &= universe.without[v]  # not a linear cone\n",
        "",
        [
            "tests/test_verify.py::test_prop_regular_small_window",
            "tests/test_verify.py::test_regular_claims_match_naive_walk",
        ],
    ),
    (
        "regular-pair codim cap read at max_c - 1",
        "src/wcikit/verify.py",
        "mask &= universe.codim_le[min(len(limits) - 1, bounds.max_codim)]",
        "mask &= universe.codim_le[min(len(limits) - 1, bounds.max_codim) - 1]",
        ["tests/test_verify.py::test_regular_claims_match_naive_walk"],
    ),
    (
        "regular-pair candidate prefix one short",
        "src/wcikit/verify.py",
        "sum_a + max(limits))",
        "sum_a + max(limits) - 1)",
        [
            "tests/test_verify.py::test_prop_regular_small_window",
            "tests/test_verify.py::test_regular_claims_match_naive_walk",
        ],
    ),
    (
        "requirement bits read at [k - 1]: a child's ladder at count_g, not count_g + 1",
        "src/wcikit/verify.py",
        "mask &= bits[count[g]] if",
        "mask &= bits[count[g] - 1] if",
        ["tests/test_verify.py::test_regular_mask_matches_naive_scan"],
    ),
    (
        "regular walk children restart at j + 1 (no repeated weight)",
        "src/wcikit/verify.py",
        "for i in range(j, len(values)):",
        "for i in range(j + 1, len(values)):",
        [
            "tests/test_verify.py::test_regular_mask_matches_naive_scan",
            "tests/test_verify.py::test_regular_claims_match_naive_walk",
        ],
    ),
    (
        "regular walk keeps a finished child's counts",
        "src/wcikit/verify.py",
        "        for g in gs:\n            count[g] -= 1\n",
        "",
        [
            "tests/test_verify.py::test_regular_mask_matches_naive_scan",
            "tests/test_verify.py::test_regular_claims_match_naive_walk",
        ],
    ),
    (
        "regular walk keeps the top ladder row past max_codim",
        "src/wcikit/verify.py",
        "if count[g] < len(bits) else 0",
        "if count[g] < len(bits) else bits[-1]",
        ["tests/test_verify.py::test_regular_mask_matches_naive_scan"],
    ),
    (
        "regular walk yields tuples with an empty mask",
        "src/wcikit/verify.py",
        "        if mask:\n            weights += (a,)\n",
        "        if True:\n            weights += (a,)\n",
        ["tests/test_verify.py::test_regular_mask_matches_naive_scan"],
    ),
    (
        "without[v] from the largest degree only",
        "src/wcikit/verify.py",
        "for at_p in at:",
        "for at_p in at[:1]:",
        ["tests/test_verify.py::test_regular_mask_matches_naive_scan"],
    ),
    (
        "ladder memo keyed by M alone, shared across universes",
        "src/wcikit/verify.py",
        "    memo = universe.ladders\n",
        '    memo = _ladder.__dict__.setdefault("shared", {})\n',
        [
            "tests/test_verify.py::test_regular_claims_match_naive_walk",
            "tests/test_verify.py::test_family_claims_match_naive_walk",
        ],
    ),
    (
        "ladder counts a position twice",
        "src/wcikit/verify.py",
        "for j in range(max_codim, 0, -1):",
        "for j in range(1, max_codim + 1):",
        ["tests/test_verify.py::test_regular_mask_matches_naive_scan"],
    ),
    (
        "nonvanishing well-formedness threshold k - dim + 1",
        "src/wcikit/verify.py",
        "min(k - 1, k - dim) + 1)",
        "min(k - 1, k - dim + 1) + 1)",
        [
            "tests/test_wci.py::test_nonvanishing_masks_match_per_family_predicates",
            "tests/test_verify.py::test_family_claims_match_naive_walk",
        ],
    ),
    (
        "nonvanishing Q1 mask read at min(c, k) + 1",
        "src/wcikit/verify.py",
        "_at_least(ge, min(c, k))",
        "_at_least(ge, min(c, k) + 1)",
        [
            "tests/test_wci.py::test_nonvanishing_masks_match_per_family_predicates",
            "tests/test_verify.py::test_family_claims_match_naive_walk",
        ],
    ),
    (
        "starved-degree mask misses one outside class",
        "src/wcikit/verify.py",
        "for v in outside:\n                reach |= R << v\n",
        "for v in outside[1:]:\n                reach |= R << v\n",
        [
            "tests/test_wci.py::test_nonvanishing_masks_match_per_family_predicates",
            "tests/test_verify.py::test_family_claims_match_naive_walk",
        ],
    ),
    (
        "space_well_formed ignores a doubled class",
        "src/wcikit/wci.py",
        "v if m > 1 else 0",
        "0",
        ["tests/test_wci.py::test_space_well_formed_matches_oracle"],
    ),
    (
        "stratum table drops a row",
        "src/wcikit/wci.py",
        "*rest), i + 1))\n    return tuple(rows)\n",
        "*rest), i + 1))\n    return tuple(rows[1:])\n",
        ["tests/test_wci.py::test_repr_over_matches_oracle_on_every_stratum"],
    ),
    (
        "stratum table k off by one",
        "src/wcikit/wci.py",
        "k + m, math.gcd(g, v)",
        "k + m + 1, math.gcd(g, v)",
        ["tests/test_wci.py::test_repr_over_matches_oracle_on_every_stratum"],
    ),
    (
        "hypersurface well-formedness threshold k > dim",
        "src/wcikit/verify.py",
        "if g > 1 and k > dim - 1:",
        "if g > 1 and k > dim:",
        ["tests/test_wci.py::test_hypersurface_masks_match_per_family_predicates"],
    ),
    (
        "Q2 ladder read at ge[k - 1]",
        "src/wcikit/verify.py",
        "q2 &= ~avail[k]",
        "q2 &= ~avail[k - 1]",
        ["tests/test_wci.py::test_hypersurface_masks_match_per_family_predicates"],
    ),
    (
        "condition (i) read at [k - 1]",
        "src/wcikit/verify.py",
        "_closure(1, g, universe.full)), k)",
        "_closure(1, g, universe.full)), k - 1)",
        [
            "tests/test_wci.py::test_hypersurface_masks_match_per_family_predicates",
            "tests/test_wci.py::test_nonvanishing_masks_match_per_family_predicates",
            "tests/test_verify.py::test_family_claims_match_naive_walk",
        ],
    ),
    (
        "exact Q2 search keeps every pending entry",
        "src/wcikit/verify.py",
        "kept ^= 1 << i",
        "kept |= 0",
        [
            "tests/test_wci.py::test_nonvanishing_masks_match_per_family_predicates",
            "tests/test_verify.py::test_family_claims_match_naive_walk",
        ],
    ),
    (
        "nonvanishing estimate prefix one short",
        "src/wcikit/verify.py",
        "_sum_at_most(universe, sum(weights))",
        "_sum_at_most(universe, sum(weights) - 1)",
        ["tests/test_verify.py::test_estimate_refinement_counts_nonvanishing_multisets"],
    ),
    (
        "single-monomial mask B_W marks the degrees with no monomial",
        "src/wcikit/wci.py",
        "rows.append(row + (R, B))",
        "rows.append(row + (R, full & ~R))",
        ["tests/test_wci.py::test_degree_table_masks_match_oracle"],
    ),
    (
        "single-monomial mask B_W ignores a doubled weight",
        "src/wcikit/wci.py",
        "if coords.count(v) > 1:",
        "if coords.count(v) > 2:",
        ["tests/test_wci.py::test_degree_table_masks_match_oracle"],
    ),
    (
        "stratum table ceiling admits one value more",
        "src/wcikit/wci.py",
        "if len(weights.classes) > _MAX_DISTINCT_WEIGHTS:",
        "if len(weights.classes) > _MAX_DISTINCT_WEIGHTS + 1:",
        ["tests/test_wci.py::test_strata_refuse_too_many_distinct_weights_before_any_row"],
    ),
    (
        "monomial count ceiling admits one target more",
        "src/wcikit/arith.py",
        "if target > _MAX_MONOMIAL_TARGET:",
        "if target > _MAX_MONOMIAL_TARGET + 1:",
        ["tests/test_arith.py::test_monomial_count_refuses_targets_over_ceiling"],
    ),
    (
        "unit-stratum skip tested on W[-1]",
        "src/wcikit/wci.py",
        "if detailed or W[0] != 1\n",
        "if detailed or W[-1] != 1\n",
        ["tests/test_wci.py::test_verdict_walk_skips_unit_strata"],
    ),
    (
        "Q2 union bound asks one coordinate fewer",
        "src/wcikit/wci.py",
        "if cap < r + len(J) - 1:",
        "if cap < r + len(J) - 2:",
        [
            "tests/test_wci.py::test_selection_search_matches_brute_force",
            "tests/test_wci.py::test_selection_exists_matches_brute_force_exhaustively",
            "tests/test_wci.py::test_reduction_matches_oracle_randomized",
        ],
    ),
    (
        "Q2 tried one pure degree short",
        "src/wcikit/wci.py",
        "    l = min(rho - 1, len(rep))\n",
        "    l = max(min(rho - 1, len(rep)) - 1, 0)\n",
        [
            "tests/test_wci.py::test_reduction_matches_oracle_randomized",
            "tests/test_acceptance.py::test_criterion_3_oracle_equivalence",
        ],
    ),
    (
        "forked run keeps stdout buffered across the fork",
        "src/wcikit/verify.py",
        "    sys.stdout.flush()  # else a child could print the parent's buffered text again\n",
        "",
        ["tests/test_verify.py::test_forked_run_prints_buffered_output_once"],
    ),
    (
        "forked run leaves children unreaped on an error",
        "src/wcikit/verify.py",
        "            os.kill(pid, signal.SIGKILL)\n            os.waitpid(pid, 0)\n",
        "            pass\n",
        [
            "tests/test_verify.py::test_forked_run_reraises_typed_errors_and_reaps",
            "tests/test_verify.py::test_forked_run_raises_when_a_child_dies",
        ],
    ),
    (
        "forked run reads a dead child as an empty result",
        "src/wcikit/verify.py",
        "            if not payload:\n",
        "            if not payload and False:\n",
        ["tests/test_verify.py::test_forked_run_raises_when_a_child_dies"],
    ),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")


def run_mutant(old: str, new: str, path: str, tests: list[str]) -> str:
    """'killed', 'survived', 'not found' or 'error' for one mutant, run in a
    fresh copy of the tree; an empty old text runs the tree unmutated."""
    with tempfile.TemporaryDirectory(prefix="wcikit-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        if old:
            target = tree / path
            text = target.read_text()
            if text.count(old) != 1:
                return "not found"
            target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree,
            env=env,
            capture_output=True,
        )
        return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main() -> int:
    named = sorted({test for *_row, tests in MUTANTS for test in tests})
    if run_mutant("", "", "", named) != "survived":
        print("the named tests fail on the unmutated tree")
        return 2
    outcomes = []
    for name, path, old, new, tests in MUTANTS:
        outcome = run_mutant(old, new, path, tests)
        outcomes.append(outcome)
        print(f"{outcome:9}  {name}  ({path})")
    survivors = outcomes.count("survived")
    print(f"{len(outcomes)} mutants: {outcomes.count('killed')} killed, {survivors} survived")
    if "not found" in outcomes or "error" in outcomes:
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
