"""One workload repetition, run in a fresh interpreter with src on PYTHONPATH.

    python3 perfbench/child.py setup   # import wcikit.cli, report readiness
    python3 perfbench/child.py run     # job as JSON on stdin

The first thing this process does is import wcikit.cli; the CLOCK_MONOTONIC
reading right after that import is reported as "ready", so the parent can
measure set-up from the moment it spawned the process.  The result is one
JSON document on stdout.
"""

import time

import wcikit.cli  # noqa: F401  (this import is the set-up being timed)

READY = time.monotonic()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from wcikit import arith, cli, hilbert, pairs, verify, wci  # noqa: E402

MODULES = {"arith": arith, "pairs": pairs, "wci": wci, "hilbert": hilbert, "verify": verify, "cli": cli}

# (claim, function, window (max_codim, max_vars, max_weight, max_degree), extra args)
# The first three are signature matching in verify; the last two are wci
# stratum predicates and arith tables.
CLAIMS = (
    ("prop-regular", "verify_prop_regular", (3, 6, 10, 40), {}),
    ("conjecture-regular", "verify_conjecture_regular", (2, 6, 12, 60), {}),
    ("lemma-qdiv", "verify_lemma_qdiv", (3, 7, 16, 60), {"q": 2}),
    ("nonvanishing", "verify_nonvanishing", (2, 5, 8, 24), {}),
    ("hypersurface", "verify_hypersurface", (1, 5, 10, 40), {}),
)

CACHES = (
    ("wci.selection_cache", wci, "_selection_exists"),
    ("wci.geometry_cache", wci, "_geometry"),
    ("verify.degree_universe", verify, "_degree_universe"),
    ("verify.frobenius_cache", verify, "_frobenius_cached"),
)


def run_claims(mods, workers: int) -> dict:
    ops = []
    start = time.perf_counter()
    for claim, func, window, extra in CLAIMS:
        t0 = time.perf_counter()
        report = getattr(mods["verify"], func)(verify.SearchBounds(*window), workers=workers, **extra)
        ms = (time.perf_counter() - t0) * 1000
        canonical = report.canonical_json()
        ops.append(
            {
                "claim": claim,
                "ms": ms,
                "checked": report.instances_checked,
                "counterexamples": len(report.counterexamples),
                "witnesses": len(report.equality_witnesses),
                "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            }
        )
    return {"wall_s": time.perf_counter() - start, "ops": ops}


def run_requests(mods, argvs: list) -> dict:
    """Closed loop, one caller: each request starts when the last returned."""
    run = mods["cli"].run
    ops = []
    real_out, real_err = sys.stdout, sys.stderr
    clock = time.perf_counter
    start = clock()
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            sys.stdout, sys.stderr = out, err
            t0 = clock()
            code = run(argv)
            t1 = clock()
            sys.stdout, sys.stderr = real_out, real_err
            ops.append({"ms": (t1 - t0) * 1000, "code": code, "out": out.getvalue(), "err": err.getvalue()})
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return {"wall_s": clock() - start, "ops": ops}


def cache_counters() -> dict:
    """Sizes and hit counts of the module caches; None where a cache is absent."""
    out = {}
    for key, module, attr in CACHES:
        info_fn = getattr(getattr(module, attr, None), "cache_info", None)
        info = info_fn() if info_fn is not None else None
        lookups = info.hits + info.misses if info else None
        out[f"{key}.lookups"] = lookups
        out[f"{key}.hit_ratio"] = (info.hits / lookups if lookups else 0.0) if info else None
        out[f"{key}.entries"] = info.currsize if info else None
    match = getattr(verify, "_match_cache", None)
    out["verify.match_cache.entries"] = len(match) if match is not None else None
    tables = getattr(arith, "_membership_cache", None)
    out["arith.membership.tables"] = len(tables) if tables is not None else None
    out["arith.membership.entries"] = sum(map(len, tables.values())) if tables is not None else None
    return out


def main() -> None:
    if sys.argv[1:] == ["setup"]:
        json.dump({"ready": READY}, sys.stdout)
        return
    job = json.load(sys.stdin)
    tracer = None
    mods = MODULES
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        mods = tracing.install(tracer, MODULES)
    if job["workload"] == "request-stream":
        result = run_requests(mods, job["argvs"])
    else:
        result = run_claims(mods, job["workers"])
    result["ready"] = READY
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["caches"] = cache_counters()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
