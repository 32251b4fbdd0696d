"""wcikit benchmark: two workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  Each repetition of a workload runs in
a fresh interpreter (perfbench/child.py, src on PYTHONPATH), because wcikit's
module caches persist within a process and every `wci` call starts cold.
Outputs are checked; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when every
output checked out, 1 when one did not, 2 when the benchmark could not run.

--trace 0 reports the end-to-end metrics; --trace 1 reports per-layer metrics
from a traced repetition (workers=1, spans around every call from one wcikit
module into another) next to untraced ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
CHILD = HERE / "child.py"
SPANS_DIR = HERE / "out"

# workload -> pool size of its verify calls: 2, the CLI default on the
# 2-core machine the baseline was taken on.
WORKLOADS = {"verify-sweep": 2, "request-stream": 1}
SETUP_SPAWNS = 9
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
LAYERS = ("arith", "pairs", "wci", "hilbert", "verify", "cli")


class BenchError(Exception):
    """The benchmark could not run (missing sources, a child crashed)."""


def spawn(mode: str, job: dict | None = None) -> dict:
    """Run perfbench/child.py once; add set-up time and wait4 resource usage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    payload = json.dumps(job).encode() if job is not None else b""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), mode], stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child {mode} exited with {proc.returncode}")
    try:
        result = json.loads(out)
    except ValueError:
        raise BenchError(f"child {mode} printed no JSON result") from None
    result["setup_s"] = result["ready"] - spawned
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


# -- correctness -----------------------------------------------------------------


class Checker:
    """Counts operations and failures; an operation is one claim run or one request."""

    def __init__(self, requests: list | None):
        self.attempted = 0
        self.failures: list[str] = []
        self.check = claim_check() if requests is None else request_check(requests)

    def rep(self, result: dict) -> None:
        for i, op in enumerate(result["ops"]):
            self.attempted += 1
            problem = self.check(i, op)
            if problem is not None:
                self.failures.append(problem)


def claim_check():
    """Claim runs against the counts and digests pinned in expected.json."""
    expected = json.loads((HERE / "expected.json").read_text())

    def check(_i: int, op: dict) -> str | None:
        want = expected[op["claim"]]
        got = {key: op[key] for key in want}
        return None if got == want else f"{op['claim']}: got {got}, pinned {want}"

    return check


def request_check(requests: list):
    """Responses against the schemas and oracles (stream.check_response).
    A response identical to one already checked is not checked again."""
    import oracles
    import stream

    try:
        schemas = stream.load_schemas(SRC / "wcikit" / "schemas")
    except ValueError as exc:
        raise BenchError(str(exc)) from None
    seen: dict[tuple, str | None] = {}

    def check(i: int, op: dict) -> str | None:
        key = (i, op["code"], op["out"], op["err"])
        if key not in seen:
            req = requests[i]
            problem = stream.check_response(req, op["code"], op["out"], op["err"], oracles, schemas)
            seen[key] = None if problem is None else f"{' '.join(req['argv'])[:120]}: {problem}"
        return seen[key]

    return check


# -- measurement -----------------------------------------------------------------


def job_for(workload: str, workers: int, trace: bool, requests: list | None) -> dict:
    job = {"workload": workload, "workers": workers, "trace": trace}
    if requests is not None:
        job["argvs"] = [r["argv"] for r in requests]
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        job["spans_path"] = str(SPANS_DIR / f"{workload}.spans")
    return job


def end_to_end(workload: str, seconds: float, requests: list | None, checker: Checker):
    """At least MIN_REPS repetitions, then more until the next one would
    overrun `seconds`; medians over them.  Request-stream latency percentiles
    are taken over the requests, each at its fastest repetition.  Outputs are
    checked after the last one.

    Set-up-only spawns run half before and half after the repetitions, so
    their median covers the whole run rather than one moment of it.
    """
    workers = WORKLOADS[workload]
    spawn("setup")  # not counted: compiles bytecode on a fresh checkout
    setups = [spawn("setup")["setup_s"] for _ in range(SETUP_SPAWNS // 2)]
    reps = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(spawn("run", job_for(workload, workers, False, requests)))
        now = time.monotonic()
        if len(reps) >= MIN_REPS and now - start + (now - began) > seconds:
            break
    setups += [spawn("setup")["setup_s"] for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2)]
    for rep in reps:
        checker.rep(rep)
    # A request is one cli.run call.  A verify-sweep repetition is one
    # request: its claim runs are too few, and each too short, for a steady
    # percentile.  Its latency is the median over repetitions, as wall_s.
    if requests is None:
        latencies = [statistics.median(r["wall_s"] for r in reps) * 1000]
    else:
        # Every repetition replays the same requests in the same order from a
        # fresh interpreter, so request i meets the same cache state each
        # time.  A request takes milliseconds, so one burst of other load on
        # the host can slow it in one repetition; its fastest time over the
        # repetitions filters such bursts.  (Percentiles taken within each
        # repetition, then their median, spread 0.29 between runs of one build.)
        latencies = [min(times) for times in zip(*([op["ms"] for op in rep["ops"]] for rep in reps))]
    metrics = {
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in reps]), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "request_ms_p50": (percentile(latencies, 0.5), "ms"),
        "request_ms_p99": (percentile(latencies, 0.99), "ms"),
    }
    notes = [f"repetitions: {len(reps)}", f"latency samples: {len(latencies)} requests x {len(reps)} repetitions"]
    if requests is None:
        for op in reps[0]["ops"]:
            ms = statistics.median(o["ms"] for r in reps for o in r["ops"] if o["claim"] == op["claim"])
            notes.append(f"{op['claim']}: {ms / 1000:.3f} s, checked {op['checked']}")
    return metrics, notes


def per_layer(workload: str, requests: list | None, checker: Checker):
    """One untraced repetition at the workload's pool size, one untraced and
    one traced at workers=1 (the first doubles as the second when it is 1)."""
    workers = WORKLOADS[workload]
    plain = spawn("run", job_for(workload, workers, False, requests))
    checker.rep(plain)
    serial = plain
    if workers > 1:
        serial = spawn("run", job_for(workload, 1, False, requests))
        checker.rep(serial)
    traced = spawn("run", job_for(workload, 1, True, requests))
    checker.rep(traced)
    trace = traced["trace"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (trace["layers"][layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (trace["layers"][layer]["self_s"], "s")
    for name, value in traced["caches"].items():
        unit = "ratio" if name.endswith("hit_ratio") else "count"
        metrics[name] = (value, unit)
    metrics["verify.pool_utilization"] = (plain["cpu_s"] / (workers * plain["wall_s"]), "ratio")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / serial["wall_s"], "ratio")
    metrics["trace.spans"] = (trace["spans"], "count")
    top = sorted(trace["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:12]
    notes = [f"untraced wall at workers={workers}: {plain['wall_s']:.3f} s"]
    notes += [f"{name}: {f['calls']} calls, {f['self_s']:.3f} s self" for name, f in top]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "wcikit" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
            raise BenchError(f"no wcikit sources under {ROOT}; run from a source checkout")
        sys.path[:0] = [str(SRC), str(TESTS)]
        requests = None
        if args.workload == "request-stream":
            import oracles
            import stream

            requests = stream.make_requests(args.seed, oracles)
        checker = Checker(requests)
        if args.trace:
            metrics, notes = per_layer(args.workload, requests, checker)
        else:
            metrics, notes = end_to_end(args.workload, args.seconds, requests, checker)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    failed = len(checker.failures)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit}")
    print(f"  failed_ratio: {failed}/{checker.attempted} = {failed / checker.attempted:.6g}")
    for problem in checker.failures[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
