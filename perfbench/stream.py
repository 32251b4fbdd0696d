"""Seeded request mix for the request-stream workload, and the checks of its
responses against the brute-force oracles in tests/oracles.py and the JSON
schemas in src/wcikit/schemas/.

Generation and checking both run in the benchmark's own process, outside the
timed loop; the program only sees the argv lists.  The schema check is a
small validator for the JSON Schema keywords the schemas use (KEYWORDS).
"""

from __future__ import annotations

import json
import math
import random
from functools import reduce
from itertools import combinations
from pathlib import Path

# Exact counts per command family (55/15/10/12/8 % of 2,000), shuffled, so
# every seed runs the same mix.
MIX = (("check", 1100), ("pair", 300), ("frobenius", 200), ("hilbert", 240), ("base-locus", 160))
SPLIT_PRIMES = (2, 3, 5, 7, 11)


def _text(ds, ws) -> str:
    return ",".join(map(str, ds)) + "/" + ",".join(map(str, ws))


def _family(rng: random.Random, nvars: int, max_codim: int):
    ws = tuple(sorted((rng.randint(1, 12) for _ in range(nvars)), reverse=True))
    c = rng.randint(1, min(max_codim, nvars - 1))
    ds = tuple(sorted((rng.randint(1, 60) for _ in range(c)), reverse=True))
    return ds, ws


def _space_well_formed(ws) -> bool:
    return all(reduce(math.gcd, ws[:i] + ws[i + 1 :]) == 1 for i in range(len(ws)))


def _geometric_family(rng: random.Random, oracles):
    """A family the oracles call well formed, quasi-smooth and not a cone."""
    while True:
        ds, ws = _family(rng, rng.randint(2, 7), 3)
        if set(ds) & set(ws) or not _space_well_formed(ws):
            continue
        if oracles.wci_well_formed(ds, ws) and oracles.quasi_smooth(ds, ws):
            return ds, ws


def _random_generators(rng: random.Random):
    """2 to 4 distinct generators in 2..400 with gcd 1."""
    while True:
        gens = sorted(rng.sample(range(2, 401), rng.randint(2, 4)))
        if reduce(math.gcd, gens) == 1:
            return gens


def _size(gens) -> int:
    """The least product of a coprime pair: the classical bound ab - a - b on
    the Frobenius number is below it, and so is the table a dense scan needs."""
    return min((a * b for a, b in combinations(gens, 2) if math.gcd(a, b) == 1), default=gens[-1] ** 2)


def _stratified_generators(rng: random.Random, count: int) -> list:
    """count generator sets, one from each count-quantile stratum of _size.

    Latency grows with _size and its upper tail sets request_ms_p99, so the
    strata (taken from a fixed reference sample) give every seed the same
    tail while each set within its stratum is still drawn from the seed.
    """
    ref = random.Random(0)
    sizes = sorted(_size(_random_generators(ref)) for _ in range(50 * count))
    edges = [sizes[len(sizes) * j // count] for j in range(count)] + [math.inf]
    out = []
    for j in range(count):
        while True:
            gens = _random_generators(rng)
            if edges[j] <= _size(gens) < edges[j + 1]:
                out.append(gens)
                break
    rng.shuffle(out)
    return out


def make_requests(seed: int, oracles) -> list[dict]:
    """2,000 requests: {"kind", "argv", and the inputs the checks need}.

    The number of weights of check and pair families cycles through 2..12 so
    that every seed has the same shape mix.
    """
    rng = random.Random(seed)
    kinds = [kind for kind, count in MIX for _ in range(count)]
    rng.shuffle(kinds)
    generators = iter(_stratified_generators(rng, dict(MIX)["frobenius"]))
    seen = dict.fromkeys(dict(MIX), 0)
    out = []
    for kind in kinds:
        i = seen[kind]
        seen[kind] += 1
        if kind == "check":
            ds, ws = _family(rng, 2 + i % 11, 4)
            req = {"argv": ["check", _text(ds, ws), "--json"], "ds": ds, "ws": ws}
        elif kind == "pair":
            ds, ws = _family(rng, 2 + i % 11, 4)
            h, q = rng.randint(1, 12), rng.choice(SPLIT_PRIMES)
            argv = ["pair", _text(ds, ws), "--h", str(h), "--split", str(q), "--json"]
            req = {"argv": argv, "ds": ds, "ws": ws, "h": h}
        elif kind == "frobenius":
            gens = next(generators)
            req = {"argv": ["frobenius", ",".join(map(str, gens)), "--json"], "gens": gens}
        elif kind == "hilbert":
            ds, ws = _geometric_family(rng, oracles)
            upto = rng.randint(1, 2000)
            req = {"argv": ["hilbert", _text(ds, ws), str(upto), "--json"], "ds": ds, "ws": ws}
        else:
            ds, ws = _geometric_family(rng, oracles)
            ell = rng.randint(1, 60)
            req = {"argv": ["base-locus", _text(ds, ws), str(ell), "--json"], "ds": ds, "ws": ws}
        req["kind"] = kind
        out.append(req)
    return out


SCHEMAS = {"check": "check.json", "pair": "pair.json", "frobenius": "frobenius.json",
           "hilbert": "hilbert.json", "base-locus": "base-locus.json"}


# The JSON Schema (2020-12) keywords the wcikit schemas use; schema_error
# implements exactly these, and load_schemas refuses a schema with any other.
KEYWORDS = {"$schema", "$id", "title", "$defs", "$ref", "type", "enum", "required",
            "properties", "additionalProperties", "items", "minItems", "minimum"}
TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _keywords(schema: dict) -> set:
    found = set(schema)
    for key in ("properties", "$defs"):
        for sub in schema.get(key, {}).values():
            found |= _keywords(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            found |= _keywords(schema[key])
    return found


def load_schemas(schema_dir: Path) -> dict:
    out = {}
    for kind, name in SCHEMAS.items():
        schema = json.loads((schema_dir / name).read_text())
        unknown = _keywords(schema) - KEYWORDS
        if unknown:
            raise ValueError(f"{name} uses schema keywords the benchmark does not check: {sorted(unknown)}")
        out[kind] = schema
    return out


def _is_type(value, name: str) -> bool:
    if name in ("integer", "number"):
        kinds = int if name == "integer" else (int, float)
        return isinstance(value, kinds) and not isinstance(value, bool)
    return isinstance(value, TYPES[name])


def schema_error(schema: dict, value, root: dict, where: str = "$") -> str | None:
    """The first way `value` breaks `schema` (a sub-schema of `root`), or None.

    It gives the same verdicts as jsonschema's Draft202012Validator on these
    schemas (compared on 20,000 mutated responses) in about a sixth of the
    time, which in a run is most of the time spent checking.
    """
    if "$ref" in schema:
        problem = schema_error(root["$defs"][schema["$ref"].removeprefix("#/$defs/")], value, root, where)
        if problem is not None:
            return problem
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_is_type(value, name) for name in names):
            return f"{where}: {value!r:.60} is not of type {names}"
    if "enum" in schema and not any(type(value) is type(e) and value == e for e in schema["enum"]):
        return f"{where}: {value!r:.60} is not one of {schema['enum']}"
    if "minimum" in schema and _is_type(value, "number") and value < schema["minimum"]:
        return f"{where}: {value} is less than {schema['minimum']}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{where}: fewer than {schema['minItems']} items"
        if "items" in schema:
            for i, item in enumerate(value):
                problem = schema_error(schema["items"], item, root, f"{where}[{i}]")
                if problem is not None:
                    return problem
    if isinstance(value, dict):
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            return f"{where}: missing {missing}"
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = props.get(key, extra)
            if sub is False:
                return f"{where}: unexpected property {key!r}"
            if sub is not True:
                problem = schema_error(sub, item, root, f"{where}.{key}")
                if problem is not None:
                    return problem
    return None


def _base_locus_values(ds, ws, ell, oracles) -> set:
    """Inclusion-maximal weight-value sets of coordinate strata in the base
    locus of |O(ell)| that a general member meets, over every index subset."""
    hits = set()
    for k in range(1, len(ws) + 1):
        for idx in combinations(range(len(ws)), k):
            stratum = tuple(ws[i] for i in idx)
            if not oracles.representable(ell, stratum) and oracles.stratum_meets(ds, ws, idx):
                hits.add(frozenset(stratum))
    return {W for W in hits if not any(W < V for V in hits)}


def check_response(req: dict, code: int, out: str, err: str, oracles, schemas) -> str | None:
    """None when the response checks out, else what is wrong with it."""
    if code != 0 or err:
        return f"exit {code}: {err.strip()[:200]}"
    try:
        resp = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    kind = req["kind"]
    problem = schema_error(schemas[kind], resp, schemas[kind])
    if problem is not None:
        return f"schema: {problem[:200]}"
    if kind == "frobenius":
        want = oracles.frobenius(req["gens"])
        return None if resp["frobenius"] == want else f"frobenius {resp['frobenius']} != {want}"
    ds, ws = tuple(req["ds"]), tuple(req["ws"])
    if kind == "check":
        cone = bool(set(ds) & set(ws))
        if resp["linear_cone"] != cone:
            return "linear_cone disagrees with the degrees and weights"
        wf = _space_well_formed(ws) and oracles.wci_well_formed(ds, ws)
        if resp["well_formed"] != wf:
            return "well_formed disagrees with the oracle"
        qs = None if cone else oracles.quasi_smooth(ds, ws)
        if resp["quasi_smooth"] != qs:
            return "quasi_smooth disagrees with the oracle"
        index = oracles.fundamental_index(ds, ws) if wf and qs else None
        if resp["fundamental_index"] != index:
            return f"fundamental_index {resp['fundamental_index']} != {index}"
    elif kind == "pair":
        h = req["h"]
        if resp["h_regular"] != oracles.h_regular(ds, ws, h):
            return "h_regular disagrees with the oracle"
    elif kind == "hilbert":
        coeffs = resp["coefficients"]
        upto = int(req["argv"][2])
        if resp["upto"] != upto or len(coeffs) != upto + 1:
            return f"{len(coeffs)} coefficients for upto {upto}"
        if resp["formal"]:
            return "formal flag set on a quasi-smooth well-formed family"
        k = upto // 4
        if coeffs[k] != oracles.h0(ds, ws, k):
            return f"h0 at {k} disagrees with the oracle"
    else:
        ell = int(req["argv"][2])
        got = {frozenset(c["values"]) for c in resp["components"]}
        if got != _base_locus_values(ds, ws, ell, oracles):
            return "base-locus components disagree with the oracle"
        if resp["base_point_free"] != (not got):
            return "base_point_free disagrees with the components"
    return None
