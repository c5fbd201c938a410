"""Workload definitions and output checks for the cherrymax gate benchmark.

A workload is a fixed list of gate invocations of the ``cherrymax`` CLI.
Gate parameters never change with the seed; the seed only draws the random
graphs that the ``shift`` gates read on stdin.  Every gate carries a check
that decides whether its output is correct:

* deterministic gates compare their stdout against a digest recorded from
  the seed commit (``reference.json``); ``verify-appendix`` is compared
  with its ``wall_time_s`` fields removed, because the CLI exempts them
  from byte identity;
* ``verify-theorem`` additionally needs ``match`` true on every row and
  ``verify-appendix`` needs ``"passed": true``;
* ``shift`` output is replayed move by move without importing cherrymax.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("sweep", "query", "numeric")

# Per-gate metric names, grouped by the workload that runs the gate.
GATE_METRICS = {
    "sweep": ("theorem_1.1_s", "theorem_1.6_s", "theorem_1.7_s", "theorem_1.8_s"),
    "query": ("maximize_s", "maximize_shifted_s", "shift_s"),
    "numeric": ("appendix_s", "density_s"),
}


@dataclass(frozen=True)
class Gate:
    """One CLI invocation: ``cherrymax <argv>`` with optional stdin.

    ``ref`` names the reference digest the output must match (None for
    seeded gates, which are checked structurally); ``kind`` selects the
    structural check; ``metric`` is the per-gate time it adds to.
    """

    name: str
    metric: str
    argv: tuple[str, ...]
    kind: str
    ref: str | None = None
    stdin: str | None = None


def _sweep() -> list[Gate]:
    sizes = (("1.1", 7), ("1.6", 22), ("1.7", 20), ("1.8", 18))
    return [
        Gate(
            f"theorem_{thm}",
            f"theorem_{thm}_s",
            ("verify-theorem", "--theorem", thm, "--max-size", str(size)),
            "sweep",
            ref=f"theorem_{thm}",
        )
        for thm, size in sizes
    ]


_POINT_QUERIES = (
    ("left_m6", ("--family", "bipartite-left", "--r", "6", "--s", "4", "--ell", "3", "--k", "2", "--m", "6")),
    ("left_m12", ("--family", "bipartite-left", "--r", "6", "--s", "4", "--ell", "3", "--k", "2", "--m", "12")),
    ("right_m18", ("--family", "bipartite-right", "--r", "6", "--s", "4", "--ell", "3", "--k", "2", "--m", "18")),
    ("general_n7_m10", ("--family", "general", "--n", "7", "--m", "10", "--ell", "3", "--k", "2")),
)


def _query(seed: int) -> list[Gate]:
    gates = []
    for jobs in ("1", "2"):
        for name, flags in _POINT_QUERIES:
            gates.append(
                Gate(
                    f"maximize_{name}_jobs{jobs}",
                    "maximize_s",
                    ("maximize", *flags, "--jobs", jobs),
                    "exact",
                    # the --jobs 2 run must reproduce the --jobs 1 bytes
                    ref=f"maximize_{name}",
                )
            )
    gates.append(
        Gate(
            "maximize_shifted_12x12",
            "maximize_shifted_s",
            ("maximize", "--family", "bipartite-left", "--r", "12", "--s", "12",
             "--ell", "4", "--k", "3", "--m", "72", "--mode", "shifted"),
            "exact",
            ref="maximize_shifted_12x12",
        )
    )
    graph, witness, floor = general_shift_input(seed)
    gates.append(
        Gate(
            "shift_general_40",
            "shift_s",
            ("shift", "--input", "-", "--witness", ",".join(map(str, witness)),
             "--degree-floor", str(floor)),
            "shift",
            stdin=json.dumps(graph),
        )
    )
    gates.append(
        Gate(
            "shift_bipartite_60x60",
            "shift_s",
            ("shift", "--input", "-"),
            "shift",
            stdin=json.dumps(bipartite_shift_input(seed)),
        )
    )
    return gates


def _numeric() -> list[Gate]:
    gates = [
        Gate(
            "appendix_150",
            "appendix_s",
            ("verify-appendix", "--steps", "150"),
            "appendix",
            ref="appendix_150",
        )
    ]
    n_values = "n=" + ",".join(str(10**e) for e in range(2, 7))
    for family in ("quasi_star", "g1", "g2"):
        gates.append(
            Gate(
                f"density_converge_{family}",
                "density_s",
                ("density", "--converge", f"family={family}", "rho=0.68",
                 "alpha=0.2", "beta=0.2", n_values),
                "exact",
                ref=f"density_converge_{family}",
            )
        )
    gates.append(
        Gate(
            "density_scan",
            "density_s",
            ("density", "--scan", "rho=0.6:0.8:0.005", "alpha=0:0.5:0.01", "beta=0:0.5:0.01"),
            "exact",
            ref="density_scan",
        )
    )
    return gates


def workload_gates(workload: str, seed: int) -> list[Gate]:
    if workload == "sweep":
        return _sweep()
    if workload == "query":
        return _query(seed)
    if workload == "numeric":
        return _numeric()
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# seeded inputs


def general_shift_input(seed: int, n: int = 40, witness_size: int = 6):
    """G(n, 1/2) with a random witness set made independent.

    Returns the graph JSON, the witness vertices and the degree floor,
    which is the smallest witness degree.
    """
    rng = random.Random(f"general:{seed}")
    witness = sorted(rng.sample(range(n), witness_size))
    inside = set(witness)
    edges = [
        [u, v]
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.5 and not (u in inside and v in inside)
    ]
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return {"n": n, "edges": edges}, witness, min(degree[v] for v in witness)


def bipartite_shift_input(seed: int, r: int = 60, s: int = 60):
    rng = random.Random(f"bipartite:{seed}")
    edges = [[i, j] for i in range(r) for j in range(s) if rng.random() < 0.5]
    return {"r": r, "s": s, "edges": edges}


# ----------------------------------------------------------------------
# output checks


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


_WALL_TIME_VALUE = re.compile(rb'"wall_time_s": ([^,}\s]+)')


def stable_size(out: bytes) -> int:
    """Output bytes, not counting the digits of wall_time_s values."""
    return len(out) - sum(len(m.group(1)) for m in _WALL_TIME_VALUE.finditer(out))


def digest(kind: str, out: bytes) -> str:
    """sha256 of the part of a gate's stdout that must be byte-identical."""
    if kind == "appendix":
        out = json.dumps(_strip_wall_time(json.loads(out)), sort_keys=True).encode()
    return hashlib.sha256(out).hexdigest()


def check_output(gate: Gate, out: bytes, reference: dict) -> str | None:
    """Return None when the output is correct, else the reason it is not."""
    try:
        if gate.kind == "shift":
            return check_shift(gate, json.loads(out))
        if gate.kind == "sweep":
            lines = out.decode().splitlines()
            if not lines or not lines[0].endswith(",match"):
                return "missing match column"
            if not all(line.endswith(",True") for line in lines[1:]):
                return "a sweep row has match False"
        if gate.kind == "appendix" and json.loads(out).get("passed") is not True:
            return "verify-appendix did not pass"
        if digest(gate.kind, out) != reference.get(gate.ref):
            return f"output differs from reference {gate.ref!r}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def _flag(gate: Gate, name: str, default: str) -> str:
    return gate.argv[gate.argv.index(name) + 1] if name in gate.argv else default


def _z1(degree: Counter) -> int:
    return sum(d * d for d in degree.values())


def check_shift(gate: Gate, payload: dict) -> str | None:
    """Replay the emitted move log on the input graph.

    Checks that every move removes an edge and adds a non-edge, that each
    logged delta is the recomputed Zagreb change and is at least 2, that
    the deltas sum to z1_after - z1_before, that the relabeled end state
    is the emitted graph with the same edge count, and that every witness
    vertex keeps its degree floor.
    """
    graph = json.loads(gate.stdin)
    # a vertex is (side, index): rows "L" and columns "R", or "V" for both
    # ends of a general graph; rank maps an input index to its output index
    if "r" in graph:
        sides = ("L", "R")
        rank = {"L": payload["row_order"], "R": payload["col_order"]}
    else:
        sides = ("V", "V")
        rank = {"V": payload["vertex_order"]}
    rank = {side: {old: new for new, old in enumerate(order)} for side, order in rank.items()}
    witness = [(sides[0], int(v)) for v in _flag(gate, "--witness", "").split(",") if v]
    floor = int(_flag(gate, "--degree-floor", "0"))

    def edge(pair):
        return tuple(sorted(((sides[0], pair[0]), (sides[1], pair[1]))))

    edges = {edge(e) for e in graph["edges"]}
    degree = Counter(v for e in edges for v in e)
    if payload["z1_before"] != _z1(degree):
        return "z1_before differs from the input graph"

    total = 0
    for move in payload["moves"]:
        removed, added, delta = edge(move["removed"]), edge(move["added"]), move["delta"]
        if removed not in edges or added in edges:
            return f"move {move} is not an edge swap"
        touched = set(removed) | set(added)
        before = sum(degree[v] ** 2 for v in touched)
        edges.remove(removed)
        edges.add(added)
        degree.subtract(removed)
        degree.update(added)
        if delta != sum(degree[v] ** 2 for v in touched) - before:
            return f"move {move} logs a wrong delta"
        if delta < 2:
            return f"move {move} does not raise z1 by at least 2"
        total += delta

    emitted = [edge(e) for e in payload["graph"]["edges"]]
    if len(set(emitted)) != len(emitted) or len(emitted) != len(graph["edges"]):
        return "edge count not preserved"
    relabeled = {tuple(sorted((side, rank[side][i]) for side, i in e)) for e in edges}
    if relabeled != set(emitted):
        return "replayed moves do not give the emitted graph"
    out_degree = Counter(v for e in emitted for v in e)
    if payload["z1_after"] != _z1(out_degree):
        return "z1_after differs from the emitted graph"
    if total != payload["z1_after"] - payload["z1_before"]:
        return "deltas do not sum to z1_after - z1_before"
    for side, v in witness:
        if out_degree[(side, rank[side][v])] < floor:
            return f"witness vertex {v} fell below the degree floor"
    return None
