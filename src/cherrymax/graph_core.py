"""Immutable graph values and exact cherry / Zagreb-index counting.

A cherry is a two-edge star (a path on three vertices, counted at its
center).  For a graph G the number of cherries is sum over vertices of
C(d(v), 2), and the first Zagreb index is sum of d(v)^2.  The two are tied
by the exact identity

    z1 = 2 * cherries + 2 * edges

which every counting routine here is tested against.

Vertices are 0-based contiguous integers.  Graph and BipartiteGraph are
frozen values; transformations elsewhere in the package always build new
objects.  All counting is exact integer arithmetic.  A guard rejects vertex
counts so large that the square of the edge count would no longer fit in a
signed 64-bit word, because downstream consumers (the vectorized oracle,
CSV readers) assume 64-bit-safe magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, isqrt

DEFAULT_BIT_CAP = 24


class SearchCapExceededError(RuntimeError):
    """A search space or grid is larger than 2^cap, its configured cap."""


def _max_safe_vertices() -> int:
    # Largest n with C(n, 2)**2 <= 2**63 - 1.
    cap = isqrt(2**63 - 1)
    n = (1 + isqrt(1 + 8 * cap)) // 2
    while comb(n + 1, 2) <= cap:
        n += 1
    while n > 0 and comb(n, 2) > cap:
        n -= 1
    return n


MAX_VERTICES = _max_safe_vertices()


def _normalize_edges(n: int, edges, *, what: str = "vertex") -> frozenset[tuple[int, int]]:
    norm = set()
    for e in edges:
        u, v = e
        if u == v:
            raise ValueError(f"loop at {what} {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{what} pair {(u, v)} out of range for n={n}")
        norm.add((u, v) if u < v else (v, u))
    return frozenset(norm)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertex set {0, ..., n-1}."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if self.n > MAX_VERTICES:
            raise ValueError(
                f"n={self.n} exceeds the 64-bit overflow guard ({MAX_VERTICES})"
            )
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with left part {0..r-1} and right part {0..s-1}.

    Edges are (left index, right index) pairs.  The parts are disjoint by
    construction even when indices coincide numerically.
    """

    r: int
    s: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.r < 0 or self.s < 0:
            raise ValueError("part sizes must be nonnegative")
        if self.r + self.s > MAX_VERTICES:
            raise ValueError("part sizes exceed the 64-bit overflow guard")
        norm = set()
        for e in self.edges:
            i, j = e
            if not (0 <= i < self.r and 0 <= j < self.s):
                raise ValueError(f"cell {(i, j)} out of range for {self.r}x{self.s}")
            norm.add((i, j))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def left_degrees(self) -> list[int]:
        deg = [0] * self.r
        for i, _ in self.edges:
            deg[i] += 1
        return deg

    def right_degrees(self) -> list[int]:
        deg = [0] * self.s
        for _, j in self.edges:
            deg[j] += 1
        return deg

    @property
    def delta_left(self) -> int:
        return max(self.left_degrees(), default=0)

    @property
    def delta_right(self) -> int:
        return max(self.right_degrees(), default=0)


@dataclass(frozen=True)
class ConstraintWitness:
    """An independent set certifying family membership.

    vertices must be pairwise nonadjacent, have at least target_size
    members, and each must have degree at least degree_floor.
    """

    vertices: tuple[int, ...]
    target_size: int
    degree_floor: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        if self.target_size < 0 or self.degree_floor < 0:
            raise ValueError("witness parameters must be nonnegative")

    def holds_in(self, g: Graph) -> bool:
        if len(self.vertices) < self.target_size:
            return False
        if any(not 0 <= v < g.n for v in self.vertices):
            return False
        deg = g.degrees()
        if any(deg[v] < self.degree_floor for v in self.vertices):
            return False
        vs = self.vertices
        return all(not g.has_edge(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs)))

    def check_in(self, g: Graph) -> None:
        if not self.holds_in(g):
            raise ValueError("constraint witness does not hold in the graph")


# ----------------------------------------------------------------------
# counting


def count_cherries(g: Graph | BipartiteGraph) -> int:
    """Number of two-edge stars, sum over vertices of C(d, 2)."""
    return sum(comb(d, 2) for d in _all_degrees(g))


def z1_index(g: Graph | BipartiteGraph) -> int:
    """First Zagreb index, sum over vertices of d^2."""
    return sum(d * d for d in _all_degrees(g))


def _all_degrees(g: Graph | BipartiteGraph) -> list[int]:
    if isinstance(g, BipartiteGraph):
        return g.left_degrees() + g.right_degrees()
    return g.degrees()


# ----------------------------------------------------------------------
# JSON interchange


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(obj: dict) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph JSON must have keys 'n' and 'edges'")
    return Graph(int(obj["n"]), {(int(u), int(v)) for u, v in obj["edges"]})


def bipartite_to_json(b: BipartiteGraph) -> dict:
    return {"r": b.r, "s": b.s, "edges": [list(e) for e in sorted(b.edges)]}


def bipartite_from_json(obj: dict) -> BipartiteGraph:
    if not isinstance(obj, dict) or not {"r", "s", "edges"} <= set(obj):
        raise ValueError("bipartite JSON must have keys 'r', 's' and 'edges'")
    return BipartiteGraph(int(obj["r"]), int(obj["s"]), {(int(i), int(j)) for i, j in obj["edges"]})


def from_json_obj(obj: dict) -> Graph | BipartiteGraph:
    """Auto-detect the serialized type by its keys."""
    if "r" in obj and "s" in obj:
        return bipartite_from_json(obj)
    return graph_from_json(obj)
