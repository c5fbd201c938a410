"""Generators for the extremal graphs the package certifies against.

Families:

* quasi_clique(n, m): a clique C([a], 2) plus b leftover edges from vertex
  a to the clique, where m = C(a, 2) + b with 0 <= b <= a - 1.
* quasi_star(n, m): the complement of quasi_clique(n, C(n,2) - m).
* ak_bipartite(r, s, m): columns filled left to right, m = p*r + q.
* b1_family / b2_family: column fillings that keep an ell-row degree-k
  witness, for the two branches m <= r*k with k + ell <= r (respectively
  k + ell > r) of the constrained bipartite bound.
* g1_family / g2_family: clique-plus-block general graphs carrying an
  independent ell-set of degree >= k.

Every generator returns exactly m edges and is built from a validated
integer decomposition; decompositions are computed with exact integer
arithmetic, never floating-point roots.  Index collisions (blocks that
would overlap for extreme parameters) are hard errors with a diagnostic,
because the asymptotic regime the formulas target never hits them but
small-n tests can.

The general families (quasi-clique/quasi-star, G1, G2) are each defined
once, as a layout of cliques and complete joins on vertex ranges.  The
generator builds its graph from the layout, and quasi_star_classes,
g1_classes and g2_classes return the degree multiset of the same layout in
time independent of n, which is what ``density`` sums at n up to 10**6.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, isqrt

from .graph_core import BipartiteGraph, ConstraintWitness, Graph


class ConstructionError(ValueError):
    """Parameters outside a generator's domain."""


def triangular_decomposition(m: int) -> tuple[int, int]:
    """Unique (a, b) with m = C(a, 2) + b and 0 <= b <= a - 1.

    For m = 0 this is (1, 0).
    """
    if m < 0:
        raise ConstructionError("m must be nonnegative")
    a = max(1, (1 + isqrt(1 + 8 * m)) // 2)
    while comb(a + 1, 2) <= m:
        a += 1
    while a > 1 and comb(a, 2) > m:
        a -= 1
    b = m - comb(a, 2)
    assert 0 <= b <= a - 1
    return a, b


def linear_decomposition(m: int, r: int) -> tuple[int, int]:
    """Unique (p, q) with m = p*r + q and 0 <= q <= r - 1."""
    if m < 0 or r < 0:
        raise ConstructionError("arguments must be nonnegative")
    if r == 0:
        if m != 0:
            raise ConstructionError("m must be 0 when the divisor is 0")
        return 0, 0
    return divmod(m, r)


# ----------------------------------------------------------------------
# general families as block layouts
#
# A layout is a list of blocks (A, B) of vertex ranges: a clique on A when
# A == B, otherwise a complete join in which every vertex of A precedes
# every vertex of B.  Each family's decomposition and domain checks live in
# its layout function only.


def _graph(n: int, m: int, blocks) -> Graph:
    g = Graph(n, {(u, v) for A, B in blocks for u in A for v in B if u < v})
    assert g.num_edges == m
    return g


def _degree_classes(n: int, blocks) -> Counter:
    """Degree multiset of the blocks' graph on n vertices, without edges.

    Degrees are constant between consecutive range ends.  Edgeless blocks
    are dropped first, since they may name a vertex past n (the remainder
    vertex when there are no remainder edges).
    """
    blocks = [(A, B) for A, B in blocks if B and len(A) > (A == B)]
    cuts = sorted({0, n}.union(*((A.start, A.stop, B.start, B.stop) for A, B in blocks)))
    classes = Counter()
    for lo, hi in zip(cuts, cuts[1:]):
        degree = sum(len(B) - (A == B) if lo in A else len(A) if lo in B else 0 for A, B in blocks)
        classes[degree] += hi - lo
    return classes


def _check_edge_count(n: int, m: int) -> None:
    if not 0 <= m <= comb(n, 2):
        raise ConstructionError(f"m={m} out of range for n={n}")


def _quasi_clique_layout(n: int, m: int) -> list:
    _check_edge_count(n, m)
    a, b = triangular_decomposition(m)
    return [(range(a), range(a)), (range(b), range(a, a + 1))]


def _quasi_star_layout(n: int, m: int) -> list:
    """Layout of the quasi-clique whose complement is the quasi-star."""
    _check_edge_count(n, m)
    return _quasi_clique_layout(n, comb(n, 2) - m)


def quasi_clique(n: int, m: int) -> Graph:
    """Clique on the first a vertices plus b edges from vertex a (0-based)."""
    return _graph(n, m, _quasi_clique_layout(n, m))


def quasi_star(n: int, m: int) -> Graph:
    """Complement of the quasi-clique with the complementary edge count."""
    return _graph(n, comb(n, 2) - m, _quasi_star_layout(n, m)).complement()


def quasi_star_classes(n: int, m: int) -> Counter:
    """Degree multiset of quasi_star(n, m), computed without its edges."""
    classes = _degree_classes(n, _quasi_star_layout(n, m))
    return Counter({n - 1 - degree: count for degree, count in classes.items()})


def ak_bipartite(r: int, s: int, m: int, *, require_wide: bool = True) -> BipartiteGraph:
    """Column filling: p full columns then q cells of column p.

    The public contract keeps r >= s (wide orientation); the relaxed form
    is used internally where the Zagreb decomposition identities evaluate
    the same shape with swapped part sizes.
    """
    if require_wide and r < s:
        raise ConstructionError(f"need r >= s, got r={r} < s={s}")
    if not 0 <= m <= r * s:
        raise ConstructionError(f"m={m} out of range for {r}x{s}")
    p, q = linear_decomposition(m, r)
    edges = {(i, j) for j in range(p) for i in range(r)}
    edges.update((i, p) for i in range(q))
    return BipartiteGraph(r, s, edges)


@dataclass(frozen=True)
class BipartiteFamilyParams:
    """Validated (r, s, m, ell, k) for the constrained bipartite family."""

    r: int
    s: int
    m: int
    ell: int
    k: int

    def __post_init__(self) -> None:
        r, s, m, ell, k = self.r, self.s, self.m, self.ell, self.k
        if min(r, s, m, ell, k) < 0:
            raise ConstructionError("parameters must be nonnegative")
        if r < s:
            raise ConstructionError(f"need r >= s, got {r} < {s}")
        if ell < k:
            raise ConstructionError(f"need ell >= k, got {ell} < {k}")
        if ell > r:
            raise ConstructionError(f"need ell <= r, got {ell} > {r}")
        if k > s:
            raise ConstructionError(f"need k <= s, got {k} > {s}")
        if not k * ell <= m <= r * s:
            raise ConstructionError(f"need k*ell <= m <= r*s, got m={m}")


def b1_family(params: BipartiteFamilyParams) -> BipartiteGraph:
    """Witness-first filling for the branch m <= r*k, k + ell <= r.

    Writes m = k*ell + p*(r - ell) + q and lays down p full columns, a
    partial column of ell + q cells, and the remaining witness rows across
    columns p+1..k-1.  At the boundary m = r*k the leftover decomposition
    degenerates (p = k would double-book the witness rows), so the full
    r x k block is returned instead; it has the same Zagreb index as the
    unconstrained column filling, which takes over from there.
    """
    r, s, m, ell, k = params.r, params.s, params.m, params.ell, params.k
    if m > r * k:
        raise ConstructionError(f"branch needs m <= r*k, got m={m} > {r * k}")
    if k + ell > r:
        raise ConstructionError(f"branch needs k + ell <= r, got {k + ell} > {r}")
    if r == ell:
        # only m = k*ell survives the constraints (forces k = 0, m = 0)
        p, q = 0, 0
        if m != k * ell:
            raise ConstructionError("m - k*ell must be 0 when r = ell")
    else:
        p, q = linear_decomposition(m - k * ell, r - ell)
    if p == k:
        assert q == 0 and m == r * k
        edges = {(i, j) for i in range(r) for j in range(k)}
        return BipartiteGraph(r, s, edges)
    edges = {(i, j) for j in range(p) for i in range(r)}
    edges.update((i, p) for i in range(ell + q))
    edges.update((i, j) for i in range(ell) for j in range(p + 1, k))
    assert len(edges) == m
    return BipartiteGraph(r, s, edges)


def b2_family(params: BipartiteFamilyParams) -> BipartiteGraph:
    """Witness-first filling for the branch m <= r*k, k + ell > r.

    Writes m = k*ell + p*k + q: ell + p full rows of length k plus q cells
    in the next row.
    """
    r, s, m, ell, k = params.r, params.s, params.m, params.ell, params.k
    if m > r * k:
        raise ConstructionError(f"branch needs m <= r*k, got m={m} > {r * k}")
    if k + ell <= r:
        raise ConstructionError(f"branch needs k + ell > r, got {k + ell} <= {r}")
    p, q = linear_decomposition(m - k * ell, k) if k > 0 else (0, 0)
    if k == 0 and m != 0:
        raise ConstructionError("m must be 0 when k = 0")
    edges = {(i, j) for i in range(ell + p) for j in range(k)}
    edges.update((ell + p, j) for j in range(q))
    assert len(edges) == m
    return BipartiteGraph(r, s, edges)


def _check_nonneg(n: int, m: int, ell: int, k: int) -> None:
    if min(n, m, ell, k) < 0:
        raise ConstructionError("parameters must be nonnegative")
    if ell > n:
        raise ConstructionError(f"need ell <= n, got {ell} > {n}")


def _g1_layout(n: int, m: int, ell: int, k: int) -> list:
    _check_nonneg(n, m, ell, k)
    if k > n - ell:
        raise ConstructionError(f"block rows collide with the witness: k={k} > n-ell={n - ell}")
    if m < k * ell:
        raise ConstructionError(f"need m >= k*ell, got m={m} < {k * ell}")
    a, b = triangular_decomposition(m - k * ell)
    top = a + 1 if b > 0 else a
    if top > n - ell:
        raise ConstructionError(
            f"clique collides with the witness: needs {top} vertices, only {n - ell} free"
        )
    return [(range(a), range(a)), (range(k), range(n - ell, n)), (range(b), range(a, a + 1))]


def g1_family(n: int, m: int, ell: int, k: int) -> Graph:
    """Clique plus k x ell block: m = k*ell + C(a, 2) + b.

    0-based layout: clique on 0..a-1, block rows 0..k-1 against the last
    ell vertices, b extra edges from vertex a.  The last ell vertices form
    the independent degree-k witness, so the clique, the block rows and
    vertex a must all stay below n - ell.
    """
    return _graph(n, m, _g1_layout(n, m, ell, k))


def g1_classes(n: int, m: int, ell: int, k: int) -> Counter:
    """Degree multiset of g1_family(n, m, ell, k), computed without its edges."""
    return _degree_classes(n, _g1_layout(n, m, ell, k))


def _g2_decomposition(m: int, ell: int) -> tuple[int, int]:
    """(a, b) with m = a*ell + C(a, 2) + b and a as large as possible.

    a*ell + C(a, 2) = C(a + ell, 2) - C(ell, 2), so a + ell and b come from
    the triangular decomposition of m + C(ell, 2), and 0 <= b <= a + ell - 1.
    """
    top, b = triangular_decomposition(m + comb(ell, 2))
    return top - ell, b


def _g2_layout(n: int, m: int, ell: int, k: int) -> tuple[int, int, list]:
    """(a, b, blocks) of the clique joined to the witness a..a+ell-1.

    The b remainder edges run from vertex a+ell to vertices 0..b-1.  When
    b > a they spill onto witness vertices from outside, which keeps the
    witness independent with degree floor a.
    """
    _check_nonneg(n, m, ell, k)
    a, b = _g2_decomposition(m, ell)
    if a < k:
        raise ConstructionError(f"witness degree a={a} below the floor k={k}")
    top = a + ell + 1 if b > 0 else a + ell
    if top > n:
        raise ConstructionError(f"needs {top} vertices, have n={n}")
    return a, b, [
        (range(a), range(a)),
        (range(a), range(a, a + ell)),
        (range(b), range(a + ell, a + ell + 1)),
    ]


def g2_family(n: int, m: int, ell: int, k: int) -> Graph:
    """Clique joined to an independent ell-set: m = a*ell + C(a, 2) + b.

    0-based layout: clique on 0..a-1, complete join to the witness
    a..a+ell-1, b extra edges from vertex a+ell.  The witness degree is a,
    so a >= k is required.
    """
    a, b, blocks = _g2_layout(n, m, ell, k)
    # Unlike g2_classes, the generator refuses the remainder spill.  Which
    # of the two is the paper's G2 is open (ROADMAP item 5).
    if b > a:
        raise ConstructionError(f"b={b} > a={a} would attach edges inside the witness")
    return _graph(n, m, blocks)


def g2_classes(n: int, m: int, ell: int, k: int) -> Counter:
    """Degree multiset of the G2 layout, remainder spill (b > a) included."""
    return _degree_classes(n, _g2_layout(n, m, ell, k)[2])


def g1_witness(n: int, ell: int, k: int) -> ConstraintWitness:
    return ConstraintWitness(tuple(range(n - ell, n)), ell, k)


def g2_witness(n: int, m: int, ell: int, k: int) -> ConstraintWitness:
    a, _ = _g2_decomposition(m, ell)
    return ConstraintWitness(tuple(range(a, a + ell)), ell, k)
