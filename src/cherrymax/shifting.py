"""Zagreb-monotone rewiring moves and shifted normal forms.

The single primitive is the swap: remove one edge, add one absent pair.
Its effect on the Zagreb index has a closed form in the endpoint degrees
(degrees taken before the move):

    disjoint pairs:     2*(d(x) + d(y) - d(u) - d(v)) + 4
    sharing one vertex: 2*(d(x) + d(y) - d(u) - d(v)) + 2

Both shift loops below compute it inline and log it with every move.
left_compress_with_log pushes every left-vertex neighborhood of a
bipartite graph into a prefix of the degree-sorted columns; swap_sides
exchanges the roles of the two parts when the right side has the smaller
maximum degree; both preserve edge count and witness degrees and never
decrease the Zagreb index.  shift_general_with_log is the analogous normal
form for general graphs carrying an independent-set witness.
analyze_omega reads off the clique-prefix statistic of a shifted graph:
the vertices outside the witness split into a leading clique and a
trailing independent set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import BipartiteGraph, ConstraintWitness, Graph, z1_index


@dataclass(frozen=True)
class SwapMove:
    """One rewiring step: removed must be an edge, added a non-edge."""

    removed: tuple[int, int]
    added: tuple[int, int]


# ----------------------------------------------------------------------
# bipartite compression


def _check_left_witness(b: BipartiteGraph, witness: ConstraintWitness) -> None:
    if any(not 0 <= v < b.r for v in witness.vertices):
        raise ValueError("witness vertices out of range for the left part")
    if len(witness.vertices) < witness.target_size:
        raise ValueError("witness smaller than its target size")
    deg = b.left_degrees()
    if any(deg[v] < witness.degree_floor for v in witness.vertices):
        raise ValueError("witness vertex below the degree floor")



def is_shifted(b: BipartiteGraph) -> bool:
    """Rows sorted by descending degree and every row a column prefix."""
    rows: list[set[int]] = [set() for _ in range(b.r)]
    for i, j in b.edges:
        rows[i].add(j)
    degs = [len(row) for row in rows]
    if any(degs[i] < degs[i + 1] for i in range(b.r - 1)):
        return False
    return all(row == set(range(len(row))) for row in rows)


def left_compress_with_log(
    b: BipartiteGraph, witness: ConstraintWitness
) -> tuple[BipartiteGraph, list[tuple[SwapMove, int]], list[int], list[int]]:
    """Slide every edge onto the busiest free column of its row.

    Each iteration ranks columns by current degree (stable by index),
    finds the first row whose neighborhood is not a prefix of that
    ranking, and moves the row's lowest-ranked offending edge into the
    lowest-ranked free column.  Re-ranking after every move keeps the
    target column's degree at least the source's, so every move raises
    the Zagreb index by at least 2, which also bounds the move count.

    The move log is recorded in the input labels, so replaying it from b
    reproduces the fixed point before relabeling.  The returned graph is
    that fixed point with rows in descending degree order and columns in
    final rank order; the applied orders come back as order[new] = old.
    Row degrees, and with them the witness, are untouched.
    """
    _check_left_witness(b, witness)
    rows: list[set[int]] = [set() for _ in range(b.r)]
    for i, j in b.edges:
        rows[i].add(j)
    coldeg = [0] * b.s
    for _, j in b.edges:
        coldeg[j] += 1
    log: list[tuple[SwapMove, int]] = []
    while True:
        col_order = sorted(range(b.s), key=lambda j: (-coldeg[j], j))
        col_rank = {j: p for p, j in enumerate(col_order)}
        found = None
        for i in range(b.r):
            ranks = {col_rank[j] for j in rows[i]}
            if not ranks or len(ranks) == max(ranks) + 1:
                continue
            hole = next(p for p in range(b.s) if p not in ranks)
            src = min(p for p in ranks if p > hole)
            found = (i, col_order[src], col_order[hole])
            break
        if found is None:
            break
        i, src, hole = found
        delta = 2 * (coldeg[hole] - coldeg[src]) + 2
        if delta < 2:
            raise AssertionError("compression move failed to increase the Zagreb index")
        rows[i].remove(src)
        rows[i].add(hole)
        coldeg[src] -= 1
        coldeg[hole] += 1
        log.append((SwapMove((i, src), (i, hole)), delta))

    rowdeg = [len(row) for row in rows]
    row_order = sorted(range(b.r), key=lambda i: (-rowdeg[i], i))
    col_order = sorted(range(b.s), key=lambda j: (-coldeg[j], j))
    row_rank = {i: p for p, i in enumerate(row_order)}
    col_rank = {j: p for p, j in enumerate(col_order)}
    edges = {(row_rank[i], col_rank[j]) for i in range(b.r) for j in rows[i]}
    out = BipartiteGraph(b.r, b.s, edges)
    if out.num_edges != b.num_edges:
        raise AssertionError("compression changed the edge count")
    if not is_shifted(out):
        raise AssertionError("fixed point fails the shifted-form check")
    floor, count = witness.degree_floor, witness.target_size
    if sum(1 for d in out.left_degrees() if d >= floor) < count:
        raise AssertionError("compression lost the witness")
    return out, log, row_order, col_order


def swap_sides(b: BipartiteGraph, witness: ConstraintWitness) -> BipartiteGraph:
    """Exchange part roles so the left part carries the larger maximum degree.

    Input must be shifted (a left_compress_with_log output).  If the
    right part already has maximum degree at least the left's, the graph
    is returned unchanged.  Otherwise one of two Zagreb-preserving rewirings applies,
    selected by whether row k-1 still reaches column ell-1:

    * transpose: with the right maximum below s, at most s - 1 rows are
      non-isolated, so transposing the edge matrix and refilling the left
      part with the isolated rows swaps the part sizes back to (r, s);
    * degree exchange: past the first index t where the column degree
      catches up with the row degree, rows and columns above T = coldeg[t]
      trade their degree sequences pairwise.

    Both keep the edge count, the Zagreb index, and an ell-row degree-k
    witness, and leave the right maximum degree >= the left one.
    """
    if not is_shifted(b):
        raise ValueError("swap_sides requires a shifted input")
    if b.r < b.s:
        raise ValueError("swap_sides expects the wide orientation r >= s")
    _check_left_witness(b, witness)
    if witness.degree_floor > witness.target_size:
        raise ValueError("swap_sides needs the family hypothesis ell >= k")
    ell, k = witness.target_size, witness.degree_floor
    rowdeg, coldeg = b.left_degrees(), b.right_degrees()
    if b.delta_right >= b.delta_left:
        return b
    if sum(1 for d in rowdeg if d >= k) < ell:
        raise ValueError("input lacks an ell-row degree-k witness")
    m, z1 = b.num_edges, z1_index(b)

    if k == 0 or rowdeg[k - 1] >= ell:
        # transpose branch: all edges live in rows 0..s-2
        if any(i >= b.s for i, _ in b.edges):
            raise AssertionError("non-isolated row at index >= s in transpose branch")
        out = BipartiteGraph(b.r, b.s, {(j, i) for i, j in b.edges})
    else:
        # degree-exchange branch
        if coldeg[k - 1] < ell:
            raise AssertionError("witness forces column k-1 to have degree >= ell")
        t = next(i for i in range(k) if coldeg[i] >= rowdeg[i])
        if t == 0:
            raise AssertionError("t = 0 contradicts delta_right < delta_left")
        bigt = coldeg[t]
        edges = set(b.edges)
        for j in range(t):
            for i in range(bigt, coldeg[j]):
                edges.discard((i, j))
            for i in range(bigt, rowdeg[j]):
                edges.discard((j, i))
            for i in range(bigt, rowdeg[j]):
                edges.add((i, j))
            for i in range(bigt, coldeg[j]):
                edges.add((j, i))
        out = BipartiteGraph(b.r, b.s, edges)
        nrow, ncol = out.left_degrees(), out.right_degrees()
        for i in range(t):
            if (nrow[i], ncol[i]) != (coldeg[i], rowdeg[i]):
                raise AssertionError("degree pair not exchanged below t")
        for i in range(t, min(bigt, b.s)):
            if (nrow[i], ncol[i]) != (rowdeg[i], coldeg[i]):
                raise AssertionError("degree pair changed between t and T")

    if out.num_edges != m or z1_index(out) != z1:
        raise AssertionError("swap_sides must preserve edge count and Zagreb index")
    if sum(1 for d in out.left_degrees() if d >= k) < ell:
        raise AssertionError("swap_sides lost the witness")
    if out.delta_right < out.delta_left:
        raise AssertionError("swap_sides left the maximum degree on the left")
    return out


# ----------------------------------------------------------------------
# general-graph shifting


def shift_general_with_log(
    g: Graph, witness: ConstraintWitness
) -> tuple[Graph, list[tuple[SwapMove, int]], list[int]]:
    """Normal form for a graph with an independent-set witness.

    Ranks the witness first and the outside block by descending current
    degree, then repeatedly applies the first rank-space violation as a
    swap: witness edges slide to the lowest-ranked free outside vertex,
    and outside-outside edges slide to the earliest absent pair they
    dominate.  The outside ranking is recomputed after every move, which
    is what guarantees each edge slides toward equal-or-larger current
    degrees; every move therefore raises the Zagreb index by at least 2,
    and witness degrees never change.

    The move log is recorded in the input graph's own labels, each pair as
    (smaller, larger) like the edges of g, so replaying its swaps on the
    edges of g reproduces the fixed point before relabeling.  The returned
    graph is that fixed point relabeled by the final ranking
    (order[new] = old).
    """
    witness.check_in(g)
    iset = set(witness.vertices)
    nw = len(witness.vertices)
    adj = [set(nbrs) for nbrs in g.adjacency()]

    def ranking() -> list[int]:
        head = sorted(witness.vertices, key=lambda v: (-len(adj[v]), v))
        tail = sorted(
            (v for v in range(g.n) if v not in iset),
            key=lambda v: (-len(adj[v]), v),
        )
        return head + tail

    def find_move(order: list[int], rank: dict[int, int]):
        for u in order[:nw]:
            ranks = {rank[v] for v in adj[u]}
            if not ranks:
                continue
            if max(ranks) - nw + 1 == len(ranks):
                continue
            hole = next(i for i in range(nw, g.n) if i not in ranks)
            src = min(i for i in ranks if i > hole)
            return (u, order[src]), (u, order[hole])
        for i in range(nw, g.n):
            for j in range(i + 1, g.n):
                if order[j] not in adj[order[i]]:
                    continue
                for p in range(nw, i + 1):
                    for q in range(p + 1, j + 1):
                        if (p, q) != (i, j) and order[q] not in adj[order[p]]:
                            return (order[i], order[j]), (order[p], order[q])
        return None

    log: list[tuple[SwapMove, int]] = []
    while True:
        order = ranking()
        rank = {v: i for i, v in enumerate(order)}
        move = find_move(order, rank)
        if move is None:
            break
        (u, v), (x, y) = move
        base = 2 * (len(adj[x]) + len(adj[y]) - len(adj[u]) - len(adj[v]))
        delta = base + (2 if {u, v} & {x, y} else 4)
        if delta < 2:
            raise AssertionError("shifting move failed to increase the Zagreb index")
        adj[u].discard(v)
        adj[v].discard(u)
        adj[x].add(y)
        adj[y].add(x)
        log.append((SwapMove((min(u, v), max(u, v)), (min(x, y), max(x, y))), delta))

    order = ranking()
    rank = {v: i for i, v in enumerate(order)}
    edges = {(rank[u], rank[v]) for u in range(g.n) for v in adj[u] if rank[u] < rank[v]}
    out = Graph(g.n, edges)
    if out.num_edges != g.num_edges:
        raise AssertionError("shifting changed the edge count")
    if not is_shifted_general(out, nw):
        raise AssertionError("fixed point fails the shifted-form check")
    new_witness = ConstraintWitness(
        tuple(range(nw)), witness.target_size, witness.degree_floor
    )
    new_witness.check_in(out)
    return out, log, order


def is_shifted_general(g: Graph, witness_size: int) -> bool:
    """Both closure properties of the shifted normal form.

    With the first witness_size vertices forming the witness: every
    witness neighborhood is a prefix of the outside block, and every
    outside-outside edge dominates all pairs below it.
    """
    nw = witness_size
    adj = g.adjacency()
    for u in range(nw):
        nbrs = adj[u]
        if any(v < nw for v in nbrs):
            return False
        if nbrs and max(nbrs) - nw + 1 != len(nbrs):
            return False
    for i in range(nw, g.n):
        for j in range(i + 1, g.n):
            if j not in adj[i]:
                continue
            for p in range(nw, i + 1):
                for q in range(p + 1, j + 1):
                    if q not in adj[p]:
                        return False
    return True


@dataclass(frozen=True)
class ShiftAnalysis:
    """Clique-prefix split of the outside block of a shifted graph."""

    omega: int
    clique_block: tuple[int, ...]
    independent_block: tuple[int, ...]


def analyze_omega(g: Graph, witness: ConstraintWitness) -> ShiftAnalysis:
    """omega = largest i with consecutive outside vertices i-1, i adjacent.

    In a shifted graph the first omega outside vertices form a clique and
    the rest induce no edges; both are verified and a violation (meaning
    the input was not shifted) raises ValueError.  An edgeless outside
    block gives omega = 1 with a singleton clique block.
    """
    nw = len(witness.vertices)
    if not is_shifted_general(g, nw):
        raise ValueError("analyze_omega requires a shifted graph")
    nv = g.n - nw
    omega = 1 if nv > 0 else 0
    for i in range(2, nv + 1):
        if g.has_edge(nw + i - 2, nw + i - 1):
            omega = i
    clique = tuple(range(nw, nw + omega))
    indep = tuple(range(nw + omega, g.n))
    for a in range(len(clique)):
        for bb in range(a + 1, len(clique)):
            if not g.has_edge(clique[a], clique[bb]):
                raise ValueError("clique block is not complete; input not shifted")
    for a in range(len(indep)):
        for bb in range(a + 1, len(indep)):
            if g.has_edge(indep[a], indep[bb]):
                raise ValueError("independent block has an edge; input not shifted")
    return ShiftAnalysis(omega, clique, indep)
