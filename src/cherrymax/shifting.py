"""Zagreb-monotone rewiring moves and shifted normal forms.

The single primitive is the swap: remove one edge, add one absent pair.
Its effect on the Zagreb index has a closed form in the endpoint degrees
(degrees taken before the move):

    disjoint pairs:     2*(d(x) + d(y) - d(u) - d(v)) + 4
    sharing one vertex: 2*(d(x) + d(y) - d(u) - d(v)) + 2

Both shift loops compute it inline and log it with every move.

The shifted form is defined once, on boolean adjacency matrices, by the
violation finder: _first_break finds the first row that is not a prefix,
_outside_break the first outside-outside edge that does not dominate
every pair below it, and _violation tries the witness rows, then the
outside block.  The shift loops apply what it finds on the matrix
permuted into the current ranking; is_shifted and is_shifted_general
ask that it find nothing on the matrix in index order.

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

import numpy as np

from .graph_core import BipartiteGraph, ConstraintWitness, Graph, z1_index


@dataclass(frozen=True)
class SwapMove:
    """One rewiring step: removed must be an edge, added a non-edge."""

    removed: tuple[int, int]
    added: tuple[int, int]


# ----------------------------------------------------------------------
# the violation finder


def _matrix(shape: tuple[int, int], pairs) -> np.ndarray:
    """Boolean matrix that is True exactly at the given (row, column) pairs."""
    rows, cols = np.array(list(pairs), dtype=np.intp).reshape(-1, 2).T
    out = np.zeros(shape, dtype=bool)
    out[rows, cols] = True
    return out


def _adjacency(g: Graph) -> np.ndarray:
    adj = _matrix((g.n, g.n), g.edges)
    return adj | adj.T


def _ranked(deg: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """vertices by descending degree, ties in the given (ascending) order."""
    return vertices[np.argsort(-deg[vertices], kind="stable")]


def _first_break(rows: np.ndarray) -> tuple[int, int, int] | None:
    """(row, hole, src) for the first row that is not a prefix, else None.

    hole is the row's first False and src the first True after it.
    """
    breaks = rows[:, 1:] & ~rows[:, :-1]
    hit = breaks.any(axis=1)
    if not hit.any():
        return None
    row = int(hit.argmax())
    return row, int(rows[row].argmin()), int(breaks[row].argmax()) + 1


def _outside_break(block: np.ndarray) -> tuple[int, int, int, int] | None:
    """(i, j, p, q) for the first edge (i, j), i < j, of a symmetric block,
    row by row, that dominates an absent pair (p, q): p <= i, p < q <= j.

    With gap(p) the first absent q > p (len(block) if none), that is the
    first edge with j >= min over p <= i of gap(p), and (p, q) is
    (p*, gap(p*)) for the smallest p* <= i with gap(p*) <= j.
    """
    nv = len(block)
    cols = np.arange(nv)
    absent = ~block & (cols > cols[:, None])
    gap = np.c_[absent, np.ones(nv, dtype=bool)].argmax(axis=1)
    # the mirror (j, i) of an offending (i, j) with j < i offends too, and
    # comes first, so the lower triangle need not be masked off
    offending = block & (cols >= np.minimum.accumulate(gap)[:, None])
    if not offending.any():
        return None
    i, j = divmod(int(offending.argmax()), nv)
    p = int((gap[: i + 1] <= j).argmax())
    return i, j, p, int(gap[p])


def _violation(adj: np.ndarray, nw: int) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """First (edge, absent pair) swap that the shifted form forbids, in
    positions of adj, whose first nw vertices are the witness."""
    hit = _first_break(adj[:nw, nw:])
    if hit is not None:
        u, hole, src = hit
        return (u, nw + src), (u, nw + hole)
    hit = _outside_break(adj[nw:, nw:])
    if hit is None:
        return None
    i, j, p, q = (nw + x for x in hit)
    return (i, j), (p, q)


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
    m = _matrix((b.r, b.s), b.edges)
    deg = m.sum(axis=1)
    return bool((deg[:-1] >= deg[1:]).all()) and _first_break(m) is None


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
    m = _matrix((b.r, b.s), b.edges)
    log: list[tuple[SwapMove, int]] = []
    while True:
        coldeg = m.sum(axis=0)
        col_order = _ranked(coldeg, np.arange(b.s))
        found = _first_break(m[:, col_order])
        if found is None:
            break
        i, hole, src = found
        src, hole = int(col_order[src]), int(col_order[hole])
        delta = 2 * int(coldeg[hole] - coldeg[src]) + 2
        if delta < 2:
            raise AssertionError("compression move failed to increase the Zagreb index")
        m[i, src], m[i, hole] = False, True
        log.append((SwapMove((i, src), (i, hole)), delta))

    row_order = _ranked(m.sum(axis=1), np.arange(b.r))
    out = BipartiteGraph(b.r, b.s, np.argwhere(m[np.ix_(row_order, col_order)]).tolist())
    if out.num_edges != b.num_edges:
        raise AssertionError("compression changed the edge count")
    if not is_shifted(out):
        raise AssertionError("fixed point fails the shifted-form check")
    floor, count = witness.degree_floor, witness.target_size
    if sum(1 for d in out.left_degrees() if d >= floor) < count:
        raise AssertionError("compression lost the witness")
    return out, log, row_order.tolist(), col_order.tolist()


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
        grid = _matrix((b.r, b.s), b.edges)
        for j in range(t):
            grid[bigt : coldeg[j], j] = grid[j, bigt : rowdeg[j]] = False
            grid[bigt : rowdeg[j], j] = grid[j, bigt : coldeg[j]] = True
        out = BipartiteGraph(b.r, b.s, np.argwhere(grid).tolist())
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
    nw = len(witness.vertices)
    adj = _adjacency(g)
    head = np.array(witness.vertices, dtype=np.intp)
    tail = np.setdiff1d(np.arange(g.n), head)

    log: list[tuple[SwapMove, int]] = []
    while True:
        deg = adj.sum(axis=1)
        order = np.concatenate([_ranked(deg, head), _ranked(deg, tail)])
        move = _violation(adj[np.ix_(order, order)], nw)
        if move is None:
            break
        (u, v), (x, y) = ((int(order[a]), int(order[b])) for a, b in move)
        delta = 2 * int(deg[x] + deg[y] - deg[u] - deg[v]) + (2 if {u, v} & {x, y} else 4)
        if delta < 2:
            raise AssertionError("shifting move failed to increase the Zagreb index")
        adj[u, v] = adj[v, u] = False
        adj[x, y] = adj[y, x] = True
        log.append((SwapMove((min(u, v), max(u, v)), (min(x, y), max(x, y))), delta))

    out = Graph(g.n, np.argwhere(np.triu(adj[np.ix_(order, order)], 1)).tolist())
    if out.num_edges != g.num_edges:
        raise AssertionError("shifting changed the edge count")
    if not is_shifted_general(out, nw):
        raise AssertionError("fixed point fails the shifted-form check")
    ConstraintWitness(tuple(range(nw)), witness.target_size, witness.degree_floor).check_in(out)
    return out, log, order.tolist()


def is_shifted_general(g: Graph, witness_size: int) -> bool:
    """Both closure properties of the shifted normal form.

    With the first witness_size vertices forming the witness: every
    witness neighborhood is a prefix of the outside block, and every
    outside-outside edge dominates all pairs below it.
    """
    adj = _adjacency(g)
    return not adj[:witness_size, :witness_size].any() and _violation(adj, witness_size) is None


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
    outside = _adjacency(g)[nw:, nw:]
    chain = np.flatnonzero(np.diagonal(outside, 1))
    omega = int(chain[-1]) + 2 if chain.size else min(1, len(outside))
    if outside[:omega, :omega].sum() != omega * (omega - 1):
        raise ValueError("clique block is not complete; input not shifted")
    if outside[omega:, omega:].any():
        raise ValueError("independent block has an edge; input not shifted")
    return ShiftAnalysis(omega, tuple(range(nw, nw + omega)), tuple(range(nw + omega, g.n)))
