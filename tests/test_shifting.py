"""Zagreb-monotone rewiring moves and their structural guarantees."""

import random
from collections import Counter

import pytest

from cherrymax.constructions import ak_bipartite
from cherrymax.graph_core import (
    BipartiteGraph,
    ConstraintWitness,
    Graph,
    z1_index,
)
from cherrymax.shifting import (
    SwapMove,
    analyze_omega,
    is_shifted,
    is_shifted_general,
    left_compress_with_log,
    shift_general_with_log,
    swap_sides,
)


def random_bipartite(rng: random.Random, max_cells: int = 20):
    r = rng.randint(1, max_cells)
    s = rng.randint(1, max(1, max_cells // r))
    cells = [(i, j) for i in range(r) for j in range(s)]
    m = rng.randint(0, len(cells))
    return BipartiteGraph(r, s, rng.sample(cells, m))


def witness_for(rng: random.Random, b: BipartiteGraph) -> ConstraintWitness:
    """The ell busiest rows, with the degree floor they actually meet."""
    degs = b.left_degrees()
    ell = rng.randint(1, b.r)
    rows = sorted(range(b.r), key=lambda i: (-degs[i], i))[:ell]
    return ConstraintWitness(tuple(rows), ell, min(degs[i] for i in rows))


def test_left_compress_fixed_point():
    b = ak_bipartite(3, 2, 4)
    out, log, _, _ = left_compress_with_log(b, ConstraintWitness((0,), 1, 0))
    assert out == b
    assert log == []


def test_left_compress_antidiagonal():
    b = BipartiteGraph(2, 2, [(0, 1), (1, 0)])
    out = left_compress_with_log(b, ConstraintWitness((0,), 1, 1))[0]
    assert sorted(out.edges) == [(0, 0), (1, 0)]
    assert z1_index(out) == 6


def test_left_compress_properties():
    rng = random.Random(31337)
    for _ in range(200):
        b = random_bipartite(rng)
        w = witness_for(rng, b)
        before = z1_index(b)
        out, log, _, _ = left_compress_with_log(b, w)
        assert out.num_edges == b.num_edges
        assert z1_index(out) >= before
        assert z1_index(out) == before + sum(delta for _, delta in log)
        assert all(delta >= 0 for _, delta in log)
        assert is_shifted(out)
        assert sum(1 for d in out.left_degrees() if d >= w.degree_floor) >= w.target_size
        # second pass is a no-op (rows were relabeled, so re-aim the witness
        # at the leading rows, which now carry the largest degrees)
        w2 = ConstraintWitness(tuple(range(w.target_size)), w.target_size, w.degree_floor)
        again, log2, _, _ = left_compress_with_log(out, w2)
        assert again == out and log2 == []


def test_left_compress_nested_columns():
    rng = random.Random(11)
    for _ in range(200):
        b = random_bipartite(rng, 12)
        out = left_compress_with_log(b, ConstraintWitness((0,), 1, 0))[0]
        cols = [{i for i, j in out.edges if j == c} for c in range(out.s)]
        for left, right in zip(cols, cols[1:]):
            assert right <= left


def test_swap_sides_properties():
    rng = random.Random(555)
    exercised = 0
    while exercised < 150:
        # swap_sides lives in the wide setting, so keep r >= s
        s = rng.randint(1, 4)
        r = rng.randint(s, max(s, 20 // s))
        cells = [(i, j) for i in range(r) for j in range(s)]
        b = BipartiteGraph(r, s, rng.sample(cells, rng.randint(0, len(cells))))
        shifted = left_compress_with_log(b, ConstraintWitness((0,), 1, 0))[0]
        degs = shifted.left_degrees()
        ell = rng.randint(1, shifted.r)
        # family hypotheses: ell rows of degree >= k with ell >= k
        w = ConstraintWitness(tuple(range(ell)), ell, min(ell, degs[ell - 1]))
        out = swap_sides(shifted, w)
        exercised += 1
        assert out.num_edges == shifted.num_edges
        assert z1_index(out) == z1_index(shifted)
        assert Counter(out.left_degrees() + out.right_degrees()) == Counter(
            shifted.left_degrees() + shifted.right_degrees()
        )
        assert out.delta_right >= out.delta_left
        assert sum(1 for d in out.left_degrees() if d >= w.degree_floor) >= ell


def _ref_degree_exchange(b, k):
    """swap_sides's degree-exchange branch as the set-based loop."""
    rowdeg, coldeg = b.left_degrees(), b.right_degrees()
    t = next(i for i in range(k) if coldeg[i] >= rowdeg[i])
    bigt, edges = coldeg[t], set(b.edges)
    for j in range(t):
        edges -= {(i, j) for i in range(bigt, coldeg[j])} | {(j, i) for i in range(bigt, rowdeg[j])}
        edges |= {(i, j) for i in range(bigt, rowdeg[j])} | {(j, i) for i in range(bigt, coldeg[j])}
    return BipartiteGraph(b.r, b.s, edges)


def test_swap_sides_degree_exchange_matches_reference():
    """Few long rows put the maximum degree on the left; every witness
    whose row k-1 is shorter than ell then takes the degree-exchange
    branch, and its output equals the set-based loop."""
    rng = random.Random(2025)
    exchanged = 0
    for _ in range(2000):
        s = rng.randint(1, 12)
        r = rng.randint(s, 14)
        rows = range(rng.randint(1, min(r, 4)))
        edges = [(i, j) for i in rows for j in range(rng.randint(0, s))]
        b = left_compress_with_log(BipartiteGraph(r, s, edges), ConstraintWitness((0,), 1, 0))[0]
        degs = b.left_degrees()
        for ell in range(1, r + 1):
            for k in range(1, min(ell, degs[ell - 1]) + 1):
                if b.delta_right < b.delta_left and degs[k - 1] < ell:
                    out = swap_sides(b, ConstraintWitness(tuple(range(ell)), ell, k))
                    assert out == _ref_degree_exchange(b, k), (b, ell, k)
                    exchanged += 1
    assert exchanged > 20, exchanged


def test_swap_sides_requires_shifted_input():
    b = BipartiteGraph(2, 2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        swap_sides(b, ConstraintWitness((), 1, 1))


def test_shift_general_small():
    # star with an extra far edge; witness is the two leaves 3, 4
    g = Graph(5, [(0, 1), (0, 2), (3, 4)])
    with pytest.raises(ValueError):
        shift_general_with_log(g, ConstraintWitness((3, 4), 2, 1))  # 3-4 not independent
    g = Graph(5, [(0, 3), (0, 4), (1, 2)])
    out, log, order = shift_general_with_log(g, ConstraintWitness((3, 4), 2, 1))
    assert out.num_edges == 3
    assert is_shifted_general(out, 2)
    assert order[:2] == [3, 4]


def test_shift_general_properties():
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(3, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        # pick any independent set of size 1..2 as witness
        deg = g.degrees()
        singles = sorted(range(n), key=lambda v: deg[v])
        w_vertices = (singles[0],)
        k = deg[singles[0]]
        w = ConstraintWitness(w_vertices, 1, k)
        before = z1_index(g)
        out, log, _ = shift_general_with_log(g, w)
        assert out.num_edges == g.num_edges
        assert z1_index(out) >= before
        assert z1_index(out) == before + sum(delta for _, delta in log)
        assert is_shifted_general(out, 1)
        # witness degree preserved exactly
        assert out.degrees()[0] == k
        # fixed point on a second run
        again, log2, _ = shift_general_with_log(
            out, ConstraintWitness((0,), 1, k)
        )
        assert again == out and log2 == []


def test_compress_log_replays_from_input():
    rng = random.Random(606)
    for _ in range(50):
        b = random_bipartite(rng, 16)
        out, log, row_order, col_order = left_compress_with_log(
            b, ConstraintWitness((0,), 1, 0)
        )
        edges = set(b.edges)
        for move, delta in log:
            assert move.removed in edges and move.added not in edges
            before = z1_index(BipartiteGraph(b.r, b.s, edges))
            edges.remove(move.removed)
            edges.add(move.added)
            assert z1_index(BipartiteGraph(b.r, b.s, edges)) == before + delta
        rr = {old: new for new, old in enumerate(row_order)}
        cc = {old: new for new, old in enumerate(col_order)}
        assert BipartiteGraph(b.r, b.s, {(rr[i], cc[j]) for i, j in edges}) == out


def test_shift_log_replays_from_input():
    rng = random.Random(607)
    graphs = []
    for _ in range(50):
        n = rng.randint(3, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(Graph(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
    # its log holds a move whose two pairs share no vertex
    graphs.append(Graph(8, [(0, 1), (0, 2), (0, 3), (0, 6), (1, 2), (1, 3), (2, 3),
                            (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (5, 6)]))
    shared = set()
    for g in graphs:
        n = g.n
        deg = g.degrees()
        v0 = min(range(n), key=lambda v: deg[v])
        out, log, order = shift_general_with_log(
            g, ConstraintWitness((v0,), 1, deg[v0])
        )
        edges = set(g.edges)
        for move, delta in log:
            removed, added = move.removed, move.added
            # logged pairs are sorted like the edges of a Graph
            assert removed[0] < removed[1] and added[0] < added[1]
            assert removed in edges and added not in edges
            shared.add(len(set(removed) & set(added)))
            before = z1_index(Graph(n, edges))
            edges.remove(removed)
            edges.add(added)
            assert z1_index(Graph(n, edges)) == before + delta
        relabel = {old: new for new, old in enumerate(order)}
        relabeled = Graph(n, {(relabel[u], relabel[v]) for u, v in edges})
        assert relabeled == out
    # both cases of the closed-form delta were replayed
    assert shared == {0, 1}


def test_analyze_omega_blocks():
    rng = random.Random(909)
    for _ in range(100):
        n = rng.randint(4, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        deg = g.degrees()
        v0 = min(range(n), key=lambda v: deg[v])
        w = ConstraintWitness((v0,), 1, deg[v0])
        out = shift_general_with_log(g, w)[0]
        analysis = analyze_omega(out, ConstraintWitness((0,), 1, deg[v0]))
        omega = analysis.omega
        assert 0 <= omega <= n - 1
        # the clique block is complete, the trailing block is empty
        for i, u in enumerate(analysis.clique_block):
            for v in analysis.clique_block[i + 1 :]:
                assert out.has_edge(u, v)
        for i, u in enumerate(analysis.independent_block):
            for v in analysis.independent_block[i + 1 :]:
                assert not out.has_edge(u, v)


# ----------------------------------------------------------------------
# slow references: the set-based searches and checks that the matrix
# violation finder replaced, compared on random inputs


def _ref_compress(b):
    rows = [{j for i2, j in b.edges if i2 == i} for i in range(b.r)]
    log = []
    while True:
        coldeg = [sum(j in row for row in rows) for j in range(b.s)]
        col_order = sorted(range(b.s), key=lambda j: (-coldeg[j], j))
        col_rank = {j: p for p, j in enumerate(col_order)}
        ranks = [{col_rank[j] for j in row} for row in rows]
        broken = [i for i in range(b.r) if ranks[i] and len(ranks[i]) != max(ranks[i]) + 1]
        if not broken:
            break
        i, ranks = broken[0], ranks[broken[0]]
        hole = min(set(range(b.s)) - ranks)
        src, hole = col_order[min(p for p in ranks if p > hole)], col_order[hole]
        log.append((SwapMove((i, src), (i, hole)), 2 * (coldeg[hole] - coldeg[src]) + 2))
        rows[i] = rows[i] - {src} | {hole}
    row_order = sorted(range(b.r), key=lambda i: (-len(rows[i]), i))
    edges = {(p, col_rank[j]) for p, i in enumerate(row_order) for j in rows[i]}
    return BipartiteGraph(b.r, b.s, edges), log, row_order, col_order


def _ref_find_move(adj, order, nw):
    """First rank-space violation, checking every pair below every edge."""
    n = len(order)
    rank = {v: i for i, v in enumerate(order)}
    for u in order[:nw]:
        ranks = {rank[v] for v in adj[u]}
        if ranks and max(ranks) - nw + 1 != len(ranks):
            hole = next(i for i in range(nw, n) if i not in ranks)
            return (u, order[min(i for i in ranks if i > hole)]), (u, order[hole])
    for i in range(nw, n):
        for j in range(i + 1, n):
            if order[j] in adj[order[i]]:
                for p in range(nw, i + 1):
                    for q in range(p + 1, j + 1):
                        if (p, q) != (i, j) and order[q] not in adj[order[p]]:
                            return (order[i], order[j]), (order[p], order[q])
    return None


def _ref_shift_general(g, witness):
    nw, adj, log = len(witness.vertices), g.adjacency(), []
    outside = [v for v in range(g.n) if v not in witness.vertices]

    def key(v):
        return -len(adj[v]), v

    while True:
        order = sorted(witness.vertices, key=key) + sorted(outside, key=key)
        move = _ref_find_move(adj, order, nw)
        if move is None:
            break
        (u, v), (x, y) = move
        base = 2 * (len(adj[x]) + len(adj[y]) - len(adj[u]) - len(adj[v]))
        log.append((SwapMove(tuple(sorted((u, v))), tuple(sorted((x, y)))),
                    base + (2 if {u, v} & {x, y} else 4)))
        adj[u].discard(v)
        adj[v].discard(u)
        adj[x].add(y)
        adj[y].add(x)
    rank = {v: i for i, v in enumerate(order)}
    return Graph(g.n, {(rank[u], rank[v]) for u in range(g.n) for v in adj[u]}), log, order


def _ref_is_shifted(b):
    rows = [{j for i2, j in b.edges if i2 == i} for i in range(b.r)]
    degs = [len(row) for row in rows]
    return degs == sorted(degs, reverse=True) and all(row == set(range(len(row))) for row in rows)


def _ref_is_shifted_general(g, nw):
    adj = g.adjacency()
    witness_edge = any(v < nw for u in range(nw) for v in adj[u])
    return not witness_edge and _ref_find_move(adj, list(range(g.n)), nw) is None


def _all_python_ints(log, *orders):
    values = [x for move, delta in log for x in (*move.removed, *move.added, delta)]
    return all(type(x) is int for x in values + [v for order in orders for v in order])


def _random_witnessed_graph(rng, n, nw):
    """Random graph on n vertices with a random independent nw-set."""
    witness = set(rng.sample(range(n), nw))
    density = rng.random()
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density and not {u, v} <= witness]
    g = Graph(n, edges)
    deg = g.degrees()
    return g, ConstraintWitness(tuple(witness), nw, min(deg[v] for v in witness))


def test_shift_general_matches_reference():
    """Equal (graph, log, order) on random graphs with n <= 16 and witness
    sizes 1-4, including the empty (n = |W|) and one-vertex (n = |W| + 1)
    outside blocks."""
    rng = random.Random(1717)
    cases = [(nw + extra, nw) for nw in range(1, 5) for extra in (0, 1) for _ in range(5)]
    cases += [(n, rng.randint(1, min(4, n))) for n in (rng.randint(1, 16) for _ in range(300))]
    moved = 0
    for n, nw in cases:
        g, w = _random_witnessed_graph(rng, n, nw)
        got = shift_general_with_log(g, w)
        assert got == _ref_shift_general(g, w), (g, w)
        assert _all_python_ints(got[1], got[2])
        moved += bool(got[1])
    assert moved > 150


def test_left_compress_matches_reference():
    rng = random.Random(1718)
    for _ in range(300):
        r, s = rng.randint(1, 12), rng.randint(0, 12)
        density = rng.random()
        cells = [(i, j) for i in range(r) for j in range(s)]
        b = BipartiteGraph(r, s, [cell for cell in cells if rng.random() < density])
        w = witness_for(rng, b)
        got = left_compress_with_log(b, w)
        assert got == _ref_compress(b), b
        assert _all_python_ints(got[1], got[2], got[3])


def test_shifted_checks_match_reference():
    """Both checks agree with the references on random, mostly unshifted
    graphs, and on shifted graphs with one pair flipped."""
    rng = random.Random(1719)
    verdicts = Counter()
    for _ in range(400):
        n = rng.randint(0, 10)
        nw = rng.randint(0, min(3, n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        if nw and rng.random() < 0.5:
            g = shift_general_with_log(*_random_witnessed_graph(rng, n, nw))[0]
            if pairs:
                g = Graph(n, set(g.edges) ^ {rng.choice(pairs)})
        verdict = is_shifted_general(g, nw)
        assert verdict == _ref_is_shifted_general(g, nw), (g, nw)
        verdicts[verdict] += 1

        r, s = rng.randint(0, 8), rng.randint(0, 8)
        cells = [(i, j) for i in range(r) for j in range(s)]
        b = BipartiteGraph(r, s, rng.sample(cells, rng.randint(0, len(cells))))
        if r and rng.random() < 0.5:
            b = left_compress_with_log(b, ConstraintWitness((0,), 1, 0))[0]
            if cells:
                b = BipartiteGraph(r, s, set(b.edges) ^ {rng.choice(cells)})
        verdict = is_shifted(b)
        assert verdict == _ref_is_shifted(b), b
        verdicts["b", verdict] += 1
    assert min(verdicts.values()) > 40, verdicts
