"""Counting primitives, witnesses, and serialization."""

import json
import random
from math import comb

import pytest

from cherrymax.graph_core import (
    MAX_VERTICES,
    BipartiteGraph,
    ConstraintWitness,
    Graph,
    bipartite_from_json,
    bipartite_to_json,
    count_cherries,
    from_json_obj,
    graph_from_json,
    graph_to_json,
    z1_index,
)


def random_graph(rng: random.Random, n: int) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(0, len(pairs))
    return Graph(n, rng.sample(pairs, m))


def test_small_graph_counts():
    triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert count_cherries(triangle) == 3
    assert z1_index(triangle) == 12

    path = Graph(3, [(0, 1), (1, 2)])
    assert count_cherries(path) == 1
    assert z1_index(path) == 6

    assert count_cherries(Graph(5, [])) == 0
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert count_cherries(k5) == 5 * comb(4, 2)
    assert z1_index(k5) == 5 * 16


def test_z1_identity_random():
    """z1 = 2 * cherries + 2 * edges, exactly, for any graph."""
    rng = random.Random(1234)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12))
        assert z1_index(g) == 2 * count_cherries(g) + 2 * g.num_edges


def test_bipartite_counts():
    b = BipartiteGraph(3, 2, [(0, 0), (0, 1), (1, 0), (2, 0)])
    assert b.left_degrees() == [2, 1, 1]
    assert b.right_degrees() == [3, 1]
    assert z1_index(b) == 4 + 1 + 1 + 9 + 1
    assert count_cherries(b) == comb(2, 2) + comb(3, 2)
    assert z1_index(b) == 2 * count_cherries(b) + 2 * b.num_edges
    assert b.delta_left == 2
    assert b.delta_right == 3


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        Graph(MAX_VERTICES + 1, [])


def test_edge_normalization():
    g = Graph(4, [(2, 1), (1, 2), (3, 0)])
    assert g.edges == frozenset({(1, 2), (0, 3)})
    assert g.num_edges == 2
    assert g.has_edge(2, 1) and g.has_edge(0, 3)
    assert not g.has_edge(0, 1)


def test_witness_check_in():
    g = Graph(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    ConstraintWitness((0, 1), 2, 2).check_in(g)
    with pytest.raises(ValueError):
        ConstraintWitness((0, 2), 2, 1).check_in(g)  # not independent
    with pytest.raises(ValueError):
        ConstraintWitness((0, 1), 2, 3).check_in(g)  # degree floor unmet


def test_json_round_trip():
    g = Graph(5, [(3, 1), (0, 4), (1, 2)])
    obj = graph_to_json(g)
    assert obj["edges"] == sorted([list(e) for e in g.edges])
    assert graph_from_json(json.loads(json.dumps(obj))) == g

    b = BipartiteGraph(3, 2, [(2, 1), (0, 0)])
    bobj = bipartite_to_json(b)
    assert bipartite_from_json(bobj) == b

    assert from_json_obj(obj) == g
    assert from_json_obj(bobj) == b
    with pytest.raises(ValueError):
        from_json_obj({"edges": []})
