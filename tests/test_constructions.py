"""Extremal construction generators and their decomposition identities."""

import random
from collections import Counter
from math import comb

import pytest

from cherrymax.constructions import (
    BipartiteFamilyParams,
    ConstructionError,
    ak_bipartite,
    b1_family,
    b2_family,
    g1_classes,
    g1_family,
    g1_witness,
    g2_classes,
    g2_family,
    g2_witness,
    linear_decomposition,
    quasi_clique,
    quasi_star,
    quasi_star_classes,
    triangular_decomposition,
)
from cherrymax.graph_core import (
    Graph,
    count_cherries,
    min_degree_over_set,
    z1_index,
)


def test_triangular_decomposition():
    for m in range(200):
        a, b = triangular_decomposition(m)
        assert m == comb(a, 2) + b
        assert 0 <= b <= a - 1 or (m == 0 and b == 0)
    assert triangular_decomposition(6) == (4, 0)
    assert triangular_decomposition(7) == (4, 1)


def test_linear_decomposition():
    for r in range(1, 9):
        for m in range(40):
            p, q = linear_decomposition(m, r)
            assert m == p * r + q
            assert 0 <= q <= r - 1


def test_quasi_clique_examples():
    assert sorted(quasi_clique(4, 3).edges) == [(0, 1), (0, 2), (1, 2)]
    # one full K4 plus a single pendant edge off vertex 0
    assert sorted(quasi_clique(5, 7).edges) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3),
    ]
    n = 6
    assert quasi_clique(n, comb(n, 2)).num_edges == comb(n, 2)
    assert quasi_clique(n, 0).num_edges == 0
    with pytest.raises(ConstructionError):
        quasi_clique(4, 7)


def test_quasi_star_examples():
    star = quasi_star(5, 4)
    assert sorted(d for d in star.degrees()) == [1, 1, 1, 1, 4]
    assert quasi_star(6, 0).num_edges == 0
    assert quasi_star(6, 15).num_edges == 15
    with pytest.raises(ConstructionError):
        quasi_star(4, -1)


def test_complement_duality():
    """quasi_star(n, m) is the exact complement of quasi_clique(n, C(n,2)-m)."""
    for n in range(1, 9):
        total = comb(n, 2)
        all_pairs = {(u, v) for u in range(n) for v in range(u + 1, n)}
        for m in range(total + 1):
            qs = quasi_star(n, m)
            qc = quasi_clique(n, total - m)
            assert qs.edges == frozenset(all_pairs - qc.edges)


def test_edge_counts_everywhere():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 12)
        m = rng.randint(0, comb(n, 2))
        assert quasi_clique(n, m).num_edges == m
        assert quasi_star(n, m).num_edges == m


def test_ak_bipartite():
    b = ak_bipartite(3, 2, 4)
    assert sorted(b.edges) == [(0, 0), (0, 1), (1, 0), (2, 0)]
    assert z1_index(b) == 16

    assert ak_bipartite(4, 3, 12).num_edges == 12
    assert ak_bipartite(4, 3, 0).num_edges == 0
    with pytest.raises(ConstructionError):
        ak_bipartite(2, 3, 4)  # narrow side first
    assert ak_bipartite(2, 3, 4, require_wide=False).num_edges == 4
    with pytest.raises(ConstructionError):
        ak_bipartite(3, 2, 7)


def test_b1_frozen_example():
    b = b1_family(BipartiteFamilyParams(4, 3, 6, 2, 2))
    assert b.left_degrees() == [2, 2, 1, 1]
    assert b.right_degrees() == [4, 2, 0]
    assert z1_index(b) == 30


def test_b1_pure_block():
    b = b1_family(BipartiteFamilyParams(5, 3, 6, 3, 2))
    assert b.left_degrees() == [2, 2, 2, 0, 0]
    assert b.right_degrees() == [3, 3, 0]


def test_b2_frozen_example():
    b = b2_family(BipartiteFamilyParams(3, 3, 6, 2, 2))
    assert b.left_degrees() == [2, 2, 2]
    assert b.right_degrees() == [3, 3, 0]
    assert z1_index(b) == 30


def test_branch_preconditions():
    with pytest.raises(ConstructionError):
        b1_family(BipartiteFamilyParams(4, 3, 9, 2, 2))  # m > rk
    with pytest.raises(ConstructionError):
        b1_family(BipartiteFamilyParams(3, 3, 6, 2, 2))  # k + ell > r
    with pytest.raises(ConstructionError):
        b2_family(BipartiteFamilyParams(4, 3, 6, 2, 2))  # k + ell <= r
    with pytest.raises(ConstructionError):
        BipartiteFamilyParams(3, 4, 6, 2, 2)  # r < s
    with pytest.raises(ConstructionError):
        BipartiteFamilyParams(4, 3, 2, 2, 2)  # m < k * ell


def all_valid_params(max_side: int):
    for r in range(1, max_side + 1):
        for s in range(1, r + 1):
            for k in range(0, s + 1):
                for ell in range(k, r + 1):
                    for m in range(k * ell, r * s + 1):
                        yield r, s, m, ell, k


def test_fact_22_decompositions():
    """Both Zagreb decompositions across every valid tuple with r, s <= 8."""
    checked_b1 = checked_b2 = 0
    for r, s, m, ell, k in all_valid_params(8):
        if m > r * k:
            continue
        head = ell * k * k + 2 * m * ell - k * ell * ell
        rest = m - k * ell
        if k + ell <= r:
            b = b1_family(BipartiteFamilyParams(r, s, m, ell, k))
            tail = z1_index(ak_bipartite(r - ell, k, rest, require_wide=False))
            assert z1_index(b) == head + tail, (r, s, m, ell, k)
            checked_b1 += 1
        else:
            b = b2_family(BipartiteFamilyParams(r, s, m, ell, k))
            tail = z1_index(ak_bipartite(k, r - ell, rest, require_wide=False))
            assert z1_index(b) == head + tail, (r, s, m, ell, k)
            checked_b2 += 1
    assert checked_b1 > 100 and checked_b2 > 100


def test_b_families_carry_witness():
    rng = random.Random(7)
    tuples = [t for t in all_valid_params(6) if t[2] <= t[0] * t[4]]
    for r, s, m, ell, k in rng.sample(tuples, 80):
        params = BipartiteFamilyParams(r, s, m, ell, k)
        b = b1_family(params) if k + ell <= r else b2_family(params)
        assert b.num_edges == m
        assert sum(1 for d in b.left_degrees() if d >= k) >= ell


def test_g1_frozen_example():
    g = g1_family(8, 5, 2, 2)
    assert sorted(g.edges) == [(0, 1), (0, 6), (0, 7), (1, 6), (1, 7)]
    w = g1_witness(8, 2, 2)
    assert w.vertices == (6, 7)
    w.check_in(g)


def test_g1_pure_block():
    g = g1_family(7, 4, 2, 2)
    assert sorted(g.edges) == [(0, 5), (0, 6), (1, 5), (1, 6)]
    assert g.degrees()[2:5] == [0, 0, 0]


def test_g1_collisions_rejected():
    # the clique from the leftover edges would run into the witness block
    with pytest.raises(ConstructionError):
        g1_family(6, 14, 2, 2)
    with pytest.raises(ConstructionError):
        g1_family(4, 4, 2, 3)  # k exceeds the non-witness part
    with pytest.raises(ConstructionError):
        g1_family(8, 3, 2, 2)  # m < k * ell


def test_g2_frozen_example():
    g = g2_family(6, 5, 2, 2)
    assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    w = g2_witness(6, 5, 2, 2)
    assert w.vertices == (2, 3)
    w.check_in(g)


def test_g2_rejects_spill_into_witness():
    # m = 13 decomposes with a = 3 and b = 4 > a: the remainder edges
    # would land inside the independent block
    with pytest.raises(ConstructionError):
        g2_family(9, 13, 2, 2)
    with pytest.raises(ConstructionError):
        g2_family(20, 9, 2, 4)  # witness degree a falls below k


def test_g_families_properties():
    rng = random.Random(2024)
    found = 0
    while found < 120:
        n = rng.randint(3, 14)
        ell = rng.randint(1, max(1, n // 3))
        k = rng.randint(0, max(0, n - ell - 1))
        m = rng.randint(k * ell, comb(n, 2))
        for family, witness_of in (
            (g1_family, lambda g: g1_witness(n, ell, k)),
            (g2_family, lambda g: g2_witness(n, m, ell, k)),
        ):
            try:
                g = family(n, m, ell, k)
            except ConstructionError:
                continue
            found += 1
            assert g.num_edges == m
            w = witness_of(g)
            w.check_in(g)
            assert min_degree_over_set(g, w.vertices) >= k
            assert z1_index(g) == 2 * count_cherries(g) + 2 * m


def _degrees_or_refusal(build, *args):
    """Degree multiset of build(*args), a graph or a Counter, or the
    message it is refused with."""
    try:
        value = build(*args)
    except ConstructionError as exc:
        return str(exc)
    return value if isinstance(value, Counter) else Counter(value.degrees())


def _g2_spill_degrees(n, m, ell):
    """Degrees of the G2 layout built by hand, with a found by a plain loop,
    remainder edges from vertex a+ell reaching into the witness."""
    a = 0
    while (a + 1) * ell + comb(a + 1, 2) <= m:
        a += 1
    b = m - a * ell - comb(a, 2)
    edges = [(u, v) for u in range(a) for v in range(u + 1, a + ell)]
    edges += [(v, a + ell) for v in range(b)]
    return Counter(Graph(n, edges).degrees())


def test_degree_classes_match_built_graphs():
    """Every n <= 9, m, ell and k: the degree classes equal the built
    graph's degrees and both sides refuse with the same message, except
    that g2_family alone refuses the remainder spill b > a."""
    spill = built_g2 = 0
    for n in range(10):
        for m in range(comb(n, 2) + 1):
            qs = _degrees_or_refusal(quasi_star, n, m)
            assert isinstance(qs, Counter)
            assert _degrees_or_refusal(quasi_star_classes, n, m) == qs, (n, m)
            for ell in range(n + 1):
                for k in range(n + 1):
                    case = (n, m, ell, k)
                    g1 = _degrees_or_refusal(g1_family, *case)
                    assert _degrees_or_refusal(g1_classes, *case) == g1, case
                    g2 = _degrees_or_refusal(g2_family, *case)
                    classes = _degrees_or_refusal(g2_classes, *case)
                    if isinstance(g2, str) and isinstance(classes, Counter):
                        assert g2.startswith("b=") and "would attach edges" in g2, case
                        assert classes == _g2_spill_degrees(n, m, ell), case
                        spill += 1
                    else:
                        assert classes == g2, case
                        built_g2 += isinstance(g2, Counter)
    assert (built_g2, spill) == (2133, 462)


def test_quasi_star_beats_quasi_clique_small_m():
    # the classic crossover: few edges favor the star, many the clique
    assert z1_index(quasi_star(5, 4)) > z1_index(quasi_clique(5, 4))
    assert z1_index(quasi_clique(5, 6)) > z1_index(quasi_star(5, 6))
