"""Brute-force maximizers checked against an independent enumeration."""

import functools
import json
import multiprocessing
from itertools import combinations, combinations_with_replacement

import pytest

from cherrymax import oracle
from cherrymax.constructions import ConstructionError, ak_bipartite, g1_family, g2_family
from cherrymax.graph_core import (
    BipartiteGraph,
    Graph,
    SearchCapExceededError,
    bipartite_to_json,
    graph_to_json,
    z1_index,
)
from cherrymax.oracle import (
    general_max_table,
    max_cherries_general,
    phi_bipartite,
    phi_bipartite_right,
    predicted_bipartite,
    predicted_general,
    verify_theorem_11,
    verify_theorem_16,
    verify_theorem_17,
    verify_theorem_18,
)


def _best_of(graphs):
    """(best z1, number of graphs reaching it, the one with the smallest
    mask) over (mask, graph) pairs, or None when there are none."""
    scored = [(z1_index(g), mask, g) for mask, g in graphs]
    if not scored:
        return None
    best = max(z for z, _, _ in scored)
    optimal = [(mask, g) for z, mask, g in scored if z == best]
    return best, len(optimal), min(optimal, key=lambda pair: pair[0])[1]


def _witness_ok(b: BipartiteGraph, side: str, ell: int, k: int) -> bool:
    if side == "left":
        return sum(1 for d in b.left_degrees() if d >= k) >= ell
    return sum(1 for d in b.right_degrees() if d >= ell) >= k


def slow_phi(r: int, s: int, ell: int, k: int, m: int, side: str = "left"):
    """Reference maximizer: plain itertools over all m-subsets of cells.

    Returns (best z1, count of optimal graphs, optimal graph of smallest
    mask), where a cell's bit is its position in ``cells``; None if no
    graph qualifies."""
    cells = [(i, j) for i in range(r) for j in range(s)]

    def qualifying():
        for chosen in combinations(range(len(cells)), m):
            b = BipartiteGraph(r, s, [cells[c] for c in chosen])
            if _witness_ok(b, side, ell, k):
                yield sum(1 << c for c in chosen), b

    return _best_of(qualifying())


def slow_shifted(r: int, s: int, ell: int, k: int, m: int, side: str = "left"):
    """Reference for shifted mode: every Ferrers diagram with m cells.

    Returns (best z1, count of optimal diagrams, the optimal diagram with
    the lexicographically largest column heights), or None if no diagram
    qualifies."""

    def qualifying():
        for heights in combinations_with_replacement(range(r, -1, -1), s):
            if sum(heights) != m:
                continue
            b = BipartiteGraph(r, s, [(i, j) for j, h in enumerate(heights) for i in range(h)])
            if _witness_ok(b, side, ell, k):
                # _best_of keeps the smallest key, so the largest heights
                yield [-h for h in heights], b

    return _best_of(qualifying())


def slow_general_max(n: int, m: int, ell: int, k: int):
    """Reference maximizer over all graphs with an (ell, k) witness.

    Returns (best z1, count, optimal graph of smallest mask) as slow_phi
    does, with a pair's bit its position in ``pairs``."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def qualifying():
        for chosen in combinations(range(len(pairs)), m):
            g = Graph(n, [pairs[p] for p in chosen])
            deg = g.degrees()
            eligible = [v for v in range(n) if deg[v] >= k]
            for cand in combinations(eligible, ell):
                if all(not g.has_edge(u, v) for u, v in combinations(cand, 2)):
                    yield sum(1 << p for p in chosen), g
                    break

    return _best_of(qualifying())


def assert_report_is(got, want, to_json, case):
    best, count, graph = want
    assert got.optimum_z1 == best, case
    assert got.optimum_count == count, case
    assert got.optimum_graph == to_json(graph), case


def test_phi_frozen_small_case():
    report = phi_bipartite(2, 2, 1, 1, 2)
    assert report.optimum_z1 == 6
    assert report.match
    assert report.predicted_branch in ("B1=B", "B2=B", "B1", "B2", "B")


def test_phi_matches_slow_reference():
    for r, s in ((2, 2), (3, 2), (3, 3), (4, 2)):
        for k in range(0, s + 1):
            for ell in range(k, r + 1):
                for m in range(k * ell, r * s + 1):
                    got = phi_bipartite(r, s, ell, k, m)
                    want = slow_phi(r, s, ell, k, m)
                    assert want is not None
                    assert_report_is(got, want, bipartite_to_json, (r, s, ell, k, m))


def test_phi_right_matches_slow_reference():
    for r, s in ((3, 2), (3, 3)):
        for k in range(0, s + 1):
            for ell in range(k, r + 1):
                for m in range(k * ell, r * s + 1):
                    got = phi_bipartite_right(r, s, ell, k, m)
                    want = slow_phi(r, s, ell, k, m, side="right")
                    # with m >= k * ell the right witness is always buildable
                    assert want is not None
                    assert_report_is(got, want, bipartite_to_json, (r, s, ell, k, m))


def test_shifted_matches_slow_reference():
    cases = 0
    for r in range(1, 6):
        for s in range(1, r + 1):
            for k in range(0, s + 1):
                for ell in range(k, r + 1):
                    # m = 0 is reached when k * ell = 0, m = r * s always
                    for m in range(k * ell, r * s + 1):
                        for fn, side in ((phi_bipartite, "left"), (phi_bipartite_right, "right")):
                            got = fn(r, s, ell, k, m, mode="shifted")
                            want = slow_shifted(r, s, ell, k, m, side)
                            assert want is not None
                            assert_report_is(got, want, bipartite_to_json, (side, r, s, ell, k, m))
                            cases += 1
    assert cases > 1000


def test_shifted_mode_equals_full():
    for r, s in ((3, 3), (4, 3), (4, 4)):
        for k in range(0, s + 1):
            for ell in range(k, r + 1):
                for m in range(k * ell, r * s + 1):
                    for fn in (phi_bipartite, phi_bipartite_right):
                        full = fn(r, s, ell, k, m, mode="full")
                        shifted = fn(r, s, ell, k, m, mode="shifted")
                        assert full.optimum_z1 == shifted.optimum_z1, (fn, r, s, ell, k, m)


def test_shifted_mode_past_the_bitmask_cap():
    # 400 cells: far beyond any 64-bit mask, so only shifted mode reaches it
    for ell, k in ((0, 0), (5, 4), (12, 7), (20, 20)):
        for m in sorted({k * ell, 37, 150, 263, 400} - set(range(k * ell))):
            for fn in (phi_bipartite, phi_bipartite_right):
                report = fn(20, 20, ell, k, m, mode="shifted")
                assert report.match, (fn, ell, k, m)


def test_jobs_do_not_change_the_report(monkeypatch):
    # both queries fit in one default chunk; with 2^6-mask chunks the same
    # query is merged from many chunks, serially and over a Pool
    queries = (
        lambda jobs: phi_bipartite(4, 4, 2, 2, 9, jobs=jobs),
        lambda jobs: max_cherries_general(6, 7, 2, 2, jobs=jobs),
    )
    lone = [query(1).to_json() for query in queries]
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 6)
    for query, want in zip(queries, lone):
        assert query(1).to_json() == want
        assert query(3).to_json() == want


def test_jobs_start_no_more_workers_than_chunks(monkeypatch):
    sizes = []

    class InlinePool:
        """Stands in for multiprocessing.Pool: records its size, runs the
        initializer and maps in process."""

        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    # the initializer sets the worker's search in this process; undo it afterwards
    monkeypatch.setattr(oracle, "_worker_search", None)
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 6)
    want = phi_bipartite(4, 4, 2, 2, 5).to_json()
    # the 272 row-sorted 4 x 4 masks with 5 edges fill 5 chunks of at most 2^6
    for jobs in (64, 4, 2):
        assert phi_bipartite(4, 4, 2, 2, 5, jobs=jobs).to_json() == want
    assert sizes == [5, 4, 2]
    # the 42 row-sorted 4 x 3 masks with 4 edges are one chunk, which runs in process
    assert phi_bipartite(4, 3, 2, 2, 4, jobs=64).to_json() == phi_bipartite(4, 3, 2, 2, 4).to_json()
    assert sizes == [5, 4, 2]


@functools.cache
def _per_mask(bits, incidence):
    """(mask, degree list, Z1) for every mask in range(2**bits)."""
    rows = []
    for mask in range(2**bits):
        deg = [(mask & vertex).bit_count() for vertex in incidence]
        rows.append((mask, deg, sum(d * d for d in deg)))
    return rows


def _reference_scan(bits, incidence, level, pairs):
    """Plain per-mask reference for oracle._scan over range(2**bits).

    level(deg, mask, floor) is the witness level of one mask from its
    degree list.  Returns (best, count, first) dicts keyed by (pair index,
    edge count), for the pairs a mask with that many edges can meet."""
    best, count, first = {}, {}, {}
    floors = {floor for floor, _ in pairs}
    for mask, deg, z1 in _per_mask(bits, tuple(incidence)):
        levels = {floor: level(deg, mask, floor) for floor in floors}
        for p, (floor, need) in enumerate(pairs):
            if levels[floor] < need:
                continue
            key = p, mask.bit_count()
            if z1 > best.get(key, -1):
                best[key], count[key], first[key] = z1, 0, mask
            count[key] += z1 == best[key]
    return best, count, first


def _bipartite_cases(r, s):
    """(kernel witness, reference level, pairs) on r x s graphs: no
    witness, then either side's witness over all pairs."""
    yield functools.partial(oracle._bipartite_level, r, "left"), lambda deg, mask, floor: 0, [(0, 0)]
    for side in ("left", "right"):
        pairs = [oracle._floor_need(side, ell, k) for k in range(s + 1) for ell in range(r + 1)]

        def level(deg, mask, floor, side=side):
            return sum(d >= floor for d in (deg[:r] if side == "left" else deg[r:]))

        yield functools.partial(oracle._bipartite_level, r, side), level, pairs


def _kernel_cases():
    """(bits, incidence, kernel witness, reference level, pairs) for
    every bit count 0..14 on bipartite shapes, plus general graphs."""
    shapes = ((1, 0), (1, 1), (2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1),
              (4, 2), (3, 3), (5, 2), (11, 1), (4, 3), (13, 1), (7, 2))
    for r, s in shapes:
        for witness, level, pairs in _bipartite_cases(r, s):
            yield r * s, oracle._bipartite_incidence(r, s), witness, level, pairs
    for n in range(1, 6):
        bit = {pair: 1 << i for i, pair in enumerate(combinations(range(n), 2))}
        incidence = [sum(b for pair, b in bit.items() if v in pair) for v in range(n)]
        pairs = [oracle._general_pair(ell, k) for ell in range(n + 1) for k in range(n)]

        def level(deg, mask, ell, n=n, bit=bit):
            if ell == 0:
                return 0
            return max(
                (1 + min(deg[v] for v in sub) for sub in combinations(range(n), ell)
                 if not any(mask & bit[pair] for pair in combinations(sub, 2))),
                default=0,
            )

        yield len(bit), incidence, functools.partial(oracle._independent_level, n), level, pairs


def test_scan_matches_per_mask_reference(monkeypatch):
    default = oracle._CHUNK_BITS
    for bits, incidence, witness, level, pairs in _kernel_cases():
        best, count, first = _reference_scan(bits, incidence, level, pairs)
        sweep = [[best.get((p, e), -1) for e in range(bits + 1)] for p in range(len(pairs))]
        # at 2^5 masks a chunk, blocks split inside a popcount group
        for chunk_bits in (default, 5):
            monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
            case = bits, incidence, chunk_bits
            table, no_count, no_first = oracle._scan(bits, incidence, witness, pairs)
            assert table.tolist() == sweep and no_count is None and no_first is None, case
            for m in range(bits + 1):
                got = oracle._scan(bits, incidence, witness, pairs, m=m)
                keys = [(p, m) for p in range(len(pairs))]
                want = ([best.get(k, -1) for k in keys], [count.get(k, 0) for k in keys],
                        [first.get(k, 0) for k in keys])
                assert tuple(x.tolist() for x in got) == want, (*case, m)


def _refuse(chunk, floor):
    raise AssertionError(f"witness called at floor {floor}")


def test_scan_needs_no_witness_for_need_zero():
    """A pair that needs 0 vertices holds for every mask: with the pair
    (0, 0) the kernel never calls the witness, on row orbits or on plain
    masks, and gives the reference table."""
    searches = ((9, oracle._bipartite_incidence(3, 3), {"rows": 3}), (10, oracle._vertex_masks(5), {}))
    for bits, incidence, source in searches:
        best, count, first = _reference_scan(bits, incidence, lambda deg, mask, floor: 0, [(0, 0)])
        table, _, _ = oracle._scan(bits, incidence, _refuse, [(0, 0)], **source)
        assert table.tolist() == [[best[0, e] for e in range(bits + 1)]], bits
        for m in range(bits + 1):
            got = oracle._scan(bits, incidence, _refuse, [(0, 0)], m=m, **source)
            assert tuple(x.tolist() for x in got) == ([best[0, m]], [count[0, m]], [first[0, m]])


def _orbit_splits(record):
    """Whether some chunk boundary cuts a join, and whether some cut join
    holds masks whose rows on both sides of the split are equal; ``record``
    holds (chunks, keys, span) per search, as _scan passes them."""
    cut = cut_equal = False
    for chunks, keys, span in record:
        for before, after in zip(chunks, chunks[1:]):
            (high, part), (next_high, next_part) = before[-1], after[0]
            v = int(high[0]) % span
            if part == next_part and v == int(next_high[0]) % span:
                cut = True
                # the lows of a join ascend by top row, so its first is the lowest
                cut_equal |= span > 1 and int(keys[part.start]) % span == v
    return cut, cut_equal


def test_orbit_scan_matches_per_mask_reference(monkeypatch):
    """The row-orbit source (``rows``) against every mask of every r x s
    shape with r * s <= 14: sweeps and single-m queries, without a
    witness and with either side's witness over all pairs."""
    shapes = [(r, s) for s in range(15) for r in range(1, 15) if r * s <= 14 and (s or r <= 3)]
    default, chunks = oracle._CHUNK_BITS, oracle._chunks
    record = []

    def recorded(highs, keys, span, m):
        made = list(chunks(highs, keys, span, m))
        if m is not None:
            record.append((made, keys, span))
        return iter(made)

    monkeypatch.setattr(oracle, "_chunks", recorded)
    for r, s in shapes:
        bits, incidence = r * s, oracle._bipartite_incidence(r, s)
        for witness, level, pairs in _bipartite_cases(r, s):
            best, count, first = _reference_scan(bits, incidence, level, pairs)
            sweep = [[best.get((p, e), -1) for e in range(bits + 1)] for p in range(len(pairs))]
            # at 2^5 masks a chunk, joins split inside popcount groups
            for chunk_bits in (default, 5):
                monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
                case = r, s, pairs, chunk_bits
                table, no_count, no_first = oracle._scan(bits, incidence, witness, pairs, rows=r)
                assert table.tolist() == sweep and no_count is None and no_first is None, case
                for m in range(bits + 1):
                    got = oracle._scan(bits, incidence, witness, pairs, m=m, rows=r)
                    keys = [(p, m) for p in range(len(pairs))]
                    want = ([best.get(k, -1) for k in keys], [count.get(k, 0) for k in keys],
                            [first.get(k, 0) for k in keys])
                    assert tuple(x.tolist() for x in got) == want, (*case, m)
    # the small chunks cut joins, also where rows across the split are equal
    assert _orbit_splits(record) == (True, True)


def test_predicted_branches():
    # m < rk with a short witness stack: the column construction
    graph, branch = predicted_bipartite(4, 3, 2, 2, 6)
    assert branch == "B1"
    assert graph.num_edges == 6
    # m < rk with a tall witness stack
    _, branch = predicted_bipartite(3, 3, 2, 2, 5)
    assert branch == "B2"
    # past the boundary only the plain column filling applies
    _, branch = predicted_bipartite(4, 3, 2, 2, 9)
    assert branch == "B"
    # at the boundary both branches must agree
    _, branch = predicted_bipartite(4, 3, 2, 2, 8)
    assert branch == "B1=B"
    _, branch = predicted_bipartite(3, 3, 2, 2, 6)
    assert branch == "B2=B"


def test_cap_guard():
    with pytest.raises(SearchCapExceededError):
        phi_bipartite(5, 5, 2, 2, 12, cap=20)
    with pytest.raises(SearchCapExceededError):
        max_cherries_general(8, 10, 2, 2, cap=20)
    # a shifted-mode table of 13 x 13 x 73 = 12,337 cells
    phi_bipartite(12, 12, 4, 3, 72, mode="shifted", cap=14)
    with pytest.raises(SearchCapExceededError):
        phi_bipartite_right(12, 12, 4, 3, 72, mode="shifted", cap=13)
    # 65 cells do not fit a 64-bit mask whatever the cap
    with pytest.raises(SearchCapExceededError, match="64-bit"):
        phi_bipartite(13, 5, 1, 1, 3, cap=65)


def test_searches_refuse_before_building_masks(monkeypatch):
    """A search over the cap is refused before its incidence masks are
    built: r + s masks of r*s bits, or n masks of C(n, 2) bits."""

    def build(*args):
        raise AssertionError(f"incidence masks built for {args}")

    monkeypatch.setattr(oracle, "_bipartite_incidence", build)
    monkeypatch.setattr(oracle, "_vertex_masks", build)
    with pytest.raises(SearchCapExceededError):
        phi_bipartite(70, 1, 0, 0, 5)
    with pytest.raises(SearchCapExceededError):
        max_cherries_general(13, 5, 0, 0)


def test_report_json_key_order():
    report = phi_bipartite(2, 2, 1, 1, 2)
    obj = report.to_json()
    assert list(obj)[:4] == ["family", "params", "mode", "optimum_z1"]
    json.dumps(obj)  # serializable end to end
    # the derived fields keep their places, in every family and mode
    keys = ["family", "params", "mode", "optimum_z1", "optimum_cherries", "optimum_count",
            "optimum_graph", "predicted_z1", "predicted_cherries", "predicted_branch",
            "prediction_feasible", "match"]
    reports = (phi_bipartite(3, 3, 2, 2, 6), phi_bipartite_right(3, 3, 2, 2, 6),
               phi_bipartite(3, 3, 2, 2, 6, mode="shifted"), max_cherries_general(5, 4, 2, 1))
    for report in reports:
        assert list(report.to_json()) == keys, report.family


def test_general_small_cases():
    report = max_cherries_general(4, 3, 0, 0)
    assert report.optimum_cherries == 3  # triangle or star
    report = max_cherries_general(5, 4, 2, 1)
    assert report.optimum_z1 == slow_general_max(5, 4, 2, 1)[0]


def test_general_matches_slow_reference():
    for n in (4, 5):
        top = n * (n - 1) // 2
        for ell in range(1, 3):
            for k in range(0, 3):
                for m in range(k * ell, top + 1):
                    want = slow_general_max(n, m, ell, k)
                    if want is None:
                        with pytest.raises(ConstructionError):
                            max_cherries_general(n, m, ell, k)
                    else:
                        got = max_cherries_general(n, m, ell, k)
                        assert_report_is(got, want, graph_to_json, (n, m, ell, k))


def test_general_prediction_labels():
    assert predicted_general(8, 5, 2, 2) == (26, "G1=G2")
    assert predicted_general(5, 8, 2, 1) == (54, "G2")  # the remainder spills, b > a
    assert predicted_general(4, 6, 2, 3) == (None, None)


def _graph_built_prediction(n, m, ell, k):
    """(Z1, label) of the better of G1 and G2 built as graphs: the layout
    scoring's reference."""
    cands = []
    for label, builder in (("G1", g1_family), ("G2", g2_family)):
        try:
            cands.append((z1_index(builder(n, m, ell, k)), label))
        except ConstructionError:
            pass
    if not cands:
        return None, None
    best = max(z1 for z1, _ in cands)
    return best, "=".join(label for z1, label in cands if z1 == best)


def test_general_prediction_equals_graph_built_reference():
    for n in range(10):
        for m in range(n * (n - 1) // 2 + 1):
            for ell in range(n + 1):
                for k in range(n + 1):
                    case = (n, m, ell, k)
                    assert predicted_general(*case) == _graph_built_prediction(*case), case


def test_general_prediction_covers_the_witness_cells():
    """Every feasible cell with 2 <= n <= 7 and ell >= 1 has a prediction,
    and none is above the exact optimum."""
    missing, above, exact, below = [], [], 0, 0
    for n in range(2, 8):
        table = general_max_table(n)
        for ell in range(1, n + 1):
            for k in range(n):
                for m in range(n * (n - 1) // 2 + 1):
                    best = int(table[ell, k, m])
                    if best < 0:
                        continue
                    z1, _ = predicted_general(n, m, ell, k)
                    if z1 is None:
                        missing.append((n, m, ell, k))
                    elif z1 > best:
                        above.append((n, m, ell, k))
                    elif z1 == best:
                        exact += 1
                    else:
                        below += 1
    assert missing == [] and above == []
    assert (exact, below) == (614, 99)


def test_general_max_table_matches_pointwise():
    n = 5
    table = general_max_table(n)
    for ell in range(1, 3):
        for k in range(0, 3):
            for m in range(0, n * (n - 1) // 2 + 1):
                want = slow_general_max(n, m, ell, k)
                got = int(table[ell][k][m])
                assert got == (-1 if want is None else want[0]), (ell, k, m)


def test_verify_theorem_11_rows():
    rows = verify_theorem_11((2, 3, 4, 5))
    assert all(row["match"] for row in rows)
    # n = 5, m = 4: the star wins; m = 6: the clique side wins
    by_key = {(row["n"], row["m"]): row for row in rows}
    assert by_key[(5, 4)]["quasi_star_z1"] == 20
    assert by_key[(5, 4)]["quasi_clique_z1"] == 18
    assert by_key[(5, 6)]["quasi_clique_z1"] == 36


# graph references for the bipartite sweeps: every predicted graph is
# built, and its Z1 and witness are counted from its edges


def _ref_theorem_16(max_cells):
    rows = []
    for r, s in oracle._wide_pairs(max_cells):
        (best,), _, _ = oracle._scan(
            r * s, oracle._bipartite_incidence(r, s),
            functools.partial(oracle._bipartite_level, r, "left"), [(0, 0)], rows=r,
        )
        for m, oracle_z1 in enumerate(best.tolist()):
            predicted = z1_index(ak_bipartite(r, s, m))
            rows.append({"r": r, "s": s, "m": m, "oracle_z1": oracle_z1,
                         "predicted_z1": predicted, "match": oracle_z1 == predicted})
    return rows


def _ref_constrained(max_cells, side):
    rows = []
    for r, s in oracle._wide_pairs(max_cells):
        cases = [(ell, k) for k in range(s + 1) for ell in range(k, r + 1)]
        table, _, _ = oracle._scan(
            r * s, oracle._bipartite_incidence(r, s),
            functools.partial(oracle._bipartite_level, r, side),
            [oracle._floor_need(side, ell, k) for ell, k in cases], rows=r,
        )
        for (ell, k), best in zip(cases, table.tolist()):
            for m in range(k * ell, r * s + 1):
                predicted, branch = predicted_bipartite(r, s, ell, k, m)
                pz1 = z1_index(predicted)
                rows.append({
                    "r": r, "s": s, "ell": ell, "k": k, "m": m, "branch": branch,
                    "oracle_z1": best[m], "predicted_z1": pz1,
                    "prediction_feasible": _witness_ok(predicted, side, ell, k),
                    "match": best[m] == pz1,
                })
    return rows


def test_sweeps_match_graph_references():
    """Scored from layouts, with one column-filling table per shape, the
    sweeps give the rows of the graph references on every shape with
    r * s <= 14, key order included."""
    assert verify_theorem_16(14) == _ref_theorem_16(14)
    for sweep, side in ((verify_theorem_17, "left"), (verify_theorem_18, "right")):
        got, want = sweep(14), _ref_constrained(14, side)
        assert [list(row) for row in got] == [list(row) for row in want]
        assert got == want, side
        assert {row["branch"] for row in got} == {"B", "B1", "B2", "B1=B", "B2=B"}


def test_verify_bipartite_theorems_small():
    assert all(row["match"] for row in verify_theorem_16(9))
    rows17 = verify_theorem_17(9)
    assert all(row["match"] for row in rows17)
    assert any(row["branch"] == "B1" for row in rows17)
    assert any(row["branch"].endswith("=B") for row in rows17)
    rows18 = verify_theorem_18(9)
    assert all(row["match"] for row in rows18)
