"""Brute-force certification of the extremal bounds.

Graphs are enumerated as edge bitmasks and reduced with numpy.  A bipartite
graph on r x s cells is the mask with bit i*s + j set for edge (i, j); a
general graph on n vertices uses one bit per vertex pair in lexicographic
order.  Degrees are popcounts against per-vertex incidence masks.  Each
shape has one search, ``_bipartite_search`` or ``_general_search``, that
every query and sweep of the shape calls.  It refuses a space over the cap
before it builds anything, then runs the one chunked kernel ``_scan``, and
gives a point query its optimal mask as edges, the cells of its set bits.

The kernel splits each mask into a high and a low half.  A vertex's degree
is the sum of its degrees in the two halves, read from one table per half,
and the Zagreb index of a block of high halves joined to a block of low
halves is one int16 matrix product of the halves' tables; it is exact,
since every partial sum is an integer of at most 2 * 64 * 64.  A query at
one edge count m joins the high halves of popcount j only to the low
halves of popcount m - j, so it makes only the masks with m edges.

Bipartite searches make one mask per row orbit.  Z1 and both bipartite
witnesses depend only on the multiset of rows: permuting the rows of an
r x s graph permutes its row degrees and keeps its column degrees.  So the
kernel makes only the row-sorted representative of each orbit, whose row
values never increase with the row index; row r-1 holds the top bits, so
it is the smallest mask of its orbit.  There are C(2^s + r - 1, r) of them
against 2^(r*s) masks.  A representative whose row values occur mu times
each stands for r!/prod(mu!) masks, and counts that many towards the number
of optimal graphs.  The smallest optimal representative is the smallest
optimal mask, so reports do not change.

Bipartite queries in shifted mode instead maximize over Ferrers diagrams
with an exact dynamic program over column heights, ``_shifted_optimum``,
which reports the optimum with the lexicographically largest heights.

All maximization happens in the Zagreb convention; a report derives its
cherry counts via z1 = 2*cherries + 2*edges.  Reports carry the exact
optimum, the number of optimal graphs, the optimal graph with the smallest
bitmask (a partition-independent tie-break, so results do not depend on
chunking or worker count), and the construction the relevant bound
predicts for those parameters.  Theorem sweeps and general-graph queries
score every prediction from its construction's layout and build no graph;
the bipartite sweeps read the column filling, which does not depend on
the witness, from one table per shape.  The unconstrained bounds are the
searches at (ell, k) = (0, 0), whose pair holds for every graph and calls
no witness: theorem 1.6 is the (0, 0) rows of theorem 1.7's sweep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, partial, reduce
from itertools import chain, combinations, islice, product
from math import comb

import numpy as np

from .constructions import (
    BipartiteFamilyParams,
    ConstructionError,
    _ak_layout,
    _b1_layout,
    _b2_layout,
    _bipartite_degrees,
    _degree_classes,
    _g1_layout,
    _g2_layout,
    _quasi_clique_layout,
    _quasi_star_layout,
    ak_bipartite,
    b1_family,
    b2_family,
)
from .graph_core import (
    DEFAULT_BIT_CAP,
    BipartiteGraph,
    Graph,
    SearchCapExceededError,
    bipartite_to_json,
    graph_to_json,
    z1_index,
)

_CHUNK_BITS = 18


# ----------------------------------------------------------------------
# the enumeration kernel
#
# A mask is split into a high half h and a low half l of low_bits bits,
# mask = h * 2^low_bits + l.  A vertex's degree is then A[v, h] + B[v, l],
# where A and B are the popcounts of the halves against its incidence
# mask, and Z1 = zA[h] + zB[l] + 2 * sum_v A[v, h] * B[v, l] with
# zA = sum_v A^2 and zB = sum_v B^2.  _Half keeps those tables as one
# matrix per half, so the Z1 of every mask in a block of high halves
# joined to a block of low halves is one matrix product.  The halves come
# from one of two sources: every mask, or for bipartite graphs the
# row-sorted masks, split between whole rows (see _scan).
#
# A witness is a function witness(chunk, floor) that gives every mask of a
# _Chunk a small level at a floor; it reads chunk.deg (one row of degrees
# per vertex, one column per mask) and chunk.masks only if it needs them,
# and neither is built otherwise.  A mask satisfies the pair (floor, need)
# when its level at that floor is at least need, so pairs sharing a floor
# share one witness evaluation, and a floor whose pairs all need 0 takes
# none.  Levels count vertices and stay below len(incidence) + 1.


def _check_bits(bits: int, cap: int) -> None:
    if bits > 64:
        raise SearchCapExceededError(
            f"search space of 2^{bits} masks does not fit in 64-bit masks"
        )
    if bits > cap:
        raise SearchCapExceededError(
            f"search space of 2^{bits} masks exceeds the cap of 2^{cap}"
        )


@dataclass
class _Half:
    """Half masks with their degree table (one uint8 row per vertex), edge
    counts, and Z1 factor: [A; zA; 1] for high halves and [2B; 1; zB] for
    low halves, so that high.factor^T @ low.factor is the Z1 of each join.

    The factors and the product are int16, which holds any Z1 of a uint64
    mask: Z1 <= 2 * edges * max degree <= 2 * 64 * 64, and every term and
    partial sum of the product is a nonnegative integer no larger.  The
    product is an einsum.  An int16 product never reaches BLAS, which has
    only floating-point kernels, and the package's __init__ pins BLAS's
    thread pool to one thread in any case."""

    masks: np.ndarray
    deg: np.ndarray
    edges: np.ndarray
    factor: np.ndarray

    @classmethod
    def of(cls, masks, incidence, high):
        deg = np.empty((len(incidence), masks.size), dtype=np.uint8)
        for row, vertex in zip(deg, incidence):
            np.bitwise_count(masks & np.uint64(vertex), out=row)
        d = deg.astype(np.int16)
        z, ones = np.square(d).sum(axis=0, dtype=np.int16), np.ones(masks.size, dtype=np.int16)
        factor = np.vstack([d, z, ones] if high else [2 * d, ones, z])
        return cls(masks, deg, np.bitwise_count(masks), factor)

    def __getitem__(self, part):
        return _Half(self.masks[part], self.deg[:, part], self.edges[part], self.factor[:, part])


class _Chunk:
    """The masks of a list of (high, low) half joins, in join order.

    z1 is built at once; edges, deg and masks on first use."""

    def __init__(self, joins, low_bits):
        self.joins, self.low_bits = joins, low_bits
        self.size = sum(high.masks.size * low.masks.size for high, low in joins)
        self.z1 = self._join((), np.int16, lambda high, low, out: np.einsum(
            "vh,vl->hl", high.factor, low.factor, out=out))

    def _join(self, rows, dtype, fill):
        out = np.empty(rows + (self.size,), dtype=dtype)
        at = 0
        for high, low in self.joins:
            n = high.masks.size * low.masks.size
            # splitting the last axis of a slice is always a view
            fill(high, low, out[..., at:at + n].reshape(rows + (high.masks.size, low.masks.size)))
            at += n
        return out

    @cached_property
    def edges(self):
        return self._join((), np.uint8, lambda high, low, out: np.add(
            high.edges[:, None], low.edges, out=out))

    @cached_property
    def deg(self):
        return self._join((len(self.joins[0][1].deg),), np.uint8, lambda high, low, out: np.add(
            high.deg[:, :, None], low.deg[:, None, :], out=out))

    @cached_property
    def masks(self):
        shift = np.uint64(self.low_bits)
        return self._join((), np.uint64, lambda high, low, out: np.bitwise_or(
            high.masks[:, None] << shift, low.masks, out=out))


def _row_sorted(count, s, first):
    """Masks of count >= 1 rows of s cells, row i in bits i*s to i*s + s - 1,
    whose row values never increase with the row index, for each value of
    row 0 in ``first``, in the order of ``first``."""
    masks = last = np.asarray(first, dtype=np.uint64)
    for i in range(1, count):
        # row i takes every value from 0 to row i - 1's
        width = (last + np.uint64(1)).astype(np.int64)
        at = np.repeat(np.cumsum(width) - width, width)
        value = (np.arange(at.size) - at).astype(np.uint64)
        masks = np.repeat(masks, width) | value << np.uint64(i * s)
        last = value
    return masks


def _row_orbits(count, s, top):
    """Blocks of the masks of ``count`` rows of s cells whose row values
    never increase with the row index and never exceed ``top``: each such
    mask is the smallest of its orbit under row permutations.

    A block holds a run of row 0 values with at most 2^_CHUNK_BITS masks in
    all.  Where one row 0 value alone has more, the other rows are split the
    same way, so memory stays flat however many masks there are."""
    if count == 0:
        yield np.zeros(1, dtype=np.uint64)
        return
    budget = 1 << _CHUNK_BITS
    lo = 0
    while lo <= top:
        # comb(v + count, count) masks have row 0 <= v; take the longest run
        # of row 0 values from lo that fits the budget
        below, fits, over = comb(lo + count - 1, count), lo - 1, top + 1
        while over - fits > 1:
            mid = (fits + over) // 2
            if comb(mid + count, count) - below <= budget:
                fits = mid
            else:
                over = mid
        if fits < lo:
            for rest in _row_orbits(count - 1, s, lo):
                yield np.uint64(lo) | rest << np.uint64(s)
            lo += 1
        else:
            yield _row_sorted(count, s, np.arange(lo, fits + 1, dtype=np.uint64))
            lo = fits + 1


def _orbit_sizes(masks, rows, s):
    """r!/prod(mu!) for each row-sorted mask of r = ``rows`` rows of s cells,
    with mu the multiplicities of its row values: how many masks its orbit
    under row permutations holds.  Built up one row at a time, every
    intermediate value is the orbit size of a prefix, so none overflows."""
    cells = np.uint64((1 << s) - 1)
    size, run = np.ones(masks.size, dtype=np.int64), np.ones(masks.size, dtype=np.int64)
    last = masks & cells
    for i in range(1, rows):
        row = masks >> np.uint64(i * s) & cells
        # equal values are adjacent in a sorted mask; run is row i's count so far
        run = np.where(row == last, run + 1, 1)
        common = np.gcd(run, i + 1)
        size = size // (run // common) * ((i + 1) // common)
        last = row
    return size


def _chunks(highs, keys, span, m):
    """Lists of (high halves, slice of lows) joins, about 2^_CHUNK_BITS
    masks per list, from ``highs``, blocks of high halves.

    ``keys`` ascend, one per low half: e * span + top, where e is the low
    half's popcount with m and 0 without, and top its top row's value (0
    for plain masks, where span is 1).  A high half h whose bottom row holds
    v = h mod span joins the lows with keys in [e * span + v, (e + 1) * span),
    e = m - popcount(h) with m and 0 without.  Plain masks thus join every
    low half, or with m only those of popcount m - popcount(h), so only
    masks with m edges are made; row-sorted halves join only the low halves
    whose top row is at least v, so every join is row-sorted too.  High
    halves of one e and v form one join, split across lists where a list
    fills up."""
    budget = 1 << _CHUNK_BITS
    chunk, size = [], 0
    for block in highs:
        key = (block & np.uint64(span - 1)).astype(np.int64)
        if m is not None:
            key += (m - np.bitwise_count(block).astype(np.int64)) * span
        order = np.argsort(key, kind="stable")
        block, key = block[order], key[order]
        cuts = np.flatnonzero(np.diff(key)) + 1
        for group, k in zip(np.split(block, cuts), key[np.r_[0, cuts]].tolist()):
            start, stop = np.searchsorted(keys, [k, (k // span + 1) * span]).tolist()
            width, at = stop - start, 0
            while width and at < group.size:
                # width <= len(keys) <= budget, so an empty chunk has room
                room = (budget - size) // width
                if not room:
                    yield chunk
                    chunk, size = [], 0
                    continue
                take = min(group.size - at, room)
                chunk.append((group[at:at + take], slice(start, stop)))
                size, at = size + take * width, at + take
    if chunk:
        yield chunk


def _merge(acc, new):
    """Elementwise best-of merge of (z1, count, first) tables.

    Empty cells hold z1 = -1.  Sweeps carry no count or first (None).
    The merge is associative and commutative, so tables do not depend on
    chunking or worker count.
    """
    z1, count, first = acc
    new_z1, new_count, new_first = new
    best = np.maximum(z1, new_z1)
    if count is None:
        return best, None, None
    old, fresh = z1 == best, new_z1 == best
    count = np.where(old, count, 0) + np.where(fresh, new_count, 0)
    first = np.where(old & fresh, np.minimum(first, new_first), np.where(old, first, new_first))
    return best, count, first


def _best_at_m(chunk, levels, pairs, weigh):
    best = np.full(len(pairs), -1, dtype=np.int64)
    count = np.zeros(len(pairs), dtype=np.int64)
    first = np.zeros(len(pairs), dtype=np.uint64)
    for p, (floor, need) in enumerate(pairs):
        z = np.where(levels[floor] >= need, chunk.z1, -1)
        best[p] = z.max()
        if best[p] >= 0:
            optimal = chunk.masks[z == best[p]]
            count[p] = weigh(optimal).sum()
            # masks do not ascend within a chunk, so take the smallest optimum
            first[p] = optimal.min()
    return best, count, first


def _best_per_edge_count(edges, z1, levels, pairs, bits, width):
    keys = edges.astype(np.uint16) * width
    tops = {}
    for floor, level in levels.items():
        top = np.full((bits + 1) * width, -1, dtype=np.int16)
        np.maximum.at(top, keys + level, z1)
        # top[e, l] is the best at level exactly l; a running max down
        # from the highest level makes it the best at level >= l
        tops[floor] = np.maximum.accumulate(top.reshape(bits + 1, width)[:, ::-1], axis=1)[:, ::-1]
    return np.array([tops[floor][:, need] for floor, need in pairs])


def _scan_chunk(joins, search):
    lows, low_bits, high_incidence, witness, pairs, m, bits, rows = search
    # one table for all the chunk's high halves, sliced per join
    highs = _Half.of(np.concatenate([block for block, _ in joins]), high_incidence, True)
    ends = np.cumsum([block.size for block, _ in joins]).tolist()
    chunk = _Chunk([(highs[end - block.size:end], lows[part])
                    for (block, part), end in zip(joins, ends)], low_bits)
    needed = {floor for floor, need in pairs if need}
    levels = {floor: witness(chunk, floor) if floor in needed else np.zeros(chunk.size, dtype=np.uint8)
              for floor in dict.fromkeys(f for f, _ in pairs)}
    if m is not None:
        if rows is None:
            return _best_at_m(chunk, levels, pairs, np.ones_like)
        return _best_at_m(chunk, levels, pairs, partial(_orbit_sizes, rows=rows, s=bits // rows))
    width = len(high_incidence) + 1
    return _best_per_edge_count(chunk.edges, chunk.z1, levels, pairs, bits, width), None, None


_worker_search = None  # a Pool worker's search, set once by its initializer


def _start_worker(search):
    global _worker_search
    _worker_search = search


def _worker_chunk(joins):
    return _scan_chunk(joins, _worker_search)


def _scan(bits, incidence, witness, pairs, *, m=None, jobs=1, cap=DEFAULT_BIT_CAP, rows=None):
    """Best Zagreb index over all 2^bits edge masks, for each witness pair.

    ``incidence`` holds one mask per vertex; a vertex's degree in a graph
    is the popcount of the graph's mask against it.  Each mask is split
    into a high half and a low half.  The degree table, edge counts and Z1
    factor of every low half are built once per search, those of the high
    halves once per chunk (see _Half), and a chunk joins blocks of high
    halves to slices of the low halves, about 2^_CHUNK_BITS masks in all
    (see _chunks).  With m, high halves of popcount j are joined only to
    low halves of popcount m - j, so only masks with m edges are made.
    Chunks are made and merged one at a time, so memory stays flat as bits
    grows; with jobs > 1 they run over min(jobs, chunks) worker processes,
    and in process when there is one.  Each worker gets the search, low
    half table included, once, and each task only its joins.

    Plain masks are split at their low min(bits // 2, _CHUNK_BITS) bits,
    and every mask is made.  With ``rows`` the masks are those of an
    r x s bipartite graph, r = rows, with row i in bits i*s to i*s + s - 1
    and the witness a function of the row and column degrees.  Permuting
    the rows changes neither Z1 nor the column degrees nor the multiset of
    row degrees, so Z1 and the witness are constant on every orbit of
    masks under row permutations.  The orbit's smallest mask is its
    row-sorted representative, whose row values never increase with the
    row index, and only those are made: C(2^s + r - 1, r) of them.  The
    low half holds t whole rows, t = r // 2 lowered until there are at
    most 2^_CHUNK_BITS row-sorted low halves, and a high half whose bottom
    row holds v joins only the low halves whose top row is at least v.  A
    representative with row value multiplicities mu stands for r!/prod(mu!)
    masks, which weighs its count.

    Without m the result is (table, None, None): table[p, e] is the best
    Z1 over masks with e edges that satisfy pairs[p], or -1.  With m the
    result is (best, count, first) per pair: the best Z1 or -1, how many
    masks reach it, and the smallest of those masks.  Each orbit's masks
    all reach the same Z1, so the smallest optimal representative is the
    smallest optimal mask.
    """
    _check_bits(bits, cap)
    if rows is None:
        low_bits, span = min(bits // 2, _CHUNK_BITS), 1
        lows = np.arange(1 << low_bits, dtype=np.uint64)
        tops = np.zeros(lows.size, dtype=np.int64)
        step, total = 1 << _CHUNK_BITS, 1 << (bits - low_bits)
        highs = (np.arange(at, min(at + step, total), dtype=np.uint64)
                 for at in range(0, total, step))
    else:
        s = bits // rows
        t = max(t for t in range(rows // 2 + 1) if comb((1 << s) + t - 1, t) <= 1 << _CHUNK_BITS)
        low_bits, span = s * t, 1 << s if t else 1
        # at most 2^_CHUNK_BITS masks, so one block
        lows = next(_row_orbits(t, s, (1 << s) - 1))
        tops = (lows >> np.uint64(low_bits - s) if t else lows).astype(np.int64)
        highs = _row_orbits(rows - t, s, (1 << s) - 1)
    keys = tops + (np.bitwise_count(lows).astype(np.int64) * span if m is not None else 0)
    order = np.argsort(keys, kind="stable")
    lows = _Half.of(lows[order], [vertex & ((1 << low_bits) - 1) for vertex in incidence], False)
    high_incidence = [vertex >> low_bits for vertex in incidence]
    search = (lows, low_bits, high_incidence, witness, pairs, m, bits, rows)
    chunks = _chunks(highs, keys[order], span, m)
    head = list(islice(chunks, jobs))
    if len(head) > 1:
        # imported here, so that a process that never runs jobs > 1 does not load it
        from multiprocessing import Pool

        with Pool(len(head), initializer=_start_worker, initargs=(search,)) as pool:
            return reduce(_merge, pool.imap_unordered(_worker_chunk, chain(head, chunks)))
    return reduce(_merge, (_scan_chunk(joins, search) for joins in chain(head, chunks)))


def _answer(result, m, cells):
    """A shape search's answer: without m, _scan's table; with m and one
    pair, the point (best Z1, count, edges), where edges are the cells of the
    smallest optimal mask's set bits and ``cells`` lists every cell in bit order."""
    if m is None:
        return result[0]
    (best,), (count,), (first,) = result
    if best < 0:
        raise ConstructionError("no graph satisfies the constraints")
    first = int(first)
    return int(best), int(count), {cell for bit, cell in enumerate(cells) if first >> bit & 1}


# ----------------------------------------------------------------------
# bipartite graphs


def _bipartite_incidence(r: int, s: int) -> list[int]:
    """Cell masks of the r rows, then of the s columns."""
    rows = [((1 << s) - 1) << (i * s) for i in range(r)]
    cols = [sum(1 << (i * s + j) for i in range(r)) for j in range(s)]
    return rows + cols


def _floor_need(side: str, ell: int, k: int) -> tuple[int, int]:
    """The bipartite witness asks for `need` vertices of degree >= `floor`
    on its side: ell rows of degree >= k on the left, k columns of degree
    >= ell on the right."""
    return (k, ell) if side == "left" else (ell, k)


def _witness_holds(row_degrees, col_degrees, side: str, ell: int, k: int) -> bool:
    """The bipartite witness on degree lists of length r and s."""
    floor, need = _floor_need(side, ell, k)
    return sum(d >= floor for d in (row_degrees if side == "left" else col_degrees)) >= need


def _bipartite_level(r, side, chunk, floor):
    """Kernel witness: how many vertices on the side have degree >= floor."""
    level = np.zeros(chunk.size, dtype=np.uint8)
    for row in chunk.deg[:r] if side == "left" else chunk.deg[r:]:
        level += row >= floor
    return level


def _bipartite_search(r, s, side, pairs, *, m=None, jobs=1, cap=DEFAULT_BIT_CAP):
    """The search over r x s bipartite graphs, one mask per row orbit, with
    the witness on ``side``: refused over the cap before anything is built,
    it returns _answer's table or point."""
    _check_bits(r * s, cap)
    result = _scan(r * s, _bipartite_incidence(r, s), partial(_bipartite_level, r, side),
                   pairs, m=m, jobs=jobs, cap=cap, rows=r)
    return _answer(result, m, product(range(r), range(s)))


def _shifted_optimum(r: int, s: int, ell: int, k: int, m: int, cap: int):
    """Best Z1 over shifted r x s graphs with m edges that meet the witness.

    A shifted graph is a Ferrers diagram: column j holds rows 0..h_j-1 for
    heights h_0 >= ... >= h_{s-1} >= 0 summing to m.  Row i then has degree
    #{j : h_j > i}, so the row degrees' squares sum to sum_j (2j+1) h_j and
    column j of height h adds h*h + (2j+1)*h to Z1.  Both witnesses ask for
    k columns of height >= ell (on the left, row ell-1 of degree >= k is
    h_{k-1} >= ell), so h_j >= ell for j < k.

    Bottom up over j, z[j, b, e] is the best Z1 of columns j..s-1 with
    heights <= b summing to e, or -1, and count[b, e] is how many height
    vectors reach it.  Returns (best, count, heights), where heights is the
    lexicographically largest optimum.  A table of more than 2^cap cells is
    refused.
    """
    tallest = min(r, m)
    cells = (s + 1) * (tallest + 1) * (m + 1)
    if cells > 1 << cap:
        raise SearchCapExceededError(
            f"shifted-mode table of {cells} cells exceeds the cap of 2^{cap}"
        )

    def gain(j, h):
        return h * h + (2 * j + 1) * h

    low = [ell] * k + [0] * (s - k)
    z = np.full((s + 1, tallest + 1, m + 1), -1, dtype=np.int64)
    z[s, :, 0] = 0
    count = np.zeros((tallest + 1, m + 1), dtype=object)
    count[:, 0] = 1
    for j in range(s - 1, -1, -1):
        best, ways = np.full(m + 1, -1, dtype=np.int64), np.zeros(m + 1, dtype=object)
        below = np.zeros_like(count)
        for b in range(low[j], tallest + 1):
            # h_j = b on top of columns j+1.. of heights <= b
            new = np.full(m + 1, -1, dtype=np.int64)
            tail = z[j + 1, b, : m + 1 - b]
            new[b:] = np.where(tail >= 0, tail + gain(j, b), -1)
            new_ways = np.zeros(m + 1, dtype=object)
            new_ways[b:] = count[b, : m + 1 - b]
            top = np.maximum(best, new)
            ways = np.where(best == top, ways, 0) + np.where(new == top, new_ways, 0)
            z[j, b], below[b], best = top, ways, top
        count = below

    best = int(z[0, tallest, m])
    if best < 0:
        raise ConstructionError("no shifted graph satisfies the constraints")
    heights, b, e, rest = [], tallest, m, best
    for j in range(s):
        # the largest height whose tail is still optimal
        b = next(
            h for h in range(min(b, e), low[j] - 1, -1)
            if 0 <= z[j + 1, h, e - h] == rest - gain(j, h)
        )
        heights.append(b)
        e, rest = e - b, rest - gain(j, b)
    return best, count[tallest, m], heights


@dataclass
class OracleReport:
    """Exact search result plus the prediction it is compared against.  The
    cherry counts and the match follow from the two Z1s and params["m"]."""

    family: str
    params: dict
    mode: str
    optimum_z1: int
    optimum_cherries: int = field(init=False)
    optimum_count: int
    optimum_graph: dict
    predicted_z1: int | None
    predicted_cherries: int | None = field(init=False)
    predicted_branch: str | None
    prediction_feasible: bool | None
    match: bool | None = field(init=False)

    def __post_init__(self):
        m, predicted = self.params["m"], self.predicted_z1
        self.optimum_cherries = (self.optimum_z1 - 2 * m) // 2
        self.predicted_cherries = None if predicted is None else (predicted - 2 * m) // 2
        self.match = None if predicted is None else self.optimum_z1 == predicted

    def to_json(self) -> dict:
        return asdict(self)


def predicted_bipartite(r: int, s: int, ell: int, k: int, m: int):
    """Predicted extremal graph and branch label for the bipartite bound.

    Branches: column filling B for m >= r*k, witness-first B1 for
    m <= r*k with k + ell <= r, else B2.  At the boundary m = r*k the two
    applicable predictions must agree and are both checked.  The sweeps
    score the same branches from layouts (_predictions).
    """
    params = BipartiteFamilyParams(r, s, m, ell, k)
    label, family = ("B1", b1_family) if k + ell <= r else ("B2", b2_family)
    if m < r * k:
        return family(params), label
    g = ak_bipartite(r, s, m)
    if m > r * k:
        return g, "B"
    if z1_index(family(params)) != z1_index(g):
        raise AssertionError("branch predictions disagree at the boundary m = r*k")
    return g, f"{label}=B"


def _scored(r: int, s: int, blocks) -> tuple[list[int], list[int], int]:
    """(row degrees, column degrees, Z1) of a bipartite layout."""
    row_degrees, col_degrees = _bipartite_degrees(r, s, blocks)
    return row_degrees, col_degrees, sum(d * d for d in row_degrees) + sum(d * d for d in col_degrees)


def _column_filling(r: int, s: int) -> list:
    """The column filling _scored at every m from 0 to r*s.  It does not
    depend on the witness, so one table serves every (ell, k) of a shape."""
    return [_scored(r, s, _ak_layout(r, s, m)) for m in range(r * s + 1)]


def _predictions(r: int, s: int, ell: int, k: int, filling: list):
    """(branch, row degrees, column degrees, Z1) of predicted_bipartite's
    graph for each m from k*ell to r*s, read off the layouts; ``filling``
    is _column_filling(r, s).  The parameters are validated once: each m
    of the range meets k*ell <= m <= r*s."""
    BipartiteFamilyParams(r, s, k * ell, ell, k)
    label, layout = ("B1", _b1_layout) if k + ell <= r else ("B2", _b2_layout)
    rk = r * k
    for m in range(k * ell, rk):
        yield (label, *_scored(r, s, layout(r, s, m, ell, k)))
    if _scored(r, s, layout(r, s, rk, ell, k))[2] != filling[rk][2]:
        raise AssertionError("branch predictions disagree at the boundary m = r*k")
    yield (f"{label}=B", *filling[rk])
    for m in range(rk + 1, r * s + 1):
        yield ("B", *filling[m])


def _phi(family, r, s, ell, k, m, mode, jobs, cap) -> OracleReport:
    BipartiteFamilyParams(r, s, m, ell, k)
    side = family.removeprefix("bipartite-")
    if mode == "shifted":
        best, count, heights = _shifted_optimum(r, s, ell, k, m, cap)
        edges = {(i, j) for j, h in enumerate(heights) for i in range(h)}
    elif mode == "full":
        pairs = [_floor_need(side, ell, k)]
        best, count, edges = _bipartite_search(r, s, side, pairs, m=m, jobs=jobs, cap=cap)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    predicted, branch = predicted_bipartite(r, s, ell, k, m)
    return OracleReport(
        family=family,
        params={"r": r, "s": s, "ell": ell, "k": k, "m": m},
        mode=mode,
        optimum_z1=best,
        optimum_count=count,
        optimum_graph=bipartite_to_json(BipartiteGraph(r, s, edges)),
        predicted_z1=z1_index(predicted),
        predicted_branch=branch,
        prediction_feasible=_witness_holds(
            predicted.left_degrees(), predicted.right_degrees(), side, ell, k
        ),
    )


def phi_bipartite(r, s, ell, k, m, *, mode="full", jobs=1, cap=DEFAULT_BIT_CAP) -> OracleReport:
    """Max Zagreb index over r x s bipartite graphs with m edges and at
    least ell rows of degree >= k, compared against the predicted branch."""
    return _phi("bipartite-left", r, s, ell, k, m, mode, jobs, cap)


def phi_bipartite_right(r, s, ell, k, m, *, mode="full", jobs=1, cap=DEFAULT_BIT_CAP) -> OracleReport:
    """Mirror of phi_bipartite with the witness on the right part: at
    least k columns of degree >= ell."""
    return _phi("bipartite-right", r, s, ell, k, m, mode, jobs, cap)


# ----------------------------------------------------------------------
# general graphs


def _pair_bits(n: int) -> dict:
    """The bit of each vertex pair (u, v), u < v, in lexicographic order."""
    return {pair: 1 << i for i, pair in enumerate(combinations(range(n), 2))}


def _vertex_masks(n: int) -> list[int]:
    vm = [0] * n
    for (u, v), bit in _pair_bits(n).items():
        vm[u] |= bit
        vm[v] |= bit
    return vm


def _general_search(n, pairs, *, m=None, jobs=1, cap=DEFAULT_BIT_CAP):
    """The search over graphs on n vertices with the independent-set
    witness: refused over the cap before anything is built, it returns
    _answer's table or point."""
    bits = comb(n, 2)
    _check_bits(bits, cap)
    result = _scan(bits, _vertex_masks(n), partial(_independent_level, n), pairs, m=m, jobs=jobs, cap=cap)
    return _answer(result, m, _pair_bits(n))


def _general_pair(ell: int, k: int) -> tuple[int, int]:
    """The general witness as (floor, need) for _independent_level; with
    ell = 0 the empty set is a witness whatever k is."""
    return (ell, k + 1) if ell else (0, 0)


def _independent_level(n, chunk, ell):
    """Kernel witness: 1 + the largest minimum degree of an independent
    ell-set, 0 when there is none.  ell = 0 asks for no witness (_general_pair)."""
    level = np.zeros(chunk.size, dtype=np.uint8)
    masks, deg, bit = chunk.masks, chunk.deg, _pair_bits(n)
    for sub in combinations(range(n), ell):
        inside = sum(bit[pair] for pair in combinations(sub, 2))
        independent = (masks & np.uint64(inside)) == 0
        np.maximum(level, np.where(independent, deg[list(sub)].min(axis=0) + 1, 0), out=level)
    return level


def _layout_z1(n: int, blocks) -> int:
    return sum(d * d * count for d, count in _degree_classes(n, blocks).items())


def predicted_general(n: int, m: int, ell: int, k: int):
    """(Z1, label) of the better constructible of the two clique-plus-block
    layouts, G1 and G2, with ties labelled "G1=G2"; (None, None) when
    neither is constructible."""
    scored = []
    for label, layout in (("G1", _g1_layout), ("G2", _g2_layout)):
        try:
            scored.append((_layout_z1(n, layout(n, m, ell, k)), label))
        except ConstructionError:
            pass
    if not scored:
        return None, None
    best = max(z1 for z1, _ in scored)
    return best, "=".join(label for z1, label in scored if z1 == best)


def max_cherries_general(n, m, ell, k, *, jobs=1, cap=DEFAULT_BIT_CAP) -> OracleReport:
    """Max cherry count over n-vertex m-edge graphs with an independent
    ell-set of minimum degree k, compared against the best construction."""
    for name, value in (("n", n), ("m", m), ("ell", ell), ("k", k)):
        if value < 0:
            raise ConstructionError(f"{name}={value} must be nonnegative")
    if m > comb(n, 2):
        raise ConstructionError(f"m={m} out of range for n={n}")
    if ell > n or (ell > 0 and k > n - ell):
        raise ConstructionError("witness cannot fit")
    best, count, edges = _general_search(n, [_general_pair(ell, k)], m=m, jobs=jobs, cap=cap)
    pred_z1, branch = predicted_general(n, m, ell, k)
    return OracleReport(
        family="general",
        params={"n": n, "m": m, "ell": ell, "k": k},
        mode="full",
        optimum_z1=best,
        optimum_count=count,
        optimum_graph=graph_to_json(Graph(n, edges)),
        predicted_z1=pred_z1,
        predicted_branch=branch,
        prediction_feasible=None if pred_z1 is None else True,
    )


def general_max_table(n: int, *, cap: int = DEFAULT_BIT_CAP) -> np.ndarray:
    """table[ell, k, m] = max Zagreb index over the constrained family,
    -1 where the family is empty.  Indexed ell in 0..n, k in 0..n-1."""
    pairs = [_general_pair(ell, k) for ell in range(n + 1) for k in range(n)]
    return _general_search(n, pairs, cap=cap).astype(np.int64).reshape(n + 1, n, -1)


# ----------------------------------------------------------------------
# theorem sweeps


def verify_theorem_11(n_values=(4, 5, 6, 7), *, cap: int = DEFAULT_BIT_CAP) -> list[dict]:
    """Unconstrained general graphs: for every m the brute-force max equals
    the better of quasi-star and quasi-clique, scored from their layouts."""
    rows = []
    for n in n_values:
        (best,) = _general_search(n, [(0, 0)], cap=cap)
        for m, oracle_z1 in enumerate(best.tolist()):
            star = _layout_z1(n, _quasi_star_layout(n, m))
            clique = _layout_z1(n, _quasi_clique_layout(n, m))
            predicted = max(star, clique)
            rows.append({
                "n": n, "m": m, "oracle_z1": oracle_z1, "quasi_star_z1": star,
                "quasi_clique_z1": clique, "predicted_z1": predicted, "match": oracle_z1 == predicted,
            })
    return rows


def _wide_pairs(max_cells: int):
    for s in range(1, max_cells + 1):
        for r in range(s, max_cells + 1):
            if r * s <= max_cells:
                yield r, s


def verify_theorem_16(max_cells: int = 20, *, cap: int = DEFAULT_BIT_CAP) -> list[dict]:
    """Unconstrained bipartite graphs: column filling is extremal.  These are
    theorem 1.7's rows at (ell, k) = (0, 0), in six of its columns."""
    columns = ("r", "s", "m", "oracle_z1", "predicted_z1", "match")
    rows = _verify_constrained(max_cells, "left", cap, [(0, 0)])
    return [{key: row[key] for key in columns} for row in rows]


def _verify_constrained(max_cells: int, side: str, cap: int, cases=None) -> list[dict]:
    """Rows of every r x s shape for the (ell, k) in cases, by default every ell >= k."""
    rows = []
    for r, s in _wide_pairs(max_cells):
        run = cases or [(ell, k) for k in range(s + 1) for ell in range(k, r + 1)]
        table = _bipartite_search(r, s, side, [_floor_need(side, ell, k) for ell, k in run], cap=cap)
        filling = _column_filling(r, s)
        for (ell, k), best in zip(run, table.tolist()):
            predictions = _predictions(r, s, ell, k, filling)
            for m, (branch, row_degrees, col_degrees, pz1) in enumerate(predictions, k * ell):
                rows.append({
                    "r": r, "s": s, "ell": ell, "k": k, "m": m, "branch": branch,
                    "oracle_z1": best[m], "predicted_z1": pz1,
                    "prediction_feasible": _witness_holds(row_degrees, col_degrees, side, ell, k),
                    "match": best[m] == pz1,
                })
    return rows


def verify_theorem_17(max_cells: int = 16, *, cap: int = DEFAULT_BIT_CAP) -> list[dict]:
    """Constrained bipartite graphs, witness on the left part."""
    return _verify_constrained(max_cells, "left", cap)


def verify_theorem_18(max_cells: int = 16, *, cap: int = DEFAULT_BIT_CAP) -> list[dict]:
    """Constrained bipartite graphs, witness on the right part."""
    return _verify_constrained(max_cells, "right", cap)
