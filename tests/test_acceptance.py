"""Acceptance gate: eleven end-to-end criteria, one report line each.

The report lines print through pytest's capture so they stay visible in
plain `pytest -v` runs.
"""

import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import pytest

from cherrymax.appendix import (
    a1_corner_expected,
    bound_value,
    check_lemma,
    interior_bounds_check,
    quasi_star_scaled,
)
from cherrymax.constructions import (
    BipartiteFamilyParams,
    ConstructionError,
    ak_bipartite,
    b1_family,
    b2_family,
    g1_family,
    g2_family,
    quasi_clique,
    quasi_star,
)
from cherrymax.density import DensityPoint, convergence
from cherrymax.graph_core import (
    ConstraintWitness,
    Graph,
    count_cherries,
    z1_index,
)
from cherrymax import oracle, shifting


@pytest.fixture
def report(capsys):
    """One visible PASS/FAIL line per criterion, then the assertion."""

    def emit(num: int, ok: bool, detail: str) -> None:
        line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def _identity_holds(g) -> bool:
    return z1_index(g) == 2 * count_cherries(g) + 2 * g.num_edges


def test_criterion_01_zagreb_identity(report):
    start = time.perf_counter()
    rng = random.Random(11)
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        edges = {
            pair for pair in combinations(range(n), 2) if rng.random() < rng.random()
        }
        if not _identity_holds(Graph(n, edges)):
            report(1, False, f"random graph n={n} broke the identity")
        checked += 1
    built = 0
    for n in range(2, 9):
        for m in range(comb(n, 2) + 1):
            for g in (quasi_clique(n, m), quasi_star(n, m)):
                if not _identity_holds(g):
                    report(1, False, f"construction on {n} vertices, {m} edges")
                built += 1
    for r in range(1, 6):
        for s in range(1, r + 1):
            for m in range(r * s + 1):
                if not _identity_holds(ak_bipartite(r, s, m)):
                    report(1, False, f"column filling r={r} s={s} m={m}")
                built += 1
    for n in range(4, 9):
        for ell in range(1, n):
            for k in range(0, n):
                for m in range(comb(n, 2) + 1):
                    for family in (g1_family, g2_family):
                        try:
                            g = family(n, m, ell, k)
                        except ConstructionError:
                            continue
                        if not _identity_holds(g):
                            report(1, False, f"{family.__name__}({n},{m},{ell},{k})")
                        built += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 1.0,
        f"z1 = 2*cherries + 2*edges on {checked} random and {built} constructed"
        f" graphs in {elapsed:.2f}s",
    )


def test_criterion_02_star_clique_extremes(report):
    rows = oracle.verify_theorem_11((4, 5, 6, 7))
    bad = [row for row in rows if not row["match"]]
    report(
        2,
        not bad,
        f"brute force equals max(star, clique) on {len(rows)} (n, m) cells"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_03_unconstrained_bipartite(report):
    rows = oracle.verify_theorem_16(20)
    bad = [row for row in rows if not row["match"]]
    report(
        3,
        not bad,
        f"column filling optimal on {len(rows)} (r, s, m) cells with rs <= 20"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_04_constrained_bipartite_branches(report):
    rows17 = oracle.verify_theorem_17(16)
    rows18 = oracle.verify_theorem_18(16)
    bad = [row for row in rows17 + rows18 if not row["match"]]
    coincide = [row for row in rows17 + rows18 if row["branch"].endswith("=B")]
    ok = not bad and len(coincide) > 0
    report(
        4,
        ok,
        f"branch predictions exact on {len(rows17)} + {len(rows18)} cells,"
        f" {len(coincide)} boundary cells where both branches coincide"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_05_zagreb_decompositions(report):
    start = time.perf_counter()
    checked = 0
    for r in range(1, 9):
        for s in range(1, r + 1):
            for k in range(0, s + 1):
                for ell in range(k, r + 1):
                    for m in range(k * ell, min(r * k, r * s) + 1):
                        head = ell * k * k + 2 * m * ell - k * ell * ell
                        rest = m - k * ell
                        if k + ell <= r:
                            b = b1_family(BipartiteFamilyParams(r, s, m, ell, k))
                            tail = z1_index(ak_bipartite(r - ell, k, rest))
                        else:
                            b = b2_family(BipartiteFamilyParams(r, s, m, ell, k))
                            tail = z1_index(ak_bipartite(k, r - ell, rest))
                        if z1_index(b) != head + tail:
                            report(5, False, f"tuple {(r, s, m, ell, k)}")
                        checked += 1
    elapsed = time.perf_counter() - start
    report(
        5,
        elapsed < 1.0,
        f"both decomposition identities exact on {checked} tuples"
        f" with r, s <= 8 in {elapsed:.2f}s",
    )


def _random_constrained_bipartite(rng):
    s = rng.randint(1, 4)
    r = rng.randint(s, max(s, 20 // s))
    edges = {
        (i, j) for i in range(r) for j in range(s) if rng.random() < rng.random()
    }
    from cherrymax.graph_core import BipartiteGraph

    b = BipartiteGraph(r, s, edges)
    ell = rng.randint(1, r)
    rows = sorted(range(r), key=lambda i: -b.left_degrees()[i])[:ell]
    k = min(b.left_degrees()[i] for i in rows)
    return b, ConstraintWitness(tuple(rows), ell, k)


def test_criterion_06_shifting_contracts(report):
    rng = random.Random(202)
    swaps = 0
    for trial in range(500):
        b, witness = _random_constrained_bipartite(rng)
        before = z1_index(b)
        out, log, row_order, col_order = shifting.left_compress_with_log(b, witness)
        ok = (
            out.num_edges == b.num_edges
            and z1_index(out) >= before
            and shifting.is_shifted(out)
        )
        w2 = ConstraintWitness(
            tuple(range(witness.target_size)), witness.target_size, witness.degree_floor
        )
        out_degrees = out.left_degrees()
        if any(out_degrees[i] < witness.degree_floor for i in w2.vertices):
            ok = False
        again, log2, _, _ = shifting.left_compress_with_log(out, w2)
        if log2 or again.edges != out.edges:
            ok = False
        if not ok:
            report(6, False, f"compression contract broke at trial {trial}")
        if witness.degree_floor <= witness.target_size:
            swapped = shifting.swap_sides(out, w2)
            same_degrees = sorted(
                swapped.left_degrees() + swapped.right_degrees()
            ) == sorted(out.left_degrees() + out.right_degrees())
            if not (same_degrees and z1_index(swapped) == z1_index(out)):
                report(6, False, f"side swap contract broke at trial {trial}")
            swaps += 1
    report(
        6,
        swaps > 100,
        f"compression idempotent and monotone on 500 graphs,"
        f" side swap exact on {swaps} of them",
    )


def test_criterion_07_first_lemma_margins(report):
    corner = bound_value(23 / 100, 17 / 50) - quasi_star_scaled(17 / 50)
    expected = a1_corner_expected()
    ok = abs(corner - expected) <= 1e-9 and corner > 0
    mins = {}
    for steps in (50, 100, 200):
        mins[steps] = check_lemma("A1", steps).min_margin
        ok = ok and mins[steps] > 0
    report(
        7,
        ok,
        f"corner margin {corner:.6f} matches closed form to"
        f" {abs(corner - expected):.1e}, grid minima {mins}",
    )


def test_criterion_08_fourth_lemma_region(report):
    lemma_report = check_lemma("A4", 50)
    lo = lemma_report.extras["proof_region_min"]
    threshold = 0.002232 - 1e-4
    report(
        8,
        lo >= threshold,
        f"proof-region minimum {lo:.6f} >= {threshold:.6f} at grid step <= 0.002",
    )


def test_criterion_09_proof_constants(report):
    getcontext().prec = 50
    precise = (54 - Decimal(2671).sqrt()) / 100
    value = (54 - sqrt(2671)) / 100
    ok = abs(value - float(precise)) <= 1e-12 and precise > Decimal(1) / 50
    scale = (Fraction(17, 25) - Fraction(2, 3) ** 2) / Fraction(2, 3)
    ok = ok and scale == Fraction(53, 150) and abs(float(scale) - 53 / 150) <= 1e-12
    rows = {row["name"]: row for row in interior_bounds_check()}
    ok = ok and rows["clique-prefix-gap"]["ok"] and rows["offset-scale"]["ok"]
    report(
        9,
        ok,
        f"(54-sqrt(2671))/100 = {value:.12f} > 1/50 and 53/150 reproduce to 1e-12",
    )


def test_criterion_10_density_convergence(report):
    cases = (
        ("g2", DensityPoint(0.68, 0.20, 0.0)),
        ("quasi_star", DensityPoint(0.5, 0.0, 0.0)),
        ("g1", DensityPoint(0.68, 0.35, 0.20)),
    )
    finals = {}
    ok = True
    for family, point in cases:
        rows = convergence(family, point, [100, 500, 2000])
        errors = [row["error"] for row in rows]
        finals[family] = errors[-1]
        if errors[-1] >= 5e-3:
            ok = False
        if any(errors[i + 1] > errors[i] * 1.1 for i in range(len(errors) - 1)):
            ok = False
    report(
        10,
        ok,
        "cherry density converges to the limit formulas; errors at n=2000: "
        + ", ".join(f"{fam}={err:.2e}" for fam, err in finals.items()),
    )


def test_criterion_11_oracle_dominates_constructions(report):
    comparisons = equalities = 0
    ok = True
    for n in range(4, 8):
        table = oracle.general_max_table(n)
        for ell in range(1, n + 1):
            for k in range(n):
                for m in range(comb(n, 2) + 1):
                    best = int(table[ell, k, m])
                    if best < 0:
                        continue
                    for family in (g1_family, g2_family):
                        try:
                            g = family(n, m, ell, k)
                        except ConstructionError:
                            continue
                        value = z1_index(g)
                        comparisons += 1
                        if value > best:
                            ok = False
                        if value == best:
                            equalities += 1
    ok = ok and comparisons > 0 and equalities > 0
    report(
        11,
        ok,
        f"exact optimum dominates {comparisons} feasible constructions for"
        f" n <= 7, with {equalities} equalities (desk-scale stand-in for the"
        f" asymptotic statements)",
    )
