"""Asymptotic density formulas and finite-n convergence."""

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, sqrt

import pytest

from cherrymax import cli, density
from cherrymax.constructions import g1_family, g2_family, quasi_star
from cherrymax.graph_core import Graph
from cherrymax.density import (
    DensityPoint,
    DomainError,
    construction_density,
    convergence,
    g1_density,
    g2_density,
    quasi_star_density,
    scan,
)
from cherrymax.graph_core import SearchCapExceededError, count_cherries


def densities(g: Graph) -> tuple[Fraction, Fraction]:
    """Exact (edge density, cherry density) of a built graph."""
    return Fraction(g.num_edges, comb(g.n, 2)), Fraction(count_cherries(g), 3 * comb(g.n, 3))


# ----------------------------------------------------------------------
# scalar reference: the three bounds at one point, one float at a time


@dataclass(frozen=True)
class BoundBundle:
    """The three lower-bound values at one point and their maximum.

    g1_value is None when the point violates the g1 feasibility condition;
    max_value then ranges over the remaining two.  best_label names the
    winning expression, or lists all within 1e-9 of the max as a tie.
    """

    quasi_star_value: float
    g1_value: float | None
    g2_value: float
    g1_feasible: bool
    max_value: float
    best_label: str


def fact13_bounds(p: DensityPoint) -> BoundBundle:
    qs = quasi_star_density(p.rho)
    g2 = g2_density(p.rho, p.alpha)
    feasible = p.g1_feasible
    g1 = g1_density(p.rho, p.alpha, p.beta) if feasible else None
    defined = [("quasi-star", qs)]
    if g1 is not None:
        defined.append(("g1", g1))
    defined.append(("g2", g2))
    mx = max(v for _, v in defined)
    winners = [name for name, v in defined if v >= mx - 1e-9]
    label = winners[0] if len(winners) == 1 else "tie:" + "+".join(winners)
    return BoundBundle(
        quasi_star_value=qs,
        g1_value=g1,
        g2_value=g2,
        g1_feasible=feasible,
        max_value=mx,
        best_label=label,
    )


def scalar_axis(axis) -> list[float]:
    if isinstance(axis, float):
        return [axis]
    lo, hi, step = axis
    values = [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]
    return [v for v in values if v <= hi + 1e-12]


def scalar_scan(rho_axis, alpha_axis, beta_axis) -> list[dict]:
    """The scan rows, point by point through fact13_bounds."""
    rows = []
    for rho in scalar_axis(rho_axis):
        for alpha in scalar_axis(alpha_axis):
            for beta in scalar_axis(beta_axis):
                bundle = fact13_bounds(DensityPoint(rho, alpha, beta))
                rows.append(
                    {
                        "rho": rho,
                        "alpha": alpha,
                        "beta": beta,
                        "quasi_star": bundle.quasi_star_value,
                        "g1": bundle.g1_value,
                        "g2": bundle.g2_value,
                        "g1_feasible": bundle.g1_feasible,
                        "max_value": bundle.max_value,
                        "best": bundle.best_label,
                    }
                )
    return rows


def test_quasi_star_expression():
    assert quasi_star_density(0.5) == pytest.approx((0.5) ** 1.5, abs=1e-12)
    assert quasi_star_density(1.0) == pytest.approx(1.0, abs=1e-12)
    assert quasi_star_density(0.0) == pytest.approx(0.0, abs=1e-12)


def test_g_expressions_frozen():
    rho, alpha, beta = 0.68, 0.2, 0.2
    assert g1_density(rho, alpha, beta) == pytest.approx(
        alpha**2 * beta + beta**2 * alpha + rho * sqrt(rho - 2 * alpha * beta),
        abs=1e-12,
    )
    assert g2_density(rho, alpha) == pytest.approx(
        alpha**3 + (rho - alpha**2) * sqrt(rho + alpha**2), abs=1e-12
    )


def test_point_validation():
    with pytest.raises(DomainError):
        DensityPoint(1.2)
    with pytest.raises(DomainError):
        DensityPoint(0.5, -0.1)
    with pytest.raises(DomainError):
        DensityPoint(0.5, 0.2, 1.5)


def test_g1_feasibility():
    # rho below 2*alpha*beta + beta^2 starves the bipartite block
    p = DensityPoint(0.05, 0.5, 0.5)
    assert not p.g1_feasible
    bundle = fact13_bounds(p)
    assert bundle.g1_value is None
    assert not bundle.g1_feasible
    assert bundle.best_label in ("quasi-star", "g2")
    # the other two values still come back
    assert bundle.quasi_star_value is not None
    assert bundle.g2_value is not None


def test_fact13_winner_and_tie():
    bundle = fact13_bounds(DensityPoint(0.68, 0.2, 0.2))
    assert bundle.best_label == "g2"
    assert bundle.max_value == pytest.approx(bundle.g2_value, abs=0)
    # alpha = beta = 0 collapses both g-expressions to rho^(3/2)
    tie = fact13_bounds(DensityPoint(0.68, 0.0, 0.0))
    assert tie.best_label == "tie:g1+g2"


def half_up(x: float) -> int:
    return floor(x + 0.5)


def test_construction_density_matches_graphs():
    """The degree-class bookkeeping must agree with built graphs exactly."""
    for n in (20, 35):
        for rho in (0.3, 0.5, 0.68):
            p = DensityPoint(rho, 0.2, 0.2)
            edge_d, cherry_d = construction_density(n, p, "quasi_star")
            g = quasi_star(n, half_up(rho * comb(n, 2)))
            assert (edge_d, cherry_d) == densities(g)


def test_g_family_density_matches_graphs():
    n = 40
    p = DensityPoint(510 / comb(n, 2), 0.2, 0.2)
    edge_d, cherry_d = construction_density(n, p, "g2")
    g = g2_family(n, 510, 8, 8)
    assert (edge_d, cherry_d) == densities(g)

    pg1 = DensityPoint(0.5, 0.3, 0.2)
    edge_d, cherry_d = construction_density(n, pg1, "g1")
    m1 = half_up(0.5 * comb(n, 2))
    g1 = g1_family(n, m1, half_up(0.3 * n), half_up(0.2 * n))
    assert (edge_d, cherry_d) == densities(g1)


def test_g2_density_handles_remainder_spill():
    """When the leftover edges outnumber the clique, the extra vertex also
    reaches into the independent block; the class bookkeeping must match
    both a hand-built copy of that layout and g2_family's graph."""
    n, ell, a, b = 12, 3, 4, 5
    m = a * ell + comb(a, 2) + b
    assert b > a
    edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
    edges += [(u, w) for u in range(a) for w in range(a, a + ell)]
    edges += [(v, a + ell) for v in range(b)]
    spill = Graph(n, edges)
    assert spill.num_edges == m
    assert g2_family(n, m, ell, 2).edges == spill.edges

    p = DensityPoint(m / comb(n, 2), ell / n, 2 / n)
    assert construction_density(n, p, "g2") == densities(spill)


def test_construction_density_exact_types():
    edge_d, cherry_d = construction_density(30, DensityPoint(0.5, 0.2, 0.2), "quasi_star")
    assert isinstance(edge_d, Fraction) and isinstance(cherry_d, Fraction)
    with pytest.raises(ValueError):
        construction_density(30, DensityPoint(0.5), "qs")


def test_convergence_g2_errors_shrink():
    rows = convergence("g2", DensityPoint(0.68, 0.2, 0.2), [100, 500, 2000])
    errors = [row["error"] for row in rows]
    assert errors[-1] < 5e-3
    assert errors[0] > errors[1] > errors[2]
    assert all(row["family"] == "g2" for row in rows)


def test_convergence_quasi_star():
    rows = convergence("quasi_star", DensityPoint(0.5), [100, 500])
    formula = 2 * 0.5 - 1 + (1 - 0.5) ** 1.5
    assert rows[0]["formula"] == pytest.approx(formula, abs=1e-12)
    assert rows[1]["error"] < rows[0]["error"]


def _csv_rows(grid) -> list[dict]:
    return list(csv.DictReader(io.StringIO("".join(grid.csv_chunks()))))


def test_scan_axis_forms():
    grid = scan((0.68, 0.70, 0.01), 0.2, 0.2)
    rows = _csv_rows(grid)
    assert len(grid) == len(rows) == 3  # inclusive endpoints
    assert float(rows[0]["rho"]) == pytest.approx(0.68)
    assert float(rows[-1]["rho"]) == pytest.approx(0.70)
    assert all(row["best"] == "g2" for row in rows)
    assert list(rows[0]) == ["rho", "alpha", "beta", "quasi_star", "g1", "g2",
                             "g1_feasible", "max_value", "best"]

    grid = scan((0.6, 0.7, 0.05), (0.1, 0.2, 0.1), 0.2)
    assert len(grid) == 3 * 2


def test_random_points_bounded_by_max():
    rng = random.Random(12)
    for _ in range(200):
        rho = rng.uniform(0.0, 1.0)
        alpha = rng.uniform(0.0, 0.5)
        beta = rng.uniform(0.0, alpha)
        p = DensityPoint(rho, alpha, beta)
        bundle = fact13_bounds(p)
        values = [bundle.quasi_star_value, bundle.g2_value]
        if bundle.g1_value is not None:
            values.append(bundle.g1_value)
        assert bundle.max_value == pytest.approx(max(values), abs=0)


def test_finite_densities_stay_below_formula_scale():
    # a Zagreb identity spot check on the materialized family graph
    n, m, ell, k = 30, 200, 6, 6
    g = g2_family(n, m, ell, k)
    assert count_cherries(g) == sum(
        comb(d, 2) for d in g.degrees()
    )


# rho = 0 and 1, alpha = 0 (g1/g2 ties), infeasible g1 points, single-value
# axes, and the numeric benchmark's rho and alpha axes, where numpy's array
# power differs from Python's pow in the last bit
SCAN_GRIDS = [
    ((0.0, 1.0, 0.125), (0.0, 0.5, 0.1), (0.0, 1.0, 0.25)),
    ((0.6, 0.8, 0.005), (0.0, 0.5, 0.01), 0.2),
    ((0.6, 0.8, 0.05), (0.0, 0.5, 0.05), 0.2),
    (1.0, 0.0, (0.0, 1.0, 0.1)),
    (0.0, (0.0, 0.9, 0.25), 0.0),  # round(3.6) = 4 steps overshoots the stop
    (0.68, 0.2, 0.2),
]


@pytest.mark.parametrize("block", [7, 1 << 14])
@pytest.mark.parametrize("axes", SCAN_GRIDS)
def test_scan_rows_equal_scalar_reference(monkeypatch, axes, block):
    """The streamed CSV and JSON text equal csv.DictWriter's and json.dumps'
    rendering of the scalar rows byte for byte, at any block size, so 0
    differs from 0.0 and None from ""."""
    monkeypatch.setattr(density, "_BLOCK", block)
    expected = scalar_scan(*axes)
    grid = scan(*axes)
    assert len(grid) == len(expected)
    sink = io.StringIO()
    writer = csv.DictWriter(sink, fieldnames=list(expected[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(expected)
    assert "".join(grid.csv_chunks()) == sink.getvalue()
    assert "".join(grid.json_chunks()) == json.dumps(expected, indent=2)


def test_scan_reference_grid_covers_the_cases():
    rows = scalar_scan(*SCAN_GRIDS[0])
    labels = {row["best"] for row in rows}
    assert {"tie:quasi-star+g1+g2", "tie:g1+g2"} <= labels
    assert any(not row["g1_feasible"] for row in rows)
    assert {row["rho"] for row in rows} >= {0.0, 1.0}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_cli_bytes_equal_scalar_rendering(capsys, tmp_path, monkeypatch, fmt):
    argv = ["density", "--scan", "rho=0:1:0.125", "alpha=0:0.5:0.1", "beta=0:1:0.25"]
    rows = scalar_scan(*SCAN_GRIDS[0])
    if fmt == "csv":
        sink = io.StringIO()
        writer = csv.DictWriter(sink, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        expected = sink.getvalue()
    else:
        expected = json.dumps(rows, indent=2) + "\n"
    # 270 points: 39 blocks of 7 and one of the default 2^14
    for block in (7, 1 << 14):
        monkeypatch.setattr(density, "_BLOCK", block)
        assert cli.main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out == expected
        out_file = tmp_path / f"scan-{block}.{fmt}"
        assert cli.main(argv + ["--format", fmt, "-o", str(out_file)]) == 0
        assert capsys.readouterr().out == ""
        assert out_file.read_text(encoding="utf-8") == expected


def test_scan_refuses_before_evaluating():
    with pytest.raises(ValueError, match="positive finite"):
        scan((0.6, 0.8, float("nan")), 0.2, 0.2)
    with pytest.raises(DomainError):
        scan((0.5, 1.5, 0.25), 0.2, 0.2)
    with pytest.raises(SearchCapExceededError):
        scan((0.0, 1.0, 1e-12), 0.2, 0.2)
    assert len(scan((0.8, 0.6, 0.1), 0.2, 0.2)) == 0
