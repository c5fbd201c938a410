"""Grid verification of the auxiliary inequalities."""

import json
import random
from math import sqrt

import pytest

from cherrymax import appendix
from cherrymax.appendix import (
    _LEMMAS,
    LEMMA_IDS,
    a1_corner_expected,
    bound_value,
    check_all,
    check_lemma,
    closed_form_a2,
    interior_bounds_check,
    quasi_star_scaled,
)


def solve_y(lemma, d, a, x):
    """The y the grid sweep solves for at one point, asserted real."""
    y, valid = _LEMMAS[lemma].y_solve(d, a, x)
    assert bool(valid), (lemma, d, a, x)
    return float(y)


def test_bound_value():
    a, d = 0.23, 0.34
    assert bound_value(a, d) == pytest.approx(
        a**3 + (2 * d - a**2) * sqrt(2 * d + a**2), abs=1e-15
    )
    assert quasi_star_scaled(d) == pytest.approx(
        4 * d - 1 + (1 - 2 * d) ** 1.5, abs=1e-15
    )


def test_a1_corner_value():
    diff = bound_value(0.23, 0.34) - quasi_star_scaled(0.34)
    expected = a1_corner_expected()
    assert expected > 0
    assert abs(diff - expected) <= 1e-9
    # the decomposition constant quoted alongside it
    assert abs(16 * sqrt(2) / 125 - 0.18102) < 1e-5


def test_a2_closed_form_matches_direct():
    reg = _LEMMAS["A2"]
    rng = random.Random(2718)
    checked = 0
    while checked < 1000:
        d = rng.uniform(0.34, 0.35)
        a = rng.uniform(0.17, 0.23)
        x = rng.uniform(0.0, a)
        y, valid = reg.y_solve(d, a, x)
        if not valid or x > a:
            continue
        checked += 1
        direct = reg.f(d, a, x, y)
        closed = closed_form_a2(d=d, a=a, x=x)
        assert abs(direct - closed) <= 1e-12


def test_a2_maximum_sits_at_x_equals_a():
    f = _LEMMAS["A2"].f
    for d, a in ((0.34, 0.17), (0.345, 0.2), (0.35, 0.23)):
        assert f(d, a, a, solve_y("A2", d, a, a)) == pytest.approx(bound_value(a, d), abs=1e-12)
        # interior points stay below
        inner = a / 2
        assert f(d, a, inner, solve_y("A2", d, a, inner)) < bound_value(a, d)


def test_solve_y_matches_formulas():
    d, a, x = 0.345, 0.35, 0.1
    assert solve_y("A3", d=d, a=a, x=x) == pytest.approx(
        sqrt(2 * (d - a * x - a / 5)), abs=1e-12
    )
    assert solve_y("A4", d=d, a=a, x=x) == pytest.approx(
        sqrt(25 * x**2 + 10 * x + 50 * d - 10 * a) / 5 - x, abs=1e-12
    )
    assert solve_y("A5", d=d, a=a, x=0.4) == pytest.approx(
        0.4 + sqrt(0.4**2 - 0.8 + 2 * d), abs=1e-12
    )


def test_check_lemma_small_grid_passes():
    for lemma in LEMMA_IDS:
        report = check_lemma(lemma, 30)
        assert report.passed, (lemma, report.min_margin, report.extras)
        assert report.min_margin >= -1e-12
        assert report.min_margin_interior > 0
        assert report.nodes_in_box > 0
        assert report.residual_max <= 1e-12


def test_check_lemma_boundary_maximizers():
    # the touching nodes sit exactly on the claimed maximizer lines
    r2 = check_lemma("A2", 40)
    assert r2.boundary_zero_nodes > 0
    assert r2.max_boundary_abs_margin <= 1e-9
    r4 = check_lemma("A4", 40)
    assert r4.boundary_zero_nodes > 0
    # A5 is strict everywhere: no boundary band at all
    r5 = check_lemma("A5", 40)
    assert r5.boundary_zero_nodes == 0
    assert r5.min_margin > 0


def test_derivative_checks_recorded():
    report = check_lemma("A3", 30)
    orders = sorted(c["order"] for c in report.derivative_checks)
    assert orders == [1, 2]
    assert all(c["violations"] == 0 for c in report.derivative_checks)


def test_a4_proof_region_extra():
    report = check_lemma("A4", 30)
    assert report.extras["proof_region_min"] >= 0.002232 - 1e-4


def test_check_all_and_json():
    reports = check_all(15)
    assert [r.lemma for r in reports] == list(LEMMA_IDS)
    payload = [r.to_json() for r in reports]
    text = json.dumps(payload)
    assert "min_margin" in text
    assert all(r.passed for r in reports)


def test_check_lemma_rejects_tiny_grids():
    with pytest.raises(ValueError):
        check_lemma("A1", 5)
    with pytest.raises(ValueError):
        check_lemma("A9", 50)


def test_interior_bounds():
    rows = interior_bounds_check()
    assert [r["ok"] for r in rows] == [True] * len(rows)
    names = {r["name"] for r in rows}
    assert "clique-prefix-gap" in names and "offset-scale" in names


@pytest.mark.parametrize("steps", [10, 150, 255, 1000, 4095])
def test_slices_tile_the_grid_in_row_major_order(steps):
    n = steps + 1
    limit = max(appendix._SLICE_NODES, n)
    position = 0
    for d_part, a_part in appendix._slices((n, n, n)):
        planes = d_part.stop - d_part.start
        rows = a_part.stop - a_part.start
        assert planes >= 1 and rows >= 1
        # several whole planes, or a run of rows inside one plane
        assert planes == 1 or (a_part.start, a_part.stop) == (0, n)
        assert (d_part.start * n + a_part.start) * n == position
        size = planes * rows * n
        assert size <= limit
        position += size
    assert position == n**3


def _without_wall_time(report):
    payload = report.to_json()
    del payload["wall_time_s"]
    return payload


@pytest.mark.parametrize(
    "budget",
    [lambda n: 1, lambda n: 4 * n, lambda n: 3 * n * n, lambda n: n**3],
    ids=["one-row", "four-rows", "three-planes", "whole-grid"],
)
@pytest.mark.parametrize("steps", [20, 21])
def test_slice_seams_leave_reports_unchanged(monkeypatch, steps, budget):
    expected = [_without_wall_time(check_lemma(lemma, steps)) for lemma in LEMMA_IDS]
    monkeypatch.setattr(appendix, "_SLICE_NODES", budget(steps + 1))
    got = [_without_wall_time(check_lemma(lemma, steps)) for lemma in LEMMA_IDS]
    assert got == expected


@pytest.mark.parametrize("steps", [20, 31])
@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_coarse_min_margin_is_the_full_sweep_minimum(lemma, steps):
    """The refinement pass keeps only the minimum, and it equals, bit for
    bit, the overall minimum of a full sweep at the coarse step."""
    refinement = check_lemma(lemma, steps).refinement
    full = appendix._margin_sweep(lemma, refinement["coarse_steps"])[0].value
    assert refinement["coarse_steps"] == max(10, steps // 2)
    assert refinement["coarse_min_margin"].hex() == full.hex()
