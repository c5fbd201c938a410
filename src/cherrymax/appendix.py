"""Grid verification of the five auxiliary inequalities behind the
density theorems, replacing computer-algebra checks with explicit
margins and finite-difference derivative signs.

Every inequality compares a function f(x) (with y eliminated through a
quadratic side constraint) against the common ceiling

    bound(a, d) = a**3 + (2d - a**2) * sqrt(2d + a**2)

on a box of (d, a, x).  check_lemma evaluates the margin at every node of
a rectangular grid intersected with the box, replays the stated
derivative-sign claims by central differences (one-sided where a shifted
point leaves the real domain), and reports the margin minimum, its
location, and its stability under halving the grid.

Margins are zero exactly at the boundary maximizers x = a (lemmas A2 and
A4) and x = theta(a, d) (lemma A3); such nodes are accounted separately
and everything else must be strictly positive.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import isqrt, sqrt

import numpy as np

from .density import DomainError

_SLACK = 1e-12
_DERIV_TOL = 1e-7
_H = 1e-5
_BOUNDARY_BAND = 1e-9

D_RANGE = (17 / 50, 7 / 20)
_D_CHUNK = 16


def _masked_sqrt(rad):
    """Clamped square root plus a validity mask (radicand >= -1e-12)."""
    rad = np.asarray(rad, dtype=float)
    valid = rad >= -_SLACK
    return np.sqrt(np.maximum(rad, 0.0)), valid


def bound_value(a, d):
    """The shared right-hand side a^3 + (2d - a^2) sqrt(2d + a^2)."""
    root, _ = _masked_sqrt(2 * np.asarray(d, dtype=float) + np.asarray(a, dtype=float) ** 2)
    return np.asarray(a, dtype=float) ** 3 + (2 * np.asarray(d) - np.asarray(a) ** 2) * root


def quasi_star_scaled(d):
    """Quasi-star density written in the scaled variable d = rho/2."""
    root, _ = _masked_sqrt(1 - 2 * np.asarray(d, dtype=float))
    return 4 * np.asarray(d) - 1 + root**3


# ----------------------------------------------------------------------
# per-lemma definitions: y-solve, residual, f, boxes


def _y_a2(d, a, x):
    root, valid = _masked_sqrt(x**2 + 2 * a * x + 2 * d - 2 * a**2)
    return -x + root, valid


def _f_a2(d, a, x, y):
    return x * y**2 + (a - x) * a**2 + a * (a + y) ** 2 + (y - a) * (x + y) ** 2


def _res_a2(d, a, x, y):
    return y**2 / 2 + x * y + a**2 - a * x - d


def closed_form_a2(d, a, x):
    """The explicit form of the A2 objective after eliminating y."""
    root, _ = _masked_sqrt(x**2 + 2 * a * x + 2 * d - 2 * a**2)
    return x**3 + a * x**2 + (2 * d - x**2) * root - 3 * a**2 * x + 2 * a**3


def _y_a3(d, a, x):
    root, valid = _masked_sqrt(2 * (d - a * x - a / 5))
    return root, valid


def _f_a3(d, a, x, y):
    return (x + 0.2) * (y + a) ** 2 + (y - x - 0.2) * y**2 + a * (x + 0.2) ** 2


def _res_a3(d, a, x, y):
    return y**2 / 2 + a * x + a / 5 - d


def _y_a4(d, a, x):
    root, valid = _masked_sqrt(25 * x**2 + 10 * x + 50 * d - 10 * a)
    return root / 5 - x, valid


def _f_a4(d, a, x, y):
    return 0.2 * (y + a) ** 2 + (y - 0.2) * (x + y) ** 2 + x * y**2 + (a - x) * 0.04


def _res_a4(d, a, x, y):
    return y**2 / 2 + x * y + a / 5 - x / 5 - d


def _y_a5(d, a, x):
    root, valid = _masked_sqrt(x**2 - 2 * x + 2 * d)
    return x + root, valid


def _f_a5(d, a, x, y):
    return x + (y - x) * y**2 + (1 - y) * x**2


def _res_a5(d, a, x, y):
    return y**2 / 2 + (1 - y) * x - d


def _a5_x_low(d, a):
    return 1 - a / 2 - (1 - 2 * d) / (2 * a)


@dataclass(frozen=True)
class _LemmaDef:
    a_range: tuple[float, float]
    x_range: tuple[float, float] | None
    y_solve: object
    f: object
    residual: object
    # claimed maximum at x = a (else the shared bound), zero-margin allowed there
    max_at_a: bool
    extra_box: object  # (d, a, x, y) -> bool mask beyond the ranges
    boundary: object | None  # (d, a, x, y) -> mask of allowed zero-margin nodes
    deriv_claims: tuple  # (label, order, lo, hi, restrict_to_x_le_a)


_LEMMAS: dict[str, _LemmaDef] = {
    "A1": _LemmaDef(
        a_range=(17 / 100, 23 / 100),
        x_range=None,
        y_solve=None,
        f=None,
        residual=None,
        max_at_a=False,
        extra_box=None,
        boundary=None,
        deriv_claims=(),
    ),
    "A2": _LemmaDef(
        a_range=(17 / 100, 23 / 100),
        x_range=(0.0, 23 / 100),
        y_solve=_y_a2,
        f=_f_a2,
        residual=_res_a2,
        max_at_a=True,
        extra_box=lambda d, a, x, y: x <= a,
        boundary=lambda d, a, x, y: np.abs(x - a) <= _BOUNDARY_BAND,
        deriv_claims=(("df/dx >= 0", 1, 0.0, 23 / 100, True),),
    ),
    "A3": _LemmaDef(
        a_range=(1 / 3, 2 / 5),
        x_range=(0.0, 37 / 100),
        y_solve=_y_a3,
        f=_f_a3,
        residual=_res_a3,
        max_at_a=False,
        extra_box=lambda d, a, x, y: x <= y - 0.2,
        boundary=lambda d, a, x, y: np.abs(x - (y - 0.2)) <= _BOUNDARY_BAND,
        deriv_claims=(
            ("d2f/dx2 >= 0", 2, 0.0, 3 / 10, False),
            ("df/dx >= 0", 1, 3 / 10, 37 / 100, False),
        ),
    ),
    "A4": _LemmaDef(
        a_range=(1 / 3, 2 / 5),
        x_range=(0.0, 2 / 5),
        y_solve=_y_a4,
        f=_f_a4,
        residual=_res_a4,
        max_at_a=True,
        extra_box=lambda d, a, x, y: x <= a,
        boundary=lambda d, a, x, y: np.abs(x - a) <= _BOUNDARY_BAND,
        deriv_claims=(("df/dx >= 0", 1, 1 / 4, 2 / 5, False),),
    ),
    "A5": _LemmaDef(
        a_range=(1 / 3, 2 / 5),
        x_range=(1 / 3, 9 / 20),
        y_solve=_y_a5,
        f=_f_a5,
        residual=_res_a5,
        max_at_a=False,
        extra_box=lambda d, a, x, y: (x >= _a5_x_low(d, a)) & (x <= 2 * d - 0.25),
        boundary=None,
        deriv_claims=(("d2f/dx2 >= 0", 2, 1 / 3, 9 / 20, False),),
    ),
}

LEMMA_IDS = tuple(_LEMMAS)


@dataclass(frozen=True)
class AppendixPoint:
    """An in-box evaluation point with y already solved."""

    lemma: str
    d: float
    a: float
    x: float
    y: float


def solve_y(lemma: str, d: float, a: float, x: float) -> float:
    reg = _lemma(lemma)
    if reg.y_solve is None:
        raise ValueError(f"{lemma} has no dependent variable")
    y, valid = reg.y_solve(d, a, x)
    if not bool(valid):
        raise DomainError(f"{lemma}: no real y at d={d}, a={a}, x={x}")
    return float(y)


def make_point(lemma: str, d: float, a: float, x: float) -> AppendixPoint:
    """Solve for y and validate the full box membership."""
    reg = _lemma(lemma)
    if reg.x_range is None:
        raise ValueError(f"{lemma} has no free variable")
    lo, hi = D_RANGE
    if not lo - _SLACK <= d <= hi + _SLACK:
        raise DomainError(f"d={d} outside [{lo}, {hi}]")
    alo, ahi = reg.a_range
    if not alo - _SLACK <= a <= ahi + _SLACK:
        raise DomainError(f"a={a} outside [{alo}, {ahi}]")
    xlo, xhi = reg.x_range
    if not xlo - _SLACK <= x <= xhi + _SLACK:
        raise DomainError(f"x={x} outside [{xlo}, {xhi}]")
    y = solve_y(lemma, d, a, x)
    if not -_SLACK <= y <= 1 - a + _SLACK:
        raise DomainError(f"solved y={y} outside [0, 1-a]")
    if not bool(reg.extra_box(d, a, x, y)):
        raise DomainError(f"({d}, {a}, {x}) outside the {lemma} box")
    res = float(reg.residual(d, a, x, y))
    assert abs(res) <= 1e-10, f"constraint residual {res} after solve"
    return AppendixPoint(lemma, d, a, x, float(y))


def eval_f(lemma: str, pt: AppendixPoint) -> float:
    """Direct substitution of the point into the lemma's objective."""
    reg = _lemma(lemma)
    if reg.f is None:
        raise ValueError(f"{lemma} has no objective function")
    return float(reg.f(pt.d, pt.a, pt.x, pt.y))


def _lemma(lemma: str) -> _LemmaDef:
    try:
        return _LEMMAS[lemma]
    except KeyError:
        raise ValueError(f"unknown lemma {lemma!r}, expected one of {LEMMA_IDS}") from None


# ----------------------------------------------------------------------
# grid machinery


def _claimed_max(reg: _LemmaDef, d, a):
    if reg.max_at_a:
        y_at_a, _ = reg.y_solve(d, a, a)
        return reg.f(d, a, a, y_at_a)
    return bound_value(a, d)


def _eval_masked(reg: _LemmaDef, d, a, x):
    y, valid = reg.y_solve(d, a, x)
    return reg.f(d, a, x, y), valid


class _MinTracker:
    """Running minimum with grid-index location, merged across chunks."""

    def __init__(self):
        self.value = np.inf
        self.location = None

    def update(self, values: np.ndarray, mask: np.ndarray, axes: tuple) -> None:
        if not mask.any():
            return
        candidate = np.where(mask, values, np.inf)
        flat = int(np.argmin(candidate))
        best = float(candidate.reshape(-1)[flat])
        if best < self.value:
            self.value = best
            idx = np.unravel_index(flat, candidate.shape)
            self.location = {
                name: float(axis.reshape(-1)[i])
                for (name, axis), i in zip(axes, idx)
            }


@dataclass
class LemmaCheckReport:
    """Outcome of one grid verification run."""

    lemma: str
    steps: int
    nodes_total: int
    nodes_in_box: int
    min_margin: float
    argmin: dict | None
    min_margin_interior: float
    boundary_zero_nodes: int
    max_boundary_abs_margin: float
    residual_max: float
    derivative_checks: list
    extras: dict
    refinement: dict
    passed: bool
    wall_time_s: float

    def to_json(self) -> dict:
        return asdict(self)


def _margin_sweep(lemma: str, steps: int):
    """Min margins, counts and residuals over the (d, a, x) grid."""
    reg = _lemma(lemma)
    d_nodes = np.linspace(*D_RANGE, steps + 1)
    a_nodes = np.linspace(*reg.a_range, steps + 1)
    overall = _MinTracker()
    interior = _MinTracker()
    stats = {
        "nodes_total": 0,
        "nodes_in_box": 0,
        "boundary_zero_nodes": 0,
        "max_boundary_abs_margin": 0.0,
        "residual_max": 0.0,
        "closed_form_max_diff": 0.0,
        "claimed_vs_bound_max_diff": 0.0,
    }
    a = a_nodes.reshape(1, -1, 1)
    if reg.x_range is None:
        x_nodes = np.zeros(1)
    else:
        x_nodes = np.linspace(*reg.x_range, steps + 1)
    x = x_nodes.reshape(1, 1, -1)

    for lo in range(0, d_nodes.size, _D_CHUNK):
        d = d_nodes[lo : lo + _D_CHUNK].reshape(-1, 1, 1)
        axes = (("d", d), ("a", a), ("x", x))
        if reg.x_range is None:
            margins = bound_value(a, d) - quasi_star_scaled(d)
            margins = np.broadcast_to(margins, (d.size, a.size, 1))
            in_box = np.ones(margins.shape, dtype=bool)
            boundary = np.zeros(margins.shape, dtype=bool)
        else:
            y, valid = reg.y_solve(d, a, x)
            in_box = (
                valid
                & (y >= -_SLACK)
                & (y <= 1 - a + _SLACK)
                & reg.extra_box(d, a, x, y)
            )
            in_box = np.broadcast_to(in_box, (d.size, a.size, x.size))
            margins = _claimed_max(reg, d, a) - reg.f(d, a, x, y)
            margins = np.broadcast_to(margins, in_box.shape)
            if reg.boundary is None:
                boundary = np.zeros(in_box.shape, dtype=bool)
            else:
                boundary = np.broadcast_to(reg.boundary(d, a, x, y), in_box.shape) & in_box
            res = np.abs(reg.residual(d, a, x, y))
            res = np.broadcast_to(res, in_box.shape)
            if in_box.any():
                stats["residual_max"] = max(
                    stats["residual_max"], float(res[in_box].max())
                )
            if lemma == "A2":
                diff = np.abs(reg.f(d, a, x, y) - closed_form_a2(d, a, x))
                diff = np.broadcast_to(diff, in_box.shape)
                if in_box.any():
                    stats["closed_form_max_diff"] = max(
                        stats["closed_form_max_diff"], float(diff[in_box].max())
                    )
            if reg.max_at_a:
                ident = np.abs(_claimed_max(reg, d, a) - bound_value(a, d))
                stats["claimed_vs_bound_max_diff"] = max(
                    stats["claimed_vs_bound_max_diff"], float(ident.max())
                )
        stats["nodes_total"] += int(np.prod(in_box.shape))
        stats["nodes_in_box"] += int(in_box.sum())
        stats["boundary_zero_nodes"] += int(boundary.sum())
        if boundary.any():
            stats["max_boundary_abs_margin"] = max(
                stats["max_boundary_abs_margin"],
                float(np.abs(margins[boundary]).max()),
            )
        overall.update(margins, in_box, axes)
        interior.update(margins, in_box & ~boundary, axes)
    return overall, interior, stats


def _derivative_check(lemma: str, claim, steps: int) -> dict:
    """Finite-difference sign check of one calculus claim, in d slices."""
    reg = _lemma(lemma)
    label, order, lo, hi, only_x_le_a = claim
    d_nodes = np.linspace(*D_RANGE, steps + 1)
    a = np.linspace(*reg.a_range, steps + 1).reshape(1, -1, 1)
    x = np.linspace(lo, hi, steps + 1).reshape(1, 1, -1)
    tracker = _MinTracker()
    checked = skipped = violations = 0
    # every y-solve depends on d, so the d slices partition the counted nodes
    for start in range(0, d_nodes.size, _D_CHUNK):
        d = d_nodes[start : start + _D_CHUNK].reshape(-1, 1, 1)
        fc, vc = _eval_masked(reg, d, a, x)
        fp, vp = _eval_masked(reg, d, a, x + _H)
        fm, vm = _eval_masked(reg, d, a, x - _H)
        if order == 1:
            central = (fp - fm) / (2 * _H)
            forward = (fp - fc) / _H
            backward = (fc - fm) / _H
            value = np.where(vp & vm, central, np.where(vp, forward, backward))
            valid = vc & (vp | vm)
        else:
            value = (fp - 2 * fc + fm) / _H**2
            valid = vc & vp & vm
        valid = np.broadcast_to(valid, np.broadcast_shapes(value.shape, valid.shape, x.shape))
        value = np.broadcast_to(value, valid.shape)
        if only_x_le_a:
            valid = valid & np.broadcast_to(x <= a + _SLACK, valid.shape)
        tracker.update(value, valid, (("d", d), ("a", a), ("x", x)))
        slice_checked = int(valid.sum())
        checked += slice_checked
        skipped += valid.size - slice_checked
        violations += int((valid & (value < -_DERIV_TOL)).sum())
    return {
        "claim": label,
        "order": order,
        "interval": [lo, hi],
        "nodes_checked": checked,
        "nodes_skipped": skipped,
        "violations": violations,
        "worst": tracker.value if checked else None,
        "worst_at": tracker.location,
    }


def a1_corner_expected() -> float:
    """Closed-form margin at (a, d) = (23/100, 17/50)."""
    return 6271 * sqrt(7329) / 10**6 - 347833 / 10**6 - 16 * sqrt(2) / 125


A4_PROOF_REGION_MIN = 0.002232
A4_PROOF_REGION_TOL = 1e-4


def _a4_proof_region_min(step: float = 0.002) -> float:
    """Min of f3(a) - f3(x) over x in [0,1/4], a in [1/3,2/5], d box."""
    reg = _LEMMAS["A4"]

    def nodes(lo, hi):
        count = int(np.ceil((hi - lo) / step))
        return np.linspace(lo, hi, count + 1)

    d = nodes(*D_RANGE).reshape(-1, 1, 1)
    a = nodes(1 / 3, 2 / 5).reshape(1, -1, 1)
    x = nodes(0.0, 1 / 4).reshape(1, 1, -1)
    y, valid = reg.y_solve(d, a, x)
    assert bool(valid.all())
    margins = _claimed_max(reg, d, a) - reg.f(d, a, x, y)
    return float(margins.min())


def check_lemma(lemma: str, steps: int = 100) -> LemmaCheckReport:
    """Run the full grid verification for one lemma."""
    if steps < 10:
        raise ValueError("need at least 10 steps per axis")
    start = time.perf_counter()
    reg = _lemma(lemma)
    overall, interior, stats = _margin_sweep(lemma, steps)
    coarse_overall, _, _ = _margin_sweep(lemma, max(10, steps // 2))
    derivative_checks = [
        _derivative_check(lemma, claim, steps) for claim in reg.deriv_claims
    ]

    extras: dict = {}
    if lemma == "A1":
        corner = float(bound_value(23 / 100, 17 / 50) - quasi_star_scaled(17 / 50))
        expected = a1_corner_expected()
        extras = {
            "corner_value": corner,
            "corner_expected": expected,
            "corner_diff": abs(corner - expected),
        }
    elif lemma == "A2":
        extras = {
            "closed_form_max_diff": stats["closed_form_max_diff"],
            "claimed_vs_bound_max_diff": stats["claimed_vs_bound_max_diff"],
        }
    elif lemma == "A4":
        extras = {
            "proof_region_min": _a4_proof_region_min(),
            "proof_region_threshold": A4_PROOF_REGION_MIN - A4_PROOF_REGION_TOL,
            "claimed_vs_bound_max_diff": stats["claimed_vs_bound_max_diff"],
        }

    ok = (
        stats["nodes_in_box"] > 0
        and stats["residual_max"] <= _SLACK
        and overall.value >= -_SLACK
        and interior.value > 0
        and stats["max_boundary_abs_margin"] <= _BOUNDARY_BAND
        and all(c["violations"] == 0 for c in derivative_checks)
    )
    if lemma == "A1":
        ok = ok and extras["corner_diff"] <= 1e-9 and extras["corner_value"] > 0
    elif lemma == "A2":
        ok = (
            ok
            and extras["closed_form_max_diff"] <= _SLACK
            and extras["claimed_vs_bound_max_diff"] <= 1e-9
        )
    elif lemma == "A4":
        ok = (
            ok
            and extras["proof_region_min"] >= extras["proof_region_threshold"]
            and extras["claimed_vs_bound_max_diff"] <= 1e-9
        )

    return LemmaCheckReport(
        lemma=lemma,
        steps=steps,
        nodes_total=stats["nodes_total"],
        nodes_in_box=stats["nodes_in_box"],
        min_margin=overall.value,
        argmin=overall.location,
        min_margin_interior=interior.value,
        boundary_zero_nodes=stats["boundary_zero_nodes"],
        max_boundary_abs_margin=stats["max_boundary_abs_margin"],
        residual_max=stats["residual_max"],
        derivative_checks=derivative_checks,
        extras=extras,
        refinement={
            "coarse_steps": max(10, steps // 2),
            "coarse_min_margin": coarse_overall.value,
            "delta": overall.value - coarse_overall.value,
        },
        passed=ok,
        wall_time_s=time.perf_counter() - start,
    )


def check_all(steps: int = 100) -> list[LemmaCheckReport]:
    return [check_lemma(lemma, steps) for lemma in LEMMA_IDS]


# ----------------------------------------------------------------------
# standalone numeric constants quoted in the structural proofs


def _fraction_sqrt(f: Fraction) -> Fraction | None:
    pn, pd = isqrt(f.numerator), isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


def interior_bounds_check() -> list[dict]:
    """Re-verify the standalone numeric inequalities used in the proofs."""
    rows = []

    value = (54 - sqrt(2671)) / 100
    rows.append(
        {
            "name": "clique-prefix-gap",
            "value": value,
            "reference": 1 / 50,
            "margin": value - 1 / 50,
            # (54 - sqrt(2671))/100 > 1/50  <=>  52^2 > 2671
            "ok": value - 1 / 50 > 0 and 52 * 52 > 2671,
        }
    )

    alphas = np.linspace(1 / 3, 2 / 5, 1001)
    floor_margin = 1 - alphas - np.sqrt(1 - 17 / 25 - alphas**2) - 1 / 5
    exact = (
        1
        - Fraction(2, 5)
        - (_fraction_sqrt(1 - Fraction(17, 25) - Fraction(2, 5) ** 2) or Fraction(0))
    )
    rows.append(
        {
            "name": "witness-floor",
            "value": float(floor_margin.min()),
            "reference": 0.0,
            "margin": float(floor_margin.min()),
            # grid min sits at alpha = 2/5 where the value is exactly the floor
            "ok": bool(floor_margin.min() >= -_SLACK and exact == Fraction(1, 5)),
        }
    )

    scale = (Fraction(17, 25) - Fraction(2, 3) ** 2) / Fraction(2, 3)
    rows.append(
        {
            "name": "offset-scale",
            "value": float(scale),
            "reference": 53 / 150,
            "margin": abs(float(scale) - 53 / 150),
            "ok": scale == Fraction(53, 150) and abs(float(scale) - 53 / 150) <= _SLACK,
        }
    )

    term = 16 * sqrt(2) / 125
    rows.append(
        {
            "name": "a1-decomposition-term",
            "value": term,
            "reference": 0.18102,
            "margin": abs(term - 0.18102),
            "ok": abs(term - 0.18102) <= 1e-5,
        }
    )
    return rows
