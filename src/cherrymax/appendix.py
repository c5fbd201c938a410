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

Each grid is walked once, in row-major blocks of at most _SLICE_NODES
nodes (a single a-row where a row is longer), and the derivative claims
are checked on the same blocks.  So the memory a check holds does not
grow with the number of steps; the cap bounds only the node count.

Margins are zero exactly at the boundary maximizers x = a (lemmas A2 and
A4) and x = theta(a, d) (lemma A3); such nodes are accounted separately
and everything else must be strictly positive.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import isqrt, sqrt

import numpy as np

from .graph_core import DEFAULT_BIT_CAP, SearchCapExceededError

_SLACK = 1e-12
_DERIV_TOL = 1e-7
_H = 1e-5
_BOUNDARY_BAND = 1e-9

D_RANGE = (17 / 50, 7 / 20)
# Most grid nodes evaluated at once.  A `verify-appendix --steps 150` child
# (2 vCPU Xeon, median of 6) took 1.47 / 1.33 / 1.17 / 1.03 s of CPU and
# peaked at 31.6 / 31.6 / 32.3 / 35.4 MB with 2^13 / 2^14 / 2^15 / 2^16:
# per-block overhead outweighs cache misses in this range.
_SLICE_NODES = 1 << 16
# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


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


def _lemma(lemma: str) -> _LemmaDef:
    try:
        return _LEMMAS[lemma]
    except KeyError:
        raise ValueError(f"unknown lemma {lemma!r}, expected one of {LEMMA_IDS}") from None


# ----------------------------------------------------------------------
# grid machinery


def _slices(shape):
    """Blocks of a row-major (d, a, x) grid, as (d slice, a slice) pairs.

    A block spans every x.  It is several whole d-planes or, where one
    plane holds more than _SLICE_NODES nodes, a run of whole a-rows inside
    one plane, so no block holds more than max(_SLICE_NODES, shape[2])
    nodes.  Blocks come in row-major order.
    """
    planes, rows, row = shape
    if rows * row <= _SLICE_NODES:
        step = _SLICE_NODES // (rows * row)
        for lo in range(0, planes, step):
            yield slice(lo, min(lo + step, planes)), slice(0, rows)
        return
    step = max(1, _SLICE_NODES // row)
    for plane in range(planes):
        for lo in range(0, rows, step):
            yield slice(plane, plane + 1), slice(lo, min(lo + step, rows))


def _keep_heap_between_blocks() -> None:
    """Let glibc reuse one block's freed temporaries for the next block.

    By default glibc gives the free top of its heap back to the system
    once it exceeds twice the largest mmap chunk freed so far, and every
    block frees more than that.  So each block faulted its temporaries in
    afresh: a `verify-appendix --steps 150` child took 200k-320k minor
    faults and 0.3-0.5 s of system time, against 6k faults and 0.02 s with
    the thresholds fixed at the ceilings glibc's own adaptive policy may
    reach.  The setting is process-wide; without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _claimed_max(reg: _LemmaDef, d, a):
    if reg.max_at_a:
        y_at_a, _ = reg.y_solve(d, a, a)
        return reg.f(d, a, a, y_at_a)
    return bound_value(a, d)


def _eval_masked(reg: _LemmaDef, d, a, x):
    y, valid = reg.y_solve(d, a, x)
    return reg.f(d, a, x, y), valid


class _MinTracker:
    """Running minimum with grid-index location, merged across blocks.

    The strict < keeps the first minimum in row-major order, provided the
    blocks arrive in that order.
    """

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


class _DerivativeCheck:
    """Finite-difference sign check of one calculus claim, block by block."""

    def __init__(self, reg: _LemmaDef, claim, steps: int):
        self.reg = reg
        self.label, self.order, self.lo, self.hi, self.only_x_le_a = claim
        x = np.linspace(self.lo, self.hi, steps + 1).reshape(1, 1, -1)
        self.x, self.x_plus, self.x_minus = x, x + _H, x - _H
        # where neither f nor its domain depends on a (A5), the claim's nodes
        # are the (d, x) pairs, checked on the first a-row of each plane
        f, valid = _eval_masked(
            reg, np.full((1, 1, 1), D_RANGE[0]), np.reshape(reg.a_range, (1, 2, 1)), x[..., :1]
        )
        self.uses_a = np.broadcast_shapes(f.shape, valid.shape)[1] == 2
        self.tracker = _MinTracker()
        self.checked = self.skipped = self.violations = 0

    def update(self, d, a, first_rows: bool, centre=None) -> None:
        """Check one block; centre is (f, valid) at self.x when already known."""
        if not (self.uses_a or first_rows):
            return
        reg, x = self.reg, self.x
        fc, vc = centre if centre is not None else _eval_masked(reg, d, a, x)
        fp, vp = _eval_masked(reg, d, a, self.x_plus)
        fm, vm = _eval_masked(reg, d, a, self.x_minus)
        if self.order == 1:
            value = (fp - fm) / (2 * _H)
            both = vp & vm
            if not both.all():
                # one-sided where a shifted point leaves the real domain
                forward = (fp - fc) / _H
                backward = (fc - fm) / _H
                value = np.where(both, value, np.where(vp, forward, backward))
            valid = vc & (vp | vm)
        else:
            value = (fp - 2 * fc + fm) / _H**2
            valid = vc & vp & vm
        shape = np.broadcast_shapes(value.shape, valid.shape, x.shape)
        valid = np.broadcast_to(valid, shape)
        value = np.broadcast_to(value, shape)
        if self.only_x_le_a:
            valid = valid & np.broadcast_to(x <= a + _SLACK, shape)
        self.tracker.update(value, valid, (("d", d), ("a", a), ("x", x)))
        block_checked = int(valid.sum())
        self.checked += block_checked
        self.skipped += valid.size - block_checked
        self.violations += int((valid & (value < -_DERIV_TOL)).sum())

    def report(self) -> dict:
        return {
            "claim": self.label,
            "order": self.order,
            "interval": [self.lo, self.hi],
            "nodes_checked": self.checked,
            "nodes_skipped": self.skipped,
            "violations": self.violations,
            "worst": self.tracker.value if self.checked else None,
            "worst_at": self.tracker.location,
        }


def _box_margins(reg: _LemmaDef, d, a, x):
    """Margins and in-box mask of one block, both broadcast to its shape.

    The third item is (y, f, valid, claimed) for the lemmas that solve for
    y, None for A1.
    """
    shape = (d.size, a.size, x.size)
    if reg.x_range is None:
        margins = np.broadcast_to(bound_value(a, d) - quasi_star_scaled(d), shape)
        return margins, np.ones(shape, dtype=bool), None
    y, valid = reg.y_solve(d, a, x)
    f = reg.f(d, a, x, y)
    claimed = _claimed_max(reg, d, a)
    in_box = valid & (y >= -_SLACK) & (y <= 1 - a + _SLACK) & reg.extra_box(d, a, x, y)
    margins = np.broadcast_to(claimed - f, shape)
    return margins, np.broadcast_to(in_box, shape), (y, f, valid, claimed)


class _MarginCheck:
    """Min margins, counts and residuals of one lemma, block by block."""

    def __init__(self, lemma: str):
        self.lemma = lemma
        self.reg = _lemma(lemma)
        self.overall = _MinTracker()
        self.interior = _MinTracker()
        self.stats = {
            "nodes_total": 0,
            "nodes_in_box": 0,
            "boundary_zero_nodes": 0,
            "max_boundary_abs_margin": 0.0,
            "residual_max": 0.0,
            "closed_form_max_diff": 0.0,
            "claimed_vs_bound_max_diff": 0.0,
        }

    def update(self, d, a, x):
        """Check one block; return (f, valid) at its nodes, or None for A1."""
        reg, stats = self.reg, self.stats
        margins, in_box, solved = _box_margins(reg, d, a, x)
        boundary = np.zeros(margins.shape, dtype=bool)
        centre = None
        if solved is not None:
            y, f, valid, claimed = solved
            centre = f, valid
            if reg.boundary is not None:
                boundary = np.broadcast_to(reg.boundary(d, a, x, y), margins.shape) & in_box
            if in_box.any():
                res = np.broadcast_to(np.abs(reg.residual(d, a, x, y)), margins.shape)
                stats["residual_max"] = max(
                    stats["residual_max"], float(res[in_box].max())
                )
                if self.lemma == "A2":
                    diff = np.broadcast_to(np.abs(f - closed_form_a2(d, a, x)), margins.shape)
                    stats["closed_form_max_diff"] = max(
                        stats["closed_form_max_diff"], float(diff[in_box].max())
                    )
            if reg.max_at_a:
                ident = np.abs(claimed - bound_value(a, d))
                stats["claimed_vs_bound_max_diff"] = max(
                    stats["claimed_vs_bound_max_diff"], float(ident.max())
                )
        stats["nodes_total"] += margins.size
        stats["nodes_in_box"] += int(in_box.sum())
        stats["boundary_zero_nodes"] += int(boundary.sum())
        if boundary.any():
            stats["max_boundary_abs_margin"] = max(
                stats["max_boundary_abs_margin"],
                float(np.abs(margins[boundary]).max()),
            )
        axes = (("d", d), ("a", a), ("x", x))
        self.overall.update(margins, in_box, axes)
        self.interior.update(margins, in_box & ~boundary, axes)
        return centre


def _grid_blocks(reg: _LemmaDef, steps: int):
    """The (d, a, x) grid of a lemma in row-major blocks (_slices), as
    broadcastable (d, a, x, first) with first true on a plane's first a-row."""
    d_nodes = np.linspace(*D_RANGE, steps + 1)
    a_nodes = np.linspace(*reg.a_range, steps + 1)
    if reg.x_range is None:
        x = np.zeros((1, 1, 1))
    else:
        x = np.linspace(*reg.x_range, steps + 1).reshape(1, 1, -1)
    for d_part, a_part in _slices((d_nodes.size, a_nodes.size, x.size)):
        d = d_nodes[d_part].reshape(-1, 1, 1)
        a = a_nodes[a_part].reshape(1, -1, 1)
        yield d, a, x, a_part.start == 0


def _margin_sweep(lemma: str, steps: int, claims: tuple = ()):
    """Walk the (d, a, x) grid once for the margins and the given claims.

    Every claim's x-axis has as many nodes as the lemma's, so one slicing
    serves both; a claim on the lemma's own x-range takes the sweep's f
    as its centre value.
    """
    reg = _lemma(lemma)
    sweep = _MarginCheck(lemma)
    checks = [_DerivativeCheck(reg, claim, steps) for claim in claims]
    for d, a, x, first in _grid_blocks(reg, steps):
        centre = sweep.update(d, a, x)
        for check in checks:
            shared = (check.lo, check.hi) == reg.x_range
            check.update(d, a, first, centre if shared else None)
    reports = [check.report() for check in checks]
    return sweep.overall, sweep.interior, sweep.stats, reports


def _min_margin(lemma: str, steps: int) -> float:
    """The overall minimum margin of _margin_sweep, from the margins and
    in-box mask alone: the refinement pass needs nothing else."""
    reg = _lemma(lemma)
    overall = _MinTracker()
    for d, a, x, _ in _grid_blocks(reg, steps):
        margins, in_box, _ = _box_margins(reg, d, a, x)
        overall.update(margins, in_box, (("d", d), ("a", a), ("x", x)))
    return overall.value


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


def check_lemma(lemma: str, steps: int = 100, *, cap: int = DEFAULT_BIT_CAP) -> LemmaCheckReport:
    """Run the full grid verification for one lemma.

    A grid of more than 2^cap nodes, counted as (steps+1)^3 for every
    lemma, is refused before anything is evaluated.  On glibc, a check
    fixes malloc's trim and mmap thresholds (_keep_heap_between_blocks).
    """
    if steps < 10:
        raise ValueError("need at least 10 steps per axis")
    start = time.perf_counter()
    reg = _lemma(lemma)
    nodes = (steps + 1) ** 3
    if nodes > 1 << cap:
        raise SearchCapExceededError(
            f"appendix grid of {nodes} nodes ({steps} steps per axis) exceeds the cap of 2^{cap}"
        )
    _keep_heap_between_blocks()
    overall, interior, stats, derivative_checks = _margin_sweep(
        lemma, steps, reg.deriv_claims
    )
    coarse_steps = max(10, steps // 2)
    coarse_min = _min_margin(lemma, coarse_steps)

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
            "coarse_steps": coarse_steps,
            "coarse_min_margin": coarse_min,
            "delta": overall.value - coarse_min,
        },
        passed=ok,
        wall_time_s=time.perf_counter() - start,
    )


def check_all(steps: int = 100, *, cap: int = DEFAULT_BIT_CAP) -> list[LemmaCheckReport]:
    return [check_lemma(lemma, steps, cap=cap) for lemma in LEMMA_IDS]


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
