"""Asymptotic cherry-density formulas and finite-n convergence checks.

Three closed-form lower bounds are tracked, one per construction family:

  quasi-star   2*rho - 1 + (1 - rho)**1.5
  g1           alpha**2*beta + beta**2*alpha + rho*sqrt(rho - 2*alpha*beta)
  g2           alpha**3 + (rho - alpha**2)*sqrt(rho + alpha**2)

The g1 expression is only a valid bound when rho >= 2*alpha*beta + beta**2;
infeasible points carry value None and are excluded from the max.

``scan`` evaluates all three over a (rho, alpha, beta) grid.  It sizes
the grid from its axes and refuses one of more than 2^cap points; the
``ScanGrid`` it returns evaluates the points in numpy, a fixed-size block
at a time, and streams them as CSV or JSON text, so memory is set by the
block, not the grid.  The values equal the scalar formulas bit for bit
(see "grid scans" below).  numpy is imported only by the scan code, so
the formulas and the convergence tables load without it.

Finite-n densities are computed exactly from degree classes (each family
has at most five distinct degrees), so convergence experiments run at any
n without materializing edge sets.  The classes are read off the same
layouts that ``constructions`` builds its graphs from; this module only
sums them.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, inf, isfinite, prod, sqrt
from typing import TYPE_CHECKING

from .constructions import (
    ConstructionError,
    _degree_classes,
    _g1_layout,
    _g2_layout,
    _quasi_star_layout,
)
from .graph_core import DEFAULT_BIT_CAP, SearchCapExceededError

if TYPE_CHECKING:
    import numpy as np

_SLACK = 1e-12
_TIE_BAND = 1e-9


class DomainError(ValueError):
    """An input or radicand left the formula's real domain."""


def _safe_sqrt(value: float, what: str) -> float:
    if value < -_SLACK:
        raise DomainError(f"negative radicand in {what}: {value}")
    return sqrt(max(value, 0.0))


def _check_unit(value: float, name: str) -> None:
    if not -_SLACK <= value <= 1 + _SLACK:
        raise DomainError(f"{name}={value} outside [0, 1]")


@dataclass(frozen=True)
class DensityPoint:
    """A point (rho, alpha, beta) in the unit cube.

    rho is the edge density, alpha the independent-set fraction, beta the
    degree-floor fraction.
    """

    rho: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        _check_unit(self.rho, "rho")
        _check_unit(self.alpha, "alpha")
        _check_unit(self.beta, "beta")

    @property
    def g1_feasible(self) -> bool:
        return self.rho + _SLACK >= 2 * self.alpha * self.beta + self.beta**2


def quasi_star_density(rho: float) -> float:
    return 2 * rho - 1 + _safe_sqrt(1 - rho, "quasi-star term") ** 3


def g1_density(rho: float, alpha: float, beta: float) -> float:
    root = _safe_sqrt(rho - 2 * alpha * beta, "g1 term")
    return alpha**2 * beta + beta**2 * alpha + rho * root


def g2_density(rho: float, alpha: float) -> float:
    return alpha**3 + (rho - alpha**2) * _safe_sqrt(rho + alpha**2, "g2 term")


# ----------------------------------------------------------------------
# exact finite-n densities via degree classes


def _round_half_up(x: float) -> int:
    return floor(x + 0.5)


def _classes_to_densities(n: int, classes: dict, m: int) -> tuple[Fraction, Fraction]:
    if n < 3:
        raise DomainError("densities need n >= 3")
    assert sum(classes.values()) == n
    degree_sum = sum(d * c for d, c in classes.items())
    assert degree_sum == 2 * m, f"degree sum {degree_sum} != 2m = {2 * m}"
    cherries = sum(c * comb(d, 2) for d, c in classes.items())
    return Fraction(m, comb(n, 2)), Fraction(cherries, 3 * comb(n, 3))


def construction_density(
    n: int, p: DensityPoint, family: str
) -> tuple[Fraction, Fraction]:
    """Exact (edge density, cherry density) of the rounded construction.

    Parameters are rounded half-up: m = rho*C(n,2), ell = alpha*n,
    k = beta*n.  For g1, when the rounded clique collides with the witness
    the transposed block (ell and k exchanged) is used; the asymptotic
    value is symmetric under that exchange.
    """
    m = _round_half_up(p.rho * comb(n, 2))
    ell, k = _round_half_up(p.alpha * n), _round_half_up(p.beta * n)
    if family == "quasi_star":
        layout = _quasi_star_layout(n, m)
    elif family == "g1":
        try:
            layout = _g1_layout(n, m, ell, k)
        except ConstructionError:
            layout = _g1_layout(n, m, k, ell)
    elif family == "g2":
        layout = _g2_layout(n, m, ell, k)
    else:
        raise ValueError(f"unknown family {family!r}")
    return _classes_to_densities(n, _degree_classes(n, layout), m)


def _family_formula(p: DensityPoint, family: str) -> float:
    if family == "quasi_star":
        return quasi_star_density(p.rho)
    if family == "g1":
        if not p.g1_feasible:
            raise DomainError("g1 expression infeasible at this point")
        return g1_density(p.rho, p.alpha, p.beta)
    if family == "g2":
        return g2_density(p.rho, p.alpha)
    raise ValueError(f"unknown family {family!r}")


def convergence(family: str, p: DensityPoint, n_values) -> list[dict]:
    """Finite-n cherry densities against the family's limit expression."""
    formula = _family_formula(p, family)
    rows = []
    for n in n_values:
        edge_d, cherry_d = construction_density(n, p, family)
        rows.append(
            {
                "n": n,
                "family": family,
                "edge_density": float(edge_d),
                "cherry_density": float(cherry_d),
                "formula": formula,
                "error": abs(float(cherry_d) - formula),
            }
        )
    return rows




# ----------------------------------------------------------------------
# grid scans
#
# numpy evaluates a block of grid points with + - * sqrt, comparisons and
# a first-wins max, in the order the scalar formulas above use.  Every
# power term (sqrt(1 - rho)**3, alpha**2, alpha**3, beta**2) depends on
# one axis only: it is a Python scalar, computed once per axis value in
# the block and then broadcast.  numpy's array power can differ from
# Python's pow in the last bit, which would change the printed floats.

_FIELDS = ("rho", "alpha", "beta", "quasi_star", "g1", "g2", "g1_feasible", "max_value", "best")
_BLOCK = 1 << 14


def _winner_label(code: int) -> str:
    names = [name for bit, name in enumerate(("quasi-star", "g1", "g2")) if code >> bit & 1]
    return names[0] if len(names) == 1 else "tie:" + "+".join(names)


# indexed by a bit mask of the expressions within _TIE_BAND of the max
_LABELS = tuple(_winner_label(code) for code in range(8))


@dataclass(frozen=True)
class _Axis:
    """The values lo + i*step for i < size, or the single value lo when step is None."""

    lo: float
    step: float | None
    size: int

    def value(self, i: int) -> float:
        return self.lo if self.step is None else self.lo + i * self.step

    def slots(self, start: int, stop: int, stride: int) -> tuple[list[float], np.ndarray]:
        """The axis values used by grid points [start, stop), and each point's slot among them.

        Point p sits at axis index (p // stride) % size, so a block touches
        at most stop - start values.
        """
        import numpy as np

        q = np.arange(start, stop) // stride
        first = start // stride
        span = (stop - 1) // stride - first + 1
        if span >= self.size:
            return [self.value(i) for i in range(self.size)], q % self.size
        return [self.value((first + j) % self.size) for j in range(span)], q - first


def _axis(axis, name: str) -> _Axis:
    if isinstance(axis, (int, float)):
        _check_unit(axis, name)
        return _Axis(float(axis), None, 1)
    lo, hi, step = map(float, axis)
    if not 0 < step < inf:
        raise ValueError(f"{name} axis step must be a positive finite number, got {step}")
    _check_unit(lo, name)
    if not isfinite(hi):
        raise DomainError(f"{name} axis stop must be finite, got {hi}")
    span = (hi - lo) / step
    if span >= 2.0**63:
        raise SearchCapExceededError(
            f"{name} axis step {step} gives more values than 64-bit indices hold"
        )
    size = max(round(span) + 1, 0)
    # rounding the span may add one value past the stop
    while size and lo + (size - 1) * step > hi + _SLACK:
        size -= 1
    if size:
        _check_unit(lo + (size - 1) * step, name)
    return _Axis(lo, step, size)


def _sqrt0(x: np.ndarray) -> np.ndarray:
    """sqrt(max(x, 0.0)), elementwise and with Python's max on signed zeros."""
    import numpy as np

    return np.sqrt(np.where(x < 0.0, 0.0, x))


class ScanGrid:
    """The rows of a scan, evaluated block by block as they are streamed.

    Each row has the point (rho, alpha, beta), the quasi_star, g1 and g2
    values (g1 empty where infeasible), g1_feasible, the max_value over the
    defined values, and as best the winning expression or a "tie:" list of
    all within 1e-9 of the max.  Rows run in (rho, alpha, beta) grid order.
    Memory is set by the block size, not by the grid.
    """

    def __init__(self, rho: _Axis, alpha: _Axis, beta: _Axis):
        self._axes = (rho, alpha, beta)
        self._len = rho.size * alpha.size * beta.size

    def __len__(self) -> int:
        return self._len

    def csv_chunks(self) -> Iterator[str]:
        """The rows as CSV, header first, one chunk per block.

        The text equals csv.DictWriter's: floats as repr, None as "", no
        field needs quoting.
        """
        yield ",".join(_FIELDS) + "\n"
        for start, stop in self._blocks():
            yield "\n".join(map(",".join, zip(*self._columns(start, stop)))) + "\n"

    def json_chunks(self) -> Iterator[str]:
        """The rows as JSON, one chunk per block, built from the CSV text.

        The text equals json.dumps of the rows as dicts with indent=2:
        floats as repr, None as null, booleans as true/false, labels quoted.
        """
        keys = [f"    {json.dumps(field)}: " for field in _FIELDS]
        literal = {"": "null", "True": "true", "False": "false"}
        labels = {label: json.dumps(label) for label in _LABELS}
        g1, feasible, best = (_FIELDS.index(f) for f in ("g1", "g1_feasible", "best"))
        sep = "[\n"
        for start, stop in self._blocks():
            columns = self._columns(start, stop)
            columns[g1] = [literal.get(v, v) for v in columns[g1]]
            columns[feasible] = [literal[v] for v in columns[feasible]]
            columns[best] = [labels[v] for v in columns[best]]
            rows = (",\n".join(map(str.__add__, keys, values)) for values in zip(*columns))
            yield sep + "  {\n" + "\n  },\n  {\n".join(rows) + "\n  }"
            sep = ",\n"
        yield "[]" if sep == "[\n" else "\n]"

    def _blocks(self) -> Iterator[tuple[int, int]]:
        for start in range(0, self._len, _BLOCK):
            yield start, min(start + _BLOCK, self._len)

    def _columns(self, start: int, stop: int) -> list[list[str]]:
        """The _FIELDS columns of points [start, stop), as CSV text."""
        import numpy as np

        rho_axis, alpha_axis, beta_axis = self._axes
        rhos, ir = rho_axis.slots(start, stop, alpha_axis.size * beta_axis.size)
        alphas, ia = alpha_axis.slots(start, stop, beta_axis.size)
        betas, ib = beta_axis.slots(start, stop, 1)
        quasi_stars = [quasi_star_density(r) for r in rhos]
        rho, alpha, beta = np.array(rhos)[ir], np.array(alphas)[ia], np.array(betas)[ib]
        qs = np.array(quasi_stars)[ir]
        a2 = np.array([a**2 for a in alphas])[ia]
        a3 = np.array([a**3 for a in alphas])[ia]
        b2 = np.array([b**2 for b in betas])[ib]

        ab = 2 * alpha * beta
        feasible = rho + _SLACK >= ab + b2
        g1 = a2 * beta + b2 * alpha + rho * _sqrt0(rho - ab)
        g2 = a3 + (rho - a2) * _sqrt0(rho + a2)
        pick_g1 = feasible & (g1 > qs)
        top = np.where(pick_g1, g1, qs)
        pick_g2 = g2 > top
        top = np.where(pick_g2, g2, top)
        near = top - _TIE_BAND
        code = (qs >= near) + 2 * (feasible & (g1 >= near)) + 4 * (g2 >= near)

        def column(values, slots=None):
            out = np.array([repr(v) for v in values], dtype=object)
            return out if slots is None else out[slots]

        qs_col = column(quasi_stars, ir)
        g1_col = column(g1.tolist())
        g1_col[~feasible] = ""
        g2_col = column(g2.tolist())
        max_col = np.where(pick_g2, g2_col, np.where(pick_g1, g1_col, qs_col))
        feasible_col = np.where(feasible, "True", "False")
        columns = (
            column(rhos, ir), column(alphas, ia), column(betas, ib), qs_col,
            g1_col, g2_col, feasible_col, max_col, np.array(_LABELS, dtype=object)[code],
        )
        return [col.tolist() for col in columns]


def scan(rho_axis, alpha_axis, beta_axis, *, cap: int = DEFAULT_BIT_CAP) -> ScanGrid:
    """The quasi-star, g1 and g2 bounds over a rectangular grid.

    Each axis is either a fixed value or an inclusive (start, stop, step)
    triple.  The grid is sized from the axes alone, so one of more than
    2^cap points is refused before anything is evaluated.
    """
    axes = (_axis(rho_axis, "rho"), _axis(alpha_axis, "alpha"), _axis(beta_axis, "beta"))
    points = prod(axis.size for axis in axes)
    if points > 1 << cap:
        raise SearchCapExceededError(f"scan grid of {points} points exceeds the cap of 2^{cap}")
    return ScanGrid(*axes)
