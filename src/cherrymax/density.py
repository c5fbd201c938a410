"""Asymptotic cherry-density formulas and finite-n convergence checks.

Three closed-form lower bounds are tracked, one per construction family:

  quasi-star   2*rho - 1 + (1 - rho)**1.5
  g1           alpha**2*beta + beta**2*alpha + rho*sqrt(rho - 2*alpha*beta)
  g2           alpha**3 + (rho - alpha**2)*sqrt(rho + alpha**2)

The g1 expression is only a valid bound when rho >= 2*alpha*beta + beta**2;
infeasible points carry value None and are excluded from the max.

Finite-n densities are computed exactly from degree classes (each family
has at most five distinct degrees), so convergence experiments run at any
n without materializing edge sets.  The classes come from
``constructions``, which reads them off the same layout its generators
build graphs from; this module only sums them.  The g2 classes keep the
remainder spill that ``g2_family`` refuses (see ROADMAP item 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, sqrt

from .constructions import ConstructionError, g1_classes, g2_classes, quasi_star_classes

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
    winners = [name for name, v in defined if v >= mx - _TIE_BAND]
    label = winners[0] if len(winners) == 1 else "tie:" + "+".join(winners)
    return BoundBundle(
        quasi_star_value=qs,
        g1_value=g1,
        g2_value=g2,
        g1_feasible=feasible,
        max_value=mx,
        best_label=label,
    )


@dataclass(frozen=True)
class TheoremValue:
    value: float
    in_range: bool
    branch: str | None


def thm_value(p: DensityPoint, which: str) -> TheoremValue:
    """Right-hand side of the two equality results.

    The formulas are total; in_range reports whether the point satisfies
    the hypotheses (including the beta pinning) within 1e-12.
    """
    rho_ok = 17 / 25 - _SLACK <= p.rho <= 7 / 10 + _SLACK
    if which == "1.4":
        in_range = (
            rho_ok
            and 17 / 100 - _SLACK <= p.alpha <= 23 / 100 + _SLACK
            and abs(p.beta - p.alpha) <= _SLACK
        )
        return TheoremValue(g2_density(p.rho, p.alpha), in_range, None)
    if which == "1.5":
        in_range = (
            rho_ok
            and 1 / 3 - _SLACK <= p.alpha <= 2 / 5 + _SLACK
            and abs(p.beta - 1 / 5) <= _SLACK
        )
        qs = quasi_star_density(p.rho)
        g2 = g2_density(p.rho, p.alpha)
        if abs(qs - g2) <= _TIE_BAND:
            branch = "tie"
        else:
            branch = "quasi-star" if qs > g2 else "g2"
        return TheoremValue(max(qs, g2), in_range, branch)
    raise ValueError(f"unknown theorem {which!r}, expected '1.4' or '1.5'")


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
    if family == "quasi_star":
        classes = quasi_star_classes(n, m)
    elif family == "g1":
        ell, k = _round_half_up(p.alpha * n), _round_half_up(p.beta * n)
        try:
            classes = g1_classes(n, m, ell, k)
        except ConstructionError:
            classes = g1_classes(n, m, k, ell)
    elif family == "g2":
        ell, k = _round_half_up(p.alpha * n), _round_half_up(p.beta * n)
        classes = g2_classes(n, m, ell, k)
    else:
        raise ValueError(f"unknown family {family!r}")
    return _classes_to_densities(n, classes, m)


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


def _axis_values(axis: tuple[float, float, float] | float) -> list[float]:
    if isinstance(axis, (int, float)):
        return [float(axis)]
    lo, hi, step = axis
    if step <= 0:
        raise ValueError("axis step must be positive")
    count = int(round((hi - lo) / step))
    values = [lo + i * step for i in range(count + 1)]
    return [v for v in values if v <= hi + _SLACK]


def scan(rho_axis, alpha_axis, beta_axis) -> list[dict]:
    """Evaluate fact13_bounds over a rectangular grid.

    Each axis is either a fixed value or a (start, stop, step) triple;
    rows are ordered by (rho, alpha, beta) grid index.
    """
    rows = []
    for rho in _axis_values(rho_axis):
        for alpha in _axis_values(alpha_axis):
            for beta in _axis_values(beta_axis):
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
