"""Exact tools for maximizing cherry counts in graphs with a fixed edge
budget, with brute-force oracles, compression moves, extremal
constructions, asymptotic density formulas, and grid verification of the
supporting inequalities.

The package exports the names of the README's library sketch; everything
else is imported from its submodule."""

from .constructions import g2_family, quasi_star
from .graph_core import BipartiteGraph, ConstraintWitness, Graph, count_cherries, z1_index
from .oracle import max_cherries_general, phi_bipartite
from .shifting import left_compress_with_log

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "ConstraintWitness",
    "Graph",
    "count_cherries",
    "g2_family",
    "left_compress_with_log",
    "max_cherries_general",
    "phi_bipartite",
    "quasi_star",
    "z1_index",
]
