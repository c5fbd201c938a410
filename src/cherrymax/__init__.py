"""Exact tools for maximizing cherry counts in graphs with a fixed edge
budget, with brute-force oracles, compression moves, extremal
constructions, asymptotic density formulas, and grid verification of the
supporting inequalities.

The package exports the names of the README's library sketch; everything
else is imported from its submodule.  The graph_core names are bound at
import; the others load their module on first access (PEP 562), so that
`import cherrymax` loads neither numpy nor a module it does not use."""

import os
from importlib import import_module

# cherrymax makes no BLAS call, yet at `import numpy` OpenBLAS starts a
# worker thread per extra core, which spins before it sleeps.  On 2 vCPUs
# that costs every process that imports numpy about 0.07 s of CPU, and as
# much wall time when the other CPU is busy.  So pin OpenBLAS to one
# thread before any submodule imports numpy; a value the caller already
# set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .graph_core import BipartiteGraph, ConstraintWitness, Graph, count_cherries, z1_index

# the exports outside graph_core, by the submodule that defines each
_LAZY = {
    "g2_family": "constructions",
    "quasi_star": "constructions",
    "max_cherries_general": "oracle",
    "phi_bipartite": "oracle",
    "left_compress_with_log": "shifting",
}

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


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
