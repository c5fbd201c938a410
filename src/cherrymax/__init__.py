"""Exact tools for maximizing cherry counts in graphs with a fixed edge
budget, with brute-force oracles, compression moves, extremal
constructions, asymptotic density formulas, and grid verification of the
supporting inequalities.

The package exports the names of the README's library sketch; everything
else is imported from its submodule."""

import os

# cherrymax makes no BLAS call, yet at `import numpy` OpenBLAS starts a
# worker thread per extra core, which spins before it sleeps.  On 2 vCPUs
# that costs every process about 0.07 s of CPU (an `import cherrymax.cli`
# child: 0.22 s against 0.15 s), and as much wall time when the other CPU
# is busy.  So pin OpenBLAS to one thread before the first submodule
# imports numpy; a value the caller already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
