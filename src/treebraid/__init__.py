"""Discrete-Morse-theoretic invariants of tree braid groups B_nT.

Modules: tree (plane trees, Morse embedding, homeomorphism), cells
(reduced/critical 1-cells, the <_r order, CUB labels, counting), forms
(cochains, differential, change of basis, cup products), delta (the
complex Delta, tree reconstruction, isomorphism decision), oracle
(homology of the reduced Świątkowski complex and of the brute-force
configuration space), cli (command-line surface).
"""

from . import cells, delta, forms, oracle, tree
from .cells import ReducedOneCell, count_critical_cells, radial_rank
from .delta import DeltaGraph, Undefined, build_delta, decide_isomorphic, \
    detect_n, reconstruct_tree
from .tree import PlaneTree, parse_tree, subdivide_for, to_text, \
    trees_homeomorphic

__all__ = [
    "cells", "cli", "delta", "forms", "oracle", "tree",
    "ReducedOneCell", "count_critical_cells", "radial_rank",
    "DeltaGraph", "Undefined", "build_delta", "decide_isomorphic",
    "detect_n", "reconstruct_tree",
    "PlaneTree", "parse_tree", "subdivide_for", "to_text",
    "trees_homeomorphic",
]

__version__ = "0.1.0"


def __getattr__(name):
    # cli is loaded on first use: importing it here would make
    # `python -m treebraid.cli` find it in sys.modules and warn
    if name == "cli":
        from importlib import import_module
        return import_module(".cli", __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
