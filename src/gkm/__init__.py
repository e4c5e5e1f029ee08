"""Exact-arithmetic toolkit for GKM moment graphs.

Validation of the GKM axioms, graph cohomology with Thom classes,
fixed-point localization integrals, moment-image classification, and the
hard Lefschetz verdict -- all over exact rationals.

The package re-exports the names the demos use; everything else is
imported from its module (``gkm.cohomology``, ``gkm.geometry``, ...).
"""

from .cohomology import equivariant_symplectic_class, thom_class
from .corpus import corpus, corpus_names
from .errors import GkmError
from .graph import Edge, GkmGraph, Vertex, orient
from .lefschetz import hard_lefschetz_report
from .localization import euler_class, evaluation_points, integrate, sum_at_point
from .polynomial import Polynomial, Vector, congruent_mod_linear, lin_form
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "Edge", "GkmError", "GkmGraph", "Polynomial", "Vector", "Vertex",
    "congruent_mod_linear", "corpus", "corpus_names",
    "equivariant_symplectic_class", "euler_class", "evaluation_points",
    "hard_lefschetz_report", "integrate", "lin_form", "orient", "render_svg",
    "sum_at_point", "thom_class",
]
