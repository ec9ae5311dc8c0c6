"""Exact connected domination of plane triangulations.

Generation of all plane triangulations of small order, exact domination and
connected domination solvers with certificates (subset search, a frontier
DP for thin graphs and an independent edge-contraction route), extremal
family constructors, and a census driver with a built-in reference table.

The package namespace holds what the README and the demos use; everything
else is imported from its module: ``tridom.graphs``, ``tridom.planar``,
``tridom.generate``, ``tridom.domination``, ``tridom.families`` and
``tridom.census``.
"""

from .graphs import bits, induces_connected, is_dominating, vset
from .planar import underlying_graph
from .generate import triangulations
from .domination import classify, exact_gamma, exact_gamma_c, gamma_c_by_contraction
from .families import family, family_base, icosa_chain, icosahedron, octahedron_sum
from .census import census_records, census_rows, classified, compare_reference

__version__ = "0.1.0"
