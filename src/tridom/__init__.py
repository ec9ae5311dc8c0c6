"""Exact connected domination of plane triangulations.

Generation of all plane triangulations of small order, exact domination and
connected domination solvers with certificates (subset search, a frontier
DP for thin graphs and an independent edge-contraction route), extremal
family constructors, and a census driver with a built-in reference table.
"""

from .graphs import (
    Graph,
    PRUNE,
    STOP,
    bits,
    closed_neighborhood,
    connected_sets,
    degree_stats,
    enumerate_connected_sets,
    graph6_read,
    graph6_write,
    induces_connected,
    is_connected,
    is_dominating,
    vset,
)
from .planar import (
    Face,
    Triangulation,
    ValidityReport,
    canonical_code,
    canonical_form,
    faces,
    from_face_list,
    is_face,
    mirror,
    planar_code_read,
    planar_code_write,
    relabel,
    triangulation_from_code,
    underlying_graph,
    verify_triangulation,
)
from .generate import (
    K4,
    collapse_deg5,
    expand_deg3,
    expand_deg4,
    expand_deg5,
    levels,
    opposite_vertices,
    successors,
    triangulations,
)
from .domination import (
    ContractionWitness,
    DominationCertificate,
    all_minimum_cds,
    bfs_tree_cds,
    classify,
    contract_edge,
    contraction_search,
    exact_gamma,
    exact_gamma_c,
    frontier_gamma_c,
    gamma_c_by_contraction,
    subset_gamma_c,
)
from .families import (
    FamilySpec,
    SumReport,
    expected_family_value,
    family,
    family_base,
    icosa_chain,
    icosahedron,
    new_triangle,
    octahedron,
    octahedron_sum,
    octahedron_sum_report,
)
from .census import (
    CensusRecord,
    CensusRow,
    CorpusReport,
    REFERENCE_CENSUS,
    ReferenceDiff,
    census_records,
    compare_reference,
    find_extremal,
    levels_from_planar_code,
    results_from_json,
    results_to_json,
    rows_from_csv,
    rows_to_csv,
    run_census,
    verify_corpus,
)

__version__ = "0.1.0"
