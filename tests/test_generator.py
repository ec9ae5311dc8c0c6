import pytest

from tridom.generate import (
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
from tridom.planar import (
    canonical_code,
    faces,
    underlying_graph,
    verify_triangulation,
)
from tridom.families import icosahedron, octahedron

from helpers import (all_children, all_moves_levels, assemble_triangulations,
                     cone_triangulations)

KNOWN_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233}


def test_level_counts_up_to_10(levels_to_9):
    for n, level in levels(10):
        assert len(level) == KNOWN_COUNTS[n], f"order {n}"


def test_every_generated_triangulation_is_valid(levels_to_9):
    for n, level in levels_to_9.items():
        for t in level:
            assert verify_triangulation(t).ok
            assert t.n == n


def test_codes_distinct_within_level(levels_to_9):
    for level in levels_to_9.values():
        codes = [canonical_code(t) for t in level]
        assert len(codes) == len(set(codes))
        assert codes == sorted(codes)  # levels come out sorted by code


def test_expand_deg3_on_k4_faces_all_isomorphic():
    children = {canonical_code(expand_deg3(K4, f)) for f in faces(K4)}
    assert len(children) == 1
    (only,) = triangulations(5)
    assert children == {canonical_code(only)}


def test_expand_deg3_basics():
    child = expand_deg3(K4, faces(K4)[0])
    assert child.n == 5
    assert child.degree(4) == 3
    assert verify_triangulation(child).ok
    with pytest.raises(ValueError):
        expand_deg3(K4, (0, 2, 1))  # reversed triple is not a traced face


def test_expand_deg4_basics():
    oc = octahedron()
    e = oc.edges()[0]
    child = expand_deg4(oc, e)
    assert child.n == 7
    assert child.degree(6) == 4
    assert verify_triangulation(child).ok
    assert child.edge_count() == 3 * 7 - 6  # (3n-6) - 1 + 4
    with pytest.raises(ValueError):
        expand_deg4(oc, (0, 5))  # antipodes are not adjacent


def test_expand_deg4_reaches_a_6_vertex_triangulation():
    (t5,) = triangulations(5)
    codes6 = {canonical_code(t) for t in triangulations(6)}
    produced = {canonical_code(expand_deg4(t5, e)) for e in t5.edges()}
    assert produced <= codes6
    assert produced  # at least one 6-vertex triangulation arises this way


def test_expand_deg5_on_icosahedron_everywhere():
    ico = icosahedron()
    for a in range(12):
        for x1 in ico.rot[a]:
            child = expand_deg5(ico, a, x1)
            assert child.n == 13
            assert child.edge_count() == 3 * 13 - 6
            assert verify_triangulation(child).ok
            assert child.degree(12) == 5


def test_expand_deg5_requires_degree_5_apex():
    with pytest.raises(ValueError):
        expand_deg5(K4, 0, 1)


def test_expand_collapse_deg5_round_trip():
    ico = icosahedron()
    base = canonical_code(ico)
    for a in (0, 5, 11):
        x1 = ico.rot[a][2]
        child = expand_deg5(ico, a, x1)
        back = collapse_deg5(child, child.n - 1, a)
        assert verify_triangulation(back).ok
        assert canonical_code(back) == base


def test_successors_emit_valid_children(levels_to_9):
    for t in levels_to_9[7]:
        for child in successors(t):
            assert verify_triangulation(child).ok


def test_successors_new_vertex_has_minimum_degree(levels_to_9):
    for n in (4, 5, 6, 7, 8):
        for t in levels_to_9[n]:
            for child in successors(t):
                degrees = [len(r) for r in child.rot]
                assert degrees[n] == min(degrees)


def test_successors_are_the_minimum_degree_children(levels_to_9):
    """The filter decides from the parent's degrees; it must keep exactly the
    children that pass when checked after building them."""
    for t in levels_to_9[8]:
        kept = [child.rot for child in successors(t)]
        wanted = [child.rot for child in all_children(t)
                  if len(child.rot[-1]) == min(map(len, child.rot))]
        assert kept == wanted


def test_filtered_levels_match_all_moves_levels():
    """Dropping children whose new vertex is not of minimum degree loses no class."""
    everything = all_moves_levels(10)
    for n, level in levels(10):
        assert set(level) == everything[n], f"order {n}"


def test_opposite_vertices():
    c, d = opposite_vertices(K4, (0, 1))
    assert {c, d} == {2, 3}
    with pytest.raises(ValueError):
        opposite_vertices(octahedron(), (0, 5))


def test_levels_bounds():
    with pytest.raises(ValueError):
        list(levels(3))
    with pytest.raises(ValueError):
        list(levels(15))


def test_generator_matches_independent_assembly_up_to_8(levels_to_9):
    """Level-by-level cross-check against a from-scratch enumeration that
    assembles directed triangles into closed spheres (no vertex insertions,
    no shared code path with the generator)."""
    for n in (4, 5, 6, 7, 8):
        independent = assemble_triangulations(n)
        generated = {canonical_code(t) for t in levels_to_9[n]}
        assert generated == independent


def test_universal_vertex_classes_match_polygon_cones(levels_to_9):
    """Triangulations with a universal vertex are exactly the cones over
    triangulated polygons.  This independently pins the gamma_c = 1 column
    of the census: 4 at order 8 (the published table's 3 is a known
    misprint; the four cones have four distinct degree sequences)."""
    for n in (6, 7, 8, 9):
        cones = cone_triangulations(n - 1)
        universal = {canonical_code(t) for t in levels_to_9[n]
                     if max(underlying_graph(t).degrees()) == n - 1}
        assert universal == cones
    assert len(cone_triangulations(7)) == 4
