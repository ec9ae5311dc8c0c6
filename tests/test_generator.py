import hashlib
import random

import pytest

from tridom.generate import (
    K4,
    _accepted_code,
    _automorphisms,
    _insert_vertex,
    levels,
    successors,
    triangulations,
)
from tridom.planar import (
    Triangulation,
    _min_code,
    canonical_code,
    canonical_form,
    faces,
    underlying_graph,
    verify_triangulation,
)
from tridom.families import icosahedron

from helpers import (all_children, all_moves_levels, assemble_triangulations,
                     automorphism_orbit, automorphisms, collapse_deg5, cone_triangulations,
                     count_codings, degree, edges, mirror, octahedron, random_fan_parent,
                     random_permutation, random_triangulation, reference_screen,
                     reference_successors, relabel, screened_sites, site_image)

KNOWN_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233}


def expand_deg3(t, f):
    """The degree-3 move inside face f = (a, b, c): link (a, c, b), no cut."""
    a, b, c = f
    return _insert_vertex(t, (a, c, b))


def expand_deg4(t, e):
    """The degree-4 move across edge e = (a, b), whose faces have third
    vertices c and d: link (a, c, b, d), cutting (a, b)."""
    a, b = e
    return _insert_vertex(t, (a, t.succ(b, a), b, t.succ(a, b)), (e,))


def expand_deg5(t, apex, x1):
    """The degree-5 move over the fan at apex from x1, with x2, x3, x4
    following x1 at apex: link (apex, x1, x2, x3, x4), cutting (apex, x2)
    and (apex, x3)."""
    r = t.rot[apex]
    i = r.index(x1)
    x2, x3, x4 = (r[(i + j) % len(r)] for j in (1, 2, 3))
    return _insert_vertex(t, (apex, x1, x2, x3, x4), ((apex, x2), (apex, x3)))


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
    assert degree(child, 4) == 3
    assert verify_triangulation(child).ok


def test_expand_deg4_basics():
    oc = octahedron()
    e = edges(oc)[0]
    child = expand_deg4(oc, e)
    assert child.n == 7
    assert degree(child, 6) == 4
    assert verify_triangulation(child).ok
    assert child.edge_count() == 3 * 7 - 6  # (3n-6) - 1 + 4


def test_expand_deg4_reaches_a_6_vertex_triangulation():
    (t5,) = triangulations(5)
    codes6 = {canonical_code(t) for t in triangulations(6)}
    produced = {canonical_code(expand_deg4(t5, e)) for e in edges(t5)}
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
            assert degree(child, 12) == 5


def test_expand_collapse_deg5_round_trip():
    ico = icosahedron()
    base = canonical_code(ico)
    for a in (0, 5, 11):
        x1 = ico.rot[a][2]
        child = expand_deg5(ico, a, x1)
        back = collapse_deg5(child, child.n - 1, a)
        assert verify_triangulation(back).ok
        assert canonical_code(back) == base


def _every_move(t):
    """Every child of t by ``_insert_vertex``, in the order of ``all_sites``:
    face by face, edge by edge, then fan by fan."""
    kids = [expand_deg3(t, f) for f in faces(t)]
    kids += [expand_deg4(t, e) for e in edges(t)]
    kids += [expand_deg5(t, a, x1) for a in range(t.n) if len(t.rot[a]) >= 5
             for x1 in t.rot[a]]
    return kids


def test_move_builders_match_the_reference_rows(levels_to_11):
    """_insert_vertex builds each move from its (link, cut) pair; the rows
    equal, exactly, those of the tests' hand-written move functions
    (``reference_insert_deg3`` and ``reference_expand_deg4/5``), on every
    site of every parent of orders 4..10, of random parents of orders 14..30
    and of random parents with many degree-5 moves, each also relabelled and
    mirrored."""
    rng = random.Random(15)
    parents = [t for n in range(4, 11) for t in levels_to_11[n]]
    for t in ([random_triangulation(rng, n) for n in range(14, 31)]
              + [random_fan_parent(rng, n) for n in range(13, 21)]):
        s = relabel(t, random_permutation(rng, t.n))
        parents += [t, s, mirror(s)]
    fans = 0
    for t in parents:
        assert [c.rot for c in _every_move(t)] == [c.rot for c in all_children(t)]
        fans += sum(len(r) for r in t.rot if len(r) >= 5)
    assert fans > 10_000


def _has_tuple_rows(t):
    return type(t.rot) is tuple and all(type(r) is tuple for r in t.rot)


def test_rotations_are_stored_as_tuple_rows(levels_to_9):
    """The constructor turns list or bytes rows into tuples of ints, and the
    move builders' children hold tuple rows too."""
    lists = [list(r) for r in K4.rot]
    for rows in (lists, [bytes(r) for r in K4.rot], tuple(lists)):
        t = Triangulation(4, rows)
        assert _has_tuple_rows(t) and t == K4 and hash(t) == hash(K4)
    lists[0].reverse()
    assert t.rot == K4.rot  # the stored rows are copies
    children = [c for t in levels_to_9[7] for c, _ in successors(t)]
    oc, ico = octahedron(), icosahedron()
    children += [expand_deg3(K4, faces(K4)[0]), expand_deg4(oc, edges(oc)[0]),
                 expand_deg5(ico, 0, ico.rot[0][0])]
    children.append(collapse_deg5(children[-1], ico.n, 0))
    assert all(_has_tuple_rows(c) for c in children)


def test_successors_emit_valid_children(levels_to_9):
    for t in levels_to_9[7]:
        for child, _ in successors(t):
            assert verify_triangulation(child).ok


def test_successors_new_vertex_has_minimum_degree(levels_to_9):
    for n in (4, 5, 6, 7, 8):
        for t in levels_to_9[n]:
            for child, _ in successors(t):
                degrees = [len(r) for r in child.rot]
                assert degrees[n] == min(degrees)


def _group(t):
    """The automorphisms of t that its own coding's label arrays give."""
    return _automorphisms(_min_code(t.rot)[1])


def _rows(pairs):
    return [(child.rot, ties) for child, ties in pairs]


def _accepted_codes(pairs):
    return {coded[0] for child, ties in pairs
            if (coded := _accepted_code(child, ties)) is not None}


def test_successors_are_the_minimum_degree_children(levels_to_11):
    """successors ranks the new vertex on the parent, before building the
    child; it must yield exactly the minimum-degree children that pass the
    screen when it runs on the built child, with the same ties, in the same
    order.  Checked on every parent of orders 4..10, on random
    triangulations of orders 14..20, on random parents of orders 13..20 with
    many degree-5 moves, and on relabelled and mirrored copies.
    The build-then-screen route of the tests is checked against all_children
    on the same parents."""
    rng = random.Random(14)
    parents = [t for n in range(4, 11) for t in levels_to_11[n]]
    parents += [random_triangulation(rng, n) for n in range(14, 21) for _ in range(3)]
    parents += [random_fan_parent(rng, n) for n in range(13, 21) for _ in range(3)]
    for t in parents[:]:
        if t.n <= 9 or t.n >= 14 or rng.random() < 0.2:
            s = relabel(t, random_permutation(rng, t.n))
            parents += [s, mirror(s)]
    for t in parents:
        wanted = [(child.rot, ties) for _, child, ties in screened_sites(t)]
        assert _rows(successors(t, ())) == wanted
        built = list(reference_successors(t))
        assert [c.rot for c in built] == [c.rot for c in all_children(t)
                                          if len(c.rot[-1]) == min(map(len, c.rot))]
        assert [(c.rot, ties) for c in built
                if (ties := reference_screen(c)) is not None] == wanted


def test_automorphisms_from_coding_labels(levels_to_11):
    """The label arrays of one coding give every non-identity automorphism of
    the canonical form, whatever labelling or reflection was coded: the same
    group, and so the same orbits, as the independent search of the tests
    (``automorphism_orbit``), on every class of orders 4..10 and on the
    icosahedron."""
    rng = random.Random(7)
    classes = [t for n in range(4, 11) for t in levels_to_11[n]]
    classes.append(canonical_form(icosahedron()))
    for t in classes:
        group = sorted(map(tuple, automorphisms(t)))
        identity = tuple(range(t.n))
        s = relabel(t, random_permutation(rng, t.n))
        for coded in (t, s, mirror(s)):
            auts = _group(coded)
            assert identity not in map(tuple, auts)
            assert sorted(map(tuple, auts + (list(identity),))) == group


def test_successors_expand_one_site_per_orbit(levels_to_11):
    """With the parent's automorphisms, successors yields, of the screened
    children, exactly those whose site is the least of its orbit, and they
    give the same accepted codes as every screened child.  A trivial group,
    or the identity alone, changes nothing."""
    pruned = 0
    for t in [t for n in range(4, 11) for t in levels_to_11[n]]:
        auts = _group(t)
        group = automorphisms(t)
        unpruned = list(successors(t, ()))
        kept = list(successors(t, auts))
        assert _rows(kept) == [(child.rot, ties) for key, child, ties in screened_sites(t)
                               if all(site_image(s, key) >= key for s in group)]
        assert _rows(successors(t, [list(range(t.n))])) == _rows(unpruned)
        assert _accepted_codes(kept) == _accepted_codes(unpruned)
        if auts:
            pruned += len(unpruned) - len(kept)
        else:
            assert _rows(kept) == _rows(unpruned)
    assert pruned > 0


def test_filtered_levels_match_all_moves_levels():
    """Dropping children whose new vertex is not of minimum degree loses no class."""
    everything = all_moves_levels(10)
    for n, level in levels(10):
        assert {c for c, _ in level} == everything[n], f"order {n}"


def test_accepted_levels_match_coding_every_child():
    """Coding only the children the acceptance rule keeps, one site per orbit,
    loses no class and changes no level: the verifier codes every
    minimum-degree child, built by the tests' own route."""
    everything = all_moves_levels(11, reference_successors)
    for n, level in levels(11):
        assert [c for c, _ in level] == sorted(everything[n]), f"order {n}"


# sha256 of the concatenated canonical codes of each level, in level order
LEVEL_DIGESTS = {
    5: "9dd405c93a0ab2c0d116e15d0ceda1bec2d40e00fe77c8d43cd8dccd3f3b2bf0",
    6: "e530d625745e0fdd75c5584457253c2aeb4dd550e308b4a0657035b5f08923e9",
    7: "852f543019fb7b70d328a43396982c3de6b434bb8cc1ab1c715b5f8ce4cee55c",
    8: "10f66466d7303f2ffd309d26abf1a6839aaa367cc63e4c948d2f2519b7e45eff",
    9: "0f08a658cb4b81d7de4c6f1856c224df5238c5d40ac4c9fb50c7b3d2eeaa913e",
    10: "c9eaef60d3101e78a65efee849da7f926000bb1035926bdd0d48d543bb5baef5",
    11: "f8c480500117934aa6e303fb5333d1aa66da988ebf16f27b2e9de36f1217a6a6",
    12: "aed36ec310fd0df99a319c1edbd2be090ce411a2a03da87b723ce670481c2f63",
}


def test_level_digests_and_codings_to_12(monkeypatch):
    """Levels 5..12 are pinned byte for byte, and generating them codes K4 and
    10,053 children, one per screened site per orbit of its parent's
    automorphisms, of the 29,184 minimum-degree children (each coding is one
    _min_code call)."""
    calls = count_codings(monkeypatch)
    digests = {n: hashlib.sha256(b"".join(c for c, _ in level)).hexdigest()
               for n, level in levels(12) if n >= 5}
    assert digests == LEVEL_DIGESTS
    assert len(calls) == 1 + 10_053


def _with_last(t, u):
    """t with vertices u and n - 1 swapped."""
    perm = list(range(t.n))
    perm[u], perm[-1] = perm[-1], perm[u]
    return relabel(t, perm)


def _accepted_vertices(t):
    """Minimum-degree vertices u that the acceptance rule takes for the new
    vertex when u is swapped to the last label."""
    dmin = min(map(len, t.rot))
    out = set()
    for u in range(t.n):
        if len(t.rot[u]) == dmin:
            child = _with_last(t, u)
            ties = reference_screen(child)
            coded = None if ties is None else _accepted_code(child, ties)
            if coded is not None:
                assert coded[0] == canonical_code(t)
                out.add(u)
    return out


def test_acceptance_rule_accepts_one_orbit_invariantly(levels_to_11):
    """The rule accepts exactly one nonempty automorphism orbit of new
    vertices, and the same one however the class is labelled or reflected."""
    rng = random.Random(11)
    classes = [t for n in range(6, 11) for t in levels_to_11[n]] + [icosahedron()]
    for t in classes:
        accepted = _accepted_vertices(t)
        assert accepted and all(automorphism_orbit(t, u) == accepted for u in accepted)
        for _ in range(2):
            perm = random_permutation(rng, t.n)
            s = relabel(t, perm)
            if rng.random() < 0.5:
                s = mirror(s)
            assert _accepted_vertices(s) == {perm[u] for u in accepted}


def test_every_degree5_vertex_is_reducible(levels_to_11):
    """collapse_deg5 deletes every degree-5 vertex at some apex and gives a
    triangulation, the icosahedron's included, so the acceptance rule may
    take any minimum-degree vertex as a reduction."""
    for t in [icosahedron()] + [t for n in range(6, 12) for t in levels_to_11[n]]:
        for u in range(t.n):
            if len(t.rot[u]) == 5:
                s = _with_last(t, u)
                parents = []
                for apex in s.rot[-1]:
                    try:
                        parents.append(collapse_deg5(s, s.n - 1, apex))
                    except ValueError:
                        pass
                assert len(parents) >= 2
                assert all(verify_triangulation(p).ok for p in parents)


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
