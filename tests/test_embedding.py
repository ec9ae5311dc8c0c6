import itertools
import random
import re
from typing import Tuple

import pytest
from hypothesis import given, strategies as st

from tridom.generate import K4, triangulations
from tridom.planar import (
    PLANAR_CODE_HEADER,
    Triangulation,
    _min_code,
    canonical_code,
    canonical_form,
    faces,
    is_face,
    planar_code_iter,
    planar_code_read,
    triangulation_from_code,
    underlying_graph,
    verify_triangulation,
)
from tridom.families import icosahedron

from helpers import (capped_antiprism, complete_graph, from_face_list, glued_on_a_face,
                     is_chord_root_edge, mirror, octahedron, planar_code_write, random_permutation,
                     random_triangulation, reference_faces, reference_min_code,
                     reference_triangulation_from_code, reference_verify_triangulation, relabel,
                     root_edges_of_least_code)


def test_faces_counts():
    assert len(faces(K4)) == 4
    assert len(faces(octahedron())) == 8
    assert len(faces(icosahedron())) == 20


def test_faces_cover_each_directed_edge_once(code_levels_to_11):
    """faces covers every directed edge once, with triples that is_face
    accepts, and reads the faces the tracer in helpers traces.  The sample:
    every class of orders 4..10, the octahedron, the icosahedron and random
    triangulations of orders 14..30, each also relabelled and mirrored."""
    rng = random.Random(21)
    bases = [t for n, level in code_levels_to_11.items() if n <= 10 for t in level.values()]
    bases += [K4, octahedron(), icosahedron()]
    bases += [random_triangulation(rng, n) for n in range(14, 31)]
    for base in bases:
        moved = relabel(base, random_permutation(rng, base.n))
        for t in (base, moved, mirror(moved)):
            fl = faces(t)
            assert fl == reference_faces(t)
            assert all(is_face(t, f) for f in fl)
            covered = [e for a, b, c in fl for e in ((a, b), (b, c), (c, a))]
            assert len(covered) == len(set(covered)) == 2 * t.edge_count()
            assert set(covered) == {(u, v) for u in range(t.n) for v in t.rot[u]}


def test_is_face_orientation():
    for f in faces(K4):
        assert is_face(K4, f)
        a, b, c = f
        assert is_face(K4, (b, c, a))       # rotations of the cycle are the same face
        assert not is_face(K4, (a, c, b))   # the reverse is not traced


def test_verify_accepts_valid():
    for t in (K4, octahedron(), icosahedron()):
        assert verify_triangulation(t).ok


def test_verify_rejects_repeat_neighbor():
    rot = list(K4.rot)
    rot[0] = (1, 1, 2)
    rep = verify_triangulation(Triangulation(4, rot))
    assert not rep.ok
    assert "repeated neighbor" in rep.problem


def test_verify_rejects_cube_quadrilateral_embedding():
    # standard cube: top ring 0..3, bottom ring 4..7; 12 edges < 3n-6
    rot = [
        (1, 3, 4), (2, 0, 5), (3, 1, 6), (0, 2, 7),
        (0, 7, 5), (1, 4, 6), (2, 5, 7), (3, 6, 4),
    ]
    rep = verify_triangulation(Triangulation(8, rot))
    assert not rep.ok
    assert "edge count" in rep.problem


def test_verify_rejects_nontriangular_face_with_right_edge_count():
    rot = list(octahedron().rot)
    a, b, c, d = rot[0]
    rot[0] = (a, c, b, d)  # still a permutation, embedding corrupted
    rep = verify_triangulation(Triangulation(6, rot))
    assert not rep.ok


def test_verify_rejects_small_and_asymmetric():
    assert not verify_triangulation(Triangulation(3, ((1, 2), (0, 2), (0, 1)))).ok
    rot = list(K4.rot)
    rot[0] = (1, 3, 2)[:2] + (0,)
    assert not verify_triangulation(Triangulation(4, rot)).ok


def test_canonical_code_invariant_under_relabeling_k4():
    base = canonical_code(K4)
    for perm in itertools.permutations(range(4)):
        assert canonical_code(relabel(K4, list(perm))) == base


def test_canonical_code_separates_the_two_order6_triangulations():
    level6 = triangulations(6)
    assert len(level6) == 2
    codes = {canonical_code(t) for t in level6}
    assert len(codes) == 2
    degseqs = {tuple(sorted(underlying_graph(t).degrees())) for t in level6}
    assert degseqs == {(4, 4, 4, 4, 4, 4), (3, 3, 4, 4, 5, 5)}


def test_canonical_code_mirror_and_relabel_invariance_random():
    rng = random.Random(42)
    for _ in range(60):
        t = random_triangulation(rng, rng.randint(5, 11))
        code = canonical_code(t)
        assert canonical_code(mirror(t)) == code
        perm = random_permutation(rng, t.n)
        assert canonical_code(relabel(t, perm)) == code


def test_canonical_form_is_canonical():
    rng = random.Random(5)
    for _ in range(20):
        t = random_triangulation(rng, rng.randint(5, 10))
        form = canonical_form(t)
        perm = random_permutation(rng, t.n)
        assert canonical_form(relabel(t, perm)) == form       # label independence
        assert canonical_form(mirror(t)) == form              # reflection independence
        assert canonical_form(form) == form                   # idempotent
        assert canonical_code(form) == canonical_code(t)


def test_triangulation_from_code_round_trip():
    for t in (K4, octahedron(), icosahedron()):
        code = canonical_code(t)
        rebuilt = triangulation_from_code(code)
        assert canonical_code(rebuilt) == code
        assert verify_triangulation(rebuilt).ok


def test_min_code_matches_every_candidate_verifier(code_levels_to_11):
    """The filtered kernel gives the code and the label arrays, in order, of
    the kernel that tries every root edge.  The sample: every class of
    orders 4..10 and the icosahedron, each relabelled twice and mirrored;
    random triangulations of orders 14..30; triangulations glued on a face,
    whose degree-4 vertex has chord root edges; and random triangulations of
    orders 31..60 along one walk, each also relabelled and mirrored, where
    more candidates stay live for longer."""
    rng = random.Random(20)
    classes = [t for n, level in code_levels_to_11.items() if n <= 10 for t in level.values()]
    classes.append(icosahedron())
    sample = []
    for t in classes:
        sample += [t, relabel(t, random_permutation(rng, t.n)),
                   relabel(t, random_permutation(rng, t.n)), mirror(t)]
    sample += [random_triangulation(rng, n) for n in range(14, 31) for _ in range(3)]
    glued = [glued_on_a_face(capped_antiprism(m1), (1, 2, 0), capped_antiprism(m2), (1, 2, 0))
             for m1, m2 in ((6, 6), (6, 7), (7, 7))]
    thick = [t for t in classes if min(map(len, t.rot)) >= 4]
    for _ in range(10):
        t1, t2 = rng.choice(thick), rng.choice(thick)
        glued.append(glued_on_a_face(t1, rng.choice(faces(t1)), t2, rng.choice(faces(t2))))
    for g in glued:
        sample += [g, mirror(relabel(g, random_permutation(rng, g.n)))]
    t = K4
    for n in range(31, 61):  # one walk, taken at each order
        t = random_triangulation(rng, n, t)
        sample += [t, mirror(relabel(t, random_permutation(rng, t.n)))]
    # the least code of a glued antiprism pair starts only at chord root edges
    assert all(is_chord_root_edge(g, u, v) for g in glued[:3]
               for u, v in root_edges_of_least_code(g))
    for t in sample:
        assert _min_code(t.rot) == reference_min_code(t.rot)


@pytest.mark.parametrize("t, message", [
    (Triangulation(8, K4.rot + tuple(tuple(u + 4 for u in r) for r in K4.rot)),
     "embedding is disconnected"),
    (Triangulation(5, K4.rot + ((),)), "isolated vertex in embedding"),
])
def test_canonical_code_refuses_disconnected_and_isolated(t, message):
    """Two disjoint K4s as one rotation system, and K4 with an isolated
    fifth vertex: the coding kernel names each."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        canonical_code(t)


def test_triangulation_from_code_matches_symbol_decoder(code_levels_to_11):
    for n, level in code_levels_to_11.items():
        if n <= 10:
            for code in level:
                assert triangulation_from_code(code) == reference_triangulation_from_code(code)


@pytest.mark.parametrize("code, message", [
    (bytes([2, 3, 4, 0, 0, 1, 3, 0]), "empty rotation block in code"),
    (bytes([0]), "empty rotation block in code"),
    (bytes([2, 3, 4, 0, 1, 3]), "unterminated rotation block in code"),
])
def test_triangulation_from_code_rejects_bad_blocks(code, message):
    with pytest.raises(ValueError, match=message):
        triangulation_from_code(code)
    with pytest.raises(ValueError, match=message):
        reference_triangulation_from_code(code)


def test_underlying_graph():
    assert underlying_graph(K4) == complete_graph(4)
    assert underlying_graph(octahedron()).degrees() == [4] * 6
    t9 = triangulations(9)[0]
    assert underlying_graph(t9).edge_count() == 21  # 3n-6


def test_planar_code_k4_byte_layout():
    data = planar_code_write([K4])
    assert data.startswith(PLANAR_CODE_HEADER)
    payload = data[len(PLANAR_CODE_HEADER):]
    assert len(payload) == 1 + 4 * (3 + 1)  # order byte + per vertex 3 neighbors + 0
    assert payload[0] == 4
    (back,) = planar_code_read(data)
    assert back.rot == K4.rot


def test_planar_code_round_trips():
    ts = triangulations(7)
    data = planar_code_write(ts)
    back = planar_code_read(data)
    assert [t.rot for t in back] == [t.rot for t in ts]
    assert planar_code_write(back) == data  # byte-identical round trip
    # header optional on read
    assert [t.rot for t in planar_code_read(data[len(PLANAR_CODE_HEADER):])] \
        == [t.rot for t in ts]


def test_planar_code_empty_and_errors():
    assert planar_code_read(PLANAR_CODE_HEADER) == []
    with pytest.raises(ValueError):
        planar_code_read(bytes([4, 2, 3]))  # truncated
    with pytest.raises(ValueError):
        planar_code_read(bytes([2, 9, 0, 1, 0]))  # neighbor out of range
    with pytest.raises(ValueError):
        planar_code_read(bytes([200]))  # order >= 128
    big = Triangulation(128, [tuple()] * 128)
    with pytest.raises(ValueError):
        planar_code_write([big])


def test_from_face_list_rejects_bad_complexes():
    with pytest.raises(ValueError):
        from_face_list(4, [(0, 1, 2), (0, 1, 3)])  # edge (0,1) twice but (2,3) missing
    with pytest.raises(ValueError):
        from_face_list(4, [(0, 1, 2)])  # open edges everywhere


def test_from_face_list_keeps_seed_orientation():
    oc = octahedron()
    assert is_face(oc, (0, 1, 2))
    ico = icosahedron()
    assert is_face(ico, (0, 1, 2))


# one record that parses: order n, then n zero-terminated neighbour lists
_parsed_records = st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(1, n), max_size=6), min_size=n, max_size=n).map(
    lambda rows: bytes([n, *(x for r in rows for x in [*r, 0])])))


@given(st.binary(max_size=64) | st.lists(_parsed_records, max_size=3).map(b"".join))
def test_planar_code_rejects_any_bad_bytes_with_value_error(data):
    """Bad bytes raise ValueError while parsing, and every record parsed
    gets the validity report of the validator built on the face tracer."""
    records = []
    try:
        for t in planar_code_iter(data):
            records.append(t)
    except ValueError:
        pass
    for t in records:
        assert verify_triangulation(t) == reference_verify_triangulation(t)


def _corrupted(rng: random.Random, t: Triangulation) -> Tuple[str, Triangulation]:
    """One corruption of t's rotation rows, by name, and its result."""
    rot = [list(r) for r in t.rot]
    kind = rng.choice(("swap", "reverse", "replace", "drop", "shift", "mirror"))
    r = rot[rng.randrange(t.n)]
    if kind == "swap":
        i, j = rng.sample(range(len(r)), 2)
        r[i], r[j] = r[j], r[i]
    elif kind == "reverse":
        r.reverse()
    elif kind == "replace":  # by any vertex, or one out of range
        r[rng.randrange(len(r))] = rng.randrange(-1, t.n + 1)
    elif kind == "drop":
        del r[rng.randrange(len(r))]
    elif kind == "shift":  # the same cyclic order: still a triangulation
        k = rng.randrange(len(r))
        r[:] = r[k:] + r[:k]
    else:
        for v in rng.sample(range(t.n), rng.randrange(1, t.n)):
            rot[v].reverse()
    return kind, Triangulation(t.n, rot)


def test_verify_matches_the_face_tracer_on_corrupted_rotation_systems(code_levels_to_11):
    """The corner rule gives the report of the validator built on the face
    tracer, verdict and message, on rows with swapped entries, reversed,
    with a neighbour replaced or dropped, cyclically shifted, or mirrored in
    a subset; every kind of failure these make occurs."""
    rng = random.Random(22)
    bases = [t for n, level in code_levels_to_11.items() if 5 <= n <= 10 for t in level.values()]
    bases += [random_triangulation(rng, n) for n in range(14, 31)]
    kinds, problems = set(), set()
    for _ in range(3000):
        base = rng.choice(bases)
        kind, t = _corrupted(rng, relabel(base, random_permutation(rng, base.n)))
        report = verify_triangulation(t)
        assert report == reference_verify_triangulation(t)
        kinds.add(kind)
        problems.add(report.problem and re.sub(r"-?\d+", "#", report.problem))
    assert len(kinds) == 6
    assert problems == {None, "repeated neighbor in rotation of #",
                        "vertex # out of range in rotation of #", "self-loop at #",
                        "asymmetric adjacency (#,#)", "non-triangular face at directed edge (#, #)"}
