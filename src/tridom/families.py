"""Extremal triangulation families built from clique sums and icosahedron chains.

The octahedron sum glues the 4-regular 6-vertex triangulation onto a face
(a clique sum over a triangle): new triangle e, f, g inside face (a, b, c)
with edges ae, af, bf, bg, ce, cg.  Iterating it on the freshly added
triangle produces order-3k triangulations whose connected domination number
grows by one or two per step depending on how the chosen face meets the
minimum connected dominating sets; families A and B below follow the two
known base graphs on nine vertices.  The icosahedron and the bases are
stored data, the one as its rotation table and each base as a canonical
code and a face; the tests pin the properties that define them.  Members are
built, not solved: the law gamma_c = k = n/3 for k >= 5
(``expected_family_value``) is pinned by the tests for k = 3..60, 80 and
100 and checked by ``tridom family --values``, which solves the member once.
The sum is three calls of ``generate._insert_vertex``, which makes every
vertex insertion; a degree-3 insertion into a face (a, b, c) of a member is
``_insert_vertex(t, (a, c, b))``, the first of them.

The icosahedron chain is built copy by copy from the stored table: each
next copy is the mirrored table relabelled so that it shares the vertex u
and the previous copy's w, spliced into one list of rows across that edge,
and a chord from w1 to the copy's w closes the quadrilateral it leaves, so
the outer hole ends up triangulated by a fan of chords from w1.  The tests
pin its rows for k = 2..30.  Consecutive copies meet the rest only in the
shared vertex, w1 and the previous copy's w, so the chain is thin and
``exact_gamma_c`` solves it with the frontier DP, on the vertex order
``domination._dp_order`` finds (width 6 or 7 here, 8 or 9 in the built
labelling).  Chain law, measured for k = 2..30: gamma = k + 1 (the shared
vertex and one interior vertex per copy) and gamma_c = ceil(5k/2) + 1, so
the gap gamma_c - gamma = ceil(3k/2) (3, 5, 6, 8, ..., 45 at k = 30) grows
with k over that whole range.  The tests pin gamma_c for k = 2..12 and both
values at k = 2, 3, 4 and 13.
Whether this is the paper's chain is not settled here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .generate import _insert_vertex
from .planar import Face, Triangulation, is_face, triangulation_from_code


#: The icosahedron's rotation table, with outer face (0, 1, 2): vertex 0 is
#: the top pole, 1..5 its ring, 6..10 the lower ring and 11 the bottom pole.
_ICOSAHEDRON = ((1, 5, 4, 3, 2), (0, 2, 6, 10, 5), (0, 3, 7, 6, 1), (0, 4, 8, 7, 2),
                (0, 5, 9, 8, 3), (0, 1, 10, 9, 4), (1, 2, 7, 11, 10), (2, 3, 8, 11, 6),
                (3, 4, 9, 11, 7), (4, 5, 10, 11, 8), (1, 6, 11, 9, 5), (6, 7, 8, 9, 10))


def icosahedron() -> Triangulation:
    """The 5-regular plane triangulation on twelve vertices.

    The designated outer face is (0, 1, 2): vertex 0 plays u, 1 plays v and
    2 plays w in the chain construction.
    """
    return Triangulation(12, _ICOSAHEDRON)


def octahedron_sum(t: Triangulation, f: Face) -> Triangulation:
    """Clique sum of t with the octahedron over face f = (a, b, c).

    Adds three vertices e = n, f = n+1, g = n+2 forming a triangle, joined
    by edges ae, af, bf, bg, ce, cg; the new triangle (n, n+1, n+2) bounds a
    face of the result and is the site for iterating the construction.  It
    is three vertex insertions: e inside the face, f across edge (e, b) and
    g across edge (f, c).
    """
    if not is_face(t, f):
        raise ValueError(f"{f} is not a face")
    a, b, c = f
    n = t.n
    t = _insert_vertex(t, (a, c, b))
    t = _insert_vertex(t, (a, n, c, b), ((n, b),))
    return _insert_vertex(t, (b, n + 1, n, c), ((n + 1, c),))


# Canonical code (hex) and designated face of each family's nine-vertex base.
_BASES = {
    "A": ("020304000104050300010205060400010306070805020002040809060300030509"
          "070400040609080004070905000508070600", (0, 2, 1)),
    "B": ("020304050001050607030001020708040001030809050001040906020002050907"
          "000206090803000307090400040807060500", (0, 1, 4)),
}


@lru_cache(maxsize=None)
def family_base(which: str) -> Tuple[Triangulation, Face]:
    """Nine-vertex base triangulation and designated face for family A or B.

    B's base is the unique 9-vertex triangulation whose connected domination
    number is 3, with the first face (in ``faces`` order) whose octahedron
    sum keeps the value at 3.  A's base is the code-least 9-vertex
    triangulation with value 2 having a face disjoint from every minimum
    connected dominating set, with the first such face.  Both are stored as
    canonical codes; the tests derive them again from the order-9 level.
    """
    if which not in _BASES:
        raise ValueError("family must be 'A' or 'B'")
    code, face = _BASES[which]
    return triangulation_from_code(bytes.fromhex(code)), face


def expected_family_value(which: str, k: int) -> int:
    """Connected domination number of family member k (order 3k)."""
    if which == "A":
        return 2 if k == 3 else k
    if which == "B":
        return 3 if k <= 4 else k
    raise ValueError("family must be 'A' or 'B'")


def family(which: str, k: int) -> Triangulation:
    """Member k (order 3k) of family A or B by iterated octahedron sums.

    Starting from the nine-vertex base, k-3 sums are applied, each on the
    most recently added triangle.  The member is built, not solved: its
    value, ``expected_family_value(which, k)``, is pinned by the tests and
    checked by ``tridom family --values``.
    """
    if k < 3:
        raise ValueError("family members need k >= 3 (order 3k >= 9)")
    t, site = family_base(which)
    for _ in range(k - 3):
        t, site = octahedron_sum(t, site), (t.n, t.n + 1, t.n + 2)
    return t


class FamilySpec:
    """Which extremal construction to build: family A/B at 3k vertices, or a chain."""

    def __init__(self, kind: str, k: int) -> None:
        if kind in ("A", "B"):
            if k < 3:
                raise ValueError("families A and B need k >= 3")
        elif kind == "chain":
            if k < 2:
                raise ValueError("chains need k >= 2")
        else:
            raise ValueError(f"unknown family kind {kind!r}")
        self.kind = kind  # "A", "B" or "chain"
        self.k = k

    def build(self) -> Triangulation:
        if self.kind == "chain":
            return icosa_chain(self.k)
        return family(self.kind, self.k)


def _linear_from(seq: Tuple[int, ...], start: int) -> Tuple[int, ...]:
    i = seq.index(start)
    return seq[i:] + seq[:i]


def icosa_chain(k: int) -> Triangulation:
    """Chain of k icosahedra sharing one vertex, outer hole fanned from w1.

    The first copy is the stored icosahedron with u = 0, v = 1 and w1 = 2.
    Each next copy is its mirror, relabelled 0 -> u, 1 -> the previous
    copy's w (v for the first pair) and 2..11 -> the next ten labels, and
    spliced in across that edge: u's row runs on into the copy's row of u,
    the old w's row into the copy's row of 1, and the ten new rows follow.
    All u's are one vertex.  The chord w1-w_i then splits the quadrilateral
    (w_{i-1}, w1, u, w_i), so the outer boundary (u, w_1, v, w_2, ..., w_k)
    is triangulated by the fan of chords w_1-w_j.  Order 10k + 2; the rows
    for k = 2..30 are pinned by the tests.
    """
    if k < 2:
        raise ValueError("chains need k >= 2")
    rot = list(_ICOSAHEDRON)
    w1, prev = 2, 1  # prev: v for the first pair, then w_{i-1}
    for n in range(12, 10 * k + 2, 10):
        label = (0, prev) + tuple(range(n, n + 10))
        copy = [tuple(label[x] for x in reversed(r)) for r in _ICOSAHEDRON]
        rot[0] = _linear_from(rot[0], prev) + _linear_from(copy[0], prev)[1:]
        rot[prev] = _linear_from(rot[prev], 0)[1:] + _linear_from(copy[1], 0)
        # The chord w1-w_i: w1's row ends in w_{i-1} and w_i's (the copy's
        # row of 2) in u, so each end takes the other as its last neighbour.
        rot[w1] += (n,)
        rot += [copy[2] + (w1,)] + copy[3:]
        prev = n
    return Triangulation(len(rot), rot)
