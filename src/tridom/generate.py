"""Isomorph-free generation of plane triangulations by vertex insertion.

Every plane triangulation on n+1 >= 5 vertices arises from one on n vertices
by inserting a vertex v of degree 3, 4 or 5, a move given by a pair (link,
cut) for ``_insert_vertex``: link is v's clockwise rotation, a cycle of the
parent, and cut the edges inside it that the move deletes.  Inside face
(a, b, c) the link is (a, c, b), cutting nothing; across edge (a, b), whose
faces have third vertices c and d, it is (a, c, b, d), cutting (a, b); over
the fan of three faces at an apex a of degree >= 5, with x1..x4 consecutive
at a, it is (a, x1, x2, x3, x4), cutting (a, x2) and (a, x3).  Enumeration
is level-synchronous and follows McKay's canonical construction path
(J. Algorithms 1998; the same moves as plantri, Brinkmann & McKay 2007): a
child is kept only if its new vertex is, up to automorphism, the child's
canonical reduction, and the kept children are deduplicated by canonical
code, so the next level holds each isomorphism class exactly once.

Every vertex u of minimum degree (at most 5) can be deleted by inverting a
move, so that the rest is a triangulation of order n: a degree-3 vertex
leaves a face; a degree-4 vertex is replaced by a diagonal of its link; a
degree-5 vertex by the two chords of its link from some apex (the tests'
``collapse_deg5``).  The far side of the link cycle is a disk, where chords
cannot cross, so at most one diagonal of a 4-cycle and at most two chords of
a 5-cycle, sharing an end, are edges already; two chords of a pentagon
touch three of its five vertices, so at least two apices are free.  No
vertex drops below degree 3 (a neighbour of a degree-3 vertex has degree at
least 4 once n >= 5).

The canonical reduction is the minimum-degree vertex with the largest sorted
tuple of neighbour degrees; if several share the largest tuple, the one the
canonical labelling numbers first.  Both depend only on the isomorphism
class, so the vertex is fixed up to automorphism.  A child is kept iff its
new vertex v = n - 1 is in the orbit of that vertex.  The tuples decide
first, so a child some other vertex outranks is dropped without being built;
only children where v ties with other vertices are decided by the labelling,
from the same coding that gives their code (``_accepted_code``).

No class is lost.  Take a class of order n+1 and delete its canonical
reduction u: the rest is isomorphic to a class P of the previous level, and
the isomorphism carries the inverted move to a site of P.  Expanding that
site gives a child isomorphic to the class whose new vertex is the image of
u; it has the minimum degree, so ``successors`` screens it in, and it is in
the orbit of the canonical reduction, so it is kept.

Each child is decided on its parent, before it is built.  A move changes
only the degrees and neighbour lists of its link vertices, so ``successors``
ranks the new vertex on the (link, cut) pair and builds only the moves that
pass.  It also expands one site per orbit of the parent's automorphism
group: an automorphism carries a site to one whose child is isomorphic, new
vertex to new vertex, so both give the same decision and code.  The group comes free
from coding: the label arrays that ``_min_code`` returns for the first child
that reaches a class differ by its automorphisms.  Deleting two vertices of
one orbit gives sites that an automorphism of the parent exchanges, so the
kept codes, which still go through a set, repeat only where one vertex of
degree 4 or 5 has several deletions (two diagonals, or several free apices)
into different parents or different orbits of sites.

``_insert_vertex`` alone builds every move, unchecked: ``successors`` passes
it its own sites, and ``families.octahedron_sum`` three insertions into a
face it has checked.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .planar import Triangulation, _min_code, faces, triangulation_from_code

MIN_ORDER = 4
MAX_ORDER = 14

#: K4 with a fixed clockwise rotation system (outer face 0,1,2; center 3).
K4 = Triangulation(4, ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2)))


def _cut_at(cut: Tuple[Tuple[int, int], ...], u: int) -> List[int]:
    """The neighbours of u that the cut edges remove."""
    return [y if x == u else x for x, y in cut if x == u or y == u]


def _insert_vertex(t: Triangulation, link: Tuple[int, ...],
                   cut: Tuple[Tuple[int, int], ...] = ()) -> Triangulation:
    """t with a new vertex v = n of rotation link and the cut edges deleted;
    unchecked.  At a link vertex that loses one neighbour to the cut, v takes
    its place; at any other, v goes right after the next link vertex, once
    the lost neighbours are gone."""
    v = t.n
    rot = list(t.rot)
    for i, u in enumerate(link):
        gone = _cut_at(cut, u) if cut else ()
        row = rot[u]
        if len(gone) == 1:
            j = row.index(gone[0])
            rot[u] = row[:j] + (v,) + row[j + 1:]
        else:
            if gone:
                row = tuple(x for x in row if x not in gone)
            j = row.index(link[(i + 1) % len(link)]) + 1
            rot[u] = row[:j] + (v,) + row[j:]
    rot.append(link)
    return Triangulation(v + 1, rot)


def successors(t: Triangulation, auts: Sequence[Sequence[int]] = ()
               ) -> Iterator[Tuple[Triangulation, List[int]]]:
    """The children of t whose new vertex may be the canonical reduction,
    as (child, ties), one site per orbit of the automorphisms auts.

    A child passes if its new vertex has the child's minimum degree and no
    other vertex of that degree ranks above it (``_rank``).  A degree-3
    child always has it; a degree-4 child across edge (a, b) raises the
    opposite vertices c and d, so it has it iff every degree-3 vertex of t
    is c or d; a degree-5 child at apex a over x1..x4 lowers a and raises x1
    and x4, so it has it iff t has no degree-3 vertex, deg(a) >= 6 and every
    degree-4 vertex is x1 or x4.  Children come face by face in the order of
    ``faces``, then edge by edge, each edge (a, b) with a < b once, by a and
    then by b's place in a's rotation, then fan by fan.

    A site is skipped if some s in auts (vertex x to s[x]) maps it to a
    smaller key.  Keys ignore orientation, so reflections may be in auts: a
    face is its sorted triple, an edge its sorted pair, a fan its apex and
    the sorted pair x2, x3 whose edges to the apex it removes.
    """
    rot = t.rot
    v = t.n
    deg = [len(r) for r in rot]
    deg3 = [u for u in range(v) if deg[u] == 3]
    for f in faces(t):
        a, b, c = f
        if auts and any(sorted((s[a], s[b], s[c])) < sorted(f) for s in auts):
            continue
        ties = _rank(rot, deg, deg3, (a, c, b), ())
        if ties is not None:
            yield _insert_vertex(t, (a, c, b)), ties
    if len(deg3) <= 2:
        near = [u for u in range(v) if deg[u] <= 4]
        for a, ra in enumerate(rot):
            for i, b in enumerate(ra):
                c, d = ra[i - 1], ra[(i + 1) % len(ra)]
                if b < a or not {c, d}.issuperset(deg3):
                    continue
                if auts and any((min(s[a], s[b]), max(s[a], s[b])) < (a, b) for s in auts):
                    continue
                link, cut = (a, c, b, d), ((a, b),)
                ties = _rank(rot, deg, near, link, cut)
                if ties is not None:
                    yield _insert_vertex(t, link, cut), ties
    low = {u for u in range(v) if deg[u] <= 4}
    if len(low) <= 2 and not deg3:
        near = [u for u in range(v) if deg[u] <= 6]
        for a, ra in enumerate(rot):
            da = deg[a]
            if da < 6:
                continue
            for i, x1 in enumerate(ra):
                x2, x3, x4 = ra[(i + 1) % da], ra[(i + 2) % da], ra[(i + 3) % da]
                if not low <= {x1, x4}:
                    continue
                if auts and any((s[a], min(s[x2], s[x3]), max(s[x2], s[x3]))
                                < (a, min(x2, x3), max(x2, x3)) for s in auts):
                    continue
                link, cut = (a, x1, x2, x3, x4), ((a, x2), (a, x3))
                ties = _rank(rot, deg, near, link, cut)
                if ties is not None:
                    yield _insert_vertex(t, link, cut), ties


def _rank(rot, deg: List[int], near: List[int], link: Tuple[int, ...],
          cut: Tuple[Tuple[int, int], ...]) -> Optional[List[int]]:
    """Rank the new vertex v = n of the move (link, cut) against the child's
    other vertices of its degree by their sorted neighbour degrees, without
    building the child.

    deg and rot are the parent's, and near, in increasing order, holds every
    vertex that may have v's degree in the child.  None if a vertex ranks
    above v, so that v is not the canonical reduction; otherwise those that
    tie with v, in increasing order (an empty list when v alone ranks
    highest).
    """
    v = len(deg)
    deg = deg + [len(link)]
    for x in link:
        deg[x] += 1
    for x, y in cut:
        deg[x] -= 1
        deg[y] -= 1
    d = deg[v]
    key = sorted([deg[x] for x in link])
    ties = []
    for u in near:
        if deg[u] == d:
            if u in link:
                gone = _cut_at(cut, u)
                k = sorted([deg[x] for x in rot[u] if x not in gone] + [d])
            else:
                k = sorted([deg[x] for x in rot[u]])
            if k > key:
                return None
            if k == key:
                ties.append(u)
    return ties


def _automorphisms(labels: List[List[int]]) -> Tuple[List[int], ...]:
    """The non-identity automorphisms of a canonical form, from the label
    arrays of a coding that reaches its code: vertex labels[0][x] - 1 maps
    to label[x] - 1."""
    first = labels[0]
    auts = []
    for label in labels[1:]:
        s = [0] * len(first)
        for x, y in zip(first, label):
            s[x - 1] = y - 1
        auts.append(s)
    return tuple(auts)


def levels(n_max: int) -> Iterator[Tuple[int, Iterable[Tuple[bytes, Triangulation]]]]:
    """Yield (order, pairs) level by level from K4 up to n_max.

    pairs has a len and gives each class as (canonical code, canonical form
    = ``triangulation_from_code`` of the code) in code order, so the output
    is independent of expansion order.  Only the children that
    ``successors`` screens in are built and coded, each once; the
    automorphisms of the level being expanded come from those codings.
    Nothing expands order n_max: it is a ``CodeLevel``, without automorphisms.
    """
    if not MIN_ORDER <= n_max <= MAX_ORDER:
        raise ValueError(f"order must be in {MIN_ORDER}..{MAX_ORDER}, got {n_max}")
    code, labels = _min_code(K4.rot)
    found = {bytes(code): _automorphisms(labels)}
    for n in range(MIN_ORDER, n_max):
        level = {c: triangulation_from_code(c) for c in sorted(found)}
        yield n, level.items()
        groups = {c: auts for c, auts in found.items() if auts}
        found = {}
        for code, parent in level.items():
            for child, ties in successors(parent, groups.get(code, ())):
                coded = _accepted_code(child, ties)
                if coded is not None and coded[0] not in found:
                    found[coded[0]] = _automorphisms(coded[1]) if n + 1 < n_max else ()
    top = CodeLevel(found)
    level = groups = found = None  # while the caller reads the top, hold its codes alone
    yield n_max, top


class CodeLevel:
    """A level kept as its sorted codes; iterating decodes each (code, canonical form)."""

    def __init__(self, codes: Iterable[bytes]):
        self.codes = sorted(codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Tuple[bytes, Triangulation]]:
        for code in self.codes:
            yield code, triangulation_from_code(code)


def _accepted_code(child: Triangulation, ties: List[int]
                   ) -> Optional[Tuple[bytes, List[List[int]]]]:
    """The child's canonical code and the label arrays of its coding, if its
    new vertex v lies in the orbit of the canonical reduction, else None.

    ties are the other vertices that rank with v (see ``successors``).
    Among tied vertices the canonical reduction is the one that the
    canonical labelling numbers first.  Every labelling that reaches the
    canonical code gives the tied vertices the same set of labels, so v lies
    in the orbit of the canonical reduction iff one of them gives v the
    least of those labels.
    """
    code, labels = _min_code(child.rot)
    if ties:
        v = child.n - 1
        least = min(labels[0][u] for u in ties + [v])
        if not any(label[v] == least for label in labels):
            return None
    return bytes(code), labels


def triangulations(n: int) -> List[Triangulation]:
    """All plane triangulations of order n, one canonical form per class."""
    for _, level in levels(n):
        pass  # the last level yielded is order n
    return [t for _, t in level]
