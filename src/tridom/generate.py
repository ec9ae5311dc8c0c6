"""Isomorph-free generation of plane triangulations by vertex insertion.

Every plane triangulation on n+1 >= 5 vertices arises from one on n vertices
by inserting a vertex of degree 3 (inside a face), degree 4 (across an edge)
or degree 5 (over a fan of three consecutive faces at an apex of degree at
least 5).  Enumeration is level-synchronous and follows McKay's canonical
construction path (J. Algorithms 1998; the same moves as plantri, Brinkmann
& McKay 2007): a child is kept only if its new vertex is, up to automorphism,
the child's canonical reduction, and the kept children are deduplicated by
canonical code, so the next level holds each isomorphism class exactly once.

Every vertex u of minimum degree (at most 5) can be deleted by inverting a
move, so that the rest is a triangulation of order n: a degree-3 vertex
leaves a face; a degree-4 vertex is replaced by a diagonal of its link; a
degree-5 vertex by the two chords of its link from some apex
(``collapse_deg5``).  The far side of the link cycle is a disk, where chords
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
first, so a child some other vertex outranks is dropped without being coded;
only children where v ties with other vertices are decided by the labelling,
from the same coding that gives their code (``_accepted_code``).

No class is lost.  Take a class of order n+1 and delete its canonical
reduction u: the rest is isomorphic to a class P of the previous level, and
the isomorphism carries the inverted move to a site of P.  Expanding that
site gives a child isomorphic to the class whose new vertex is the image of
u; it has the minimum degree, so ``successors`` yields it, and it is in the
orbit of the canonical reduction, so it is kept.  The kept codes still go
through a set: two sites of one parent exchanged by an automorphism of the
parent give the same class, and so does a vertex of degree 4 or 5 with more
than one way to be deleted (two diagonals, or several free apices).

``successors`` builds only the children whose new vertex has the child's
minimum degree, read off the parent's degrees before the child is built: a
move changes only the degrees of the vertices around its site.

Moves that would break simplicity are skipped silently during enumeration
but raise when one of the expansion functions is called directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .planar import (Face, Triangulation, _min_code, canonical_code, faces, is_face,
                     triangulation_from_code)

MIN_ORDER = 4
MAX_ORDER = 14

#: K4 with a fixed clockwise rotation system (outer face 0,1,2; center 3).
K4 = Triangulation(4, ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2)))


def _insert_after(seq: Tuple[int, ...], anchor: int, items: Tuple[int, ...]) -> Tuple[int, ...]:
    i = seq.index(anchor) + 1
    return seq[:i] + items + seq[i:]


def _replace(seq: Tuple[int, ...], old: int, new: int) -> Tuple[int, ...]:
    i = seq.index(old)
    return seq[:i] + (new,) + seq[i + 1:]


def expand_deg3(t: Triangulation, f: Face) -> Triangulation:
    """Insert a new vertex of degree 3 inside face f = (a, b, c)."""
    if not is_face(t, f):
        raise ValueError(f"{f} is not a face")
    return _insert_deg3(t, f)


def _insert_deg3(t: Triangulation, f: Face) -> Triangulation:
    """expand_deg3 for a face known to be one, say from ``faces(t)``."""
    a, b, c = f
    v = t.n
    rot = list(t.rot)
    rot[a] = _insert_after(rot[a], c, (v,))   # between c and b
    rot[b] = _insert_after(rot[b], a, (v,))   # between a and c
    rot[c] = _insert_after(rot[c], b, (v,))   # between b and a
    rot.append((a, c, b))
    return Triangulation(t.n + 1, rot)


def opposite_vertices(t: Triangulation, e: Tuple[int, int]) -> Tuple[int, int]:
    """Third vertices (c, d) of the two faces meeting at edge e = (a, b)."""
    a, b = e
    if b not in t.rot[a]:
        raise ValueError(f"{e} is not an edge")
    return t.succ(b, a), t.succ(a, b)


def expand_deg4(t: Triangulation, e: Tuple[int, int]) -> Triangulation:
    """Replace edge e = (a, b) by a new degree-4 vertex joined to a, c, b, d.

    c and d are the third vertices of the two faces at e; they must differ,
    otherwise the insertion would create a doubled gadget.
    """
    a, b = e
    c, d = opposite_vertices(t, e)
    if c == d:
        raise ValueError(f"edge {e} has coinciding opposite vertices")
    v = t.n
    rot = list(t.rot)
    rot[a] = _replace(rot[a], b, v)
    rot[b] = _replace(rot[b], a, v)
    rot[c] = _insert_after(rot[c], b, (v,))   # between b and a
    rot[d] = _insert_after(rot[d], a, (v,))   # between a and b
    rot.append((a, c, b, d))
    return Triangulation(t.n + 1, rot)


def expand_deg5(t: Triangulation, apex: int, x1: int) -> Triangulation:
    """Insert a degree-5 vertex over the fan of three consecutive faces at apex.

    The fan is determined by the apex a and the first fan neighbor x1: with
    x2, x3, x4 following x1 in the rotation at a, the faces (a,x1,x2),
    (a,x2,x3), (a,x3,x4) are replaced by the wheel of the new vertex over the
    pentagon a, x1, x2, x3, x4 (edges a-x2 and a-x3 are removed).  Requires
    degree(a) >= 5.
    """
    if not 0 <= apex < t.n:
        raise ValueError(f"vertex {apex} out of range")
    ra = t.rot[apex]
    d = len(ra)
    if d < 5:
        raise ValueError(f"apex degree {d} below 5")
    if x1 not in ra:
        raise ValueError(f"{x1} is not a neighbor of apex {apex}")
    i = ra.index(x1)
    x2, x3, x4 = ra[(i + 1) % d], ra[(i + 2) % d], ra[(i + 3) % d]
    if len({apex, x1, x2, x3, x4}) != 5:
        raise ValueError("fan vertices are not pairwise distinct")
    v = t.n
    rot = list(t.rot)
    ra2 = tuple(u for u in ra if u not in (x2, x3))
    rot[apex] = _insert_after(ra2, x1, (v,))          # between x1 and x4
    rot[x1] = _insert_after(rot[x1], x2, (v,))        # between x2 and apex
    rot[x2] = _replace(rot[x2], apex, v)
    rot[x3] = _replace(rot[x3], apex, v)
    rot[x4] = _insert_after(rot[x4], apex, (v,))      # between apex and x3
    rot.append((apex, x1, x2, x3, x4))
    return Triangulation(t.n + 1, rot)


def collapse_deg5(t: Triangulation, v: int, apex: int) -> Triangulation:
    """Inverse of expand_deg5: delete degree-5 vertex v, re-fan from apex.

    apex must be a neighbor of v; the two pentagon chords from apex are added
    back.  Raises if a chord already exists (the collapse would double it).
    """
    rv = t.rot[v]
    if len(rv) != 5:
        raise ValueError(f"vertex {v} has degree {len(rv)}, need 5")
    if apex not in rv:
        raise ValueError(f"{apex} is not a neighbor of {v}")
    if v != t.n - 1:
        raise ValueError("only the last-added vertex can be collapsed")
    i = rv.index(apex)
    x1, x2, x3, x4 = rv[(i + 1) % 5], rv[(i + 2) % 5], rv[(i + 3) % 5], rv[(i + 4) % 5]
    if x2 in t.rot[apex] or x3 in t.rot[apex]:
        raise ValueError("re-fanning would create a doubled edge")
    rot = list(t.rot[:-1])
    rot[apex] = _insert_after(_replace(rot[apex], v, x2), x2, (x3,))
    rot[x1] = tuple(u for u in rot[x1] if u != v)
    rot[x2] = _replace(rot[x2], v, apex)
    rot[x3] = _replace(rot[x3], v, apex)
    rot[x4] = tuple(u for u in rot[x4] if u != v)
    return Triangulation(t.n - 1, rot)


def successors(t: Triangulation) -> Iterator[Triangulation]:
    """Children of t whose new vertex has the child's minimum degree.

    A degree-3 child always passes.  A degree-4 child across edge (a, b)
    raises only its opposite vertices c, d, so it passes iff every degree-3
    vertex of t is c or d.  A degree-5 child at apex a over x1..x4 lowers a
    by one and raises x1 and x4 by one, so it passes iff deg(a) >= 6 and
    every vertex of degree <= 4 is x1 or x4 and has degree 4.
    """
    deg = [len(r) for r in t.rot]
    for f in faces(t):
        yield _insert_deg3(t, f)
    deg3 = {v for v in range(t.n) if deg[v] == 3}
    if len(deg3) <= 2:
        for e in t.edges():
            c, d = opposite_vertices(t, e)
            if c != d and deg3 <= {c, d}:
                yield expand_deg4(t, e)
    low = {v for v in range(t.n) if deg[v] <= 4}
    if len(low) <= 2 and not deg3:
        for a in range(t.n):
            ra = t.rot[a]
            da = deg[a]
            if da >= 6:
                for i, x1 in enumerate(ra):
                    if low <= {x1, ra[(i + 3) % da]}:
                        yield expand_deg5(t, a, x1)


def levels(n_max: int) -> Iterator[Tuple[int, Dict[bytes, Triangulation]]]:
    """Yield (order, level) level by level from K4 up to n_max.

    A level maps the canonical code of each class to its canonical form
    (``triangulation_from_code`` of the code), in code order, so the output
    is independent of expansion order.  Only the children that the canonical
    construction path does not reject by the invariant are coded, each once.
    The next level is expanded from the yielded one, so callers must not
    change it.
    """
    if not MIN_ORDER <= n_max <= MAX_ORDER:
        raise ValueError(f"order must be in {MIN_ORDER}..{MAX_ORDER}, got {n_max}")
    level = level_from_codes([canonical_code(K4)])
    yield 4, level
    for n in range(5, n_max + 1):
        level = level_from_codes({code for parent in level.values() for child in successors(parent)
                                  if (code := _accepted_code(child)) is not None})
        yield n, level


def _screen(child: Triangulation) -> Optional[List[int]]:
    """Rank the new vertex v = n - 1 against the other minimum-degree vertices
    by their sorted neighbour degrees.

    None if one of them ranks above v, so that v is not the canonical
    reduction; otherwise those that tie with v (an empty list when v alone
    ranks highest).  Expects v to have the child's minimum degree.
    """
    rot = child.rot
    v = child.n - 1
    deg = [len(r) for r in rot]
    d = deg[v]
    key = sorted([deg[x] for x in rot[v]])
    ties = []
    for u in range(v):
        if deg[u] == d:
            k = sorted([deg[x] for x in rot[u]])
            if k > key:
                return None
            if k == key:
                ties.append(u)
    return ties


def _accepted_code(child: Triangulation) -> Optional[bytes]:
    """The child's canonical code if its new vertex lies in the orbit of the
    canonical reduction, else None.

    Among tied vertices the canonical reduction is the one that the canonical
    labelling numbers first.  Every labelling that reaches the canonical code
    gives the tied vertices the same set of labels, so v lies in the orbit of
    the canonical reduction iff one of them gives v the least of those labels.
    """
    ties = _screen(child)
    if ties is None:
        return None
    if not ties:
        return canonical_code(child)
    code, labels = _min_code(child.rot)
    v = child.n - 1
    least = min(labels[0][u] for u in ties + [v])
    if any(label[v] == least for label in labels):
        return bytes(code)
    return None


def level_from_codes(codes: Iterable[bytes]) -> Dict[bytes, Triangulation]:
    """The level holding the classes with these canonical codes."""
    return {c: triangulation_from_code(c) for c in sorted(codes)}


def triangulations(n: int) -> List[Triangulation]:
    """All plane triangulations of order n, one canonical form per class."""
    for order, level in levels(n):
        if order == n:
            return list(level.values())
    raise AssertionError("unreachable")
