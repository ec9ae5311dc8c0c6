"""Rotation-system embeddings of plane triangulations.

A plane triangulation is stored as its rotation system: for every vertex the
cyclic clockwise order of its neighbors.  Its faces are the orbits of the
tracing rule

    from directed edge (u, v) the next directed edge is (v, w),
    where w immediately follows u in the clockwise rotation at v.

One fixed convention everywhere keeps planar_code interoperation and all
derived codes deterministic.  No code traces a face, though.  The face
through (u, v) is a triangle iff the corner rule holds there: with w after
u at v, u follows v at w and v follows w at u.  ``verify_triangulation``
checks that rule at every directed edge.  In a triangulation, then, two
consecutive neighbours r[i - 1], r[i] in the rotation row r of a bound the
face (a, r[i], r[i - 1]), which is how ``faces`` reads them.  Once every
corner passes, F = 2E/3, so E = 3n - 6 gives F = 2n - 4; and no face is
degenerate, since a face (u, v, u) puts v at degree 1 and fails the rule.

Canonical codes
---------------
``canonical_code`` returns a byte string that is equal for two embedded
triangulations exactly when they are isomorphic as triangulations of the
sphere, reflections included.  The code is the lexicographic minimum, over
all choices of root directed edge and both global orientations, of a
breadth-first relabeled rotation encoding: vertices are numbered 1.. in
discovery order, and each vertex in that order contributes the labels of its
rotation, started at the neighbor through which it was discovered, followed
by a 0 terminator.  Every candidate rooted at a vertex of non-minimum degree
is dominated by any minimum-degree root (its first block terminates
earlier), so only minimum-degree roots are tried.

Their first block is [2, 3, ..., d+1, 0] for every root edge (u0, v0), d the
minimum degree, and the second block, the rotation of v0 from u0, is fixed
by local structure too.  Call the edge plain when u0 and v0 have only the
two common neighbours that share a face with the edge.  In a triangulation
v0's rotation from u0 runs u0, the last vertex of u0's rotation (label
d+1), then its other neighbours, and ends at the second (label 3); for a
plain edge those others are new, so the block is
[1, d+1, d+2, ..., d+deg(v0)-2, 3, 0].  Of two plain edges the one with the
smaller deg(v0) puts 3 where the other puts a new label, so only plain edges
of the least deg(v0) can start the least code, and every other plain edge
loses strictly: dropping it drops no candidate that reaches the code.  An
edge with a third common neighbour, a chord of u0's link, may put that
neighbour's label earlier, so it is always tried.  A link of three vertices
has no chords.  This filter reads the embedding as a triangulation, which
is why canonical coding expects one.

``_min_code`` returns the code together with the label array of every
candidate that reaches it.  Those candidates differ exactly by the
automorphisms of the embedding, so the arrays give the automorphism orbits;
generation uses them to decide a child whose new vertex ties with others.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .graphs import Graph, is_connected

Face = Tuple[int, int, int]

PLANAR_CODE_HEADER = b">>planar_code<<"


class Triangulation:
    """Rotation system on vertices 0..n-1; immutable value object.

    The constructor does not validate (generation creates these in bulk from
    already-valid parents); run :func:`verify_triangulation` on untrusted
    input.
    """

    __slots__ = ("n", "rot")

    def __init__(self, n: int, rot: Sequence[Sequence[int]]):
        self.n = n
        self.rot = tuple(map(tuple, rot))

    def edge_count(self) -> int:
        return sum(len(r) for r in self.rot) // 2

    def succ(self, v: int, u: int) -> int:
        """Neighbor immediately following u in the clockwise rotation at v."""
        r = self.rot[v]
        return r[(r.index(u) + 1) % len(r)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Triangulation) and self.rot == other.rot

    def __hash__(self) -> int:
        return hash(self.rot)

    def __repr__(self) -> str:
        return f"Triangulation(n={self.n}, m={self.edge_count()})"


class ValidityReport(NamedTuple):
    ok: bool
    problem: Optional[str] = None


def _adjacency(rot) -> List[int]:
    """The neighbourhood bitmask of every vertex."""
    adj = [0] * len(rot)
    for v, r in enumerate(rot):
        m = 0
        for u in r:
            m |= 1 << u
        adj[v] = m
    return adj


def underlying_graph(t: Triangulation) -> Graph:
    return Graph(t.n, _adjacency(t.rot))


def faces(t: Triangulation) -> List[Face]:
    """All faces of the triangulation t as directed triples, least vertex
    first, in sorted order.

    Read off the rotation rows: at a, consecutive neighbours r[i - 1], r[i]
    bound the face (a, r[i], r[i - 1]) wherever the corner rule of
    ``verify_triangulation`` holds.  This reads a triangulation and checks
    nothing: it raises nothing, and on a corrupted rotation system it
    returns triples that need not be faces.
    """
    return sorted((a, r[i], r[i - 1]) for a, r in enumerate(t.rot)
                  for i in range(len(r)) if a < r[i] and a < r[i - 1])


def is_face(t: Triangulation, f: Face) -> bool:
    """True iff f = (a, b, c) is a directed face under the tracing rule."""
    a, b, c = f
    if len({a, b, c}) != 3:
        return False
    try:
        return t.succ(b, a) == c and t.succ(c, b) == a and t.succ(a, c) == b
    except ValueError:
        return False


def verify_triangulation(t: Triangulation) -> ValidityReport:
    """Structural check: simple, connected, E = 3n-6, every face a triangle.

    Faces are checked at their corners, not traced: for each directed edge
    (u, v), v ascending and then u in the rotation order at v, with w after
    u at v, u must follow v at w and v follow w at u.  The first edge that
    fails is the one a tracer over the same edges reports.  No face count
    or degenerate-face test is needed: with every face a triangle,
    F = 2E/3, so E = 3n-6 gives F = 2n-4; and a face (u, v, u) puts v at
    degree 1, which the corner rule refuses first.
    """
    n = t.n
    if n < 4:
        return ValidityReport(False, f"order {n} below 4")
    if len(t.rot) != n:
        return ValidityReport(False, "rotation table size differs from order")
    for v, r in enumerate(t.rot):
        if len(r) != len(set(r)):
            return ValidityReport(False, f"repeated neighbor in rotation of {v}")
        for u in r:
            if not 0 <= u < n:
                return ValidityReport(False, f"vertex {u} out of range in rotation of {v}")
            if u == v:
                return ValidityReport(False, f"self-loop at {v}")
    adj = _adjacency(t.rot)
    for v, r in enumerate(t.rot):
        for u in r:
            if not adj[u] >> v & 1:
                return ValidityReport(False, f"asymmetric adjacency ({v},{u})")
    if not is_connected(Graph(n, adj)):
        return ValidityReport(False, "graph is disconnected")
    e = t.edge_count()
    if e != 3 * n - 6:
        return ValidityReport(False, f"edge count {e} differs from 3n-6 = {3 * n - 6}")
    nxt = [dict(zip(r, r[1:] + r[:1])) for r in t.rot]  # nxt[v][u]: what follows u at v
    for v, follow in enumerate(nxt):
        for u, w in follow.items():
            if nxt[w][v] != u or nxt[u][w] != v:
                return ValidityReport(False, f"non-triangular face at directed edge {(u, v)}")
    return ValidityReport(True)


def _root_edges(rot, degs: List[int], d: int) -> List[Tuple[int, List[int]]]:
    """The root edges (u0, v0) that can start the least code: every u0 of
    degree d, with the ends v0 that are chords of its link or plain of the
    least degree among plain edges (see the module docstring)."""
    roots = [v for v, k in enumerate(degs) if k == d]
    if d == 3:  # a 3-cycle link has no chords
        kmin = min([degs[v] for u in roots for v in rot[u]])
        return [(u, [v for v in rot[u] if degs[v] == kmin]) for u in roots]
    adj = _adjacency(rot)
    chord = {(u, v) for u in roots for v in rot[u] if (adj[u] & adj[v]).bit_count() > 2}
    kmin = min((degs[v] for u in roots for v in rot[u] if (u, v) not in chord), default=0)
    return [(u, [v for v in rot[u] if degs[v] == kmin or (u, v) in chord]) for u in roots]


def _min_code(rot) -> Tuple[List[int], List[List[int]]]:
    """The least candidate code, and the label array of every candidate that
    reaches it.

    Two candidates with the same code differ by an automorphism of the
    embedding (reflections included), so the label arrays run over the
    automorphism group: vertices x and y lie in one orbit iff some array
    gives y the label the first one gives x.  The arrays come in the order
    of (orientation, u0, v0 in the rotation of u0), clockwise first.

    Each candidate is a breadth-first pass that compares every rotation
    block with the same stretch of ``best`` before keeping it: a larger
    block aborts the candidate, and only a smaller one starts a new code
    from ``best``'s prefix.  Block 1 is the same for every candidate and is
    not compared.
    """
    n = len(rot)
    degs = [len(r) for r in rot]
    d = min(degs)
    if d == 0:
        raise ValueError("isolated vertex in embedding")
    edges = _root_edges(rot, degs, d)
    block1 = [*range(2, d + 2), 0]
    best: Optional[List[int]] = None
    labels: List[List[int]] = []
    for dbl in ([r + r for r in rot], [r[::-1] * 2 for r in rot]):
        for u0, ends in edges:
            du = dbl[u0]
            for s, v0 in enumerate(du[:d]):
                if v0 not in ends:
                    continue
                label = [0] * n
                label[u0] = 1
                entry = [0] * n
                order = list(du[s:s + d])  # labels 2.., then grown breadth first
                for lb, x in enumerate(order, 2):
                    label[x] = lb
                    entry[x] = u0
                nxt = d + 2
                out = block1[:] if best is None else None
                i = d + 1
                for x in order:
                    dx = dbl[x]
                    k = degs[x]
                    p = dx.index(entry[x])
                    block = []
                    for y in dx[p:p + k]:
                        lb = label[y]
                        if not lb:
                            label[y] = lb = nxt
                            nxt += 1
                            order.append(y)
                            entry[y] = x
                        block.append(lb)
                    block.append(0)
                    if out is not None:
                        out += block
                        continue
                    j = i + k + 1
                    ref = best[i:j]
                    if block != ref:
                        if block > ref:
                            break
                        out = best[:i]
                        out += block
                    i = j
                else:
                    if len(order) + 1 != n:
                        raise ValueError("embedding is disconnected")
                    if out is None:
                        labels.append(label)
                    else:
                        best, labels = out, [label]
    assert best is not None
    return best, labels


def canonical_code(t: Triangulation) -> bytes:
    """Isomorphism-invariant code of the embedded triangulation.

    Equal codes mean isomorphic as plane triangulations of the sphere,
    orientation-reversing maps included.  Expects a structurally valid
    embedding (run verify_triangulation on untrusted input); disconnected
    rotation systems are rejected.  A code spends one byte per vertex
    label, so orders of 256 or more are rejected too.
    """
    if t.n >= 256:
        raise ValueError(f"canonical codes support orders below 256, got {t.n}")
    return bytes(_min_code(t.rot)[0])


#: Byte x to x - 1, so labels become vertices and the 0 terminator 0xff.
_MINUS_ONE = bytes.maketrans(bytes(range(256)), bytes([255]) + bytes(range(255)))


def triangulation_from_code(code: bytes) -> Triangulation:
    """Rebuild the canonical representative encoded by a canonical code."""
    *blocks, tail = code.translate(_MINUS_ONE).split(b"\xff")
    if not all(blocks):
        raise ValueError("empty rotation block in code")
    if tail:
        raise ValueError("unterminated rotation block in code")
    return Triangulation(len(blocks), blocks)


def canonical_form(t: Triangulation) -> Triangulation:
    """Relabel t into the representative whose encoding is its canonical code.

    The representative depends only on the isomorphism class: its rotation
    lists are exactly the blocks of the canonical code.
    """
    return triangulation_from_code(canonical_code(t))


# ---------------------------------------------------------------------------
# planar_code: binary interchange format.  One byte order n (n < 128), then
# per vertex its neighbors in rotation order, 1-based, each list terminated
# by a zero byte.

def planar_code_record(t: Triangulation) -> bytes:
    """t's planar_code record, which follows the stream's one header."""
    if t.n >= 128:
        raise ValueError(f"planar_code supports orders below 128, got {t.n}")
    if t.n < 1:
        raise ValueError("planar_code needs at least one vertex")
    out = bytearray([t.n])
    for r in t.rot:
        out += bytes(u + 1 for u in r)
        out.append(0)
    return bytes(out)


def planar_code_read(data: bytes) -> List[Triangulation]:
    return list(planar_code_iter(data))


def planar_code_iter(data: bytes) -> Iterator[Triangulation]:
    """Records one at a time; a malformed record raises after the good ones
    before it have been yielded (the stream cannot be resynchronised)."""
    buf = bytes(data)
    if buf.startswith(PLANAR_CODE_HEADER):
        buf = buf[len(PLANAR_CODE_HEADER):]
    pos = 0
    end = len(buf)
    while pos < end:
        n = buf[pos]
        pos += 1
        if n >= 128:
            raise ValueError(f"planar_code order {n} out of range (must be < 128)")
        if n == 0:
            raise ValueError("planar_code order 0 is invalid")
        rot: List[Tuple[int, ...]] = []
        for v in range(n):
            nbrs: List[int] = []
            while True:
                if pos >= end:
                    raise ValueError("truncated planar_code stream")
                b = buf[pos]
                pos += 1
                if b == 0:
                    break
                if b > n:
                    raise ValueError(f"neighbor index {b} out of range for order {n}")
                nbrs.append(b - 1)
            rot.append(tuple(nbrs))
        yield Triangulation(n, rot)
