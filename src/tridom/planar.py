"""Rotation-system embeddings of plane triangulations.

A plane triangulation is stored as its rotation system: for every vertex the
cyclic clockwise order of its neighbors.  Faces are recovered by the tracing
rule

    from directed edge (u, v) the next directed edge is (v, w),
    where w immediately follows u in the clockwise rotation at v.

One fixed convention everywhere keeps planar_code interoperation and all
derived codes deterministic.

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

``_min_code`` returns the code together with the label array of every
candidate that reaches it.  Those candidates differ exactly by the
automorphisms of the embedding, so the arrays give the automorphism orbits;
generation uses them to decide a child whose new vertex ties with others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
        self.rot = tuple(tuple(r) for r in rot)

    def degree(self, v: int) -> int:
        return len(self.rot[v])

    def edge_count(self) -> int:
        return sum(len(r) for r in self.rot) // 2

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.rot[u] if u < v]

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


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    problem: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def underlying_graph(t: Triangulation) -> Graph:
    adj = [0] * t.n
    for v, r in enumerate(t.rot):
        m = 0
        for u in r:
            m |= 1 << u
        adj[v] = m
    return Graph(t.n, adj)


def faces(t: Triangulation) -> List[Face]:
    """All faces as directed triples, least vertex first, in sorted order.

    Raises ValueError if tracing meets a non-triangular or degenerate face,
    which signals a corrupted embedding.
    """
    nxt: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for v, r in enumerate(t.rot):
        d = len(r)
        for i, u in enumerate(r):
            nxt[(u, v)] = (v, r[(i + 1) % d])
    out: List[Face] = []
    seen = set()
    for start in nxt:
        if start in seen:
            continue
        a, b = start
        e2 = nxt[start]
        e3 = nxt[e2]
        if nxt[e3] != start:
            raise ValueError(f"non-triangular face at directed edge {start}")
        c = e2[1]
        if a == b or b == c or a == c:
            raise ValueError(f"degenerate face {(a, b, c)}")
        seen.update((start, e2, e3))
        if b < a and b < c:
            out.append((b, c, a))
        elif c < a and c < b:
            out.append((c, a, b))
        else:
            out.append((a, b, c))
    out.sort()
    return out


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
    """Structural check: simple, connected, E = 3n-6, all faces triangles."""
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
    for v, r in enumerate(t.rot):
        for u in r:
            if v not in t.rot[u]:
                return ValidityReport(False, f"asymmetric adjacency ({v},{u})")
    g = underlying_graph(t)
    if not is_connected(g):
        return ValidityReport(False, "graph is disconnected")
    e = t.edge_count()
    if e != 3 * n - 6:
        return ValidityReport(False, f"edge count {e} differs from 3n-6 = {3 * n - 6}")
    try:
        fl = faces(t)
    except ValueError as exc:
        return ValidityReport(False, str(exc))
    if len(fl) != 2 * n - 4:
        return ValidityReport(False, f"face count {len(fl)} differs from 2n-4 = {2 * n - 4}")
    return ValidityReport(True)


def relabel(t: Triangulation, perm: Sequence[int]) -> Triangulation:
    """Rename vertex v to perm[v]."""
    rot = [()] * t.n
    for v, r in enumerate(t.rot):
        rot[perm[v]] = tuple(perm[u] for u in r)
    return Triangulation(t.n, rot)


def mirror(t: Triangulation) -> Triangulation:
    """The reflected embedding: every rotation reversed."""
    return Triangulation(t.n, tuple(r[::-1] for r in t.rot))


def _emit_code(view, dbl, u0, v0, best):
    """BFS rotation code for one rooted, oriented candidate.

    Returns (code, label) if the code is strictly smaller than ``best`` (or
    best is None), (None, label) if it equals ``best``, else None; code is a
    list of ints and label[x] the 1-based label the candidate gives vertex x.
    Comparison is interleaved with emission so dominated candidates abort
    early.
    """
    n = len(view)
    label = [0] * n
    label[u0] = 1
    entry = [0] * n
    entry[u0] = v0
    order = [u0]
    out: List[int] = []
    ap = out.append
    improved = best is None
    i = 0
    nxt = 2
    qi = 0
    while qi < len(order):
        x = order[qi]
        qi += 1
        rx = view[x]
        s = rx.index(entry[x])
        for nb in dbl[x][s:s + len(rx)]:
            lb = label[nb]
            if lb == 0:
                label[nb] = lb = nxt
                nxt += 1
                order.append(nb)
                entry[nb] = x
            if not improved:
                b = best[i]
                if lb > b:
                    return None
                if lb < b:
                    improved = True
            ap(lb)
            i += 1
        if not improved:
            if best[i] != 0:
                improved = True  # 0 < any label: candidate is smaller here
            # best[i] == 0 keeps the tie
        ap(0)
        i += 1
    if len(order) != n:
        raise ValueError("embedding is disconnected")
    return (out if improved else None), label


def _min_code(rot) -> Tuple[List[int], List[List[int]]]:
    """The least candidate code, and the label array of every candidate that
    reaches it.

    Two candidates with the same code differ by an automorphism of the
    embedding (reflections included), so the label arrays run over the
    automorphism group: vertices x and y lie in one orbit iff some array
    gives y the label the first one gives x.
    """
    n = len(rot)
    degs = [len(r) for r in rot]
    if min(degs) == 0:
        raise ValueError("isolated vertex in embedding")
    dmin = min(degs)
    roots = [v for v in range(n) if degs[v] == dmin]
    best: Optional[List[int]] = None
    labels: List[List[int]] = []
    for view in (rot, tuple(r[::-1] for r in rot)):
        dbl = [r + r for r in view]
        for u0 in roots:
            for v0 in view[u0]:
                cand = _emit_code(view, dbl, u0, v0, best)
                if cand is not None:
                    code, label = cand
                    if code is None:
                        labels.append(label)
                    else:
                        best, labels = code, [label]
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


def triangulation_from_code(code: bytes) -> Triangulation:
    """Rebuild the canonical representative encoded by a canonical code."""
    rot: List[Tuple[int, ...]] = []
    block: List[int] = []
    for sym in code:
        if sym == 0:
            if not block:
                raise ValueError("empty rotation block in code")
            rot.append(tuple(x - 1 for x in block))
            block = []
        else:
            block.append(sym)
    if block:
        raise ValueError("unterminated rotation block in code")
    return Triangulation(len(rot), rot)


def canonical_form(t: Triangulation) -> Triangulation:
    """Relabel t into the representative whose encoding is its canonical code.

    The representative depends only on the isomorphism class: its rotation
    lists are exactly the blocks of the canonical code.
    """
    return triangulation_from_code(canonical_code(t))


def from_face_list(n: int, triangles: Iterable[Tuple[int, int, int]]) -> Triangulation:
    """Build a rotation system from the face list of a triangulated sphere.

    Faces are given as vertex triples; a consistent global orientation is
    chosen by propagation from the first face (kept in its given order, so
    callers control which directed faces exist).  Raises ValueError if the
    triangles do not close up into a sphere triangulation.
    """
    tris = [tuple(f) for f in triangles]
    by_edge: Dict[Tuple[int, int], List[int]] = {}
    for idx, (a, b, c) in enumerate(tris):
        if len({a, b, c}) != 3:
            raise ValueError(f"degenerate triangle {tris[idx]}")
        for u, v in ((a, b), (b, c), (c, a)):
            by_edge.setdefault((min(u, v), max(u, v)), []).append(idx)
    for e, inc in by_edge.items():
        if len(inc) != 2 or inc[0] == inc[1]:
            raise ValueError(f"edge {e} must lie in exactly 2 distinct triangles")

    def directed_edges(f: Tuple[int, int, int]) -> Tuple[Tuple[int, int], ...]:
        a, b, c = f
        return ((a, b), (b, c), (c, a))

    oriented: List[Optional[Tuple[int, int, int]]] = [None] * len(tris)
    oriented[0] = tris[0]
    stack = [0]
    while stack:
        idx = stack.pop()
        for u, v in directed_edges(oriented[idx]):  # type: ignore[arg-type]
            key = (min(u, v), max(u, v))
            j = by_edge[key][1] if by_edge[key][0] == idx else by_edge[key][0]
            if oriented[j] is None:
                x, y, z = tris[j]
                # orient j so it carries the opposite directed edge (v, u)
                cand = (x, y, z) if (v, u) in directed_edges((x, y, z)) else (x, z, y)
                if (v, u) not in directed_edges(cand):
                    raise ValueError("faces cannot be oriented consistently")
                oriented[j] = cand
                stack.append(j)
            elif (v, u) not in directed_edges(oriented[j]):
                raise ValueError("faces cannot be oriented consistently")
    if any(f is None for f in oriented):
        raise ValueError("face complex is disconnected")
    succ: List[Dict[int, int]] = [dict() for _ in range(n)]
    for f in oriented:
        a, b, c = f  # type: ignore[misc]
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            # tracing (u, v) -> (v, w): w follows u in the rotation at v
            if u in succ[v]:
                raise ValueError(f"directed edge ({u},{v}) used twice")
            succ[v][u] = w
    rot: List[Tuple[int, ...]] = []
    for v in range(n):
        if not succ[v]:
            raise ValueError(f"vertex {v} lies in no face")
        start = min(succ[v])
        cyc = [start]
        while True:
            nxt = succ[v].get(cyc[-1])
            if nxt is None:
                raise ValueError(f"rotation at {v} is not closed")
            if nxt == start:
                break
            cyc.append(nxt)
            if len(cyc) > len(succ[v]):
                raise ValueError(f"rotation at {v} is not a single cycle")
        if len(cyc) != len(succ[v]):
            raise ValueError(f"rotation at {v} splits into several cycles")
        rot.append(tuple(cyc))
    return Triangulation(n, rot)


# ---------------------------------------------------------------------------
# planar_code: binary interchange format.  One byte order n (n < 128), then
# per vertex its neighbors in rotation order, 1-based, each list terminated
# by a zero byte.

def planar_code_write(ts: Iterable[Triangulation], header: bool = True) -> bytes:
    out = bytearray()
    if header:
        out += PLANAR_CODE_HEADER
    for t in ts:
        if t.n >= 128:
            raise ValueError(f"planar_code supports orders below 128, got {t.n}")
        if t.n < 1:
            raise ValueError("planar_code needs at least one vertex")
        out.append(t.n)
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
