"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's production algorithms:
triangulations are re-enumerated by gluing directed triangles into closed
surfaces, domination numbers are recomputed by raw subset enumeration, and
connected sets by powerset filtering.  Agreement between these oracles and
the fast paths is what the tests assert.  ``reference_minimum_cds``,
``reference_gamma``, ``reference_min_code``,
``reference_triangulation_from_code``, ``reference_successors``,
``reference_screen``, ``reference_faces`` and
``reference_verify_triangulation`` are different: they keep earlier forms of
production code (the connected-domination search with only its coverage and
distance prunes, the two-phase domination search, the coding kernel that
tries every root edge, the symbol-by-symbol decoder, generation that builds
every minimum-degree child before ranking its new vertex, and the face
tracer with the validator built on it), to pin the exact certificates,
codes, label arrays, screened children, faces and validity reports that the
production code emits as it changes.  So do the move builders
``reference_insert_deg3``, ``reference_expand_deg4``,
``reference_expand_deg5`` and ``reference_octahedron_sum``: each edits the
rotation rows by hand, sharing no code with ``generate._insert_vertex``.
``collapse_deg5``, the inverse of a degree-5 insertion, edits them by hand
too; it is the reducibility tests' reference.

The constructors at the top build the tests' inputs: checked graphs and
small graph families, relabelled and mirrored embeddings, and
triangulations from face lists (``from_face_list``, which builds the
octahedron, the polygon cones, glued pairs and capped antiprisms).
``degree`` and ``edges`` read a triangulation's rows, ``planar_code_write``
writes triangulations as one planar_code stream, and ``rows_from_csv`` and
``same_counts`` read and compare census rows.  The package runs none of
them.
"""

from __future__ import annotations

import csv
import io
import random
from functools import lru_cache
from itertools import combinations
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from tridom import generate, planar
from tridom.families import icosahedron
from tridom.census import REFERENCE_CENSUS
from tridom.graphs import (
    PRUNE,
    STOP,
    Graph,
    bits,
    enumerate_connected_sets,
    induces_connected,
    is_connected,
    is_dominating,
    vset,
)
from tridom.planar import (Face, Triangulation, ValidityReport, canonical_code, faces, is_face,
                           underlying_graph, verify_triangulation)
from tridom.generate import K4
from tridom.census import CensusRow


# ---------------------------------------------------------------------------
# Constructors the tests build inputs with: checked graphs, small graph
# families, relabelled and mirrored embeddings, triangulations from face lists.

def graph_from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """The graph of order n with these edges; raises ValueError on a loop,
    an end out of range or an order below 1."""
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def wheel_graph(n: int) -> Graph:
    """Hub n-1 joined to a cycle on 0..n-2."""
    rim = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
    return graph_from_edges(n, rim + [(n - 1, i) for i in range(n - 1)])


def check_graph(g: Graph) -> Graph:
    """Validate simplicity invariants; returns g so calls chain."""
    if g.n < 1:
        raise ValueError(f"order {g.n} out of range")
    for v, m in enumerate(g.adj):
        if m >> v & 1:
            raise ValueError(f"loop at vertex {v}")
        if m & ~g.full:
            raise ValueError(f"adjacency of {v} mentions vertices >= {g.n}")
        for u in bits(m):
            if not g.adj[u] >> v & 1:
                raise ValueError(f"asymmetric edge ({v},{u})")
    return g


def degree(t: Triangulation, v: int) -> int:
    return len(t.rot[v])


def edges(t: Triangulation) -> List[Tuple[int, int]]:
    """Each edge (u, v) with u < v once, by u and then by v's place in u's rotation."""
    return [(u, v) for u in range(t.n) for v in t.rot[u] if u < v]


def relabel(t: Triangulation, perm: List[int]) -> Triangulation:
    """Rename vertex v to perm[v]."""
    rot = [()] * t.n
    for v, r in enumerate(t.rot):
        rot[perm[v]] = tuple(perm[u] for u in r)
    return Triangulation(t.n, rot)


def mirror(t: Triangulation) -> Triangulation:
    """The reflected embedding: every rotation reversed."""
    return Triangulation(t.n, tuple(r[::-1] for r in t.rot))


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


def octahedron() -> Triangulation:
    """The unique 4-regular plane triangulation on six vertices."""
    return from_face_list(6, [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ])


def icosahedron_faces() -> List[Face]:
    """The icosahedron's twenty faces, from which ``from_face_list`` built
    ``families.icosahedron`` before its rotation table was stored."""
    top = [(0, i, i % 5 + 1) for i in range(1, 6)]
    down = [(i, i % 5 + 1, i + 5) for i in range(1, 6)]
    up = [(i + 5, i % 5 + 6, i % 5 + 1) for i in range(1, 6)]
    bottom = [(11, i + 5, i % 5 + 6) for i in range(1, 6)]
    return top + down + up + bottom


def planar_code_write(ts: Iterable[Triangulation]) -> bytes:
    """A planar_code stream: the header, then each triangulation's record."""
    return planar.PLANAR_CODE_HEADER + b"".join(map(planar.planar_code_record, ts))


# ---------------------------------------------------------------------------
# Census rows: the CSV reader and a comparison that ignores zero cells and
# timings.

def rows_from_csv(text: str) -> List[CensusRow]:
    """The rows ``census.rows_to_csv`` wrote, with as many gamma_c columns,
    at least five, as its header has."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    columns = range(1, len(header or ()) - 2)
    if len(columns) < 5 or header != (["n", "total"] + [f"gamma_c_{v}" for v in columns]
                                      + ["wall_time_s"]):
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for line in reader:
        n, total, *cells, wall = line
        counts = {v: int(c) for v, c in zip(columns, cells) if int(c)}
        rows.append(CensusRow(int(n), int(total), counts, float(wall)))
    return rows


def same_counts(a: CensusRow, b: CensusRow) -> bool:
    return (a.n == b.n and a.total == b.total
            and {k: v for k, v in a.counts_by_gamma_c.items() if v}
            == {k: v for k, v in b.counts_by_gamma_c.items() if v})


# ---------------------------------------------------------------------------
# Brute-force oracles.

def brute_gamma(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if is_dominating(g, vset(combo)):
                return k
    raise AssertionError("no dominating set found")


def brute_gamma_c(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            s = vset(combo)
            if is_dominating(g, s) and induces_connected(g, s):
                return k
    raise AssertionError("no connected dominating set found")


def brute_minimum_dominating_sets(g: Graph, k: int) -> List[int]:
    return [vset(c) for c in combinations(range(g.n), k) if is_dominating(g, vset(c))]


def powerset_connected_sets(g: Graph, max_size: int) -> Set[int]:
    out = set()
    for k in range(1, max_size + 1):
        for combo in combinations(range(g.n), k):
            s = vset(combo)
            if induces_connected(g, s):
                out.add(s)
    return out


def reference_minimum_cds(g: Graph, collect_all: bool = False) -> List[int]:
    """The connected-domination subset search with only its coverage and
    distance prunes, deepening from size 1.

    Returns the first connected dominating set met at the least size that
    has one, or with collect_all every one of that size, sorted by vertex
    tuple.  Its tables (closed neighborhoods, distance balls from a BFS per
    vertex, maximum degree) are built here, not by the package.
    """
    n, full = g.n, g.full
    adjn = [g.adj[v] | 1 << v for v in range(n)]
    dmax = max(m.bit_count() for m in g.adj)
    dist = []
    for v in range(n):
        d = {v: 0}
        frontier = [v]
        while frontier:
            nxt = []
            for x in frontier:
                for y in bits(g.adj[x]):
                    if y not in d:
                        d[y] = d[x] + 1
                        nxt.append(y)
            frontier = nxt
        dist.append(d)
    balls = [[vset(u for u, du in dist[v].items() if du <= r) for v in range(n)]
             for r in range(n + 1)]

    for k in range(1, n + 1):
        found: List[int] = []

        def visitor(s: int) -> Optional[str]:
            size = s.bit_count()
            m = k - size
            cover = ball = 0
            for v in bits(s):
                cover |= adjn[v]
                ball |= balls[min(m + 1, n)][v]
            if cover == full:
                if not collect_all:
                    found.append(s)
                    return STOP
                if size == k:
                    found.append(s)
                return None
            if m == 0 or cover.bit_count() + m * (dmax + 1) < n or ball != full:
                return PRUNE
            return None

        enumerate_connected_sets(g, k, visitor)
        if found:
            return sorted(found, key=lambda m: tuple(bits(m)))
    raise AssertionError("no connected dominating set found")


def reference_gamma(g: Graph) -> Tuple[int, int]:
    """The two-phase domination search: (value, lexicographically least witness).

    First it deepens from the greedy 2-packing bound, branching on the
    undominated vertex with the fewest dominators, to find the value.  Then
    it searches the sets of that size in lexicographic order for the first
    one that dominates.  Its tables (closed neighborhoods, radius-2 balls,
    dominator counts) are built here, not by the package.
    """
    n, full = g.n, g.full
    adjn = [g.adj[v] | 1 << v for v in range(n)]
    ball2 = []
    for v in range(n):
        b = 0
        for x in bits(adjn[v]):
            b |= adjn[x]
        ball2.append(b)
    covcnt = [m.bit_count() for m in adjn]

    def packing(uncovered: int) -> int:
        cnt = 0
        while uncovered:
            cnt += 1
            uncovered &= ~ball2[(uncovered & -uncovered).bit_length() - 1]
        return cnt

    def feasible(covered: int, used: int, target: int) -> bool:
        if covered == full:
            return True
        uncovered = full & ~covered
        if used == target or used + packing(uncovered) > target:
            return False
        u = min(bits(uncovered), key=lambda x: covcnt[x])
        return any(feasible(covered | adjn[v], used + 1, target) for v in bits(adjn[u]))

    def lex_witness(start: int, covered: int, left: int) -> Optional[int]:
        if left == 0:
            return 0 if covered == full else None
        if packing(full & ~covered) > left:
            return None
        for v in range(start, n - left + 1):
            if adjn[v] & ~covered:
                rest = lex_witness(v + 1, covered | adjn[v], left - 1)
                if rest is not None:
                    return rest | 1 << v
        return None

    value = packing(full)
    while not feasible(0, 0, value):
        value += 1
    witness = lex_witness(0, 0, value)
    assert witness is not None
    return value, witness


def order_width(g: Graph, order: Iterable[int]) -> int:
    """Vertex separation of a vertex order, from the definition: the most
    vertices of a prefix that have a neighbour outside it."""
    width = done = 0
    for v in order:
        done |= 1 << v
        width = max(width, sum(1 for u in bits(done) if g.adj[u] & ~done))
    return width


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = graph_from_edges(n, edges)
        if n == 1 or induces_connected(g, g.full):
            return g


def _insert_after(seq: Tuple[int, ...], anchor: int, items: Tuple[int, ...]) -> Tuple[int, ...]:
    i = seq.index(anchor) + 1
    return seq[:i] + items + seq[i:]


def _replace(seq: Tuple[int, ...], old: int, new: int) -> Tuple[int, ...]:
    i = seq.index(old)
    return seq[:i] + (new,) + seq[i + 1:]


def reference_insert_deg3(t: Triangulation, f: Face) -> Triangulation:
    """A new vertex of degree 3 inside face f = (a, b, c) of t."""
    a, b, c = f
    v = t.n
    rot = list(t.rot)
    rot[a] = _insert_after(rot[a], c, (v,))   # between c and b
    rot[b] = _insert_after(rot[b], a, (v,))   # between a and c
    rot[c] = _insert_after(rot[c], b, (v,))   # between b and a
    rot.append((a, c, b))
    return Triangulation(t.n + 1, rot)


def reference_expand_deg4(t: Triangulation, e: Tuple[int, int]) -> Triangulation:
    """Edge e = (a, b) replaced by a new degree-4 vertex joined to a, c, b, d."""
    a, b = e
    c, d = t.succ(b, a), t.succ(a, b)
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


def reference_expand_deg5(t: Triangulation, apex: int, x1: int) -> Triangulation:
    """A degree-5 vertex over the fan of three faces at apex from x1."""
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
    """Inverse of a degree-5 insertion: delete degree-5 vertex v, re-fan from apex.

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


def reference_octahedron_sum(t: Triangulation, f: Face) -> Triangulation:
    """Clique sum of t with the octahedron over face f = (a, b, c)."""
    if not is_face(t, f):
        raise ValueError(f"{f} is not a face")
    a, b, c = f
    n = t.n
    e, ff, g = n, n + 1, n + 2
    rot = list(t.rot)
    ia = rot[a].index(c) + 1
    rot[a] = rot[a][:ia] + (e, ff) + rot[a][ia:]      # between c and b
    ib = rot[b].index(a) + 1
    rot[b] = rot[b][:ib] + (ff, g) + rot[b][ib:]      # between a and c
    ic = rot[c].index(b) + 1
    rot[c] = rot[c][:ic] + (g, e) + rot[c][ic:]       # between b and a
    rot.append((a, c, g, ff))   # e
    rot.append((a, e, g, b))    # f
    rot.append((b, ff, e, c))   # g
    return Triangulation(n + 3, rot)


def all_sites(t: Triangulation) -> List[Tuple[Tuple[int, ...], Triangulation]]:
    """Every child of t under the three moves, with no minimum-degree filter,
    each after the key of its site, which starts with the new vertex's
    degree: each face (3, then its sorted triple), then each edge with
    distinct opposite vertices (4, then its sorted pair), then each fan at an
    apex of degree >= 5 (5, the apex, then the sorted pair of its two middle
    neighbours, whose edges to the apex the move removes)."""
    kids = [((3, *sorted(f)), reference_insert_deg3(t, f)) for f in faces(t)]
    kids += [((4, a, b), reference_expand_deg4(t, (a, b))) for a, b in edges(t)
             if t.succ(b, a) != t.succ(a, b)]
    for a in range(t.n):
        ra = t.rot[a]
        if len(ra) >= 5:
            for i, x1 in enumerate(ra):
                middle = sorted((ra[(i + 1) % len(ra)], ra[(i + 2) % len(ra)]))
                kids.append(((5, a, *middle), reference_expand_deg5(t, a, x1)))
    return kids


def all_children(t: Triangulation) -> List[Triangulation]:
    """Every child of t under the three moves, in the order of ``all_sites``."""
    return [child for _, child in all_sites(t)]


def reference_successors(t: Triangulation) -> Iterator[Triangulation]:
    """Children of t whose new vertex has the child's minimum degree, built
    before they are screened: an earlier form of ``generate.successors``.

    A degree-3 child always passes.  A degree-4 child across edge (a, b)
    raises only its opposite vertices c, d, so it passes iff every degree-3
    vertex of t is c or d.  A degree-5 child at apex a over x1..x4 lowers a
    by one and raises x1 and x4 by one, so it passes iff deg(a) >= 6 and
    every vertex of degree <= 4 is x1 or x4 and has degree 4.
    """
    deg = [len(r) for r in t.rot]
    for f in faces(t):
        yield reference_insert_deg3(t, f)
    deg3 = {v for v in range(t.n) if deg[v] == 3}
    if len(deg3) <= 2:
        for a, b in edges(t):
            c, d = t.succ(b, a), t.succ(a, b)
            if c != d and deg3 <= {c, d}:
                yield reference_expand_deg4(t, (a, b))
    low = {v for v in range(t.n) if deg[v] <= 4}
    if len(low) <= 2 and not deg3:
        for a in range(t.n):
            ra = t.rot[a]
            da = deg[a]
            if da >= 6:
                for i, x1 in enumerate(ra):
                    if low <= {x1, ra[(i + 3) % da]}:
                        yield reference_expand_deg5(t, a, x1)


def reference_screen(child: Triangulation) -> Optional[List[int]]:
    """Rank the new vertex v = n - 1 against the other minimum-degree vertices
    by their sorted neighbour degrees, on the built child: an earlier form
    of the screen in ``generate.successors``.

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


def screened_sites(t: Triangulation) -> List[Tuple[Tuple[int, ...], Triangulation, List[int]]]:
    """(site key, child, ties) for every child of ``all_sites`` whose new
    vertex has the child's minimum degree and passes ``reference_screen``."""
    out = []
    for key, child in all_sites(t):
        if len(child.rot[-1]) == min(map(len, child.rot)):
            ties = reference_screen(child)
            if ties is not None:
                out.append((key, child, ties))
    return out


def all_moves_levels(n_max: int, expand: Callable[[Triangulation], Iterable[Triangulation]]
                     = all_children) -> Dict[int, Set[bytes]]:
    """Canonical codes per order from K4 up to n_max, coding every child that
    expand yields (by default every move) and deduplicating by set."""
    out = {4: {canonical_code(K4)}}
    parents = [K4]
    for n in range(5, n_max + 1):
        kids = {canonical_code(c): c for t in parents for c in expand(t)}
        out[n] = set(kids)
        parents = list(kids.values())
    return out


def count_codings(monkeypatch) -> List[int]:
    """Patch in a counter of codings and return its list of orders.  Each
    coding is one _min_code call, made through canonical_code in planar or,
    for a child that ties on the acceptance invariant, from generate."""
    calls: List[int] = []

    def counted(rot, _min_code=planar._min_code):
        calls.append(len(rot))
        return _min_code(rot)

    for module in (planar, generate):
        monkeypatch.setattr(module, "_min_code", counted)
    return calls


def _reference_emit(view, dbl, u0, v0, best):
    """BFS rotation code for one rooted, oriented candidate of
    reference_min_code.

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


def reference_min_code(rot) -> Tuple[List[int], List[List[int]]]:
    """planar._min_code by trying every root edge at every minimum-degree
    vertex in both orientations, with no filter: the least code, and the
    label array of each candidate reaching it, in the order of (orientation,
    u0, v0 in the rotation of u0), clockwise first."""
    degs = [len(r) for r in rot]
    roots = [v for v in range(len(rot)) if degs[v] == min(degs)]
    best: Optional[List[int]] = None
    labels: List[List[int]] = []
    for view in (rot, tuple(r[::-1] for r in rot)):
        dbl = [r + r for r in view]
        for u0 in roots:
            for v0 in view[u0]:
                cand = _reference_emit(view, dbl, u0, v0, best)
                if cand is not None:
                    code, label = cand
                    if code is None:
                        labels.append(label)
                    else:
                        best, labels = code, [label]
    assert best is not None
    return best, labels


def glued_on_a_face(t1: Triangulation, f1: Face, t2: Triangulation, f2: Face) -> Triangulation:
    """t1 and t2, each with a new degree-3 vertex u put in face (a, b, c),
    glued along their triangles (a, b, u), the second one reversed.  The two
    copies of u become one vertex of degree 4 whose link has a chord, the
    edge a-b; no other degree drops."""
    s1, s2 = reference_insert_deg3(t1, f1), reference_insert_deg3(t2, f2)
    (a1, b1, _), (a2, b2, _) = f1, f2
    phi = {t2.n: t1.n, a2: b1, b2: a1}
    for v in range(s2.n):
        if v not in phi:
            phi[v] = s1.n + len(phi) - 3
    tris = [f for f in faces(s1) if set(f) != {a1, b1, t1.n}]
    tris += [tuple(phi[v] for v in f) for f in faces(s2) if set(f) != {a2, b2, t2.n}]
    return from_face_list(s1.n + s2.n - 3, tris)


def capped_antiprism(m: int) -> Triangulation:
    """The m-gonal antiprism with a cone over each m-gon: poles 0 and 2m + 1
    of degree m, the other 2m vertices of degree 5 (m = 5: the icosahedron)."""
    ring = range(1, m + 1)
    top = [(0, i, i % m + 1) for i in ring]
    down = [(i, i % m + 1, i + m) for i in ring]
    up = [(i + m, i % m + m + 1, i % m + 1) for i in ring]
    bottom = [(2 * m + 1, i + m, i % m + m + 1) for i in ring]
    return from_face_list(2 * m + 2, top + down + up + bottom)


def root_edges_of_least_code(t: Triangulation) -> Set[Tuple[int, int]]:
    """The root edges (u0, v0), labelled 1 and 2, of every candidate that
    reaches the least code in reference_min_code."""
    return {(label.index(1), label.index(2)) for label in reference_min_code(t.rot)[1]}


def is_chord_root_edge(t: Triangulation, u: int, v: int) -> bool:
    """True iff u and v have a third common neighbour: v0 = v ends a chord
    of the link of u0 = u."""
    return len(set(t.rot[u]) & set(t.rot[v])) > 2


def reference_triangulation_from_code(code: bytes) -> Triangulation:
    """planar.triangulation_from_code symbol by symbol."""
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


def reference_faces(t: Triangulation) -> List[Face]:
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


def reference_verify_triangulation(t: Triangulation) -> ValidityReport:
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
        fl = reference_faces(t)
    except ValueError as exc:
        return ValidityReport(False, str(exc))
    if len(fl) != 2 * n - 4:
        return ValidityReport(False, f"face count {len(fl)} differs from 2n-4 = {2 * n - 4}")
    return ValidityReport(True)


def random_triangulation(rng: random.Random, n: int, t: Triangulation = K4) -> Triangulation:
    """Random expansion walk from t (K4 by default) up to order n."""
    while t.n < n:
        kids = all_children(t)
        t = kids[rng.randrange(len(kids))]
    return t


def random_fan_parent(rng: random.Random, n: int) -> Triangulation:
    """Random expansion walk from the icosahedron up to order n through
    children with no vertex of degree 3 and at most two of degree 4, the
    parents whose degree-5 moves can give minimum-degree children.  Degree-5
    insertions are taken while there are any; they spread the degrees."""
    t = icosahedron()
    while t.n < n:
        kids = [c for c in all_children(t)
                if min(map(len, c.rot)) >= 4 and sum(len(r) == 4 for r in c.rot) <= 2]
        kids = [c for c in kids if len(c.rot[-1]) == 5] or kids
        t = kids[rng.randrange(len(kids))]
    return t


def automorphisms(t: Triangulation) -> List[List[int]]:
    """Every automorphism of the embedding, reflections and the identity
    included, as vertex maps x -> s[x]: each directed edge (a, b) of t or of
    its mirror is tried as the image of the directed edge (0, rot[0][0]),
    and the map is grown along the rotations and kept if it is a bijection
    that respects every rotation."""
    rot = t.rot
    out = []
    for view in (rot, tuple(r[::-1] for r in rot)):
        for a in range(t.n):
            for b in view[a]:
                phi = {0: a}
                entry = {0: (rot[0][0], b)}
                queue = [0]
                ok = True
                for x in queue:
                    rx, ry = rot[x], view[phi[x]]
                    p, q = entry[x]
                    d = len(rx)
                    if len(ry) != d or q not in ry:
                        ok = False
                        break
                    i, j = rx.index(p), ry.index(q)
                    for k in range(d):
                        s, y = rx[(i + k) % d], ry[(j + k) % d]
                        if s not in phi:
                            phi[s] = y
                            entry[s] = (x, phi[x])
                            queue.append(s)
                        elif phi[s] != y:
                            ok = False
                    if not ok:
                        break
                if ok and len(set(phi.values())) == t.n:
                    out.append([phi[x] for x in range(t.n)])
    return out


def automorphism_orbit(t: Triangulation, u: int) -> Set[int]:
    """Images of u under every automorphism of the embedding."""
    return {s[u] for s in automorphisms(t)}


def site_image(s: List[int], key: Tuple[int, ...]) -> Tuple[int, ...]:
    """The key of the image under s of the site with this ``all_sites`` key."""
    kind, *rest = key
    if kind == 5:
        return (5, s[rest[0]], *sorted(s[x] for x in rest[1:]))
    return (kind, *sorted(s[x] for x in rest))


def random_permutation(rng: random.Random, n: int) -> List[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# Independent enumeration of plane triangulations on exactly n vertices by
# assembling directed triangles into a closed oriented surface, rooted at the
# face (0, 1, 2), with new vertex labels introduced in first-use order.

def assemble_triangulations(n: int) -> Set[bytes]:
    codes: Set[bytes] = set()
    used: Dict[Tuple[int, int], bool] = {(0, 1): True, (1, 2): True, (2, 0): True}
    faces_acc: List[Tuple[int, int, int]] = [(0, 1, 2)]
    max_faces = 2 * n - 4

    def least_open() -> Optional[Tuple[int, int]]:
        best = None
        for (u, v) in used:
            if (v, u) not in used and (best is None or (u, v) < best):
                best = (u, v)
        return best

    def close_up(max_v: int) -> None:
        if max_v != n - 1:
            return
        succ: List[Dict[int, int]] = [dict() for _ in range(n)]
        for a, b, c in faces_acc:
            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                succ[v][u] = w
        rot = []
        for v in range(n):
            if not succ[v]:
                return
            start = min(succ[v])
            cyc = [start]
            while True:
                nxt = succ[v].get(cyc[-1])
                if nxt is None or len(cyc) > len(succ[v]):
                    return
                if nxt == start:
                    break
                cyc.append(nxt)
            if len(cyc) != len(succ[v]):
                return
            rot.append(tuple(cyc))
        t = Triangulation(n, rot)
        if verify_triangulation(t).ok:
            codes.add(canonical_code(t))

    def rec(max_v: int) -> None:
        e = least_open()
        if e is None:
            close_up(max_v)
            return
        if len(faces_acc) >= max_faces:
            return
        if (n - 1 - max_v) > max_faces - len(faces_acc):
            return  # not enough faces left to introduce the missing vertices
        u, v = e
        for w in range(min(max_v + 1, n - 1) + 1):
            if w == u or w == v:
                continue
            de = ((v, u), (u, w), (w, v))
            if any(d in used for d in de):
                continue
            for d in de:
                used[d] = True
            faces_acc.append((v, u, w))
            rec(max(max_v, w))
            faces_acc.pop()
            for d in de:
                del used[d]

    rec(2)
    return codes


# ---------------------------------------------------------------------------
# Cones over triangulated polygons: every triangulation with a universal
# vertex arises this way, giving an independent count of the gamma_c = 1
# classes of each order.

def polygon_triangulations(poly: List[int]) -> List[List[Tuple[int, int, int]]]:
    if len(poly) == 3:
        return [[tuple(poly)]]
    out = []
    a, b = poly[0], poly[1]
    for i in range(2, len(poly)):
        c = poly[i]
        left = poly[1:i + 1]
        right = [a] + poly[i:]
        for part_l in (polygon_triangulations(left) if len(left) >= 3 else [[]]):
            for part_r in (polygon_triangulations(right) if len(right) >= 3 else [[]]):
                out.append([(a, b, c)] + part_l + part_r)
    return out


@lru_cache(maxsize=None)
def cone_triangulations(m: int) -> FrozenSet[bytes]:
    """Canonical codes of all (m+1)-vertex triangulations with a universal vertex."""
    codes = set()
    for tri in polygon_triangulations(list(range(m))):
        face_set = list(tri) + [(m, (i + 1) % m, i) for i in range(m)]
        t = from_face_list(m + 1, face_set)
        assert verify_triangulation(t).ok
        codes.add(canonical_code(t))
    return frozenset(codes)


# ---------------------------------------------------------------------------
# REFERENCE_CENSUS keeps the published counts verbatim, misprints included.
# At these orders its gamma_c = 1 cell disagrees with the cone count above
# while its total is right, so the gamma_c = 2 cell carries the opposite error.

MISPRINTED_ORDERS = (8, 12)
MISPRINTED_CELLS = frozenset((n, v) for n in MISPRINTED_ORDERS for v in (1, 2))


def reference_errata() -> Dict[Tuple[int, int], int]:
    """Corrected values of the misprinted cells, keyed by (order, gamma_c).

    gamma_c = 1 exactly when a vertex is universal, so the gamma_c = 1 cell
    is the number of cones over triangulated (n-1)-gons.  The gamma_c = 2
    cell is the published total minus the other published cells and the
    corrected gamma_c = 1 cell.  Nothing here reads census output.
    """
    errata = {}
    for n in MISPRINTED_ORDERS:
        total, cells = REFERENCE_CENSUS[n]
        universal = len(cone_triangulations(n - 1))
        errata[(n, 1)] = universal
        errata[(n, 2)] = total - universal - sum(cells[v] for v in (3, 4, 5))
    return errata
