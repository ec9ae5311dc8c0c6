"""Output checks made apart from the program.

Everything here works from rotation systems and vertex bitmasks and imports
nothing from ``tridom``, so a fault in the program cannot pass by breaking
its own check as well.  ``rot[v]`` lists the neighbours of v in clockwise
order; the face after directed edge (u, v) continues with (v, w), where w
follows u in ``rot[v]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: OEIS A000109: triangulations of the sphere with n vertices.
A000109 = {5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249, 12: 7595, 13: 49566}

#: OEIS A000207, triangulations of an (n-1)-gon up to rotation and
#: reflection, keyed by n: a triangulation of order n has gamma_c = 1
#: exactly when it is the cone over one of them.
A000207_CONES = {5: 1, 6: 1, 7: 3, 8: 4, 9: 12, 10: 27, 11: 82, 12: 228, 13: 733}

Rotation = Sequence[Sequence[int]]


def adjacency(rot: Rotation) -> List[int]:
    """Adjacency bitmasks of a rotation system; raises ValueError unless simple."""
    n = len(rot)
    adj = [0] * n
    for v, r in enumerate(rot):
        for u in r:
            if not 0 <= u < n or u == v or adj[v] >> u & 1:
                raise ValueError(f"rotation of {v} has a bad or repeated neighbour {u}")
            adj[v] |= 1 << u
    for v in range(n):
        for u in range(n):
            if (adj[v] >> u & 1) != (adj[u] >> v & 1):
                raise ValueError(f"asymmetric adjacency between {v} and {u}")
    return adj


def triangulation_problem(rot: Rotation) -> Optional[str]:
    """None if rot embeds a simple plane triangulation, else what is wrong."""
    n = len(rot)
    try:
        adj = adjacency(rot)
    except ValueError as exc:
        return str(exc)
    if n < 4 or not connected(adj, (1 << n) - 1):
        return "not a connected graph on at least 4 vertices"
    if sum(len(r) for r in rot) != 2 * (3 * n - 6):
        return "edge count differs from 3n - 6"
    pos = [{u: i for i, u in enumerate(r)} for r in rot]
    seen = set()
    faces = 0
    for v, r in enumerate(rot):
        for u in r:
            if (u, v) in seen:
                continue
            a, b, length = u, v, 0
            while (a, b) not in seen:
                seen.add((a, b))
                rb = rot[b]
                a, b = b, rb[(pos[b][a] + 1) % len(rb)]
                length += 1
            if length != 3 or (a, b) != (u, v):
                return f"face through directed edge ({u},{v}) is not a triangle"
            faces += 1
    if faces != 2 * n - 4:
        return "face count differs from 2n - 4"
    return None


def closed_neighbourhoods(adj: Sequence[int]) -> List[int]:
    return [m | 1 << v for v, m in enumerate(adj)]


def dominates(closed: Sequence[int], s: int) -> bool:
    cover = 0
    for v in range(len(closed)):
        if s >> v & 1:
            cover |= closed[v]
    return cover == (1 << len(closed)) - 1


def connected(adj: Sequence[int], s: int) -> bool:
    """True iff the nonempty vertex set s induces a connected subgraph."""
    if not s:
        return False
    reached = s & -s
    while True:
        grown = reached
        for v in range(len(adj)):
            if reached >> v & 1:
                grown |= adj[v] & s
        if grown == reached:
            return reached == s
        reached = grown


def find_cds(adj: Sequence[int], k: int) -> int:
    """A connected dominating set of exactly k vertices, or 0 if none exists.

    Enumerates every connected k-set once (ESU: each set is grown from its
    least vertex through neighbours that are new to the set's neighbourhood)
    and prunes a branch when even k - |S| more closed neighbourhoods of the
    largest size could not cover what is left.  A connected dominating set
    of fewer than k < n vertices grows into one of k by adding neighbours, so
    0 here also rules out every smaller size.
    """
    n = len(adj)
    full = (1 << n) - 1
    closed = closed_neighbourhoods(adj)
    biggest = max(m.bit_count() for m in closed)

    def extend(s: int, size: int, frontier: int, excluded: int, cover: int) -> int:
        if size == k:
            return s if cover == full else 0
        if cover.bit_count() + (k - size) * biggest < n:
            return 0
        while frontier:
            w = frontier & -frontier
            frontier ^= w
            v = w.bit_length() - 1
            new = adj[v] & ~excluded
            hit = extend(s | w, size + 1, frontier | new, excluded | new, cover | closed[v])
            if hit:
                return hit
        return 0

    if not 1 <= k <= n:
        return 0
    for root in range(n):
        up_to_root = (2 << root) - 1
        hit = extend(1 << root, 1, adj[root] & ~up_to_root, up_to_root | closed[root],
                     closed[root])
        if hit:
            return hit
    return 0


def find_ds(adj: Sequence[int], k: int) -> int:
    """A dominating set of at most k vertices, or 0 if none exists.

    Branches on the least vertex not yet covered: one of its closed
    neighbours must be in the set.
    """
    n = len(adj)
    full = (1 << n) - 1
    closed = closed_neighbourhoods(adj)

    def search(s: int, cover: int, left: int) -> int:
        if cover == full:
            return s
        if left == 0:
            return 0
        uncovered = full & ~cover
        u = (uncovered & -uncovered).bit_length() - 1
        for v in range(n):
            if closed[u] >> v & 1:
                hit = search(s | 1 << v, cover | closed[v], left - 1)
                if hit:
                    return hit
        return 0

    return search(0, 0, k)


def gamma_c(adj: Sequence[int]) -> int:
    """Connected domination number by exhaustive search."""
    k = 1
    while not find_cds(adj, k):
        k += 1
    return k


def cds_problems(rot: Rotation, value: int, witness: int) -> List[str]:
    """Why (value, witness) is not the connected domination number of rot."""
    adj = adjacency(rot)
    out = []
    if witness.bit_count() != value:
        out.append(f"witness has {witness.bit_count()} vertices, value is {value}")
    if witness >> len(rot) or not dominates(closed_neighbourhoods(adj), witness):
        out.append("witness does not dominate")
    if not connected(adj, witness):
        out.append("witness is not connected")
    if value > 1 and find_cds(adj, value - 1):
        out.append(f"a connected dominating set of {value - 1} vertices exists")
    return out


def ds_problems(rot: Rotation, value: int, witness: int) -> List[str]:
    """Why (value, witness) is not the domination number of rot."""
    adj = adjacency(rot)
    out = []
    if witness.bit_count() != value:
        out.append(f"witness has {witness.bit_count()} vertices, value is {value}")
    if witness >> len(rot) or not dominates(closed_neighbourhoods(adj), witness):
        out.append("witness does not dominate")
    if value > 1 and find_ds(adj, value - 1):
        out.append(f"a dominating set of {value - 1} vertices exists")
    return out


def invariant(rot: Rotation) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """Isomorphism invariant: sorted (degree, sorted neighbour degrees) pairs."""
    deg = [len(r) for r in rot]
    return tuple(sorted((deg[v], tuple(sorted(deg[u] for u in r))) for v, r in enumerate(rot)))


def mutants(rot: Rotation, value: int, witness: int) -> Dict[str, Tuple[int, int]]:
    """Wrong (value, witness) pairs built from a right one, each wrong by construction.

    ``gamma_c+1``: one more vertex, a neighbour of the witness, so the set is
    still a connected dominating set and only the search below the value can
    tell.  ``gamma_c-1``: the witness less one vertex; a true minimum has no
    smaller connected dominating set.  ``broken``: the right size, but a
    vertex x together with value - 1 vertices none of which is next to x
    (disconnected), or for value 1 a vertex of least degree, below n - 1 in
    a triangulation of order at least 5 (not dominating).
    """
    adj = adjacency(rot)
    n = len(rot)
    out = {}
    grow = 0
    for v in range(n):
        if witness >> v & 1:
            grow |= adj[v]
    grow &= ~witness
    if grow:
        out["gamma_c+1"] = (value + 1, witness | grow & -grow)
    if value > 1:
        out["gamma_c-1"] = (value - 1, witness & (witness - 1))
    if value == 1:
        v = min(range(n), key=lambda x: adj[x].bit_count())
        out["broken"] = (1, 1 << v)
        return out
    closed = closed_neighbourhoods(adj)
    for x in range(n):
        # grow value - 1 vertices away from x one neighbour at a time
        rest = (1 << n) - 1 & ~closed[x]
        part = rest & -rest
        while 0 < part.bit_count() < value - 1:
            reach = 0
            for v in range(n):
                if part >> v & 1:
                    reach |= adj[v]
            reach &= rest & ~part
            if not reach:
                break
            part |= reach & -reach
        if part.bit_count() == value - 1:
            out["broken"] = (value, part | 1 << x)
            break
    return out


def mutants_accepted(rot: Rotation, value: int, witness: int) -> List[str]:
    """Names of the mutants of a right answer that cds_problems fails to reject."""
    return [name for name, (v, w) in mutants(rot, value, witness).items()
            if not cds_problems(rot, v, w)]
