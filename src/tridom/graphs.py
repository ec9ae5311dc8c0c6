"""Bitset graphs: vertex sets are integer bitmasks, graphs are adjacency masks.

Everything downstream (domination solvers, contraction search, the census)
spends its time in set algebra over vertex sets, so a vertex set is a bare
Python int with bit v standing for vertex v.  Graphs are immutable: an order
``n`` plus one adjacency mask per vertex.  Python ints have no width limit,
so neither has the order; only graph6 reading and writing cap it, at
MAX_VERTICES.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

MAX_VERTICES = 128

# Verdicts a visitor passed to enumerate_connected_sets may return.
PRUNE = "prune"  # keep the current set but do not grow it further
STOP = "stop"    # abort the whole enumeration


def vset(vertices: Iterable[int]) -> int:
    """Pack vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bits of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Graph:
    """Simple undirected graph on vertices 0..n-1, adjacency as bitmasks.

    Instances are treated as immutable values; all operations that "modify"
    a graph return a new one.  The constructor does not validate: it sits on
    hot paths such as edge contraction, and its callers (the underlying graph
    of a checked triangulation, a contraction, the graph6 reader) pass
    symmetric masks without loops.
    """

    __slots__ = ("n", "adj", "full")

    def __init__(self, n: int, adj: Sequence[int]):
        self.n = n
        self.adj = tuple(adj)
        self.full = (1 << n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> List[int]:
        return [m.bit_count() for m in self.adj]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            base = u + 1
            while m:
                b = m & -m
                out.append((u, base + b.bit_length() - 1))
                m ^= b
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def is_dominating(g: Graph, s: int) -> bool:
    """True iff the union of closed neighborhoods over s covers every vertex."""
    if s & ~g.full:
        raise ValueError("set mentions vertices outside the graph")
    cover = s
    m = s
    adj = g.adj
    while m:
        b = m & -m
        cover |= adj[b.bit_length() - 1]
        m ^= b
    return cover == g.full


def induces_connected(g: Graph, s: int) -> bool:
    """True iff the subgraph induced by the nonempty set s is connected."""
    if s == 0:
        raise ValueError("connectivity of the empty set is undefined")
    if s & ~g.full:
        raise ValueError("set mentions vertices outside the graph")
    adj = g.adj
    seen = s & -s
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= adj[b.bit_length() - 1]
            m ^= b
        frontier = nxt & s & ~seen
        seen |= frontier
    return seen == s


def is_connected(g: Graph) -> bool:
    return induces_connected(g, g.full)


def degree_stats(g: Graph) -> Tuple[int, int, int]:
    """(min degree, max degree, least vertex attaining the max)."""
    degs = g.degrees()
    dmax = max(degs)
    return min(degs), dmax, degs.index(dmax)


class _Stop(Exception):
    pass


def enumerate_connected_sets(g: Graph, max_size: int, visitor: Callable[[int], object]) -> int:
    """Visit every vertex set of size <= max_size that induces a connected subgraph.

    Each qualifying set is visited exactly once, in a deterministic order:
    sets are grown from their minimum vertex, with expansions restricted to
    neighbors not already forbidden, so no global dedup structure is needed.

    The visitor receives the set as a bitmask and may return PRUNE to stop
    growing the current set, or STOP to abort the enumeration.
    Returns the number of sets visited.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    adj = g.adj
    count = 0

    def grow(s: int, size: int, nbrs: int, forb: int) -> None:
        nonlocal count
        count += 1
        verdict = visitor(s)
        if verdict == STOP:
            raise _Stop
        if verdict == PRUNE or size == max_size:
            return
        cand = nbrs & ~forb
        while cand:
            b = cand & -cand
            cand ^= b
            s2 = s | b
            grow(s2, size + 1, (nbrs | adj[b.bit_length() - 1]) & ~s2, forb)
            forb |= b

    try:
        for r in range(g.n):
            rb = 1 << r
            grow(rb, 1, adj[r], rb - 1)
    except _Stop:
        pass
    return count


# ---------------------------------------------------------------------------
# graph6: header-less ASCII format, 6-bit packed upper triangle.

_G6_HEADER = ">>graph6<<"


def graph6_write(g: Graph) -> str:
    if g.n > MAX_VERTICES:
        raise ValueError(f"order {g.n} exceeds {MAX_VERTICES}")
    n = g.n
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~", chr(63 + (n >> 12 & 63)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def graph6_read(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    vals = [ord(c) - 63 for c in s]
    if any(v < 0 or v > 63 for v in vals):
        raise ValueError("malformed graph6: character out of range")
    if vals[0] == 63:  # '~' long-order form
        if len(vals) < 4:
            raise ValueError("malformed graph6: truncated order")
        if vals[1] == 63:
            raise ValueError("malformed graph6: 8-byte orders unsupported")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"graph6 order {n} out of range 1..{MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        kind = "truncated" if len(body) < need else "trailing garbage in"
        raise ValueError(f"{kind} graph6 string: expected {need} data characters, got {len(body)}")
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return Graph(n, adj)
