"""Exact domination and connected domination solvers, with certificates.

Three routes to the connected domination number are provided:

* ``subset_gamma_c`` - subset search, the census route (``classify`` calls
  it directly): direct scans for sizes 1 to 3, then iterative deepening
  over connected vertex sets, with admissible pruning (distance
  reachability and a 2-packing of the vertices left undominated);
* the frontier DP (``_frontier_dp``), reached only through
  ``exact_gamma_c`` - a dynamic program over the frontier of a narrow
  vertex order chosen per graph (``_dp_order``), for thin graphs such as
  the extremal constructions, however they are labelled (a
  path-decomposition DP with connectivity states, after Bodlaender, Cygan,
  Kratsch and Nederlof, Inf. Comput. 2015);
* ``gamma_c_by_contraction`` - the verifier, used to cross-check stored
  values (``census.verify_corpus``): iterative deepening over connected
  acyclic edge sets, contracting each edge once as it joins the tree and
  testing whether the merged vertex is universal in the minor.  It shares
  no search code with the other two routes, and is several times slower.

``exact_gamma_c`` answers any graph, and ``tridom solve`` uses it for every
input format: the scans of sizes 1 to 3 (below), then, on the search
tables, the DP or the subset search by the rule in its docstring, so its
subset-search answers are ``subset_gamma_c``'s.  ``classify`` does not
route.  On census classes only gamma_c >= 4 gets past the scans (5 classes
at order 12, 153 at order 13), and on those subset search is the faster
route: a median of 0.17 ms against 1.0 ms per class by the DP with its order
search (best-of-5 in-process times, Python 3.11).  ``exact_gamma_c`` would
send 53 of the 153 to the DP, and 22 of them would get another witness, so
routing would change census certificates.

The order: vertex separation equals pathwidth (Kinnersley, Inf. Process.
Lett. 1992), so a thin graph has a narrow order whatever its labels.
``_dp_order`` keeps the label order unless a greedy order from one of seven
starts is strictly narrower.  Families A and B get width 4 and 5 (7 in the
built labelling) and the icosahedron chains 6 or 7 (8 or 9).  Ten seeded
relabellings of A100 and of ``icosa_chain(30)`` get 4 and 9 to 12, where
their label orders are 173 to 208 wide.

Soundness of the frontier DP: it runs on g relabelled by ``_dp_order``'s
order, so vertices are taken in that order, and the frontier is the
processed vertices that still have an unprocessed neighbour, so every
processed neighbour of the next vertex v is on it.  A state gives each
frontier vertex 0 (undominated), 1 (dominated) or the label of its
component of S restricted to the processed vertices, labels numbered by
first appearance, so equal partial solutions share a state.  A state is a
tuple of ints, so the frontier may be of any width.  Taking v into S marks
its undominated frontier neighbours dominated and merges the components of
its S neighbours with v, all marked n + 2 (above every label, at most
n + 1) until the step relabels; leaving v out marks v dominated iff it has
an S neighbour.  Forget rule: a vertex that leaves the frontier (its
last neighbour is processed) must be dominated, since nothing later can
dominate it; and a component of S may leave only if another frontier
vertex still carries its label, since a component with no unprocessed
neighbour can never join the rest of S.  Closing rule: at the last vertex
everything leaves together, and S must then form exactly one component.
So the completed states are exactly the connected dominating sets.  Each
state keeps the least (|S|, S); the order is total and a state's future
does not depend on how it was reached, so the least value at the end is
gamma_c and its set is the least minimum connected dominating set in that
order, read in the relabelled graph.  The witness is mapped back to g's
labels and re-checked there (size, domination, connectivity) before it is
returned.

Correctness of the contraction route: contracting a spanning tree of a
minimum connected dominating set (k = value-1 edges) merges it into a vertex
adjacent to everything else, so the search succeeds at k = value-1; and a
success at k yields a connected dominating set of size k+1 (the spanned
vertex set), so it cannot succeed earlier.  Only acyclic edge sets are
searched: a connected set with a cycle contracts to a minor on more than
n-k vertices, where no vertex of degree n-k-1 is universal.  Each branch
carries its minor, so an edge is contracted once, when it joins the tree;
contraction does not depend on edge order, so that minor is the tree's.

Pruning soundness in the subset search: with s = |S| and m = k - s vertices
still to add, every vertex that a superset grown from S covers lies within
distance m+1 of S.  And undominated vertices with pairwise disjoint closed
neighborhoods (pairwise at distance >= 3) need one distinct dominator each,
none of them in S, so a greedy 2-packing of V - N[S] larger than m cuts the
branch.  No test ever cuts a feasible branch, so the first dominating set
the enumeration meets, and every minimum one it collects, are the same with
or without them.  The deepening may start at max(packing bound,
diameter-1): disjoint closed neighborhoods need distinct dominators, and
the internal path of a connected dominating set spans the graph within one
step of every vertex.  The per-graph tables (closed neighborhoods, distance
balls) are built once and shared by every deepening level.

Sizes 1 to 3 are answered by scans, without the search or its tables.  As
no prune cuts a feasible branch, the search's hit at k = gamma_c is the
first dominating set of size k in the unpruned preorder of
``enumerate_connected_sets``, which grows a set from its least vertex r
through the neighbours b > r in ascending order, forbidding each b once its
subtree is done.  ``_small_cds`` visits each size in that preorder: the
least universal vertex; the least edge r < b with N[r] | N[b] = V; the
first {r, b, c} by r, then b, then c in N(r) | N(b) above r, less b and the
neighbours of r below b.  The tables are built, and the search deepened
from max(4, its lower bound), only when all three scans fail: for 5 of the
9,149 classes of orders 5..12.

``exact_gamma`` is one search for the domination number and its witness.
From the 2-packing bound up, it visits the vertex sets of each size in
lexicographic order of their sorted vertex tuples, and stops at the first
size with a hit.  Each prune cuts only subtrees with no dominating
completion of that size (a 2-packing of the undominated vertices larger
than the number left to add; a next vertex v above the largest vertex of
N[u] for some undominated u, since every later choice is above v; too few
vertices after v), or sets with a vertex that dominates nothing new, which
cannot be minimum.  So the first hit is the lexicographically least
minimum dominating set, at the least size that has one.  The witness is
re-checked (size, domination) before it is returned.
"""

from __future__ import annotations

from math import comb
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .graphs import (
    PRUNE,
    STOP,
    Graph,
    bits,
    degree_stats,
    enumerate_connected_sets,
    induces_connected,
    is_connected,
    is_dominating,
    vset,
)
from .planar import Triangulation, underlying_graph

METHOD_SUBSET = "subset-search"
METHOD_FRONTIER = "frontier-dp"

METHOD_CONTRACTION = "contraction"
METHOD_BFS_TREE = "bfs-tree-bound"
METHOD_DELTA = "delta-shortcut"


class DominationCertificate(NamedTuple):
    value: int
    witness: int  # vertex bitmask
    method: str


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ValueError("graph is disconnected; graphs with more than one component"
                         " have no connected dominating set")


def _closed(g: Graph) -> List[int]:
    return [g.adj[v] | (1 << v) for v in range(g.n)]


def _packing_bound(uncovered: int, ball2: List[int]) -> int:
    """Greedy count of pairwise-disjoint closed neighborhoods in uncovered."""
    cnt = 0
    while uncovered:
        v = (uncovered & -uncovered).bit_length() - 1
        cnt += 1
        uncovered &= ~ball2[v]
    return cnt


def exact_gamma(g: Graph) -> DominationCertificate:
    """Lexicographically least minimum dominating set by one deepening search, checked."""
    _require_connected(g)
    n = g.n
    full = g.full
    adjn = _closed(g)
    balls, rmax = _distance_balls(g, adjn)
    ball2 = balls[min(2, rmax)]
    # below[v]: the vertices whose closed neighborhood lies wholly before v
    below = [0] * (n + 1)
    for u, m in enumerate(adjn):
        below[m.bit_length()] |= 1 << u
    for v in range(1, n + 1):
        below[v] |= below[v - 1]

    def lex_witness(start: int, covered: int, left: int) -> Optional[int]:
        if left == 0:
            return 0 if covered == full else None
        uncovered = full & ~covered
        if _packing_bound(uncovered, ball2) > left:
            return None
        for v in range(start, n - left + 1):
            if below[v] & uncovered:
                break  # an uncovered vertex has no dominator left from v on
            if adjn[v] & uncovered:  # a redundant vertex cannot occur in a minimum set
                rest = lex_witness(v + 1, covered | adjn[v], left - 1)
                if rest is not None:
                    return rest | (1 << v)
        return None

    for value in range(_packing_bound(full, ball2), n + 1):
        witness = lex_witness(0, 0, value)
        if witness is not None:
            return _checked(g, DominationCertificate(value, witness, METHOD_SUBSET), False)
    raise AssertionError("a connected graph always has a dominating set")


def _distance_balls(g: Graph, adjn: List[int]) -> Tuple[List[List[int]], int]:
    """balls[r][v] = vertices within distance r of v; saturates at the diameter."""
    full = g.full
    balls = [[1 << v for v in range(g.n)], list(adjn)]
    while any(m != full for m in balls[-1]):
        prev = balls[-1]
        nxt = []
        for m, inner in zip(prev, balls[-2]):
            if m == full:
                nxt.append(full)
                continue
            b = m
            x = m & ~inner  # the newest shell: only it can reach further
            while x:
                lo = x & -x
                b |= adjn[lo.bit_length() - 1]
                x ^= lo
            nxt.append(b)
        if nxt == prev:
            raise ValueError("graph is disconnected")
        balls.append(nxt)
    return balls, len(balls) - 1


def _gamma_c_search(g: Graph, k: int, adjn: List[int], balls: List[List[int]],
                    rmax: int, collect_all: bool) -> List[int]:
    """Connected dominating sets of size <= k; first hit only unless collect_all."""
    full = g.full
    ball2 = balls[min(2, rmax)]
    found: List[int] = []

    def visitor(s: int) -> Optional[str]:
        size = s.bit_count()
        m = k - size
        r = balls[m + 1 if m + 1 < rmax else rmax]
        cover = 0
        ball = 0
        x = s
        while x:
            lo = x & -x
            v = lo.bit_length() - 1
            cover |= adjn[v]
            ball |= r[v]
            x ^= lo
        if cover == full:
            if not collect_all:
                found.append(s)
                return STOP
            if size == k:
                found.append(s)
            return None
        if m == 0:
            return PRUNE
        if ball != full:
            return PRUNE
        if _packing_bound(full & ~cover, ball2) > m:
            return PRUNE
        return None

    enumerate_connected_sets(g, k, visitor)
    return found


def _require_cds_input(g: Graph) -> None:
    if g.n < 2:
        raise ValueError("connected domination needs at least two vertices")


def _cds_tables(g: Graph) -> Tuple[List[int], List[List[int]], int, int]:
    """Closed neighborhoods, distance balls, radius cap and the deepening start."""
    _require_connected(g)
    adjn = _closed(g)
    balls, rmax = _distance_balls(g, adjn)
    ecc_max = rmax  # the last radius added is the diameter
    k0 = max(1, _packing_bound(g.full, balls[min(2, rmax)]), ecc_max - 1)
    return adjn, balls, rmax, k0


def _minimum_cds(g: Graph, collect_all: bool, tables: tuple, k_min: int = 1) -> List[int]:
    """Deepen from max(k_min, lower bound) to the first size with a connected dominating set.

    Returns the first such set found, or with collect_all every one of that size.
    """
    adjn, balls, rmax, k0 = tables
    for k in range(max(k_min, k0), g.n + 1):
        hits = _gamma_c_search(g, k, adjn, balls, rmax, collect_all)
        if hits:
            return hits
    raise AssertionError("connected graph always has a connected dominating set")


def _dominators(cand: int, missed: int, adjn: List[int]) -> int:
    """The vertices of cand whose closed neighborhood holds every vertex of missed."""
    while missed and cand:
        lo = missed & -missed
        cand &= adjn[lo.bit_length() - 1]
        missed ^= lo
    return cand


def _small_cds(g: Graph) -> int:
    """The search's first connected dominating set if gamma_c <= 3, else 0.

    A triple {r, b, c} skips c among the neighbours of r below b: that set
    came under an earlier b.  A c completes it iff N[c] holds every vertex
    that N[r] | N[b] misses.
    """
    full = g.full
    adj = g.adj
    adjn = _closed(g)
    if full in adjn:
        return 1 << adjn.index(full)
    for r in range(g.n):
        cand = _dominators(adj[r] & -(2 << r), full & ~adjn[r], adjn)
        if cand:
            return 1 << r | cand & -cand
    for r in range(g.n):
        above = -(2 << r)
        later = adj[r] & above
        while later:
            bb = later & -later
            later ^= bb
            b = bb.bit_length() - 1
            cand = _dominators(later | adj[b] & above & ~adj[r], full & ~(adjn[r] | adjn[b]), adjn)
            if cand:
                return 1 << r | bb | cand & -cand
    return 0


def subset_gamma_c(g: Graph) -> DominationCertificate:
    """Minimum connected dominating set by deepening subset search: the scans
    of sizes 1 to 3, each giving the search's first hit, then the tables and
    the search from max(4, its lower bound) (module docstring)."""
    _require_cds_input(g)
    s = _small_cds(g) or _minimum_cds(g, False, _cds_tables(g), k_min=4)[0]
    return DominationCertificate(s.bit_count(), s, METHOD_SUBSET)


def _dp_order(g: Graph, cap: int) -> Tuple[int, List[int]]:
    """(width, order): a vertex order for the frontier DP and its width, the
    most processed vertices with an unprocessed neighbour after any step.

    The label order is the incumbent.  Greedy orders grow from the
    maximum-degree vertex and from the six vertices of least degree: each
    step takes the border vertex that leaves the fewest processed vertices
    with an unprocessed neighbour, then the one with fewer unprocessed
    neighbours, then the lower label.  A greedy order replaces the incumbent
    only when strictly narrower, and a start is dropped once its width
    reaches the incumbent's or cap.  No order is narrower than the minimum
    degree, a lower bound on the pathwidth, so at that width none is grown.
    """
    n, adj = g.n, g.adj
    leaving = [0] * n
    for v, m in enumerate(adj):
        leaving[max(v, m.bit_length() - 1)] += 1
    width = live = 0
    for v in range(n):
        live += 1 - leaving[v]
        width = max(width, live)
    best = (width, list(range(n)))
    degs = g.degrees()
    if min(degs) >= min(width, cap):
        return best
    for s in dict.fromkeys([degs.index(max(degs)), *sorted(range(n), key=degs.__getitem__)[:6]]):
        done, order, rem, width = 1 << s, [s], [adj[s]], 1  # rem: the frontier's unprocessed neighbours
        while len(order) < n and width < min(best[0], cap):
            border = 0
            for m in rem:
                border |= m
            singles = [m for m in rem if not m & m - 1]
            v = min(bits(border), key=lambda v: (bool(adj[v] & ~done) - singles.count(1 << v),
                                                  (adj[v] & ~done).bit_count()))
            lo = 1 << v
            out = adj[v] & ~done
            done |= lo
            rem = [m & ~lo for m in rem if m != lo] + [out] * bool(out)
            width = max(width, len(rem))
            order.append(v)
        if width < min(best[0], cap):
            best = (width, order)
    return best


def _projection(idx: List[int]) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """s -> tuple(s[i] for i in idx): an itemgetter, wrapped for fewer than two indices."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return (lambda s, i=idx[0]: (s[i],)) if idx else (lambda s: ())


def _frontier_dp(g: Graph, order: List[int]) -> DominationCertificate:
    """The DP on g relabelled by order; its witness, least in that order, mapped back and checked.

    A state holds one int per frontier vertex: 0 undominated, 1 dominated,
    or a component label >= 2 for a vertex in S, numbered by first
    appearance.  It keeps the least (|S|, S), packed as |S| << n | S.  Steps
    read states through itemgetters and share a memo of relabelled kept
    parts, dropped when it holds more than a step adds (two per state).
    """
    n = g.n
    pos = {v: i for i, v in enumerate(order)}
    adj = [vset(pos[u] for u in bits(g.adj[v])) for v in order]
    # leave[u]: the step after which u has no unprocessed neighbour
    leave = [max(u, m.bit_length() - 1) for u, m in enumerate(adj)]
    merged = n + 2  # the label of v's component until the step relabels
    one = 1 << n
    frontier: List[int] = []
    layer: Dict[Tuple[int, ...], int] = {(): 0}
    relabelled: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for v in range(n):
        near = [i for i, u in enumerate(frontier) if adj[v] >> u & 1]
        frontier.append(v)
        keep = [i for i, u in enumerate(frontier) if leave[u] > v]
        near_of, keep_of, gone_of = map(_projection, (
            near, keep, [i for i, u in enumerate(frontier) if leave[u] <= v]))
        last = v == n - 1
        add = one | 1 << v
        relabelled = relabelled if len(relabelled) <= 2 * len(layer) else {}
        nxt: Dict[Tuple[int, ...], int] = {}
        for st, val in layer.items():
            joined = {x for x in near_of(st) if x > 1}
            s = [merged if x in joined else x for x in st] if joined else list(st)
            for i in near:
                if s[i] < 2:
                    s[i] = 1
            s.append(merged)
            for full, cost in ((st + (1,) if joined else st + (0,), val), (s, val + add)):
                if last:  # S must end as one component, with every vertex dominated
                    key = () if 0 not in full and len(set(full) - {1}) == 1 else None
                else:
                    rest = keep_of(full)
                    for x in gone_of(full):
                        if x == 0 or x > 1 and x not in rest:
                            key = None  # a vertex left undominated, or a component left early
                            break
                    else:
                        key = relabelled.get(rest)
                        if key is None:
                            labels: Dict[int, int] = {}
                            key = relabelled[rest] = tuple([
                                x if x < 2 else labels.setdefault(x, len(labels) + 2) for x in rest])
                if key is not None:
                    old = nxt.get(key)
                    if old is None or cost < old:
                        nxt[key] = cost
        frontier = [frontier[i] for i in keep]
        layer = nxt
    value, witness = layer[()] >> n, vset(order[i] for i in bits(layer[()] & (one - 1)))
    return _checked(g, DominationCertificate(value, witness, METHOD_FRONTIER))


def _is_witness(g: Graph, value: int, witness: int, connected: bool = True) -> bool:
    """True iff witness is a dominating set of value vertices, and a connected
    one unless connected is False."""
    return (witness.bit_count() == value and is_dominating(g, witness)
            and (not connected or induces_connected(g, witness)))


def _checked(g: Graph, cert: DominationCertificate, connected: bool = True
             ) -> DominationCertificate:
    """cert, after checking that its witness is a dominating set of its size,
    and a connected one unless connected is False."""
    if not _is_witness(g, cert.value, cert.witness, connected):
        kind = "connected dominating set" if connected else "dominating set"
        raise AssertionError(f"{cert.method} returned no {kind} of size {cert.value}")
    return cert


def exact_gamma_c(g: Graph) -> DominationCertificate:
    """Minimum connected dominating set, by the route the input favours.

    Sizes 1 to 3 are scanned first, as in ``subset_gamma_c``.  Only when the
    scans fail are the search tables built; then the frontier DP runs on
    ``_dp_order``'s order iff 3**w < comb(n, k0), w that order's width and k0
    the subset search's first size, and otherwise subset search deepens on
    those tables.  The order is searched once, capped at the least w that
    fails the rule, and handed to the DP, whose witness is the least minimum
    set in that order, mapped back.  So every subset-search answer is
    ``subset_gamma_c``'s.  Either route's witness is checked before it is
    returned.
    """
    _require_cds_input(g)
    s = _small_cds(g)
    if not s:
        tables = _cds_tables(g)
        cap, first = 0, comb(g.n, tables[-1])
        while 3 ** cap < first:
            cap += 1  # the least w with 3**w >= comb(n, k0)
        width, order = _dp_order(g, cap)
        if width < cap:
            return _frontier_dp(g, order)
        s = _minimum_cds(g, False, tables, k_min=4)[0]
    return _checked(g, DominationCertificate(s.bit_count(), s, METHOD_SUBSET))


def all_minimum_cds(g: Graph) -> List[int]:
    """Every minimum connected dominating set, sorted by vertex tuple."""
    _require_cds_input(g)
    return sorted(_minimum_cds(g, True, _cds_tables(g)), key=lambda m: tuple(bits(m)))


def bfs_tree_cds(g: Graph) -> DominationCertificate:
    """Internal vertices of a breadth-first tree rooted at a max-degree vertex.

    Always a connected dominating set of size at most n - Delta; an upper
    bound for the connected domination number, not necessarily tight.
    """
    _require_cds_input(g)
    _require_connected(g)
    _, _, root = degree_stats(g)
    seen, queue, internal = 1 << root, [root], 0
    for x in queue:  # the loop reads what it appends
        children = g.adj[x] & ~seen
        if children:
            internal |= 1 << x
            seen |= children
            queue.extend(bits(children))
    return DominationCertificate(internal.bit_count(), internal, METHOD_BFS_TREE)


def contract_edge(g: Graph, e: Tuple[int, int]) -> Graph:
    """Contract edge e: merge into the smaller endpoint, shift larger indices down.

    Parallel edges collapse and loops vanish, so the result is simple.
    """
    u, v = e
    if u == v or not (0 <= u < g.n and 0 <= v < g.n) or not g.adj[u] >> v & 1:
        raise ValueError(f"{e} is not an edge")
    keep, drop = (u, v) if u < v else (v, u)
    kb, db = 1 << keep, 1 << drop
    low = db - 1
    merged = (g.adj[keep] | g.adj[drop]) & ~(kb | db)
    adj = []
    for x in range(g.n):
        if x == drop:
            continue
        if x == keep:
            m = merged
        else:
            m = g.adj[x]
            if m & db:
                m = (m & ~db) | kb
        adj.append((m & low) | ((m >> (drop + 1)) << drop))
    return Graph(g.n - 1, adj)


def contraction_search(g: Graph, k: int) -> Optional[Tuple[Tuple[int, int], ...]]:
    """Least connected set of k edges whose contraction merges to a universal vertex.

    Edge sets are restricted to connected acyclic sets (trees); candidates
    are compared as sorted tuples of (u, v) pairs and the lexicographically
    least success is returned, or None when no set of k edges works.  At
    k = 0 that is (), when g has a universal vertex.  The merged vertex has
    degree n - k - 1 and stands for the k + 1 ends of the edges.  Each branch
    carries its minor: an edge is contracted once, as it joins the tree, and
    a tree succeeds iff its merged vertex is universal in that minor.
    """
    _require_connected(g)
    if k < 0:
        raise ValueError("k must be >= 0")
    n = g.n
    if k == 0:
        return () if any(g.degree(v) == n - 1 for v in range(n)) else None
    edge_list = g.edges()
    m = len(edge_list)
    if k > n - 1:
        return None  # a tree on n vertices has at most n-1 edges
    incident = [0] * n
    for i, (a, b) in enumerate(edge_list):
        incident[a] |= 1 << i
        incident[b] |= 1 << i
    successes: List[Tuple[Tuple[int, int], ...]] = []

    def grow(chosen: List[int], nbrs: int, forb: int, minor: Graph, labels: List[int]) -> None:
        # minor: g with the tree before chosen's last edge contracted; labels: g's vertices in it
        x, y = edge_list[chosen[-1]]
        lo, hi = sorted((labels[x], labels[y]))
        minor = contract_edge(minor, (lo, hi))  # the tree is now vertex lo
        if len(chosen) == k:
            if minor.adj[lo].bit_count() == minor.n - 1:
                successes.append(tuple(edge_list[i] for i in sorted(chosen)))
            return
        labels = [lo if l == hi else l - (l > hi) for l in labels]
        cand = nbrs & ~forb
        while cand:
            b = cand & -cand
            cand ^= b
            ei = b.bit_length() - 1
            x, y = edge_list[ei]
            if labels[x] != labels[y]:  # skip cycle-closing edges: both ends in the tree
                grow(chosen + [ei], nbrs | incident[x] | incident[y], forb, minor, labels)
            forb |= b

    for root in range(m):
        a, b = edge_list[root]
        grow([root], incident[a] | incident[b], (1 << (root + 1)) - 1, g, list(range(n)))
        if successes:
            return min(successes)
    return None


def gamma_c_by_contraction(g: Graph) -> DominationCertificate:
    """Connected domination number via repeated edge contraction.

    Searches k = 0, 1, 2, ... for a connected set of k edges contracting to
    a universal vertex; the first success gives value k+1 and the spanned
    vertex set as witness (the universal vertex itself for k = 0).
    """
    _require_cds_input(g)
    for k in range(g.n):
        edges = contraction_search(g, k)
        if edges is not None:
            if k == 0:
                witness = 1 << next(v for v in range(g.n) if g.degree(v) == g.n - 1)
            else:
                witness = vset(x for e in edges for x in e)
            return DominationCertificate(k + 1, witness, METHOD_CONTRACTION)
    raise AssertionError("contraction search must succeed by k = n-1")


def classify(t: Triangulation) -> DominationCertificate:
    """Connected domination number of a triangulation, shortcuts first.

    Max degree n-1 forces value 1 and n-2 forces value 2 (with an explicit
    two-vertex witness); everything else goes through subset search
    (``subset_gamma_c``), never the frontier DP.  That scans for gamma_c 2
    and 3 and builds search tables only for gamma_c >= 4 (153 of the 49,566
    classes of order 13), with the witness the search would give.  The
    contraction route is not used here; it stays as the independent
    verifier.  The method field records which path produced the answer.
    Every witness is checked (size, domination, connectivity) before it is
    returned.
    """
    g = underlying_graph(t)
    n = g.n
    _require_cds_input(g)
    _, dmax, vmax = degree_stats(g)
    if dmax == n - 1:
        cert = DominationCertificate(1, 1 << vmax, METHOD_DELTA)
    elif dmax == n - 2:
        w = (g.full & ~(g.adj[vmax] | 1 << vmax)).bit_length() - 1
        common = g.adj[vmax] & g.adj[w]
        if not common:  # w is isolated
            _require_connected(g)
        u = (common & -common).bit_length() - 1
        cert = DominationCertificate(2, (1 << vmax) | (1 << u), METHOD_DELTA)
    else:
        cert = subset_gamma_c(g)
    return _checked(g, cert)
