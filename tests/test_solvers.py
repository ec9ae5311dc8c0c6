import hashlib
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from tridom import domination
from tridom.domination import (
    METHOD_BFS_TREE,
    METHOD_CONTRACTION,
    METHOD_DELTA,
    METHOD_FRONTIER,
    METHOD_SUBSET,
    DominationCertificate,
    all_minimum_cds,
    bfs_tree_cds,
    classify,
    contract_edge,
    contraction_search,
    exact_gamma,
    exact_gamma_c,
    gamma_c_by_contraction,
    subset_gamma_c,
)
from tridom.graphs import (
    Graph,
    bits,
    degree_stats,
    induces_connected,
    is_dominating,
    vset,
)
from tridom.generate import levels
from tridom.planar import Triangulation, underlying_graph
from tridom.families import family, icosa_chain, icosahedron

from helpers import (
    brute_gamma,
    brute_gamma_c,
    brute_minimum_dominating_sets,
    check_graph,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    octahedron,
    order_width,
    path_graph,
    random_connected_graph,
    random_permutation,
    reference_gamma,
    reference_minimum_cds,
    reference_minor_has_universal_merge,
    relabel,
    star_graph,
    wheel_graph,
)


def test_exact_gamma_examples():
    assert exact_gamma(complete_graph(4)).value == 1
    ico = underlying_graph(icosahedron())
    cert = exact_gamma(ico)
    assert cert.value == 2
    assert cert.method == METHOD_SUBSET
    assert is_dominating(ico, cert.witness)
    assert exact_gamma(underlying_graph(icosa_chain(2))).value == 3


def test_exact_gamma_matches_brute_force_and_lex_least(levels_to_9):
    rng = random.Random(19)
    graphs = [random_connected_graph(rng, rng.randint(2, 8), 0.35) for _ in range(30)]
    graphs += [underlying_graph(t) for n in range(4, 10) for t in levels_to_9[n]]
    for g in graphs:
        cert = exact_gamma(g)
        assert cert.value == brute_gamma(g)
        minima = brute_minimum_dominating_sets(g, cert.value)
        lex_least = min(minima, key=lambda m: tuple(bits(m)))
        assert cert.witness == lex_least


def test_exact_gamma_certificates_match_reference_search(levels_to_11):
    """The one lexicographic search returns the certificate of the two-phase search."""
    graphs = [underlying_graph(t) for n in range(4, 11) for t in levels_to_11[n]]
    rng = random.Random(61)
    graphs += [random_connected_graph(rng, rng.randint(2, 25), rng.choice((0.15, 0.3)))
               for _ in range(60)]
    graphs += [graph_from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])
               for n in (1, 2, 9, 17, 24, 30)]
    graphs += [cycle_graph(n) for n in (3, 10, 19, 27)]
    graphs += [underlying_graph(family(which, k)) for which in "AB" for k in range(5, 13)]
    graphs += [underlying_graph(icosa_chain(k)) for k in (2, 3, 4)]
    for g in graphs:
        value, witness = reference_gamma(g)
        assert exact_gamma(g) == DominationCertificate(value, witness, METHOD_SUBSET)


def test_exact_gamma_rejects_disconnected():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        exact_gamma(g)
    with pytest.raises(ValueError):
        exact_gamma_c(g)


def test_exact_gamma_c_examples():
    p5 = path_graph(5)
    cert = exact_gamma_c(p5)
    assert cert.value == 3
    assert cert.witness == vset([1, 2, 3])
    assert exact_gamma_c(underlying_graph(icosahedron())).value == 4
    with pytest.raises(ValueError):
        exact_gamma_c(Graph(1, [0]))


def test_exact_gamma_c_matches_brute_force():
    rng = random.Random(23)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 8), 0.35)
        cert = exact_gamma_c(g)
        assert cert.value == brute_gamma_c(g)
        assert is_dominating(g, cert.witness)
        assert induces_connected(g, cert.witness)
        assert cert.witness.bit_count() == cert.value


def test_gamma_le_gamma_c_everywhere():
    rng = random.Random(29)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 9), 0.3)
        assert exact_gamma(g).value <= exact_gamma_c(g).value


def test_all_minimum_cds():
    k4 = complete_graph(4)
    assert all_minimum_cds(k4) == [vset([v]) for v in range(4)]
    star = star_graph(5)
    assert all_minimum_cds(star) == [vset([0])]
    oc = underlying_graph(octahedron())
    minima = all_minimum_cds(oc)
    # brute force: of the 15 pairs, exactly the 12 adjacent ones work
    expected = []
    for pair in combinations(range(6), 2):
        s = vset(pair)
        if is_dominating(oc, s) and induces_connected(oc, s):
            expected.append(s)
    assert len(minima) == len(expected) == 12
    assert sorted(minima, key=lambda m: tuple(bits(m))) == minima
    assert set(minima) == set(expected)


def test_all_minimum_cds_complete_against_powerset(levels_to_9):
    rng = random.Random(31)
    sample = [levels_to_9[8][i] for i in (0, 5, 13)] + [levels_to_9[9][7]]
    for t in sample:
        g = underlying_graph(t)
        value = exact_gamma_c(g).value
        brute = [vset(c) for c in combinations(range(g.n), value)
                 if is_dominating(g, vset(c)) and induces_connected(g, vset(c))]
        assert set(all_minimum_cds(g)) == set(brute)


def test_bfs_tree_cds_examples():
    w8 = wheel_graph(8)
    cert = bfs_tree_cds(w8)
    assert cert.value == 1 and cert.witness == vset([7])  # hub only
    assert cert.method == METHOD_BFS_TREE
    oc = underlying_graph(octahedron())
    assert bfs_tree_cds(oc).value <= 2
    ico = underlying_graph(icosahedron())
    assert bfs_tree_cds(ico).value <= 7  # n - Delta = 12 - 5
    # a tree of one component would dominate only that component
    with pytest.raises(ValueError, match="graph is disconnected"):
        bfs_tree_cds(Graph(4, [0b10, 0b1, 0b1000, 0b100]))


def test_bfs_tree_cds_is_always_a_cds_within_bound():
    rng = random.Random(37)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 10), 0.3)
        cert = bfs_tree_cds(g)
        _, dmax, _ = degree_stats(g)
        assert cert.value <= g.n - dmax
        assert is_dominating(g, cert.witness)
        assert induces_connected(g, cert.witness)


def test_contract_edge_examples():
    k4 = complete_graph(4)
    assert contract_edge(k4, (0, 1)) == complete_graph(3)
    oc = underlying_graph(octahedron())
    for e in oc.edges():
        minor = contract_edge(oc, e)
        assert minor.n == 5
        assert minor.degree(min(e)) == 4  # merged vertex is universal
    p3 = path_graph(3)
    assert contract_edge(p3, (0, 1)) == path_graph(2)
    with pytest.raises(ValueError):
        contract_edge(oc, (0, 5))  # antipodes: not an edge


def test_contract_edge_relabeling_convention():
    # path 0-1-2-3, contract (1, 3): illegal (not an edge); contract (2, 3):
    # merged vertex keeps label 2, nothing above shifts
    p4 = path_graph(4)
    m = contract_edge(p4, (2, 3))
    assert m == path_graph(3)
    # contract (0, 1) of the 4-cycle: vertices 2,3 shift down to 1,2
    c4 = cycle_graph(4)
    m = contract_edge(c4, (0, 1))
    assert m == graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_contract_edge_keeps_graph_simple():
    rng = random.Random(41)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 10), 0.4)
        e = g.edges()[rng.randrange(g.edge_count())]
        check_graph(contract_edge(g, e))


def test_contraction_search_examples():
    w8 = wheel_graph(8)
    assert contraction_search(w8, 0) == ()
    oc = underlying_graph(octahedron())
    assert contraction_search(oc, 0) is None
    assert contraction_search(oc, 1) == ((0, 1),)  # lexicographically least edge
    p5 = path_graph(5)
    assert contraction_search(p5, 1) is None  # no single contraction helps on P5
    assert contraction_search(p5, 10) is None  # k larger than any tree


def test_contraction_search_returns_lex_least_witness():
    """Brute-force all connected acyclic k-edge sets and compare minima."""
    rng = random.Random(53)
    cases = [underlying_graph(octahedron())]
    cases += [random_connected_graph(rng, rng.randint(5, 8), 0.45) for _ in range(8)]
    for g in cases:
        k = gamma_c_by_contraction(g).value - 1
        if k < 1:
            continue
        edge_list = g.edges()
        successes = []
        for combo in combinations(edge_list, k):
            span = 0
            for u, v in combo:
                span |= (1 << u) | (1 << v)
            if span.bit_count() != k + 1:  # not a tree
                continue
            sub = graph_from_edges(g.n, combo)
            seen = span & -span
            frontier = seen
            while frontier:
                nxt = 0
                for x in bits(frontier):
                    nxt |= sub.adj[x]
                frontier = nxt & span & ~seen
                seen |= frontier
            if seen != span:  # not connected
                continue
            if reference_minor_has_universal_merge(g, combo):
                successes.append(combo)
        want = min(successes)
        assert contraction_search(g, k) == want


def test_gamma_c_by_contraction_examples():
    assert gamma_c_by_contraction(complete_graph(4)).value == 1
    oc = underlying_graph(octahedron())
    cert = gamma_c_by_contraction(oc)
    assert cert.value == 2 and cert.method == METHOD_CONTRACTION
    assert is_dominating(oc, cert.witness) and induces_connected(oc, cert.witness)
    ico = underlying_graph(icosahedron())
    cert = gamma_c_by_contraction(ico)
    assert cert.value == 4  # found at k = 3
    assert cert.witness.bit_count() == 4
    assert is_dominating(ico, cert.witness) and induces_connected(ico, cert.witness)


def test_contraction_search_contracts_each_tree_edge_once(monkeypatch):
    """Each branch of the search carries its minor, so an edge is contracted
    once, when it joins the tree, and trees that share a prefix share its
    contractions: 243 calls on the icosahedron, where contracting every
    complete tree again from g took 432."""
    calls = []

    def counted(g, e, _contract=contract_edge):
        calls.append(e)
        return _contract(g, e)

    monkeypatch.setattr(domination, "contract_edge", counted)
    cert = gamma_c_by_contraction(underlying_graph(icosahedron()))
    assert cert == (4, 1035, METHOD_CONTRACTION)
    assert len(calls) == 243


def test_contraction_agrees_with_subset_search_small(levels_to_9):
    for n in (5, 6, 7, 8):
        for t in levels_to_9[n]:
            g = underlying_graph(t)
            assert gamma_c_by_contraction(g).value == exact_gamma_c(g).value


def test_contraction_agrees_on_random_graphs():
    rng = random.Random(43)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 10), 0.35)
        assert gamma_c_by_contraction(g).value == exact_gamma_c(g).value


def test_spanning_tree_of_minimum_cds_contracts_to_universal():
    """Contracting any spanning tree of a minimum connected dominating set
    merges it into a universal vertex: the forward direction behind the
    contraction method."""
    rng = random.Random(47)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(3, 9), 0.4)
        cert = exact_gamma_c(g)
        members = list(bits(cert.witness))
        k = len(members) - 1
        if k == 0:
            assert g.degree(members[0]) == g.n - 1
            continue
        # build a spanning tree of the induced subgraph by BFS
        inside = set(members)
        seen = {members[0]}
        queue = [members[0]]
        tree = []
        while queue:
            x = queue.pop(0)
            for y in bits(g.adj[x]):
                if y in inside and y not in seen:
                    seen.add(y)
                    tree.append((min(x, y), max(x, y)))
                    queue.append(y)
        assert len(tree) == k
        # contract the tree edge by edge from g: the merged vertex is universal
        assert reference_minor_has_universal_merge(g, tuple(tree))
        # and the search finds a witness at the same depth
        assert contraction_search(g, k) is not None


def test_classify_shortcuts_and_agreement(levels_to_9):
    searched = 0
    for t in levels_to_9[7] + levels_to_9[8]:
        g = underlying_graph(t)
        cert = classify(t)
        _, dmax, _ = degree_stats(g)
        if dmax == g.n - 1:
            assert cert.value == 1 and cert.method == METHOD_DELTA
        elif dmax == g.n - 2:
            assert cert.value == 2 and cert.method == METHOD_DELTA
        else:
            assert cert.method == METHOD_SUBSET
            searched += 1
        assert cert.value == gamma_c_by_contraction(g).value
        assert is_dominating(g, cert.witness)
        assert induces_connected(g, cert.witness)
    assert searched  # order 7 has only shortcut classes; order 8 does not


def test_classify_rejects_a_bad_witness(monkeypatch, levels_to_9):
    t9 = next(t for t in levels_to_9[9] if classify(t).method == METHOD_SUBSET)
    good = classify(t9)
    low = good.witness & (good.witness - 1)  # one vertex short
    for bad in (DominationCertificate(good.value, low, METHOD_SUBSET),
                DominationCertificate(good.value - 1, low, METHOD_SUBSET),
                DominationCertificate(good.value + 1, good.witness, METHOD_SUBSET)):
        monkeypatch.setattr(domination, "subset_gamma_c", lambda g, bad=bad: bad)
        with pytest.raises(AssertionError, match="no connected dominating set"):
            classify(t9)


def test_exact_solvers_recheck_their_witnesses(monkeypatch):
    """exact_gamma_c's subset route and exact_gamma check the witness they
    return: a search that hands back vertex 0 alone, or closed neighbourhoods
    that make vertex 0 look universal, raise AssertionError instead of
    answering 1.  The icosahedron (gamma_c 4, k0 = 2, so comb = 66 against
    3**w >= 81) is one graph that exact_gamma_c sends to the search."""
    ico = underlying_graph(icosahedron())
    assert exact_gamma_c(ico).method == METHOD_SUBSET
    with monkeypatch.context() as m:
        m.setattr(domination, "_minimum_cds", lambda g, collect_all, tables, k_min=1: [1])
        with pytest.raises(AssertionError,
                           match="subset-search returned no connected dominating set of size 1"):
            exact_gamma_c(ico)
    monkeypatch.setattr(domination, "_closed", lambda g: [g.full] * g.n)
    with pytest.raises(AssertionError, match="subset-search returned no dominating set of size 1"):
        exact_gamma(ico)


def test_classify_octahedron_uses_shortcut():
    cert = classify(octahedron())
    assert cert.value == 2
    assert cert.method == METHOD_DELTA


def test_classify_unique_order9_value3(levels_to_9):
    values = [classify(t).value for t in levels_to_9[9]]
    assert values.count(3) == 1
    t9 = levels_to_9[9][values.index(3)]
    cert = classify(t9)
    assert cert.method == METHOD_SUBSET
    # found via two contractions: a connected pair of edges works, one does not
    g = underlying_graph(t9)
    assert contraction_search(g, 1) is None
    assert contraction_search(g, 2) is not None


def _reference_certificate(g):
    want = reference_minimum_cds(g)[0]
    return DominationCertificate(want.bit_count(), want, METHOD_SUBSET)


def test_exact_gamma_c_certificates_match_reference_search(levels_to_11):
    """subset_gamma_c (scans up to size 3, the pruned search above) returns
    the very witness the search with only its coverage and distance prunes
    returns, and all_minimum_cds the same list.  The random graphs meet every
    gamma_c bucket and include non-planar ones."""
    graphs = [underlying_graph(t) for n in range(5, 11) for t in levels_to_11[n]]
    rng = random.Random(37)
    graphs += [random_connected_graph(rng, rng.randint(2, 13), rng.choice((0.15, 0.3, 0.5, 0.8)))
               for _ in range(200)]
    buckets = {1: 0, 2: 0, 3: 0, 4: 0}
    for g in graphs:
        cert = subset_gamma_c(g)
        assert cert == _reference_certificate(g)
        buckets[min(cert.value, 4)] += 1
    assert all(buckets.values()), buckets
    assert any(g.edge_count() > 3 * g.n - 6 for g in graphs if g.n >= 3)  # non-planar
    for t in levels_to_11[8]:
        g = underlying_graph(t)
        assert all_minimum_cds(g) == reference_minimum_cds(g, collect_all=True)


@st.composite
def connected_graphs(draw, max_n=12):
    """A random spanning tree on 2..max_n vertices plus random extra edges."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(u, v) for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v}
    return graph_from_edges(n, edges)


@given(connected_graphs())
def test_subset_gamma_c_matches_the_reference_search_property(g):
    assert subset_gamma_c(g) == _reference_certificate(g)


def test_subset_gamma_c_checks_its_input_before_scanning():
    """A one-vertex graph would pass the size-1 scan, so the order is checked
    before the scans.  Connectivity is proved by a scan's answer, a connected
    set that dominates, or checked before the search tables are built, so
    disconnected input keeps its message on both entry points, also where
    classify's Δ = n - 2 shortcut would look for a common neighbour."""
    disconnected = "graph is disconnected; graphs with more than one component"
    for g in (Graph(4, [0b10, 0b1, 0b1000, 0b100]), Graph(2, [0, 0])):
        with pytest.raises(ValueError, match=disconnected):
            subset_gamma_c(g)
    with pytest.raises(ValueError, match="connected domination needs at least two vertices"):
        subset_gamma_c(Graph(1, [0]))
    two_triangles = Triangulation(6, ((1, 2), (0, 2), (0, 1), (4, 5), (3, 5), (3, 4)))
    k4_and_isolated = Triangulation(5, ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2), ()))
    for t in (two_triangles, k4_and_isolated):  # the second has Δ = n - 2
        with pytest.raises(ValueError, match=disconnected):
            classify(t)


def test_classify_refuses_fewer_than_two_vertices():
    """The Δ shortcut would answer 1 for a single vertex; classify refuses it
    with the message of the other connected-domination entry points.  They
    check the order before connectivity, which is undefined for the empty
    graph, so it gets the same message."""
    one = Triangulation(1, ((),))
    refusals = [lambda: classify(one), lambda: classify(Triangulation(0, ())),
                lambda: subset_gamma_c(underlying_graph(one)),
                lambda: exact_gamma_c(underlying_graph(one)),
                lambda: gamma_c_by_contraction(underlying_graph(one))]
    refusals += [lambda fn=fn: fn(Graph(0, [])) for fn in (
        subset_gamma_c, exact_gamma_c, all_minimum_cds, gamma_c_by_contraction, bfs_tree_cds)]
    for refuse in refusals:
        with pytest.raises(ValueError, match="connected domination needs at least two vertices"):
            refuse()


def test_search_tables_are_built_only_from_gamma_c_4(monkeypatch, levels_to_11):
    """Every class of orders 5..10 has gamma_c <= 3 and is classified with no
    distance ball and no enumeration; the icosahedron (gamma_c = 4) needs both."""
    calls = []
    for name in ("_distance_balls", "enumerate_connected_sets"):
        def counted(*args, _fn=getattr(domination, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(domination, name, counted)
    for n in range(5, 11):
        for t in levels_to_11[n]:
            assert classify(t).value <= 3
    assert calls == []
    assert classify(icosahedron()).value == 4
    assert sorted(set(calls)) == ["_distance_balls", "enumerate_connected_sets"]


def test_exact_gamma_c_scans_before_building_tables(monkeypatch, levels_to_11):
    """exact_gamma_c answers gamma_c <= 3 by the scans alone: with _cds_tables
    raising, every class of orders 5..10 and K_n are still answered, by
    subset search, while the icosahedron (gamma_c = 4) reaches the tables."""
    def no_tables(g):
        raise RuntimeError("search tables built")

    monkeypatch.setattr(domination, "_cds_tables", no_tables)
    graphs = [underlying_graph(t) for n in range(5, 11) for t in levels_to_11[n]]
    for g in graphs + [complete_graph(6)]:
        cert = exact_gamma_c(g)
        assert cert.value <= 3 and cert.method == METHOD_SUBSET
    with pytest.raises(RuntimeError, match="search tables built"):
        exact_gamma_c(underlying_graph(icosahedron()))


def test_exact_gamma_c_subset_answers_are_subset_gamma_cs(levels_to_11):
    """Wherever exact_gamma_c answers by subset search, its certificate is
    subset_gamma_c's, for gamma_c <= 3 (the scans) and above (the search).
    The search answers the five order-12 classes with gamma_c = 4 (the
    icosahedron among them) and many denser random graphs."""
    graphs = [underlying_graph(t) for n in range(5, 11) for t in levels_to_11[n]]
    graphs += [underlying_graph(t) for n, level in levels(12) if n == 12
               for t in dict(level).values() if classify(t).value == 4]
    rng = random.Random(43)
    graphs += [random_connected_graph(rng, rng.randint(2, 14), rng.choice((0.15, 0.25, 0.5)))
               for _ in range(300)]
    graphs += [random_connected_graph(rng, rng.randint(12, 18), 0.3) for _ in range(60)]
    searched = {"scans": 0, "search": 0}
    for g in graphs:
        cert = exact_gamma_c(g)
        if cert.method == METHOD_SUBSET:
            assert cert == subset_gamma_c(g)
            searched["scans" if cert.value <= 3 else "search"] += 1
    assert searched["search"] >= 10, searched


def test_packing_prune_cuts_the_chain_search(monkeypatch):
    visited = []

    def counted(g, max_size, visitor, _enum=domination.enumerate_connected_sets):
        visited.append(_enum(g, max_size, visitor))
        return visited[-1]

    monkeypatch.setattr(domination, "enumerate_connected_sets", counted)
    cert = subset_gamma_c(underlying_graph(icosa_chain(3)))
    assert cert.value == 9
    assert sum(visited) <= 180_000  # 690,366 without the packing prune


def test_frontier_dp_agrees_with_subset_search(levels_to_11):
    """The DP, run on _dp_order's order whatever exact_gamma_c would route,
    gives subset search's value with a verified witness on every class of
    orders 5..10 and a random relabelling of each, on random connected
    graphs and on chains 2 and 3."""
    classes = [t for n in range(5, 11) for t in levels_to_11[n]]
    graphs = [underlying_graph(t) for t in classes]
    shuffle = random.Random(59)
    graphs += [underlying_graph(relabel(t, random_permutation(shuffle, t.n))) for t in classes]
    rng = random.Random(41)
    graphs += [random_connected_graph(rng, rng.randint(2, 12), rng.choice((0.2, 0.3, 0.5)))
               for _ in range(200)]
    graphs += [underlying_graph(icosa_chain(k)) for k in (2, 3)]
    for g in graphs:
        cert = domination._frontier_dp(g, domination._dp_order(g, g.n + 1)[1])
        assert cert.method == METHOD_FRONTIER
        assert cert.value == subset_gamma_c(g).value
        assert cert.witness.bit_count() == cert.value
        assert is_dominating(g, cert.witness)
        assert induces_connected(g, cert.witness)


def test_frontier_dp_chain_law():
    """icosa_chain(k) has gamma_c = ceil(5k/2) + 1 for k = 2..12."""
    for k in range(2, 13):
        g = underlying_graph(icosa_chain(k))
        cert = exact_gamma_c(g)
        assert cert.value == (5 * k + 1) // 2 + 1, k
        assert is_dominating(g, cert.witness) and induces_connected(g, cert.witness)


def test_frontier_dp_family_values_to_100():
    """gamma_c = k for A and B at every k the docs claim: 5..60, 80 and 100."""
    for which in ("A", "B"):
        for k in [*range(5, 61), 80, 100]:
            g = underlying_graph(family(which, k))
            cert = exact_gamma_c(g)
            assert cert.value == k, (which, k)
            assert is_dominating(g, cert.witness) and induces_connected(g, cert.witness)


def test_exact_gamma_c_routes_by_frontier_width():
    """The DP runs iff 3**w < comb(n, k0), w the width of _dp_order's order:
    thin members go to it however they are labelled, and A5 too (w = 4,
    81 < comb(15, 3) = 455); K6 (answered by the scans) and the icosahedron
    (w >= its minimum degree 5, comb(12, 2) = 66) do not."""
    a30 = family("A", 30)
    routed = {
        "A5": underlying_graph(family("A", 5)),
        "A10": underlying_graph(family("A", 10)),
        "chain3": underlying_graph(icosa_chain(3)),
        "A30 relabelled": underlying_graph(relabel(a30, random_permutation(random.Random(3), a30.n))),
        "K6": complete_graph(6),
        "icosahedron": underlying_graph(icosahedron()),
    }
    methods = {name: exact_gamma_c(g).method for name, g in routed.items()}
    assert methods == {"A5": METHOD_FRONTIER, "A10": METHOD_FRONTIER, "chain3": METHOD_FRONTIER,
                       "A30 relabelled": METHOD_FRONTIER,
                       "K6": METHOD_SUBSET, "icosahedron": METHOD_SUBSET}
    for name, g in routed.items():
        width = domination._dp_order(g, g.n + 1)[0]
        if name != "K6":
            assert (3 ** width < comb(g.n, domination._cds_tables(g)[-1])) \
                == (methods[name] == METHOD_FRONTIER), name
    assert order_width(routed["A30 relabelled"], range(90)) > 50  # the label order is wide


def test_dp_order_is_a_permutation_of_its_width(levels_to_11):
    """_dp_order returns a vertex order and its width, recomputed here from
    the definition; it is never wider than the label order, and it is the
    label order itself unless strictly narrower.  A cap at or below the
    minimum degree returns the label order without growing one."""
    rng = random.Random(53)
    graphs = [underlying_graph(t) for n in range(5, 11) for t in levels_to_11[n]]
    graphs += [random_connected_graph(rng, rng.randint(2, 16), rng.choice((0.15, 0.3, 0.6)))
               for _ in range(200)]
    for t in (family("A", 12), family("B", 12), icosa_chain(3)):
        graphs += [underlying_graph(t), underlying_graph(relabel(t, random_permutation(rng, t.n)))]
    narrower = 0
    for g in graphs:
        width, order = domination._dp_order(g, g.n + 1)
        assert sorted(order) == list(range(g.n))
        assert width == order_width(g, order)
        label = order_width(g, range(g.n))
        assert width <= label
        assert (order == list(range(g.n))) == (width == label)
        narrower += width < label
        assert domination._dp_order(g, min(g.degrees())) == (label, list(range(g.n)))
    assert narrower >= len(graphs) // 2


@pytest.mark.parametrize("which, k", [("A", 30), ("A", 100), ("B", 30), ("B", 100),
                                      ("chain", 4), ("chain", 10)])
def test_relabelled_members_reach_the_frontier_dp(which, k):
    """Seeded relabellings of the extremal members keep a narrow order (at
    most 5 for A and B, 10 for chains) and get their law's value from the
    DP: gamma_c = k for A and B, ceil(5k/2) + 1 for chains."""
    t = icosa_chain(k) if which == "chain" else family(which, k)
    want, most = ((5 * k + 1) // 2 + 1, 10) if which == "chain" else (k, 5)
    for seed in (1, 2):
        g = underlying_graph(relabel(t, random_permutation(random.Random(seed), t.n)))
        assert domination._dp_order(g, g.n + 1)[0] <= most
        cert = exact_gamma_c(g)
        assert (cert.value, cert.method) == (want, METHOD_FRONTIER)
        assert is_dominating(g, cert.witness) and induces_connected(g, cert.witness)


#: SHA-256 of the "name value witness-hex method" lines below, as the byte
#: states' DP gave them: a moved witness, value or route fails the test.
EXACT_GAMMA_C_PIN = "a6ca3145f33831c97e9aa1d3f453b1d93e3dd4272526bef0dda2622911a136dc"


def test_exact_gamma_c_certificates_are_pinned():
    """exact_gamma_c's certificates, byte for byte, on A and B at k = 5..16,
    icosa_chain(k) for k = 2..10 and three seeded relabellings each of A30
    and icosa_chain(10); the first lines and the last are spelled out."""
    members = [(f"{w}{k}", family(w, k)) for w in ("A", "B") for k in range(5, 17)]
    members += [(f"chain{k}", icosa_chain(k)) for k in range(2, 11)]
    for name, t in (("A30", family("A", 30)), ("chain10", icosa_chain(10))):
        members += [(f"{name} seed {seed}",
                     relabel(t, random_permutation(random.Random(seed), t.n))) for seed in (0, 1, 2)]
    lines = []
    for name, t in members:
        cert = exact_gamma_c(underlying_graph(t))
        lines.append(f"{name} {cert.value} {cert.witness:x} {cert.method}\n")
    assert lines[:2] == ["A5 5 664 frontier-dp\n", "A6 6 3292 frontier-dp\n"]
    assert lines[-1] == "chain10 seed 2 26 94442524728021020204180b1 frontier-dp\n"
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == EXACT_GAMMA_C_PIN

