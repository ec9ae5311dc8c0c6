import random

import pytest
from hypothesis import given, strategies as st

from tridom.graphs import (
    Graph,
    PRUNE,
    STOP,
    bits,
    degree_stats,
    enumerate_connected_sets,
    graph6_read,
    graph6_write,
    induces_connected,
    is_dominating,
    vset,
)
from tridom.planar import underlying_graph
from tridom.families import icosahedron

from helpers import (check_graph, complete_graph, cycle_graph, graph_from_edges, octahedron,
                     path_graph, powerset_connected_sets, random_connected_graph, star_graph,
                     wheel_graph)


def test_vset_bits_round_trip():
    assert vset([0, 3, 7]) == 0b10001001
    assert list(bits(0b10001001)) == [0, 3, 7]
    assert list(bits(0)) == []


def test_graph_constructors_and_checks():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert g.degrees() == [1, 2, 1]
    assert g.edges() == [(0, 1), (1, 2)]
    check_graph(g)
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        graph_from_edges(0, [])
    with pytest.raises(ValueError):
        check_graph(Graph(3, [0b010, 0b000, 0b010]))  # asymmetric


def test_all_constructors_produce_simple_symmetric_graphs():
    for g in (complete_graph(6), path_graph(5), cycle_graph(7), star_graph(6),
              wheel_graph(8), graph_from_edges(4, [(0, 1), (2, 3), (1, 2)])):
        check_graph(g)


def test_icosahedron_closed_neighborhoods_are_six():
    g = underlying_graph(icosahedron())
    for v in range(12):
        assert g.degree(v) == 5
        assert (g.adj[v] | 1 << v).bit_count() == 6


def test_is_dominating_basics():
    k4 = complete_graph(4)
    assert is_dominating(k4, vset([0]))
    p3 = path_graph(3)
    assert is_dominating(p3, vset([1]))
    assert not is_dominating(p3, vset([0]))
    with pytest.raises(ValueError):
        is_dominating(p3, vset([3]))


def test_icosahedron_antipodal_pair_dominates():
    g = underlying_graph(icosahedron())
    hits = [v for v in range(1, 12) if is_dominating(g, vset([0, v]))]
    assert len(hits) == 1  # exactly the antipode
    v = hits[0]
    assert not g.adj[0] >> v & 1
    # adjacent pairs never dominate
    for u in bits(g.adj[0]):
        assert not is_dominating(g, vset([0, u]))


def test_domination_monotone_under_supersets():
    rng = random.Random(7)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 9), 0.4)
        s = vset(rng.sample(range(g.n), rng.randint(1, g.n)))
        if is_dominating(g, s):
            extra = s | (1 << rng.randrange(g.n))
            assert is_dominating(g, extra)


def test_induces_connected():
    p3 = path_graph(3)
    assert induces_connected(p3, vset([0]))
    assert not induces_connected(p3, vset([0, 2]))
    c5 = cycle_graph(5)
    assert induces_connected(c5, vset([0, 1, 2]))
    assert not induces_connected(c5, vset([0, 2]))
    with pytest.raises(ValueError):
        induces_connected(p3, 0)


def test_degree_stats():
    assert degree_stats(complete_graph(4)) == (3, 3, 0)
    assert degree_stats(underlying_graph(octahedron())) == (4, 4, 0)
    w7 = wheel_graph(7)
    assert degree_stats(w7) == (3, 6, 6)  # hub is vertex 6


def test_enumerate_connected_sets_counts():
    k3 = complete_graph(3)
    assert enumerate_connected_sets(k3, 2, lambda s: None) == 6
    p3 = path_graph(3)
    twos = []
    enumerate_connected_sets(p3, 2, lambda s: twos.append(s) if s.bit_count() == 2 else None)
    assert sorted(twos) == [vset([0, 1]), vset([1, 2])]
    k4 = complete_graph(4)
    assert enumerate_connected_sets(k4, 3, lambda s: None) == 14


def test_enumerate_connected_sets_matches_powerset_filter():
    rng = random.Random(11)
    graphs = [complete_graph(4), path_graph(6), cycle_graph(7), star_graph(5)]
    graphs += [random_connected_graph(rng, n, 0.45) for n in (5, 6, 7, 8)]
    for g in graphs:
        for max_size in (1, 3, g.n):
            got = []
            enumerate_connected_sets(g, max_size, got.append)
            assert len(got) == len(set(got))  # visited exactly once
            assert set(got) == powerset_connected_sets(g, max_size)


def test_enumerate_connected_sets_deterministic_order():
    g = cycle_graph(6)
    a, b = [], []
    enumerate_connected_sets(g, 4, a.append)
    enumerate_connected_sets(g, 4, b.append)
    assert a == b


def test_enumerate_connected_sets_early_stop_and_prune():
    g = complete_graph(5)
    seen = []

    def stop_after_three(s):
        seen.append(s)
        if len(seen) == 3:
            return STOP
        return None

    assert enumerate_connected_sets(g, 5, stop_after_three) == 3

    only_singletons = []
    count = enumerate_connected_sets(g, 5, lambda s: only_singletons.append(s) or PRUNE)
    assert count == 5
    assert all(s.bit_count() == 1 for s in only_singletons)

    with pytest.raises(ValueError):
        enumerate_connected_sets(g, 0, lambda s: None)


def test_graph6_known_encodings():
    assert graph6_write(complete_graph(4)) == "C~"
    assert graph6_write(complete_graph(3)) == "Bw"
    assert graph6_write(path_graph(3)) == "Bg"
    assert graph6_write(Graph(5, [0] * 5)) == "D??"  # empty 5-vertex graph


def test_graph6_round_trips():
    rng = random.Random(3)
    cases = [complete_graph(4), Graph(5, [0] * 5), cycle_graph(9),
             underlying_graph(icosahedron())]
    cases += [random_connected_graph(rng, n, 0.3) for n in (10, 30, 63, 70)]
    for g in cases:
        text = graph6_write(g)
        h = graph6_read(text)
        assert h == g
        assert graph6_write(h) == text


def test_graph6_icosahedron_degree_sequence_preserved():
    g = underlying_graph(icosahedron())
    h = graph6_read(graph6_write(g))
    assert h.degrees() == [5] * 12


def test_graph6_errors():
    with pytest.raises(ValueError):
        graph6_read("")
    with pytest.raises(ValueError):
        graph6_read("C~X")  # trailing garbage
    with pytest.raises(ValueError):
        graph6_read("C")  # truncated body
    with pytest.raises(ValueError):
        graph6_read("C\x10")  # character out of range
    with pytest.raises(ValueError):
        graph6_read("?")  # order 0
    assert graph6_read(">>graph6<<C~") == complete_graph(4)


@given(st.text(max_size=40) | st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=128),
                                       max_size=40))
def test_graph6_read_rejects_any_bad_text_with_value_error(text):
    try:
        g = graph6_read(text)
    except ValueError:
        return
    assert graph6_read(graph6_write(g)).adj == g.adj
