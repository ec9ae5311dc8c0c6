import hashlib
import importlib.util
import json
import os

import pytest

from tridom import cli, domination, families, generate
from tridom.domination import (
    all_minimum_cds,
    classify,
    exact_gamma,
    exact_gamma_c,
    subset_gamma_c,
)
from tridom.families import (
    FamilySpec,
    expected_family_value,
    family,
    family_base,
    icosa_chain,
    icosahedron,
    octahedron_sum,
)
from tridom.generate import K4
from tridom.graphs import graph6_write, induces_connected, is_dominating, vset
from tridom.planar import (
    canonical_code,
    faces,
    is_face,
    underlying_graph,
    verify_triangulation,
)

from helpers import (check_graph, from_face_list, graph_from_edges, icosahedron_faces, octahedron,
                     planar_code_write, reference_octahedron_sum, relabel)

# The sum reports live in the extremal demo, which is loaded by path.
_DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos", "extremal_families.py")
_spec = importlib.util.spec_from_file_location("extremal_families", _DEMO)
extremal_demo = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(extremal_demo)
octahedron_sum_report = extremal_demo.octahedron_sum_report


def test_octahedron_is_the_4_regular_6_vertex_triangulation():
    oc = octahedron()
    assert oc.n == 6
    assert verify_triangulation(oc).ok
    assert underlying_graph(oc).degrees() == [4] * 6


def test_octahedron_sum_structure():
    child = octahedron_sum(K4, faces(K4)[0])
    assert child.n == 7
    assert child.edge_count() == K4.edge_count() + 9
    assert verify_triangulation(child).ok
    site = (K4.n, K4.n + 1, K4.n + 2)
    assert is_face(child, site)
    # iterate on the fresh triangle
    grand = octahedron_sum(child, site)
    assert grand.n == 10
    assert verify_triangulation(grand).ok
    with pytest.raises(ValueError):
        octahedron_sum(K4, (0, 2, 1))


# sha256 of the repr of the list of members' rotation rows: A and B for
# k = 3..100, chains for k = 2..7
MEMBER_DIGESTS = {
    "A": "08459e05199bde941796b01b8873363a9cb42194faaa5913007442b7cf6617ea",
    "B": "deb983654e7aa6a3bdb38ad5321f177913c805ac7c4a5be52520e6272192f8c9",
    "chain": "d404083f54bde2ddaa5384c631d3282c6ec0d82b06fcd7bf4ad2e5738d9abce6",
}


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_members_match_the_reference_sum_byte_for_byte():
    """octahedron_sum is three vertex insertions; it gives the rows of the
    hand-written reference sum on every face of the icosahedron and of both
    bases, and for every member of A and B at k = 3..100.  The members'
    rows, and those of chains 2..7, are pinned by digest."""
    for base in (icosahedron(), family_base("A")[0], family_base("B")[0]):
        for f in faces(base):
            assert octahedron_sum(base, f).rot == reference_octahedron_sum(base, f).rot
    for which in "AB":
        t, site = family_base(which)
        members = []
        for k in range(3, 101):
            assert family(which, k).rot == t.rot, (which, k)
            members.append(t.rot)
            t, site = reference_octahedron_sum(t, site), (t.n, t.n + 1, t.n + 2)
        assert _digest(members) == MEMBER_DIGESTS[which]
    assert _digest([icosa_chain(k).rot for k in range(2, 8)]) == MEMBER_DIGESTS["chain"]


def test_octahedron_sum_gadget_is_an_octahedron():
    # the six gadget vertices a,b,c,e,f,g induce the 4-regular triangulation
    f = faces(K4)[0]
    child = octahedron_sum(K4, f)
    g = underlying_graph(child)
    gadget = vset(f) | vset([4, 5, 6])
    degrees_within = [(g.adj[v] & gadget).bit_count() for v in sorted(
        [f[0], f[1], f[2], 4, 5, 6])]
    assert degrees_within == [4] * 6


def test_family_bases(levels_to_9):
    tb, fb = family_base("B")
    gb = underlying_graph(tb)
    assert tb.n == 9 and tb.edge_count() == 21
    assert exact_gamma(gb).value == 2
    assert exact_gamma_c(gb).value == 3
    ta, fa = family_base("A")
    ga = underlying_graph(ta)
    assert ta.n == 9 and ta.edge_count() == 21
    assert exact_gamma_c(ga).value == 2
    fmask = vset(fa)
    assert all((s & fmask) == 0 for s in all_minimum_cds(ga))
    with pytest.raises(ValueError):
        family_base("C")
    # the stored A base is the code-least order-9 class with value 2 that has
    # a face avoiding every minimum set, and the face is the first such face
    for t in levels_to_9[9]:
        minima = all_minimum_cds(underlying_graph(t))
        avoiding = [f for f in faces(t) if all((s & vset(f)) == 0 for s in minima)]
        if minima[0].bit_count() == 2 and avoiding:
            break
    assert (canonical_code(ta), fa) == (canonical_code(t), avoiding[0])
    assert ta.rot == t.rot


def test_family_b_base_is_unique_value3_graph(levels_to_9):
    with_3 = [t for t in levels_to_9[9] if classify(t).value == 3]
    assert len(with_3) == 1
    keeping = [f for f in faces(with_3[0]) if classify(octahedron_sum(with_3[0], f)).value == 3]
    tb, fb = family_base("B")
    assert (canonical_code(tb), fb) == (canonical_code(with_3[0]), keeping[0])
    assert tb.rot == with_3[0].rot


def test_sum_report_family_a_base_predicts_plus_two():
    ta, fa = family_base("A")
    rep = octahedron_sum_report(ta, fa)
    assert rep.base_value == 2
    assert rep.face_hits == 0
    assert rep.predicted_increment == 2
    assert rep.summed_value == 4
    assert rep.consistent is True


def test_sum_report_family_a_second_stage_predicts_plus_one():
    ta, fa = family_base("A")
    t12 = octahedron_sum(ta, fa)
    rep = octahedron_sum_report(t12, (ta.n, ta.n + 1, ta.n + 2))
    assert rep.base_value == 4
    assert rep.face_hits == 1
    assert rep.predicted_increment == 1
    assert rep.summed_value == 5
    assert rep.consistent is True


def test_sum_report_family_b_base_increment_zero():
    tb, fb = family_base("B")
    rep = octahedron_sum_report(tb, fb)
    assert rep.base_value == 3
    assert rep.summed_value == 3
    assert rep.observed_increment == 0
    assert rep.face_hits >= 2       # outside the predictable cases
    assert rep.predicted_increment is None
    assert rep.consistent is None


def test_sum_reports_consistent_along_construction_paths():
    """Wherever a construction-path face meets the minimum sets 0 or 1
    times, the observed increment must equal the predicted one."""
    for which in ("A", "B"):
        t, site = family_base(which)
        while t.n <= 15:
            rep = octahedron_sum_report(t, site)
            if rep.predicted_increment is not None:
                assert rep.consistent is True, (which, t.n, rep)
            t, site = octahedron_sum(t, site), (t.n, t.n + 1, t.n + 2)


def test_family_values_quick():
    for which in ("A", "B"):
        for k in range(3, 11):
            t = family(which, k)
            assert t.n == 3 * k
            got = exact_gamma_c(underlying_graph(t)).value
            assert got == expected_family_value(which, k), (which, k, got)
    with pytest.raises(ValueError):
        family("A", 2)


def _count_solves(monkeypatch):
    """Count the solves made through the modules that build and print members.

    families holds nothing from domination, so it could solve only through
    that module's classify or all_minimum_cds; cli solves with exact_gamma_c.
    """
    assert not [name for name, value in vars(families).items()
                if value is domination or getattr(value, "__module__", None) == domination.__name__]
    calls = []

    def counting(solve):
        def counted(x):
            calls.append(x.n)
            return solve(x)
        return counted

    for module, name, solve in ((domination, "classify", classify),
                                (domination, "all_minimum_cds", all_minimum_cds),
                                (cli, "exact_gamma_c", exact_gamma_c)):
        monkeypatch.setattr(module, name, counting(solve))
    return calls


def test_family_base_generates_and_solves_nothing(monkeypatch):
    levels_calls = []
    levels = generate.levels

    def counted_levels(n_max):
        levels_calls.append(n_max)
        return levels(n_max)

    monkeypatch.setattr(generate, "levels", counted_levels)
    calls = _count_solves(monkeypatch)
    family_base.cache_clear()
    for which in ("A", "B"):
        assert family_base(which)[0].n == 9
    assert levels_calls == [] and calls == []


def test_family_build_solves_nothing(monkeypatch):
    family_base("A")  # cached: every later build starts from it
    calls = _count_solves(monkeypatch)
    assert FamilySpec("A", 8).build().n == 24
    assert calls == []


def test_family_values_solves_the_member_once(monkeypatch, tmp_path, capsys):
    family_base("A")
    calls = _count_solves(monkeypatch)
    assert cli.main(["family", "--which", "A", "--k", "8", "--values",
                     "--out", str(tmp_path / "a8.plc")]) == 0
    assert calls == [24]
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (info["n"], info["gamma_c"]) == (24, 8)


def test_family_values_reports_a_broken_law(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "expected_family_value", lambda which, k: k + 1)
    assert cli.main(["family", "--which", "A", "--k", "5", "--values",
                     "--out", str(tmp_path / "a5.plc")]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out.strip().splitlines()[-1])["gamma_c"] == 5
    assert "family A at k=5 has connected domination number 5, expected 6" in err


def test_family_gamma_values():
    """Exact domination numbers 7, 8, 9 at k = 12, 14, 16, each with a dominating witness."""
    for which in ("A", "B"):
        for k, want in ((12, 7), (14, 8), (16, 9)):
            g = underlying_graph(family(which, k))
            cert = exact_gamma(g)
            assert (cert.value, cert.witness.bit_count()) == (want, want), (which, k)
            assert is_dominating(g, cert.witness)


def test_family_orders_scale_with_k():
    for which, k in (("A", 6), ("B", 5)):
        t = family(which, k)
        assert t.n == 3 * k
        assert verify_triangulation(t).ok


def test_expected_family_values():
    assert [expected_family_value("A", k) for k in range(3, 8)] == [2, 4, 5, 6, 7]
    assert [expected_family_value("B", k) for k in range(3, 7)] == [3, 3, 5, 6]


def test_icosahedron_stats():
    ico = icosahedron()
    assert ico.n == 12
    assert ico.edge_count() == 30
    assert len(faces(ico)) == 20
    g = underlying_graph(ico)
    assert exact_gamma(g).value == 2
    assert exact_gamma_c(g).value == 4


#: sha256 of repr([icosa_chain(k).rot for k in 2..12]), taken when the
#: icosahedron was still built by tracing its face list.
CHAIN_DIGEST_2_TO_12 = "87ae6cfe0fa375e53bb700e1019d079b63a80df276c130c424884b53210a934b"


def test_icosahedron_is_stored_data():
    """The stored rotation table is the one the face list gives, with every
    label in place: it is a triangulation with the face (0, 1, 2), its code is
    the only 5-regular class of order 12, and the chains built on it keep
    their rows."""
    ico = icosahedron()
    assert ico.rot == from_face_list(12, icosahedron_faces()).rot
    assert verify_triangulation(ico).ok
    assert is_face(ico, (0, 1, 2))
    order12 = next(level for n, level in generate.levels(12) if n == 12)
    regular = [code for code, t in order12 if all(len(r) == 5 for r in t.rot)]
    assert regular == [canonical_code(ico)]
    assert _digest([icosa_chain(k).rot for k in range(2, 13)]) == CHAIN_DIGEST_2_TO_12


def test_icosahedron_code_same_from_every_face():
    """Re-rooting the designated outer face anywhere leaves the canonical
    code unchanged (the graph is face-transitive)."""
    ico = icosahedron()
    base = canonical_code(ico)
    for f in faces(ico):
        perm = [None] * 12
        perm[f[0]], perm[f[1]], perm[f[2]] = 0, 1, 2
        nxt = 3
        for v in range(12):
            if perm[v] is None:
                perm[v] = nxt
                nxt += 1
        assert canonical_code(relabel(ico, perm)) == base


def test_icosa_chain_structure():
    t2 = icosa_chain(2)
    assert t2.n == 22
    assert verify_triangulation(t2).ok
    t3 = icosa_chain(3)
    assert t3.n == 32
    assert verify_triangulation(t3).ok
    t4 = icosa_chain(4)
    assert t4.n == 42
    assert verify_triangulation(t4).ok
    with pytest.raises(ValueError):
        icosa_chain(1)


def test_canonical_code_rejects_orders_from_256():
    t = icosa_chain(26)
    assert t.n == 262
    with pytest.raises(ValueError, match="canonical codes support orders below 256, got 262"):
        canonical_code(t)


def test_only_the_formats_cap_the_order():
    t = icosa_chain(13)
    assert t.n == 132 and verify_triangulation(t).ok
    g = underlying_graph(t)
    assert check_graph(g) is g
    assert graph_from_edges(130, [(v, v + 1) for v in range(129)]).edge_count() == 129
    with pytest.raises(ValueError, match="below 128"):
        planar_code_write([t])
    with pytest.raises(ValueError, match="exceeds 128"):
        graph6_write(g)


def test_icosa_chain_2_values():
    g = underlying_graph(icosa_chain(2))
    assert exact_gamma(g).value == 3
    assert exact_gamma_c(g).value == 6


def test_icosa_chain_4_values():
    """At k = 4 the gap is 6, not the 2k - 1 = 7 of k = 2, 3.  Subset search
    and the frontier DP both give gamma_c = 11 with verified witnesses."""
    g = underlying_graph(icosa_chain(4))
    assert exact_gamma(g).value == 5
    dp = domination._frontier_dp(g, domination._dp_order(g, g.n + 1)[1])
    for cert in (subset_gamma_c(g), dp):
        assert cert.value == 11
        assert cert.witness.bit_count() == 11
        assert is_dominating(g, cert.witness)
        assert induces_connected(g, cert.witness)


def test_icosa_chain_dominating_witness_structure():
    """The least minimum dominating set is the shared vertex plus one
    interior vertex per icosahedron copy."""
    from tridom.graphs import bits
    for k in (2, 3):
        g = underlying_graph(icosa_chain(k))
        cert = exact_gamma(g)
        assert cert.value == k + 1
        members = set(bits(cert.witness))
        assert 0 in members  # the vertex every copy shares
        interiors = [set(range(3, 12))]
        interiors += [set(range(12 + (i - 2) * 10 + 1, 12 + (i - 2) * 10 + 10))
                      for i in range(2, k + 1)]
        rest = members - {0}
        assert len(rest) == k
        for zone in interiors:
            assert len(rest & zone) == 1


def test_family_spec_validation():
    assert FamilySpec("A", 3).build().n == 9
    assert FamilySpec("chain", 2).build().n == 22
    with pytest.raises(ValueError, match=r"^families A and B need k >= 3$"):
        FamilySpec("A", 2)
    with pytest.raises(ValueError, match=r"^chains need k >= 2$"):
        FamilySpec("chain", 1)
    with pytest.raises(ValueError, match=r"^unknown family kind 'C'$"):
        FamilySpec("C", 5)
