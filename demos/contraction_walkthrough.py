#!/usr/bin/env python3
"""The edge-contraction route to the connected domination number, stepwise.

A graph has gamma_c <= k+1 exactly when some connected, acyclic set of k
edges contracts to a universal vertex: contracting a spanning tree of a
minimum connected dominating set merges it into a vertex adjacent to
everything else.  Searching k = 0, 1, 2, ... therefore finds gamma_c at the
first success.  This walkthrough runs the search on the icosahedron and
checks the result against the independent subset-search solver.
``contraction_search`` returns the least such edge set; the vertices it
spans form the connected dominating set, and the merged vertex has degree
n - k - 1.
"""

import tridom as td
from tridom.domination import contraction_search


def main() -> None:
    ico = td.icosahedron()
    g = td.underlying_graph(ico)
    print(f"icosahedron: n={g.n}, 5-regular, {g.edge_count()} edges")

    for k in range(0, 6):
        edges = contraction_search(g, k)
        if edges is None:
            print(f"  k={k}: no connected {k}-edge set contracts to a universal vertex")
        else:
            span = sorted({x for e in edges for x in e})
            print(f"  k={k}: success! edges {edges} span vertices {span}, "
                  f"universal degree {g.n - k - 1}")
            break

    by_contraction = td.gamma_c_by_contraction(g)
    by_subsets = td.exact_gamma_c(g)
    print(f"\ncontraction solver: gamma_c = {by_contraction.value}, "
          f"witness {sorted(td.bits(by_contraction.witness))}")
    print(f"subset search:      gamma_c = {by_subsets.value}, "
          f"witness {sorted(td.bits(by_subsets.witness))}")
    assert by_contraction.value == by_subsets.value

    w = by_contraction.witness
    print(f"witness re-verifies: dominating={td.is_dominating(g, w)}, "
          f"connected={td.induces_connected(g, w)}")

    print("\nmax-degree shortcuts used by the census classifier:")
    for t in td.triangulations(7):
        cert = td.classify(t)
        degs = td.underlying_graph(t).degrees()
        print(f"  order 7, max degree {max(degs)}: gamma_c={cert.value} via {cert.method}")


if __name__ == "__main__":
    main()
