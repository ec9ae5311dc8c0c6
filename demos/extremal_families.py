#!/usr/bin/env python3
"""Build the extremal families and watch their domination numbers move.

Families A and B iterate the octahedron clique-sum on a fresh triangle:
order grows by 3 per step while gamma_c climbs to n/3.  The increment per
step is readable off the chosen face: if it avoids every minimum connected
dominating set the value jumps by 2, if it meets each at most once the value
climbs by 1.  The icosahedron chains open a gap between gamma and gamma_c:
gamma = k + 1 and gamma_c = ceil(5k/2) + 1, so the gap is ceil(3k/2)
(3, 5, 6, 8, ... for k = 2, 3, 4, 5, ...).  The law was measured for
k = 2..30; exact_gamma_c solves these chains with the frontier DP, so the
walk below runs to k = 8 in about a second.  The sum reports are defined
here: the package builds members without solving them.
"""

from dataclasses import dataclass
from typing import Optional

import tridom as td
from tridom.domination import all_minimum_cds
from tridom.planar import Face, Triangulation, is_face


@dataclass(frozen=True)
class SumReport:
    """How one octahedron sum moved the connected domination number.

    face_hits is the largest overlap between the chosen face and any minimum
    connected dominating set of the base.  Overlap 0 predicts an increment
    of 2 and overlap 1 an increment of 1; larger overlaps carry no
    prediction and consistent is None.
    """
    base_value: int
    summed_value: int
    face_hits: int
    predicted_increment: Optional[int]
    observed_increment: int
    consistent: Optional[bool]


def octahedron_sum_report(t: Triangulation, f: Face) -> SumReport:
    if not is_face(t, f):
        raise ValueError(f"{f} is not a face")
    g = td.underlying_graph(t)
    fmask = (1 << f[0]) | (1 << f[1]) | (1 << f[2])
    minima = all_minimum_cds(g)
    hits = max((s & fmask).bit_count() for s in minima)
    base = minima[0].bit_count()
    summed = td.classify(td.octahedron_sum(t, f)).value
    predicted = {0: 2, 1: 1}.get(hits)
    observed = summed - base
    consistent = (observed == predicted) if predicted is not None else None
    return SumReport(base, summed, hits, predicted, observed, consistent)


def family_walk(which: str, k_max: int) -> None:
    t, site = td.family_base(which)
    g = td.underlying_graph(t)
    print(f"\nfamily {which}: base has n={t.n}, gamma={td.exact_gamma(g).value}, "
          f"gamma_c={td.exact_gamma_c(g).value}, designated face {site}")
    k = 3
    while k < k_max:
        rep = octahedron_sum_report(t, site)
        if rep.predicted_increment is None:
            verdict = "no prediction for overlap >= 2"
        else:
            verdict = (f"predicted +{rep.predicted_increment}, "
                       + ("matches" if rep.consistent else "MISMATCH"))
        print(f"  sum on {site}: face meets minimum sets {rep.face_hits}x, "
              f"gamma_c {rep.base_value} -> {rep.summed_value} ({verdict})")
        t, site = td.octahedron_sum(t, site), (t.n, t.n + 1, t.n + 2)
        k += 1
    print(f"  final member: n={t.n} = 3*{k}, gamma_c={td.exact_gamma_c(td.underlying_graph(t)).value}")


def chains() -> None:
    print("\nicosahedron chains: gamma = k + 1, gamma_c = ceil(5k/2) + 1, gap ceil(3k/2)")
    for k in range(2, 9):
        t = td.icosa_chain(k)
        g = td.underlying_graph(t)
        gamma = td.exact_gamma(g).value
        gamma_c = td.exact_gamma_c(g).value
        law = "law holds" if (gamma, gamma_c) == (k + 1, (5 * k + 1) // 2 + 1) else "LAW BROKEN"
        print(f"  k={k}: n={t.n}, gamma={gamma}, gamma_c={gamma_c}, gap={gamma_c - gamma} ({law})")


def main() -> None:
    ico = td.underlying_graph(td.icosahedron())
    print(f"icosahedron: gamma={td.exact_gamma(ico).value}, "
          f"gamma_c={td.exact_gamma_c(ico).value} "
          "(the smallest triangulation with gap > 1)")
    family_walk("A", 6)
    family_walk("B", 6)
    chains()


if __name__ == "__main__":
    main()
