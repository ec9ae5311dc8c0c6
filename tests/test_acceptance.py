"""Acceptance suite: one test per criterion, with a printed PASS/FAIL line.

All tolerances are exact equality or zero violations, pinned here.  Two
rows of the built-in reference table are provably misprinted in the
published source (order 8: 3/11 instead of 4/10 for gamma_c = 1/2;
order 12: 226/5,191 instead of 228/5,189).  Criteria 1 and 2 compare every
other published cell as stated and the four misprinted cells against
values derived from the polygon-cone oracle (helpers.reference_errata);
each criterion also proves its erratum row's gamma_c = 1 class set equal
to the cones, record by record.  test_generator.py's polygon-cone test
proves the same for orders 6..9.  Companion tests pin every cell outside
the errata as published and the computed rows exactly.
"""

import random
import time

import pytest

import tridom as td
from tridom.census import REFERENCE_CENSUS, census_records
from tridom.domination import (
    bfs_tree_cds,
    classify,
    exact_gamma,
    exact_gamma_c,
    gamma_c_by_contraction,
)
from tridom.graphs import (
    enumerate_connected_sets,
    graph6_read,
    graph6_write,
    induces_connected,
    is_dominating,
)
from tridom.planar import (
    canonical_code,
    planar_code_read,
    underlying_graph,
)

from helpers import (
    MISPRINTED_CELLS,
    assemble_triangulations,
    complete_graph,
    cone_triangulations,
    cycle_graph,
    mirror,
    path_graph,
    planar_code_write,
    powerset_connected_sets,
    random_connected_graph,
    random_permutation,
    random_triangulation,
    reference_errata,
    relabel,
    wheel_graph,
)


def report(cid: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE criterion {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="module")
def census_extended():
    """Rows and records for orders 12..13 (the extended scale)."""
    t0 = time.perf_counter()
    rows, records = census_records(12, 13, workers=1)
    print(f"extended census built in {time.perf_counter() - t0:.0f}s")
    return rows, records


def _diff_against_reference(rows, skip_cells=(), errata=None):
    """Compare rows with the published table; errata replace published cells."""
    errata = errata or {}
    problems = []
    for row in rows:
        total, cells = REFERENCE_CENSUS[row.n]
        if row.total != total:
            problems.append(f"n={row.n} total {row.total} != {total}")
        for value in (1, 2, 3, 4, 5):
            if (row.n, value) in skip_cells or cells[value] is None:
                continue
            want = errata.get((row.n, value), cells[value])
            if row.count(value) != want:
                source = "cone-corrected" if (row.n, value) in errata else "published"
                problems.append(
                    f"n={row.n} gamma_c={value}: computed {row.count(value)}, "
                    f"{source} {want}")
    return problems


def _corrected_reference_problems(rows, records):
    """Diff rows against the table with the oracle-derived errata applied,
    and check each erratum order's universal-vertex classes against the
    cones over the (n-1)-gon."""
    errata = reference_errata()
    # the errata may not grow silently, and each must be a real correction
    assert set(errata) == {(8, 1), (8, 2), (12, 1), (12, 2)}
    for (n, value), corrected in errata.items():
        assert corrected != REFERENCE_CENSUS[n][1][value], (n, value)
    problems = _diff_against_reference(rows, errata=errata)
    orders = {row.n for row in rows}
    for n in sorted({n for n, _ in errata} & orders):
        universal = [r for r in records if r.n == n and r.Delta == n - 1]
        if {r.code for r in universal} != cone_triangulations(n - 1):
            problems.append(f"n={n}: universal-vertex classes differ from the "
                            f"{len(cone_triangulations(n - 1))} polygon cones")
        if any(r.gamma_c != 1 for r in universal):
            problems.append(f"n={n}: a universal-vertex class has gamma_c != 1")
    return problems


# -------------------------------------------------------------------- 1 ---

def test_criterion_1_reference_table_default_scale(census_default):
    """Orders 5..11 against the published table with the order-8 errata
    applied: the published 3/11 split contradicts the four cones over the
    7-gon, which have four distinct degree sequences (corrected split 4/10)."""
    rows, records = census_default
    problems = _corrected_reference_problems(rows, records)
    report("1 (table, n=5..11, cone-corrected cells)", not problems,
           "; ".join(problems))
    assert not problems


def test_criterion_1_default_scale_excluding_known_misprint(census_default):
    rows, _ = census_default
    problems = _diff_against_reference(rows, skip_cells=MISPRINTED_CELLS)
    report("1 (table, n=5..11, misprint cells excluded)", not problems,
           "; ".join(problems))
    assert not problems
    # and the computed order-8 split is exactly 4/10
    row8 = next(r for r in rows if r.n == 8)
    assert row8.counts_by_gamma_c == {1: 4, 2: 10}


# -------------------------------------------------------------------- 2 ---

def test_criterion_2_reference_table_extended_scale(census_extended):
    """Orders 12..13 against the published table with the order-12 errata
    applied: the published 226/5,191 contradicts the 228 cones over the
    11-gon (A000207), giving 228/5,189.  Order 13 matches as published."""
    rows, records = census_extended
    problems = _corrected_reference_problems(rows, records)
    report("2 (table, n=12..13, cone-corrected cells)", not problems,
           "; ".join(problems))
    assert not problems


def test_criterion_2_extended_scale_excluding_known_misprint(census_extended):
    rows, _ = census_extended
    problems = _diff_against_reference(rows, skip_cells=MISPRINTED_CELLS)
    report("2 (table, n=12..13, misprint cells excluded)", not problems,
           "; ".join(problems))
    assert not problems
    by_n = {r.n: r for r in rows}
    assert by_n[12].counts_by_gamma_c == {1: 228, 2: 5189, 3: 2173, 4: 5}
    assert by_n[13].counts_by_gamma_c == {1: 733, 2: 25760, 3: 22920, 4: 153}
    assert by_n[12].total == 7595 and by_n[13].total == 49566


# -------------------------------------------------------------------- 3 ---

def test_criterion_3_solver_cross_validation(levels_to_11):
    mismatches = []
    count = 0
    for n in range(5, 11):
        for t in levels_to_11[n]:
            g = underlying_graph(t)
            count += 1
            exact = exact_gamma_c(g).value
            if gamma_c_by_contraction(g).value != exact:
                mismatches.append(canonical_code(t).hex())
            if classify(t).value != exact:
                mismatches.append("classify:" + canonical_code(t).hex())
    assert count == 305
    rng = random.Random(20260808)
    sizes = list(range(4, 17))
    densities = [0.25, 0.35, 0.5]
    for i in range(100):
        g = random_connected_graph(rng, sizes[i % len(sizes)], densities[i % len(densities)])
        if gamma_c_by_contraction(g).value != exact_gamma_c(g).value:
            mismatches.append(f"random#{i}")
    report("3 (contraction = subset search, 305 + 100 graphs)", not mismatches,
           "; ".join(mismatches))
    assert not mismatches


# -------------------------------------------------------------------- 4 ---

def test_criterion_4_spanning_tree_bound(census_default, census_extended):
    violations = []
    for records in (census_default[1], census_extended[1]):
        for rec in records:
            g = rec.graph()
            bound = rec.n - rec.Delta
            cert = bfs_tree_cds(g)
            if cert.value > bound or rec.gamma_c > bound:
                violations.append(rec.code.hex())
                continue
            if not is_dominating(g, cert.witness) or not induces_connected(g, cert.witness):
                violations.append(rec.code.hex())
    report("4 (tree bound on every census graph)", not violations,
           f"{len(violations)} violations")
    assert not violations


# -------------------------------------------------------------------- 5 ---

def test_criterion_5_near_max_degree_forces_value_2_or_3(census_default, census_extended):
    violations = []
    checked = 0
    for records in (census_default[1], census_extended[1]):
        for rec in records:
            if rec.Delta == rec.n - 4:
                checked += 1
                if rec.gamma_c not in (2, 3):
                    violations.append(rec.code.hex())
    report("5 (Delta = n-4 forces value in {2,3}, n <= 13)", not violations,
           f"{checked} graphs checked")
    assert checked > 0
    assert not violations


# -------------------------------------------------------------------- 6 ---

def test_criterion_6_extremal_identification(census_default, census_extended):
    records = [r for r in census_default[1]] + [r for r in census_extended[1] if r.n <= 12]
    upto9 = [r for r in records if r.n <= 9]
    gap9 = [r for r in upto9 if r.gamma_c != r.gamma]
    ok9 = len(gap9) == 1 and gap9[0].gamma == 2 and gap9[0].gamma_c == 3
    upto12 = [r for r in records if r.n <= 12]
    gap12 = [r for r in upto12 if r.gamma_c > r.gamma + 1]
    ico_code = canonical_code(td.icosahedron())
    ok12 = (len(gap12) == 2
            and all(r.gamma == 2 and r.gamma_c == 4 for r in gap12)
            and sum(1 for r in gap12 if r.code == ico_code) == 1)
    value4 = [r for r in records if r.n == 12 and r.gamma_c == 4]
    report("6 (extremal graphs)", ok9 and ok12 and len(value4) == 5,
           f"n<=9 gap graphs: {len(gap9)}, n<=12 wide-gap graphs: {len(gap12)}, "
           f"n=12 value-4 graphs: {len(value4)}")
    assert ok9
    assert ok12
    assert len(value4) == 5


# -------------------------------------------------------------------- 7 ---

def test_criterion_7_family_values():
    expected_a = {3: 2, 4: 4, 5: 5, 6: 6, 7: 7}
    expected_b = {3: 3, 4: 3, 5: 5, 6: 6}
    problems = []
    for which, expected in (("A", expected_a), ("B", expected_b)):
        for k, want in expected.items():
            t = td.family(which, k)
            if t.n != 3 * k:
                problems.append(f"{which},{k}: order {t.n}")
                continue
            got = exact_gamma_c(underlying_graph(t)).value
            if got != want:
                problems.append(f"{which},{k}: value {got} != {want}")
    report("7 (family values)", not problems, "; ".join(problems))
    assert not problems


# -------------------------------------------------------------------- 8 ---

def test_criterion_8_chain_values():
    problems = []
    for k, (n_want, gamma_want, gc_want) in {2: (22, 3, 6), 3: (32, 4, 9)}.items():
        t = td.icosa_chain(k)
        g = underlying_graph(t)
        n_ok = t.n == n_want
        gamma = exact_gamma(g).value
        gc = exact_gamma_c(g).value
        if not (n_ok and gamma == gamma_want and gc == gc_want):
            problems.append(f"k={k}: n={t.n} gamma={gamma} gamma_c={gc}")
        assert gc - gamma == 2 * k - 1
    report("8 (icosahedron chains)", not problems, "; ".join(problems))
    assert not problems


# -------------------------------------------------------------------- 9 ---

def test_criterion_9_max_value_by_order(census_default, census_extended):
    want = {9: 3, 10: 3, 11: 3, 12: 4, 13: 4}
    got = {}
    for rows in (census_default[0], census_extended[0]):
        for row in rows:
            if row.n in want:
                got[row.n] = max(v for v, c in row.counts_by_gamma_c.items() if c)
    ok = got == want and all(got[n] <= n // 3 for n in got)
    report("9 (max value 3,3,3,4,4 for n=9..13)", ok, f"{got}")
    assert got == want
    for n, v in got.items():
        assert v <= n // 3


# ------------------------------------------------------------------- 10 ---

def test_criterion_10_generator_vs_independent_enumeration(levels_to_11):
    problems = []
    for n in (4, 5, 6, 7, 8):
        independent = assemble_triangulations(n)
        generated = {canonical_code(t) for t in levels_to_11[n]}
        if generated != independent:
            problems.append(f"n={n}: {len(generated)} vs {len(independent)}")
    report("10a (generator vs independent assembly, n <= 8)", not problems,
           "; ".join(problems))
    assert not problems


def test_criterion_10_canonical_code_invariance_1000_trials():
    rng = random.Random(1311)
    bad = 0
    for _ in range(1000):
        t = random_triangulation(rng, rng.randint(5, 12))
        code = canonical_code(t)
        perm = random_permutation(rng, t.n)
        if canonical_code(relabel(t, perm)) != code:
            bad += 1
        if canonical_code(mirror(t)) != code:
            bad += 1
    report("10b (canonical code invariance, 1000 trials)", bad == 0, f"{bad} failures")
    assert bad == 0


def test_criterion_10_round_trips(levels_to_11):
    ts = levels_to_11[8]
    data = planar_code_write(ts)
    assert planar_code_write(planar_code_read(data)) == data
    rng = random.Random(17)
    graphs = [underlying_graph(t) for t in ts]
    graphs += [random_connected_graph(rng, n, 0.3) for n in (20, 63, 100)]
    ok = all(graph6_read(graph6_write(g)) == g for g in graphs)
    report("10c (planar_code and graph6 round trips)", ok)
    assert ok


def test_criterion_10_connected_sets_vs_powerset():
    rng = random.Random(19)
    graphs = [complete_graph(4), path_graph(6), cycle_graph(8), wheel_graph(7)]
    graphs += [random_connected_graph(rng, 8, 0.35) for _ in range(4)]
    ok = True
    for g in graphs:
        got = []
        enumerate_connected_sets(g, g.n, got.append)
        if set(got) != powerset_connected_sets(g, g.n):
            ok = False
    report("10d (connected-set enumerator vs powerset filter, n <= 8)", ok)
    assert ok
