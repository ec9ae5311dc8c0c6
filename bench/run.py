"""The benchmark: census, ingest and extremal workloads, end to end and per layer.

    python3 bench/run.py --workload census|ingest|extremal --seed N --seconds S --trace 0|1

Runs from the root of a checkout, against the package under ``src``, in one
process with one worker.  A run first times SETUP_REPS imports of the
package, each in a fresh interpreter (the set-up), then builds the
workload's inputs untimed, then repeats whole rounds of the workload until
``--seconds`` have passed, then checks the outputs with ``checks`` (which
does not use the program) and prints one JSON object as its last line.
With ``--trace 1`` untraced and traced rounds alternate; the traced ones
give the per-layer figures, and the difference of the two medians is the
tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
from spans import Tracer, installed  # noqa: E402

SETUP_REPS = 21
CENSUS_MAX = 12  # order 13 costs 85 to 135 s a round

#: ingest corpus: order -> {gamma_c: bases}.  Bases are drawn from one fixed
#: seed, so every run classifies the same classes; --seed draws the copies.
INGEST_BASE_SEED = 0
INGEST_QUOTAS = {
    14: {2: 6, 3: 12},
    15: {2: 6, 3: 12, 4: 3},
    16: {2: 6, 3: 12, 4: 6},
    17: {2: 6, 3: 12, 4: 9},
    18: {2: 6, 3: 12, 4: 12},
    19: {2: 6, 3: 12, 4: 12},
    20: {2: 6, 3: 12, 4: 12},
    21: {2: 6, 3: 12, 4: 12, 5: 12},
}
INGEST_COPIES = 4  # per base: two relabellings, two mirrored relabellings
INGEST_MAX_TRIES = 5000  # random walks per order before giving up

FAMILY_KS = range(5, 11)  # families A and B at orders 15..30
CHAIN_VALUES = {2: (6, 3), 3: (9, 4)}  # k -> (gamma_c, gamma) of icosa_chain(k)

IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import tridom; print(repr(time.perf_counter() - t0))")


def program():
    """The program's modules, imported once the source path is known."""
    from tridom import census, domination, families, planar
    return census, domination, families, planar


class Census:
    """Generate and classify every triangulation of orders 5..CENSUS_MAX."""

    def __init__(self, seed: int) -> None:
        self.items = sum(checks.A000109[n] for n in range(5, CENSUS_MAX + 1))

    def run_round(self):
        census = program()[0]
        return census.census_records(5, CENSUS_MAX)

    def digest(self, out) -> str:
        return _digest_records(out)

    def check(self, out) -> List[str]:
        rows, records = out
        problems = _record_problems(records)
        totals = {row.n: row.total for row in rows}
        want = {n: checks.A000109[n] for n in range(5, CENSUS_MAX + 1)}
        if totals != want:
            problems.append(f"row totals {totals} differ from OEIS A000109 {want}")
        cones = {row.n: row.count(1) for row in rows}
        want = {n: checks.A000207_CONES[n] for n in range(5, CENSUS_MAX + 1)}
        if cones != want:
            problems.append(f"gamma_c = 1 column {cones} differs from OEIS A000207 {want}")
        return problems


class Ingest:
    """Read a planar_code corpus of relabelled and mirrored copies and classify it."""

    def __init__(self, seed: int) -> None:
        self.items = INGEST_COPIES * sum(sum(q.values()) for q in INGEST_QUOTAS.values())
        rng = random.Random(INGEST_BASE_SEED)
        self.bases = []  # (n, invariant, gamma_c)
        rots = []
        for n, quota in INGEST_QUOTAS.items():
            need = dict(quota)
            for _ in range(INGEST_MAX_TRIES):
                if not any(need.values()):
                    break
                rot = corpus.random_triangulation(n, rng)
                value = checks.gamma_c(checks.adjacency(rot))
                if need.get(value):
                    need[value] -= 1
                    self.bases.append((n, checks.invariant(rot), value))
                    rots.append(rot)
            else:
                raise RuntimeError(f"order {n}: quota {quota} not met by "
                                   f"{INGEST_MAX_TRIES} random walks")
        rng = random.Random(seed)
        copies = [corpus.relabelled(rot, rng, mirror=c % 2 == 1)
                  for rot in rots for c in range(INGEST_COPIES)]
        rng.shuffle(copies)
        self.data = corpus.planar_code(copies)

    def run_round(self):
        census = program()[0]
        levels = census.levels_from_planar_code(self.data)
        return census.census_records(min(INGEST_QUOTAS), max(INGEST_QUOTAS), levels=levels)

    def digest(self, out) -> str:
        return _digest_records(out)

    def check(self, out) -> List[str]:
        rows, records = out
        problems = _record_problems(records)
        if sum(row.total for row in rows) != len(records):
            problems.append("row totals do not add up to the records")
        for n in INGEST_QUOTAS:
            bases = [(inv, value) for m, inv, value in self.bases if m == n]
            got = [rec for rec in records if rec.n == n]
            if len(got) > len(bases):
                problems.append(f"order {n}: {len(got)} classes from {len(bases)} bases")
            if {checks.invariant(rec.rot) for rec in got} != {inv for inv, _ in bases}:
                problems.append(f"order {n}: class invariants differ from the bases'")
            for rec in got:
                inv = checks.invariant(rec.rot)
                if rec.gamma_c not in {value for b, value in bases if b == inv}:
                    problems.append(f"order {n}: gamma_c {rec.gamma_c} matches no base")
        return problems


class Extremal:
    """Families A and B at k = 5..10 and icosahedron chains 2 and 3, with exact values."""

    def __init__(self, seed: int) -> None:
        self.specs = ([(which, k) for which in "AB" for k in FAMILY_KS]
                      + [("chain", k) for k in CHAIN_VALUES])
        self.items = len(self.specs)

    def run_round(self):
        _, domination, families, planar = program()
        families.family_base.cache_clear()  # every `tridom family` process pays for it
        out = []
        for kind, k in self.specs:
            t = families.FamilySpec(kind, k).build()
            g = planar.underlying_graph(t)
            gc_cert = domination.exact_gamma_c(g)
            g_cert = domination.exact_gamma(g)
            out.append((kind, k, t.rot, gc_cert.value, gc_cert.witness,
                        g_cert.value, g_cert.witness))
        return out

    def digest(self, out) -> str:
        return hashlib.sha256(repr(out).encode()).hexdigest()

    def check(self, out) -> List[str]:
        problems = []
        mutant_base = (0, "", (), 0)  # the right answer of largest gamma_c
        for kind, k, rot, gc_value, gc_witness, g_value, g_witness in out:
            label = f"{kind} k={k}"
            n = len(rot)
            want_n = 10 * k + 2 if kind == "chain" else 3 * k
            if n != want_n:
                problems.append(f"{label}: order {n}, expected {want_n}")
                continue
            bad = checks.triangulation_problem(rot)
            if bad:
                problems.append(f"{label}: {bad}")
                continue
            want = CHAIN_VALUES[k] if kind == "chain" else (n // 3, None)
            if gc_value != want[0]:
                problems.append(f"{label}: gamma_c {gc_value}, the paper gives {want[0]}")
            if want[1] is not None and g_value != want[1]:
                problems.append(f"{label}: gamma {g_value}, the paper gives {want[1]}")
            if g_value > gc_value:
                problems.append(f"{label}: gamma {g_value} exceeds gamma_c {gc_value}")
            found = checks.cds_problems(rot, gc_value, gc_witness)
            problems += [f"{label}: {p}" for p in found]
            problems += [f"{label}: gamma {p}" for p in checks.ds_problems(rot, g_value, g_witness)]
            if not found and gc_value >= mutant_base[0]:
                mutant_base = (gc_value, label, rot, gc_witness)
        if mutant_base[1]:
            value, label, rot, witness = mutant_base
            problems += _mutant_problems(label, rot, value, witness)
        return problems


WORKLOADS = {"census": Census, "ingest": Ingest, "extremal": Extremal}


def _digest_records(out) -> str:
    rows, records = out
    h = hashlib.sha256()
    h.update(repr([(r.n, r.total, sorted(r.counts_by_gamma_c.items())) for r in rows]).encode())
    for rec in records:
        h.update(repr((rec.n, rec.code, rec.rot, rec.gamma_c, rec.gamma_c_witness,
                       rec.method, rec.Delta)).encode())
    return h.hexdigest()


def _record_problems(records) -> List[str]:
    """Every record re-checked from its rotation system, plus the check of the checker."""
    problems = []
    right = []
    for rec in records:
        label = f"n={rec.n} code={rec.code.hex()}"
        bad = checks.triangulation_problem(rec.rot)
        found = [bad] if bad else checks.cds_problems(rec.rot, rec.gamma_c, rec.gamma_c_witness)
        problems += [f"{label}: {p}" for p in found]
        if not found:
            right.append(rec)
    if right:
        rec = max(right, key=lambda r: (r.gamma_c, r.n))
        problems += _mutant_problems(f"n={rec.n} code={rec.code.hex()}", rec.rot,
                                     rec.gamma_c, rec.gamma_c_witness)
    return problems


def _mutant_problems(label: str, rot, value: int, witness: int) -> List[str]:
    """The checker must reject a value off by one and a broken witness."""
    made = checks.mutants(rot, value, witness)
    problems = [f"check of the checker: mutant {name} could not be built from {label}"
                for name in ("gamma_c+1", "gamma_c-1", "broken") if name not in made]
    problems += [f"check of the checker: mutant {name} of {label} was accepted"
                 for name in checks.mutants_accepted(rot, value, witness)]
    return problems


PER_LAYER_UNITS = {
    "generate.successors.calls": "count",
    "generate.successors.self_s": "s",
    "generate.children": "count",
    "generate.dedup_yield": "ratio",
    "planar.canonical_code.calls": "count",
    "planar.canonical_code.self_s": "s",
    "planar.canonical_code.us_per_call": "us",
    "planar.triangulation_from_code.calls": "count",
    "planar.triangulation_from_code.self_s": "s",
    "planar.underlying_graph.calls": "count",
    "planar.underlying_graph.self_s": "s",
    "planar.planar_code_read.self_s": "s",
    "planar.verify_triangulation.calls": "count",
    "planar.verify_triangulation.self_s": "s",
    "planar.canonical_form.calls": "count",
    "planar.canonical_form.self_s": "s",
    "domination.classify.calls": "count",
    "domination.classify.self_s": "s",
    "domination.classify.contraction": "count",
    "domination.classify.delta_shortcut": "count",
    "domination.contraction_search.calls": "count",
    "domination.contraction_search.self_s": "s",
    "domination.contract_edge.calls": "count",
    "domination.exact_gamma_c.calls": "count",
    "domination.exact_gamma_c.self_s": "s",
    "domination.exact_gamma.calls": "count",
    "domination.exact_gamma.self_s": "s",
    "domination.all_minimum_cds.calls": "count",
    "domination.all_minimum_cds.self_s": "s",
    "graphs.enumerate_connected_sets.calls": "count",
    "graphs.enumerate_connected_sets.self_s": "s",
    "graphs.connected_sets_visited": "count",
    "families.family.self_s": "s",
    "families.icosa_chain.self_s": "s",
    "census.census_records.self_s": "s",
    "census.levels_from_planar_code.self_s": "s",
    "census.generate_s": "s",
    "census.classify_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(m: Counter) -> Dict[str, float]:
    """The per-layer metrics of one traced round, from its spans and counters."""
    out = {name: m[name] for name in PER_LAYER_UNITS}
    children = m["generate.successors.yields"]
    out["generate.children"] = children
    out["generate.dedup_yield"] = m["generate.classes"] / children if children else 0.0
    calls = m["planar.canonical_code.calls"]
    out["planar.canonical_code.us_per_call"] = (
        1e6 * m["planar.canonical_code.total_s"] / calls if calls else 0.0)
    out["census.generate_s"] = m["census.census_records/generate.levels.total_s"]
    out["census.classify_s"] = m["census.census_records/domination.classify.total_s"]
    return out


def measure_setup() -> float:
    """Seconds a fresh interpreter takes to import the package, as it reports them."""
    child = subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(SRC)], check=True,
                           stdout=subprocess.PIPE, text=True)
    return float(child.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "tridom" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'tridom'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = [measure_setup() for _ in range(SETUP_REPS)]
    workload = WORKLOADS[args.workload](args.seed)
    program()

    walls: List[float] = []
    traced_walls: List[float] = []
    layers: List[Dict[str, float]] = []
    last_tracer = None
    first = None
    first_digest = None
    peak_rss_mib = 0.0
    differing = attempted = failed = 0
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        tracer = Tracer() if traced else None
        gc.collect()
        attempted += workload.items
        try:
            with installed(tracer) if traced else nullcontext():
                t0 = time.perf_counter()
                out = workload.run_round()
                wall = time.perf_counter() - t0
        except Exception:  # a failed round counts every operation in it as failed
            traceback.print_exc()
            failed += workload.items
        else:
            if traced:
                traced_walls.append(wall)
                layers.append(layer_metrics(tracer.metrics()))
                last_tracer = tracer
            else:
                walls.append(wall)
            digest = workload.digest(out)
            if first is None:  # later rounds run while this output is kept for the checks
                first, first_digest = out, digest
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elif digest != first_digest:
                differing += 1
        if time.perf_counter() - started >= args.seconds and (
                not args.trace or traced_walls or failed):
            break

    if not walls or (args.trace and not traced_walls):
        print("bench: no round completed", file=sys.stderr)
        return 1
    problems = workload.check(first)
    if differing:
        problems.append(f"{differing} rounds gave other output than the first")
    for line in problems[:50]:
        print(f"CHECK FAILED {line}")

    if args.trace:
        metrics = {name: statistics.median(run[name] for run in layers)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        units = PER_LAYER_UNITS
    else:
        metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                   "peak_rss_mib": peak_rss_mib}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  setup_s=setup, wall_s=walls, traced_wall_s=traced_walls,
                  problems=problems)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if last_tracer is not None:
        last_tracer.dump(str(OUT / f"{stem}.spans.tsv"))
    print(f"{args.workload}: {len(walls)} rounds, {len(traced_walls)} traced, "
          f"{attempted} operations, {failed} failed, {len(problems)} check failures")
    for name in units:
        print(f"  {name:42s} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
