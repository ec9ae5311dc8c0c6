"""Census of connected domination numbers over all plane triangulations.

Classifies every triangulation as one stream of records, level by level
(``classified``), which each consumer folds.  A built-in reference table
records the known counts for orders 5..15 (cells never computed are None
and are only ever flagged, never asserted).  Records keep the canonical
code, which rebuilds the graph, and the certificate, so downstream property
checks and extremal queries can re-verify everything independently.
``json`` and ``csv`` are imported inside the persistence functions that use
them, so ``import tridom`` loads neither.
"""

from __future__ import annotations

import os
import time
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, TextIO,
                    Tuple)

from . import generate
from .domination import (
    METHOD_DELTA,
    METHOD_SUBSET,
    DominationCertificate,
    _is_witness,
    bfs_tree_cds,
    classify,
    exact_gamma,
    gamma_c_by_contraction,
)
from .graphs import Graph, bits, vset
from .planar import (Triangulation, canonical_code, planar_code_read, triangulation_from_code,
                     underlying_graph, verify_triangulation)

#: Published counts, kept verbatim: order -> (total, {gamma_c: count}); None
#: marks unknown cells.  The rows for orders 8 and 12 are known misprints:
#: their gamma_c = 1/2 cells should read 4/10 and 228/5,189.
REFERENCE_CENSUS: Dict[int, Tuple[int, Dict[int, Optional[int]]]] = {
    5: (1, {1: 1, 2: 0, 3: 0, 4: 0, 5: 0}),
    6: (2, {1: 1, 2: 1, 3: 0, 4: 0, 5: 0}),
    7: (5, {1: 3, 2: 2, 3: 0, 4: 0, 5: 0}),
    8: (14, {1: 3, 2: 11, 3: 0, 4: 0, 5: 0}),
    9: (50, {1: 12, 2: 37, 3: 1, 4: 0, 5: 0}),
    10: (233, {1: 27, 2: 193, 3: 13, 4: 0, 5: 0}),
    11: (1249, {1: 82, 2: 995, 3: 172, 4: 0, 5: 0}),
    12: (7595, {1: 226, 2: 5191, 3: 2173, 4: 5, 5: 0}),
    13: (49566, {1: 733, 2: 25760, 3: 22920, 4: 153, 5: 0}),
    14: (339722, {1: 2282, 2: None, 3: None, 4: None, 5: 0}),
    15: (2406841, {1: 7528, 2: None, 3: None, 4: None, 5: None}),
}


class CensusRow(NamedTuple):
    n: int
    total: int
    counts_by_gamma_c: Dict[int, int]
    wall_time: float

    def count(self, value: int) -> int:
        return self.counts_by_gamma_c.get(value, 0)


def gamma_c_columns(rows: Iterable[CensusRow]) -> range:
    """1 up to the largest gamma_c any row counts, and at least the published 1..5."""
    return range(1, max([5] + [v for r in rows for v, c in r.counts_by_gamma_c.items() if c]) + 1)


class CensusRecord:
    """One classified triangulation by its code: certificate plus lazily computed gamma."""

    __slots__ = ("n", "code", "gamma_c", "gamma_c_witness", "method", "Delta",
                 "_gamma_cert")

    def __init__(self, n: int, code: bytes, gamma_c: int,
                 gamma_c_witness: int, method: str, Delta: int,
                 gamma_cert: Optional[DominationCertificate] = None):
        self.n = n
        self.code = code
        self.gamma_c = gamma_c
        self.gamma_c_witness = gamma_c_witness
        self.method = method
        self.Delta = Delta
        self._gamma_cert = gamma_cert

    @property
    def rot(self) -> Tuple[Tuple[int, ...], ...]:
        """The rotation rows, decoded from the code on every access, never cached."""
        return triangulation_from_code(self.code).rot

    def graph(self) -> Graph:
        return underlying_graph(triangulation_from_code(self.code))

    @property
    def gamma_certificate(self) -> DominationCertificate:
        if self._gamma_cert is None:
            self._gamma_cert = exact_gamma(self.graph())
        return self._gamma_cert

    @property
    def gamma(self) -> int:
        return self.gamma_certificate.value

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "code": self.code.hex(),
            "gamma_c": self.gamma_c,
            "witness": sorted(bits(self.gamma_c_witness)),
            "method": self.method,
            "Delta": self.Delta,
        }
        if self._gamma_cert is not None:
            d["gamma"] = self._gamma_cert.value
            d["gamma_witness"] = sorted(bits(self._gamma_cert.witness))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CensusRecord":
        """The record ``to_dict`` wrote, checked first: its code must decode
        to a triangulation of order n with largest degree Delta, its witness
        must list vertices 0..n-1 (ints, not bools) that form a connected
        dominating set of size gamma_c, its method must be one that
        ``classify`` emits, and gamma_witness, if there is one, must list
        vertices that form a dominating set of size gamma <= gamma_c.
        Raises ValueError naming the record otherwise, also for a missing
        field, a field of the wrong type or a record that is not an
        object."""
        try:
            for key in ("n", "gamma_c", "Delta", "gamma"):
                if key in d and type(d[key]) is not int:
                    raise TypeError(f"{key} {d[key]!r} is not an integer")
            code = bytes.fromhex(d["code"])
            t = triangulation_from_code(code)
            report = verify_triangulation(t)
            if not report.ok:
                raise ValueError(f"code is not a triangulation: {report.problem}")
            if t.n != d["n"]:
                raise ValueError(f"code has order {t.n}")
            delta = max(map(len, t.rot))
            if d["Delta"] != delta:
                raise ValueError(f"Delta {d['Delta']} is not the largest degree {delta}")
            if d["method"] not in (METHOD_SUBSET, METHOD_DELTA):
                raise ValueError(f"method {d['method']!r} is not one that classify emits")
            g = underlying_graph(t)
            witness = _vertex_set(d, "witness", t.n)
            if not _is_witness(g, d["gamma_c"], witness):
                raise ValueError("witness is not a connected dominating set of size gamma_c")
            gamma_cert = None
            if "gamma" in d:
                if d["gamma"] > d["gamma_c"]:
                    raise ValueError(f"gamma {d['gamma']} exceeds gamma_c {d['gamma_c']}")
                gamma_witness = _vertex_set(d, "gamma_witness", t.n)
                if not _is_witness(g, d["gamma"], gamma_witness, connected=False):
                    raise ValueError("gamma_witness is not a dominating set of size gamma")
                gamma_cert = DominationCertificate(d["gamma"], gamma_witness, METHOD_SUBSET)
        except (KeyError, TypeError, ValueError) as exc:
            raise _load_error("record", d, exc, "n", "code") from exc
        return cls(d["n"], code, d["gamma_c"], witness, d["method"], d["Delta"], gamma_cert)

    def __repr__(self) -> str:
        return f"CensusRecord(n={self.n}, gamma_c={self.gamma_c}, Delta={self.Delta})"


def _vertex_set(d: dict, key: str, n: int) -> int:
    """The vertex list d[key] as a bitmask; every entry must be an int (not
    a bool) in 0..n-1."""
    for x in d[key]:
        if type(x) is not int or not 0 <= x < n:
            raise ValueError(f"{key} entry {x!r} is not a vertex in 0..{n - 1}")
    return vset(d[key])


def _classified(code: bytes, t: Optional[Triangulation] = None) -> CensusRecord:
    """The record of a class; t is decoded from the code unless given."""
    if t is None:
        t = triangulation_from_code(code)
    cert = classify(t)
    return CensusRecord(t.n, code, cert.value, cert.witness, cert.method, max(map(len, t.rot)))


Stream = Iterable[Tuple[int, Iterable[CensusRecord]]]


def classified(n_min: int = 5, n_max: int = 11, workers: int = 1,
               levels: Optional[Iterable[Tuple[int, Iterable]]] = None) -> Stream:
    """Classify every triangulation of each order in [n_min, n_max].

    Yields (n, records) level by level, each level's records in code order;
    a level is classified as its records are read.  The levels, (order,
    pairs of code and canonical form), come from ``generate.levels`` unless
    an iterable of them, say from ``levels_from_planar_code``, is supplied.
    With workers > 1, a level of 64 classes or more, which then needs a
    len, goes as codes to at most os.cpu_count() processes.
    """
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    source = levels if levels is not None else generate.levels(n_max)
    for n, pairs in source:
        if n < n_min or n > n_max:
            continue
        records = (_classified(code, t) for code, t in pairs)
        if workers > 1 and len(pairs) >= 64:
            # a CodeLevel gives its codes undecoded; a level below the top holds its forms
            codes = pairs.codes if isinstance(pairs, generate.CodeLevel) else [c for c, _ in pairs]
            processes = min(workers, os.cpu_count() or 1)
            from multiprocessing import get_context  # only parallel runs pay for the import
            with get_context().Pool(processes) as pool:
                records = pool.map(_classified, codes, max(1, len(codes) // (8 * processes)))
        yield n, records


def census_rows(stream: Stream, keep: Callable[[CensusRecord], object] = lambda rec: None,
                ) -> List[CensusRow]:
    """One row per level of a ``classified`` stream, calling keep on each record.  A row's
    wall_time runs from the previous row (or the call's start), so it covers producing, classifying
    and keeping its level, skipped lower orders included; the rows sum to the call."""
    rows: List[CensusRow] = []
    t0 = time.perf_counter()
    for n, records in stream:
        counts: Dict[int, int] = {}
        for rec in records:
            counts[rec.gamma_c] = counts.get(rec.gamma_c, 0) + 1
            keep(rec)
        t1 = time.perf_counter()
        rows.append(CensusRow(n, sum(counts.values()), counts, t1 - t0))
        t0 = t1
    return rows


def census_records(n_min: int = 5, n_max: int = 11, workers: int = 1,
                   levels: Optional[Iterable[Tuple[int, Iterable]]] = None,
                   ) -> Tuple[List[CensusRow], List[CensusRecord]]:
    """The rows of ``classified(n_min, n_max, workers, levels)`` and every record."""
    records: List[CensusRecord] = []
    return census_rows(classified(n_min, n_max, workers, levels), records.append), records


def levels_from_planar_code(data: bytes) -> List[Tuple[int, generate.CodeLevel]]:
    """Group an external planar_code corpus into generator-style levels.

    Every input is validated and coded before anything is classified; as in
    ``generate.levels``, each class is decoded as its level is read.
    """
    by_n: Dict[int, Set[bytes]] = {}
    for t in planar_code_read(data):
        report = verify_triangulation(t)
        if not report.ok:
            raise ValueError(f"ingested graph is not a triangulation: {report.problem}")
        by_n.setdefault(t.n, set()).add(canonical_code(t))
    return [(n, generate.CodeLevel(by_n[n])) for n in sorted(by_n)]


class ReferenceDiff(NamedTuple):
    mismatches: List[str]
    no_oracle: List[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def compare_reference(rows: Iterable[CensusRow]) -> ReferenceDiff:
    """Cell-by-cell comparison against the built-in reference counts."""
    mismatches: List[str] = []
    no_oracle: List[str] = []
    for row in rows:
        ref = REFERENCE_CENSUS.get(row.n)
        if ref is None:
            no_oracle.append(f"n={row.n}: no oracle")
            continue
        total, cells = ref
        if row.total != total:
            mismatches.append(f"n={row.n} total: got {row.total}, reference {total}")
        for value, want in cells.items():
            got = row.count(value)
            if want is None:
                no_oracle.append(f"n={row.n} gamma_c={value}: no oracle")
            elif got != want:
                mismatches.append(f"n={row.n} gamma_c={value}: got {got}, reference {want}")
    return ReferenceDiff(mismatches, no_oracle)


class CorpusReport:
    def __init__(self) -> None:
        self.graphs_checked = 0
        self.checks_run = 0
        self.violations: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_corpus(records: Iterable[CensusRecord], cross_solver_max_n: int = 10,
                  ) -> CorpusReport:
    """Re-verify the structural properties every census graph must satisfy.

    Per graph, besides the stored witness, three checks are theorems and
    hold for every triangulation: gamma <= gamma_c; gamma_c <= n - Delta,
    with the spanning-tree bound witnessed by an actual connected dominating
    set; and, up to cross_solver_max_n, agreement of the stored value with
    the contraction route, which shares no code with the subset search that
    ``classify`` runs.  Two are observations, measured on the census and
    checked only where they were measured: gamma_c <= floor(n/3) for
    9 <= n <= 13, and max degree n-4 forcing gamma_c in {2, 3} for n <= 13.
    """
    report = CorpusReport()

    def fail(rec: CensusRecord, msg: str) -> None:
        report.violations.append(f"n={rec.n} code={rec.code.hex()}: {msg}")

    for rec in records:
        report.graphs_checked += 1
        g = rec.graph()
        n = rec.n
        gc = rec.gamma_c

        report.checks_run += 1
        if not _is_witness(g, gc, rec.gamma_c_witness):
            fail(rec, "stored witness is not a connected dominating set of size gamma_c")

        report.checks_run += 1
        if rec.gamma > gc:
            fail(rec, f"gamma {rec.gamma} exceeds gamma_c {gc}")

        report.checks_run += 1
        if gc > n - rec.Delta:
            fail(rec, f"gamma_c {gc} exceeds n - Delta = {n - rec.Delta}")

        report.checks_run += 1
        tree = bfs_tree_cds(g)
        if tree.value > n - rec.Delta:
            fail(rec, f"tree bound witness has {tree.value} > n - Delta vertices")
        if not _is_witness(g, tree.value, tree.witness):
            fail(rec, "tree bound witness is not a connected dominating set")

        if 9 <= n <= 13:
            report.checks_run += 1
            if gc > n // 3:
                fail(rec, f"gamma_c {gc} exceeds floor(n/3) = {n // 3}")

        if n <= 13 and rec.Delta == n - 4:
            report.checks_run += 1
            if gc not in (2, 3):
                fail(rec, f"Delta = n-4 but gamma_c = {gc} not in {{2, 3}}")

        if n <= cross_solver_max_n:
            report.checks_run += 1
            if gamma_c_by_contraction(g).value != gc:
                fail(rec, "contraction solver disagrees with stored value")
    return report


# ---------------------------------------------------------------------------
# Persistence: CSV for rows, JSON for records plus rows.

def rows_to_csv(rows: Sequence[CensusRow], out: TextIO) -> None:
    """Write the rows as CSV to out, with the columns of ``gamma_c_columns``."""
    import csv  # only CSV output pays for the import
    columns = gamma_c_columns(rows)
    writer = csv.writer(out)
    writer.writerow(["n", "total"] + [f"gamma_c_{v}" for v in columns] + ["wall_time_s"])
    for r in rows:
        writer.writerow([r.n, r.total] + [r.count(v) for v in columns] + [repr(r.wall_time)])


def results_to_json(stream: Stream, out: TextIO) -> List[CensusRow]:
    """Write a ``classified`` stream as JSON to out as it runs, and return its
    rows: first the records, one object a line as each is classified, then
    the rows, which are known only at the end."""
    import json  # only JSON output pays for the import
    out.write('{"records": [')
    sep = iter(["\n"])  # next(sep, ",\n") gives "\n" before the first record, ",\n" after
    rows = census_rows(stream, lambda rec: out.write(next(sep, ",\n") + json.dumps(rec.to_dict())))
    out.write('\n],\n"rows": [' + ",".join(
        "\n" + json.dumps({"n": r.n, "total": r.total,
                           "counts": {str(k): v for k, v in sorted(r.counts_by_gamma_c.items())},
                           "wall_time": r.wall_time}) for r in rows) + "\n]}\n")
    return rows


def _load_error(kind: str, d, exc: Exception, *keys: str) -> ValueError:
    """The error for a row or record that does not load, naming it by keys."""
    if not isinstance(d, dict):
        return ValueError(f"{kind} {d!r}: not an object")
    problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"{kind} {' '.join(f'{k}={d.get(k)}' for k in keys)}: {problem}")


def _row_from_dict(d: dict) -> CensusRow:
    """The row ``results_to_json`` wrote, checked: n, total and the counts
    are ints (not bools), wall_time a number, and each count key the decimal
    string of a gamma_c >= 1."""
    counts = {}
    for key, count in d["counts"].items():
        value = int(key)
        if str(value) != key or value < 1:
            raise ValueError(f"count key {key!r} is not a gamma_c >= 1 in decimal")
        counts[value] = count
    row = CensusRow(d["n"], d["total"], counts, d["wall_time"])
    if not (all(type(x) is int for x in (row.n, row.total, *counts.values()))
            and type(row.wall_time) in (int, float)):
        raise TypeError("n, total and counts must be integers, wall_time a number")
    return row


def results_from_json(text: str) -> Tuple[List[CensusRow], List[CensusRecord]]:
    """The rows and records ``results_to_json`` wrote, in either key order;
    raises ValueError if the payload is not an object with lists rows and
    records, or naming the first malformed row or record (``_row_from_dict``,
    ``CensusRecord.from_dict``) or a row whose total or counts differ from its records'."""
    import json  # only JSON input pays for the import
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"census JSON must be an object, not {type(payload).__name__}")
    for key in ("rows", "records"):
        if not isinstance(payload.get(key), list):
            raise ValueError(f"census JSON: {key!r} is missing or not a list")
    rows = []
    for d in payload["rows"]:
        try:
            rows.append(_row_from_dict(d))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise _load_error("row", d, exc, "n") from exc
    records = [CensusRecord.from_dict(d) for d in payload["records"]]
    for row in rows:
        values = [rec.gamma_c for rec in records if rec.n == row.n]
        counts = {value: values.count(value) for value in set(values)}
        if (row.total, row.counts_by_gamma_c) != (len(values), counts):
            raise ValueError(f"row n={row.n}: total {row.total} and counts {row.counts_by_gamma_c}"
                             f" are not its records' {len(values)} and {counts}")
    return rows, records
