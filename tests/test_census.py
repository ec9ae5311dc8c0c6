import copy
import gc
import hashlib
import io
import json
import multiprocessing
import os
import random
import time
import tracemalloc
from itertools import groupby
from operator import attrgetter

import pytest

from tridom import census, generate, planar
from tridom.census import (
    CensusRecord,
    CensusRow,
    REFERENCE_CENSUS,
    census_records,
    census_rows,
    classified,
    compare_reference,
    levels_from_planar_code,
    results_from_json,
    results_to_json,
    rows_to_csv,
    verify_corpus,
)
from tridom.domination import (METHOD_BFS_TREE, METHOD_SUBSET, DominationCertificate,
                               exact_gamma, exact_gamma_c)
from tridom.generate import levels, triangulations
from tridom.graphs import bits, induces_connected, is_dominating
from tridom.planar import triangulation_from_code

from helpers import (automorphisms, count_codings, mirror, planar_code_write, reference_successors,
                     relabel, rows_from_csv, same_counts, screened_sites, site_image)


def test_census_counts_small(census_default):
    rows, _ = census_default
    by_n = {r.n: r for r in rows}
    assert by_n[5].counts_by_gamma_c == {1: 1}
    assert by_n[6].counts_by_gamma_c == {1: 1, 2: 1}
    assert by_n[7].counts_by_gamma_c == {1: 3, 2: 2}
    # order 8: computed 4/10; the published table's 3/11 is a misprint, as
    # the four cones over the 7-gon show (test_generator's polygon-cone test
    # and acceptance criterion 1)
    assert by_n[8].counts_by_gamma_c == {1: 4, 2: 10}
    assert by_n[9].counts_by_gamma_c == {1: 12, 2: 37, 3: 1}
    assert by_n[10].counts_by_gamma_c == {1: 27, 2: 193, 3: 13}
    assert by_n[11].counts_by_gamma_c == {1: 82, 2: 995, 3: 172}
    assert [by_n[n].total for n in range(5, 12)] == [1, 2, 5, 14, 50, 233, 1249]


# sha256 over one line "n code-hex witness-mask method Delta" per census record
# of orders 5..11, in record order
CERTIFICATES_5_11 = "feb5fc42a6dd021724094ac4961b4a039474381dfb014cc1220fe35b733bf29d"


def test_census_certificates_are_pinned(census_default):
    """Codes, witnesses, methods and Delta of every record of orders 5..11."""
    _, records = census_default
    lines = "".join(f"{r.n} {r.code.hex()} {r.gamma_c_witness} {r.method} {r.Delta}\n"
                    for r in records)
    assert hashlib.sha256(lines.encode()).hexdigest() == CERTIFICATES_5_11


# sha256 of census_records(5, 12) in the benchmark's digest form: the rows as
# (n, total, sorted counts), then each record as repr((n, code, rot, gamma_c,
# gamma_c_witness, method, Delta)), in record order
RECORDS_5_12 = "878e5891e5b42728313185916ceaf3552f1505d0645fc68cf8b435dd3a090739"


def _records_digest(rows, records):
    h = hashlib.sha256()
    h.update(repr([(r.n, r.total, sorted(r.counts_by_gamma_c.items())) for r in rows]).encode())
    for r in records:
        h.update(repr((r.n, r.code, r.rot, r.gamma_c, r.gamma_c_witness, r.method,
                       r.Delta)).encode())
    return h.hexdigest()


def test_census_to_12_is_pinned_and_decodes_each_class_once(monkeypatch):
    """Rows and records of orders 5..12 are pinned byte for byte, and the run
    decodes each class of orders 4..12 from its code once: the levels below
    the top as they are built, the top order as it is classified."""
    decoded = []

    def counted(code, decode=planar.triangulation_from_code):
        decoded.append(code)
        return decode(code)

    for module in (planar, generate, census):
        monkeypatch.setattr(module, "triangulation_from_code", counted)
    rows, records = census_records(5, 12)
    assert len(decoded) == len(set(decoded)) == 9_150 == 1 + len(records)
    assert _records_digest(rows, records) == RECORDS_5_12


def test_census_to_12_traced_memory_peak():
    """With the top order streamed and records kept by their codes, the
    traced peak of census_records(5, 12) stays below 8 MiB; holding the top
    order decoded and the rows in every record took 13.3 MiB."""
    tracemalloc.start()
    try:
        census_records(5, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_records_decode_their_rows_on_each_access(census_default):
    _, records = census_default
    assert "rot" not in CensusRecord.__slots__
    for rec in records[::40]:
        assert rec.rot == triangulation_from_code(rec.code).rot
        assert rec.rot is not rec.rot  # nothing is cached


def test_compare_reference_clean_rows():
    rows = census_records(9, 10)[0]
    diff = compare_reference(rows)
    assert diff.ok
    assert diff.mismatches == []


def test_compare_reference_detects_perturbation():
    row = CensusRow(9, 50, {1: 12, 2: 36, 3: 2}, 0.0)
    diff = compare_reference([row])
    assert len(diff.mismatches) == 2  # gamma_c=2 and gamma_c=3 cells
    diff = compare_reference([CensusRow(9, 51, {1: 12, 2: 37, 3: 1}, 0.0)])
    assert diff.mismatches == ["n=9 total: got 51, reference 50"]
    assert not diff.ok


def test_compare_reference_flags_rows_without_oracle():
    diff = compare_reference([CensusRow(16, 1, {1: 1}, 0.0)])
    assert diff.ok
    assert diff.no_oracle == ["n=16: no oracle"]
    # order 14 has unknown interior cells
    total, cells = REFERENCE_CENSUS[14]
    row = CensusRow(14, total, {1: 2282, 5: 0}, 0.0)
    diff = compare_reference([row])
    assert any("n=14 gamma_c=2: no oracle" in s for s in diff.no_oracle)


def test_parallel_census_decodes_in_the_parent_only_what_generation_decodes(monkeypatch):
    """With a pool, the parent decodes K4 and orders 5..11 as generation
    builds them, 1,555 codes, and hands the top order to the workers as
    codes; rows and records are the one-worker run's."""
    decoded = []

    def counted(code, decode=planar.triangulation_from_code):
        decoded.append(code)
        return decode(code)

    for module in (planar, generate, census):
        monkeypatch.setattr(module, "triangulation_from_code", counted)
    rows, records = census_records(5, 12, workers=2)
    assert len(decoded) == len(set(decoded)) == 1_555
    assert _records_digest(rows, records) == RECORDS_5_12


def test_census_pool_never_outnumbers_the_cpus(monkeypatch):
    """workers=10_000 on two CPUs asks for a pool of two processes; a fake
    pool maps in-process, so no process is started."""
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize):
            return [fn(x) for x in items]

    class Context:
        Pool = InProcessPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda: Context())
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rows, records = census_records(5, 10, workers=10_000)
    assert sizes == [2]  # order 10 alone has 64 classes or more
    one_rows, one_records = census_records(5, 10)
    assert [(r.n, r.total, r.counts_by_gamma_c) for r in rows] == \
        [(r.n, r.total, r.counts_by_gamma_c) for r in one_rows]
    assert [r.to_dict() for r in records] == [r.to_dict() for r in one_records]


def test_census_deterministic_across_worker_counts():
    """Rows agree for 1, 2 and 8 workers.  Records agree field for field on
    orders 5..10: order 10 has 233 classes, enough for its level to go to a
    pool of two workers."""
    rows1 = census_records(5, 8, workers=1)[0]
    rows2 = census_records(5, 8, workers=2)[0]
    rows8 = census_records(5, 8, workers=8)[0]
    for a, b in zip(rows1, rows2):
        assert same_counts(a, b)
    for a, b in zip(rows1, rows8):
        assert same_counts(a, b)

    def fields(records):
        return [(r.n, r.code, r.rot, r.gamma_c, r.gamma_c_witness, r.method, r.Delta)
                for r in records]

    _, recs1 = census_records(5, 10, workers=1)
    _, recs2 = census_records(5, 10, workers=2)
    assert len(recs2) == 305
    assert fields(recs2) == fields(recs1)


def test_verify_corpus_clean(census_default):
    _, records = census_default
    small = [r for r in records if r.n <= 9]
    report = verify_corpus(small)
    assert report.ok
    assert report.graphs_checked == 72
    assert report.violations == []


def test_verify_corpus_catches_corruption(census_default, monkeypatch):
    """A lowered order-9 value is caught; and each doctored copy of an
    order-10 class with gamma_c = 2 and Delta = n - 4 trips the message of
    its own check, and only the checks its lie reaches."""
    _, records = census_default
    rec = next(r for r in records if r.n == 9 and r.gamma_c == 3)
    bad = copy.copy(rec)
    bad.gamma_c = 2  # lie about the value
    report = verify_corpus([bad])
    assert not report.ok

    def messages(record):
        violations = verify_corpus([record]).violations
        prefix = f"n={record.n} code={record.code.hex()}: "
        assert all(v.startswith(prefix) for v in violations)
        return [v[len(prefix):] for v in violations]

    rec = next(r for r in records if r.n == 10 and r.gamma_c == 2 and r.Delta == r.n - 4)
    assert messages(rec) == []
    witness_msg = "stored witness is not a connected dominating set of size gamma_c"
    cases = [
        ({"_gamma_cert": DominationCertificate(3, 0, METHOD_SUBSET)},
         ["gamma 3 exceeds gamma_c 2"]),
        ({"Delta": rec.n - rec.gamma_c + 1},
         ["gamma_c 2 exceeds n - Delta = 1", "tree bound witness has 4 > n - Delta vertices"]),
        ({"gamma_c": 4},
         [witness_msg, "gamma_c 4 exceeds floor(n/3) = 3",
          "Delta = n-4 but gamma_c = 4 not in {2, 3}",
          "contraction solver disagrees with stored value"]),
        ({"gamma_c": 1},
         [witness_msg, "gamma 2 exceeds gamma_c 1", "Delta = n-4 but gamma_c = 1 not in {2, 3}",
          "contraction solver disagrees with stored value"]),
    ]
    for fields, want in cases:
        bad = copy.copy(rec)
        for name, value in fields.items():
            setattr(bad, name, value)
        assert messages(bad) == want, fields
    monkeypatch.setattr(census, "bfs_tree_cds",
                        lambda g: DominationCertificate(1, 1, METHOD_BFS_TREE))  # not dominating
    assert messages(rec) == ["tree bound witness is not a connected dominating set"]


def test_verify_corpus_cross_check_catches_value_one_too_high(census_default):
    """A record claiming gamma_c + 1 with a valid connected dominating set of
    that size passes every structural check; only the cross-check sees it."""
    _, records = census_default

    def passes_bounds(r, value):
        return (value <= r.n - r.Delta
                and (not 9 <= r.n <= 13 or value <= r.n // 3)
                and (r.Delta != r.n - 4 or value in (2, 3)))

    rec = next(r for r in records if r.n <= 10 and passes_bounds(r, r.gamma_c + 1))
    g = rec.graph()
    outside = g.full & ~rec.gamma_c_witness
    extra = min(v for v in bits(outside) if g.adj[v] & rec.gamma_c_witness)
    witness = rec.gamma_c_witness | 1 << extra
    assert is_dominating(g, witness) and induces_connected(g, witness)
    bad = copy.copy(rec)
    bad.gamma_c = rec.gamma_c + 1
    bad.gamma_c_witness = witness
    assert verify_corpus([bad], cross_solver_max_n=0).ok
    report = verify_corpus([bad])
    assert len(report.violations) == 1
    assert "contraction solver disagrees" in report.violations[0]


def test_rows_only_fold_holds_no_record_past_its_level():
    """Folding classified(5, 11) into rows holds, at each level boundary, no
    CensusRecord beyond those alive before it started and the last one read;
    keeping the records, as census_records does, holds every record of the
    levels before."""
    def records_alive():
        return sum(isinstance(o, CensusRecord) for o in gc.get_objects())

    def watched(stream, seen):
        for n, records in stream:
            seen.append(records_alive())
            yield n, records
        seen.append(records_alive())

    gc.collect()
    before = records_alive()
    seen = []
    rows = census_rows(watched(classified(5, 11), seen))
    assert len(seen) == 8 and all(before <= alive <= before + 1 for alive in seen), seen
    kept, seen = [], []
    census_rows(watched(classified(5, 11), seen), kept.append)
    assert seen == [before + sum(r.total for r in rows if r.n < n) for n in range(5, 13)]
    assert len(kept) == 1554


def _csv(rows) -> str:
    out = io.StringIO()
    rows_to_csv(rows, out)
    return out.getvalue()


def _json(records):
    """The text results_to_json writes for records in (n, code) order, and its rows."""
    out = io.StringIO()
    rows = results_to_json(groupby(records, attrgetter("n")), out)
    return out.getvalue(), rows


def _counts(rows):
    return [(r.n, r.total, r.counts_by_gamma_c) for r in rows]


def test_rows_csv_round_trip():
    rows = census_records(5, 9)[0]
    text = _csv(rows)
    assert text.splitlines()[0] == \
        "n,total,gamma_c_1,gamma_c_2,gamma_c_3,gamma_c_4,gamma_c_5,wall_time_s"
    back = rows_from_csv(text)
    assert back == rows
    assert rows_from_csv(_csv([])) == []
    with pytest.raises(ValueError):
        rows_from_csv("bad,header\n")


def test_results_json_round_trip(census_default):
    """The writer puts the records first, one object a line, then the rows,
    and ends with a newline; the text loads to the rows it returned and to
    the records, and so does the rows-first, indent=1 layout that earlier
    versions wrote."""
    rows, records = census_default
    some = [r for r in records if r.n <= 9]
    text, written = _json(some)
    assert _counts(written) == _counts(r for r in rows if r.n <= 9)
    lines = text.split("\n")
    assert lines[0] == '{"records": [' and lines[len(some) + 1] == "],"
    assert [json.loads(line.rstrip(",")) for line in lines[1:len(some) + 1]] == \
        [r.to_dict() for r in some]
    assert lines[len(some) + 2] == '"rows": [' and text.endswith("\n]}\n")
    earlier = json.dumps({"rows": [{"n": r.n, "total": r.total,
                                    "counts": {str(k): v for k, v in r.counts_by_gamma_c.items()},
                                    "wall_time": r.wall_time} for r in written],
                          "records": [r.to_dict() for r in some]}, indent=1)
    fields = attrgetter("n", "code", "gamma_c", "gamma_c_witness", "method", "Delta")
    for payload in (text, earlier):
        rows2, records2 = results_from_json(payload)
        assert rows2 == written
        assert list(map(fields, records2)) == list(map(fields, some))


def test_census_json_is_written_as_it_is_serialised(census_default):
    """The JSON writer's traced peak does not grow with the records: orders
    5..11 (1,554 records) peak no higher than orders 5..10 (305 records).
    One dict per record built before writing took 0.9 MiB for 5..11."""
    _, records = census_default
    peaks = []
    for n_max in (10, 11):
        stream = groupby([r for r in records if r.n <= n_max], attrgetter("n"))
        with open(os.devnull, "w") as out:
            tracemalloc.start()
            try:
                results_to_json(stream, out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**12, peaks


def test_json_record_resolves_to_same_certificate(census_default):
    rows, records = census_default
    rec = next(r for r in records if r.n == 9 and r.gamma_c == 3)
    _, (back,) = results_from_json(_json([rec])[0])
    g = back.graph()
    assert exact_gamma_c(g).value == 3
    assert is_dominating(g, back.gamma_c_witness)
    assert induces_connected(g, back.gamma_c_witness)


def _corrupt_first_label(code: str) -> str:
    """The hex code with the first label of its first block raised by one."""
    raw = bytearray.fromhex(code)
    raw[0] += 1
    return raw.hex()


_DROP = object()  # a corruption that removes the field


@pytest.mark.parametrize("field, corrupt, message", [
    ("code", _corrupt_first_label, "code is not a triangulation"),
    ("code", lambda code: code[:-2], "unterminated rotation block in code"),
    ("n", lambda n: n + 1, "code has order 9"),
    ("Delta", lambda delta: 99, "Delta 99 is not the largest degree 5"),
    ("method", lambda method: "bogus", "method 'bogus' is not one that classify emits"),
    ("witness", lambda w: w[:-1], "witness is not a connected dominating set of size gamma_c"),
    ("gamma", lambda gamma: 4, "gamma 4 exceeds gamma_c 3"),
    ("gamma", lambda gamma: gamma - 1, "gamma_witness is not a dominating set of size gamma"),
    ("gamma_witness", lambda w: w[:-1] + [77], r"gamma_witness entry 77 is not a vertex in 0\.\.8$"),
    ("gamma_witness", lambda w: _DROP, "missing field 'gamma_witness'"),
    ("Delta", lambda delta: _DROP, "missing field 'Delta'"),
    ("witness", lambda w: ["a"], r"witness entry 'a' is not a vertex in 0\.\.8$"),
    ("witness", lambda w: [1.5], r"witness entry 1\.5 is not a vertex in 0\.\.8$"),
    ("witness", lambda w: [True], r"witness entry True is not a vertex in 0\.\.8$"),
    ("witness", lambda w: [-1], r"witness entry -1 is not a vertex in 0\.\.8$"),
    ("witness", lambda w: [9], r"witness entry 9 is not a vertex in 0\.\.8$"),
    ("code", lambda code: 5, "fromhex\\(\\) argument must be str, not int"),
    ("gamma_c", lambda value: 3.0, "gamma_c 3.0 is not an integer"),
])
def test_json_records_are_checked_on_load(census_default, field, corrupt, message):
    """A record whose code, order, Delta, method, witness or gamma fields are
    wrong, missing or of the wrong type is refused on load with a ValueError
    that names its n and code; the uncorrupted record loads."""
    _, records = census_default
    rec = next(r for r in records if r.n == 9 and r.gamma_c == 3)
    gamma = exact_gamma(rec.graph())
    d = {**rec.to_dict(), "gamma": gamma.value, "gamma_witness": sorted(bits(gamma.witness))}
    _, (back,) = results_from_json(json.dumps({"rows": [], "records": [d]}))
    assert back.gamma_certificate == gamma
    d[field] = corrupt(d[field])
    if d[field] is _DROP:
        del d[field]
    text = json.dumps({"rows": [], "records": [d]})
    with pytest.raises(ValueError, match=f"^record n={d['n']} code={d['code']}: {message}"):
        results_from_json(text)


_WHOLE = object()  # records given as this: rows is the whole payload
_NINE = object()  # records given as this: the 50 records of order 9
_ONE_OF_NINE = object()  # records given as this: the first record of order 9
_ROW = {"n": 9, "total": 50, "counts": {"1": 12, "2": 37, "3": 1}, "wall_time": 0.1}


@pytest.mark.parametrize("rows, records, message", [
    ([{k: v for k, v in _ROW.items() if k != "counts"}], [], r"^row n=9: missing field 'counts'$"),
    ([{**_ROW, "counts": [12, 37, 1]}], [], r"^row n=9: 'list' object has no attribute 'items'$"),
    ([{**_ROW, "counts": {"x": 12}}], [], r"^row n=9: invalid literal for int\(\)"),
    ([{**_ROW, "total": "50"}], [], r"^row n=9: n, total and counts must be integers, "),
    ([{**_ROW, "wall_time": "fast"}], [], r"^row n=9: n, total and counts must be integers, "),
    ([[9, 50]], [], r"^row \[9, 50\]: not an object$"),
    ([_ROW], [5], r"^record 5: not an object$"),
    ([_ROW], [["n", 9]], r"^record \['n', 9\]: not an object$"),
    (5, [], r"^census JSON: 'rows' is missing or not a list$"),
    (_DROP, [], r"^census JSON: 'rows' is missing or not a list$"),
    ([], _DROP, r"^census JSON: 'records' is missing or not a list$"),
    ([], {"n": 9}, r"^census JSON: 'records' is missing or not a list$"),
    ([], _WHOLE, r"^census JSON must be an object, not list$"),
    (5, _WHOLE, r"^census JSON must be an object, not int$"),
    ([{**_ROW, "counts": {"1": 12, "01": 38}}], [],
     r"^row n=9: count key '01' is not a gamma_c >= 1 in decimal$"),
    ([{**_ROW, "counts": {"0": 50}}], [], r"^row n=9: count key '0' is not a gamma_c >= 1 "),
    ([{**_ROW, "counts": {"1": 12, "2": 36, "3": 2}}], _NINE,
     r"^row n=9: total 50 and counts \{1: 12, 2: 36, 3: 2\} are not its records' 50 and "),
    ([{**_ROW, "counts": {"1": True, "2": 49}}], [], r"^row n=9: n, total and counts must be "),
    ([{**_ROW, "total": 51}], _NINE, r"^row n=9: total 51 and counts .* are not its records' 50 "),
    ([_ROW], _ONE_OF_NINE,
     r"^row n=9: total 50 and counts .* are not its records' 1 and \{2: 1\}$"),
    ([_ROW, _ROW], _NINE, r"^row n=9: a second row for order 9$"),
    ([{**_ROW, "counts": {"1": 12, "2": 36, "3": 2}}], _NINE,
     r"^row n=9: total 50 and counts \{1: 12, 2: 36, 3: 2\} are not its records' 50 and "
     r"\{1: 12, 2: 37, 3: 1\}$"),
])
def test_json_rows_and_non_object_records_are_checked_on_load(census_default, rows, records,
                                                               message):
    """A malformed row (a count key that is not the decimal string of a
    gamma_c >= 1, a count that is not an int), a second row for one order, a
    row whose total or counts differ from its order's records, a record that
    is not an object, or a payload that is not an object with lists rows and
    records raises ValueError naming it; the well-formed row with its records
    loads."""
    nine = [r.to_dict() for r in census_default[1] if r.n == 9]
    (row,), _ = results_from_json(json.dumps({"rows": [_ROW], "records": nine}))
    assert (row.n, row.total, row.counts_by_gamma_c) == (9, 50, {1: 12, 2: 37, 3: 1})
    records = nine if records is _NINE else nine[:1] if records is _ONE_OF_NINE else records
    payload = {key: v for key, v in (("rows", rows), ("records", records)) if v is not _DROP}
    with pytest.raises(ValueError, match=message):
        results_from_json(json.dumps(rows if records is _WHOLE else payload))


def test_census_from_planar_code_matches_native():
    ts = triangulations(6) + triangulations(7)
    data = planar_code_write(ts)
    levels = levels_from_planar_code(data)
    rows, records = census_records(6, 7, levels=levels)
    native_rows, native_records = census_records(6, 7)
    for a, b in zip(rows, native_rows):
        assert same_counts(a, b)
    assert [r.code for r in records] == [r.code for r in native_records]


def test_levels_from_planar_code_rejects_non_triangulations():
    from tridom.planar import Triangulation
    square = Triangulation(4, ((1, 3), (0, 2), (1, 3), (0, 2)))
    data = planar_code_write([square])
    with pytest.raises(ValueError):
        levels_from_planar_code(data)


def test_row_time_covers_generation():
    def slow_levels():
        for n, level in levels(6):
            time.sleep(0.05)
            yield n, level

    rows, _ = census_records(5, 6, levels=slow_levels())
    assert [r.n for r in rows] == [5, 6]
    assert all(r.wall_time >= 0.05 for r in rows)


def test_census_codes_each_child_once(monkeypatch):
    children = [child for n in range(4, 8) for t in triangulations(n)
                for child in reference_successors(t)]
    orbits = 0
    for n in range(4, 8):
        for t in triangulations(n):
            group = automorphisms(t)
            orbits += sum(all(site_image(s, key) >= key for s in group)
                          for key, _, _ in screened_sites(t))
    calls = count_codings(monkeypatch)
    _, records = census_records(5, 8)
    assert len(records) == 1 + 2 + 5 + 14
    # K4, then one child of orders 5..8 per orbit of screened sites of each
    # parent; children the invariant rejects are never coded
    assert len(calls) == 1 + orbits < 1 + len(children)


def test_ingest_codes_each_input_once(monkeypatch):
    rng = random.Random(3)
    ts = []
    for t in triangulations(7) + triangulations(8):
        perm = list(range(t.n))
        rng.shuffle(perm)
        ts += [relabel(t, perm), mirror(relabel(t, perm[::-1]))]
    data = planar_code_write(ts)
    native = [c for n, level in levels(8) if n >= 7 for c, _ in level]
    calls = count_codings(monkeypatch)
    _, records = census_records(7, 8, levels=levels_from_planar_code(data))
    assert len(calls) == len(ts)
    assert [r.code for r in records] == native
