"""The small record types keep their contracts: fields in order, defaults,
equality and hashing, repr, immutability, and the methods they carry."""

import pytest

from tridom.census import CensusRow, CorpusReport, ReferenceDiff
from tridom.domination import METHOD_SUBSET, DominationCertificate
from tridom.planar import ValidityReport

FIELDS = [
    (ValidityReport, ("ok", "problem")),
    (DominationCertificate, ("value", "witness", "method")),
    (CensusRow, ("n", "total", "counts_by_gamma_c", "wall_time")),
    (ReferenceDiff, ("mismatches", "no_oracle")),
]


@pytest.mark.parametrize("cls, fields", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS])
def test_fields_in_order_from_positional_and_keyword_arguments(cls, fields):
    values = [object() for _ in fields]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in fields] == values
    assert by_position == by_keyword


def test_validity_report_problem_defaults_to_none():
    assert ValidityReport(True).problem is None
    assert ValidityReport(False, "self-loop at 0").problem == "self-loop at 0"


def test_certificates_compare_hash_and_print_by_value():
    cert = DominationCertificate(1, 2, METHOD_SUBSET)
    same = DominationCertificate(value=1, witness=2, method="subset-search")
    assert cert == same and hash(cert) == hash(same)
    assert cert != DominationCertificate(1, 3, METHOD_SUBSET)
    assert repr(cert) == "DominationCertificate(value=1, witness=2, method='subset-search')"
    value, witness, method = cert
    assert (value, witness, method) == (1, 2, "subset-search")


@pytest.mark.parametrize("record, name", [
    (DominationCertificate(1, 2, METHOD_SUBSET), "value"),
    (ValidityReport(True), "problem"),
    (ReferenceDiff([], []), "mismatches"),
    (CensusRow(5, 1, {1: 1}, 0.0), "total"),
])
def test_fields_cannot_be_set(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 0)


def test_census_row_count_reads_its_counts():
    row = CensusRow(9, 50, {1: 12, 2: 37, 3: 1}, 0.0)
    assert [row.count(v) for v in range(5)] == [0, 12, 37, 1, 0]


def test_reference_diff_is_ok_without_mismatches():
    assert ReferenceDiff([], ["n=16: no oracle"]).ok
    assert not ReferenceDiff(["n=8 total: got 13, reference 14"], []).ok


def test_corpus_reports_start_empty_and_share_nothing():
    first, second = CorpusReport(), CorpusReport()
    assert (first.graphs_checked, first.checks_run, first.violations) == (0, 0, [])
    first.violations.append("n=5 code=00: broken")
    assert not first.ok
    assert second.violations == [] and second.ok
