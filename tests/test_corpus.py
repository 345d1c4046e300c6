import pytest

from bibmet.corpus import (
    Corpus,
    CountTables,
    PublicationRecord,
    build_authorship_matrix,
    build_yearly_series,
)
from bibmet.errors import DomainError


def rec(rid, year, authors):
    return PublicationRecord(rid, year, tuple(authors))


def test_record_normalizes_authors():
    r = rec("a", 2015, ["  Smith, A ", "Jones, B", "Smith, A", "", "   "])
    assert r.authors == ("Smith, A", "Jones, B")
    assert r.author_count == 2


def test_record_validation():
    with pytest.raises(ValueError):
        rec("a", 999, ["X"])
    with pytest.raises(ValueError):
        rec("a", 3001, ["X"])
    with pytest.raises(ValueError):
        rec("a", 2015, ["", "  "])
    with pytest.raises(ValueError):
        rec("", 2015, ["X"])


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        Corpus((rec("a", 2015, ["X"]), rec("a", 2016, ["Y"])))


def test_corpus_author_slots():
    c = Corpus((rec("a", 2015, ["X", "Y"]), rec("b", 2015, ["Z"])))
    assert c.author_slots == 3
    assert list(c) == list(c.records)


def test_build_yearly_series_zero_fills_gaps():
    c = Corpus((rec("a", 2008, ["X"]), rec("b", 2008, ["Y"]), rec("c", 2010, ["Z"])))
    s = build_yearly_series(c)
    assert s.entries == ((2008, 2), (2009, 0), (2010, 1))
    assert s.total == len(c)


def test_build_yearly_series_single_record():
    s = build_yearly_series(Corpus((rec("a", 2015, ["X"]),)))
    assert s.entries == ((2015, 1),)
    assert s.cumulative == (1,)


def test_build_yearly_series_empty_corpus():
    with pytest.raises(DomainError):
        build_yearly_series(Corpus(()))


def test_build_matrix_collapses_large_teams():
    c = Corpus((
        rec("a", 2008, ["A1"]),
        rec("b", 2008, [f"B{i}" for i in range(12)]),
    ))
    m = build_authorship_matrix(c, cap=10, collapse=True)
    assert m.class_counts(2008)[1] == 1
    assert m.class_counts(2008)[10] == 1
    assert m.year_total(2008) == 2


def test_build_matrix_uncollapsed_extends_past_cap():
    c = Corpus((rec("b", 2008, [f"B{i}" for i in range(12)]),))
    m = build_authorship_matrix(c, cap=10, collapse=False)
    assert not m.collapsed
    assert m.classes[-1] == 12
    assert m.class_counts(2008)[12] == 1


def test_build_matrix_empty_corpus():
    with pytest.raises(DomainError, match="empty corpus"):
        CountTables().authorship_matrix()


def test_build_matrix_cap_validation():
    c = Corpus((rec("a", 2008, ["X"]),))
    with pytest.raises(DomainError):
        build_authorship_matrix(c, cap=1)


def test_matrix_columns_match_yearly_series():
    c = Corpus((
        rec("a", 2008, ["A"]),
        rec("b", 2008, ["A", "B"]),
        rec("c", 2010, ["C", "D", "E"]),
    ))
    m = build_authorship_matrix(c, cap=10, collapse=True)
    s = build_yearly_series(c)
    for year in s.years:
        assert m.year_total(year) == s.count(year)
    # with collapsing off, nominal slots equal true author slots
    m2 = build_authorship_matrix(c, cap=10, collapse=False)
    assert m2.author_slots() == c.author_slots
    assert m2.grand_total == len(c)


def test_merge_order_does_not_change_metrics():
    c1 = Corpus((rec("a", 2008, ["A"]), rec("b", 2009, ["B", "C"])))
    c2 = Corpus((rec("c", 2008, ["D", "E", "F"]),))
    m12 = c1.merge(c2)
    m21 = c2.merge(c1)
    assert build_yearly_series(m12) == build_yearly_series(m21)
    assert (build_authorship_matrix(m12, 10, True)
            == build_authorship_matrix(m21, 10, True))


def test_merge_concatenates_and_keeps_ids_unique():
    c1 = Corpus((rec("a", 2008, ["A"]),))
    c2 = Corpus((rec("b", 2009, ["B"]),))
    merged = c1.merge(c2)
    assert len(merged) == 2
    with pytest.raises(ValueError):
        c1.merge(c1)
