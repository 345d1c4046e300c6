import numpy as np
import pytest
from hypothesis import given, strategies as st
from pytest import approx

from bibmet.collab import (
    MULTI_VS_SINGLE,
    TEAM_SIZE_CLASSES,
    authorship_pattern_report,
    average_authors_per_paper,
    coauthorship_index,
    collaborative_coefficient,
    collaborative_index,
    degree_of_collaboration,
    modified_cc,
)
from bibmet.errors import DomainError
from bibmet.tables import AuthorshipMatrix


@st.composite
def class_counts(draw):
    classes = draw(st.sets(st.integers(1, 25), min_size=1, max_size=8))
    counts = {j: draw(st.integers(0, 200)) for j in classes}
    total = sum(counts.values())
    if total == 0:
        counts[min(classes)] = 1
    return counts


def random_matrix(rng):
    n_classes = int(rng.integers(2, 9))
    classes = tuple(range(1, n_classes + 1))
    n_years = int(rng.integers(1, 5))
    years = tuple(range(2000, 2000 + n_years))
    counts = tuple(
        tuple(int(rng.integers(0, 40)) + (1 if k == 0 else 0) for k in range(n_years))
        for _ in classes)
    return AuthorshipMatrix(classes, years, counts, collapsed=False,
                            cap=max(2, classes[-1]))


# ---------------------------------------------------------------------------
# CI

def test_ci_is_mean_team_size():
    assert collaborative_index(10, 10) == 1.0
    assert collaborative_index(41264, 7482) == approx(5.5151, abs=1e-4)
    assert average_authors_per_paper is collaborative_index


def test_ci_needs_papers():
    with pytest.raises(DomainError):
        collaborative_index(5, 0)


def test_ci_weighted_sum_on_collapsed_2008(collab_fixture):
    counts = collab_fixture.class_counts(2008)
    slots = sum(j * f for j, f in counts.items())
    assert collaborative_index(slots, sum(counts.values())) == approx(4.512, abs=1e-3)


def test_ci_invariant_under_subperiod_split():
    # sum-based: pooling sub-periods cannot change the index
    slots = (120, 45, 80)
    papers = (30, 10, 20)
    pooled = collaborative_index(sum(slots), sum(papers))
    weighted = sum(s for s in slots) / sum(papers)
    assert pooled == approx(weighted)


# ---------------------------------------------------------------------------
# DC

def test_dc_values():
    assert degree_of_collaboration({1: 29, 2: 301}) == approx(301 / 330)
    assert degree_of_collaboration({1: 7}) == 0.0
    assert degree_of_collaboration({3: 9}) == 1.0


def test_dc_domain():
    with pytest.raises(DomainError):
        degree_of_collaboration({1: 0})


# ---------------------------------------------------------------------------
# CC / MCC

def test_cc_trivial_cases():
    assert collaborative_coefficient({1: 17}) == 0.0
    assert collaborative_coefficient({2: 40}) == approx(0.5)


def test_cc_2008_column(collab_fixture):
    cc = collaborative_coefficient(collab_fixture.class_counts(2008))
    assert cc == approx(0.6758, abs=5e-4)


def test_mcc_trivial_cases():
    assert modified_cc({4: 10}) == approx(1.0)
    with pytest.raises(DomainError):
        modified_cc({1: 10})
    with pytest.raises(DomainError):  # A is the largest class with papers
        modified_cc({1: 10, 2: 0})


def test_mcc_2008_column(collab_fixture):
    counts = collab_fixture.class_counts(2008)
    assert modified_cc(counts) == approx(0.7509, abs=1e-3)
    # A = 10, the largest class with papers in 2008
    assert modified_cc(counts) == approx((10 / 9) * collaborative_coefficient(counts))


@given(class_counts())
def test_cc_bounds(counts):
    cc = collaborative_coefficient(counts)
    largest = max(j for j, f in counts.items() if f > 0)
    assert 0.0 <= cc <= 1.0 - 1.0 / largest + 1e-12


@given(class_counts())
def test_mcc_dominates_cc(counts):
    largest = max(j for j, f in counts.items() if f > 0)
    if largest < 2:
        return
    assert modified_cc(counts) >= collaborative_coefficient(counts)


def test_collapsing_never_increases_cc():
    rng = np.random.default_rng(42)
    for _ in range(200):
        matrix = random_matrix(rng)
        caps = sorted(rng.choice(range(2, 12), size=2, replace=False))
        lo, hi = int(caps[0]), int(caps[1])
        cc_lo = collaborative_coefficient(matrix.collapse(lo).class_counts())
        cc_hi = collaborative_coefficient(matrix.collapse(hi).class_counts())
        assert cc_lo <= cc_hi + 1e-12


# ---------------------------------------------------------------------------
# CAI

def test_cai_multi_class_matches_published_ends(collab_fixture):
    cai = coauthorship_index(collab_fixture, MULTI_VS_SINGLE)
    assert cai[2008]["multi"] == approx(96.38, abs=1e-2)
    assert cai[2017]["multi"] == approx(104.17, abs=1e-2)


def test_cai_is_100_when_shares_match_global():
    matrix = AuthorshipMatrix((1, 2), (2000, 2001), ((10, 20), (30, 60)),
                              collapsed=False, cap=2)
    cai = coauthorship_index(matrix, MULTI_VS_SINGLE)
    for year in (2000, 2001):
        for value in cai[year].values():
            assert value == approx(100.0)


def test_cai_share_weighted_identity(collab_fixture):
    for partition in (MULTI_VS_SINGLE, TEAM_SIZE_CLASSES):
        cai = coauthorship_index(collab_fixture, partition)
        pooled = collab_fixture.class_counts()
        grand = collab_fixture.grand_total
        for year, by_class in cai.items():
            weighted = 0.0
            for label, lo, hi in partition:
                share = sum(f for j, f in pooled.items()
                            if j >= lo and (hi is None or j <= hi)) / grand
                weighted += share * by_class[label]
            assert weighted == approx(100.0, abs=1e-9)


def test_cai_empty_class_excluded_with_warning():
    matrix = AuthorshipMatrix((1,), (2000,), ((5,),), collapsed=False, cap=2)
    with pytest.warns(UserWarning, match="excluded"):
        cai = coauthorship_index(matrix, MULTI_VS_SINGLE)
    assert "multi" not in cai[2000]
    assert cai[2000]["single"] == approx(100.0)


# ---------------------------------------------------------------------------
# assembled report

def test_report_2008_row(collab_fixture):
    report = authorship_pattern_report(collab_fixture)
    row = report.row(2008)
    assert row.papers == 330
    assert row.dc == approx(0.912, abs=5e-4)
    assert row.cc == approx(0.6758, abs=5e-4)
    assert row.mcc == approx(0.7509, abs=1e-3)
    assert row.cai_multi == approx(96.38, abs=1e-2)


def test_report_pooled_row(collab_fixture):
    report = authorship_pattern_report(collab_fixture)
    assert report.total.papers == 7482
    assert report.total.cc == approx(0.7256, abs=5e-4)
    assert report.total.cai_multi == 100.0


def test_report_class_summary(authorship_fixture):
    report = authorship_pattern_report(authorship_fixture.collapse(10))
    by_class = {s.authors: s for s in report.class_summary}
    assert by_class[4].papers == 1072
    assert by_class[4].author_slots == 4288
    assert by_class[1].percent == approx(100 * 401 / 7482)


def test_report_single_paper_corpus():
    matrix = AuthorshipMatrix((1,), (2015,), ((1,),), collapsed=False, cap=2)
    with pytest.warns(UserWarning):
        report = authorship_pattern_report(matrix)
    row = report.rows[0]
    assert row.dc == 0.0
    assert row.cc == 0.0
    assert row.mcc is None


def test_report_drops_zero_filled_gap_years():
    # corpora with gap years produce all-zero matrix columns; the report
    # skips them since a year share is undefined there
    matrix = AuthorshipMatrix((1, 2), (2000, 2001, 2002),
                              ((3, 0, 2), (1, 0, 4)), collapsed=False, cap=2)
    report = authorship_pattern_report(matrix)
    assert [r.label for r in report.rows] == ["2000", "2002"]
    assert report.total.papers == 10


def test_report_csv_and_markdown(collab_fixture):
    report = authorship_pattern_report(collab_fixture)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "year,N,slots,ci,dc,cai_multi,cc,mcc"
    assert csv_text.splitlines()[-1].startswith("all,7482,")
    md = report.to_markdown()
    assert "| CC |" in md and "| MCC |" in md
