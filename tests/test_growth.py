import math
from itertools import accumulate

import pytest
from hypothesis import assume, given, strategies as st
from pytest import approx

from bibmet.errors import DomainError
from bibmet.growth import (
    BlockSummary,
    GrowthReport,
    GrowthRow,
    block_means,
    build_growth_report,
    default_blocks,
    doubling_time,
    growth_ratio_series,
    relative_growth_rate,
)
from bibmet.tables import YearlySeries


def series(*counts, start=2000):
    return YearlySeries(tuple((start + i, c) for i, c in enumerate(counts)))


# ---------------------------------------------------------------------------
# growth ratios

def test_ratio_is_prior_over_current(yearly_fixture):
    ratios = growth_ratio_series(yearly_fixture)
    assert ratios.value(2009) == approx(331 / 477)
    assert ratios.value(2008) is None


def test_constant_series_has_unit_ratios():
    ratios = growth_ratio_series(series(5, 5, 5))
    assert [v for _, v in ratios.entries] == [None, 1.0, 1.0]
    assert ratios.mean == 1.0


def test_zero_count_year_gives_undefined_ratio():
    ratios = growth_ratio_series(series(5, 0, 10))
    assert ratios.value(2001) is None
    # mean over the defined ratios only
    assert ratios.mean == approx(0.0)
    with pytest.raises(DomainError, match="no defined growth ratios"):
        growth_ratio_series(series(0, 0, 0)).mean


def test_ratio_needs_two_years():
    with pytest.raises(DomainError):
        growth_ratio_series(series(5))
    with pytest.raises(DomainError, match="at least two years"):
        relative_growth_rate(series(5))


# ---------------------------------------------------------------------------
# relative growth rate

def test_rgr_paper_convention(yearly_fixture):
    rgr = relative_growth_rate(yearly_fixture, convention="paper")
    assert rgr.value(2009) == approx(math.log(808) - math.log(477))
    assert rgr.value(2017) == approx(math.log(8486) - math.log(1494))
    assert rgr.value(2008) is None


def test_rgr_standard_convention(yearly_fixture):
    rgr = relative_growth_rate(yearly_fixture, convention="standard")
    assert rgr.value(2009) == approx(math.log(808) - math.log(331), abs=1e-12)
    assert rgr.value(2009) == approx(0.8924, abs=5e-4)


def test_rgr_zero_counts_yield_absent_entries():
    rgr = relative_growth_rate(series(5, 0, 10), convention="paper")
    assert rgr.value(2001) is None
    assert rgr.value(2002) is not None


def test_rgr_unknown_convention():
    with pytest.raises(DomainError):
        relative_growth_rate(series(1, 2), convention="bogus")


@given(st.integers(2, 1000))
def test_paper_rgr_scale_invariant(k):
    base = series(331, 477, 487, 583)
    scaled = series(*(p * k for p in base.papers))
    a = relative_growth_rate(base, "paper")
    b = relative_growth_rate(scaled, "paper")
    for (_, va), (_, vb) in zip(a.entries[1:], b.entries[1:]):
        assert vb == approx(va, abs=1e-12)


def test_standard_rgr_converges_to_log_ratio():
    geometric = series(*(2 ** i for i in range(31)))
    rgr = relative_growth_rate(geometric, "standard")
    assert rgr.entries[-1][1] == approx(math.log(2), abs=1e-6)


# ---------------------------------------------------------------------------
# doubling time

def test_doubling_time_definition():
    assert doubling_time(0.693) == 1.0
    assert doubling_time(0.5271) == approx(0.693 / 0.5271)
    assert doubling_time(1.0, exact_ln2=True) == approx(math.log(2))


def test_doubling_time_domain():
    with pytest.raises(DomainError):
        doubling_time(0.0)
    with pytest.raises(DomainError):
        doubling_time(-0.1)


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_doubling_time_inverts_rate(rgr):
    assert doubling_time(rgr) * rgr == approx(0.693, abs=1e-12)


# ---------------------------------------------------------------------------
# block means

def test_block_means_partition():
    means = block_means([1.0, 2.0, 3.0, 4.0, 5.0], [(0, 2), (2, 5)])
    assert means.per_block == (1.5, 4.0)
    assert means.overall == approx(2.75)


def test_single_block_equals_plain_mean():
    means = block_means([1.0, 2.0, 4.0], [(0, 3)])
    assert means.per_block == (approx(7 / 3),)
    assert means.overall == means.per_block[0]


def test_block_means_rejects_bad_partitions():
    with pytest.raises(DomainError):
        block_means([1.0, 2.0], [(0, 0), (0, 2)])  # empty block
    with pytest.raises(DomainError):
        block_means([1.0, 2.0], [(0, 1)])  # not covering
    with pytest.raises(DomainError):
        block_means([1.0, 2.0], [(1, 2)])  # gap at start
    with pytest.raises(DomainError, match="past the values"):
        block_means([1.0, 2.0], [(0, 3)])


def test_default_blocks():
    assert default_blocks(9, first=4) == ((0, 4), (4, 9))
    assert default_blocks(3, first=4) == ((0, 3),)


# ---------------------------------------------------------------------------
# assembled report

def test_report_row_consistency(yearly_fixture):
    report = build_growth_report(yearly_fixture)
    assert report.convention == "paper"
    for row in report.rows:
        if row.rgr is not None and row.rgr > 0:
            assert row.doubling_time * row.rgr == approx(0.693, abs=1e-12)
    years = [r.year for r in report.rows]
    assert years == sorted(years)


def test_report_blocks_cover_defined_rows(yearly_fixture):
    report = build_growth_report(yearly_fixture, block_split=4)
    assert [(b.start_year, b.end_year) for b in report.blocks] == [
        (2009, 2012), (2013, 2017)]
    assert report.mean_rgr == approx(
        (report.blocks[0].mean_rgr + report.blocks[1].mean_rgr) / 2)


def test_report_csv_shape(yearly_fixture):
    text = build_growth_report(yearly_fixture).to_csv()
    lines = text.splitlines()
    assert lines[0] == "year,papers,cum,ratio,rgr,dt"
    assert lines[1].startswith("2008,331,331,,,")
    row_2009 = lines[2].split(",")
    assert float(row_2009[4]) == approx(0.527, abs=5e-4)
    # block and overall summaries ride along as comments
    assert any(line.startswith("# block") for line in lines)


def test_report_markdown_mentions_blocks(yearly_fixture):
    md = build_growth_report(yearly_fixture).to_markdown()
    assert "| 2009 |" in md
    assert "2009-2012 mean" in md


def test_report_exact_ln2_flag(yearly_fixture):
    report = build_growth_report(yearly_fixture, exact_ln2=True)
    row = report.rows[1]
    assert row.doubling_time == approx(math.log(2) / row.rgr)


@st.composite
def gappy_series(draw):
    """A yearly series of 2 to 16 years with zero years and missing (gap) years."""
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 5]), min_size=1, max_size=15))
    years = list(accumulate([draw(st.integers(1950, 2000)), *steps]))
    counts = draw(st.lists(st.sampled_from([0, 1, 2, 7, 331, 10**6]),
                           min_size=len(years), max_size=len(years)))
    return YearlySeries(tuple(zip(years, counts)))


def assembled_report(series, convention, block_split, exact_ln2):
    """The growth table put together from the module's per-column functions."""
    ratios = growth_ratio_series(series)
    rgr = relative_growth_rate(series, convention)
    papers = dict(series.entries)
    years = [year for year, _ in ratios.entries]
    counts = [papers.get(year, 0) for year in years]
    rows = []
    for year, count, cum, (_, ratio), (_, g) in zip(years, counts, accumulate(counts),
                                                   ratios.entries, rgr.entries):
        dt = doubling_time(g, exact_ln2) if g is not None and g > 0 else None
        rows.append(GrowthRow(year, count, cum, ratio, g, dt))
    defined = [i for i, row in enumerate(rows) if row.doubling_time is not None]
    assume(defined)
    blocks = default_blocks(len(defined), first=block_split)
    rgr_means = block_means([rows[i].rgr for i in defined], blocks)
    dt_means = block_means([rows[i].doubling_time for i in defined], blocks)
    summaries = tuple(BlockSummary(rows[defined[start]].year, rows[defined[stop - 1]].year,
                                   rgr_means.per_block[k], dt_means.per_block[k])
                      for k, (start, stop) in enumerate(blocks))
    return GrowthReport(convention, tuple(rows), summaries, ratios.mean, rgr_means.overall,
                        dt_means.overall, math.log(2) if exact_ln2 else 0.693)


@given(gappy_series(), st.sampled_from(["paper", "standard"]), st.integers(1, 17),
       st.booleans())
def test_report_is_exactly_the_table_of_its_columns(series, convention, block_split,
                                                    exact_ln2):
    want = assembled_report(series, convention, block_split, exact_ln2)
    report = build_growth_report(series, convention, block_split, exact_ln2)
    for name in GrowthReport.__slots__:
        assert getattr(report, name) == getattr(want, name), name
