import json
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from pytest import approx

import seed_reference as ref
from bibmet import lotka
from bibmet.cli import _lotka_markdown
from bibmet.corpus import Corpus, PublicationRecord
from bibmet.errors import DomainError
from bibmet.lotka import (
    LotkaFit,
    expected_frequencies,
    fit_lotka_least_squares,
    ks_critical_value,
    ks_test,
    lotka_constant,
    productivity_distribution,
)
from bibmet.tables import ProductivityDistribution


def dist(*pairs):
    return ProductivityDistribution(tuple(pairs))


# ---------------------------------------------------------------------------
# productivity histogram from a corpus

def test_distinct_single_authors():
    corpus = Corpus(tuple(
        PublicationRecord(f"r{i}", 2010, (f"A{i}",)) for i in range(3)))
    assert productivity_distribution(corpus).pairs == ((1, 3),)


def test_repeat_author_counts_papers():
    corpus = Corpus((
        PublicationRecord("a", 2010, ("X",)),
        PublicationRecord("b", 2011, ("X", "Y")),
    ))
    assert productivity_distribution(corpus).pairs == ((1, 1), (2, 1))


def test_slots_conserved():
    corpus = Corpus((
        PublicationRecord("a", 2010, ("X", "Y", "Z")),
        PublicationRecord("b", 2011, ("X",)),
    ))
    d = productivity_distribution(corpus)
    assert d.author_slots == corpus.author_slots


def test_empty_corpus_rejected():
    with pytest.raises(DomainError):
        productivity_distribution(Corpus(()))


# ---------------------------------------------------------------------------
# least-squares fit

def test_fit_on_regression_fixture(regression_fixture):
    fit = fit_lotka_least_squares(regression_fixture)
    assert fit.sum_x == approx(6.559763, abs=1e-6)
    assert fit.sum_xy == approx(16.609491, abs=1e-4)
    assert fit.sum_x2 == approx(5.215159, abs=1e-6)
    assert fit.n == approx(1.9691, abs=1e-3)
    assert fit.slope == approx(-fit.n)
    assert fit.n_points == 10
    assert not fit.warnings


def test_fit_on_counted_fixture_differs(productivity_fixture):
    # the counted distribution (y(9) = 113) does not reproduce the
    # published exponent; its honest fit is ~1.992
    fit = fit_lotka_least_squares(productivity_fixture)
    assert fit.n == approx(1.9923, abs=1e-3)


def test_fit_exact_power_law():
    pairs = [(x, 64000 // x ** 2) for x in (1, 2, 4, 8)]
    fit = fit_lotka_least_squares(dist(*pairs))
    assert fit.n == approx(2.0, abs=1e-9)


def test_fit_two_points():
    fit = fit_lotka_least_squares(dist((1, 100), (10, 1)))
    assert fit.n == approx(2.0, abs=1e-12)
    assert fit.slope == approx(-2.0, abs=1e-12)


def test_fit_excluding_top_class(regression_fixture):
    fit = fit_lotka_least_squares(regression_fixture, include_top_class=False)
    assert fit.points_used == tuple(range(1, 10))
    assert fit.n != approx(1.9691, abs=1e-4)


def test_fit_skips_zero_counts():
    fit = fit_lotka_least_squares(dist((1, 100), (2, 0), (10, 1)))
    assert fit.points_used == (1, 10)


def test_fit_singular_cases():
    with pytest.raises(DomainError, match="singular"):
        fit_lotka_least_squares(dist((3, 10)))
    with pytest.raises(DomainError, match="singular"):
        fit_lotka_least_squares(dist((1, 5), (2, 0), (3, 0)))
    # two x values whose float logs are equal
    with pytest.raises(DomainError, match="all x values identical"):
        fit_lotka_least_squares(dist((10**400, 5), (10**400 + 1, 2)))


def test_fit_warns_on_growing_frequencies():
    fit = fit_lotka_least_squares(dist((1, 10), (2, 100)))
    assert fit.warnings
    assert fit.n == approx(abs(fit.slope))
    assert fit.slope > 0


@given(st.integers(2, 10 ** 6))
def test_fit_scale_invariance(k):
    base = dist((1, 16658), (2, 3397), (3, 1350), (4, 732), (5, 413))
    scaled = dist(*((x, y * k) for x, y in base.pairs))
    assert (fit_lotka_least_squares(scaled).n
            == approx(fit_lotka_least_squares(base).n, abs=1e-12))


@pytest.mark.parametrize("n0", [1.5, 2.0, 2.5])
def test_fit_consistency_on_rounded_law(n0):
    pairs = tuple((x, round(10 ** 6 * x ** (-n0))) for x in range(1, 51))
    fit = fit_lotka_least_squares(dist(*pairs))
    assert fit.n == approx(n0, abs=0.02)


def test_fit_json_export(regression_fixture):
    fit = fit_lotka_least_squares(regression_fixture).with_constant(0.5974)
    payload = json.loads(fit.to_json())
    assert payload["n"] == approx(1.9691, abs=1e-3)
    assert payload["c"] == 0.5974
    assert payload["sums"]["n_points"] == 10
    assert payload["points_used"] == list(range(1, 11))


# ---------------------------------------------------------------------------
# normalizing constant

def test_constant_matches_published_lookup():
    assert lotka_constant(1.96913) == approx(0.5974, abs=5e-4)


def test_constant_at_canonical_exponent():
    assert lotka_constant(2.0) == approx(6 / math.pi ** 2, abs=1e-4)
    assert lotka_constant(2.0) == approx(0.60793, abs=1e-4)


def test_constant_limits():
    assert lotka_constant(20.0) == approx(1.0, abs=1e-5)


def test_constant_domain():
    with pytest.raises(DomainError):
        lotka_constant(1.0)
    with pytest.raises(DomainError):
        lotka_constant(0.5)
    with pytest.raises(DomainError):
        lotka_constant(2.0, truncation=1)


@pytest.mark.parametrize("n", [1.5, 1.75, 2.0, 2.25, 2.5, 3.0])
def test_constant_normalizes_the_power_law(n):
    # independent oracle: the constant must invert the Riemann zeta value
    c = lotka_constant(n)
    assert c * scipy.special.zeta(n, 1) == approx(1.0, abs=1e-3)


@pytest.mark.parametrize("n", [2.0, 2.5, 3.0])
def test_expected_proportions_sum_to_one(n):
    c = lotka_constant(n)
    xs = np.arange(1, 10 ** 4 + 1, dtype=float)
    assert float((c * xs ** -n).sum()) == approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# expected frequencies

def test_expected_frequency_values():
    assert expected_frequencies(1.96913, 0.5974, [2])[0] == approx(0.1526, abs=5e-5)
    assert expected_frequencies(2.0, 0.6079, [2])[0] == approx(0.1520, abs=5e-5)
    assert expected_frequencies(3.3, 0.77, [1])[0] == 0.77


def test_expected_frequency_of_an_x_beyond_the_float_range():
    assert expected_frequencies(2.0, 0.6, [10**400]) == (0.0,)
    assert expected_frequencies(0.001, 1.0, [10**400])[0] == approx(10 ** -0.4, rel=1e-12)


def test_expected_frequency_domain():
    with pytest.raises(DomainError):
        expected_frequencies(2.0, 0.0, [1])
    with pytest.raises(DomainError):
        expected_frequencies(2.0, 1.5, [1])
    with pytest.raises(DomainError):
        expected_frequencies(-1.0, 0.5, [1])
    with pytest.raises(DomainError):
        expected_frequencies(2.0, 0.5, [0])


# ---------------------------------------------------------------------------
# K-S test

def test_ks_on_fixture_fitted_exponent(productivity_fixture):
    report = ks_test(productivity_fixture, 1.96913, 0.5974, alpha=0.01, mode="paper")
    assert report.d_max == approx(0.1034, abs=5e-4)
    assert report.x_at_dmax == 1
    assert report.critical_value == approx(0.0128, abs=1e-4)
    assert report.verdict == "rejected"


def test_ks_on_fixture_canonical_exponent(productivity_fixture):
    report = ks_test(productivity_fixture, 2.0, 0.6079, alpha=0.01, mode="standard")
    assert report.d_max == approx(0.0929, abs=5e-4)
    assert report.x_at_dmax == 1
    assert report.critical_value == approx(0.0106, abs=1e-4)


def test_ks_perfect_fit_has_zero_dmax():
    # with n = 2 and c = 0.8, expected shares over {1, 2} are exactly
    # (0.8, 0.2); counts in that ratio give zero deviation everywhere
    report = ks_test(dist((1, 800), (2, 200)), 2.0, 0.8, alpha=0.01)
    assert report.d_max == approx(0.0, abs=1e-15)


def test_ks_rows_are_cumulative(productivity_fixture):
    report = ks_test(productivity_fixture, 2.0, 0.6079)
    obs = [r.observed_cum for r in report.rows]
    exp = [r.expected_cum for r in report.rows]
    assert obs == sorted(obs)
    assert exp == sorted(exp)
    assert obs[-1] == approx(1.0)
    assert report.d_max == max(r.abs_diff for r in report.rows)
    props = [r.expected_prop for r in report.rows]
    assert props == sorted(props, reverse=True)


def test_ks_dmax_invariant_under_zero_insertion():
    sparse = dist((1, 694), (3, 306))
    padded = dist((1, 694), (2, 0), (3, 306))
    c = lotka_constant(2.0)
    a = ks_test(sparse, 2.0, c)
    b = ks_test(padded, 2.0, c)
    assert a.d_max == b.d_max
    assert a.x_at_dmax == b.x_at_dmax
    assert [r.abs_diff for r in a.rows] == [r.abs_diff for r in b.rows]


def test_ks_domain_checks(productivity_fixture):
    with pytest.raises(DomainError):
        ks_test(productivity_fixture, 0.9, 0.5)
    with pytest.raises(DomainError):
        ks_test(productivity_fixture, 2.0, 1.2)
    with pytest.raises(DomainError, match="supported"):
        ks_test(productivity_fixture, 2.0, 0.6, alpha=0.03)


def test_ks_csv_layout(productivity_fixture):
    text = ks_test(productivity_fixture, 2.0, 0.6079).to_csv()
    lines = text.splitlines()
    assert lines[2] == "x,y,observed,observed_cum,expected,expected_cum,diff"
    assert lines[3].startswith("1,16658,")
    assert "d_max=" in lines[1]


# ---------------------------------------------------------------------------
# critical values

def test_critical_value_paper_mode():
    assert ks_critical_value(23767, alpha=0.01, mode="paper", n=1.96913) == approx(
        0.0128, abs=1e-4)


def test_critical_value_standard_mode():
    assert ks_critical_value(23767, alpha=0.01) == approx(0.0106, abs=1e-4)
    assert ks_critical_value(10000, alpha=0.01) == approx(0.0163, abs=1e-6)
    assert ks_critical_value(10000, alpha=0.05) == approx(0.0136, abs=1e-6)


def test_critical_value_domain():
    with pytest.raises(DomainError, match="supported"):
        ks_critical_value(100, alpha=0.42)
    with pytest.raises(DomainError):
        ks_critical_value(0, alpha=0.01)
    with pytest.raises(DomainError):
        ks_critical_value(100, alpha=0.01, mode="paper", n=None)
    with pytest.raises(DomainError):
        ks_critical_value(100, alpha=0.01, mode="bogus")


@pytest.mark.parametrize("n", [math.nan, math.inf])
def test_non_finite_exponent_is_rejected(productivity_fixture, n):
    with pytest.raises(DomainError, match="undefined for exponent"):
        lotka_constant(n)
    with pytest.raises(DomainError, match="finite"):
        expected_frequencies(n, 0.5, [1])
    with pytest.raises(DomainError, match="finite"):
        ks_critical_value(100, alpha=0.01, mode="paper", n=n)
    with pytest.raises(DomainError, match="finite"):
        ks_test(productivity_fixture, n, 0.5)


# ---------------------------------------------------------------------------
# sparse K-S rows against the dense reference

@st.composite
def gappy_distributions(draw):
    """Distributions over x up to a few thousand with gaps of every length.

    Any listed x, the first and the last included, may have zero authors.
    """
    xs = []
    for _ in range(draw(st.integers(1, 8))):
        xs.append((xs[-1] if xs else 0) + draw(st.one_of(st.integers(1, 4), st.integers(5, 700))))
    ys = [draw(st.sampled_from([0, 0, 1, 2, 7, 60, 1500])) for _ in xs]
    ys[draw(st.integers(0, len(ys) - 1))] = draw(st.sampled_from([1, 2, 7, 60, 1500]))
    return dist(*zip(xs, ys))


exponents = st.floats(min_value=1.0, max_value=4.0, exclude_min=True)


def gap_ends(d):
    """The first and last x of each maximal run of 1..max(x) without authors."""
    authors = {x for x, y in d.pairs if y > 0}
    top = max(d.xs)
    gap = [x not in authors for x in range(top + 2)]
    gap[0] = gap[top + 1] = False
    return {x for x in range(1, top + 1) if gap[x] and not (gap[x - 1] and gap[x + 1])}


@settings(max_examples=200, deadline=None)
@given(gappy_distributions(), exponents, st.one_of(st.none(), st.floats(0.05, 1.0)))
def test_sparse_ks_matches_the_dense_reference(d, n, c):
    # the dense E is a running float sum, which drifts by up to ~5e-12 over
    # the few thousand terms drawn here; the sparse E is a closed form
    c = lotka_constant(n) if c is None else c
    sparse = ks_test(d, n, c)
    dense = ref.ks_test(d, n, c)
    assert sparse.d_max == approx(dense.d_max, rel=0, abs=1e-11)
    assert sparse.critical_value == dense.critical_value
    kept = {x for x, y in d.pairs if y > 0} | gap_ends(d)
    assert [r.x for r in sparse.rows] == sorted(kept)
    assert sparse.x_at_dmax in kept
    assert dense.rows[sparse.x_at_dmax - 1].abs_diff == approx(dense.d_max, rel=0, abs=1e-11)
    dense_rows = [r for r in dense.rows if r.x in kept]
    for row, want in zip(sparse.rows, dense_rows):
        assert row[:4] == want[:4]
        assert row.expected_prop == approx(want.expected_prop, rel=1e-13, abs=0)
        assert row.expected_cum == approx(want.expected_cum, rel=0, abs=1e-11)
        assert row.abs_diff == approx(want.abs_diff, rel=0, abs=1e-11)
    lines, dense_lines = sparse.to_csv().splitlines(), dense.to_csv().splitlines()
    assert (lines[0], lines[2]) == (dense_lines[0], dense_lines[2])
    assert [line.split(",")[:2] for line in lines[3:]] == [[str(r.x), str(r.observed)]
                                                           for r in dense_rows]


@given(gappy_distributions(), exponents)
def test_sparse_ks_rows_are_bounded_by_the_x_with_authors(d, n):
    rows = ks_test(d, n, lotka_constant(n)).rows
    k = sum(1 for _, y in d.pairs if y > 0)
    # k rows with authors and two ends for each of at most k + 1 gaps
    assert len(rows) <= 3 * k + 2
    if d.pairs[-1][1] > 0:
        # no trailing gap
        assert len(rows) <= 3 * k


@given(gappy_distributions(), exponents, st.data())
def test_listed_zeros_inside_the_grid_leave_the_rows_unchanged(d, n, data):
    free = sorted(set(range(1, max(d.xs))) - set(d.xs))
    extra = data.draw(st.lists(st.sampled_from(free), unique=True, max_size=20)) if free else []
    padded = dist(*sorted([*d.pairs, *((x, 0) for x in extra)]))
    c = lotka_constant(n)
    assert ks_test(padded, n, c) == ks_test(d, n, c)


def test_listed_zeros_inside_a_long_gap_leave_the_rows_unchanged():
    c = lotka_constant(2.0)
    sparse = ks_test(dist((1, 500), (300, 2)), 2.0, c)
    padded = ks_test(dist((1, 500), (50, 0), (120, 0), (299, 0), (300, 2)), 2.0, c)
    assert padded == sparse
    assert [r.x for r in sparse.rows] == [1, 2, 299, 300]


@pytest.mark.parametrize("pairs", [((1, 100), (10**6, 1)), ((1, 1), (10**6, 100)),
                                   ((1, 100), (10**12, 1)), ((1, 1), (10**12, 100)),
                                   ((1, 100), (10**400, 1)), ((1, 1), (10**400, 100))])
@pytest.mark.parametrize("n", [2.0, 4.0])
def test_ks_at_the_x_limit_has_at_most_five_rows(pairs, n):
    # x up to 10**400, beyond the float range: the rows are 1, 2, x - 1 and x
    report = ks_test(dist(*pairs), n, lotka_constant(n))
    top = pairs[-1][0]
    assert [r.x for r in report.rows] == [1, 2, top - 1, top]
    assert report.d_max == max(r.abs_diff for r in report.rows)


def test_ks_keeps_only_the_gap_ends_where_a_running_sum_would_stall():
    # at n = 4 the terms c * x^-4 fall below half an ulp of a running sum
    # near x = 9,550, so that sum stalls there; E keeps rising to the gap's end
    d = dist((1, 1), (20000, 1000))
    c = lotka_constant(4.0)
    report = ks_test(d, 4.0, c)
    assert [r.x for r in report.rows] == [1, 2, 19999, 20000]
    exact = c * math.fsum(k ** -4.0 for k in range(1, 20000))
    assert report.rows[2].expected_cum == approx(exact, rel=1e-13, abs=0)
    running = ref.ks_test(d, 4.0, c).rows[19998].expected_cum
    assert exact - running > 1e-13 * exact


SHARP_EXPONENTS = [1 + 1e-12, 1 + 1e-9, 1.0001, 1.09, 2.0, 4.0, 50.0]


@pytest.mark.parametrize("n", SHARP_EXPONENTS)
def test_ks_expected_share_is_the_partial_zeta_sum(n):
    # rows at every x up to 200, then at x spread up to 20,000 and next to them
    xs = [*range(1, 201), *range(263, 20000, 997), 20000]
    c = 0.6
    terms = [k ** -n for k in range(1, 20001)]
    for row in ks_test(dist(*((x, 1) for x in xs)), n, c).rows:
        assert row.expected_cum == approx(c * math.fsum(terms[:row.x]), rel=1e-13, abs=0)


@pytest.mark.parametrize("n", SHARP_EXPONENTS)
def test_ks_expected_share_does_not_decrease(n):
    # a dense grid across the end of the running sum, and far out, where a
    # term is below an ulp of E: so |F - E| peaks at a gap end
    for start in (1, 10**6, 10**12, 10**300):
        rows = ks_test(dist(*((x, 1) for x in range(start, start + 2000))), n, 1.0).rows
        e = [r.expected_cum for r in rows]
        assert all(b >= a - math.ulp(a) for a, b in zip(e, e[1:]))


@pytest.mark.parametrize("n, top", [(1e300, 20000), (2.0, 10**400), (1e300, 10**400)],
                         ids=["huge-n", "huge-x", "huge-n-and-x"])
def test_ks_stays_finite_at_a_huge_exponent_or_x(n, top):
    report = ks_test(dist((1, 5), (70, 2), (top, 1)), n, 0.5)
    assert all(math.isfinite(v) for row in report.rows for v in row[2:])
    assert math.isfinite(report.d_max)


def assert_expected_shares_are_expected_frequencies(report):
    for row in report.rows:
        assert row.expected_prop == expected_frequencies(report.n, report.c, [row.x])[0], row.x


@given(gappy_distributions(), exponents, st.floats(0.05, 1.0))
def test_ks_expected_share_is_exactly_expected_frequencies(d, n, c):
    # the dense reference above allows a relative 1e-13 here; the share is the same float
    assert_expected_shares_are_expected_frequencies(ks_test(d, n, c))


@pytest.mark.parametrize("top", [lotka.KS_HEAD_TERMS, lotka.KS_HEAD_TERMS + 1, 10**6, 10**400],
                         ids=["head-end", "past-head", "1e6", "1e400"])
@pytest.mark.parametrize("n", [*SHARP_EXPONENTS, 1e300])
def test_ks_expected_share_far_out_is_exactly_expected_frequencies(top, n):
    report = ks_test(dist((1, 5), (3, 2), (top, 1)), n, 0.75)
    assert [r.x for r in report.rows][-2:] == [top - 1, top]
    assert_expected_shares_are_expected_frequencies(report)


# ---------------------------------------------------------------------------
# K-S renderers against the frozen f-string renderers

@st.composite
def long_tails(draw):
    """A dense head of x = 1..k, then a few x spread up to 10^5, any of them with zero authors."""
    head = [(x, draw(st.sampled_from([0, 1, 3, 40, 900, 10**6]))) for x in
            range(1, draw(st.integers(1, 30)) + 1)]
    tail = draw(st.lists(st.integers(head[-1][0] + 1, 10**5), unique=True, max_size=6))
    pairs = [*head, *((x, draw(st.sampled_from([0, 1, 2]))) for x in sorted(tail))]
    if all(y == 0 for _, y in pairs):
        pairs[0] = (1, 1)
    return dist(*pairs)


@settings(max_examples=150, deadline=None)
@given(st.one_of(gappy_distributions(), long_tails()), exponents,
       st.one_of(st.none(), st.floats(0.05, 1.0)),
       st.sampled_from(sorted(lotka.KS_COEFFICIENTS)), st.sampled_from(lotka.CRITICAL_MODES))
def test_ks_renderers_match_the_frozen_f_string_renderers(d, n, c, alpha, mode):
    c = lotka_constant(n) if c is None else c
    report = ks_test(d, n, c, alpha=alpha, mode=mode)
    assert report.to_csv() == ref.ks_csv(report)
    fit = LotkaFit(n=n, slope=-n, sum_x=0.0, sum_y=0.0, sum_xy=0.0, sum_x2=0.0,
                   n_points=len(d), points_used=d.xs, c=c)
    assert _lotka_markdown(fit, report) == ref.ks_markdown(fit, report)
