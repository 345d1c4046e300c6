import json
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st
from pytest import approx

from bibmet import lotka
from bibmet.corpus import Corpus, PublicationRecord
from bibmet.errors import DomainError
from bibmet.lotka import (
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


def test_ks_grid_is_bounded_before_any_row_is_built(monkeypatch):
    monkeypatch.setattr(lotka, "KS_X_MAX", 10)
    assert ks_test(dist((1, 100), (10, 1)), 2.0, 0.6).rows[-1].x == 10
    with pytest.raises(DomainError, match="x <= 10, got 11"):
        ks_test(dist((1, 100), (11, 1)), 2.0, 0.6)
