"""Author-productivity power-law analysis.

Lotka's law states that the number of authors who write exactly x papers
falls off as y = C / x^n, with the canonical exponent n = 2.  This module
estimates the exponent by ordinary least squares in log10-log10 space,
computes the normalizing constant C by truncated zeta summation, and
checks goodness of fit with a one-sample Kolmogorov-Smirnov test on the
cumulative proportions, the expected ones in closed form at each x.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError
from .tables import ProductivityDistribution, Value

if TYPE_CHECKING:
    from .corpus import Corpus

#: Critical-value coefficients for the one-sample K-S test, coeff / sqrt(N).
KS_COEFFICIENTS = {0.20: 1.07, 0.15: 1.14, 0.10: 1.22, 0.05: 1.36, 0.01: 1.63}

CRITICAL_MODES = ("standard", "paper")

#: Largest zeta truncation point: :func:`lotka_constant` sums that many terms.
TRUNCATION_MAX = 10**6
#: Terms of the expected share E that :func:`ks_test` adds one by one.
KS_HEAD_TERMS = 64


def productivity_distribution(corpus: Corpus) -> ProductivityDistribution:
    """Histogram of papers-per-author over the corpus.

    Author identity is the exact name string; the sum of x * y_x equals
    the corpus's total author slots.
    """
    from .corpus import CountTables  # here, so that a command on CSV tables loads no corpus
    return CountTables.from_corpus(corpus).productivity_distribution()


class LotkaFit(Value):
    """Least-squares power-law fit in log10 space.

    ``slope`` keeps its sign; ``n`` is its magnitude.  The regression
    sums are retained so the fit can be audited against hand-computed
    tables.  ``c`` is the normalizing constant, filled in separately by
    :func:`lotka_constant`.
    """

    __slots__ = ("n", "slope", "sum_x", "sum_y", "sum_xy", "sum_x2", "n_points", "points_used",
                 "warnings", "c")
    _defaults = {"warnings": (), "c": None}

    def with_constant(self, c: float) -> "LotkaFit":
        return LotkaFit(*self._fields()[:-1], c)  # every field as it is, but the last, c

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "slope": self.slope,
            "c": self.c,
            "sums": {
                "sum_x": self.sum_x,
                "sum_y": self.sum_y,
                "sum_xy": self.sum_xy,
                "sum_x2": self.sum_x2,
                "n_points": self.n_points,
            },
            "points_used": list(self.points_used),
            "warnings": list(self.warnings),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def fit_lotka_least_squares(dist: ProductivityDistribution,
                            include_top_class: bool = True) -> LotkaFit:
    """Fit the exponent by OLS on (log10 x, log10 y).

    Zero-count pairs are excluded (their log is undefined).  When the
    distribution's largest x is a collapsed "x or more" class, pass
    ``include_top_class=False`` to drop it, which is standard practice;
    the default keeps it as its nominal x.
    """
    pairs = list(dist.pairs)
    if not include_top_class:
        pairs = pairs[:-1]
    pairs = [(x, y) for x, y in pairs if y > 0]
    if len(pairs) < 2:
        raise DomainError("power-law fit needs at least two distinct x values "
                          "with nonzero counts; regression is singular")
    xs = [math.log10(x) for x, _ in pairs]
    ys = [math.log10(y) for _, y in pairs]
    m = len(pairs)
    sx = math.fsum(xs)
    sy = math.fsum(ys)
    sxy = math.fsum(a * b for a, b in zip(xs, ys))
    sx2 = math.fsum(a * a for a in xs)
    denominator = m * sx2 - sx * sx
    if denominator == 0:
        raise DomainError("all x values identical; regression is singular")
    slope = (m * sxy - sx * sy) / denominator
    notes = []
    if slope >= 0:
        notes.append("non-decreasing frequencies: slope is not negative, "
                     "the data do not look like a decaying power law")
    return LotkaFit(
        n=abs(slope), slope=slope,
        sum_x=sx, sum_y=sy, sum_xy=sxy, sum_x2=sx2,
        n_points=m, points_used=tuple(x for x, _ in pairs),
        warnings=tuple(notes),
    )


def lotka_constant(n: float, truncation: int = 20) -> float:
    """Normalizing constant C = 1 / sum_{x>=1} x^(-n).

    The infinite sum is evaluated as an explicit sum of the first
    ``truncation - 1`` terms plus an Euler-Maclaurin estimate of the
    tail:

        sum_{x=1}^{P-1} x^(-n) + P^(1-n)/(n-1) + P^(-n)/2
            + (n/24) (P-1)^(-(n+1))

    with P = ``truncation``, at most :data:`TRUNCATION_MAX`.  Requires a
    finite n > 1 (the series diverges at or below 1).
    """
    if not math.isfinite(n):
        raise DomainError(f"normalizing constant undefined for exponent {n}")
    if n <= 1:
        raise DomainError(f"normalizing constant undefined for exponent {n} <= 1")
    _check_truncation(truncation)
    p = truncation
    head = math.fsum(x ** (-n) for x in range(1, p))
    tail = p ** (1 - n) / (n - 1) + 0.5 * p ** (-n) + (n / 24.0) * (p - 1) ** (-(n + 1))
    return 1.0 / (head + tail)


def _check_truncation(truncation: int) -> None:
    if truncation < 2:
        raise DomainError("truncation must be >= 2")
    if truncation > TRUNCATION_MAX:
        raise DomainError(f"truncation must be <= {TRUNCATION_MAX}")


def expected_frequencies(n: float, c: float, xs) -> tuple[float, ...]:
    """Expected proportion of authors at each productivity: c / x^n.

    x^n is taken in log space, so that an int x beyond the float range works.
    """
    if not 0 < c <= 1:
        raise DomainError(f"constant c must be in (0, 1], got {c}")
    if not 0 < n < math.inf:
        raise DomainError(f"exponent must be positive and finite, got {n}")
    out = []
    for x in xs:
        if x < 1:
            raise DomainError(f"productivity x must be >= 1, got {x}")
        out.append(c * math.exp(-n * math.log(x)))
    return tuple(out)


class KSRow(NamedTuple):
    """One row of the K-S table; a tuple, so that a table of thousands builds fast."""

    x: int
    observed: int
    observed_prop: float
    observed_cum: float
    expected_prop: float
    expected_cum: float
    abs_diff: float


class KSReport(Value):
    """One-sample K-S comparison of observed and expected cumulative shares."""

    __slots__ = ("rows", "d_max", "x_at_dmax", "critical_value", "alpha", "mode", "n", "c",
                 "total_authors")

    @property
    def verdict(self) -> str:
        return "fits" if self.d_max <= self.critical_value else "rejected"

    def to_csv(self) -> str:
        head = (
            f"# n={self.n:.6f} c={self.c:.6f} alpha={self.alpha} mode={self.mode}\n"
            f"# d_max={self.d_max:.6f} at x={self.x_at_dmax} "
            f"critical={self.critical_value:.6f} verdict={self.verdict}\n"
            "x,y,observed,observed_cum,expected,expected_cum,diff\n"
        )
        # one format call per row; %s renders the integers as str() does
        return head + "".join(map("%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f\n".__mod__, self.rows))


def ks_critical_value(total_authors: int, alpha: float = 0.01,
                      mode: str = "standard", n: float | None = None) -> float:
    """Critical deviation for the one-sample K-S test.

    ``standard`` uses the tabulated large-sample coefficients
    (coeff(alpha) / sqrt(N)); ``paper`` divides the fitted exponent by
    sqrt(N), a nonstandard convention kept for reproducing legacy
    analyses.
    """
    if total_authors <= 0:
        raise DomainError("critical value needs a positive author count")
    coeff = _ks_coefficient(alpha)
    if mode == "standard":
        return coeff / math.sqrt(total_authors)
    if mode == "paper":
        if n is None or not 0 < n < math.inf:
            raise DomainError("paper-mode critical value needs a positive finite exponent")
        return n / math.sqrt(total_authors)
    raise DomainError(f"unknown critical-value mode {mode!r}; "
                      f"expected one of {CRITICAL_MODES}")


def ks_test(dist: ProductivityDistribution, n: float, c: float,
            alpha: float = 0.01, mode: str = "standard") -> KSReport:
    """Compare observed and expected cumulative productivity shares.

    The comparison runs over the contiguous integer grid 1..max(x):
    absent x values and x listed with no authors both contribute zero
    observed counts, so the maximum deviation does not depend on how the
    input was written down.  The expected cumulative share at x is
    E = c * H(x), H(x) the sum of k^(-n) over k = 1..x, from x alone: a
    running sum up to K = :data:`KS_HEAD_TERMS`, and above K the
    Euler-Maclaurin form of the terms from K + 1 to x (the integral, the
    end terms and the B2 and B4 corrections), which is within 1.1e-14
    relative of the exact sum and does not decrease with x.  Rows are
    built only where |F - E| can peak: at each x with authors and at the
    first and last x of each gap (a maximal run of x without authors,
    leading and trailing runs included), since inside a gap the observed
    share F is flat while E rises.  ``d_max`` is the maximum over the
    rows, first reached at ``x_at_dmax``.  Time and rows grow with the
    number of distinct x, not with max(x).

    Requires a finite n > 1.
    """
    if not 1 < n < math.inf:
        raise DomainError(f"K-S test needs a finite exponent > 1, got {n}")
    if not 0 < c <= 1:
        raise DomainError(f"constant c must be in (0, 1], got {c}")
    _ks_coefficient(alpha)  # validate early
    total = dist.total_authors
    if total <= 0:
        raise DomainError("K-S test needs a distribution with authors in it")

    observed = {x: y for x, y in dist.pairs if y > 0}
    top = max(dist.xs)
    # F is flat over a run of x without authors while E rises, so |F - E|
    # peaks at the run's first or last x: 1, top, or next to an x with authors
    near = {x + step for x in observed for step in (-1, 0, 1)}
    grid = sorted(x for x in near | {1, top} if 1 <= x <= top)
    k = KS_HEAD_TERMS
    head = [0.0, *accumulate(expected_frequencies(n, 1.0, range(1, k + 1)))]
    log_k = math.log(k)

    def em(log_x: float, power: float) -> float:
        # power is x^-n.  The integral from K to x, written so that n just
        # above 1 does not cancel, then the x-end terms; each power of x comes
        # first in its product, so that a huge n gives 0 * n * ..., never inf * 0
        return (-math.expm1((1 - n) * (log_x - log_k)) * k ** (1 - n) / (n - 1)
                + power / 2 - math.exp(-(n + 1) * log_x) * n / 12
                + math.exp(-(n + 3) * log_x) * n * (n + 1) * (n + 2) / 720)

    base = head[k] - em(log_k, math.exp(-n * log_k))
    rows = []
    obs_cum = 0.0
    for x in grid:
        # x^-n as expected_frequencies takes it, so that c * power is its share
        log_x = math.log(x)
        power = math.exp(-n * log_x)
        y = observed.get(x, 0)
        obs_prop = y / total
        obs_cum += obs_prop
        exp_cum = c * (head[x] if x <= k else base + em(log_x, power))
        rows.append(KSRow(x, y, obs_prop, obs_cum, c * power, exp_cum, abs(obs_cum - exp_cum)))
    peak = max(rows, key=lambda row: row.abs_diff)
    critical = ks_critical_value(total, alpha=alpha, mode=mode, n=n)
    return KSReport(rows=tuple(rows), d_max=peak.abs_diff, x_at_dmax=peak.x,
                    critical_value=critical, alpha=alpha, mode=mode,
                    n=n, c=c, total_authors=total)


def _ks_coefficient(alpha: float) -> float:
    for level, coeff in KS_COEFFICIENTS.items():
        if math.isclose(alpha, level, rel_tol=0, abs_tol=1e-9):
            return coeff
    supported = ", ".join(str(a) for a in sorted(KS_COEFFICIENTS))
    raise DomainError(f"unsupported significance level {alpha}; "
                      f"supported: {supported}")
