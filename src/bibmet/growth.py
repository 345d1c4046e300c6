"""Yearly growth statistics: growth ratios, relative growth rate, doubling time.

Two relative-growth-rate conventions are implemented.  The ``paper``
convention, the default, is

    rgr(t) = ln(cumulative(t)) - ln(annual(t))

which is what legacy scientometric growth tables tabulate (their W1/W2
columns are the two logs).  The ``standard`` convention is the textbook
log increment of the cumulative count,

    rgr(t) = ln(cumulative(t)) - ln(cumulative(t-1)).

Doubling time divides 0.693 by the rate; the three-decimal constant (not
ln 2 = 0.693147...) matches the published tables, and ``exact_ln2=True``
switches to full precision.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError
from .tables import YEAR_MAX, YEAR_MIN, Value, YearlySeries

LN2_APPROX = 0.693

_CONVENTIONS = ("paper", "standard")


class GrowthRatios(Value):
    """Per-year prior/current output ratios; ``None`` where undefined."""

    __slots__ = ("entries",)

    @property
    def mean(self) -> float:
        defined = [v for _, v in self.entries if v is not None]
        if not defined:
            raise DomainError("no defined growth ratios")
        return sum(defined) / len(defined)

    def value(self, year: int) -> float | None:
        return dict(self.entries)[year]


class RgrSeries(Value):
    """Per-year relative growth rate under a named convention."""

    __slots__ = ("convention", "entries")

    def value(self, year: int) -> float | None:
        return dict(self.entries)[year]


class BlockMeans(Value):
    """Arithmetic means over index blocks plus their overall mean."""

    __slots__ = ("per_block",)

    @property
    def overall(self) -> float:
        return sum(self.per_block) / len(self.per_block)


class GrowthRow(Value):
    __slots__ = ("year", "papers", "cumulative", "growth_ratio", "rgr", "doubling_time")


class BlockSummary(Value):
    __slots__ = ("start_year", "end_year", "mean_rgr", "mean_doubling_time")


class GrowthReport(Value):
    """Full growth table: per-year rows, block means, and overall means.

    ``mean_rgr`` and ``mean_doubling_time`` are means of the block means.
    """

    __slots__ = ("convention", "rows", "blocks", "mean_growth_ratio", "mean_rgr",
                 "mean_doubling_time", "ln2")

    def to_csv(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.6f}"

        lines = ["year,papers,cum,ratio,rgr,dt"]
        for r in self.rows:
            lines.append(f"{r.year},{r.papers},{r.cumulative},"
                         f"{fmt(r.growth_ratio)},{fmt(r.rgr)},{fmt(r.doubling_time)}")
        for b in self.blocks:
            lines.append(f"# block {b.start_year}-{b.end_year}: "
                         f"mean_rgr={b.mean_rgr:.6f} mean_dt={b.mean_doubling_time:.6f}")
        lines.append(f"# overall: mean_ratio={self.mean_growth_ratio:.6f} "
                     f"mean_rgr={self.mean_rgr:.6f} mean_dt={self.mean_doubling_time:.6f} "
                     f"convention={self.convention}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        def fmt(v, nd=3):
            return "-" if v is None else f"{v:.{nd}f}"

        lines = [
            "| Year | Output | Cum. | ln(out) | ln(cum) | Ratio | RGR | DT |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for r in self.rows:
            w1 = fmt(math.log(r.papers)) if r.papers > 0 else "-"
            w2 = fmt(math.log(r.cumulative)) if r.cumulative > 0 else "-"
            lines.append(f"| {r.year} | {r.papers} | {r.cumulative} | {w1} | {w2} | "
                         f"{fmt(r.growth_ratio)} | {fmt(r.rgr)} | {fmt(r.doubling_time)} |")
        for b in self.blocks:
            lines.append(f"| {b.start_year}-{b.end_year} mean |  |  |  |  |  | "
                         f"{b.mean_rgr:.3f} | {b.mean_doubling_time:.3f} |")
        lines.append(f"| overall |  |  |  |  | {self.mean_growth_ratio:.3f} | "
                     f"{self.mean_rgr:.3f} | {self.mean_doubling_time:.3f} |")
        return "\n".join(lines) + "\n"


def _every_year(series: YearlySeries) -> YearlySeries:
    """``series`` with each year missing inside its span counted as 0 papers.

    That is how :meth:`CountTables.yearly_series` counts an export, so a
    table and an export of the same papers give the same growth figures.
    """
    first, last = series.entries[0][0], series.entries[-1][0]
    if last - first + 1 == len(series):
        return series
    if last - first > YEAR_MAX - YEAR_MIN:
        raise DomainError(f"a yearly series with missing years must span at most "
                          f"{YEAR_MAX - YEAR_MIN + 1} years, got {first}-{last}")
    papers = dict(series.entries)
    return YearlySeries(tuple((year, papers.get(year, 0)) for year in range(first, last + 1)))


def growth_ratio_series(series: YearlySeries) -> GrowthRatios:
    """Ratio of the previous year's output to the current year's.

    The first year has no ratio; a year with zero output, as a year
    missing from ``series`` counts, yields an undefined (``None``) ratio
    for the following computation and is excluded from the mean.
    """
    series = _every_year(series)
    if len(series) < 2:
        raise DomainError("growth ratios need at least two years")
    entries: list[tuple[int, float | None]] = []
    papers = series.papers
    years = series.years
    entries.append((years[0], None))
    for i in range(1, len(years)):
        if papers[i] == 0:
            entries.append((years[i], None))
        else:
            entries.append((years[i], papers[i - 1] / papers[i]))
    return GrowthRatios(tuple(entries))


def relative_growth_rate(series: YearlySeries, convention: str = "paper") -> RgrSeries:
    """Per-year relative growth rate; see the module docstring for conventions.

    A year missing from ``series`` inside its span counts as 0 papers.
    """
    if convention not in _CONVENTIONS:
        raise DomainError(f"unknown rgr convention {convention!r}; "
                          f"expected one of {_CONVENTIONS}")
    series = _every_year(series)
    if len(series) < 2:
        raise DomainError("relative growth rate needs at least two years")
    papers = series.papers
    cum = series.cumulative
    years = series.years
    entries: list[tuple[int, float | None]] = [(years[0], None)]
    for i in range(1, len(years)):
        if convention == "paper":
            ok = cum[i] > 0 and papers[i] > 0
            value = math.log(cum[i]) - math.log(papers[i]) if ok else None
        else:
            ok = cum[i] > 0 and cum[i - 1] > 0
            value = math.log(cum[i]) - math.log(cum[i - 1]) if ok else None
        entries.append((years[i], value))
    return RgrSeries(convention, tuple(entries))


def doubling_time(rgr: float, exact_ln2: bool = False) -> float:
    """Years for output to double at the given rate: 0.693 / rgr."""
    if rgr <= 0:
        raise DomainError(f"doubling time undefined for rgr {rgr} <= 0")
    return (math.log(2) if exact_ln2 else LN2_APPROX) / rgr


def block_means(values: Sequence[float], blocks: Sequence[tuple[int, int]]) -> BlockMeans:
    """Mean per index block plus the mean of the block means.

    ``blocks`` are half-open ``(start, stop)`` ranges that must partition
    ``range(len(values))`` in order, with no empty block.
    """
    expected = 0
    means = []
    for start, stop in blocks:
        if start != expected:
            raise DomainError(f"blocks must partition the values; "
                              f"expected start {expected}, got {start}")
        if stop <= start:
            raise DomainError("empty block")
        if stop > len(values):
            raise DomainError("block extends past the values")
        chunk = values[start:stop]
        means.append(sum(chunk) / len(chunk))
        expected = stop
    if expected != len(values):
        raise DomainError("blocks do not cover all values")
    return BlockMeans(tuple(means))


def default_blocks(n_values: int, first: int = 4) -> tuple[tuple[int, int], ...]:
    """The default partition: the first ``first`` entries, then the rest."""
    if n_values <= first:
        return ((0, n_values),)
    return ((0, first), (first, n_values))


def _check_block_split(block_split: int) -> None:
    if block_split < 1:
        raise DomainError("block split must be >= 1")


def build_growth_report(series: YearlySeries, convention: str = "paper",
                        block_split: int = 4, exact_ln2: bool = False) -> GrowthReport:
    """Assemble the full growth table for a yearly series.

    ``block_split`` is the number of leading defined RGR entries in the
    first averaging block, at least 1; the remainder form the second block.
    A year missing from ``series`` inside its span gets a row of 0 papers.
    """
    _check_block_split(block_split)
    series = _every_year(series)
    ratios = growth_ratio_series(series)
    rgr = relative_growth_rate(series, convention=convention)
    ln2 = math.log(2) if exact_ln2 else LN2_APPROX

    rows = []
    for (year, papers), cum, (_, r), (_, g) in zip(series.entries, series.cumulative,
                                                   ratios.entries, rgr.entries):
        dt = ln2 / g if g is not None and g > 0 else None
        rows.append(GrowthRow(year, papers, cum, r, g, dt))
    # the rows with a doubling time, which have a positive rate too
    defined = [row for row in rows if row.doubling_time is not None]
    if not defined:
        raise DomainError("no defined growth-rate entries")
    parts = [defined[start:stop] for start, stop in default_blocks(len(defined), block_split)]
    blocks = tuple(BlockSummary(part[0].year, part[-1].year,
                                sum(row.rgr for row in part) / len(part),
                                sum(row.doubling_time for row in part) / len(part))
                   for part in parts)
    return GrowthReport(
        convention=convention,
        rows=tuple(rows),
        blocks=blocks,
        mean_growth_ratio=ratios.mean,
        mean_rgr=sum(b.mean_rgr for b in blocks) / len(blocks),
        mean_doubling_time=sum(b.mean_doubling_time for b in blocks) / len(blocks),
        ln2=ln2,
    )
