"""Frequency-based research-collaboration indices.

All metrics operate on per-class paper counts ``f_j`` (number of papers
written by exactly j authors; a collapsed top class uses its nominal cap
as j):

* CI, collaborative index (Lawani): total author slots / total papers.
  Identical to the average authors per paper (AAPP).
* DC, degree of collaboration (Subramanyam): multi-authored papers over
  all papers, ``(N - f_1) / N``.
* CAI, co-authorship index (Garg and Padhi): a year's share of an
  author-count class relative to the global share, scaled so 100 means
  "matches the overall pattern":
  ``CAI[i][j] = (N_ij / N_io) / (N_oj / N_oo) * 100``.
* CC, collaborative coefficient (Ajiferuke, Burell and Tague):
  ``1 - (sum_j f_j / j) / N``; 0 for single-author corpora, bounded by
  ``1 - 1/A`` where A is the largest class.
* MCC, modified collaborative coefficient (Savanur and Srikanth):
  ``A / (A - 1) * CC``, rescaled so the maximum attainable value is 1.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

from .errors import DomainError
from .tables import AuthorshipMatrix, Value

# (label, smallest class, largest class or None for unbounded)
ClassPartition = Sequence[tuple[str, int, int | None]]

MULTI_VS_SINGLE: ClassPartition = (("single", 1, 1), ("multi", 2, None))
TEAM_SIZE_CLASSES: ClassPartition = (
    ("1", 1, 1), ("2", 2, 2), ("3-4", 3, 4), ("5+", 5, None))

PARTITIONS: dict[str, ClassPartition] = {
    "multi": MULTI_VS_SINGLE,
    "team": TEAM_SIZE_CLASSES,
}


def collaborative_index(author_slots: int, papers: int) -> float:
    """Mean number of authors per paper (CI, equivalently AAPP)."""
    if papers <= 0:
        raise DomainError("collaborative index needs a positive paper count")
    return author_slots / papers


def degree_of_collaboration(class_counts: Mapping[int, int]) -> float:
    """Fraction of multi-authored papers, ``(N - f_1) / N``."""
    n = sum(class_counts.values())
    if n <= 0:
        raise DomainError("degree of collaboration needs at least one paper")
    return (n - class_counts.get(1, 0)) / n


def collaborative_coefficient(class_counts: Mapping[int, int]) -> float:
    """``1 - (sum_j f_j / j) / N`` over author-count classes.

    A collapsed top class is divided by its nominal class value (the
    cap), which slightly understates the true coefficient.
    """
    n = sum(class_counts.values())
    if n <= 0:
        raise DomainError("collaborative coefficient needs at least one paper")
    if any(j < 1 for j in class_counts):
        raise DomainError("author-count classes must be >= 1")
    inverse_weighted = sum(f / j for j, f in class_counts.items())
    return 1.0 - inverse_weighted / n


def modified_cc(class_counts: Mapping[int, int]) -> float:
    """CC rescaled by ``A / (A - 1)`` so its maximum is 1.

    ``A`` is the largest class with a nonzero count.  Undefined (raises)
    when A < 2, i.e. for purely single-author data.
    """
    a = max((j for j, f in class_counts.items() if f > 0), default=0)
    if a < 2:
        raise DomainError("modified CC undefined for single-author data (A < 2)")
    return (a / (a - 1)) * collaborative_coefficient(class_counts)


def _partition_counts(counts: Mapping[int, int],
                      partition: ClassPartition) -> dict[str, int]:
    out = {}
    for label, lo, hi in partition:
        out[label] = sum(f for j, f in counts.items()
                         if j >= lo and (hi is None or j <= hi))
    return out


def coauthorship_index(matrix: AuthorshipMatrix,
                       partition: ClassPartition = MULTI_VS_SINGLE,
                       ) -> dict[int, dict[str, float]]:
    """Per-year, per-class CAI values.

    Classes with no papers overall are excluded with a warning; a year
    with no papers raises, since the year share is undefined.
    """
    pooled = _partition_counts(matrix.class_counts(), partition)
    grand = matrix.grand_total
    if grand <= 0:
        raise DomainError("co-authorship index needs a non-empty matrix")
    usable = []
    for label, lo, hi in partition:
        if pooled[label] == 0:
            warnings.warn(f"CAI class {label!r} has no papers overall; excluded",
                          stacklevel=2)
        else:
            usable.append((label, lo, hi))
    result: dict[int, dict[str, float]] = {}
    for year, column in zip(matrix.years, zip(*matrix.counts)):
        year_total = sum(column)
        if year_total == 0:
            raise DomainError(f"year {year} has no papers; CAI undefined")
        year_counts = _partition_counts(dict(zip(matrix.classes, column)), usable)
        result[year] = {
            label: (year_counts[label] / year_total) / (pooled[label] / grand) * 100.0
            for label, _, _ in usable
        }
    return result


class CollabRow(Value):
    """One period's collaboration metrics (a year, or the pooled total)."""

    __slots__ = ("label", "papers", "author_slots", "ci", "dc", "cai_multi", "cai_by_class",
                 "cc", "mcc")


class ClassSummary(Value):
    """Pooled per-class row: papers, author slots, share of all papers."""

    __slots__ = ("authors", "papers", "author_slots", "percent")


class CollabReport(Value):
    """Per-year collaboration metrics plus a pooled totals row."""

    __slots__ = ("rows", "total", "class_summary")

    def row(self, year: int) -> CollabRow:
        for r in self.rows:
            if r.label == str(year):
                return r
        raise KeyError(year)

    def to_csv(self) -> str:
        lines = ["year,N,slots,ci,dc,cai_multi,cc,mcc"]
        for r in (*self.rows, self.total):
            mcc = "" if r.mcc is None else f"{r.mcc:.6f}"
            cai = "" if r.cai_multi is None else f"{r.cai_multi:.6f}"
            lines.append(f"{r.label},{r.papers},{r.author_slots},"
                         f"{r.ci:.6f},{r.dc:.6f},{cai},"
                         f"{r.cc:.6f},{mcc}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        labels = [r.label for r in self.rows] + ["Total"]
        lines = ["| Metric | " + " | ".join(labels) + " |",
                 "|---|" + "---|" * len(labels)]

        def metric_row(name, values):
            lines.append(f"| {name} | " + " | ".join(values) + " |")

        everything = (*self.rows, self.total)
        metric_row("Papers", [str(r.papers) for r in everything])
        metric_row("Author slots", [str(r.author_slots) for r in everything])
        metric_row("CI", [f"{r.ci:.2f}" for r in everything])
        metric_row("DC", [f"{r.dc:.2f}" for r in everything])
        metric_row("CAI (multi)", ["-" if r.cai_multi is None else f"{r.cai_multi:.2f}"
                                   for r in everything])
        metric_row("CC", [f"{r.cc:.4f}" for r in everything])
        metric_row("MCC", ["-" if r.mcc is None else f"{r.mcc:.4f}"
                           for r in everything])
        return "\n".join(lines) + "\n"


def authorship_pattern_report(matrix: AuthorshipMatrix,
                              partition: ClassPartition = MULTI_VS_SINGLE,
                              ) -> CollabReport:
    """Assemble CI, DC, CAI, CC and MCC per year and pooled.

    Zero-filled gap years are dropped: no per-year share exists for a
    year without papers.
    """
    if matrix.grand_total <= 0:
        raise DomainError("authorship report needs a non-empty matrix")
    matrix = matrix.drop_empty_years()
    cai = coauthorship_index(matrix, partition)
    # the default partition is computed once, so its warnings print once
    cai_multi = (cai if partition == MULTI_VS_SINGLE
                 else coauthorship_index(matrix, MULTI_VS_SINGLE))

    def build_row(label: str, counts: Mapping[int, int],
                  cai_map: dict[str, float], multi_value: float | None) -> CollabRow:
        papers = sum(counts.values())
        slots = sum(j * f for j, f in counts.items())
        mcc = modified_cc(counts) if any(j >= 2 and f > 0 for j, f in counts.items()) else None
        return CollabRow(label, papers, slots, collaborative_index(slots, papers),
                         degree_of_collaboration(counts), multi_value, dict(cai_map),
                         collaborative_coefficient(counts), mcc)

    rows = [build_row(str(year), dict(zip(matrix.classes, column)), cai[year],
                      cai_multi[year].get("multi"))
            for year, column in zip(matrix.years, zip(*matrix.counts))]

    pooled = matrix.class_counts()
    # pooled CAI is identically 100 for every nonempty class by definition
    nonempty = {label for year_map in cai.values() for label in year_map}
    pooled_cai = {label: 100.0 for label, _, _ in partition if label in nonempty}
    has_multi = any("multi" in m for m in cai_multi.values())
    total = build_row("all", pooled, pooled_cai, 100.0 if has_multi else None)

    grand = matrix.grand_total
    # built by position, the short path of Value.__init__: an uncollapsed
    # matrix can hold a million classes
    summary = tuple(
        ClassSummary(j, papers, j * papers, 100.0 * papers / grand)
        for j, papers in pooled.items()
    )
    return CollabReport(rows=tuple(rows), total=total,
                        class_summary=summary)
