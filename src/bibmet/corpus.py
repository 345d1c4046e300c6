"""Publication records and the count tables built from them.

A :class:`Corpus` is an immutable bag of :class:`PublicationRecord`
objects.  Every downstream metric is a pure function of counts, so merge
order of corpora never affects results; only record ids must stay unique.
No attempt is made to disambiguate author names across records: a paper
with j authors contributes j author slots, and the same name string on
two papers counts as one author with two papers.

:class:`CountTables` folds papers a batch at a time into the two counts that
the yearly series, the authorship matrix and the productivity
distribution are built from, so records need not be kept to tabulate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable

from .errors import DomainError
from .tables import AuthorshipMatrix, ProductivityDistribution, YearlySeries

YEAR_MIN = 1000
YEAR_MAX = 3000
# papers whose names CountTables.add folds into its Counter at once, about
# a 128 KiB chunk's worth of write_wos_export records
_PAPERS_PER_FOLD = 1024


def _normalize_authors(authors) -> tuple[str, ...]:
    # trim, drop empties, collapse duplicates (first occurrence wins)
    seen = {}
    for name in authors:
        name = str(name).strip()
        if name and name not in seen:
            seen[name] = None
    return tuple(seen)


@dataclass(frozen=True)
class PublicationRecord:
    """One publication: an opaque id, a year, and an ordered author list."""

    id: str
    year: int
    authors: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "authors", _normalize_authors(self.authors))
        if not self.id:
            raise ValueError("record id must be non-empty")
        if not isinstance(self.year, int) or not YEAR_MIN <= self.year <= YEAR_MAX:
            raise ValueError(f"year {self.year!r} outside [{YEAR_MIN}, {YEAR_MAX}]")
        if not self.authors:
            raise ValueError(f"record {self.id}: at least one author required")

    @property
    def author_count(self) -> int:
        return len(self.authors)


@dataclass(frozen=True)
class Corpus:
    """An immutable collection of publication records with unique ids."""

    records: tuple[PublicationRecord, ...]
    provenance: str = ""

    def __post_init__(self):
        check_unique_ids([r.id for r in self.records])

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def author_slots(self) -> int:
        """Total (paper, author-position) occurrences."""
        return sum(r.author_count for r in self.records)

    def merge(self, *others: "Corpus", provenance: str | None = None) -> "Corpus":
        corpora = (self, *others)
        records = tuple(chain.from_iterable(c.records for c in corpora))
        if provenance is None:
            provenance = " + ".join(c.provenance for c in corpora if c.provenance)
        return Corpus(records, provenance=provenance)


def check_unique_ids(ids: list[str]) -> None:
    """Raise ``ValueError`` naming the first id that occurs more than once."""
    if len(set(ids)) != len(ids):
        dup = next(i for i, c in Counter(ids).items() if c > 1)
        raise ValueError(f"duplicate record id: {dup!r}")


class CountTables:
    """Papers per (author count, year) and per author name, folded in batches of papers.

    These two counts determine the yearly series, the authorship matrix
    and the productivity distribution.
    """

    def __init__(self, papers: Iterable[tuple[str, int, tuple[str, ...]]] = ()):
        self.cells: Counter[tuple[int, int]] = Counter()
        self.papers_by_author: Counter[str] = Counter()
        self.add(papers)

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "CountTables":
        return cls((r.id, r.year, r.authors) for r in corpus.records)

    def add(self, papers: Iterable[tuple[str, int, tuple[str, ...]]]) -> None:
        """Count papers given as (id, year, distinct non-empty names).

        The names go into ``papers_by_author`` in one update per 1,024
        papers, so a stream of papers is never held whole.
        """
        papers = iter(papers)
        while batch := list(islice(papers, _PAPERS_PER_FOLD)):
            names: list[str] = []
            for _, year, authors in batch:
                self.cells[len(authors), year] += 1
                names += authors
            self.papers_by_author.update(names)

    def yearly_series(self) -> YearlySeries:
        """Papers per year, zero-filling gap years inside the span."""
        if not self.cells:
            raise DomainError("cannot build a yearly series from an empty corpus")
        by_year = Counter()
        for (_, year), papers in self.cells.items():
            by_year[year] += papers
        lo, hi = min(by_year), max(by_year)
        return YearlySeries(tuple((y, by_year.get(y, 0)) for y in range(lo, hi + 1)))

    def authorship_matrix(self, cap: int = 10, collapse: bool = True) -> AuthorshipMatrix:
        """Papers by author-count class and year; see :func:`build_authorship_matrix`.

        Without ``collapse`` the matrix has a class for every author count
        up to the largest present.  With it, the exact counts are folded by
        :meth:`AuthorshipMatrix.collapse`, which checks ``cap``.
        """
        if not self.cells:
            raise DomainError("cannot build an authorship matrix from an empty corpus")
        present = sorted({j for j, _ in self.cells})
        # collapse needs only the classes present (it adds the empty ones below
        # the cap), so one paper with a million authors costs no million rows
        classes = tuple(present if collapse else range(1, present[-1] + 1))
        years = tuple(range(min(y for _, y in self.cells), max(y for _, y in self.cells) + 1))
        counts = tuple(tuple(self.cells.get((j, y), 0) for y in years) for j in classes)
        matrix = AuthorshipMatrix(classes, years, counts, cap=max(2, present[-1]))
        return matrix.collapse(cap) if collapse else matrix

    def productivity_distribution(self) -> ProductivityDistribution:
        """Histogram of papers per author name."""
        if not self.cells:
            raise DomainError("cannot build a productivity distribution from an empty corpus")
        histogram = Counter(self.papers_by_author.values())
        return ProductivityDistribution(tuple(sorted(histogram.items())))


def build_yearly_series(corpus: Corpus) -> YearlySeries:
    """Count papers per year, zero-filling gap years inside the span."""
    return CountTables.from_corpus(corpus).yearly_series()


def build_authorship_matrix(corpus: Corpus, cap: int = 10,
                            collapse: bool = True) -> AuthorshipMatrix:
    """Tabulate papers by author-count class and year.

    With ``collapse`` enabled, papers with ``cap`` or more authors land in
    the top class; otherwise classes extend to the largest author count
    present and ``cap`` is ignored.
    """
    return CountTables.from_corpus(corpus).authorship_matrix(cap, collapse)
