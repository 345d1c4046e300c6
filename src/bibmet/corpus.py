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
from itertools import chain, islice
from typing import Iterable, Iterator

from .errors import DomainError
from .tables import (YEAR_MAX, YEAR_MIN, AuthorshipMatrix, ProductivityDistribution, Value,
                     YearlySeries)

# papers in one batch, which CountTables.pieces counts and wos.write_export
# renders at once: about a 128 KiB chunk's worth of write_wos_export records
_PAPERS_PER_FOLD = 1024


def batches(papers: Iterable[tuple[str, int, tuple[str, ...]]]) -> Iterator[list]:
    """``papers`` in lists of 1,024 (the last one shorter), so a stream is never held whole."""
    papers = iter(papers)
    while batch := list(islice(papers, _PAPERS_PER_FOLD)):
        yield batch


def _normalize_authors(authors) -> tuple[str, ...]:
    # trim, drop empties, collapse duplicates (first occurrence wins)
    seen = {}
    for name in authors:
        name = str(name).strip()
        if name and name not in seen:
            seen[name] = None
    return tuple(seen)


class PublicationRecord(Value):
    """One publication: an opaque id, a year, and an ordered author list."""

    __slots__ = ("id", "year", "authors")

    def __init__(self, id: str, year: int, authors: tuple[str, ...]):
        authors = _normalize_authors(authors)
        if not id:
            raise ValueError("record id must be non-empty")
        if not isinstance(year, int) or not YEAR_MIN <= year <= YEAR_MAX:
            raise ValueError(f"year {year!r} outside [{YEAR_MIN}, {YEAR_MAX}]")
        if not authors:
            raise ValueError(f"record {id}: at least one author required")
        super().__init__(id, year, authors)

    @property
    def author_count(self) -> int:
        return len(self.authors)


class Corpus(Value):
    """An immutable collection of publication records with unique ids."""

    __slots__ = ("records",)

    def __init__(self, records: tuple[PublicationRecord, ...]):
        ids = [r.id for r in records]
        if len(set(ids)) != len(ids):
            dup = next(i for i, c in Counter(ids).items() if c > 1)
            raise ValueError(f"duplicate record id: {dup!r}")
        super().__init__(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def author_slots(self) -> int:
        """Total (paper, author-position) occurrences."""
        return sum(r.author_count for r in self.records)

    def merge(self, *others: "Corpus") -> "Corpus":
        return Corpus(tuple(chain.from_iterable(c.records for c in (self, *others))))


class CountTables:
    """Papers per (author count, year) and per author name, folded in batches of papers.

    These two counts determine the yearly series, the authorship matrix
    and the productivity distribution.
    """

    def __init__(self, papers: Iterable[tuple[str, int, tuple[str, ...]]] = ()):
        self.cells: Counter[tuple[int, int]] = Counter()
        self.papers_by_author: Counter[str] = Counter()
        self.fold(self.pieces(papers))

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "CountTables":
        return cls((r.id, r.year, r.authors) for r in corpus.records)

    @staticmethod
    def pieces(papers: Iterable[tuple[str, int, tuple[str, ...]]]) -> Iterator[tuple]:
        """What :meth:`fold` adds per batch of (id, year, distinct names) papers: cells, names."""
        for batch in batches(papers):
            yield (Counter((len(authors), year) for _, year, authors in batch),
                   list(chain.from_iterable(authors for _, _, authors in batch)))

    def fold(self, pieces: Iterable[tuple]) -> None:
        """Add ``(cells, names)`` pieces, as :meth:`pieces` yields them, one update each."""
        for cells, names in pieces:
            self.cells.update(cells)
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
