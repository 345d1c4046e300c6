"""Tabular count data: yearly output, authorship pattern, author productivity.

These three immutable types are the common currency of the toolkit.  Each
one round-trips through a small CSV dialect (comma separated, ``#`` comment
lines ignored, LF line endings, rows in ascending key order):

* :class:`YearlySeries`        header ``year,papers``
* :class:`AuthorshipMatrix`    header ``authors,<year>,<year>,...``
* :class:`ProductivityDistribution`  header ``x,y``

In the matrix dialect the first column holds the author-count class; a
trailing ``+`` on the last class label (``10+``) marks a collapsed top
class that absorbs all larger author counts.

Each table's ``__post_init__`` holds its rules (keys strictly increasing,
counts non-negative and at most ``COUNT_MAX``, ``x >= 1``, classes ``>= 1``
and at most ``COUNT_MAX``, a collapsed class ``>= 2``).  The CSV reader
checks only the header, the integer cells (ASCII digits after an optional
``-``) and the ``+`` marker.  It reads text, or chunks of it that end at a
line end as the CLI reads a file, once, and keeps the line of each row, so
that a rule is reported at the line of the first row breaking it.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Union

from .errors import DomainError, ParseError

TableShape = Literal["yearly", "matrix", "distribution"]
#: CSV text, or chunks of CSV text that end at a line end and use only ``\n`` line ends
CsvSource = Union[str, Iterable[str]]

#: Largest author-class cap: a matrix collapsed at ``cap`` has ``cap`` rows.
CAP_MAX = 10_000

#: Largest paper count, matrix cell, ``y`` or author-count class (an int64,
#: as ``PowerLawSpec.total_authors``); years and ``x`` have no bound.
COUNT_MAX = 2**63 - 1


class _RowError(ValueError):
    """A table rule broken at data row ``row`` (``-1``: header, ``None``: whole table)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class YearlySeries:
    """Publication counts per year, with cumulative and percentage views."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise _RowError("a yearly series needs at least one entry")
        prev = None
        for i, (year, papers) in enumerate(self.entries):
            # a bool is an int to Python, but its CSV cell would read "True"
            if (not isinstance(year, int) or not isinstance(papers, int)
                    or year.__class__ is bool or papers.__class__ is bool):
                raise _RowError("years and counts must be integers", i)
            if papers < 0:
                raise _RowError(f"negative paper count for {year}", i)
            if papers > COUNT_MAX:
                raise _RowError(f"paper count for {year} must be <= {COUNT_MAX}", i)
            if prev is not None and year <= prev:
                raise _RowError("years must be strictly increasing", i)
            prev = year

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(y for y, _ in self.entries)

    @property
    def papers(self) -> tuple[int, ...]:
        return tuple(p for _, p in self.entries)

    @property
    def total(self) -> int:
        return sum(self.papers)

    @property
    def cumulative(self) -> tuple[int, ...]:
        out, acc = [], 0
        for _, p in self.entries:
            acc += p
            out.append(acc)
        return tuple(out)

    @property
    def percentages(self) -> tuple[float, ...]:
        """Per-year share of the total, in percent."""
        total = self.total
        if total == 0:
            return tuple(0.0 for _ in self.entries)
        return tuple(100.0 * p / total for p in self.papers)

    def count(self, year: int) -> int:
        for y, p in self.entries:
            if y == year:
                return p
        raise KeyError(year)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_csv(self) -> str:
        lines = ["year,papers"]
        lines += [f"{y},{p}" for y, p in self.entries]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, source: CsvSource) -> "YearlySeries":
        return _read_csv(cls, source, "year,papers", "year", "paper count")


@dataclass(frozen=True)
class AuthorshipMatrix:
    """Counts of papers by author-count class and year.

    ``counts[i][k]`` is the number of papers in year ``years[k]`` written
    by exactly ``classes[i]`` authors; when ``collapsed`` is true the last
    class means "``cap`` or more authors" and ``cap == classes[-1]``.
    """

    classes: tuple[int, ...]
    years: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]
    collapsed: bool = False
    cap: int = 10

    def __post_init__(self):
        if not self.classes or not self.years:
            raise _RowError("matrix needs at least one class and one year")
        if any(not isinstance(y, int) or y.__class__ is bool for y in self.years):
            raise _RowError("years must be integers", -1)
        if list(self.years) != sorted(set(self.years)):
            raise _RowError("years must be strictly increasing", -1)
        if len(self.counts) != len(self.classes):
            raise ValueError("one count row per class required")
        for i, (j, row) in enumerate(zip(self.classes, self.counts)):
            if not isinstance(j, int) or j.__class__ is bool or j < 1:
                raise _RowError("author-count classes must be integers >= 1", i)
            if j > COUNT_MAX:
                raise _RowError(f"author-count classes must be <= {COUNT_MAX}", i)
            if i and j <= self.classes[i - 1]:
                raise _RowError("classes must be strictly increasing", i)
            if len(row) != len(self.years):
                raise _RowError("one count per year required in each row", i)
            if any(not isinstance(c, int) or c.__class__ is bool or c < 0 for c in row):
                raise _RowError("counts must be non-negative integers", i)
            if max(row) > COUNT_MAX:
                raise _RowError(f"counts must be <= {COUNT_MAX}", i)
        if self.cap < 2:
            # the cap of a collapsed matrix is its last class
            raise _RowError("cap must be >= 2",
                            len(self.classes) - 1 if self.collapsed else None)
        if self.collapsed and self.classes[-1] != self.cap:
            raise ValueError("collapsed matrix must end at the cap class")

    def year_index(self, year: int) -> int:
        try:
            return self.years.index(year)
        except ValueError:
            raise KeyError(year) from None

    def year_total(self, year: int) -> int:
        k = self.year_index(year)
        return sum(row[k] for row in self.counts)

    def class_total(self, j: int) -> int:
        i = self.classes.index(j)
        return sum(self.counts[i])

    @property
    def grand_total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def class_counts(self, year: int | None = None) -> dict[int, int]:
        """Mapping class -> paper count, for one year or pooled over all."""
        if year is None:
            return {j: sum(row) for j, row in zip(self.classes, self.counts)}
        k = self.year_index(year)
        return {j: self.counts[i][k] for i, j in enumerate(self.classes)}

    def author_slots(self, year: int | None = None) -> int:
        """Total author slots (sum of class * count) using nominal classes.

        For a collapsed matrix this undercounts true slots, since papers in
        the top class contribute only ``cap`` each.
        """
        counts = self.class_counts(year)
        return sum(j * c for j, c in counts.items())

    def yearly_series(self) -> YearlySeries:
        return YearlySeries(tuple((y, self.year_total(y)) for y in self.years))

    def drop_empty_years(self) -> "AuthorshipMatrix":
        """Remove year columns with no papers (zero-filled gap years)."""
        keep = [k for k, y in enumerate(self.years) if self.year_total(y) > 0]
        if len(keep) == len(self.years):
            return self
        if not keep:
            raise ValueError("matrix has no papers in any year")
        years = tuple(self.years[k] for k in keep)
        counts = tuple(tuple(row[k] for k in keep) for row in self.counts)
        return AuthorshipMatrix(self.classes, years, counts,
                                collapsed=self.collapsed, cap=self.cap)

    def collapse(self, cap: int) -> "AuthorshipMatrix":
        """Fold all classes >= ``cap`` into a single top class ``cap``.

        Classes below the cap that the matrix lacks become zero rows.
        This is the one place a cap is checked: outside ``[2, CAP_MAX]``
        it raises :class:`DomainError`, and above the cap of an already
        collapsed matrix ``ValueError``.
        """
        if cap < 2:
            raise DomainError("cap must be >= 2")
        if cap > CAP_MAX:
            raise DomainError(f"cap must be <= {CAP_MAX}")
        if self.collapsed and cap > self.cap:
            raise ValueError(
                f"cannot expand a matrix already collapsed at {self.cap} to {cap}")
        rows = dict(zip(self.classes, self.counts))
        zeros = (0,) * len(self.years)
        top = [0] * len(self.years)
        for j, row in rows.items():
            if j >= cap:
                top = [a + b for a, b in zip(top, row)]
        counts = tuple(rows.get(j, zeros) for j in range(1, cap)) + (tuple(top),)
        return AuthorshipMatrix(tuple(range(1, cap + 1)), self.years, counts,
                                collapsed=True, cap=cap)

    def to_csv(self) -> str:
        header = "authors," + ",".join(str(y) for y in self.years)
        lines = [header]
        for i, j in enumerate(self.classes):
            label = f"{j}+" if self.collapsed and i == len(self.classes) - 1 else str(j)
            lines.append(label + "," + ",".join(str(c) for c in self.counts[i]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, source: CsvSource) -> "AuthorshipMatrix":
        return _read_csv(cls, source, "authors,<year>,...", "author-count class", "count")


@dataclass(frozen=True)
class ProductivityDistribution:
    """Author-productivity histogram: ``y`` authors wrote exactly ``x`` papers."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise _RowError("a productivity distribution needs at least one pair")
        prev = None
        for i, (x, y) in enumerate(self.pairs):
            if (not isinstance(x, int) or not isinstance(y, int)
                    or x.__class__ is bool or y.__class__ is bool):
                raise _RowError("x and y must be integers", i)
            if x < 1:
                raise _RowError("papers-per-author count x must be >= 1", i)
            if y < 0:
                raise _RowError("author count y must be >= 0", i)
            if y > COUNT_MAX:
                raise _RowError(f"author count y must be <= {COUNT_MAX}", i)
            if prev is not None and x <= prev:
                raise _RowError("x values must be strictly increasing", i)
            prev = x

    @property
    def xs(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.pairs)

    @property
    def ys(self) -> tuple[int, ...]:
        return tuple(y for _, y in self.pairs)

    @property
    def total_authors(self) -> int:
        return sum(self.ys)

    @property
    def author_slots(self) -> int:
        """Total papers-per-author occurrences (sum of x * y)."""
        return sum(x * y for x, y in self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def to_csv(self) -> str:
        lines = ["x,y"]
        lines += [f"{x},{y}" for x, y in self.pairs]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, source: CsvSource) -> "ProductivityDistribution":
        return _read_csv(cls, source, "x,y", "x", "y")


CountTable = Union[YearlySeries, AuthorshipMatrix, ProductivityDistribution]


def parse_counts_csv(text: str, shape: TableShape) -> CountTable:
    """Parse a CSV fixture of the declared shape.

    ``shape`` selects the expected header: ``yearly`` (``year,papers``),
    ``matrix`` (``authors,<year>,...``) or ``distribution`` (``x,y``).
    Raises :class:`ParseError` at the line of the first row the reader
    cannot read, else of the first row that breaks a rule of the table's
    ``__post_init__``; a rule on the whole table (no data rows) is
    reported at the header.
    """
    table = {"yearly": YearlySeries, "matrix": AuthorshipMatrix,
             "distribution": ProductivityDistribution}.get(shape)
    if table is None:
        raise ValueError(f"unknown table shape: {shape!r}")
    return table.from_csv(text)


def normalize_line_ends(text: str) -> str:
    """``text`` with every ``\\r\\n`` and ``\\r`` line end written as ``\\n``."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _rows(chunks: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    # chunks end at a line end (the last may not) and hold only \n line ends
    lineno = 0
    for chunk in chunks:
        lines = chunk.split("\n")
        if not lines[-1]:
            lines.pop()  # the chunk ended at a line end, not before one more line
        for lineno, raw in enumerate(lines, start=lineno + 1):
            line = raw.lstrip("\ufeff").strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, [cell.strip() for cell in line.split(",")]


def _int_cell(cell: str, lineno: int, what: str) -> int:
    # ASCII digits after an optional "-": int() also takes spaces, "+", "_"
    # and other scripts' digits
    digits = cell.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{what} is not an integer: {_shown(cell)}", line=lineno)
    try:
        return int(cell)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} has more than {sys.get_int_max_str_digits()} digits",
                         line=lineno) from None


def _shown(text: str) -> str:
    """``repr(text)``, cut after 40 characters."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


def _read_csv(cls, source: CsvSource, expected: str, key: str, count: str) -> CountTable:
    """The table ``cls`` read from CSV ``source``, checking only what no table can.

    That is the header ``expected``, the cells per row, the integer ``key``
    and ``count`` cells and, in a matrix, the header years and the ``+`` on
    the last class.  A rule that ``cls`` finds broken is reported at its row.
    """
    matrix = cls is AuthorshipMatrix
    rows = _rows([normalize_line_ends(source)] if isinstance(source, str) else source)
    lineno, header = next(rows, (1, None))
    if header is None:
        raise ParseError(f"empty input, expected {expected!r} header", line=1)
    if matrix:
        if len(header) < 2 or header[0] != "authors":
            raise ParseError(f"expected header {expected!r}", line=lineno)
        years = tuple(_int_cell(c, lineno, "header year") for c in header[1:])
    elif header != expected.split(","):
        raise ParseError(
            f"expected header {expected!r}, got {_shown(','.join(header))}", line=lineno)
    lines = array("q", [lineno])  # the line of the header, then of each data row
    table, collapsed = [], False
    for lineno, cells in rows:
        if collapsed:
            raise ParseError("collapsed class marker '+' must be on the last row",
                             line=lineno)
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(cells)}", line=lineno)
        collapsed = matrix and cells[0].endswith("+")
        if collapsed:
            cells[0] = cells[0][:-1]
        digits = "".join(cells).replace("-", "")
        try:
            # one check per row for the characters; int() places the "-"
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            table.append(tuple(map(int, cells)))
        except ValueError:  # report the first cell that is not an integer
            for cell, what in zip(cells, [key] + [count] * len(cells)):
                _int_cell(cell, lineno, what)
        lines.append(lineno)
    try:
        if not matrix:
            return cls(tuple(table))
        classes = tuple(row[0] for row in table)
        top = classes[-1] if classes else 2
        return cls(classes, years, tuple(row[1:] for row in table),
                   collapsed=collapsed, cap=top if collapsed else max(2, top))
    except _RowError as exc:
        raise ParseError(str(exc), line=lines[0 if exc.row is None else exc.row + 1]) from None
