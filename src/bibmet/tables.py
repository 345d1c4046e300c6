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

Each table's ``__init__`` holds its rules (keys strictly increasing,
counts non-negative and at most ``COUNT_MAX``, ``x >= 1``, classes ``>= 1``
and at most ``COUNT_MAX``, a collapsed class ``>= 2``).  The CSV reader
checks only the header, the integer cells (ASCII digits after an optional
``-``) and the ``+`` marker.  It reads text, or chunks of it that end at a
line end as :func:`_file_chunks` reads a file (a table, or a tagged export
for :mod:`bibmet.wos`), once, and keeps the line of each row, so that a
rule is reported at the line of the first row breaking it.
"""

from __future__ import annotations

import codecs
import io
import sys
from array import array
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

#: Years a paper may have (an export's ``PY``, a generated corpus); ``corpus`` re-exports them.
YEAR_MIN = 1000
YEAR_MAX = 3000

#: Bytes read from an input file at a time; text after a read's last line end carries over.
CHUNK_CHARS = 128 * 1024


class Value:
    """An immutable value: built, compared, hashed, shown and pickled by its fields.

    A subclass lists its fields, in order, in ``__slots__``, and the
    default of each optional field in ``_defaults``.  A default is one
    object that every instance shares, so it must be immutable.
    ``Value.__init__`` binds the arguments to the fields by position or
    keyword, as a signature would, fills in the defaults and sets each
    field.  A type with rules checks them in an ``__init__`` of its own,
    which then calls ``Value.__init__``.  The value types are not
    dataclasses: importing ``dataclasses`` and generating their methods
    would cost every run about 20 ms at start-up.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            kind = self.__class__.__qualname__
            if len(args) > len(names):
                raise TypeError(f"{kind}() takes {len(names)} arguments but {len(args)} "
                                "were given")
            given = dict(zip(names, args))
            for name in kwargs:
                if name not in names:
                    raise TypeError(f"{kind}() got an unexpected keyword argument {name!r}")
                if name in given:
                    raise TypeError(f"{kind}() got multiple values for argument {name!r}")
            values = {**self._defaults, **given, **kwargs}
            missing = [name for name in names if name not in values]
            if missing:
                raise TypeError(f"{kind}() missing argument(s): {', '.join(missing)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class _RowError(ValueError):
    """A table rule broken at data row ``row`` (``-1``: header, ``None``: whole table)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class YearlySeries(Value):
    """Publication counts per year, with cumulative and percentage views."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int], ...]):
        if not entries:
            raise _RowError("a yearly series needs at least one entry")
        prev = None
        for i, (year, papers) in enumerate(entries):
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
        super().__init__(entries)

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


class AuthorshipMatrix(Value):
    """Counts of papers by author-count class and year.

    ``counts[i][k]`` is the number of papers in year ``years[k]`` written
    by exactly ``classes[i]`` authors; when ``collapsed`` is true the last
    class means "``cap`` or more authors" and ``cap == classes[-1]``.
    """

    __slots__ = ("classes", "years", "counts", "collapsed", "cap")

    def __init__(self, classes: tuple[int, ...], years: tuple[int, ...],
                 counts: tuple[tuple[int, ...], ...], collapsed: bool = False, cap: int = 10):
        if not classes or not years:
            raise _RowError("matrix needs at least one class and one year")
        if any(not isinstance(y, int) or y.__class__ is bool for y in years):
            raise _RowError("years must be integers", -1)
        if list(years) != sorted(set(years)):
            raise _RowError("years must be strictly increasing", -1)
        if len(counts) != len(classes):
            raise ValueError("one count row per class required")
        for i, (j, row) in enumerate(zip(classes, counts)):
            if not isinstance(j, int) or j.__class__ is bool or j < 1:
                raise _RowError("author-count classes must be integers >= 1", i)
            if j > COUNT_MAX:
                raise _RowError(f"author-count classes must be <= {COUNT_MAX}", i)
            if i and j <= classes[i - 1]:
                raise _RowError("classes must be strictly increasing", i)
            if len(row) != len(years):
                raise _RowError("one count per year required in each row", i)
            if any(not isinstance(c, int) or c.__class__ is bool or c < 0 for c in row):
                raise _RowError("counts must be non-negative integers", i)
            if max(row) > COUNT_MAX:
                raise _RowError(f"counts must be <= {COUNT_MAX}", i)
        if cap < 2:
            # the cap of a collapsed matrix is its last class
            raise _RowError("cap must be >= 2", len(classes) - 1 if collapsed else None)
        if collapsed and classes[-1] != cap:
            raise ValueError("collapsed matrix must end at the cap class")
        super().__init__(classes, years, counts, collapsed, cap)

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
        return YearlySeries(tuple(zip(self.years, map(sum, zip(*self.counts)))))

    def drop_empty_years(self) -> "AuthorshipMatrix":
        """Remove year columns with no papers (zero-filled gap years)."""
        keep = [k for k, total in enumerate(map(sum, zip(*self.counts))) if total > 0]
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
        collapsed matrix ``ValueError``, as it does where the top class of
        a year would hold more than ``COUNT_MAX`` papers.
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
        for year, total in zip(self.years, top):
            if total > COUNT_MAX:
                raise ValueError(f"year {year}: the classes >= {cap} that --cap folds "
                                 f"hold more than {COUNT_MAX} papers")
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


class ProductivityDistribution(Value):
    """Author-productivity histogram: ``y`` authors wrote exactly ``x`` papers."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        if not pairs:
            raise _RowError("a productivity distribution needs at least one pair")
        prev = None
        for i, (x, y) in enumerate(pairs):
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
        super().__init__(pairs)

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
    ``__init__``; a rule on the whole table (no data rows) is
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


def _file_chunks(path, start: int = 0, stop: int | None = None) -> Iterator[str]:
    # bytes start to stop (the end if None), at most CHUNK_CHARS a read (a pipe gives
    # what one read returns), decoded in universal-newline mode, which ends lines at
    # \n, \r\n and \r only; a segment starts and stops after a \n, so holds whole lines
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), True)
    line: list[str] = []  # the text read after the last line end
    offset = start  # of the next read in the file
    with io.FileIO(path) as fh:
        if start:  # a range of a regular file: a pipe cannot seek, even to 0
            fh.seek(start)
        while True:
            data = fh.read(CHUNK_CHARS if stop is None else min(CHUNK_CHARS, stop - offset))
            held = decoder.getstate()[0]  # undecoded bytes of the reads before
            try:
                text = decoder.decode(data, final=not data)
            except UnicodeDecodeError as exc:
                # named as a decode of the whole input names it, from its start
                raise _decode_error(exc, offset - len(held)) from None
            offset += len(data)
            # a chunk ends at the last line end read, but a line longer than a
            # read ends its own chunk, which then holds that line alone
            if (cut := (text.find if len(line) > 1 else text.rfind)("\n") + 1):
                line.append(text[:cut])
                chunk, line = "".join(line), [text[cut:]]  # no piece held on with it
                yield chunk
            else:
                line.append(text)
            if not data:
                break
    if rest := "".join(line):
        yield rest


def _decode_error(exc: UnicodeDecodeError, offset: int) -> ValueError:
    # exc's message with its positions moved on by offset
    first, last = offset + exc.start, offset + exc.end - 1
    what = (f"byte 0x{exc.object[exc.start]:02x} in position {first}" if first == last
            else f"bytes in position {first}-{last}")
    return ValueError(f"'{exc.encoding}' codec can't decode {what}: {exc.reason}")


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
