"""Reader and writer for Web-of-Science-style tagged plain-text exports.

The format is line oriented.  Each field starts with a two-character tag
in columns 1-2 (``PT``, ``AU``, ``PY``, ``UT``, ...) followed by a space
and the value; additional values continue on lines indented by exactly
three spaces.  A record ends at a line reading ``ER``, the file ends at
``EF``.  A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else.
Example record:

    PT J
    AU Smith, A
       Jones, B
    PY 2015
    UT WOS:000123456700001
    ER

Only ``AU`` (authors), ``PY`` (publication year) and ``UT`` (accession
id) are interpreted; everything else is carried past.  Blocks missing a
usable ``AU`` or ``PY`` are skipped and tallied rather than aborting the
whole file, so one mangled export block cannot kill a batch run.

One block scanner, :func:`scan_wos_export`, reads an export in chunks
that end at a line end (:func:`scan_wos_file` reads ``CHUNK_CHARS``
characters of a file at a time and completes each read to the next line
end).  Between blocks it first tries one regular expression for the
block that :func:`write_wos_export` writes (``PT J``, ``AU`` with
three-space continuations, a four-digit ``PY``, ``UT``, ``ER``, every
value already stripped), which reads the whole block with no work per
line.  Every other block goes through the line-by-line rules, which keep
only the ``AU``/``PY``/``UT`` values of the block in hand, so a block
cut by a chunk's end goes on in the next chunk; both give the same
papers, skipped lines and ids.  The scanner yields the kept blocks
as ``(id, year, authors)`` papers, the one shape every sink takes, and
appends their ids and the skipped blocks' start lines to the lists it
is given; :func:`scan_wos_file` does the same for a file.  The analysis
commands fold the papers straight into
:class:`~bibmet.corpus.CountTables`, so their memory is bounded by a few
chunks plus the distinct authors, not by the size of the file.
:func:`export_text` renders papers as export text, for ``bibmet ingest
--emit wos``, ``bibmet synth`` and :func:`write_wos_export`.  Only
:func:`parse_wos_export` and :func:`parse_wos_file` build one
:class:`~bibmet.corpus.PublicationRecord` per block.
"""

from __future__ import annotations

import functools
import io
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO, Union

from .corpus import YEAR_MAX, YEAR_MIN, Corpus, PublicationRecord
from .errors import EmptyCorpusError
from .tables import normalize_line_ends

_CONTINUATION = "   "

RECORD_END = "ER"
FILE_END = "EF"

#: Characters read from an export file at a time, before the rest of the line.
CHUNK_CHARS = 128 * 1024
# the record block that write_wos_export writes, after any blank lines.
# Each value starts and ends with a non-space, so it equals its own strip()
# and no line needs a look; its line end follows [^\n]* directly, so that
# a block of another shape fails without retrying shorter values.
_VALUE = r"\S[^\n]*"
_VALUE_END = r"\n(?<!\s\n)"
_CANONICAL_BLOCK = re.compile(
    rf"\n*PT J\nAU ({_VALUE}{_VALUE_END}(?:{_CONTINUATION}{_VALUE}{_VALUE_END})*)"
    rf"PY ([0-9]{{4}})\nUT ({_VALUE}){_VALUE_END}{RECORD_END}\n")
_ER_LINE = "\n" + RECORD_END + "\n"


@dataclass(frozen=True)
class WosParseResult:
    """A parsed corpus plus the tally of skipped (unusable) blocks."""

    corpus: Corpus
    skipped_lines: tuple[int, ...]  # starting line of each skipped block

    @property
    def skipped(self) -> int:
        return len(self.skipped_lines)


def scan_wos_export(chunks: Iterable[str], skipped_lines: list[int],
                    record_ids: list[str]) -> Iterator[tuple[str, int, tuple[str, ...]]]:
    """Yield the kept blocks of one export as ``(id, year, authors)``.

    ``chunks`` yields the export's text in pieces of any size, each
    ending at a line end except the last, with every line end already
    written as ``\\n`` (an open file in universal-newline mode read by
    :func:`scan_wos_file`, or a whole normalized text).  A
    block is kept if it has at least one ``AU`` value and a parseable
    ``PY`` year; its authors are stripped, empty names dropped and the
    first occurrence of a repeated name kept, and its id is the ``UT``
    value, or the next free sequential synthetic id (``rec000001``, ...)
    when the block has none or the export already used it.  Each kept
    id is appended to ``record_ids``.  Any other block, and a block left
    open by ``EF`` or the end of input, is skipped: its start line is
    appended to ``skipped_lines``.  Raises :class:`EmptyCorpusError`
    after the last block if none was kept, naming the start line of the
    first block this export skipped when there is one.

    Between blocks, one regular expression tries the block shape that
    :func:`write_wos_export` writes; a match is the whole block, read with
    no work per line.  Every other block goes through the line-by-line
    rules, up to the next ``ER`` line or the chunk's end at a time; a block
    open at a chunk's end goes on in the next chunk.
    """
    tag_of = _tag_prefixes().get
    match = _CANONICAL_BLOCK.match
    next_name = "\n" + _CONTINUATION  # between two AU values of a matched block
    chunks = iter(chunks)
    seen: set[str] = set()
    synthetic = 0
    skips_before = len(skipped_lines)  # skipped lines of earlier exports
    au: list[str] = []
    py: list[str] = []
    ut: list[str] = []
    kept = {"AU": au, "PY": py, "UT": ut}
    current: list[str] | None = None  # values that continuation lines extend
    start: int | None = None
    lineno = 0  # lines before the current position
    at_end = False

    def record_id(value: str | None) -> str:
        nonlocal synthetic
        if value is None or value in seen:
            synthetic += 1
            value = f"rec{synthetic:06d}"
            while value in seen:
                synthetic += 1
                value = f"rec{synthetic:06d}"
        seen.add(value)
        record_ids.append(value)
        return value

    for text in chunks:
        pos = 0
        while pos < len(text) and not at_end:
            if start is None:
                block = match(text, pos)
                if block is not None and YEAR_MIN <= (year := int(block[2])) <= YEAR_MAX:
                    end = block.end()
                    authors = tuple(dict.fromkeys(block[1][:-1].split(next_name)))
                    yield record_id(block[3]), year, authors
                    lineno += text.count("\n", pos, end)
                    pos = end
                    continue
            stop = text.find(_ER_LINE, pos)
            stop = len(text) if stop < 0 else stop + len(_ER_LINE)
            lines = text[pos:stop].split("\n")
            if not lines[-1]:
                lines.pop()  # the chunk ended at a line end, not before one more line
            pos = stop
            for lineno, raw in enumerate(lines, start=lineno + 1):
                tag = tag_of(raw[:3])
                if tag is None:
                    # a continuation line or stray unindented text extends the
                    # current field; a blank line ends it
                    value = raw.strip()
                    if not value:
                        current = None
                    elif current is not None:
                        current.append(value)
                    continue
                if tag == RECORD_END:
                    if start is not None:
                        authors = tuple(dict.fromkeys(filter(None, au)))
                        year = _parse_year(py)
                        if not authors or year is None:
                            skipped_lines.append(start)
                        else:
                            yield record_id(next(filter(None, ut), None)), year, authors
                    au.clear()
                    py.clear()
                    ut.clear()
                    current = start = None
                    continue
                if tag == FILE_END:
                    at_end = True
                    break
                if start is None:
                    start = lineno
                current = kept.get(tag)
                if current is not None:
                    current.append(raw[3:].strip())
        if at_end:
            # read on to the end, so that undecodable bytes after EF are
            # still reported as they are when the whole file is read
            for _ in chunks:
                pass
            break

    if start is not None:
        # trailing block without an ER terminator is malformed
        skipped_lines.append(start)
    if not seen:
        if len(skipped_lines) > skips_before:
            raise EmptyCorpusError(
                "no parseable records; first malformed block starts here",
                line=skipped_lines[skips_before])
        raise EmptyCorpusError("no records found in input")


def scan_wos_file(path, skipped_lines: list[int],
                  record_ids: list[str]) -> Iterator[tuple[str, int, tuple[str, ...]]]:
    """:func:`scan_wos_export` of a tagged export file (UTF-8)."""
    # universal-newline mode ends lines at \n, \r\n and \r only
    with io.open(path, "r", encoding="utf-8") as fh:
        try:
            chunks = iter(lambda: fh.read(CHUNK_CHARS) + fh.readline(), "")
            yield from scan_wos_export(chunks, skipped_lines, record_ids)
        except UnicodeDecodeError:
            # name the undecodable byte's offset from the start of the
            # file, as a whole-file read does, not from the current chunk
            fh.seek(0)
            fh.read()
            raise


def parse_wos_export(source: Union[str, TextIO], provenance: str = "") -> WosParseResult:
    """Parse a tagged export into a corpus.

    ``source`` may be the text itself or a readable text stream.  Each
    block :func:`scan_wos_export` keeps becomes a
    :class:`PublicationRecord`.  Raises :class:`EmptyCorpusError` if
    nothing parses.
    """
    text = source.read() if hasattr(source, "read") else source
    skipped_lines: list[int] = []
    return _parse_result(scan_wos_export([normalize_line_ends(text)], skipped_lines, []),
                         skipped_lines, provenance)


def parse_wos_file(path, provenance: str | None = None) -> WosParseResult:
    """Parse a tagged export file (UTF-8)."""
    skipped_lines: list[int] = []
    return _parse_result(scan_wos_file(path, skipped_lines, []), skipped_lines,
                         provenance if provenance is not None else str(path))


def _parse_result(papers: Iterable[tuple[str, int, tuple[str, ...]]],
                  skipped_lines: list[int], provenance: str) -> WosParseResult:
    # one record per paper, built before skipped_lines is read
    corpus = Corpus(tuple(PublicationRecord(*paper) for paper in papers), provenance=provenance)
    return WosParseResult(corpus=corpus, skipped_lines=tuple(skipped_lines))


@functools.cache
def _tag_prefixes() -> dict[str, str]:
    """The first three characters of every tag line -> its tag.

    A tag is an upper-case letter and an upper-case letter or digit,
    followed by a space or the line's end.  Built on first use, so that
    runs that read no export do not hold it.
    """
    upper = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    tags = [a + b for a in upper for b in upper + "0123456789"]
    return {tag + end: tag for tag in tags for end in (" ", "")}


def write_wos_export(corpus: Corpus) -> str:
    """Serialize a corpus back to the tagged format.

    Output is deterministic and round-trips through
    :func:`parse_wos_export` (ids, years, author lists and order are
    preserved).
    """
    return export_text((r.id, r.year, r.authors) for r in corpus.records)


def export_text(papers: Iterable[tuple[str, int, tuple[str, ...]]]) -> str:
    """Export text of papers given as ``(id, year, authors)``, in order, then ``EF``."""
    blocks = [_render_record(rid, year, authors) for rid, year, authors in papers]
    blocks.append(FILE_END + "\n")
    return "".join(blocks)


def _render_record(rid: str, year: int, authors: tuple[str, ...]) -> str:
    # PT, the first author on AU and the rest on continuation lines, PY,
    # UT, ER, then a blank line before the next record or EF
    authors = f"\n{_CONTINUATION}".join(authors)
    return f"PT J\nAU {authors}\nPY {year}\nUT {rid}\n{RECORD_END}\n\n"


def _parse_year(values: list[str]) -> int | None:
    # the first non-empty value decides; values are already stripped
    for v in values:
        if v:
            try:
                year = int(v)
            except ValueError:
                return None
            return year if YEAR_MIN <= year <= YEAR_MAX else None
    return None
