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

Batch exports overlap, so one id rule, kept in an :class:`ExportRun`,
holds for a whole run of exports: a later usable block with the ``UT``
of an earlier one is merged (dropped and tallied), and a block without
a ``UT``, or with one that equals a synthetic id given out before, takes
the next synthetic id (``rec000001``, ...) that no ``UT`` of the run holds.

One block scanner, :func:`scan_wos_export`, reads a run's exports in
chunks that end at a line end.  The chunk reader, which also reads the
CLI's CSV count tables, lives in :mod:`bibmet.tables`:
:func:`~bibmet.tables._file_chunks` reads a file, or a byte range of it,
``tables.CHUNK_CHARS`` bytes at most at a time and cuts the text after a
line end.  Between blocks the scanner first tries one regular expression
for the block :func:`write_wos_export` writes, which reads the whole
block with no work per line; every other block goes through the
line-by-line rules, which keep only the block's ``AU``/``PY``/``UT``
values in hand, so that a block cut by a chunk's end goes on in the next
chunk.  Both give the same papers, ids and tallies.
The scanner yields the kept blocks as
``(id, year, authors)`` papers, which the analysis commands fold straight
into :class:`~bibmet.corpus.CountTables`, so the memory of each process
is bounded by a few chunks plus the distinct authors and ids (and the
longest line), not by the size of the files.  :func:`write_export`
writes papers to a file as export text, a batch of blocks at a time.
For :func:`write_export_files` the scanner copies each run of canonical
blocks, one blank line apart, as read, where rendering its blocks would
give the same text; every other kept block is rendered.  Each run is
read in one regular-expression pass, which takes the blocks that follow
each other from the run's start, with their values, and the rest of the
chunk as one item at no cost per character; the run ends where its
blocks' text does.
:func:`count_export_files` and :func:`write_export_files` count or write
the papers of a run's files in one process per usable CPU: the files
are cut at record ends into byte ranges, so that a single export uses
every CPU, a forked child pickles, a segment at a time, the piece of
each batch of papers that :meth:`~bibmet.corpus.CountTables.fold` or the
writer takes and then the segment's :class:`ExportRun`, and this process,
in one loop, keeps a child's segment where the serial scan must give the
same and scans every other (:func:`_forked_scan`).  Only
:func:`parse_wos_export` and :func:`parse_wos_file`, one export each,
build one :class:`~bibmet.corpus.PublicationRecord` per block.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
import re
import signal
import stat
import tempfile
import threading
from operator import methodcaller
from typing import BinaryIO, Iterable, Iterator, TextIO, Union

from . import tables
from .corpus import Corpus, CountTables, PublicationRecord, batches
from .errors import EmptyCorpusError
from .tables import YEAR_MAX, YEAR_MIN, Value, _file_chunks, normalize_line_ends

_CONTINUATION = "   "

RECORD_END = "ER"
FILE_END = "EF"

# Each value of the block that write_wos_export writes starts and ends with
# a non-space, so it equals its own strip() and no line needs a look; its
# line end follows [^\n]* directly, so that a block of another shape fails
# without retrying shorter values.
_VALUE = r"\S[^\n]*"
_VALUE_END = r"\n(?<!\s\n)"


# the block's pattern, with AU, PY and UT groups; each group ends before its
# value's line end, so that the block's text is its AU and UT values and a
# fixed number of characters
_BLOCK = (rf"PT J\nAU ({_VALUE}(?:{_VALUE_END}{_CONTINUATION}{_VALUE})*){_VALUE_END}"
          rf"PY ([0-9]{{4}})\nUT ({_VALUE}){_VALUE_END}{RECORD_END}\n")
# the record block that write_wos_export writes, after any blank lines
_CANONICAL_BLOCK = re.compile(rf"\n*{_BLOCK}")
# one such block after exactly one blank line, as write_wos_export writes
# every block but the first; failing that, the rest of the text as one
# item with empty groups, which sre takes with no step per character
_RUN_BLOCK = re.compile(rf"\n{_BLOCK}|(?s:.+)")
_ER_LINE = "\n" + RECORD_END + "\n"
_ER_BYTES = re.compile(rb"\nER\r?\n")
# the first three characters of every tag line -> its tag: an upper-case
# letter and an upper-case letter or digit, then a space or the line's end
_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_TAG_PREFIXES = {a + b + end: a + b
                 for a in _UPPER for b in _UPPER + "0123456789" for end in (" ", "")}


class WosParseResult(Value):
    """A parsed corpus plus the tally of skipped (unusable) blocks.

    ``skipped_lines`` holds the starting line of each skipped block.
    """

    __slots__ = ("corpus", "skipped_lines")

    @property
    def skipped(self) -> int:
        return len(self.skipped_lines)


class ExportRun(Value):
    """What the exports of one run share: ids, tallies and block start lines.

    Unlike the other value types it is mutable, as the scan updates it, and
    so unhashable.
    """

    __slots__ = ("uts", "skipped_lines", "merged_lines", "records", "synthetic", "lines",
                 "ended")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, uts: set[str] | None = None, skipped_lines: list[int] | None = None,
                 merged_lines: list[int] | None = None, records: int = 0, synthetic: int = 0,
                 lines: int = 0, ended: bool = False):
        self.uts = set() if uts is None else uts  # of every usable block read
        # the lines of both, from the export's start
        self.skipped_lines = [] if skipped_lines is None else skipped_lines
        self.merged_lines = [] if merged_lines is None else merged_lines
        self.records = records  # kept blocks
        self.synthetic = synthetic  # the number of the last synthetic id given out
        # the export being read: its lines so far and whether its EF was read
        self.lines = lines
        self.ended = ended


def scan_wos_export(exports: Iterable[Iterable[str]],
                    run: ExportRun) -> Iterator[tuple[str, int, tuple[str, ...]]]:
    """Yield the kept blocks of a run's exports, in order, as ``(id, year, authors)``.

    ``exports`` yields one chunk iterable per export, whose pieces each
    end at a line end except the last, with every line end already
    written as ``\\n`` (an open file in universal-newline mode read by
    :func:`scan_wos_file`, or a whole normalized text).  A block is
    usable if it has at least one ``AU`` value and a parseable ``PY``
    year; its authors are stripped, empty names dropped and the first
    occurrence of a repeated name kept; its id follows the module's id
    rule.  Any other block, and a block left open by ``EF`` or an
    export's end, is skipped; ``run`` takes the tallies.  After an
    export's last block, raises :class:`EmptyCorpusError` if it had no
    usable block, naming the start line of the first block it skipped.
    """
    for chunks in exports:
        before = _open_export(run)
        yield from _scan(chunks, run)
        _close_export(run, before)


def _open_export(run: ExportRun) -> tuple[int, int]:
    # starts an export; returns the usable and skipped blocks of the run before it
    run.lines, run.ended = 0, False
    return run.records + len(run.merged_lines), len(run.skipped_lines)


def _close_export(run: ExportRun, before: tuple[int, int]) -> None:
    # the export that _open_export opened, returning before, has been read to its end
    usable, skips = before
    if run.records + len(run.merged_lines) == usable:
        if len(run.skipped_lines) > skips:
            raise EmptyCorpusError(
                "no parseable records; first malformed block starts here",
                line=run.skipped_lines[skips])
        raise EmptyCorpusError("no records found in input")


def _scan(chunks: Iterable[str], run: ExportRun,
          text_runs: bool = False) -> Iterator[Union[tuple[str, int, tuple[str, ...]], str]]:
    # scan_wos_export of the part of an export that chunks hold, which
    # begins after run.lines lines of that export, between two blocks.  With
    # text_runs, a run of canonical blocks after one the fast path kept is
    # yielded as its export text, a str, where _render_record would write
    # the same text for each of them.  A run is read, with its blocks' values,
    # by one findall from its start, and ends where the blocks found end.  A
    # run that fails is not tried again before its end, so that its blocks are
    # read as a run only once
    tag_of = _TAG_PREFIXES.get
    match, read_run = _CANONICAL_BLOCK.match, _RUN_BLOCK.findall
    fixed = len(_render_record("", YEAR_MIN, ("",)))  # a block's text but its AU and UT
    split_names = methodcaller("split", "\n" + _CONTINUATION)  # a matched AU value
    uts, skipped_lines, merged_lines = run.uts, run.skipped_lines, run.merged_lines
    records, synthetic = run.records, run.synthetic
    chunks = iter(chunks)
    kept: dict[str, list[str]] = {"AU": [], "PY": [], "UT": []}
    au, py, ut = kept.values()
    current: list[str] | None = None  # values that continuation lines extend
    start: int | None = None
    lineno = run.lines  # lines before the current position
    at_end = run.ended  # past EF: the rest is only read
    for text in chunks:
        pos = tried = 0  # tried: the end of the last run read in this chunk
        # the end of the chunk's last ER line, after which no run ends; 0
        # without text_runs, which reads no run
        last = text.rfind(_ER_LINE) + len(_ER_LINE) if text_runs else 0
        while pos < len(text) and not at_end:
            if start is None:
                block = match(text, pos)
                # a UT read before or given out as a synthetic id goes on
                # to the line-by-line rules, which merge or rename it
                if (block is not None and YEAR_MIN <= (year := int(block[2])) <= YEAR_MAX
                        and (rid := block[3]) not in uts
                        and not (synthetic and _given_out(rid, synthetic))):
                    end = block.end()
                    uts.add(rid)
                    records += 1
                    yield rid, year, tuple(dict.fromkeys(split_names(block[1])))
                    lineno += text.count("\n", pos, end)
                    pos = end
                    if not synthetic and tried < pos < last:
                        blocks = read_run(text, pos)  # the AU, PY and UT values of the run
                        if not blocks[-1][0]:
                            blocks.pop()  # the text after the run
                        if blocks:
                            # the blocks' text, if the run gave out no synthetic id so
                            # far and they hold no year out of range, no repeated or
                            # earlier UT and no block with a repeated name
                            names, years, ids = zip(*blocks)
                            tried = end = (pos + fixed * len(ids) + sum(map(len, names))
                                           + sum(map(len, ids)))
                            new = set(ids)
                            if (YEAR_MIN <= int(min(years)) and int(max(years)) <= YEAR_MAX
                                    and len(new) == len(ids) and uts.isdisjoint(new)
                                    and sum(map(len, map(set, teams := list(
                                        map(split_names, names))))) == sum(map(len, teams))):
                                uts.update(new)
                                records += len(ids)
                                yield text[pos + 1:end] + "\n"
                                lineno += text.count("\n", pos, end)
                                pos = end
                    continue
            # the end of the next ER line, or of the text; an ER line at pos
            # opens after the line end before it, or at the chunk's start
            if pos or not text.startswith(RECORD_END + "\n"):
                stop = text.find(_ER_LINE, max(pos - 1, 0))
                stop = len(text) if stop < 0 else stop + len(_ER_LINE)
            else:
                stop = len(RECORD_END) + 1
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
                        rid = next(filter(None, ut), None)
                        if not authors or year is None:
                            skipped_lines.append(start)
                        elif rid in uts:
                            merged_lines.append(start)
                        else:
                            if rid is not None:
                                uts.add(rid)
                            if rid is None or _given_out(rid, synthetic):
                                # the next synthetic id that no UT of the run holds
                                synthetic += 1
                                while (rid := f"rec{synthetic:06d}") in uts:
                                    synthetic += 1
                            records += 1
                            yield rid, year, authors
                    del au[:], py[:], ut[:]
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
    run.records, run.synthetic, run.lines, run.ended = records, synthetic, lineno, at_end


def _given_out(rid: str, synthetic: int) -> bool:
    # rec{n:06d} with 1 <= n <= synthetic: for a UT not read yet, an id the run gave out
    digits = rid[3:]
    return (rid[:3] == "rec" and digits.isascii() and digits.isdigit()
            and 0 < int(digits) <= synthetic and rid == f"rec{int(digits):06d}")


def scan_wos_file(paths: Iterable, run: ExportRun) -> Iterator[tuple[str, int, tuple[str, ...]]]:
    """:func:`scan_wos_export` of a run's tagged export files (UTF-8), in order."""
    return scan_wos_export(map(_file_chunks, paths), run)


def parse_wos_export(source: Union[str, TextIO]) -> WosParseResult:
    """Parse a tagged export into a corpus.

    ``source`` may be the text itself or a readable text stream.  Each
    block :func:`scan_wos_export` keeps becomes a
    :class:`PublicationRecord`, so a repeated ``UT`` gives one record.
    Raises :class:`EmptyCorpusError` if nothing parses.
    """
    text = source.read() if hasattr(source, "read") else source
    return _parse_result([normalize_line_ends(text)])


def parse_wos_file(path) -> WosParseResult:
    """Parse a tagged export file (UTF-8)."""
    return _parse_result(_file_chunks(path))


def _parse_result(chunks: Iterable[str]) -> WosParseResult:
    run = ExportRun()
    # one record per paper, built before skipped_lines is read
    corpus = Corpus(tuple(PublicationRecord(*p) for p in scan_wos_export([chunks], run)))
    return WosParseResult(corpus=corpus, skipped_lines=tuple(run.skipped_lines))


def write_wos_export(corpus: Corpus) -> str:
    """The tagged export of a corpus; :func:`parse_wos_export` reads it back unchanged."""
    out = io.StringIO()
    write_export(((r.id, r.year, r.authors) for r in corpus.records), out)
    return out.getvalue()


def write_export(papers: Iterable[tuple[str, int, tuple[str, ...]]], out: TextIO) -> None:
    """Write papers given as ``(id, year, authors)`` to ``out`` as export text, then ``EF``.

    The papers are rendered and written 1,024 at a time, so a stream of
    papers is never held whole.
    """
    out.writelines(_rendered(papers))
    out.write(FILE_END + "\n")


def _rendered(papers: Iterable[Union[tuple[str, int, tuple[str, ...]], str]]) -> Iterator[str]:
    # the export text of papers, a batch at a time; a str is the text of a
    # run of blocks that _scan copied as read, at most a chunk, and goes alone
    for kind, group in itertools.groupby(papers, type):
        if kind is str:
            yield from group
        else:
            for batch in batches(group):
                yield "".join([_render_record(*paper) for paper in batch])


def write_export_files(paths: Iterable, run: ExportRun, out: TextIO) -> None:
    """``write_export(scan_wos_file(paths, run), out)``, in one process per usable CPU.

    The text, the tallies in ``run`` and any error are the serial call's."""
    _forked_scan(paths, run, lambda chunks, run: _rendered(_scan(chunks, run, text_runs=True)),
                 out.writelines)
    out.write(FILE_END + "\n")


def count_export_files(paths: Iterable, run: ExportRun) -> CountTables:
    """``CountTables(scan_wos_file(paths, run))``, in one process per usable CPU.

    The tables, the tallies in ``run`` and any error are the serial call's."""
    counts = CountTables()
    _forked_scan(paths, run, lambda chunks, run: CountTables.pieces(_scan(chunks, run)),
                 counts.fold)
    return counts


def _forked_scan(paths: Iterable, run: ExportRun, scan, take) -> None:
    """``take(scan(chunks, run))`` per segment of ``paths``, all parts but the first in children.

    ``scan(chunks, run)`` yields one piece per batch of the papers that
    :func:`_scan` keeps from a segment's chunks.  The serial call's result,
    tallies in ``run`` and errors, raised at the same export, are kept.
    Each child scans a part (:func:`_cut`) a segment at a time, each with
    a fresh run, and pickles the segment's pieces to one file and then
    the segment's :class:`ExportRun`, which is read before the pieces,
    to another.  This process then takes every segment in order,
    those of its own first part too, in one loop.  It takes a child's
    pieces, with line numbers that go on from those before in the export,
    only where the serial scan must give the same: the child exited 0,
    neither the run so far nor the segment gave a synthetic id, no id the
    segment kept was read before in the run, and its export's ``EF`` was
    not read.  Any other segment it scans itself.
    Every child is reaped and every temporary file closed before this
    returns or raises.
    """
    parts = _cut(list(paths))
    if len(parts) > 1:
        import pickle  # here, so that a run that forks no child does not load it
    children: list[tuple[int, BinaryIO, BinaryIO]] = []  # started and not yet reaped

    def end_children():
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    with contextlib.ExitStack() as stack:
        stack.callback(end_children)
        for part in parts[1:]:
            try:
                sent = stack.enter_context(tempfile.TemporaryFile())
                result = stack.enter_context(tempfile.TemporaryFile())
            except OSError:
                break  # no child for this part or the later ones: they are scanned here
            # an interrupt waits until the child is in children, to be
            # ended, and the child takes it only inside _scan_part
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _scan_part(part, scan, sent, result, mask)
                children.append((pid, sent, result))
            except OSError:
                break
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i, part in enumerate(parts):
            status = None  # of this part's child, if it has one
            if i and children:
                _, status = os.waitpid(children[0][0], 0)
                _, sent, result = children.pop(0)  # popped only once reaped
                sent.seek(0)
                result.seek(0)
            for segment in part:
                _, start, stop = segment
                if not start:
                    before = _open_export(run)
                keep = status == 0
                if keep:
                    done = pickle.load(result)  # the segment's run
                    pieces = iter(functools.partial(pickle.load, sent), None)
                    # after the EF of its export, a segment is only read
                    keep = not (start and run.ended or run.synthetic or done.synthetic
                                or not run.uts.isdisjoint(done.uts))
                    if not keep:
                        for _ in pieces:
                            pass
                if keep:
                    run.uts.update(done.uts)
                    run.records += done.records
                    run.skipped_lines += [run.lines + line for line in done.skipped_lines]
                    run.merged_lines += [run.lines + line for line in done.merged_lines]
                    run.lines, run.ended = run.lines + done.lines, done.ended
                    del done  # its ids are not held while the pieces are taken
                    take(pieces)
                else:
                    take(scan(_file_chunks(*segment), run))
                if stop is None:
                    _close_export(run, before)


def _scan_part(part: list, scan, sent: BinaryIO, result: BinaryIO, mask) -> None:
    # in a forked child: for each segment, pickle its scan() pieces and None
    # to sent, and the fresh run it scanned with to result (its uts: the UTs
    # it kept, if it gave no synthetic id); then exit without returning to the
    # caller or flushing the buffers it inherited (stdout, stderr, the output)
    code = 1
    try:
        import pickle  # loaded by _forked_scan before the fork
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for segment in part:
            run = ExportRun()
            for piece in scan(_file_chunks(*segment), run):
                pickle.dump(piece, sent)
            pickle.dump(None, sent)
            pickle.dump(run, result)
        sent.flush()
        result.flush()
        code = 0
    finally:
        os._exit(code)


def _cut(paths: list) -> list[list]:
    """``paths`` cut into one part per usable CPU, or left whole.

    A part is a list of segments ``(path, start, stop)``: bytes
    ``start`` to ``stop`` (the end if None) of a file, so that a whole
    file is ``(path, 0, None)``.  The ``k``-th of ``n`` cuts falls at
    the first file end, or end of a line reading ``ER`` ended by ``\\n``
    or ``\\r\\n``, at or after byte ``total * k / n`` of the files and
    within ``tables.CHUNK_CHARS`` bytes of it, so that each part starts between
    two records.  Files are cut only where each is a regular file, which
    can be read once by one process and then by another, and no file is
    named twice, since its second reading is all merged and a child's
    reading of it would be thrown away; and only in a process with one
    thread, because a child forked from a threaded process can wait
    forever on a lock that another thread held at the fork.
    """
    whole = [[(path, 0, None) for path in paths]]
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if n < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return whole
    try:
        stats = [os.stat(path) for path in paths]
    except (OSError, ValueError):
        return whole  # the serial scan reports it at its export
    sizes = [st.st_size for st in stats]
    if (not all(stat.S_ISREG(st.st_mode) for st in stats) or not sum(sizes)
            or len({(st.st_dev, st.st_ino) for st in stats}) < len(stats)):
        return whole
    cuts = set()  # (file, byte) before which a part ends
    for k in range(1, n):
        i, offset = 0, sum(sizes) * k // n
        while offset >= sizes[i]:  # the offset is below the total, in some file
            i, offset = i + 1, offset - sizes[i]
        if offset:
            with open(paths[i], "rb") as fh:
                fh.seek(offset - 1)
                end = _ER_BYTES.search(fh.read(tables.CHUNK_CHARS + len(_ER_LINE) + 1))
            offset = sizes[i] if end is None else offset - 1 + end.end()
        cuts.add((i, offset) if offset < sizes[i] else (i + 1, 0))
    parts: list[list] = [[]]
    for i, path in enumerate(paths):
        start = 0
        for stop in sorted(byte for j, byte in cuts if j == i):
            if stop:
                parts[-1].append((path, start, stop))
                start = stop
            if parts[-1]:
                parts.append([])
        parts[-1].append((path, start, None))
    return parts


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
