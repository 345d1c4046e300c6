"""The scanner's canonical-block fast path and chunked reads against the seed reference.

Hypothesis writes exports in the block shape that ``write_wos_export``
writes, which the scanner reads with one regular expression per block,
and the writer as runs of such blocks copied as read, and gives one of
them at a time a deviation that must send it, or the whole file, down
the line-by-line rules: a value with Unicode whitespace around it, a
repeated name, a 2- or 4-space indent, an odd ``PY``, ``ER x``, no or
two blank lines, ``EF`` mid-file, CR or CRLF line ends, no final line
end, a reused, empty or missing ``UT``, ``rec000001`` after a block
without ``UT``.  Half the exports are a run of 20 to 30 blocks, so that
the deviation lands inside a run.  Files are read in chunks of 1, 7 or
64 bytes, each completed to the next line end, which cut blocks at every
line, or of the default size.
The count tables, skipped lines, errors and the bytes of
``bibmet ingest --emit wos`` must equal the reference's, and the scanner
must yield the same papers, ids, skipped and merged lines for the whole
run, and the writer the same bytes, with its fast path switched off.
"""

import bisect
import io
import itertools
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibmet import tables, wos
from bibmet.corpus import Corpus, PublicationRecord
from bibmet.synth import sample_corpus
from bibmet.tables import normalize_line_ends
from test_ingest_differential import (
    counts_path,
    outcome,
    reference,
    reference_emit,
    run_cli,
    run_records_path,
)

NAMES = st.sampled_from(["Smith, A", "Jones, B", "Lee, C", "Kim, D", "O'Neil, E-F", "x\x0cy"])
YEARS = st.sampled_from(["1000", "2001", "2015", "3000"])
SPACES = st.sampled_from(["\x85", "\x0c", " ", "\t", "\xa0", "\u2028", "\x1c"])
ODD_YEARS = st.sampled_from(["+2015", " 2015", "2015 ", "0999", "3001", "\u0662\u0660\u0661\u0665",
                             "02015", "20x1", ""])
DEVIATIONS = ["none", "space", "repeat", "indent", "year", "er", "no-blank", "two-blanks", "ef",
              "line-ends", "no-final-newline", "ut", "renamed"]


@st.composite
def canonical_blocks(draw, blanks=st.sampled_from([1, 1, 1, 2, 3])):
    return {"names": draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)),
            "indents": None, "year": draw(YEARS), "ut": "UT WOS:%d" % draw(st.integers(1, 99)),
            "er": "ER", "blanks": draw(blanks)}


def render(block):
    names = block["names"]
    indents = block["indents"] or ["   "] * len(names)
    lines = (["PT J", "AU " + names[0]] + [i + n for i, n in zip(indents[1:], names[1:])]
             + ["PY " + block["year"]] + ([block["ut"]] if block["ut"] is not None else [])
             + [block["er"]] + [""] * block["blanks"])
    return "".join(line + "\n" for line in lines)


@st.composite
def exports(draw):
    """A canonical export with at most one deviation."""
    if draw(st.booleans()):
        # one run, each block after one blank line and with a UT of its own,
        # which a second export of the same base repeats whole
        blocks = draw(st.lists(canonical_blocks(st.just(1)), min_size=20, max_size=30))
        base = draw(st.sampled_from([0, 100]))
        for i, block in enumerate(blocks):
            block["ut"] = f"UT WOS:{base + i}"
    else:
        blocks = draw(st.lists(canonical_blocks(), min_size=1, max_size=6))
    ef = draw(st.booleans())
    deviation = draw(st.sampled_from(DEVIATIONS))
    block = blocks[draw(st.integers(0, len(blocks) - 1))]
    names = block["names"]
    if deviation == "space":
        space = draw(SPACES)
        value = draw(st.sampled_from(["name", "ut"]))
        side = draw(st.sampled_from([(space, ""), ("", space), (space, space)]))
        if value == "ut":
            block["ut"] = "UT " + side[0] + block["ut"][3:] + side[1]
        else:
            i = draw(st.integers(0, len(names) - 1))
            names[i] = side[0] + names[i] + side[1]
    elif deviation == "repeat":
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
    elif deviation == "indent":
        if len(names) == 1:
            names.append("Zed, Z" if names[0] != "Zed, Z" else "Yu, Y")
        block["indents"] = ["   "] * len(names)
        i = draw(st.integers(1, len(names) - 1))
        block["indents"][i] = draw(st.sampled_from(["  ", "    "]))
    elif deviation == "year":
        block["year"] = draw(st.sampled_from(["0999", "3001"]) | ODD_YEARS)  # often out of range
    elif deviation == "er":
        block["er"] = draw(st.sampled_from(["ER x", "ER ", "ER  "]))
    elif deviation == "no-blank":
        block["blanks"] = 0
    elif deviation == "two-blanks":
        block["blanks"] = 2
    elif deviation == "ut":
        block["ut"] = draw(st.sampled_from(
            [None, "UT", "UT ", "UT   ", "UT rec000001", blocks[0]["ut"], blocks[-1]["ut"]]))
    elif deviation == "renamed" and len(blocks) > 1:
        # a block without UT takes rec000001, so a later one that holds it is renamed
        i = draw(st.integers(0, len(blocks) - 2))
        blocks[i]["ut"] = None
        blocks[draw(st.integers(i + 1, len(blocks) - 1))]["ut"] = "UT rec000001"
    texts = [render(b) for b in blocks]
    if deviation == "ef":
        texts.insert(draw(st.integers(1, len(texts))), "EF\n")
    text = "".join(texts) + ("EF\n" if ef else "")
    if deviation == "line-ends":
        text = text.replace("\n", draw(st.sampled_from(["\r", "\r\n"])))
    elif deviation == "no-final-newline":
        text = text.rstrip("\n")
    return text


@settings(max_examples=400, deadline=None)
@given(texts=st.lists(exports(), min_size=1, max_size=2),
       chunk=st.sampled_from([1, 7, 64, tables.CHUNK_CHARS]), strict=st.booleans())
def test_chunked_fast_path_matches_the_seed_reference(texts, chunk, strict):
    expected = outcome(lambda: reference(texts, 3))
    code, emitted, err = reference_emit(texts, strict)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tables, "CHUNK_CHARS", chunk):
        # a 256-byte file is one chunk at the default read size: a small one reached the reader
        probe = Path(tmp) / "probe.txt"
        probe.write_bytes(b"x\n" * 128)
        assert (len(list(tables._file_chunks(probe))) > 1) == (chunk < 256)
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"export{i}.txt"
            path.write_bytes(text.encode("utf-8"))
            paths.append(str(path))
        assert outcome(lambda: counts_path(paths, 3)) == expected
        assert outcome(lambda: run_records_path(paths, 3)) == expected
        argv = ["ingest", "--emit", "wos", *paths] + (["--strict"] if strict else [])
        assert run_cli(argv) == (code, emitted, err)
        with mock.patch.object(wos, "_CANONICAL_BLOCK", re.compile("(?!)")):
            # with no block kept by the fast path, the writer matches no run either
            assert run_cli(argv) == (code, emitted, err)
    # the run's papers, ids, skipped and merged lines, as without the fast path
    exports = []
    for text in texts:
        fh = io.StringIO(normalize_line_ends(text))
        exports.append(list(iter(lambda: fh.read(chunk) + fh.readline(), "")))
    scanned = outcome(lambda: scan(exports))
    with mock.patch.object(wos, "_CANONICAL_BLOCK", re.compile("(?!)")):
        assert outcome(lambda: scan(exports)) == scanned


def scan(exports):
    run = wos.ExportRun()
    papers = list(wos.scan_wos_export(exports, run))
    return papers, run


def test_every_block_write_wos_export_writes_is_canonical():
    # the fast path must fire on the writer's own output, or it only costs time
    corpus = sample_corpus(range(2001, 2004), [5, 0, 7], {1: 0.5, 3: 0.5}, seed=3)
    text = wos.write_wos_export(corpus)
    blocks = [m[0] for m in wos._CANONICAL_BLOCK.finditer(text)]
    assert len(blocks) == 12
    assert "".join(blocks) + "\nEF\n" == text
    # and every block after the first is in one run, which the writer copies as
    # read: one run read finds each of them and leaves no rest
    assert wos._RUN_BLOCK.findall(text, len(blocks[0]), len(text) - len("\nEF\n")) == [
        m.groups() for m in wos._CANONICAL_BLOCK.finditer(text)][1:]


@pytest.mark.parametrize("year", ["0999", "3001"], ids=["below-year-min", "above-year-max"])
def test_a_year_out_of_range_in_a_run_skips_its_block(tmp_path, monkeypatch, year):
    # the first block is kept alone, then the other three are matched as one
    # run, which its year check must refuse, so that the third block is skipped;
    # on one CPU, so that no cut between the blocks splits the run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    blocks = [render({"names": ["Smith, A", "Lee, C"], "indents": None, "year": y,
                      "ut": f"UT WOS:{i}", "er": "ER", "blanks": 1})
              for i, y in enumerate(["2001", "2002", year, "2003"])]
    path = tmp_path / "export.txt"
    path.write_text("".join(blocks) + "EF\n", encoding="utf-8")
    # the three are one run: a run read finds each of them and leaves no rest
    assert [y for _, y, _ in wos._RUN_BLOCK.findall(
        "\n" + "".join(blocks[1:]).removesuffix("\n"))] == ["2002", year, "2003"]
    assert run_cli(["ingest", "--emit", "wos", str(path)]) == (
        0, "".join(blocks[:2] + blocks[3:]) + "EF\n",
        "bibmet: parsed 3 record(s) from 1 file(s), skipped 1 block(s)\n")


def spaced(text):
    """``text`` with a space after the last name of every other block: its lines, not canonical."""
    parts = text.split("\nPY ")
    return "".join(part + (" \nPY " if i % 2 else "\nPY ")
                   for i, part in enumerate(parts[:-1])) + parts[-1]


def spy(monkeypatch):
    """Record the span of each run read, as ``(pos, end)``, where ``end`` ends its blocks."""
    reads = []
    read = wos._RUN_BLOCK

    class Reads:
        @staticmethod
        def findall(text, pos):
            found = list(read.finditer(text, pos))
            reads.append((pos, max((m.end() for m in found if m[1] is not None), default=pos)))
            return [m.groups("") for m in found]

    monkeypatch.setattr(wos, "_RUN_BLOCK", Reads())
    return reads


def deviating_export(case):
    """A writer's export, as its blocks and ``EF``, with one kind of block that ends a run."""
    corpus = sample_corpus(range(2001, 2004), [20] * 3, {1: 0.4, 3: 0.6}, seed=11)
    blocks = re.findall(r"PT J\n.*?\nER\n\n", wos.write_wos_export(corpus), re.S)
    for i in (10, 25, 40):
        if case == "blank-lines":
            # no blank line before one block and two before a later one, so
            # that a run must read each blank line exactly
            blocks[i] = blocks[i].removesuffix("\n")
            blocks[i + 2] += "\n"
        elif case == "title":
            blocks[i] = blocks[i].replace("\nPY ", "\nTI A title\nPY ")
    if case == "ef":
        blocks.insert(30, "EF\n")
    return blocks + ["EF\n"]


@pytest.mark.parametrize("case", ["blank-lines", "title", "ef", "cut"])
def test_a_chunk_that_is_not_one_run_is_written_as_the_seed_writes_it(tmp_path, monkeypatch,
                                                                       case):
    # chunks of about five blocks, most of them cut inside a block, so that
    # each deviation sits in a chunk with canonical blocks around it
    blocks = deviating_export(case)
    text = "".join(blocks)
    path = tmp_path / "export.txt"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(tables, "CHUNK_CHARS", 512)
    chunks = list(tables._file_chunks(path))
    assert sum(not chunk.endswith("\nER\n\n") for chunk in chunks[:-1]) > len(chunks) // 2
    for usable in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable)
        assert run_cli(["ingest", "--emit", "wos", str(path)]) == reference_emit([text], False)
    # a block is copied as read where it and a canonical block one blank line
    # before it are whole in one chunk, before EF: in a chunk with a
    # deviation too, on both sides of it
    pieces = list(wos._scan(chunks, wos.ExportRun(), text_runs=True))
    copied = "".join(piece for piece in pieces if isinstance(piece, str))
    ends = list(itertools.accumulate(map(len, chunks)))
    starts = list(itertools.accumulate(map(len, blocks), initial=0))

    def chunk_of(block):
        return bisect.bisect_right(ends, starts[block])

    def deviates(block):
        return "\nTI " in blocks[block] or not re.search(r"[^\n]\n\n\Z", blocks[block])

    runs = [j for j in range(1, blocks.index("EF\n"))
            if not deviates(j - 1) and "\nTI " not in blocks[j]
            and chunk_of(j - 1) == bisect.bisect_right(
                ends, starts[j] + len(blocks[j].rstrip("\n")))]  # its ER line's end
    assert all(blocks[j].rstrip("\n") + "\n\n" in copied for j in runs)
    if case != "cut":
        deviations = [i for i in range(len(blocks) - 1) if deviates(i)]
        assert deviations
        assert all(any(chunk_of(j) == chunk_of(i) for j in runs) for i in deviations)


@pytest.mark.parametrize("size", [300, 1000, 4096, 1 << 20])
def test_the_writer_reads_each_chunk_of_its_own_output_in_one_pass(monkeypatch, size):
    # every chunk of write_wos_export's text, after the block it starts
    # with, is one run read whole, so that no run is matched: the gain of
    # the one-pass read holds only while the writer's blocks are canonical
    corpus = sample_corpus(range(2001, 2005), [100] * 4, {1: 0.3, 2: 0.3, 5: 0.4}, seed=5)
    text = wos.write_wos_export(corpus)
    fh = io.StringIO(text)
    chunks = list(iter(lambda: fh.read(size) + fh.readline(), ""))
    reads = spy(monkeypatch)
    run = wos.ExportRun()
    pieces = list(wos._scan(chunks, run, text_runs=True))
    assert "".join(wos._rendered(pieces)) + wos.FILE_END + "\n" == text
    assert run.records == len(corpus)
    # per chunk, the block cut by its start (even where the cut fell before
    # its ER line) and one block alone, then the rest to its last block in
    # one read
    texts = sum(isinstance(piece, str) for piece in pieces)
    assert len(reads) == texts <= len(chunks)
    assert len(pieces) - texts <= 2 * len(chunks)
    if size > 1000:
        assert texts == len(chunks)


@pytest.mark.parametrize("repeats", ["every-block", "every-other-block", "trailing-space"])
def test_a_run_that_fails_is_not_tried_again_before_its_end(tmp_path, monkeypatch, repeats):
    # the second export repeats the UT of every block of the first, or of
    # every other one: its runs fail, and the blocks of a failed run must
    # not each cost a run read of the rest.  Or every other block of the
    # second has a trailing space after a name, so that each canonical block
    # of it is a run of its own, read once
    corpus = sample_corpus(range(2001, 2005), [500] * 4, {1: 0.3, 2: 0.3, 5: 0.4}, seed=7)
    first = tmp_path / "first.txt"
    first.write_text(wos.write_wos_export(corpus), encoding="utf-8")
    paths = [first, first]  # named twice, every block of the second merged
    if repeats != "every-block":
        paths[1] = tmp_path / "second.txt"
        text = wos.write_wos_export(Corpus(tuple(
            PublicationRecord(r.id + "-2", r.year, r.authors)
            if i % 2 or repeats == "trailing-space" else r
            for i, r in enumerate(corpus.records))))
        paths[1].write_text(spaced(text) if repeats == "trailing-space" else text,
                            encoding="utf-8")
    expected = io.StringIO()
    wos.write_export(wos.scan_wos_file(paths, wos.ExportRun()), expected)
    chunks = []

    def counted(*segment):
        for chunk in file_chunks(*segment):
            chunks.append(chunk)
            yield chunk

    file_chunks = wos._file_chunks
    reads = spy(monkeypatch)
    monkeypatch.setattr(wos, "_file_chunks", counted)
    monkeypatch.setattr(tables, "CHUNK_CHARS", 4096)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = io.StringIO()
    wos.write_export_files(paths, wos.ExportRun(), out)
    assert out.getvalue() == expected.getvalue()
    assert len(chunks) > 40
    assert 0 < len(reads) <= len(chunks) + (len(corpus) + 1) // 2
    assert sum(end - pos for pos, end in reads) <= sum(map(len, chunks))


def guard_export(uts, names=()):
    """Canonical blocks with the given ``UT`` values (None: no ``UT`` line), and ``EF``.

    ``names``, if given, are the authors of the second block."""
    return "".join(render({"names": list(names) if i == 1 and names else ["Smith, A", "Lee, C"],
                           "indents": None, "year": "2001", "ut": ut and f"UT {ut}", "er": "ER",
                           "blanks": 1})
                   for i, ut in enumerate(uts)) + "EF\n"


@pytest.mark.parametrize("text", [
    guard_export(["WOS:0", "WOS:1", "WOS:2", "WOS:1", "WOS:3"]),
    guard_export([None, "WOS:0", "WOS:1", "rec000001", "WOS:3"]),
    guard_export(["WOS:0", "WOS:1", "WOS:2"], names=["Smith, A", "Lee, C", "Smith, A"]),
], ids=["repeated-ut-in-a-run", "synthetic-id-in-a-run", "repeated-name-in-a-run"])
@pytest.mark.parametrize("chunk", [64, tables.CHUNK_CHARS], ids=["small-chunks", "default-chunks"])
def test_a_run_that_one_guard_refuses_is_written_as_the_seed_writes_it(tmp_path, monkeypatch,
                                                                      text, chunk):
    # after a first block kept alone, the rest is one run of canonical blocks,
    # which only one of the run's guards must refuse: a UT twice in the run,
    # a synthetic id given out before it, or a repeated name in one block
    path = tmp_path / "export.txt"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(tables, "CHUNK_CHARS", chunk)
    assert outcome(lambda: counts_path([str(path)], 3)) == outcome(lambda: reference([text], 3))
    for usable in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable)
        assert run_cli(["ingest", "--emit", "wos", str(path)]) == reference_emit([text], False)


def test_a_mixed_export_is_read_in_one_pass(tmp_path, monkeypatch):
    # a TI line in 1 block of 100 ends a run mid-chunk: each run is still read
    # once, only as far as its blocks go, and nearly every block is copied as read
    corpus = sample_corpus(range(2001, 2005), [2500] * 4, {1: 0.3, 2: 0.3, 5: 0.4}, seed=13)
    parts = wos.write_wos_export(corpus).split("\nPY ")
    text = "".join(part + ("\nTI A title\nPY " if i % 100 == 50 else "\nPY ")
                   for i, part in enumerate(parts[:-1])) + parts[-1]
    path = tmp_path / "export.txt"
    path.write_text(text, encoding="utf-8")
    reads = spy(monkeypatch)
    run = wos.ExportRun()
    pieces = list(wos._scan(tables._file_chunks(path), run, text_runs=True))
    assert run.records == len(corpus)
    copied = [piece for piece in pieces if isinstance(piece, str)]
    longest = max(map(len, re.findall(r"PT J\n.*?\nER\n\n", text, re.S)))
    assert 0 <= sum(end - pos for pos, end in reads) - sum(map(len, copied)) <= longest * len(reads)
    assert sum(piece.count("PT J\n") for piece in copied) >= 0.95 * len(corpus)
