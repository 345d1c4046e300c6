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

import io
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
    # and every block after the first is in one run, which the writer copies as read
    assert wos._CANONICAL_RUN.fullmatch(text, len(blocks[0]), len(text) - len("\nEF\n"))


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
    assert wos._CANONICAL_RUN.fullmatch("\n" + "".join(blocks[1:]).removesuffix("\n"))
    assert run_cli(["ingest", "--emit", "wos", str(path)]) == (
        0, "".join(blocks[:2] + blocks[3:]) + "EF\n",
        "bibmet: parsed 3 record(s) from 1 file(s), skipped 1 block(s)\n")


@pytest.mark.parametrize("repeats", ["every-block", "every-other-block"])
def test_a_run_that_fails_is_not_tried_again_before_its_end(tmp_path, monkeypatch, repeats):
    # the second export repeats the UT of every block of the first, or of
    # every other one: its runs fail, and the blocks of a failed run must
    # not each cost a run match of the rest
    corpus = sample_corpus(range(2001, 2005), [500] * 4, {1: 0.3, 2: 0.3, 5: 0.4}, seed=7)
    first = tmp_path / "first.txt"
    first.write_text(wos.write_wos_export(corpus), encoding="utf-8")
    paths = [first, first]  # named twice, every block of the second merged
    if repeats == "every-other-block":
        paths[1] = tmp_path / "second.txt"
        paths[1].write_text(wos.write_wos_export(Corpus(tuple(
            PublicationRecord(r.id + "-2", r.year, r.authors) if i % 2 else r
            for i, r in enumerate(corpus.records)))), encoding="utf-8")
    expected = io.StringIO()
    wos.write_export(wos.scan_wos_file(paths, wos.ExportRun()), expected)
    attempts, chunks = [], []

    class Spy:
        @staticmethod
        def match(text, pos):
            attempts.append(pos)
            return run.match(text, pos)

    def counted(*segment):
        for chunk in file_chunks(*segment):
            chunks.append(chunk)
            yield chunk

    run, file_chunks = wos._CANONICAL_RUN, wos._file_chunks
    monkeypatch.setattr(wos, "_CANONICAL_RUN", Spy())
    monkeypatch.setattr(wos, "_file_chunks", counted)
    monkeypatch.setattr(tables, "CHUNK_CHARS", 4096)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = io.StringIO()
    wos.write_export_files(paths, wos.ExportRun(), out)
    assert out.getvalue() == expected.getvalue()
    assert len(chunks) > 40
    assert 0 < len(attempts) <= len(chunks)
