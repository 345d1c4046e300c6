"""The scanner's canonical-block fast path and chunked reads against the seed reference.

Hypothesis writes exports in the block shape that ``write_wos_export``
writes, which the scanner reads with one regular expression per block,
and gives one of them at a time a deviation that must send it, or the
whole file, down the line-by-line rules: a value with Unicode whitespace
around it, a repeated name, a 2- or 4-space indent, an odd ``PY``,
``ER x``, no blank line, ``EF`` mid-file, CR or CRLF line ends, no final
line end, a reused, empty or missing ``UT``.  Files are read in chunks of
1, 7 or 64 characters, which cut blocks, lines and ``ER`` lines at every
place, or of the default size; text without an ``ER`` line is scanned
at the default bound or after 16 characters, in the middle of a block.
The count tables, skipped lines, errors and the bytes of
``bibmet ingest --emit wos`` must equal the reference's, and the scanner
must yield the same papers, skipped lines and ids with its fast path
switched off.
"""

import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from bibmet import wos
from bibmet.synth import sample_corpus
from bibmet.tables import normalize_line_ends
from bibmet.wos import parse_wos_file
from test_ingest_differential import (
    counts_path,
    outcome,
    records_path,
    reference,
    reference_emit,
    run_cli,
)

NAMES = st.sampled_from(["Smith, A", "Jones, B", "Lee, C", "Kim, D", "O'Neil, E-F", "x\x0cy"])
YEARS = st.sampled_from(["1000", "2001", "2015", "3000"])
SPACES = st.sampled_from(["\x85", "\x0c", " ", "\t", "\xa0", "\u2028", "\x1c"])
ODD_YEARS = st.sampled_from(["+2015", " 2015", "2015 ", "0999", "3001", "\u0662\u0660\u0661\u0665",
                             "02015", "20x1", ""])
DEVIATIONS = ["none", "space", "repeat", "indent", "year", "er", "no-blank", "ef",
              "line-ends", "no-final-newline", "ut"]


@st.composite
def canonical_blocks(draw):
    return {"names": draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)),
            "indents": None, "year": draw(YEARS), "ut": "UT WOS:%d" % draw(st.integers(1, 99)),
            "er": "ER", "blanks": draw(st.sampled_from([1, 1, 1, 2, 3]))}


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
        block["year"] = draw(ODD_YEARS)
    elif deviation == "er":
        block["er"] = draw(st.sampled_from(["ER x", "ER ", "ER  "]))
    elif deviation == "no-blank":
        block["blanks"] = 0
    elif deviation == "ut":
        block["ut"] = draw(st.sampled_from(
            [None, "UT", "UT ", "UT   ", "UT rec000001", blocks[0]["ut"]]))
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
       chunk=st.sampled_from([1, 7, 64, wos.CHUNK_CHARS]),
       run_max=st.sampled_from([wos.RUN_CHARS_MAX, 16]), strict=st.booleans())
def test_chunked_fast_path_matches_the_seed_reference(texts, chunk, run_max, strict):
    expected = outcome(lambda: reference(texts, 3))
    code, emitted, err = reference_emit(texts, strict)
    with (tempfile.TemporaryDirectory() as tmp, mock.patch.object(wos, "CHUNK_CHARS", chunk),
          mock.patch.object(wos, "RUN_CHARS_MAX", run_max)):
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"export{i}.txt"
            path.write_bytes(text.encode("utf-8"))
            paths.append(str(path))
        assert outcome(lambda: counts_path(paths, 3)) == expected
        assert outcome(lambda: records_path([parse_wos_file(p) for p in paths], 3)) == expected
        argv = ["ingest", "--emit", "wos", *paths] + (["--strict"] if strict else [])
        assert run_cli(argv) == (code, emitted, err)
        # the papers, skipped lines and ids of each export, as without the fast path
        for text in texts:
            text = normalize_line_ends(text)
            chunks = [text[i:i + chunk] for i in range(0, len(text), chunk)]
            scanned = outcome(lambda: scan(chunks))
            with mock.patch.object(wos, "_CANONICAL_BLOCK", re.compile("(?!)")):
                assert outcome(lambda: scan(chunks)) == scanned


def scan(chunks):
    skipped_lines, record_ids = [], []
    papers = list(wos.scan_wos_export(chunks, skipped_lines, record_ids))
    return papers, skipped_lines, record_ids


def test_every_block_write_wos_export_writes_is_canonical():
    # the fast path must fire on the writer's own output, or it only costs time
    corpus = sample_corpus(range(2001, 2004), [5, 0, 7], {1: 0.5, 3: 0.5}, seed=3)
    text = wos.write_wos_export(corpus)
    blocks = [m[0] for m in wos._CANONICAL_BLOCK.finditer(text)]
    assert len(blocks) == 12
    assert "".join(blocks) + "\nEF\n" == text
