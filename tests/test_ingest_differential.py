"""The streaming count tables, the record path and ``ingest --emit wos`` against the seed reference.

Hypothesis writes multi-file exports with blank lines, stray text, mixed
line ends, 1-3-space indents, missing fields, out-of-range years, missing
``ER``, ``EF`` mid-file and repeated ``UT`` values.  Both ingest paths
must give the reference's tables, skipped lines and errors exactly, and
``bibmet ingest --emit wos`` the reference writer's bytes, exit code and
messages.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import seed_reference as ref
from bibmet.cli import main
from bibmet.corpus import (
    CountTables,
    build_authorship_matrix,
    build_yearly_series,
    check_unique_ids,
)
from bibmet.errors import EmptyCorpusError
from bibmet.lotka import productivity_distribution
from bibmet.wos import parse_wos_export, parse_wos_file, scan_wos_file

NAMES = st.sampled_from(["Smith, A", "Jones, B", "Lee, C", "Kim, D", "Smith, A ", "",
                         "A\u2028B", "x\x0cy", "Ng\x85", "\x1c"])
YEARS = st.sampled_from(["2001", "2002", "2004"] * 3 + [" 2003", "0999", "3001", "20x1", ""])
UTS = st.sampled_from(["WOS:1", "WOS:2", "WOS:3", "rec000001", "rec000002", ""])
NOISE = st.sampled_from(["", "  ", "\x0c", "stray text", "  two-space", " one",
                         "TI A title", "   continued", "ER", "EF", "FN Export", "au x"])
INDENTS = st.sampled_from([" ", "  ", "   "])
MOSTLY = st.sampled_from([True] * 7 + [False])


@st.composite
def blocks(draw):
    fields = []
    if draw(MOSTLY):
        names = draw(st.lists(NAMES, min_size=1, max_size=4))
        fields.append(["AU " + names[0]] + [draw(INDENTS) + n for n in names[1:]])
    if draw(MOSTLY):
        fields.append(["PY " + draw(YEARS)])
    if draw(st.booleans()):
        fields.append(["UT " + draw(UTS)])
    if draw(st.booleans()):
        fields.append(["TI Some title", "   more title"])
    lines = ["PT J"] + [line for field in draw(st.permutations(fields)) for line in field]
    for _ in range(draw(st.integers(0, 3)) // 2):
        lines.insert(draw(st.integers(0, len(lines))), draw(NOISE))
    if draw(MOSTLY):
        lines.append("ER")
    return lines


@st.composite
def exports(draw):
    lines = []
    for block in draw(st.lists(blocks(), min_size=1, max_size=6)):
        lines += block
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(NOISE))
    if draw(st.booleans()):
        lines.append("EF")
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def tables(yearly, matrix, uncollapsed, dist, skipped):
    return ("ok", yearly.to_csv(), matrix.to_csv(), uncollapsed.to_csv(),
            dist.to_csv(), tuple(skipped))


def outcome(compute):
    try:
        return compute()
    except (EmptyCorpusError, ValueError) as exc:
        return ("error", type(exc), str(exc))


def reference(texts, cap):
    records, skipped = [], []
    for text in texts:
        file_records, file_skipped = ref.parse_export(text)
        records += file_records
        skipped += file_skipped
    ref.check_unique_ids(records)
    return tables(ref.yearly_series(records), ref.authorship_matrix(records, cap, True),
                  ref.authorship_matrix(records, cap, False),
                  ref.productivity_distribution(records), skipped)


def counts_path(paths, cap):
    skipped, ids = [], []
    counts = CountTables()
    for path in paths:
        counts.add(scan_wos_file(path, skipped, ids))
    check_unique_ids(ids)
    return tables(counts.yearly_series(), counts.authorship_matrix(cap, True),
                  counts.authorship_matrix(cap, False),
                  counts.productivity_distribution(), skipped)


def records_path(results, cap):
    for r in results:
        assert r.skipped == len(r.skipped_lines)
    corpus = results[0].corpus.merge(*[r.corpus for r in results[1:]])
    return tables(build_yearly_series(corpus), build_authorship_matrix(corpus, cap, True),
                  build_authorship_matrix(corpus, cap, False),
                  productivity_distribution(corpus),
                  [line for r in results for line in r.skipped_lines])


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(exports(), min_size=1, max_size=3), cap=st.integers(2, 4))
def test_both_ingest_paths_match_the_seed_reference(texts, cap):
    expected = outcome(lambda: reference(texts, cap))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"export{i}.txt"
            path.write_bytes(text.encode("utf-8"))
            paths.append(path)
        assert outcome(lambda: counts_path(paths, cap)) == expected
        assert outcome(lambda: records_path(
            [parse_wos_file(p) for p in paths], cap)) == expected
    assert outcome(lambda: records_path(
        [parse_wos_export(t) for t in texts], cap)) == expected


def reference_emit(texts, strict):
    """Exit code, stdout and stderr of ``ingest --emit wos`` per the reference."""
    records, skipped = [], 0
    try:
        for text in texts:
            file_records, file_skipped = ref.parse_export(text)
            records += file_records
            skipped += len(file_skipped)
    except EmptyCorpusError as exc:
        return 1, "", f"bibmet: input error: {exc}\n"
    err = (f"bibmet: parsed {len(records)} record(s) from {len(texts)} file(s), "
           f"skipped {skipped} block(s)\n")
    if strict and skipped:
        return 1, "", err + f"bibmet: input error: strict mode: {skipped} block(s) skipped\n"
    try:
        ref.check_unique_ids(records)
    except ValueError as exc:
        return 1, "", err + f"bibmet: input error: {exc}\n"
    return 0, ref.write_export(records), err


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(exports(), min_size=1, max_size=3), strict=st.booleans())
def test_ingest_emit_wos_matches_the_seed_writer(texts, strict):
    code, expected, err = reference_emit(texts, strict)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"export{i}.txt"
            path.write_bytes(text.encode("utf-8"))
            paths.append(str(path))
        argv = ["ingest", "--emit", "wos", *paths] + (["--strict"] if strict else [])
        assert run_cli(argv) == (code, expected, err)
        output = Path(tmp) / "merged.txt"
        assert run_cli(argv + ["--output", str(output)]) == (code, "", err)
        if code == 0:
            assert output.read_bytes() == expected.encode("utf-8")
        else:
            assert not output.exists()
