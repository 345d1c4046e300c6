"""The streaming count tables, the record path and ``ingest --emit wos`` against the seed reference.

Hypothesis writes multi-file exports with blank lines, stray text, mixed
line ends, 1-3-space indents, missing fields, out-of-range years, missing
``ER``, ``EF`` mid-file and repeated ``UT`` values.  Both ingest paths
of a run's exports, and the record path of each export on its own
(``parse_wos_export`` and ``parse_wos_file``), must give the reference's
tables, skipped lines and errors exactly, and ``bibmet ingest --emit
wos`` the reference writer's bytes, exit code and messages, whose ingest
line counts the merged blocks.  ``ingest --emit wos`` in one process per
CPU must give what it gives in one process, and so must every ``--wos``
command on exports that the byte-range cut splits.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import seed_reference as ref
from bibmet.cli import main
from bibmet.corpus import (
    Corpus,
    CountTables,
    PublicationRecord,
    build_authorship_matrix,
    build_yearly_series,
)
from bibmet.errors import EmptyCorpusError
from bibmet.lotka import productivity_distribution
from bibmet.wos import ExportRun, parse_wos_export, parse_wos_file, scan_wos_file

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
    records, skipped, _ = ref.parse_exports(texts)
    return tables(ref.yearly_series(records), ref.authorship_matrix(records, cap, True),
                  ref.authorship_matrix(records, cap, False),
                  ref.productivity_distribution(records), skipped)


def counts_path(paths, cap):
    run = ExportRun()
    counts = CountTables(scan_wos_file(paths, run))
    return tables(counts.yearly_series(), counts.authorship_matrix(cap, True),
                  counts.authorship_matrix(cap, False),
                  counts.productivity_distribution(), run.skipped_lines)


def records_path(corpus, skipped, cap):
    return tables(build_yearly_series(corpus), build_authorship_matrix(corpus, cap, True),
                  build_authorship_matrix(corpus, cap, False),
                  productivity_distribution(corpus), skipped)


def run_records_path(paths, cap):
    """The record path of a run's exports: one record per paper of the run-level scan."""
    run = ExportRun()
    corpus = Corpus(tuple(PublicationRecord(*paper) for paper in scan_wos_file(paths, run)))
    return records_path(corpus, run.skipped_lines, cap)


def parse_result_path(result, cap):
    assert result.skipped == len(result.skipped_lines)
    return records_path(result.corpus, result.skipped_lines, cap)


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
        assert outcome(lambda: run_records_path(paths, cap)) == expected
        for text, path in zip(texts, paths):
            alone = outcome(lambda: reference([text], cap))
            assert outcome(lambda: parse_result_path(parse_wos_file(path), cap)) == alone
            assert outcome(lambda: parse_result_path(parse_wos_export(text), cap)) == alone


def reference_emit(texts, strict):
    """Exit code, stdout and stderr of ``ingest --emit wos`` per the reference."""
    try:
        records, skipped, merged = ref.parse_exports(texts)
    except EmptyCorpusError as exc:
        return 1, "", f"bibmet: input error: {exc}\n"
    merges = f", merged {len(merged)} duplicate(s)" if merged else ""
    err = (f"bibmet: parsed {len(records)} record(s) from {len(texts)} file(s), "
           f"skipped {len(skipped)} block(s){merges}\n")
    if strict and skipped:
        return 1, "", err + f"bibmet: input error: strict mode: {len(skipped)} block(s) skipped\n"
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


AUTHORS = st.lists(st.sampled_from(["Smith, A", "Jones, B", "Lee, C"]), min_size=1, max_size=3)


@st.composite
def forked_exports(draw):
    """2-6 export files as bytes.

    Between them: UTs repeated within and across files, UT-less blocks,
    ``rec000001``-shaped UTs, blocks the fast path misses, skipped
    blocks, exports with no usable block and, in a later file, an
    undecodable byte.  Each example holds a random few of these, so that
    each of them often decides alone whether a part is kept.
    """
    def some(*kinds):
        return [kind for kind in kinds if draw(st.booleans())]

    def rarely():  # a fault that ends the run, so that most runs keep their parts
        return draw(st.integers(0, 3)) == 3  # Hypothesis draws 0 most often

    ut_kinds = st.sampled_from(["own", *some("repeated", "synthetic-shaped", "none")])
    shapes = st.sampled_from(["canonical", "canonical", *some("slow", "skipped")])
    blocks_per_file = st.integers(0 if rarely() else 1, 4)
    files = []
    for i in range(draw(st.integers(2, 6))):
        lines = []
        for j in range(draw(blocks_per_file)):
            ut = {"own": f"WOS:{i}.{j}", "none": None,
                  "repeated": draw(st.sampled_from(["WOS:a", "WOS:b"])),
                  "synthetic-shaped": draw(st.sampled_from(["rec000001", "rec000002"]))
                  }[draw(ut_kinds)]
            shape = draw(shapes)
            authors = draw(AUTHORS)
            lines += ["PT J", "AU " + authors[0], *("   " + a for a in authors[1:])]
            if shape == "slow":
                lines.append("TI A title")
            if shape != "skipped":
                lines.append(f"PY {draw(st.sampled_from([2001, 2002, 2003]))}")
            if ut is not None:
                lines.append(f"UT {ut}")
            lines += ["ER", ""]
        if draw(st.booleans()):
            lines.append("EF")
        files.append("".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines))
    files = [text.encode("utf-8") for text in files]
    if rarely():
        files[draw(st.integers(1, len(files) - 1))] += b"\xff\n"
    return files


UT_LESS = b"PT J\nAU A\nPY 2001\nER\n"


def canonical(ut):
    return f"PT J\nAU B\nPY 2002\nUT {ut}\nER\n".encode()


@settings(max_examples=100, deadline=None)
@given(files=forked_exports(), cpus=st.integers(2, 4), strict=st.sampled_from([False] * 3 + [True]))
# one example for each reason to scan an export again, each alone
@example(files=[canonical("WOS:1"), canonical("WOS:2")], cpus=2, strict=False)
@example(files=[canonical("WOS:1"), canonical("WOS:1")], cpus=2, strict=False)
@example(files=[UT_LESS, canonical("rec000001")], cpus=2, strict=False)
@example(files=[canonical("rec000001"), UT_LESS], cpus=2, strict=False)
@example(files=[canonical("WOS:1"), canonical("WOS:2") + b"\xff"], cpus=2, strict=False)
# an export shared with the parent's part, then one of the child's own
@example(files=[canonical("WOS:1"), canonical("WOS:2"), canonical("WOS:1"), canonical("WOS:3")],
         cpus=2, strict=False)
# the child's part gives its first synthetic id in its second export
@example(files=[canonical("WOS:1"), canonical("WOS:2"), canonical("WOS:3"), UT_LESS,
                canonical("WOS:4")], cpus=2, strict=False)
# a synthetic id kept from one child, then its UT from another: serially renamed, not merged
@example(files=[canonical("WOS:1"), UT_LESS, canonical("rec000001")], cpus=3, strict=False)
def test_ingest_emit_wos_is_the_same_in_one_process_per_cpu(files, cpus, strict):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            path = Path(tmp) / f"export{i}.txt"
            path.write_bytes(data)
            paths.append(str(path))
        argv = ["ingest", "--emit", "wos", *paths] + (["--strict"] if strict else [])
        output = Path(tmp) / "merged.txt"
        outcomes = []
        for usable in (set(range(cpus)), {0}):
            with mock.patch.object(os, "sched_getaffinity", lambda pid: usable):
                to_stdout = run_cli(argv)
                to_file = run_cli(argv + ["--output", str(output)])
            outcomes.append((to_stdout, to_file, output.read_bytes() if output.exists() else None))
            output.unlink(missing_ok=True)
        assert outcomes[0] == outcomes[1]


SKIPPED = b"PT J\nAU A\nER\n"  # no PY


@st.composite
def cut_exports(draw):
    """1-3 export files as bytes, of up to 8 blocks each, so that cuts fall inside them.

    Each file has ``\\n``, ``\\r\\n``, mixed or ``\\r``-only line ends, and
    maybe an ``EF`` after any of its blocks.  Between them: UTs repeated
    within and across files, UT-less blocks, ``rec000001``-shaped UTs,
    skipped blocks and, rarely, an undecodable byte after any block of a
    file or a file with no usable block.
    """
    def rarely():
        return draw(st.integers(0, 3)) == 3

    files = []
    for i in range(draw(st.integers(1, 3))):
        ends = draw(st.sampled_from(["\n", "\r\n", "mixed", "\r"]))
        blocks = []
        for j in range(draw(st.integers(1, 8))):
            ut = draw(st.sampled_from([f"WOS:{i}.{j}"] * 4 + ["WOS:a", "rec000001", None]))
            authors = draw(AUTHORS)
            lines = ["PT J", "AU " + authors[0], *("   " + a for a in authors[1:])]
            if draw(st.booleans()):
                lines.append("TI A title")
            if not rarely():
                lines.append(f"PY {draw(st.sampled_from([2001, 2002]))}")
            if ut is not None:
                lines.append(f"UT {ut}")
            blocks.append(lines + ["ER", ""])
        if rarely():
            blocks.insert(draw(st.integers(0, len(blocks))), ["EF"])
        data = b"".join(
            (line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends))
            .encode("utf-8") for block in blocks for line in block)
        if rarely():
            at = draw(st.integers(0, len(data)))
            at = data.find(b"\n", at) + 1 or len(data)
            data = data[:at] + b"\xff\n" + data[at:]
        files.append(data)
    return files


COMMANDS = [["report", "--out-dir", "{out}", "--wos"], ["growth", "--wos"],
            ["collab", "--wos"], ["lotka", "--wos"], ["ks", "--wos"],
            *(["ingest", "--emit", emit] for emit in ["yearly", "matrix", "distribution", "wos"])]


def canonical_run(*uts):
    return b"".join(canonical(ut) for ut in uts)


@settings(max_examples=40, deadline=None)
@given(files=cut_exports(), cpus=st.integers(2, 4), strict=st.sampled_from([False] * 3 + [True]))
# one example for each reason to scan a segment again, each alone: none,
# its UT read before, a synthetic id before it or in it, an undecodable
# byte, and an EF before it
@example(files=[canonical_run("WOS:1", "WOS:2", "WOS:3")], cpus=2, strict=False)
@example(files=[canonical_run("WOS:1", "WOS:2", "WOS:1")], cpus=2, strict=False)
@example(files=[UT_LESS + canonical_run("WOS:2", "WOS:3")], cpus=2, strict=False)
@example(files=[canonical_run("WOS:1", "WOS:2") + UT_LESS], cpus=2, strict=False)
@example(files=[canonical_run("WOS:1", "WOS:2") + b"\xff\n"], cpus=2, strict=False)
@example(files=[canonical("WOS:1") + b"EF\n" + canonical_run("WOS:2", "WOS:3")], cpus=2,
         strict=False)
# an EF in a child's segment, before a segment of a later part
@example(files=[canonical_run("WOS:1", "WOS:2", "WOS:3") + b"EF\n"
                + canonical_run("WOS:4", "WOS:5", "WOS:6")], cpus=3, strict=False)
# the only usable block past the cut; no usable block, with the first
# skipped block past the cut
@example(files=[SKIPPED * 3 + canonical("WOS:1")], cpus=2, strict=False)
@example(files=[b"\n" * 30 + b"ER\n" + SKIPPED * 2], cpus=2, strict=False)
# a cut at a file end, and cuts in two files
@example(files=[canonical_run("WOS:1"), canonical_run("WOS:2")], cpus=2, strict=True)
@example(files=[canonical_run("WOS:1", "WOS:2"), canonical_run("WOS:3", "WOS:1", "WOS:4")],
         cpus=4, strict=False)
def test_every_wos_command_is_the_same_in_one_process_per_cpu(files, cpus, strict):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            path = Path(tmp) / f"export{i}.txt"
            path.write_bytes(data)
            paths.append(str(path))
        out = Path(tmp) / "out"
        for command in COMMANDS:
            argv = [arg.replace("{out}", str(out)) for arg in command] + paths
            if strict and command[0] in ("report", "ingest"):
                argv.append("--strict")
            outcomes = []
            for usable in (set(range(cpus)), {0}):
                with mock.patch.object(os, "sched_getaffinity", lambda pid: usable):
                    result = run_cli(argv)
                written = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
                outcomes.append((result, written))
                if out.exists():
                    for p in out.iterdir():
                        p.unlink()
                    out.rmdir()
            assert outcomes[0] == outcomes[1], argv
