"""Byte-for-byte goldens of every ``bibmet`` subcommand.

Each case runs ``bibmet.cli.main`` in a fresh working directory that
holds the inputs under relative names, so no machine path reaches the
output.  Its standard output, standard error, exit code and every file
it writes must equal ``tests/golden/<case>/``: ``stdout``, ``stderr``,
``exit_code`` and ``files/<path>``.

The synthetic export ``export.txt`` that the ``--wos`` cases read is
itself a golden: the standard output of the ``synth-corpus`` case.

After an intended change of output, regenerate every case with

    PYTHONPATH=src python tests/test_golden.py --write

and review the diff of ``tests/golden/``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from bibmet import fixtures
from bibmet.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

# small inputs, written into the working directory of every case
INPUTS = {
    "corpus.json": (
        '{"kind": "corpus", "start_year": 2010, "papers_per_year": [6, 9, 12, 16, 22],\n'
        ' "author_count_dist": {"1": 0.15, "2": 0.25, "3": 0.25, "4": 0.15,'
        ' "6": 0.1, "12": 0.1},\n'
        ' "author_pool": 150, "seed": 11}\n'),
    "powerlaw.json": '{"kind": "productivity", "n0": 2.0, "total_authors": 1000,'
                     ' "x_max": 20, "seed": 5}\n',
    "list.json": "[1, 2]\n",
    "nan.json": '{"kind": "productivity", "n0": NaN, "total_authors": 1000,'
                ' "x_max": 20, "seed": 5}\n',
    "wrong_type.json": '{"kind": "corpus", "start_year": 2010, "papers_per_year": 5,'
                       ' "author_count_dist": {"1": 1.0}, "seed": 11}\n',
    "fraction.json": '{"kind": "productivity", "n0": 2.0, "total_authors": 1000,'
                     ' "x_max": 20.9, "seed": 5}\n',
    "class_key.json": '{"kind": "corpus", "start_year": 2010, "papers_per_year": [2],'
                      ' "author_count_dist": {" +1_0 ": 1.0}, "seed": 11}\n',
    # "1" and "01" name one class; the sum of 1.5 must not pass as 1
    "class_twice.json": '{"kind": "corpus", "start_year": 2010, "papers_per_year": [2],'
                        ' "author_count_dist": {"1": 0.5, "01": 0.5, "2": 0.5}, "seed": 11}\n',
    "far_year.json": '{"kind": "corpus", "start_year": 99999, "papers_per_year": [2, 3],'
                     ' "author_count_dist": {"1": 1.0}, "seed": 11}\n',
    "second.txt": "PT J\nAU Author-00001\n   New, B\nPY 2015\nUT WOS:2\nER\nEF\n",
    "one.txt": "PT J\nAU One, A\nPY 2010\nER\nEF\n",
    # what ``ingest one.txt --emit wos`` would write, with another paper
    "emitted.txt": "PT J\nAU Two, B\nPY 2011\nUT rec000001\nER\n\nEF\n",
    "repeat.txt": "PT J\nAU One, A\nPY 2010\nUT X1\nER\n\n"
                  "PT J\nAU Two, B\nPY 2011\nUT X1\nER\nEF\n",
    "partial.txt": "PT J\nAU Ok, A\n   Two, B\nPY 2001\nUT WOS:1\nER\n"
                   "PT J\nPY 2002\nER\nPT J\nAU Ok, A\nPY 2003\nUT WOS:3\nER\nEF\n",
    "latin1.txt": b"PT J\nAU M\xfcller, A\nPY 2001\nER\nEF\n",
    "one_year.csv": "year,papers\n2010,5\n",
    "bad.csv": "wrong,header\n1,2\n",
    "shallow.csv": "x,y\n1,100\n2,90\n4,80\n8,72\n",
    # gaps of 5 and 30 x, one of them with a listed zero: the K-S table is sparse
    "gaps.csv": "x,y\n1,600\n2,150\n3,70\n9,8\n25,0\n40,2\n",
    # a few hundred K-S rows: every x to 120, then a sparse tail with gaps to 40,000
    "longtail.csv": (DATA / "longtail.csv").read_bytes(),
    # an x of 401 digits, beyond the float range
    "huge.csv": f"x,y\n1,100\n2,30\n{10**400},1\n",
    # a y of 401 digits, above COUNT_MAX
    "huge_count.csv": f"x,y\n1,{10**400}\n2,1\n3,1\n",
    # int() would read 1_0 as 10
    "underscore.csv": "x,y\n1_0,5\n",
    # an x of 5,001 digits, more than int() converts
    "long_cell.csv": "x,y\n1,100\n2,30\n1" + "0" * 5000 + ",1\n",
    "single.csv": "authors,2015,2016\n1,3,2\n",
    "uncollapsed.csv": "authors,2015,2016\n1,1,0\n2,1,0\n3,0,1\n",
    "collapsed.csv": "# already collapsed\nauthors,2015,2016\n1,2,1\n2,1,1\n3+,0,2\n",
    "standard.conf": "convention = standard\nexact-ln2 = true\n",
    "unknown.conf": "does-not-exist = 1\n",
    "undecodable.conf": b"convention = standard\n# \xff\n",
    "bom.conf": b"\xef\xbb\xbfconvention = standard\n",
    # the first two bytes of a byte-order mark, and nothing after them
    "cut_bom.conf": b"\xef\xbb",
    "false.conf": "convention = standard\nexact-ln2 = false\n",
    # None makes a directory: here one where report --out-dir writes a file
    "blocked/productivity.csv": None,
}

BUNDLED = {
    "yearly.csv": fixtures.YEARLY,
    "authorship.csv": fixtures.AUTHORSHIP,
    "productivity.csv": fixtures.PRODUCTIVITY,
    "regression.csv": fixtures.PRODUCTIVITY_REGRESSION,
}

CSVS = "--series yearly.csv --matrix authorship.csv --dist productivity.csv"

# (case, command line); synth-corpus comes first: it writes export.txt
CASES = [
    ("synth-corpus", "synth --spec corpus.json"),
    ("synth-corpus-yearly", "synth --spec corpus.json --emit yearly"),
    ("synth-corpus-matrix", "synth --spec corpus.json --emit matrix --cap 5"),
    ("synth-corpus-matrix-no-collapse", "synth --spec corpus.json --emit matrix --no-collapse"),
    ("synth-corpus-distribution", "synth --spec corpus.json --emit distribution"),
    ("synth-productivity", "synth --spec powerlaw.json"),
    ("synth-productivity-output", "synth --spec powerlaw.json --output dist.csv"),
    ("synth-productivity-emit-wos", "synth --spec powerlaw.json --emit wos"),
    ("synth-missing-spec", "synth --spec nope.json"),
    ("synth-spec-not-object", "synth --spec list.json"),
    ("synth-spec-nan", "synth --spec nan.json"),
    ("synth-spec-wrong-type", "synth --spec wrong_type.json"),
    ("synth-spec-year-range", "synth --spec far_year.json"),
    ("synth-spec-fraction", "synth --spec fraction.json"),
    ("synth-spec-class-key", "synth --spec class_key.json --emit matrix"),
    ("synth-spec-class-twice", "synth --spec class_twice.json --emit matrix --no-collapse"),

    ("ingest-yearly", "ingest export.txt"),
    ("ingest-yearly-cap1", "ingest export.txt --cap 1"),
    ("ingest-matrix", "ingest export.txt --emit matrix"),
    ("ingest-matrix-cap5", "ingest export.txt --emit matrix --cap 5"),
    ("ingest-matrix-no-collapse", "ingest export.txt --emit matrix --no-collapse"),
    ("ingest-matrix-cap1", "ingest export.txt --emit matrix --cap 1"),
    ("ingest-matrix-no-collapse-cap1", "ingest export.txt --emit matrix --no-collapse --cap 1"),
    ("ingest-matrix-cap-above-limit", "ingest export.txt --emit matrix --cap 10001"),
    ("ingest-distribution", "ingest export.txt --emit distribution"),
    ("ingest-distribution-output", "ingest export.txt --emit distribution --output dist.csv"),
    ("ingest-source-comment", "ingest export.txt second.txt --source-comment"),
    ("ingest-wos", "ingest export.txt second.txt --emit wos"),
    ("ingest-wos-output", "ingest partial.txt --emit wos --output merged.txt"),
    ("ingest-wos-strict", "ingest partial.txt --emit wos --strict --output merged.txt"),
    ("ingest-wos-source-comment", "ingest nope.txt --emit wos --source-comment"),
    ("ingest-partial", "ingest partial.txt --emit matrix"),
    ("ingest-partial-strict", "ingest partial.txt --strict"),
    ("ingest-duplicate-files", "ingest export.txt export.txt"),
    ("ingest-duplicate-files-strict", "ingest export.txt export.txt --strict"),
    ("ingest-repeated-ut", "ingest repeat.txt"),
    ("ingest-repeated-ut-wos", "ingest repeat.txt --emit wos"),
    ("ingest-wos-no-ut-twice", "ingest one.txt one.txt --emit wos"),
    ("ingest-wos-no-ut-then-emitted", "ingest one.txt emitted.txt --emit wos"),
    ("ingest-missing-file", "ingest nope.txt"),
    ("ingest-undecodable", "ingest latin1.txt"),
    ("ingest-no-files", "ingest"),

    ("growth-csv", "growth --series yearly.csv"),
    ("growth-json", "growth --series yearly.csv --format json"),
    ("growth-markdown", "growth --series yearly.csv --format markdown"),
    ("growth-standard-exact-ln2", "growth --series yearly.csv --convention standard --exact-ln2"),
    ("growth-block-split-2", "growth --series yearly.csv --block-split 2 --format markdown"),
    ("growth-block-split-0", "growth --series yearly.csv --block-split 0"),
    ("growth-config", "growth --series yearly.csv --config standard.conf --format json"),
    ("growth-config-unknown-key", "growth --series yearly.csv --config unknown.conf"),
    ("growth-config-missing", "growth --series yearly.csv --config nope.conf"),
    ("growth-config-undecodable", "growth --series yearly.csv --config undecodable.conf"),
    ("growth-config-bom", "growth --series yearly.csv --config bom.conf --format json"),
    ("growth-config-cut-bom", "growth --series yearly.csv --config cut_bom.conf"),
    ("growth-config-equals", "growth --series yearly.csv --config=standard.conf --format json"),
    ("growth-config-false", "growth --series yearly.csv --config false.conf --format json"),
    ("growth-config-first", "--config standard.conf growth --series yearly.csv --format json"),
    ("growth-config-no-file", "growth --series yearly.csv --config"),
    ("growth-output", "growth --series yearly.csv --output growth.csv"),
    ("growth-output-empty", "growth --series yearly.csv --output ''"),
    ("growth-output-blocked", "growth --series yearly.csv --output blocked"),
    ("growth-wos", "growth --wos export.txt"),
    ("growth-one-year", "growth --series one_year.csv"),
    ("growth-malformed", "growth --series bad.csv"),
    ("growth-missing-file", "growth --series nope.csv"),
    ("growth-no-input", "growth"),
    ("growth-unknown-flag", "growth --bogus"),

    ("collab-csv", "collab --matrix authorship.csv"),
    ("collab-json", "collab --matrix authorship.csv --format json"),
    ("collab-markdown", "collab --matrix authorship.csv --format markdown"),
    ("collab-cap5", "collab --matrix authorship.csv --cap 5"),
    ("collab-no-collapse", "collab --matrix authorship.csv --no-collapse"),
    ("collab-partition-team", "collab --matrix authorship.csv --partition team --format json"),
    ("collab-collapsed", "collab --matrix collapsed.csv --format markdown"),
    ("collab-collapsed-cap1", "collab --matrix collapsed.csv --cap 1"),
    ("collab-wos-csv", "collab --wos export.txt"),
    ("collab-wos-json", "collab --wos export.txt --format json --partition team"),
    ("collab-wos-no-collapse", "collab --wos export.txt --no-collapse --format markdown"),
    ("collab-matrix-cap1", "collab --matrix uncollapsed.csv --cap 1"),
    ("collab-wos-cap1", "collab --wos export.txt --cap 1"),
    ("collab-matrix-no-collapse-cap1", "collab --matrix uncollapsed.csv --no-collapse --cap 1"),
    ("collab-wos-no-collapse-cap1", "collab --wos export.txt --no-collapse --cap 1"),
    ("collab-matrix-cap-limit", "collab --matrix uncollapsed.csv --cap 10000"),
    ("collab-matrix-cap-above-limit", "collab --matrix uncollapsed.csv --cap 10001"),
    ("collab-wos-cap-above-limit", "collab --wos export.txt --cap 10001"),
    ("collab-single-author", "collab --matrix single.csv"),
    ("collab-single-author-team", "collab --matrix single.csv --partition team"),
    # the CAI warning comes before the error of the write that then fails
    ("collab-single-author-output-missing-dir",
     "collab --matrix single.csv --output missing/collab.csv"),
    ("collab-no-input", "collab"),

    ("lotka-regression", "lotka --dist regression.csv"),
    ("lotka-fit", "lotka --dist regression.csv --fit"),
    ("lotka-counted", "lotka --dist productivity.csv"),
    ("lotka-exclude-top", "lotka --dist productivity.csv --exclude-top"),
    ("lotka-truncation-50", "lotka --dist productivity.csv --truncation 50"),
    ("lotka-truncation-1", "lotka --dist productivity.csv --truncation 1"),
    ("lotka-truncation-above-limit", "lotka --dist productivity.csv --truncation 1000001"),
    ("lotka-output", "lotka --dist regression.csv --output lotka.json"),
    ("lotka-wos", "lotka --wos export.txt"),
    ("lotka-shallow", "lotka --dist shallow.csv"),
    ("lotka-no-input", "lotka"),

    ("ks-fitted", "ks --dist productivity.csv"),
    ("ks-explicit-paper", "ks --dist productivity.csv --n 1.96913 --c 0.5974 --ks-mode paper"),
    ("ks-fitted-paper", "ks --dist productivity.csv --ks-mode paper"),
    ("ks-alpha-0.05", "ks --dist productivity.csv --alpha 0.05"),
    ("ks-alpha-0.02", "ks --dist productivity.csv --alpha 0.02"),
    ("ks-exclude-top-truncation", "ks --dist regression.csv --exclude-top --truncation 30"),
    ("ks-truncation-1", "ks --dist productivity.csv --truncation 1"),
    ("ks-output", "ks --dist productivity.csv --output ks.csv"),
    ("ks-wos", "ks --wos export.txt"),
    ("ks-n-only", "ks --dist productivity.csv --n 2.0"),
    ("ks-gaps", "ks --dist gaps.csv"),
    ("ks-longtail", "ks --dist longtail.csv"),
    ("ks-huge-x", "ks --dist huge.csv --n 2 --c 0.6"),
    ("ks-count-above-max", "ks --dist huge_count.csv --n 2 --c 0.6"),
    ("ks-underscore-cell", "ks --dist underscore.csv"),
    ("ks-long-cell", "ks --dist long_cell.csv"),
    ("ks-no-input", "ks"),

    ("report-csvs-markdown", f"report {CSVS}"),
    ("report-csvs-out-dir", f"report {CSVS} --out-dir out"),
    ("report-out-dir-empty", f"report {CSVS} --out-dir ''"),
    # productivity.csv is a directory: no file of the report is written
    ("report-out-dir-blocked", f"report {CSVS} --out-dir blocked"),
    ("report-series-only", "report --series yearly.csv"),
    ("report-wos-markdown", "report --wos export.txt"),
    ("report-wos-out-dir", "report --wos export.txt --out-dir out"),
    ("report-wos-flags", "report --wos export.txt --convention standard --block-split 2"
                         " --partition team --no-collapse --ks-mode paper --exclude-top"
                         " --truncation 30 --out-dir out"),
    ("report-wos-and-dist", "report --wos export.txt --dist regression.csv --alpha 0.05"),
    ("report-two-files", "report --wos export.txt second.txt --out-dir out"),
    ("report-one-record", "report --wos one.txt"),
    ("report-one-record-out-dir", "report --wos one.txt --out-dir out"),
    ("report-single-author", "report --matrix single.csv"),
    ("report-partial", "report --wos partial.txt"),
    ("report-partial-strict", "report --wos partial.txt --strict"),
    ("report-duplicate-files", "report --wos export.txt export.txt"),
    ("report-gaps", "report --dist gaps.csv"),
    ("report-longtail-markdown", "report --dist longtail.csv"),
    ("report-truncation-1", "report --dist productivity.csv --truncation 1"),
    ("report-truncation-above-limit", "report --dist productivity.csv --truncation 1000001"),
    ("report-alpha-0.02", "report --dist productivity.csv --alpha 0.02"),
    ("report-block-split-0", "report --series yearly.csv --block-split 0"),
    ("report-matrix-cap1", "report --matrix uncollapsed.csv --cap 1"),
    ("report-wos-cap1", "report --wos export.txt --cap 1"),
    ("report-matrix-no-collapse-cap1", "report --matrix uncollapsed.csv --no-collapse --cap 1"),
    ("report-wos-no-collapse-cap1", "report --wos export.txt --no-collapse --cap 1"),
    ("report-matrix-cap-above-limit", "report --matrix uncollapsed.csv --cap 10001"),
    ("report-no-inputs", "report"),

    ("no-arguments", ""),
    ("config-only", "--config standard.conf"),
    ("version", "--version"),
]


def _write_inputs(workdir: Path) -> None:
    for name, content in INPUTS.items():
        if content is None:
            (workdir / name).mkdir(parents=True)
        elif isinstance(content, bytes):
            (workdir / name).write_bytes(content)
        else:
            (workdir / name).write_text(content, encoding="utf-8")
    for name, fixture in BUNDLED.items():
        shutil.copyfile(fixtures.fixture_path(fixture), workdir / name)
    export = GOLDEN / "synth-corpus" / "stdout"
    if export.exists():
        shutil.copyfile(export, workdir / "export.txt")


def run_case(command: str) -> dict[str, bytes]:
    """Run ``bibmet <command>`` in a fresh directory; every output by golden file name."""
    inputs = {*INPUTS, *BUNDLED, "export.txt"}
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _write_inputs(workdir)
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(shlex.split(command))
        finally:
            os.chdir(cwd)
        result = {
            "exit_code": f"{code}\n".encode(),
            "stdout": out.getvalue().encode("utf-8"),
            "stderr": err.getvalue().encode("utf-8"),
        }
        for path in sorted(workdir.rglob("*")):
            name = path.relative_to(workdir).as_posix()
            if path.is_file() and name not in inputs:
                result[f"files/{name}"] = path.read_bytes()
    return result


def _golden(case: str) -> dict[str, bytes]:
    root = GOLDEN / case
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("case, command", CASES, ids=[case for case, _ in CASES])
def test_golden(case, command):
    expected = _golden(case)
    assert expected, f"no golden for {case}; run this file with --write"
    actual = run_case(command)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        # text first, for a readable diff; bytes decide
        assert actual[name].decode("utf-8", "replace") == expected[name].decode("utf-8", "replace"), name
        assert actual[name] == expected[name], name


def test_case_names_are_unique():
    assert len({case for case, _ in CASES}) == len(CASES)


def _write_all() -> None:
    for case, command in CASES:
        root = GOLDEN / case
        shutil.rmtree(root, ignore_errors=True)
        for name, data in run_case(command).items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
    known = {case for case, _ in CASES}
    for stale in GOLDEN.iterdir():
        if stale.is_dir() and stale.name not in known:
            shutil.rmtree(stale)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write_all()
