"""The bundled count tables, written as exports, read back through the export path.

Each fixture table becomes one deterministic export, and the commands
given that export must print what they print for the fixture's CSV,
on one CPU and in one process per CPU.
"""

import contextlib
import os
from unittest import mock

import pytest

from bibmet import fixtures, wos
from bibmet.cli import main
from bibmet.tables import AuthorshipMatrix

SERIES = str(fixtures.fixture_path(fixtures.YEARLY))
MATRIX = str(fixtures.fixture_path(fixtures.AUTHORSHIP))
DIST = str(fixtures.fixture_path(fixtures.PRODUCTIVITY))


def _export(tmp_path_factory, name, papers):
    path = tmp_path_factory.mktemp("exports") / name
    with open(path, "w", encoding="utf-8", newline="") as out:
        wos.write_export(papers, out)
    return str(path)


@pytest.fixture(scope="module")
def yearly_export(tmp_path_factory):
    # 8,486 single-author papers in their years, each with its own UT and author
    years = [year for year, papers in fixtures.yearly_counts().entries for _ in range(papers)]
    papers = ((f"WOS:{i:06d}", year, (f"Author {i:06d}",)) for i, year in enumerate(years, 1))
    return _export(tmp_path_factory, "yearly.txt", papers)


@pytest.fixture(scope="module")
def matrix_export(tmp_path_factory):
    # 7,482 papers: each (class j, year) cell as that many papers of j distinct authors
    matrix = fixtures.authorship_matrix()
    cells = [(j, year) for j, row in zip(matrix.classes, matrix.counts)
             for year, papers in zip(matrix.years, row) for _ in range(papers)]
    assert len(cells) == 7482
    papers = ((f"WOS:{i:06d}", year, tuple(f"Author {k:02d}" for k in range(j)))
              for i, (j, year) in enumerate(cells, 1))
    return _export(tmp_path_factory, "matrix.txt", papers)


@pytest.fixture(scope="module")
def productivity_export(tmp_path_factory):
    # each of the 23,767 authors on x single-author papers: 42,656 blocks
    authors = [x for x, y in fixtures.author_productivity().pairs for _ in range(y)]
    assert (len(authors), sum(authors)) == (23767, 42656)
    papers = ((f"WOS:{a:05d}-{k:02d}", 2008 + k % 10, (f"Author {a:05d}",))
              for a, x in enumerate(authors, 1) for k in range(x))
    return _export(tmp_path_factory, "productivity.txt", papers)


def run(capsys, *argv, papers=None):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    if papers is not None:  # every paper read once, none skipped or merged
        assert captured.err == (
            f"bibmet: parsed {papers} record(s) from 1 file(s), skipped 0 block(s)\n")
    return captured.out


@contextlib.contextmanager
def on_cpus(cpus, export):
    usable = set(range(cpus))
    with mock.patch.object(os, "sched_getaffinity", lambda pid: usable):
        # on two CPUs the export is cut into byte ranges, one per process
        assert len(wos._cut([export])) == cpus
        yield


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_yearly_table_reads_the_same_from_its_export(capsys, yearly_export, cpus):
    with on_cpus(cpus, yearly_export):
        for fmt in ("csv", "json", "markdown"):
            assert (run(capsys, "growth", "--wos", yearly_export, "--format", fmt, papers=8486)
                    == run(capsys, "growth", "--series", SERIES, "--format", fmt))
        emitted = run(capsys, "ingest", "--emit", "yearly", yearly_export, papers=8486)
    assert emitted == fixtures.yearly_counts().to_csv()


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_authorship_matrix_reads_the_same_from_its_export(capsys, matrix_export, cpus):
    with on_cpus(cpus, matrix_export):
        # uncollapsed, the JSON class summary also lists the classes without papers
        # that the export has and the table lacks (see below)
        for collapse, formats in (([], ("csv", "json", "markdown")),
                                  (["--no-collapse"], ("csv", "markdown"))):
            for fmt in formats:
                assert (run(capsys, "collab", "--wos", matrix_export, *collapse, "--format", fmt,
                            papers=7482)
                        == run(capsys, "collab", "--matrix", MATRIX, *collapse, "--format", fmt))
        collapsed = run(capsys, "ingest", "--emit", "matrix", matrix_export, papers=7482)
        exact = run(capsys, "ingest", "--emit", "matrix", "--no-collapse", matrix_export,
                    papers=7482)
    assert collapsed == fixtures.collaboration_matrix().to_csv()
    # the export has a class for every author count up to 50, the table only
    # for those with papers
    matrix = fixtures.authorship_matrix()
    rows, zeros = dict(zip(matrix.classes, matrix.counts)), (0,) * len(matrix.years)
    classes = range(1, matrix.classes[-1] + 1)
    assert exact == AuthorshipMatrix(tuple(classes), matrix.years,
                                     tuple(rows.get(j, zeros) for j in classes)).to_csv()


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_productivity_table_reads_the_same_from_its_export(capsys, productivity_export,
                                                               cpus):
    with on_cpus(cpus, productivity_export):
        for command in ("lotka", "ks"):
            assert (run(capsys, command, "--wos", productivity_export, papers=42656)
                    == run(capsys, command, "--dist", DIST))
        emitted = run(capsys, "ingest", "--emit", "distribution", productivity_export,
                      papers=42656)
    assert emitted == fixtures.author_productivity().to_csv()
