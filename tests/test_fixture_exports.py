"""The bundled count tables, written as exports, read back through the export path.

Each fixture table becomes one deterministic export, and the commands
given that export must print what they print for the fixture's CSV,
on one CPU and in one process per CPU.
"""

import os
from unittest import mock

import pytest

from bibmet import fixtures, wos
from bibmet.cli import main

SERIES = str(fixtures.fixture_path(fixtures.YEARLY))


@pytest.fixture(scope="module")
def yearly_export(tmp_path_factory):
    # 8,486 single-author papers in their years, each with its own UT and author
    years = [year for year, papers in fixtures.yearly_counts().entries for _ in range(papers)]
    papers = ((f"WOS:{i:06d}", year, (f"Author {i:06d}",)) for i, year in enumerate(years, 1))
    path = tmp_path_factory.mktemp("exports") / "yearly.txt"
    with open(path, "w", encoding="utf-8", newline="") as out:
        wos.write_export(papers, out)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    if "--series" not in argv:  # every paper read once, none skipped or merged
        assert captured.err == "bibmet: parsed 8486 record(s) from 1 file(s), skipped 0 block(s)\n"
    return captured.out


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_yearly_table_reads_the_same_from_its_export(capsys, yearly_export, cpus):
    usable = set(range(cpus))
    with mock.patch.object(os, "sched_getaffinity", lambda pid: usable):
        # on two CPUs the export is cut into byte ranges, one per process
        assert len(wos._cut([yearly_export])) == cpus
        for fmt in ("csv", "json", "markdown"):
            assert (run(capsys, "growth", "--wos", yearly_export, "--format", fmt)
                    == run(capsys, "growth", "--series", SERIES, "--format", fmt))
        emitted = run(capsys, "ingest", "--emit", "yearly", yearly_export)
    assert emitted == fixtures.yearly_counts().to_csv()
