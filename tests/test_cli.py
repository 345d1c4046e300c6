import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

import bibmet
from bibmet import fixtures, wos
from bibmet.cli import main
from bibmet.lotka import TRUNCATION_MAX
from bibmet.synth import AUTHOR_POOL_LIMIT, AUTHOR_SLOTS_LIMIT, X_MAX_LIMIT, sample_papers
from bibmet.tables import CAP_MAX, parse_counts_csv
from bibmet.wos import write_export


@pytest.fixture
def wos_file(tmp_path, sample_wos_text):
    path = tmp_path / "export.txt"
    path.write_text(sample_wos_text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SERIES = str(fixtures.fixture_path(fixtures.YEARLY))
MATRIX = str(fixtures.fixture_path(fixtures.AUTHORSHIP))
DIST = str(fixtures.fixture_path(fixtures.PRODUCTIVITY))
DIST_REG = str(fixtures.fixture_path(fixtures.PRODUCTIVITY_REGRESSION))


# ---------------------------------------------------------------------------
# exit codes

def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 64
    assert "usage" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "growth", "--bogus")
    assert code == 64
    assert "usage" in err


@pytest.mark.parametrize("columns", ["40", "200"])
def test_usage_text_does_not_depend_on_terminal_width(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    code, out, err = run(capsys, "ingest")
    golden = Path(__file__).parent / "golden" / "ingest-no-files" / "stderr"
    assert (code, out, err) == (64, "", golden.read_text(encoding="utf-8"))


def test_report_without_inputs_is_usage_error(capsys):
    code, _, err = run(capsys, "report")
    assert code == 64


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "growth", "--series", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "input error" in err


def test_malformed_csv_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n", encoding="utf-8")
    code, _, err = run(capsys, "growth", "--series", str(bad))
    assert code == 1


def test_domain_error_exit_code(capsys, tmp_path):
    # frequencies that grow with x fit with |slope| < 1, so the
    # normalizing constant is undefined (exponent <= 1)
    shallow = tmp_path / "shallow.csv"
    shallow.write_text("x,y\n1,100\n2,90\n4,80\n8,72\n", encoding="utf-8")
    code, _, err = run(capsys, "lotka", "--dist", str(shallow))
    assert code == 2
    assert "domain error" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv", [["--help"], ["growth", "--help"]])
def test_help_names_the_config_file(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == ("--config FILE reads defaults from 'key = value' lines "
                                    "named after long flags.")


@pytest.mark.parametrize("argv, code, out, err", [
    (["--version"], 0, f"bibmet {bibmet.__version__}\n", ""),
    (["growth"], 64, "", "bibmet: provide --series or --wos\n"),
], ids=["version", "usage-error"])
def test_module_run_exits_with_the_code_of_main(tmp_path, argv, code, out, err):
    env = dict(os.environ, PYTHONPATH=str(Path(bibmet.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "bibmet.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


# ---------------------------------------------------------------------------
# subcommands

def test_lotka_fit_json(capsys):
    code, out, _ = run(capsys, "lotka", "--dist", DIST_REG)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["n"] - 1.9691) < 1e-3
    assert abs(payload["c"] - 0.597) < 1e-3


def test_growth_csv_has_published_rgr(capsys):
    code, out, _ = run(capsys, "growth", "--series", SERIES,
                       "--convention", "paper")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "year,papers,cum,ratio,rgr,dt"
    row_2009 = lines[2].split(",")
    assert row_2009[0] == "2009"
    assert abs(float(row_2009[4]) - 0.527) < 5e-4


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_growth_counts_a_year_missing_from_a_series_as_an_export_does(capsys, tmp_path, fmt):
    # 5 papers in 2001 and 7 in 2003: an export of them has a year 2002 of 0 papers
    series = tmp_path / "gap.csv"
    series.write_text("year,papers\n2001,5\n2003,7\n", encoding="utf-8")
    export = tmp_path / "gap.txt"
    papers = [(f"WOS:{i}", 2001 if i <= 5 else 2003, (f"Author {i}",)) for i in range(1, 13)]
    with open(export, "w", encoding="utf-8", newline="") as out:
        write_export(papers, out)
    code, out, _ = run(capsys, "growth", "--series", str(series), "--format", fmt)
    assert (code, out) == run(capsys, "growth", "--wos", str(export), "--format", fmt)[:2]
    assert code == 0 and "2002" in out


def test_growth_refuses_to_fill_a_span_longer_than_an_export_can_hold(capsys, tmp_path):
    series = tmp_path / "wide.csv"
    series.write_text("year,papers\n1,5\n3000,7\n", encoding="utf-8")
    code, out, err = run(capsys, "growth", "--series", str(series))
    assert (code, out) == (2, "")
    assert err == ("bibmet: domain error: a yearly series with missing years must span "
                   "at most 2001 years, got 1-3000\n")


def test_collab_csv(capsys):
    code, out, _ = run(capsys, "collab", "--matrix", MATRIX, "--cap", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "year,N,slots,ci,dc,cai_multi,cc,mcc"
    first = lines[1].split(",")
    assert first[0] == "2008"
    assert abs(float(first[6]) - 0.6758) < 5e-4


@pytest.mark.parametrize("command", ["collab", "report"])
def test_a_wide_matrix_is_read_in_time_linear_in_its_years(tmp_path, command):
    # 20,000 years of 2 classes, under 0.5 s on a 2-core host; a search
    # for each year's column, quadratic in the years, took over 8 s
    years = range(1, 20_001)
    matrix = tmp_path / "wide.csv"
    matrix.write_text("authors," + ",".join(map(str, years)) + "\n1" + ",1" * len(years)
                      + "\n2," + ",".join(str(year % 2) for year in years) + "\n",
                      encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(bibmet.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "bibmet.cli", command, "--matrix", str(matrix)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=4)
    assert (done.returncode, done.stderr) == (0, "")


def test_ks_with_explicit_parameters(capsys):
    code, out, _ = run(capsys, "ks", "--dist", DIST, "--n", "1.96913",
                       "--c", "0.5974", "--alpha", "0.01", "--ks-mode", "paper")
    assert code == 0
    assert "d_max=0.1034" in out
    assert "critical=0.0128" in out or "critical=0.01277" in out


def test_ks_requires_both_or_neither(capsys):
    code, _, err = run(capsys, "ks", "--dist", DIST, "--n", "2.0")
    assert code == 64


def test_ks_checks_n_and_c_before_reading_input(capsys, tmp_path):
    code, out, err = run(capsys, "ks", "--dist", str(tmp_path / "missing.csv"), "--n", "2")
    assert (code, out) == (64, "")
    assert err == "bibmet: provide both --n and --c, or neither\n"


@pytest.mark.parametrize("flags", [["--n", "nan", "--c", "0.5"],
                                   ["--n", "inf", "--c", "0.5", "--ks-mode", "paper"]],
                         ids=["nan", "inf-paper"])
def test_ks_non_finite_exponent_is_domain_error(capsys, flags):
    code, out, err = run(capsys, "ks", "--dist", DIST, *flags)
    assert (code, out) == (2, "")
    assert "finite exponent" in err


def test_ks_x_beyond_the_float_range_has_a_row_per_x_and_gap_end(capsys, tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text(f"x,y\n1,100\n2,30\n{10**400},1\n", encoding="utf-8")
    code, out, err = run(capsys, "ks", "--dist", str(path), "--n", "2", "--c", "0.6")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert [row[0] for row in rows] == ["1", "2", "3", str(10**400 - 1), str(10**400)]
    assert rows[-1][-2:] == ["0.986960", "0.013040"]


def test_report_keeps_productivity_at_a_huge_x(capsys, tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("x,y\n1,100\n2,30\n1000000000,1\n", encoding="utf-8")
    code, out, err = run(capsys, "report", "--dist", str(path), "--exclude-top")
    assert (code, err) == (0, "")
    assert out.startswith("## Author productivity\n")
    assert "| 1000000000 | 1 | 1.0000 | 1.0000 | 0.0000 |" in out


def test_ingest_emits_yearly(capsys, wos_file):
    code, out, err = run(capsys, "ingest", wos_file)
    assert code == 0
    series = parse_counts_csv(out, "yearly")
    assert series.entries == ((2015, 2), (2016, 1))
    assert "parsed 3 record(s)" in err


def test_ingest_strict_fails_on_skips(capsys, tmp_path):
    path = tmp_path / "partial.txt"
    path.write_text("PT J\nAU Ok, A\nPY 2001\nER\nPT J\nPY 2002\nER\nEF\n",
                    encoding="utf-8")
    code, _, _ = run(capsys, "ingest", str(path))
    assert code == 0
    code, _, err = run(capsys, "ingest", "--strict", str(path))
    assert code == 1
    assert "skipped" in err


def test_ingest_line_separator_stays_inside_author_name(capsys, tmp_path):
    path = tmp_path / "u2028.txt"
    path.write_text("PT J\nAU A\u2028B\nPY 2015\nER\nEF\n", encoding="utf-8")
    code, out, _ = run(capsys, "ingest", "--emit", "distribution", str(path))
    assert code == 0
    assert out == "x,y\n1,1\n"  # one author, not two


# the analysis (counts) path and the record path of ingest
LOADERS = [("ingest",), ("ingest", "--emit", "wos"), ("report", "--wos")]


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("texts, ids, yearly", [
    # the first block of a UT wins, in the order the files are given
    (["PT J\nAU A\nPY 2001\nUT WOS:1\nER\nEF\n",
      "PT J\nAU B\nPY 2002\nUT WOS:1\nER\nEF\n"], ["WOS:1"], "2001,1\n"),
    # UT-less blocks are never repeats: one synthetic counter runs across the files
    (["PT J\nAU A\nPY 2001\nER\nEF\n", "PT J\nAU B\nPY 2002\nER\nEF\n"],
     ["rec000001", "rec000002"], "2001,1\n2002,1\n"),
], ids=["shared-ut", "no-ut"])
def test_record_id_shared_by_two_files_is_merged(capsys, tmp_path, loader, texts, ids, yearly):
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"export{i}.txt")
        paths[-1].write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *loader, *map(str, paths))
    assert code == 0
    merges = ", merged 1 duplicate(s)" if len(ids) == 1 else ""
    assert err.splitlines()[0] == (f"bibmet: parsed {len(ids)} record(s) from 2 file(s), "
                                   f"skipped 0 block(s){merges}")
    if loader == ("ingest",):
        assert out == "year,papers\n" + yearly
    elif loader == ("ingest", "--emit", "wos"):
        assert [line[3:] for line in out.splitlines() if line.startswith("UT ")] == ids


@pytest.mark.parametrize("loader", LOADERS)
def test_export_given_twice_reads_as_given_once(capsys, wos_file, loader):
    code, out, err = run(capsys, *loader, wos_file)
    assert run(capsys, *loader, wos_file, wos_file) == (code, out, err.replace(
        "from 1 file(s), skipped 0 block(s)",
        "from 2 file(s), skipped 0 block(s), merged 3 duplicate(s)"))


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("tail", [b"", b"EF\n" + b"ignored\n" * 3000])
def test_undecodable_byte_is_located_from_file_start(capsys, tmp_path, loader, tail):
    data = b"PT J\nAU A\nPY 2001\nER\n" * 1000 + tail + b"\xff\n"
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole_file:
        data.decode("utf-8")
    code, _, err = run(capsys, *loader, str(path))
    assert code == 1
    assert err == f"bibmet: input error: {whole_file.value}\n"


@pytest.mark.parametrize("argv, header", [
    (["growth", "--series"], b"year,papers\n"),
    (["collab", "--matrix"], b"authors,2001\n"),
    (["ks", "--dist"], b"x,y\n"),
])
def test_undecodable_byte_in_a_table_is_located_from_file_start(capsys, tmp_path, argv, header):
    # the byte lies beyond the first chunk that the table's reader takes
    data = header + b"".join(b"%d,1\n" % k for k in range(1, 30_000)) + b"\xff\n"
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole_file:
        data.decode("utf-8")
    code, _, err = run(capsys, *argv, str(path))
    assert code == 1
    assert err == f"bibmet: input error: {whole_file.value}\n"


def test_table_on_a_pipe_names_the_line_of_its_broken_last_row():
    # more than one chunk, so that the line count goes on across chunks
    data = b"year,papers\n# years\n" + b"".join(b"%d,1\n" % y for y in range(1, 30_001))
    data += b"30001,-1\n"
    env = dict(os.environ, PYTHONPATH=str(Path(bibmet.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "bibmet.cli", "growth", "--series", "/dev/stdin"],
                          input=data, env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, b"", b"bibmet: input error: line 30003: negative paper count for 30001\n")


@pytest.mark.parametrize("emit", [[], ["--emit", "wos"]], ids=["count", "write"])
def test_undecodable_byte_on_a_pipe_is_named(emit):
    # the byte's position counts from the start of the input, as for a
    # file, however the pipe happened to fill
    data = b"PT J\nAU A\nPY 2001\nER\n" * 26000 + b"\xff\n"
    env = dict(os.environ, PYTHONPATH=str(Path(bibmet.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "bibmet.cli", "ingest", *emit, "/dev/stdin"],
                          input=data, env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == (b"bibmet: input error: 'utf-8' codec can't decode byte 0xff"
                           b" in position 546000: invalid start byte\n")


@pytest.mark.parametrize("flags, texts", [
    (["--strict"], [b"PT J\nAU A\nPY 2001\nER\nPT J\nPY 2002\nER\nEF\n"]),
    ([], [b"PT J\nAU A\nPY 2001\nUT WOS:1\nER\nEF\n",
          b"PT J\nAU B\nPY 2002\nUT WOS:2\nER\n\xff\n"]),
], ids=["strict-skip", "undecodable-second-file"])
def test_ingest_emit_wos_failure_writes_nothing(capsys, tmp_path, flags, texts):
    paths = []
    for i, data in enumerate(texts):
        paths.append(tmp_path / f"export{i}.txt")
        paths[-1].write_bytes(data)
    output = tmp_path / "merged.txt"
    for before in (None, b"an earlier export\n"):
        if before is not None:
            output.write_bytes(before)
        listed = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, "ingest", "--emit", "wos", *map(str, paths),
                             *flags, "--output", str(output))
        assert code == 1
        assert out == ""
        assert "input error" in err
        # no temporary file is left next to the output either
        assert sorted(tmp_path.iterdir()) == listed
        if before is not None:
            assert output.read_bytes() == before


@pytest.mark.parametrize("before", [None, b"an earlier export\n"], ids=["new", "existing"])
def test_synth_emit_wos_failure_writes_nothing(capsys, tmp_path, before):
    # the second year's count is checked only once the first year's papers are drawn
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "corpus", "start_year": 2010, "papers_per_year": [3, -1],'
                    ' "author_count_dist": {"1": 1.0}, "seed": 11}', encoding="utf-8")
    output = tmp_path / "export.txt"
    if before is not None:
        output.write_bytes(before)
    listed = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, "synth", "--spec", str(spec), "--output", str(output))
    assert (code, out) == (2, "")
    assert err == "bibmet: domain error: paper counts must be non-negative\n"
    assert sorted(tmp_path.iterdir()) == listed
    if before is not None:
        assert output.read_bytes() == before


# commands whose table goes through _emit, next to the two --emit wos writers
TABLE_COMMANDS = [("growth", "--series", SERIES), ("ks", "--dist", DIST)]


@pytest.mark.parametrize("command", [("ingest", "--emit", "wos", "{wos}"),
                                     ("synth", "--spec", "{spec}"), *TABLE_COMMANDS])
def test_emit_wos_output_is_written_as_a_plain_write_would(capsys, tmp_path, wos_file,
                                                          command):
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "corpus", "start_year": 2010, "papers_per_year": [3, 4],'
                    ' "author_count_dist": {"1": 0.5, "3": 0.5}, "seed": 11}', encoding="utf-8")
    argv = [a.format(wos=wos_file, spec=spec) for a in command]
    code, expected, _ = run(capsys, *argv)
    assert code == 0 and expected.endswith("\n" if command in TABLE_COMMANDS else "EF\n")
    listed = sorted(tmp_path.iterdir())

    new = tmp_path / "new.txt"
    old_umask = os.umask(0o027)
    try:
        assert run(capsys, *argv, "--output", str(new))[0] == 0
    finally:
        os.umask(old_umask)
    assert new.read_text(encoding="utf-8") == expected
    assert stat.S_IMODE(new.stat().st_mode) == 0o640

    # an existing file keeps its mode, a symbolic link stays a link to it,
    # and a hard link to it is broken: the file is replaced, not rewritten
    new.chmod(0o604)
    link = tmp_path / "link.txt"
    link.symlink_to(new.name)
    new.write_text("stale\n", encoding="utf-8")
    hard = tmp_path / "hard.txt"
    os.link(new, hard)
    assert run(capsys, *argv, "--output", str(link))[0] == 0
    assert link.is_symlink()
    assert new.read_text(encoding="utf-8") == expected
    assert stat.S_IMODE(new.stat().st_mode) == 0o604
    assert hard.read_text(encoding="utf-8") == "stale\n"
    assert sorted(tmp_path.iterdir()) == sorted([*listed, new, link, hard])


def test_emit_wos_output_to_a_pipe_writes_through_it(capsys, tmp_path, wos_file):
    for i, argv in enumerate([("ingest", "--emit", "wos", wos_file), *TABLE_COMMANDS]):
        fifo = tmp_path / f"pipe{i}"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True)
        reader.start()
        code, _, _ = run(capsys, *argv, "--output", str(fifo))
        if code:
            # the run never opened the pipe: let the reader's open return
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received == [run(capsys, *argv)[1]]


def test_emit_wos_output_in_a_missing_directory_names_the_output(capsys, tmp_path, wos_file):
    output = tmp_path / "missing" / "out.txt"
    for argv in [("ingest", "--emit", "wos", wos_file), *TABLE_COMMANDS]:
        code, out, err = run(capsys, *argv, "--output", str(output))
        assert (code, out) == (1, "")
        assert err == f"bibmet: input error: [Errno 2] No such file or directory: '{output}'\n"


# ---------------------------------------------------------------------------
# ingest --emit wos in one process per CPU

def block(ut):
    return f"PT J\nAU A\nPY 2001\nUT {ut}\nER\n".encode()


@pytest.fixture
def two_cpus(monkeypatch, tmp_path):
    """Two usable CPUs, and TMPDIR in an empty directory of its own."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    return tmp


def write_exports(directory, texts):
    directory.mkdir()
    paths = [directory / f"export{i}.txt" for i in range(len(texts))]
    for path, data in zip(paths, texts):
        path.write_bytes(data)
    return list(map(str, paths))


def assert_nothing_left(tmp):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child, running or unreaped
    assert list(tmp.iterdir()) == []


@pytest.mark.parametrize("texts, code, err", [
    ([b"", block("WOS:2")], 1, "no records found in input"),
    ([block("WOS:1"), block("WOS:2") + b"\xff\n"], 1, "can't decode byte 0xff"),
    ([block("WOS:1"), block("WOS:1")], 0, "merged 1 duplicate(s)"),
    ([block("WOS:1"), block("WOS:2")], 0, "parsed 2 record(s)"),
], ids=["parent-part-fails", "child-part-fails", "part-rejected", "part-kept"])
def test_forked_writer_leaves_no_process_or_file(capsys, tmp_path, two_cpus, texts, code, err):
    paths = write_exports(tmp_path / "in", texts)
    output = tmp_path / "merged.txt"
    result = run(capsys, "ingest", "--emit", "wos", *paths, "--output", str(output))
    assert result[:2] == (code, "")
    assert err in result[2]
    assert output.exists() == (code == 0)
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
    assert_nothing_left(two_cpus)


@pytest.mark.parametrize("texts, code, err", [
    ([block("WOS:1") + b"\xff\n" + block("WOS:2") + block("WOS:3")], 1, "can't decode byte 0xff"),
    ([block("WOS:1") + block("WOS:2") + b"\xff\n"], 1, "can't decode byte 0xff"),
    ([block("WOS:1") + block("WOS:2") + block("WOS:1")], 0, "merged 1 duplicate(s)"),
    ([block("WOS:1") + block("WOS:2") + block("WOS:3")], 0, "parsed 3 record(s)"),
], ids=["parent-part-fails", "child-part-fails", "part-rejected", "part-kept"])
def test_forked_counter_leaves_no_process_or_file(capsys, tmp_path, two_cpus, texts, code, err):
    paths = write_exports(tmp_path / "in", texts)
    result = run(capsys, "ingest", *paths)
    assert result[0] == code
    assert err in result[2]
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
    assert_nothing_left(two_cpus)


def test_forked_writer_scans_again_only_the_exports_an_earlier_part_shares(
        capsys, tmp_path, two_cpus, monkeypatch):
    paths = write_exports(tmp_path / "in", [block("WOS:1"), block("WOS:2"),
                                            block("WOS:1"), block("WOS:3")])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    expected = run(capsys, "ingest", "--emit", "wos", *paths)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    scanned = []
    chunks = wos._file_chunks

    def spy(*segment):
        scanned.append(segment)  # in this process; a child's calls stay in the child
        return chunks(*segment)

    monkeypatch.setattr(wos, "_file_chunks", spy)
    assert run(capsys, "ingest", "--emit", "wos", *paths) == expected
    assert "merged 1 duplicate(s)" in expected[2]
    assert scanned == [(path, 0, None) for path in paths[:3]]
    assert_nothing_left(two_cpus)


def test_forked_writer_interrupted_leaves_no_process_or_file(tmp_path, two_cpus, monkeypatch):
    def interrupted(papers):
        raise KeyboardInterrupt

    monkeypatch.setattr(wos, "_rendered", interrupted)
    paths = write_exports(tmp_path / "in", [block("WOS:1"), block("WOS:2")])
    with pytest.raises(KeyboardInterrupt):
        main(["ingest", "--emit", "wos", *paths, "--output", str(tmp_path / "merged.txt")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "tmp"]
    assert_nothing_left(two_cpus)


def test_forked_writer_interrupted_at_the_fork_leaves_no_process_or_file(
        tmp_path, two_cpus, monkeypatch):
    fork = os.fork

    def fork_then_interrupt():
        pid = fork()
        os.kill(os.getpid(), signal.SIGINT)  # in the parent and in the child
        return pid

    monkeypatch.setattr(os, "fork", fork_then_interrupt)
    paths = write_exports(tmp_path / "in", [block("WOS:1"), block("WOS:2")])
    with pytest.raises(KeyboardInterrupt):
        main(["ingest", "--emit", "wos", *paths, "--output", str(tmp_path / "merged.txt")])
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "tmp"]
    assert_nothing_left(two_cpus)


def test_forked_counter_interrupted_at_the_fork_leaves_no_process_or_file(
        tmp_path, two_cpus, monkeypatch):
    fork = os.fork

    def fork_then_interrupt():
        pid = fork()
        os.kill(os.getpid(), signal.SIGINT)  # in the parent and in the child
        return pid

    monkeypatch.setattr(os, "fork", fork_then_interrupt)
    paths = write_exports(tmp_path / "in", [block("WOS:1") + block("WOS:2") + block("WOS:3")])
    with pytest.raises(KeyboardInterrupt):
        main(["report", "--wos", *paths, "--out-dir", str(tmp_path / "report")])
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "tmp"]
    assert_nothing_left(two_cpus)


@pytest.mark.parametrize("owner, name, started", [
    (os, "fork", 0), (os, "fork", 1), (tempfile, "TemporaryFile", 0),
], ids=["0", "1", "no-temporary-file"])
def test_forked_writer_scans_a_part_itself_when_no_child_starts(
        capsys, tmp_path, two_cpus, monkeypatch, owner, name, started):
    # os.fork, or tempfile.TemporaryFile before it, fails after started children
    paths = write_exports(tmp_path / "in", [block("WOS:1"), block("WOS:2"), block("WOS:3")])
    output = tmp_path / "merged.txt"

    def ingest():
        result = run(capsys, "ingest", "--emit", "wos", *paths, "--output", str(output))
        return result, output.read_bytes()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    expected = ingest()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    calls = []
    call = getattr(owner, name)

    def fails_after_started(*args, **kwargs):
        calls.append(os.getpid())
        if len(calls) > started:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return call(*args, **kwargs)

    monkeypatch.setattr(owner, name, fails_after_started)
    assert ingest() == expected
    assert len(calls) == started + 1
    assert_nothing_left(two_cpus)


@pytest.mark.parametrize("case", ["two-exports", "one-export", "fifo", "one-cpu", "threaded",
                                  "file-named-twice", "missing-export"])
def test_forked_writer_forks_only_for_regular_files_on_several_cpus(
        capsys, tmp_path, two_cpus, monkeypatch, case):
    check_forks_only_for_regular_files(capsys, tmp_path, two_cpus, monkeypatch, case,
                                       ["ingest", "--emit", "wos"])


@pytest.mark.parametrize("case", ["two-exports", "one-export", "fifo", "one-cpu", "threaded",
                                  "file-named-twice", "missing-export"])
def test_forked_counter_forks_only_for_regular_files_on_several_cpus(
        capsys, tmp_path, two_cpus, monkeypatch, case):
    check_forks_only_for_regular_files(capsys, tmp_path, two_cpus, monkeypatch, case,
                                       ["report", "--wos"])


def check_forks_only_for_regular_files(capsys, tmp_path, tmp, monkeypatch, case, command):
    paths = write_exports(tmp_path / "in", [block("WOS:1"), block("WOS:2")])
    expected = run(capsys, *command, *paths)
    writer = thread = None
    if case == "one-export":
        Path(paths[0]).write_bytes(block("WOS:1") + block("WOS:2") + block("WOS:3"))
        paths, expected = paths[:1], run(capsys, *command, paths[0])
    elif case == "file-named-twice":
        paths = [paths[0], paths[0]]
        expected = run(capsys, *command, *paths)
    elif case == "missing-export":
        paths.insert(1, str(tmp_path / "in" / "missing.txt"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        expected = run(capsys, *command, *paths)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    elif case == "fifo":
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = subprocess.Popen(["sh", "-c", 'cat "$1" > "$2"', "sh", paths[1], str(fifo)])
        paths[1] = str(fifo)
    elif case == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif case == "threaded":
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
    forks = []
    fork = os.fork

    def spy():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    try:
        assert run(capsys, *command, *paths) == expected
    finally:
        if writer is not None:
            writer.kill()
            writer.wait(timeout=30)
        if thread is not None:
            release.set()
            thread.join(timeout=30)
    assert thread is None or not thread.is_alive()
    assert len(forks) == (case in ("two-exports", "one-export"))
    assert_nothing_left(tmp)


# runs the command given after it in a child and prints its exit code and
# peak RSS.  The CLI is not spawned from this process: Linux carries the
# high-water RSS of the process that forks into the child's ru_maxrss at exec.
SPAWNER = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "bibmet.cli", *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_forked_count_peaks_near_the_serial_count(tmp_path):
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) < 2:
        pytest.skip("needs two usable CPUs")
    export = tmp_path / "export.txt"
    with open(export, "w", encoding="utf-8") as out:
        teams = {1: 0.2, 2: 0.3, 3: 0.3, 5: 0.2}
        write_export(sample_papers(range(2000, 2020), [2500] * 20, teams, seed=3,
                                   author_pool=150_000), out)
    env = dict(os.environ, PYTHONPATH=str(Path(bibmet.__file__).parents[1]))
    peaks, reports = [], []
    for cpus in (usable[:1], usable[:2]):
        out = tmp_path / f"report{len(cpus)}"
        done = subprocess.run([sys.executable, "-c", SPAWNER, "report", "--wos", str(export),
                               "--out-dir", str(out)], env=env, capture_output=True, text=True,
                              timeout=120, preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        code, peak = map(int, done.stdout.split())
        assert code == 0, done.stderr
        peaks.append(peak)
        reports.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert reports[0] == reports[1]
    assert peaks[1] <= 1.03 * peaks[0]


def test_a_run_on_one_cpu_leaves_pickle_unloaded(tmp_path, wos_file):
    # only the children of a forked scan pickle what they send
    code = ("import sys; from bibmet.cli import main; "
            "print(main(sys.argv[1:]), 'pickle' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(bibmet.__file__).parents[1]))
    cpu = min(os.sched_getaffinity(0))
    done = subprocess.run([sys.executable, "-c", code, "report", "--wos", wos_file,
                           "--out-dir", str(tmp_path / "out")], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert done.stdout == "0 False\n", done.stderr


@pytest.mark.parametrize("command", [
    ("ingest", "--emit", "matrix", "{wos}"), ("collab", "--wos", "{wos}"),
    ("report", "--wos", "{wos}"), ("collab", "--matrix", "{matrix}"),
    ("report", "--matrix", "{matrix}"),
])
def test_cap_above_limit_is_domain_error(capsys, tmp_path, wos_file, command):
    matrix = tmp_path / "uncollapsed.csv"
    matrix.write_text("authors,2015,2016\n1,1,0\n2,1,0\n3,0,1\n", encoding="utf-8")
    argv = [a.format(wos=wos_file, matrix=matrix) for a in command]
    code, out, err = run(capsys, *argv, "--cap", str(CAP_MAX + 1))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"bibmet: domain error: cap must be <= {CAP_MAX}"


CAP_COMMANDS = [
    ("ingest", "--emit", "matrix", "{wos}"), ("collab", "--wos", "{wos}"),
    ("report", "--wos", "{wos}"), ("collab", "--matrix", "{matrix}"),
    ("report", "--matrix", "{matrix}"),
]


def _cap_argv(tmp_path, wos_file, command):
    matrix = tmp_path / "uncollapsed.csv"
    matrix.write_text("authors,2015,2016\n1,1,0\n2,1,0\n3,0,1\n", encoding="utf-8")
    return [a.format(wos=wos_file, matrix=matrix) for a in command]


@pytest.mark.parametrize("command", CAP_COMMANDS)
def test_cap_below_two_is_domain_error(capsys, tmp_path, wos_file, command):
    # checked where the matrix is collapsed, the same way for --wos and --matrix
    code, out, err = run(capsys, *_cap_argv(tmp_path, wos_file, command), "--cap", "1")
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "bibmet: domain error: cap must be >= 2"


@pytest.mark.parametrize("command", CAP_COMMANDS)
def test_cap_is_not_checked_without_collapsing(capsys, tmp_path, wos_file, command):
    code, out, _ = run(capsys, *_cap_argv(tmp_path, wos_file, command),
                       "--no-collapse", "--cap", "1")
    assert code == 0
    assert out


def test_cap_at_limit_is_accepted(capsys, wos_file):
    code, out, _ = run(capsys, "ingest", "--emit", "matrix", wos_file,
                       "--cap", str(CAP_MAX))
    assert code == 0
    assert out.splitlines()[-1].startswith(f"{CAP_MAX}+,")


@pytest.mark.parametrize("command", [
    ("lotka", "--dist", DIST_REG), ("ks", "--dist", DIST_REG),
    ("report", "--dist", DIST_REG),
])
def test_truncation_above_limit_is_domain_error(capsys, command):
    code, out, err = run(capsys, *command, "--truncation", str(TRUNCATION_MAX + 1))
    assert code == 2
    assert out == ""
    assert err == f"bibmet: domain error: truncation must be <= {TRUNCATION_MAX}\n"


BAD_FLAGS = pytest.mark.parametrize("flags, single", [
    (["--truncation", "1"], ["lotka", "--dist", DIST]),
    (["--alpha", "0.02"], ["ks", "--dist", DIST]),
    (["--block-split", "0"], ["growth", "--series", SERIES]),
], ids=["truncation", "alpha", "block-split"])


@BAD_FLAGS
def test_report_rejects_a_flag_like_the_single_command(capsys, tmp_path, flags, single):
    code, _, expected = run(capsys, *single, *flags)
    assert code == 2
    # checked before any input is read: a missing file would exit 1
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, "report", "--dist", missing, *flags)
    assert (code, out, err) == (2, "", expected)


@BAD_FLAGS
def test_a_command_rejects_a_flag_before_reading_its_exports(capsys, tmp_path, flags, single):
    code, _, expected = run(capsys, *single, *flags)
    assert code == 2
    # a missing export would exit 1, and a read one print the ingest line
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, single[0], "--wos", missing, *flags)
    assert (code, out, err) == (2, "", expected)


def test_truncation_at_limit_is_accepted(capsys):
    code, out, _ = run(capsys, "lotka", "--dist", DIST_REG,
                       "--truncation", str(TRUNCATION_MAX))
    assert code == 0
    assert json.loads(out)["c"] > 0


def test_ingest_source_comment_flag(capsys, wos_file):
    code, out, _ = run(capsys, "ingest", wos_file, "--source-comment")
    assert code == 0
    assert out.startswith("# source: ")
    # comment lines do not break re-parsing
    parse_counts_csv(out, "yearly")


def test_synth_productivity(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "productivity", "n0": 2.0,
                                "total_authors": 1000, "x_max": 20, "seed": 5}),
                    encoding="utf-8")
    code, out, _ = run(capsys, "synth", "--spec", str(spec))
    assert code == 0
    dist = parse_counts_csv(out, "distribution")
    assert dist.total_authors == 1000


def test_synth_x_max_above_limit_is_domain_error(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "productivity", "n0": 2.0, "total_authors": 10,
                                "x_max": X_MAX_LIMIT + 1, "seed": 5}),
                    encoding="utf-8")
    code, out, err = run(capsys, "synth", "--spec", str(spec))
    assert (code, out) == (2, "")
    assert err == f"bibmet: domain error: x_max must be <= {X_MAX_LIMIT}\n"


@pytest.mark.parametrize("field, value, message", [
    ("author_pool", AUTHOR_POOL_LIMIT + 1, f"author_pool must be <= {AUTHOR_POOL_LIMIT}"),
    ("papers_per_year", [AUTHOR_SLOTS_LIMIT // 2 + 1], "papers times the largest team size "
     f"must be <= {AUTHOR_SLOTS_LIMIT}, got {AUTHOR_SLOTS_LIMIT // 2 + 1} x 2"),
])
def test_synth_corpus_spec_above_limit_is_domain_error(capsys, tmp_path, field, value, message):
    payload = {"kind": "corpus", "start_year": 2010, "papers_per_year": [4],
               "author_count_dist": {"1": 0.5, "2": 0.5}, "seed": 8}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**payload, field: value}), encoding="utf-8")
    code, out, err = run(capsys, "synth", "--spec", str(spec))
    assert (code, out) == (2, "")
    assert err == f"bibmet: domain error: {message}\n"


def test_synth_corpus_roundtrips_through_ingest(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "corpus", "start_year": 2010, "papers_per_year": [4, 6],
        "author_count_dist": {"1": 0.25, "2": 0.75}, "seed": 8}),
        encoding="utf-8")
    out_path = tmp_path / "synth.txt"
    code, _, _ = run(capsys, "synth", "--spec", str(spec),
                     "--output", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "ingest", str(out_path))
    assert code == 0
    series = parse_counts_csv(out, "yearly")
    assert series.papers == (4, 6)


# ---------------------------------------------------------------------------
# report pipeline

def test_report_writes_all_tables(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "report", "--series", SERIES, "--matrix", MATRIX,
                       "--dist", DIST, "--out-dir", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["authorship.csv", "collab.csv", "growth.csv", "ks.csv",
                     "lotka.json", "productivity.csv", "yearly.csv"]
    # the canonical tables round-trip through the fixture parser
    parse_counts_csv((out_dir / "yearly.csv").read_text(), "yearly")
    matrix = parse_counts_csv((out_dir / "authorship.csv").read_text(), "matrix")
    assert matrix.collapsed and matrix.cap == 10
    dist = parse_counts_csv((out_dir / "productivity.csv").read_text(), "distribution")
    assert dist.total_authors == 23767


REPORT_FILES = ["yearly.csv", "growth.csv", "authorship.csv", "collab.csv",
                "productivity.csv", "lotka.json", "ks.csv"]


@pytest.mark.parametrize("blocked", REPORT_FILES)
def test_report_out_dir_with_one_file_blocked_writes_nothing(capsys, tmp_path, blocked):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    for name in REPORT_FILES:
        (out_dir / name).write_text(f"an earlier {name}\n", encoding="utf-8")
    (out_dir / blocked).unlink()
    (out_dir / blocked).mkdir()

    def listing():
        return {p.name: None if p.is_dir() else p.read_bytes() for p in out_dir.iterdir()}

    before = listing()
    code, out, err = run(capsys, "report", "--series", SERIES, "--matrix", MATRIX,
                         "--dist", DIST, "--out-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err == f"bibmet: input error: [Errno 21] Is a directory: '{out_dir / blocked}'\n"
    # no file is replaced, and no staged file is left, next to the others or in the directory
    assert listing() == before
    assert list((out_dir / blocked).iterdir()) == []


def test_report_survives_undefined_sections(capsys, tmp_path):
    # a single-record corpus has no growth statistics and a singular
    # productivity fit; report still emits the computable tables
    path = tmp_path / "one.txt"
    path.write_text("PT J\nAU One, A\nPY 2010\nER\nEF\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "report", "--wos", str(path),
                       "--out-dir", str(out_dir))
    assert code == 0
    assert "skipping growth" in err
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["authorship.csv", "collab.csv", "productivity.csv",
                     "yearly.csv"]


@pytest.mark.parametrize("command, text", [
    (["collab", "--matrix"], "authors,2015,2016\n1,3,2\n"),
    (["report", "--matrix"], "authors,2015,2016\n1,3,2\n"),
    (["report", "--wos"], "PT J\nAU One, A\nPY 2010\nER\nEF\n"),
], ids=["collab-matrix", "report-matrix", "report-wos"])
def test_cai_warning_is_printed_once(capsys, tmp_path, command, text):
    path = tmp_path / "single-author.txt"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, *command, str(path))
    assert code == 0
    assert err.count("bibmet: warning: CAI class 'multi' has no papers overall") == 1


def test_report_markdown_to_stdout(capsys):
    code, out, _ = run(capsys, "report", "--series", SERIES)
    assert code == 0
    assert "## Growth" in out
    assert "| 2009 |" in out


def test_report_is_deterministic(capsys, tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out_dir in (a_dir, b_dir):
        code, _, _ = run(capsys, "report", "--series", SERIES, "--dist", DIST,
                         "--out-dir", str(out_dir))
        assert code == 0
    for name in ("yearly.csv", "growth.csv", "productivity.csv",
                 "lotka.json", "ks.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_config_file_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "bibmet.conf"
    config.write_text("convention = standard\nexact-ln2 = true\n",
                      encoding="utf-8")
    code, out, _ = run(capsys, "growth", "--series", SERIES,
                       "--config", str(config), "--format", "json")
    assert code == 0
    assert json.loads(out)["convention"] == "standard"
    # explicit flags beat the config
    code, out, _ = run(capsys, "growth", "--series", SERIES,
                       "--config", str(config), "--convention", "paper",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["convention"] == "paper"


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_config_line_ends_read_as_lf(capsys, tmp_path, end):
    # a comment line ends at its own line end, not at the next \n
    lines = ["# defaults", "convention = standard", "exact-ln2 = true", ""]
    outputs = []
    for line_end in ("\n", end):
        config = tmp_path / "bibmet.conf"
        config.write_bytes(line_end.join(lines).encode("utf-8"))
        outputs.append(run(capsys, "growth", "--series", SERIES, "--config", str(config),
                           "--format", "json"))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and json.loads(outputs[0][1])["convention"] == "standard"


def test_config_path_with_a_nul_byte_is_usage_error(capsys):
    # main's own argv, not a shell's, can hold one
    code, out, err = run(capsys, "growth", "--series", SERIES, "--config=bibmet\0.conf")
    assert (code, out, err) == (64, "", "bibmet: cannot read config file: embedded null byte\n")


def test_config_unknown_key_is_usage_error(capsys, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("does-not-exist = 1\n", encoding="utf-8")
    code, _, _ = run(capsys, "growth", "--series", SERIES,
                     "--config", str(config))
    assert code == 64
