"""Arbitrary input ends in a documented error, never in another exception.

Hypothesis feeds arbitrary text to the export scanner and parsers and to
the three CSV parsers, which may raise only ``ParseError`` subclasses;
arbitrary JSON values to ``spec_from_json``, which may raise only
``DomainError``; arbitrary bytes to ``--config``, which must read or end
in exit 64; and fuzzed input files to every subcommand, which must exit
0, 1, 2 or 64 and raise nothing.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibmet.cli import main
from bibmet.errors import DomainError, ParseError
from bibmet.synth import spec_from_json
from bibmet.tables import normalize_line_ends, parse_counts_csv, split_lines
from bibmet.wos import ExportRun, parse_wos_export, scan_wos_export

# text near each input dialect, so that the parsers get past their first line
LINES = st.sampled_from([
    "PT J", "AU Smith, A", "   Jones, B", "  two", "PY 2015", "PY 20x5", "PY 0999",
    "UT WOS:1", "UT", "ER", "ER x", "EF", "TI T", "", " ", "\x0c", "\u2028",
    "year,papers", "x,y", "authors,2015,2016", "authors", "1,2", "2,0", "3,-1",
    "1,2,3", "2+,1,1", "2015,7", "# comment", "\ufeffx,y", "1,", ",", "99999999999999999999,1",
])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def near_texts(draw):
    lines = draw(st.lists(st.one_of(LINES, st.text(max_size=12)), max_size=12))
    return "".join(line + draw(LINE_ENDS) for line in lines) + draw(st.text(max_size=4))


TEXTS = st.one_of(st.text(), near_texts())

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10, 60),
                    st.integers(), st.floats(), st.text(max_size=5))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                     st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


@st.composite
def specs(draw, values=JSON_VALUES):
    """A spec object of either kind whose fields hold arbitrary values, or any JSON value."""
    kind = draw(st.sampled_from(["productivity", "corpus", "other"]))
    fields = {"productivity": ["n0", "total_authors", "x_max", "seed"],
              "corpus": ["start_year", "papers_per_year", "author_count_dist",
                         "seed", "author_pool"]}.get(kind, [])
    spec = {"kind": kind}
    for name in fields:
        if draw(st.integers(0, 9)):
            spec[name] = draw(values)
    return draw(st.one_of(st.just(spec), values))


@settings(max_examples=150, deadline=None)
@given(text=TEXTS, chunk=st.sampled_from([1, 5, 1 << 20]))
def test_export_text_raises_only_parse_errors(text, chunk):
    with contextlib.suppress(ParseError):
        parse_wos_export(text)
    # chunks end at a line end, as scan_wos_file reads them
    fh = io.StringIO(normalize_line_ends(text))
    chunks = list(iter(lambda: fh.read(chunk) + fh.readline(), ""))
    with contextlib.suppress(ParseError):
        for _ in scan_wos_export([chunks], ExportRun()):
            pass


@settings(max_examples=150, deadline=None)
@given(text=TEXTS, shape=st.sampled_from(["yearly", "matrix", "distribution"]))
def test_counts_csv_raises_only_parse_errors(text, shape):
    try:
        parse_counts_csv(text, shape)
    except ParseError as exc:
        # the error names a line of the input
        assert exc.line is not None and 1 <= exc.line <= len(split_lines(text))


@settings(max_examples=150, deadline=None)
@given(spec=specs())
def test_spec_json_raises_only_domain_errors(spec):
    with contextlib.suppress(DomainError):
        spec_from_json(json.dumps(spec))


def run(argv, workdir):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.one_of(st.binary(max_size=40),
                      near_texts().map(lambda t: t.encode("utf-8")),
                      st.sampled_from([b"\xff", b"convention = standard\n\xfe\n"])))
def test_config_bytes_read_or_exit_64(data):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "yearly.csv").write_text("year,papers\n2001,3\n2002,5\n2003,9\n")
        Path(tmp, "bibmet.conf").write_bytes(data)
        code, err = run(["growth", "--series", "yearly.csv", "--config", "bibmet.conf"], tmp)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 64
        assert err.startswith("bibmet: cannot read config file: ")
    else:
        assert code in (0, 1, 2, 64)


# each subcommand with the fuzzed file in the place of its input
COMMANDS = [
    ["ingest", "in.txt"], ["ingest", "in.txt", "--emit", "wos", "--strict"],
    ["ingest", "in.txt", "in.txt", "--emit", "distribution"],
    ["growth", "--series", "in.txt"], ["growth", "--wos", "in.txt"],
    ["collab", "--matrix", "in.txt"], ["collab", "--wos", "in.txt", "--no-collapse"],
    ["lotka", "--dist", "in.txt"], ["ks", "--dist", "in.txt"],
    ["report", "--wos", "in.txt"], ["report", "--dist", "in.txt", "--out-dir", "out"],
    ["synth", "--spec", "in.txt"], ["synth", "--spec", "in.txt", "--emit", "yearly"],
]
SMALL = st.one_of(st.none(), st.booleans(), st.integers(-5, 40),
                  st.sampled_from([0.5, 1.5, 2.0, float("nan"), float("inf"), float("-inf")]),
                  st.text(max_size=3))
SMALL_JSON = st.recursive(
    SMALL, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                   st.dictionaries(st.sampled_from(["1", "2", "x"]), inner,
                                                   max_size=3)),
    max_leaves=6)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
@settings(max_examples=20, deadline=None)
@given(data=st.one_of(TEXTS.map(lambda t: t.encode("utf-8")), st.binary(max_size=20),
                      specs(SMALL_JSON).map(lambda s: json.dumps(s).encode())))
def test_cli_on_fuzzed_files_exits_with_a_documented_code(argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "in.txt").write_bytes(data)
        code, _ = run(argv, tmp)
    assert code in (0, 1, 2, 64)
