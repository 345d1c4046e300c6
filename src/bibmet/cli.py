"""Command-line frontend.

Subcommands: ``ingest``, ``growth``, ``collab``, ``lotka``, ``ks``,
``report``, ``synth``.  Data goes to standard output (or ``--output``),
diagnostics to standard error.  Exit codes: 0 success, 1 unreadable or
malformed input, 2 a metric was requested outside its mathematical
domain, 64 usage errors.  Output never contains timestamps or color, so
identical input and flags produce byte-identical output (``NO_COLOR``
is therefore trivially honored).

Defaults mirror the legacy analysis conventions the bundled fixtures
come from: author-class cap 10 with collapsing on, ``paper`` RGR
convention, RGR averaging blocks of the first 4 entries and the rest,
alpha 0.01.  A ``--config`` file with ``key = value`` lines (keys named
after long flags) supplies defaults; command-line flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import stat
import sys
import tempfile
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import DomainError, ParseError

if TYPE_CHECKING:  # each command imports the modules it runs, so --version loads none
    from .collab import CollabReport
    from .corpus import CountTables
    from .growth import GrowthReport
    from .lotka import KSReport, LotkaFit
    from .tables import AuthorshipMatrix, ProductivityDistribution, Value, YearlySeries


def _forwarder(name: str):
    """A function that calls the package's ``name``, importing its module on the first call."""
    return lambda *args, **kwargs: getattr(sys.modules[__package__], name)(*args, **kwargs)


# perfbench/spans.py wraps these names here (see tests/test_tracer_targets.py); they go when
# the run record replaces spans.py (ROADMAP item 2).  The CLI calls the first five by them
fit_lotka_least_squares = _forwarder("fit_lotka_least_squares")
lotka_constant = _forwarder("lotka_constant")
ks_test = _forwarder("ks_test")
build_growth_report = _forwarder("build_growth_report")
authorship_pattern_report = _forwarder("authorship_pattern_report")
build_yearly_series = _forwarder("build_yearly_series")
build_authorship_matrix = _forwarder("build_authorship_matrix")
productivity_distribution = _forwarder("productivity_distribution")
parse_wos_file = _forwarder("parse_wos_file")
write_wos_export = _forwarder("write_wos_export")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # of the main parser: its subcommands

    def __init__(self, *args, **kwargs):
        # the width COLUMNS=80 gives: usage and help text must not depend on the terminal
        super().__init__(*args, epilog="--config FILE reads defaults from 'key = value' lines "
                                       "named after long flags.",
                         formatter_class=functools.partial(argparse.HelpFormatter, width=78),
                         **kwargs)

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def entrypoint() -> None:
    sys.exit(main())


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(_apply_config(argv, parser.commands))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return args.func(args) or 0
            finally:
                # also when the command then fails, before its error line
                for w in caught:
                    print(f"bibmet: warning: {w.message}", file=sys.stderr)
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (None, 0) else 64
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 64
    except DomainError as exc:
        print(f"bibmet: domain error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # ValueError covers ParseError, UnicodeDecodeError and the checks
        # Python itself makes on loaded data, e.g. a NUL byte in a path
        # that a --config file gives
        print(f"bibmet: input error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# configuration file

def _apply_config(argv: list[str], commands) -> list[str]:
    """Expand ``--config FILE`` into flags inserted after the subcommand, one of ``commands``.

    Config lines read ``key = value`` with keys spelled like the long
    flags (``convention = standard``); a value of ``true`` adds a bare
    switch, ``false`` omits it.  Explicit command-line flags override the
    config because they come later.
    """
    pre = _Parser(prog="bibmet", add_help=False, allow_abbrev=False)
    pre.add_argument("--config", metavar="FILE")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return rest
    try:
        # a leading byte-order mark is dropped, as the CSV tables drop it;
        # "utf-8-sig" would read a file of a cut mark alone as empty
        text = Path(known.config).read_text(encoding="utf-8").removeprefix("\ufeff")
    except (OSError, ValueError) as exc:
        raise _UsageError(f"bibmet: cannot read config file: {exc}") from exc
    flags: list[str] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"bibmet: config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            flags.append(flag)
        elif value.lower() == "false":
            continue
        else:
            flags.extend([flag, value])
    if not rest or rest[0] not in commands:
        return rest  # argparse then names what is missing, not a config value
    return rest[:1] + flags + rest[1:]


# ---------------------------------------------------------------------------
# parser construction

def _build_parser() -> _Parser:
    parser = _Parser(prog="bibmet",
                     description="Bibliometric growth, collaboration and "
                                 "author-productivity analysis.")
    parser.add_argument("--version", action="version", version=f"bibmet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices

    def path(text):
        if not text:  # Path('') would name the working directory
            raise argparse.ArgumentTypeError("empty path")
        return text

    def add_output(p):
        p.add_argument("--output", metavar="PATH", type=path,
                       help="write data here instead of standard output")

    p = sub.add_parser("ingest", help="parse tagged exports and emit a count table")
    p.add_argument("files", nargs="+", metavar="FILE", help="tagged .txt export(s)")
    p.add_argument("--emit", choices=["yearly", "matrix", "distribution", "wos"],
                   default="yearly", help="which table to emit (default yearly)")
    _add_cap_flags(p)
    p.add_argument("--strict", action="store_true",
                   help="fail if any export block had to be skipped")
    p.add_argument("--source-comment", action="store_true",
                   help="prepend a '# source: ...' comment naming the inputs "
                        "(not with --emit wos)")
    add_output(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("growth", help="growth ratios, RGR and doubling time")
    p.add_argument("--series", metavar="CSV", help="yearly counts (year,papers)")
    p.add_argument("--wos", nargs="+", metavar="FILE", help="tagged export(s)")
    _add_growth_flags(p)
    p.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    add_output(p)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("collab", help="collaboration indices (CI, DC, CAI, CC, MCC)")
    p.add_argument("--matrix", metavar="CSV", help="authorship matrix (authors,<years>)")
    p.add_argument("--wos", nargs="+", metavar="FILE", help="tagged export(s)")
    _add_collab_flags(p)
    p.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    add_output(p)
    p.set_defaults(func=_cmd_collab)

    p = sub.add_parser("lotka", help="least-squares power-law fit of author productivity")
    p.add_argument("--dist", metavar="CSV", help="productivity distribution (x,y)")
    p.add_argument("--wos", nargs="+", metavar="FILE", help="tagged export(s)")
    _add_lotka_flags(p)
    add_output(p)
    p.set_defaults(func=_cmd_lotka)

    p = sub.add_parser("ks", help="Kolmogorov-Smirnov goodness-of-fit test")
    p.add_argument("--dist", metavar="CSV", help="productivity distribution (x,y)")
    p.add_argument("--wos", nargs="+", metavar="FILE", help="tagged export(s)")
    p.add_argument("--n", type=float, help="exponent (with --c; default: fitted)")
    p.add_argument("--c", type=float, help="constant (with --n; default: computed)")
    _add_ks_flags(p)
    _add_lotka_flags(p)
    add_output(p)
    p.set_defaults(func=_cmd_ks)

    p = sub.add_parser("report", help="full pipeline: all tables and metrics")
    p.add_argument("--wos", nargs="+", metavar="FILE", help="tagged export(s)")
    p.add_argument("--series", metavar="CSV", help="yearly counts table")
    p.add_argument("--matrix", metavar="CSV", help="authorship matrix table")
    p.add_argument("--dist", metavar="CSV", help="productivity distribution table")
    p.add_argument("--out-dir", metavar="DIR", type=path,
                   help="write CSV/JSON files here instead of markdown to stdout")
    p.add_argument("--strict", action="store_true",
                   help="fail if any export block had to be skipped")
    _add_growth_flags(p)
    _add_collab_flags(p)
    _add_ks_flags(p)
    _add_lotka_flags(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("synth", help="deterministic synthetic data generation")
    p.add_argument("--spec", required=True, metavar="JSON",
                   help="generator spec file (kind: productivity or corpus)")
    p.add_argument("--emit", choices=["wos", "yearly", "matrix", "distribution"],
                   help="output format (corpus specs default to wos; "
                        "productivity specs emit a distribution)")
    _add_cap_flags(p)
    add_output(p)
    p.set_defaults(func=_cmd_synth)

    return parser


def _add_growth_flags(p):
    p.add_argument("--convention", choices=["paper", "standard"], default="paper",
                   help="RGR definition (default paper)")
    p.add_argument("--block-split", type=int, default=4, metavar="K",
                   help="entries in the first RGR averaging block (default 4)")
    p.add_argument("--exact-ln2", action="store_true",
                   help="use ln 2 instead of 0.693 for doubling time")


def _add_cap_flags(p):
    p.add_argument("--cap", type=int, default=10, help="author-class cap (default 10)")
    p.add_argument("--no-collapse", action="store_true",
                   help="do not fold author counts above the cap into one class")


def _add_collab_flags(p):
    _add_cap_flags(p)
    # collab.PARTITIONS, sorted: the parser is built before any command imports collab
    p.add_argument("--partition", choices=["multi", "team"], default="multi",
                   help="co-authorship class partition (default multi)")


def _add_ks_flags(p):
    p.add_argument("--alpha", type=float, default=0.01,
                   help="significance level (default 0.01)")
    p.add_argument("--ks-mode", choices=["standard", "paper"], default="standard",
                   help="critical-value convention (default standard)")


def _add_lotka_flags(p):
    p.add_argument("--exclude-top", action="store_true",
                   help="drop the distribution's top (collapsed) class from the fit")
    p.add_argument("--truncation", type=int, default=20, metavar="P",
                   help="zeta truncation point for the constant (default 20)")


# ---------------------------------------------------------------------------
# shared input plumbing

def _emit(text: str, output: str | None) -> None:
    with _staged_output(output) as out:
        out.write(text)


@contextlib.contextmanager
def _staged_output(output: str | None):
    """A text file whose content reaches ``output``, or stdout, only if the block succeeds.

    A regular ``output``, new or not, is replaced at the end by a temporary
    file in the directory of its target (symbolic links followed), with the
    mode of the file replaced (hard links broken) or a plain write's.  Stdout,
    or an ``output`` that exists but is no regular file (a pipe, a device),
    is opened on entry, and an anonymous temporary file is copied to it.
    """
    st = os.stat(output) if output and os.path.exists(output) else None
    if not output or st and not stat.S_ISREG(st.st_mode):
        with open(output, "w", encoding="utf-8") if output else \
                contextlib.nullcontext(sys.stdout) as out, \
                tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            yield spool
            spool.seek(0)
            shutil.copyfileobj(spool, out)
        return
    if st:
        mode = stat.S_IMODE(st.st_mode)
    else:
        umask = os.umask(0o022)  # setting the umask is the only way to read it
        os.umask(umask)
        mode = 0o666 & ~umask
    directory, name = os.path.split(os.path.realpath(output))
    try:
        fd, staged = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    except OSError as exc:
        # name the output, as a plain write would, not the random file name
        raise type(exc)(exc.errno, exc.strerror, output) from None
    try:
        with open(fd, "w", encoding="utf-8") as out:
            yield out
        os.chmod(staged, mode)
        os.replace(staged, os.path.join(directory, name))
    except BaseException:
        os.unlink(staged)
        raise


def _read_exports(files, strict: bool, read=None):
    """``read(files, run)`` on a new run: an export writer, or ``count_export_files`` if None.

    Its result is returned once the ingest line is printed and every check passed."""
    from .wos import ExportRun, count_export_files
    run = ExportRun()
    result = (read or count_export_files)(files, run)
    merges = f", merged {len(run.merged_lines)} duplicate(s)" if run.merged_lines else ""
    print(f"bibmet: parsed {run.records} record(s) from {len(files)} file(s), "
          f"skipped {len(run.skipped_lines)} block(s){merges}", file=sys.stderr)
    if strict and run.skipped_lines:
        raise ParseError(f"strict mode: {len(run.skipped_lines)} block(s) skipped")
    return result


def _check_flags(args) -> None:
    # a flag out of range fails the command before any input is read; in
    # report it fails the run, as in the single command, instead of skipping its section
    for flag, module, check in [("block_split", "growth", "_check_block_split"),
                                ("truncation", "lotka", "_check_truncation"),
                                ("alpha", "lotka", "_ks_coefficient")]:
        if flag in args:  # the package imports the module on first use: only for a flag here
            getattr(getattr(sys.modules[__package__], module), check)(getattr(args, flag))


def _counts(args, counts: CountTables | None, flag: str) -> CountTables:
    # the tables shared by report, else those of the command's own --wos
    if counts is not None:
        return counts
    if not args.wos:
        raise _UsageError(f"bibmet: provide {flag} or --wos")
    return _read_exports(args.wos, False)


def _series(args, counts: CountTables | None = None) -> YearlySeries:
    if args.series:
        from .tables import YearlySeries, _file_chunks
        return YearlySeries.from_csv(_file_chunks(args.series))
    return _counts(args, counts, "--series").yearly_series()


def _matrix(args, counts: CountTables | None = None) -> AuthorshipMatrix:
    """The matrix, collapsed at ``--cap`` unless ``--no-collapse`` or a CSV already is."""
    if args.matrix:
        from .tables import AuthorshipMatrix, _file_chunks
        matrix = AuthorshipMatrix.from_csv(_file_chunks(args.matrix))
        if not args.no_collapse and not matrix.collapsed:
            matrix = matrix.collapse(args.cap)
        return matrix
    return _counts(args, counts, "--matrix").authorship_matrix(
        cap=args.cap, collapse=not args.no_collapse)


def _distribution(args, counts: CountTables | None = None) -> ProductivityDistribution:
    if args.dist:
        from .tables import ProductivityDistribution, _file_chunks
        return ProductivityDistribution.from_csv(_file_chunks(args.dist))
    return _counts(args, counts, "--dist").productivity_distribution()


def _growth(args, series: YearlySeries) -> GrowthReport:
    return build_growth_report(series, convention=args.convention,
                               block_split=args.block_split, exact_ln2=args.exact_ln2)


def _collab(args, matrix: AuthorshipMatrix) -> CollabReport:
    from .collab import PARTITIONS
    return authorship_pattern_report(matrix, partition=PARTITIONS[args.partition])


def _fit(args, dist: ProductivityDistribution) -> LotkaFit:
    fit = fit_lotka_least_squares(dist, include_top_class=not args.exclude_top)
    return fit.with_constant(lotka_constant(fit.n, truncation=args.truncation))


def _productivity(args, dist: ProductivityDistribution, n: float | None = None,
                  c: float | None = None) -> tuple[LotkaFit | None, KSReport]:
    """The Lotka fit of ``dist`` and its K-S test; no fit if ``n`` and ``c`` are given."""
    fit = None
    if n is None:
        fit = _fit(args, dist)
        n, c = fit.n, fit.c
    return fit, ks_test(dist, n, c, alpha=args.alpha, mode=args.ks_mode)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_ingest(args):
    if args.emit == "wos":
        if args.source_comment:
            raise _UsageError("bibmet ingest: --source-comment only applies to the CSV emits")
        from .wos import write_export_files
        # every check passes before the export reaches the output
        with _staged_output(args.output) as out:
            _read_exports(args.files, args.strict,
                          lambda files, run: write_export_files(files, run, out))
        return
    text = _table_csv(args, _read_exports(args.files, args.strict))
    if args.source_comment:
        text = f"# source: {' '.join(args.files)}\n" + text
    _emit(text, args.output)


def _table_csv(args, counts: CountTables) -> str:
    """The ``--emit yearly|matrix|distribution`` table of ``counts``, as CSV."""
    if args.emit == "yearly":
        table = counts.yearly_series()
    elif args.emit == "matrix":
        table = counts.authorship_matrix(cap=args.cap, collapse=not args.no_collapse)
    else:
        table = counts.productivity_distribution()
    return table.to_csv()


def _render(report: GrowthReport | CollabReport, fmt: str) -> str:
    """A growth or collaboration report as ``--format`` text."""
    if fmt == "csv":
        return report.to_csv()
    if fmt == "markdown":
        return report.to_markdown()
    return json.dumps(report, default=_as_dict, indent=2, sort_keys=True) + "\n"


def _as_dict(value: Value) -> dict:
    # what json.dumps writes for each value type it meets: a dict of its fields
    return dict(zip(value.__slots__, value._fields()))


def _cmd_growth(args):
    _check_flags(args)
    report = _growth(args, _series(args))
    _emit(_render(report, args.format), args.output)


def _cmd_collab(args):
    report = _collab(args, _matrix(args))
    _emit(_render(report, args.format), args.output)


def _cmd_lotka(args):
    _check_flags(args)
    fit = _fit(args, _distribution(args))
    _emit(fit.to_json(), args.output)


def _cmd_ks(args):
    if (args.n is None) != (args.c is None):
        raise _UsageError("bibmet: provide both --n and --c, or neither")
    _check_flags(args)
    dist = _distribution(args)
    _, report = _productivity(args, dist, args.n, args.c)
    _emit(report.to_csv(), args.output)


def _cmd_report(args):
    if not (args.wos or args.series or args.matrix or args.dist):
        raise _UsageError("bibmet report: no inputs; provide --wos, --series, "
                          "--matrix and/or --dist")
    _check_flags(args)
    counts = _read_exports(args.wos, args.strict) if args.wos else None
    series = _series(args, counts) if args.series or args.wos else None
    matrix = _matrix(args, counts) if args.matrix or args.wos else None
    dist = _distribution(args, counts) if args.dist or args.wos else None

    def best_effort(name, section, table):
        # one undefined section (e.g. growth on a single-year corpus)
        # should not take down the whole report
        if table is None:
            return None
        try:
            return section(args, table)
        except DomainError as exc:
            print(f"bibmet: skipping {name} section: {exc}", file=sys.stderr)
            return None

    growth_report = best_effort("growth", _growth, series)
    collab_report = best_effort("collaboration", _collab, matrix)
    fit, ks_report = best_effort("productivity", _productivity, dist) or (None, None)

    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        tables = [("yearly.csv", series), ("growth.csv", growth_report),
                  ("authorship.csv", matrix), ("collab.csv", collab_report),
                  ("productivity.csv", dist), ("lotka.json", fit), ("ks.csv", ks_report)]
        written = [(name, table) for name, table in tables if table is not None]
        with contextlib.ExitStack() as stack:  # all staged before any replaces its target
            for name, table in written:
                text = table.to_json() if name.endswith(".json") else table.to_csv()
                stack.enter_context(_staged_output(str(out / name))).write(text)
        print(f"bibmet: wrote {len(written)} file(s) to {out}", file=sys.stderr)
        return

    sections = []
    if growth_report is not None:
        sections.append("## Growth\n\n" + growth_report.to_markdown())
    if collab_report is not None:
        sections.append("## Collaboration\n\n" + collab_report.to_markdown())
    if fit is not None:
        sections.append("## Author productivity\n\n" + _lotka_markdown(fit, ks_report))
    _emit("\n".join(sections), None)


def _lotka_markdown(fit, ks_report: KSReport) -> str:
    lines = [
        f"Fitted exponent n = {fit.n:.4f} (slope {fit.slope:.4f}), "
        f"constant C = {fit.c:.4f}.",
        "",
        f"K-S: D_max = {ks_report.d_max:.4f} at x = {ks_report.x_at_dmax}, "
        f"critical value {ks_report.critical_value:.4f} "
        f"(alpha {ks_report.alpha}, {ks_report.mode} mode): "
        f"**{ks_report.verdict}**.",
        "",
        "| x | authors | observed cum. | expected cum. | diff |",
        "|---|---|---|---|---|",
    ]
    row = "| %s | %s | %.4f | %.4f | %.4f |"
    lines += [row % (x, y, f, e, d) for x, y, _, f, _, e, d in ks_report.rows]
    return "\n".join(lines) + "\n"


def _cmd_synth(args):
    from .corpus import CountTables
    from .synth import PowerLawSpec, sample_productivity, sample_spec_papers, spec_from_json
    from .wos import write_export

    spec = spec_from_json(Path(args.spec).read_text(encoding="utf-8"))
    if isinstance(spec, PowerLawSpec):
        if args.emit not in (None, "distribution"):
            raise _UsageError("bibmet synth: productivity specs only emit a distribution")
        _emit(sample_productivity(spec).to_csv(), args.output)
    elif args.emit in (None, "wos"):
        with _staged_output(args.output) as out:
            write_export(sample_spec_papers(spec), out)
    else:
        _emit(_table_csv(args, CountTables(sample_spec_papers(spec))), args.output)


if __name__ == "__main__":
    entrypoint()
