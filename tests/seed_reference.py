"""Frozen reference: the original record-building WoS parser, writer and tabulators.

This is the first release's ``parse_wos_export`` (with record
construction), its ``write_wos_export`` and its three tabulators, kept
as they were except for two rules:

* a line ends at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else, where
  the original used ``str.splitlines``;
* record ids follow one rule for a run's exports, where the original
  kept one id set per export, renamed a repeated ``UT`` to a synthetic
  id, and left a repeat across exports to the duplicate-id check of
  ``Corpus``.  :func:`parse_exports` keeps one id set and one synthetic
  counter for all the texts it is given, and a second set of the
  ``UT`` values it has read: a usable block whose ``UT`` is in that set
  is dropped, its start line noted as merged.  A ``UT`` that only an
  earlier synthetic id holds is still renamed, as the original did.

Records are plain ``(id, year, authors)`` tuples.  The differential
tests compare the streaming count tables, the record path and ``ingest
--emit wos`` against it.

It also keeps the dense ``ks_test``, which built one K-S row for every
integer from 1 to the largest x; the sparse K-S test is compared with it.
And it keeps the K-S renderers that ran one f-string per row field by
field, ``ks_csv`` (``KSReport.to_csv``) and ``ks_markdown`` (the K-S part
of ``report``'s markdown); the one-format-per-row renderers are compared
with them.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from bibmet.errors import DomainError, EmptyCorpusError
from bibmet.lotka import KSReport, KSRow, _ks_coefficient, ks_critical_value
from bibmet.tables import AuthorshipMatrix, ProductivityDistribution, YearlySeries

YEAR_MIN = 1000
YEAR_MAX = 3000
#: Largest x of the dense K-S test, which builds one row per integer up to it.
DENSE_X_MAX = 10**6

_TAG_RE = re.compile(r"^[A-Z][A-Z0-9](?: |$)")
_CONTINUATION = "   "
_LINE_END = re.compile(r"\r\n|\r|\n")


def split_lines(text: str) -> list[str]:
    lines = _LINE_END.split(text)
    if lines[-1] == "":
        lines.pop()
    return lines


def _normalize_authors(authors) -> tuple[str, ...]:
    seen = {}
    for name in authors:
        name = str(name).strip()
        if name and name not in seen:
            seen[name] = None
    return tuple(seen)


def parse_exports(texts: list[str]):
    """Return (records, skipped_lines, merged_lines) or raise EmptyCorpusError.

    Raises for the first text that has no usable block.
    """
    records = []
    skipped_lines: list[int] = []
    merged_lines: list[int] = []
    seen_ids: set[str] = set()
    uts: set[str] = set()
    synthetic = 0
    for text in texts:
        usable_before = len(records) + len(merged_lines)
        skipped_before = len(skipped_lines)
        for rid, year, authors, start in _blocks(text, skipped_lines):
            if rid in uts:
                merged_lines.append(start)
                continue
            if rid is not None:
                uts.add(rid)
            if rid is None or rid in seen_ids:
                synthetic += 1
                rid = f"rec{synthetic:06d}"
                while rid in seen_ids:
                    synthetic += 1
                    rid = f"rec{synthetic:06d}"
            seen_ids.add(rid)
            records.append((rid, year, authors))
        if len(records) + len(merged_lines) == usable_before:
            if len(skipped_lines) > skipped_before:
                raise EmptyCorpusError(
                    "no parseable records; first malformed block starts here",
                    line=skipped_lines[skipped_before])
            raise EmptyCorpusError("no records found in input")
    return records, skipped_lines, merged_lines


def _blocks(text: str, skipped_lines: list[int]):
    """The (UT or None, year, authors, start line) of each usable block of one export."""
    usable = []
    fields: dict[str, list[str]] = {}
    current_tag = None
    block_start = None

    def finalize(start_line):
        authors = [a for a in fields.get("AU", []) if a.strip()]
        year = _parse_year(fields.get("PY", []))
        if not authors or year is None:
            skipped_lines.append(start_line)
            return
        ut = next((v.strip() for v in fields.get("UT", []) if v.strip()), None)
        usable.append((ut, year, _normalize_authors(authors), start_line))

    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            current_tag = None
            continue
        if line.startswith(_CONTINUATION) and not line[:2].strip():
            if current_tag is not None and block_start is not None:
                fields.setdefault(current_tag, []).append(line.strip())
            continue
        if not _TAG_RE.match(line):
            if current_tag is not None and block_start is not None:
                fields.setdefault(current_tag, []).append(line.strip())
            continue
        tag, value = line[:2], line[3:].strip()
        if tag == "EF":
            break
        if tag == "ER":
            if block_start is not None:
                finalize(block_start)
            fields, current_tag, block_start = {}, None, None
            continue
        if block_start is None:
            block_start = lineno
        current_tag = tag
        fields.setdefault(tag, []).append(value)

    if block_start is not None and fields:
        skipped_lines.append(block_start)
    return usable


def write_export(records) -> str:
    lines: list[str] = []
    for rid, year, authors in records:
        lines.append("PT J")
        for i, author in enumerate(authors):
            lines.append(f"AU {author}" if i == 0 else f"{_CONTINUATION}{author}")
        lines.append(f"PY {year}")
        lines.append(f"UT {rid}")
        lines.append("ER")
        lines.append("")
    lines.append("EF")
    return "\n".join(lines) + "\n"


def _parse_year(values):
    for v in values:
        v = v.strip()
        if v:
            try:
                year = int(v)
            except ValueError:
                return None
            return year if YEAR_MIN <= year <= YEAR_MAX else None
    return None


def yearly_series(records) -> YearlySeries:
    by_year = Counter(year for _, year, _ in records)
    lo, hi = min(by_year), max(by_year)
    return YearlySeries(tuple((y, by_year.get(y, 0)) for y in range(lo, hi + 1)))


def authorship_matrix(records, cap=10, collapse=True) -> AuthorshipMatrix:
    cells = Counter()
    max_j = 1
    for _, year, authors in records:
        j = len(authors)
        max_j = max(max_j, j)
        if collapse and j > cap:
            j = cap
        cells[(j, year)] += 1
    lo = min(year for _, year, _ in records)
    hi = max(year for _, year, _ in records)
    years = tuple(range(lo, hi + 1))
    top = cap if collapse else max_j
    classes = tuple(range(1, top + 1))
    counts = tuple(tuple(cells.get((j, y), 0) for y in years) for j in classes)
    return AuthorshipMatrix(classes, years, counts, collapsed=collapse,
                            cap=cap if collapse else max(2, top))


def productivity_distribution(records) -> ProductivityDistribution:
    papers_by_author = Counter()
    for _, _, authors in records:
        for name in authors:
            papers_by_author[name] += 1
    histogram = Counter(papers_by_author.values())
    return ProductivityDistribution(tuple(sorted(histogram.items())))


def ks_test(dist: ProductivityDistribution, n: float, c: float,
            alpha: float = 0.01, mode: str = "standard") -> KSReport:
    """The K-S test with one row per integer of 1..max(x)."""
    if not 1 < n < math.inf:
        raise DomainError(f"K-S test needs a finite exponent > 1, got {n}")
    if not 0 < c <= 1:
        raise DomainError(f"constant c must be in (0, 1], got {c}")
    _ks_coefficient(alpha)  # validate early
    total = dist.total_authors
    if total <= 0:
        raise DomainError("K-S test needs a distribution with authors in it")
    x_max = max(dist.xs)
    if x_max > DENSE_X_MAX:
        raise DomainError(f"K-S test needs productivities x <= {DENSE_X_MAX}, got {x_max}")

    observed = dict(dist.pairs)
    grid = range(1, x_max + 1)
    rows = []
    obs_cum = 0.0
    exp_cum = 0.0
    d_max = -1.0
    x_at = grid[0]
    for x in grid:
        y = observed.get(x, 0)
        obs_prop = y / total
        obs_cum += obs_prop
        exp_prop = c * x ** (-n)
        exp_cum += exp_prop
        diff = abs(obs_cum - exp_cum)
        rows.append(KSRow(x, y, obs_prop, obs_cum, exp_prop, exp_cum, diff))
        if diff > d_max:
            d_max = diff
            x_at = x
    critical = ks_critical_value(total, alpha=alpha, mode=mode, n=n)
    return KSReport(rows=tuple(rows), d_max=d_max, x_at_dmax=x_at,
                    critical_value=critical, alpha=alpha, mode=mode,
                    n=n, c=c, total_authors=total)


def ks_csv(report: KSReport) -> str:
    lines = [
        f"# n={report.n:.6f} c={report.c:.6f} alpha={report.alpha} mode={report.mode}",
        f"# d_max={report.d_max:.6f} at x={report.x_at_dmax} "
        f"critical={report.critical_value:.6f} verdict={report.verdict}",
        "x,y,observed,observed_cum,expected,expected_cum,diff",
    ]
    for r in report.rows:
        lines.append(f"{r.x},{r.observed},{r.observed_prop:.6f},"
                     f"{r.observed_cum:.6f},{r.expected_prop:.6f},"
                     f"{r.expected_cum:.6f},{r.abs_diff:.6f}")
    return "\n".join(lines) + "\n"


def ks_markdown(fit, ks_report: KSReport) -> str:
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
    for r in ks_report.rows:
        lines.append(f"| {r.x} | {r.observed} | {r.observed_cum:.4f} | "
                     f"{r.expected_cum:.4f} | {r.abs_diff:.4f} |")
    return "\n".join(lines) + "\n"
