"""Traced in-process runs of ``bibmet.cli.main``.

The tracer replaces the public functions and methods that the CLI calls
with wrappers that record a span (name, start, end, parent) per call and
keep the arguments and results that the layer counts are taken from.
The replacements live only inside this process and only for the length
of one run; nothing in ``src/`` changes.  Span names are
``<module>.<callable>``, and a layer's time is the sum of its spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
import tracemalloc


def _targets():
    """(span name, owner, attribute) of every traced callable.

    Module-level functions are patched where the CLI looks them up, on
    ``bibmet.cli``, because it imports them by name.
    """
    from bibmet import cli, collab, corpus, growth, lotka, tables

    functions = [
        ("wos.parse_wos_file", cli, "parse_wos_file"),
        ("wos.write_wos_export", cli, "write_wos_export"),
        ("corpus.build_yearly_series", cli, "build_yearly_series"),
        ("corpus.build_authorship_matrix", cli, "build_authorship_matrix"),
        ("lotka.productivity_distribution", cli, "productivity_distribution"),
        ("lotka.fit_lotka_least_squares", cli, "fit_lotka_least_squares"),
        ("lotka.lotka_constant", cli, "lotka_constant"),
        ("lotka.ks_test", cli, "ks_test"),
        ("growth.build_growth_report", cli, "build_growth_report"),
        ("collab.authorship_pattern_report", cli, "authorship_pattern_report"),
    ]
    methods = [
        ("corpus.Corpus.merge", corpus.Corpus, "merge"),
        ("lotka.LotkaFit.to_json", lotka.LotkaFit, "to_json"),
        ("lotka.KSReport.to_csv", lotka.KSReport, "to_csv"),
        ("growth.GrowthReport.to_csv", growth.GrowthReport, "to_csv"),
        ("collab.CollabReport.to_csv", collab.CollabReport, "to_csv"),
    ]
    for cls in (tables.YearlySeries, tables.AuthorshipMatrix,
                tables.ProductivityDistribution):
        methods.append((f"tables.{cls.__name__}.from_csv", cls, "from_csv"))
        methods.append((f"tables.{cls.__name__}.to_csv", cls, "to_csv"))
    return functions + methods


# per-layer time metric -> the spans it sums
LAYER_TIMES = {
    "wos.parse_s": ("wos.parse_wos_file",),
    "wos.write_s": ("wos.write_wos_export",),
    "corpus.merge_s": ("corpus.Corpus.merge",),
    "corpus.yearly_s": ("corpus.build_yearly_series",),
    "corpus.matrix_s": ("corpus.build_authorship_matrix",),
    "lotka.distribution_s": ("lotka.productivity_distribution",),
    "lotka.fit_s": ("lotka.fit_lotka_least_squares", "lotka.lotka_constant"),
    "lotka.ks_s": ("lotka.ks_test",),
    "lotka.render_s": ("lotka.KSReport.to_csv", "lotka.LotkaFit.to_json"),
    "tables.from_csv_s": tuple(f"tables.{c}.from_csv" for c in
                               ("YearlySeries", "AuthorshipMatrix", "ProductivityDistribution")),
    "tables.render_s": tuple(f"tables.{c}.to_csv" for c in
                             ("YearlySeries", "AuthorshipMatrix", "ProductivityDistribution")),
    "growth.report_s": ("growth.build_growth_report", "growth.GrowthReport.to_csv"),
    "collab.report_s": ("collab.authorship_pattern_report", "collab.CollabReport.to_csv"),
}

# spans measured for allocation peaks in the separate tracemalloc pass
ALLOC_PEAKS = {
    "wos.parse_alloc_peak_mb": "wos.parse_wos_file",
    "lotka.distribution_alloc_peak_mb": "lotka.productivity_distribution",
    "lotka.ks_alloc_peak_mb": "lotka.ks_test",
}

# calls whose arguments and results the counts are taken from
_COUNTED = {"wos.parse_wos_file", "wos.write_wos_export", "lotka.ks_test"}

MAIN = "cli.main"


class Tracer:
    """Spans and counted calls of one run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.calls: list[tuple] = []  # (name, args, result)
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        keep = name in _COUNTED

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if keep:
                calls.append((name, args, result))
            return result

        return traced


@contextlib.contextmanager
def _patched(wrap):
    """Replace every target with ``wrap(name, original)``; restore on exit."""
    saved = []
    try:
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(wrap(name, original.__func__)))
            else:
                setattr(owner, attr, wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _call_main(main, argv):
    """Run the CLI in-process, keeping its console output out of ours."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    return code, sink.getvalue()


def traced_main(argv):
    """One traced run: returns (exit code, console text, (tracer, counts)).

    The counts are taken as soon as the run ends and the counted results
    dropped, so that the corpora they hold do not slow the garbage
    collector in the runs that follow.
    """
    from bibmet import cli

    tracer = Tracer()
    with _patched(tracer.wrap):
        code, text = _call_main(tracer.wrap(MAIN, cli.main), argv)
    counts = count_metrics(tracer)
    tracer.calls.clear()
    return code, text, (tracer, counts)


def alloc_main(argv):
    """One run with tracemalloc on inside the allocation-peak calls only.

    Returns (exit code, console text, {metric: peak MB}); the peak of a
    metric is the largest over its calls.
    """
    from bibmet import cli

    peaks = {metric: 0.0 for metric in ALLOC_PEAKS}
    by_span = {span: metric for metric, span in ALLOC_PEAKS.items()}

    def wrap(name, fn):
        metric = by_span.get(name)
        if metric is None:
            return fn

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[metric] = max(peaks[metric], peak / 1e6)

        return measured

    with _patched(wrap):
        code, text = _call_main(cli.main, argv)
    return code, text, peaks


def span_metrics(tracer: Tracer) -> dict:
    """Per-layer times of one traced run, plus the CLI's own time."""
    totals: dict[str, float] = {}
    for name, start, end, _ in tracer.spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    out = {metric: sum(totals.get(s, 0.0) for s in names)
           for metric, names in LAYER_TIMES.items()}
    main = next(i for i, span in enumerate(tracer.spans) if span[0] == MAIN)
    main_s = tracer.spans[main][2] - tracer.spans[main][1]
    children = sum(end - start for _, start, end, parent in tracer.spans if parent == main)
    out["cli.main_s"] = main_s
    out["cli.self_s"] = main_s - children
    return out


def count_metrics(tracer: Tracer) -> dict:
    """Work counts at the layer boundaries, taken after the run ended."""
    parses = [(args, result) for name, args, result in tracer.calls
              if name == "wos.parse_wos_file"]
    writes = [result for name, _, result in tracer.calls if name == "wos.write_wos_export"]
    ks = [(args, result) for name, args, result in tracer.calls if name == "lotka.ks_test"]
    counts = {
        "wos.files": len(parses),
        "wos.records": sum(len(r.corpus) for _, r in parses),
        "wos.skipped_blocks": sum(r.skipped for _, r in parses),
        "wos.bytes_in": sum(os.path.getsize(args[0]) for args, _ in parses),
        "wos.bytes_out": sum(len(text.encode("utf-8")) for text in writes),
        "corpus.author_slots": sum(r.corpus.author_slots for _, r in parses),
        "lotka.distinct_authors": sum(args[0].total_authors for args, _ in ks),
        "lotka.ks_rows": sum(len(report.rows) for _, report in ks),
    }
    dist_rows = sum(len(args[0]) for args, _ in ks)
    counts["lotka.ks_rows_per_x"] = counts["lotka.ks_rows"] / dist_rows if dist_rows else 0.0
    return counts


def write_spans(path, runs) -> None:
    """Write the spans of each traced run as JSON lines, one run per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, tracer in enumerate(runs):
            fh.write(json.dumps({"run": i, "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in tracer.spans]}) + "\n")


def median_metrics(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
