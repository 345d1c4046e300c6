"""Seeded benchmark inputs, their on-disk cache, and the output checks.

Every input is generated with ``bibmet.synth`` and written with
``write_wos_export`` or a table's ``to_csv``.  The generator also writes
down the facts it knows about what it generated (papers per year, record
count, author slots, the bytes of the unsplit export), and the checks
compare the CLI's outputs against those facts, never against a digest of
some earlier run's output.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RECORDS = 100_000
AUTHOR_POOL = 300_000
BATCH_FILES = 200
# n0 = 2 over 1e5 productivities gives the long tail.  Ten million authors
# keep the fitted exponent above 1 (1.078 at the lowest over seeds 0-299),
# so the constant, the fit and the K-S section always compute; with one
# million some seeds fit n < 1 and the report drops those sections.
LONGTAIL = {"n0": 2.0, "total_authors": 10_000_000, "x_max": 100_000}
REPORT_FILES = ("authorship.csv", "collab.csv", "growth.csv", "ks.csv",
                "lotka.json", "productivity.csv", "yearly.csv")
EXPORT_NAME = "export.txt"
# cached input sets kept per workload; older ones are deleted
CACHE_KEEP = 3


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload and seed, ready to run."""

    name: str
    dir: Path
    facts: dict

    @property
    def bytes_in(self) -> int:
        return self.facts["bytes_in"]

    def argv(self, out: Path) -> list[str]:
        """CLI arguments (after ``bibmet``) that write into ``out``."""
        inputs = [str(self.dir / f) for f in self.facts["inputs"]]
        if self.name == "wos-report":
            return ["report", "--wos", *inputs, "--out-dir", str(out)]
        if self.name == "wos-batches":
            return ["ingest", "--emit", "wos", *inputs, "--output", str(out / EXPORT_NAME)]
        series, matrix, dist = inputs
        return ["report", "--series", series, "--matrix", matrix, "--dist", dist,
                "--out-dir", str(out)]

    def check(self, out: Path) -> str | None:
        """Compare the outputs in ``out`` with the generator's facts.

        Returns None when every check passes, else what failed.
        """
        facts = self.facts
        written = sorted(p.name for p in out.iterdir())
        if self.name == "wos-batches":
            if written != [EXPORT_NAME]:
                return f"expected only {EXPORT_NAME}, found {written}"
            digest = hashlib.sha256((out / EXPORT_NAME).read_bytes()).hexdigest()
            if digest != facts["export_sha256"]:
                return "merged export differs from write_wos_export of the unsplit corpus"
            return None
        if written != list(REPORT_FILES):
            return f"expected {list(REPORT_FILES)}, found {written}"
        yearly = {int(y): int(p) for y, p in _csv_rows(out / "yearly.csv", "year,papers")}
        expected = {int(y): p for y, p in facts["papers_per_year"].items()}
        if {y: p for y, p in yearly.items() if p} != {y: p for y, p in expected.items() if p}:
            return f"yearly counts {yearly} differ from generated {expected}"
        matrix_total = sum(int(c) for row in _csv_rows(out / "authorship.csv", None)
                           for c in row[1:])
        if matrix_total != facts["records"]:
            return f"authorship matrix totals {matrix_total}, generated {facts['records']}"
        slots = sum(int(x) * int(y) for x, y in _csv_rows(out / "productivity.csv", "x,y"))
        if slots != facts["author_slots"]:
            return f"productivity sum x*y is {slots}, generated {facts['author_slots']}"
        return None


def _csv_rows(path: Path, header: str | None) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if header is not None and lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[0]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:] if line]


def prepare(name: str, seed: int, scale: float, cache: Path, src: Path) -> Workload:
    """Return the inputs for ``name`` and ``seed``, generating them on a miss.

    The cache key covers the workload's shape, the seed and the source of
    the ``bibmet`` package that generates and writes the inputs.
    """
    spec = _spec(name, scale)
    source = hashlib.sha256()
    for path in sorted((src / "bibmet").rglob("*.py")):
        source.update(path.read_bytes())
    key = hashlib.sha256(json.dumps([spec, seed, source.hexdigest()],
                                    sort_keys=True).encode()).hexdigest()[:16]
    target = cache / name / f"seed{seed}-{key}"
    facts_path = target / "facts.json"
    if not facts_path.is_file():
        tmp = cache / name / f".tmp-{key}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        facts = GENERATORS[name](spec, seed, tmp)
        facts["bytes_in"] = sum((tmp / f).stat().st_size for f in facts["inputs"])
        (tmp / "facts.json").write_text(json.dumps(facts, indent=1), encoding="utf-8")
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
        _evict(cache / name, keep=target)
    facts_path.touch()  # recency for eviction
    return Workload(name, target, json.loads(facts_path.read_text(encoding="utf-8")))


def _evict(directory: Path, keep: Path) -> None:
    entries = sorted((p for p in directory.iterdir()
                      if p != keep and (p / "facts.json").is_file()),
                     key=lambda p: (p / "facts.json").stat().st_mtime)
    for stale in entries[:max(0, len(entries) - (CACHE_KEEP - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


def _spec(name: str, scale: float) -> dict:
    files = max(2, round(BATCH_FILES * scale)) if name == "wos-batches" else 1
    spec = {"workload": name, "files": files,
            "records": files * (RECORDS // BATCH_FILES) if name == "wos-batches"
            else max(1000, round(RECORDS * scale)),
            "author_pool": max(1000, round(AUTHOR_POOL * scale))}
    if name == "tables-longtail":
        spec.update(n0=LONGTAIL["n0"],
                    total_authors=max(1000, round(LONGTAIL["total_authors"] * scale)),
                    x_max=max(100, round(LONGTAIL["x_max"] * scale)))
    return spec


def _subseed(seed: int, stream: int) -> int:
    """An independent 64-bit seed per input stream of one benchmark seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


def _concussion_corpus(spec: dict, seed: int, timings: dict):
    """Corpus shaped like the bundled concussion tables.

    Papers per year follow the yearly table (largest-remainder rounding to
    the record count); team sizes follow the pooled authorship matrix.
    """
    from bibmet import fixtures
    from bibmet.synth import sample_corpus

    yearly = fixtures.yearly_counts()
    total = spec["records"]
    exact = [p * total / yearly.total for p in yearly.papers]
    per_year = [int(e) for e in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: per_year[i] - exact[i])
    for i in by_remainder[:total - sum(per_year)]:
        per_year[i] += 1
    classes = fixtures.authorship_matrix().class_counts()
    papers = sum(classes.values())
    teams = {j: c / papers for j, c in classes.items() if c}
    start = time.perf_counter()
    corpus = sample_corpus(yearly.years, per_year, teams, seed=seed,
                           author_pool=spec["author_pool"])
    timings["sample_corpus_s"] = time.perf_counter() - start
    return corpus, dict(zip(map(str, yearly.years), per_year))


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _gen_wos_report(spec: dict, seed: int, out: Path) -> dict:
    from bibmet.wos import write_wos_export

    timings = {"sample_productivity_s": 0.0}
    corpus, per_year = _concussion_corpus(spec, _subseed(seed, 0), timings)
    _write(out / EXPORT_NAME, write_wos_export(corpus))
    return {"inputs": [EXPORT_NAME], "records": len(corpus), "papers_per_year": per_year,
            "author_slots": corpus.author_slots, "synth": timings}


def _gen_wos_batches(spec: dict, seed: int, out: Path) -> dict:
    from bibmet.corpus import Corpus
    from bibmet.wos import write_wos_export

    timings = {"sample_productivity_s": 0.0}
    corpus, per_year = _concussion_corpus(spec, _subseed(seed, 1), timings)
    size = len(corpus) // spec["files"]
    inputs = []
    for i in range(spec["files"]):
        name = f"batch{i:03d}.txt"
        _write(out / name, write_wos_export(Corpus(corpus.records[i * size:(i + 1) * size])))
        inputs.append(name)
    whole = write_wos_export(corpus).encode("utf-8")
    return {"inputs": inputs, "records": len(corpus), "papers_per_year": per_year,
            "author_slots": corpus.author_slots, "synth": timings,
            "export_sha256": hashlib.sha256(whole).hexdigest()}


def _gen_tables_longtail(spec: dict, seed: int, out: Path) -> dict:
    from bibmet.corpus import build_authorship_matrix, build_yearly_series
    from bibmet.synth import PowerLawSpec, sample_productivity

    timings = {}
    # the same corpus as wos-report on this seed, reduced to its tables
    corpus, per_year = _concussion_corpus(spec, _subseed(seed, 0), timings)
    _write(out / "series.csv", build_yearly_series(corpus).to_csv())
    _write(out / "matrix.csv", build_authorship_matrix(corpus, collapse=False).to_csv())
    start = time.perf_counter()
    dist = sample_productivity(PowerLawSpec(spec["n0"], spec["total_authors"],
                                            spec["x_max"], _subseed(seed, 2)))
    timings["sample_productivity_s"] = time.perf_counter() - start
    _write(out / "dist.csv", dist.to_csv())
    return {"inputs": ["series.csv", "matrix.csv", "dist.csv"], "records": len(corpus),
            "papers_per_year": per_year, "author_slots": dist.author_slots,
            "synth": timings, "max_x": max(dist.xs), "dist_rows": len(dist)}


#: workload name -> input generator; the workloads and why they exist are
#: listed in BENCHMARK.json
GENERATORS = {
    "wos-report": _gen_wos_report,
    "wos-batches": _gen_wos_batches,
    "tables-longtail": _gen_tables_longtail,
}
