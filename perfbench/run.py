"""The bibmet benchmark: one workload and seed in, one line of JSON out.

    python3 perfbench/run.py --workload wos-report --seed 1 --seconds 20 --trace 0

The program under test is the ``bibmet`` package in ``src/`` of the
checkout this file sits in; the benchmark refuses to run without it.

Load model: a closed loop with one client.  Each sample spawns one
``bibmet`` process (the console-script entry point in a fresh
interpreter), waits for it to exit, and checks its outputs; only one
process runs at a time.  Every sample is preceded by a ``bibmet
--version`` process (the set-up cost), and a fixed pure-Python workload
(the host probe) runs before, between and after the two, so that each
time can be put at a reference host speed (see PROBE_REF_S).  Samples
repeat until ``--seconds`` have passed, and each end-to-end metric is the
median over the run's samples.

With ``--trace 1`` the same untimed loop runs, then ``bibmet.cli.main``
runs in-process a few times with the tracer of ``spans.py`` attached, and
once more with tracemalloc on inside the allocation-peak calls.  The last
line then carries the per-layer metrics instead of the end-to-end ones.

Inputs are generated and cached under ``perfbench/.cache``; a JSON record
of each run (environment, every sample, spans) goes to
``perfbench/.out/results``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

E2E_UNITS = {"wall_s": "s", "input_mb_per_s": "MB/s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "wos.parse_s": "s", "wos.parse_records_per_s": "records/s", "wos.records": "count",
    "wos.skipped_blocks": "count", "wos.files": "count", "wos.bytes_in": "bytes",
    "wos.parse_alloc_peak_mb": "MB", "wos.write_s": "s", "wos.bytes_out": "bytes",
    "corpus.merge_s": "s", "corpus.yearly_s": "s", "corpus.matrix_s": "s",
    "corpus.author_slots": "count",
    "lotka.distribution_s": "s", "lotka.distribution_alloc_peak_mb": "MB",
    "lotka.distinct_authors": "count", "lotka.fit_s": "s", "lotka.ks_s": "s",
    "lotka.ks_rows": "count", "lotka.ks_rows_per_x": "ratio", "lotka.render_s": "s",
    "lotka.ks_alloc_peak_mb": "MB",
    "tables.from_csv_s": "s", "tables.render_s": "s",
    "growth.report_s": "s", "collab.report_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.cpu_s": "s", "cli.trace_overhead_s": "s",
    "synth.sample_corpus_s": "s", "synth.sample_productivity_s": "s",
    "host.probe_s": "s", "failed_ratio": "ratio",
}

ENTRY = "from bibmet.cli import entrypoint; entrypoint()"
CHILD_TIMEOUT_S = 60
TRACE_REPEATS = 3
PROBE_RECORDS = 50_000
# On a shared 2-vCPU virtual machine the host's speed drifts by 20-40%
# within seconds to minutes (other tenants share its cores), and the host
# probe slows with it.  The end-to-end times are therefore reported at a
# reference host speed, on which the probe takes PROBE_REF_S: each time
# is divided by the mean of the probes just before and after it and
# multiplied by PROBE_REF_S.  Over ten seeds per workload this cut the
# spread (interquartile range over median) of the wall-time medians from
# 0.17-0.21 to 0.06-0.07.  Raw medians go to the run line and the record.
PROBE_REF_S = 0.12


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least one sample is taken)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the benchmark's (the smoke test "
                             "uses 0.01)")
    args = parser.parse_args()

    if not (SRC / "bibmet" / "__init__.py").is_file():
        print(f"perfbench: no bibmet package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bibmet
    import numpy

    if Path(bibmet.__file__).resolve().parent != (SRC / "bibmet").resolve():
        print(f"perfbench: imported bibmet from {bibmet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.prepare(args.workload, args.seed, args.scale,
                                 BENCH / ".cache", SRC)
    results = BENCH / ".out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".out"))
    try:
        bench = Bench(workload, scratch)
        bench.warm_up()
        bench.loop(args.seconds)
        e2e = bench.end_to_end()
        layers = bench.traced(e2e) if args.trace else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != 1.0:
        stem += f"-scale{args.scale:g}"
    if layers is not None:
        spans.write_spans(results / f"{stem}-spans.jsonl", bench.tracers)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale,
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "bibmet": bibmet.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "git_sha": git_sha(ROOT),
        },
        "inputs": {k: v for k, v in workload.facts.items() if k != "papers_per_year"},
        "end_to_end": e2e, "per_layer": layers,
        "samples": bench.samples, "failures": bench.failures,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    units = LAYER_UNITS if args.trace else E2E_UNITS
    values = layers if args.trace else e2e
    print(json.dumps({"run": {"results": str((results / f"{stem}.json").relative_to(ROOT)),
                              "samples": len(bench.samples),
                              **{k: e2e[k] for k in ("wall_raw_s", "setup_raw_s",
                                                     "host.probe_s")},
                              "environment": record["environment"]}}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


class Bench:
    """The sample loop of one run, and what it measured."""

    def __init__(self, workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.tracers: list = []

    def _attempt(self, what: str, error: str | None) -> bool:
        """Count one attempted run; keep why it failed, if it did."""
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")
        return error is None

    def _spawn(self, argv: list[str]):
        """Run ``bibmet <argv>`` to exit; returns (exit code, wall s, rusage, log)."""
        log_path = self.scratch / "child.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # keep the largest of every child reaped so far
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, log_path.read_text(errors="replace")

    def _setup_sample(self):
        code, wall, _, log = self._spawn(["--version"])
        error = None
        if code != 0 or not log.startswith("bibmet "):
            error = f"exit {code}: {log.strip()[-300:]}"
        return wall if self._attempt("bibmet --version", error) else None

    def _workload_sample(self):
        out = Path(tempfile.mkdtemp(prefix="out-", dir=self.scratch))
        try:
            code, wall, usage, log = self._spawn(self.workload.argv(out))
            error = _outcome(self.workload, out, code, log)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        ok = self._attempt(self.workload.name, error)
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "ok": ok}

    def warm_up(self) -> None:
        """One untimed set-up run.

        It compiles the bytecode of every module the CLI imports, which
        users pay once, not on every run.
        """
        self._setup_sample()

    def loop(self, seconds: float) -> None:
        """Samples until ``seconds`` have passed, each between host probes.

        Each set-up and workload time is divided by the mean of the probes
        taken just before and just after it, which follow the host's speed
        while that process ran.
        """
        deadline = time.perf_counter() + seconds
        probe = host_probe()
        while not self.samples or time.perf_counter() < deadline:
            setup = self._setup_sample()
            middle = host_probe()
            sample = self._workload_sample()
            after = host_probe()
            self.samples.append(dict(sample, setup_s=setup, probe_s=middle,
                                     setup_probe=(probe + middle) / 2,
                                     wall_probe=(middle + after) / 2))
            probe = after

    def end_to_end(self) -> dict:
        """Medians over the samples; times at the reference host speed."""
        good = [s for s in self.samples if s["ok"]] or self.samples
        setups = [s for s in self.samples if s["setup_s"] is not None]
        wall = PROBE_REF_S * statistics.median(s["wall_s"] / s["wall_probe"] for s in good)
        setup = PROBE_REF_S * statistics.median(s["setup_s"] / s["setup_probe"]
                                                for s in setups) if setups else float("nan")
        return {
            "wall_s": wall,
            "input_mb_per_s": self.workload.bytes_in / 1e6 / wall,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
            "setup_s": setup,
            "wall_raw_s": statistics.median(s["wall_s"] for s in good),
            "setup_raw_s": statistics.median(s["setup_s"] for s in setups)
            if setups else float("nan"),
            "cpu_s": statistics.median(s["cpu_s"] for s in good),
            "host.probe_s": statistics.median(s["probe_s"] for s in self.samples),
        }

    def traced(self, e2e: dict) -> dict:
        """Per-layer metrics from in-process runs of ``bibmet.cli.main``."""
        counts = None
        for _ in range(TRACE_REPEATS):
            traced = self._in_process(spans.traced_main)
            if traced is not None:
                self.tracers.append(traced[0])
                counts = traced[1]
        peaks = self._in_process(spans.alloc_main)
        if counts is None or peaks is None:
            raise RuntimeError("no traced run succeeded: " + "; ".join(self.failures))
        layers = spans.median_metrics([spans.span_metrics(t) for t in self.tracers])
        layers.update(counts)
        layers.update(peaks)
        parse_s = layers["wos.parse_s"]
        synth = self.workload.facts["synth"]
        layers.update({
            "wos.parse_records_per_s": layers["wos.records"] / parse_s if parse_s else 0.0,
            "cli.cpu_s": e2e["cpu_s"],
            "cli.trace_overhead_s": layers["cli.main_s"]
            - (e2e["wall_raw_s"] - e2e["setup_raw_s"]),
            "synth.sample_corpus_s": synth["sample_corpus_s"],
            "synth.sample_productivity_s": synth["sample_productivity_s"],
            "host.probe_s": e2e["host.probe_s"],
            "failed_ratio": len(self.failures) / self.attempted,
        })
        return layers

    def _in_process(self, run):
        """One in-process run: its result, or None when it failed its checks."""
        out = Path(tempfile.mkdtemp(prefix="traced-", dir=self.scratch))
        gc.collect()
        try:
            code, log, result = run(self.workload.argv(out))
            error = _outcome(self.workload, out, code, log)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result if self._attempt(f"{self.workload.name} in-process", error) else None


def _outcome(workload, out: Path, code: int, log: str) -> str | None:
    """Why a workload run failed, or None when its exit and outputs are right."""
    if code != 0:
        return f"exit {code}: {log.strip()[-300:]}"
    try:
        return workload.check(out)
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def host_probe() -> float:
    """Seconds for a fixed pure-Python workload shaped like record parsing.

    It formats ids and names, builds short-lived tuples and counts names
    over a key space larger than the CPU caches, so host contention slows
    it as it slows the CLI, but it runs no bibmet code and no change to
    the program moves it.
    """
    start = time.perf_counter()
    counts: dict[str, int] = {}
    records = []
    for i in range(PROBE_RECORDS):
        k = (i * 7919) % 200_003
        authors = (f"Author-{k:06d}", f"Author-{(k * 31) % 200_003:06d}")
        records.append((f"SYN{i:06d}", 2008 + i % 10, authors))
        for name in authors:
            counts[name] = counts.get(name, 0) + 1
    return time.perf_counter() - start


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
