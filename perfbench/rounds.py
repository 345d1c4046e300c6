"""Repeat the benchmark over seeds, interleaving workloads, and report spreads.

    python3 perfbench/rounds.py --rounds 10 [--workloads wos-report,tables-longtail]
                                [--first-seed 1] [--seconds N]

Round r runs every workload once with seed ``first-seed + r``, starting
from a different workload each round, so that drift of the host over the
rounds lands on all workloads alike.  For each workload and end-to-end
metric it prints the median, the quartiles and the spread (the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound in BENCHMARK.json, together with the same figures for the raw
(uncalibrated) wall and set-up times and the host probe.  The full table
is also written to ``perfbench/.out/rounds-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args()
    chosen = args.workloads.split(",")
    metrics = config["end_to_end"]

    raw = ("wall_raw_s", "setup_raw_s", "host.probe_s")
    values = {w: {m["name"]: [] for m in metrics} | {k: [] for k in raw} for w in chosen}
    failed = {w: 0 for w in chosen}
    for r in range(args.rounds):
        order = chosen[r % len(chosen):] + chosen[:r % len(chosen)]
        for workload in order:
            seed = args.first_seed + r
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            run, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
            failed[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            for key in raw:
                values[workload][key].append(run[key])
            print(f"round {r} {workload} seed {seed}: {time.perf_counter() - start:.1f} s, "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + "".join(f" {k}={run[k]:.4g}" for k in raw) + f" failed={result['failed']}",
                  flush=True)

    bounds = {m["name"]: m["bound"] for m in metrics} | dict.fromkeys(raw)
    summary = {}
    for workload in chosen:
        print(f"\n{workload} (failed runs: {failed[workload]})")
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med
            bound = bounds[name]
            summary.setdefault(workload, {})[name] = {
                "values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound}
            verdict = "" if bound is None else (
                "steady" if spread < bound / 3 else "within bound" if spread <= bound
                else "TOO WIDE")
            print(f"  {name:16s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}" + (f" bound {bound} {verdict}" if bound else ""))
    out = BENCH / ".out" / f"rounds-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "summary": summary}, indent=1),
                   encoding="utf-8")
    print(f"\nwritten to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
