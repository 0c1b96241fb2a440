"""Steadiness self-check: repeat each workload over seeds, compare with bounds.

    python3 bench/steady.py [--traced] [--out PATH]

Runs ``run.py`` once for each of the seeds 1-10 on every workload of
``BENCHMARK.json`` (one after another, never in parallel), with its run
length.  For every end-to-end metric it reports the median and quartiles of
the per-run values -- the quartiles as ``statistics.quantiles(values, n=4)``
gives them -- and the spread ``(q3 - q1) / median`` against the metric's
bound:

* ``steady``   spread below a third of the bound;
* ``loose``    spread within the bound;
* ``unsteady`` spread over the bound.

The raw ``wall_s`` and ``ref_s`` are reported the same way, without a bound.

With ``--traced`` it also makes one traced run per workload.  The summary,
with every run's values and provenance, is written to ``--out``.  The exit
code is 1 if a run failed, a check failed, or a spread is over its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, result_dir

RUN = Path(__file__).resolve().with_name("run.py")
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    with open(result_dir(workload, seed, trace) / "result.json", encoding="utf-8") as fh:
        record = json.load(fh)
    result["provenance"] = record["provenance"]
    result["spread"] = record["spread"]  # per-run quartiles, shown metrics included
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "steady.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary: dict = {"run_seconds": seconds, "runs": len(SEEDS), "workloads": {}}
    ok = True
    for workload in names:
        runs = []
        for seed in SEEDS:
            result = run_once(workload, seed, seconds, 0)
            result["seed"] = seed
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values} failed={result['failed']}", flush=True)
            ok &= result["correct"]
        entry: dict = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            if stats["spread"] < bound / 3:
                stats["verdict"] = "steady"
            elif stats["spread"] <= bound:
                stats["verdict"] = "loose"
            else:
                stats["verdict"] = "unsteady"
                ok = False
            stats["bound"] = bound
            entry["metrics"][name] = stats
            print(f"  {workload} {name}: median {stats['median']:.4g}, q1 {stats['q1']:.4g},"
                  f" q3 {stats['q3']:.4g}, spread {stats['spread']:.3f}"
                  f" (bound {bound}) {stats['verdict']}", flush=True)
        # Printed but not bounded: the raw cold wall time and reference time.
        for name in ("wall_s", "ref_s"):
            stats = spread([r["spread"][name]["median"] for r in runs])
            entry["metrics"][name] = stats
            print(f"  {workload} {name}: median {stats['median']:.4g}, q1 {stats['q1']:.4g},"
                  f" q3 {stats['q3']:.4g}, spread {stats['spread']:.3f} (not bounded)",
                  flush=True)
        if args.traced:
            entry["traced"] = run_once(workload, SEEDS[0], seconds, 1)
            ok &= entry["traced"]["correct"]
        summary["workloads"][workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
