"""Benchmark for tilingkit: one workload, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  Each cold run is a fresh interpreter (``worker.py``)
that imports ``tilingkit.cli``, builds the identity registry and runs the
workload once, with every cache empty.  Cold runs are started one after
another until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics.  During each cold run the
worker also times a fixed reference computation (``reference.py``) ten
times a second, and ``wall_ref`` is the cold run's wall time in units of
it: the host's speed drifts by tens of percent, and the ratio cancels that
drift.  The raw ``wall_s`` and ``ref_s`` are printed alongside.
``--trace 1`` alternates untraced and traced cold runs and reports the
per-layer metrics of ``tracer.py``.  Every output is checked.  The last line on stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print each metric with its unit and the run's provenance.  The full
record, samples included, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("verify-default", "triple-agreement", "formula-scale", "oracle-listing")
DEADLINE_S = 170    # a run, whatever --seconds says, ends within this
SETUPS_PER_ROUND = 4  # set-up-only interpreters before each cold run


def result_dir(workload: str, seed: int, trace: int) -> Path:
    """Where a run writes ``result.json`` and its workers' files."""
    return ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# -- provenance (read only) ---------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    return {
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "loadavg_1m_before": os.getloadavg()[0],
    }


# -- child interpreters -------------------------------------------------------

@dataclass(frozen=True)
class Child:
    """Outcome of one worker interpreter."""

    setup_s: float | None  # None when it never printed ``ready``
    result: dict | None    # its last stdout line, parsed
    returncode: int


def run_child(args: list[str], timeout: float) -> Child:
    """Start ``worker.py``; time the set-up up to its ``ready`` line."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        setup_s = None
        first = proc.stdout.readline()
        if first.strip() == "ready":
            setup_s = perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Child(None, None, -9)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return Child(setup_s, result, proc.returncode)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tilingkit" / "__init__.py").is_file():
        print(f"run.py: no tilingkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    prov = provenance()
    out_dir = result_dir(args.workload, args.seed, args.trace)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    children: list[tuple[str, Child]] = []  # (kind, child)
    attempted = failed = 0
    failures: list[str] = []
    start = perf_counter()

    def spawn(kind: str, extra: list[str]) -> Child:
        nonlocal attempted, failed
        scratch = out_dir / f"child{len(children)}-{kind}"
        scratch.mkdir()
        child = run_child(common + ["--scratch", str(scratch)] + extra,
                          timeout=max(1.0, start + DEADLINE_S - perf_counter()))
        children.append((kind, child))
        attempted += 1  # the exit status and the result line
        if child.setup_s is None or child.returncode != 0 or (
                kind != "setup" and child.result is None):
            failed += 1
            failures.append(f"{kind} child exited {child.returncode}")
        if child.result is not None and kind != "setup":
            attempted += child.result["attempted"]
            failed += len(child.result["failures"])
            failures.extend(child.result["failures"])
        return child

    if args.trace:
        # Untraced and traced cold runs alternate, so both see the same load.
        plan = [("cold", []), ("traced", ["--trace", "1"])]
    else:
        # Set-up-only interpreters before each cold run spread the set-up
        # samples over the whole run; several per round give a long cold run
        # (verify-default) enough of them.
        plan = [("setup", ["--setup-only"])] * SETUPS_PER_ROUND + [("cold", [])]
    # Start another round only if it should end within --seconds.
    budget = min(args.seconds, DEADLINE_S)
    rounds: list[float] = []
    complete = True
    while complete:
        round_start = perf_counter()
        for kind, extra in plan:
            child = spawn(kind, extra)
            complete &= kind == "setup" or child.result is not None
        rounds.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(rounds) > budget:
            break
    prov["loadavg_1m_after"] = os.getloadavg()[0]

    ok_runs = [(k, c) for k, c in children if c.returncode == 0 and c.result is not None]
    cold = [c.result for k, c in ok_runs if k == "cold" and "wall_s" in c.result]
    traced = [c.result for k, c in ok_runs if k == "traced" and "layers" in c.result]
    if not cold or (args.trace and not traced):
        for line in failures:
            print(f"failure: {line}", file=sys.stderr)
        print("run.py: no complete cold run", file=sys.stderr)
        return 1

    samples: dict[str, list[float]] = {}
    metrics: dict[str, dict] = {}
    shown: dict[str, str] = {}  # printed with the metrics but not in the result line
    if args.trace:
        for name in traced[0]["layers"]:
            samples[name] = [r["layers"][name] for r in traced]
        samples["trace_overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in cold)
        ]
        units = declared_units("per_layer")
    else:
        samples["wall_ref"] = [r["wall_s"] / r["ref_s"] for r in cold]
        samples["setup_s"] = [c.setup_s for _, c in children
                              if c.setup_s is not None and c.returncode == 0]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in cold]
        samples["wall_s"] = [r["wall_s"] for r in cold]
        samples["ref_s"] = [r["ref_s"] for r in cold]
        units = declared_units("end_to_end")
        shown = {"wall_s": "s", "ref_s": "s"}
    for name, unit in units.items():
        metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}

    fail_frac = failed / attempted
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "attempted": attempted,
        "failed": failed, "fail_frac": fail_frac, "failures": failures[:20],
        "metrics": metrics,
        "spread": {name: quartiles(values) for name, values in samples.items()},
        "samples": samples,
    }
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"provenance {json.dumps(prov)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(cold)} cold runs, {len(traced)} traced runs")
    for name, unit in {**units, **shown}.items():
        q = record["spread"][name]
        print(f"{name} {q['median']:.6g} {unit} "
              f"(median of {q['n']}; q1 {q['q1']:.6g}, q3 {q['q3']:.6g})")
    print(f"fail_frac {fail_frac:.6g} ratio ({failed} of {attempted} checks failed)")
    for line in failures[:20]:
        print(f"failure: {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
