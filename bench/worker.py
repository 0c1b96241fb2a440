"""One fresh interpreter: set up tilingkit, then run a workload once, cold.

Started by ``run.py``; not meant to be run by hand.  The first line on
stdout is ``ready``, written once ``tilingkit.cli`` is imported and the
identity registry is built, so the parent can time the set-up.  The last
line is a JSON object with the timings, the peak RSS, the check tally and,
in a traced run, the per-layer summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tilingkit.cli  # noqa: E402  (the set-up being measured)
from tilingkit import identities, oracle  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    source = Path(tilingkit.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"worker: tilingkit imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()  # before the registry captures any function
    identities.registry()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from reference import Sampler, reference_time
    from workloads import WORKLOADS, Tally, load_expected

    workload = WORKLOADS[args.workload]
    expected = load_expected()
    inputs = workload.make_inputs(args.seed, args.scratch)
    tally = Tally()
    result: dict = {}
    if tracer is not None:
        tracer.reset()
    try:
        if tracer is None:
            # The reference is timed during the run; those samples are not
            # the run's own time.  The host can switch speed several times a
            # second, and the run's time is a sum over those switches, so
            # the reference is averaged rather than taken as a median.
            with Sampler() as sampler:
                start = perf_counter()
                out = workload.run(inputs)
                elapsed = perf_counter() - start
            result["wall_s"] = elapsed - sum(sampler.times)
            result["peak_rss_mb"] = _peak_rss_mb()
            ref_times = sampler.times or [reference_time()]
            result["ref_s"] = statistics.fmean(ref_times)
        else:
            start = perf_counter()
            out = workload.run(inputs)
            result["wall_s"] = perf_counter() - start
            tracer.enabled = False
            result["layers"] = tracer.summary(result["wall_s"])
            tracer.write(args.scratch / "spans.jsonl")
            result["spans"] = len(tracer.start)
        workload.check(tally, inputs, out, args.seed, expected)
    except oracle.OracleScaleError as exc:
        tally.expect(False, f"guard refusal: {exc}")
    except Exception:  # a crash of the program is a failed check, reported
        traceback.print_exc()
        tally.expect(False, "workload raised")
    result["attempted"] = tally.attempted
    result["failures"] = tally.failures
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
