"""One fresh benchmark process: set-up only, or a cold pass plus warm passes.

Started by :mod:`benchmarks.e2e.run`, never by hand::

    python -m benchmarks.e2e.worker --workload NAME [--seed S] [--smoke]
        (--setup | [--seconds T] [--trace] [--record-spans]
         [--update-golden])

``--setup`` imports the workload's entry modules, builds its backends and
exits; the parent times the whole launch. Otherwise the worker imports the
same modules, then times the cold pass (empty plan cache, no backends
built) and warm passes in the same process until at least three have run
and ``--seconds`` have passed (exactly one warm pass under ``--trace``).
It prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time

from benchmarks.e2e import checks
from benchmarks.e2e.trace import Tracer, installed_wrappers, instrument, layer_metrics
from benchmarks.e2e.workloads import WORKLOADS, PassRecorder

MIN_WARM_PASSES = 3
MAX_WARM_PASSES = 200


def _timed_pass(workload, inputs: dict, state: dict, cold: bool) -> tuple[float, dict]:
    rec = PassRecorder()
    start = time.perf_counter()
    workload.run_pass(inputs, state, rec, cold)
    return time.perf_counter() - start, rec.cells


def measure(workload, inputs: dict, seconds: float, tracer: Tracer | None) -> dict:
    """Cold pass, then warm passes; times and the cells of every pass."""
    state: dict = {}
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        cold_s, cold_cells = _timed_pass(workload, inputs, state, cold=True)
        if tracer is not None:
            tracer.phase = "warm"
        warm_s: list[float] = []
        passes = [cold_cells]
        while len(warm_s) < MAX_WARM_PASSES:
            elapsed, cells = _timed_pass(workload, inputs, state, cold=False)
            warm_s.append(elapsed)
            passes.append(cells)
            if tracer is not None:
                break
            if len(warm_s) >= MIN_WARM_PASSES and sum(warm_s) >= seconds:
                break
    return {"cold_s": cold_s, "warm_s": warm_s, "passes": passes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record-spans", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.smoke)
    workload.import_entry_modules()
    if args.setup:
        workload.setup(inputs)
        return 0

    tracer = Tracer(record=args.record_spans) if args.trace else None
    run = measure(workload, inputs, args.seconds, tracer)
    key = checks.golden_key(args.workload, args.smoke)
    golden = None
    if args.seed == 0 and not args.update_golden:
        golden = checks.load_golden().get(key)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "cold_s": run["cold_s"],
        "warm_s": statistics.median(run["warm_s"]),
        "warm_passes": len(run["warm_s"]),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **checks.score(run["passes"], golden),
        "readout": checks.paper_readout(args.workload, run["passes"][0]),
    }
    if args.update_golden:
        result["golden_section"] = {key: checks.golden_values(run["passes"][0])}
    if tracer is not None:
        leftover = installed_wrappers()
        if leftover:
            raise RuntimeError(f"trace wrappers left installed: {leftover}")
        result["layers"] = layer_metrics(tracer, run["cold_s"])
        if tracer.spans is not None:
            result["spans"] = tracer.spans
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
