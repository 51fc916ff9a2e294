"""One pass of one workload in a fresh interpreter; the launcher starts it.

    python3 perfbench/worker.py --workload NAME --seed N [--smoke]
                                [--setup-only] [--trace-out FILE]

It imports ribboncalc from the checkout's ``src``, builds the query list,
prints ``ready`` (the launcher times set-up up to that line) and measures
the CPU's speed (``calibration.py``).  Then it runs the queries one after
another, with the speed probe running, and prints one JSON line: per-query
seconds, raw and scaled to the reference speed, the oracle verdicts, and the
process's peak resident memory.  With ``--trace-out`` the calls into each module are traced and the
spans are written to FILE.  ``--setup-only`` stops after the speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import calibration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_queries(queries, tracer=None) -> list[dict]:
    """Time each query, then check its answer with tracing paused.

    A query fails when its call raises (TooLarge included) or its oracle
    rejects the answer; the record names the reason.
    """
    records = []
    for query in queries:
        start = perf_counter()
        try:
            answer = query.call()
            error = None
        except Exception as err:  # a raising query is a failed query, not a crash
            error = f"raised {type(err).__name__}: {err}"
        end = perf_counter()
        if error is None:
            if tracer is not None:
                tracer.paused = True
            try:
                error = query.check(answer)
            except Exception as err:  # so is an answer the oracle cannot read
                error = f"oracle raised {type(err).__name__}: {err}"
            finally:
                if tracer is not None:
                    tracer.paused = False
        records.append(
            {"name": query.name, "start": start, "seconds": end - start, "error": error}
        )
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    # one CPU for the queries and the speed probe, so the probe times the CPU the queries run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import ribboncalc
    import workloads

    if SRC not in Path(ribboncalc.__file__).resolve().parents:
        print(f"error: imported {ribboncalc.__file__}, not the checkout's", file=sys.stderr)
        return 2
    queries = workloads.build(args.workload, args.seed, args.smoke)
    print("ready", flush=True)
    result = {"setup_speed": calibration.speed(args.workload)}
    if args.setup_only:
        print(json.dumps(result), flush=True)
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with calibration.SpeedProbe(args.workload) as probe:
        records = run_queries(queries, tracer)
    for r in records:
        r["scaled"] = r["seconds"] * probe.speed(r["start"], r["start"] + r["seconds"])
    result.update(
        queries=records,
        speed=probe.speed(),
        wall_s=sum(r["seconds"] for r in records),
        wall_scaled=sum(r["scaled"] for r in records),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(args.trace_out)
        result.update(
            layers=tracer.metrics(), absent=tracer.absent_metrics(), spans=len(tracer.spans)
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
