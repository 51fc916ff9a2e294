"""Benchmark of ribboncalc: one workload of exact queries, every answer checked.

    python3 perfbench/run.py --workload {euler,cells,kappa,forms}
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run it from anywhere; it benchmarks the ``src`` tree next to this directory
and exits with code 2 when that tree is missing.

Each pass runs the workload's fixed query list in a fresh single-threaded
interpreter (``worker.py``) pinned to one CPU, one query at a time: a closed
loop with one client.  Passes repeat while another one fits in ``--seconds``
(at least one runs), and each metric is the median over passes.  Seconds
are scaled to a reference CPU speed measured during the pass
(``calibration.py``); the unscaled figures are printed on a ``#`` line and
kept in the run record.

- ``wall_s``: seconds from the first query to the last answer, not counting
  the oracle checks between queries.
- ``slowest_query_s``: seconds of the slowest single query.
- ``setup_s``: from starting the interpreter to the query list being ready
  (imports and input generation), sampled on every pass plus set-up-only
  starts, at least five samples.
- ``peak_rss_mb``: peak resident memory of the pass's process.

Queries that fail their oracle or raise are counted in ``failed`` against
``attempted`` (their ratio is the failed fraction), named on stderr, and
make the exit code 1.

``--trace 1`` instead runs one untraced and one traced pass and prints the
per-layer metrics of ``tracer.py``: span totals, each layer's self time, and
the tracing overhead (traced minus untraced wall_s).  It names the layer
with the largest self time next to the prediction in ``predictions.json``.

Lines starting with ``#`` are for people; the last line of stdout is the
JSON result.  A record of the run (context, every pass) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())
WORKLOADS = tuple(PREDICTIONS["workloads"])
SETUP_SAMPLES = 5
DEADLINE_S = 170  # every run must end within 180 s


class WorkerFailed(Exception):
    pass


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def context(args) -> dict:
    """What a noisy run needs to be recognised by."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git_commit": _git_commit(),
        "started": time(),
    }


class Worker:
    """Starts worker.py and times its set-up; always reaps the process."""

    def __init__(self, args, deadline, *extra):
        self.cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), *extra,
        ]
        if args.smoke:
            self.cmd.append("--smoke")
        self.deadline = deadline

    def run(self):
        """(set-up seconds, the worker's JSON result)."""
        # fixed hash seed: set iteration order, and so the work done, repeats
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        start = perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            if ready != "ready\n":
                raise WorkerFailed(f"worker did not start: {' '.join(self.cmd)}")
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker passed the {DEADLINE_S} s deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited with code {proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise WorkerFailed("worker printed no result")
        return setup, json.loads(lines[-1])


def _slowest(record, key="scaled"):
    return max(record["queries"], key=lambda q: q[key])


def summarize(passes, setups) -> dict:
    """Medians over passes of the scaled seconds; every failed query of every pass counts."""
    queries = [q for p in passes for q in p["queries"]]
    failed = [q for q in queries if q["error"] is not None]
    return {
        "correct": not failed,
        "attempted": len(queries),
        "failed": len(failed),
        "failures": [f"{q['name']}: {q['error']}" for q in failed],
        "metrics": {
            "wall_s": {"value": statistics.median(p["wall_scaled"] for p in passes), "unit": "s"},
            "slowest_query_s": {
                "value": statistics.median(_slowest(p)["scaled"] for p in passes),
                "unit": "s",
            },
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(p["peak_rss_mb"] for p in passes),
                "unit": "MiB",
            },
        },
    }


def timed_run(args, deadline, record) -> dict:
    passes, setups = [], []
    window = perf_counter()
    while True:
        began = perf_counter()
        setup, result = Worker(args, deadline).run()
        passes.append(result)
        setups.append(setup * result["setup_speed"])
        took = perf_counter() - began
        if perf_counter() - window + took > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setup, result = Worker(args, deadline, "--setup-only").run()
        setups.append(setup * result["setup_speed"])
    record.update(passes=passes, setups=setups)
    slowest = _slowest(passes[0], "seconds")
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    print(f"# {len(passes)} pass(es); unscaled median wall {raw_wall:.3f} s; "
          f"slowest query {slowest['name']} ({slowest['seconds']:.3f} s unscaled)")
    return summarize(passes, setups)


def traced_run(args, deadline, record) -> dict:
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    _, plain = Worker(args, deadline).run()
    _, traced = Worker(args, deadline, "--trace-out", str(spans_path)).run()
    record.update(passes=[plain, traced], spans_file=str(spans_path.relative_to(ROOT)))
    result = summarize([plain, traced], [0.0])
    # seconds in the spans are scaled by the traced pass's mean speed
    scale = traced["wall_scaled"] / traced["wall_s"]
    metrics = {
        name: {"value": m["value"] * {"s": scale, "1/s": 1 / scale}.get(m["unit"], 1), "unit": m["unit"]}
        for name, m in traced["layers"].items()
    }
    overhead = traced["wall_scaled"] - plain["wall_scaled"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
    result["metrics"] = metrics

    layer_self = {k[: -len(".self_s")]: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    top = max(layer_self, key=layer_self.get)
    share = layer_self[top] / sum(layer_self.values()) if sum(layer_self.values()) else 0.0
    predicted = PREDICTIONS["workloads"][args.workload]["top_self_time_layer"]
    verdict = "as predicted" if top in predicted else "MISMATCH"
    print(f"# largest self time: {top} ({share:.1%} of traced self time); "
          f"predicted {' or '.join(predicted)}: {verdict}")
    print(f"# tracing overhead: {overhead:+.3f} s on an untraced wall_s of {plain['wall_scaled']:.3f} s")
    if traced["absent"]:
        print(f"# absent (target gone, read as zero work): {', '.join(traced['absent'])}")
    record.update(top_layer=top, top_layer_share=share, absent=traced["absent"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PREDICTIONS["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "ribboncalc" / "__init__.py").is_file():
        print(f"error: no ribboncalc sources under {SRC}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    record = {"context": context(args)}
    print("# context " + json.dumps(record["context"]))
    try:
        result = (traced_run if args.trace else timed_run)(args, deadline, record)
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for failure in result.pop("failures"):
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# failed fraction {result['failed']}/{result['attempted']}")
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
