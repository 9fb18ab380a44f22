"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload asgd-sim --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics from untraced runs.
``--trace 1`` alternates untraced and traced runs of the same seeds and
reports the per-layer metrics; the traced runs' spans are written to
``perfbench/out/`` when the benchmark ends.

Each invocation makes one unmeasured warm-up run, then measures runs back
to back for ``--seconds`` (at least :data:`MIN_RUNS` unless one fails).  Run ``i`` trains
with seed ``1000 * --seed + i``, so the same ``--seed`` gives the same
inputs.  Every run is checked; a run that raises or fails a check counts
toward ``failed`` and is left out of the metrics.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
MIN_RUNS = 3


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from perfbench import measure
    from perfbench.spans import SpanRecorder, layer_metrics
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = measure.environment()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    tally = measure.Tally()
    base = 1000 * args.seed
    warm = measure.attempt(workload, base, f"{workload.name}-s{base}-warmup", tally)
    recorder = SpanRecorder()
    untraced: List[measure.Run] = []
    traced: List[measure.Run] = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    # past the deadline only to reach MIN_RUNS, and never after a failure,
    # so a hanging program still ends the invocation within its time limit
    while time.perf_counter() < deadline or (i < MIN_RUNS and not tally.failed):
        seed = base + i
        run_id = f"{workload.name}-s{seed}"
        # a non-concurrent workload runs its first seed twice (warm-up included)
        reference = warm if not workload.concurrent and i == 0 else None
        run = measure.attempt(workload, seed, run_id, tally, reference=reference)
        if run is not None:
            untraced.append(run)
        if args.trace:
            recorder.run_id = run_id + "-traced"
            with recorder:
                run_t = measure.attempt(
                    workload, seed, recorder.run_id, tally, obs=True,
                    reference=None if workload.concurrent else run,
                )
            if run_t is not None:
                traced.append(run_t)
        i += 1

    if not untraced or (args.trace and not traced):
        print(f"perfbench: no run succeeded ({tally.failed}/{tally.attempted} failed)",
              file=sys.stderr)
        return 1

    values = measure.per_run(untraced)
    e2e = measure.end_to_end(values)
    # a traced invocation keeps its spans in memory, which its peak_rss_mb includes
    print("end-to-end (untraced runs; host-adjusted timings, see perfbench/measure.py"
          + ("; rss includes kept spans" if args.trace else "") + "):")
    for m in spec["end_to_end"]:
        name = m["name"]
        q1, q3 = measure.quartiles(values[name])
        print(f"  {name:<34} {e2e[name]:>12.6g} {m['unit']:<12} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values[name])})")
    print(f"  host: reference loop median "
          f"{1e3 * statistics.median(r.reference_s for r in untraced):.4g} ms "
          f"({1e3 * measure.REFERENCE_S:.4g} ms at the adjusted timings' host speed); "
          f"raw wall-clock medians: "
          f"run_s {statistics.median(r.run_s for r in untraced):.6g} s, "
          f"setup_s {statistics.median(r.setup_s for r in untraced):.6g} s, "
          f"updates_per_s {statistics.median(r.updates_per_s for r in untraced):.6g}")
    # carried as failed/attempted in the result line: a bounded metric may not be 0
    print(f"  {'fail_frac':<34} {tally.fail_frac:>12.6g} {'fraction':<12} "
          f"({tally.failed}/{tally.attempted} runs)")

    if args.trace:
        layers = layer_metrics(workload, recorder.spans, traced, untraced)
        print(f"per-layer ({len(traced)} traced runs):")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<34} {layers[m['name']]:>12.6g} {m['unit']}")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        recorder.dump_jsonl(str(path), {
            "workload": workload.name, "seed": args.seed, "env": env,
            "runs": [r.run_id for r in traced],
        })
        print(f"spans: {path.relative_to(ROOT)} ({len(recorder.spans)} spans)")
        reported = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        reported = {m["name"]: (e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
