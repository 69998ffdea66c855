"""Benchmark of the cvrep CLI: one seeded workload, end to end or traced.

    python3 bench/run.py --workload sim|codes|synth --seed N --seconds S --trace 0|1

The workload's command list is built from the seed and run through
``cvrep.cli.main`` pass after pass until ``--seconds`` have elapsed; every
output is checked against the benchmark's own reference answers.  The last
stdout line is one JSON object: ``correct`` (no command gave a wrong
answer), ``attempted`` and ``failed`` (commands run, and those that crashed,
stopped on a usage error or answered wrongly) and ``metrics``.  With
``--trace 0`` these are the end-to-end metrics; with ``--trace 1`` a further
pass runs with spans around each layer's calls and the per-layer metrics
are reported instead, and every span is written, one JSON line each, to
``.bench_work/spans-WORKLOAD.jsonl``.  Times are in reference seconds:
measured seconds scaled by the speed of a calibration kernel run beside
the commands (see ``harness.py``).

``--dump DIR`` writes the workload's inputs to DIR and prints its command
lines, so that any failing command can be rerun by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import bootstrap


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="sim, codes or synth")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="how long to repeat the command list")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dump", default=None, help="write inputs to this directory, print the commands, exit")
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    bootstrap.prepare()
    import harness  # imports numpy, so only after prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    if args.dump:
        for i, cmd in enumerate(workloads.build(args.workload, args.seed, Path(args.dump).resolve())):
            print(f"#{i:03d} exit {cmd.expect_exit}: {cmd.text()}")
        return 0

    workdir = bootstrap.ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cmds = workloads.build(args.workload, args.seed, workdir)
        result, lines = _measure(harness, cmds, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def _measure(harness, cmds, args):
    setup, setup_raw = (None, None) if args.trace else harness.setup_seconds()
    passes, statuses, failures = [], Counter(), {}

    def count(verdicts):
        for i, (cmd, (status, detail)) in enumerate(zip(cmds, verdicts)):
            statuses[status] += 1
            if status != "ok":
                failures.setdefault(i, f"{status.upper()} #{i:03d} {cmd.text()}: {detail}")

    start = perf_counter()
    # Start another pass only if at least half of it fits in --seconds.
    while not passes or perf_counter() - start + passes[-1].elapsed_s / 2 < args.seconds:
        passes.append(harness.run_pass(cmds))
        count(passes[-1].verdicts)
    wall_s = statistics.median(p.raw_s * p.scale for p in passes)
    latencies = [s * p.scale for p in passes for s in p.seconds]

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = harness.run_pass(cmds)
        finally:
            tracer.uninstall()
        count(traced.verdicts)
        spans = bootstrap.ROOT / ".bench_work" / f"spans-{args.workload}.jsonl"
        tracer.write_spans(spans)
        metrics = tracer.metrics(traced.rank_warnings, traced.raw_s * traced.scale - wall_s, traced.scale)
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (wall_s, "s"),
            "cmd_p50_ms": (1e3 * harness.percentile(latencies, 50), "ms"),
            "cmd_p90_ms": (1e3 * harness.percentile(latencies, 90), "ms"),
            "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        }

    attempted = sum(statuses.values())
    failed = attempted - statuses["ok"]
    raw = [s for p in passes for s in p.seconds]
    lines = [
        "machine " + json.dumps(harness.machine()),
        f"workload {args.workload} seed {args.seed}: {len(cmds)} commands x {len(passes)} passes"
        f" ({len(latencies)} timed samples){' + 1 traced pass' if args.trace else ''}",
        "  calibration kernel per pass: " + " ".join(f"{1e3 * p.calibration_s:.3f}" for p in passes) + " ms"
        f" (reference {1e3 * harness.REFERENCE_CALIBRATION_S:g} ms)",
        "  measured, unscaled: pass times " + " ".join(f"{p.raw_s:.3f}" for p in passes) + " s"
        f"; cmd p50 {1e3 * harness.percentile(raw, 50):.3f} ms, p90 {1e3 * harness.percentile(raw, 90):.3f} ms"
        + (f"; setup {setup_raw:.4f} s" if setup_raw else ""),
        *([f"  spans written to {spans.relative_to(bootstrap.ROOT)}"] if args.trace else []),
        f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted}; {statuses['wrong']} wrong answers)",
        *(f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
        *failures.values(),
    ]
    if failures:
        lines.append(f"  (rerun a command: python3 bench/run.py --workload {args.workload} --seed {args.seed} --dump DIR)")
    result = {
        "correct": statuses["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


if __name__ == "__main__":
    sys.exit(main())
