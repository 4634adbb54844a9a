"""One benchmark operation in a fresh process: run CLI stages, report timings.

Run by `run.py`, never imported. It imports the package, resolves the config
as the CLI does, then calls `volterra_control.cli.main` once per stage and
writes a JSON result file:

  setup_s      process start (`--t0`, the parent's CLOCK_MONOTONIC reading
               just before it started this process) until the package is
               imported and the config is resolved
  wall_s       start of the first stage call until the last stage returned,
               i.e. until its last artifact was written
  peak_rss_mb  peak resident memory of this process
  statuses     exit status of each stage

With `--trace` the package's public calls are wrapped in spans (see
`tracing.py`) after set-up; the spans are written to `--trace-file` when
the process ends and the per-layer metrics join the result.
"""

import argparse
import json
import resource
import time
from pathlib import Path

from workloads import stage_dir


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--stages", default="", help="comma-separated; empty = set-up only")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    from volterra_control import cli

    cli.ExperimentConfig.load(args.config, seed=args.seed, out_dir=args.out)
    setup_s = time.monotonic() - args.t0

    tracer = None
    if args.trace_file:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    stages = [s for s in args.stages.split(",") if s]
    statuses = []
    start = time.perf_counter()
    for stage in stages:
        argv = [stage, "--config", args.config, "--seed", str(args.seed),
                "--out", str(Path(args.out) / stage_dir(stage))]
        if tracer is None:
            statuses.append(cli.main(argv))
        else:
            statuses.append(tracer.call(f"cli.{stage}", cli.main, argv))
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "statuses": statuses,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(Path(args.trace_file))
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
