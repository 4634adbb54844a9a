"""Desk benchmark of volterra-control: three workloads through the public CLI.

Usage, from the repository root:

    python3 deskbench/run.py --workload portfolio_memory --seed 7 --seconds 10 --trace 0
    python3 deskbench/run.py --workload all

One operation is one CLI stage; a round runs a workload's stages in one
fresh worker process (`worker.py`), and a run repeats whole rounds until
`--seconds` have passed (at least one round). With `--trace 0` the run
first starts set-up-only workers and reports the end-to-end metrics
`wall_s`, `setup_s` and `peak_rss_mb` (medians). With `--trace 1` each round
runs the stages untraced and then traced, and the run reports the per-layer
metrics of the traced process plus the tracing overhead (traced minus
untraced `wall_s`). After timing stops the outputs go through the checks in
`checks.py`; a traced run also requires its CSVs to be byte-identical to the
untraced ones. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; progress and check details
go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from checks import Check, run_checks, same_csv_bytes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    """Child environment: the checkout's sources, at most nproc BLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(config: Path, seed: int, out: Path, stages, result: Path,
               trace_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(config),
           "--seed", str(seed), "--out", str(out), "--result", str(result),
           "--stages", ",".join(stages)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    result.unlink(missing_ok=True)
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=worker_env(), stdout=sys.stderr, stderr=sys.stderr,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not result.is_file():
        raise WorkerError(f"worker exited with status {proc.returncode}: {' '.join(cmd)}")
    return json.loads(result.read_text(encoding="utf-8"))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("bytes_written") else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    run_dir = OUT / name / f"seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.yaml"
    # JSON flow style is YAML; the configs hold no bare exponent floats.
    config.write_text(json.dumps(workload.config, indent=1) + "\n", encoding="utf-8")

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_worker(config, seed, run_dir / "probe", (), run_dir / "probe.json")
            setups.append(probe["setup_s"])

    plain_dir, traced_dir = run_dir / "untraced", run_dir / "traced"
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain = run_worker(config, seed, plain_dir, workload.stages, run_dir / "untraced.json")
        traced = None
        if trace:
            traced = run_worker(config, seed, traced_dir, workload.stages,
                                run_dir / "traced.json", trace_file=run_dir / "trace.json")
        rounds.append((plain, traced))

    statuses = [s for r in rounds for w in r if w is not None for s in w["statuses"]]
    checks = run_checks(name, traced_dir if trace else plain_dir, seed)
    if trace:
        checks.append(same_csv_bytes(plain_dir, traced_dir))
    report_checks(name, checks)

    if trace:
        layers = {key: statistics.median(t["layers"][key] for _, t in rounds)
                  for key in rounds[0][1]["layers"]}
        layers["trace.wall_s"] = statistics.median(t["wall_s"] for _, t in rounds)
        layers["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in rounds)
        metrics = {key: {"value": value, "unit": layer_unit(key)} for key, value in layers.items()}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p, _ in rounds),
            "setup_s": statistics.median(setups + [p["setup_s"] for p, _ in rounds]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p, _ in rounds),
        }
        metrics = {key: {"value": v, "unit": END_TO_END_UNITS[key]} for key, v in values.items()}
    return {
        "correct": all(c.passed for c in checks),
        "attempted": len(statuses),
        "failed": sum(1 for s in statuses if s != 0),
        "metrics": metrics,
    }


def report_checks(name: str, checks: list[Check]) -> None:
    for c in checks:
        print(f"[{name}] {'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}", file=sys.stderr)


def summary_line(name: str, result: dict) -> str:
    shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
                      if k in END_TO_END_UNITS or k.startswith("trace."))
    return (f"{name}: {shown}; attempted {result['attempted']}, failed {result['failed']}, "
            f"correct {str(result['correct']).lower()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="path seed (default: the workload's own, see README)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "volterra_control" / "cli.py").is_file():
        print(f"no package sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks draw the same noise as the CLI

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            results[name] = run_workload(name, seed, args.seconds, bool(args.trace))
            print(summary_line(name, results[name]))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
