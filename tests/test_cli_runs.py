"""The table of CI's CLI runs (`cli_runs.RUNS`) resolves, without running a stage.

A renamed config field, subcommand or desk workload fails here rather than
only when CI runs the table.
"""

import json
import os
import subprocess
import sys

import pytest

from cli_runs import ROOT, RUNS, CliRun
from workloads import WORKLOADS, stage_dir

from volterra_control.cli import _SUBCOMMANDS, ExperimentConfig


@pytest.mark.parametrize("argv, status", [(["--help"], 0), (["--bogus"], 2), (["extra"], 2)])
def test_arguments_are_parsed_before_any_run_starts(argv, status, monkeypatch):
    import cli_runs

    def refuse(*args):
        raise AssertionError("a run was started")

    monkeypatch.setattr(cli_runs, "run_stage", refuse)
    monkeypatch.setattr(cli_runs.CliRun, "write_config", refuse)
    with pytest.raises(SystemExit) as exit_:
        cli_runs.main(argv)
    assert exit_.value.code == status


@pytest.mark.parametrize("manifest, status", [
    (None, 1), ({"command": "simulate"}, 1), ({"command": "solve-adjoint"}, 0)])
def test_a_stage_that_exits_0_must_leave_its_manifest(manifest, status, tmp_path,
                                                      monkeypatch, capsys):
    # an earlier run's manifest is removed first, so it cannot stand in for the stage's
    import cli_runs

    def stage(run, name, config, out):
        if manifest is not None:
            out.mkdir()
            (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        return 0, 0.0, 1.0

    run = CliRun(name="one", stages=("solve-adjoint",), seed=1, why="")
    stale = tmp_path / "one" / stage_dir("solve-adjoint")
    stale.mkdir(parents=True)
    (stale / "manifest.json").write_text('{"command": "solve-adjoint"}', encoding="utf-8")
    monkeypatch.setattr(cli_runs, "OUT", tmp_path)
    monkeypatch.setattr(cli_runs, "RUNS", (run,))
    monkeypatch.setattr(cli_runs, "run_stage", stage)
    assert cli_runs.main([]) == status
    assert ("NO MANIFEST" in capsys.readouterr().out) == bool(status)


def test_run_names_are_unique():
    names = [run.name for run in RUNS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.name)
def test_cli_run_resolves(run, tmp_path):
    assert run.workload is None or run.workload in WORKLOADS
    assert run.stages and all(stage in _SUBCOMMANDS or stage == "report"
                              for stage in run.stages)
    assert run.bound_mb is None or run.bound_mb > 0.0
    path = tmp_path / "config.yaml"
    run.write_config(path)
    cfg = ExperimentConfig.load(str(path), seed=run.seed)
    assert cfg.seed == run.seed
    # the sections that the stages resolve later, model parameters included
    cfg.model(), cfg.performance(), cfg.control(), cfg.utility(), cfg.market()


# One child per setting runs every stage in turn, the three children side by side;
# "pinned" restricts its child, before numpy loads, to one CPU, so path sampling runs
# on one worker and OpenBLAS's two threads share that CPU.
_STAGES_CHILD = """
import json, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from volterra_control.cli import main
for argv in json.loads(sys.argv[2]):
    if main(argv):
        sys.exit(f"{argv[0]} exited non-zero")
"""


def test_solve_portfolio_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The portfolio's regressions have p = 4, where OpenBLAS sums over paths in one
    # order whatever its thread count, and the BSVIE moments are sums over fixed blocks
    # of paths. Every node regression's path sums are einsum sums, so the adjoint stages
    # keep their bytes too: node 0's intercept-only fit on the adjoint workload (a dot
    # product over 2e4 paths) is one BLAS may split over its threads. Path sampling
    # draws each block from its own stream into its own columns, so the bytes do not
    # depend on the usable CPU count either.
    written = {("portfolio_memory", "solve-portfolio"): ("strategy.csv", "calibration.csv"),
               ("portfolio_memory", "merton-test"): ("strategy.csv", "calibration.csv",
                                                     "objective.csv"),
               ("adjoint_memory_jumps", "solve-adjoint"): ("adjoint.csv",),
               ("adjoint_memory_jumps", "check-stationarity"): ("stationarity.csv",),
               ("adjoint_memory_jumps", "gateaux"): ("gateaux.csv",),
               ("adjoint_memory_jumps", "check-malliavin"): ("malliavin_checks.csv",),
               ("simulate_long_grid", "simulate"): ("trajectory.csv", "performance.csv")}
    settings = {"threads1": ("1", "all"), "threads2": ("2", "all"), "pinned2": ("2", "pinned")}
    for key in {key for key, _ in written}:
        (tmp_path / f"{key}.yaml").write_text(json.dumps(WORKLOADS[key].config) + "\n",
                                              encoding="utf-8")
    children = []
    try:
        for setting, (threads, cpus) in settings.items():
            runs = [[stage, "--config", str(tmp_path / f"{key}.yaml"),
                     "--seed", str(WORKLOADS[key].default_seed),
                     *(["--paths", "50000"] if key == "portfolio_memory" else []),
                     "--out", str(tmp_path / setting / key / stage_dir(stage))]
                    for key, stage in written]
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
            children.append(subprocess.Popen(
                [sys.executable, "-c", _STAGES_CHILD, cpus, json.dumps(runs)], env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
        for child in children:
            _, err = child.communicate(timeout=300)
            assert child.returncode == 0, err.decode()
    finally:
        for child in children:
            child.kill()
            child.wait()
    for (key, stage), names in written.items():
        for name in names:
            one, *rest = ((tmp_path / setting / key / stage_dir(stage) / name).read_bytes()
                          for setting in settings)
            assert all(one == other for other in rest), (stage, name)
