"""The table of CI's CLI runs (`cli_runs.RUNS`) resolves, without running a stage.

A renamed config field, subcommand or desk workload fails here rather than
only when CI runs the table.
"""

import pytest

from cli_runs import RUNS
from workloads import WORKLOADS

from volterra_control.cli import _SUBCOMMANDS, ExperimentConfig


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
