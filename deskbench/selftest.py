"""Tests of the desk benchmark itself.

Every output check must pass on a true output and fail on a deliberately
wrong one, tracing must leave every CSV byte unchanged, and the benchmark
must refuse to run without the package sources. Run from the repository
root:

    python3 -m pytest -q deskbench/selftest.py

The file name keeps these tests out of the package's own test run: they run
each workload once at full scale (about two minutes on two cores).
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, stage_dir  # noqa: E402


def _produce(workload: str, base: Path, config: dict, trace: bool = False) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    cfg = base / "config.yaml"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = base / ("traced" if trace else "untraced")
    run.run_worker(cfg, WORKLOADS[workload].default_seed, out, WORKLOADS[workload].stages,
                   base / "result.json", trace_file=base / "trace.json" if trace else None)
    return out


@pytest.fixture(scope="module")
def true_outputs(tmp_path_factory):
    """One untraced full-scale run of every workload at its default seed."""
    return {name: _produce(name, tmp_path_factory.mktemp(name), w.config)
            for name, w in WORKLOADS.items()}


@pytest.fixture
def outputs(true_outputs, tmp_path):
    """A private copy of the true outputs that a test may corrupt."""
    def copy_of(workload: str) -> Path:
        dest = tmp_path / workload
        shutil.copytree(true_outputs[workload], dest)
        return dest
    return copy_of


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header, rows = reader.fieldnames, list(reader)
    rows = edit(rows) or rows
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _results(workload: str, out: Path) -> dict[str, bool]:
    found = checks.run_checks(workload, out, WORKLOADS[workload].default_seed)
    return {c.name: c.passed for c in found}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_pass_on_true_outputs(true_outputs, workload):
    found = checks.run_checks(workload, true_outputs[workload], WORKLOADS[workload].default_seed)
    assert found and all(c.passed for c in found), [c for c in found if not c.passed]


def test_c_off_by_two_percent_fails(outputs):
    out = outputs("portfolio_memory")

    def scale_c(rows):
        for r in rows:
            r["c_value"] = repr(float(r["c_value"]) * 1.02)
    _edit_csv(out / stage_dir("solve-portfolio") / "calibration.csv", scale_c)
    assert not _results("portfolio_memory", out)["portfolio_c"]


def test_calibrated_c_ignores_row_order(outputs):
    out = outputs("portfolio_memory")
    path = out / stage_dir("solve-portfolio") / "calibration.csv"
    before = checks.calibrated_c(checks.read_csv(path))
    _edit_csv(path, lambda rows: random.Random(3).sample(rows, len(rows)))
    assert checks.calibrated_c(checks.read_csv(path)) == before
    assert _results("portfolio_memory", out)["portfolio_c"]


def test_interior_fraction_off_by_ten_percent_fails(outputs):
    out = outputs("portfolio_memory")

    def bump_middle(rows):
        mid = next(r for r in rows if float(r["t"]) == 0.5)
        mid["mean_pi"] = repr(float(mid["mean_pi"]) * 1.10)
    _edit_csv(out / stage_dir("solve-portfolio") / "strategy.csv", bump_middle)
    assert not _results("portfolio_memory", out)["portfolio_fraction"]


def test_mean_x_shifted_six_standard_errors_fails(outputs):
    out = outputs("simulate_long_grid")
    config = WORKLOADS["simulate_long_grid"].config
    m = config["monte_carlo"]["paths"]
    mean_ref = checks.mean_recursion(config)

    def shift_closest(rows):
        # the node nearest its expected mean, so that both checks must see the shift
        z = [abs(float(r["mean_X"]) - mean_ref[i]) / (float(r["std_X"]) / math.sqrt(m))
             for i, r in enumerate(rows) if i > 0]
        node = rows[1 + z.index(min(z))]
        node["mean_X"] = repr(float(node["mean_X"]) + 6.0 * float(node["std_X"]) / math.sqrt(m))
    _edit_csv(out / stage_dir("simulate") / "trajectory.csv", shift_closest)
    results = _results("simulate_long_grid", out)
    assert not results["trajectory_mean_X"]
    assert not results["trajectory_mean_z"]


def test_mean_p_at_horizon_scaled_fails(outputs):
    out = outputs("adjoint_memory_jumps")

    def scale_last(rows):
        last = max(rows, key=lambda r: float(r["t"]))
        last["mean_p"] = repr(float(last["mean_p"]) * (1.0 + 1e-6))
    _edit_csv(out / stage_dir("solve-adjoint") / "adjoint.csv", scale_last)
    assert not _results("adjoint_memory_jumps", out)["adjoint_mean_p_T"]


def test_negative_stationarity_statistic_fails(outputs):
    out = outputs("adjoint_memory_jumps")

    def negate_first(rows):
        rows[0]["statistic"] = repr(-float(rows[0]["statistic"]))
    _edit_csv(out / stage_dir("check-stationarity") / "stationarity.csv", negate_first)
    assert not _results("adjoint_memory_jumps", out)["stationarity_statistics"]


def _small(workload: str) -> dict:
    config = copy.deepcopy(WORKLOADS[workload].config)
    config["monte_carlo"]["paths"] //= 10
    return config


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_csvs_are_byte_identical(tmp_path, workload):
    config = _small(workload)
    plain = _produce(workload, tmp_path / "plain", config)
    traced = _produce(workload, tmp_path / "traced", config, trace=True)
    assert checks.same_csv_bytes(plain, traced).passed
    layers = json.loads((tmp_path / "traced" / "result.json").read_text())["layers"]
    for stage in WORKLOADS[workload].stages:
        assert layers[f"cli.{stage_dir(stage)}_s"] > 0.0
    spans = json.loads((tmp_path / "traced" / "trace.json").read_text())["spans"]
    assert all(end >= start for _name, _parent, start, end in spans)


def test_byte_comparison_sees_one_changed_byte(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "x.csv").write_text("t,v\n0,1.5\n")
    (tmp_path / "b" / "x.csv").write_text("t,v\n0,1.6\n")
    assert not checks.same_csv_bytes(tmp_path / "a", tmp_path / "b").passed


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = [*tracing.layer_metrics(tracing.Tracer()), "trace.wall_s", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layers}


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "simulate_long_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
