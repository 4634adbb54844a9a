import copy
import json
from pathlib import Path

import pytest
import yaml

from volterra_control.cli import _DEFAULTS, ExperimentConfig, main
from volterra_control.errors import ConfigurationError


def _write_config(tmp_path, payload):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def test_defaults_load_without_file():
    cfg = ExperimentConfig.load(None)
    assert cfg.grid.steps == 64
    assert cfg.n_paths == 100_000
    assert cfg.info.is_full


def test_unknown_field_rejected(tmp_path):
    path = _write_config(tmp_path, {"grid": {"horizon": 1.0, "stepz": 32}})
    with pytest.raises(ConfigurationError, match="grid.stepz"):
        ExperimentConfig.load(path)


def test_bad_values_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        ExperimentConfig.load(_write_config(tmp_path, {"monte_carlo": {"paths": 0}}))
    with pytest.raises(ConfigurationError):
        ExperimentConfig.load(_write_config(tmp_path, {"info": {"mode": "psychic"}}))
    with pytest.raises(ConfigurationError):
        ExperimentConfig.load(_write_config(
            tmp_path, {"noise": {"intensity": 1.0, "marks": [], "weights": []}}))


def test_overrides_apply(tmp_path):
    path = _write_config(tmp_path, {"monte_carlo": {"paths": 500, "seed": 1}})
    cfg = ExperimentConfig.load(path, seed=9, n_paths=700, out_dir=str(tmp_path / "o"))
    assert cfg.seed == 9 and cfg.n_paths == 700
    assert cfg.out_dir == tmp_path / "o"


def test_config_error_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, {"grid": {"stepz": 1}})
    assert main(["simulate", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_writes_artifacts_and_manifest(tmp_path):
    out = tmp_path / "run"
    status = main(["simulate", "--paths", "2000", "--seed", "5", "--out", str(out)])
    assert status == 0
    assert (out / "trajectory.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["monte_carlo"]["paths"] == 2000
    assert manifest["config"]["solver"]["degree"] == 3
    assert "numpy" in manifest["versions"]


def test_repeated_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--paths", "3000", "--seed", "11",
                     "--out", str(out)]) == 0
    for name in ("trajectory.csv", "performance.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # manifests agree except for the echoed output directory
    man_a = json.loads((a / "manifest.json").read_text())
    man_b = json.loads((b / "manifest.json").read_text())
    man_a["config"]["output"]["directory"] = man_b["config"]["output"]["directory"]
    assert man_a == man_b


def test_check_malliavin_small_scale(tmp_path):
    path = _write_config(tmp_path, {
        "grid": {"steps": 16},
        "noise": {"intensity": 1.0, "marks": [-1.0, 1.0], "weights": [0.5, 0.5]},
        "monte_carlo": {"paths": 4000, "seed": 2},
    })
    out = tmp_path / "mall"
    assert main(["check-malliavin", "--config", path, "--out", str(out)]) == 0
    lines = (out / "malliavin_checks.csv").read_text().splitlines()
    assert lines[0] == "check_name,lhs,rhs,stderr,pass"
    assert all(line.endswith("true") for line in lines[1:])


def test_check_malliavin_chaos_target_is_the_grid_value(tmp_path):
    # E[I_2^2] = 2 T^2 (1 - 1/N) on the grid: 1.875 for T = 1, N = 16
    path = _write_config(tmp_path, {"grid": {"steps": 16},
                                    "monte_carlo": {"paths": 2000, "seed": 1}})
    out = tmp_path / "chaos"
    main(["check-malliavin", "--config", path, "--out", str(out)])
    rows = [line.split(",") for line in
            (out / "malliavin_checks.csv").read_text().splitlines()[1:]]
    (chaos,) = [row for row in rows if row[0] == "second_chaos_isometry"]
    assert float(chaos[2]) == 1.875


def test_solve_adjoint_x_independent(tmp_path):
    path = _write_config(tmp_path, {
        "grid": {"steps": 16},
        "model": {"name": "x_independent_linear",
                  "params": {"b0": 0.1, "sigma0": 0.3}},
        "performance": {"terminal": "square"},
        "control": {"kind": "constant", "value": 0.5},
        "monte_carlo": {"paths": 4000, "seed": 3},
    })
    out = tmp_path / "adj"
    assert main(["solve-adjoint", "--config", path, "--out", str(out)]) == 0
    assert (out / "adjoint.csv").exists()


def test_merton_subcommand_small_scale(tmp_path):
    out = tmp_path / "merton"
    path = _write_config(tmp_path, {
        "grid": {"steps": 32},
        "monte_carlo": {"paths": 20000, "seed": 4},
    })
    assert main(["merton-test", "--config", path, "--out", str(out)]) == 0
    strategy = (out / "strategy.csv").read_text().splitlines()
    assert strategy[0] == "t,theta0,mean_pi,std_pi"
    assert (out / "calibration.csv").exists()
    assert (out / "objective.csv").exists()


def test_stationarity_and_gateaux_subcommands(tmp_path):
    path = _write_config(tmp_path, {
        "grid": {"steps": 16},
        "model": {"name": "constant", "params": {"b0": 0.05, "sigma0": 0.2}},
        "performance": {"terminal": "log"},
        "control": {"kind": "constant", "value": 1.25},
        "monte_carlo": {"paths": 4000, "seed": 6},
    })
    out = tmp_path / "stat"
    assert main(["check-stationarity", "--config", path, "--out", str(out)]) == 0
    lines = (out / "stationarity.csv").read_text().splitlines()
    assert lines[0] == "t,statistic,threshold,pass"
    out2 = tmp_path / "gx"
    assert main(["gateaux", "--config", path, "--out", str(out2)]) == 0
    lines = (out2 / "gateaux.csv").read_text().splitlines()
    assert len(lines) == 4  # header + three windows


def test_adjoint_subcommand_memory_market(tmp_path):
    # x-dependent model with decaying kernels takes the re-simulated
    # sensitivity route through the driver
    path = _write_config(tmp_path, {
        "grid": {"steps": 8},
        "model": {"name": "exp_kernel_linear",
                  "params": {"b0": 0.2, "sigma0": 0.3, "decay_b": 1.0,
                             "decay_sigma": 0.5}},
        "performance": {"terminal": "square"},
        "control": {"kind": "constant", "value": 0.5},
        "monte_carlo": {"paths": 2000, "seed": 8},
    })
    out = tmp_path / "mem"
    assert main(["solve-adjoint", "--config", path, "--out", str(out)]) == 0


def test_report_runs_all_stages(tmp_path, monkeypatch):
    monkeypatch.setenv("VOLTERRA_CONTROL_WORKERS", "2")
    # the merton stage carries a 5% accuracy gate, so give it a real sample
    path = _write_config(tmp_path, {
        "grid": {"steps": 32},
        "monte_carlo": {"paths": 20_000, "seed": 12},
    })
    out = tmp_path / "report"
    assert main(["report", "--config", path, "--out", str(out)]) == 0
    summary = (out / "report_summary.csv").read_text().splitlines()
    assert summary[0] == "stage,exit_status"
    assert len(summary) == 8  # seven stages
    assert (out / "simulate" / "trajectory.csv").exists()
    assert (out / "merton_test" / "strategy.csv").exists()


def _assert_pristine_defaults(cfg):
    assert cfg.n_paths == 100_000
    assert cfg.seed == 7
    assert cfg.out_dir == Path("out")
    assert cfg.raw["noise"]["marks"] == []
    assert cfg.raw["model"]["params"] == {}


def test_cli_overrides_do_not_leak_into_defaults(tmp_path):
    before = copy.deepcopy(_DEFAULTS)
    out = tmp_path / "run"
    assert main(["simulate", "--paths", "2000", "--seed", "5", "--out", str(out)]) == 0
    assert _DEFAULTS == before
    _assert_pristine_defaults(ExperimentConfig.load(None))


def test_overrides_on_config_file_do_not_leak_into_defaults(tmp_path):
    # the file leaves monte_carlo and output unset, so both come from defaults
    path = _write_config(tmp_path, {"grid": {"steps": 8}})
    before = copy.deepcopy(_DEFAULTS)
    out = tmp_path / "run"
    assert main(["simulate", "--config", path, "--paths", "2000", "--seed", "5",
                 "--out", str(out)]) == 0
    assert _DEFAULTS == before
    cfg = ExperimentConfig.load(path)
    assert cfg.grid.steps == 8
    assert (cfg.n_paths, cfg.seed, cfg.out_dir) == (100_000, 7, Path("out"))
    _assert_pristine_defaults(ExperimentConfig.load(None))


def test_editing_loaded_config_does_not_leak(tmp_path):
    before = copy.deepcopy(_DEFAULTS)
    cfg = ExperimentConfig.load(None)
    cfg.raw["noise"]["marks"].append(1.0)
    cfg.raw["noise"]["weights"].append(1.0)
    cfg.raw["model"]["params"]["b0"] = 0.3
    cfg.raw["monte_carlo"]["seed"] = 99
    cfg.raw["monte_carlo"]["paths"] = 10
    cfg.raw["output"]["directory"] = str(tmp_path)
    cfg.raw["solver"]["degree"] = 1
    assert _DEFAULTS == before
    again = ExperimentConfig.load(None)
    _assert_pristine_defaults(again)
    assert again.raw == before


def test_module_error_surfaces_as_nonzero_exit(tmp_path, capsys):
    path = _write_config(tmp_path, {
        "solver": {"bracket": [5.0, 50.0]},
        "monte_carlo": {"paths": 2000, "seed": 5},
    })
    status = main(["solve-portfolio", "--config", path, "--out", str(tmp_path / "p")])
    assert status == 1
    assert "failed" in capsys.readouterr().err


def test_section_that_is_not_a_mapping_is_a_config_error(tmp_path, capsys):
    # a bare `grid:` line loads as grid: None
    path = tmp_path / "config.yaml"
    path.write_text("grid:\nmonte_carlo: {paths: 100}\n")
    with pytest.raises(ConfigurationError, match="'grid'"):
        ExperimentConfig.load(str(path))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'grid'" in err
    path.write_text("solver: [3, 1.0e-8]\n")
    with pytest.raises(ConfigurationError, match="'solver'"):
        ExperimentConfig.load(str(path))
