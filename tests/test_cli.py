import copy
import json
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control.cli import _DEFAULTS, ExperimentConfig, main
from volterra_control.errors import ConfigurationError
from volterra_control.reporting import write_manifest


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
    with pytest.raises(ConfigurationError, match="output.directory"):
        ExperimentConfig.load(_write_config(tmp_path, {"output": {"directory": 1e5}}))


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


_NUMBERS = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                     st.sampled_from([1e-8, -2.5e-12, 3e20, 1e16, 0.0]))
_NOISE = st.sampled_from([
    {"intensity": 0.0, "marks": [], "weights": []},
    {"intensity": 0.5, "marks": [-0.5, 0.5], "weights": [0.5, 0.5]},
    {"intensity": 2e-3, "marks": [0.25, -1e-6, 3.0], "weights": [0.25, 0.5, 0.25]},
])
_OVERRIDES = st.fixed_dictionaries({}, optional={
    "grid": st.fixed_dictionaries({"horizon": st.floats(1e-3, 50.0),
                                   "steps": st.integers(2, 4096)}),
    "noise": _NOISE,
    "model": st.fixed_dictionaries({"name": st.sampled_from(["constant", "exp_kernel_linear"]),
                                    "params": st.dictionaries(st.sampled_from(["b0", "sigma0"]),
                                                              _NUMBERS)}),
    "solver": st.fixed_dictionaries({}, optional={
        "degree": st.integers(1, 4), "ridge": st.floats(1e-14, 1e-2),
        "bracket": st.one_of(st.none(), st.tuples(_NUMBERS, _NUMBERS).map(list)),
        "bisection_rel_tol": st.floats(1e-9, 0.1)}),
    "control": st.fixed_dictionaries({"value": _NUMBERS, "lower": _NUMBERS}),
    "info": st.sampled_from([{"mode": "full"}, {"mode": "delayed", "delay": 0.125}]),
    "market": st.fixed_dictionaries({"b0": _NUMBERS, "floor": st.one_of(st.none(), _NUMBERS)}),
    "monte_carlo": st.fixed_dictionaries({"paths": st.integers(1, 10**6),
                                          "seed": st.integers(0, 2**32)}),
})
_FLAGS = st.fixed_dictionaries({
    "seed": st.one_of(st.none(), st.integers(0, 2**32)),
    "n_paths": st.one_of(st.none(), st.integers(1, 10**6)),
    "out_dir": st.one_of(st.none(), st.text("abc_-./", min_size=1, max_size=12)),
})


@settings(max_examples=40)
@given(overrides=_OVERRIDES, flags=_FLAGS)
def test_manifest_config_block_reloads_to_the_same_config(tmp_path_factory, overrides, flags):
    # the manifest's config block, written verbatim (JSON is YAML flow
    # style) and loaded again, resolves to the run's own configuration
    tmp = tmp_path_factory.mktemp("roundtrip")
    first = ExperimentConfig.load(_write_config(tmp, overrides), **flags)
    write_manifest(tmp / "manifest.json", first.manifest("simulate"))
    echoed = tmp / "echoed.yaml"
    echoed.write_text(json.dumps(json.loads((tmp / "manifest.json").read_text())["config"]))
    again = ExperimentConfig.load(str(echoed))
    assert again.raw == first.raw
    assert (again.grid, again.jumps, again.seed, again.n_paths, again.out_dir) == \
        (first.grid, first.jumps, first.seed, first.n_paths, first.out_dir)
    assert again.basis == first.basis and again.info == first.info
