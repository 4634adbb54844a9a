import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import cli, reporting
from volterra_control.cli import _DEFAULTS, _SUBCOMMANDS, ExperimentConfig, main
from volterra_control.errors import ConfigurationError, RegressionError
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
        ExperimentConfig.load(_write_config(tmp_path, {"info": {"delay": "psychic"}}))
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


# the stage a malformed field is given to, by field or by section: a field
# the loader reads fails in any stage
_STAGE_READING = {
    "utility": "solve-portfolio",
    "market": "solve-portfolio",
    "market.sigma0": "merton-test",
    "info.delay": "check-stationarity",
}


@pytest.mark.parametrize("section, values, field", [
    ("grid", {"steps": "abc"}, "grid.steps"),
    ("grid", {"steps": 1}, "grid.steps"),
    ("grid", {"horizon": -1.0}, "grid.horizon"),
    ("noise", {"marks": 0.5, "weights": [1.0]}, "noise.marks"),
    ("noise", {"intensity": "often"}, "noise.intensity"),
    ("solver", {"degree": 0}, "solver.degree"),
    ("solver", {"ridge": [1e-8]}, "solver.ridge"),
    ("info", {"delay": "soon"}, "info.delay"),
    ("monte_carlo", {"seed": "x"}, "monte_carlo.seed"),
    ("control", {"value": "abc"}, "control.value"),
    ("control", {"value": 12.0}, "control.value"),
    ("control", {"lower": [0.0]}, "control.lower"),
    ("control", {"upper": -20.0}, "control.upper"),
    ("utility", {"kind": "power", "exponent": "half"}, "utility.exponent"),
    ("utility", {"kind": "power", "exponent": 1.5}, "utility.exponent"),
    ("market", {"b0": "x"}, "market.b0"),
    ("market", {"decay_sigma": [1.0]}, "market.decay_sigma"),
    ("market", {"sigma0": "vol"}, "market.sigma0"),
    ("market", {"sigma0": -0.2}, "market.sigma0"),
    ("market", {"wealth": "rich"}, "market.wealth"),
    ("market", {"floor": "low"}, "market.floor"),
    # removed fields, now refused as unknown fields (test_removed_field_is_an_unknown_field)
    ("solver", {"bracket": 3}, "solver.bracket"),
    ("solver", {"bracket": [50.0, 5.0]}, "solver.bracket"),
    ("solver", {"bisection_rel_tol": "tight"}, "solver.bisection_rel_tol"),
    ("info", {"delay": -0.1}, "info.delay"),
    ("info", {"delay": 2.0}, "info.delay"),
    ("model", {"name": "custom"}, "model.name"),
    ("model", {"params": {"b0": "abc"}}, "model.params.b0"),
    ("model", {"params": [1, 2]}, "model.params"),
    ("performance", {"terminal": [1]}, "performance.terminal"),
    ("performance", {"terminal": "cube"}, "performance.terminal"),
    ("performance", {"running": "cube"}, "performance.running"),
    ("utility", {"kind": [1]}, "utility.kind"),
    ("control", {"kind": "ramp"}, "control.kind"),
    ("noise", {"intensity": 1.0, "marks": [-1.0, 1.0], "weights": [1.0]}, "noise.weights"),
    ("noise", {"intensity": 1.0, "marks": [-1.0, 1.0], "weights": [0.5, 0.6]}, "noise.weights"),
    ("noise", {"intensity": 1.0, "marks": [-1.0, 1.0], "weights": [1.5, -0.5]}, "noise.weights"),
    ("noise", {"intensity": 1.0, "marks": [-1.0, 0.0], "weights": [0.5, 0.5]}, "noise.marks"),
    ("grid", {"horizon": float("inf")}, "grid.horizon"),
    ("model", {"params": {"b1": 0.1}}, "'b1'"),
])
def test_malformed_field_is_a_config_error_naming_it(tmp_path, capsys, section, values, field):
    # a value of the wrong type or outside its domain exits 2 without a
    # traceback, in a stage that reads the field
    stage = _STAGE_READING.get(field, _STAGE_READING.get(section, "simulate"))
    path = _write_config(tmp_path, {section: values})
    assert main([stage, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err


@pytest.mark.parametrize("section, values, field", [
    ("info", {"mode": "delayed", "delay": 0.25}, "info.mode"),
    ("solver", {"bracket": [5.0, 50.0]}, "solver.bracket"),
    ("solver", {"bisection_rel_tol": 1e-3}, "solver.bisection_rel_tol"),
])
def test_removed_field_is_an_unknown_field(tmp_path, capsys, section, values, field):
    # info.delay alone sets the information, and the calibration's bracket and
    # tolerance are fixed: the old fields are refused by name, before sampling
    path = _write_config(tmp_path, {section: values})
    for stage in ("solve-portfolio", "check-stationarity"):
        assert main([stage, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"unknown config field {field!r}" in err and "Traceback" not in err


def test_simulate_writes_artifacts_and_manifest(tmp_path):
    out = tmp_path / "run"
    status = main(["simulate", "--paths", "2000", "--seed", "5", "--out", str(out)])
    assert status == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,mean_X,std_X,q05,q95"
    assert len(lines) == 66  # header + 65 nodes
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


def test_check_malliavin_with_jumps_samples_once(tmp_path, monkeypatch):
    # the jump-free bundle behind Clark-Ocone is the sampled dW with no marks
    from volterra_control import cli

    calls = []
    sample = cli.sample_paths
    monkeypatch.setattr(cli, "sample_paths", lambda *args: calls.append(args) or sample(*args))
    path = _write_config(tmp_path, {
        "grid": {"steps": 16},
        "noise": {"intensity": 1.0, "marks": [-1.0, 1.0], "weights": [0.5, 0.5]},
        "monte_carlo": {"paths": 2000, "seed": 2},
    })
    main(["check-malliavin", "--config", path, "--out", str(tmp_path / "mall")])
    assert len(calls) == 1


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
    lines = (out / "adjoint.csv").read_text().splitlines()
    assert lines[0] == "t,mean_p,mean_q,picard_iters"  # no marks, so no mean_r columns
    assert len(lines) == 16 + 2  # header + N + 1 nodes


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


def test_both_portfolio_stages_write_the_same_solve(tmp_path):
    # solve-portfolio and merton-test share one solve and its tables, and strategy.csv
    # holds the solve's per-node statistics
    from volterra_control.portfolio import solve_portfolio

    path = _write_config(tmp_path, {
        "grid": {"steps": 16},
        "market": {"decay_b": 1.0},
        "monte_carlo": {"paths": 4000, "seed": 2},
    })
    for stage in ("solve-portfolio", "merton-test"):
        assert main([stage, "--config", path, "--out", str(tmp_path / stage)]) == 0
    for name in ("strategy.csv", "calibration.csv"):
        assert (tmp_path / "solve-portfolio" / name).read_bytes() == \
            (tmp_path / "merton-test" / name).read_bytes()
    cfg = ExperimentConfig.load(path)
    solution = solve_portfolio(cfg.market(), cfg.utility(), cfg.sample(), basis=cfg.basis)
    table = np.genfromtxt(tmp_path / "solve-portfolio" / "strategy.csv", delimiter=",",
                          names=True)
    assert np.array_equal(table["mean_pi"], solution.mean_pi)
    assert np.array_equal(table["std_pi"], solution.std_pi)


def test_merton_interior_holds_both_quarter_nodes(tmp_path, monkeypatch, capsys):
    # the interior is [T/4, 3T/4] with both ends: a fraction off by 100 % at node N/4 or
    # 3N/4 fails the stage, and one at the node just outside either end does not count
    path = _write_config(tmp_path, {
        "grid": {"steps": 16},
        "market": {"decay_b": 1.0},
        "monte_carlo": {"paths": 4000, "seed": 2},
    })
    solve = cli.solve_portfolio
    for node, inside in ((3, False), (4, True), (12, True), (13, False)):
        def doubled(*args, node=node, **kwargs):
            solution = solve(*args, **kwargs)
            solution.mean_pi[node] *= 2.0
            return solution

        monkeypatch.setattr(cli, "solve_portfolio", doubled)
        status = main(["merton-test", "--config", path, "--out", str(tmp_path / str(node))])
        worst = float(re.search(r"interior fraction within ([0-9.]+)%",
                                capsys.readouterr().out).group(1))
        assert (status, worst > 90.0) == ((1, True) if inside else (0, False)), node


def test_calibration_rows_interpolate_to_the_solved_c(tmp_path, monkeypatch):
    # calibration.csv is read by taking the largest c with G > 0 and the smallest c
    # with G <= 0 and interpolating linearly between them; that must give the solve's c
    solve, solved = cli.solve_portfolio, []

    def kept(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(cli, "solve_portfolio", kept)
    path = _write_config(tmp_path, {
        "grid": {"steps": 16},
        "market": {"decay_b": 1.0},
        "monte_carlo": {"paths": 4000, "seed": 2},
    })
    out = tmp_path / "p"
    assert main(["solve-portfolio", "--config", path, "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "calibration.csv", delimiter=",", names=True)
    pairs = list(zip(rows["c_value"], rows["G_value"]))
    above, below = [p for p in pairs if p[1] > 0.0], [p for p in pairs if p[1] <= 0.0]
    assert above and below
    (c_lo, g_lo), (c_hi, g_hi) = max(above), min(below)
    c = c_lo + g_lo * (c_hi - c_lo) / (g_lo - g_hi)
    assert abs(c - solved[0].c) <= 1e-9 * solved[0].c


def test_info_delay_is_the_delayed_information(tmp_path):
    # the config's info.delay is InfoMode.delayed(delay) of the Python API
    from volterra_control.adjoint import simulated_state_feature, solve_general
    from volterra_control.hamiltonian import check_stationarity
    from volterra_control.models import InfoMode
    from volterra_control.volterra import simulate_integral_form

    path = _write_config(tmp_path, {**_MEMORY_JUMP_CONFIG, "info": {"delay": 0.25}})
    assert main(["check-stationarity", "--config", path, "--out", str(tmp_path / "cli")]) == 0
    cfg = ExperimentConfig.load(_write_config(tmp_path, _MEMORY_JUMP_CONFIG))
    model = cfg.model()
    states = simulate_integral_form(model, cfg.control(), cfg.sample())
    triple, field = solve_general(model, cfg.performance(), states,
                                  features=[simulated_state_feature(model, states)])
    report = check_stationarity(triple, field, info=InfoMode.delayed(0.25))
    # .17g round-trips a float, so the columns read back are the report's exactly
    table = np.genfromtxt(tmp_path / "cli" / "stationarity.csv", delimiter=",", names=True,
                          dtype=None, encoding="utf-8")
    assert np.array_equal(table["t"], report.nodes)
    assert np.array_equal(table["statistic"], report.normalized)
    assert np.array_equal(table["pass"], report.normalized <= 0.05)


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


def test_memory_jump_adjoint_runs_are_byte_identical(tmp_path):
    # the memory Hamiltonian with jumps (lifted forward sums, restarted state
    # runs) writes the same bytes on a repeated run
    path = _write_config(tmp_path, {
        "grid": {"steps": 8},
        "noise": {"intensity": 0.5, "marks": [-0.5, 0.5], "weights": [0.5, 0.5]},
        "model": {"name": "exp_kernel_linear",
                  "params": {"b0": 0.1, "sigma0": 0.3, "jump0": 0.1, "decay_b": 1.0,
                             "decay_sigma": 0.8, "decay_jump": 0.5}},
        "performance": {"terminal": "log"},
        "control": {"kind": "constant", "value": 0.5},
        "monte_carlo": {"paths": 3000, "seed": 13},
    })
    for tag in ("a", "b"):
        for command in ("solve-adjoint", "check-stationarity"):
            assert main([command, "--config", path, "--out", str(tmp_path / tag)]) == 0
    for name in ("adjoint.csv", "stationarity.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


_MEMORY_JUMP_CONFIG = {
    "grid": {"steps": 8},
    "noise": {"intensity": 0.5, "marks": [-0.5, 0.5], "weights": [0.5, 0.5]},
    "model": {"name": "exp_kernel_linear",
              "params": {"b0": 0.1, "sigma0": 0.3, "jump0": 0.1, "decay_b": 1.0,
                         "decay_sigma": 0.8, "decay_jump": 0.5}},
    "performance": {"terminal": "log"},
    "control": {"kind": "constant", "value": 0.5},
    "monte_carlo": {"paths": 3000, "seed": 13},
}


@pytest.mark.parametrize("workload, stages, info", [
    ("simulate_long_grid", ("simulate",), None),
    ("adjoint_memory_jumps", ("solve-adjoint", "check-stationarity", "gateaux"), None),
    ("adjoint_memory_jumps", ("check-stationarity",), {"delay": 0.25}),
    ("adjoint_memory_jumps", ("check-malliavin",), None),
], ids=["simulate", "adjoint", "delayed", "malliavin"])
def test_stages_with_jumps_build_no_dense_count_array(tmp_path, no_dense_counts, workload,
                                                      stages, info):
    # every reader of these stages works from the jump events, a node's row at a
    # time: none forms the dense (N, M, K) counts
    from cli_runs import WORKLOADS

    config = {**WORKLOADS[workload].config, "monte_carlo": {"paths": 2000, "seed": 5}}
    if info is not None:
        config["info"] = info
    path = _write_config(tmp_path, config)
    for stage in stages:
        assert main([stage, "--config", path, "--out", str(tmp_path / stage)]) == 0


def _refuse_sampling(monkeypatch):
    from volterra_control import cli

    def sample(*args, **kwargs):
        raise AssertionError("paths were sampled")

    monkeypatch.setattr(cli, "sample_paths", sample)


@pytest.mark.parametrize("command", ["solve-adjoint", "check-stationarity", "gateaux"])
def test_memory_jump_adjoint_runs_beyond_the_old_guard(tmp_path, monkeypatch, command):
    # a config model is affine in x with its decays declared and a config control is
    # constant, so reverse sweeps give the jump field too: no stage re-runs the
    # simulator for a state sensitivity, and none is guarded in grid steps
    from volterra_control import adjoint
    from volterra_control.adjoint import _MAX_STEPS

    def rerun(*args, **kwargs):
        raise AssertionError("a state sensitivity re-ran the simulator")

    monkeypatch.setattr(adjoint, "integral_form_rows", rerun)
    path = _write_config(tmp_path, {**_MEMORY_JUMP_CONFIG, "grid": {"steps": _MAX_STEPS + 44}})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["solve-adjoint", "check-stationarity", "gateaux"])
def test_each_adjoint_stage_solves_the_adjoint_once(tmp_path, monkeypatch, command):
    from volterra_control import cli

    calls, solve = [], cli.solve_adjoint

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_adjoint", counted)
    path = _write_config(tmp_path, _MEMORY_JUMP_CONFIG)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_jump_free_memory_adjoint_runs_beyond_the_cost_guard(tmp_path):
    # without jumps the state feature of an open-loop memory model is one reverse
    # sweep, with no restarted run, so the step guard does not apply
    from volterra_control.adjoint import _MAX_STEPS

    path = _write_config(tmp_path, {**_MEMORY_JUMP_CONFIG, "noise": {"intensity": 0.0},
                                    "grid": {"steps": _MAX_STEPS + 44},
                                    "monte_carlo": {"paths": 400, "seed": 13}})
    assert main(["solve-adjoint", "--config", path, "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "adjoint.csv").read_text().splitlines()
    assert len(lines) == _MAX_STEPS + 46


def test_memory_free_adjoint_runs_beyond_the_cost_guard(tmp_path):
    # the default `constant` model has no memory: it restarts nothing and sums no
    # history, so the step guard does not apply
    path = _write_config(tmp_path, {"grid": {"steps": 300}, "monte_carlo": {"paths": 2000}})
    assert main(["solve-adjoint", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert len((tmp_path / "o" / "adjoint.csv").read_text().splitlines()) == 302


@pytest.mark.parametrize("command", ["solve-adjoint", "check-stationarity", "gateaux"])
def test_adjoint_sample_below_the_basis_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                           command):
    # the adjoint fits 1 raw feature (basis dimension 4 at degree 3, so 40
    # paths); the stationarity check fits 3 with jumps (dimension 20, 200 paths)
    _refuse_sampling(monkeypatch)
    paths = 100 if command == "check-stationarity" else 39
    path = _write_config(tmp_path, {**_MEMORY_JUMP_CONFIG, "monte_carlo": {"paths": paths}})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "monte_carlo.paths" in err


def test_adjoint_sample_at_the_basis_floor_runs(tmp_path):
    # the smallest samples the pre-check lets through are the ones the fits accept
    for command, paths in (("solve-adjoint", 40), ("check-stationarity", 200)):
        path = _write_config(tmp_path, {**_MEMORY_JUMP_CONFIG, "monte_carlo": {"paths": paths}})
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0


def test_portfolio_sample_below_the_batches_is_a_config_error(tmp_path, capsys, monkeypatch):
    # every portfolio fit is on a one-feature basis (dimension 4 at degree 3, 10 paths
    # per column): 40 paths; merton-test at 40 fails its 5 % gate, so the floor runs
    # solve-portfolio only
    with monkeypatch.context() as patch:
        _refuse_sampling(patch)
        for command in ("solve-portfolio", "merton-test"):
            assert main([command, "--paths", "39", "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "monte_carlo.paths" in err
    assert main(["solve-portfolio", "--paths", "40", "--out", str(tmp_path / "floor")]) == 0


def test_report_runs_all_stages(tmp_path, capsys):
    # the merton stage carries a 5% accuracy gate, so give it a real sample; the
    # line says what the summary measures, exit statuses, not the checks' verdicts
    path = _write_config(tmp_path, {
        "grid": {"steps": 32},
        "monte_carlo": {"paths": 20_000, "seed": 12},
    })
    out = tmp_path / "report"
    assert main(["report", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "report: all stages exited 0"
    summary = (out / "report_summary.csv").read_text().splitlines()
    assert summary[0] == "stage,exit_status"
    assert len(summary) == 8  # seven stages
    files = {
        "simulate": {"trajectory.csv", "performance.csv"},
        "check-malliavin": {"malliavin_checks.csv"},
        "solve-adjoint": {"adjoint.csv"},
        "check-stationarity": {"stationarity.csv"},
        "gateaux": {"gateaux.csv"},
        "solve-portfolio": {"strategy.csv", "calibration.csv"},
        "merton-test": {"strategy.csv", "calibration.csv", "objective.csv"},
    }
    assert set(files) == set(_SUBCOMMANDS)
    report = json.loads((out / "manifest.json").read_text())
    assert {p.name for p in out.iterdir()} == \
        {"report_summary.csv", "manifest.json"} | {s.replace("-", "_") for s in files}
    for stage, names in files.items():
        stage_out = out / stage.replace("-", "_")
        assert {p.name for p in stage_out.iterdir()} == names | {"manifest.json"}
        manifest = json.loads((stage_out / "manifest.json").read_text())
        assert manifest["command"] == stage
        assert manifest["config"] == report["config"]


def test_report_records_a_raising_stage_and_runs_the_rest(tmp_path, capsys, monkeypatch):
    raising = {"check-malliavin": ConfigurationError("bad field"),
               "solve-portfolio": RegressionError("no fit")}
    ran = []

    def stage(name):
        def run(cfg):
            ran.append(name)
            if name in raising:
                raise raising[name]
            return cli.StageResult({}, "ran")
        return run

    for name in list(_SUBCOMMANDS):
        monkeypatch.setitem(_SUBCOMMANDS, name, stage(name))
    out = tmp_path / "report"
    assert main(["report", "--out", str(out)]) == 1
    assert ran == list(_SUBCOMMANDS)
    summary = (out / "report_summary.csv").read_text().splitlines()
    assert summary[0] == "stage,exit_status"
    status = dict(line.split(",") for line in summary[1:])
    assert status == {name: {"check-malliavin": "2", "solve-portfolio": "1"}.get(name, "0")
                      for name in _SUBCOMMANDS}
    assert (out / "manifest.json").exists()
    printed = capsys.readouterr()
    assert printed.out.splitlines()[-1] == \
        "report: stages exiting non-zero: ['check-malliavin', 'solve-portfolio']"
    err = printed.err
    assert "config error: check-malliavin: bad field" in err
    assert "solve-portfolio failed: RegressionError: no fit" in err


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


# a sigma-memory market on a small sample: a fitted BSVIE fraction at node 2 leaves
# [-10, 10] on 2 of the 1000 paths
# Power utility at zero decays: the cubic fit of F at T dips towards 0 in the tail of S_N,
# so the fitted wealth of one path at node 12 is positive but small, and its fraction
# leaves the bounds (ROADMAP, Fix first, item 6).
_FRACTION_OUT_OF_BOUNDS = {
    "grid": {"steps": 16},
    "market": {"decay_b": 0.0, "decay_sigma": 0.0},
    "utility": {"kind": "power", "exponent": 0.5},
    "monte_carlo": {"paths": 1000, "seed": 7},
}


def test_module_error_surfaces_as_nonzero_exit(tmp_path, capsys):
    path = _write_config(tmp_path, _FRACTION_OUT_OF_BOUNDS)
    status = main(["merton-test", "--config", path, "--out", str(tmp_path / "p")])
    assert status == 1
    # a stage that raises writes none of its files, not even the solved strategy.csv
    assert not (tmp_path / "p").exists()
    err = capsys.readouterr().err
    assert "failed" in err
    # nothing in the config is wrong: the computed fraction is, so it is no config error
    assert "RegressionError: merton-test:" in err and "at node 12 " in err
    assert "config error" not in err


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(reporting.os, "replace", refuse)
    for write, payload in ((reporting.write_csv, (("a",), [(1.0,)])),
                           (reporting.write_manifest, ({"a": 1},))):
        target = tmp_path / f"{write.__name__}.out"
        with pytest.raises(OSError, match=write.__name__):
            write(target, *payload)
        assert list(tmp_path.iterdir()) == []


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
    # nor may the root
    path.write_text("- grid\n- monte_carlo\n")
    with pytest.raises(ConfigurationError, match="config root must be a mapping.*list"):
        ExperimentConfig.load(str(path))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config root must be a mapping" in capsys.readouterr().err


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
        "degree": st.integers(1, 4), "ridge": st.floats(1e-14, 1e-2)}),
    "control": st.fixed_dictionaries({"value": _NUMBERS, "lower": _NUMBERS}),
    "info": st.sampled_from([{"delay": 0.0}, {"delay": 0.125}]),
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
