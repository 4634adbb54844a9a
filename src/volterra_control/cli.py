"""Command-line interface: configuration, experiment orchestration, reports.

Every run reads one YAML config with sections mirroring the module layout
(grid, noise, model, performance, utility, control, info, monte_carlo,
solver, market, output), writes CSV artifacts plus a JSON manifest echoing
the resolved configuration, and is deterministic: identical config and seed
produce byte-identical numeric CSV content.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigurationError
from .grids import JumpModel, TimeGrid, sample_paths
from .malliavin import (
    RegressionBasis,
    brownian_square_grid_term,
    check_chaos_derivative,
    check_duality_brownian,
    check_duality_jump,
    clark_ocone_reconstruct,
    d_brownian,
    d_jump,
    iterated_integral,
    state_feature,
)
from .models import ControlProcess, InfoMode, PerformanceSpec, UtilitySpec, registry_get
from .reporting import write_csv, write_manifest
from .volterra import evaluate_performance, export_trajectory_csv, simulate_integral_form
from .adjoint import (
    export_adjoint_csv,
    simulated_state_feature,
    solve_explicit_x_independent,
    solve_general,
)
from .hamiltonian import (
    GATEAUX_WINDOWS_SIGMA,
    check_stationarity,
    export_stationarity_csv,
    gateaux_check,
    perturbation_window,
)
from .portfolio import (
    MarketModel,
    export_portfolio_csvs,
    solve_portfolio,
    verify_optimality,
)

_WORKERS_ENV = "VOLTERRA_CONTROL_WORKERS"


class _ConfigLoader(yaml.SafeLoader):
    """Safe YAML loader that also reads an exponent float without a dot,
    such as the 1e-08 that JSON writes, so a manifest's config block loads
    back as the numbers it echoes rather than as strings."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"))

_DEFAULTS = {
    "grid": {"horizon": 1.0, "steps": 64},
    "noise": {"intensity": 0.0, "marks": [], "weights": []},
    "model": {"name": "constant", "params": {}},
    "performance": {"running": "zero", "terminal": "log"},
    "utility": {"kind": "log", "exponent": 0.5},
    "control": {"kind": "constant", "value": 1.0, "lower": -10.0, "upper": 10.0},
    "info": {"mode": "full", "delay": 0.0},
    "monte_carlo": {"paths": 100_000, "seed": 7},
    "solver": {
        "degree": 3,
        "ridge": 1e-8,
        "bracket": None,
        "bisection_rel_tol": 1e-3,
    },
    "market": {
        "b0": 0.05,
        "sigma0": 0.2,
        "decay_b": 0.0,
        "decay_sigma": 0.0,
        "wealth": 1.0,
        "floor": None,
    },
    "output": {"directory": "out"},
}

_TERMINALS = {
    "zero": (lambda x: 0.0 * np.asarray(x, dtype=float), lambda x: 0.0 * np.asarray(x, dtype=float)),
    "identity": (lambda x: np.asarray(x, dtype=float), lambda x: 1.0 + 0.0 * np.asarray(x, dtype=float)),
    "log": (np.log, lambda x: 1.0 / np.asarray(x, dtype=float)),
    "square": (lambda x: np.asarray(x, dtype=float) ** 2, lambda x: 2.0 * np.asarray(x, dtype=float)),
}

_RUNNINGS = {
    "zero": lambda t, x, v: 0.0 * np.asarray(v, dtype=float),
    "one": lambda t, x, v: 1.0 + 0.0 * np.asarray(v, dtype=float),
    "control_square": lambda t, x, v: -np.asarray(v, dtype=float) ** 2,
}


def _merge(defaults: dict, overrides: dict, path: str = "") -> dict:
    """Return ``defaults`` updated by ``overrides`` as a fresh tree.

    The result shares no dict or list with either argument, so writing into
    it (per-run overrides, callers editing ``ExperimentConfig.raw``) can
    never reach the module-level defaults. A section with fields (e.g.
    ``grid``) must be given as a mapping.
    """
    out = copy.deepcopy(defaults)
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise ConfigurationError(f"unknown config field {path + key!r}")
        if isinstance(defaults[key], dict) and defaults[key]:  # a section with fields
            if not isinstance(value, dict):
                raise ConfigurationError(
                    f"config section {path + key!r} must be a mapping, got {value!r}")
            out[key] = _merge(defaults[key], value, path=f"{path}{key}.")
        else:  # leaf values and free-form sections (e.g. model parameters)
            out[key] = copy.deepcopy(value)
    return out


@dataclass
class ExperimentConfig:
    """Resolved experiment configuration with constructed domain objects."""

    raw: dict
    grid: TimeGrid
    jumps: JumpModel
    seed: int
    n_paths: int
    basis: RegressionBasis
    info: InfoMode
    out_dir: Path

    @classmethod
    def load(cls, path: str | None, seed: int | None = None,
             n_paths: int | None = None, out_dir: str | None = None) -> "ExperimentConfig":
        """Resolve the YAML file at ``path`` (defaults only if None).

        ``seed``, ``n_paths`` and ``out_dir`` (the ``--seed``, ``--paths``
        and ``--out`` flags) override ``monte_carlo.seed``,
        ``monte_carlo.paths`` and ``output.directory`` for this run only:
        each call gets its own copy of the configuration tree, so neither
        these overrides nor later edits to ``raw`` change what another
        ``load`` in the same process resolves.
        """
        data = {}
        if path is not None:
            with open(path, "r", encoding="utf-8") as handle:
                data = yaml.load(handle, Loader=_ConfigLoader) or {}
            if not isinstance(data, dict):
                raise ConfigurationError(f"config root must be a mapping, got {type(data)}")
        raw = _merge(_DEFAULTS, data)
        if seed is not None:
            raw["monte_carlo"]["seed"] = int(seed)
        if n_paths is not None:
            raw["monte_carlo"]["paths"] = int(n_paths)
        if out_dir is not None:
            raw["output"]["directory"] = out_dir
        g = raw["grid"]
        grid = TimeGrid(float(g["horizon"]), int(g["steps"]))
        nz = raw["noise"]
        if float(nz["intensity"]) > 0.0 and not nz["marks"]:
            raise ConfigurationError("noise.intensity > 0 requires noise.marks")
        jumps = JumpModel(float(nz["intensity"]), tuple(nz["marks"]), tuple(nz["weights"])) \
            if nz["marks"] else JumpModel.none()
        sv = raw["solver"]
        basis = RegressionBasis(degree=int(sv["degree"]), ridge=float(sv["ridge"]))
        info_cfg = raw["info"]
        if info_cfg["mode"] not in ("full", "delayed"):
            raise ConfigurationError(f"info.mode must be full or delayed, got {info_cfg['mode']!r}")
        info = InfoMode.full() if info_cfg["mode"] == "full" \
            else InfoMode.delayed(float(info_cfg["delay"]))
        mc = raw["monte_carlo"]
        if int(mc["paths"]) < 1:
            raise ConfigurationError("monte_carlo.paths must be positive")
        if not isinstance(raw["output"]["directory"], str):
            raise ConfigurationError(
                f"output.directory must be a string, got {raw['output']['directory']!r}")
        return cls(
            raw=raw,
            grid=grid,
            jumps=jumps,
            seed=int(mc["seed"]),
            n_paths=int(mc["paths"]),
            basis=basis,
            info=info,
            out_dir=Path(raw["output"]["directory"]),
        )

    def sample(self):
        return sample_paths(self.grid, self.jumps, self.n_paths, self.seed)

    def model(self):
        m = self.raw["model"]
        return registry_get(m["name"], dict(m.get("params") or {}))

    def performance(self) -> PerformanceSpec:
        p = self.raw["performance"]
        if p["terminal"] not in _TERMINALS:
            raise ConfigurationError(
                f"unknown terminal reward {p['terminal']!r}; options {sorted(_TERMINALS)}")
        if p["running"] not in _RUNNINGS:
            raise ConfigurationError(
                f"unknown running reward {p['running']!r}; options {sorted(_RUNNINGS)}")
        g, gp = _TERMINALS[p["terminal"]]
        domain = (0.25, 4.0) if p["terminal"] == "log" else (-3.0, 3.0)
        return PerformanceSpec(running=_RUNNINGS[p["running"]], terminal=g,
                               terminal_prime=gp, terminal_domain=domain)

    def utility(self) -> UtilitySpec:
        u = self.raw["utility"]
        if u["kind"] == "log":
            return UtilitySpec.log()
        if u["kind"] == "power":
            return UtilitySpec.power(float(u["exponent"]))
        raise ConfigurationError(f"unknown utility {u['kind']!r}")

    def control(self) -> ControlProcess:
        c = self.raw["control"]
        bounds = (float(c["lower"]), float(c["upper"]))
        if c["kind"] == "constant":
            return ControlProcess.constant(float(c["value"]), bounds)
        raise ConfigurationError(f"unsupported control kind {c['kind']!r} in config")

    def market(self) -> MarketModel:
        m = self.raw["market"]
        floor = m["floor"]
        return MarketModel.exponential(
            b0=float(m["b0"]), sigma0=float(m["sigma0"]),
            decay_b=float(m["decay_b"]), decay_sigma=float(m["decay_sigma"]),
            wealth=float(m["wealth"]),
            floor=None if floor is None else float(floor),
            horizon=self.grid.horizon,
        )

    def manifest(self, command: str) -> dict:
        return {
            "command": command,
            "config": self.raw,
            "seed": self.seed,
            "paths": self.n_paths,
            "versions": {
                "volterra_control": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
        }


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    paths = cfg.sample()
    model = cfg.model()
    control = cfg.control()
    states = simulate_integral_form(model, control, paths)
    export_trajectory_csv(cfg.out_dir / "trajectory.csv", states)
    est, se = evaluate_performance(cfg.performance(), states, control)
    write_csv(cfg.out_dir / "performance.csv",
              ("quantity", "estimate", "stderr"), [("J", est, se)])
    write_manifest(cfg.out_dir / "manifest.json", cfg.manifest("simulate"))
    print(f"simulate: J = {est:.6g} +- {se:.3g}; trajectory.csv written")
    return 0


def _cmd_check_malliavin(cfg: ExperimentConfig) -> int:
    paths = cfg.sample()
    basis = cfg.basis
    reports = {}
    functional = lambda p: p.brownian[-1] ** 2  # noqa: E731
    reports["duality_brownian"] = check_duality_brownian(
        functional, lambda p: p.brownian[:-1], paths, basis=basis)
    if cfg.jumps.intensity > 0.0:
        jump_sq = lambda p: p.jump_sum[-1] ** 2  # noqa: E731
        reports["duality_jump"] = check_duality_jump(
            jump_sq, np.ones((cfg.grid.steps, cfg.jumps.n_marks)), paths, basis=basis)
        rec_paths = sample_paths(cfg.grid, JumpModel.none(), cfg.n_paths, cfg.seed)
    else:
        rec_paths = paths
    rec = clark_ocone_reconstruct(functional, rec_paths, basis=basis)
    # the grid floor 1/sqrt(N) of the residual, and what the regressions leave: the
    # sample mean and p coefficients per node, each off by O(1/sqrt(M))
    grid_rms, rest_rms = rec.relative_split(brownian_square_grid_term(rec_paths))
    rest_bound = 3.0 * np.sqrt((1 + basis.dimension(1)) / rec_paths.n_paths)
    i2 = iterated_integral(1.0, 2, rec_paths)
    m = rec_paths.n_paths
    iso_mean = float((i2 ** 2).mean())
    iso_se = float((i2 ** 2).std(ddof=1) / np.sqrt(m))
    # E[I_2^2] on the grid: I_2 = 2 sum_{i<j} dW_i dW_j has no diagonal terms
    target = 2.0 * cfg.grid.horizon ** 2 * (1.0 - 1.0 / cfg.grid.steps)
    rows = [(name, rep.lhs, rep.rhs, rep.combined_stderr, rep.within())
            for name, rep in reports.items()]
    rows.append(("clark_ocone_relative_rms", rec.relative_rms, 0.0, 0.0,
                 rec.relative_rms <= 3.0 / np.sqrt(cfg.grid.steps)))
    rows.append(("clark_ocone_grid_term_rms", grid_rms, 1.0 / np.sqrt(cfg.grid.steps), 0.0,
                 grid_rms <= 3.0 / np.sqrt(cfg.grid.steps)))
    rows.append(("clark_ocone_remainder_rms", rest_rms, rest_bound, 0.0, rest_rms <= rest_bound))
    rows.append(("second_chaos_isometry", iso_mean, target, iso_se,
                 abs(iso_mean - target) <= 3.0 * iso_se))
    adapted = lambda p: p.brownian[cfg.grid.steps // 2]  # noqa: E731
    probe = float(np.abs(d_brownian(adapted, paths, cfg.grid.steps // 2 + 1)).max())
    if cfg.jumps.intensity > 0.0:
        probe = max(probe, float(np.abs(
            d_jump(adapted, paths, cfg.grid.steps // 2 + 1, 0)).max()))
    rows.append(("adaptedness_max_abs", probe, 0.0, 0.0, probe == 0.0))
    chaos = check_chaos_derivative(1.0, rec_paths,
                                   nodes=range(0, cfg.grid.steps, max(cfg.grid.steps // 8, 1)))
    worst = int(np.argmax(chaos.per_node))
    rows.append(("chaos_derivative_max_err", chaos.max_abs_error, chaos.bounds[worst], 0.0,
                 chaos.within()))
    write_csv(cfg.out_dir / "malliavin_checks.csv",
              ("check_name", "lhs", "rhs", "stderr", "pass"), rows)
    split = {"relative_rms": rec.relative_rms, "grid_term_rms": grid_rms,
             "remainder_rms": rest_rms, "remainder_bound": float(rest_bound)}
    write_manifest(cfg.out_dir / "manifest.json",
                   {**cfg.manifest("check-malliavin"), "clark_ocone": split})
    n_pass = sum(1 for r in rows if r[-1])
    print(f"check-malliavin: {n_pass}/{len(rows)} checks passed; malliavin_checks.csv written")
    return 0 if n_pass == len(rows) else 1


def _adjoint_pipeline(cfg: ExperimentConfig):
    paths = cfg.sample()
    model = cfg.model()
    control = cfg.control()
    perf = cfg.performance()
    record = [] if model.memory_state_coupling else None
    states = simulate_integral_form(model, control, paths, record=record)
    if model.x_independent:
        triple, field = solve_explicit_x_independent(model, perf, states, paths,
                                                     basis=cfg.basis)
    else:
        if model.memory_state_coupling:
            # the driver needs state sensitivities; measured by one re-simulation
            # per node (N of them, O((2 + K) N^2 M) in all), restarted there from
            # this run's recorded sums with the 2 + K perturbations on a variant axis
            feats = [simulated_state_feature(model, control, states, paths, record)]
        else:
            feats = [state_feature(states.values)]
        triple, field = solve_general(model, perf, control, states, paths,
                                      basis=cfg.basis, features=feats)
    return paths, model, control, perf, states, triple, field


def _cmd_solve_adjoint(cfg: ExperimentConfig) -> int:
    paths, _, _, _, _, triple, _ = _adjoint_pipeline(cfg)
    export_adjoint_csv(cfg.out_dir / "adjoint.csv", triple, paths.grid.nodes)
    write_manifest(cfg.out_dir / "manifest.json", cfg.manifest("solve-adjoint"))
    print(f"solve-adjoint: {triple.picard_iterations} sweeps; adjoint.csv written")
    return 0


def _cmd_check_stationarity(cfg: ExperimentConfig) -> int:
    paths, model, control, perf, states, triple, field = _adjoint_pipeline(cfg)
    feats = None if not model.x_independent else triple.features
    report = check_stationarity(model, perf, control, triple, field, states, paths,
                                info=cfg.info, basis=cfg.basis, features=feats)
    threshold = 0.05
    export_stationarity_csv(cfg.out_dir / "stationarity.csv", report, threshold)
    write_manifest(cfg.out_dir / "manifest.json", cfg.manifest("check-stationarity"))
    stat = report.max_interior()
    print(f"check-stationarity: max interior statistic {stat:.4f} "
          f"(threshold {threshold}); stationarity.csv written")
    return 0


def _cmd_gateaux(cfg: ExperimentConfig) -> int:
    paths, model, control, perf, states, triple, field = _adjoint_pipeline(cfg)
    n = cfg.grid.steps
    width = max(n // 8, 1)
    rows = []
    for name, start in (("early", n // 16), ("middle", (n - width) // 2),
                        ("late", n - width - n // 16)):
        beta = perturbation_window(n, start, width, alpha=1.0)
        rep = gateaux_check(model, perf, control, beta, paths, triple, field, states)
        rows.append((name, rep.finite_difference, rep.fd_stderr, rep.adjoint_form,
                     rep.adjoint_stderr, rep.within(GATEAUX_WINDOWS_SIGMA)))
    write_csv(cfg.out_dir / "gateaux.csv",
              ("window", "fd_derivative", "fd_stderr", "adjoint_form",
               "adjoint_stderr", "pass"), rows)
    write_manifest(cfg.out_dir / "manifest.json", cfg.manifest("gateaux"))
    ok = all(r[-1] for r in rows)
    print(f"gateaux: {sum(1 for r in rows if r[-1])}/{len(rows)} windows agree; gateaux.csv written")
    return 0 if ok else 1


def _cmd_solve_portfolio(cfg: ExperimentConfig) -> int:
    paths = cfg.sample()
    market = cfg.market()
    utility = cfg.utility()
    sv = cfg.raw["solver"]
    bracket = sv["bracket"]
    solution = solve_portfolio(market, utility, paths,
                               basis=cfg.basis,
                               bracket=None if bracket is None else tuple(bracket),
                               rel_tol=float(sv["bisection_rel_tol"]))
    export_portfolio_csvs(cfg.out_dir, solution, cfg.grid)
    write_manifest(cfg.out_dir / "manifest.json", cfg.manifest("solve-portfolio"))
    print(f"solve-portfolio: c = {solution.c:.6g}, "
          f"consistency spread {solution.bsvie.max_ratio_spread:.4f}; "
          "strategy.csv and calibration.csv written")
    return 0


def _cmd_merton_test(cfg: ExperimentConfig) -> int:
    paths = cfg.sample()
    m = cfg.raw["market"]
    market = MarketModel.constant(float(m["b0"]), float(m["sigma0"]),
                                  wealth=float(m["wealth"]))
    utility = UtilitySpec.log()
    solution = solve_portfolio(market, utility, paths, basis=cfg.basis)
    export_portfolio_csvs(cfg.out_dir, solution, cfg.grid)
    pi_ref = float(m["b0"]) / float(m["sigma0"]) ** 2
    n = cfg.grid.steps
    interior = solution.fractions[n // 4:(3 * n) // 4].mean(axis=1)
    worst = float(np.max(np.abs(interior - pi_ref) / pi_ref))
    control = ControlProcess.per_path(solution.fractions, bounds=(-10.0, 10.0))
    report = verify_optimality(market, utility, control, paths, basis=cfg.basis)
    rows = [("candidate", report.j_candidate, report.j_candidate_stderr)]
    rows += [(f"shift{delta:+g}", j, se) for delta, j, _gap, se in report.comparisons]
    write_csv(cfg.out_dir / "objective.csv", ("strategy", "J_estimate", "stderr"), rows)
    write_manifest(cfg.out_dir / "manifest.json", cfg.manifest("merton-test"))
    print(f"merton-test: c = {solution.c:.4f} (closed form {1.0 / float(m['wealth']):.4f}), "
          f"interior fraction within {100 * worst:.2f}% of {pi_ref}; "
          f"dominates shifts: {report.dominates()}")
    return 0 if (worst <= 0.05 and report.dominates()) else 1


_SUBCOMMANDS = {
    "simulate": _cmd_simulate,
    "check-malliavin": _cmd_check_malliavin,
    "solve-adjoint": _cmd_solve_adjoint,
    "check-stationarity": _cmd_check_stationarity,
    "gateaux": _cmd_gateaux,
    "solve-portfolio": _cmd_solve_portfolio,
    "merton-test": _cmd_merton_test,
}


def _cmd_report(cfg: ExperimentConfig) -> int:
    """Run every subcommand into per-stage subdirectories.

    Stages are independent; the worker-count environment variable enables
    running them concurrently (each stage draws its own seeded paths, so the
    schedule cannot affect any numeric output).
    """
    workers = int(os.environ.get(_WORKERS_ENV, "1"))
    stages = list(_SUBCOMMANDS.items())

    def run(item):
        name, fn = item
        sub = ExperimentConfig(raw=cfg.raw, grid=cfg.grid, jumps=cfg.jumps,
                               seed=cfg.seed, n_paths=cfg.n_paths, basis=cfg.basis,
                               info=cfg.info, out_dir=cfg.out_dir / name.replace("-", "_"))
        return name, fn(sub)

    results = []
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, stages))
    else:
        results = [run(item) for item in stages]
    write_csv(cfg.out_dir / "report_summary.csv", ("stage", "exit_status"),
              [(name, status) for name, status in results])
    write_manifest(cfg.out_dir / "manifest.json", cfg.manifest("report"))
    bad = [name for name, status in results if status != 0]
    print("report: all stages passed" if not bad else f"report: failing stages: {bad}")
    return 0 if not bad else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="volterra-control",
        description="Monte Carlo toolkit for optimal control of stochastic "
                    "Volterra equations",
    )
    parser.add_argument("command", choices=sorted(list(_SUBCOMMANDS) + ["report"]))
    parser.add_argument("--config", default=None, help="YAML experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override monte_carlo.seed")
    parser.add_argument("--paths", type=int, default=None, help="override monte_carlo.paths")
    parser.add_argument("--out", default=None, help="override output.directory")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, seed=args.seed, n_paths=args.paths,
                                    out_dir=args.out)
    except (ConfigurationError, OSError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    handler = _cmd_report if args.command == "report" else _SUBCOMMANDS[args.command]
    try:
        return handler(cfg)
    except Exception as exc:  # surface module errors with a non-zero status
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
