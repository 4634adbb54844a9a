"""Command-line interface: configuration, experiment orchestration, reports.

Every run reads one YAML config with sections mirroring the module layout
(grid, noise, model, performance, utility, control, info, monte_carlo,
solver, market, output), writes CSV artifacts plus a JSON manifest echoing
the resolved configuration, and is deterministic: identical config and seed
produce byte-identical numeric CSV content.
"""

from __future__ import annotations

import argparse
import copy
import re
import sys
from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigurationError, RegressionError
from .grids import JumpEvents, JumpModel, PathBundle, TimeGrid, interior_nodes, sample_paths
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
)
from .models import ControlProcess, InfoMode, PerformanceSpec, UtilitySpec, registry_get
from .reporting import write_csv, write_manifest
from .volterra import monte_carlo_estimate, simulate_summary
from .adjoint import solve_adjoint
from .hamiltonian import (
    GATEAUX_WINDOWS_SIGMA,
    check_stationarity,
    gateaux_check,
    perturbation_window,
)
from .portfolio import (
    MarketModel,
    PortfolioSolution,
    optimal_fraction,
    solve_portfolio,
    verify_optimality,
)


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
    "info": {"delay": 0.0},
    "monte_carlo": {"paths": 100_000, "seed": 7},
    "solver": {"degree": 3, "ridge": 1e-8},
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


def _field(raw: dict, name: str, convert, need: str, ok=lambda value: True):
    """The config value at ``name`` ("section.key[.key]") passed through ``convert``.

    A value that ``convert`` cannot read, or that ``ok`` refuses, is a
    ConfigurationError naming the field and what it must be.
    """
    value = reduce(dict.__getitem__, name.split("."), raw)
    try:
        out = convert(value)
        valid = ok(out)
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ConfigurationError(f"{name} must be {need}, got {value!r}")
    return out


def _numbers(values) -> tuple:
    return tuple(float(value) for value in values)


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
        # TimeGrid and JumpModel refuse what they cannot take, and _field names the field
        steps = _field(raw, "grid.steps", int, "an integer >= 2", lambda n: n >= 2)
        grid = _field(raw, "grid.horizon", lambda h: TimeGrid(float(h), steps),
                      "a finite positive number")
        intensity = _field(raw, "noise.intensity", float, "a number >= 0", lambda x: x >= 0.0)
        marks = _field(raw, "noise.marks", _numbers, "a list of non-zero numbers",
                       lambda z: 0.0 not in z)
        if intensity > 0.0 and not marks:
            raise ConfigurationError("noise.intensity > 0 requires noise.marks")
        jumps = _field(raw, "noise.weights", lambda w: JumpModel(intensity, marks, _numbers(w)),
                       "a list of positive numbers summing to 1, one per noise.marks entry")
        basis = RegressionBasis(
            degree=_field(raw, "solver.degree", int, "an integer >= 1", lambda d: d >= 1),
            ridge=_field(raw, "solver.ridge", float, "a number >= 0", lambda r: r >= 0.0))
        return cls(
            raw=raw,
            grid=grid,
            jumps=jumps,
            seed=_field(raw, "monte_carlo.seed", int, "an integer >= 0", lambda s: s >= 0),
            n_paths=_field(raw, "monte_carlo.paths", int, "a positive integer", lambda m: m >= 1),
            basis=basis,
            # G_t = F_(t - delay)+: delay 0 is full information
            info=InfoMode(_field(raw, "info.delay", float, "a number >= 0", lambda d: d >= 0.0)),
            out_dir=_field(raw, "output.directory", Path, "a string"),
        )

    def sample(self):
        return sample_paths(self.grid, self.jumps, self.n_paths, self.seed)

    def model(self):
        names = ("constant", "exp_kernel_linear", "x_independent_linear")  # custom needs callables
        name = _field(self.raw, "model.name", str, f"one of {names}", lambda n: n in names)
        params = _field(self.raw, "model.params", lambda p: p or {}, "a mapping of parameter names",
                        lambda p: isinstance(p, dict)
                        and all(isinstance(k, str) and "." not in k for k in p))
        return registry_get(name, {key: _field(self.raw, f"model.params.{key}", float, "a number")
                                   for key in params})

    def _kind(self, name: str, table) -> str:
        """The config value at ``name``, one of the keys of ``table``."""
        return _field(self.raw, name, lambda k: k, f"one of {sorted(table)}", lambda k: k in table)

    def performance(self) -> PerformanceSpec:
        running = self._kind("performance.running", _RUNNINGS)
        terminal = self._kind("performance.terminal", _TERMINALS)
        g, gp = _TERMINALS[terminal]
        domain = (0.25, 4.0) if terminal == "log" else (-3.0, 3.0)
        return PerformanceSpec(running=_RUNNINGS[running], terminal=g,
                               terminal_prime=gp, terminal_domain=domain)

    def utility(self) -> UtilitySpec:
        """Log utility, or the power utility x^gamma / gamma of exponent gamma."""
        if self._kind("utility.kind", ("log", "power")) == "log":
            return UtilitySpec.log()
        return UtilitySpec.power(_field(self.raw, "utility.exponent", float,
                                        "a number < 1 and != 0", lambda g: g < 1.0 and g != 0.0))

    def control(self) -> ControlProcess:
        self._kind("control.kind", ("constant",))   # config files give constant controls only
        lower = _field(self.raw, "control.lower", float, "a number")
        upper = _field(self.raw, "control.upper", float, "a number above control.lower",
                       lambda hi: hi > lower)
        value = _field(self.raw, "control.value", float,
                       "a number in [control.lower, control.upper]",
                       lambda v: lower <= v <= upper)
        return ControlProcess.constant(value, (lower, upper))

    def market(self) -> MarketModel:
        """The market section, every field read through ``_field``."""
        fields = {key: _field(self.raw, f"market.{key}", float, "a number")
                  for key in ("b0", "decay_b", "decay_sigma")}
        for key in ("sigma0", "wealth"):
            fields[key] = _field(self.raw, f"market.{key}", float, "a positive number",
                                 lambda x: x > 0.0)
        fields["floor"] = _field(self.raw, "market.floor", lambda f: f if f is None else float(f),
                                 "a positive number or null", lambda f: f is None or f > 0.0)
        return MarketModel.exponential(**fields, horizon=self.grid.horizon)

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


@dataclass
class StageResult:
    """What one stage hands `_run` to write: its CSV tables (file name -> (header,
    rows), in write order), the line printed after "<command>: ", its exit status
    and the manifest fields it adds to `ExperimentConfig.manifest`."""

    tables: dict
    line: str
    status: int = 0
    manifest: dict = field(default_factory=dict)


def _cmd_simulate(cfg: ExperimentConfig) -> StageResult:
    model, control, perf = cfg.model(), cfg.control(), cfg.performance()
    statistics, total = simulate_summary(model, control, perf, cfg.sample())
    est, se = monte_carlo_estimate(total)
    return StageResult(
        {"trajectory.csv": (("t", "mean_X", "std_X", "q05", "q95"), statistics),
         "performance.csv": (("quantity", "estimate", "stderr"), [("J", est, se)])},
        f"J = {est:.6g} +- {se:.3g}; trajectory.csv written")


def _cmd_check_malliavin(cfg: ExperimentConfig) -> StageResult:
    paths = cfg.sample()
    basis = cfg.basis
    reports = {}
    functional = lambda p: p.brownian[-1] ** 2  # noqa: E731
    reports["duality_brownian"] = check_duality_brownian(
        functional, lambda p: p.brownian[:-1], paths, basis=basis)
    if cfg.jumps.active:
        jump_sq = lambda p: p.jump_sum[-1] ** 2  # noqa: E731
        reports["duality_jump"] = check_duality_jump(
            jump_sq, np.ones((cfg.grid.steps, cfg.jumps.n_marks)), paths, basis=basis)
        # the jump-free bundle of the same seed: `sample_paths` draws dW first
        rec_paths = PathBundle(cfg.grid, JumpModel.none(), paths.dW,
                               JumpEvents.none(cfg.grid.steps), paths.seed)
    else:
        rec_paths = paths
    rec = clark_ocone_reconstruct(functional, rec_paths, basis=basis)
    # the grid floor 1/sqrt(N) of the residual, and what the regressions leave: the
    # sample mean and p coefficients per node, each off by O(1/sqrt(M))
    grid_rms, rest_rms = rec.relative_split(brownian_square_grid_term(rec_paths))
    rest_bound = 3.0 * np.sqrt((1 + basis.dimension(1)) / rec_paths.n_paths)
    iso_mean, iso_se = monte_carlo_estimate(iterated_integral(1.0, 2, rec_paths) ** 2)
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
    if cfg.jumps.active:
        probe = max(probe, float(np.abs(
            d_jump(adapted, paths, cfg.grid.steps // 2 + 1, 0)).max()))
    rows.append(("adaptedness_max_abs", probe, 0.0, 0.0, probe == 0.0))
    chaos = check_chaos_derivative(1.0, rec_paths,
                                   nodes=range(0, cfg.grid.steps, max(cfg.grid.steps // 8, 1)))
    worst = int(np.argmax(chaos.per_node))
    rows.append(("chaos_derivative_max_err", chaos.max_abs_error, chaos.bounds[worst], 0.0,
                 chaos.within()))
    split = {"relative_rms": rec.relative_rms, "grid_term_rms": grid_rms,
             "remainder_rms": rest_rms, "remainder_bound": float(rest_bound)}
    n_pass = sum(1 for r in rows if r[-1])
    return StageResult(
        {"malliavin_checks.csv": (("check_name", "lhs", "rhs", "stderr", "pass"), rows)},
        f"{n_pass}/{len(rows)} checks passed; malliavin_checks.csv written",
        status=0 if n_pass == len(rows) else 1, manifest={"clark_ocone": split})


def _check_sample_floor(cfg: ExperimentConfig, n_raw: int) -> None:
    """Refuse, before any sampling, a sample below the regression basis's `path_floor` on
    `n_raw` raw features."""
    need = cfg.basis.path_floor(n_raw)
    if cfg.n_paths < need:
        raise ConfigurationError(
            f"monte_carlo.paths is {cfg.n_paths}, but a regression basis of dimension "
            f"{cfg.basis.dimension(n_raw)} needs at least {need} paths")


def _adjoint_pipeline(cfg: ExperimentConfig, stationarity: bool = False):
    """The solved adjoint (triple, field) of the configured run.

    Refused before any sampling: the stationarity check's information delay beyond the
    horizon, and a sample below the basis's `path_floor`. The adjoint fits one raw
    feature per node; the stationarity check of an x-dependent model fits the default
    features (Brownian level, state, and the jump sum when jumps are active).
    """
    model = cfg.model()
    if stationarity and cfg.info.delay > cfg.grid.horizon:
        raise ConfigurationError(
            f"info.delay must be a number in [0, grid.horizon = {cfg.grid.horizon}], "
            f"got {cfg.info.delay!r}")
    control = cfg.control()
    _check_sample_floor(cfg, 2 + cfg.jumps.active if stationarity and not model.x_independent
                        else 1)
    return solve_adjoint(model, cfg.performance(), control, cfg.sample(), cfg.basis)


def _cmd_solve_adjoint(cfg: ExperimentConfig) -> StageResult:
    """Per node of the run's grid: t, the path means of p, q and each mark's r, and the
    sweep count."""
    triple, field = _adjoint_pipeline(cfg)
    k = triple.states.paths.jumps.n_marks
    header = ("t", "mean_p", "mean_q", *(f"mean_r_{kk}" for kk in range(k)), "picard_iters")
    rows = []
    for i, t in enumerate(cfg.grid.nodes):
        q, r = triple.qr_rows(i, field)
        rows.append((t, triple.p[i].mean(), q.mean(), *(r[:, kk].mean() for kk in range(k)),
                     triple.picard_iterations))
    return StageResult({"adjoint.csv": (header, rows)},
                       f"{triple.picard_iterations} sweeps; adjoint.csv written")


def _cmd_check_stationarity(cfg: ExperimentConfig) -> StageResult:
    """Exits 0 whatever the statistic: the verdict is stationarity.csv's `pass` column,
    since no config is known to sit at an optimum of its adjoint."""
    triple, field = _adjoint_pipeline(cfg, stationarity=True)
    feats = triple.features if triple.model.x_independent else None
    report = check_stationarity(triple, field, info=cfg.info, basis=cfg.basis, features=feats)
    threshold = 0.05
    rows = [(t, stat, threshold, stat <= threshold)
            for t, stat in zip(report.nodes, report.normalized)]
    return StageResult(
        {"stationarity.csv": (("t", "statistic", "threshold", "pass"), rows)},
        f"max interior statistic {report.max_interior():.4f} "
        f"(threshold {threshold}); stationarity.csv written")


def _cmd_gateaux(cfg: ExperimentConfig) -> StageResult:
    triple, field = _adjoint_pipeline(cfg)
    n = cfg.grid.steps
    width = max(n // 8, 1)
    windows = (("early", n // 16), ("middle", (n - width) // 2), ("late", n - width - n // 16))
    reports = gateaux_check(triple, field, [perturbation_window(n, start, width, alpha=1.0)
                                            for _, start in windows])
    rows = [(name, rep.lhs, rep.stderr_lhs, rep.rhs, rep.stderr_rhs,
             rep.within(GATEAUX_WINDOWS_SIGMA)) for (name, _), rep in zip(windows, reports)]
    n_pass = sum(1 for r in rows if r[-1])
    return StageResult(
        {"gateaux.csv": (("window", "fd_derivative", "fd_stderr", "adjoint_form",
                          "adjoint_stderr", "pass"), rows)},
        f"{n_pass}/{len(rows)} windows agree; gateaux.csv written",
        status=0 if n_pass == len(rows) else 1)


def _solved_portfolio(cfg: ExperimentConfig) -> tuple[PortfolioSolution, dict]:
    """The configured portfolio solved on the sampled bundle, with its strategy.csv and
    calibration.csv tables; a sample too small for its one-feature fits is refused
    before sampling."""
    market, utility = cfg.market(), cfg.utility()
    _check_sample_floor(cfg, 1)
    solution = solve_portfolio(market, utility, cfg.sample(), basis=cfg.basis)
    strategy = list(zip(cfg.grid.nodes, solution.problem.theta, solution.mean_pi,
                        solution.std_pi))
    calibration = [(idx, c, gap) for idx, (c, gap) in enumerate(solution.calibration.history)]
    return solution, {"strategy.csv": (("t", "theta0", "mean_pi", "std_pi"), strategy),
                      "calibration.csv": (("c_iteration", "c_value", "G_value"), calibration)}


def _cmd_solve_portfolio(cfg: ExperimentConfig) -> StageResult:
    solution, tables = _solved_portfolio(cfg)
    return StageResult(tables, f"c = {solution.c:.6g}, "
                               f"consistency spread {solution.bsvie.max_ratio_spread:.4f}; "
                               "strategy.csv and calibration.csv written")


def _cmd_merton_test(cfg: ExperimentConfig) -> StageResult:
    solution, tables = _solved_portfolio(cfg)
    market, utility, paths = (solution.problem.market, solution.problem.utility,
                              solution.problem.paths)
    exponent = utility.exponent
    interior = interior_nodes(cfg.grid.steps)
    pi_ref = optimal_fraction(market, cfg.grid, exponent)[interior]
    worst = float(np.max(np.abs(solution.mean_pi[interior] / pi_ref - 1.0)))
    fractions, bound = solution.fractions(), 10.0
    try:
        control = ControlProcess.per_path(fractions, bounds=(-bound, bound))
    except ConfigurationError as exc:
        # a fitted fraction out of bounds is a failed solve, not a config error
        bad = ~(np.abs(fractions) <= bound)
        j = int(np.flatnonzero(bad.any(axis=1))[0])
        raise RegressionError(
            f"merton-test: the BSVIE fraction at node {j} is not finite or leaves "
            f"[-{bound}, {bound}] on {int(bad[j].sum())} of {bad.shape[1]} paths") from exc
    # only c is read from here on: drop the problem, its regressions and its feature
    c = solution.c
    del solution
    report = verify_optimality(market, utility, control, paths)
    rows = [("candidate", report.j_candidate, report.j_candidate_stderr)]
    rows += [(f"shift{delta:+g}", j, se) for delta, j, _gap, se in report.comparisons]
    tables["objective.csv"] = (("strategy", "J_estimate", "stderr"), rows)
    merton = exponent == 0.0 and market.decay_b == market.decay_sigma == 0.0
    closed = f" (closed form {1.0 / market.initial_wealth:.4f})" if merton else ""
    return StageResult(
        tables, f"c = {c:.4f}{closed}, interior fraction within {100 * worst:.2f}% "
                f"of pi*(t) = b0(T,t) / ((1 - {exponent:g}) sigma0(T,t) sigma0(t,t)); "
                f"dominates shifts: {report.dominates()}",
        status=0 if (worst <= 0.05 and report.dominates()) else 1)


_SUBCOMMANDS = {
    "simulate": _cmd_simulate,
    "check-malliavin": _cmd_check_malliavin,
    "solve-adjoint": _cmd_solve_adjoint,
    "check-stationarity": _cmd_check_stationarity,
    "gateaux": _cmd_gateaux,
    "solve-portfolio": _cmd_solve_portfolio,
    "merton-test": _cmd_merton_test,
}


def _run(name: str, handler, cfg: ExperimentConfig) -> int:
    """Run one command and write what it returns: each table as a CSV in ``cfg.out_dir``,
    then manifest.json, then its line on stdout; return its exit status.

    This is the only place outputs are written. An exception, from the command or a
    write, is named on stderr with the command; a command that raises writes none of
    its files.
    """
    try:
        result = handler(cfg)
        for file, (header, rows) in result.tables.items():
            write_csv(cfg.out_dir / file, header, rows)
        write_manifest(cfg.out_dir / "manifest.json", {**cfg.manifest(name), **result.manifest})
        print(f"{name}: {result.line}")
        return result.status
    except ConfigurationError as exc:
        print(f"config error: {name}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface module errors with a non-zero status
        print(f"{name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _cmd_report(cfg: ExperimentConfig) -> StageResult:
    """Run every subcommand, one after another, into per-stage subdirectories."""
    results = [(name, _run(name, fn, replace(cfg, out_dir=cfg.out_dir / name.replace("-", "_"))))
               for name, fn in _SUBCOMMANDS.items()]
    bad = [name for name, status in results if status != 0]
    return StageResult({"report_summary.csv": (("stage", "exit_status"), results)},
                       "all stages exited 0" if not bad else f"stages exiting non-zero: {bad}",
                       status=0 if not bad else 1)


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
    return _run(args.command, handler, cfg)


if __name__ == "__main__":
    raise SystemExit(main())
