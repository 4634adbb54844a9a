"""Every CLI run that CI makes besides tier-1 and the desk benchmark.

Usage, from any directory:

    python tests/cli_runs.py

Each run of `RUNS` writes its config to `ci_runs/<name>/config.yaml` at the
repository root and starts each of its stages in its own child process,
`python -m volterra_control.cli <stage> --config ... --seed ... --out
ci_runs/<name>/<stage dir>` with the checkout's `src` on PYTHONPATH, after
removing what an earlier run left in that stage directory. The peak RSS of a
stage is read from that child alone (`os.wait4` on its pid), so a bound is
checked against the stage it names, whatever ran before it. The script prints
one line per stage (run, stage, exit status, wall s, peak MB, bound MB) and
exits non-zero naming every run with a stage that exited non-zero, reached its
bound, or exited 0 without leaving a `manifest.json` whose `command` is that
stage. No run has a wall-clock bound.

Thirteen runs start from the config of a desk workload (`deskbench/workloads.py`),
with whole sections replaced where the run's scale or information differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "ci_runs"

sys.path.insert(0, str(ROOT / "deskbench"))

from workloads import WORKLOADS, stage_dir  # noqa: E402


@dataclass(frozen=True)
class CliRun:
    name: str
    stages: tuple[str, ...]
    seed: int
    why: str
    # the whole config, or, with `workload`, the sections that replace the workload's
    config: dict = field(default_factory=dict)
    workload: str | None = None
    bound_mb: float | None = None  # every stage's own peak RSS must stay below it

    def write_config(self, path: Path) -> None:
        config = self.config if self.workload is None \
            else {**WORKLOADS[self.workload].config, **self.config}
        # JSON flow style is YAML; the configs hold no bare exponent floats.
        path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


_TWO_MARKS = {"intensity": 0.5, "marks": [-0.4, 0.6], "weights": [0.35, 0.65]}

RUNS = (
    CliRun(
        name="report",
        stages=("report",),
        seed=7,
        bound_mb=250.0,
        why="every stage on the default config, merton-test among them (about 10 s); the "
            "default features form their rows as the checks read them, gateaux sums "
            "its perturbed objectives off their row streams, and the adjoint keeps q and "
            "r as node coefficients, so the stage peaks near 210 MB (254 MB with (N+1, M) "
            "q and r arrays, 294 MB when gateaux held six whole (N+1, M) runs); its "
            "portfolio stages print c = 0.99997 (closed form of the scheme 0.99997, "
            "0.99982 with sampled node moments) and consistency spread 0.0000",
    ),
    CliRun(
        name="adjoint_n128",
        stages=("solve-adjoint",),
        seed=11,
        workload="adjoint_memory_jumps",
        config={"grid": {"horizon": 1.0, "steps": 128}, "monte_carlo": {"paths": 2000}},
        bound_mb=55.0,
        why="the jump targets come from one reverse sweep of their Taylor powers, with no "
            "re-run of the simulator, and q and r are node coefficients, so the stage "
            "peaks near 46 MB (51 MB with (N+1, M) q and r arrays, 57 MB when it "
            "restarted the run once per node, 71 MB holding one node's sensitivity "
            "blocks, 455 MB holding every node's)",
    ),
    CliRun(
        name="adjoint_n128_m1e4",
        stages=("solve-adjoint",),
        seed=11,
        workload="adjoint_memory_jumps",
        config={"grid": {"horizon": 1.0, "steps": 128}, "monte_carlo": {"paths": 10_000}},
        bound_mb=88.0,
        why="the jump field at scale: at M = 1e4 the reverse sweep of the jump shifts' "
            "Taylor powers holds 19 rows of its symmetric forms and a few scratch rows, "
            "re-runs nothing, and q and r are node coefficients, so the stage peaks near "
            "73 MB in 0.9 s (102 MB with (N+1, M) q and (N+1, M, K) r arrays, 131 MB in "
            "4.5 s when it restarted the run 128 times with K = 2 jump variants, 199 MB "
            "holding each restart's whole run, its (K, N - i, M) block and a record of "
            "the run's memory sums)",
    ),
    CliRun(
        name="adjoint_n512",
        stages=("solve-adjoint", "check-stationarity"),
        seed=11,
        workload="adjoint_memory_jumps",
        config={"grid": {"horizon": 1.0, "steps": 512}, "monte_carlo": {"paths": 2000}},
        bound_mb=87.0,
        why="the memory-jump model past the 256 steps that the re-runs are guarded to: "
            "both stages take O(N M) sweeps and no re-run, and peak near 64 and 72 MB "
            "(88 and 95 MB with (N+1, M) q and (N+1, M, K) r arrays)",
    ),
    CliRun(
        name="simulate_n1024",
        stages=("simulate",),
        seed=5,
        workload="simulate_long_grid",
        config={"grid": {"horizon": 1.0, "steps": 1024}},
        bound_mb=150.0,
        why="the run is streamed and the jumps are a list of events: the stage holds "
            "dW, one row of X, a block of rows for the statistics and about 1 MB of "
            "normals while sampling, and peaks near 120 MB (158 MB with dense int16 "
            "jump counts, 235 MB with the (N+1, M) state and each block's whole draw "
            "as well)",
    ),
    CliRun(
        name="simulate_n4096",
        stages=("simulate",),
        seed=5,
        workload="simulate_long_grid",
        config={"grid": {"horizon": 1.0, "steps": 4096}},
        bound_mb=450.0,
        why="a long grid in bounded memory: at N = 4096, M = 1e4 the streamed stage "
            "holds little beyond dW (328 MB) and about 5000 jump events, and peaks near "
            "355 MB (509 MB with dense int16 jump counts, 821 MB with the (N+1, M) "
            "state and each block's whole draw as well)",
    ),
    CliRun(
        name="portfolio_memory",
        stages=("solve-portfolio",),
        seed=7,
        workload="portfolio_memory",
        bound_mb=122.0,
        why="the BSVIE fields are kept as per-node coefficients, strategy.csv reads "
            "per-node statistics one node at a time, the BSVIE feature's rows are formed "
            "one node at a time and the projector's one-step moments are exact Gaussian "
            "ones, with one fit of the paths at T, so the stage peaks near 94 MB (95 MB "
            "with a power table per node, 100 MB with a (2p, M) stack per node, 151 MB "
            "with the (N+1, M) feature array, 248 MB with the (N, M) field and fraction "
            "arrays as well); it prints c = 0.955268 and consistency spread 0.0204",
    ),
    CliRun(
        name="portfolio_degree5",
        stages=("solve-portfolio",),
        seed=7,
        workload="portfolio_memory",
        config={"solver": {"degree": 5}},
        bound_mb=114.0,
        why="the widest basis a CLI run fits: at degree 5 the exact carries take normal "
            "moments to order 11 and the fit at T six design rows, and the stage peaks "
            "near 96 MB; it prints c = 0.95527 and consistency spread 0.0204",
    ),
    CliRun(
        name="portfolio_rising_vol",
        stages=("solve-portfolio",),
        seed=7,
        workload="portfolio_memory",
        config={"market": {"b0": 0.05, "sigma0": 0.2, "decay_b": 1.0, "decay_sigma": -0.5,
                           "wealth": 1.0}},
        bound_mb=122.0,
        why="a volatility kernel that rises with the lag t - s: the market is checked at "
            "s <= t alone, where the kernel never falls below sigma0, so the config is "
            "accepted with the default floor sigma0 / 2; it prints c = 0.934801 and "
            "consistency spread 0.6359",
    ),
    CliRun(
        name="portfolio_power",
        stages=("solve-portfolio",),
        seed=7,
        workload="portfolio_memory",
        config={"utility": {"kind": "power", "exponent": 0.5}, "monte_carlo": {"paths": 20_000}},
        bound_mb=65.0,
        why="the only CLI run with power utility: F(c) = (c M_T)^-2 and the calibration "
            "root of exponent 0.5; at M = 2e4 every fitted wealth level stays positive "
            "(seeds 7 and 11) and the stage peaks near 50 MB; it prints c = 0.968021 and "
            "consistency spread 0.0403",
    ),
    CliRun(
        name="portfolio_1e6",
        stages=("solve-portfolio",),
        seed=7,
        workload="portfolio_memory",
        config={"monte_carlo": {"paths": 1_000_000}},
        bound_mb=765.0,
        why="large path counts in bounded memory: at N = 64, M = 1e6 the stage holds "
            "dW, a few (M,) rows and the one fit's design at T, and peaks near 589 MB "
            "(603 MB building the node designs, 648 MB with a (2p, M) stack per node, "
            "1167 MB with the (N+1, M) feature array); it prints c = 0.955269 and "
            "consistency spread 0.0204",
    ),
    CliRun(
        name="merton",
        stages=("merton-test",),
        seed=7,
        bound_mb=178.0,
        why="the fractions are formed once, for the per-path control, the solved "
            "portfolio is dropped before verifying, and each wealth run forms its "
            "shifted control row by row and holds one wealth row, so the stage peaks "
            "near 149 MB (245 MB with a whole shifted control and wealth per run, "
            "304 MB while the portfolio was kept, 497 MB before that); its portfolio "
            "has c = 0.99997 and consistency spread 0.0000",
    ),
    CliRun(
        name="merton_memory",
        stages=("merton-test",),
        seed=7,
        workload="portfolio_memory",
        bound_mb=178.0,
        why="merton-test on the memory market: the configured decays and utility are "
            "read, and mean_pi is checked against the closed form pi*(t), which no "
            "zero-decay run tests; the stage peaks near 149 MB, and its portfolio has "
            "c = 0.955268 and consistency spread 0.0204",
    ),
    CliRun(
        name="memory_adjoint_n1024",
        stages=("solve-adjoint", "check-stationarity"),
        seed=11,
        config={"grid": {"horizon": 1.0, "steps": 1024}, "noise": {"intensity": 0.0},
                "model": {"name": "exp_kernel_linear"}, "monte_carlo": {"paths": 2000}},
        bound_mb=124.0,
        why="with an open-loop control and declared decays the Brownian field comes from "
            "one reverse sweep and the drift's forward sums from one recursion, so "
            "neither stage re-runs the simulator and the 256-step guard does not apply; "
            "the stages peak near 88 and 104 MB (103 and 119 MB with an (N+1, M) q)",
    ),
    CliRun(
        name="delayed_info",
        stages=("check-stationarity",),
        seed=11,
        workload="adjoint_memory_jumps",
        config={"info": {"delay": 0.25}},
        bound_mb=69.0,
        why="the paper's partial-information case, E[dH/du | G_t] with "
            "G_t = F_(t - 0.25)+; no other run or workload uses delayed information; "
            "the stage peaks near 57 MB",
    ),
    CliRun(
        name="gateaux_memory_jumps",
        stages=("gateaux",),
        seed=11,
        workload="adjoint_memory_jumps",
        bound_mb=68.0,
        why="the adjoint form reads dH/du along the run through the state-sensitivity "
            "feature and the Malliavin field of p, which report (memory-free constant "
            "model) and the workload (no gateaux stage) never reach; all three windows "
            "must agree, and the stage peaks near 57 MB",
    ),
    CliRun(
        name="xind_adjoint",
        stages=("solve-adjoint", "check-stationarity"),
        seed=3,
        config={"grid": {"horizon": 1.0, "steps": 128}, "noise": _TWO_MARKS,
                "model": {"name": "x_independent_linear",
                          "params": {"b0": 0.1, "sigma0": 0.3, "jump0": 0.1, "x0": 1.0}},
                "performance": {"running": "zero", "terminal": "log"},
                "control": {"kind": "constant", "value": 0.5},
                "monte_carlo": {"paths": 20_000}},
        bound_mb=168.0,
        why="the only CLI path through predicted_terminal_feature and the explicit "
            "solver, whose q and r are differences of g' at X(T) shifted by that "
            "feature's rows, with no re-simulation, kept as node coefficients; the "
            "stages peak near 137 and 140 MB (179 and 200 MB with (N+1, M) q and "
            "(N+1, M, K) r arrays)",
    ),
    CliRun(
        name="malliavin_jumps",
        stages=("check-malliavin",),
        seed=3,
        config={"grid": {"horizon": 1.0, "steps": 32}, "noise": _TWO_MARKS,
                "monte_carlo": {"paths": 20_000}},
        bound_mb=78.0,
        why="the only CLI path through check_duality_jump, the remarked extra-jump "
            "bundle and the jump-free bundle (the sampled dW) behind Clark-Ocone; the "
            "default config has no jumps; the stage peaks near 65 MB",
    ),
)


def run_stage(run: CliRun, stage: str, config: Path, out: Path) -> tuple[int, float, float]:
    """Exit status, wall seconds and peak RSS (MB) of one stage in its own child."""
    argv = [sys.executable, "-m", "volterra_control.cli", stage, "--config", str(config),
            "--seed", str(run.seed), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def manifest_command(out: Path) -> str | None:
    """The `command` of the manifest in `out`; None if there is no readable one."""
    try:
        return json.loads((out / "manifest.json").read_text(encoding="utf-8"))["command"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def main(argv=None) -> int:
    # no options: the parser gives --help its usage and refuses anything else
    argparse.ArgumentParser(description=__doc__.splitlines()[0],
                            epilog="Writes ci_runs/ at the repository root.").parse_args(argv)
    lines, failing = [], []
    for run in RUNS:
        run_dir = OUT / run.name
        run_dir.mkdir(parents=True, exist_ok=True)
        config = run_dir / "config.yaml"
        run.write_config(config)
        for stage in run.stages:
            out = run_dir / stage_dir(stage)
            shutil.rmtree(out, ignore_errors=True)  # an earlier run's manifest proves nothing
            status, wall, peak = run_stage(run, stage, config, out)
            over = run.bound_mb is not None and peak >= run.bound_mb
            unrecorded = status == 0 and manifest_command(out) != stage
            if (status != 0 or over or unrecorded) and run.name not in failing:
                failing.append(run.name)
            bound = "-" if run.bound_mb is None else f"{run.bound_mb:.0f}"
            lines.append(f"{run.name:<22} {stage:<19} {status:>4} {wall:>8.2f} "
                         f"{peak:>8.1f} {bound:>6}{'  OVER' if over else ''}"
                         f"{'  NO MANIFEST' if unrecorded else ''}")
    print(f"{'run':<22} {'stage':<19} {'exit':>4} {'wall s':>8} {'peak MB':>8} {'bound':>6}")
    print("\n".join(lines))
    if failing:
        print("failing runs (non-zero exit, bound reached or no manifest of the stage): "
              f"{', '.join(failing)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
