"""The desk benchmark's workloads: which CLI stages run on which config.

Every workload has T = 1 and a fixed default seed, which `run.py --seed`
replaces. The config is the only input the program receives, written as
a YAML file (JSON flow style) into the run directory. The output checks in
`checks.py` read the same dictionaries, so a config and its check cannot
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    config: dict
    default_seed: int
    why: str


# x-dependent exponential kernels with jumps: drift 0.1 e^{-(t-s)} v x,
# diffusion 0.3 e^{-0.8(t-s)} v x, jump 0.1 e^{-0.5(t-s)} v x z.
_MEMORY_JUMP_MODEL = {
    "noise": {"intensity": 0.5, "marks": [-0.5, 0.5], "weights": [0.5, 0.5]},
    "model": {"name": "exp_kernel_linear",
              "params": {"b0": 0.1, "sigma0": 0.3, "jump0": 0.1, "x0": 1.0,
                         "decay_b": 1.0, "decay_sigma": 0.8, "decay_jump": 0.5}},
    "performance": {"running": "zero", "terminal": "log"},
    "control": {"kind": "constant", "value": 0.5},
}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="portfolio_memory",
            stages=("solve-portfolio",),
            config={
                "grid": {"horizon": 1.0, "steps": 64},
                "market": {"b0": 0.05, "sigma0": 0.2, "decay_b": 1.0,
                           "decay_sigma": 0.0, "wealth": 1.0},
                "utility": {"kind": "log"},
                "monte_carlo": {"paths": 100_000},
            },
            default_seed=7,
            why="memory-market portfolio at desk scale: all regression backward "
                "marches (calibration gaps and BSVIE rows), no state simulation",
        ),
        Workload(
            name="adjoint_memory_jumps",
            # `gateaux` stays out: its exit status depends on the seed (see README).
            stages=("solve-adjoint", "check-stationarity"),
            config={
                "grid": {"horizon": 1.0, "steps": 16},
                **_MEMORY_JUMP_MODEL,
                "monte_carlo": {"paths": 20_000},
            },
            default_seed=11,
            why="memory maximum principle with jumps: adjoint with Malliavin "
                "fields of p, state re-simulations, stationarity check",
        ),
        Workload(
            name="simulate_long_grid",
            stages=("simulate",),
            config={
                "grid": {"horizon": 1.0, "steps": 256},
                **_MEMORY_JUMP_MODEL,
                "monte_carlo": {"paths": 10_000},
            },
            default_seed=5,
            why="forward simulation on a long grid: the O(N^2 M) kernel-history "
                "sum, no regressions",
        ),
    )
}


def stage_dir(stage: str) -> str:
    """Output subdirectory of one stage (stages never share a manifest)."""
    return stage.replace("-", "_")
