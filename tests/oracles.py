"""Test oracles of the portfolio module that no CLI stage reads, the closed-form
calibration constant and fractions of the portfolio scheme, the path sampler as it
drew each block's normals at once, and a bundle's whole array of compensated jump counts.

Each but `calibration_reference` and `fraction_reference` was a package function or
method. They are kept here, beside the tests that read them. `y_martingale` sums its
log increments with `np.cumsum`, which `malliavin.RunningSumRows` matches bit for bit;
the others keep their arithmetic unchanged.
"""

import math

import numpy as np

from volterra_control import ConfigurationError, PathBundle
from volterra_control.grids import _BLOCK
from volterra_control.portfolio import _inverse_marginal, _terminal_log_martingale


def y_martingale(theta: np.ndarray, paths, c: float) -> np.ndarray:
    """Exponential martingale Y(t_i) = c exp(int theta dB - 1/2 int theta^2 ds), (N+1, M)."""
    if c <= 0.0:
        raise ConfigurationError("martingale initial value must be positive")
    th = np.asarray(theta, dtype=float)[:paths.n_steps, None]
    log_y = np.zeros((paths.n_steps + 1, paths.n_paths))
    np.cumsum(th * paths.dW - 0.5 * th ** 2 * paths.grid.dt, axis=0, out=log_y[1:])
    return c * np.exp(log_y)


def terminal_wealth(c: float, paths, utility, theta: np.ndarray) -> np.ndarray:
    """Candidate optimal terminal wealth: inverse marginal utility of c * martingale."""
    return _inverse_marginal(c, np.exp(_terminal_log_martingale(theta, paths)), utility)


def calibration_reference(market, utility, grid) -> float:
    """The c of the calibration X^_c(0) = x when the scheme's conditional expectations are
    exact (README, "The closed-form fraction of the memory market").

    With p = 1/(gamma - 1), theta_l = theta0(t_l) and r_l = b0(0, t_l)/sigma0(0, t_l) for
    l < N, the row-0 march v_l = E_l[v_{l+1}] - r_l Z_l dt from F(c) gives X^(0) = K(c) =
    c^p exp(-p sum theta_l^2 dt / 2) prod_l exp(p^2 theta_l^2 dt / 2) (1 - r_l p theta_l dt),
    and c solves K(c) = x.
    """
    p = 1.0 / (utility.exponent - 1.0)
    t, horizon, dt = grid.nodes[:-1], grid.horizon, grid.dt
    theta = -market.drift_kernel(horizon, t) / market.vol_kernel(horizon, t)
    r = market.drift_kernel(0.0, t) / market.vol_kernel(0.0, t)
    log_k1 = np.sum((p * p - p) * theta ** 2 * dt / 2.0 + np.log1p(-r * p * theta * dt))
    return math.exp((math.log(market.initial_wealth) - log_k1) / p)


def fraction_reference(market, utility, grid) -> np.ndarray:
    """The fractions of the portfolio scheme at the nodes t_j < T, (N,), when its
    conditional expectations are exact (README, "The closed-form fraction of the memory
    market").

    Row j's march from F(c) has v_l = K_l exp(p S_l) and Z_l = p theta_l K_{l+1}
    exp(p S_l) exp(p^2 theta_l^2 dt / 2), so on the diagonal Z^/X^ = p theta_j /
    (1 - r_jj p theta_j dt), free of c, with r_jj = b0(t_j, t_j)/sigma0(t_j, t_j); the
    fraction divides it by sigma0(t_j, t_j).
    """
    p = 1.0 / (utility.exponent - 1.0)
    t, horizon, dt = grid.nodes[:-1], grid.horizon, grid.dt
    theta = -market.drift_kernel(horizon, t) / market.vol_kernel(horizon, t)
    vol = market.vol_kernel(t, t)
    r = market.drift_kernel(t, t) / vol
    return p * theta / ((1.0 - r * p * theta * dt) * vol)


def sample_paths_whole_blocks(grid, jumps, n_paths: int, seed: int) -> PathBundle:
    """`grids.sample_paths` drawing one (_BLOCK, N) array of normals per block and
    scaling a copy of it into dW."""
    n, dt = grid.steps, grid.dt
    k = jumps.n_marks
    dW = np.empty((n, n_paths))
    counts = np.zeros((n, n_paths, k), dtype=np.int16)
    cum_w = np.cumsum(jumps.weight_array) if k else None
    sqrt_dt = np.sqrt(dt)
    for start in range(0, n_paths, _BLOCK):
        width = min(_BLOCK, n_paths - start)
        rng = np.random.default_rng(np.random.SeedSequence((seed, start // _BLOCK)))
        z = rng.standard_normal((_BLOCK, n))
        dW[:, start:start + width] = sqrt_dt * z[:width].T
        if jumps.active:
            per_path = rng.poisson(jumps.intensity * grid.horizon, _BLOCK)
            total = int(per_path.sum())
            if total:
                node_idx = np.minimum((rng.random(total) * n).astype(np.int64), n - 1)
                mark_idx = np.minimum(np.searchsorted(cum_w, rng.random(total)), k - 1)
                path_idx = np.repeat(np.arange(_BLOCK), per_path)
                keep = path_idx < width
                np.add.at(counts, (node_idx[keep], start + path_idx[keep], mark_idx[keep]), 1)
    return PathBundle(grid, jumps, dW, counts, seed=seed)


def compensated_counts(paths: PathBundle) -> np.ndarray:
    """The bundle's jump counts minus their compensator, one float (N, M, K) array,
    with the arithmetic of the former `PathBundle.compensated_counts`."""
    out = paths.jump_counts.astype(float)
    out -= paths.jumps.compensator(paths.grid)[None, None, :]
    return out
