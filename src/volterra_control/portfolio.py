"""Optimal investment in a linear wealth market with memory kernels.

The market carries exponential-memory drift and volatility kernels
b0(t,s) = b0 e^{-decay_b (t-s)}, sigma0(t,s) = sigma0 e^{-decay_sigma (t-s)},
with the decays declared; investing the fraction pi(s) of wealth produces a
linear Volterra wealth equation, whose memory sums the wealth simulator
carries as one-step recursions (`volterra.memory_sums`). The optimal
terminal wealth for a concave utility is the inverse marginal utility of c
times an exponential martingale whose loading is
theta0(t) = -b0(T,t)/sigma0(T,t). One backward stochastic Volterra equation
(BSVIE) march, closed by the terminal wealth at a reference constant, gives
both: the constant c that reproduces the initial capital is read exactly off
its row 0 (the march is linear in the terminal wealth), and the optimal
fraction, which does not depend on c, off the diagonal of its integrand. Every
backward march runs on coefficients through `malliavin.BackwardProjector`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import isub
from typing import Iterator, Sequence

import numpy as np

from .errors import CalibrationError, ConfigurationError, RegressionError, SimulationError
from .grids import PathBundle, TimeGrid
from .malliavin import (
    MIN_PATHS_PER_COLUMN,
    BackwardProjector,
    Feature,
    RegressionBasis,
    RunningSumRows,
    weighted_brownian_feature,
)
from .models import CoefficientModel, ControlProcess, UtilitySpec, _exp_kernel_model
from .volterra import (StateEnsemble, _control_grid, _one_row, memory_sums,
                       monte_carlo_estimate)


@dataclass(frozen=True)
class MarketModel:
    """Exponential-memory market with declared decays.

    Drift b0(t,s) = b0 e^{-decay_b (t-s)} and volatility
    sigma0(t,s) = sigma0 e^{-decay_sigma (t-s)} >= vol_floor on the grid, s <= t.
    """

    b0: float
    sigma0: float
    decay_b: float
    decay_sigma: float
    vol_floor: float
    initial_wealth: float

    def __post_init__(self):
        if self.vol_floor <= 0.0:
            raise ConfigurationError(f"volatility floor must be positive, got {self.vol_floor}")
        if self.initial_wealth <= 0.0:
            raise ConfigurationError("initial wealth must be positive")

    @classmethod
    def constant(cls, b0: float, sigma0: float, wealth: float = 1.0,
                 floor: float | None = None) -> "MarketModel":
        return cls.exponential(b0, sigma0, 0.0, 0.0, wealth, floor)

    @classmethod
    def exponential(cls, b0: float, sigma0: float, decay_b: float = 1.0,
                    decay_sigma: float = 0.0, wealth: float = 1.0,
                    floor: float | None = None, horizon: float = 1.0) -> "MarketModel":
        floor = 0.5 * sigma0 * min(1.0, math.exp(-decay_sigma * horizon)) if floor is None \
            else floor
        return cls(b0, sigma0, decay_b, decay_sigma, floor, wealth)

    def drift_kernel(self, t, s):
        return self.b0 * np.exp(-self.decay_b * (np.asarray(t, dtype=float) - s))

    def vol_kernel(self, t, s):
        return self.sigma0 * np.exp(-self.decay_sigma * (np.asarray(t, dtype=float) - s))

    def validate(self, grid: TimeGrid) -> None:
        """Refuse a volatility kernel below the floor at a node pair s <= t, the
        pairs the market reads."""
        t = grid.nodes
        vols = self.vol_kernel(t[:, None], t[None, :])[np.tril_indices(len(t))]
        if float(vols.min()) < self.vol_floor:
            raise ConfigurationError(
                f"volatility kernel falls below its floor {self.vol_floor} on the grid "
                f"(min {vols.min():.6g})"
            )

    def to_coefficient_model(self) -> CoefficientModel:
        """Equivalent controlled Volterra model: drift b0(t,s) v x, vol sigma0(t,s) v x,
        with the decays declared, so its memory sums are one-step recursions."""
        return _exp_kernel_model("wealth_market", self.b0, self.sigma0, 0.0, self.decay_b,
                                 self.decay_sigma, 0.0, self.initial_wealth,
                                 x_independent=False)


def theta0(market: MarketModel, grid: TimeGrid) -> np.ndarray:
    """Exponential-martingale loading theta0(t_i) = -b0(T,t_i)/sigma0(T,t_i)."""
    vol = market.vol_kernel(grid.horizon, grid.nodes)
    if float(vol.min()) < market.vol_floor:
        raise ConfigurationError(f"volatility kernel below floor {market.vol_floor} at the horizon")
    return -market.drift_kernel(grid.horizon, grid.nodes) / vol


def optimal_fraction(market: MarketModel, grid: TimeGrid, exponent: float = 0.0) -> np.ndarray:
    """Closed-form fraction pi*(t_i) = b0(T,t_i) / ((1 - exponent) sigma0(T,t_i) sigma0(t_i,t_i))
    at the nodes t_i < T, (N,), for log utility (exponent 0) or the power utility
    x^exponent / exponent: the BSVIE diagonal of a deterministic loading (README)."""
    t, T = grid.nodes[:-1], grid.horizon
    return market.drift_kernel(T, t) / (
        (1.0 - exponent) * market.vol_kernel(T, t) * market.vol_kernel(t, t))


def _terminal_log_martingale(theta: np.ndarray, paths: PathBundle) -> np.ndarray:
    """log of the unit-start exponential martingale at T, sum_j (theta_j dW_j
    - theta_j^2 dt / 2), (M,), holding O(M)."""
    th = np.asarray(theta, dtype=float)[:paths.n_steps]
    drift = 0.5 * th ** 2 * paths.grid.dt
    # th_j dW_j - drift_j, the difference taken in place: no second (M,) temporary
    return RunningSumRows(lambda j: isub(th[j] * paths.dW[j], drift[j]), paths)[paths.n_steps]


def _inverse_marginal(c: float, martingale: np.ndarray, utility: UtilitySpec) -> np.ndarray:
    """(u')^{-1}(c M_T) for the unit-start martingale's terminal values M_T."""
    if c <= 0.0:
        raise ConfigurationError("calibration constant must be positive")
    arg = c * martingale
    bad = np.flatnonzero(~((arg > 0.0) & np.isfinite(arg)))
    if bad.size:
        raise SimulationError(f"marginal-utility argument left the positive domain: "
                              f"{arg[bad[0]]:.6g} on path {bad[0]}")
    return np.asarray(utility.u_prime_inverse(arg), dtype=float)


def _bsvie_features(theta: np.ndarray, paths: PathBundle) -> list[Feature]:
    # The running integral of theta0 against B is an exact sufficient
    # statistic for the terminal wealth, so it is the regression feature.
    return [weighted_brownian_feature(theta[:paths.n_steps], paths, name="theta_integral")]


def _kernel_ratios(market: MarketModel, t_row: float, s: np.ndarray) -> np.ndarray:
    """b0(t_row, s) / sigma0(t_row, s) over the nodes s."""
    return market.drift_kernel(t_row, s) / market.vol_kernel(t_row, s)


class PortfolioProblem:
    """What the calibration and the BSVIE rows share, built once in this order: the market
    is validated on the grid, a bundle below the basis's `path_floor` for the one feature
    of every calibration and BSVIE fit is refused before any fit, then the loading
    `theta`, the `projector` on the BSVIE feature and the unit-start martingale's
    terminal values `martingale`."""

    def __init__(self, market: MarketModel, utility: UtilitySpec, paths: PathBundle,
                 basis: RegressionBasis | None = None):
        basis = basis or RegressionBasis()
        market.validate(paths.grid)
        if paths.n_paths < (need := basis.path_floor(1)):
            raise RegressionError(
                f"the portfolio fits need monte_carlo.paths >= {need} ({MIN_PATHS_PER_COLUMN} "
                f"paths per basis function, basis dimension {basis.dimension(1)}), "
                f"got {paths.n_paths}")
        self.market, self.utility, self.paths = market, utility, paths
        self.theta = theta0(market, paths.grid)
        self.projector = BackwardProjector(self.theta, *_bsvie_features(self.theta, paths),
                                           paths, basis)
        self.martingale = np.exp(_terminal_log_martingale(self.theta, paths))

    def terminal(self, c: float) -> np.ndarray:
        """Terminal wealth F(c) = (u')^{-1}(c M_T) on the paths."""
        return _inverse_marginal(c, self.martingale, self.utility)


@dataclass
class BsvieSolution:
    """Backward solution fields as coefficients on the node designs.

    For j < N, X^(t_j) = V(t_j, s_j) = Phi_j x_coef[j] and Z^(t_j, s_j) = Phi_j z_coef[j],
    with Phi_j the standardized design of `regs[j]`; X^(T) is `terminal`. Every node design
    is a polynomial in one raw feature, the running theta-integral S_j, so `node` and
    `fraction` evaluate both fields by Horner's rule on the row S_j (`NodeRegression.horner`)
    and build no design. A field's path values are formed one node at a time, so no
    (N+1, M) or (N, M) array of a field is held.
    """

    c: float                      # the c the march was closed by
    terminal: np.ndarray          # F(c), (M,)
    regs: list                    # (N,) node regressions of the march
    x_coef: list                  # (N,) coefficients of X^(t_j)
    z_coef: list                  # (N,) coefficients of Z^(t_j, s_j)
    vol_diag: np.ndarray          # (N,): sigma0(t_j, t_j)
    ratio_spread: np.ndarray      # (N,): max_i RMS(ratio_ij - ratio_jj)/RMS(ratio_jj)

    @property
    def max_ratio_spread(self) -> float:
        valid = self.ratio_spread[np.isfinite(self.ratio_spread)]
        return float(valid.max()) if len(valid) else 0.0

    def node(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """X^(t_j) and Z^(t_j, s_j) on the paths, (M,) each, for j < N."""
        xhat, zhat = self.regs[j].horner(np.stack([self.x_coef[j], self.z_coef[j]], axis=1))
        return xhat, zhat

    def fraction(self, j: int) -> np.ndarray:
        """Investment fraction Z^(t_j, s_j) / (sigma0(t_j, t_j) X^(t_j)) on the paths, (M,).

        Raises when the wealth levels are not strictly positive (the inverse
        marginal utility has positive range; non-positive fits signal too few
        paths or too low a basis degree), naming the node, the number of such
        paths and the smallest fitted level.
        """
        xhat, zhat = self.node(j)
        low = np.count_nonzero(xhat <= 0.0)
        if low:
            raise RegressionError(
                f"fitted wealth levels are not strictly positive at node {j} on {low} of "
                f"{len(xhat)} paths (smallest {xhat.min():.6g}); increase the path count or "
                "the basis degree"
            )
        xhat *= self.vol_diag[j]
        return np.divide(zhat, xhat, out=xhat)


def bsvie_solve(problem: PortfolioProblem, c: float) -> BsvieSolution:
    """Solve the backward Volterra equation closed by the terminal wealth F(c).

    For each fixed t_i the recursion in s runs from T down to t_i with
    regression conditional expectations; the integrand is extracted from the
    centered one-step products. Every row starts from F(c) and differs only in its
    kernel ratios, so one projector march carries all N rows as the columns of (p, N)
    coefficients, and row i keeps its column at node i, its node-i coefficients of X^
    and Z^ (see `BsvieSolution`). The consistency of Z^(t_i, s_j)/sigma0(t_i, s_j) with
    the diagonal is a node-Gram RMS, one quadratic form per node over the rows i < j.
    """
    market, projector = problem.market, problem.projector
    n, t = problem.paths.n_steps, problem.paths.grid.nodes
    f_c = problem.terminal(c)
    # column i of ratios[j] is row i's b0(t_i, t_j) / sigma0(t_i, t_j)
    _, z_coef, x_coef = projector.march(projector.terminal_moments(f_c),
                                        _kernel_ratios(market, t[None, :n], t[:n, None]))
    vol = market.vol_kernel(t[:n, None], t[None, :n])   # [i, j]: sigma0(t_i, t_j)
    vol_diag = market.vol_kernel(t[:n], t[:n])
    x_diag, z_diag, spread = [], [], np.zeros(n)
    for j in range(n):
        z = np.broadcast_to(z_coef[j], x_coef[j].shape)   # b_{N-1} is one (p, 1) column
        x_diag.append(x_coef[j][:, j])
        z_diag.append(z[:, j])
        if j:
            diag = z[:, j] / vol_diag[j]
            dev = z[:, :j] / vol[:j, j] - diag[:, None]   # one column per row i < j
            worst = np.einsum("ki,kl,li->i", dev, projector.regs[j].gram, dev).max()
            spread[j] = math.sqrt(max(worst, 0.0)) / max(projector.rms(j, diag), 1e-300)
    return BsvieSolution(c=c, terminal=f_c, regs=projector.regs, x_coef=x_diag, z_coef=z_diag,
                         vol_diag=vol_diag, ratio_spread=spread)


@dataclass
class CalibrationResult:
    """The calibrated constant c and every evaluated gap."""

    c: float
    history: list  # (c, gap) per evaluation


def solve_c(problem: PortfolioProblem, fields: BsvieSolution) -> CalibrationResult:
    """The exact root c of X^_c(0) = initial wealth, read off row 0 of `fields`.

    The march is linear in its terminal value, and a registered utility of exponent gamma
    has F(c) = c^{1/(gamma-1)} F(1) (`UtilitySpec`), so the march closed by F(c_f) at
    c_f = `fields.c` gives X^_c(0) = (c/c_f)^{1/(gamma-1)} X^_{c_f}(0). `history` holds
    the gaps X^_c(0) - x at (lo, hi, c), lo = 1e-3 c_f and hi = 1e3 c_f, which must
    straddle 0, and the root c = c_f (x / X^_{c_f}(0))^(gamma-1), its gap round-off.
    """
    x, c_f = problem.market.initial_wealth, fields.c
    power = problem.utility.exponent - 1.0
    assert fields.regs[0].keep == [0]   # S_0 = 0 on every path: node 0 fits the intercept
    v0 = float(fields.x_coef[0][0])

    def gap(c: float) -> tuple[float, float]:
        return c, (c / c_f) ** (1.0 / power) * v0 - x

    history = [gap(1e-3 * c_f), gap(1e3 * c_f)]
    (lo, g_lo), (hi, g_hi) = history
    if not (g_lo > 0.0 > g_hi):
        raise CalibrationError(f"bracket does not straddle the root: gap({lo:.6g}) = "
                               f"{g_lo:.6g}, gap({hi:.6g}) = {g_hi:.6g}")
    history.append(gap(c_f * (x / v0) ** power))
    return CalibrationResult(c=history[-1][0], history=history)


@dataclass
class PortfolioSolution:
    """The calibrated BSVIE and the per-node statistics of the investment fractions.

    `mean_pi` and `std_pi` are the mean and std(ddof=1) over paths of each node's
    fraction row, read once by `solve_portfolio`; `fractions()` forms the (N, M)
    per-path fractions, for a per-path control.
    """

    problem: PortfolioProblem
    calibration: CalibrationResult
    bsvie: BsvieSolution
    mean_pi: np.ndarray  # (N,)
    std_pi: np.ndarray   # (N,)

    @property
    def c(self) -> float:
        return self.calibration.c

    def fractions(self) -> np.ndarray:
        """Per-path investment fractions, (N, M)."""
        out = np.empty((len(self.mean_pi), len(self.bsvie.terminal)))
        for j, row in enumerate(out):
            row[:] = self.bsvie.fraction(j)
        return out


def wealth_rows(market: MarketModel, control: ControlProcess, paths: PathBundle,
                shift: float = 0.0) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Yield the rows (X_i, u_i), i = 0..N (u_N None), of the positivity-preserving wealth
    scheme in log space under `control` shifted by `shift`.

    The log increments carry the diagonal drift/volatility terms plus the
    memory correction normalized by current wealth: the history sums of the
    d/dt kernels against pi X, the memory term of the differential form.
    They come from `volterra.memory_sums` on the market's declared decays,
    one O(M) recursion step per node, so a run costs O(N M). A step reads row
    i - 1 alone, so one row of the wealth and of the control is held, and
    node i's control row is formed when the run reaches it; a shifted row
    that leaves the control's bounds is refused.
    """
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    b_ii, s_ii = market.b0, market.sigma0  # the kernels on the diagonal t = s
    x, u = _one_row((n + 1, m)), _one_row((n, m))
    memory = memory_sums(market.to_coefficient_model(), paths, x, u, parts=(("_dt", None),))
    log_x = np.full(m, math.log(market.initial_wealth))  # log X(t_i), one node at a time
    x_i = np.full(m, market.initial_wealth)
    for i in range(n):
        alpha = memory(i) if i > 0 else np.zeros(m)   # reads rows i - 1 of x and u
        if not np.all(np.isfinite(alpha)):
            raise SimulationError(f"memory correction is non-finite at node {i}")
        x[i] = x_i
        u[i] = control.at(i, paths, x=x_i)
        if shift:
            u[i] = control._admissible(u[i] + shift)
        yield x_i, u[i]
        log_x = log_x + s_ii * u[i] * paths.dW[i] + (
            b_ii * u[i] - 0.5 * (s_ii * u[i]) ** 2 + alpha / x_i
        ) * dt
        x_i = np.exp(log_x)
        if not np.all(np.isfinite(x_i)):
            raise SimulationError(f"wealth is non-finite at node {i + 1}")
    yield x_i, None


def simulate_wealth_positive(market: MarketModel, control: ControlProcess,
                             paths: PathBundle) -> StateEnsemble:
    """The rows of `wealth_rows` collected into the (N+1, M) wealth and (N, M) control
    grid (an open-loop control's own grid). Kept as acceptance-oracle API (criterion 14,
    wealth positivity); `verify_optimality` reads the rows' terminal wealth alone."""
    x = np.empty((paths.n_steps + 1, paths.n_paths))
    u = _control_grid(control, paths)
    for i, (x_i, u_i) in enumerate(wealth_rows(market, control, paths)):
        x[i] = x_i
        if control.rule is not None and u_i is not None:
            u[i] = u_i
    return StateEnsemble(values=x, control=control, paths=paths, controls=u)


def solve_portfolio(market: MarketModel, utility: UtilitySpec, paths: PathBundle,
                    basis: RegressionBasis | None = None) -> PortfolioSolution:
    """Full construction: the problem, its BSVIE fields, calibration and fraction statistics.

    One BSVIE march, closed by F(u'(x)), serves the calibration and the fractions, which
    do not depend on c. Each node's fractions are formed once, for their mean and
    spread, and dropped.
    """
    problem = PortfolioProblem(market, utility, paths, basis)
    fields = bsvie_solve(problem, float(utility.u_prime(market.initial_wealth)))
    calibration = solve_c(problem, fields)
    stats = np.array([(pi.mean(), pi.std(ddof=1))
                      for pi in map(fields.fraction, range(paths.n_steps))])
    return PortfolioSolution(problem=problem, calibration=calibration, bsvie=fields,
                             mean_pi=stats[:, 0], std_pi=stats[:, 1])


@dataclass
class OptimalityReport:
    """Objective comparisons against shifted strategies."""

    j_candidate: float
    j_candidate_stderr: float
    comparisons: list  # (shift, j_value, gap, gap_stderr)

    def dominates(self, n_sigma: float = 3.0) -> bool:
        return all(gap >= -n_sigma * max(se, 1e-300)
                   for _, _, gap, se in self.comparisons)


def verify_optimality(market: MarketModel, utility: UtilitySpec,
                      control: ControlProcess, paths: PathBundle,
                      shifts: Sequence[float] = (0.1, 0.25)) -> OptimalityReport:
    """Brute-force optimality check of a candidate investment fraction.

    Re-simulates wealth under the candidate and under constant shifts of it
    with common random numbers and compares expected utilities. Each run is
    `wealth_rows`, which forms the shifted control one row at a time and holds one
    wealth row, and only its terminal wealth is read. The first-order condition is
    `hamiltonian.check_stationarity`'s.
    """
    def j_paths(delta: float) -> np.ndarray:
        for terminal, _ in wealth_rows(market, control, paths, delta):
            pass
        return np.asarray(utility.u(terminal), dtype=float)

    j_base_paths = j_paths(0.0)
    comparisons = []
    for delta in sorted({s for mag in shifts for s in (+abs(mag), -abs(mag))}):
        j_shift = j_paths(delta)
        comparisons.append((float(delta), float(j_shift.mean()),
                            *monte_carlo_estimate(j_base_paths - j_shift)))
    return OptimalityReport(*monte_carlo_estimate(j_base_paths), comparisons)
