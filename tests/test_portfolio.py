import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import (
    CalibrationError,
    ConfigurationError,
    ControlProcess,
    JumpModel,
    PathBundle,
    RegressionBasis,
    SimulationError,
    TimeGrid,
    UtilitySpec,
    sample_paths,
    simulate_integral_form,
)
from volterra_control.errors import RegressionError
from volterra_control.malliavin import (
    _MOMENT_BLOCK,
    BackwardProjector,
    NodeRegression,
    brownian_feature,
    d_brownian,
    jump_sum_feature,
    weighted_brownian_feature,
)
from volterra_control import portfolio
from volterra_control.portfolio import (
    MarketModel,
    PortfolioProblem,
    _bsvie_features,
    _kernel_ratios,
    _terminal_log_martingale,
    bsvie_solve,
    optimal_fraction,
    simulate_wealth_positive,
    solve_c,
    solve_portfolio,
    theta0,
    verify_optimality,
)
from volterra_control.volterra import monte_carlo_estimate

from oracles import calibration_reference, fraction_reference, terminal_wealth, y_martingale


@pytest.fixture(scope="module")
def merton_market():
    return MarketModel.constant(0.05, 0.2, wealth=1.0)


@pytest.fixture(scope="module")
def log_utility():
    return UtilitySpec.log()


def _fields(sol):
    """X^ as (N+1, M) and the diagonal Z^ as (N, M), stacked from the node reader."""
    n = len(sol.x_coef)
    xhat, zdiag = np.empty((n + 1, len(sol.terminal))), np.empty((n, len(sol.terminal)))
    xhat[n] = sol.terminal
    for j in range(n):
        xhat[j], zdiag[j] = sol.node(j)
    return xhat, zdiag


# --- market validation ----------------------------------------------------------

def test_market_validation():
    with pytest.raises(ConfigurationError):
        MarketModel.constant(0.05, 0.2, wealth=-1.0)
    falling = MarketModel.exponential(0.05, 0.2, decay_sigma=3.0, floor=0.15)
    with pytest.raises(ConfigurationError):
        falling.validate(TimeGrid(1.0, 16))
    assert MarketModel.exponential(0.05, 0.2, decay_sigma=0.5, horizon=2.0).vol_floor \
        == 0.5 * 0.2 * np.exp(-1.0)


@pytest.mark.parametrize("decay_sigma", [-0.5, -2.0])
def test_a_rising_volatility_kernel_is_accepted(decay_sigma):
    # the market reads sigma0(t, s) at s <= t alone, where a rising kernel is at
    # least sigma0; the default floor is then half of sigma0
    grid = TimeGrid(1.0, 64)
    rising = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=decay_sigma)
    assert rising.vol_floor == pytest.approx(0.1, rel=1e-15)
    rising.validate(grid)
    assert np.all(theta0(rising, grid) < 0.0)
    with pytest.raises(ConfigurationError, match="floor 0.21"):
        MarketModel.exponential(0.05, 0.2, decay_sigma=decay_sigma, floor=0.21).validate(grid)


# --- theta0 ----------------------------------------------------------------------

def test_theta_zero_drift(grid64):
    market = MarketModel.constant(0.0, 0.2)
    assert np.allclose(theta0(market, grid64), 0.0)


def test_theta_constant_market(grid64, merton_market):
    assert np.allclose(theta0(merton_market, grid64), -0.25)


def test_theta_exponential_drift(grid64):
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0)
    t = grid64.nodes
    want = -0.25 * np.exp(-(1.0 - t))
    assert np.allclose(theta0(market, grid64), want, rtol=1e-12)


# --- exponential martingale -------------------------------------------------------

def test_martingale_zero_loading_is_constant(paths64_small):
    y = y_martingale(np.zeros(65), paths64_small, c=2.5)
    assert np.all(y == 2.5)


def test_martingale_unit_mean(grid64, paths64_desk):
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0)
    th = theta0(market, grid64)
    y = y_martingale(th, paths64_desk, c=1.0)
    assert np.all(y > 0.0)
    terminal = y[-1]
    _, se = monte_carlo_estimate(terminal)
    assert abs(terminal.mean() - 1.0) <= 3.0 * se


def test_martingale_log_increments_exact(grid64, paths64_small):
    th = np.linspace(-0.3, 0.1, 65)
    y = y_martingale(th, paths64_small, c=1.0)
    inc = np.log(y[1:]) - np.log(y[:-1])
    dt = grid64.dt
    want = th[:64, None] * paths64_small.dW - 0.5 * th[:64, None] ** 2 * dt
    assert np.allclose(inc, want, atol=1e-12)


def test_martingale_diagonal_derivative_is_loading(grid64, paths64_small):
    # the derivative of log Y at node i+1 with respect to increment i equals
    # the loading theta(t_i) exactly for the scheme: increments beyond i
    # never enter log Y(t_{i+1})
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0)
    th = theta0(market, grid64)
    for i in (0, 20, 63):
        functional = lambda p, i=i: np.log(y_martingale(th, p, 1.0)[i + 1])  # noqa: E731
        d = d_brownian(functional, paths64_small, i)
        assert np.allclose(d, th[i], atol=1e-7)
        assert np.all(d_brownian(
            lambda p, i=i: np.log(y_martingale(th, p, 1.0)[i]),
            paths64_small, i) == 0.0)


# --- terminal wealth ---------------------------------------------------------------

def test_terminal_wealth_log_utility_form(grid64, paths64_small, log_utility):
    market = MarketModel.constant(0.05, 0.2)
    th = theta0(market, grid64)
    c = 1.7
    f = terminal_wealth(c, paths64_small, log_utility, th)
    y = y_martingale(th, paths64_small, c)
    assert np.allclose(f, 1.0 / y[-1], rtol=1e-12)
    assert np.all(f > 0.0)


def test_terminal_wealth_zero_loading_deterministic(paths64_small, log_utility):
    f = terminal_wealth(0.5, paths64_small, log_utility, np.zeros(65))
    assert np.allclose(f, 2.0, atol=1e-12)


def test_terminal_wealth_power_utility(grid64, paths64_small):
    util = UtilitySpec.power(0.5)
    market = MarketModel.constant(0.05, 0.2)
    th = theta0(market, grid64)
    c = 0.8
    f = terminal_wealth(c, paths64_small, util, th)
    y = y_martingale(th, paths64_small, c)
    assert np.allclose(f, y[-1] ** (1.0 / (0.5 - 1.0)), rtol=1e-12)


def test_terminal_wealth_decreasing_in_c(grid64, paths64_small, log_utility):
    market = MarketModel.constant(0.05, 0.2)
    th = theta0(market, grid64)
    f_lo = terminal_wealth(0.5, paths64_small, log_utility, th)
    f_hi = terminal_wealth(2.0, paths64_small, log_utility, th)
    assert np.all(f_hi < f_lo)


def test_terminal_wealth_requires_positive_c(paths64_small, log_utility):
    with pytest.raises(ConfigurationError):
        terminal_wealth(-1.0, paths64_small, log_utility, np.zeros(65))


# --- BSVIE --------------------------------------------------------------------------

def test_bsvie_driverless_constant_terminal(grid64, paths64_small, log_utility):
    market = MarketModel.constant(0.0, 0.2)
    sol = bsvie_solve(PortfolioProblem(market, log_utility, paths64_small), 0.5)
    # zero drift kernel and deterministic terminal: X^ == F(c), Z^ == 0
    assert np.allclose(sol.terminal, 2.0, atol=1e-12)
    xhat, zdiag = _fields(sol)
    assert np.allclose(xhat, 2.0, atol=1e-7)
    assert np.allclose(zdiag, 0.0, atol=1e-7)


def test_bsvie_driverless_is_martingale_projection(grid64, paths64_small):
    # zero drift kernel with a random terminal: X^(t) = E[F | F_t]
    util = UtilitySpec.log()
    th_fake = np.full(65, -0.25)  # loading used only to build F
    f = terminal_wealth(1.0, paths64_small, util, th_fake)
    projector = BackwardProjector(th_fake, *_bsvie_features(th_fake, paths64_small),
                                  paths64_small, RegressionBasis())
    _, _, coef = projector.march(projector.terminal_moments(f), np.zeros(64), 32)
    v_mid = projector.regs[32].design() @ coef[32]
    direct = projector.regs[32].fit(f)
    err = np.sqrt(np.mean((v_mid - direct) ** 2)) / np.sqrt(np.mean(direct ** 2))
    assert err <= 0.01


# --- coefficient-space march against the per-path march --------------------------------

def _reference_row(row, ratios, terminal, regs, dW, dt):
    """The per-path march of one BSVIE row, the oracle for `BackwardProjector`.

    Returns V(t_row, s_row) and the per-node integrands {j: Z_j}.
    """
    v = terminal.copy()
    zhat = {}
    for j in range(len(regs) - 1, row - 1, -1):
        phi = regs[j].design()
        fitted = phi @ regs[j].coefficients(v, phi=phi)
        zhat[j] = phi @ regs[j].coefficients((v - fitted) * dW[j], phi=phi) / dt
        v = fitted - ratios[j] * zhat[j] * dt
    return v, zhat


def _reference_regressions(features, paths):
    return [NodeRegression(features, j, RegressionBasis(), retain_design=True)
            for j in range(paths.n_steps)]


def _reference_ratios(market, paths, row):
    t = paths.grid.nodes
    return [float(market.drift_kernel(t[row], t[j])) / float(market.vol_kernel(t[row], t[j]))
            for j in range(paths.n_steps)]


def _reference_bsvie(c, market, utility, paths):
    n, t, vol = paths.n_steps, paths.grid.nodes, market.vol_kernel
    th = theta0(market, paths.grid)
    regs = _reference_regressions(_bsvie_features(th, paths), paths)
    f_c = terminal_wealth(c, paths, utility, th)
    xhat, zdiag = np.empty((n + 1, paths.n_paths)), np.empty((n, paths.n_paths))
    xhat[n] = f_c
    diag_rms, spread = np.empty(n), np.zeros(n)
    for row in range(n - 1, -1, -1):
        xhat[row], zhat = _reference_row(row, _reference_ratios(market, paths, row), f_c,
                                            regs, paths.dW, paths.grid.dt)
        zdiag[row] = zhat[row]
        diag_rms[row] = np.sqrt(np.mean((zhat[row] / float(vol(t[row], t[row]))) ** 2))
        for j in range(row + 1, n):
            ratio = zhat[j] / float(vol(t[row], t[j]))
            ref = zdiag[j] / float(vol(t[j], t[j]))
            dev = np.sqrt(np.mean((ratio - ref) ** 2)) / max(diag_rms[j], 1e-300)
            spread[j] = max(spread[j], dev)
    return xhat, zdiag, spread


def _reference_gap(c, market, utility, paths):
    th = theta0(market, paths.grid)
    regs = _reference_regressions(_bsvie_features(th, paths), paths)
    v0, _ = _reference_row(0, _reference_ratios(market, paths, 0),
                           terminal_wealth(c, paths, utility, th), regs, paths.dW, paths.grid.dt)
    return float(v0.mean()) - market.initial_wealth


_ORACLE_MARKETS = [
    pytest.param(MarketModel.constant(0.05, 0.2), id="no-decay"),
    pytest.param(MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.5, floor=0.05),
                 id="decays"),
]


@pytest.fixture(scope="module")
def oracle_paths():
    return sample_paths(TimeGrid(1.0, 24), JumpModel.none(), 10_000, seed=17)


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("market", _ORACLE_MARKETS)
def test_bsvie_matches_per_path_march(market, oracle_paths, log_utility):
    sol = bsvie_solve(PortfolioProblem(market, log_utility, oracle_paths), 1.1)
    xhat, zdiag, spread = _reference_bsvie(1.1, market, log_utility, oracle_paths)
    got_x, got_z = _fields(sol)
    assert _max_rel(got_x, xhat) <= 1e-11
    assert _max_rel(got_z, zdiag) <= 1e-10
    assert np.max(np.abs(sol.ratio_spread - spread)) <= 1e-9
    assert sol.ratio_spread[0] == 0.0


def _loop_march(projector, start, ratios, stop):
    """The march one (p,) coefficient vector at a time, as it was written before it took
    a matrix of ratios: the oracle for the bits of a (N,) march."""
    n = len(projector.regs)
    a, b, c = [None] * n, [None] * n, [None] * n
    for j in range(n - 1, stop - 1, -1):
        if j == n - 1:
            a[j], carried_dw = start
        else:
            a[j], carried_dw = projector.carry[j] @ c[j + 1], projector.carry_dw[j] @ c[j + 1]
        b[j] = (carried_dw - projector.centre_dw[j] @ a[j]) / projector.dt
        c[j] = a[j] - ratios[j] * projector.dt * b[j]
    return a, b, c


@pytest.mark.parametrize("market", _ORACLE_MARKETS)
def test_one_batched_march_matches_the_per_row_marches(market, oracle_paths, log_utility):
    # the oracle is the loop bsvie_solve made before it marched every row at once: one
    # (N,) march per row, and the spread as one RMS per row and later node
    problem = PortfolioProblem(market, log_utility, oracle_paths)
    sol = bsvie_solve(problem, 1.1)
    projector, n, t = problem.projector, oracle_paths.n_steps, oracle_paths.grid.nodes
    start = projector.terminal_moments(problem.terminal(1.1))
    diag_coef, diag_rms, spread = [None] * n, np.empty(n), np.zeros(n)
    for row in range(n - 1, -1, -1):
        ratios = _kernel_ratios(market, t[row], t[:n])
        marched = projector.march(start, ratios, row)
        for got, want in zip(marched, _loop_march(projector, start, ratios, row)):
            assert all(np.array_equal(g, w) for g, w in zip(got[row:], want[row:]))
        _, z_coef, x_coef = marched
        assert _max_rel(sol.x_coef[row], x_coef[row]) <= 1e-12
        assert _max_rel(sol.z_coef[row], z_coef[row]) <= 1e-12
        diag_coef[row] = z_coef[row] / market.vol_kernel(t[row], t[row])
        diag_rms[row] = projector.rms(row, diag_coef[row])
        vol_row = market.vol_kernel(t[row], t[:n])
        for j in range(row + 1, n):
            dev = projector.rms(j, z_coef[j] / vol_row[j] - diag_coef[j])
            spread[j] = max(spread[j], dev / max(diag_rms[j], 1e-300))
    assert np.max(np.abs(sol.ratio_spread - spread)) <= 1e-12
    assert sol.ratio_spread[0] == 0.0


def test_a_matrix_march_runs_its_columns_from_one_start(oracle_paths, log_utility):
    # column r of an (N, R) march is the (N,) march with ratios[:, r]; a_{N-1} and
    # b_{N-1} are one (p, 1) column, bit-identical to the (N,) march's
    market = _ORACLE_MARKETS[1].values[0]
    problem = PortfolioProblem(market, log_utility, oracle_paths)
    projector, n, t = problem.projector, oracle_paths.n_steps, oracle_paths.grid.nodes
    start = projector.terminal_moments(problem.terminal(0.9))
    ratios = _kernel_ratios(market, t[None, :3], t[:n, None])
    batched = projector.march(start, ratios, 1)
    assert batched[0][n - 1].shape == batched[1][n - 1].shape == (len(start[0]), 1)
    assert all(coef[0] is None for coef in batched)
    for r in range(3):
        single = projector.march(start, ratios[:, r], 1)
        assert np.array_equal(batched[0][n - 1][:, 0], single[0][n - 1])
        assert np.array_equal(batched[1][n - 1][:, 0], single[1][n - 1])
        for got, want in zip(batched, single):
            for j in range(1, n):
                col = np.broadcast_to(got[j], (len(want[j]), 3))[:, r]
                assert np.max(np.abs(col - want[j])) <= 1e-12 * np.max(np.abs(want[j]))


_READOUT_MARKETS = [
    pytest.param(MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0),
                 id="desk"),
    pytest.param(MarketModel.exponential(0.05, 0.2, decay_b=0.0, decay_sigma=0.5, floor=0.05),
                 id="decays-0-0.5"),
]


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("market", _READOUT_MARKETS)
def test_horner_fields_equal_the_design_products(market, degree, paths64_desk, log_utility):
    # X^ and Z^ read by Horner on the theta-integral against the standardized design
    # times the coefficients, at every node; node 0's design is the intercept alone
    basis = RegressionBasis(degree=degree)
    sol = bsvie_solve(PortfolioProblem(market, log_utility, paths64_desk, basis), 1.0)
    assert sol.regs[0].keep == [0]
    assert all(len(reg.keep) == degree + 1 for reg in sol.regs[1:])
    for j in range(paths64_desk.n_steps):
        phi = sol.regs[j].design()
        for got, coef in zip(sol.node(j), (sol.x_coef[j], sol.z_coef[j])):
            want = phi @ coef
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class _DesignRouteProjector(BackwardProjector):
    """The projector with its node regressions and moments formed from design rows, as
    products of the (p, M) rows of `NodeRegression`s: the route that the power tables
    replace, and their oracle."""

    def __init__(self, theta, feature, paths, basis=None):
        super().__init__(theta, feature, paths, basis)
        m, dw = paths.n_paths, paths.dW
        self.regs = [NodeRegression([self.feature], j, self.basis, retain_design=True)
                     for j in range(paths.n_steps)]
        rows = [reg._rows for reg in self.regs]
        self.centre_dw = [reg._solve((phi * dw[j]) @ phi.T / m)
                          for j, (reg, phi) in enumerate(zip(self.regs, rows))]
        self.carry = [reg._solve(phi @ nxt.T / m)
                      for reg, phi, nxt in zip(self.regs, rows, rows[1:])]
        self.carry_dw = [reg._solve((phi * dw[j]) @ nxt.T / m)
                         for j, (reg, phi, nxt) in enumerate(zip(self.regs, rows, rows[1:]))]
        for reg in self.regs:
            reg._rows = None


_MOMENT_MARKETS = [
    pytest.param(MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0), id="desk"),
    pytest.param(MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=-0.5),
                 id="rising-vol"),
]


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
@pytest.mark.parametrize("market", _MOMENT_MARKETS)
def test_projector_moments_match_the_design_products_to_round_off(market, degree,
                                                                   monkeypatch):
    """G, C, A and B of the power tables against the products of design rows.

    The build's right-hand sides are recorded as it solves them, so the carries and the
    centred dW moments are checked unsolved. Each route is L X L'^T for its own
    standardizations L (node j) and L' (node j + 1, or L for G and C), X the raw moment
    sum_m x^a y^b (dW) / M with x = S_j, y = S_j or S_{j+1}. Let Mag be sum_m |x|^a (|x| +
    |theta_j dW_j|)^b (|dW|) / M, at least |X|. Every path's term passes through at most
    n = M + 8d + 12 roundings in either route (powers, the products, the block sums over M
    paths, the division by M, the binomial expansion of S_{j+1} = S_j + theta_j dW_j and the
    products by L), so a route is within gamma_n |L| Mag |L'|^T of its L in exact arithmetic,
    gamma_n = n u / (1 - n u), u = eps / 2. The two exact values differ by dL X L'^T +
    L X dL'^T for dL = L_tables - L_design, at most |dL| Mag |L'|^T + |L| Mag |dL'|^T.
    """
    paths = sample_paths(TimeGrid(1.0, 8), JumpModel.none(), 5 * _MOMENT_BLOCK // 2, seed=31)
    m, basis, theta = paths.n_paths, RegressionBasis(degree=degree), theta0(market, paths.grid)
    solve, solved = NodeRegression._solve, {}
    monkeypatch.setattr(NodeRegression, "_solve", lambda reg, rhs: solved.setdefault(
        reg.node, []).append(rhs) or solve(reg, rhs))
    projector = BackwardProjector(theta, *_bsvie_features(theta, paths), paths, basis)
    monkeypatch.undo()
    n_round = m + 8 * degree + 12
    gamma = n_round * (np.finfo(float).eps / 2) / (1 - n_round * np.finfo(float).eps / 2)
    rows = weighted_brownian_feature(theta[:paths.n_steps], paths).values
    design = [NodeRegression([projector.feature], j, basis, retain_design=True)
              for j in range(paths.n_steps)]

    def bound(mag, lift, ref, lift_next, ref_next):
        return (gamma * (np.abs(lift) @ mag @ np.abs(lift_next).T
                         + np.abs(ref) @ mag @ np.abs(ref_next).T)
                + np.abs(lift - ref) @ mag @ np.abs(lift_next).T
                + np.abs(ref) @ mag @ np.abs(lift_next - ref_next).T)

    for j, (reg, ref) in enumerate(zip(projector.regs, design)):
        assert reg.keep == ref.keep
        phi, dw = ref._rows, paths.dW[j]
        x = np.abs(rows[j])
        y = x + np.abs(theta[j] * dw)
        px = np.cumprod(np.vstack([np.ones(m), np.tile(x, (degree, 1))]), axis=0)
        py = np.cumprod(np.vstack([np.ones(m), np.tile(y, (degree, 1))]), axis=0)
        lift, ref_lift = reg._lift(), ref._lift()
        checks = [(reg.gram, phi @ phi.T / m, px @ px.T / m, lift, ref_lift),
                  (solved[j][0], (phi * dw) @ phi.T / m, (px * np.abs(dw)) @ px.T / m,
                   lift, ref_lift)]
        assert np.array_equal(projector.centre_dw[j], solve(reg, solved[j][0]))
        if j + 1 < paths.n_steps:
            nxt = design[j + 1]._rows
            nxt_lift, ref_nxt = projector.regs[j + 1]._lift(), design[j + 1]._lift()
            checks += [(solved[j][1], phi @ nxt.T / m, px @ py.T / m, nxt_lift, ref_nxt),
                       (solved[j][2], (phi * dw) @ nxt.T / m, (px * np.abs(dw)) @ py.T / m,
                        nxt_lift, ref_nxt)]
            assert np.array_equal(projector.carry[j], solve(reg, solved[j][1]))
            assert np.array_equal(projector.carry_dw[j], solve(reg, solved[j][2]))
        for got, want, mag, lift_next, ref_next in checks:
            assert np.all(np.abs(got - want) <= bound(mag, lift, ref_lift, lift_next, ref_next)), j
    assert len(solved[paths.n_steps - 1]) == 1   # node N-1 solves its C_j alone


def test_a_zero_drift_market_keeps_the_intercept_and_the_design_route_bits(
        oracle_paths, log_utility, monkeypatch):
    """b0 = 0: theta = 0, so S_j = 0 on every path and node, and each node fits the
    intercept alone. Then G_j = A_j = 1 and B_j = C_j = mean(dW_j) in both routes, the
    same bits, so c and every mean_pi but node N-1's are the design route's bit for bit.
    Node N-1's Z is (Phi^T diag(dW) F / M - C a) / dt from its own C, a block-ordered sum
    of M terms in one route and a full-width one in the other: they differ by at most
    2 gamma_M mean|dW| |a|, and the fraction Z / (sigma0 X^), X^ = a (r = 0 and the
    intercept alone), by 2 gamma_M mean|dW| / (dt sigma0)."""
    market = MarketModel.exponential(0.0, 0.2, decay_b=1.0, decay_sigma=0.0)
    got = solve_portfolio(market, log_utility, oracle_paths)
    assert all(reg.keep == [0] for reg in got.bsvie.regs)
    monkeypatch.setattr(portfolio, "BackwardProjector", _DesignRouteProjector)
    want = solve_portfolio(market, log_utility, oracle_paths)
    assert got.c == want.c
    assert got.mean_pi[:-1].tobytes() == want.mean_pi[:-1].tobytes()
    m, u = oracle_paths.n_paths, np.finfo(float).eps / 2
    limit = 2 * m * u / (1 - m * u) * np.abs(oracle_paths.dW[-1]).mean() / (
        oracle_paths.grid.dt * market.sigma0)
    assert abs(got.mean_pi[-1] - want.mean_pi[-1]) <= limit


def _solve_c(problem):
    """`solve_c` on the BSVIE closed at the reference c_f = u'(x), as `solve_portfolio`
    calls it."""
    c_f = float(problem.utility.u_prime(problem.market.initial_wealth))
    return solve_c(problem, bsvie_solve(problem, c_f))


@pytest.mark.parametrize("market", _ORACLE_MARKETS)
def test_gap_matches_per_path_march(market, oracle_paths, log_utility):
    # X^(0) read off row 0 of the BSVIE, as `solve_c` reads it
    problem = PortfolioProblem(market, log_utility, oracle_paths)
    for c in (0.3, 1.0, 1.05, 4.0):
        g_ref = _reference_gap(c, market, log_utility, oracle_paths)
        sol = bsvie_solve(problem, c)
        v0 = float(sol.regs[0].design().mean(axis=0) @ sol.x_coef[0])
        assert abs((v0 - market.initial_wealth) - g_ref) <= 1e-12 * max(1.0, abs(g_ref))


def test_solve_c_visits_the_oracle_sequence(oracle_paths, log_utility):
    # The gaps at the bracket's ends (10^-3, 10^3) u'(x) and at the root are those of
    # the per-path march.
    market = _ORACLE_MARKETS[1].values[0]
    cal = _solve_c(PortfolioProblem(market, log_utility, oracle_paths))
    mstar = 1.0 / market.initial_wealth
    assert [c for c, _ in cal.history] == [1e-3 * mstar, 1e3 * mstar, cal.c]
    for c, g in cal.history:
        g_ref = _reference_gap(c, market, log_utility, oracle_paths)
        assert abs(g - g_ref) <= 1e-12 * max(1.0, abs(g_ref))


@pytest.mark.parametrize("utility", [UtilitySpec.log(), UtilitySpec.power(0.5),
                                     UtilitySpec.power(-2.0)], ids=lambda u: u.name)
def test_solve_c_is_the_exact_root_whatever_c_f(oracle_paths, utility):
    market = _ORACLE_MARKETS[1].values[0]
    x = market.initial_wealth
    problem = PortfolioProblem(market, utility, oracle_paths)
    mstar = float(utility.u_prime(x))
    centred = solve_c(problem, bsvie_solve(problem, mstar))
    shifted = solve_c(problem, bsvie_solve(problem, 0.2 * mstar))
    assert abs(shifted.c - centred.c) <= 1e-12 * centred.c
    for cal in (centred, shifted):
        c, g = cal.history[-1]
        assert c == cal.c and abs(g) <= 1e-12 * x


@pytest.fixture(scope="module")
def linearity_projector():
    paths = sample_paths(TimeGrid(1.0, 12), JumpModel.none(), 2_000, seed=23)
    return paths, BackwardProjector(np.ones(paths.n_steps), brownian_feature(paths), paths,
                                    RegressionBasis())


@settings(max_examples=20)
@given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0), stop=st.integers(0, 11),
       ratios=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12))
def test_march_is_linear_in_the_terminal(linearity_projector, alpha, beta, stop, ratios):
    paths, projector = linearity_projector
    f = np.exp(0.3 * paths.brownian[-1])
    g = paths.brownian[-1] ** 2 - paths.brownian[6]
    r = np.asarray(ratios)
    combined = projector.march(projector.terminal_moments(alpha * f + beta * g), r, stop)
    parts_f, parts_g = (projector.march(projector.terminal_moments(h), r, stop) for h in (f, g))
    for whole, cf, cg in zip(combined, parts_f, parts_g):
        for j in range(stop, 12):
            want = alpha * cf[j] + beta * cg[j]
            scale = abs(alpha) * np.abs(cf[j]).max() + abs(beta) * np.abs(cg[j]).max()
            assert np.max(np.abs(whole[j] - want)) <= 1e-10 * max(scale, 1e-300)
        assert all(whole[j] is None for j in range(stop))


def test_bsvie_merton_initial_wealth(grid64, paths64_desk, merton_market, log_utility):
    sol = bsvie_solve(PortfolioProblem(merton_market, log_utility, paths64_desk), 1.0)
    xhat, _ = _fields(sol)
    assert abs(xhat[0].mean() - 1.0) <= 0.02
    # trivial time-zero information: fitted values are path independent
    assert xhat[0].std() <= 0.01 * abs(xhat[0].mean())
    assert np.all(xhat > 0.0)


def test_bsvie_positivity_diagnostic(grid64, merton_market):
    # at the degree-1 path floor (160 paths) the solve succeeds, but the wealth
    # fitted at a late node of this seed is not positive on every path
    paths = sample_paths(grid64, JumpModel.none(), 160, seed=10)
    sol = bsvie_solve(PortfolioProblem(merton_market, UtilitySpec.log(), paths,
                                       basis=RegressionBasis(degree=1)), 1.0)
    with pytest.raises(RegressionError, match="not strictly positive"):
        for j in range(grid64.steps):
            sol.fraction(j)


# --- calibration ----------------------------------------------------------------------

def test_solve_c_deterministic_market(grid64, paths64_small, log_utility):
    # zero loading: F(c) = 1/c exactly, so X^(0) = 1/c and c = 1/x
    market = MarketModel.constant(0.0, 0.2, wealth=2.0)
    cal = _solve_c(PortfolioProblem(market, log_utility, paths64_small))
    assert cal.c == pytest.approx(0.5, rel=2e-3)


def test_solve_c_proportional_kernels(grid64, paths64_small, log_utility):
    # proportional exponential kernels keep the drift-to-vol ratio constant in
    # the first argument, so the replication budget gives c = 1/x exactly
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.5, decay_sigma=1.5,
                                     wealth=1.0, floor=0.01)
    cal = _solve_c(PortfolioProblem(market, log_utility, paths64_small))
    assert abs(cal.c - 1.0) <= 0.02


def test_solve_c_power_utility_brute_force(grid64, paths64_small):
    util = UtilitySpec.power(0.5)
    market = MarketModel.constant(0.05, 0.2, wealth=1.0)
    cal = _solve_c(PortfolioProblem(market, util, paths64_small))
    # brute-force oracle: X^_c(0) = E[F(c) M_T] with the exponential weight
    th = theta0(market, grid64)
    y = y_martingale(th, paths64_small, 1.0)
    cs = np.geomspace(0.25, 4.0, 161)
    vals = np.array([
        float(np.mean(terminal_wealth(c, paths64_small, util, th) * y[-1]))
        for c in cs
    ])
    c_oracle = float(np.interp(0.0, (vals - 1.0)[::-1], cs[::-1]))
    assert abs(cal.c - c_oracle) <= 0.02 * c_oracle


def test_solve_c_invalid_bracket(grid64, paths64_small, merton_market, log_utility):
    # closed at c_f = 1e-5, the bracket (1e-8, 1e-2) lies below the root c = 1
    problem = PortfolioProblem(merton_market, log_utility, paths64_small)
    with pytest.raises(CalibrationError, match=r"does not straddle the root: gap\(1e-08\)"):
        solve_c(problem, bsvie_solve(problem, 1e-5))


@pytest.mark.parametrize("utility", [UtilitySpec.log(), UtilitySpec.power(0.5)],
                         ids=lambda u: u.name)
def test_fractions_do_not_depend_on_c(oracle_paths, utility):
    # F(c) = c^{1/(gamma-1)} F(1) scales X^ and Z^ alike, so the march closed at any c
    # gives the fractions of the calibrated one
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0)
    problem = PortfolioProblem(market, utility, oracle_paths)
    c_f = float(utility.u_prime(market.initial_wealth))
    base, scaled = bsvie_solve(problem, c_f), bsvie_solve(problem, 3.0 * c_f)
    for j in range(oracle_paths.n_steps):
        want = base.fraction(j)
        assert np.max(np.abs(scaled.fraction(j) - want)) <= 1e-12 * np.max(np.abs(want))


# --- recovered fractions ----------------------------------------------------------------

def test_fractions_zero_integrand(grid64, paths64_small, log_utility):
    market = MarketModel.constant(0.0, 0.2)
    sol = bsvie_solve(PortfolioProblem(market, log_utility, paths64_small), 0.5)
    pi = np.array([sol.fraction(j) for j in range(grid64.steps)])
    assert np.allclose(pi, 0.0, atol=1e-8)


def test_fractions_reject_nonpositive_wealth(grid64, paths64_small, merton_market,
                                             log_utility):
    sol = bsvie_solve(PortfolioProblem(merton_market, log_utility, paths64_small), 1.0)
    # shift node 5's intercept (a column of ones) so that its lowest wealth is -1e-9
    sol.x_coef[5] = sol.x_coef[5].copy()
    sol.x_coef[5][0] -= sol.node(5)[0].min() + 1e-9
    low = int(np.sum(sol.node(5)[0] <= 0.0))
    assert low >= 1
    with pytest.raises(RegressionError):
        sol.fraction(5)
    with pytest.raises(RegressionError, match=f"at node 5 on {low} of {paths64_small.n_paths} "
                                              r"paths \(smallest -1e-09\)"):
        sol.fraction(5)


# --- positivity-preserving wealth simulation ----------------------------------------------

def test_wealth_zero_fraction_stays_at_initial(paths64_small, merton_market):
    st = simulate_wealth_positive(merton_market, ControlProcess.constant(0.0),
                                  paths64_small)
    assert np.allclose(st.values, 1.0, atol=1e-12)


def test_wealth_constant_kernels_gbm_moment(paths64_desk, merton_market):
    st = simulate_wealth_positive(merton_market, ControlProcess.constant(1.0),
                                  paths64_desk)
    _, se = monte_carlo_estimate(st.terminal)
    assert abs(st.terminal.mean() - np.exp(0.05)) <= 3.0 * se + 2e-4
    assert np.all(st.values > 0.0)


def test_wealth_refuses_a_non_finite_memory_correction(paths64_small):
    # pi X = 1e200 * 1e200 overflows in the history sum of node 1
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0, wealth=1e200)
    control = ControlProcess.constant(1e200, bounds=(-1e300, 1e300))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match="memory correction is non-finite at node 1$"):
            simulate_wealth_positive(market, control, paths64_small.subset(0, 50))


def test_wealth_refuses_a_non_finite_level(paths64_small):
    # at pi = -1e4 the log step's -(sigma pi)^2 dt / 2 = -3e4 takes the wealth to 0 at
    # node 1, and the memory correction divided by it is not finite at node 2
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0)
    control = ControlProcess.constant(-1e4, bounds=(-1e300, 1e300))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match="wealth is non-finite at node 2$"):
            simulate_wealth_positive(market, control, paths64_small.subset(0, 50))


def test_wealth_agrees_with_integral_form(grid64):
    fine = sample_paths(TimeGrid(1.0, 128), JumpModel.none(), 1_000, seed=66)
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.5,
                                     floor=0.05)
    model = market.to_coefficient_model()
    ctrl = ControlProcess.constant(1.0)
    gaps = []
    for factor in (4, 2, 1):
        paths = fine.coarsen(factor) if factor > 1 else fine
        a = simulate_wealth_positive(market, ctrl, paths)
        b = simulate_integral_form(model, ctrl, paths)
        gaps.append(float(np.abs(a.values - b.values).max()))
    # both schemes target the same dynamics: the gap shrinks roughly linearly
    assert gaps[-1] <= gaps[0] / 1.8
    assert gaps[-1] <= 0.05


def _wealth_full_history(market, control, paths):
    """Reference wealth run: the memory correction re-summed over the whole
    history at every node, with the d/dt kernels written out."""
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    t = paths.grid.nodes

    def drift_dt(t, s):
        return -market.decay_b * market.b0 * np.exp(
            -market.decay_b * (np.asarray(t, dtype=float) - s))

    def vol_dt(t, s):
        return -market.decay_sigma * market.sigma0 * np.exp(
            -market.decay_sigma * (np.asarray(t, dtype=float) - s))

    x = np.empty((n + 1, m))
    x[0] = market.initial_wealth
    log_x = np.empty((n + 1, m))
    log_x[0] = np.log(market.initial_wealth)
    u_rows = np.empty((n, m))
    for i in range(n):
        u_rows[i] = np.broadcast_to(
            np.asarray(control.at(i, paths, x=x[i]), dtype=float), (m,))
        alpha = np.zeros(m)
        if i > 0:
            s_h = t[:i, None]
            px = u_rows[:i] * x[:i]
            alpha = np.einsum("jm,jm->m", np.broadcast_to(drift_dt(t[i], s_h), (i, m)), px) * dt
            alpha += np.einsum("jm,jm->m", np.broadcast_to(vol_dt(t[i], s_h), (i, m)),
                               px * paths.dW[:i])
        b_ii = float(market.drift_kernel(t[i], t[i]))
        s_ii = float(market.vol_kernel(t[i], t[i]))
        log_x[i + 1] = log_x[i] + s_ii * u_rows[i] * paths.dW[i] + (
            b_ii * u_rows[i] - 0.5 * (s_ii * u_rows[i]) ** 2 + alpha / x[i]
        ) * dt
        x[i + 1] = np.exp(log_x[i + 1])
    return x


@pytest.mark.parametrize("market,rtol", [
    pytest.param(MarketModel.constant(0.05, 0.2), 0.0, id="constant"),
    pytest.param(MarketModel.exponential(0.05, 0.2, 1.0, 0.5), 1e-14, id="exponential"),
])
def test_wealth_memory_matches_the_full_history_sum(market, rtol):
    paths = sample_paths(TimeGrid(1.0, 32), JumpModel.none(), 2_000, seed=41)
    fractions = np.random.default_rng(5).uniform(0.2, 1.8, (32, 2_000))
    for control in (ControlProcess.constant(1.0), ControlProcess.per_path(fractions),
                    ControlProcess.feedback(lambda i, t, paths, x: 0.5 + 0.4 * np.tanh(x - 1.0))):
        got = simulate_wealth_positive(market, control, paths).values
        want = _wealth_full_history(market, control, paths)
        if rtol == 0.0:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want) / np.abs(want)) <= rtol


@pytest.mark.parametrize("market,time_invariant", [
    pytest.param(MarketModel.constant(0.05, 0.2), True, id="constant"),
    pytest.param(MarketModel.exponential(0.05, 0.2, 1.0, 0.5), False, id="exponential"),
])
def test_market_coefficient_model_declares_its_decays(market, time_invariant):
    model = market.to_coefficient_model()
    model.self_test()
    assert model.decays == (market.decay_b, market.decay_sigma, 0.0)
    assert model.time_invariant_kernels is time_invariant
    assert model.memory_state_coupling is not time_invariant


# --- optimality -------------------------------------------------------------------------------

def test_verify_optimality_interface(paths64_small, merton_market, log_utility):
    report = verify_optimality(merton_market, log_utility,
                               ControlProcess.constant(1.25), paths64_small,
                               shifts=(0.1,))
    deltas = sorted(d for d, _, _, _ in report.comparisons)
    assert deltas == [-0.1, 0.1]
    assert report.dominates()


@pytest.mark.parametrize("control", [
    ControlProcess.constant(1.25),
    ControlProcess.feedback(lambda i, t, paths, x: 1.0 + 0.1 * np.tanh(x - 1.0)),
], ids=["constant", "feedback"])
def test_verify_optimality_is_the_full_state_run_of_each_shifted_control(paths64_small,
                                                                          log_utility,
                                                                          control):
    # each run forms its control rows as it goes and keeps only its terminal wealth; the
    # objectives must be those of `simulate_wealth_positive` under `control.shifted`
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.5)

    def j_paths(ctrl):
        return log_utility.u(simulate_wealth_positive(market, ctrl, paths64_small).terminal)

    per_path = ControlProcess.per_path(
        np.array(simulate_wealth_positive(market, control, paths64_small).controls))
    for ctrl in (control, per_path):
        report = verify_optimality(market, log_utility, ctrl, paths64_small, shifts=(0.25,))
        base = j_paths(ctrl)
        assert (report.j_candidate, report.j_candidate_stderr) == monte_carlo_estimate(base)
        for delta, j, gap, se in report.comparisons:
            shifted = j_paths(ctrl.shifted(delta))
            assert j == shifted.mean()
            assert (gap, se) == monte_carlo_estimate(base - shifted)


def test_verify_optimality_refuses_a_shift_that_leaves_the_bounds(paths64_small,
                                                                  merton_market, log_utility):
    control = ControlProcess.constant(0.95, bounds=(-1.0, 1.0))
    with pytest.raises(ConfigurationError, match=r"leave the admissible interval \[-1.0, 1.0\]"):
        verify_optimality(merton_market, log_utility, control, paths64_small, shifts=(0.1,))


def test_verify_optimality_holds_a_few_rows_per_run(log_utility):
    # A shifted run holds one row of the wealth and of the control at a time; a copy of
    # the shifted (N, M) control and the (N+1, M) wealth would be 2N + 1 rows.
    n, m = 64, 20_000
    paths = sample_paths(TimeGrid(1.0, n), JumpModel.none(), m, seed=7)
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0)
    control = ControlProcess.per_path(np.full((n, m), 1.0) + paths.dW)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        verify_optimality(market, log_utility, control, paths, shifts=(0.25,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry < 20 * m * 8, f"peak {(peak - entry) / (m * 8):.2f} rows"


def test_full_pipeline_merton_small_scale(grid64, paths64_small, merton_market,
                                          log_utility):
    sol = solve_portfolio(merton_market, log_utility, paths64_small)
    assert abs(sol.c - 1.0) <= 0.02
    interior = sol.mean_pi[16:48]
    assert np.max(np.abs(interior - 1.25) / 1.25) <= 0.05
    assert sol.bsvie.max_ratio_spread <= 0.05


def test_power_utility_fractions_match_the_closed_form(grid64, paths64_small):
    # pi*(t) = b0(T,t) / ((1 - gamma) sigma0(T,t) sigma0(t,t)) for x^gamma / gamma
    # (README). At M = 2e4, decays (1, 0) and gamma = 0.5, mean_pi measured within
    # 3.05-3.63 % of pi* on every node over seeds 7, 8, 9 and the desk seed (1.34-1.83 %
    # at M = 1e5: Monte Carlo error); 5 % leaves 1.4x that. The log-utility fraction,
    # without the 1 / (1 - gamma), is half of pi*.
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0, wealth=1.0)
    sol = solve_portfolio(market, UtilitySpec.power(0.5), paths64_small)
    want = optimal_fraction(market, grid64, exponent=0.5)
    assert np.array_equal(2.0 * optimal_fraction(market, grid64), want)
    assert np.max(np.abs(sol.mean_pi / want - 1.0)) <= 0.05


def test_optimal_fraction_without_memory_is_mertons(grid64, merton_market):
    assert np.all(optimal_fraction(merton_market, grid64) == 0.05 / 0.2 ** 2)


@pytest.fixture(scope="module")
def calibration_paths(grid64):
    return sample_paths(grid64, JumpModel.none(), 40_000, seed=20)


# (decay_b, decay_sigma, utility exponent, SD of c): the SD is that of solve_c's c over
# seeds 0-11 at N = 64, M = 4e4. Over those seeds no c lay more than 2.12 SD from the
# closed form, and the mean of the 12 lay 1.07-1.13 standard errors of the mean above it:
# the regression's bias is below its Monte Carlo error at this scale. The test seed, 20,
# is not one of them, and the tolerance is 4 SD.
@pytest.mark.parametrize("decay_b,decay_sigma,exponent,sd", [
    pytest.param(0.0, 0.0, 0.0, 1.33e-3, id="no-memory-log"),
    pytest.param(0.0, 0.0, 0.5, 1.39e-3, id="no-memory-power"),
    pytest.param(1.0, 0.0, 0.0, 8.8e-4, id="drift-memory-log"),
    pytest.param(1.0, 0.0, 0.5, 8.4e-4, id="drift-memory-power"),
    pytest.param(0.0, 0.5, 0.0, 1.86e-3, id="vol-memory-log"),
    pytest.param(0.0, 0.5, 0.5, 2.07e-3, id="vol-memory-power"),
])
def test_calibrated_c_matches_the_closed_form_of_the_scheme(calibration_paths, decay_b,
                                                             decay_sigma, exponent, sd):
    market = MarketModel.exponential(0.05, 0.2, decay_b=decay_b, decay_sigma=decay_sigma)
    utility = UtilitySpec.log() if exponent == 0.0 else UtilitySpec.power(exponent)
    c = _solve_c(PortfolioProblem(market, utility, calibration_paths)).c
    assert abs(c - calibration_reference(market, utility, calibration_paths.grid)) <= 4.0 * sd


# (decay_b, decay_sigma, utility exponent, SD): the SD is that of mean_pi's relative error
# to the scheme's closed-form fraction over seeds 0-11 at N = 64, M = 4e4, per node on
# [T/4, 3T/4] and pooled over those nodes. Over those seeds the interior RMS relative
# error never exceeded 1.42 SD, and the mean error over seeds and nodes was at most
# 0.23 SD / sqrt(12). The test seed, 20, is not one of them (1.37-1.58 SD), and the
# tolerance is 3 SD. Power utility at zero decays is left out: at seed 20 its BSVIE has a
# non-positive fitted wealth at node 42.
@pytest.mark.parametrize("decay_b,decay_sigma,exponent,sd", [
    pytest.param(0.0, 0.0, 0.0, 8.5e-3, id="no-memory-log"),
    pytest.param(1.0, 0.0, 0.0, 1.01e-2, id="drift-memory-log"),
    pytest.param(0.0, 0.5, 0.0, 8.0e-3, id="vol-memory-log"),
    pytest.param(1.0, 0.0, 0.5, 9.7e-3, id="drift-memory-power"),
])
def test_fractions_match_the_closed_form_of_the_scheme(calibration_paths, decay_b,
                                                        decay_sigma, exponent, sd):
    market = MarketModel.exponential(0.05, 0.2, decay_b=decay_b, decay_sigma=decay_sigma)
    utility = UtilitySpec.log() if exponent == 0.0 else UtilitySpec.power(exponent)
    n = calibration_paths.n_steps
    interior = slice(n // 4, (3 * n) // 4)
    mean_pi = solve_portfolio(market, utility, calibration_paths).mean_pi[interior]
    want = fraction_reference(market, utility, calibration_paths.grid)[interior]
    assert np.sqrt(np.mean((mean_pi / want - 1.0) ** 2)) <= 3.0 * sd


# --- work done on demand -----------------------------------------------------------------

@pytest.fixture
def projector_builds(monkeypatch):
    """Counts the `BackwardProjector`s the portfolio module builds."""
    built = []

    class Counted(BackwardProjector):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(portfolio, "BackwardProjector", Counted)
    return built


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_solve_portfolio_builds_each_shared_object_once(oracle_paths, log_utility, monkeypatch):
    calls = Counter()
    for name in ("theta0", "_bsvie_features", "_terminal_log_martingale"):
        monkeypatch.setattr(portfolio, name, _counted(calls, name, getattr(portfolio, name)))
    # one backward march, closed by one terminal wealth, serves c and the fractions
    for cls, name in ((MarketModel, "validate"), (RegressionBasis, "path_floor"),
                      (BackwardProjector, "march"), (PortfolioProblem, "terminal")):
        monkeypatch.setattr(cls, name, _counted(calls, name, getattr(cls, name)))
    solve_portfolio(_ORACLE_MARKETS[1].values[0], log_utility, oracle_paths)
    # the floor is read by the problem's refusal, then once by the projector, whose node
    # regressions are made from its power tables
    assert calls == {"validate": 1, "path_floor": 2, "theta0": 1,
                     "_bsvie_features": 1, "_terminal_log_martingale": 1, "march": 1,
                     "terminal": 1}


def test_too_few_paths_for_the_batches_fail_before_any_fit(log_utility, projector_builds):
    # the one-feature basis has dimension 4 at degree 3, 10 paths per column: 40 paths
    paths = sample_paths(TimeGrid(1.0, 16), JumpModel.none(), 39, seed=5)
    market = _ORACLE_MARKETS[1].values[0]
    for solve in (solve_portfolio, PortfolioProblem):
        with pytest.raises(RegressionError, match=r"monte_carlo\.paths >= 40 .* got 39"):
            solve(market, log_utility, paths)
    assert projector_builds == []
    enough = sample_paths(paths.grid, JumpModel.none(), 40, seed=5)
    assert np.isfinite(solve_portfolio(market, log_utility, enough).c)


@settings(max_examples=25)
@given(n=st.integers(2, 12), m=st.integers(16, 90), seed=st.integers(0, 2**16))
def test_terminal_martingale_and_batch_slices_match_rebuilds(n, m, seed):
    paths = sample_paths(TimeGrid(1.0, n), JumpModel.none(), m, seed=seed)
    th = np.linspace(-0.4, 0.3, n + 1)
    terminal = _terminal_log_martingale(th, paths)
    assert np.array_equal(terminal, _log_martingale_rows(th, paths)[-1])
    (feature,) = _bsvie_features(th, paths)
    whole = _stacked(feature.values)
    width = m // 8
    for b in range(8):
        cols = slice(b * width, (b + 1) * width)
        sub = paths.subset(cols.start, cols.stop)
        assert np.array_equal(whole[:, cols], _stacked(_bsvie_features(th, sub)[0].values))
        assert np.array_equal(terminal[cols], _log_martingale_rows(th, sub)[-1])
        assert np.array_equal(np.exp(terminal)[cols], np.exp(_log_martingale_rows(th, sub)[-1]))


# --- running sums row by row, and fields read one node at a time ----------------------------

def _bundle(dW):
    n, m = dW.shape
    return PathBundle(TimeGrid(1.0, n), JumpModel.none(), dW, np.zeros((n, m, 0), np.int16), None)


def _cumsum_rows(increments):
    """The running sum as `np.cumsum` along the nodes forms it, with a zero first row."""
    out = np.zeros((increments.shape[0] + 1, increments.shape[1]))
    np.cumsum(increments, axis=0, out=out[1:])
    return out


def _log_martingale_rows(th, paths):
    """log of the unit-start exponential martingale at every node, by `_cumsum_rows`."""
    th = th[:paths.n_steps, None]
    return _cumsum_rows(th * paths.dW - 0.5 * th ** 2 * paths.grid.dt)


def _stacked(rows):
    """Every row of a feature's `values`, read in order, as one (N+1, M) array."""
    return np.stack([rows[j] for j in range(len(rows))])


def _signed_zero_case(n, m):
    """dW, weights w and loading th whose running sums hold -0.0 in row 1."""
    rng = np.random.default_rng(n * 1000 + m)
    dW = rng.normal(0.0, 0.3, (n, m))
    w = rng.uniform(-1.5, 1.5, n)
    th = rng.uniform(-0.5, 0.5, n + 1)
    # row 1 holds -0.0 in both sums: (-1) * 0.0, and 0 * (-x) - 0.0
    dW[0, :] = -np.abs(dW[0, :])
    dW[0, 0] = 0.0
    w[0], th[0] = -1.0, 0.0
    return dW, w, th


@pytest.mark.parametrize("n,m", [(2, 2), (3, 7), (5, 33), (17, 260)])
def test_running_sums_equal_the_cumsum_bit_for_bit(n, m):
    dW, w, th = _signed_zero_case(n, m)
    paths = _bundle(dW)
    got = _stacked(weighted_brownian_feature(w, paths).values)
    want = _cumsum_rows(w[:, None] * dW)
    assert np.signbit(want[1]).any() and got.tobytes() == want.tobytes()
    want = _log_martingale_rows(th, paths)
    assert np.signbit(want[1]).any()
    assert _terminal_log_martingale(th, paths).tobytes() == want[-1].tobytes()
    # the Brownian level and the jump sum, read in node order and in a scrambled one, are
    # the bundle's cumsum arrays
    jumpy = sample_paths(TimeGrid(1.0, n), JumpModel(2.0, (-0.5, 0.3, 0.8), (0.3, 0.3, 0.4)),
                         m, seed=n * m)
    scrambled = np.random.default_rng(m).permutation(n + 1)
    for feature, want in ((brownian_feature(paths), paths.brownian),
                          (brownian_feature(jumpy), jumpy.brownian),
                          (jump_sum_feature(jumpy), jumpy.jump_sum)):
        for order in (range(n + 1), scrambled):
            for j in order:
                assert feature.values[j].tobytes() == want[j].tobytes(), (feature.name, j)


@pytest.mark.parametrize("n,m", [(2, 2), (5, 33), (17, 260)])
def test_feature_rows_read_in_any_order_equal_the_cumsum_bit_for_bit(n, m):
    # one feature is read forward, backward, each node twice and in a shuffled order: a
    # later node steps the held row forward, an earlier one restarts from row 0
    dW, w, _ = _signed_zero_case(n, m)
    want = _cumsum_rows(w[:, None] * dW)
    assert np.signbit(want[1]).any()
    rows = weighted_brownian_feature(w, _bundle(dW)).values
    assert len(rows) == n + 1
    shuffled = np.random.default_rng(n).permutation(n + 1)
    for order in (range(n + 1), range(n, -1, -1), np.repeat(np.arange(n + 1), 2), shuffled):
        for j in order:
            assert rows[j].tobytes() == want[j].tobytes()
            assert not rows[j].flags.writeable
    for j in (-1, n + 1):
        with pytest.raises(IndexError):
            rows[j]


def test_portfolio_problem_holds_no_feature_array(log_utility):
    # the feature rows and node designs are formed on request, so neither the build nor
    # what the problem keeps (the martingale, one feature row) reaches (N+1, M) floats
    n, m = 64, 20_000
    paths = sample_paths(TimeGrid(1.0, n), JumpModel.none(), m, seed=7)
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0)
    tracemalloc.start()
    try:
        problem = PortfolioProblem(market, log_utility, paths)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = m * 8
    assert peak < (n + 1) * row, f"peak {peak / 1e6:.2f} MB"
    p = RegressionBasis().dimension(1)
    assert held < (p + 3) * row, f"held {held / 1e6:.2f} MB"
    kept = [reg._rows.nbytes for reg in problem.projector.regs if reg._rows is not None]
    assert kept == []


def test_projector_build_peaks_at_two_designs_and_two_blocks():
    # The build once held node j-1's (p, M) design, node j's rows and two stacked blocks of
    # paths, within 2p + 3 rows of M at p = 4, M = 1e5. From power tables it holds no
    # design: the feature's row S_j while S_{j+1} is formed, and two block buffers of
    # 2d + 1 and d + 2 rows of `_MOMENT_BLOCK` paths, about 3 rows of M in all (a quarter
    # row is left for the tables, the node regressions and numpy's temporaries).
    m = 100_000
    paths = sample_paths(TimeGrid(1.0, 8), JumpModel.none(), m, seed=7)
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0)
    theta = theta0(market, paths.grid)
    (feature,) = _bsvie_features(theta, paths)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        projector = BackwardProjector(theta, feature, paths, RegressionBasis())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    p = len(projector.regs[-1].gram)
    assert p == 4
    assert peak - entry <= (2 * p + 3) * m * 8, f"peak {(peak - entry) / (m * 8):.2f} rows"
    buffers = (2 * 3 + 1 + 3 + 2) * _MOMENT_BLOCK * 8
    assert peak - entry <= (2 + 1 / 4) * m * 8 + buffers, \
        f"peak {(peak - entry) / (m * 8):.2f} rows"


def test_strategy_statistics_are_those_of_the_fraction_rows(oracle_paths, log_utility):
    market = _ORACLE_MARKETS[1].values[0]
    sol = solve_portfolio(market, log_utility, oracle_paths)
    fractions = sol.fractions()
    assert fractions.shape == (oracle_paths.n_steps, oracle_paths.n_paths)
    for j, row in enumerate(fractions):
        assert sol.mean_pi[j] == row.mean() and sol.std_pi[j] == row.std(ddof=1)


def test_solve_portfolio_forms_no_per_path_field_array():
    # With the sampling traced, the peak holds dW, the BSVIE feature and a few node
    # designs; one (N, M) array of X^, Z^ or the fractions would exceed the bound.
    n, m = 64, 20_000
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0)
    p = RegressionBasis().dimension(1)
    tracemalloc.start()
    try:
        paths = sample_paths(TimeGrid(1.0, n), JumpModel.none(), m, seed=7)
        solve_portfolio(market, UtilitySpec.log(), paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = paths.dW.nbytes + (n + 1) * m * 8 + 8 * p * m * 8
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


# --- refusals ------------------------------------------------------------------------------

@pytest.mark.parametrize("floor", [0.0, -0.1])
def test_a_non_positive_volatility_floor_is_refused(floor):
    with pytest.raises(ConfigurationError, match=f"volatility floor must be positive, got {floor}"):
        MarketModel(0.05, 0.2, 0.0, 0.0, floor, 1.0)


def test_theta_refuses_a_volatility_below_the_floor_at_the_horizon(grid64):
    # sigma0(T, t) = 0.2 e^{-(T - t)} falls to 0.074 at t = 0, below the floor 0.15
    market = MarketModel.exponential(0.05, 0.2, decay_sigma=1.0, floor=0.15)
    with pytest.raises(ConfigurationError, match="below floor 0.15 at the horizon"):
        theta0(market, grid64)


@pytest.mark.parametrize("value", [0.0, np.inf])
def test_terminal_wealth_refuses_a_martingale_value_outside_the_positive_domain(value,
                                                                               log_utility):
    with pytest.raises(SimulationError, match="marginal-utility argument left the positive"):
        portfolio._inverse_marginal(1.0, np.array([1.0, value, 0.5]), log_utility)
    with pytest.raises(SimulationError, match=rf"domain: {value:.6g} on path 1$"):
        portfolio._inverse_marginal(1.0, np.array([1.0, value, value]), log_utility)
