import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial import Polynomial
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
    bsvie_solve,
    optimal_fraction,
    simulate_wealth_positive,
    solve_c,
    solve_portfolio,
    theta0,
    verify_optimality,
)
from volterra_control.volterra import monte_carlo_estimate

from oracles import (calibration_reference, fraction_reference, terminal_log_martingale,
                     terminal_wealth, y_martingale)


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
    direct = NodeRegression([projector.feature], 32, RegressionBasis()).fit(f)
    err = np.sqrt(np.mean((v_mid - direct) ** 2)) / np.sqrt(np.mean(direct ** 2))
    assert err <= 0.01


# --- coefficient-space march against the per-path march --------------------------------

def _gauss_hermite(k):
    """Nodes and weights of the k-point Gauss-Hermite rule of a standard normal, exact for
    polynomials of degree <= 2k - 1."""
    z, w = np.polynomial.hermite_e.hermegauss(k)
    return z, w / w.sum()


def _terminal_polynomial(f, theta, paths):
    """F's least-squares fit at T, `NodeRegression` on S_N as in the package, as a
    polynomial in S."""
    reg = NodeRegression(_bsvie_features(theta, paths), paths.n_steps, RegressionBasis())
    return Polynomial(reg._lift().T @ reg.coefficients(f))


def _reference_row(row, ratios, terminal, theta, dt):
    """The march of one BSVIE row as polynomials in S, the oracle for `BackwardProjector`:
    E_j[v(S + theta_j dW_j)] and E_j[v(S + theta_j dW_j) dW_j] / dt by a Gauss-Hermite rule
    of d + 2 points, exact for these degrees, on v composed with S + theta_j dW_j by numpy's
    polynomial algebra. Returns v at the row's node and {j: Z_j}, polynomials in S."""
    z, w = _gauss_hermite(RegressionBasis().degree + 2)
    v, zhat = terminal, {}
    for j in range(len(ratios) - 1, row - 1, -1):
        shifted = [v(Polynomial([theta[j] * np.sqrt(dt) * zk, 1.0])) for zk in z]
        fitted = sum(wk * p for wk, p in zip(w, shifted))
        zhat[j] = sum(wk * zk * p for wk, zk, p in zip(w, z, shifted)) / np.sqrt(dt)
        v = fitted - ratios[j] * zhat[j] * dt
    return v, zhat


def _law_rms(poly, sd):
    """RMS of poly(S) for S ~ N(0, sd^2), by a Gauss-Hermite rule exact for its square."""
    z, w = _gauss_hermite(RegressionBasis().degree + 2)
    return np.sqrt(np.sum(w * poly(sd * z) ** 2))


def _reference_ratios(market, paths, row):
    t = paths.grid.nodes
    return [float(market.drift_kernel(t[row], t[j])) / float(market.vol_kernel(t[row], t[j]))
            for j in range(paths.n_steps)]


def _reference_bsvie(c, market, utility, paths):
    """Every row's march by `_reference_row`, its diagonal read on the paths' S_j, and the
    consistency spread as RMS under the law of S_j."""
    n, t, vol, dt = paths.n_steps, paths.grid.nodes, market.vol_kernel, paths.grid.dt
    th = theta0(market, paths.grid)[:n]
    f_c = terminal_wealth(c, paths, utility, th)
    terminal = _terminal_polynomial(f_c, th, paths)
    sd = np.sqrt(np.concatenate(([0.0], np.cumsum(th ** 2 * dt))))
    x_poly, z_poly = [None] * n, [None] * n
    diag_rms, spread = np.empty(n), np.zeros(n)
    for row in range(n - 1, -1, -1):
        x_poly[row], zhat = _reference_row(row, _reference_ratios(market, paths, row),
                                           terminal, th, dt)
        z_poly[row] = zhat[row]
        diag_rms[row] = _law_rms(zhat[row] / float(vol(t[row], t[row])), sd[row])
        for j in range(row + 1, n):
            dev = zhat[j] / float(vol(t[row], t[j])) - z_poly[j] / float(vol(t[j], t[j]))
            spread[j] = max(spread[j], _law_rms(dev, sd[j]) / max(diag_rms[j], 1e-300))
    rows = _bsvie_features(th, paths)[0].values
    xhat, zdiag = np.empty((n + 1, paths.n_paths)), np.empty((n, paths.n_paths))
    xhat[n] = f_c
    for j in range(n):
        xhat[j], zdiag[j] = x_poly[j](rows[j]), z_poly[j](rows[j])
    return xhat, zdiag, spread


def _reference_gap(c, market, utility, paths):
    th = theta0(market, paths.grid)[:paths.n_steps]
    terminal = _terminal_polynomial(terminal_wealth(c, paths, utility, th), th, paths)
    v0, _ = _reference_row(0, _reference_ratios(market, paths, 0), terminal, th, paths.grid.dt)
    return float(v0(0.0)) - market.initial_wealth


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
            a[j], b[j] = start
        else:
            a[j], b[j] = projector.carry[j] @ c[j + 1], projector.carry_z[j] @ c[j + 1]
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


_MOMENT_MARKETS = [
    pytest.param(MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0), id="desk"),
    pytest.param(MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=-0.5),
                 id="rising-vol"),
]


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
@pytest.mark.parametrize("market", _MOMENT_MARKETS)
def test_projector_moments_match_the_design_products_to_round_off(market, degree):
    """G, A and B of the exact march against the design products of the exact law.

    (S_j / sd_j, dW_j / sqrt(dt)) are two independent standard normals, and the tensor
    Gauss-Hermite rule of k = d + 2 points per variable integrates every design product
    exactly (degree <= 2d in S_j and <= d + 1 in dW_j, below 2k - 1). So on its k^2 weighted
    nodes, Phi_j W Phi_j^T is the node Gram G_j, Phi_j W Phi_{j+1}^T = G_j A_j and Phi_j W
    diag(dW_j) Phi_{j+1}^T = G_j B_j dt in exact arithmetic, A_j and B_j dt the solved
    carries (`carry`, `carry_z` times dt). Every term of either side passes through at most
    n = k^2 + 4d + 8 roundings (the powers, the binomial terms of a carry, the quadrature
    sums and the products by G), so the two agree within 2 gamma_n, gamma_n = n u / (1 - n u),
    u = eps / 2, times the sum of their terms' magnitudes.
    """
    paths = sample_paths(TimeGrid(1.0, 8), JumpModel.none(), 200, seed=31)
    n, dt, basis = paths.n_steps, paths.grid.dt, RegressionBasis(degree=degree)
    theta = theta0(market, paths.grid)
    projector = BackwardProjector(theta, *_bsvie_features(theta, paths), paths, basis)
    k = degree + 2
    n_round, u = k * k + 4 * degree + 8, np.finfo(float).eps / 2
    gamma = n_round * u / (1 - n_round * u)
    z, w = _gauss_hermite(k)
    x, dw, weight = np.repeat(z, k), np.sqrt(dt) * np.tile(z, k), np.repeat(w, k) * np.tile(w, k)
    powers, sd = np.arange(degree + 1)[:, None], projector.sd
    assert projector.regs[0].keep == [0]
    assert all(reg.keep == list(range(degree + 1)) for reg in projector.regs[1:])
    for j, reg in enumerate(projector.regs):
        phi = x ** powers[reg.keep]
        nxt = ((sd[j] * x + theta[j] * dw) / sd[j + 1]) ** powers
        if j + 1 < n:
            nxt = nxt[projector.regs[j + 1].keep]
        for got, right, mag in (
                (reg.gram, phi, np.abs(reg.gram)),
                (reg.gram @ projector.carry[j], nxt, np.abs(reg.gram) @ np.abs(projector.carry[j])),
                (reg.gram @ projector.carry_z[j] * dt, dw * nxt,
                 np.abs(reg.gram) @ np.abs(projector.carry_z[j]) * dt)):
            want = (phi * weight) @ right.T
            bound = 2 * gamma * (mag + (np.abs(phi) * weight) @ np.abs(right).T)
            assert np.all(np.abs(got - want) <= bound), j


@pytest.mark.parametrize("utility", [UtilitySpec.log(), UtilitySpec.power(0.5)],
                         ids=lambda u: u.name)
def test_a_zero_drift_market_keeps_the_intercept_and_c_in_closed_form(oracle_paths, utility):
    """b0 = 0: theta = 0, so S_j = 0 and sd_j = 0 at every node, and every node, the fit at T
    included, keeps the intercept alone. M_T = 1, so F(c_f) is one number on every path, and
    the fit at T is its mean shrunk by the ridge, mean / (1 + ridge); every carry is 1 (A) or
    0 (B) exactly, so X^(0) is that fit, Z^ = 0 and the fractions are 0. The calibration c =
    c_f (x / X^(0))^(gamma - 1) is then the closed form x^(gamma - 1)
    (`calibration_reference`) times (1 + ridge)^(gamma - 1), to round-off."""
    market = MarketModel.exponential(0.0, 0.2, decay_b=1.0, decay_sigma=0.0, wealth=2.0)
    got = solve_portfolio(market, utility, oracle_paths)
    projector = got.problem.projector
    assert projector.terminal_reg.keep == [0]
    assert all(reg.keep == [0] for reg in projector.regs)
    want = calibration_reference(market, utility, oracle_paths.grid) * (
        1.0 + RegressionBasis().ridge) ** (utility.exponent - 1.0)
    assert abs(got.c / want - 1.0) <= 16 * np.finfo(float).eps
    assert not got.mean_pi.any() and not got.std_pi.any()


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
    # 0.21-0.24 % of pi* on every node over seeds 7, 8, 9 and the desk seed (the same at
    # M = 1e5: the O(dt) gap of the scheme's closed form to pi*, not Monte Carlo error);
    # 5 % leaves 20x that. The log-utility fraction, without the 1 / (1 - gamma), is half
    # of pi*.
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
# seeds 0-11 at N = 64, M = 4e4, under the exact march (the fit of F at T is its only Monte
# Carlo error). Over those seeds no c lay more than 2.71 SD from the closed form, and the
# mean of the 12 lay 0.86-2.12 standard errors of the mean below it (the cubic's
# truncation at T). The test seed, 20, is not one of them (1.19-2.18 SD), and the tolerance
# is 4 SD: 12-419x tighter than with the sampled per-node moments, whose SDs were 8.4e-4
# to 2.07e-3.
@pytest.mark.parametrize("decay_b,decay_sigma,exponent,sd", [
    pytest.param(0.0, 0.0, 0.0, 7.6e-6, id="no-memory-log"),
    pytest.param(0.0, 0.0, 0.5, 6.2e-5, id="no-memory-power"),
    pytest.param(1.0, 0.0, 0.0, 2.1e-6, id="drift-memory-log"),
    pytest.param(1.0, 0.0, 0.5, 1.78e-5, id="drift-memory-power"),
    pytest.param(0.0, 0.5, 0.0, 2.06e-5, id="vol-memory-log"),
    pytest.param(0.0, 0.5, 0.5, 1.69e-4, id="vol-memory-power"),
])
def test_calibrated_c_matches_the_closed_form_of_the_scheme(calibration_paths, decay_b,
                                                             decay_sigma, exponent, sd):
    market = MarketModel.exponential(0.05, 0.2, decay_b=decay_b, decay_sigma=decay_sigma)
    utility = UtilitySpec.log() if exponent == 0.0 else UtilitySpec.power(exponent)
    c = _solve_c(PortfolioProblem(market, utility, calibration_paths)).c
    assert abs(c - calibration_reference(market, utility, calibration_paths.grid)) <= 4.0 * sd


# (decay_b, decay_sigma, utility exponent, SD): the SD is that of mean_pi's relative error
# to the scheme's closed-form fraction over seeds 0-11 at N = 64, M = 4e4, per node on
# [T/4, 3T/4] and pooled over those nodes, under the exact march. Over those seeds the
# interior RMS relative error reached 2.51-3.11 SD, and the mean error over seeds and nodes
# lay 2.1-3.0 SD / sqrt(12) above 0: the truncation of F's cubic fit at T. The test seed,
# 20, is not one of them (1.90-2.31 SD), and the tolerance is 4 SD: 22-280x tighter than
# the sampled per-node moments' 3 SD, whose SDs were 8.0e-3 to 1.01e-2. Power utility at
# zero decays stays out: its fitted wealth is not positive on 1 or 2 of the 4e4 paths at
# every one of those seeds and at seed 20 (at node 31-43), where the cubic fit of
# F = c^-2 M_T^-2 at T falls below 0 in the tail of S (ROADMAP, Fix first, item 6).
@pytest.mark.parametrize("decay_b,decay_sigma,exponent,sd", [
    pytest.param(0.0, 0.0, 0.0, 1.04e-4, id="no-memory-log"),
    pytest.param(1.0, 0.0, 0.0, 2.68e-5, id="drift-memory-log"),
    pytest.param(0.0, 0.5, 0.0, 2.69e-4, id="vol-memory-log"),
    pytest.param(1.0, 0.0, 0.5, 2.57e-4, id="drift-memory-power"),
])
def test_fractions_match_the_closed_form_of_the_scheme(calibration_paths, decay_b,
                                                        decay_sigma, exponent, sd):
    market = MarketModel.exponential(0.05, 0.2, decay_b=decay_b, decay_sigma=decay_sigma)
    utility = UtilitySpec.log() if exponent == 0.0 else UtilitySpec.power(exponent)
    n = calibration_paths.n_steps
    interior = slice(n // 4, (3 * n) // 4)
    mean_pi = solve_portfolio(market, utility, calibration_paths).mean_pi[interior]
    want = fraction_reference(market, utility, calibration_paths.grid)[interior]
    assert np.sqrt(np.mean((mean_pi / want - 1.0) ** 2)) <= 4.0 * sd


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
    for name in ("theta0", "_bsvie_features"):
        monkeypatch.setattr(portfolio, name, _counted(calls, name, getattr(portfolio, name)))
    # one backward march, closed by one terminal wealth, serves c and the fractions; the
    # paths enter once, in the one node regression, at T
    for cls, name in ((MarketModel, "validate"), (RegressionBasis, "path_floor"),
                      (BackwardProjector, "march"), (PortfolioProblem, "terminal"),
                      (NodeRegression, "__init__"), (NodeRegression, "coefficients")):
        monkeypatch.setattr(cls, name, _counted(calls, name, getattr(cls, name)))
    solve_portfolio(_ORACLE_MARKETS[1].values[0], log_utility, oracle_paths)
    # the floor is read by the problem's refusal, then once by the fit at T
    assert calls == {"validate": 1, "path_floor": 2, "theta0": 1, "_bsvie_features": 1,
                     "march": 1, "terminal": 1, "__init__": 1, "coefficients": 1}


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
    terminal = terminal_log_martingale(th, paths)
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
    assert terminal_log_martingale(th, paths).tobytes() == want[-1].tobytes()
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


def test_projector_build_and_fraction_pass_hold_one_node_of_rows():
    # The build walks the feature to S_N and fits F's basis there once (`NodeRegression`):
    # the row S_N, its stacked copy and the p design rows, p + 2 rows of M; the exact carries
    # hold no path. The fraction pass starts with the S row held; a step to the next node
    # replaces it, and each node's (2, M) Horner rows of X^ and Z^ and std's one temporary
    # are 3 rows above that, dropped before the next node's (`fraction_moments`). Holding
    # the previous node's rows while the next are formed measured 4.13 rows. A quarter row
    # is left for numpy's small temporaries.
    m = 100_000
    paths = sample_paths(TimeGrid(1.0, 8), JumpModel.none(), m, seed=7)
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0)
    theta = theta0(market, paths.grid)
    (feature,) = _bsvie_features(theta, paths)
    row = m * 8
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        projector = BackwardProjector(theta, feature, paths, RegressionBasis())
        build = tracemalloc.get_traced_memory()[1] - entry
        p = len(projector.terminal_reg.keep)
        problem = PortfolioProblem(market, UtilitySpec.log(), paths)
        fields = bsvie_solve(problem, 1.0)
        feature_rows = fields.regs[0].features[0].values
        feature_rows[0]   # the walk starts again at S_0, as the pass's first read does
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        stats = [fields.fraction_moments(j) for j in range(paths.n_steps)]
        fraction_pass = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert p == 4
    assert build <= (p + 2 + 1 / 4) * row, f"build peak {build / row:.2f} rows"
    assert fraction_pass <= (3 + 1 / 4) * row, f"fraction peak {fraction_pass / row:.2f} rows"
    assert stats == [(pi.mean(), pi.std(ddof=1)) for pi in map(fields.fraction, range(8))]


def test_the_problem_reads_the_martingale_off_the_fit_walk(oracle_paths, log_utility):
    # exp(S_N - sd_N^2 / 2) against the walk of the log increments theta_j dW_j -
    # theta_j^2 dt / 2: the same sum of N + 1 terms in another order, so within 2 gamma_(N+1)
    # of the sum of their magnitudes, u = eps / 2
    market = _ORACLE_MARKETS[1].values[0]
    problem = PortfolioProblem(market, log_utility, oracle_paths)
    n, th = oracle_paths.n_steps, problem.theta[:oracle_paths.n_steps]
    walked = terminal_log_martingale(problem.theta, oracle_paths)
    mag = np.abs(th[:, None] * oracle_paths.dW).sum(axis=0) + th @ th * oracle_paths.grid.dt
    u = np.finfo(float).eps / 2
    assert np.all(np.abs(np.log(problem.martingale) - walked)
                  <= 2 * (n + 1) * u / (1 - (n + 1) * u) * mag + 2 * u * np.abs(walked))


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
