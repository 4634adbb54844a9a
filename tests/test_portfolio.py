import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import (
    CalibrationError,
    ConfigurationError,
    ControlProcess,
    JumpModel,
    RegressionBasis,
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
)
from volterra_control.portfolio import (
    MarketModel,
    _bsvie_features,
    _initial_value,
    _kernel_ratios,
    martingale_feature,
    bsvie_solve,
    recover_pi,
    simulate_wealth_positive,
    solve_c,
    solve_portfolio,
    terminal_wealth,
    theta0,
    verify_optimality,
    y_martingale,
)


@pytest.fixture(scope="module")
def merton_market():
    return MarketModel.constant(0.05, 0.2, wealth=1.0)


@pytest.fixture(scope="module")
def log_utility():
    return UtilitySpec.log()


# --- market validation ----------------------------------------------------------

def test_market_validation():
    with pytest.raises(ConfigurationError):
        MarketModel.constant(0.05, 0.2, wealth=-1.0)
    falling = MarketModel.exponential(0.05, 0.2, decay_sigma=3.0, floor=0.15)
    with pytest.raises(ConfigurationError):
        falling.validate(TimeGrid(1.0, 16))


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
    se = terminal.std(ddof=1) / np.sqrt(len(terminal))
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
    sol = bsvie_solve(0.5, market, log_utility, paths64_small)
    # zero drift kernel and deterministic terminal: X^ == F(c), Z^ == 0
    assert np.allclose(sol.terminal, 2.0, atol=1e-12)
    assert np.allclose(sol.xhat, 2.0, atol=1e-7)
    assert np.allclose(sol.zhat_diag, 0.0, atol=1e-7)


def test_bsvie_driverless_is_martingale_projection(grid64, paths64_small):
    # zero drift kernel with a random terminal: X^(t) = E[F | F_t]
    util = UtilitySpec.log()
    th_fake = np.full(65, -0.25)  # loading used only to build F
    f = terminal_wealth(1.0, paths64_small, util, th_fake)
    projector = BackwardProjector(_bsvie_features(th_fake, paths64_small), paths64_small,
                                  RegressionBasis())
    _, _, coef = projector.march(f, np.zeros(64), 32)
    v_mid = projector.regs[32].design() @ coef[32]
    direct = projector.regs[32].fit(f)
    err = np.sqrt(np.mean((v_mid - direct) ** 2)) / np.sqrt(np.mean(direct ** 2))
    assert err <= 0.01


# --- coefficient-space march against the per-path march --------------------------------

def _reference_row(row, ratios, terminal, regs, dW, dt):
    """The per-path march of one BSVIE row, the oracle for `BackwardProjector`.

    Returns V(t_row, s_row), the per-node integrands {j: Z_j}, the standard
    error of mean(V) from the estimator contribution at the last step, and
    the per-node projections {j: E_j[v_{j+1}]}.
    """
    v = terminal.copy()
    zhat, fitted, stderr = {}, {}, None
    for j in range(len(regs) - 1, row - 1, -1):
        phi = regs[j].design()
        fitted[j] = phi @ regs[j].coefficients(v, phi=phi)
        zhat[j] = phi @ regs[j].coefficients((v - fitted[j]) * dW[j], phi=phi) / dt
        if j == row:
            est = v - ratios[j] * (v - fitted[j]) * dW[j]
            stderr = float(est.std(ddof=1) / np.sqrt(len(est)))
        v = fitted[j] - ratios[j] * zhat[j] * dt
    return v, zhat, stderr, fitted


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
        xhat[row], zhat, _, _ = _reference_row(row, _reference_ratios(market, paths, row), f_c,
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
    v0, _, stderr, _ = _reference_row(0, _reference_ratios(market, paths, 0),
                                      terminal_wealth(c, paths, utility, th), regs,
                                      paths.dW, paths.grid.dt)
    return float(v0.mean()) - market.initial_wealth, stderr


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
    sol = bsvie_solve(1.1, market, log_utility, oracle_paths)
    xhat, zdiag, spread = _reference_bsvie(1.1, market, log_utility, oracle_paths)
    assert _max_rel(sol.xhat, xhat) <= 1e-11
    assert _max_rel(sol.zhat_diag, zdiag) <= 1e-10
    assert np.max(np.abs(sol.ratio_spread - spread)) <= 1e-9
    assert sol.ratio_spread[0] == 0.0


@pytest.mark.parametrize("market", _ORACLE_MARKETS)
def test_gap_matches_per_path_march(market, oracle_paths, log_utility):
    projector = BackwardProjector(
        _bsvie_features(theta0(market, oracle_paths.grid), oracle_paths), oracle_paths,
        RegressionBasis())
    t = oracle_paths.grid.nodes
    ratios = _kernel_ratios(market, t[0], t[:-1])
    for c in (0.3, 1.0, 1.05, 4.0):
        g_ref, se_ref = _reference_gap(c, market, log_utility, oracle_paths)
        f_c = terminal_wealth(c, oracle_paths, log_utility, theta0(market, oracle_paths.grid))
        v0, se = _initial_value(projector, f_c, ratios)
        assert abs((v0 - market.initial_wealth) - g_ref) <= 1e-12 * max(1.0, abs(g_ref))
        assert se == pytest.approx(se_ref, rel=1e-9)


def test_solve_c_visits_the_oracle_sequence(oracle_paths, log_utility):
    # Bisection moves on the sign of each gap alone, so equal signs at every
    # visited c mean the per-path march would have visited the same sequence.
    market = _ORACLE_MARKETS[1].values[0]
    cal = solve_c(market, log_utility, oracle_paths)
    assert len(cal.history) > 10
    for c, g, se in cal.history:
        g_ref, se_ref = _reference_gap(c, market, log_utility, oracle_paths)
        assert np.sign(g) == np.sign(g_ref)
        assert abs(g - g_ref) <= 1e-12 * max(1.0, abs(g_ref))
        assert se == pytest.approx(se_ref, rel=1e-9)


def test_given_projector_must_match_the_bundle(oracle_paths, log_utility):
    market = _ORACLE_MARKETS[0].values[0]
    other = sample_paths(oracle_paths.grid, JumpModel.none(), oracle_paths.n_paths, seed=18)
    foreign = BackwardProjector(_bsvie_features(theta0(market, other.grid), other), other)
    with pytest.raises(ConfigurationError, match="projector"):
        bsvie_solve(1.1, market, log_utility, oracle_paths, projector=foreign)
    with pytest.raises(ConfigurationError, match="projector"):
        solve_c(market, log_utility, oracle_paths, projector=foreign)
    own = BackwardProjector(_bsvie_features(theta0(market, other.grid), oracle_paths),
                            oracle_paths)
    with pytest.raises(ConfigurationError, match="basis"):
        bsvie_solve(1.1, market, log_utility, oracle_paths, basis=RegressionBasis(), projector=own)
    with pytest.raises(ConfigurationError, match="basis"):
        solve_c(market, log_utility, oracle_paths, basis=RegressionBasis(), projector=own)
    sol = bsvie_solve(1.1, market, log_utility, oracle_paths, projector=own)
    assert sol.xhat.shape == (oracle_paths.n_steps + 1, oracle_paths.n_paths)


@pytest.mark.parametrize("market", _ORACLE_MARKETS)
def test_stationarity_residual_matches_per_path_march(market, oracle_paths, log_utility):
    control = ControlProcess.constant(1.25)
    report = verify_optimality(market, log_utility, control, oracle_paths, shifts=(0.1,))
    n, t, T = oracle_paths.n_steps, oracle_paths.grid.nodes, oracle_paths.grid.horizon
    th = theta0(market, oracle_paths.grid)
    regs = _reference_regressions([martingale_feature(th, oracle_paths)], oracle_paths)
    wealth = simulate_wealth_positive(market, control, oracle_paths)
    marginal = log_utility.u_prime(wealth.terminal)
    _, q, _, p = _reference_row(0, np.zeros(n), marginal, regs, oracle_paths.dW,
                                oracle_paths.grid.dt)
    want = np.empty(n)
    for i in range(n):
        b_T, s_T = float(market.drift_kernel(T, t[i])), float(market.vol_kernel(T, t[i]))
        residual = np.sqrt(np.mean((b_T * p[i] + s_T * q[i]) ** 2))
        want[i] = residual / np.sqrt(np.mean((b_T * p[i]) ** 2 + (s_T * q[i]) ** 2))
    assert np.max(np.abs(report.stationarity_normalized - want)) <= 1e-9


@pytest.fixture(scope="module")
def linearity_projector():
    paths = sample_paths(TimeGrid(1.0, 12), JumpModel.none(), 2_000, seed=23)
    return paths, BackwardProjector([brownian_feature(paths)], paths, RegressionBasis())


@settings(max_examples=20)
@given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0), stop=st.integers(0, 11),
       ratios=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12))
def test_march_is_linear_in_the_terminal(linearity_projector, alpha, beta, stop, ratios):
    paths, projector = linearity_projector
    f = np.exp(0.3 * paths.brownian[-1])
    g = paths.brownian[-1] ** 2 - paths.brownian[6]
    r = np.asarray(ratios)
    combined = projector.march(alpha * f + beta * g, r, stop)
    parts_f, parts_g = projector.march(f, r, stop), projector.march(g, r, stop)
    for whole, cf, cg in zip(combined, parts_f, parts_g):
        for j in range(stop, 12):
            want = alpha * cf[j] + beta * cg[j]
            scale = abs(alpha) * np.abs(cf[j]).max() + abs(beta) * np.abs(cg[j]).max()
            assert np.max(np.abs(whole[j] - want)) <= 1e-10 * max(scale, 1e-300)
        assert all(whole[j] is None for j in range(stop))


def test_bsvie_merton_initial_wealth(grid64, paths64_desk, merton_market, log_utility):
    sol = bsvie_solve(1.0, merton_market, log_utility, paths64_desk)
    assert abs(sol.xhat[0].mean() - 1.0) <= 0.02
    # trivial time-zero information: fitted values are path independent
    assert sol.xhat[0].std() <= 0.01 * abs(sol.xhat[0].mean())
    assert np.all(sol.xhat > 0.0)


def test_bsvie_positivity_diagnostic(grid64, merton_market):
    # starving the solver of paths with a high degree trips the diagnostic
    paths = sample_paths(grid64, JumpModel.none(), 50, seed=3)
    util = UtilitySpec.log()
    with pytest.raises(RegressionError):
        sol = bsvie_solve(1.0, merton_market, util, paths,
                          basis=RegressionBasis(degree=1))
        recover_pi(sol, merton_market, grid64)
        raise RegressionError("wealth stayed positive at this seed")


# --- calibration ----------------------------------------------------------------------

def test_solve_c_deterministic_market(grid64, paths64_small, log_utility):
    # zero loading: F(c) = 1/c exactly, so X^(0) = 1/c and c = 1/x
    market = MarketModel.constant(0.0, 0.2, wealth=2.0)
    cal = solve_c(market, log_utility, paths64_small)
    assert cal.c == pytest.approx(0.5, rel=2e-3)


def test_solve_c_proportional_kernels(grid64, paths64_small, log_utility):
    # proportional exponential kernels keep the drift-to-vol ratio constant in
    # the first argument, so the replication budget gives c = 1/x exactly
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.5, decay_sigma=1.5,
                                     wealth=1.0, floor=0.01)
    cal = solve_c(market, log_utility, paths64_small)
    assert abs(cal.c - 1.0) <= 0.02


def test_solve_c_power_utility_brute_force(grid64, paths64_small):
    util = UtilitySpec.power(0.5)
    market = MarketModel.constant(0.05, 0.2, wealth=1.0)
    cal = solve_c(market, util, paths64_small)
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
    with pytest.raises(CalibrationError, match="bracket"):
        solve_c(merton_market, log_utility, paths64_small, bracket=(5.0, 50.0))


# --- recovered fractions ----------------------------------------------------------------

def test_recover_pi_zero_integrand(grid64, paths64_small, log_utility):
    market = MarketModel.constant(0.0, 0.2)
    sol = bsvie_solve(0.5, market, log_utility, paths64_small)
    pi = recover_pi(sol, market, grid64)
    assert np.allclose(pi, 0.0, atol=1e-8)


def test_recover_pi_rejects_nonpositive_wealth(grid64, paths64_small, merton_market,
                                               log_utility):
    sol = bsvie_solve(1.0, merton_market, log_utility, paths64_small)
    sol.xhat[5, 0] = -1e-9
    with pytest.raises(RegressionError):
        recover_pi(sol, merton_market, grid64)


# --- positivity-preserving wealth simulation ----------------------------------------------

def test_wealth_zero_fraction_stays_at_initial(paths64_small, merton_market):
    st = simulate_wealth_positive(merton_market, ControlProcess.constant(0.0),
                                  paths64_small)
    assert np.allclose(st.values, 1.0, atol=1e-12)


def test_wealth_constant_kernels_gbm_moment(paths64_desk, merton_market):
    st = simulate_wealth_positive(merton_market, ControlProcess.constant(1.0),
                                  paths64_desk)
    m = paths64_desk.n_paths
    se = st.terminal.std(ddof=1) / np.sqrt(m)
    assert abs(st.terminal.mean() - np.exp(0.05)) <= 3.0 * se + 2e-4
    assert np.all(st.values > 0.0)


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


# --- optimality -------------------------------------------------------------------------------

def test_verify_optimality_interface(paths64_small, merton_market, log_utility):
    report = verify_optimality(merton_market, log_utility,
                               ControlProcess.constant(1.25), paths64_small,
                               shifts=(0.1,))
    deltas = sorted(d for d, _, _, _ in report.comparisons)
    assert deltas == [-0.1, 0.1]
    assert report.dominates()
    assert report.max_interior_stationarity() <= 0.06


def test_full_pipeline_merton_small_scale(grid64, paths64_small, merton_market,
                                          log_utility):
    sol = solve_portfolio(merton_market, log_utility, paths64_small)
    assert abs(sol.c - 1.0) <= 0.02
    interior = sol.fractions[16:48].mean(axis=1)
    assert np.max(np.abs(interior - 1.25) / 1.25) <= 0.05
    assert sol.bsvie.max_ratio_spread <= 0.05


def test_calibration_reproducibility(grid64, merton_market, log_utility):
    a = solve_c(merton_market, log_utility,
                sample_paths(grid64, JumpModel.none(), 40_000, seed=1))
    b = solve_c(merton_market, log_utility,
                sample_paths(grid64, JumpModel.none(), 40_000, seed=2))
    assert a.reproducible_within(b)
