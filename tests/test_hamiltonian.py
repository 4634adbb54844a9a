import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import (
    ControlProcess,
    JumpModel,
    PerformanceSpec,
    RegressionBasis,
    TimeGrid,
    UtilitySpec,
    registry_get,
    sample_paths,
    simulate_differential_form,
    simulate_integral_form,
)
from volterra_control.adjoint import solve_explicit_x_independent, solve_general
from volterra_control.hamiltonian import (
    GATEAUX_WINDOWS_SIGMA,
    arrow_spotcheck,
    check_stationarity,
    control_gradient,
    eval_h0,
    eval_h0_reduced,
    eval_h1,
    gateaux_check,
    maximize_control,
    maximum_condition_check,
    perturbation_window,
    simulate_variation,
)
from volterra_control.malliavin import state_feature
from volterra_control.portfolio import MarketModel, simulate_wealth_positive


def _square_terminal():
    return PerformanceSpec.terminal_only(
        lambda x: np.asarray(x, dtype=float) ** 2,
        lambda x: 2.0 * np.asarray(x, dtype=float),
        domain=(-2.0, 4.0),
    )


# --- h0 / h1 -------------------------------------------------------------------

def test_h0_reward_only():
    model = registry_get("custom", dict(
        initial_curve=lambda t: 0.0 * np.asarray(t, dtype=float),
        drift=lambda t, s, x, v: 0.0 * v,
        diffusion=lambda t, s, x, v: 0.0 * v,
        jump=lambda t, s, x, v, z: 0.0 * z,
        x_independent=True,
    ))
    spec = PerformanceSpec(running=lambda t, x, v: np.asarray(v, dtype=float))
    v = np.array([0.3, -0.7])
    out = eval_h0(model, spec, JumpModel.none(), 0.5, None, v,
                  p=np.zeros(2), q=np.zeros(2), r=np.zeros((2, 0)))
    assert np.allclose(out, v)


def test_h0_direct_substitution():
    model = registry_get("constant", dict(b0=1.0, sigma0=1.0))
    spec = PerformanceSpec(running=lambda t, x, v: 0.0 * np.asarray(v, dtype=float))
    x = np.array([1.5, 0.5])
    v = np.array([0.2, 0.4])
    p = np.array([1.0, 2.0])
    q = np.array([-1.0, 3.0])
    out = eval_h0(model, spec, JumpModel.none(), 0.3, x, v, p, q, np.zeros((2, 0)))
    assert np.allclose(out, v * x * (p + q))


def test_h0_portfolio_diagonal_exact():
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.3, decay_sigma=0.7)
    model = market.to_coefficient_model()
    spec = PerformanceSpec()
    t = 0.4
    x, v, p, q = 1.2, 0.8, 0.9, -0.2
    out = eval_h0(model, spec, JumpModel.none(), t, x, v, p, q, np.zeros((1, 0)))
    want = float(market.drift_kernel(t, t)) * v * x * p \
        + float(market.vol_kernel(t, t)) * v * x * q
    assert out == pytest.approx(want, rel=1e-12)


class _ZeroField:
    def __init__(self, n1, m, k=0):
        self._shape = (n1, m, k)

    def dp_rows(self, i):
        return np.zeros(self._shape[:2])

    def djump_rows(self, i):
        return np.zeros(self._shape)


def test_h1_vanishes_for_constant_kernels(paths64_small):
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    n1, m = 65, paths64_small.n_paths
    p = np.ones((n1, m))
    out = eval_h1(model, paths64_small, 10, np.ones(m), 1.0, p, _ZeroField(n1, m))
    assert np.allclose(out, 0.0, atol=1e-15)


def test_h1_empty_at_terminal_node(paths64_small):
    model = registry_get("exp_kernel_linear", dict(b0=0.05, sigma0=0.2))
    n1, m = 65, paths64_small.n_paths
    out = eval_h1(model, paths64_small, 64, np.ones(m), 1.0,
                  np.ones((n1, m)), _ZeroField(n1, m))
    assert np.all(out == 0.0)


def test_h1_fundamental_theorem_oracle(paths64_small):
    # with p == 1 and a zero field, H1 = sum_{j>i} db/dt(t_j, t_i) dt, a
    # right-point quadrature of b(T,t_i) - b(t_i,t_i)
    model = registry_get("exp_kernel_linear",
                         dict(b0=0.4, sigma0=0.0, decay_b=2.0, decay_sigma=1.0))
    m = paths64_small.n_paths
    n1 = 65
    p = np.ones((n1, m))
    i = 16
    t = paths64_small.grid.nodes
    x = np.full(m, 1.3)
    v = 0.7
    out = eval_h1(model, paths64_small, i, x, v, p, _ZeroField(n1, m))
    want = model.drift(t[-1], t[i], x, v) - model.drift(t[i], t[i], x, v)
    dt = paths64_small.grid.dt
    deriv_scale = abs(2.0 * 0.4 * v * 1.3)
    assert np.allclose(out, want, atol=deriv_scale * dt)


def test_h0_reduced_trivial_cases(jump_paths64_small):
    model = registry_get("x_independent_linear",
                         dict(b0=0.1, sigma0=0.0, jump0=0.0, decay_b=1.0))
    spec = PerformanceSpec(running=lambda t, x, v: 0.0 * np.asarray(v, dtype=float))
    m = jump_paths64_small.n_paths
    ones = np.ones(m)
    out = eval_h0_reduced(model, spec, jump_paths64_small, 12, 0.5,
                          terminal_prime=ones, d_terminal=np.zeros(m),
                          d_terminal_jump=np.zeros((m, 2)))
    t = jump_paths64_small.grid.nodes
    want = model.drift(t[-1], t[12], None, 0.5)
    assert np.allclose(out, want, rtol=1e-12)
    model_x = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    with pytest.raises(Exception):
        eval_h0_reduced(model_x, spec, jump_paths64_small, 12, 0.5, ones,
                        np.zeros(m), np.zeros((m, 2)))


# --- control maximization --------------------------------------------------------

def test_maximize_concave_quadratic():
    res = maximize_control(lambda v: -(v - 0.37) ** 2, (-1.0, 1.0))
    assert res.argmax == pytest.approx(0.37, abs=1e-5)
    assert not res.boundary


def test_maximize_affine_hits_boundary():
    res = maximize_control(lambda v: 2.0 * v + 1.0, (-1.0, 3.0))
    assert res.argmax == 3.0
    assert res.boundary


def test_maximize_ties_break_toward_smaller():
    res = maximize_control(lambda v: 0.0 * v, (-1.0, 1.0))
    assert res.argmax == -1.0  # flat objective: smallest candidate wins
    assert res.boundary


def test_argmax_invariant_under_v_independent_shift():
    rng = np.random.default_rng(5)
    for _ in range(4):
        c = rng.normal()
        base = maximize_control(lambda v: -(v - 0.2) ** 2, (-1.0, 1.0))
        shifted = maximize_control(lambda v: -(v - 0.2) ** 2 + c, (-1.0, 1.0))
        assert shifted.argmax == pytest.approx(base.argmax, abs=1e-9)


# --- variation process -----------------------------------------------------------

def test_variation_zero_direction(paths64_small):
    model = registry_get("exp_kernel_linear", dict(b0=0.05, sigma0=0.2))
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths64_small)
    y = simulate_variation(model, control, np.zeros(64), paths64_small, states)
    assert np.all(y.values == 0.0)


def test_variation_matches_differential_form_derivative(grid32):
    # coefficients linear in (x, v): the variation equals the exact directional
    # derivative of the differential-form scheme for any perturbation size
    paths = sample_paths(grid32, JumpModel.none(), 4_000, seed=55)
    model = registry_get("exp_kernel_linear",
                         dict(b0=0.3, sigma0=0.25, decay_b=1.0, decay_sigma=0.5))
    control = ControlProcess.constant(1.0)
    states = simulate_differential_form(model, control, paths)
    beta = perturbation_window(32, 8, 4, alpha=1.0)
    y = simulate_variation(model, control, beta, paths, states)
    lam = 1e-5
    up = simulate_differential_form(model, control.perturbed(beta, +lam), paths)
    dn = simulate_differential_form(model, control.perturbed(beta, -lam), paths)
    fd = (up.values - dn.values) / (2 * lam)
    scale = max(np.abs(fd).max(), 1e-12)
    assert np.abs(y.values - fd).max() <= 2e-4 * scale


def test_variation_constant_kernel_closed_form(grid32):
    # constant kernels reduce the variation to a linear SDE with fundamental
    # solution Phi(t) = exp((bx - sx^2/2) t + sx B(t)); Duhamel gives Y
    paths = sample_paths(grid32, JumpModel.none(), 4_000, seed=56)
    b0, s0 = 0.3, 0.25
    model = registry_get("constant", dict(b0=b0, sigma0=s0))
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths)
    beta = np.ones(32)
    y = simulate_variation(model, control, beta, paths, states)
    t = paths.grid.nodes
    bx, sx = b0, s0  # state partials at v = 1
    phi = np.exp((bx - 0.5 * sx ** 2) * t[:, None] + sx * paths.brownian)
    x_left = states.values[:-1]
    bv = b0 * x_left
    sv = s0 * x_left
    dt = paths.grid.dt
    integrand = (bv - sx * sv) * dt + sv * paths.dW
    duhamel = np.vstack([np.zeros((1, paths.n_paths)),
                         np.cumsum(integrand / phi[:-1], axis=0)])
    oracle = phi * duhamel
    err = np.abs(y.values[-1] - oracle[-1])
    scale = np.sqrt(np.mean(oracle[-1] ** 2))
    assert np.sqrt(np.mean(err ** 2)) <= 0.05 * scale


# --- stationarity / gateaux -------------------------------------------------------

def test_stationarity_zero_when_control_absent(paths64_small):
    # drift/diffusion carry no control dependence and f is v-free
    model = registry_get("custom", dict(
        initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        drift=lambda t, s, x, v: 0.02 + 0.0 * v,
        diffusion=lambda t, s, x, v: 0.1 + 0.0 * v,
        jump=lambda t, s, x, v, z: 0.0 * z,
        x_independent=True,
    ))
    spec = PerformanceSpec.log_terminal()
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths64_small)
    triple, field = solve_general(model, spec, control, states, paths64_small)
    rep = check_stationarity(model, spec, control, triple, field, states,
                             paths64_small)
    assert np.allclose(rep.conditional_rms, 0.0, atol=1e-10)


def test_gateaux_zero_direction(paths64_small):
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    spec = PerformanceSpec.log_terminal()
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths64_small)
    triple, field = solve_general(model, spec, control, states, paths64_small,
                                  features=[state_feature(states.values)])
    rep = gateaux_check(model, spec, control, np.zeros(64), paths64_small,
                        triple, field, states)
    assert rep.finite_difference == pytest.approx(0.0, abs=1e-12)
    assert rep.adjoint_form == pytest.approx(0.0, abs=1e-12)


def test_gateaux_memory_kernel_agreement(grid32):
    # x-independent memory model: the memory term of dH/du is exercised
    paths = sample_paths(grid32, JumpModel.none(), 40_000, seed=57)
    model = registry_get("x_independent_linear",
                         dict(b0=0.2, sigma0=0.3, decay_b=1.0, decay_sigma=0.8))
    spec = _square_terminal()
    control = ControlProcess.constant(0.5)
    states = simulate_integral_form(model, control, paths)
    triple, field = solve_explicit_x_independent(model, spec, states, paths)
    beta = perturbation_window(32, 10, 6, alpha=1.0)
    rep = gateaux_check(model, spec, control, beta, paths, triple, field, states)
    assert rep.within(3.0), (rep.finite_difference, rep.adjoint_form,
                             rep.combined_stderr)
    assert abs(rep.finite_difference) > 5.0 * rep.fd_stderr  # informative signal


def test_gateaux_windows_sigma_is_the_bonferroni_quantile():
    from scipy.stats import norm
    # three two-sided tests, each at a third of the false-alarm rate of one 3-sigma test
    assert GATEAUX_WINDOWS_SIGMA == pytest.approx(norm.isf(norm.sf(3.0) / 3), rel=1e-12)


def test_gateaux_window_moved_by_six_standard_errors_fails(grid32):
    paths = sample_paths(grid32, JumpModel.none(), 40_000, seed=57)
    model = registry_get("x_independent_linear",
                         dict(b0=0.2, sigma0=0.3, decay_b=1.0, decay_sigma=0.8))
    spec = _square_terminal()
    control = ControlProcess.constant(0.5)
    states = simulate_integral_form(model, control, paths)
    triple, field = solve_explicit_x_independent(model, spec, states, paths)
    n_sigma = GATEAUX_WINDOWS_SIGMA
    for start in (2, 13, 26):
        rep = gateaux_check(model, spec, control, perturbation_window(32, start, 4, alpha=1.0),
                            paths, triple, field, states)
        assert rep.within(n_sigma)
        for sign in (1.0, -1.0):
            moved = dataclasses.replace(
                rep, adjoint_form=rep.finite_difference + sign * 6.0 * rep.combined_stderr)
            assert not moved.within(n_sigma)


def test_stationarity_delayed_information(paths64_small):
    # at the full-information Merton optimum the gradient is conditionally
    # zero under any coarser information flow as well
    from volterra_control.models import InfoMode

    market = MarketModel.constant(0.05, 0.2)
    model = market.to_coefficient_model()
    spec = PerformanceSpec.log_terminal()
    util = UtilitySpec.log()
    control = ControlProcess.constant(1.25)
    states = simulate_wealth_positive(market, control, paths64_small)
    feats = [state_feature(util.u_prime(states.values), name="marginal_wealth")]
    triple, field = solve_general(model, spec, control, states, paths64_small,
                                  features=feats)
    rep = check_stationarity(model, spec, control, triple, field, states,
                             paths64_small, info=InfoMode.delayed(0.25),
                             features=feats)
    assert rep.max_interior() <= 0.06


def test_maximum_condition_margin_discriminates_at_merton(paths64_small):
    # the wealth Hamiltonian is linear in the fraction, so at the optimum the
    # conditional surface is flat (zero margin for every v); away from it the
    # surface tilts and the conditional sup beats the control in force
    market = MarketModel.constant(0.05, 0.2)
    model = market.to_coefficient_model()
    spec = PerformanceSpec.log_terminal()
    util = UtilitySpec.log()
    margins = {}
    for pi in (1.25, 2.25):
        control = ControlProcess.constant(pi)
        states = simulate_wealth_positive(market, control, paths64_small)
        feats = [state_feature(util.u_prime(states.values), name="marginal_wealth")]
        triple, field = solve_general(model, spec, control, states, paths64_small,
                                      features=feats)
        rows = maximum_condition_check(model, spec, control, triple, field, states,
                                       paths64_small, nodes=(16, 32, 48),
                                       v_grid=np.linspace(0.0, 2.5, 26),
                                       features=feats)
        margins[pi] = max(row.margin for row in rows)
        for row in rows:
            assert row.margin >= -1e-9
    assert margins[1.25] <= 0.002
    assert margins[2.25] >= 5.0 * max(margins[1.25], 1e-9)


# --- Arrow spot check ---------------------------------------------------------------

def test_arrow_linear_hamiltonian_passes():
    rep = arrow_spotcheck(lambda x, v: 0.3 * x + v - v ** 2,
                          np.linspace(0.2, 2.0, 20), (0.0, 1.0))
    assert rep.passed


def test_arrow_portfolio_configuration_passes(paths64_small):
    # fixed positive adjoint values make the wealth Hamiltonian linear in x
    market = MarketModel.constant(0.05, 0.2)
    model = market.to_coefficient_model()
    spec = PerformanceSpec.log_terminal()
    p_bar, q_bar = 1.0, -0.25

    def kappa(x, v):
        return float(model.drift(0.5, 0.5, x, v) * p_bar
                     + model.diffusion(0.5, 0.5, x, v) * q_bar)

    rep = arrow_spotcheck(kappa, np.linspace(0.3, 3.0, 24), (0.0, 2.0))
    assert rep.passed


def test_arrow_detects_convexity():
    rep = arrow_spotcheck(lambda x, v: (x ** 2) * (1.0 + 0.1 * v),
                          np.linspace(0.2, 2.0, 20), (0.0, 1.0))
    assert not rep.passed


@pytest.mark.parametrize("name,params", [
    ("exp_kernel_linear", dict(b0=0.2, sigma0=0.3, jump0=0.15, decay_b=1.0,
                               decay_sigma=0.8, decay_jump=0.5)),
    ("x_independent_linear", dict(b0=0.1, sigma0=0.3, jump0=0.1, decay_b=2.0,
                                  decay_sigma=0.5, decay_jump=0.25)),
    ("constant", dict(b0=0.05, sigma0=0.2, jump0=0.1)),
])
def test_variation_lifted_history_sums_match_generic_path(name, params):
    # the *_dtdx / *_dtdv history sums decay at the kernel rates; a copy of the
    # model without declared decays re-sums the whole history at every node
    marks = JumpModel(intensity=1.0, marks=(-0.5, 0.5), weights=(0.5, 0.5))
    paths = sample_paths(TimeGrid(1.0, 48), marks, 2_000, seed=32)
    model = registry_get(name, params)
    control = ControlProcess.constant(0.9)
    states = simulate_integral_form(model, control, paths)
    beta = perturbation_window(48, 6, 20, alpha=1.0)
    lifted = simulate_variation(model, control, beta, paths, states).values
    generic = simulate_variation(dataclasses.replace(model, decays=None), control, beta,
                                 paths, states).values
    assert np.abs(lifted - generic).max() <= 1e-12 * np.abs(generic).max()
    assert np.abs(generic).max() > 0.0


@settings(max_examples=20)
@given(decays=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 6.0))] * 3),
       steps=st.integers(2, 40))
def test_variation_lifted_matches_generic_over_decays_and_steps(decays, steps):
    marks = JumpModel(intensity=1.0, marks=(-0.5, 0.5), weights=(0.5, 0.5))
    paths = sample_paths(TimeGrid(1.0, steps), marks, 200, seed=steps)
    model = registry_get("exp_kernel_linear",
                         dict(b0=0.2, sigma0=0.3, jump0=0.15, decay_b=decays[0],
                              decay_sigma=decays[1], decay_jump=decays[2]))
    control = ControlProcess.constant(0.9)
    states = simulate_integral_form(model, control, paths)
    beta = np.linspace(1.0, -1.0, steps)
    lifted = simulate_variation(model, control, beta, paths, states).values
    generic = simulate_variation(dataclasses.replace(model, decays=None), control, beta,
                                 paths, states).values
    assert np.abs(lifted - generic).max() <= 1e-12 * max(np.abs(generic).max(), 1e-300)
