import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import (
    ConfigurationError,
    ControlProcess,
    JumpModel,
    PerformanceSpec,
    TimeGrid,
    UtilitySpec,
    registry_get,
    sample_paths,
    simulate_differential_form,
    simulate_integral_form,
)
from volterra_control.adjoint import (
    ExplicitXIndependentField,
    solve_adjoint,
    solve_explicit_x_independent,
    solve_general,
)
from volterra_control.hamiltonian import (
    GATEAUX_WINDOWS_SIGMA,
    StationarityReport,
    arrow_spotcheck,
    check_stationarity,
    eval_h0,
    eval_h0_reduced,
    eval_h1,
    forward_terms,
    gateaux_check,
    hamiltonian_terms,
    maximize_control,
    maximum_condition_check,
    perturbation_window,
    simulate_variation,
)
from volterra_control.malliavin import default_features, state_feature
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

    def weighted_rows(self, i, decay, jump=False):
        return np.zeros(self._shape[1:] if jump else self._shape[1])


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


# --- forward kernel sums lifted through declared decays ---------------------------

_LIFT_JUMPS = [
    JumpModel.none(),
    JumpModel(1.0, (0.5,), (1.0,)),
    JumpModel(1.0, (-0.5, 0.5), (0.5, 0.5)),
    JumpModel(1.5, (-0.5, 0.25, 0.75), (0.3, 0.3, 0.4)),
]


@pytest.fixture(scope="module")
def lift_setups():
    """Per mark count K = 0..3: paths, states, p and both kinds of Malliavin field."""
    model = registry_get("exp_kernel_linear", dict(b0=0.2, sigma0=0.3, jump0=0.15,
                                                   decay_b=1.0, decay_sigma=0.8,
                                                   decay_jump=0.5))
    control = ControlProcess.constant(0.7)
    rng = np.random.default_rng(3)
    setups = []
    for k, jumps in enumerate(_LIFT_JUMPS):
        paths = sample_paths(TimeGrid(1.0, 8), jumps, 1500, seed=60 + k)
        states = simulate_integral_form(model, control, paths)
        triple, field = solve_general(model, _square_terminal(), states,
                                      features=default_features(paths))
        # random q and r rows, one coefficient vector each on the node's design
        rows = dataclasses.replace(triple, qr_coefs=[
            [rng.normal(size=len(reg.keep)) for _ in range(1 + k)]
            for reg in triple.regressions[:-1]], qr_scales=(1.0,) * (1 + k))
        explicit = ExplicitXIndependentField(rows)
        setups.append((paths, states.values, triple.p, (field, explicit)))
    return setups


def _mixed_decay_model(lam):
    """Drift decaying at rate lam, diffusion without memory (rate 0), and a
    Cauchy-type jump kernel a v x z / (1 + (t - s)^2) with no declared decay."""
    b0, s0, a = 0.2, 0.3, 0.15

    def decay_b(t, s):
        return np.exp(-lam * (np.asarray(t, dtype=float) - s))

    def cauchy(t, s):
        return 1.0 / (1.0 + (np.asarray(t, dtype=float) - s) ** 2)

    def cauchy_dt(t, s):
        return -2.0 * (np.asarray(t, dtype=float) - s) * cauchy(t, s) ** 2

    def still(t, s):
        return 0.0 * np.asarray(t, dtype=float)

    return registry_get("custom", dict(
        initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        initial_slope=lambda t: 0.0 * np.asarray(t, dtype=float),
        drift=lambda t, s, x, v: b0 * decay_b(t, s) * v * x,
        drift_dt=lambda t, s, x, v: -lam * b0 * decay_b(t, s) * v * x,
        drift_dtdx=lambda t, s, x, v: -lam * b0 * decay_b(t, s) * v,
        drift_dtdv=lambda t, s, x, v: -lam * b0 * decay_b(t, s) * x,
        diffusion=lambda t, s, x, v: s0 * v * x + still(t, s),
        diffusion_dt=lambda t, s, x, v: still(t, s) * v * x,
        diffusion_dtdx=lambda t, s, x, v: still(t, s) * v,
        diffusion_dtdv=lambda t, s, x, v: still(t, s) * x,
        jump=lambda t, s, x, v, z: a * cauchy(t, s) * v * x * z,
        jump_dt=lambda t, s, x, v, z: a * cauchy_dt(t, s) * v * x * z,
        jump_dtdx=lambda t, s, x, v, z: a * cauchy_dt(t, s) * v * z,
        jump_dtdv=lambda t, s, x, v, z: a * cauchy_dt(t, s) * x * z,
        decays=(lam, 0.0, None),
    ))


def _row_sum_magnitudes(model, suffix, paths, i, x, v, p, field):
    """Per-path sum_j |k(t_j, t_i) row_j| dt of each forward term (the row sums'
    terms in absolute value), the scale of their round-off."""
    t, dt, jumps = paths.grid.nodes, paths.grid.dt, paths.jumps
    s_f = t[i + 1:, None]
    kb = getattr(model, "drift" + suffix)(s_f, t[i], x, v)
    ks = getattr(model, "diffusion" + suffix)(s_f, t[i], x, v)
    out = [np.abs(kb * p[i + 1:]).sum(axis=0) * dt,
           np.abs(ks * field.dp_rows(i)[i + 1:]).sum(axis=0) * dt]
    if jumps.n_marks:
        kg = getattr(model, "jump" + suffix)(s_f[:, :, None], t[i], x[None, :, None],
                                             v[None, :, None], jumps.mark_array)
        lw = jumps.intensity * jumps.weight_array
        out.append(np.abs(kg * lw * field.djump_rows(i)[i + 1:]).sum(axis=(0, 2)) * dt)
    return out


_DECAY = st.one_of(st.just(0.0), st.floats(0.0, 6.0, exclude_min=True))


@settings(max_examples=20)
@given(decays=st.tuples(_DECAY, _DECAY, _DECAY), k=st.integers(0, 3), mixed=st.booleans())
def test_lifted_forward_terms_equal_row_sums(lift_setups, decays, k, mixed):
    # a declared decay evaluates each kernel once, at (t_i, t_i), against the
    # decay-weighted row sum; the same model without decays sums the rows.
    # They agree to round-off: within 64 rounding errors of the sum of the
    # terms' sizes, each eps relative plus the subnormal spacing (a decay near
    # 0 makes the d/dt kernels underflow).
    paths, x_all, p, fields = lift_setups[k]
    if mixed:
        model = _mixed_decay_model(decays[0])
    else:
        model = registry_get("exp_kernel_linear", dict(
            b0=0.2, sigma0=0.3, jump0=0.15, decay_b=decays[0], decay_sigma=decays[1],
            decay_jump=decays[2]))
    generic = dataclasses.replace(model, decays=None)
    v = np.linspace(0.4, 1.1, paths.n_paths)
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    for field in fields:
        for suffix in ("_dt", "_dtdx", "_dtdv"):
            for i in range(paths.n_steps):
                x = x_all[i]
                lifted = forward_terms(model, suffix, paths, i, x, v, p, field)
                rows = forward_terms(generic, suffix, paths, i, x, v, p, field)
                scale = _row_sum_magnitudes(model, suffix, paths, i, x, v, p, field)
                assert len(lifted) == len(rows) == len(scale) == 2 + bool(k)
                for a, b, size in zip(lifted, rows, scale):
                    assert a.shape == (paths.n_paths,)
                    assert np.all(np.abs(a - b) <= 64 * (eps * size + tiny))


@pytest.mark.parametrize("declared", [True, False])
def test_hamiltonian_partials_are_derivatives_of_its_terms(lift_setups, declared):
    # with p, q, r and the Malliavin field held fixed, the "_dx" and "_dv" terms
    # sum to the central differences in x and in v of the "" terms. The kernels
    # are bilinear in (x, v) and the running reward quadratic, so a central
    # difference is exact at any step h and only round-off remains: at most 64
    # rounding errors of the terms' sizes (local terms, and the forward sums'
    # summands in absolute value), over h for the difference quotient.
    paths, x_all, p, fields = lift_setups[2]   # two marks
    model = registry_get("exp_kernel_linear", dict(b0=0.2, sigma0=0.3, jump0=0.15,
                                                   decay_b=1.0, decay_sigma=0.8,
                                                   decay_jump=0.5))
    if not declared:
        model = dataclasses.replace(model, decays=None)
    spec = PerformanceSpec(running=lambda t, x, v: -0.5 * v ** 2 + 0.3 * x * v,
                           running_dx=lambda t, x, v: 0.3 * v,
                           running_dv=lambda t, x, v: 0.3 * x - v)
    rng = np.random.default_rng(17)
    m, t = paths.n_paths, paths.grid.nodes
    q, r = rng.normal(size=m), rng.normal(size=(m, 2))
    v = np.linspace(0.4, 1.1, m)
    h, eps = 1.0 / 16.0, np.finfo(float).eps

    def sum_and_size(i, x, v, field, partial=""):
        terms = hamiltonian_terms(model, spec, paths.jumps, t[i], x, v, p[i], q, r, partial,
                                  memory=(paths, i, p, field))
        rows = _row_sum_magnitudes(model, "_dt" + partial[1:], paths, i, x, v, p, field)
        return sum(terms), sum(np.abs(term) for term in terms) + sum(rows)

    for field in fields:
        for i in range(paths.n_steps + 1):
            x = x_all[i]
            for partial, dx, dv in (("_dx", h, 0.0), ("_dv", 0.0, h)):
                up, size_up = sum_and_size(i, x + dx, v + dv, field)
                down, size_down = sum_and_size(i, x - dx, v - dv, field)
                want, size = sum_and_size(i, x, v, field, partial)
                bound = 64 * eps * ((size_up + size_down) / (2.0 * h) + size)
                assert np.all(np.abs((up - down) / (2.0 * h) - want) <= bound), (partial, i)


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


def test_h0_reduced_refuses_a_running_reward_that_reads_x(jump_paths64_small):
    # the fold into the diagonal holds for f_x = 0 only, and f is read with no state:
    # f = -x^2 is refused by name instead of giving NaN on every path
    model = registry_get("x_independent_linear", dict(b0=0.1, sigma0=0.3))
    spec = PerformanceSpec(running=lambda t, x, v: -np.asarray(x, dtype=float) ** 2)
    m = jump_paths64_small.n_paths
    with pytest.raises(ConfigurationError, match="running_dx"):
        eval_h0_reduced(model, spec, jump_paths64_small, 12, 0.5, np.ones(m),
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


@pytest.mark.parametrize("bounds", [(1.0, 1.0), (2.0, -1.0)])
def test_maximize_refuses_an_empty_control_interval(bounds):
    with pytest.raises(ConfigurationError, match=re.escape(f"empty control interval {bounds}")):
        maximize_control(lambda v: v, bounds)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_maximize_refuses_an_objective_not_finite_on_the_grid(bad):
    with pytest.raises(ValueError, match="objective is not finite on the control grid"):
        maximize_control(lambda v: bad if v > 0.5 else -v * v, (-1.0, 1.0))


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
    y = simulate_variation(model, np.zeros(64), states)
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
    y = simulate_variation(model, beta, states)
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
    y = simulate_variation(model, beta, states)
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
    triple, field = solve_general(model, spec, states)
    rep = check_stationarity(triple, field)
    assert np.allclose(rep.conditional_rms, 0.0, atol=1e-10)


def test_each_check_builds_its_default_features_once(monkeypatch):
    # a running-sum feature starts again from S_0 when read at an earlier node, so each
    # check builds the default set once and reads it node after node for every fit
    from volterra_control import hamiltonian, malliavin
    from volterra_control.adjoint import simulated_state_feature
    from volterra_control.malliavin import check_duality_brownian, clark_ocone_reconstruct

    builds = []
    build = malliavin.default_features

    def counted(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    for module in (hamiltonian, malliavin):
        monkeypatch.setattr(module, "default_features", counted)
    model = registry_get("exp_kernel_linear", dict(b0=0.1, sigma0=0.3, jump0=0.1, x0=1.0,
                                                   decay_b=1.0, decay_sigma=0.8, decay_jump=0.5))
    grid = TimeGrid(1.0, 8)
    paths = sample_paths(grid, JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)), 2_000, seed=5)
    states = simulate_integral_form(model, ControlProcess.constant(0.5), paths)
    triple, field = solve_general(model, PerformanceSpec.log_terminal(), states,
                                  features=[simulated_state_feature(model, states)])
    plain = sample_paths(grid, JumpModel.none(), 2_000, seed=5)
    square = lambda p: p.brownian[-1] ** 2  # noqa: E731
    checks = {
        "check_stationarity": lambda: check_stationarity(triple, field),
        "maximum_condition_check": lambda: maximum_condition_check(
            triple, field, nodes=range(8), v_grid=np.linspace(0.0, 1.0, 5)),
        "check_duality_brownian": lambda: check_duality_brownian(square, np.ones(8), plain),
        "clark_ocone_reconstruct": lambda: clark_ocone_reconstruct(square, plain),
    }
    for name, check in checks.items():
        builds.clear()
        check()
        assert len(builds) == 1, name


@pytest.mark.parametrize("decays", ["declared", "none"])
def test_gateaux_objectives_off_the_row_stream_equal_the_whole_runs(decays):
    # the objectives J(+-lambda) summed off the perturbed runs' rows as they are formed
    # are those of the whole (N+1, M) runs, bit for bit, with memory and two marks
    paths = sample_paths(TimeGrid(1.0, 8), JumpModel(1.0, (-0.4, 0.6), (0.35, 0.65)),
                         2000, seed=23)
    model = registry_get("exp_kernel_linear", dict(b0=0.2, sigma0=0.3, jump0=0.15))
    if decays == "none":
        model = dataclasses.replace(model, decays=None)
    spec = PerformanceSpec(running=lambda t, x, v: -0.5 * v ** 2 + 0.3 * x * v,
                           terminal=np.log, terminal_prime=lambda x: 1.0 / x)
    triple, field = solve_adjoint(model, spec, ControlProcess.constant(0.5), paths)
    betas = [perturbation_window(8, 2, 3, alpha=1.0), np.linspace(-1.0, 1.0, 8)]
    def whole_run(*run):
        states = simulate_integral_form(*run)
        return zip(states.values, [*states.controls, None])

    whole = gateaux_check(triple, field, betas, rows=whole_run)
    assert gateaux_check(triple, field, betas) == whole


def test_gateaux_zero_direction(paths64_small):
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    spec = PerformanceSpec.log_terminal()
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths64_small)
    triple, field = solve_general(model, spec, states, features=[state_feature(states.values)])
    (rep,) = gateaux_check(triple, field, [np.zeros(64)])
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_gateaux_memory_kernel_agreement(grid32):
    # x-independent memory model: the memory term of dH/du is exercised
    paths = sample_paths(grid32, JumpModel.none(), 40_000, seed=57)
    model = registry_get("x_independent_linear",
                         dict(b0=0.2, sigma0=0.3, decay_b=1.0, decay_sigma=0.8))
    spec = _square_terminal()
    control = ControlProcess.constant(0.5)
    states = simulate_integral_form(model, control, paths)
    triple, field = solve_explicit_x_independent(model, spec, states)
    beta = perturbation_window(32, 10, 6, alpha=1.0)
    (rep,) = gateaux_check(triple, field, [beta])
    assert rep.within(3.0), (rep.lhs, rep.rhs,
                             rep.combined_stderr)
    assert abs(rep.lhs) > 5.0 * rep.stderr_lhs  # informative signal


def test_gateaux_windows_share_each_node_gradient(monkeypatch):
    # one call for three windows reads each node's dH/du once (N calls, not 3N),
    # and its reports equal those of three one-window calls bit for bit
    from volterra_control import hamiltonian
    from volterra_control.adjoint import simulated_state_feature

    model = registry_get("exp_kernel_linear", dict(b0=0.1, sigma0=0.3, jump0=0.1, x0=1.0,
                                                   decay_b=1.0, decay_sigma=0.8, decay_jump=0.5))
    paths = sample_paths(TimeGrid(1.0, 8), JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)), 2_000, seed=5)
    states = simulate_integral_form(model, ControlProcess.constant(0.5), paths)
    triple, field = solve_general(model, PerformanceSpec.log_terminal(), states,
                                  features=[simulated_state_feature(model, states)])
    betas = [perturbation_window(8, start, 2, alpha=1.0) for start in (0, 3, 6)]
    singles = [gateaux_check(triple, field, [beta])[0] for beta in betas]
    nodes = []
    gradient = hamiltonian.control_gradient

    def counted(triple, field, i):
        nodes.append(i)
        return gradient(triple, field, i)

    monkeypatch.setattr(hamiltonian, "control_gradient", counted)
    shared = gateaux_check(triple, field, betas)
    assert nodes == list(range(paths.n_steps))
    assert shared == singles


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
    triple, field = solve_explicit_x_independent(model, spec, states)
    n_sigma = GATEAUX_WINDOWS_SIGMA
    for start in (2, 13, 26):
        (rep,) = gateaux_check(triple, field, [perturbation_window(32, start, 4, alpha=1.0)])
        assert rep.within(n_sigma)
        for sign in (1.0, -1.0):
            moved = dataclasses.replace(
                rep, rhs=rep.lhs + sign * 6.0 * rep.combined_stderr)
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
    triple, field = solve_general(model, spec, states, features=feats)
    rep = check_stationarity(triple, field, info=InfoMode.delayed(0.25), features=feats)
    assert rep.max_interior() <= 0.06


def test_max_interior_reads_the_nodes_of_the_middle_half():
    # node i sits at t_i = iT/N, so [T/4, 3T/4] holds nodes ceil(N/4) to floor(3N/4)
    def spiked(n, node):
        stat = np.zeros(n)
        stat[node] = 1.0
        return StationarityReport(np.arange(n) / n, stat, stat, stat).max_interior()

    n = 64
    assert spiked(n, n // 4 - 1) == 0.0 and spiked(n, 3 * n // 4 + 1) == 0.0
    assert spiked(n, n // 4) == 1.0 and spiked(n, 3 * n // 4) == 1.0
    assert [i for i in range(10) if spiked(10, i) == 1.0] == [3, 4, 5, 6, 7]


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
        triple, field = solve_general(model, spec, states, features=feats)
        rows = maximum_condition_check(triple, field, nodes=(16, 32, 48),
                                       v_grid=np.linspace(0.0, 2.5, 26), features=feats)
        margins[pi] = max(row.margin for row in rows)
        for row in rows:
            assert row.margin >= -1e-9
    assert margins[1.25] <= 0.002
    assert margins[2.25] >= 5.0 * max(margins[1.25], 1e-9)


def test_maximum_condition_margin_is_taken_at_the_control(paths64_small):
    # H is conditioned at the control in force itself, so on the tilted surface
    # (pi = 2.25) the margin does not move when the grid gains the point 2.25
    market = MarketModel.constant(0.05, 0.2)
    model = market.to_coefficient_model()
    util = UtilitySpec.log()
    states = simulate_wealth_positive(market, ControlProcess.constant(2.25), paths64_small)
    feats = [state_feature(util.u_prime(states.values), name="marginal_wealth")]
    triple, field = solve_general(model, PerformanceSpec.log_terminal(), states, features=feats)
    margins = {}
    for n_grid in (26, 11):   # steps of 0.1 (2.2, 2.3) and of 0.25 (2.25)
        rows = maximum_condition_check(triple, field, nodes=(16, 32, 48),
                                       v_grid=np.linspace(0.0, 2.5, n_grid), features=feats)
        margins[n_grid] = np.array([row.margin for row in rows])
    assert np.all(margins[26] > 0.0)
    assert np.allclose(margins[26], margins[11], rtol=1e-9, atol=0.0)


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


def test_arrow_refuses_fewer_than_16_state_points():
    with pytest.raises(ConfigurationError, match="needs at least 16 state points"):
        arrow_spotcheck(lambda x, v: -v * v, np.linspace(0.2, 2.0, 15), (0.0, 1.0))


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
    lifted = simulate_variation(model, beta, states).values
    generic = simulate_variation(dataclasses.replace(model, decays=None), beta, states).values
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
    lifted = simulate_variation(model, beta, states).values
    generic = simulate_variation(dataclasses.replace(model, decays=None), beta, states).values
    assert np.abs(lifted - generic).max() <= 1e-12 * max(np.abs(generic).max(), 1e-300)
