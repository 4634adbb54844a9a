import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import (
    ConfigurationError,
    ControlProcess,
    JumpModel,
    PerformanceSpec,
    RegressionBasis,
    TimeGrid,
    registry_get,
    sample_paths,
    simulate_integral_form,
)
from volterra_control.adjoint import (
    SurrogateMalliavinField,
    _backward_sweep,
    export_adjoint_csv,
    solve_explicit_x_independent,
    solve_general,
)
from volterra_control.malliavin import (
    NodeRegression,
    brownian_feature,
    state_feature,
)


def _time_varying_linear_model():
    """x-independent model with X(T) = 1 + int (1 + 0.5 s) dB(s)."""
    return registry_get("custom", dict(
        initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        initial_slope=lambda t: 0.0 * np.asarray(t, dtype=float),
        drift=lambda t, s, x, v: 0.0 * v,
        diffusion=lambda t, s, x, v: (1.0 + 0.5 * np.asarray(s, dtype=float)) * v,
        jump=lambda t, s, x, v, z: 0.0 * z * v,
        x_independent=True,
    ))


def _square_terminal():
    return PerformanceSpec.terminal_only(
        lambda x: np.asarray(x, dtype=float) ** 2,
        lambda x: 2.0 * np.asarray(x, dtype=float),
        domain=(-2.0, 4.0),
    )


@pytest.fixture(scope="module")
def xindep_setup(grid32):
    paths = sample_paths(grid32, JumpModel.none(), 20_000, seed=92)
    model = _time_varying_linear_model()
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths)
    return model, control, states, paths


def test_explicit_constant_terminal_slope(xindep_setup):
    model, control, states, paths = xindep_setup
    spec = PerformanceSpec.terminal_only(
        lambda x: np.asarray(x, dtype=float),
        lambda x: 1.0 + 0.0 * np.asarray(x, dtype=float),
        domain=(-2.0, 4.0),
    )
    triple, field = solve_explicit_x_independent(model, spec, states, paths)
    assert np.allclose(triple.p, 1.0, atol=1e-7)
    assert np.allclose(triple.q, 0.0, atol=1e-7)
    assert np.allclose(triple.r, 0.0, atol=1e-12)
    assert np.allclose(field.dp_rows(5), 0.0, atol=1e-7)


def test_explicit_matches_martingale_projection(xindep_setup):
    model, control, states, paths = xindep_setup
    triple, _ = solve_explicit_x_independent(model, _square_terminal(), states, paths)
    # oracle: p(t) = E[2 X_T | F_t] = 2 (1 + int_0^t (1 + s/2) dB)
    t = paths.grid.nodes
    u = 1.0 + 0.5 * t[:-1]
    partial = np.vstack([np.zeros((1, paths.n_paths)),
                         np.cumsum(u[:, None] * paths.dW, axis=0)])
    p_oracle = 2.0 * (1.0 + partial)
    scale = np.sqrt(np.mean(p_oracle ** 2))
    err = np.sqrt(np.mean((triple.p - p_oracle) ** 2, axis=1)) / scale
    assert err.max() <= 0.05
    # q(t) = 2 (1 + t/2) is deterministic and recovered almost exactly
    for i in (0, 10, 31):
        assert np.allclose(triple.q[i], 2.0 * u[i], rtol=1e-6)
    # terminal condition holds exactly
    assert np.array_equal(triple.p[-1], 2.0 * states.terminal)


def test_explicit_martingale_residual(xindep_setup):
    model, control, states, paths = xindep_setup
    triple, _ = solve_explicit_x_independent(model, _square_terminal(), states, paths)
    basis = RegressionBasis()
    sd = np.sqrt(np.mean((triple.p - triple.p.mean()) ** 2))
    for i in (5, 16, 27):
        reg = NodeRegression(triple.features, i, basis)
        resid = reg.fit(triple.p[i + 1]) - triple.p[i]
        assert np.sqrt(np.mean(resid ** 2)) <= 0.02 * sd


def test_explicit_jump_derivative_field(grid32):
    # pure-jump linear state: X_T = eta(T); g'(x) = 2x
    jumps = JumpModel(1.0, (-1.0, 0.5), (0.4, 0.6))
    paths = sample_paths(grid32, jumps, 20_000, seed=93)
    model = registry_get("custom", dict(
        initial_curve=lambda t: 0.0 * np.asarray(t, dtype=float),
        initial_slope=lambda t: 0.0 * np.asarray(t, dtype=float),
        drift=lambda t, s, x, v: 0.0 * v,
        diffusion=lambda t, s, x, v: 0.0 * v,
        jump=lambda t, s, x, v, z: z + 0.0 * v,
        x_independent=True,
    ))
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths)
    triple, field = solve_explicit_x_independent(model, _square_terminal(), states, paths)
    # add-one-jump difference of the conditional mean 2 eta(t): r(t, z) = 2 z
    for k, mark in enumerate(jumps.marks):
        for i in (4, 20):
            err = np.abs(triple.r[i, :, k] - 2.0 * mark).max()
            assert err <= 0.05 * abs(2.0 * mark)


def test_explicit_requires_x_independent(paths64_small):
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths64_small)
    with pytest.raises(ConfigurationError):
        solve_explicit_x_independent(model, _square_terminal(), states, paths64_small)


# --- general solver ------------------------------------------------------------

def test_general_zero_data_gives_zero_triple(xindep_setup):
    model, control, states, paths = xindep_setup
    spec = PerformanceSpec()  # zero running and terminal rewards
    triple, _ = solve_general(model, spec, control, states, paths)
    assert np.allclose(triple.p, 0.0, atol=1e-12)
    assert np.allclose(triple.q, 0.0, atol=1e-12)
    assert np.allclose(triple.r, 0.0, atol=1e-12)


def test_general_matches_explicit_x_independent(xindep_setup):
    model, control, states, paths = xindep_setup
    spec = _square_terminal()
    t_exp, _ = solve_explicit_x_independent(model, spec, states, paths)
    t_gen, _ = solve_general(model, spec, control, states, paths)
    rel = np.sqrt(np.mean((t_gen.p - t_exp.p) ** 2, axis=1)) \
        / np.maximum(np.sqrt(np.mean(t_exp.p ** 2, axis=1)), 1e-12)
    assert rel.max() <= 0.02
    assert t_gen.picard_iterations == 1


def test_general_linear_bsde_closed_form(grid32):
    # dX = sigma0 X dB, g(x) = x^2: the adjoint is p(t) = 2 exp(sigma0^2 (T-t)) X(t)
    sigma0 = 0.3
    paths = sample_paths(grid32, JumpModel.none(), 40_000, seed=94)
    model = registry_get("custom", dict(
        initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        initial_slope=lambda t: 0.0 * np.asarray(t, dtype=float),
        drift=lambda t, s, x, v: 0.0 * v * x,
        diffusion=lambda t, s, x, v: sigma0 * np.asarray(x, dtype=float) + 0.0 * v,
        jump=lambda t, s, x, v, z: 0.0 * z * v,
        drift_dx=lambda t, s, x, v: 0.0 * v,
        diffusion_dx=lambda t, s, x, v: sigma0 + 0.0 * np.asarray(x, dtype=float) * v,
        time_invariant_kernels=True,
    ))
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths)
    spec = _square_terminal()
    feats = [state_feature(states.values)]
    triple, _ = solve_general(model, spec, control, states, paths, features=feats)
    t = paths.grid.nodes
    p_oracle = 2.0 * np.exp(sigma0 ** 2 * (1.0 - t))[:, None] * states.values
    rel = np.sqrt(np.mean((triple.p - p_oracle) ** 2)) / np.sqrt(np.mean(p_oracle ** 2))
    assert rel <= 0.05


def test_general_cost_guard():
    grid = TimeGrid(1.0, 512)
    paths = sample_paths(grid, JumpModel.none(), 600, seed=1)
    model = registry_get("constant", dict(b0=0.0, sigma0=0.1))
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths)
    with pytest.raises(ConfigurationError, match="cost"):
        solve_general(model, _square_terminal(), control, states, paths)


# --- Malliavin field of the adjoint ---------------------------------------------

def _field_with_manual_surrogates(paths, coefs_builder):
    """Build a surrogate field whose node surrogates are set by hand."""
    from volterra_control.adjoint import AdjointTriple, SurrogateMalliavinField

    feats = [brownian_feature(paths)]
    basis = RegressionBasis(degree=3)
    n = paths.n_steps
    regs, coefs = [], []
    for j in range(n + 1):
        reg = NodeRegression(feats, j, basis)
        regs.append(reg)
        coefs.append(coefs_builder(reg, j))
    m = paths.n_paths
    triple = AdjointTriple(p=np.zeros((n + 1, m)), q=np.zeros((n + 1, m)),
                           r=np.zeros((n + 1, m, 0)), regressions=regs,
                           surrogate_coefs=coefs, features=feats)
    return SurrogateMalliavinField(triple, paths)


def test_field_of_constant_surrogate_vanishes(paths64_small):
    field = _field_with_manual_surrogates(
        paths64_small, lambda reg, j: reg.coefficients(np.ones(paths64_small.n_paths)))
    rows = field.dp_rows(10)
    assert np.allclose(rows, 0.0, atol=1e-7)


def test_field_of_identity_surrogate_counts_increments(paths64_small):
    field = _field_with_manual_surrogates(
        paths64_small, lambda reg, j: reg.coefficients(paths64_small.brownian[j]))
    i = 20
    rows = field.dp_rows(i)
    # B(t_j) responds one-for-one to any earlier increment
    assert np.allclose(rows[i + 1:], 1.0, atol=1e-6)
    # left-limit diagonal: B(t_i) responds to the increment entering node i
    assert np.allclose(rows[i], 1.0, atol=1e-6)
    assert np.allclose(rows[:i], 0.0, atol=0.0)
    # adaptedness rows are exactly zero
    assert np.all(field.dp_rows(40)[:40] == 0.0)


def test_field_of_quadratic_surrogate_projects_martingale(paths64_desk):
    field = _field_with_manual_surrogates(
        paths64_desk, lambda reg, j: reg.coefficients(paths64_desk.brownian[j] ** 2))
    i, j = 16, 48
    dp = field.dp_rows(i)[j]
    want = 2.0 * paths64_desk.brownian[i]
    err = np.sqrt(np.mean((dp - want) ** 2)) / np.sqrt(np.mean(want ** 2))
    assert err <= 0.05


def test_field_requires_sensitivities(paths64_small):
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths64_small)
    spec = PerformanceSpec.log_terminal()
    # state feature without declared sensitivities cannot support field rows
    feats = [state_feature(states.values)]
    triple, field = solve_general(model, spec, control, states, paths64_small,
                                  features=feats)
    with pytest.raises(ConfigurationError, match="sensitivity"):
        field.dp_rows(4)


def test_malliavin_field_from_surrogate_roundtrip(xindep_setup):
    model, control, states, paths = xindep_setup
    spec = _square_terminal()
    triple, _ = solve_general(model, spec, control, states, paths)
    field = SurrogateMalliavinField(triple, paths)
    rows = field.dp_rows(8)
    assert rows.shape == (paths.n_steps + 1, paths.n_paths)
    assert np.all(rows[:8] == 0.0)
    # X(T) = 1 + int (1+s/2) dB and p ~ 2 X(T): D_i p ~ 2 (1 + t_i/2)
    want = 2.0 * (1.0 + 0.5 * paths.grid.nodes[8])
    got = rows[20]
    assert abs(got.mean() - want) <= 0.05 * want


def test_memory_state_driver_satisfies_gateaux_identity():
    # an x-dependent model with decaying kernels exercises the full driver:
    # local terms, forward kernel sums against p, and the Malliavin field of
    # the adjoint built from re-simulated state sensitivities. The derivative
    # identity dJ/d(lambda) = E[int dH/du beta dt] is the independent oracle;
    # the right-point memory quadrature biases it by O(decay * dt), so the
    # gap must both sit inside the Monte Carlo band at N=32 and shrink when
    # the grid is refined.
    from volterra_control.adjoint import simulated_state_feature
    from volterra_control.hamiltonian import gateaux_check, perturbation_window
    from volterra_control.grids import TimeGrid
    from volterra_control import sample_paths, JumpModel

    model = registry_get("exp_kernel_linear",
                         dict(b0=0.25, sigma0=0.3, decay_b=1.5, decay_sigma=1.0))
    control = ControlProcess.constant(0.8)
    spec = _square_terminal()
    gaps = {}
    for n in (16, 32):
        paths = sample_paths(TimeGrid(1.0, n), JumpModel.none(), 10_000, seed=97)
        record = []
        states = simulate_integral_form(model, control, paths, record=record)
        feats = [simulated_state_feature(model, control, states, paths, record)]
        triple, field = solve_general(model, spec, control, states, paths,
                                      features=feats)
        beta = perturbation_window(n, n // 4, n // 4, alpha=1.0)
        rep = gateaux_check(model, spec, control, beta, paths, triple, field,
                            states)
        gaps[n] = abs(rep.gap / rep.finite_difference)
        if n == 32:
            assert abs(rep.finite_difference) > 5.0 * rep.fd_stderr
            assert rep.within(3.0), (rep.finite_difference, rep.adjoint_form,
                                     rep.combined_stderr)
    assert gaps[32] <= gaps[16] / 1.2, gaps


def _memory_setup(jumps, n, m, seed, model_params, control_value, spec):
    """An x-dependent memory model solved with re-simulated state sensitivities."""
    from volterra_control.adjoint import simulated_state_feature

    model = registry_get("exp_kernel_linear", model_params)
    control = ControlProcess.constant(control_value)
    paths = sample_paths(TimeGrid(1.0, n), jumps, m, seed=seed)
    record = []
    states = simulate_integral_form(model, control, paths, record=record)
    feats = [simulated_state_feature(model, control, states, paths, record)]
    triple, field = solve_general(model, spec, control, states, paths, features=feats)
    return model, spec, control, states, paths, triple, field


@pytest.fixture(scope="module")
def memory_setup():
    # the setup of test_memory_state_driver_satisfies_gateaux_identity at N=16
    return _memory_setup(JumpModel.none(), 16, 10_000, 97,
                         dict(b0=0.25, sigma0=0.3, decay_b=1.5, decay_sigma=1.0),
                         0.8, _square_terminal())


@pytest.fixture(scope="module")
def memory_jump_setup():
    # the memory-with-jumps model of the desk benchmark, on a short grid
    return _memory_setup(JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)), 8, 4_000, 31,
                         dict(b0=0.1, sigma0=0.3, jump0=0.1, x0=1.0, decay_b=1.0,
                              decay_sigma=0.8, decay_jump=0.5),
                         0.5, PerformanceSpec.log_terminal())


@pytest.mark.parametrize("setup", ["xindep", "memory", "memory_jump"])
def test_single_sweep_is_a_fixed_point(setup, request, xindep_setup):
    # the driver at node i reads nodes j > i only, so a second backward sweep
    # over the solved triple, with a fresh field, reproduces it bit for bit
    if setup == "xindep":
        model, control, states, paths = xindep_setup
        spec = _square_terminal()
        triple, _ = solve_general(model, spec, control, states, paths)
    else:
        model, spec, control, states, paths, triple, _ = request.getfixturevalue(
            f"{setup}_setup")
    assert triple.picard_iterations == 1
    before = [a.copy() for a in (triple.p, triple.q, triple.r)]
    coefs = [c.copy() for c in triple.surrogate_coefs]
    _backward_sweep(model, spec, control, states, paths, triple,
                    SurrogateMalliavinField(triple, paths))
    for old, new in zip(before, (triple.p, triple.q, triple.r)):
        assert np.array_equal(old, new)
    for old, new in zip(coefs, triple.surrogate_coefs):
        assert np.array_equal(old, new)


def _unmemoized_rows(triple, paths, i):
    """Off-diagonal field rows of node i by the plain arithmetic: `fit` per request."""
    regs, coefs, feats = triple.regressions, triple.surrogate_coefs, triple.features
    n1, m, k = triple.n_nodes, paths.n_paths, paths.jumps.n_marks
    dp, dj = np.zeros((n1, m)), np.zeros((n1, m, k))
    later = range(i + 1, n1)
    if not later:
        return dp, dj
    cols = []
    for j in later:
        grad, col = regs[j].gradient_raw(coefs[j]), np.zeros(m)
        for pos, feat in enumerate(feats):
            sens = feat.brownian_sensitivity(i, j)
            if np.any(np.asarray(sens) != 0.0):
                col += grad[:, pos] * sens
        cols.append(col)
    dp[i + 1:] = regs[i].fit(np.column_stack(cols)).T
    for kk in range(k):
        deltas = []
        for j in later:
            raw = regs[j].raw_values()
            shift = np.column_stack([np.broadcast_to(f.jump_shift(i, j, kk), (m,))
                                     for f in feats])
            deltas.append(regs[j].predict(raw + shift, coefs[j])
                          - regs[j].predict(raw, coefs[j]))
        dj[i + 1:, :, kk] = regs[i].fit(np.column_stack(deltas)).T
    return dp, dj


@pytest.mark.parametrize("setup", ["memory", "memory_jump"])
def test_reused_field_rows_equal_fresh_field_rows(setup, request):
    # the field memoizes its projected rows as coefficients; a field that has
    # served the sweep (and serves again) gives the rows of a fresh field and
    # of the unmemoized projection, bit for bit
    *_, paths, triple, field = request.getfixturevalue(f"{setup}_setup")
    for i in range(triple.n_nodes):
        want_dp, want_dj = _unmemoized_rows(triple, paths, i)
        assert np.array_equal(field.dp_rows(i, include_diagonal=False), want_dp)
        assert np.array_equal(field.djump_rows(i, include_diagonal=False), want_dj)
        for diagonal in (False, True):
            fresh = SurrogateMalliavinField(triple, paths)
            assert np.array_equal(field.dp_rows(i, include_diagonal=diagonal),
                                  fresh.dp_rows(i, include_diagonal=diagonal))
            fresh = SurrogateMalliavinField(triple, paths)
            assert np.array_equal(field.djump_rows(i, include_diagonal=diagonal),
                                  fresh.djump_rows(i, include_diagonal=diagonal))
    assert np.any(field.dp_rows(0) != 0.0)
    if paths.jumps.n_marks:
        assert np.any(field.djump_rows(0) != 0.0)


# --- restarted state re-simulations against full re-simulations from node 0 ---

_RESTART_JUMPS = JumpModel(1.0, (-0.5, 0.5), (0.5, 0.5))
_EXP_PARAMS = dict(b0=0.2, sigma0=0.3, jump0=0.15, decay_b=1.0, decay_sigma=0.8,
                   decay_jump=0.5)


def _power_law_model():
    """x-dependent model with power-law kernels: no declared decays."""
    def kernel(amp):
        return lambda t, s, x, v: amp * v * x / (1.0 + np.asarray(t, dtype=float) - s)
    return registry_get("custom", dict(
        initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        drift=kernel(0.2), diffusion=kernel(0.3),
        jump=lambda t, s, x, v, z: 0.15 * v * x * z / (1.0 + np.asarray(t, dtype=float) - s),
    ))


def _exp_model():
    return registry_get("exp_kernel_linear", _EXP_PARAMS)


_FEEDBACK = ControlProcess.feedback(
    lambda i, t, paths, x: np.clip(0.5 + 0.2 * np.asarray(x), 0.0, 2.0), bounds=(0.0, 2.0))

# A rule that reads the noise too: each perturbation moves the control itself.
_NOISE_FEEDBACK = ControlProcess.feedback(
    lambda i, t, paths, x: np.clip(0.5 + 0.2 * np.asarray(x) + 0.3 * paths.brownian[i]
                                   + 0.3 * paths.jump_sum[i], 0.0, 2.0), bounds=(0.0, 2.0))

# With three marks too, the restarted run's mark sum adds the same products
# in the same order as a full re-simulation, so these cases are bit for bit.
_THREE_MARKS = JumpModel(1.5, (-0.5, 0.25, 0.5), (0.25, 0.5, 0.25))

# The generic path re-sums the history from the copied rows, so a feedback
# control there also needs its prefix values recomputed.
RESTART_CASES = [
    pytest.param(_exp_model, ControlProcess.constant(0.7), _RESTART_JUMPS, id="lifted-jumps"),
    pytest.param(_power_law_model, ControlProcess.constant(0.7), _RESTART_JUMPS,
                 id="generic-custom"),
    pytest.param(_power_law_model, _FEEDBACK, _RESTART_JUMPS, id="feedback-generic"),
    pytest.param(_exp_model, _FEEDBACK, _RESTART_JUMPS, id="feedback-lifted"),
    pytest.param(_exp_model, ControlProcess.constant(0.7), _THREE_MARKS,
                 id="lifted-three-marks"),
    pytest.param(_power_law_model, _FEEDBACK, _THREE_MARKS, id="feedback-generic-three-marks"),
    pytest.param(_exp_model, _NOISE_FEEDBACK, _RESTART_JUMPS, id="noise-feedback-lifted"),
    pytest.param(_power_law_model, _NOISE_FEEDBACK, _THREE_MARKS,
                 id="noise-feedback-generic-three-marks"),
]


@pytest.mark.parametrize("make_model,control,jumps", RESTART_CASES)
def test_restarted_sensitivities_equal_full_resimulation(make_model, control, jumps):
    from volterra_control.adjoint import simulated_state_feature

    model = make_model()
    paths = sample_paths(TimeGrid(1.0, 8), jumps, 600, seed=41)
    record = []
    states = simulate_integral_form(model, control, paths, record=record)
    feat = simulated_state_feature(model, control, states, paths, record)
    h = 1e-4 * np.sqrt(paths.grid.dt)
    for i in range(paths.n_steps):
        pert = paths.perturb_brownian(i, +h)
        up = simulate_integral_form(model, control, pert).values
        pert.rebump(-h)
        full = (up - simulate_integral_form(model, control, pert).values) / (2.0 * h)
        shifts = [simulate_integral_form(model, control, paths.with_extra_jump(i, k)).values
                  - states.values for k in range(paths.jumps.n_marks)]
        for j in range(i + 1, paths.n_steps + 1):
            assert np.array_equal(feat.brownian_sensitivity(i, j), full[j])
            for k, shift in enumerate(shifts):
                assert np.array_equal(feat.jump_shift(i, j, k), shift[j])
    assert np.any(feat.brownian_sensitivity(0, paths.n_steps) != 0.0)


def test_state_sensitivities_take_one_restarted_run_per_node(monkeypatch):
    # every node's 2 + K perturbations ride one restarted run, and the base
    # run is the caller's: building every block simulates N times, not (2 + K) N
    from volterra_control import volterra
    from volterra_control.adjoint import simulated_state_feature

    model, control = _exp_model(), ControlProcess.constant(0.7)
    paths = sample_paths(TimeGrid(1.0, 8), _THREE_MARKS, 300, seed=41)
    n, marks = paths.n_steps, range(paths.jumps.n_marks)
    record = []
    states = simulate_integral_form(model, control, paths, record=record)
    starts = []
    simulate = volterra.simulate_integral_form

    def counted(*args, **kwargs):
        starts.append(kwargs["restart"][0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(volterra, "simulate_integral_form", counted)
    feat = simulated_state_feature(model, control, states, paths, record)
    for i in range(n):
        for j in range(i + 1, n + 1):
            feat.brownian_sensitivity(i, j)
            for k in marks:
                feat.jump_shift(i, j, k)
    assert sorted(starts) == list(range(n))


@settings(max_examples=30)
@given(data=st.data())
def test_state_sensitivities_and_field_rows_are_adapted(memory_jump_setup, data):
    # D_{t_i} X(t_j) = 0 for j <= i, and the field rows j < i vanish exactly
    *_, paths, triple, field = memory_jump_setup
    n = paths.n_steps
    i = data.draw(st.integers(0, n), label="i")
    j = data.draw(st.integers(0, i), label="j")
    feat = triple.features[0]
    assert np.all(np.asarray(feat.brownian_sensitivity(i, j)) == 0.0)
    for k in range(paths.jumps.n_marks):
        assert np.all(np.asarray(feat.jump_shift(i, j, k)) == 0.0)
    assert np.all(field.dp_rows(i)[:i] == 0.0)
    assert np.all(field.djump_rows(i)[:i] == 0.0)


def test_adjoint_csv_export(tmp_path, xindep_setup):
    model, control, states, paths = xindep_setup
    triple, _ = solve_explicit_x_independent(model, _square_terminal(), states, paths)
    out = tmp_path / "adjoint.csv"
    export_adjoint_csv(out, triple, paths.grid.nodes)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,mean_p,mean_q")
    assert len(lines) == paths.n_steps + 2
