import dataclasses

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import (
    ConfigurationError,
    ControlProcess,
    JumpModel,
    PathBundle,
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
    solve_adjoint,
    solve_explicit_x_independent,
    solve_general,
)
from volterra_control.cli import ExperimentConfig, main
from volterra_control.malliavin import (
    NodeRegression,
    RunningSumRows,
    brownian_feature,
    d_brownian,
    d_jump,
    default_features,
    jump_sum_feature,
    predicted_terminal_feature,
    state_feature,
    weighted_brownian_feature,
)

from oracles import y_martingale


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
    triple, field = solve_explicit_x_independent(model, spec, states)
    q, r = _adjoint_rows(triple, field)
    assert np.allclose(triple.p, 1.0, atol=1e-7)
    assert np.allclose(q, 0.0, atol=1e-7)
    assert np.allclose(r, 0.0, atol=1e-12)
    assert np.allclose(field.dp_rows(5), 0.0, atol=1e-7)
    assert [reg.node for reg in triple.regressions] == list(range(paths.n_steps + 1))
    # the field reads q itself: every row from i on is q_i, row N included
    for i in range(paths.n_steps + 1):
        assert all(np.array_equal(row, q[i]) for row in field.dp_rows(i)[i:])


def test_explicit_matches_martingale_projection(xindep_setup):
    model, control, states, paths = xindep_setup
    triple, field = solve_explicit_x_independent(model, _square_terminal(), states)
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
        assert np.allclose(triple.qr_rows(i, field)[0], 2.0 * u[i], rtol=1e-6)
    # terminal condition holds exactly
    assert np.array_equal(triple.p[-1], 2.0 * states.terminal)


def test_explicit_martingale_residual(xindep_setup):
    model, control, states, paths = xindep_setup
    triple, _ = solve_explicit_x_independent(model, _square_terminal(), states)
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
    triple, field = solve_explicit_x_independent(model, _square_terminal(), states)
    # add-one-jump difference of the conditional mean 2 eta(t): r(t, z) = 2 z
    _, r = _adjoint_rows(triple, field)
    for k, mark in enumerate(jumps.marks):
        for i in (4, 20):
            err = np.abs(r[i, :, k] - 2.0 * mark).max()
            assert err <= 0.05 * abs(2.0 * mark)
    for i in range(paths.n_steps + 1):
        assert all(np.array_equal(row, r[i]) for row in field.djump_rows(i)[i:])


def test_explicit_requires_x_independent(paths64_small):
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths64_small)
    with pytest.raises(ConfigurationError):
        solve_explicit_x_independent(model, _square_terminal(), states)


def _generic_x_independent_model():
    """x-independent model with power-law kernels: no declared decays."""
    def kernel(amp):
        return lambda t, s, x, v: amp * v / (1.0 + np.asarray(t, dtype=float) - s)
    return registry_get("custom", dict(
        initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        drift=kernel(0.2), diffusion=kernel(0.3),
        jump=lambda t, s, x, v, z: 0.15 * v * z / (1.0 + np.asarray(t, dtype=float) - s),
        x_independent=True,
    ))


def _explicit_setup(decays: str):
    """A small x-independent run with two marks and a control that varies by node."""
    paths = sample_paths(TimeGrid(1.0, 6), _RESTART_JUMPS, 400, seed=57)
    model = _x_independent_model() if decays == "declared" else _generic_x_independent_model()
    return model, simulate_integral_form(model, _BLOCK_CONTROL, paths)


@pytest.mark.parametrize("decays", ["declared", "none"])
def test_explicit_derivatives_equal_finite_differences_through_the_simulator(decays):
    # q_i and r_i project the central and add-one-jump differences of g'(X(T)),
    # with X(T) simulated again on every perturbed bundle
    model, states = _explicit_setup(decays)
    paths, spec = states.paths, PerformanceSpec.log_terminal()
    triple, field = solve_explicit_x_independent(model, spec, states)

    def functional(bundle):
        return spec.terminal_prime(simulate_integral_form(model, _BLOCK_CONTROL, bundle).terminal)

    def relative(new, oracle):
        return np.abs(new - oracle).max() / np.abs(oracle).max()

    for i in range(paths.n_steps):
        fit, (q, r) = triple.regressions[i].fit, triple.qr_rows(i, field)
        assert relative(q, fit(d_brownian(functional, paths, i))) <= 1e-9
        for k in range(paths.jumps.n_marks):
            assert relative(r[:, k], fit(d_jump(functional, paths, i, k))) <= 1e-9


def test_the_explicit_solve_makes_no_perturbed_bundle(monkeypatch):
    calls = []
    for name in ("perturb_brownian", "with_extra_jump"):
        method = getattr(PathBundle, name)
        monkeypatch.setattr(PathBundle, name,
                            lambda self, *args, _m=method: calls.append(args) or _m(self, *args))
    model, states = _explicit_setup("declared")
    solve_explicit_x_independent(model, _square_terminal(), states)
    assert calls == []


def test_explicit_refuses_a_feedback_control():
    # X(T) is affine in the increments only when the control does not read them
    model, states = _explicit_setup("declared")
    states = simulate_integral_form(model, _FEEDBACK, states.paths)
    with pytest.raises(ConfigurationError):
        solve_explicit_x_independent(model, _square_terminal(), states)


@pytest.mark.parametrize("noise, how", [("brownian", "under perturbation"),
                                        ("jump", "with an extra jump")])
def test_explicit_names_the_node_where_the_shifted_derivative_is_not_finite(noise, how):
    # g' is NaN above the largest X(T), plus a margin that every Brownian shift
    # stays within and a jump of the positive mark does not: finite at X(T), not
    # finite at a shifted X(T) from node 0 on
    model, states = _explicit_setup("declared")
    top = states.terminal.max() + (0.0 if noise == "brownian" else 1e-3)
    spec = PerformanceSpec.terminal_only(
        lambda x: np.asarray(x, dtype=float) ** 2,
        lambda x: np.where(np.asarray(x) > top, np.nan, 2.0 * np.asarray(x, dtype=float)),
        domain=(-1.0, 0.5))
    with pytest.raises(ValueError, match=f"not finite {how} at node 0$"):
        solve_explicit_x_independent(model, spec, states)


# --- general solver ------------------------------------------------------------

def test_general_zero_data_gives_zero_triple(xindep_setup):
    model, control, states, paths = xindep_setup
    spec = PerformanceSpec()  # zero running and terminal rewards
    triple, field = solve_general(model, spec, states)
    q, r = _adjoint_rows(triple, field)
    assert np.allclose(triple.p, 0.0, atol=1e-12)
    assert np.allclose(q, 0.0, atol=1e-12)
    assert np.allclose(r, 0.0, atol=1e-12)


def test_general_matches_explicit_x_independent(xindep_setup):
    model, control, states, paths = xindep_setup
    spec = _square_terminal()
    t_exp, _ = solve_explicit_x_independent(model, spec, states)
    t_gen, _ = solve_general(model, spec, states)
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
    triple, _ = solve_general(model, spec, states, features=feats)
    t = paths.grid.nodes
    p_oracle = 2.0 * np.exp(sigma0 ** 2 * (1.0 - t))[:, None] * states.values
    rel = np.sqrt(np.mean((triple.p - p_oracle) ** 2)) / np.sqrt(np.mean(p_oracle ** 2))
    assert rel <= 0.05


def test_general_cost_guard():
    # a model without memory reads no field row, so nothing restarts and no history
    # is summed: the 256-step guard lets it through (the guarded runs are pinned by
    # test_the_step_guard_holds_where_restarts_run)
    from volterra_control.adjoint import _MAX_STEPS

    grid = TimeGrid(1.0, 512)
    paths = sample_paths(grid, JumpModel.none(), 600, seed=1)
    assert paths.n_steps > _MAX_STEPS
    model = registry_get("constant", dict(b0=0.0, sigma0=0.1))
    assert not model.memory_state_coupling
    control = ControlProcess.constant(1.0)
    states = simulate_integral_form(model, control, paths)
    triple, field = solve_general(model, _square_terminal(), states)
    assert np.all(np.isfinite(triple.p)) and np.all(np.isfinite(_adjoint_rows(triple, field)[0]))


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
    model, control = registry_get("constant", {}), ControlProcess.constant(1.0)
    triple = AdjointTriple(states=simulate_integral_form(model, control, paths), model=model,
                           spec=PerformanceSpec.log_terminal(), p=np.zeros((n + 1, m)),
                           qr_coefs=[None] * n, qr_scales=(paths.grid.dt,), regressions=regs,
                           surrogate_coefs=coefs, features=feats)
    return SurrogateMalliavinField(triple)


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
    triple, field = solve_general(model, spec, states, features=feats)
    with pytest.raises(ConfigurationError, match="sensitivity"):
        field.dp_rows(4)


def test_malliavin_field_from_surrogate_roundtrip(xindep_setup):
    model, control, states, paths = xindep_setup
    spec = _square_terminal()
    triple, _ = solve_general(model, spec, states)
    field = SurrogateMalliavinField(triple)
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
        states = simulate_integral_form(model, control, paths)
        feats = [simulated_state_feature(model, states)]
        triple, field = solve_general(model, spec, states, features=feats)
        beta = perturbation_window(n, n // 4, n // 4, alpha=1.0)
        (rep,) = gateaux_check(triple, field, [beta])
        gaps[n] = abs(rep.gap / rep.lhs)
        if n == 32:
            assert abs(rep.lhs) > 5.0 * rep.stderr_lhs
            assert rep.within(3.0), (rep.lhs, rep.rhs,
                                     rep.combined_stderr)
    assert gaps[32] <= gaps[16] / 1.2, gaps


def _memory_setup(jumps, n, m, seed, model_params, control_value, spec):
    """An x-dependent memory model solved with re-simulated state sensitivities."""
    from volterra_control.adjoint import simulated_state_feature

    model = registry_get("exp_kernel_linear", model_params)
    control = ControlProcess.constant(control_value)
    paths = sample_paths(TimeGrid(1.0, n), jumps, m, seed=seed)
    states = simulate_integral_form(model, control, paths)
    feats = [simulated_state_feature(model, states)]
    triple, field = solve_general(model, spec, states, features=feats)
    return model, spec, control, states, paths, triple, field


@pytest.fixture(scope="module")
def memory_setup():
    # the setup of test_memory_state_driver_satisfies_gateaux_identity at N=16
    return _memory_setup(JumpModel.none(), 16, 10_000, 97,
                         dict(b0=0.25, sigma0=0.3, decay_b=1.5, decay_sigma=1.0),
                         0.8, _square_terminal())


# the memory-with-jumps model of the desk benchmark
_MEMORY_JUMP_PARAMS = dict(b0=0.1, sigma0=0.3, jump0=0.1, x0=1.0, decay_b=1.0,
                           decay_sigma=0.8, decay_jump=0.5)


@pytest.fixture(scope="module")
def memory_jump_setup():
    # the memory-with-jumps model of the desk benchmark, on a short grid
    return _memory_setup(JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)), 8, 4_000, 31,
                         _MEMORY_JUMP_PARAMS, 0.5, PerformanceSpec.log_terminal())


@pytest.mark.parametrize("setup", ["xindep", "memory", "memory_jump"])
def test_single_sweep_is_a_fixed_point(setup, request, xindep_setup):
    # the driver at node i reads nodes j > i only, so a second backward sweep
    # over the solved triple, with a fresh field, reproduces it bit for bit
    if setup == "xindep":
        model, control, states, paths = xindep_setup
        spec = _square_terminal()
        triple, field = solve_general(model, spec, states)
    else:
        model, spec, control, states, paths, triple, field = request.getfixturevalue(
            f"{setup}_setup")
    assert triple.picard_iterations == 1
    before = [triple.p.copy(), *_adjoint_rows(triple, field)]
    coefs = [c.copy() for c in triple.surrogate_coefs]
    field = SurrogateMalliavinField(triple)
    _backward_sweep(triple, field)
    for old, new in zip(before, (triple.p, *_adjoint_rows(triple, field))):
        assert np.array_equal(old, new)
    for old, new in zip(coefs, triple.surrogate_coefs):
        assert np.array_equal(old, new)


def _adjoint_rows(triple, field):
    """q (N+1, M) and r (N+1, M, K) of a solved triple, stacked from its `qr_rows`."""
    rows = [triple.qr_rows(i, field) for i in range(triple.n_nodes)]
    return np.stack([q for q, _ in rows]), np.stack([r for _, r in rows])


def _stacked(rows, shape):
    """A feature's sensitivity rows at one node (see `Feature`), each broadcast to
    `shape`, stacked in node order: (N - i, *shape)."""
    rows = [np.broadcast_to(row, shape) for row in rows]
    return np.stack(rows) if rows else np.empty((0, *shape))


def _unmemoized_rows(triple, paths, i):
    """Off-diagonal field rows of node i by the plain arithmetic: `fit` per request."""
    regs, coefs, feats = triple.regressions, triple.surrogate_coefs, triple.features
    n1, m, k = triple.n_nodes, paths.n_paths, paths.jumps.n_marks
    dp, dj = np.zeros((n1, m)), np.zeros((n1, m, k))
    later = range(i + 1, n1)
    if not later:
        return dp, dj
    dx = [_stacked(f.brownian_sensitivity(i), (m,)) for f in feats]
    shifts = [_stacked(f.jump_shift(i), (k, m)) for f in feats]
    cols = []
    for j in later:
        grad, col = regs[j].gradient_raw(coefs[j]), np.zeros(m)
        for pos in range(len(feats)):
            sens = dx[pos][j - i - 1]
            if np.any(np.asarray(sens) != 0.0):
                col += grad[:, pos] * sens
        cols.append(col)
    dp[i + 1:] = regs[i].fit(np.column_stack(cols)).T
    for kk in range(k):
        deltas = []
        for j in later:
            raw = regs[j].raw_values()
            shift = np.column_stack([rows[j - i - 1, kk] for rows in shifts])
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
        assert np.array_equal(field.dp_rows(i), want_dp)
        assert np.array_equal(field.djump_rows(i), want_dj)
        fresh = SurrogateMalliavinField(triple)
        assert np.array_equal(field.dp_rows(i), fresh.dp_rows(i))
        fresh = SurrogateMalliavinField(triple)
        assert np.array_equal(field.djump_rows(i), fresh.djump_rows(i))
    assert np.any(field.dp_rows(0) != 0.0)
    if paths.jumps.n_marks:
        assert np.any(field.djump_rows(0) != 0.0)


# --- state sensitivities re-run from node 0 against full re-simulations ---

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


def _squared_jump_model():
    """The memory-with-jumps model of the desk benchmark with x^2 in its jump kernel: its
    decays are declared, but it is not affine in x, so its jump shifts restart."""
    def kernel(amp, lam, power):
        return lambda t, s, x, v: \
            amp * np.exp(-lam * (np.asarray(t, dtype=float) - s)) * v * np.asarray(x) ** power
    jump = kernel(0.1, 0.5, 2)
    return registry_get("custom", dict(
        initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        drift=kernel(0.1, 1.0, 1), diffusion=kernel(0.3, 0.8, 1),
        jump=lambda t, s, x, v, z: jump(t, s, x, v) * z, decays=(1.0, 0.8, 0.5)))


def _x_independent_model():
    return registry_get("x_independent_linear", _EXP_PARAMS)


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
# control there also needs its prefix values, copied from the base run.
RERUN_CASES = [
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
    # no state axis: after the restart row only the carried sums vary
    pytest.param(_x_independent_model, ControlProcess.constant(0.7), _RESTART_JUMPS,
                 id="lifted-x-independent"),
]


@pytest.mark.parametrize("make_model,control,jumps", RERUN_CASES)
def test_rerun_sensitivities_equal_full_resimulation(make_model, control, jumps):
    from volterra_control.adjoint import simulated_state_feature

    model = make_model()
    paths = sample_paths(TimeGrid(1.0, 8), jumps, 600, seed=41)
    states = simulate_integral_form(model, control, paths)
    feat = simulated_state_feature(model, states)
    h = 1e-4 * np.sqrt(paths.grid.dt)
    m, marks = paths.n_paths, paths.jumps.n_marks
    for i in range(paths.n_steps):
        pert = paths.perturb_brownian(i, +h)
        up = simulate_integral_form(model, control, pert).values
        pert.rebump(-h)
        full = (up - simulate_integral_form(model, control, pert).values) / (2.0 * h)
        shifts = [simulate_integral_form(model, control, paths.with_extra_jump(i, k)).values
                  - states.values for k in range(marks)]
        assert np.array_equal(_stacked(feat.brownian_sensitivity(i), (m,)), full[i + 1:])
        rows = _stacked(feat.jump_shift(i), (marks, m))
        for k, shift in enumerate(shifts):
            assert np.array_equal(rows[:, k], shift[i + 1:])
    assert np.any(_stacked(feat.brownian_sensitivity(0), (m,))[paths.n_steps - 1] != 0.0)


def test_a_feedback_rule_is_evaluated_by_the_simulations_only():
    # the run's readers take u from states.controls; a read at node i re-runs each of
    # its perturbed views from node 0 and evaluates the rule on rows 0..N-1 of each, so
    # the sweep's 2 + K = 4 runs per node make 4 x 16 rows x 16 nodes = 1024 calls at
    # N = 16
    from volterra_control.adjoint import simulated_state_feature
    from volterra_control.hamiltonian import check_stationarity, simulate_variation
    from volterra_control.volterra import evaluate_performance

    calls = []

    def rule(i, t, paths, x):
        calls.append(i)
        return np.clip(0.5 + 0.2 * np.asarray(x) + 0.3 * paths.brownian[i]
                       + 0.3 * paths.jump_sum[i], 0.0, 2.0)

    model, spec = _exp_model(), PerformanceSpec.log_terminal()
    control = ControlProcess.feedback(rule, bounds=(0.0, 2.0))
    paths = sample_paths(TimeGrid(1.0, 16), _RESTART_JUMPS, 2000, seed=43)
    counts = {}

    def counted(name, fn, *args, **kwargs):
        before = len(calls)
        out = fn(*args, **kwargs)
        counts[name] = len(calls) - before
        return out

    states = counted("simulate", simulate_integral_form, model, control, paths)
    counted("evaluate_performance", evaluate_performance, spec, states)
    triple, field = counted("solve_general", solve_general, model, spec, states,
                            features=[simulated_state_feature(model, states)])
    counted("check_stationarity", check_stationarity, triple, field)
    counted("simulate_variation", simulate_variation, model, np.ones(16), states)
    assert counts == {"simulate": 16, "evaluate_performance": 0, "solve_general": 1024,
                      "check_stationarity": 0, "simulate_variation": 0}


def test_state_sensitivities_rerun_from_node_0_once_per_node_and_kind(monkeypatch):
    # a read re-runs each of its perturbed views once, the 2 Brownian ones or the K
    # jump ones, and the base run is the caller's: reading every node's rows of both
    # kinds simulates (2 + K) N times
    from volterra_control.adjoint import simulated_state_feature

    model, control = _exp_model(), ControlProcess.constant(0.7)
    paths = sample_paths(TimeGrid(1.0, 8), _THREE_MARKS, 300, seed=41)
    n, marks = paths.n_steps, paths.jumps.n_marks
    states = simulate_integral_form(model, control, paths)
    runs = _counted_reruns(monkeypatch)
    feat = simulated_state_feature(model, states)
    for i in range(n):
        assert len(list(feat.brownian_sensitivity(i))) == n - i
        assert len(list(feat.jump_shift(i))) == n - i
    assert runs == [(i, v) for i in range(n) for v in (2, marks)]
    assert sum(v for _, v in runs) == (2 + marks) * n


def _counted_reruns(monkeypatch) -> list:
    """Patch the adjoint's row stream so that every sensitivity read is recorded as
    (node, views): the node of the perturbed views that the read passes to
    `integral_form_rows`, and their number. A read passes all its views before it draws
    a row of any, so a view passed after a row was drawn starts the next read."""
    from volterra_control import adjoint

    reads, drawn = [], [True]
    rows = adjoint.integral_form_rows

    def watched(run):
        for row in run:
            drawn[0] = True
            yield row

    def counted(model, control, view, **kwargs):
        if drawn[0]:
            reads.append((view._node, 0))
            drawn[0] = False
        reads[-1] = (view._node, reads[-1][1] + 1)
        return watched(rows(model, control, view, **kwargs))

    monkeypatch.setattr(adjoint, "integral_form_rows", counted)
    return reads


def _reread_nodes(reads: list) -> list:
    """The node of each read that `_counted_reruns` recorded."""
    return [node for node, _ in reads]


# --- every feature constructor's node blocks against per-pair oracles --------

_BLOCK_CONTROL = ControlProcess.deterministic([0.4, 0.5, 0.6, 0.7, 0.8, 0.9])


def _brownian_blocks(paths):
    return brownian_feature(paths), lambda i, j: 1.0, lambda i, j, k: 0.0


def _jump_sum_blocks(paths):
    marks = paths.jumps.mark_array
    return jump_sum_feature(paths), lambda i, j: 0.0, lambda i, j, k: marks[k]


def _weighted_brownian_blocks(paths):
    w = np.linspace(0.5, 1.5, paths.n_steps)
    return weighted_brownian_feature(w, paths), lambda i, j: w[i], lambda i, j, k: 0.0


def _predicted_terminal_blocks(paths):
    model = _x_independent_model()
    t, u, marks = paths.grid.nodes, _BLOCK_CONTROL.values, paths.jumps.marks
    return (predicted_terminal_feature(model, _BLOCK_CONTROL, paths),
            lambda i, j: model.diffusion(t[-1], t[i], None, u[i]),
            lambda i, j, k: model.jump(t[-1], t[i], None, u[i], marks[k]))


def _martingale_blocks(paths):
    """The running exponential martingale of a loading th, whose sensitivity to dW_i
    is th_i times its later rows."""
    th = np.linspace(0.3, 0.8, paths.n_steps)
    vals = y_martingale(th, paths, 1.0)
    feat = state_feature(vals, name="exp_martingale",
                         brownian_sensitivity=lambda i: (th[i] * row for row in vals[i + 1:]),
                         jump_shift=lambda i: (0.0 for _ in vals[i + 1:]))
    return feat, lambda i, j: th[i] * vals[j], lambda i, j, k: 0.0


def _simulated_state_blocks(paths):
    """The state's rows from full re-simulations perturbed at node i."""
    from volterra_control.adjoint import simulated_state_feature

    model, control = _exp_model(), _BLOCK_CONTROL
    states = simulate_integral_form(model, control, paths)
    h = 1e-4 * np.sqrt(paths.grid.dt)
    full, shifts = {}, {}
    for i in range(paths.n_steps):
        pert = paths.perturb_brownian(i, +h)
        up = simulate_integral_form(model, control, pert).values
        pert.rebump(-h)
        full[i] = (up - simulate_integral_form(model, control, pert).values) / (2.0 * h)
        shifts[i] = [simulate_integral_form(model, control, paths.with_extra_jump(i, k)).values
                     - states.values for k in range(paths.jumps.n_marks)]
    return (simulated_state_feature(model, states),
            lambda i, j: full[i][j], lambda i, j, k: shifts[i][k][j])


@pytest.mark.parametrize("build", [
    _brownian_blocks, _jump_sum_blocks, _weighted_brownian_blocks, _predicted_terminal_blocks,
    _martingale_blocks, _simulated_state_blocks], ids=lambda f: f.__name__[1:-len("_blocks")])
def test_node_blocks_equal_the_per_pair_sensitivities(build, monkeypatch):
    # row j of node i's rows is the sensitivity of values[j] alone, for every j > i
    # and mark k; the rows come in node order, broadcast to (M,) and (K, M), and node N
    # has none, with no re-run
    paths = sample_paths(TimeGrid(1.0, 6), _RESTART_JUMPS, 300, seed=53)
    n, m, k = paths.n_steps, paths.n_paths, paths.jumps.n_marks
    feat, brownian, jump = build(paths)
    starts = _counted_reruns(monkeypatch)
    for i in range(n + 1):
        dx = _stacked(feat.brownian_sensitivity(i), (m,))
        shift = _stacked(feat.jump_shift(i), (k, m))
        assert len(dx) == len(shift) == n - i
        for j in range(i + 1, n + 1):
            assert np.array_equal(dx[j - i - 1], np.broadcast_to(brownian(i, j), (m,)))
            for kk in range(k):
                assert np.array_equal(shift[j - i - 1, kk],
                                      np.broadcast_to(jump(i, j, kk), (m,)))
    assert _reread_nodes(starts) == ([i for i in range(n) for _ in "bj"]
                                     if feat.name == "simulated_state" else [])


@pytest.mark.parametrize("lifted", [True, False], ids=["declared-decays", "generic"])
def test_adjoint_checks_rerun_from_node_0_once_per_node_and_kind(monkeypatch, lifted):
    # the sweep reads each node's rows once per kind (the jump rows alone on the
    # reverse path of declared decays, where the model is not affine in x; the Brownian
    # rows too on the generic path), and the stationarity and Gateaux checks read only
    # memoized coefficients
    import dataclasses

    from volterra_control.adjoint import simulated_state_feature
    from volterra_control.hamiltonian import (
        check_stationarity,
        gateaux_check,
        perturbation_window,
    )

    model = _squared_jump_model() if lifted else dataclasses.replace(
        registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS), decays=None)
    spec, control = PerformanceSpec.log_terminal(), ControlProcess.constant(0.5)
    paths = sample_paths(TimeGrid(1.0, 8), JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)),
                         600, seed=43)
    states = simulate_integral_form(model, control, paths)
    starts = _counted_reruns(monkeypatch)
    feats = [simulated_state_feature(model, states)]
    triple, field = solve_general(model, spec, states, features=feats)
    check_stationarity(triple, field)
    gateaux_check(triple, field, [perturbation_window(8, 2, 2)])
    kinds = 1 if lifted else 2
    assert _reread_nodes(starts) == [i for i in range(paths.n_steps - 1, -1, -1)
                                     for _ in range(kinds)]


@pytest.mark.parametrize("case", ["declared-decays", "generic", "feedback"])
def test_the_solve_keeps_no_node_block(monkeypatch, case):
    # the feature's sensitivity rows and the field's per-node surrogate rows (Taylor
    # rows, gradients, unshifted values) are read by the sweep only: once
    # solve_general returns, none that was made during it is still alive. The
    # constant control takes the reverse sweeps on declared decays; the feedback rule
    # re-runs its views at every node
    import gc
    import weakref

    from volterra_control.adjoint import simulated_state_feature

    made = []

    def recorded(read):
        def wrapper(*args, **kwargs):
            out = read(*args, **kwargs)
            made.append(weakref.ref(out))
            return out
        return wrapper

    def recorded_rows(read):
        def wrapper(i):
            for row in read(i):
                made.append(weakref.ref(row))
                yield row
        return wrapper

    for name in ("taylor_rows", "gradient_raw", "predict"):
        monkeypatch.setattr(NodeRegression, name, recorded(getattr(NodeRegression, name)))
    model = registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS)
    if case == "generic":
        model = dataclasses.replace(model, decays=None)
    control = _FEEDBACK if case == "feedback" else ControlProcess.constant(0.5)
    paths = sample_paths(TimeGrid(1.0, 8), JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)),
                         600, seed=43)
    states = simulate_integral_form(model, control, paths)
    feat = simulated_state_feature(model, states)
    feat.brownian_sensitivity = recorded_rows(feat.brownian_sensitivity)
    feat.jump_shift = recorded_rows(feat.jump_shift)
    solve = solve_general(model, PerformanceSpec.log_terminal(), states, features=[feat])
    gc.collect()
    assert len(made) > paths.n_steps
    assert [ref for ref in made if ref() is not None] == [], "kept alive by the solve"
    del solve


def _without_reverse_hook(triple):
    """The same surrogates read through features without reverse sweeps: the
    field then sums the rows of the restarted blocks."""
    feats = [dataclasses.replace(f, reverse_sweep=None, reverse_jump_sweep=None)
             for f in triple.features]
    return dataclasses.replace(triple, features=feats)


@pytest.mark.parametrize("jumps,n,m", [
    pytest.param(JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)), 16, 4_000, id="memory-jumps-16"),
    pytest.param(JumpModel.none(), 128, 2_000, id="jump-free-128"),
])
def test_reverse_rows_equal_the_restart_block_weighted_sums(jumps, n, m):
    # an open-loop control on a declared-decay model affine in x: the field projects
    # one reverse-swept Brownian column and one reverse-swept jump column per node
    # and decay; the decay-weighted sums of the projected rows of the restarted
    # blocks agree up to the round-off of their difference quotient
    model, _, _, _, paths, triple, field = _memory_setup(
        jumps, n, m, 11, _MEMORY_JUMP_PARAMS, 0.5, PerformanceSpec.log_terminal())
    oracle = SurrogateMalliavinField(_without_reverse_hook(triple))
    kernels = [("diffusion", False)] + ([("jump", True)] if jumps.active else [])
    for i in range(n - 1, -1, -1):
        for name, jump in kernels:
            lam = model.decay(name)
            want = oracle.weighted_rows(i, lam, jump)
            got = field.weighted_rows(i, lam, jump)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), (i, name)


def _resimulated_jump_target(triple, i, decay):
    """Node i's (M, K) jump target by full re-simulations on paths.with_extra_jump(i, k):
    sum_{j>i} e^{-decay (t_j - t_i)} [P_j(X_j + delta) - P_j(X_j)] of the node surrogates
    P_j, summed from their Taylor rows, with every shift delta taken from a whole run."""
    from volterra_control.volterra import decay_weights

    states, paths = triple.states, triple.states.paths
    runs = [simulate_integral_form(triple.model, states.control,
                                   paths.with_extra_jump(i, k)).values
            for k in range(paths.jumps.n_marks)]
    weights = decay_weights(paths.grid.nodes, i, decay)
    out = np.zeros((paths.jumps.n_marks, paths.n_paths))
    for c, j in enumerate(range(i + 1, triple.n_nodes)):
        delta = np.stack([run[j] - states.values[j] for run in runs])
        rows = triple.regressions[j].taylor_rows(triple.surrogate_coefs[j])
        poly = rows[-1]
        for row in rows[-2::-1]:
            poly = row + delta * poly
        out += weights[c] * (delta * poly)
    return out.T


def test_streamed_jump_targets_equal_full_resimulation_sums():
    # on a model affine in x, one reverse sweep gives every node's jump target from the
    # Taylor powers of the shift, re-running nothing. Each
    # target equals the sum over full re-simulations up to the round-off of the two
    # orders of summation, within 1e-12 of the largest target (1.3e-15 of 0.28 at
    # N = 16 and 2.0e-14 of 1.47 at N = 128 measured). A fresh field read in a scrambled
    # order sweeps the same targets and gives the solve's rows bit for bit, the nodes the
    # sweep has passed from their kept coefficients
    for n, m in ((16, 1_000), (128, 2_000)):
        model, _, _, states, paths, triple, field = _memory_setup(
            JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)), n, m, 13, _MEMORY_JUMP_PARAMS, 0.5,
            PerformanceSpec.log_terminal())
        lam, feat = model.decay("jump"), triple.features[0]
        wants = [_resimulated_jump_target(triple, i, lam) for i in range(n)]
        bound = 1e-12 * max(np.abs(want).max() for want in wants)
        sweep, swept = feat.reverse_jump_sweep, []

        def watched(decay):
            column, node = sweep(decay), [n]

            def checked(rows):
                out = column(rows)
                node[0] -= 1
                swept.append(node[0])
                assert np.abs(out - wants[node[0]]).max() <= bound, (n, node[0])
                return out

            return checked

        feat.reverse_jump_sweep = watched
        try:
            _backward_sweep(triple, SurrogateMalliavinField(triple))
            assert swept == list(range(n - 1, -1, -1))
            scrambled = [int(i) for i in np.random.default_rng(5).permutation(n)] + [n - 1, 3, 12]
            fresh = SurrogateMalliavinField(triple)
            for i in scrambled:
                assert np.array_equal(fresh.weighted_rows(i, lam, jump=True),
                                      field.weighted_rows(i, lam, jump=True)), (n, i)
            assert swept == 2 * list(range(n - 1, -1, -1))
        finally:
            feat.reverse_jump_sweep = sweep


def test_a_model_not_affine_in_x_restarts_its_jump_shifts(monkeypatch):
    # x^2 in the jump kernel: solve_adjoint re-runs the K jump views once per node for
    # the jump shifts (the Brownian column is still swept), and the jump column is
    # the projection of the re-simulated targets up to the round-off of the surrogates'
    # differences
    from volterra_control import adjoint

    model, n = _squared_jump_model(), 16
    paths = sample_paths(TimeGrid(1.0, n), _RESTART_JUMPS, 1_000, seed=13)
    reads = _counted_reruns(monkeypatch)
    triple, field = adjoint.solve_adjoint(model, PerformanceSpec.log_terminal(),
                                          ControlProcess.constant(0.5), paths)
    assert reads == [(i, paths.jumps.n_marks) for i in range(n - 1, -1, -1)]
    lam = model.decay("jump")
    for i in range(n):
        want = triple.regressions[i].fit(_resimulated_jump_target(triple, i, lam))
        got = field.weighted_rows(i, lam, jump=True)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), i
    assert len(reads) == n   # the reads after the solve take the kept coefficients


@pytest.mark.parametrize("jumps", [JumpModel.none(), JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5))],
                         ids=["jump-free", "jumps"])
@pytest.mark.parametrize("control", [
    ControlProcess.constant(0.5), ControlProcess.deterministic(np.linspace(0.3, 0.7, 16))],
    ids=["constant", "deterministic"])
def test_open_loop_adjoint_makes_no_restarted_run(monkeypatch, control, jumps):
    # reverse sweeps give every Brownian column and, the model being affine in x, every
    # jump column: the adjoint and both checks never re-run the simulator
    from volterra_control.adjoint import simulated_state_feature
    from volterra_control.hamiltonian import (
        check_stationarity,
        gateaux_check,
        perturbation_window,
    )

    model, spec = registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS), \
        PerformanceSpec.log_terminal()
    paths = sample_paths(TimeGrid(1.0, 16), jumps, 600, seed=43)
    states = simulate_integral_form(model, control, paths)
    starts = _counted_reruns(monkeypatch)
    feats = [simulated_state_feature(model, states)]
    triple, field = solve_general(model, spec, states, features=feats)
    check_stationarity(triple, field)
    gateaux_check(triple, field, [perturbation_window(16, 4, 4)])
    assert starts == []


@pytest.mark.parametrize("make_model,control,jumps", RERUN_CASES)
def test_jump_shift_read_first_runs_the_jump_variants_only(make_model, control, jumps,
                                                           monkeypatch):
    # a jump_shift(i) read re-runs the K jump views only, and its rows equal full
    # re-simulation bit for bit; a Brownian read after it re-runs the 2 Brownian views,
    # bit for bit too
    from volterra_control.adjoint import simulated_state_feature

    model = make_model()
    paths = sample_paths(TimeGrid(1.0, 8), jumps, 600, seed=41)
    n, m, k = paths.n_steps, paths.n_paths, paths.jumps.n_marks
    states = simulate_integral_form(model, control, paths)
    runs = _counted_reruns(monkeypatch)
    feat = simulated_state_feature(model, states)
    h = 1e-4 * np.sqrt(paths.grid.dt)
    for i in range(n):
        shift = _stacked(feat.jump_shift(i), (k, m))
        assert runs[-1] == (i, k)
        for kk in range(k):
            full = simulate_integral_form(model, control, paths.with_extra_jump(i, kk)).values
            assert np.array_equal(shift[:, kk], (full - states.values)[i + 1:])
        pert = paths.perturb_brownian(i, +h)
        up = simulate_integral_form(model, control, pert).values
        pert.rebump(-h)
        full = (up - simulate_integral_form(model, control, pert).values) / (2.0 * h)
        assert np.array_equal(_stacked(feat.brownian_sensitivity(i), (m,)), full[i + 1:])
        assert runs[-1] == (i, 2)
    assert len(runs) == 2 * n


@pytest.fixture(scope="module")
def sweep_order_reads():
    """A memory-with-jumps run and its sensitivities read node by node, from the last
    node down, as the adjoint sweep reads them."""
    from volterra_control.adjoint import simulated_state_feature

    model, control = _exp_model(), ControlProcess.constant(0.7)
    paths = sample_paths(TimeGrid(1.0, 8), _RESTART_JUMPS, 300, seed=47)
    states = simulate_integral_form(model, control, paths)
    feat = simulated_state_feature(model, states)
    m, marks = paths.n_paths, paths.jumps.n_marks
    want = {i: (_stacked(feat.brownian_sensitivity(i), (m,)),
                _stacked(feat.jump_shift(i), (marks, m)))
            for i in range(paths.n_steps - 1, -1, -1)}
    return model, control, states, paths, want


@settings(max_examples=25)
@given(data=st.data())
def test_out_of_order_sensitivity_reads_are_bit_exact(sweep_order_reads, data):
    # reads in any (i, j > i, k) order, each re-running its views from node 0, give the
    # values of the sweep's order bit for bit; the last reads go back to a node read
    # before
    from volterra_control.adjoint import simulated_state_feature

    model, control, states, paths, want = sweep_order_reads
    n, m, marks = paths.n_steps, paths.n_paths, paths.jumps.n_marks
    read = st.integers(0, n - 1).flatmap(lambda i: st.tuples(
        st.just(i), st.integers(i + 1, n), st.integers(0, marks - 1)))
    reads = data.draw(st.lists(read, min_size=1, max_size=12), label="reads")
    first = data.draw(st.integers(0, n - 2), label="evicted node")
    other = data.draw(st.sampled_from([i for i in range(n - 1) if i != first]),
                      label="other node")
    reads += [(first, n, 0), (other, n, 0), (first, n, marks - 1), (first, first + 2, 0)]
    with pytest.MonkeyPatch.context() as patch:
        starts = _counted_reruns(patch)
        feat = simulated_state_feature(model, states)
        for i, j, k in reads:
            assert np.array_equal(_stacked(feat.brownian_sensitivity(i), (m,))[j - i - 1],
                                  want[i][0][j - i - 1])
            assert np.array_equal(_stacked(feat.jump_shift(i), (marks, m))[j - i - 1, k],
                                  want[i][1][j - i - 1, k])
    assert _reread_nodes(starts).count(first) >= 2


def test_state_sensitivity_memory_is_linear_in_the_grid():
    # building the feature, the sweep and the stationarity check together
    # allocate O((1 + K) N M) doubles at peak: one node's block is held at a
    # time, not the (N - i, M) blocks of every node (35.6 units at N = 64), and q
    # and r are node coefficients, not (N + 1, M) and (N + 1, M, K) arrays (which
    # add 1 unit). The constant control takes the reverse sweeps (1.05 units at
    # N = 64); the feedback rule re-runs its views at every node (3.4 units at
    # N = 20, where holding every node's blocks would add about N/2)
    import tracemalloc

    from volterra_control.adjoint import simulated_state_feature
    from volterra_control.hamiltonian import check_stationarity

    model, spec = registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS), \
        PerformanceSpec.log_terminal()
    for control, n, m, bound in ((ControlProcess.constant(0.5), 64, 1000, 1.5),
                                 (_FEEDBACK, 20, 400, 4.0)):
        paths = sample_paths(TimeGrid(1.0, n), JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)), m,
                             seed=31)
        states = simulate_integral_form(model, control, paths)
        tracemalloc.start()
        try:
            feats = [simulated_state_feature(model, states)]
            triple, field = solve_general(model, spec, states, features=feats)
            check_stationarity(triple, field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = 8 * (1 + paths.jumps.n_marks) * (n + 1) * m
        assert peak < bound * unit, f"peak {peak / unit:.1f} x (1 + K)(N + 1)M doubles at N = {n}"


@pytest.mark.parametrize("name", ["exp_kernel_linear", "x_independent_linear"],
                         ids=["general", "explicit"])
def test_a_solved_adjoint_holds_no_path_array_but_p_and_the_run(name):
    # q and r are kept as node coefficients, their rows formed per node on request: once
    # solve_adjoint returns, no array of (N + 1)M or more elements is reachable from the
    # triple or its field besides p, the run and the features' values
    from volterra_control.adjoint import solve_adjoint
    from volterra_control.grids import PathBundle
    from volterra_control.volterra import StateEnsemble

    model = registry_get(name, _MEMORY_JUMP_PARAMS)
    paths = sample_paths(TimeGrid(1.0, 16), _JUMPS, 400, seed=5)
    triple, field = solve_adjoint(model, PerformanceSpec.log_terminal(),
                                  ControlProcess.constant(0.5), paths)
    assert isinstance(field, SurrogateMalliavinField) == (name == "exp_kernel_linear")
    allowed = {id(triple.p), *(id(feat.values) for feat in triple.features)}
    large, seen, todo = [], set(), [triple, field]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (StateEnsemble, PathBundle)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.size >= triple.n_nodes * paths.n_paths and id(obj) not in allowed:
                large.append(obj.shape)
        elif isinstance(obj, dict):
            todo += obj.values()
        elif isinstance(obj, (list, tuple)):
            todo += obj
        elif hasattr(obj, "__dict__"):
            todo += vars(obj).values()
    assert large == []


def test_stationarity_check_holds_no_brownian_or_jump_sum_array():
    # the default features' Brownian level and jump sum form their rows as the check
    # reads them, node after node: the check peaks near 1.7 (N + 1)M doubles at N = 64,
    # the one array of forward sums p_sums keeps among them, where the bundle's two
    # cached (N + 1, M) arrays alone would add 2
    import tracemalloc

    from volterra_control.adjoint import simulated_state_feature
    from volterra_control.hamiltonian import check_stationarity

    n, m = 64, 1000
    model = registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS)
    paths = sample_paths(TimeGrid(1.0, n), JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)), m,
                         seed=31)
    states = simulate_integral_form(model, ControlProcess.constant(0.5), paths)
    triple, field = solve_general(model, PerformanceSpec.log_terminal(), states,
                                  features=[simulated_state_feature(model, states)])
    tracemalloc.start()
    try:
        check_stationarity(triple, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = 8 * (n + 1) * m
    assert peak < 2.5 * unit, f"peak {peak / unit:.2f} x (N + 1)M doubles"


@settings(max_examples=30)
@given(data=st.data())
def test_state_sensitivities_and_field_rows_are_adapted(memory_jump_setup, data):
    # D_{t_i} X(t_j) = 0 for j <= i, so node i's rows are the N - i rows j > i only,
    # and the field rows j < i vanish exactly
    *_, paths, triple, field = memory_jump_setup
    n, m, marks = paths.n_steps, paths.n_paths, paths.jumps.n_marks
    i = data.draw(st.integers(0, n), label="i")
    feat = triple.features[0]
    dx, shifts = list(feat.brownian_sensitivity(i)), list(feat.jump_shift(i))
    assert len(dx) == len(shifts) == n - i
    assert all(row.shape == (m,) for row in dx)
    assert all(row.shape == (marks, m) for row in shifts)
    assert np.all(field.dp_rows(i)[:i] == 0.0)
    assert np.all(field.djump_rows(i)[:i] == 0.0)


def test_explicit_adjoint_refuses_a_control_that_reads_the_noise():
    # the predicted-terminal feature is E[X(T) | F_t] under an open-loop control; one
    # that reads B moves X(T) through the control too, so it is refused, while a
    # per-path copy of a deterministic control is that control
    paths = sample_paths(TimeGrid(1.0, 16), JumpModel.none(), 4000, seed=5)
    model = registry_get("x_independent_linear", {"b0": 0.1, "sigma0": 0.3})
    values = np.linspace(0.4, 0.6, 16)
    reading = ControlProcess.per_path(values[:, None] + 0.1 * np.tanh(paths.brownian[:-1]))
    with pytest.raises(ConfigurationError, match="same on every path"):
        solve_adjoint(model, _square_terminal(), reading, paths)
    flat = ControlProcess.per_path(np.repeat(values[:, None], paths.n_paths, axis=1))
    (want, want_field), (got, got_field) = (
        solve_adjoint(model, _square_terminal(), control, paths)
        for control in (ControlProcess.deterministic(values), flat))
    assert np.array_equal(got.p, want.p) and np.array_equal(
        _adjoint_rows(got, got_field)[0], _adjoint_rows(want, want_field)[0])


def test_a_running_reward_that_reads_x_takes_the_general_solver():
    # for an x-independent model dH/dx = f_x, so with f = g = -x^2 the mean of p_0 is
    # E[g'(X_T) + sum_i f_x(X_i) dt] (-4.09 here), where the explicit solver's p is
    # E[g'(X_T) | F_t] alone (-2.06): the explicit solver refuses such a run, and
    # solve_adjoint sends it to the general one
    paths = sample_paths(TimeGrid(1.0, 16), JumpModel.none(), 20_000, seed=3)
    model = registry_get("x_independent_linear", {"b0": 0.1, "sigma0": 0.3})
    spec = PerformanceSpec(running=lambda t, x, v: -np.asarray(x, dtype=float) ** 2,
                           terminal=lambda x: -np.asarray(x, dtype=float) ** 2)
    control = ControlProcess.constant(0.5)
    with pytest.raises(ConfigurationError, match="running_dx"):
        solve_explicit_x_independent(model, spec, simulate_integral_form(model, control, paths))
    triple, _ = solve_adjoint(model, spec, control, paths)
    x, dt = triple.states.values, paths.grid.dt
    want = np.mean(-2.0 * x[-1] - 2.0 * x[:-1].sum(axis=0) * dt)
    assert triple.p[0].mean() == pytest.approx(want, rel=1e-6)
    assert [f.name for f in triple.features] == ["predicted_terminal"]


def test_the_general_sweep_forms_each_running_sum_feature_once():
    # the sweep reads nodes N..0, and a feature whose rows are formed on request starts
    # again from S_0 at each earlier read, so solve_general forms those rows once, in
    # node order: N steps per feature
    paths = sample_paths(TimeGrid(1.0, 16), _RESTART_JUMPS, 2000, seed=13)
    model = registry_get("constant", {"jump0": 0.1})
    states = simulate_integral_form(model, ControlProcess.constant(0.5), paths)
    features, steps = default_features(paths, states.values), []
    for feature in features:
        if isinstance(feature.values, RunningSumRows):
            feature.values.step = (lambda j, _step=feature.values.step, _name=feature.name:
                                   steps.append(_name) or _step(j))
    triple, _ = solve_general(model, _square_terminal(), states, features=features)
    assert sorted(steps) == ["brownian"] * 16 + ["jump_sum"] * 16
    assert all(isinstance(f.values, np.ndarray) for f in triple.features)


def test_adjoint_csv_export(tmp_path):
    # the solve-adjoint stage's adjoint.csv holds, per node, the path means of the
    # solved p, q and each mark's r, and the sweep count
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "grid": {"steps": 16},
        "noise": {"intensity": 0.5, "marks": [-0.2, 0.3], "weights": [0.5, 0.5]},
        "model": {"name": "x_independent_linear", "params": {"b0": 0.1, "sigma0": 0.3}},
        "performance": {"terminal": "square"},
        "control": {"kind": "constant", "value": 0.5},
        "monte_carlo": {"paths": 4000, "seed": 3},
    }))
    assert main(["solve-adjoint", "--config", str(config), "--out", str(tmp_path / "adj")]) == 0
    out = tmp_path / "adj" / "adjoint.csv"
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean_p,mean_q,mean_r_0,mean_r_1,picard_iters"
    assert len(lines) == 16 + 2
    cfg = ExperimentConfig.load(str(config))
    states = simulate_integral_form(cfg.model(), cfg.control(), cfg.sample())
    triple, field = solve_explicit_x_independent(cfg.model(), cfg.performance(), states,
                                                 basis=cfg.basis)
    q, r = _adjoint_rows(triple, field)
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], cfg.grid.nodes)
    assert np.array_equal(table[:, 1], triple.p.mean(axis=1))
    assert np.array_equal(table[:, 2], q.mean(axis=1))
    assert np.array_equal(table[:, 3:5], r.mean(axis=1))
    assert np.all(table[:, 5] == triple.picard_iterations)


def test_no_surrogate_row_outlives_the_sweep():
    # the x-independent sweep reads no field row; the rows a later reader builds
    # (every node's gradient for the stationarity check) are not kept after it
    from volterra_control.hamiltonian import check_stationarity

    model = registry_get("x_independent_linear", _MEMORY_JUMP_PARAMS)
    paths = sample_paths(TimeGrid(1.0, 16), JumpModel(0.5, (-0.4, 0.6), (0.35, 0.65)),
                         4_000, seed=3)
    states = simulate_integral_form(model, ControlProcess.constant(0.5), paths)
    triple, field = solve_general(model, PerformanceSpec.log_terminal(), states)
    check_stationarity(triple, field, features=triple.features)
    assert field._node_rows == {}


@pytest.mark.parametrize("jumps", [JumpModel.none(), JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5))],
                         ids=["jump-free", "jumps"])
def test_the_step_guard_holds_where_restarts_run(jumps):
    # a jump-free open-loop memory model takes one reverse sweep and no re-run, so
    # the guard does not apply; jumps on a model not affine in x re-run
    from volterra_control.adjoint import _MAX_STEPS, simulated_state_feature

    model = _squared_jump_model() if jumps.active else \
        registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS)
    control = ControlProcess.constant(0.5)
    paths = sample_paths(TimeGrid(1.0, _MAX_STEPS + 8), jumps, 400, seed=5)
    states = simulate_integral_form(model, control, paths)
    if jumps.active:
        with pytest.raises(ConfigurationError, match="cost"):
            solve_general(model, PerformanceSpec.log_terminal(), states,
                          features=[simulated_state_feature(model, states)])
    else:
        triple, _ = solve_general(model, PerformanceSpec.log_terminal(), states,
                                  features=[simulated_state_feature(model, states)])
        assert np.all(np.isfinite(triple.p))


_JUMPS = JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5))


def _restart_case(reason):
    """(model, control, jumps) of the memory-with-jumps model for one restart reason of
    its state feature, or for none: reverse sweeps, with no restarted run. Jumps restart
    on the model with x^2 in its jump kernel."""
    model, control, jumps = registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS), \
        ControlProcess.constant(0.5), JumpModel.none()
    if reason == "feedback":
        control = _FEEDBACK
    elif reason == "undeclared-decay":
        model = dataclasses.replace(model, decays=None)
    elif reason == "jumps":
        model, jumps = _squared_jump_model(), _JUMPS
    return model, control, jumps


@pytest.mark.parametrize("reason", ["feedback", "undeclared-decay", "jumps"])
def test_check_steps_refuses_each_restart_reason_beyond_the_guard(reason):
    from volterra_control.adjoint import _MAX_STEPS, check_steps, simulated_state_feature

    model, control, jumps = _restart_case(reason)
    check_steps(model, control, jumps, _MAX_STEPS)
    with pytest.raises(ConfigurationError, match=rf"^grid.steps is {_MAX_STEPS + 1}, .* "
                                                 rf"cost-guarded to {_MAX_STEPS} steps"):
        check_steps(model, control, jumps, _MAX_STEPS + 1)
    # simulated_state_feature, the one code that re-runs, applies the same guard to the
    # run's control and jumps
    paths = sample_paths(TimeGrid(1.0, _MAX_STEPS + 1), jumps, 200, seed=5)
    states = simulate_integral_form(model, control, paths)
    with pytest.raises(ConfigurationError, match="cost-guarded"):
        simulated_state_feature(model, states)


def test_check_steps_lets_through_what_restarts_nothing():
    from volterra_control.adjoint import _MAX_STEPS, check_steps

    model, control, _ = _restart_case(None)
    for jumps in (JumpModel.none(), _JUMPS):   # reverse sweeps, the model affine in x
        check_steps(model, control, jumps, 4 * _MAX_STEPS)
    for name in ("constant", "x_independent_linear"):   # no memory coupling
        check_steps(registry_get(name, dict(b0=0.1, sigma0=0.3)), _FEEDBACK, _JUMPS,
                    4 * _MAX_STEPS)


def test_an_analytic_feature_runs_beyond_the_guard_where_nothing_restarts():
    # a solve on a feature other than the simulated state re-runs nothing, so the guard
    # lets solve_general through: on a jump-free open-loop memory model with declared
    # decays, and under a feedback rule, whose state feature would re-run
    from volterra_control.adjoint import _MAX_STEPS

    for reason in (None, "feedback"):
        model, control, jumps = _restart_case(reason)
        paths = sample_paths(TimeGrid(1.0, _MAX_STEPS + 8), jumps, 400, seed=5)
        states = simulate_integral_form(model, control, paths)
        triple, field = solve_general(model, PerformanceSpec.log_terminal(), states,
                                      features=[brownian_feature(paths)])
        q = _adjoint_rows(triple, field)[0]
        assert np.all(np.isfinite(triple.p)) and np.all(np.isfinite(q)), reason


@pytest.mark.parametrize("reason", [None, "feedback", "undeclared-decay", "jumps"])
def test_solve_adjoint_runs_once_and_reruns_only_for_a_reason(reason, monkeypatch):
    from volterra_control import adjoint

    model, control, jumps = _restart_case(reason)
    paths = sample_paths(TimeGrid(1.0, 8), jumps, 2_000, seed=5)
    runs, simulate = [], adjoint.simulate_integral_form

    def run(*args, **kwargs):
        runs.append(simulate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(adjoint, "simulate_integral_form", run)
    reads = _counted_reruns(monkeypatch)
    triple, _ = adjoint.solve_adjoint(model, PerformanceSpec.log_terminal(), control, paths)
    assert runs == [triple.states]
    assert adjoint._restarts(model, control, jumps) == (reason is not None)
    assert len(reads) == (0 if reason is None else paths.n_steps)


@pytest.mark.parametrize("name", ["constant", "x_independent_linear"])
def test_solve_adjoint_fits_a_memoryless_model_on_one_feature(name):
    # neither the explicit solver nor a fit on the state alone re-runs the simulator
    from volterra_control.adjoint import solve_adjoint

    model = registry_get(name, dict(b0=0.1, sigma0=0.3))
    paths = sample_paths(TimeGrid(1.0, 8), _JUMPS, 2_000, seed=5)
    triple, _ = solve_adjoint(model, PerformanceSpec.log_terminal(),
                              ControlProcess.constant(0.5), paths)
    assert [f.name for f in triple.features] == [
        "predicted_terminal" if model.x_independent else "state"]


def test_drift_forward_sums_follow_the_recursion(memory_jump_setup):
    # P_i = sum_{j>i} e^{-lambda (t_j - t_i)} p_j, built downward by one O(M) step per
    # node, agrees with the weighted product over the later rows to round-off
    from volterra_control.volterra import decay_weights

    model, *_, paths, triple, _ = memory_jump_setup
    t, lam = paths.grid.nodes, model.decay("drift")
    for i in range(paths.n_steps, -1, -1):
        want = decay_weights(t, i, lam) @ triple.p[i + 1:]
        got = triple.p_sums(i, lam)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(triple.p).max() * (paths.n_steps - i))
