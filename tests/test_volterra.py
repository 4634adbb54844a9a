import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import (
    ControlProcess,
    JumpModel,
    PerformanceSpec,
    SimulationError,
    TimeGrid,
    UtilitySpec,
    evaluate_performance,
    registry_get,
    sample_paths,
    simulate_differential_form,
    simulate_integral_form,
    terminal_state,
)
from volterra_control.volterra import export_trajectory_csv, performance_paths


def _zero_model(xi):
    return registry_get("custom", dict(
        initial_curve=xi,
        drift=lambda t, s, x, v: 0.0 * v,
        diffusion=lambda t, s, x, v: 0.0 * v,
        jump=lambda t, s, x, v, z: 0.0 * z,
        x_independent=True,
    ))


def test_zero_coefficients_reproduce_initial_curve(jump_paths64_small):
    xi = lambda t: 1.0 + 0.5 * np.asarray(t, dtype=float) ** 2  # noqa: E731
    model = _zero_model(xi)
    ctrl = ControlProcess.constant(1.0)
    t = jump_paths64_small.grid.nodes
    st = simulate_integral_form(model, ctrl, jump_paths64_small)
    assert np.allclose(st.values, xi(t)[:, None], atol=1e-14)


def test_differential_form_pure_drift(paths64_small):
    model = _zero_model(lambda t: np.asarray(t, dtype=float))
    ctrl = ControlProcess.constant(1.0)
    st = simulate_differential_form(model, ctrl, paths64_small)
    t = paths64_small.grid.nodes
    # xi(t) = t integrated by Euler: exact up to finite-difference slope error
    assert np.allclose(st.values, t[:, None], atol=1e-6)


def test_gbm_terminal_moment(paths64_desk):
    # E[X(T)] = exp(b0 T) for the constant model with unit control
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    ctrl = ControlProcess.constant(1.0)
    st = simulate_integral_form(model, ctrl, paths64_desk)
    m = paths64_desk.n_paths
    target = np.exp(0.05)
    se = st.terminal.std(ddof=1) / np.sqrt(m)
    # Euler weak error at N=64 is far below the Monte Carlo band here
    assert abs(st.terminal.mean() - target) <= 3.0 * se + 2e-4


def test_constant_kernels_make_both_forms_identical(paths64_small):
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    ctrl = ControlProcess.constant(1.0)
    a = simulate_integral_form(model, ctrl, paths64_small)
    b = simulate_differential_form(model, ctrl, paths64_small)
    assert np.allclose(a.values, b.values, atol=1e-12)


def test_cross_form_discrepancy_shrinks_at_first_order():
    # same underlying paths refined/coarsened; max pathwise gap halves with N
    model = registry_get("exp_kernel_linear",
                         dict(b0=0.3, sigma0=0.4, decay_b=2.0, decay_sigma=1.5))
    ctrl = ControlProcess.constant(1.0)
    fine = sample_paths(TimeGrid(1.0, 128), JumpModel.none(), 512, seed=13)
    gaps = []
    for factor in (4, 2, 1):  # N = 32, 64, 128
        paths = fine.coarsen(factor) if factor > 1 else fine
        a = simulate_integral_form(model, ctrl, paths)
        b = simulate_differential_form(model, ctrl, paths)
        gaps.append(np.abs(a.values - b.values).max())
    for coarse, finer in zip(gaps, gaps[1:]):
        assert 1.5 <= coarse / finer <= 3.0, gaps


def test_performance_trivial_cases(paths64_small):
    model = _zero_model(lambda t: 2.0 + 0.0 * np.asarray(t, dtype=float))
    ctrl = ControlProcess.constant(1.0)
    st = simulate_integral_form(model, ctrl, paths64_small)
    est, se = evaluate_performance(
        PerformanceSpec.terminal_only(lambda x: np.asarray(x, dtype=float),
                                      lambda x: 1.0 + 0.0 * np.asarray(x, dtype=float),
                                      domain=(1.0, 3.0)),
        st, ctrl)
    assert est == pytest.approx(2.0, abs=1e-12) and se == pytest.approx(0.0, abs=1e-12)
    est, se = evaluate_performance(
        PerformanceSpec(running=lambda t, x, v: 1.0 + 0.0 * np.asarray(v, dtype=float)),
        st, ctrl)
    assert est == pytest.approx(1.0, abs=1e-12)  # Riemann sum of 1 over [0, T]
    assert se == pytest.approx(0.0, abs=1e-12)


def test_log_gbm_performance_oracle(paths64_desk):
    # E[ln X(T)] = (b - sigma^2/2) T for unit investment fraction
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    ctrl = ControlProcess.constant(1.0)
    st = simulate_integral_form(model, ctrl, paths64_desk)
    est, se = evaluate_performance(PerformanceSpec.log_terminal(), st, ctrl)
    assert abs(est - 0.03) <= 3.0 * se + 5e-4


def test_stderr_scales_with_path_count(grid64):
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    ctrl = ControlProcess.constant(1.0)
    spec = PerformanceSpec.log_terminal()
    ses = []
    for m in (1_000, 10_000, 100_000):
        paths = sample_paths(grid64, JumpModel.none(), m, seed=2)
        st = simulate_integral_form(model, ctrl, paths)
        ses.append(evaluate_performance(spec, st, ctrl)[1])
    for a, b in zip(ses, ses[1:]):
        ratio = a / b
        assert np.sqrt(10.0) / 1.5 <= ratio <= np.sqrt(10.0) * 1.5


def test_non_finite_state_aborts_with_location(paths64_small):
    model = registry_get("custom", dict(
        initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        drift=lambda t, s, x, v: np.where(np.asarray(s) > 0.5, np.inf, 0.0) * v,
        diffusion=lambda t, s, x, v: 0.0 * v,
        jump=lambda t, s, x, v, z: 0.0 * z,
        x_independent=True,
    ))
    with pytest.raises(SimulationError, match="node"):
        simulate_integral_form(model, ControlProcess.constant(1.0), paths64_small)


def test_terminal_state_fast_path_matches_simulation(jump_paths64_small):
    model = registry_get("x_independent_linear",
                         dict(b0=0.1, sigma0=0.3, jump0=0.1, decay_b=1.0,
                              decay_sigma=0.5, decay_jump=0.25))
    ctrl = ControlProcess.constant(0.8)
    direct = terminal_state(model, ctrl, jump_paths64_small)
    full = simulate_integral_form(model, ctrl, jump_paths64_small).terminal
    assert np.allclose(direct, full, atol=1e-12)


def test_feedback_control_enters_simulation(paths64_small):
    model = registry_get("constant", dict(b0=0.0, sigma0=0.1))
    rule = ControlProcess.feedback(lambda i, t, paths, x: np.minimum(np.abs(x), 2.0),
                                   bounds=(0.0, 2.0))
    st = simulate_integral_form(model, rule, paths64_small)
    assert np.all(np.isfinite(st.values))


def test_trajectory_csv(tmp_path, paths64_small):
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    st = simulate_integral_form(model, ControlProcess.constant(1.0), paths64_small)
    out = tmp_path / "traj.csv"
    export_trajectory_csv(out, st)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean_X,std_X,q05,q95"
    assert len(lines) == 66


# --- lifted (declared-decay) history sums against the generic full-history sum ---

def _generic(model):
    """The same model with no declared decays: every history sum is re-summed."""
    return dataclasses.replace(model, decays=None)


def _rel_diff(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


_MARKS = JumpModel(intensity=1.0, marks=(-0.5, 0.5), weights=(0.5, 0.5))


def _feedback():
    return ControlProcess.feedback(
        lambda i, t, paths, x: np.clip(0.5 + 0.2 * np.asarray(x), 0.0, 2.0), bounds=(0.0, 2.0))


# Registry models with jumps: x-dependent under a feedback control, x-independent,
# and constant kernels (decay 0).
LIFT_CASES = [
    pytest.param("exp_kernel_linear", dict(b0=0.2, sigma0=0.3, jump0=0.15, decay_b=1.0,
                                           decay_sigma=0.8, decay_jump=0.5),
                 _feedback(), id="exp_kernel_linear-feedback"),
    pytest.param("x_independent_linear", dict(b0=0.1, sigma0=0.3, jump0=0.1, decay_b=2.0,
                                              decay_sigma=0.5, decay_jump=0.25),
                 ControlProcess.constant(0.8), id="x_independent_linear"),
    pytest.param("constant", dict(b0=0.05, sigma0=0.2, jump0=0.1),
                 ControlProcess.constant(1.0), id="constant"),
]


@pytest.mark.parametrize("simulate", [simulate_integral_form, simulate_differential_form],
                         ids=["integral", "differential"])
@pytest.mark.parametrize("name,params,control", LIFT_CASES)
def test_lifted_history_sums_match_generic_path(simulate, name, params, control):
    paths = sample_paths(TimeGrid(1.0, 48), _MARKS, 2_000, seed=31)
    model = registry_get(name, params)
    assert model.decays is not None
    lifted = simulate(model, control, paths).values
    generic = simulate(_generic(model), control, paths).values
    assert _rel_diff(lifted, generic) <= 1e-12


@settings(max_examples=25)
@given(decays=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 6.0))] * 3),
       steps=st.integers(2, 40))
def test_lifted_matches_generic_over_decays_and_steps(decays, steps):
    model = registry_get("exp_kernel_linear",
                         dict(b0=0.2, sigma0=0.3, jump0=0.15, decay_b=decays[0],
                              decay_sigma=decays[1], decay_jump=decays[2]))
    paths = sample_paths(TimeGrid(1.0, steps), _MARKS, 200, seed=steps)
    control = ControlProcess.constant(0.9)
    for simulate in (simulate_integral_form, simulate_differential_form):
        lifted = simulate(model, control, paths).values
        generic = simulate(_generic(model), control, paths).values
        assert _rel_diff(lifted, generic) <= 1e-12


# --- restarts and the mark-major jump summand ---

@pytest.mark.parametrize("generic", [False, True], ids=["lifted", "generic"])
def test_restart_from_recorded_sums_reproduces_the_base_run(generic):
    model = registry_get("exp_kernel_linear", dict(b0=0.2, sigma0=0.3, jump0=0.15))
    model = _generic(model) if generic else model
    paths = sample_paths(TimeGrid(1.0, 12), _MARKS, 300, seed=8)
    record = []
    base = simulate_integral_form(model, _feedback(), paths, record=record).values
    assert len(record) == paths.n_steps and len(record[0]) == 3
    for i in range(paths.n_steps):
        again = simulate_integral_form(model, _feedback(), paths, restart=(i, base, record[i]))
        assert np.array_equal(again.values, base)


def _mark_last_summand(model, paths, x, u, t, hist):
    """The jump history summand with the marks on the last axis, (j, M, K),
    and the per-path sum of the absolute products it adds up."""
    s, marks = paths.grid.nodes[hist, None], paths.jumps.mark_array
    g = model.jump(t, s[:, :, None], x[hist][:, :, None], u[hist][:, :, None],
                   marks[None, None, :])
    inc = paths.compensated_counts[hist]
    summand = np.einsum("jmk,jmk->m", np.broadcast_to(g, inc.shape), inc)
    return summand, np.abs(g * inc).sum(axis=(0, 2))


@pytest.mark.parametrize("marks,weights", [((0.5,), (1.0,)),
                                           ((0.5, -0.5), (0.5, 0.5)),
                                           ((0.5, -0.5, 0.25), (0.25, 0.25, 0.5))],
                         ids=["K1", "K2", "K3"])
def test_mark_major_jump_summand_matches_mark_last(marks, weights):
    from volterra_control.volterra import _kernel_summands

    jumps = JumpModel(2.0, marks, weights)
    paths = sample_paths(TimeGrid(1.0, 32), jumps, 500, seed=12)
    model = registry_get("exp_kernel_linear", dict(b0=0.2, sigma0=0.3, jump0=0.15))
    x = simulate_integral_form(model, ControlProcess.constant(0.7), paths).values
    u = np.full((paths.n_steps, paths.n_paths), 0.7)
    summands = _kernel_summands([(model.jump, None)], paths.grid.nodes, x, u,
                                np.moveaxis(paths.compensated_counts, 2, 0), jumps.mark_array)
    eps = np.finfo(float).eps
    for i in range(1, paths.n_steps + 1):
        t = paths.grid.nodes[i]
        for hist in (slice(i - 1, i), slice(0, i)):   # lifted, generic
            new = summands(t, hist)
            old, scale = _mark_last_summand(model, paths, x, u, t, hist)
            if len(marks) <= 2:
                # with one or two marks the sums come out bit for bit, on both paths
                assert np.array_equal(new, old)
            else:
                # both add the same n = j K products in some order, so each is
                # within gamma_n sum|g inc| of the exact sum, gamma_n <= n eps
                n = (hist.stop - hist.start) * len(marks)
                assert np.all(np.abs(new - old) <= 2.0 * n * eps * scale)
