import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import (
    ControlProcess,
    JumpModel,
    PathBundle,
    PerformanceSpec,
    SimulationError,
    TimeGrid,
    evaluate_performance,
    registry_get,
    sample_paths,
    simulate_differential_form,
    simulate_integral_form,
)
from volterra_control import volterra
from volterra_control.cli import ExperimentConfig, main
from volterra_control.volterra import (
    monte_carlo_estimate,
    noise_sums,
    performance_paths,
    simulate_summary,
    trajectory_statistics,
)

from oracles import compensated_counts


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
    target = np.exp(0.05)
    _, se = monte_carlo_estimate(st.terminal)
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
        st)
    assert est == pytest.approx(2.0, abs=1e-12) and se == pytest.approx(0.0, abs=1e-12)
    est, se = evaluate_performance(
        PerformanceSpec(running=lambda t, x, v: 1.0 + 0.0 * np.asarray(v, dtype=float)),
        st)
    assert est == pytest.approx(1.0, abs=1e-12)  # Riemann sum of 1 over [0, T]
    assert se == pytest.approx(0.0, abs=1e-12)


def test_monte_carlo_estimate_is_the_mean_and_its_standard_error():
    # sample variance of 1..4 is 5/3, so the standard error is sqrt(5/12)
    est, se = monte_carlo_estimate(np.array([1.0, 2.0, 3.0, 4.0]))
    assert est == 2.5 and se == pytest.approx(math.sqrt(5.0 / 12.0), rel=1e-15)
    # one path has no spread to estimate: the standard error is 0, not NaN
    assert monte_carlo_estimate(np.array([3.0])) == (3.0, 0.0)


def test_log_gbm_performance_oracle(paths64_desk):
    # E[ln X(T)] = (b - sigma^2/2) T for unit investment fraction
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    ctrl = ControlProcess.constant(1.0)
    st = simulate_integral_form(model, ctrl, paths64_desk)
    est, se = evaluate_performance(PerformanceSpec.log_terminal(), st)
    assert abs(est - 0.03) <= 3.0 * se + 5e-4


def test_stderr_scales_with_path_count(grid64):
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    ctrl = ControlProcess.constant(1.0)
    spec = PerformanceSpec.log_terminal()
    ses = []
    for m in (1_000, 10_000, 100_000):
        paths = sample_paths(grid64, JumpModel.none(), m, seed=2)
        st = simulate_integral_form(model, ctrl, paths)
        ses.append(evaluate_performance(spec, st)[1])
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


def test_feedback_control_enters_simulation(paths64_small):
    model = registry_get("constant", dict(b0=0.0, sigma0=0.1))
    rule = ControlProcess.feedback(lambda i, t, paths, x: np.minimum(np.abs(x), 2.0),
                                   bounds=(0.0, 2.0))
    st = simulate_integral_form(model, rule, paths64_small)
    assert np.all(np.isfinite(st.values))


def test_trajectory_csv(tmp_path):
    # the simulate stage's trajectory.csv is trajectory_statistics of the run's
    # states, one row per node; .17g round-trips a float, so it reads back exactly
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "model": {"name": "constant", "params": {"b0": 0.05, "sigma0": 0.2}},
        "monte_carlo": {"paths": 2000, "seed": 5},
    }))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    out = tmp_path / "run" / "trajectory.csv"
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean_X,std_X,q05,q95"
    assert len(lines) == 66
    cfg = ExperimentConfig.load(str(config))
    states = simulate_integral_form(cfg.model(), cfg.control(), cfg.sample())
    want = np.array(trajectory_statistics(cfg.grid.nodes, states.values))
    assert np.array_equal(np.loadtxt(out, delimiter=",", skiprows=1), want)


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


@pytest.mark.parametrize("kind", ["constant", "deterministic", "per_path", "feedback"])
@pytest.mark.parametrize("simulator", ["integral", "differential", "wealth"])
def test_a_run_carries_the_control_grid_it_read(simulator, kind):
    # open-loop values are read in place, with no (N, M) copy; a rule's grid
    # holds the values the rule gave at the run's states
    from volterra_control.portfolio import MarketModel, simulate_wealth_positive

    paths = sample_paths(TimeGrid(1.0, 8), JumpModel.none(), 50, seed=3)
    n, m = paths.n_steps, paths.n_paths
    control = {
        "constant": lambda: ControlProcess.constant(0.7),
        "deterministic": lambda: ControlProcess.deterministic(np.linspace(0.4, 0.9, n)),
        "per_path": lambda: ControlProcess.per_path(
            np.random.default_rng(1).uniform(0.4, 0.9, (n, m))),
        "feedback": _feedback,
    }[kind]()
    model = registry_get("exp_kernel_linear", dict(b0=0.2, sigma0=0.3))
    simulate = {
        "integral": lambda: simulate_integral_form(model, control, paths),
        "differential": lambda: simulate_differential_form(model, control, paths),
        "wealth": lambda: simulate_wealth_positive(MarketModel.constant(0.05, 0.2),
                                                   control, paths),
    }[simulator]
    states = simulate()
    assert states.controls.shape == (n, m)
    if control.rule is None:
        assert np.shares_memory(states.controls, control.values)
        assert np.array_equal(states.controls, control.open_loop_grid(n, m))
    else:
        assert np.array_equal(states.controls,
                              [control.at(i, paths, x=states.values[i]) for i in range(n)])


# --- perturbed views and the mark-major jump summand ---

@pytest.mark.parametrize("generic", [False, True], ids=["lifted", "generic"])
def test_a_run_on_a_brownian_view_reads_its_rows_alone(generic):
    # the noise is read a node at a time, so a run on a shifted view never copies
    # the view's dW, and equals the run on a bundle holding the shifted dW
    model = registry_get("exp_kernel_linear", dict(b0=0.2, sigma0=0.3, jump0=0.15))
    model = _generic(model) if generic else model
    paths = sample_paths(TimeGrid(1.0, 12), _MARKS, 300, seed=8)
    view = paths.perturb_brownian(5, 1e-3)
    got = simulate_integral_form(model, ControlProcess.constant(0.7), view).values
    assert "dW" not in vars(view)
    dW = paths.dW.copy()
    dW[5] += 1e-3
    shifted = PathBundle(paths.grid, paths.jumps, dW, paths.events, seed=paths.seed)
    assert np.array_equal(got, simulate_integral_form(model, ControlProcess.constant(0.7),
                                                      shifted).values)


def _mark_last_summand(model, paths, x, u, t, hist):
    """The jump history summand with the marks on the last axis, (j, M, K),
    and the per-path sum of the absolute products it adds up."""
    s, marks = paths.grid.nodes[hist, None], paths.jumps.mark_array
    g = model.jump(t, s[:, :, None], x[hist][:, :, None], u[hist][:, :, None],
                   marks[None, None, :])
    inc = compensated_counts(paths)[hist]
    summand = np.einsum("jmk,jmk->m", np.broadcast_to(g, inc.shape), inc)
    return summand, np.abs(g * inc).sum(axis=(0, 2))


@pytest.mark.parametrize("marks,weights", [((0.5,), (1.0,)),
                                           ((0.5, -0.5), (0.5, 0.5)),
                                           ((0.5, -0.5, 0.25), (0.25, 0.25, 0.5))],
                         ids=["K1", "K2", "K3"])
def test_mark_major_jump_summand_matches_mark_last(marks, weights):
    jumps = JumpModel(2.0, marks, weights)
    paths = sample_paths(TimeGrid(1.0, 32), jumps, 500, seed=12)
    model = registry_get("exp_kernel_linear", dict(b0=0.2, sigma0=0.3, jump0=0.15))
    x = simulate_integral_form(model, ControlProcess.constant(0.7), paths).values
    u = np.full((paths.n_steps, paths.n_paths), 0.7)
    summands = noise_sums(model, paths, x, u)["jump"]
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


# --- jump increments by row ---

_MEMORY_JUMP_PARAMS = dict(b0=0.1, sigma0=0.3, jump0=0.1, x0=1.0, decay_b=1.0,
                           decay_sigma=0.8, decay_jump=0.5)


@pytest.mark.parametrize("reader", ["integral_form", "differential_form", "jump_sum",
                                    "solve_general"])
def test_row_readers_build_no_whole_jump_array(reader, no_dense_counts):
    # with declared decays every step reads one node's jump increments, so none of
    # these readers forms an (N, M, K) array of the jump counts
    from volterra_control.adjoint import simulated_state_feature, solve_general

    model = registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS)
    control = ControlProcess.constant(0.5)
    paths = sample_paths(TimeGrid(1.0, 16), JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)), 2_000,
                         seed=11)
    if reader == "integral_form":
        simulate_integral_form(model, control, paths)
    elif reader == "differential_form":
        simulate_differential_form(model, control, paths)
    elif reader == "jump_sum":
        paths.jump_sum
    else:
        states = simulate_integral_form(model, control, paths)
        solve_general(model, PerformanceSpec.log_terminal(), states,
                      features=[simulated_state_feature(model, states)])


# --- the streamed run of the simulate stage ---

_STREAM_SPEC = PerformanceSpec(running=lambda t, x, v: -0.5 * v ** 2 + 0.3 * x * v,
                               terminal=lambda x: np.log(np.abs(x) + 1.0))


def _custom_model():
    """x-dependent kernels that declare no decay, so every history sum reads the
    whole history."""
    return registry_get("custom", dict(
        initial_curve=lambda t: 1.0 + 0.0 * t,
        drift=lambda t, s, x, v: 0.1 * v * x / (1.0 + t - s),
        diffusion=lambda t, s, x, v: 0.3 * v * x / (1.0 + (t - s) ** 2),
        jump=lambda t, s, x, v, z: 0.1 * v * x * z / (1.0 + t - s),
    ))


@pytest.mark.parametrize("model,control", [
    pytest.param(registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS),
                 ControlProcess.constant(0.5), id="exp_kernel_linear"),
    pytest.param(_custom_model(), ControlProcess.constant(0.5), id="custom"),
    pytest.param(registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS), _feedback(),
                 id="feedback"),
])
def test_streamed_summary_equals_the_in_memory_run_bit_for_bit(model, control):
    # 300 rows of 1000 paths make three statistics blocks, the last one partial
    paths = sample_paths(TimeGrid(1.0, 299), _MARKS, 1000, seed=21)
    states = simulate_integral_form(model, control, paths)
    statistics, total = simulate_summary(model, control, _STREAM_SPEC, paths)
    assert statistics == trajectory_statistics(paths.grid.nodes, states.values)
    rows = zip(states.values, [*states.controls, None])
    assert np.array_equal(total, performance_paths(_STREAM_SPEC, paths, rows))


def _statistics_oracle(nodes, rows):
    # the summary by np.quantile, mean and std(ddof=1), over all rows at once
    std = rows.std(axis=1, ddof=1) if rows.shape[1] > 1 else np.zeros(len(rows))
    return np.column_stack([nodes, rows.mean(axis=1), std,
                            *np.quantile(rows, [0.05, 0.95], axis=1)])


def _statistics_cases():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 20, 21, 301):
        nan = rng.standard_normal((9, n))
        nan[4, n // 2] = np.nan
        for kind, rows in (
                ("random", rng.standard_normal((9, n))),
                ("ties", rng.integers(-2, 3, (9, n)).astype(float)),
                ("constant", np.repeat(rng.standard_normal((9, 1)), n, axis=1)),
                ("inf", rng.choice([-np.inf, -1.0, 0.5, 2.0, np.inf], (9, n))),
                ("nan", nan),
                ("signed-zeros", rng.choice([-1.0, -0.0, 0.0, 1.0], (9, n)))):
            yield pytest.param(kind, rows, id=f"{kind}-{n}")


@pytest.mark.parametrize("kind,rows", _statistics_cases())
def test_sorted_quantiles_are_those_of_np_quantile(monkeypatch, kind, rows):
    # 9 rows in blocks of 1, 7 and _STATS_BLOCK values: one row per block, several
    # rows per block with a partial last block, and all 9 rows in one block
    nodes = np.linspace(0.0, 1.0, len(rows))
    with np.errstate(invalid="ignore", divide="ignore"):
        want = _statistics_oracle(nodes, rows.copy())
        runs = []
        for block in (1, 7, volterra._STATS_BLOCK):
            monkeypatch.setattr(volterra, "_STATS_BLOCK", block)
            runs.append(np.array(trajectory_statistics(nodes, iter(rows.copy()))))
    for got in runs:
        assert np.array_equal(got.view(np.int64), runs[0].view(np.int64))
    if kind == "signed-zeros":
        # where -0.0 and 0.0 tie at an interpolated position, which comes first depends
        # on how the rows were ordered (np.quantile partitions, the summary sorts), so
        # the sign of a zero quantile may differ from np.quantile's: compared by value
        assert np.all(runs[0] == want)
    else:
        assert np.array_equal(runs[0].view(np.int64), want.view(np.int64))
    nan_rows = np.isnan(rows).any(axis=1)
    assert np.all(np.isnan(runs[0][nan_rows, 3:]))


def test_the_simulate_stage_holds_no_state_array():
    # with declared decays the stream holds one row of X; a whole (N, M) draw or an
    # (N+1, M) state beside dW and the jump events would exceed the bound
    n, m = 256, 4_000
    model = registry_get("exp_kernel_linear", _MEMORY_JUMP_PARAMS)
    tracemalloc.start()
    try:
        paths = sample_paths(TimeGrid(1.0, n), JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5)), m,
                             seed=5)
        simulate_summary(model, ControlProcess.constant(0.5), PerformanceSpec.log_terminal(),
                         paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    events = paths.events
    above = peak - paths.dW.nbytes - sum(a.nbytes for a in (events.node_ptr, events.path,
                                                             events.mark))
    assert above < (n + 1) * m * 8, f"{above / 1e6:.2f} MB above the noise"


@pytest.mark.parametrize("reward", [np.inf, np.nan])
def test_a_non_finite_reward_is_refused_naming_its_path(reward):
    paths = sample_paths(TimeGrid(1.0, 4), JumpModel.none(), 20, seed=3)
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    states = simulate_integral_form(model, ControlProcess.constant(0.5), paths)
    spec = PerformanceSpec.terminal_only(
        lambda x: np.where(np.arange(np.size(x)) == 7, reward, np.asarray(x, dtype=float)))
    with pytest.raises(SimulationError, match="non-finite on path 7"):
        evaluate_performance(spec, states)
