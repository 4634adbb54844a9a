import re

import numpy as np
import pytest

from volterra_control import (
    ConfigurationError,
    ControlProcess,
    InfoMode,
    PerformanceSpec,
    RegistrationError,
    TimeGrid,
    UtilitySpec,
    registry_get,
)


def test_registry_unknown_name():
    with pytest.raises(ConfigurationError):
        registry_get("mystery_model")


def test_constant_model_has_zero_time_partials():
    m = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    t, s, x, v = 0.7, 0.3, 1.2, 0.8
    assert m.drift(t, s, x, v) == pytest.approx(0.05 * v * x)
    assert m.drift_dt(t, s, x, v) == 0.0
    assert m.diffusion_dt(t, s, x, v) == 0.0
    assert m.time_invariant_kernels
    assert not m.x_independent


def test_exp_kernel_analytic_time_partial():
    m = registry_get("exp_kernel_linear", dict(b0=0.05, sigma0=0.2, decay_b=1.0))
    t, s, x, v = 0.9, 0.4, 1.1, 0.7
    want = -0.05 * np.exp(-(t - s)) * v * x
    assert m.drift_dt(t, s, x, v) == pytest.approx(want, rel=1e-12)
    # finite difference agreement at a random sample
    h = 1e-6
    fd = (m.drift(t + h, s, x, v) - m.drift(t - h, s, x, v)) / (2 * h)
    assert m.drift_dt(t, s, x, v) == pytest.approx(fd, rel=1e-6)


def test_x_independent_flag():
    m = registry_get("x_independent_linear", dict(b0=0.1, sigma0=0.3))
    assert m.x_independent
    assert m.drift_dx(0.5, 0.2, 1.0, 1.0) == 0.0
    assert m.diffusion_dx(0.5, 0.2, 1.0, 1.0) == 0.0
    # x argument is ignored entirely
    assert m.drift(0.5, 0.2, None, 1.0) == pytest.approx(m.drift(0.5, 0.2, 99.0, 1.0))


def test_self_test_catches_wrong_partial():
    with pytest.raises(RegistrationError, match="drift_dt"):
        registry_get("custom", dict(
            initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
            drift=lambda t, s, x, v: np.exp(-(t - s)) * v,
            diffusion=lambda t, s, x, v: 0.0 * v,
            jump=lambda t, s, x, v, z: 0.0 * z,
            drift_dt=lambda t, s, x, v: +np.exp(-(t - s)) * v,  # sign error
            x_independent=True,
        ))


def test_self_test_catches_false_x_independent_flag():
    with pytest.raises(RegistrationError, match="x-independent"):
        registry_get("custom", dict(
            initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
            drift=lambda t, s, x, v: v * x,
            diffusion=lambda t, s, x, v: 0.0 * v,
            jump=lambda t, s, x, v, z: 0.0 * z,
            drift_dx=lambda t, s, x, v: v + 0.0 * np.asarray(x, dtype=float),
            x_independent=True,
        ))


def test_self_test_catches_false_affine_in_x_flag():
    # x^2 in the jump kernel: jump_dx is 2 x (...), which moves with x
    with pytest.raises(RegistrationError, match="affine in x but jump_dx moves with x"):
        registry_get("custom", dict(
            initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
            drift=lambda t, s, x, v: 0.1 * v * x,
            diffusion=lambda t, s, x, v: 0.3 * v * x,
            jump=lambda t, s, x, v, z: 0.1 * v * np.asarray(x, dtype=float) ** 2 * z,
            affine_in_x=True,
        ))


@pytest.mark.parametrize("name", ["constant", "exp_kernel_linear", "x_independent_linear"])
def test_registry_models_are_affine_in_x(name):
    assert registry_get(name, dict(b0=0.1, sigma0=0.3, jump0=0.1)).affine_in_x


def _decaying_custom(decays, drift_rate=1.0):
    """Custom model whose drift kernel decays at drift_rate, diffusion constant in the lag."""
    return registry_get("custom", dict(
        initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        drift=lambda t, s, x, v: 0.1 * np.exp(-drift_rate * (np.asarray(t) - s)) * v * x,
        diffusion=lambda t, s, x, v: 0.2 * v * x + 0.0 * np.asarray(t),
        jump=lambda t, s, x, v, z: 0.0 * z,
        drift_dt=lambda t, s, x, v: -0.1 * drift_rate * np.exp(
            -drift_rate * (np.asarray(t) - s)) * v * x,
        decays=decays,
    ))


def test_registry_models_declare_their_decays():
    assert registry_get("constant").decays == (0.0, 0.0, 0.0)
    model = registry_get("exp_kernel_linear",
                         dict(decay_b=2.0, decay_sigma=0.5, decay_jump=0.25))
    assert model.decays == (2.0, 0.5, 0.25)
    assert model.decay("diffusion") == 0.5


def test_custom_model_with_correct_decays_accepted():
    m = _decaying_custom((1.0, 0.0, None))
    assert m.decays == (1.0, 0.0, None)
    assert m.decay("drift") == 1.0 and m.decay("jump") is None


def test_custom_model_with_wrong_decay_rejected():
    with pytest.raises(RegistrationError, match="drift"):
        _decaying_custom((2.0, 0.0, None))
    with pytest.raises(RegistrationError, match="diffusion"):
        _decaying_custom((1.0, 0.5, None))


def test_decay_must_follow_the_lag_alone():
    # e^{-(t-s)} (1 + t) is not e^{-(t-s)} k(s, s): the recursion would be wrong
    with pytest.raises(RegistrationError, match="drift"):
        registry_get("custom", dict(
            initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
            drift=lambda t, s, x, v: np.exp(-(np.asarray(t) - s)) * (1.0 + t) * v,
            diffusion=lambda t, s, x, v: 0.0 * v,
            jump=lambda t, s, x, v, z: 0.0 * z,
            x_independent=True,
            decays=(1.0, None, None),
        ))


@pytest.mark.parametrize("kernel,partial", [("diffusion", "dx"), ("drift", "dv")])
def test_partial_decaying_at_another_rate_rejected(kernel, partial):
    # the kernel decays at the declared rate 1 and its declared partial at rate 2;
    # at amplitude 1e-7 the partial passes the finite-difference check, whose
    # tolerance is absolute below 1, but not the relative decay check
    def scaled(rate, factor):
        return lambda t, s, x, v: 1e-7 * np.exp(-rate * (np.asarray(t) - s)) * factor(x, v)

    params = dict(
        initial_curve=lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float),
        drift=lambda t, s, x, v: 0.0 * v, diffusion=lambda t, s, x, v: 0.0 * v,
        jump=lambda t, s, x, v, z: 0.0 * z,
        decays=tuple(1.0 if name == kernel else None for name in ("drift", "diffusion", "jump")))
    params[kernel] = scaled(1.0, lambda x, v: v * x)
    params[f"{kernel}_{partial}"] = scaled(2.0, lambda x, v: v if partial == "dx" else x)
    with pytest.raises(RegistrationError, match=f"{kernel}_{partial} does not decay"):
        registry_get("custom", params)
    params[f"{kernel}_{partial}"] = scaled(1.0, lambda x, v: v if partial == "dx" else x)
    assert registry_get("custom", params).decay(kernel) == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_decay_rejected(bad):
    with pytest.raises(ConfigurationError, match="drift"):
        _decaying_custom((bad, 0.0, None))
    with pytest.raises(ConfigurationError, match="jump"):
        registry_get("exp_kernel_linear", dict(decay_jump=bad))


def test_decays_need_one_entry_per_kernel():
    with pytest.raises(ConfigurationError, match="decays"):
        _decaying_custom((1.0, 0.0))


def test_missing_partials_filled_by_finite_difference():
    m = registry_get("custom", dict(
        initial_curve=lambda t: np.sin(np.asarray(t, dtype=float)),
        drift=lambda t, s, x, v: np.sin(t) * x * v,
        diffusion=lambda t, s, x, v: 0.1 * x + 0.0 * v,
        jump=lambda t, s, x, v, z: 0.0 * z,
    ))
    assert m.drift_dt(0.3, 0.1, 1.0, 1.0) == pytest.approx(np.cos(0.3), rel=1e-4)
    assert m.drift_dx(0.3, 0.1, 1.0, 0.5) == pytest.approx(0.5 * np.sin(0.3), rel=1e-4)
    assert m.drift_dtdx(0.3, 0.1, 1.0, 0.5) == pytest.approx(0.5 * np.cos(0.3), rel=1e-3)
    assert m.initial_slope(0.4) == pytest.approx(np.cos(0.4), rel=1e-6)


def test_performance_spec_validates_terminal_prime():
    PerformanceSpec.terminal_only(lambda x: x ** 2, lambda x: 2.0 * np.asarray(x, dtype=float),
                                  domain=(-2, 2))
    with pytest.raises(RegistrationError):
        PerformanceSpec.terminal_only(lambda x: x ** 2, lambda x: 3.0 * np.asarray(x, dtype=float),
                                      domain=(-2, 2))


@pytest.mark.parametrize("name", ["running_dx", "running_dv"])
def test_performance_spec_validates_declared_running_partials(name):
    # f = 0.3 x v - v^2 / 2 with its partials accepted, then one of them with a sign error
    running = lambda t, x, v: 0.3 * x * v - 0.5 * v ** 2  # noqa: E731
    right = {"running_dx": lambda t, x, v: 0.3 * v, "running_dv": lambda t, x, v: 0.3 * x - v}
    wrong = {"running_dx": lambda t, x, v: -0.3 * v, "running_dv": lambda t, x, v: v - 0.3 * x}
    PerformanceSpec(running=running, **right)
    with pytest.raises(RegistrationError,
                       match=f"^{name} disagrees with finite difference of running$"):
        PerformanceSpec(running=running, **{**right, name: wrong[name]})


def test_log_utility_inverse_is_reciprocal():
    u = UtilitySpec.log()
    ys = np.geomspace(0.01, 100.0, 13)
    assert np.allclose(u.u_prime_inverse(ys), 1.0 / ys, rtol=0.0, atol=0.0)


def test_power_utility_round_trip():
    u = UtilitySpec.power(0.5)
    xs = np.geomspace(1e-2, 1e2, 17)
    assert np.allclose(u.u_prime_inverse(u.u_prime(xs)), xs, rtol=1e-12)
    with pytest.raises(ConfigurationError):
        UtilitySpec.power(1.5)
    with pytest.raises(ConfigurationError):
        UtilitySpec.power(0.0)


def test_utility_rejects_non_concave():
    with pytest.raises(RegistrationError):
        UtilitySpec(name="bad", u=lambda x: x ** 2,
                    u_prime=lambda x: 2.0 * np.asarray(x, dtype=float),
                    u_prime_inverse=lambda y: np.asarray(y, dtype=float) / 2.0,
                    exponent=2.0)


def test_utility_rejects_a_marginal_that_is_no_power_law():
    # u'(x) = exp(-sqrt(x)) is positive, decreasing and inverts exactly, but
    # (u')^{-1}(c y) is no power of c times (u')^{-1}(y), so the calibration's
    # closed-form root would not hold
    with pytest.raises(RegistrationError, match="power law"):
        UtilitySpec(name="stretched_exp",
                    u=lambda x: -2.0 * (np.sqrt(x) + 1.0) * np.exp(-np.sqrt(x)),
                    u_prime=lambda x: np.exp(-np.sqrt(np.asarray(x, dtype=float))),
                    u_prime_inverse=lambda y: np.log(np.asarray(y, dtype=float)) ** 2,
                    exponent=0.0)


def test_control_bounds_enforced():
    with pytest.raises(ConfigurationError):
        ControlProcess.constant(5.0, bounds=(-1.0, 1.0))
    c = ControlProcess.deterministic(np.linspace(0.0, 0.9, 8), bounds=(0.0, 1.0))
    assert c.at(3) == pytest.approx(np.linspace(0.0, 0.9, 8)[3])
    grid_vals = c.open_loop_grid(8, 5)
    assert grid_vals.shape == (8, 5)
    with pytest.raises(ConfigurationError):
        c.open_loop_grid(9, 5)


def test_control_perturbation_and_shift():
    c = ControlProcess.constant(1.0, bounds=(-10, 10))
    beta = np.zeros(4)
    beta[1:3] = 1.0
    p = c.perturbed(beta, 0.5)
    assert np.allclose(p.open_loop_grid(4, 2)[:, 0], [1.0, 1.5, 1.5, 1.0])
    s = c.shifted(-0.25)
    assert s.at(0) == pytest.approx(0.75)


@pytest.mark.parametrize("n_paths", [3, 4], ids=["paths-ne-steps", "paths-eq-steps"])
def test_window_perturbs_a_per_path_control_along_its_nodes(n_paths):
    # a (steps,) window moves node i on every path; with as many paths as
    # steps, aligning it on the path axis would move path i at every node
    vals = np.random.default_rng(5).uniform(0.2, 0.8, (4, n_paths))
    beta = np.array([0.0, 1.0, 1.0, 0.0])
    p = ControlProcess.per_path(vals).perturbed(beta, 0.5)
    assert p.values.ndim == 2
    assert np.array_equal(p.open_loop_grid(4, n_paths), vals + 0.5 * beta[:, None])


def test_constant_and_deterministic_perturbations_keep_their_alignment():
    beta = np.array([0.0, 1.0, 1.0, 0.0])
    beta_paths = np.random.default_rng(6).normal(size=(4, 3))
    grid = np.array([0.1, 0.2, 0.3, 0.4])
    cases = [(ControlProcess.constant(1.0), beta, 1, 1.0 + 0.5 * beta),
             (ControlProcess.constant(1.0), beta_paths, 2, 1.0 + 0.5 * beta_paths),
             (ControlProcess.deterministic(grid), beta, 1, grid + 0.5 * beta),
             (ControlProcess.deterministic(grid), beta_paths, 2,
              grid[:, None] + 0.5 * beta_paths)]
    for control, direction, ndim, want in cases:
        p = control.perturbed(direction, 0.5)
        assert p.values.ndim == ndim
        assert np.array_equal(p.values, want)


def test_per_path_control_validation():
    vals = np.full((4, 3), 0.5)
    c = ControlProcess.per_path(vals, bounds=(0.0, 1.0))
    assert np.allclose(c.at(2), 0.5)
    with pytest.raises(ConfigurationError):
        ControlProcess.per_path(np.full((4, 3), 2.0), bounds=(0.0, 1.0))
    with pytest.raises(ConfigurationError, match=r"per-path control needs a \(steps, paths\)"):
        ControlProcess.per_path(np.full(4, 0.5))
    with pytest.raises(ConfigurationError, match=r"deterministic control needs a \(steps,\)"):
        ControlProcess.deterministic(vals)


@pytest.mark.parametrize("make", [
    lambda: ControlProcess.constant(np.nan),
    lambda: ControlProcess.deterministic([0.5, np.nan, 0.5]),
    lambda: ControlProcess.per_path(np.where(np.eye(3) == 1.0, np.nan, 0.5)),
    lambda: ControlProcess.feedback(lambda i, t, paths, x: np.where(x > 0.2, np.nan, x)).at(
        0, x=np.array([0.1, 0.3])),
], ids=["constant", "deterministic", "per-path", "feedback"])
def test_non_finite_control_values_are_refused(make):
    # a NaN passes both bound comparisons; it is refused where the value is made,
    # not later as a non-finite state
    with pytest.raises(ConfigurationError, match="not finite"):
        make()


class _KindOracle:
    """The control as four kinds (constant, deterministic, per_path, feedback),
    each read its own way: the semantics the one control array keeps."""

    def __init__(self, kind, values):
        self.kind, self.values = kind, values

    def at(self, i, x=None):
        if self.kind == "feedback":
            return np.asarray(self.values(i, None, None, x), dtype=float)
        return self.values if self.kind == "constant" else self.values[i]

    def open_loop_grid(self, n_steps, n_paths):
        if self.kind == "constant":
            return np.broadcast_to(self.values, (n_steps, n_paths))
        if self.kind == "deterministic":
            return np.broadcast_to(self.values[:, None], (n_steps, n_paths))
        return self.values

    def perturbed(self, beta, lam):
        if self.kind == "constant":
            return _KindOracle("deterministic" if beta.ndim == 1 else "per_path",
                               self.values + lam * beta)
        vals = self.values[:, None] if self.values.ndim == 1 and beta.ndim == 2 else self.values
        beta = beta[:, None] if vals.ndim == 2 and beta.ndim == 1 else beta
        out = vals + lam * beta
        return _KindOracle("per_path" if out.ndim == 2 else "deterministic", out)

    def shifted(self, delta):
        if self.kind == "feedback":
            rule = self.values
            return _KindOracle("feedback",
                               lambda i, t, paths, x: np.asarray(rule(i, t, paths, x)) + delta)
        return _KindOracle(self.kind, np.asarray(self.values) + delta)


@pytest.mark.parametrize("n_paths", [3, 4], ids=["paths-ne-steps", "paths-eq-steps"])
@pytest.mark.parametrize("kind", ["constant", "deterministic", "per_path", "feedback"])
def test_control_array_reads_as_the_four_kinds_did(kind, n_paths):
    n = 4
    rng = np.random.default_rng(17)
    raw = {"constant": 0.5,
           "deterministic": rng.uniform(0.2, 0.8, n),
           "per_path": rng.uniform(0.2, 0.8, (n, n_paths)),
           "feedback": lambda i, t, paths, x: 0.5 + 0.1 * np.tanh(x) + 0.01 * i}[kind]
    control = getattr(ControlProcess, kind)(raw)
    oracle = _KindOracle(kind, raw if kind == "feedback" else np.asarray(raw, dtype=float))
    x = rng.normal(size=(n, n_paths))
    for got, want in ((control, oracle), (control.shifted(-0.25), oracle.shifted(-0.25))):
        for i in range(n):
            assert np.array_equal(got.at(i, x=x[i]), want.at(i, x=x[i]))
    if kind == "feedback":
        with pytest.raises(ConfigurationError):
            control.open_loop_grid(n, n_paths)
        with pytest.raises(ConfigurationError):
            control.perturbed(np.ones(n), 0.5)
        return
    grid, want = control.open_loop_grid(n, n_paths), oracle.open_loop_grid(n, n_paths)
    assert np.array_equal(grid, want) and grid.flags.writeable == want.flags.writeable
    shifted = control.shifted(-0.25).open_loop_grid(n, n_paths)
    assert np.array_equal(shifted, oracle.shifted(-0.25).open_loop_grid(n, n_paths))
    for beta in (np.array([0.0, 1.0, 1.0, 0.0]), rng.normal(size=(n, n_paths))):
        got, want = control.perturbed(beta, 0.5), oracle.perturbed(beta, 0.5)
        assert np.array_equal(got.open_loop_grid(n, n_paths), want.open_loop_grid(n, n_paths))
        for i in range(n):
            assert np.array_equal(got.at(i), want.at(i))


@pytest.mark.parametrize("control", [
    pytest.param(ControlProcess.deterministic(np.full(5, 0.5)), id="deterministic-too-long"),
    pytest.param(ControlProcess.per_path(np.full((4, 2), 0.5)), id="per-path-too-few-paths"),
    pytest.param(ControlProcess.per_path(np.full((3, 4), 0.5)), id="per-path-transposed"),
    pytest.param(ControlProcess.deterministic([0.5]), id="one-value"),
    pytest.param(ControlProcess.per_path(np.full((1, 3), 0.5)), id="one-node-row"),
    pytest.param(ControlProcess.per_path(np.full((4, 1), 0.5)), id="one-path-column"),
])
def test_open_loop_grid_refuses_values_that_do_not_fit(control):
    # only (), (steps,) and (steps, paths) fit: no other shape is broadcast
    with pytest.raises(ConfigurationError):
        control.open_loop_grid(4, 3)


def test_feedback_value_outside_the_bounds_raises():
    control = ControlProcess.feedback(lambda i, t, paths, x: 2.0 * x, bounds=(0.0, 1.0))
    assert np.array_equal(control.at(0, x=np.array([0.1, 0.4])), [0.2, 0.8])
    with pytest.raises(ConfigurationError):
        control.at(1, x=np.array([0.1, 0.6]))
    with pytest.raises(ConfigurationError):
        control.shifted(0.5).at(0, x=np.array([0.1, 0.4]))


def test_the_information_lag_never_reads_past_the_delay():
    # G_{t_i} = F_{t_i - delay}: the latest node at or before t_i - delay, so a
    # delay between two nodes rounds up to the next whole lag
    g = TimeGrid(1.0, 10)
    assert InfoMode.delayed(0.03).observable_node(5, g) == 4
    assert InfoMode.delayed(0.13).observable_node(5, g) == 3
    assert InfoMode.delayed(0.14).lag_steps(TimeGrid(1.0, 50)) == 7   # ratio 7.000000000000001
    for grid in (g, TimeGrid(1.0, 64), TimeGrid(2.0, 48)):
        t = grid.nodes
        for delay in np.linspace(0.0, grid.horizon, 41):
            for i in range(grid.steps + 1):
                j = InfoMode.delayed(delay).observable_node(i, grid)
                assert j == 0 or t[j] <= t[i] - delay + 1e-12
                assert j == i or t[j + 1] > t[i] - delay - 1e-12
        for k in range(grid.steps + 1):
            assert InfoMode.delayed(k * grid.dt).lag_steps(grid) == k


def test_info_mode_lags():
    g = TimeGrid(1.0, 10)
    assert InfoMode.full().lag_steps(g) == 0
    delayed = InfoMode.delayed(0.2)
    assert delayed.lag_steps(g) == 2
    assert delayed.observable_node(5, g) == 3
    assert delayed.observable_node(1, g) == 0
    with pytest.raises(ConfigurationError):
        InfoMode.delayed(2.0).lag_steps(g)
    with pytest.raises(ConfigurationError):
        InfoMode.delayed(-0.1)


@pytest.mark.parametrize("bounds", [(1.0, 1.0), (2.0, -1.0)])
def test_control_refuses_an_empty_admissible_interval(bounds):
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"empty admissible interval {bounds}")):
        ControlProcess(0.5, bounds=bounds)


def test_utility_refuses_a_non_positive_marginal():
    with pytest.raises(RegistrationError, match="utility 'flat': marginal must be positive"):
        UtilitySpec(name="flat", u=lambda x: 0.0 * np.asarray(x),
                    u_prime=lambda x: 0.0 * np.asarray(x), u_prime_inverse=lambda y: y,
                    exponent=0.0)


def test_utility_refuses_an_inverse_marginal_that_does_not_invert():
    # (u')^{-1}(y) = 2 / y maps u'(x) = 1 / x back to 2 x
    with pytest.raises(RegistrationError,
                       match="utility 'twice': inverse marginal round-trip failed"):
        UtilitySpec(name="twice", u=np.log, u_prime=lambda x: 1.0 / np.asarray(x),
                    u_prime_inverse=lambda y: 2.0 / np.asarray(y), exponent=0.0)
