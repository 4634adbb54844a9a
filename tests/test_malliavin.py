import math

import numpy as np
import pytest

from volterra_control import (
    ConfigurationError,
    JumpModel,
    RegressionBasis,
    TimeGrid,
    check_chaos_derivative,
    check_duality_brownian,
    check_duality_jump,
    clark_ocone_reconstruct,
    conditional_expectation,
    d_brownian,
    d_jump,
    iterated_integral,
    sample_paths,
)
from volterra_control.errors import RegressionError
from volterra_control.grids import compensated_jump_integral
from volterra_control.malliavin import (
    NodeRegression,
    _monomial_exponents,
    brownian_feature,
    default_features,
    fubini_exchange,
    jump_sum_feature,
    state_feature,
    weighted_brownian_feature,
)
from volterra_control.models import InfoMode


# --- Brownian derivative -----------------------------------------------------

def test_linear_functional_derivative_is_the_weight(paths64_small):
    t = paths64_small.grid.nodes[:-1]
    f = 1.0 + np.sin(t)
    functional = lambda p: np.einsum("i,im->m", f, p.dW)  # noqa: E731
    for i in (0, 13, 63):
        d = d_brownian(functional, paths64_small, i)
        assert np.allclose(d, f[i], rtol=0, atol=1e-9)


def test_quadratic_terminal_derivative_exact(paths64_small):
    functional = lambda p: p.brownian[-1] ** 2  # noqa: E731
    d = d_brownian(functional, paths64_small, 17)
    assert np.allclose(d, 2.0 * paths64_small.brownian[-1], atol=1e-9)


def test_adapted_functional_has_zero_later_derivative(paths64_small):
    functional = lambda p: p.brownian[9] ** 3  # noqa: E731
    assert np.all(d_brownian(functional, paths64_small, 9) == 0.0)
    assert np.all(d_brownian(functional, paths64_small, 40) == 0.0)
    # node 8 enters B(t_9): derivative is non-trivial there
    assert np.abs(d_brownian(functional, paths64_small, 8)).max() > 0.0


def test_brownian_derivative_linearity(paths64_small):
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=2)
    f = lambda p: p.brownian[-1] ** 2  # noqa: E731
    g = lambda p: np.sin(p.brownian[30])  # noqa: E731
    combo = lambda p: a * f(p) + b * g(p)  # noqa: E731
    for i in (5, 29):
        lhs = d_brownian(combo, paths64_small, i)
        rhs = a * d_brownian(f, paths64_small, i) + b * d_brownian(g, paths64_small, i)
        assert np.allclose(lhs, rhs, atol=1e-7)


# --- jump derivative ----------------------------------------------------------

def test_jump_derivative_of_jump_integral(jump_paths64_small):
    func = lambda t, z: np.sin(3.0 * t) + z  # noqa: E731
    functional = lambda p: compensated_jump_integral(p, func)  # noqa: E731
    t = jump_paths64_small.grid.nodes
    for i, k in ((4, 0), (50, 1)):
        d = d_jump(functional, jump_paths64_small, i, k)
        want = func(t[i], jump_paths64_small.jumps.marks[k])
        assert np.allclose(d, want, atol=1e-12)


def test_jump_derivative_of_adapted_functional_vanishes(jump_paths64_small):
    functional = lambda p: p.jump_sum[20] ** 2  # noqa: E731
    assert np.all(d_jump(functional, jump_paths64_small, 20, 0) == 0.0)
    assert np.all(d_jump(functional, jump_paths64_small, 33, 1) == 0.0)


def test_jump_chain_rule_identity(jump_paths64_small):
    base = lambda p: p.jump_sum[-1]  # noqa: E731
    squared = lambda p: base(p) ** 2  # noqa: E731
    i, k = 11, 0
    df = d_jump(base, jump_paths64_small, i, k)
    dphi = d_jump(squared, jump_paths64_small, i, k)
    f0 = base(jump_paths64_small)
    assert np.allclose(dphi, (f0 + df) ** 2 - f0 ** 2, atol=1e-10)


# --- conditional expectations --------------------------------------------------

def test_conditional_expectation_of_constant(paths64_small):
    vals = np.full(paths64_small.n_paths, 3.25)
    fitted = conditional_expectation(vals, 20, paths64_small)
    assert np.allclose(fitted, 3.25, atol=1e-10)


def test_conditional_expectation_martingale(paths64_desk):
    target = paths64_desk.brownian[-1]
    fitted = conditional_expectation(target, 32, paths64_desk)
    want = paths64_desk.brownian[32]
    err = np.sqrt(np.mean((fitted - want) ** 2)) / np.sqrt(np.mean(want ** 2))
    assert err <= 0.02


def test_conditional_expectation_reproduces_measurable_target(paths64_desk):
    target = paths64_desk.brownian[24] ** 2
    fitted = conditional_expectation(target, 24, paths64_desk)
    err = np.sqrt(np.mean((fitted - target) ** 2)) / np.sqrt(np.mean(target ** 2))
    assert err <= 0.01


def test_conditional_expectation_delayed_uses_lagged_features(paths64_desk):
    info = InfoMode.delayed(0.25)  # 16 nodes of lag
    target = paths64_desk.brownian[-1]
    fitted = conditional_expectation(target, 40, paths64_desk, info=info)
    want = paths64_desk.brownian[24]
    err = np.sqrt(np.mean((fitted - want) ** 2)) / np.sqrt(np.mean(want ** 2))
    assert err <= 0.02


def test_node_zero_collapses_to_mean(paths64_small):
    target = paths64_small.brownian[-1] ** 2
    fitted = conditional_expectation(target, 0, paths64_small)
    assert np.allclose(fitted, target.mean(), atol=1e-8)


def test_regression_needs_enough_paths(grid32):
    paths = sample_paths(grid32, JumpModel.none(), 30, seed=1)
    with pytest.raises(RegressionError, match="paths"):
        NodeRegression(default_features(paths), 5, RegressionBasis(degree=3))


def _reference_columns(raw, degree, keep=None):
    """Column-by-column monomial expansion, the oracle for `NodeRegression`.

    Without `keep`, non-intercept columns with zero spread are dropped.
    """
    cols, kept = [], []
    for idx, expo in enumerate(_monomial_exponents(raw.shape[1], degree)):
        if keep is not None and idx not in keep:
            continue
        col = np.ones(raw.shape[0])
        for r, p in enumerate(expo):
            if p:
                col = col * raw[:, r] ** p
        if keep is None and idx > 0 and np.std(col) <= 1e-300:
            continue
        cols.append(col)
        kept.append(idx)
    return np.column_stack(cols), kept


def _reference_build(features, node, basis):
    raw = np.column_stack([f.values[node] for f in features])
    phi, keep = _reference_columns(raw, basis.degree)
    mean, scale = phi.mean(axis=0), phi.std(axis=0)
    mean[0], scale[0] = 0.0, 1.0
    scale[scale < 1e-300] = 1.0
    phi = (phi - mean) / scale
    gram = phi.T @ phi / raw.shape[0]
    gram[np.diag_indices_from(gram)] += basis.ridge
    return keep, mean, scale, phi, np.linalg.cholesky(gram)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("n_features", [1, 2, 3])
def test_regression_build_is_bit_identical_to_column_build(jump_paths64_small, degree,
                                                           n_features):
    p = jump_paths64_small
    # the constant third feature exercises the dropped-column branch
    feats = [brownian_feature(p), jump_sum_feature(p),
             state_feature(np.full((p.n_steps + 1, p.n_paths), 0.3), name="flat")]
    basis = RegressionBasis(degree=degree)
    for node in (0, 1, 40):
        reg = NodeRegression(feats[:n_features], node, basis, retain_design=True)
        keep, mean, scale, phi, chol = _reference_build(feats[:n_features], node, basis)
        assert reg.keep == keep
        for got, want in ((reg.col_mean, mean), (reg.col_scale, scale),
                          (reg.design(), phi), (reg._chol, chol)):
            assert np.array_equal(got, want)
        shifted = reg.raw_values() + 0.25
        cols, _ = _reference_columns(shifted, degree, keep)
        assert np.array_equal(reg.design(shifted), (cols - mean) / scale)


def test_surrogate_gradient_matches_finite_difference(paths64_small):
    feats = [brownian_feature(paths64_small),
             weighted_brownian_feature(np.linspace(0.5, 1.5, 64), paths64_small)]
    reg = NodeRegression(feats, 40, RegressionBasis(degree=3))
    target = paths64_small.brownian[-1] ** 2
    coef = reg.coefficients(target)
    raw = reg.raw_values()
    grad = reg.gradient_raw(coef, raw)
    h = 1e-5
    for col in range(raw.shape[1]):
        up, dn = raw.copy(), raw.copy()
        up[:, col] += h
        dn[:, col] -= h
        fd = (reg.predict(up, coef) - reg.predict(dn, coef)) / (2 * h)
        assert np.allclose(grad[:, col], fd, atol=1e-5)


# --- duality ------------------------------------------------------------------

def test_duality_brownian_odd_moments(paths64_small):
    rep = check_duality_brownian(lambda p: p.brownian[-1] ** 2, np.ones(64), paths64_small)
    assert rep.within()
    assert abs(rep.lhs) <= 3.0 * rep.stderr_lhs
    assert abs(rep.rhs) <= 3.0 * rep.stderr_rhs


def test_duality_brownian_linear_exact(paths64_small):
    t = paths64_small.grid.nodes[:-1]
    f = np.cos(t)
    u = 1.0 + 0.5 * t
    functional = lambda p: np.einsum("i,im->m", f, p.dW)  # noqa: E731
    rep = check_duality_brownian(functional, u, paths64_small)
    target = float(np.sum(f * u) * paths64_small.grid.dt)
    assert rep.within()
    # deterministic sides match up to the ridge shrink of the constant fit
    assert abs(rep.rhs - target) <= 3.0 * rep.stderr_rhs + 1e-6


def test_duality_jump_isometry_on_linear_functionals(jump_paths64_small):
    func = lambda t, z: z * (1.0 + t)  # noqa: E731
    psi_t = jump_paths64_small.grid.nodes[:-1]
    marks = jump_paths64_small.jumps.mark_array
    psi = np.cos(psi_t)[:, None] * np.ones_like(marks)[None, :]
    functional = lambda p: compensated_jump_integral(p, func)  # noqa: E731
    rep = check_duality_jump(functional, psi, jump_paths64_small)
    jm = jump_paths64_small.jumps
    dt = jump_paths64_small.grid.dt
    target = float(np.sum(
        func(psi_t[:, None], marks[None, :]) * psi
        * (jm.intensity * jm.weight_array * dt)[None, :]
    ))
    assert rep.within()
    assert abs(rep.lhs - target) <= 3.0 * rep.stderr_lhs
    assert abs(rep.rhs - target) <= 3.0 * rep.stderr_rhs + 1e-6


def test_duality_jump_constant_functional(jump_paths64_small):
    rep = check_duality_jump(lambda p: np.ones(p.n_paths),
                             np.ones((64, 2)), jump_paths64_small)
    assert abs(rep.rhs) <= 1e-12
    assert rep.within()


def test_duality_jump_degenerate_without_jumps(paths64_small):
    rep = check_duality_jump(lambda p: p.brownian[-1], np.ones((64, 1)), paths64_small)
    assert rep.degenerate and rep.within()
    assert rep.lhs == rep.rhs == 0.0


# --- reconstruction -----------------------------------------------------------

def test_reconstruction_of_constant_is_exact(paths64_small):
    rep = clark_ocone_reconstruct(lambda p: np.full(p.n_paths, 7.0), paths64_small)
    assert rep.degenerate
    assert np.allclose(rep.residuals, 0.0, atol=1e-12)


def test_reconstruction_of_linear_integral_is_exact(paths64_small):
    t = paths64_small.grid.nodes[:-1]
    f = np.exp(-t)
    functional = lambda p: np.einsum("i,im->m", f, p.dW)  # noqa: E731
    rep = clark_ocone_reconstruct(functional, paths64_small)
    # the integrand is recovered exactly; what remains is the estimated mean,
    # a constant offset of size O(1/sqrt(M)) shared by every path
    assert np.std(rep.residuals) <= 1e-7
    assert rep.relative_rms <= 3.0 / np.sqrt(paths64_small.n_paths)


def test_reconstruction_quadratic_converges_in_grid_size():
    # the representation residual for B(T)^2 is the quadratic-variation noise
    # sum (dW^2 - dt): relative size 1/sqrt(N), so a fine grid meets 5%
    paths = sample_paths(TimeGrid(1.0, 1024), JumpModel.none(), 6_000, seed=8)
    rep = clark_ocone_reconstruct(lambda p: p.brownian[-1] ** 2, paths)
    assert rep.relative_rms <= 0.05
    assert rep.relative_rms >= 0.5 / np.sqrt(1024)


def test_reconstruction_requires_brownian_only(jump_paths64_small):
    with pytest.raises(ConfigurationError):
        clark_ocone_reconstruct(lambda p: p.brownian[-1], jump_paths64_small)


# --- iterated integrals ---------------------------------------------------------

def test_first_order_integral_is_brownian(paths64_small):
    out = iterated_integral(1.0, 1, paths64_small)
    assert np.allclose(out, paths64_small.brownian[-1], atol=1e-12)


def test_second_order_identity_and_mean(paths64_desk):
    i2 = iterated_integral(1.0, 2, paths64_desk)
    direct = paths64_desk.brownian[-1] ** 2 - (paths64_desk.dW ** 2).sum(axis=0)
    assert np.allclose(i2, direct, atol=1e-10)
    se = i2.std(ddof=1) / np.sqrt(paths64_desk.n_paths)
    assert abs(i2.mean()) <= 3.0 * se


def test_second_order_isometry(paths64_desk):
    i2 = iterated_integral(1.0, 2, paths64_desk)
    sq = i2 ** 2
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    # grid value: I_2 = 2 sum_{i<j} dW_i dW_j has no diagonal, E[I_2^2] = 2T^2 (1 - 1/N)
    assert abs(sq.mean() - 2.0 * (1.0 - 1.0 / 64)) <= 3.0 * se


def test_third_order_integral_moments(paths64_small):
    i3 = iterated_integral(1.0, 3, paths64_small)
    m = len(i3)
    se = i3.std(ddof=1) / np.sqrt(m)
    assert abs(i3.mean()) <= 3.0 * se
    # E[I3(1)^2] = 3! ||1||^2 = 6 T^3 up to the discrete diagonal deficit
    sq = i3 ** 2
    se2 = sq.std(ddof=1) / np.sqrt(m)
    assert abs(sq.mean() - 6.0) <= 3.0 * se2 + 6.0 * 3.0 / 64.0


def test_higher_orders_unsupported(paths64_small):
    with pytest.raises(ConfigurationError):
        iterated_integral(1.0, 4, paths64_small)


def test_chaos_derivative_identity(paths64_small):
    # exact discrete oracle: d/d(dW_i) I2(f) = 2 sum_{j != i} f(t_j, t_i) dW_j
    t = paths64_small.grid.nodes[:-1]
    f2 = lambda s, u: s * u  # noqa: E731
    functional = lambda p: iterated_integral(f2, 2, p)  # noqa: E731
    i = 21
    d = d_brownian(functional, paths64_small, i)
    w = f2(t, t[i])
    oracle = 2.0 * (np.einsum("j,jm->m", w, paths64_small.dW)
                    - w[i] * paths64_small.dW[i])
    assert np.allclose(d, oracle, atol=1e-8)
    # reported discrepancy against 2 I1(f(., t_i)) is the diagonal term
    rep = check_chaos_derivative(f2, paths64_small, nodes=(21,))
    want = np.abs(2.0 * f2(t[i], t[i]) * paths64_small.dW[i]).max()
    assert rep.max_abs_error == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_chaos_derivative_zero_kernel(paths64_small):
    rep = check_chaos_derivative(0.0, paths64_small, nodes=(3, 40))
    assert rep.max_abs_error <= 1e-12
    assert rep.within()


def test_chaos_derivative_check_holds_at_its_own_diagonal_on_seed_21():
    # check-malliavin's defaults (N=64, M=1e5, its nodes) on seed 21: the
    # largest increment sits on a checked node, where the error equals the
    # diagonal term up to round-off (about 4e-12 above it)
    paths = sample_paths(TimeGrid(1.0, 64), JumpModel.none(), 100_000, 21)
    rep = check_chaos_derivative(1.0, paths, nodes=range(0, 64, 8))
    diagonal = 2.0 * np.abs(paths.dW[::8]).max(axis=1)
    assert rep.max_abs_error > 2.0 * np.abs(paths.dW).max()
    assert np.all(rep.per_node - diagonal < 1e-9)
    assert rep.within()


def test_chaos_derivative_check_rejects_a_scaled_derivative(paths64_small, monkeypatch):
    from volterra_control import malliavin

    exact = malliavin.d_brownian
    monkeypatch.setattr(malliavin, "d_brownian",
                        lambda *args, **kwargs: 1.001 * exact(*args, **kwargs))
    rep = check_chaos_derivative(1.0, paths64_small, nodes=range(0, 64, 8))
    assert not rep.within()


# --- Fubini exchange ------------------------------------------------------------

def test_fubini_exchange_is_exact():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(40, 40))
    lhs, rhs = fubini_exchange(a, dt=1.0 / 40.0)
    assert lhs == rhs  # bitwise, via exactly rounded summation
