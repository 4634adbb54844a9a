import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_control import (
    ConfigurationError,
    ControlProcess,
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
    registry_get,
    sample_paths,
)
from volterra_control.errors import RegressionError
from volterra_control.grids import compensated_jump_integral
from volterra_control.malliavin import (
    BackwardProjector,
    NodeRegression,
    _monomial_exponents,
    brownian_feature,
    brownian_square_grid_term,
    default_features,
    fubini_exchange,
    jump_sum_feature,
    predicted_terminal_feature,
    state_feature,
    weighted_brownian_feature,
)
from volterra_control.models import InfoMode
from volterra_control.volterra import monte_carlo_estimate


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


def test_compensated_jump_sums_build_no_dense_array(marks_pm1, no_dense_counts):
    # both sums of psi against dN~ run node by node over the jump events: against the
    # dense einsum they differ by the order of the additions alone, and on an
    # extra-jump view they read the view's row
    paths = sample_paths(TimeGrid(1.0, 16), marks_pm1, 4000, seed=61)
    n, m, k = paths.n_steps, paths.n_paths, paths.jumps.n_marks
    dense = no_dense_counts(paths.events, m, k, dtype=float) - paths.jumps.compensator(paths.grid)
    func = lambda t, z: np.sin(3.0 * t) + z  # noqa: E731
    psi = func(paths.grid.nodes[:-1, None], paths.jumps.mark_array[None, :])
    got = compensated_jump_integral(paths, func)
    assert np.allclose(got, np.einsum("imk,ik->m", dense, psi), rtol=0.0, atol=1e-13)
    view = paths.with_extra_jump(5, 1)
    dense[5, :, 1] += 1.0
    assert np.allclose(compensated_jump_integral(view, func),
                       np.einsum("imk,ik->m", dense, psi), rtol=0.0, atol=1e-13)
    dense[5, :, 1] -= 1.0
    terminal = lambda p: p.jump_sum[-1] ** 2  # noqa: E731
    rep = check_duality_jump(terminal, psi, paths)
    want = np.mean(terminal(paths) * np.einsum("imk,ik->m", dense, psi))
    assert rep.lhs == pytest.approx(want, rel=1e-13)
    assert rep.within()


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


# --- property tests of the node regression ----------------------------------

def _random_regression(n_raw, degree, extra, seed, ridge=1e-8):
    basis = RegressionBasis(degree=degree, ridge=ridge)
    m = 10 * basis.dimension(n_raw) + extra
    rng = np.random.default_rng(seed)
    feats = [state_feature(rng.standard_normal((1, m)), name=f"f{r}") for r in range(n_raw)]
    return NodeRegression(feats, 0, basis), rng


def _fit_roundoff(reg, y):
    """Elementwise bound on the round-off of `reg.fit(y)`.

    Phi^T y / M is off by at most M eps |Phi| |y| per entry; the Cholesky
    solves are backward stable (3p eps relative on the ridged Gram G), which
    ||G^-1|| turns into a coefficient error; Phi c adds p eps |Phi| |c|.
    """
    eps = np.finfo(float).eps
    phi = reg.design()
    m, p = phi.shape
    g = reg.gram + reg.basis.ridge * np.eye(p)
    eig = np.linalg.eigvalsh(g)
    c = reg.coefficients(y)
    phi_max = np.abs(phi).max()
    d_r = m * eps * np.sqrt(p) * phi_max * np.abs(y).max()
    d_c = (d_r + 3 * p * eps * eig[-1] * np.linalg.norm(c)) / eig[0]
    return phi_max * (np.sqrt(p) * d_c + p * eps * np.abs(c).sum())


@settings(max_examples=30)
@given(n_raw=st.integers(1, 3), degree=st.integers(1, 3), extra=st.integers(0, 200),
       seed=st.integers(0, 2 ** 32 - 1), a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
def test_fit_is_linear_in_the_targets(n_raw, degree, extra, seed, a, b):
    reg, rng = _random_regression(n_raw, degree, extra, seed)
    raw = reg.raw_values()
    y1 = np.sin(raw.sum(axis=1)) + rng.standard_normal(reg.n_paths)
    y2 = raw[:, 0] ** 3 + 0.5 * rng.standard_normal(reg.n_paths)
    y = a * y1 + b * y2
    f1, f2 = reg.fit(y1), reg.fit(y2)
    eps = np.finfo(float).eps
    phi = reg.design()
    # the exact fit maps |dy| <= d to at most p max|Phi|^2 d / lambda_min(G + ridge I)
    gain = phi.shape[1] * np.abs(phi).max() ** 2 \
        / np.linalg.eigvalsh(reg.gram + reg.basis.ridge * np.eye(phi.shape[1]))[0]
    # the three fits' round-off, plus the rounding of a y1 + b y2 and of a f1 + b f2
    tol = _fit_roundoff(reg, y) + abs(a) * _fit_roundoff(reg, y1) \
        + abs(b) * _fit_roundoff(reg, y2) \
        + 2 * eps * (np.abs(a * f1) + np.abs(b * f2)) \
        + gain * 2 * eps * np.max(np.abs(a * y1) + np.abs(b * y2))
    assert np.all(np.abs(reg.fit(y) - (a * f1 + b * f2)) <= tol)


@settings(max_examples=30)
@given(n_raw=st.integers(1, 3), degree=st.integers(1, 3), extra=st.integers(0, 200),
       seed=st.integers(0, 2 ** 32 - 1), ridge=st.sampled_from([1e-8, 1e-4, 1e-2]))
def test_fit_is_idempotent_up_to_the_ridge(n_raw, degree, extra, seed, ridge):
    """fit(fit(y)) - fit(y) = -ridge Phi (G + ridge I)^-1 c for c = coefficients(y).

    A ridge projection shrinks what it refits, so it is idempotent only up
    to that term; round-off adds the two fits' own bounds.
    """
    reg, rng = _random_regression(n_raw, degree, extra, seed, ridge)
    y = np.cos(2.0 * reg.raw_values().sum(axis=1)) + rng.standard_normal(reg.n_paths)
    once = reg.fit(y)
    shrink = reg.design() @ (ridge * reg._solve(reg.coefficients(y)))
    roundoff = _fit_roundoff(reg, y) + _fit_roundoff(reg, once)
    assert np.all(np.abs(reg.fit(once) - once) <= np.abs(shrink) + roundoff)


def _lowered(e, r):
    return e[:r] + (e[r] - 1,) + e[r + 1:]


def _reference_rows(raw, degree):
    """Monomial rows by the product tree, the oracle for `NodeRegression`.

    Monomial e is its parent e - 1_r times raw feature r, where r is the last
    feature that e contains; parents come first in exponent order.
    """
    expos = _monomial_exponents(raw.shape[1], degree)
    index = {e: k for k, e in enumerate(expos)}
    rows = [np.ones(raw.shape[0])]
    for e in expos[1:]:
        r = max(i for i, p in enumerate(e) if p)
        rows.append(rows[index[_lowered(e, r)]] * raw[:, r])
    return np.array(rows), expos, index


def _reference_build(features, node, basis):
    """Row reductions on the (p, M) monomial rows: one mean, one spread, one drop."""
    raw = np.column_stack([f.values[node] for f in features])
    rows, _, _ = _reference_rows(raw, basis.degree)
    mean = rows.mean(axis=1)
    mean[0] = 0.0
    dev = rows - mean[:, None]
    spread = np.sqrt(np.einsum("ij,ij->i", dev, dev) / raw.shape[0])
    noise = raw.shape[0] * np.finfo(float).eps * np.abs(mean)
    keep = [0] + [k for k in range(1, len(rows)) if spread[k] > noise[k]]
    mean, scale = mean[keep], spread[keep]
    kept = dev[keep] / scale[:, None]
    gram = kept @ kept.T / raw.shape[0]
    gram[np.diag_indices_from(gram)] += basis.ridge
    return keep, mean, scale, kept.T, np.linalg.cholesky(gram)


def _build_cases(p, degree, n_features):
    # the constant third feature exercises the dropped-column branch
    feats = [brownian_feature(p), jump_sum_feature(p),
             state_feature(np.full((p.n_steps + 1, p.n_paths), 0.3), name="flat")]
    basis = RegressionBasis(degree=degree)
    for node in (0, 1, 40):
        yield feats[:n_features], node, basis


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("n_features", [1, 2, 3])
def test_regression_build_is_bit_identical_to_column_build(jump_paths64_small, degree,
                                                           n_features):
    for feats, node, basis in _build_cases(jump_paths64_small, degree, n_features):
        reg = NodeRegression(feats, node, basis, retain_design=True)
        keep, mean, scale, phi, chol = _reference_build(feats, node, basis)
        assert reg.keep == keep
        for got, want in ((reg.col_mean, mean), (reg.col_scale, scale),
                          (reg.design(), phi), (reg._chol, chol)):
            assert np.array_equal(got, want)
        shifted = reg.raw_values() + 0.25
        rows, _, _ = _reference_rows(shifted, degree)
        assert np.array_equal(reg.design(shifted), ((rows[keep].T - mean) / scale))


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("n_features", [1, 3])
def test_constant_monomials_are_dropped_at_their_round_off(jump_paths64_small, degree,
                                                           n_features):
    # At node 0 every fixture feature is constant; the mean of 0.3**2 is inexact,
    # so its spread is round-off, not zero, and must not keep a second intercept.
    feats = next(f for f, node, _ in _build_cases(jump_paths64_small, degree, 3) if node == 0)
    if n_features == 1:
        feats = feats[2:]  # the constant 0.3 alone
    reg = NodeRegression(feats, 0, RegressionBasis(degree=degree, ridge=0.0))
    assert reg.keep == [0]
    assert np.array_equal(reg.gram, np.ones((1, 1)))
    assert np.all(np.linalg.eigvalsh(reg.gram) > 0.0)


def _carry_z_scores(degree, seed, m=20_000):
    """Worst |sample - exact| / SE over the entries of the projector's node Gram G_j, G_j A_j
    and G_j B_j dt (A_j and B_j dt its `carry` and `carry_z` times dt) at every node, and
    their sample moments E[u_j u_j^T], E[u_j u_{j+1}^T] and E[u_j dW_j u_{j+1}^T] over the
    paths, u_j = (S_j / sd_j)^(0..d), formed here from the rows S_j and dW_j; each entry's SE
    is the sample SD of its per-path product over sqrt(M). An entry of SE 0 (node 0's
    intercept) must match exactly."""
    paths = sample_paths(TimeGrid(1.0, 6), JumpModel.none(), m, seed=seed)
    theta, dt = np.linspace(-0.3, -0.1, paths.n_steps), paths.grid.dt
    projector = BackwardProjector(theta, weighted_brownian_feature(theta, paths), paths,
                                  RegressionBasis(degree=degree))
    rows, sd = weighted_brownian_feature(theta, paths).values, projector.sd
    powers, worst = np.arange(degree + 1)[:, None], 0.0
    for j, reg in enumerate(projector.regs):
        u = (rows[j] / sd[j]) ** powers[reg.keep] if sd[j] else np.ones((1, m))
        nxt = (rows[j + 1] / sd[j + 1]) ** powers
        if j + 1 < paths.n_steps:
            nxt = nxt[projector.regs[j + 1].keep]
        for exact, right in ((reg.gram, u), (reg.gram @ projector.carry[j], nxt),
                             (reg.gram @ projector.carry_z[j] * dt, paths.dW[j] * nxt)):
            per_path = u[:, None] * right[None]
            gap = np.abs(per_path.mean(axis=2) - exact)
            se = per_path.std(axis=2, ddof=1) / np.sqrt(m)
            assert np.all(gap[se == 0.0] == 0.0)
            worst = max(worst, float((gap[se > 0.0] / se[se > 0.0]).max(initial=0.0)))
    return worst


@pytest.mark.parametrize("degree,bound", [(1, 4.0), (2, 4.0), (3, 4.0), (5, 6.0)])
def test_exact_carries_match_the_sample_moments_of_the_paths(degree, bound):
    # The exact one-step Gaussian moments of the projector against Monte Carlo moments of
    # the same law (`_carry_z_scores`). Over seeds 0-19 at M = 2e4 the worst entry's |z|
    # was 1.24-3.11 at degree 1, 1.62-3.11 at 2, 1.89-3.11 at 3 and 2.10-4.72 at 5 (the
    # moments of u^10 have heavy tails); the bound is about 1.25x the largest. The test
    # seed is not one of them (1.94, 1.94, 1.94 and 3.39). A wrong moment order in a carry
    # is off by O(1), hundreds of SE.
    assert _carry_z_scores(degree, seed=20240813) <= bound


def _power_build(features, node, degree):
    """The column-major build with `**` powers and axis-0 moments."""
    raw = np.column_stack([f.values[node] for f in features])
    cols, kept = [], []
    for idx, expo in enumerate(_monomial_exponents(raw.shape[1], degree)):
        col = np.ones(raw.shape[0])
        for r, p in enumerate(expo):
            if p:
                col = col * raw[:, r] ** p
        if idx > 0 and np.std(col) <= 1e-300:
            continue
        cols.append(col)
        kept.append(idx)
    x = np.column_stack(cols)
    mean, scale = x.mean(axis=0), x.std(axis=0)
    mean[0], scale[0] = 0.0, 1.0
    return kept, mean, scale, (x - mean) / scale


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("n_features", [1, 2, 3])
def test_regression_build_matches_power_build_to_round_off(jump_paths64_small, degree,
                                                           n_features):
    """Product-tree rows against `**` columns, within a bound from eps and magnitudes.

    Per element, a degree-d monomial x carries at most d roundings either
    way (pow is within one ulp), so the two builds differ by at most
    2 d eps X, X = max|x| = prod_r max|raw_r|^e_r. Each mean and each
    variance is a sum of M terms, off by at most M eps times the sum of
    magnitudes, so the means differ by at most (2d + 2M) eps X. Propagating
    these through x - mean and the division by the spread bounds the
    spreads, the design and the Gram matrix column by column. A constant
    monomial whose computed mean is inexact keeps a spread of round-off size,
    at most that same mean bound, and either build may keep or drop it: such
    columns may differ in `keep`, and the design and Gram bounds skip every
    column whose spread is not resolved above its own bound.
    """
    eps = np.finfo(float).eps
    for feats, node, basis in _build_cases(jump_paths64_small, degree, n_features):
        reg = NodeRegression(feats, node, basis, retain_design=True)
        keep, mean, scale, phi = _power_build(feats, node, degree)
        raw_max, m = np.abs(reg.raw_values()).max(axis=0), phi.shape[0]

        def noise(idx):
            e = reg.exponents[idx]
            return (2 * sum(e) + 2 * m) * eps * float(np.prod(raw_max ** np.array(e)))

        for got, spread in ((reg.keep, reg.col_scale), (keep, scale)):
            for pos, idx in enumerate(got):
                if idx not in reg.keep or idx not in keep:
                    assert spread[pos] <= noise(idx)
        common = [idx for idx in reg.keep if idx in keep]
        new, old = [reg.keep.index(i) for i in common], [keep.index(i) for i in common]
        mean, scale, phi = mean[old], scale[old], phi[:, old]
        d_mean = np.array([noise(i) if i else 0.0 for i in common])
        assert np.all(np.abs(reg.col_mean[new] - mean) <= d_mean)
        # |x_new - x_old| <= 2 d eps X <= d_mean; the subtraction rounds once more
        d_dev = 2.0 * d_mean + eps * np.abs(phi * scale).max(axis=0)
        d_scale = d_dev + (m + 2) * eps * scale
        d_dev[0] = d_scale[0] = 0.0
        assert np.all(np.abs(reg.col_scale[new] - scale) <= d_scale)
        ok = scale > 2.0 * d_scale
        phi, scale, d_dev, d_scale = phi[:, ok], scale[ok], d_dev[ok], d_scale[ok]
        d_phi = (d_dev + np.abs(phi) * d_scale) / (scale - d_scale) + eps * np.abs(phi)
        design = reg.design()[:, new][:, ok]
        assert np.all(np.abs(design - phi) <= d_phi)
        gram = phi.T @ phi / m
        d_gram = (d_phi.T @ (np.abs(phi) + d_phi) + np.abs(phi).T @ d_phi) / m \
            + eps * np.abs(phi).T @ np.abs(phi)
        got = reg.gram[np.ix_(new, new)][np.ix_(ok, ok)]
        assert np.all(np.abs(got - gram) <= d_gram)


@pytest.mark.parametrize("n_features", [1, 2, 3])
def test_gradient_raw_is_the_per_monomial_derivative(jump_paths64_small, n_features):
    p = jump_paths64_small
    feats = [brownian_feature(p), jump_sum_feature(p),
             weighted_brownian_feature(np.linspace(0.5, 1.5, 64), p)][:n_features]
    reg = NodeRegression(feats, 40, RegressionBasis(degree=3))
    coef = reg.coefficients(p.brownian[-1] ** 2 + p.jump_sum[-1])
    for raw in (reg.raw_values(), reg.raw_values() - 0.75):
        rows, expos, index = _reference_rows(raw, 3)
        want = np.zeros((n_features, p.n_paths))
        for pos, k in enumerate(reg.keep):
            e, c = expos[k], coef[pos] / reg.col_scale[pos]
            for r in range(n_features):
                if k and e[r] and c != 0.0:
                    want[r] += (c * e[r]) * rows[index[_lowered(e, r)]]
        assert np.array_equal(reg.gradient_raw(coef, raw), want.T)


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


@pytest.mark.parametrize("degree", [1, 3, 4])
def test_taylor_rows_give_the_exact_shifted_difference(jump_paths64_small, degree):
    # P(x + delta e_r) - P(x) = sum_d rows[d - 1] delta^d: the polynomial has no
    # terms beyond its degree, so the rows give the predict difference up to
    # round-off; row 1 is the gradient column, bit for bit
    p = jump_paths64_small
    feats = [brownian_feature(p), jump_sum_feature(p),
             weighted_brownian_feature(np.linspace(0.5, 1.5, 64), p)]
    reg = NodeRegression(feats, 40, RegressionBasis(degree=degree))
    coef = reg.coefficients(np.sin(p.brownian[-1]) * p.jump_sum[-1] + p.brownian[-1] ** 3)
    raw = reg.raw_values()
    delta = np.random.default_rng(5).normal(scale=0.5, size=p.n_paths)
    for r in range(len(feats)):
        rows = reg.taylor_rows(coef, r)
        assert rows.shape == (degree, p.n_paths)
        assert np.array_equal(rows[0], reg.gradient_raw(coef)[:, r])
        shifted = raw.copy()
        shifted[:, r] += delta
        want = reg.predict(shifted, coef) - reg.predict(raw, coef)
        got = sum(row * delta ** d for d, row in enumerate(rows, 1))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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


def _log_of_zero(level):
    # log 0 = -inf on every path, so each difference of two evaluations is nan
    def functional(paths):
        with np.errstate(divide="ignore"):
            return np.log(0.0 * level(paths))
    return functional


def test_derivatives_refuse_a_functional_that_is_not_finite(jump_paths64_small):
    paths = jump_paths64_small.subset(0, 400)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError,
                           match="functional is not finite under perturbation at node 5"):
            d_brownian(_log_of_zero(lambda p: p.brownian[-1]), paths, 5)
        with pytest.raises(ValueError,
                           match="functional is not finite with an extra jump at node 5"):
            d_jump(_log_of_zero(lambda p: p.jump_sum[-1]), paths, 5, 1)
        with pytest.raises(ValueError,
                           match="functional is not finite with an extra jump at node 0"):
            check_duality_jump(_log_of_zero(lambda p: p.jump_sum[-1]), np.ones((64, 2)), paths)


def test_regression_refuses_a_design_singular_after_the_ridge(paths64_small):
    # two copies of one feature give two equal columns: without a ridge the Gram is
    # singular and its Cholesky factor fails
    paths = paths64_small.subset(0, 400)
    feats = [brownian_feature(paths)] * 2
    with pytest.raises(RegressionError, match="rank deficient even after ridge regularization; "
                                              "reduce the basis degree"):
        NodeRegression(feats, 3, RegressionBasis(degree=1, ridge=0.0))


# --- reconstruction -----------------------------------------------------------

def test_reconstruction_residual_is_the_grid_term_plus_a_small_remainder(paths64_small):
    """Criterion 03's residual is the grid floor: the rest is regression sampling error.

    For B_T^2 the adapted integrand 2 B_{t_i} lies in the node basis, so
    what remains beyond sum_i (dW_i^2 - dt) is the sample mean of F and p
    coefficients per node, together of relative size sqrt((1 + p) / M).
    """
    p = paths64_small
    rep = clark_ocone_reconstruct(lambda b: b.brownian[-1] ** 2, p)
    grid_rms, rest_rms = rep.relative_split(brownian_square_grid_term(p))
    assert rest_rms <= 3.0 * math.sqrt((1 + RegressionBasis().dimension(1)) / p.n_paths)
    assert rest_rms < 0.05 < grid_rms  # the 5 % bound of criterion 03 fails on the floor


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
    _, se = monte_carlo_estimate(i2)
    assert abs(i2.mean()) <= 3.0 * se


def test_second_order_isometry(paths64_desk):
    i2 = iterated_integral(1.0, 2, paths64_desk)
    sq = i2 ** 2
    _, se = monte_carlo_estimate(sq)
    # grid value: I_2 = 2 sum_{i<j} dW_i dW_j has no diagonal, E[I_2^2] = 2T^2 (1 - 1/N)
    assert abs(sq.mean() - 2.0 * (1.0 - 1.0 / 64)) <= 3.0 * se


def test_third_order_integral_moments(paths64_small):
    i3 = iterated_integral(1.0, 3, paths64_small)
    _, se = monte_carlo_estimate(i3)
    assert abs(i3.mean()) <= 3.0 * se
    # E[I3(1)^2] = 3! ||1||^2 = 6 T^3 up to the discrete diagonal deficit
    sq = i3 ** 2
    _, se2 = monte_carlo_estimate(sq)
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


# --- refusals ------------------------------------------------------------------------------

def test_predicted_terminal_feature_refuses_an_x_dependent_model():
    paths = sample_paths(TimeGrid(1.0, 4), JumpModel.none(), 50, seed=1)
    model = registry_get("constant", dict(b0=0.05, sigma0=0.2))
    assert not model.x_independent
    with pytest.raises(ConfigurationError, match="x-independent model, got 'constant'"):
        predicted_terminal_feature(model, ControlProcess.constant(0.5), paths)


def test_horner_refuses_a_two_feature_regression():
    paths = sample_paths(TimeGrid(1.0, 4), JumpModel.none(), 400, seed=2)
    level = np.exp(np.vstack([np.zeros((1, 400)), np.cumsum(paths.dW, axis=0)]))
    reg = NodeRegression([brownian_feature(paths), state_feature(level)], 2, RegressionBasis())
    with pytest.raises(ConfigurationError, match="needs one feature, got 2"):
        reg.horner(np.ones(len(reg.keep)))


@pytest.mark.parametrize("kwargs, message", [
    (dict(degree=0), "basis degree must be >= 1, got 0"),
    (dict(ridge=-1.0), "ridge parameter must be >= 0, got -1.0"),
])
def test_regression_basis_refuses_a_value_out_of_range(kwargs, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        RegressionBasis(**kwargs)
