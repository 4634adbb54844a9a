import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from volterra_control import (
    ConfigurationError,
    JumpModel,
    PathBundle,
    TimeGrid,
    compensated_jump_integral,
    sample_paths,
)


def test_grid_validation():
    g = TimeGrid(2.0, 8)
    assert g.dt == 0.25
    assert np.allclose(np.diff(g.nodes), 0.25)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
    with pytest.raises(ConfigurationError):
        TimeGrid(1.0, 1)
    with pytest.raises(ConfigurationError):
        TimeGrid(-1.0, 8)


def test_jump_model_validation():
    with pytest.raises(ConfigurationError):
        JumpModel(intensity=-1.0)
    with pytest.raises(ConfigurationError):
        JumpModel(intensity=1.0, marks=(1.0,), weights=(0.9,))
    with pytest.raises(ConfigurationError):
        JumpModel(intensity=1.0, marks=(0.0, 1.0), weights=(0.5, 0.5))
    with pytest.raises(ConfigurationError):
        JumpModel(intensity=1.0)
    jm = JumpModel(intensity=2.0, marks=(-1.0, 0.5), weights=(0.25, 0.75))
    comp = jm.compensator(TimeGrid(1.0, 4))
    assert np.allclose(comp, [2.0 * 0.25 * 0.25, 2.0 * 0.75 * 0.25])


def test_sampling_requires_positive_path_count(grid64):
    with pytest.raises(ConfigurationError):
        sample_paths(grid64, JumpModel.none(), 0, seed=1)


def test_seed_determinism(grid64, marks_pm1):
    a = sample_paths(grid64, marks_pm1, 3000, seed=42)
    b = sample_paths(grid64, marks_pm1, 3000, seed=42)
    assert np.array_equal(a.dW, b.dW)
    assert np.array_equal(a.jump_counts, b.jump_counts)
    c = sample_paths(grid64, marks_pm1, 3000, seed=43)
    assert not np.array_equal(a.dW, c.dW)


def test_single_path_two_steps_reproducible():
    g = TimeGrid(1.0, 2)
    a = sample_paths(g, JumpModel.none(), 1, seed=42)
    b = sample_paths(g, JumpModel.none(), 1, seed=42)
    assert a.dW.shape == (2, 1)
    assert np.array_equal(a.dW, b.dW)
    assert a.jump_counts.sum() == 0


def test_path_subsetting_is_stream_stable(grid64, marks_pm1):
    big = sample_paths(grid64, marks_pm1, 9000, seed=7)
    small = sample_paths(grid64, marks_pm1, 5000, seed=7)
    assert np.array_equal(big.dW[:, :5000], small.dW)
    assert np.array_equal(big.jump_counts[:, :5000], small.jump_counts)
    sub = big.subset(1000, 4000)
    assert np.array_equal(sub.dW, big.dW[:, 1000:4000])


def test_increment_moments(paths64_desk):
    m = paths64_desk.n_paths
    dt = paths64_desk.grid.dt
    inc = paths64_desk.dW[0]
    se_mean = np.sqrt(dt / m)
    assert abs(inc.mean()) <= 3.0 * se_mean
    # variance of a chi-square-like statistic: se ~ dt * sqrt(2/m)
    assert abs(inc.var() - dt) <= 3.0 * dt * np.sqrt(2.0 / m)


def test_disjoint_increments_uncorrelated(paths64_desk):
    m = paths64_desk.n_paths
    a, b = paths64_desk.dW[3], paths64_desk.dW[40]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(m)


def test_jump_counts_poisson(grid64, marks_pm1):
    paths = sample_paths(grid64, JumpModel(2.0, (-1.0, 1.0), (0.5, 0.5)), 10_000, seed=5)
    counts = paths.jump_counts.sum(axis=(0, 2))
    # mean within 3 standard errors of intensity * T = 2
    assert abs(counts.mean() - 2.0) <= 3.0 * np.sqrt(2.0 / 10_000)
    # chi-square sanity check against the Poisson(2) pmf
    kmax = 8
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    pmf = stats.poisson(2.0).pmf(np.arange(kmax + 1))
    pmf[-1] = 1.0 - pmf[:-1].sum()
    chi2, pvalue = stats.chisquare(observed, 10_000 * pmf)
    assert pvalue > 1e-3


def test_brownian_and_jump_sum_cumulative(jump_paths64_small):
    p = jump_paths64_small
    assert p.brownian.shape == (65, p.n_paths)
    assert np.allclose(p.brownian[1:] - p.brownian[:-1], p.dW)
    marks = p.jumps.mark_array
    inc = p.compensated_counts @ marks
    assert np.allclose(p.jump_sum[1:] - p.jump_sum[:-1], inc)


def test_perturbation_views(jump_paths64_small):
    p = jump_paths64_small
    pert = p.perturb_brownian(10, 0.3)
    assert np.allclose(pert.dW[10], p.dW[10] + 0.3)
    assert np.array_equal(pert.dW[11], p.dW[11])
    assert np.allclose(pert.brownian[11:], p.brownian[11:] + 0.3)
    assert np.array_equal(pert.brownian[:11], p.brownian[:11])
    jp = p.with_extra_jump(5, 1)
    assert np.array_equal(jp.jump_counts[5, :, 1], p.jump_counts[5, :, 1] + 1)
    assert np.allclose(jp.jump_sum[6:], p.jump_sum[6:] + p.jumps.marks[1])
    assert np.array_equal(jp.jump_sum[:6], p.jump_sum[:6])


@pytest.mark.parametrize("steps, jumps", [
    (13, JumpModel(0.7, (-0.5, 0.5), (0.5, 0.5))),
    (16, JumpModel(1.3, (-1.0, 0.25, 2.0), (0.2, 0.5, 0.3))),
])
def test_perturbed_views_share_compensated_counts(steps, jumps):
    # each view's compensated counts equal the base-class recomputation from
    # its own jump counts, bit for bit, before and after remark/rebump
    p = sample_paths(TimeGrid(1.0, steps), jumps, 3_000, seed=41)

    def recomputed(view):
        return PathBundle(view.grid, view.jumps, view.dW, view.jump_counts,
                          seed=view.seed).compensated_counts

    pert = p.perturb_brownian(steps // 2, 1e-3)
    assert pert.compensated_counts is p.compensated_counts
    pert.rebump(-1e-3)
    assert np.array_equal(pert.compensated_counts, recomputed(pert))
    for node in (0, steps // 3, steps - 1):
        for mark in range(jumps.n_marks):
            view = p.with_extra_jump(node, mark)
            assert np.array_equal(view.compensated_counts, recomputed(view))
            view.remark((mark + 1) % jumps.n_marks)
            assert np.array_equal(view.compensated_counts, recomputed(view))
    assert np.array_equal(p.compensated_counts, recomputed(p))


def test_view_rows_match_materialized_arrays_in_any_order():
    # a view's row increments and its arrays hold the same bits whether they
    # are built before or after a rebump/remark, without materializing
    jumps = JumpModel(1.3, (-1.0, 0.25, 2.0), (0.2, 0.5, 0.3))
    p = sample_paths(TimeGrid(1.0, 16), jumps, 2_000, seed=43)
    h, node = 1e-5, 7
    eager = p.perturb_brownian(node, +h)
    eager.dW, eager.brownian
    eager.rebump(-h)
    lazy = p.perturb_brownian(node, +h)
    lazy.rebump(-h)
    dw, counts = lazy.increments_at(node)
    assert "dW" not in vars(lazy) and "brownian" not in vars(lazy)
    assert np.array_equal(dw, eager.dW[node])
    assert np.array_equal(counts, p.compensated_counts[node])
    assert np.array_equal(lazy.dW, eager.dW)
    assert np.array_equal(lazy.brownian, eager.brownian)
    for mark in range(jumps.n_marks):
        view = p.with_extra_jump(node, mark)
        dw, counts = view.increments_at(node)
        assert "compensated_counts" not in vars(view)
        assert np.array_equal(dw, p.dW[node])
        assert np.array_equal(counts, view.compensated_counts[node])
        assert np.array_equal(view.increments_at(node + 1)[1], p.compensated_counts[node + 1])


def test_coarsening(jump_paths64_small):
    p = jump_paths64_small
    c = p.coarsen(4)
    assert c.n_steps == 16
    assert np.allclose(c.dW[0], p.dW[:4].sum(axis=0))
    assert np.array_equal(c.jump_counts[0], p.jump_counts[:4].sum(axis=0))
    assert np.allclose(c.brownian[-1], p.brownian[-1])
    with pytest.raises(ConfigurationError):
        p.coarsen(5)


# Path counts on both sides of the 4096-path generation block boundary.
_PATH_COUNTS = st.one_of(st.integers(1, 2 * 4096 + 64),
                          st.sampled_from([4095, 4096, 4097, 8192, 8193]))


@settings(max_examples=25)
@given(sizes=st.lists(_PATH_COUNTS, min_size=2, max_size=2).map(sorted),
       steps_factor=st.sampled_from([(2, 1), (4, 2), (6, 3), (8, 4), (12, 4)]),
       seed=st.integers(0, 2**16))
def test_subset_reproduces_smaller_runs_and_commutes_with_coarsen(sizes, steps_factor, seed):
    (m1, m2), (steps, factor) = sizes, steps_factor
    jumps = JumpModel(3.0, (-0.5, 0.5, 1.0), (0.25, 0.25, 0.5))
    grid = TimeGrid(1.0, steps)
    small = sample_paths(grid, jumps, m1, seed=seed)
    big = sample_paths(grid, jumps, m2, seed=seed)
    sub = big.subset(0, m1)
    assert np.array_equal(small.dW, sub.dW)
    assert np.array_equal(small.jump_counts, sub.jump_counts)
    one, other = big.coarsen(factor).subset(0, m1), sub.coarsen(factor)
    assert one.n_steps == other.n_steps == steps // factor
    assert np.array_equal(one.dW, other.dW)
    assert np.array_equal(one.jump_counts, other.jump_counts)


# --- compensated jump integral ------------------------------------------------

def test_jump_integral_zero_integrand(jump_paths64_small):
    out = compensated_jump_integral(jump_paths64_small, lambda t, z: 0.0 * t * z)
    assert np.all(out == 0.0)


def test_jump_integral_no_jumps(paths64_small):
    out = compensated_jump_integral(paths64_small, lambda t, z: t + z)
    assert np.all(out == 0.0)


def test_jump_integral_martingale(grid64, marks_pm1):
    paths = sample_paths(grid64, marks_pm1, 100_000, seed=11)
    out = compensated_jump_integral(paths, lambda t, z: z + 0.0 * t)
    se = out.std(ddof=1) / np.sqrt(len(out))
    assert abs(out.mean()) <= 3.0 * se
