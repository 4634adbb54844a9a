import numpy as np
import pytest
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


def test_coarsening(jump_paths64_small):
    p = jump_paths64_small
    c = p.coarsen(4)
    assert c.n_steps == 16
    assert np.allclose(c.dW[0], p.dW[:4].sum(axis=0))
    assert np.array_equal(c.jump_counts[0], p.jump_counts[:4].sum(axis=0))
    assert np.allclose(c.brownian[-1], p.brownian[-1])
    with pytest.raises(ConfigurationError):
        p.coarsen(5)


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
