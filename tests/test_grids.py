import os
import re
import subprocess
import sys
import threading
from pathlib import Path

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
from volterra_control import grids
from volterra_control.grids import JumpEvents
from volterra_control.volterra import monte_carlo_estimate

from oracles import compensated_counts, sample_paths_whole_blocks


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


def test_brownian_increments_do_not_depend_on_the_jump_model(grid32):
    # every block draws its normals first: the jump-free bundle of a seed is the
    # Brownian part of the jump bundle, bit for bit, across several blocks
    jumps = JumpModel(intensity=0.5, marks=(-0.4, 0.6), weights=(0.35, 0.65))
    with_jumps = sample_paths(grid32, jumps, 9000, seed=3)
    assert with_jumps.jump_counts.any()
    assert np.array_equal(with_jumps.dW, sample_paths(grid32, JumpModel.none(), 9000, seed=3).dW)


@pytest.mark.parametrize("steps, jumps", [
    *(pytest.param(steps, jumps, id=f"{steps}-{name}") for steps in (16, 256, 1024)
      for name, jumps in (("no_jumps", JumpModel.none()),
                          ("jumps", JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5))))),
    pytest.param(16, JumpModel(40.0, (-0.5, 0.5), (0.5, 0.5)), id="16-many_jumps"),
])
def test_chunked_draws_equal_whole_block_draws_bit_for_bit(steps, jumps):
    # a block's normals drawn a chunk of paths at a time are the same stream as
    # one (_BLOCK, N) draw; 5000 paths end in a partial block, whose dropped
    # paths are still drawn. The jumps kept as events give the counts, and every
    # row, of the dense scatter; at intensity 40 on 16 steps many cells hold 2 or
    # more jumps
    grid = TimeGrid(1.0, steps)
    new = sample_paths(grid, jumps, 5000, seed=9)
    old = sample_paths_whole_blocks(grid, jumps, 5000, seed=9)
    assert np.array_equal(new.dW, old.dW)
    counts = new.jump_counts
    assert counts.dtype == np.int16 and np.array_equal(counts, old.jump_counts)
    assert counts.any() == jumps.active
    if jumps.intensity > 10.0:
        assert (counts >= 2).sum() > 1000
    whole = compensated_counts(old)
    for i in range(steps):
        assert _same_bits(new.increments_at(i)[1], whole[i])


# 9 blocks, the last one partial: worker w of W draws blocks w, w + W, ...
_NINE_BLOCKS = 8 * 4096 + 1234

_PINNED_CHILD = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from volterra_control import JumpModel, TimeGrid, sample_paths
steps, intensity, n_paths, out = int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
p = sample_paths(TimeGrid(1.0, steps), JumpModel(intensity, (-0.5, 0.5), (0.5, 0.5)), n_paths, seed=9)
e = p.events
np.savez(out, dW=p.dW, node_ptr=e.node_ptr, path=e.path, mark=e.mark,
         cpus=len(os.sched_getaffinity(0)))
"""


def _assert_whole_block_bits(new, old, events):
    # `events` are one worker's: the events' order within a node is block order
    assert _same_bits(new.dW, old.dW)
    assert all(np.array_equal(getattr(new.events, name), getattr(events, name))
               for name in ("node_ptr", "path", "mark"))
    counts = new.jump_counts
    assert counts.any() and np.array_equal(counts, old.jump_counts)
    whole = compensated_counts(old)
    for i in range(new.n_steps):
        dw, row = new.increments_at(i)
        assert _same_bits(dw, old.dW[i]) and _same_bits(row, whole[i])


@pytest.mark.parametrize("steps, intensity", [(16, 0.5), (8, 40.0)], ids=["jumps", "many_jumps"])
def test_blocks_drawn_across_workers_equal_whole_block_draws_bit_for_bit(steps, intensity,
                                                                          tmp_path, monkeypatch):
    # the same bits with one worker, with every usable CPU, with more workers than CPUs
    # under a short switch interval, and in a child pinned to one CPU
    grid = TimeGrid(1.0, steps)
    jumps = JumpModel(intensity, (-0.5, 0.5), (0.5, 0.5))
    old = sample_paths_whole_blocks(grid, jumps, _NINE_BLOCKS, seed=9)
    monkeypatch.setattr(grids, "_usable_cpus", lambda: 1)
    events = sample_paths(grid, jumps, _NINE_BLOCKS, seed=9).events
    monkeypatch.undo()
    _assert_whole_block_bits(sample_paths(grid, jumps, _NINE_BLOCKS, seed=9), old, events)

    monkeypatch.setattr(grids, "_usable_cpus", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_whole_block_bits(sample_paths(grid, jumps, _NINE_BLOCKS, seed=9), old, events)
    finally:
        sys.setswitchinterval(interval)

    out = tmp_path / "pinned.npz"
    subprocess.run([sys.executable, "-c", _PINNED_CHILD, str(steps), str(intensity),
                    str(_NINE_BLOCKS), str(out)],
                   env={**os.environ, "PYTHONPATH": str(Path(grids.__file__).parents[1])},
                   check=True, timeout=120)
    with np.load(out) as pinned:
        assert pinned["cpus"] == 1
        pinned_events = JumpEvents(pinned["node_ptr"], pinned["path"], pinned["mark"])
        _assert_whole_block_bits(PathBundle(grid, jumps, pinned["dW"], pinned_events, seed=9),
                                 old, events)


@pytest.mark.parametrize("bad_block", [0, 5])
def test_an_error_in_any_block_reaches_the_caller_after_every_worker_joins(bad_block,
                                                                           monkeypatch):
    # with 3 workers block 5 is drawn by the third worker's thread, block 0 by the caller
    real = np.random.SeedSequence

    def seeds(entropy):
        if entropy[1] == bad_block:
            raise RuntimeError(f"block {bad_block}")
        return real(entropy)

    monkeypatch.setattr(grids, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(np.random, "SeedSequence", seeds)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"block {bad_block}"):
        sample_paths(TimeGrid(1.0, 8), JumpModel.none(), _NINE_BLOCKS, seed=1)
    assert threading.active_count() == before


def test_dense_counts_convert_to_events_and_back():
    # the exported constructor takes dense counts: a cell with three jumps is three
    # events, and the counts, rows, subsets and coarsenings read back from the
    # events are the dense array's
    rng = np.random.default_rng(5)
    jumps = JumpModel(1.3, (-1.0, 0.25, 2.0), (0.2, 0.5, 0.3))
    grid = TimeGrid(1.0, 12)
    counts = rng.poisson(0.4, (12, 50, 3)).astype(np.int16)
    counts[3, 7, 1] = 3
    p = PathBundle(grid, jumps, rng.standard_normal((12, 50)), counts, seed=None)
    assert len(p.events.path) == counts.sum()
    assert np.array_equal(p.jump_counts, counts)
    ref = counts.astype(float)
    ref -= jumps.compensator(grid)[None, None, :]
    for i in range(grid.steps):
        assert _same_bits(p.increments_at(i)[1], ref[i])
    assert _same_bits(compensated_counts(p), ref)
    assert np.array_equal(p.subset(10, 31).jump_counts, counts[:, 10:31])
    assert np.array_equal(p.coarsen(3).jump_counts, counts.reshape(4, 3, 50, 3).sum(axis=1))


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
    inc = compensated_counts(p) @ marks
    assert np.allclose(p.jump_sum[1:] - p.jump_sum[:-1], inc)


def test_perturbation_views(jump_paths64_small):
    p = jump_paths64_small
    pert = p.perturb_brownian(10, 0.3)
    assert np.allclose(pert.dW[10], p.dW[10] + 0.3)
    assert np.array_equal(pert.dW[11], p.dW[11])
    assert np.allclose(pert.brownian[11:], p.brownian[11:] + 0.3)
    assert np.array_equal(pert.brownian[:11], p.brownian[:11])
    jp = p.with_extra_jump(5, 1)
    jump_counts = jp.jump_counts
    assert np.array_equal(jump_counts[5, :, 1], p.jump_counts[5, :, 1] + 1)
    jump_counts[5, :, 1] -= 1
    assert np.array_equal(jump_counts, p.jump_counts)
    assert np.allclose(jp.jump_sum[6:], p.jump_sum[6:] + p.jumps.marks[1])
    assert np.array_equal(jp.jump_sum[:6], p.jump_sum[:6])


@pytest.mark.parametrize("steps, jumps", [
    (13, JumpModel(0.7, (-0.5, 0.5), (0.5, 0.5))),
    (16, JumpModel(1.3, (-1.0, 0.25, 2.0), (0.2, 0.5, 0.3))),
])
def test_perturbed_views_share_compensated_counts(steps, jumps):
    # each view's compensated rows equal the whole array recomputed from its own
    # jump counts, bit for bit, before and after remark/rebump
    p = sample_paths(TimeGrid(1.0, steps), jumps, 3_000, seed=41)

    def rows(view):
        return np.stack([view.increments_at(i)[1] for i in range(steps)])

    pert = p.perturb_brownian(steps // 2, 1e-3)
    pert.rebump(-1e-3)
    assert np.array_equal(rows(pert), compensated_counts(pert))
    for node in (0, steps // 3, steps - 1):
        for mark in range(jumps.n_marks):
            view = p.with_extra_jump(node, mark)
            assert np.array_equal(rows(view), compensated_counts(view))
            view.remark((mark + 1) % jumps.n_marks)
            assert np.array_equal(rows(view), compensated_counts(view))
    assert np.array_equal(rows(p), compensated_counts(p))


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
    assert np.array_equal(counts, compensated_counts(p)[node])
    assert np.array_equal(lazy.dW, eager.dW)
    assert np.array_equal(lazy.brownian, eager.brownian)
    for mark in range(jumps.n_marks):
        view = p.with_extra_jump(node, mark)
        dw, counts = view.increments_at(node)
        assert np.array_equal(dw, p.dW[node])
        assert np.array_equal(counts, compensated_counts(view)[node])
        assert np.array_equal(view.increments_at(node + 1)[1], compensated_counts(p)[node + 1])


def test_mark_index_and_path_range_out_of_bounds_are_refused(jump_paths64_small):
    p = jump_paths64_small
    for mark in (-1, p.jumps.n_marks):
        with pytest.raises(ConfigurationError, match=f"mark index {mark} out of range"):
            p.with_extra_jump(3, mark)
    for start, stop in ((5, 5), (-1, 3), (0, p.n_paths + 1)):
        with pytest.raises(ConfigurationError, match=re.escape(f"[{start}, {stop})")):
            p.subset(start, stop)


def test_views_read_their_sizes_and_rows_from_the_parent(no_dense_counts):
    # a view's sizes come from its parent: reading them, or a row, neither copies
    # the Brownian view's dW nor builds the parent's dense counts
    jumps = JumpModel(1.3, (-1.0, 0.25, 2.0), (0.2, 0.5, 0.3))
    p = sample_paths(TimeGrid(1.0, 16), jumps, 2_000, seed=43)
    ref = [p.increments_at(i) for i in range(16)]
    brownian = p.perturb_brownian(7, 1e-3)
    jump = p.with_extra_jump(7, 2)
    for view in (brownian, jump, jump.perturb_brownian(3, 1e-3)):
        assert (view.n_paths, view.n_steps) == (2_000, 16)
        for i in range(16):
            dw, counts = view.increments_at(i)
            assert dw.shape == (2_000,) and counts.shape == (2_000, 3)
            if view is brownian:
                assert _same_bits(counts, ref[i][1])
        assert "dW" not in vars(view)
    assert _same_bits(brownian.increments_at(7)[0], ref[7][0] + 1e-3)
    plus_one = ref[7][1].copy()
    plus_one[:, 2] += 1.0
    assert np.allclose(jump.increments_at(7)[1], plus_one, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("order", ["rows_first"])
@pytest.mark.parametrize("view", ["base", "brownian", "jump"])
def test_row_increments_hold_the_bits_of_the_whole_array(view, order):
    # a node's compensated jump row, read first, is built from its int16 counts by the
    # arithmetic of the whole (N, M, K) array, so it holds the same bits
    jumps = JumpModel(1.3, (-1.0, 0.25, 2.0), (0.2, 0.5, 0.3))
    p = sample_paths(TimeGrid(1.0, 12), jumps, 2_000, seed=47)
    bundle = {"base": p, "brownian": p.perturb_brownian(5, 1e-3),
              "jump": p.with_extra_jump(5, 1)}[view]
    rows = [bundle.increments_at(i)[1] for i in range(p.n_steps)]
    whole = compensated_counts(bundle)
    for i, row in enumerate(rows):
        assert _same_bits(row, whole[i])


@pytest.mark.parametrize("steps, n_paths, jumps", [
    (7, 300, JumpModel(0.9, (0.5,), (1.0,))),
    (16, 2_000, JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5))),
    (33, 4_100, JumpModel(1.3, (-1.0, 0.25, 2.0), (0.2, 0.5, 0.3))),
])
def test_jump_sum_is_the_cumsum_of_the_whole_array_bit_for_bit(steps, n_paths, jumps):
    # the running row sum adds the node increments in the order of the cumsum over
    # the whole array
    grid = TimeGrid(1.0, steps)
    p = sample_paths(grid, jumps, n_paths, seed=53)
    got = p.jump_sum
    ref = np.zeros((steps + 1, n_paths))
    np.cumsum(compensated_counts(sample_paths(grid, jumps, n_paths, seed=53)) @ jumps.mark_array,
              axis=0, out=ref[1:])
    assert _same_bits(got, ref)


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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_jump_integral_refuses_an_integrand_not_finite_on_the_grid(jump_paths64_small, bad):
    # not finite at one mark only
    with pytest.raises(ValueError, match=re.escape("integrand is not finite on the (node, mark) "
                                                   "grid")):
        compensated_jump_integral(jump_paths64_small, lambda t, z: np.where(z > 0, bad, t))


def test_jump_integral_martingale(grid64, marks_pm1):
    paths = sample_paths(grid64, marks_pm1, 100_000, seed=11)
    out = compensated_jump_integral(paths, lambda t, z: z + 0.0 * t)
    _, se = monte_carlo_estimate(out)
    assert abs(out.mean()) <= 3.0 * se
