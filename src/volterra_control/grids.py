"""Time grids, jump models, and reproducible path ensembles.

All process arrays are time-major: Brownian increments have shape (N, M),
cumulative paths (N+1, M), and the jumps are a list of events sorted by node
(`JumpEvents`), read a node's row at a time (`PathBundle.increments_at`).
Path m of an ensemble is a deterministic function of (seed, m) alone, so
regenerating with a larger or smaller path count reproduces the shared
paths bit-exactly. The path blocks are drawn on every usable CPU, and the
bits do not depend on how many there are.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError

# Paths are generated in fixed-size blocks, one RNG stream per (seed, block).
# The block size is part of the reproducibility contract: changing it would
# reshuffle which stream a given path index draws from.
_BLOCK = 4096
# Normals per draw of each sampling worker, about 1 MB of float64: a block's
# whole (_BLOCK, N) draw would raise the peak memory of sampling by 32 KB per
# step. Not split over the workers: freeing a 1 MB buffer lifts glibc's mmap
# threshold past the (M,) temporaries that follow at M = 1e5, which half of it
# left mapped afresh, about 30 ms more at N = 64.
_DRAW = 1 << 17


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = T."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ConfigurationError(f"need at least 2 steps, got {self.steps}")
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node times t_0 .. t_N, shape (N+1,)."""
        return np.linspace(0.0, self.horizon, self.steps + 1)


def interior_nodes(steps: int) -> slice:
    """The nodes t_i = iT/N of [T/4, 3T/4] on an N-step grid: i from ceil(N/4) to floor(3N/4)."""
    return slice(-(-steps // 4), 3 * steps // 4 + 1)


@dataclass(frozen=True)
class JumpModel:
    """Finite-activity compound Poisson noise with a discrete mark set.

    The Levy measure is approximated by intensity * sum_k weight_k * delta(mark_k),
    so every mark integral in the solvers is an exact finite sum.
    """

    intensity: float
    marks: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        if self.intensity < 0.0:
            raise ConfigurationError(f"jump intensity must be >= 0, got {self.intensity}")
        if len(self.marks) != len(self.weights):
            raise ConfigurationError("marks and weights must have equal length")
        if self.intensity > 0.0 and not self.marks:
            raise ConfigurationError("positive intensity requires a non-empty mark set")
        if self.marks:
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0.0):
                raise ConfigurationError("all mark weights must be positive")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ConfigurationError(f"mark weights must sum to 1, got {w.sum()!r}")
            if np.any(np.asarray(self.marks) == 0.0):
                raise ConfigurationError("marks must be non-zero")

    @classmethod
    def none(cls) -> "JumpModel":
        return cls(intensity=0.0)

    @property
    def active(self) -> bool:
        """True when jumps occur; a positive intensity always comes with marks."""
        return self.intensity > 0.0

    @property
    def n_marks(self) -> int:
        return len(self.marks)

    @property
    def mark_array(self) -> np.ndarray:
        return np.asarray(self.marks, dtype=float)

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def compensator(self, grid: TimeGrid) -> np.ndarray:
        """Expected jump count per interval and mark: intensity * w_k * dt, shape (K,)."""
        return self.intensity * self.weight_array * grid.dt


@dataclass(frozen=True)
class JumpEvents:
    """The jumps of an ensemble as a list sorted by node.

    Node i's jumps are the entries node_ptr[i]:node_ptr[i + 1] of `path` (the
    path index of each jump) and `mark` (its mark index). A (node, path, mark)
    cell that holds two jumps has two entries.
    """

    node_ptr: np.ndarray  # (N+1,)
    path: np.ndarray
    mark: np.ndarray

    @classmethod
    def of_triples(cls, steps: int, node: np.ndarray, path: np.ndarray,
                   mark: np.ndarray) -> "JumpEvents":
        """The events of (node, path, mark) triples in any order."""
        node_ptr = np.zeros(steps + 1, dtype=np.intp)
        np.cumsum(np.bincount(node, minlength=steps), out=node_ptr[1:])
        order = np.argsort(node, kind="stable")
        return cls(node_ptr, path[order], mark[order])

    @classmethod
    def of_counts(cls, counts: np.ndarray) -> "JumpEvents":
        """The events of dense (N, M, K) jump counts."""
        cells = np.nonzero(counts)
        repeats = counts[cells]
        return cls.of_triples(counts.shape[0], *(np.repeat(a, repeats) for a in cells))

    @classmethod
    def none(cls, steps: int) -> "JumpEvents":
        """No jumps on a grid of `steps` steps."""
        return cls.of_triples(steps, *[np.empty(0, dtype=np.intp)] * 3)

    def dense(self, n_paths: int, n_marks: int, dtype=np.int16) -> np.ndarray:
        """The (N, M, K) jump counts."""
        steps = len(self.node_ptr) - 1
        out = np.zeros((steps, n_paths, n_marks), dtype=dtype)
        nodes = np.repeat(np.arange(steps), np.diff(self.node_ptr))
        np.add.at(out, (nodes, self.path, self.mark), 1)
        return out

    def row(self, node: int, n_paths: int, n_marks: int) -> np.ndarray:
        """Node `node`'s jump counts as floats, (M, K)."""
        at = slice(self.node_ptr[node], self.node_ptr[node + 1])
        out = np.zeros((n_paths, n_marks))
        np.add.at(out, (self.path[at], self.mark[at]), 1.0)
        return out

    def subset(self, start: int, stop: int) -> "JumpEvents":
        """The jumps of the paths in [start, stop), renumbered from 0."""
        keep = (self.path >= start) & (self.path < stop)
        kept = np.zeros(len(self.path) + 1, dtype=np.intp)
        np.cumsum(keep, out=kept[1:])
        return JumpEvents(kept[self.node_ptr], self.path[keep] - start, self.mark[keep])

    def coarsen(self, factor: int) -> "JumpEvents":
        """The same jumps with node i moved to node i // factor."""
        return JumpEvents(self.node_ptr[::factor], self.path, self.mark)


class PathBundle:
    """A seeded ensemble of Brownian increments and compound Poisson jumps.

    Jump times are snapped to the left node of the interval they fall in,
    matching the left-point evaluation of the Euler schemes.

    The jumps are held as their list of events, `JumpEvents`, alone. Every
    reader of the noise takes one node's increments, `increments_at(node)`,
    whose compensated counts are built from that node's events; no float
    (N, M, K) array is formed, and the dense int16 `jump_counts` is formed
    when read and not kept.

    The constructor's `jump_counts` is the dense (N, M, K) counts, converted
    to events once, or the events themselves.
    """

    def __init__(self, grid: TimeGrid, jumps: JumpModel, dW: np.ndarray,
                 jump_counts: np.ndarray | JumpEvents, seed: int | None):
        self.grid = grid
        self.jumps = jumps
        self.dW = dW                    # (N, M)
        self.events = jump_counts if isinstance(jump_counts, JumpEvents) \
            else JumpEvents.of_counts(jump_counts)
        self.seed = seed

    @property
    def n_paths(self) -> int:
        return self.dW.shape[1]

    @property
    def n_steps(self) -> int:
        return self.grid.steps

    @property
    def jump_counts(self) -> np.ndarray:
        """The dense (N, M, K) int16 jump counts, formed on each read."""
        return self.events.dense(self.n_paths, self.jumps.n_marks)

    @cached_property
    def brownian(self) -> np.ndarray:
        """Cumulative Brownian path B(t_i), shape (N+1, M)."""
        out = np.empty((self.n_steps + 1, self.n_paths))
        out[0] = 0.0
        np.cumsum(self.dW, axis=0, out=out[1:])
        return out

    @cached_property
    def jump_sum(self) -> np.ndarray:
        """Compensated mark-weighted jump path eta(t_i), shape (N+1, M).

        A running sum over the node rows, in the order a cumsum adds them.
        """
        out = np.zeros((self.n_steps + 1, self.n_paths))
        if self.jumps.n_marks:
            marks = self.jumps.mark_array
            for i in range(self.n_steps):
                np.add(out[i], self.increments_at(i)[1] @ marks, out=out[i + 1])
        return out

    def increments_at(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Row `node` of dW, (M,), and of the compensated counts, (M, K), the
        latter a new array built from the node's events. A perturbed view builds
        a perturbed row from its parent's, without materializing its whole arrays.
        """
        return self.dW[node], self._compensated(self._counts_at(node))

    def _counts_at(self, node: int) -> np.ndarray:
        """Node `node`'s jump counts as floats, (M, K), a new array."""
        return self.events.row(node, self.n_paths, self.jumps.n_marks)

    def _compensated(self, counts: np.ndarray) -> np.ndarray:
        for k, nu in enumerate(self.jumps.compensator(self.grid)):
            counts[:, k] -= nu   # a mark at a time: 4x faster than broadcasting K-long rows
        return counts

    def perturb_brownian(self, node: int, bump: float) -> "PathBundle":
        """View of the bundle with the node-th Brownian increment shifted by `bump`.

        Derived arrays are materialized lazily and reuse the parent's caches,
        so functionals that only touch the cumulative path never pay for an
        increment copy.
        """
        return _BrownianPerturbedBundle(self, node, bump)

    def with_extra_jump(self, node: int, mark: int) -> "PathBundle":
        """View of the bundle with one jump of mark index `mark` inserted at node.

        The compensator is left untouched: this is the raw add-one-jump
        perturbation used by the jump derivative.
        """
        if not (0 <= mark < self.jumps.n_marks):
            raise ConfigurationError(f"mark index {mark} out of range")
        return _JumpPerturbedBundle(self, node, mark)

    def subset(self, start: int, stop: int) -> "PathBundle":
        """Bundle restricted to the path range [start, stop)."""
        if not 0 <= start < stop <= self.n_paths:
            raise ConfigurationError(f"invalid path range [{start}, {stop})")
        return PathBundle(self.grid, self.jumps, self.dW[:, start:stop],
                          self.events.subset(start, stop), seed=self.seed)

    def coarsen(self, factor: int) -> "PathBundle":
        """Aggregate increments onto a grid with N/factor steps (same paths)."""
        n = self.n_steps
        if factor < 1 or n % factor:
            raise ConfigurationError(f"cannot coarsen {n} steps by factor {factor}")
        dW = self.dW.reshape(n // factor, factor, self.n_paths).sum(axis=1)
        grid = TimeGrid(self.grid.horizon, n // factor)
        return PathBundle(grid, self.jumps, dW, self.events.coarsen(factor), seed=self.seed)


class _PerturbedView(PathBundle):
    """Lazy view of a parent bundle with one increment changed at `node`; its sizes,
    and the arrays it does not change, are the parent's."""

    def __init__(self, parent: PathBundle, node: int):
        self.grid = parent.grid
        self.jumps = parent.jumps
        self.seed = parent.seed
        self._parent = parent
        self._node = node

    @property
    def n_paths(self) -> int:
        return self._parent.n_paths

    @property
    def jump_counts(self) -> np.ndarray:
        return self._parent.jump_counts

    def _counts_at(self, node: int) -> np.ndarray:
        return self._parent._counts_at(node)


class _BrownianPerturbedBundle(_PerturbedView):
    """Lazy view with one Brownian increment shifted; shares parent arrays."""

    def __init__(self, parent: PathBundle, node: int, bump: float):
        super().__init__(parent, node)
        self._bump = bump
        # every shift applied, in order: an array materialized after a rebump
        # holds the bits of one materialized before it and adjusted in place
        self._shifts = [bump]

    @cached_property
    def dW(self) -> np.ndarray:  # type: ignore[override]
        out = self._parent.dW.copy()
        out[self._node] = self.increments_at(self._node)[0]
        return out

    @cached_property
    def brownian(self) -> np.ndarray:
        out = self._parent.brownian.copy()
        for shift in self._shifts:
            out[self._node + 1:] += shift
        return out

    @cached_property
    def jump_sum(self) -> np.ndarray:
        return self._parent.jump_sum

    def increments_at(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        dw, counts = self._parent.increments_at(node)
        if node == self._node:
            dw = dw.copy()
            for shift in self._shifts:
                dw += shift
        return dw, counts

    def rebump(self, new_bump: float) -> None:
        """Move the shift to `new_bump`, adjusting materialized arrays in place.

        Central differences reuse one perturbed view for both signs, halving
        the array-copy traffic of every derivative evaluation.
        """
        delta = new_bump - self._bump
        caches = self.__dict__
        if "dW" in caches:
            caches["dW"][self._node] += delta
        if "brownian" in caches:
            caches["brownian"][self._node + 1:] += delta
        self._bump = new_bump
        self._shifts.append(delta)


class _JumpPerturbedBundle(_PerturbedView):
    """Lazy view with one jump added at (node, mark) on every path; shares parent arrays."""

    def __init__(self, parent: PathBundle, node: int, mark: int):
        super().__init__(parent, node)
        self._mark = mark

    @property
    def dW(self) -> np.ndarray:  # type: ignore[override]
        return self._parent.dW

    @property
    def jump_counts(self) -> np.ndarray:
        out = self._parent.jump_counts
        out[self._node, :, self._mark] += 1
        return out

    @cached_property
    def brownian(self) -> np.ndarray:
        return self._parent.brownian

    @cached_property
    def jump_sum(self) -> np.ndarray:
        out = self._parent.jump_sum.copy()
        out[self._node + 1:] += self.jumps.marks[self._mark]
        return out

    def increments_at(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        if node != self._node:
            return self._parent.increments_at(node)
        # the parent's counts with the added jump, compensated by the base arithmetic
        return self.dW[node], self._compensated(self._counts_at(node))

    def _counts_at(self, node: int) -> np.ndarray:
        counts = self._parent._counts_at(node)
        if node == self._node:
            counts[:, self._mark] += 1.0
        return counts

    def remark(self, new_mark: int) -> None:
        """Swap the inserted jump's mark, adjusting materialized arrays in place."""
        caches = self.__dict__
        if "jump_sum" in caches:
            delta = self.jumps.marks[new_mark] - self.jumps.marks[self._mark]
            caches["jump_sum"][self._node + 1:] += delta
        self._mark = new_mark


def sample_paths(grid: TimeGrid, jumps: JumpModel, n_paths: int, seed: int) -> PathBundle:
    """Draw a PathBundle of `n_paths` Brownian/compound-Poisson paths.

    Generation runs block-by-block with one RNG stream per (seed, block),
    so path m depends only on (seed, m) and subsets are reproducible. Each
    block draws its normals first, so dW does not depend on the jump model.
    The blocks are drawn on every usable CPU, each into its own dW columns
    and jump slot, so the bits depend on neither the CPU count nor the thread
    schedule. The jumps are kept as drawn, (node, path, mark) triples, and
    sorted by node once.
    """
    if n_paths < 1:
        raise ConfigurationError(f"need at least one path, got {n_paths}")
    n, dt = grid.steps, grid.dt
    k = jumps.n_marks
    n_blocks = -(-n_paths // _BLOCK)
    workers = min(_usable_cpus(), n_blocks)
    dW = np.empty((n, n_paths))
    drawn = [(np.empty(0, dtype=np.intp),) * 3] * n_blocks   # each block's (node, path, mark)
    cum_w = np.cumsum(jumps.weight_array) if k else None
    sqrt_dt = np.sqrt(dt)
    rows = min(_BLOCK, max(1, _DRAW // n))

    def draw(block: int, z: np.ndarray) -> None:
        start = block * _BLOCK
        width = min(_BLOCK, n_paths - start)
        rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
        # Draw order is fixed: normals, Poisson counts, jump times, jump marks.
        # The block's normals are drawn `rows` paths at a time into the worker's
        # buffer, the same stream as one (_BLOCK, N) draw, and scaled straight
        # into dW. Paths past `width` are drawn and dropped.
        for a in range(0, _BLOCK, rows):
            chunk = z[:min(rows, _BLOCK - a)]
            rng.standard_normal(out=chunk)
            kept = chunk[:max(0, width - a)]
            np.multiply(kept.T, sqrt_dt, out=dW[:, start + a:start + a + len(kept)])
        if jumps.active:
            # Jump times and marks are drawn for the whole block regardless of
            # how many of its paths are kept, so trimming preserves streams.
            per_path = rng.poisson(jumps.intensity * grid.horizon, _BLOCK)
            total = int(per_path.sum())
            if total:
                node_idx = np.minimum((rng.random(total) * n).astype(np.int64), n - 1)
                mark_idx = np.minimum(np.searchsorted(cum_w, rng.random(total)), k - 1)
                path_idx = np.repeat(np.arange(_BLOCK), per_path)
                keep = path_idx < width
                drawn[block] = (node_idx[keep], start + path_idx[keep], mark_idx[keep])

    errors: list[Exception | None] = [None] * workers

    def work(w: int) -> None:
        try:
            z = np.empty((rows, n))
            for block in range(w, n_blocks, workers):
                draw(block, z)
        except Exception as exc:  # raised in the caller once every worker has joined
            errors[w] = exc

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if any(errors):
        raise next(filter(None, errors))
    return PathBundle(grid, jumps, dW, JumpEvents.of_triples(n, *map(np.concatenate, zip(*drawn))),
                      seed=seed)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def compensated_jump_integral(paths: PathBundle,
                              f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Discrete compensated jump integral of a deterministic mark-time function.

    Returns, per path, sum over jumps of f(t_jump, mark) minus the compensator
    sum intensity * dt * sum_k w_k f(t_i, mark_k). Expectation over paths is 0
    for deterministic f.

    Parameters
    ----------
    paths : PathBundle
    f : callable (t, mark) -> value, numpy-broadcastable.
    """
    k = paths.jumps.n_marks
    if k == 0:
        return np.zeros(paths.n_paths)
    t_left = paths.grid.nodes[:-1]
    ftz = np.asarray(f(t_left[:, None], paths.jumps.mark_array[None, :]), dtype=float)
    ftz = np.broadcast_to(ftz, (paths.n_steps, k))
    if not np.all(np.isfinite(ftz)):
        raise ValueError("integrand is not finite on the (node, mark) grid")
    return compensated_jump_sum(paths, ftz[:, None, :])


def compensated_jump_sum(paths: PathBundle, psi: np.ndarray) -> np.ndarray:
    """Per path, sum_i sum_k psi[i, m, k] dN~[i, m, k] for psi broadcastable to (N, M, K).

    The sum runs node by node over `increments_at`, so no (N, M, K) array is
    formed, and a perturbed view adds its own perturbed row.
    """
    psi = np.broadcast_to(psi, (paths.n_steps, paths.n_paths, paths.jumps.n_marks))
    total = np.zeros(paths.n_paths)
    for i in range(paths.n_steps):
        total += np.einsum("mk,mk->m", psi[i], paths.increments_at(i)[1])
    return total
