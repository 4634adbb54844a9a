"""Time grids, jump models, and reproducible path ensembles.

All process arrays are time-major: Brownian increments have shape (N, M),
jump counts (N, M, K), cumulative paths (N+1, M). Path m of an ensemble is
a deterministic function of (seed, m) alone, so regenerating with a larger
or smaller path count reproduces the shared paths bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError

# Paths are generated in fixed-size blocks, one RNG stream per (seed, block).
# The block size is part of the reproducibility contract: changing it would
# reshuffle which stream a given path index draws from.
_BLOCK = 4096


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
        if not self.marks:
            return np.zeros(0)
        return self.intensity * self.weight_array * grid.dt


class PathBundle:
    """A seeded ensemble of Brownian increments and compound Poisson jump counts.

    Jump times are snapped to the left node of the interval they fall in,
    matching the left-point evaluation of the Euler schemes.
    """

    def __init__(self, grid: TimeGrid, jumps: JumpModel, dW: np.ndarray,
                 jump_counts: np.ndarray, seed: int | None):
        self.grid = grid
        self.jumps = jumps
        self.dW = dW                    # (N, M)
        self.jump_counts = jump_counts  # (N, M, K) small ints
        self.seed = seed

    @property
    def n_paths(self) -> int:
        return self.jump_counts.shape[1]

    @property
    def n_steps(self) -> int:
        return self.jump_counts.shape[0]

    @cached_property
    def brownian(self) -> np.ndarray:
        """Cumulative Brownian path B(t_i), shape (N+1, M)."""
        out = np.empty((self.n_steps + 1, self.n_paths))
        out[0] = 0.0
        np.cumsum(self.dW, axis=0, out=out[1:])
        return out

    @cached_property
    def compensated_counts(self) -> np.ndarray:
        """Jump counts minus their compensator, shape (N, M, K)."""
        out = self.jump_counts.astype(float)
        out -= self.jumps.compensator(self.grid)[None, None, :]  # in place: one (N, M, K) array
        return out

    @cached_property
    def jump_sum(self) -> np.ndarray:
        """Compensated mark-weighted jump path eta(t_i), shape (N+1, M)."""
        out = np.zeros((self.n_steps + 1, self.n_paths))
        if self.jumps.n_marks:
            inc = self.compensated_counts @ self.jumps.mark_array
            np.cumsum(inc, axis=0, out=out[1:])
        return out

    def increments_at(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Row `node` of dW, (M,), and of the compensated counts, (M, K).

        A perturbed view builds a perturbed row by itself, without
        materializing its whole arrays.
        """
        return self.dW[node], self.compensated_counts[node]

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
                          self.jump_counts[:, start:stop], seed=self.seed)

    def coarsen(self, factor: int) -> "PathBundle":
        """Aggregate increments onto a grid with N/factor steps (same paths)."""
        n = self.n_steps
        if factor < 1 or n % factor:
            raise ConfigurationError(f"cannot coarsen {n} steps by factor {factor}")
        dW = self.dW.reshape(n // factor, factor, self.n_paths).sum(axis=1)
        counts = self.jump_counts.reshape(
            n // factor, factor, self.n_paths, max(self.jumps.n_marks, 0)
        ).sum(axis=1)
        grid = TimeGrid(self.grid.horizon, n // factor)
        return PathBundle(grid, self.jumps, dW, counts.astype(self.jump_counts.dtype),
                          seed=self.seed)


class _BrownianPerturbedBundle(PathBundle):
    """Lazy view with one Brownian increment shifted; shares parent arrays."""

    def __init__(self, parent: PathBundle, node: int, bump: float):
        self.grid = parent.grid
        self.jumps = parent.jumps
        self.seed = parent.seed
        self.jump_counts = parent.jump_counts
        self._parent = parent
        self._node = node
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
    def compensated_counts(self) -> np.ndarray:  # type: ignore[override]
        return self._parent.compensated_counts

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


class _JumpPerturbedBundle(PathBundle):
    """Lazy view with one jump added at (node, mark); shares parent arrays."""

    def __init__(self, parent: PathBundle, node: int, mark: int):
        self.grid = parent.grid
        self.jumps = parent.jumps
        self.seed = parent.seed
        self.dW = parent.dW
        self._parent = parent
        self._node = node
        self._mark = mark

    @cached_property
    def jump_counts(self) -> np.ndarray:  # type: ignore[override]
        out = self._parent.jump_counts.copy()
        out[self._node, :, self._mark] += 1
        return out

    @property
    def n_paths(self) -> int:
        return self._parent.n_paths

    @property
    def n_steps(self) -> int:
        return self._parent.n_steps

    @cached_property
    def brownian(self) -> np.ndarray:
        return self._parent.brownian

    @cached_property
    def compensated_counts(self) -> np.ndarray:  # type: ignore[override]
        out = self._parent.compensated_counts.copy()
        out[self._node] = self.increments_at(self._node)[1]
        return out

    @cached_property
    def jump_sum(self) -> np.ndarray:
        out = self._parent.jump_sum.copy()
        out[self._node + 1:] += self.jumps.marks[self._mark]
        return out

    def increments_at(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        dw, counts = self._parent.increments_at(node)
        if node == self._node:
            # the parent's row with the touched slice redone by the base arithmetic
            mark = self._mark
            counts = counts.copy()
            counts[:, mark] = (self._parent.jump_counts[node, :, mark] + 1).astype(float)
            counts[:, mark] -= self.jumps.compensator(self.grid)[mark]
        return dw, counts

    def remark(self, new_mark: int) -> None:
        """Swap the inserted jump's mark, adjusting materialized arrays in place."""
        caches = self.__dict__
        if "jump_counts" in caches:
            caches["jump_counts"][self._node, :, self._mark] -= 1
            caches["jump_counts"][self._node, :, new_mark] += 1
        if "compensated_counts" in caches:
            del caches["compensated_counts"]
        if "jump_sum" in caches:
            delta = self.jumps.marks[new_mark] - self.jumps.marks[self._mark]
            caches["jump_sum"][self._node + 1:] += delta
        self._mark = new_mark


def sample_paths(grid: TimeGrid, jumps: JumpModel, n_paths: int, seed: int) -> PathBundle:
    """Draw a PathBundle of `n_paths` Brownian/compound-Poisson paths.

    Generation runs block-by-block with one RNG stream per (seed, block),
    so path m depends only on (seed, m) and subsets are reproducible.
    """
    if n_paths < 1:
        raise ConfigurationError(f"need at least one path, got {n_paths}")
    n, dt = grid.steps, grid.dt
    k = jumps.n_marks
    dW = np.empty((n, n_paths))
    counts = np.zeros((n, n_paths, k), dtype=np.int16)
    cum_w = np.cumsum(jumps.weight_array) if k else None
    sqrt_dt = np.sqrt(dt)
    for start in range(0, n_paths, _BLOCK):
        width = min(_BLOCK, n_paths - start)
        rng = np.random.default_rng(np.random.SeedSequence((seed, start // _BLOCK)))
        # Draw order is fixed: normals, Poisson counts, jump times, jump marks.
        z = rng.standard_normal((_BLOCK, n))
        dW[:, start:start + width] = sqrt_dt * z[:width].T
        if k and jumps.intensity > 0.0:
            # Jump times and marks are drawn for the whole block regardless of
            # how many of its paths are kept, so trimming preserves streams.
            per_path = rng.poisson(jumps.intensity * grid.horizon, _BLOCK)
            total = int(per_path.sum())
            if total:
                node_idx = np.minimum((rng.random(total) * n).astype(np.int64), n - 1)
                mark_idx = np.minimum(np.searchsorted(cum_w, rng.random(total)), k - 1)
                path_idx = np.repeat(np.arange(_BLOCK), per_path)
                keep = path_idx < width
                np.add.at(counts, (node_idx[keep], start + path_idx[keep], mark_idx[keep]), 1)
    return PathBundle(grid, jumps, dW, counts, seed=seed)


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
    return np.einsum("imk,ik->m", paths.compensated_counts, ftz)
