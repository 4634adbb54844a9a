"""Hamiltonian evaluation, control maximization, and optimality checks.

The Hamiltonian of the control problem splits into a local part h0
(diagonal kernel values weighted by the adjoint triple) and a memory part
h1 (forward integrals of the d/dt kernel partials weighted by the future
adjoint values and the conditional Malliavin fields). `hamiltonian_terms`
builds the additive terms of H, dH/dx and dH/du alike. Stationarity of the
conditional control-gradient E[dH/du | G_t] at a candidate control is the
necessary optimality condition; the Gateaux check verifies the underlying
derivative identity dJ/d(lambda) = E[int dH/du beta dt] by brute force.

The checks take one solved adjoint (triple, field): the triple carries the
run, model and performance functional it was solved for, so no check can pair
it with another run's states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .grids import PathBundle, interior_nodes
from .malliavin import (Feature, IdentityReport, RegressionBasis, conditional_expectation,
                        default_features)
from .models import CoefficientModel, InfoMode, PerformanceSpec
from .volterra import (
    StateEnsemble,
    decay_weights,
    integral_form_rows,
    memory_sums,
    monte_carlo_estimate,
    noise_sums,
    performance_paths,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def mark_measure_sum(kernel, jumps, t, s, x, v, r) -> np.ndarray:
    """intensity sum_k w_k kernel(t, s, x, v, z_k) r_k, per path: a jump kernel
    integrated against the mark measure, with r the per-mark values, (..., K)."""
    g = kernel(t, s, None if x is None else np.asarray(x)[..., None],
               np.asarray(v)[..., None], jumps.mark_array[None, :])
    g, r = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(r, dtype=float))
    return np.einsum("...k,k,...k->...", g, jumps.intensity * jumps.weight_array, r)


def hamiltonian_terms(model: CoefficientModel, spec: PerformanceSpec, jumps, t, x, v,
                      p, q, r, partial: str = "", memory=None, p_sums=None) -> list:
    """The additive terms of H (partial ""), dH/dx ("_dx") or dH/du ("_dv") at time t.

    The local terms put every kernel on the diagonal (t, t):
    running<partial>(t, x, v), drift<partial> p, diffusion<partial> q and,
    with active jumps, intensity sum_k w_k jump<partial>(t, t, x, v, z_k) r_k.
    `memory = (paths, i, p_all, field)`, with t node i of paths, appends the
    memory terms (`memory_terms`, which takes `p_sums`). The kernels get None
    for the state x when the model is x-independent.
    """
    kx = None if model.x_independent else x
    terms = [np.asarray(getattr(spec, "running" + partial)(t, x, v), dtype=float),
             getattr(model, "drift" + partial)(t, t, kx, v) * p,
             getattr(model, "diffusion" + partial)(t, t, kx, v) * q]
    if jumps.active:
        terms.append(mark_measure_sum(getattr(model, "jump" + partial), jumps, t, t, kx, v, r))
    if memory is not None:
        paths, i, p_all, field = memory
        terms += memory_terms(model, partial, paths, i, x, v, p_all, field, p_sums)
    return terms


def memory_terms(model: CoefficientModel, partial: str, paths: PathBundle, i: int, x, v,
                 p: np.ndarray, field, p_sums=None) -> list:
    """The memory terms of H<partial> at node i: `forward_terms` of the d/dt kernel
    partials ("_dt", "_dtdx" or "_dtdv"), weighted by p and the Malliavin field.

    There are none at i = N, for time-invariant kernels, and for "_dx" on an
    x-independent model, where every such term is zero.
    """
    if i >= paths.n_steps or model.time_invariant_kernels \
            or (partial == "_dx" and model.x_independent):
        return []
    return forward_terms(model, "_dt" + partial[1:], paths, i,
                         None if model.x_independent else x, v, p, field, p_sums)


def eval_h0(model: CoefficientModel, spec: PerformanceSpec, jumps, t, x, v,
            p, q, r) -> np.ndarray:
    """Local Hamiltonian f + b(t,t,x,v) p + sigma(t,t,x,v) q + jump term.

    No stage calls it; it is kept as acceptance-oracle API (criterion 07, the reduced
    Hamiltonian against H0 + H1)."""
    return np.asarray(sum(hamiltonian_terms(model, spec, jumps, t, x, v, p, q, r)), dtype=float)


def eval_h1(model: CoefficientModel, paths: PathBundle, i: int, x, v,
            p: np.ndarray, field) -> np.ndarray:
    """Memory Hamiltonian at node i: forward sums of the d/dt kernel partials.

    No stage calls it; it is kept as acceptance-oracle API (criterion 07)."""
    return sum(memory_terms(model, "", paths, i, x, v, p, field), np.zeros(paths.n_paths))


def forward_terms(model: CoefficientModel, suffix: str, paths: PathBundle, i: int, x, v,
                  p: np.ndarray, field, p_sums=None) -> list:
    """The forward kernel sums at node i, one (M,) array per kernel.

    sum_{j>i} [k_b(t_j,t_i,x,v) p_j, k_sigma(t_j,t_i,x,v) Dp[i][j] and (with
    jumps) intensity sum_k w_k k_gamma(t_j,t_i,x,v,z_k) Djp[i][j][k]] dt, with
    k_* = model.<kernel><suffix> and the rows from field.dp_rows(i) and
    field.djump_rows(i).

    A kernel with a declared decay lambda has k(t_j,t_i,.) = e^{-lambda (t_j -
    t_i)} k(t_i,t_i,.), so its sum is k(t_i,t_i,.) times the rows weighted by
    e^{-lambda (t_j - t_i)}, which the field sums without building them
    (`field.weighted_rows(i, lambda)`), and the drift's sum is k(t_i,t_i,.)
    times p_sums(i, lambda) = sum_{j>i} e^{-lambda (t_j - t_i)} p_j, kept by
    the solved adjoint (`AdjointTriple.p_sums`), or the weighted product over
    the rows of p without `p_sums`. A kernel without one sums its rows.
    """
    t, dt, jumps = paths.grid.nodes, paths.grid.dt, paths.jumps
    n_j, m = paths.n_steps - i, paths.n_paths
    s_f = t[i + 1:, None]

    def kernel(name):
        return getattr(model, name + suffix), model.decay(name)

    def row_sum(k, later_rows):
        return np.einsum("jm,jm->m", np.broadcast_to(
            np.asarray(k(s_f, t[i], x, v), dtype=float), (n_j, m)), later_rows) * dt

    kb, lam = kernel("drift")
    if lam is None:
        terms = [row_sum(kb, p[i + 1:])]
    else:
        later = decay_weights(t, i, lam) @ p[i + 1:] if p_sums is None else p_sums(i, lam)
        terms = [kb(t[i], t[i], x, v) * later * dt]
    ks, lam = kernel("diffusion")
    terms.append(row_sum(ks, field.dp_rows(i)[i + 1:]) if lam is None
                 else ks(t[i], t[i], x, v) * field.weighted_rows(i, lam) * dt)
    if jumps.active:
        kg, lam = kernel("jump")
        if lam is None:
            g = np.asarray(kg(s_f[:, :, None], t[i],
                              None if x is None else np.asarray(x)[None, :, None],
                              np.asarray(v)[None, ..., None], jumps.mark_array[None, None, :]),
                           dtype=float)
            terms.append(np.einsum("jmk,k,jmk->m", np.broadcast_to(g, (n_j, m, jumps.n_marks)),
                                   jumps.intensity * jumps.weight_array,
                                   field.djump_rows(i)[i + 1:]) * dt)
        else:
            terms.append(mark_measure_sum(kg, jumps, t[i], t[i], x, v,
                                          field.weighted_rows(i, lam, jump=True)) * dt)
    return terms


def eval_h0_reduced(model: CoefficientModel, spec: PerformanceSpec, paths: PathBundle,
                    i: int, v, terminal_prime: np.ndarray,
                    d_terminal: np.ndarray, d_terminal_jump: np.ndarray) -> np.ndarray:
    """Reduced Hamiltonian for x-independent coefficients.

    Folding the forward kernel integrals into the diagonal moves every kernel
    to first argument T:
    f(t,.,v) + b(T,t,v) g'(X_T) + sigma(T,t,v) E[D_t g'(X_T)|F_t]
    + intensity sum_k w_k gamma(T,t,v,z_k) E[D_{t,z_k} g'(X_T)|F_t].

    The fold, like the explicit adjoint, holds for f_x = 0 only, and f is read with no
    state: a spec whose `running_dx` is non-zero at its check samples is refused.

    No stage calls it; it is kept as acceptance-oracle API (criterion 07).
    """
    if not model.x_independent:
        raise ConfigurationError("reduced Hamiltonian requires an x-independent model")
    if spec.running_reads_x():
        raise ConfigurationError("reduced Hamiltonian requires spec.running_dx = 0, the "
                                 "driver dH/dx of an x-independent model")
    t = paths.grid.nodes
    T = t[-1]
    jumps = paths.jumps
    out = np.asarray(spec.running(t[i], None, v), dtype=float) \
        + model.drift(T, t[i], None, v) * terminal_prime \
        + model.diffusion(T, t[i], None, v) * d_terminal
    if jumps.active:
        out = out + mark_measure_sum(model.jump, jumps, T, t[i], None, v, d_terminal_jump)
    return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# Control maximization
# ---------------------------------------------------------------------------

@dataclass
class MaximizeResult:
    argmax: float
    value: float
    boundary: bool


def maximize_control(objective: Callable[[float], float],
                     bounds: tuple[float, float]) -> MaximizeResult:
    """Maximize a scalar objective over a bounded control interval.

    A 64-point grid scan locates the best cell, golden-section search refines
    it to |bounds| * 1e-6. Ties break toward the smaller control value;
    the boundary flag is set when the argmax sits at an interval endpoint.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ConfigurationError(f"empty control interval {bounds}")
    grid = np.linspace(lo, hi, 64)
    vals = np.array([objective(v) for v in grid], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("objective is not finite on the control grid")
    best = int(np.argmax(vals))  # first index wins ties -> smallest v
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    tol = (hi - lo) * 1e-6
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > tol:
        if fc >= fd:  # >= pushes ties left
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    v_star = 0.5 * (a + b)
    candidates = [(objective(v_star), v_star), (vals[best], grid[best])]
    f_best, v_best = max(candidates, key=lambda pair: (pair[0], -pair[1]))
    boundary = v_best <= lo + tol or v_best >= hi - tol
    if boundary:
        v_best = lo if abs(v_best - lo) < abs(v_best - hi) else hi
        f_best = objective(v_best)
    return MaximizeResult(argmax=float(v_best), value=float(f_best), boundary=bool(boundary))


# ---------------------------------------------------------------------------
# Variation process and derivative checks
# ---------------------------------------------------------------------------

@dataclass
class VariationEnsemble:
    """First-variation process of the state along a control perturbation."""

    values: np.ndarray  # (N+1, M)
    beta: np.ndarray    # (N, M)


def perturbation_window(grid_steps: int, start: int, width: int,
                        alpha=1.0) -> np.ndarray:
    """Bump direction alpha * 1_{[t_start, t_start+width)} on the node grid."""
    beta = np.zeros(grid_steps)
    beta[start:start + width] = 1.0
    return beta * alpha


def simulate_variation(model: CoefficientModel, beta, states: StateEnsemble) -> VariationEnsemble:
    """Forward Euler of the linear variation dynamics of the run `states` along beta.

    The recursion mirrors the differential form of the state equation with
    every kernel replaced by its state/control gradient: each step adds the
    one-row noise sums of the _dx and _dv partials, weighted by y and beta,
    and dt times the memory sums of the mixed d/dt second partials, whose
    history sums decay at the kernels' declared rates (see
    `volterra.memory_sums`).
    """
    paths = states.paths
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    t = paths.grid.nodes
    beta = np.asarray(beta, dtype=float)
    beta_mat = np.broadcast_to(beta if beta.ndim == 2 else beta[:, None], (n, m))
    x, u = None if model.x_independent else states.values, states.controls

    y = np.zeros((n + 1, m))
    memory = memory_sums(model, paths, x, u, parts=(("_dtdx", y), ("_dtdv", beta_mat)))
    local = noise_sums(model, paths, x, u, parts=(("_dx", y), ("_dv", beta_mat))).values()
    for i in range(n):
        y[i + 1] = y[i] + (memory(i) * dt if i > 0 else 0.0) \
            + sum(step(t[i], slice(i, i + 1)) for step in local)
    return VariationEnsemble(values=y, beta=beta_mat)


def control_gradient(triple, field, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path dH/du at node i of the triple's run and the RSS magnitude of its additive terms.

    The second array is the path-wise root-sum-square of the individual
    terms, used as the cancellation scale for stationarity statistics.
    """
    m = triple.states.paths.n_paths
    first, *rest = triple.terms(field, i, triple.states.control_at(i), "_dv")
    total = np.array(np.broadcast_to(first, (m,)), dtype=float)
    squares = total ** 2
    for term in rest:   # in term order, as an axis-0 sum of the stacked terms adds them
        total += term
        squares += term ** 2
    return total, np.sqrt(squares)


@dataclass
class StationarityReport:
    """Per-node conditional control-gradient statistics.

    normalized[i] = RMS of E[dH/du | G_{t_i}] over paths divided by the RMS
    of the root-sum-square of the gradient's additive terms: a scale-free
    measure of how completely the terms cancel after conditioning.
    """

    nodes: np.ndarray
    conditional_rms: np.ndarray
    scale: np.ndarray
    normalized: np.ndarray

    def max_interior(self) -> float:
        """Largest normalized statistic over the `interior_nodes` of the N nodes checked."""
        return float(np.max(self.normalized[interior_nodes(len(self.normalized))]))


def check_stationarity(triple, field, info: InfoMode | None = None,
                       basis: RegressionBasis | None = None,
                       features: Sequence[Feature] | None = None) -> StationarityReport:
    """Conditional stationarity check E[dH/du | G_t] = 0 along the triple's run, on
    `features` (by default `default_features` with the run's state)."""
    paths = triple.states.paths
    n = paths.n_steps
    if features is None:
        features = default_features(paths, triple.states.values)
    cond, scale = np.zeros(n), np.zeros(n)
    for i in range(n):
        grad, rss = control_gradient(triple, field, i)
        fitted = conditional_expectation(grad, i, paths, basis, features=features, info=info)
        cond[i] = float(np.sqrt(np.mean(fitted ** 2)))
        scale[i] = float(np.sqrt(np.mean(rss ** 2)))
    normalized = cond / np.maximum(scale, 1e-300)
    return StationarityReport(nodes=paths.grid.nodes[:n], conditional_rms=cond,
                              scale=scale, normalized=normalized)


@dataclass
class MaximumConditionRow:
    node: int
    t: float
    argmax_conditional: float
    argmax_pathwise: float
    margin: float


def maximum_condition_check(triple, field, nodes: Sequence[int], v_grid,
                            info: InfoMode | None = None,
                            basis: RegressionBasis | None = None,
                            features: Sequence[Feature] | None = None
                            ) -> list[MaximumConditionRow]:
    """Check the conditional maximum condition on a control grid along the triple's run.

    For each requested node the Hamiltonian is evaluated on a grid of
    control values and at the control in force, conditioned on the
    observable information (condition first, then maximize); the margin is
    how far the conditional sup beats the control in force. The pathwise
    variant (maximize before conditioning) is reported alongside as a
    diagnostic; whether the two orders agree in the discretization is an
    open numerical question, so both are surfaced.
    """
    states = triple.states
    paths = states.paths
    v_grid = np.asarray(v_grid, dtype=float)
    if features is None:
        features = default_features(paths, states.values)
    rows = []
    for i in nodes:
        surface = np.empty((len(v_grid) + 1, paths.n_paths))   # the last row: at the control
        for pos, v in enumerate((*v_grid, states.controls[i])):
            surface[pos] = sum(triple.terms(field, i, v))
        conditioned = conditional_expectation(surface.T, i, paths, basis, features=features,
                                              info=info).T
        argmax_cond = v_grid[np.argmax(conditioned[:-1], axis=0)]
        argmax_path = v_grid[np.argmax(surface[:-1], axis=0)]
        rows.append(MaximumConditionRow(
            node=i, t=float(paths.grid.nodes[i]), argmax_conditional=float(argmax_cond.mean()),
            argmax_pathwise=float(argmax_path.mean()),
            margin=float(np.mean(conditioned.max(axis=0) - conditioned[-1]))))
    return rows


# Bonferroni threshold for three windows tested together: Phi^-1(1 - Phi(-3) / 3). Each
# window runs at a third of the 3-sigma false-alarm rate, so the three together keep 0.27 %.
GATEAUX_WINDOWS_SIGMA = 3.3200752035216


# The step of the central difference dJ/d(lambda) = (J(+lambda) - J(-lambda)) / 2 lambda.
GATEAUX_STEP = 1e-3


def gateaux_check(triple, field, betas: Sequence,
                  rows=integral_form_rows) -> list[IdentityReport]:
    """Compare dJ/d(lambda) by finite differences (`lhs`) against E[int dH/du beta dt]
    (`rhs`), one report per direction beta in `betas`.

    Both sides run on the triple's path bundle (common random numbers). Each
    objective J(+-lambda) is summed off the row stream rows(model, control, paths)
    of the perturbed run, (X_i, u_i) in node order, as it is formed. The
    adjoint form reads each node's dH/du once, for every direction.
    """
    states, paths = triple.states, triple.states.paths
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt

    def performance(beta, step):
        run = rows(triple.model, states.control.perturbed(beta, step), paths)
        return performance_paths(triple.spec, paths, run)

    betas = [np.asarray(beta, dtype=float) for beta in betas]   # (N,) or per path (N, M)
    fd_paths = [(performance(b, +GATEAUX_STEP) - performance(b, -GATEAUX_STEP))
                / (2.0 * GATEAUX_STEP) for b in betas]
    adj_paths = [np.zeros(m) for _ in betas]
    for i in range(n):
        grad, _ = control_gradient(triple, field, i)
        for adj, beta in zip(adj_paths, betas):
            adj += grad * beta[i] * dt
    return [IdentityReport(*monte_carlo_estimate(fd), *monte_carlo_estimate(adj))
            for fd, adj in zip(fd_paths, adj_paths)]


@dataclass
class ArrowReport:
    """Numerical concavity spot check of the maximized Hamiltonian envelope."""

    x_grid: np.ndarray
    envelope: np.ndarray
    max_positive_curvature: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_positive_curvature <= self.tolerance


def arrow_spotcheck(kappa: Callable[[float, float], float], x_grid,
                    bounds: tuple[float, float]) -> ArrowReport:
    """Check concavity of x -> sup_v kappa(x, v) on a grid of state values.

    The envelope is computed with `maximize_control` per grid point; the
    report carries the largest positive second difference. Numerical
    evidence only, never a proof.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if len(x_grid) < 16:
        raise ConfigurationError("arrow spot check needs at least 16 state points")
    env = np.array([
        maximize_control(lambda v, xv=xv: float(kappa(xv, v)), bounds).value
        for xv in x_grid
    ])
    second = env[2:] - 2.0 * env[1:-1] + env[:-2]
    tol = 1e-6 * max(1.0, float(np.max(np.abs(env))))
    return ArrowReport(x_grid=x_grid, envelope=env,
                       max_positive_curvature=float(np.max(second)), tolerance=tol)
