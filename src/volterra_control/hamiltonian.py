"""Hamiltonian evaluation, control maximization, and optimality checks.

The Hamiltonian of the control problem splits into a local part h0
(diagonal kernel values weighted by the adjoint triple) and a memory part
h1 (forward integrals of the d/dt kernel partials weighted by the future
adjoint values and the conditional Malliavin fields). Stationarity of the
conditional control-gradient E[dH/du | G_t] at a candidate control is the
necessary optimality condition; the Gateaux check verifies the underlying
derivative identity dJ/d(lambda) = E[int dH/du beta dt] by brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .grids import PathBundle
from .malliavin import Feature, NodeRegression, RegressionBasis, default_features
from .models import CoefficientModel, ControlProcess, InfoMode, PerformanceSpec
from .reporting import write_csv
from .volterra import StateEnsemble, memory_sums, performance_paths, simulate_integral_form

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class HamiltonianEval:
    """Per-path Hamiltonian values at one node: local, memory, and their sum."""

    local: np.ndarray
    memory: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.local + self.memory


def eval_h0(model: CoefficientModel, spec: PerformanceSpec, jumps, t, x, v,
            p, q, r) -> np.ndarray:
    """Local Hamiltonian f + b(t,t,x,v) p + sigma(t,t,x,v) q + jump term.

    The jump term integrates gamma(t,t,x,v,z) r(z) against the mark measure:
    intensity * sum_k w_k gamma(...,z_k) r_k.
    """
    x_model = None if model.x_independent else x
    out = np.asarray(spec.running(t, x, v), dtype=float) \
        + model.drift(t, t, x_model, v) * p \
        + model.diffusion(t, t, x_model, v) * q
    if jumps.n_marks and jumps.intensity > 0.0:
        lw = jumps.intensity * jumps.weight_array
        g = model.jump(t, t, None if x_model is None else np.asarray(x_model)[..., None],
                       np.asarray(v)[..., None], jumps.mark_array[None, :])
        r_arr = np.asarray(r, dtype=float)
        if r_arr.ndim == 1:
            r_arr = r_arr[None, :]
        g2, r2 = np.broadcast_arrays(g, r_arr)
        out = out + np.einsum("...k,k->...", g2 * r2, lw)
    return np.asarray(out, dtype=float)


def forward_terms(model: CoefficientModel, suffix: str, paths: PathBundle, i: int, x, v,
                  p: np.ndarray, field, **rows) -> list:
    """The forward kernel sums at node i, one (M,) array per kernel.

    sum_{j>i} [k_b(t_j,t_i,x,v) p_j, k_sigma(t_j,t_i,x,v) Dp[i][j] and (with
    jumps) intensity sum_k w_k k_gamma(t_j,t_i,x,v,z_k) Djp[i][j][k]] dt, with
    k_* = model.<kernel><suffix> and the rows from field.dp_rows(i, **rows)
    and field.djump_rows(i, **rows).
    """
    t, dt, jumps = paths.grid.nodes, paths.grid.dt, paths.jumps
    n_j, m = paths.n_steps - i, paths.n_paths
    s_f = t[i + 1:, None]
    kb = np.asarray(getattr(model, "drift" + suffix)(s_f, t[i], x, v), dtype=float)
    terms = [np.einsum("jm,jm->m", np.broadcast_to(kb, (n_j, m)), p[i + 1:]) * dt]
    ks = np.asarray(getattr(model, "diffusion" + suffix)(s_f, t[i], x, v), dtype=float)
    terms.append(np.einsum("jm,jm->m", np.broadcast_to(ks, (n_j, m)),
                           field.dp_rows(i, **rows)[i + 1:]) * dt)
    if jumps.n_marks and jumps.intensity > 0.0:
        kg = np.asarray(getattr(model, "jump" + suffix)(
            s_f[:, :, None], t[i], None if x is None else np.asarray(x)[None, :, None],
            np.asarray(v)[None, ..., None], jumps.mark_array[None, None, :]), dtype=float)
        terms.append(np.einsum("jmk,k,jmk->m", np.broadcast_to(kg, (n_j, m, jumps.n_marks)),
                               jumps.intensity * jumps.weight_array,
                               field.djump_rows(i, **rows)[i + 1:]) * dt)
    return terms


def local_jump_term(kernel, paths: PathBundle, i: int, x, v, r) -> np.ndarray:
    """Local mark-measure term intensity sum_k w_k kernel(t_i,t_i,x,v,z_k) r_k, (M,)."""
    t, jumps = paths.grid.nodes[i], paths.jumps
    g = kernel(t, t, None if x is None else np.asarray(x)[..., None],
               np.asarray(v)[..., None], jumps.mark_array[None, :])
    return np.einsum("mk,k,mk->m", np.broadcast_to(g, (paths.n_paths, jumps.n_marks)),
                     jumps.intensity * jumps.weight_array, r)


def eval_h1(model: CoefficientModel, paths: PathBundle, i: int, x, v,
            p: np.ndarray, field) -> np.ndarray:
    """Memory Hamiltonian at node i: forward sums of d/dt kernel partials.

    sum_{j>i} [db/dt(t_j,t_i,x,v) p_j + dsigma/dt(t_j,t_i,x,v) Dp[i][j]
    + intensity sum_k w_k dgamma/dt(t_j,t_i,x,v,z_k) Djp[i][j][k]] dt,
    where Dp/Djp rows come from the Malliavin field of the adjoint.
    """
    if i >= paths.n_steps or model.time_invariant_kernels:
        return np.zeros(paths.n_paths)
    out, *rest = forward_terms(model, "_dt", paths, i, None if model.x_independent else x,
                               v, p, field)
    for term in rest:
        out += term
    return out


def eval_hamiltonian(model, spec, paths, i, x, v, triple, field) -> HamiltonianEval:
    """Local and memory Hamiltonian parts at node i, per path."""
    t = paths.grid.nodes[i]
    r_i = triple.r[i] if triple.r.shape[2] else np.zeros((paths.n_paths, 0))
    local = eval_h0(model, spec, paths.jumps, t, x, v, triple.p[i], triple.q[i], r_i)
    memory = eval_h1(model, paths, i, x, v, triple.p, field)
    return HamiltonianEval(local=np.broadcast_to(local, (paths.n_paths,)).astype(float),
                           memory=memory)


def eval_h0_reduced(model: CoefficientModel, spec: PerformanceSpec, paths: PathBundle,
                    i: int, v, terminal_prime: np.ndarray,
                    d_terminal: np.ndarray, d_terminal_jump: np.ndarray) -> np.ndarray:
    """Reduced Hamiltonian for x-independent coefficients.

    Folding the forward kernel integrals into the diagonal moves every kernel
    to first argument T:
    f(t,.,v) + b(T,t,v) g'(X_T) + sigma(T,t,v) E[D_t g'(X_T)|F_t]
    + intensity sum_k w_k gamma(T,t,v,z_k) E[D_{t,z_k} g'(X_T)|F_t].
    """
    if not model.x_independent:
        raise ConfigurationError("reduced Hamiltonian requires an x-independent model")
    t = paths.grid.nodes
    T = t[-1]
    jumps = paths.jumps
    out = np.asarray(spec.running(t[i], None, v), dtype=float) \
        + model.drift(T, t[i], None, v) * terminal_prime \
        + model.diffusion(T, t[i], None, v) * d_terminal
    if jumps.n_marks and jumps.intensity > 0.0:
        lw = jumps.intensity * jumps.weight_array
        g = np.asarray(model.jump(T, t[i], None, np.asarray(v)[..., None],
                                  jumps.mark_array[None, :]), dtype=float)
        g2, d2 = np.broadcast_arrays(g, np.asarray(d_terminal_jump, dtype=float))
        out = out + np.einsum("...k,k->...", g2 * d2, lw)
    return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# Control maximization
# ---------------------------------------------------------------------------

@dataclass
class MaximizeResult:
    argmax: float
    value: float
    boundary: bool


def maximize_control(objective: Callable[[float], float], bounds: tuple[float, float],
                     n_coarse: int = 64, tol_factor: float = 1e-6) -> MaximizeResult:
    """Maximize a scalar objective over a bounded control interval.

    A coarse grid scan locates the best cell, golden-section search refines
    it to |bounds| * tol_factor. Ties break toward the smaller control value;
    the boundary flag is set when the argmax sits at an interval endpoint.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ConfigurationError(f"empty control interval {bounds}")
    grid = np.linspace(lo, hi, n_coarse)
    vals = np.array([objective(v) for v in grid], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("objective is not finite on the control grid")
    best = int(np.argmax(vals))  # first index wins ties -> smallest v
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, n_coarse - 1)]
    tol = (hi - lo) * tol_factor
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


def simulate_variation(model: CoefficientModel, control: ControlProcess,
                       beta, paths: PathBundle, states: StateEnsemble) -> VariationEnsemble:
    """Forward Euler of the linear variation dynamics along direction beta.

    The recursion mirrors the differential form of the state equation with
    every kernel replaced by its state/control gradient, including the mixed
    d/dt second partials in the memory drift, whose history sums decay at
    the kernels' declared rates (see `volterra.memory_sums`).
    """
    grid, jumps = paths.grid, paths.jumps
    n, m, dt = paths.n_steps, paths.n_paths, grid.dt
    t = grid.nodes
    beta = np.asarray(beta, dtype=float)
    beta_mat = np.broadcast_to(beta if beta.ndim == 2 else beta[:, None], (n, m))
    k = jumps.n_marks
    marks = jumps.mark_array
    dNt = paths.compensated_counts if k else None
    x = None if model.x_independent else states.values
    u = np.stack([np.broadcast_to(np.asarray(control.at(i, paths, x=states.values[i]),
                                             dtype=float), (m,)) for i in range(n)])

    y = np.zeros((n + 1, m))
    memory = memory_sums(model, paths, x, u, parts=(("_dtdx", y), ("_dtdv", beta_mat)))
    for i in range(n):
        x_i, u_i = None if x is None else x[i], u[i]
        drift = model.drift_dx(t[i], t[i], x_i, u_i) * y[i] \
            + model.drift_dv(t[i], t[i], x_i, u_i) * beta_mat[i]
        if i > 0:
            drift = drift + memory(i)
        val = y[i] + drift * dt \
            + (model.diffusion_dx(t[i], t[i], x_i, u_i) * y[i]
               + model.diffusion_dv(t[i], t[i], x_i, u_i) * beta_mat[i]) * paths.dW[i]
        if k and jumps.intensity > 0.0:
            xi3 = None if x_i is None else np.asarray(x_i)[:, None]
            gx = model.jump_dx(t[i], t[i], xi3, u_i[:, None], marks[None, :])
            gv = model.jump_dv(t[i], t[i], xi3, u_i[:, None], marks[None, :])
            term = (np.broadcast_to(gx, (m, k)) * y[i][:, None]
                    + np.broadcast_to(gv, (m, k)) * beta_mat[i][:, None])
            val = val + np.einsum("mk,mk->m", term, dNt[i])
        y[i + 1] = val
    return VariationEnsemble(values=y, beta=beta_mat)


def control_gradient(model: CoefficientModel, spec: PerformanceSpec, paths: PathBundle,
                     i: int, x, v, triple, field) -> tuple[np.ndarray, np.ndarray]:
    """Per-path dH/du at node i and the RSS magnitude of its additive terms.

    The second array is the path-wise root-sum-square of the individual
    terms, used as the cancellation scale for stationarity statistics.
    """
    t = paths.grid.nodes
    n, m = paths.n_steps, paths.n_paths
    jumps = paths.jumps
    x_model = None if model.x_independent else x
    terms = [
        np.broadcast_to(np.asarray(spec.running_dv(t[i], x, v), dtype=float), (m,)),
        np.broadcast_to(model.drift_dv(t[i], t[i], x_model, v) * triple.p[i], (m,)),
        np.broadcast_to(model.diffusion_dv(t[i], t[i], x_model, v) * triple.q[i], (m,)),
    ]
    if jumps.n_marks and jumps.intensity > 0.0:
        terms.append(local_jump_term(model.jump_dv, paths, i, x_model, v, triple.r[i]))
    if not model.time_invariant_kernels and i < n:
        terms += forward_terms(model, "_dtdv", paths, i, x_model, v, triple.p, field)
    stacked = np.vstack([np.asarray(tm, dtype=float) for tm in terms])
    return stacked.sum(axis=0), np.sqrt((stacked ** 2).sum(axis=0))


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

    def max_interior(self, lo_frac: float = 0.25, hi_frac: float = 0.75) -> float:
        n = len(self.normalized) - 1
        lo, hi = int(math.floor(n * lo_frac)), int(math.ceil(n * hi_frac))
        return float(np.max(self.normalized[lo:hi + 1]))


def check_stationarity(model: CoefficientModel, spec: PerformanceSpec,
                       control: ControlProcess, triple, field,
                       states: StateEnsemble, paths: PathBundle,
                       info: InfoMode | None = None,
                       basis: RegressionBasis | None = None,
                       features: Sequence[Feature] | None = None) -> StationarityReport:
    """Conditional stationarity check E[dH/du | G_t] = 0 along the control."""
    info = info or InfoMode.full()
    basis = basis or RegressionBasis()
    feats = list(features) if features is not None else default_features(
        paths, states=states.values)
    n = paths.n_steps
    cond = np.zeros(n)
    scale = np.zeros(n)
    for i in range(n):
        u_i = control.at(i, paths, x=states.values[i])
        grad, rss = control_gradient(model, spec, paths, i, states.values[i], u_i,
                                     triple, field)
        design_node = info.observable_node(i, paths.grid)
        reg = NodeRegression(feats, i, basis, design_node=design_node)
        fitted = reg.fit(grad)
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


def maximum_condition_check(model: CoefficientModel, spec: PerformanceSpec,
                            control: ControlProcess, triple, field,
                            states: StateEnsemble, paths: PathBundle,
                            nodes: Sequence[int], v_grid,
                            info: InfoMode | None = None,
                            basis: RegressionBasis | None = None,
                            features: Sequence[Feature] | None = None
                            ) -> list[MaximumConditionRow]:
    """Check the conditional maximum condition on a control grid.

    For each requested node the Hamiltonian is evaluated on a grid of
    control values, conditioned on the observable information (condition
    first, then maximize), and the per-path argmax is compared with the
    control in force. The pathwise variant (maximize before conditioning) is
    reported alongside as a diagnostic; whether the two orders agree in the
    discretization is an open numerical question, so both are surfaced.
    """
    info = info or InfoMode.full()
    basis = basis or RegressionBasis()
    feats = list(features) if features is not None else default_features(
        paths, states=states.values)
    v_grid = np.asarray(v_grid, dtype=float)
    rows = []
    for i in nodes:
        x_i = states.values[i]
        u_i = np.broadcast_to(np.asarray(control.at(i, paths, x=x_i), dtype=float),
                              (paths.n_paths,))
        surface = np.empty((len(v_grid), paths.n_paths))
        for pos, v in enumerate(v_grid):
            h = eval_hamiltonian(model, spec, paths, i, x_i, v, triple, field)
            surface[pos] = h.total
        reg = NodeRegression(feats, i, basis,
                             design_node=info.observable_node(i, paths.grid))
        conditioned = reg.fit(surface.T).T
        argmax_cond = v_grid[np.argmax(conditioned, axis=0)]
        argmax_path = v_grid[np.argmax(surface, axis=0)]
        control_cell = int(np.clip(np.searchsorted(v_grid, float(np.median(u_i))),
                                   0, len(v_grid) - 1))
        margin = float(np.mean(conditioned.max(axis=0) - conditioned[control_cell]))
        rows.append(MaximumConditionRow(
            node=i, t=float(paths.grid.nodes[i]),
            argmax_conditional=float(argmax_cond.mean()),
            argmax_pathwise=float(argmax_path.mean()),
            margin=margin,
        ))
    return rows


# Bonferroni threshold for three windows tested together: Phi^-1(1 - Phi(-3) / 3). Each
# window runs at a third of the 3-sigma false-alarm rate, so the three together keep 0.27 %.
GATEAUX_WINDOWS_SIGMA = 3.3200752035216


@dataclass
class GateauxReport:
    """Two independent estimates of the directional derivative of J."""

    finite_difference: float
    fd_stderr: float
    adjoint_form: float
    adjoint_stderr: float

    @property
    def gap(self) -> float:
        return self.finite_difference - self.adjoint_form

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.fd_stderr, self.adjoint_stderr)

    def within(self, n_sigma: float = 3.0) -> bool:
        return abs(self.gap) <= n_sigma * max(self.combined_stderr, 1e-300)


def gateaux_check(model: CoefficientModel, spec: PerformanceSpec,
                  control: ControlProcess, beta, paths: PathBundle,
                  triple, field, states: StateEnsemble,
                  lam: float = 1e-3,
                  simulate=simulate_integral_form) -> GateauxReport:
    """Compare dJ/d(lambda) by finite differences against E[int dH/du beta dt].

    Both sides run on the same path bundle (common random numbers); the
    adjoint form uses the supplied triple/field solved at the base control.
    """
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    beta = np.asarray(beta, dtype=float)
    beta_mat = np.broadcast_to(beta if beta.ndim == 2 else beta[:, None], (n, m))
    up = control.perturbed(beta, +lam)
    dn = control.perturbed(beta, -lam)
    j_up = performance_paths(spec, simulate(model, up, paths), up)
    j_dn = performance_paths(spec, simulate(model, dn, paths), dn)
    fd_paths = (j_up - j_dn) / (2.0 * lam)
    adj_paths = np.zeros(m)
    for i in range(n):
        u_i = control.at(i, paths, x=states.values[i])
        grad, _ = control_gradient(model, spec, paths, i, states.values[i], u_i,
                                   triple, field)
        adj_paths += grad * beta_mat[i] * dt
    return GateauxReport(
        finite_difference=float(fd_paths.mean()),
        fd_stderr=float(fd_paths.std(ddof=1) / math.sqrt(m)),
        adjoint_form=float(adj_paths.mean()),
        adjoint_stderr=float(adj_paths.std(ddof=1) / math.sqrt(m)),
    )


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
                    bounds: tuple[float, float], tol_scale: float = 1e-6) -> ArrowReport:
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
    tol = tol_scale * max(1.0, float(np.max(np.abs(env))))
    return ArrowReport(x_grid=x_grid, envelope=env,
                       max_positive_curvature=float(np.max(second)), tolerance=tol)


def export_stationarity_csv(path, report: StationarityReport, threshold: float) -> None:
    rows = [
        (report.nodes[i], report.normalized[i], threshold,
         report.normalized[i] <= threshold)
        for i in range(len(report.nodes))
    ]
    write_csv(path, ("t", "statistic", "threshold", "pass"), rows)
