"""Adjoint BSDE solvers and the Malliavin fields of the adjoint state.

The adjoint triple (p, q, r) solves a backward equation with terminal value
g'(X(T)) and a driver equal to the state-gradient of the full Hamiltonian,
which couples node i to every later node through the memory kernels and the
conditional Malliavin derivatives E[D_{t_i} p(t_j) | F_{t_i}].

Two solvers are provided. For x-independent coefficients the driver
vanishes and the triple is the conditional-expectation solution: p is the
martingale closed by g'(X(T)), q its Brownian Malliavin derivative and r
its add-one-jump derivative, all realized by node regressions. The general
solver marches backward with regression conditional expectations in one
sweep. That sweep is exact, not a first Picard iterate: the driver at node i
reads p and the surrogates of nodes j > i only, which are final by the time
node i is reached, so a second sweep reproduces the first bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .grids import PathBundle
from .hamiltonian import forward_terms, local_jump_term
from .malliavin import (
    Feature,
    NodeRegression,
    RegressionBasis,
    d_brownian,
    d_jump,
    default_features,
    predicted_terminal_feature,
)
from .models import CoefficientModel, PerformanceSpec
from .reporting import write_csv
from .volterra import StateEnsemble, terminal_state

_MAX_STEPS = 256


@dataclass
class AdjointTriple:
    """Adjoint fields on the grid: p (N+1, M), q (N+1, M), r (N+1, M, K).

    q and r live on [0, T); their terminal rows are zero by convention.
    `surrogate_coefs[j]` are the regression coefficients that express p(t_j)
    as an explicit polynomial in the path features, which is what makes the
    Malliavin fields computable in closed form. `picard_iterations` counts
    backward sweeps (always 1) and is kept for the `picard_iters` CSV column.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    regressions: list
    surrogate_coefs: list
    features: list
    picard_iterations: int = 1

    @property
    def n_nodes(self) -> int:
        return self.p.shape[0]


def _missing_sensitivity(feature: Feature, what: str):
    raise ConfigurationError(
        f"feature {feature.name!r} has no {what}; supply one (for simulated states, "
        "a finite-difference pass through the simulator) to build Malliavin fields"
    )


class SurrogateMalliavinField:
    """Conditional Malliavin derivatives of p built from its node surrogates.

    dp_rows(i)[j] approximates E[D_{t_i} p(t_j) | F_{t_i}] by differentiating
    the node-j surrogate through the feature map and projecting onto the
    node-i information set. Rows j < i vanish identically (adaptedness); the
    diagonal uses the left-limit convention, i.e. the sensitivity of the
    node-i value to the increment just before t_i.

    Invariant: the surrogates of nodes j > i are final when row i is first
    requested (the backward sweep fits node j before it asks for row i < j).
    So each node's gradient, each node's unshifted surrogate value and the
    projected off-diagonal rows of each (i) and (i, mark) are computed once;
    the rows are kept as node-i regression coefficients, p x (N - i), and
    rebuilt per path as design_i @ coef. The diagonal rows read the node-i
    surrogate itself and are computed on each request.
    """

    def __init__(self, triple: AdjointTriple, paths: PathBundle):
        self.triple = triple
        self.paths = paths
        self._grad_cache: dict[int, np.ndarray] = {}
        self._value_cache: dict[int, np.ndarray] = {}
        self._row_coefs: dict = {}   # i -> dp coefficients, (i, mark) -> djump

    def _gradient(self, j: int) -> np.ndarray:
        if j not in self._grad_cache:
            reg = self.triple.regressions[j]
            self._grad_cache[j] = reg.gradient_raw(self.triple.surrogate_coefs[j])
        return self._grad_cache[j]

    def _chain_brownian(self, i: int, j: int) -> np.ndarray:
        feats = self.triple.features
        grad = self._gradient(j)
        m = grad.shape[0]
        out = np.zeros(m)
        for pos, feat in enumerate(feats):
            if feat.brownian_sensitivity is None:
                _missing_sensitivity(feat, "Brownian sensitivity")
            sens = feat.brownian_sensitivity(i, j)
            if np.any(np.asarray(sens) != 0.0):
                out += grad[:, pos] * sens
        return out

    def _projected(self, key, i: int, targets) -> np.ndarray:
        """Node-i projection of the columns `targets()`, as (N - i, M) rows."""
        phi = self.triple.regressions[i].design()
        if key not in self._row_coefs:
            self._row_coefs[key] = self.triple.regressions[i].coefficients(
                np.column_stack(targets()), phi=phi)
        return (phi @ self._row_coefs[key]).T

    def dp_rows(self, i: int, include_diagonal: bool = True) -> np.ndarray:
        n1 = self.triple.n_nodes
        out = np.zeros((n1, self.paths.n_paths))
        if i + 1 < n1:
            out[i + 1:] = self._projected(
                i, i, lambda: [self._chain_brownian(i, j) for j in range(i + 1, n1)])
        if include_diagonal and i > 0 and self.triple.surrogate_coefs[i] is not None:
            # left-limit diagonal: sensitivity to the increment entering node i;
            # already F_{t_i}-measurable, no projection needed
            out[i] = self._chain_brownian(i - 1, i)
        return out

    def dp(self, i: int, j: int) -> np.ndarray:
        return self.dp_rows(i)[j]

    def _shift_matrix(self, i: int, j: int, kk: int) -> np.ndarray:
        feats = self.triple.features
        shift = np.zeros((self.paths.n_paths, len(feats)))
        for pos, feat in enumerate(feats):
            if feat.jump_shift is None:
                _missing_sensitivity(feat, "jump shift")
            shift[:, pos] = feat.jump_shift(i, j, kk)
        return shift

    def _shifted_delta(self, i: int, j: int, kk: int) -> np.ndarray:
        """P_j(raw_j + jump shift) - P_j(raw_j) of the node-j surrogate (exact)."""
        reg, coef = self.triple.regressions[j], self.triple.surrogate_coefs[j]
        if j not in self._value_cache:
            self._value_cache[j] = reg.predict(reg.raw_values(), coef)
        return reg.predict(reg.raw_values() + self._shift_matrix(i, j, kk), coef) \
            - self._value_cache[j]

    def djump_rows(self, i: int, include_diagonal: bool = True) -> np.ndarray:
        n1 = self.triple.n_nodes
        k = self.paths.jumps.n_marks
        out = np.zeros((n1, self.paths.n_paths, k))
        for kk in range(k):
            if i + 1 < n1:
                out[i + 1:, :, kk] = self._projected(
                    (i, kk), i, lambda: [self._shifted_delta(i, j, kk) for j in range(i + 1, n1)])
            if include_diagonal and i > 0 and self.triple.surrogate_coefs[i] is not None:
                out[i, :, kk] = self._shifted_delta(i - 1, i, kk)
        return out


class ExplicitXIndependentField:
    """Malliavin field of the martingale adjoint: constant in the future index.

    For p(t) = E[g'(X(T)) | F_t] the commutation of D with conditional
    expectation gives E[D_{t_i} p(t_j) | F_{t_i}] = E[D_{t_i} g'(X(T)) |
    F_{t_i}] for every j >= i, so one projected derivative per node suffices.
    """

    def __init__(self, dp_terminal: np.ndarray, dj_terminal: np.ndarray):
        self._dp = dp_terminal    # (N+1, M): projected D_{t_i} g'(X_T)
        self._dj = dj_terminal    # (N+1, M, K)

    def dp_rows(self, i: int) -> np.ndarray:
        out = np.zeros_like(self._dp)
        out[i:] = self._dp[i]
        return out

    def dp(self, i: int, j: int) -> np.ndarray:
        return self._dp[i] if j >= i else np.zeros_like(self._dp[i])

    def djump_rows(self, i: int) -> np.ndarray:
        out = np.zeros_like(self._dj)
        out[i:] = self._dj[i]
        return out


def solve_explicit_x_independent(model: CoefficientModel, spec: PerformanceSpec,
                                 states: StateEnsemble, paths: PathBundle,
                                 basis: RegressionBasis | None = None,
                                 features: Sequence[Feature] | None = None
                                 ) -> tuple[AdjointTriple, ExplicitXIndependentField]:
    """Conditional-expectation adjoint for x-independent coefficients.

    p_i projects g'(X_T) onto the node-i information, q_i projects its
    Brownian derivative, r_i its add-one-jump derivative. The returned field
    carries E[D_{t_i} p(t_j)|F_{t_i}], constant in j >= i.
    """
    if not model.x_independent:
        raise ConfigurationError("explicit adjoint solver requires an x-independent model")
    basis = basis or RegressionBasis()
    control = states.control
    if features is None:
        features = [predicted_terminal_feature(model, control, paths)]
    features = list(features)
    n, m = paths.n_steps, paths.n_paths
    k = paths.jumps.n_marks
    g_term = np.asarray(spec.terminal_prime(states.terminal), dtype=float)

    def functional(bundle):
        return spec.terminal_prime(terminal_state(model, control, bundle))

    p = np.empty((n + 1, m))
    q = np.zeros((n + 1, m))
    r = np.zeros((n + 1, m, k))
    regs, coefs = [], []
    p[n] = g_term
    dp_term = np.zeros((n + 1, m))
    dj_term = np.zeros((n + 1, m, k))
    for i in range(n):
        reg = NodeRegression(features, i, basis)
        phi = reg.design()
        c = reg.coefficients(g_term, phi=phi)
        p[i] = phi @ c
        q[i] = reg.fit(d_brownian(functional, paths, i), phi=phi)
        dp_term[i] = q[i]
        for kk in range(k):
            r[i, :, kk] = reg.fit(d_jump(functional, paths, i, kk, base=g_term), phi=phi)
            dj_term[i, :, kk] = r[i, :, kk]
        regs.append(reg)
        coefs.append(c)
    reg_n = NodeRegression(features, n, basis)
    regs.append(reg_n)
    coefs.append(reg_n.coefficients(g_term))
    triple = AdjointTriple(p=p, q=q, r=r, regressions=regs, surrogate_coefs=coefs,
                           features=features)
    return triple, ExplicitXIndependentField(dp_term, dj_term)


def _hamiltonian_x_driver(model, spec, paths, i, x_state, u_i, p_est, q_i, r_i,
                          p_all, field) -> np.ndarray:
    """State-gradient of the Hamiltonian at node i (per path).

    `x_state` is the simulated state at node i; model kernels receive None
    for it when the model is x-independent.
    """
    t = paths.grid.nodes
    jumps = paths.jumps
    m = paths.n_paths
    x_i = None if model.x_independent else x_state
    out = np.broadcast_to(
        np.asarray(spec.running_dx(t[i], x_state, u_i), dtype=float), (m,)).astype(float)
    out += model.drift_dx(t[i], t[i], x_i, u_i) * p_est
    out += model.diffusion_dx(t[i], t[i], x_i, u_i) * q_i
    if jumps.n_marks and jumps.intensity > 0.0:
        out += local_jump_term(model.jump_dx, paths, i, x_i, u_i, r_i)
    if model.memory_state_coupling and i < paths.n_steps:
        for term in forward_terms(model, "_dtdx", paths, i, x_i, u_i, p_all, field,
                                  include_diagonal=False):
            out += term
    return out


def solve_general(model: CoefficientModel, spec: PerformanceSpec, control,
                  states: StateEnsemble, paths: PathBundle,
                  basis: RegressionBasis | None = None,
                  features: Sequence[Feature] | None = None
                  ) -> tuple[AdjointTriple, SurrogateMalliavinField]:
    """Backward-regression adjoint solver for general coefficients, one sweep.

    Per node: q_i and r_i are extracted from the centered one-step products
    E[(p_{i+1} - E[p_{i+1}|F_i]) dW_i | F_i] / dt (and the jump analogue),
    then p_i = E[p_{i+1}|F_i] + dH/dx(t_i) dt. The driver's memory terms
    read p and the surrogates of nodes j > i only, all fitted earlier in the
    same sweep, so the sweep is its own fixed point: a second sweep over the
    result reproduces p, q and r bit for bit.
    """
    basis = basis or RegressionBasis()
    n, m = paths.n_steps, paths.n_paths
    if n > _MAX_STEPS:
        raise ConfigurationError(f"general solver is cost-guarded to {_MAX_STEPS} steps")
    if features is None:
        if model.x_independent:
            features = [predicted_terminal_feature(model, control, paths)]
        else:
            features = default_features(paths, states=states.values)
    features = list(features)
    triple = AdjointTriple(p=np.empty((n + 1, m)), q=np.zeros((n + 1, m)),
                           r=np.zeros((n + 1, m, paths.jumps.n_marks)),
                           regressions=[NodeRegression(features, i, basis) for i in range(n + 1)],
                           surrogate_coefs=[None] * (n + 1), features=features)
    field = SurrogateMalliavinField(triple, paths)
    _backward_sweep(model, spec, control, states, paths, triple, field)
    return triple, field


def _backward_sweep(model, spec, control, states, paths, triple: AdjointTriple,
                    field: SurrogateMalliavinField) -> None:
    """One backward regression sweep, writing p, q, r and the surrogates in place."""
    n, dt = paths.n_steps, paths.grid.dt
    jumps = paths.jumps
    k = jumps.n_marks
    p, q, r, regs, coefs = triple.p, triple.q, triple.r, triple.regressions, triple.surrogate_coefs
    extract_r = bool(k) and jumps.intensity > 0.0
    comp_w = jumps.intensity * jumps.weight_array * dt if extract_r else np.zeros(k)
    dNt = paths.compensated_counts if extract_r else None
    p[n] = np.asarray(spec.terminal_prime(states.terminal), dtype=float)
    coefs[n] = regs[n].coefficients(p[n])
    for i in range(n - 1, -1, -1):
        reg = regs[i]
        phi = reg.design()
        pe = phi @ reg.coefficients(p[i + 1], phi=phi)
        centered = p[i + 1] - pe
        q[i] = phi @ reg.coefficients(centered * paths.dW[i], phi=phi) / dt
        if extract_r:
            for kk in range(k):
                r[i, :, kk] = phi @ reg.coefficients(
                    centered * dNt[i, :, kk], phi=phi) / comp_w[kk]
        u_i = control.at(i, paths, x=states.values[i])
        driver = _hamiltonian_x_driver(model, spec, paths, i, states.values[i], u_i,
                                       pe, q[i], r[i], p, field)
        p[i] = pe + driver * dt
        coefs[i] = reg.coefficients(p[i], phi=phi)


def simulated_state_feature(model: CoefficientModel, control,
                            states: StateEnsemble, paths: PathBundle,
                            record: list) -> Feature:
    """State feature whose noise sensitivities run through the simulator.

    The sensitivity of X(t_j) to the increment at node i, and to a jump of
    each mark inserted there, is measured by one re-simulation per node,
    cached. It restarts at node i from the base run `states`, whose memory
    sums `record` holds (`simulate_integral_form(..., record=record)`),
    since rows 0..i do not move. The 2 + K perturbed bundles ride it on a
    variant axis: dW_i + h, then (dW_i + h) - 2h (a central difference), and
    one inserted jump per mark k. They are lazy views that differ only in
    row i, so no noise array is copied unless a feedback rule reads the
    noise. Cost is N simulations of O((2 + K)(N - i) M) each with declared
    kernel decays (O(N^2 M) otherwise); intended for modest grids.
    """
    from .volterra import simulate_integral_form

    h = 1e-4 * math.sqrt(paths.grid.dt)
    base = states.values
    blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def node_blocks(i: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows i+1..N of dX/dW_i, (N - i, M), and of the jump shifts, (K, N - i, M)."""
        if i not in blocks:
            up, down = paths.perturb_brownian(i, +h), paths.perturb_brownian(i, +h)
            down.rebump(-h)
            jumps = [paths.with_extra_jump(i, k) for k in range(paths.jumps.n_marks)]
            x = simulate_integral_form(model, control, paths, restart=(i, base, record[i]),
                                       variants=[up, down] + jumps)
            blocks[i] = ((x[0, i + 1:] - x[1, i + 1:]) / (2.0 * h), x[2:, i + 1:] - base[i + 1:])
        return blocks[i]

    return Feature(
        name="simulated_state",
        values=states.values,
        brownian_sensitivity=lambda i, j: node_blocks(i)[0][j - i - 1] if i < j else 0.0,
        jump_shift=lambda i, j, k: node_blocks(i)[1][k, j - i - 1] if i < j else 0.0,
    )


def export_adjoint_csv(path, triple: AdjointTriple, grid_nodes: np.ndarray) -> None:
    """Per-node summary: (t, mean_p, mean_q, mean_r_k..., picard_iters)."""
    k = triple.r.shape[2]
    header = ["t", "mean_p", "mean_q"] + [f"mean_r_{kk}" for kk in range(k)] + ["picard_iters"]
    rows = []
    for i, t in enumerate(grid_nodes):
        row = [t, triple.p[i].mean(), triple.q[i].mean()]
        row += [triple.r[i, :, kk].mean() for kk in range(k)]
        row.append(triple.picard_iterations)
        rows.append(row)
    write_csv(path, header, rows)
