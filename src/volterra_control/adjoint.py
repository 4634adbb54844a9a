"""Adjoint BSDE solvers and the Malliavin fields of the adjoint state.

The adjoint triple (p, q, r) solves a backward equation with terminal value
g'(X(T)) and a driver equal to the state-gradient of the full Hamiltonian,
which couples node i to every later node through the memory kernels and the
conditional Malliavin derivatives E[D_{t_i} p(t_j) | F_{t_i}].

Two solvers are provided. For x-independent coefficients the driver
vanishes and the triple is the conditional-expectation solution: p is the
martingale closed by g'(X(T)), q its Brownian Malliavin derivative and r
its add-one-jump derivative, all realized by node regressions. The general
solver marches backward with regression conditional expectations; because
the driver's non-local terms only look forward in time, one backward sweep
already resolves the coupling, and the fixed-point loop re-runs the sweep
to verify convergence (the change sequence is reported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .grids import PathBundle
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
class PicardOptions:
    max_iter: int = 20
    tol: float = 1e-4


@dataclass
class AdjointTriple:
    """Adjoint fields on the grid: p (N+1, M), q (N+1, M), r (N+1, M, K).

    q and r live on [0, T); their terminal rows are zero by convention.
    `surrogate_coefs[j]` are the regression coefficients that express p(t_j)
    as an explicit polynomial in the path features, which is what makes the
    Malliavin fields computable in closed form.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    regressions: list
    surrogate_coefs: list
    features: list
    picard_iterations: int = 1
    picard_changes: list = dataclass_field(default_factory=list)

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
    """

    def __init__(self, triple: AdjointTriple, paths: PathBundle):
        self.triple = triple
        self.paths = paths
        self._grad_cache: dict[int, np.ndarray] = {}

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

    def dp_rows(self, i: int, include_diagonal: bool = True) -> np.ndarray:
        n1 = self.triple.n_nodes
        m = self.paths.n_paths
        out = np.zeros((n1, m))
        if i + 1 < n1:
            targets = np.column_stack([self._chain_brownian(i, j) for j in range(i + 1, n1)])
            reg_i = self.triple.regressions[i]
            out[i + 1:] = reg_i.fit(targets).T
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

    def djump_rows(self, i: int, include_diagonal: bool = True) -> np.ndarray:
        n1 = self.triple.n_nodes
        m = self.paths.n_paths
        k = self.paths.jumps.n_marks
        out = np.zeros((n1, m, k))
        if k == 0:
            return out
        for kk in range(k):
            deltas = []
            for j in range(i + 1, n1):
                reg_j = self.triple.regressions[j]
                deltas.append(reg_j.shifted_delta(
                    self.triple.surrogate_coefs[j], self._shift_matrix(i, j, kk)))
            if deltas:
                reg_i = self.triple.regressions[i]
                out[i + 1:, :, kk] = reg_i.fit(np.column_stack(deltas)).T
            if include_diagonal and i > 0 and self.triple.surrogate_coefs[i] is not None:
                reg_i = self.triple.regressions[i]
                out[i, :, kk] = reg_i.shifted_delta(
                    self.triple.surrogate_coefs[i], self._shift_matrix(i - 1, i, kk))
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
                           features=features, picard_iterations=1, picard_changes=[])
    return triple, ExplicitXIndependentField(dp_term, dj_term)


def _hamiltonian_x_driver(model, spec, paths, i, x_state, u_i, p_est, q_i, r_i,
                          p_all, field) -> np.ndarray:
    """State-gradient of the Hamiltonian at node i (per path).

    `x_state` is the simulated state at node i; model kernels receive None
    for it when the model is x-independent.
    """
    t = paths.grid.nodes
    dt = paths.grid.dt
    jumps = paths.jumps
    m = paths.n_paths
    x_i = None if model.x_independent else x_state
    out = np.broadcast_to(
        np.asarray(spec.running_dx(t[i], x_state, u_i), dtype=float), (m,)).astype(float)
    out += model.drift_dx(t[i], t[i], x_i, u_i) * p_est
    out += model.diffusion_dx(t[i], t[i], x_i, u_i) * q_i
    active_jumps = jumps.n_marks and jumps.intensity > 0.0
    if active_jumps:
        lw = jumps.intensity * jumps.weight_array
        g = model.jump_dx(t[i], t[i], None if x_i is None else np.asarray(x_i)[..., None],
                          np.asarray(u_i)[..., None], jumps.mark_array[None, :])
        out += np.einsum("mk,k,mk->m", np.broadcast_to(g, (m, jumps.n_marks)), lw, r_i)
    if model.memory_state_coupling and i < paths.n_steps:
        s_f = t[i + 1:, None]
        kb = np.asarray(model.drift_dtdx(s_f, t[i], x_i, u_i), dtype=float)
        out += np.einsum("jm,jm->m", np.broadcast_to(kb, (paths.n_steps - i, m)),
                         p_all[i + 1:]) * dt
        dp_rows = field.dp_rows(i, include_diagonal=False)
        ks = np.asarray(model.diffusion_dtdx(s_f, t[i], x_i, u_i), dtype=float)
        out += np.einsum("jm,jm->m", np.broadcast_to(ks, (paths.n_steps - i, m)),
                         dp_rows[i + 1:]) * dt
        if active_jumps:
            dj_rows = field.djump_rows(i, include_diagonal=False)
            kg = np.asarray(model.jump_dtdx(s_f[:, :, None], t[i],
                                            None if x_i is None else np.asarray(x_i)[None, :, None],
                                            np.asarray(u_i)[None, ..., None],
                                            jumps.mark_array[None, None, :]), dtype=float)
            lw = jumps.intensity * jumps.weight_array
            out += np.einsum("jmk,k,jmk->m",
                             np.broadcast_to(kg, (paths.n_steps - i, m, jumps.n_marks)),
                             lw, dj_rows[i + 1:]) * dt
    return out


def solve_general(model: CoefficientModel, spec: PerformanceSpec, control,
                  states: StateEnsemble, paths: PathBundle,
                  picard: PicardOptions | None = None,
                  basis: RegressionBasis | None = None,
                  features: Sequence[Feature] | None = None
                  ) -> tuple[AdjointTriple, SurrogateMalliavinField]:
    """Backward-regression adjoint solver for general coefficients.

    Per node: q_i and r_i are extracted from the centered one-step products
    E[(p_{i+1} - E[p_{i+1}|F_i]) dW_i | F_i] / dt (and the jump analogue),
    then p_i = E[p_{i+1}|F_i] + dH/dx(t_i) dt. The driver's memory terms use
    the surrogates of later nodes fitted in the same backward sweep, so the
    sweep is a fixed point by construction; the loop re-runs it and records
    the sup-node RMS change until it is below tolerance.
    """
    picard = picard or PicardOptions()
    basis = basis or RegressionBasis()
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    if n > _MAX_STEPS:
        raise ConfigurationError(f"general solver is cost-guarded to {_MAX_STEPS} steps")
    jumps = paths.jumps
    k = jumps.n_marks
    if features is None:
        if model.x_independent:
            features = [predicted_terminal_feature(model, control, paths)]
        else:
            features = default_features(paths, states=states.values)
    features = list(features)
    regs = [NodeRegression(features, i, basis) for i in range(n + 1)]
    g_term = np.asarray(spec.terminal_prime(states.terminal), dtype=float)
    extract_r = bool(k) and jumps.intensity > 0.0
    comp_w = jumps.intensity * jumps.weight_array * dt if extract_r else np.zeros(k)

    p = np.empty((n + 1, m))
    q = np.zeros((n + 1, m))
    r = np.zeros((n + 1, m, k))
    coefs: list = [None] * (n + 1)
    triple = AdjointTriple(p=p, q=q, r=r, regressions=regs, surrogate_coefs=coefs,
                           features=features)
    field = SurrogateMalliavinField(triple, paths)
    dNt = paths.compensated_counts if extract_r else None

    p_prev = np.zeros_like(p)
    changes: list[float] = []
    iterations = 0
    for iteration in range(picard.max_iter):
        iterations = iteration + 1
        field._grad_cache.clear()
        p[n] = g_term
        coefs[n] = regs[n].coefficients(g_term)
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
        scale = max(float(np.sqrt(np.mean(p ** 2))), 1e-12)
        change = float(
            np.max(np.sqrt(np.mean((p - p_prev) ** 2, axis=1))) / scale
        )
        changes.append(change)
        if change < picard.tol:
            break
        p_prev[:] = p
    triple.picard_iterations = iterations
    triple.picard_changes = changes
    if changes and changes[-1] >= picard.tol:
        raise RuntimeError(
            "adjoint fixed-point sweep did not converge; per-iteration changes: "
            + ", ".join(f"{c:.3e}" for c in changes)
        )
    return triple, field


def malliavin_field_from_surrogate(triple: AdjointTriple,
                                   paths: PathBundle) -> SurrogateMalliavinField:
    """Build the conditional Malliavin field of p from its node surrogates."""
    return SurrogateMalliavinField(triple, paths)


def simulated_state_feature(model: CoefficientModel, control,
                            states: StateEnsemble, paths: PathBundle,
                            simulate=None) -> Feature:
    """State feature whose noise sensitivities run through the simulator.

    The sensitivity of X(t_j) to the increment at node i (and to an inserted
    jump) is measured by re-simulating on perturbed bundles, one pair of
    simulations per node, cached. Cost is O(N) simulations, each O(NM) when
    the model declares its kernel decays (O(N^2 M) otherwise); intended for
    modest grids where the memory-state coupling of the driver matters.
    """
    from .volterra import simulate_integral_form

    sim = simulate or simulate_integral_form
    h = 1e-4 * math.sqrt(paths.grid.dt)
    brownian_cache: dict[int, np.ndarray] = {}
    jump_cache: dict[tuple[int, int], np.ndarray] = {}

    def d_brownian_block(i: int) -> np.ndarray:
        if i not in brownian_cache:
            pert = paths.perturb_brownian(i, +h)
            up = sim(model, control, pert).values.copy()
            pert.rebump(-h)
            dn = sim(model, control, pert).values
            brownian_cache[i] = (up - dn) / (2.0 * h)
        return brownian_cache[i]

    def d_jump_block(i: int, k: int) -> np.ndarray:
        if (i, k) not in jump_cache:
            bumped = sim(model, control, paths.with_extra_jump(i, k)).values
            jump_cache[(i, k)] = bumped - states.values
        return jump_cache[(i, k)]

    return Feature(
        name="simulated_state",
        values=states.values,
        brownian_sensitivity=lambda i, j: d_brownian_block(i)[j] if i < j else 0.0,
        jump_shift=lambda i, j, k: d_jump_block(i, k)[j] if i < j else 0.0,
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
