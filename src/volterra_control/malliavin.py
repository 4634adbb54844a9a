"""Discrete Malliavin derivatives and regression conditional expectations.

The Brownian derivative of a path functional at node i is its partial
derivative with respect to the single increment dW_i (central difference,
exact for functionals that are affine or quadratic in the increment). The
jump derivative at (node i, mark k) is the add-one-jump difference: the
change in the functional when one raw jump of mark k is inserted at t_i.

Conditional expectations E[. | F_t] are realized as ridge-regularized
polynomial regressions on path features observable at t. The fitted node
regressions double as explicit surrogates: closed-form functions of the
features whose gradients feed the adjoint solver's Malliavin fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, RegressionError
from .grids import PathBundle
from .models import ControlProcess, InfoMode

# A path functional maps a PathBundle to one scalar per path, and must be
# re-evaluable on perturbed copies of the bundle.
PathFunctional = Callable[[PathBundle], np.ndarray]


def fd_step(paths: PathBundle) -> float:
    """Default central-difference step for the Brownian derivative."""
    return 1e-4 * math.sqrt(paths.grid.dt)


def d_brownian(functional: PathFunctional, paths: PathBundle, node: int,
               step: float | None = None) -> np.ndarray:
    """Derivative of the functional with respect to the Brownian increment at node."""
    h = fd_step(paths) if step is None else step
    pert = paths.perturb_brownian(node, +h)
    up = np.asarray(functional(pert), dtype=float).copy()
    pert.rebump(-h)
    dn = np.asarray(functional(pert), dtype=float)
    out = (up - dn) / (2.0 * h)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"functional is not finite under perturbation at node {node}")
    return out


def d_jump(functional: PathFunctional, paths: PathBundle, node: int, mark: int,
           base: np.ndarray | None = None) -> np.ndarray:
    """Add-one-jump difference of the functional at (node, mark index)."""
    if base is None:
        base = np.asarray(functional(paths), dtype=float)
    bumped = np.asarray(functional(paths.with_extra_jump(node, mark)), dtype=float)
    out = bumped - base
    if not np.all(np.isfinite(out)):
        raise ValueError(f"functional is not finite with an extra jump at node {node}")
    return out


# ---------------------------------------------------------------------------
# Path features and node regressions
# ---------------------------------------------------------------------------

@dataclass
class Feature:
    """A per-node path feature with optional noise sensitivities.

    values[j] must be F_{t_j}-measurable. brownian_sensitivity(i, j) is the
    partial derivative of values[j] with respect to dW_i (i < j); jump_shift
    (i, j, k) is the change of values[j] when one jump of mark k is added at
    node i. Either may be None when unknown; the Malliavin field builder
    raises if it needs a missing sensitivity.
    """

    name: str
    values: np.ndarray  # (N+1, M)
    brownian_sensitivity: Optional[Callable[[int, int], np.ndarray | float]] = None
    jump_shift: Optional[Callable[[int, int, int], np.ndarray | float]] = None


def brownian_feature(paths: PathBundle) -> Feature:
    return Feature(
        name="brownian",
        values=paths.brownian,
        brownian_sensitivity=lambda i, j: 1.0 if i < j else 0.0,
        jump_shift=lambda i, j, k: 0.0,
    )


def jump_sum_feature(paths: PathBundle) -> Feature:
    marks = paths.jumps.mark_array
    return Feature(
        name="jump_sum",
        values=paths.jump_sum,
        brownian_sensitivity=lambda i, j: 0.0,
        jump_shift=lambda i, j, k: float(marks[k]) if i < j else 0.0,
    )


def state_feature(values: np.ndarray, name: str = "state",
                  brownian_sensitivity=None, jump_shift=None) -> Feature:
    return Feature(name=name, values=values,
                   brownian_sensitivity=brownian_sensitivity, jump_shift=jump_shift)


def weighted_brownian_feature(weights: np.ndarray, paths: PathBundle,
                              name: str = "weighted_brownian") -> Feature:
    """Running integral sum_{j<i} w_j dW_j of a deterministic weight grid."""
    w = np.asarray(weights, dtype=float)
    vals = np.zeros((paths.n_steps + 1, paths.n_paths))
    np.cumsum(w[:, None] * paths.dW, axis=0, out=vals[1:])
    return Feature(
        name=name,
        values=vals,
        brownian_sensitivity=lambda i, j: float(w[i]) if i < j else 0.0,
        jump_shift=lambda i, j, k: 0.0,
    )


def predicted_terminal_feature(model, control: ControlProcess,
                               paths: PathBundle) -> Feature:
    """Running best prediction of the terminal state for x-independent models.

    values[i] = xi(T) + sum_{j<i} [b(T,t_j,u_j) dt + sigma(T,t_j,u_j) dW_j
    + sum_k gamma(T,t_j,u_j,z_k) dN~_{j,k}], which equals E[X(T) | F_{t_i}]
    because the remaining increments are independent of F_{t_i}.
    """
    if not model.x_independent:
        raise ConfigurationError("predicted terminal feature needs an x-independent model")
    grid, jumps = paths.grid, paths.jumps
    n, m, dt = paths.n_steps, paths.n_paths, grid.dt
    t = grid.nodes
    u = control.open_loop_grid(n, m)
    s_h = t[:n, None]
    inc = model.drift(t[n], s_h, None, u) * dt + model.diffusion(t[n], s_h, None, u) * paths.dW
    inc = np.asarray(np.broadcast_to(inc, (n, m)), dtype=float).copy()
    if jumps.n_marks:
        g = model.jump(t[n], s_h[:, :, None], None, u[:, :, None],
                       jumps.mark_array[None, None, :])
        inc += np.einsum("jmk,jmk->jm", np.broadcast_to(g, (n, m, jumps.n_marks)),
                         paths.compensated_counts)
    vals = np.empty((n + 1, m))
    xi_T = np.broadcast_to(np.asarray(model.initial_curve(t[n]), dtype=float), (m,))
    vals[0] = xi_T
    np.cumsum(inc, axis=0, out=vals[1:])
    vals[1:] += xi_T

    def b_sens(i, j):
        if i >= j:
            return 0.0
        return np.broadcast_to(
            np.asarray(model.diffusion(t[n], t[i], None, u[i]), dtype=float), (m,))

    def j_shift(i, j, k):
        if i >= j or not jumps.n_marks:
            return 0.0
        return np.broadcast_to(
            np.asarray(model.jump(t[n], t[i], None, u[i], jumps.marks[k]), dtype=float), (m,))

    return Feature(name="predicted_terminal", values=vals,
                   brownian_sensitivity=b_sens, jump_shift=j_shift)


def default_features(paths: PathBundle, states=None) -> list[Feature]:
    """Spec default feature set: Brownian level, state if supplied, jump sum."""
    feats = [brownian_feature(paths)]
    if states is not None:
        feats.append(state_feature(np.asarray(states, dtype=float)))
    if paths.jumps.n_marks and paths.jumps.intensity > 0.0:
        feats.append(jump_sum_feature(paths))
    return feats


@dataclass
class RegressionBasis:
    """Polynomial regression basis: monomials of the raw features up to `degree`."""

    degree: int = 3
    ridge: float = 1e-8

    def __post_init__(self):
        if self.degree < 1:
            raise ConfigurationError(f"basis degree must be >= 1, got {self.degree}")
        if self.ridge < 0.0:
            raise ConfigurationError(f"ridge parameter must be >= 0, got {self.ridge}")

    def dimension(self, n_raw: int) -> int:
        return sum(
            math.comb(n_raw + d - 1, d) for d in range(0, self.degree + 1)
        )


def _monomial_exponents(n_raw: int, degree: int) -> list[tuple[int, ...]]:
    out = [(0,) * n_raw]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n_raw), d):
            e = [0] * n_raw
            for idx in combo:
                e[idx] += 1
            out.append(tuple(e))
    return out


class NodeRegression:
    """Ridge projection onto polynomial features observable at one node.

    The standardized design is kept feature-major: one C-contiguous (p, M)
    array, one row per kept monomial, and `design()` returns its (M, p)
    transposed view. Every monomial is its parent (one power fewer of its
    last raw feature) times that raw feature, so no power function touches a
    column; results differ from power-built designs by round-off only. The
    means and spreads are one pass of contiguous row reductions, and the
    same spreads decide which zero-spread monomials are dropped.

    The fitted object doubles as an explicit surrogate: `predict` evaluates
    the fitted polynomial at any raw-feature values and `gradient_raw` its
    gradient in each raw feature. Only the standardization, the ridge-free
    Gram `gram` and the Cholesky factor of its ridged version are kept; the
    design is rebuilt on demand unless `retain_design`.
    """

    def __init__(self, features: Sequence[Feature], node: int, basis: RegressionBasis,
                 design_node: int | None = None, retain_design: bool = False):
        self.features = list(features)
        self.node = node
        self.design_node = node if design_node is None else design_node
        self.basis = basis
        raw = self.raw_values()
        self.n_paths = raw.shape[0]
        self.exponents = _monomial_exponents(len(self.features), basis.degree)
        self._index = {e: k for k, e in enumerate(self.exponents)}
        if self.n_paths < 10 * len(self.exponents):
            raise RegressionError(
                f"need at least {10 * len(self.exponents)} paths for a basis of "
                f"dimension {len(self.exponents)}, got {self.n_paths}"
            )
        rows = self._monomial_rows(raw)
        mean = rows.mean(axis=1)
        mean[0] = 0.0
        rows -= mean[:, None]
        spread = np.sqrt(np.einsum("ij,ij->i", rows, rows) / self.n_paths)
        self.keep = [0] + [k for k in range(1, len(rows)) if spread[k] > 1e-300]
        self.col_mean, self.col_scale = mean[self.keep], spread[self.keep]
        rows = self._kept(rows)
        rows /= self.col_scale[:, None]
        self.gram = rows @ rows.T / self.n_paths  # ridge-free: RMS of a fit is a form in it
        try:
            self._chol = np.linalg.cholesky(self.gram + self.basis.ridge * np.eye(len(self.gram)))
        except np.linalg.LinAlgError as exc:
            raise RegressionError(
                "regression design is rank deficient even after ridge "
                "regularization; reduce the basis degree"
            ) from exc
        self._rows = rows if retain_design else None

    def raw_values(self) -> np.ndarray:
        """Raw features at the design node, (M, n_raw) over feature-major storage."""
        return np.stack([f.values[self.design_node] for f in self.features]).T

    def _lowered(self, e: tuple[int, ...], r: int) -> int:
        """Index of the monomial e with one power fewer of raw feature r."""
        return self._index[e[:r] + (e[r] - 1,) + e[r + 1:]]

    def _monomial_rows(self, raw: np.ndarray) -> np.ndarray:
        """Every unscaled monomial as a row, (len(exponents), M), by the product tree."""
        x = np.ascontiguousarray(np.asarray(raw, dtype=float).T)
        rows = np.empty((len(self.exponents), x.shape[1]))
        rows[0] = 1.0
        for k, e in enumerate(self.exponents[1:], 1):
            r = max(i for i, p in enumerate(e) if p)
            np.multiply(rows[self._lowered(e, r)], x[r], out=rows[k])
        return rows

    def _kept(self, rows: np.ndarray) -> np.ndarray:
        """The kept monomial rows (a copy only when a monomial was dropped)."""
        return rows if len(self.keep) == len(rows) else rows[self.keep]

    def design(self, raw: np.ndarray | None = None) -> np.ndarray:
        """Standardized design (M, p) at the node (or at given raw values)."""
        if raw is None and self._rows is not None:
            return self._rows.T
        rows = self._kept(self._monomial_rows(self.raw_values() if raw is None else raw))
        rows -= self.col_mean[:, None]
        rows /= self.col_scale[:, None]
        return rows.T

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        y = np.linalg.solve(self._chol, rhs)
        return np.linalg.solve(self._chol.T, y)

    def coefficients(self, targets: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
        """Standardized-column coefficients for the given targets, (p,) or (p, q)."""
        phi = self.design() if phi is None else phi
        return self._solve(phi.T @ np.asarray(targets, dtype=float) / self.n_paths)

    def fit(self, targets: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
        """Fitted values of the ridge projection; targets (M,) or (M, q)."""
        phi = self.design() if phi is None else phi
        coef = self.coefficients(targets, phi=phi)
        return phi @ coef

    # -- surrogate evaluation at arbitrary raw-feature values ----------------

    def predict(self, raw: np.ndarray, coef: np.ndarray) -> np.ndarray:
        return self.design(raw) @ np.ravel(coef)

    def gradient_raw(self, coef: np.ndarray, raw: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the fitted polynomial with respect to each raw feature.

        d(x^e)/dx_r = e_r x^(e - 1_r), read off the product tree. Returns
        (M, n_raw) evaluated at the node's own raw values by default.
        """
        rows = self._monomial_rows(self.raw_values() if raw is None else raw)
        coef = np.ravel(coef)
        grad = np.zeros((len(self.features), rows.shape[1]))
        for pos, k in enumerate(self.keep[1:], 1):
            e, c = self.exponents[k], coef[pos] / self.col_scale[pos]
            for r, p in enumerate(e):
                if p and c != 0.0:
                    grad[r] += (c * p) * rows[self._lowered(e, r)]
        return grad.T


class BackwardProjector:
    """Backward regression march on coefficients (LSMDP, Gobet, Lemor & Warin 2005).

    v_N = F, v_j = E_j[v_{j+1}] - r_j Z_j dt, with Z_j = E_j[(v_{j+1} - E_j[v_{j+1}]) dW_j] / dt
    and E_j the ridge projection on the node basis Phi_j (ridge Gram G_j), is linear in F.
    With E_j[v_{j+1}] = Phi_j a_j, Z_j = Phi_j b_j, v_j = Phi_j c_j: a_j = G_j^{-1} A_j c_{j+1},
    b_j = G_j^{-1} (B_j c_{j+1} - C_j a_j) / dt, c_j = a_j - r_j dt b_j, for the cross-moments
    A_j = Phi_j^T Phi_{j+1} / M, B_j = Phi_j^T diag(dW_j) Phi_{j+1} / M, C_j = Phi_j^T diag(dW_j)
    Phi_j / M, formed once and held premultiplied by G_j^{-1}. A march is two O(M p) products
    at T, then one p x p update per node.
    """

    def __init__(self, features: Sequence[Feature], paths: PathBundle,
                 basis: RegressionBasis | None = None):
        n, m = paths.n_steps, paths.n_paths
        self.basis, self.dW, self.dt = basis or RegressionBasis(), paths.dW, paths.grid.dt
        self.regs = [NodeRegression(features, j, self.basis, retain_design=True) for j in range(n)]
        self.carry, self.carry_dw, self.centre_dw = [], [], []
        for j, reg in enumerate(self.regs):
            rows = reg._rows  # feature-major (p, M)
            weighted = rows * self.dW[j]  # per node only: no Phi o dW is kept
            self.centre_dw.append(reg._solve(weighted @ rows.T / m))
            if j + 1 < n:
                nxt = self.regs[j + 1]._rows
                self.carry.append(reg._solve(rows @ nxt.T / m))
                self.carry_dw.append(reg._solve(weighted @ nxt.T / m))

    def march(self, terminal: np.ndarray, ratios: np.ndarray, stop: int = 0
              ) -> tuple[list, list, list]:
        """Per-node lists of a_j, b_j, c_j from T down to `stop` (None below); r_j = ratios[j]."""
        n, m, f = len(self.regs), self.dW.shape[1], np.asarray(terminal, dtype=float)
        a, b, c = [None] * n, [None] * n, [None] * n
        for j in range(n - 1, stop - 1, -1):
            if j == n - 1:
                reg, phi = self.regs[j], self.regs[j].design()
                a[j] = reg._solve(phi.T @ f / m)
                carried_dw = reg._solve(phi.T @ (f * self.dW[j]) / m)
            else:
                a[j], carried_dw = self.carry[j] @ c[j + 1], self.carry_dw[j] @ c[j + 1]
            b[j] = (carried_dw - self.centre_dw[j] @ a[j]) / self.dt
            c[j] = a[j] - ratios[j] * self.dt * b[j]
        return a, b, c

    def rms(self, node: int, coef: np.ndarray) -> float:
        """Root mean square over paths of Phi_node coef, from the ridge-free Gram."""
        return math.sqrt(max(float(coef @ self.regs[node].gram @ coef), 0.0))


def conditional_expectation(values: np.ndarray, node: int, paths: PathBundle,
                            basis: RegressionBasis | None = None,
                            features: Sequence[Feature] | None = None,
                            info: InfoMode | None = None,
                            states=None) -> np.ndarray:
    """Per-path regression estimate of E[values | F_{t_node}].

    Under delayed information the design features are taken at the lagged
    node (t - delay)+ instead, realizing E[. | G_t].
    """
    basis = basis or RegressionBasis()
    feats = list(features) if features is not None else default_features(paths, states)
    design_node = node
    if info is not None and not info.is_full:
        design_node = info.observable_node(node, paths.grid)
    reg = NodeRegression(feats, node, basis, design_node=design_node)
    return reg.fit(values)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

@dataclass
class DualityReport:
    lhs: float
    rhs: float
    stderr_lhs: float
    stderr_rhs: float
    degenerate: bool = False

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.stderr_lhs, self.stderr_rhs)

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs

    def within(self, n_sigma: float = 3.0) -> bool:
        if self.degenerate:
            return True
        return abs(self.gap) <= n_sigma * max(self.combined_stderr, 1e-300)


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    m = len(x)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0


def check_duality_brownian(functional: PathFunctional, u, paths: PathBundle,
                           basis: RegressionBasis | None = None,
                           features: Sequence[Feature] | None = None) -> DualityReport:
    """Monte Carlo check of E[F int u dB] = E[int E[D_t F|F_t] u(t) dt].

    `u` is an adapted integrand: an array of shape (N,) or (N, M), or a
    callable bundle -> array. Both sides are estimated on the same paths.
    """
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    u_arr = np.asarray(u(paths) if callable(u) else u, dtype=float)
    u_arr = np.broadcast_to(u_arr if u_arr.ndim == 2 else u_arr[:, None], (n, m))
    f_vals = np.asarray(functional(paths), dtype=float)
    lhs_path = f_vals * np.einsum("im,im->m", u_arr, paths.dW)
    rhs_path = np.zeros(m)
    feats = list(features) if features is not None else default_features(paths)
    basis = basis or RegressionBasis()
    for i in range(n):
        deriv = d_brownian(functional, paths, i)
        proj = NodeRegression(feats, i, basis, retain_design=True).fit(deriv)
        rhs_path += proj * u_arr[i] * dt
    lhs, se_l = _mean_stderr(lhs_path)
    rhs, se_r = _mean_stderr(rhs_path)
    return DualityReport(lhs, rhs, se_l, se_r)


def check_duality_jump(functional: PathFunctional, psi, paths: PathBundle,
                       basis: RegressionBasis | None = None,
                       features: Sequence[Feature] | None = None) -> DualityReport:
    """Jump analogue: E[F int int Psi dN~] = E[int int Psi E[D_{t,z}F|F_t] nu(dz) dt].

    `psi` is adapted and mark-indexed: (N, K), (N, M, K), or callable. With
    zero jump intensity both sides vanish; the report is flagged degenerate.
    """
    jumps = paths.jumps
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    if jumps.intensity == 0.0 or jumps.n_marks == 0:
        return DualityReport(0.0, 0.0, 0.0, 0.0, degenerate=True)
    k = jumps.n_marks
    psi_arr = np.asarray(psi(paths) if callable(psi) else psi, dtype=float)
    if psi_arr.ndim == 2:
        psi_arr = psi_arr[:, None, :]
    psi_arr = np.broadcast_to(psi_arr, (n, m, k))
    f_vals = np.asarray(functional(paths), dtype=float)
    lhs_path = f_vals * np.einsum("imk,imk->m", psi_arr, paths.compensated_counts)
    rhs_path = np.zeros(m)
    feats = list(features) if features is not None else default_features(paths)
    basis = basis or RegressionBasis()
    weights = jumps.intensity * jumps.weight_array * dt
    for i in range(n):
        reg = NodeRegression(feats, i, basis, retain_design=True)
        pert = paths.with_extra_jump(i, 0)
        for kk in range(k):
            if kk:
                pert.remark(kk)
            deriv = np.asarray(functional(pert), dtype=float) - f_vals
            if not np.all(np.isfinite(deriv)):
                raise ValueError(f"functional is not finite with an extra jump at node {i}")
            rhs_path += reg.fit(deriv) * psi_arr[i, :, kk] * weights[kk]
    lhs, se_l = _mean_stderr(lhs_path)
    rhs, se_r = _mean_stderr(rhs_path)
    return DualityReport(lhs, rhs, se_l, se_r)


@dataclass
class ReconstructionReport:
    residuals: np.ndarray
    relative_rms: float
    degenerate: bool = False
    scale: float = 0.0  # std(F), the unit of relative_rms

    def relative_split(self, known: np.ndarray) -> tuple[float, float]:
        """Relative RMS of a known part of the residuals and of the remainder."""
        if self.degenerate:
            return 0.0, 0.0
        rel = lambda x: float(np.sqrt(np.mean(x * x)) / self.scale)  # noqa: E731
        return rel(known), rel(self.residuals - known)


def brownian_square_grid_term(paths: PathBundle) -> np.ndarray:
    """sum_i (dW_i^2 - dt) per path: B_T^2 - T - sum_i 2 B_{t_i} dW_i on the grid.

    It is orthogonal to every adapted sum_i H_i dW_i, so it is the floor of
    the Clark-Ocone residual of B_T^2, of RMS 1/sqrt(N) times std(B_T^2).
    """
    return np.einsum("im,im->m", paths.dW, paths.dW) - paths.n_steps * paths.grid.dt


def clark_ocone_reconstruct(functional: PathFunctional, paths: PathBundle,
                            basis: RegressionBasis | None = None,
                            features: Sequence[Feature] | None = None
                            ) -> ReconstructionReport:
    """Reconstruct F from its predictable projection integrand.

    residual_m = F_m - mean(F) - sum_i E[D_{t_i}F | F_{t_i}]_m dW_i^m, with
    the relative RMS reported against std(F). Configured for Brownian-only
    bundles.
    """
    if paths.jumps.intensity > 0.0:
        raise ConfigurationError("reconstruction check requires a Brownian-only bundle")
    n, m = paths.n_steps, paths.n_paths
    f_vals = np.asarray(functional(paths), dtype=float)
    resid = f_vals - f_vals.mean()
    feats = list(features) if features is not None else default_features(paths)
    basis = basis or RegressionBasis()
    for i in range(n):
        integrand = NodeRegression(feats, i, basis, retain_design=True).fit(
            d_brownian(functional, paths, i))
        resid -= integrand * paths.dW[i]
    sd = f_vals.std()
    if sd == 0.0:
        return ReconstructionReport(resid, 0.0, degenerate=True)
    return ReconstructionReport(resid, float(np.sqrt(np.mean(resid ** 2)) / sd), scale=float(sd))


def _kernel_function(kernel):
    if callable(kernel):
        return kernel
    return lambda *args: float(kernel) + 0.0 * np.asarray(args[0], dtype=float)


def iterated_integral(kernel, order: int, paths: PathBundle) -> np.ndarray:
    """Discrete n-fold iterated Brownian integral of a symmetric kernel.

    Returns n! * sum over strictly increasing node tuples of
    kernel(t_{j_1}, ..., t_{j_n}) dW_{j_1} ... dW_{j_n}, per path. The kernel
    may be a constant or a symmetric callable; orders 1..3 are supported.
    """
    n, m = paths.n_steps, paths.n_paths
    t = paths.grid.nodes[:-1]
    dW = paths.dW
    kf = _kernel_function(kernel)
    if order == 1:
        w = np.broadcast_to(np.asarray(kf(t), dtype=float), (n,))
        return np.einsum("i,im->m", w, dW)
    if order == 2:
        acc = np.zeros(m)
        for j2 in range(1, n):
            w = np.broadcast_to(np.asarray(kf(t[:j2], t[j2]), dtype=float), (j2,))
            acc += dW[j2] * (w @ dW[:j2])
        return 2.0 * acc
    if order == 3:
        acc = np.zeros(m)
        for j3 in range(2, n):
            inner = np.zeros(m)
            for j2 in range(1, j3):
                w = np.broadcast_to(np.asarray(kf(t[:j2], t[j2], t[j3]), dtype=float), (j2,))
                inner += dW[j2] * (w @ dW[:j2])
            acc += dW[j3] * inner
        return 6.0 * acc
    raise ConfigurationError(f"iterated integrals of order {order} are unsupported (max 3)")


@dataclass
class ChaosDerivativeReport:
    max_abs_error: float
    per_node: np.ndarray
    bounds: np.ndarray   # per node: diagonal term plus difference-quotient round-off

    def within(self) -> bool:
        return bool(np.all(self.per_node <= self.bounds))


def check_chaos_derivative(kernel, paths: PathBundle,
                           nodes: Sequence[int] | None = None) -> ChaosDerivativeReport:
    """Compare D_t of a second-order iterated integral against its chaos identity.

    The derivative of I_2(f) at node i should equal 2 I_1(f(., t_i)); on the
    grid the two differ by exactly the diagonal term 2 f(t_i,t_i) dW_i, which
    the report surfaces as the discrepancy. Node i's bound is that term,
    2 |f(t_i,t_i)| max|dW_i|, plus the round-off of the central difference:
    each product in I_2 passes through at most 2N roundings, and their
    absolute values add up to at most S = max|f| (sum_j |dW_j| + h)^2 per
    path, so the quotient (I_2(+h) - I_2(-h)) / 2h is off by at most about
    N eps S / h (the gamma_2N summation bound, eps = 2u).
    """
    n = paths.n_steps
    t = paths.grid.nodes[:-1]
    kf = _kernel_function(kernel)
    functional = lambda b: iterated_integral(kernel, 2, b)  # noqa: E731
    node_list = list(nodes) if nodes is not None else list(range(n))
    h = fd_step(paths)
    f_max = max(float(np.abs(kf(t, s)).max()) for s in t)
    s_max = f_max * float(((np.abs(paths.dW).sum(axis=0) + h) ** 2).max())
    slack = n * np.finfo(float).eps * s_max / h
    errs = np.zeros(len(node_list))
    bounds = np.zeros(len(node_list))
    for pos, i in enumerate(node_list):
        deriv = d_brownian(functional, paths, i, step=h)
        w = np.broadcast_to(np.asarray(kf(t, t[i]), dtype=float), (n,))
        direct = 2.0 * np.einsum("i,im->m", w, paths.dW)
        errs[pos] = np.max(np.abs(deriv - direct))
        bounds[pos] = 2.0 * abs(w[i]) * float(np.abs(paths.dW[i]).max()) + slack
    return ChaosDerivativeReport(float(errs.max()), errs, bounds)


def fubini_exchange(values: np.ndarray, dt: float) -> tuple[float, float]:
    """Both orderings of the double sum sum_i sum_{j<i} a[i,j] dt^2.

    Each ordering is accumulated with exact (fsum) summation, so the two
    returned values are identical whenever the exchange identity holds.
    """
    a = np.asarray(values, dtype=float)
    n = a.shape[0]
    rows = math.fsum(a[i, j] * dt * dt for i in range(n) for j in range(i))
    cols = math.fsum(a[i, j] * dt * dt for j in range(n) for i in range(j + 1, n))
    return rows, cols

