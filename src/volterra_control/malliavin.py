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
from dataclasses import dataclass
from itertools import combinations_with_replacement, repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, RegressionError
from .grids import PathBundle, compensated_jump_sum
from .models import ControlProcess, InfoMode
from .volterra import monte_carlo_estimate, noise_sums

# A path functional maps a PathBundle to one scalar per path, and must be
# re-evaluable on perturbed copies of the bundle.
PathFunctional = Callable[[PathBundle], np.ndarray]


def fd_step(paths: PathBundle) -> float:
    """Default central-difference step for the Brownian derivative."""
    return 1e-4 * math.sqrt(paths.grid.dt)


def d_brownian(functional: PathFunctional, paths: PathBundle, node: int) -> np.ndarray:
    """Derivative of the functional with respect to the Brownian increment at node."""
    h = fd_step(paths)
    pert = paths.perturb_brownian(node, +h)
    up = np.asarray(functional(pert), dtype=float).copy()
    pert.rebump(-h)
    dn = np.asarray(functional(pert), dtype=float)
    out = (up - dn) / (2.0 * h)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"functional is not finite under perturbation at node {node}")
    return out


def d_jump(functional: PathFunctional, paths: PathBundle, node: int, mark: int) -> np.ndarray:
    """Add-one-jump difference of the functional at (node, mark index)."""
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
    """A per-node path feature with optional noise sensitivities, read as rows in node order.

    values[j] must be F_{t_j}-measurable, so only rows j > i move with the
    noise at node i. brownian_sensitivity(i) gives rows i+1..N of d values/dW_i
    in node order, each broadcastable to (M,); jump_shift(i) the change of those
    rows when one jump of mark k is added at node i, each broadcastable to (K, M).
    A call is one pass, whose rows may be formed as they are read; a reader that
    needs a matrix stacks them. Either may be None when unknown; the Malliavin
    field builder raises if it needs a missing sensitivity.

    reverse_sweep(decay), when given, starts a reverse pass over the Brownian
    sensitivities: a function that takes the (degree, M) Taylor rows a_{d,l} =
    P_l^(d)/d! of per-node polynomials P_l of values[l], l = N, N-1, ..., 1, in
    turn, and whose call with node l's returns node l - 1's (M,) column
    sum_{j >= l} e^{-decay (t_j - t_{l-1})} a_{1,j} d values[j]/dW_{l-1}, in O(M).
    reverse_jump_sweep(decay), when given, is the same pass over the jump
    shifts: node l - 1's (M, K) column is sum_{j >= l} e^{-decay (t_j - t_{l-1})}
    [P_j(values[j] + shift) - P_j(values[j])], shift the mark-k jump shift of
    values[j] at node l - 1 (exact for the polynomials of the Taylor rows).
    """

    name: str
    values: np.ndarray | RunningSumRows  # (N+1, M), or rows formed on request
    brownian_sensitivity: Optional[Callable[[int], Iterable[np.ndarray | float]]] = None
    jump_shift: Optional[Callable[[int], Iterable[np.ndarray | float]]] = None
    reverse_sweep: Optional[Callable[[float], Callable[[np.ndarray], np.ndarray]]] = None
    reverse_jump_sweep: Optional[Callable[[float], Callable[[np.ndarray], np.ndarray]]] = None


def _repeated(paths: PathBundle, row: Callable[[int], np.ndarray | float]) -> Callable:
    """Node-i sensitivity rows that all equal row(i)."""
    return lambda i: repeat(row(i), paths.n_steps - i) if i < paths.n_steps else iter(())


def brownian_feature(paths: PathBundle) -> Feature:
    """The Brownian level B(t_i), its rows formed on request."""
    return weighted_brownian_feature(np.ones(paths.n_steps), paths, name="brownian")


def jump_sum_feature(paths: PathBundle) -> Feature:
    """The compensated mark-weighted jump sum eta(t_i), its rows formed on request."""
    marks = paths.jumps.mark_array
    return Feature(
        name="jump_sum",
        values=RunningSumRows(lambda j: paths.increments_at(j)[1] @ marks, paths),
        brownian_sensitivity=_repeated(paths, lambda i: 0.0),
        jump_shift=_repeated(paths, lambda i: marks[:, None]),
    )


def state_feature(values: np.ndarray, name: str = "state",
                  brownian_sensitivity=None, jump_shift=None) -> Feature:
    return Feature(name=name, values=values,
                   brownian_sensitivity=brownian_sensitivity, jump_shift=jump_shift)


class RunningSumRows:
    """The rows S_0 = 0, S_1, ..., S_N of S_{j+1} = step(j) + S_j, formed on request.

    `step(j)` returns a new (M,) array; row j+1 is that array with S_j added in place,
    and row 1 is step(0) itself, so the rows are bit-identical to `np.cumsum` of the
    steps along the nodes, with no (N, M) array of them. Only the last row read and its
    node are held, O(M). `rows[j]` steps forward from there to node j, and a read of an
    earlier node starts again from S_0, so every order of reads gives the same bits.
    A row is handed out read-only: the next step reads it.
    """

    def __init__(self, step: Callable[[int], np.ndarray], paths: PathBundle):
        self.step, self.paths = step, paths
        self._node, self._row = 0, None

    def __len__(self) -> int:
        return self.paths.n_steps + 1

    def __getitem__(self, j: int) -> np.ndarray:
        if not 0 <= j < len(self):
            raise IndexError(f"node {j} is outside 0..{len(self) - 1}")
        if j < self._node or j == 0:
            self._node, self._row = 0, None
        while self._node < j:
            row = self.step(self._node)
            if self._node:
                row += self._row
            self._node, self._row = self._node + 1, row
        if self._row is None:
            self._row = np.zeros(self.paths.n_paths)
        self._row.flags.writeable = False
        return self._row


def weighted_brownian_feature(weights: np.ndarray, paths: PathBundle,
                              name: str = "weighted_brownian") -> Feature:
    """Running integral sum_{j<i} w_j dW_j of a deterministic weight grid, its rows formed
    on request (`RunningSumRows`)."""
    w = np.asarray(weights, dtype=float)
    return Feature(
        name=name,
        values=RunningSumRows(lambda j: w[j] * paths.dW[j], paths),
        brownian_sensitivity=_repeated(paths, lambda i: w[i]),
        jump_shift=_repeated(paths, lambda i: 0.0),
    )


def predicted_terminal_feature(model, control: ControlProcess,
                               paths: PathBundle) -> Feature:
    """Running best prediction of the terminal state for x-independent models.

    values[i] = xi(T) + sum_{j<i} [b(T,t_j,u_j) dt + sigma(T,t_j,u_j) dW_j
    + sum_k gamma(T,t_j,u_j,z_k) dN~_{j,k}], which equals E[X(T) | F_{t_i}]
    because the remaining increments are independent of F_{t_i}. That needs an
    open-loop control that is the same on every path, so one whose values vary across
    paths is refused, as is a feedback rule.
    """
    if not model.x_independent:
        raise ConfigurationError(
            f"predicted terminal feature needs an x-independent model, got {model.name!r}")
    n, m, jumps = paths.n_steps, paths.n_paths, paths.jumps
    t = paths.grid.nodes
    u = control.open_loop_grid(n, m)
    if np.ptp(u, axis=1).any():  # values that vary across paths may read the noise
        raise ConfigurationError("predicted terminal feature needs a control that is the "
                                 "same on every path: a per-path control's dependence on "
                                 "the noise would be left out of E[X(T) | F_t]")
    sums = noise_sums(model, paths, None, u).values()
    vals = np.zeros((n + 1, m))
    np.cumsum([sum(s(t[n], slice(j, j + 1)) for s in sums) for j in range(n)],
              axis=0, out=vals[1:])
    vals += model.initial_curve(t[n])

    marks = jumps.mark_array[:, None]
    return Feature(name="predicted_terminal", values=vals,
                   brownian_sensitivity=_repeated(
                       paths, lambda i: model.diffusion(t[n], t[i], None, u[i])),
                   jump_shift=_repeated(paths, lambda i: model.jump(t[n], t[i], None, u[i], marks)))


def default_features(paths: PathBundle, states=None) -> list[Feature]:
    """Spec default feature set: Brownian level, state if supplied, jump sum. The first and
    the last form their rows on request (`RunningSumRows`), so a check that fits node
    after node builds the set once and reads it in node order."""
    feats = [brownian_feature(paths)]
    if states is not None:
        feats.append(state_feature(np.asarray(states, dtype=float)))
    if paths.jumps.active:
        feats.append(jump_sum_feature(paths))
    return feats


# A node regression needs at least this many paths per basis monomial.
MIN_PATHS_PER_COLUMN = 10


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

    def path_floor(self, n_raw: int) -> int:
        """Fewest paths a fit on `n_raw` raw features takes: MIN_PATHS_PER_COLUMN paths
        per column of the basis."""
        return MIN_PATHS_PER_COLUMN * self.dimension(n_raw)


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
    means and spreads are one pass of contiguous row reductions, and drop
    each monomial constant to round-off (`_standardize`); the intercept row
    has mean 0 and spread exactly 1.

    The fitted object doubles as an explicit surrogate: `predict` evaluates
    the fitted polynomial at any raw-feature values and `gradient_raw` its
    gradient in each raw feature. Only the standardization, the ridge-free
    Gram `gram` and the Cholesky factor of its ridged version are kept. With
    `retain_design` the (p, M) design rows are kept too, and `design()`
    returns them; otherwise `design()` rebuilds them from the raw features
    with the same arithmetic, so the two are bit-identical.
    """

    def __init__(self, features: Sequence[Feature], node: int, basis: RegressionBasis,
                 design_node: int | None = None, retain_design: bool = False):
        self._bind(features, node, basis, design_node)
        raw = self.raw_values()
        self.n_paths = raw.shape[0]
        if self.n_paths < (need := basis.path_floor(len(self.features))):
            raise RegressionError(f"need at least {need} paths for a basis of dimension "
                                  f"{len(self.exponents)}, got {self.n_paths}")
        rows = self._monomial_rows(raw)
        mean = rows.mean(axis=1)
        rows[1:] -= mean[1:, None]   # row 0, the intercept, keeps mean 0: nothing to subtract
        self._standardize(mean, np.sqrt(np.einsum("ij,ij->i", rows, rows) / self.n_paths))
        rows = self._kept(rows)
        rows[1:] /= self.col_scale[1:, None]   # the intercept's spread is sqrt(M / M) = 1.0
        self._factor(rows @ rows.T / self.n_paths)
        self._rows = rows if retain_design else None

    @classmethod
    def scaled_powers(cls, feature: Feature, node: int, basis: RegressionBasis,
                      n_paths: int, sd: float, gram: np.ndarray) -> "NodeRegression":
        """The regression on the uncentred powers (x / sd)^a, a <= degree, of the feature's
        row x, with the Gram `gram`[keep, keep] of a known law: no design, no pass over the
        paths and no `__init__`. sd = 0 keeps the intercept alone."""
        reg = cls.__new__(cls)
        reg._bind([feature], node, basis)
        reg.n_paths, reg._rows = n_paths, None
        reg._standardize(np.zeros(basis.degree + 1), sd ** np.arange(basis.degree + 1.0))
        reg._factor(gram[np.ix_(reg.keep, reg.keep)])
        return reg

    def _bind(self, features: Sequence[Feature], node: int, basis: RegressionBasis,
              design_node: int | None = None) -> None:
        self.features, self.node, self.basis = list(features), node, basis
        self.design_node = node if design_node is None else design_node
        self.exponents = _monomial_exponents(len(self.features), basis.degree)
        self._index = {e: k for k, e in enumerate(self.exponents)}

    def _standardize(self, mean: np.ndarray, spread: np.ndarray) -> None:
        """Keep the intercept (mean 0, spread 1) and each monomial not constant to round-off."""
        mean[0], spread[0] = 0.0, 1.0
        # A monomial equal to c on every path has spread |c - mean|, the error of the computed
        # mean: at most about M u |c| (u = eps / 2) in any summation order, so within M eps
        # |mean|; its column would repeat the intercept, and no varying monomial is that flat.
        noise = self.n_paths * np.finfo(float).eps * np.abs(mean)
        self.keep = [0] + [k for k in range(1, len(mean)) if spread[k] > noise[k]]
        self.col_mean, self.col_scale = mean[self.keep], spread[self.keep]

    def _lift(self) -> np.ndarray:
        """(p, degree + 1) map of a one-feature basis from (1, x, ..., x^degree) to its columns."""
        lift, pos = np.zeros((len(self.keep), self.basis.degree + 1)), np.arange(len(self.keep))
        lift[pos, self.keep] = 1.0 / self.col_scale
        lift[pos[1:], 0] = -self.col_mean[1:] / self.col_scale[1:]
        return lift

    def _factor(self, gram: np.ndarray) -> None:
        """Keep the ridge-free Gram (an RMS is a form in it) and the factor of its ridged one."""
        self.gram = gram
        try:
            self._chol = np.linalg.cholesky(gram + self.basis.ridge * np.eye(len(gram)))
        except np.linalg.LinAlgError as exc:
            raise RegressionError(
                "regression design is rank deficient even after ridge "
                "regularization; reduce the basis degree"
            ) from exc

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
        rows[1:] -= self.col_mean[1:, None]
        rows[1:] /= self.col_scale[1:, None]
        return rows.T

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        y = np.linalg.solve(self._chol, rhs)
        return np.linalg.solve(self._chol.T, y)

    def coefficients(self, targets: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
        """Standardized-column coefficients for the given targets, (p,) or (p, q), from einsum
        path sums Phi^T targets, whose bits (unlike a BLAS product's) do not depend on threads."""
        phi, targets = self.design() if phi is None else phi, np.asarray(targets, dtype=float)
        sums = np.einsum("pm,m->p", phi.T, targets) if targets.ndim == 1 else \
            np.einsum("pm,qm->pq", phi.T, np.ascontiguousarray(targets.T))
        return self._solve(sums / self.n_paths)

    def fit(self, targets: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
        """Fitted values of the ridge projection; targets (M,) or (M, q)."""
        phi = self.design() if phi is None else phi
        coef = self.coefficients(targets, phi=phi)
        return phi @ coef

    # -- surrogate evaluation at arbitrary raw-feature values ----------------

    def predict(self, raw: np.ndarray, coef: np.ndarray) -> np.ndarray:
        return self.design(raw) @ np.ravel(coef)

    def _derivative_rows(self, coef: np.ndarray, rows: np.ndarray, r: int,
                         degree: int) -> np.ndarray:
        """P^(d)/d! in raw feature r, d = 1..degree, of the fitted polynomial P, as
        (degree, M) rows: d^d(x^e)/dx_r^d / d! = C(e_r, d) x^(e - d 1_r), with the
        monomial rows `rows` of the product tree."""
        coef = np.ravel(coef)
        out = np.zeros((degree, rows.shape[1]))
        for pos, k in enumerate(self.keep[1:], 1):
            e, c = self.exponents[k], coef[pos] / self.col_scale[pos]
            if c == 0.0:
                continue
            for d in range(1, min(e[r], degree) + 1):
                lowered = self._index[e[:r] + (e[r] - d,) + e[r + 1:]]
                out[d - 1] += (c * math.comb(e[r], d)) * rows[lowered]
        return out

    def gradient_raw(self, coef: np.ndarray, raw: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the fitted polynomial with respect to each raw feature.

        d(x^e)/dx_r = e_r x^(e - 1_r), read off the product tree. Returns
        (M, n_raw) evaluated at the node's own raw values by default.
        """
        rows = self._monomial_rows(self.raw_values() if raw is None else raw)
        return np.stack([self._derivative_rows(coef, rows, r, 1)[0]
                         for r in range(len(self.features))], axis=1)

    def horner(self, coef: np.ndarray) -> np.ndarray:
        """The fitted polynomial of a one-feature regression at the node's raw values, by
        Horner's rule in the raw feature x: (M,) for coef (p,), (q, M) for coef (p, q).

        The kept standardized column (x^a - mean_a) / scale_a adds coef_a / scale_a to the
        coefficient of x^a and -coef_a mean_a / scale_a to the constant (`_lift`^T coef), so
        no design is built. This is well conditioned while |mean_a| / scale_a is of order one,
        as for a zero-mean martingale feature; the powers stop at the highest kept one.
        """
        if len(self.features) != 1:
            raise ConfigurationError(f"Horner's rule needs one feature, got {len(self.features)}")
        coef = np.asarray(coef, dtype=float)
        power = np.tensordot(self._lift()[:, :self.keep[-1] + 1], coef, axes=(0, 0))
        x = self.features[0].values[self.design_node]
        out = np.repeat(power[-1][..., None], len(x), axis=-1)
        for r in power[-2::-1]:
            out *= x
            out += r[..., None]
        return out

    def taylor_rows(self, coef: np.ndarray, r: int = 0) -> np.ndarray:
        """(degree, M) rows P^(d)/d!, d = 1..degree, of the fitted polynomial P in raw
        feature r at the node's raw values, so that P(x + delta e_r) - P(x) =
        sum_d rows[d - 1] delta^d exactly: the polynomial has no higher terms."""
        rows = self._monomial_rows(self.raw_values())
        return self._derivative_rows(coef, rows, r, self.basis.degree)


def _normal_moments(top: int) -> np.ndarray:
    """E[Z^k], k = 0..top, of a standard normal Z: (k - 1)!! for even k, 0 for odd k."""
    out = np.zeros(top + 1)
    out[0] = 1.0
    for k in range(2, top + 1, 2):
        out[k] = (k - 1) * out[k - 2]
    return out


class BackwardProjector:
    """Backward march on coefficients with exact one-step Gaussian moments ("regression
    later": Glasserman & Yu 2004; Bender & Steiner 2012).

    v_N = F, v_j = E_j[v_{j+1}] - r_j Z_j dt, Z_j = E_j[v_{j+1} dW_j] / dt, on the basis
    u_j^b = (S_j / sd_j)^b, b <= d, of the running theta-integral S_j = sum_{l<j} theta_l dW_l,
    the rows of `feature` (`weighted_brownian_feature(theta, paths)`), with sd_j^2 =
    sum_{l<j} theta_l^2 dt. The loading is deterministic and dW_j ~ N(0, dt) is independent of
    F_j, so E_j maps the degree-d polynomials of S_{j+1} = S_j + theta_j dW_j to those of S_j
    exactly. With rho_j = sd_j / sd_{j+1}, kappa_j = theta_j sqrt(dt) / sd_{j+1} and nu_k =
    E[Z^k] of a standard normal,

        E_j[u_{j+1}^b] = sum_a A_j[a, b] u_j^a,   A_j[a, b] = C(b, a) rho_j^a kappa_j^(b-a) nu_(b-a),

    that is C(b, a) theta_j^(b-a) mu_(b-a) sd_j^a / sd_{j+1}^b with mu_k = E[dW^k]; B_j, of
    E_j[u_{j+1}^b dW_j] / sqrt(dt), is the same with nu_(b-a+1). So v_{j+1} = u_{j+1} . c_{j+1}
    gives a_j = A_j c_{j+1} (`carry`), b_j = B_j c_{j+1} / sqrt(dt) (`carry_z`) and c_j = a_j -
    r_j dt b_j, and E_j[v_{j+1}] is F_j-measurable, so the centred product needs no
    correction. The paths enter once, at T: `terminal_moments` fits F by least squares on
    the powers of S_N (`terminal_reg`, a `NodeRegression`, the build's one walk of the rows),
    then one p x p update per node follows. Node j's regression `regs[j]` is
    `NodeRegression.scaled_powers` on sd_j with the exact Gram E[u^(a+b)] = nu_(a+b); node 0
    (sd_0 = 0), and every node before the loading's first non-zero value, keeps the intercept
    alone.
    """

    def __init__(self, theta: np.ndarray, feature: Feature, paths: PathBundle,
                 basis: RegressionBasis | None = None):
        n, self.dt = paths.n_steps, paths.grid.dt
        self.basis, self.feature = basis or RegressionBasis(), feature
        theta, degree = np.asarray(theta, dtype=float)[:n], self.basis.degree
        self.terminal_reg = NodeRegression([feature], n, self.basis)   # refuses too few paths
        self.sd = np.sqrt(np.concatenate(([0.0], np.cumsum(theta ** 2 * self.dt))))
        nu = _normal_moments(2 * degree + 1)
        a, b = np.ogrid[:degree + 1, :degree + 1]
        gap, binom = np.maximum(b - a, 0), np.vectorize(math.comb)(b, a).astype(float)
        self.regs = [NodeRegression.scaled_powers(feature, j, self.basis, paths.n_paths, sd,
                                                  nu[a + b]) for j, sd in enumerate(self.sd[:n])]
        # node N's columns are every power: the fit's coefficients on them are 0 when sd_N = 0
        keep = [reg.keep for reg in self.regs] + [list(range(degree + 1))]
        self.carry, self.carry_z = [], []
        for j in range(n):
            nxt = self.sd[j + 1]
            rho, kappa = (self.sd[j] / nxt, theta[j] * math.sqrt(self.dt) / nxt) if nxt \
                else (1.0, 0.0)
            terms, block = binom * rho ** a * kappa ** gap, np.ix_(keep[j], keep[j + 1])
            self.carry.append((terms * nu[gap])[block])
            self.carry_z.append((terms * nu[gap + 1])[block] / math.sqrt(self.dt))

    def terminal_moments(self, terminal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """a_{N-1} and b_{N-1} of the least-squares fit of F on the powers of S_N, the march's
        one pass over the paths (einsum path sums, `NodeRegression.coefficients`): the start
        of `march`, formed once per terminal F."""
        reg = self.terminal_reg
        raw = reg._lift().T @ reg.coefficients(terminal)   # on (1, S_N, ..., S_N^d)
        coef = raw * self.sd[-1] ** np.arange(len(raw))      # on the powers of S_N / sd_N
        return self.carry[-1] @ coef, self.carry_z[-1] @ coef

    def march(self, start: tuple[np.ndarray, np.ndarray], ratios: np.ndarray, stop: int = 0
              ) -> tuple[list, list, list]:
        """Per-node lists of a_j, b_j, c_j from T down to `stop` (None below), from the
        `terminal_moments` of F; r_j = ratios[j].

        `ratios` is (N,), giving (p,) coefficients, or (N, R), giving R marches at once from
        the same F: the start moments broadcast as (p, 1), so a_{N-1} and b_{N-1}, the same
        for every march, are (p, 1), and every other a_j, b_j and c_j is (p, R), its column
        r the march with ratios[:, r]. Each node then takes one p x p by p x R product per
        carry, where R separate marches take R.
        """
        n, ratios = len(self.regs), np.asarray(ratios, dtype=float)
        lift = (slice(None),) + (None,) * (ratios.ndim - 1)
        a, b, c = [None] * n, [None] * n, [None] * n
        for j in range(n - 1, stop - 1, -1):
            if j == n - 1:
                a[j], b[j] = (s[lift] for s in start)
            else:
                a[j], b[j] = self.carry[j] @ c[j + 1], self.carry_z[j] @ c[j + 1]
            c[j] = a[j] - ratios[j] * self.dt * b[j]
        return a, b, c

    def rms(self, node: int, coef: np.ndarray) -> float:
        """Root mean square over paths of Phi_node coef, from the ridge-free Gram."""
        return math.sqrt(max(float(coef @ self.regs[node].gram @ coef), 0.0))


def conditional_expectation(values: np.ndarray, node: int, paths: PathBundle,
                            basis: RegressionBasis | None = None,
                            features: Sequence[Feature] | None = None,
                            info: InfoMode | None = None) -> np.ndarray:
    """Per-path regression estimate of E[values | F_{t_node}], on `features` (by default
    `default_features(paths)`, built for this one call).

    Under delayed information the design features are taken at the lagged
    node (t - delay)+ instead, realizing E[. | G_t].
    """
    basis = basis or RegressionBasis()
    feats = list(features) if features is not None else default_features(paths)
    design_node = node
    if info is not None and not info.is_full:
        design_node = info.observable_node(node, paths.grid)
    return NodeRegression(feats, node, basis, design_node=design_node,
                          retain_design=True).fit(values)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    """Two Monte Carlo estimates of the sides of one identity, each with its standard
    error (`volterra.monte_carlo_estimate`). A degenerate report, whose sides vanish
    identically, always holds."""

    lhs: float
    stderr_lhs: float
    rhs: float
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


def check_duality_brownian(functional: PathFunctional, u, paths: PathBundle,
                           basis: RegressionBasis | None = None) -> IdentityReport:
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
    feats = default_features(paths)
    for i in range(n):
        proj = conditional_expectation(d_brownian(functional, paths, i), i, paths, basis,
                                       features=feats)
        rhs_path += proj * u_arr[i] * dt
    return IdentityReport(*monte_carlo_estimate(lhs_path), *monte_carlo_estimate(rhs_path))


def check_duality_jump(functional: PathFunctional, psi, paths: PathBundle,
                       basis: RegressionBasis | None = None) -> IdentityReport:
    """Jump analogue: E[F int int Psi dN~] = E[int int Psi E[D_{t,z}F|F_t] nu(dz) dt].

    `psi` is adapted and mark-indexed: (N, K), (N, M, K), or callable. With
    zero jump intensity both sides vanish; the report is flagged degenerate.
    Each node's regression is built once and fits all K marks.
    """
    jumps = paths.jumps
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    if not jumps.active:
        return IdentityReport(0.0, 0.0, 0.0, 0.0, degenerate=True)
    k = jumps.n_marks
    psi_arr = np.asarray(psi(paths) if callable(psi) else psi, dtype=float)
    if psi_arr.ndim == 2:
        psi_arr = psi_arr[:, None, :]
    psi_arr = np.broadcast_to(psi_arr, (n, m, k))
    f_vals = np.asarray(functional(paths), dtype=float)
    lhs_path = f_vals * compensated_jump_sum(paths, psi_arr)
    rhs_path = np.zeros(m)
    feats = default_features(paths)
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
    return IdentityReport(*monte_carlo_estimate(lhs_path), *monte_carlo_estimate(rhs_path))


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
                            basis: RegressionBasis | None = None) -> ReconstructionReport:
    """Reconstruct F from its predictable projection integrand.

    residual_m = F_m - mean(F) - sum_i E[D_{t_i}F | F_{t_i}]_m dW_i^m, with
    the relative RMS reported against std(F). Configured for Brownian-only
    bundles.
    """
    if paths.jumps.active:
        raise ConfigurationError("reconstruction check requires a Brownian-only bundle")
    f_vals = np.asarray(functional(paths), dtype=float)
    resid = f_vals - f_vals.mean()
    feats = default_features(paths)
    for i in range(paths.n_steps):
        resid -= conditional_expectation(d_brownian(functional, paths, i), i, paths,
                                         basis, features=feats) * paths.dW[i]
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
    Order 2 costs O(N M) for a constant kernel and O(N^2 M) for a callable.
    """
    n, m = paths.n_steps, paths.n_paths
    t = paths.grid.nodes[:-1]
    dW = paths.dW
    kf = _kernel_function(kernel)
    if order == 1:
        w = np.broadcast_to(np.asarray(kf(t), dtype=float), (n,))
        return np.einsum("i,im->m", w, dW)
    if order == 2 and not callable(kernel):
        # the inner sums of a constant kernel are the Brownian path, 2 k sum_j dW_j B(t_j),
        # kept as one running row
        acc, path = np.zeros(m), np.zeros(m)
        for j in range(n):
            acc += dW[j] * path
            path += dW[j]
        return 2.0 * float(kernel) * acc
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
        deriv = d_brownian(functional, paths, i)
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

