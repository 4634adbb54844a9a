"""Adjoint BSDE solvers and the Malliavin fields of the adjoint state.

The adjoint triple (p, q, r) solves a backward equation with terminal value
g'(X(T)) and a driver equal to the state-gradient of the full Hamiltonian,
which couples node i to every later node through the memory kernels and the
conditional Malliavin derivatives E[D_{t_i} p(t_j) | F_{t_i}].

Two solvers are provided. For x-independent coefficients and a running
reward with f_x = 0 on the run the driver vanishes and the triple is the
conditional-expectation solution: p is the martingale closed by g'(X(T)),
q its Brownian Malliavin derivative and r its add-one-jump derivative, all
realized by node regressions. The general solver marches backward with
regression conditional expectations in one sweep. That sweep is exact, not
a first Picard iterate: the driver at node i reads p and the surrogates of
nodes j > i only, which are final by the time node i is reached, so a
second sweep reproduces the first bit for bit.

A solve is one object: the triple carries the run, model and performance
functional it was solved for, and every reader takes the triple and its field.
`solve_adjoint` makes the run and picks the solver and the state feature for it.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError
from .hamiltonian import hamiltonian_terms
from .malliavin import (
    Feature,
    NodeRegression,
    RegressionBasis,
    default_features,
    fd_step,
    predicted_terminal_feature,
    state_feature,
)
from .models import CoefficientModel, PerformanceSpec
from .volterra import (
    StateEnsemble,
    decay_weights,
    integral_form_rows,
    reverse_memory_sums,
    simulate_integral_form,
)

_MAX_STEPS = 256


def _restarts(model: CoefficientModel, control, jumps) -> bool:
    """True when the state feature of a run of this model (`simulated_state_feature`)
    re-runs the simulator: for a feedback rule, a kernel without a declared decay, or
    active jumps on a model not affine in x. Otherwise reverse sweeps give it, the
    Brownian columns and the jump columns alike, with no re-run."""
    return control.rule is not None or not model.decays_declared \
        or (jumps.active and not model.affine_in_x)


def check_steps(model: CoefficientModel, control, jumps, steps: int) -> None:
    """The state feature's cost guard in grid steps, applied by `simulated_state_feature`:
    refuse more than `_MAX_STEPS` for a memory model whose state feature re-runs the
    simulator (`_restarts`: a feedback rule, an undeclared decay, or jumps on a model not
    affine in x), the runs whose field rows take re-runs from node 0 at every node,
    O(N^2 M) per solve. A model without memory reads no field row, the reverse sweeps
    re-run nothing, and a solve on other features re-runs nothing, so none is guarded."""
    if steps > _MAX_STEPS and model.memory_state_coupling and _restarts(model, control, jumps):
        raise ConfigurationError(
            f"grid.steps is {steps}, but the general adjoint solver for the memory model "
            f"{model.name!r} is cost-guarded to {_MAX_STEPS} steps where its state feature "
            "re-runs the simulator (feedback rule, undeclared decay, or jumps on a model "
            "not affine in x)")


@dataclass
class AdjointTriple:
    """Adjoint fields on the grid: p (N+1, M), and q and r as node coefficients.

    `qr_coefs[i]`, for node i < N, are node i's regression coefficients of q_i and
    then of r_i per mark (none for r where the solver leaves it zero), and `qr_scales`
    the divisors of their rows, q's first: `qr_rows` forms node i's q (M,) and r
    (M, K) on node i's design. q and r live on [0, T); their terminal rows are zero
    by convention. `surrogate_coefs[j]` are the regression coefficients that express
    p(t_j) as an explicit polynomial in the path features, which is what makes the
    Malliavin fields computable in closed form. `picard_iterations` is the
    number of backward sweeps, always 1, read by the `picard_iters` CSV column.
    `states`, `model` and `spec` are the run, the coefficients and the
    performance functional the triple was solved for.
    """

    states: StateEnsemble
    model: CoefficientModel
    spec: PerformanceSpec
    p: np.ndarray
    qr_coefs: list
    qr_scales: tuple
    regressions: list
    surrogate_coefs: list
    features: list
    picard_iterations: ClassVar[int] = 1

    def __post_init__(self):
        self._p_sums: dict = {}   # decay -> (lowest node built, its `p_sums` row or all rows)
        self._qr: tuple = (None, None, None)   # (i, q_i, r_i) of the node last asked for

    @property
    def n_nodes(self) -> int:
        return self.p.shape[0]

    def qr_rows(self, i: int, field) -> tuple[np.ndarray, np.ndarray]:
        """q_i (M,) and r_i (M, K): (design_i @ c) / scale for each of node i's
        coefficients, on the node-i design `field.design(i)`; zero rows at node N.

        The rows of the node last asked for are held, so a reader that asks node by
        node, as the sweep and the checks do, forms each node's rows once.
        """
        if self._qr[0] != i:
            m, k = self.p.shape[1], self.states.paths.jumps.n_marks
            q, r = np.zeros(m), np.zeros((m, k))
            if i < self.n_nodes - 1:
                phi = field.design(i)
                (c, *c_marks), (scale, *scale_marks) = self.qr_coefs[i], self.qr_scales
                q = (phi @ c) / scale
                for kk, (c, scale) in enumerate(zip(c_marks, scale_marks)):
                    r[:, kk] = (phi @ c) / scale
            self._qr = (i, q, r)
        return self._qr[1:]

    def terms(self, field, i: int, v, partial: str = "") -> list:
        """`hamiltonian_terms` of H<partial> at node i of the run for the control value v."""
        paths = self.states.paths
        return hamiltonian_terms(self.model, self.spec, paths.jumps, paths.grid.nodes[i],
                                 self.states.values[i], v, self.p[i], *self.qr_rows(i, field),
                                 partial, memory=(paths, i, self.p, field), p_sums=self.p_sums)

    def p_sums(self, i: int, decay: float) -> np.ndarray:
        """P_i = sum_{j>i} e^{-decay (t_j - t_i)} p_j, (M,): the forward sum of a drift
        kernel with this declared decay.

        Built downward by the recursion P_j = e^{-decay (t_{j+1} - t_j)} (p_{j+1} +
        P_{j+1}), P_N = 0, as far as the lowest node asked for: O(M) per node. While
        the nodes are asked for downward, as the sweep asks for them once p_{i+1}, ...,
        p_N are final, only the lowest row is kept; the first read above it (the
        readers after the sweep go upward) builds every row again, the same bits, and
        keeps them, one (N+1, M) array per decay.
        """
        t = self.states.paths.grid.nodes
        low, rows = self._p_sums.get(decay) or (self.n_nodes - 1, np.zeros((1, self.p.shape[1])))
        if i > low and len(rows) == 1:
            low, rows = self.n_nodes - 1, np.zeros_like(self.p)
        every = len(rows) > 1   # rows[j] is P_j; else rows[0] is P_low
        for j in range(low - 1, i - 1, -1):
            np.multiply(np.exp(-decay * (t[j + 1] - t[j])), self.p[j + 1] + rows[(j + 1) * every],
                        out=rows[j * every])
        self._p_sums[decay] = (min(low, i), rows)
        return rows[i * every]


class SurrogateMalliavinField:
    """Conditional Malliavin derivatives of p built from its node surrogates.

    dp_rows(i)[j] approximates E[D_{t_i} p(t_j) | F_{t_i}] by differentiating
    the node-j surrogate through the feature map and projecting onto the
    node-i information set. Rows j <= i are zero: the forward sums read only
    the rows j > i.

    Invariant: the surrogates of nodes j > i are final when row i is first
    requested (the backward sweep fits node j before it asks for row i < j).
    So each node's gradient, each node's unshifted surrogate value and the
    projected rows j > i of each node, Brownian and per mark, are computed
    once; the rows are kept as node-i regression coefficients, p x (N - i),
    and rebuilt per path as design_i @ coef. The design of the node last
    asked for is held, so a sweep builds each node's design once.

    One pass per read: the features' node-i rows (see `Feature`) are read once
    per kind, at node i of the sweep, and each is added into the node's
    targets as it arrives, so a feature may form its rows as they are read
    and hold none. Surrogate rows are kept for earlier nodes only while the
    sweep runs (`sweep`); later readers take the memoized coefficients.

    The reverse path: when the surrogates read one feature and it has a
    `reverse_sweep` (the simulated state of an open-loop control on a model
    whose kernels all declare their decays), `weighted_rows` projects one
    target column per node and decay, Brownian or per mark, and reads no
    sensitivity row. Each column is a reverse sweep's, one per decay and kind,
    fed the surrogates' Taylor rows P_l^(d)/d! (`NodeRegression.taylor_rows`)
    for l = N, N - 1, ... as far as node i, and the coefficients of every node
    it passes are kept. The Brownian sweep reads the gradients P_l'. The jump
    sweep (`reverse_jump_sweep`, on a model affine in x) gives sum_{j>i}
    e^{-decay (t_j - t_i)} [P_j(X_j + delta) - P_j(X_j)], with delta the node-i
    jump shift of X_j, by the Taylor powers of delta (`volterra.reverse_memory_sums`),
    O(M) per node and no re-run. A feature without it has its jump
    column summed from the projected rows of its `jump_shift` blocks.
    """

    def __init__(self, triple: AdjointTriple):
        self.triple = triple
        self.paths = triple.states.paths
        self._node_rows: dict = {}   # (kind, j) -> a `_surrogate` of node j, during a sweep
        self._sweeping = False
        self._row_coefs: dict = {}   # (i, False) -> dp coefficients, (i, True) -> djump's K
        self._node_design: tuple = (None, None)   # (i, design of node i)
        feats = triple.features
        self._reverse = {False: feats[0].reverse_sweep, True: feats[0].reverse_jump_sweep} \
            if len(feats) == 1 else {}   # jump -> the feature's reverse sweep, or None
        self._weighted: dict = {}    # (i, decay, jump) -> weighted_rows coefficients
        self._sweeps: dict = {}      # (decay, jump) -> (next node to feed, the sweep's column)

    def design(self, i: int) -> np.ndarray:
        """The node-i regression design (M, p), held until another node's is asked for."""
        if self._node_design[0] != i:
            self._node_design = (i, self.triple.regressions[i].design())
        return self._node_design[1]

    def _surrogate(self, kind: str, j: int) -> np.ndarray:
        """Node j's surrogate `gradient` (M, F), unshifted `value` (M,) or `taylor` rows
        (degree, M). The gradient and value rows are kept for the nodes i < j while a
        sweep runs; the Taylor rows, which each reverse sweep reads once, are not."""
        if (kind, j) in self._node_rows:
            return self._node_rows[kind, j]
        reg, coef = self.triple.regressions[j], self.triple.surrogate_coefs[j]
        if kind == "gradient":
            rows = reg.gradient_raw(coef)
        elif kind == "value":
            rows = reg.predict(reg.raw_values(), coef)
        else:
            rows = reg.taylor_rows(coef)
        if self._sweeping and kind != "taylor":
            self._node_rows[kind, j] = rows
        return rows

    @contextmanager
    def sweep(self):
        """The span of a backward sweep, the only reader that keeps surrogate rows, which
        are dropped on leaving it."""
        self._sweeping = True
        try:
            yield
        finally:
            self._sweeping = False
            self._node_rows.clear()

    def _rows(self, i: int, attr: str) -> Iterator[tuple]:
        """(j, every feature's `attr` row j) for j = i+1..N, in node order."""
        feats = self.triple.features
        for feat in feats:
            if getattr(feat, attr) is None:
                raise ConfigurationError(
                    f"feature {feat.name!r} has no {attr}; supply one (for simulated states, "
                    "a finite-difference pass through the simulator) to build Malliavin fields")
        rows = zip(*(getattr(feat, attr)(i) for feat in feats), strict=True)
        return zip(range(i + 1, self.triple.n_nodes), rows, strict=True)

    def _coefs(self, i: int, jump: bool = False):
        """Node-i coefficients, p x (N - i), of the rows j > i of dp_rows(i), or with
        `jump` a list of them, one per mark of djump_rows(i)."""
        if (i, jump) not in self._row_coefs:
            fit = self.triple.regressions[i].coefficients
            if jump:
                coefs = [fit(target, phi=self.design(i)) for target in self._shifted_deltas(i)]
            else:
                coefs = fit(self._chain_rule(i), phi=self.design(i))
            self._row_coefs[i, jump] = coefs
        return self._row_coefs[i, jump]

    def _chain_rule(self, i: int) -> np.ndarray:
        """(M, N - i) targets: column c is sum_f dP_j/dx_f times f's Brownian row j,
        j = i + 1 + c."""
        out = np.zeros((self.paths.n_paths, self.triple.n_nodes - i - 1))
        for c, (j, rows) in enumerate(self._rows(i, "brownian_sensitivity")):
            for pos, row in enumerate(rows):
                out[:, c] += self._surrogate("gradient", j)[:, pos] * row
        return out

    def _shifted_deltas(self, i: int) -> list:
        """K (M, N - i) targets, one per mark k: column c is P_j(raw_j + the features'
        mark-k shift rows j) - P_j(raw_j) of the node-j surrogate (exact), j = i + 1 + c."""
        m, k = self.paths.n_paths, self.paths.jumps.n_marks
        out = [np.empty((m, self.triple.n_nodes - i - 1)) for _ in range(k)]
        for c, (j, rows) in enumerate(self._rows(i, "jump_shift")):
            reg, coef = self.triple.regressions[j], self.triple.surrogate_coefs[j]
            shifts = [np.broadcast_to(row, (k, m)) for row in rows]
            for kk in range(k):
                out[kk][:, c] = reg.predict(reg.raw_values() + np.column_stack(
                    [s[kk] for s in shifts]), coef) - self._surrogate("value", j)
        return out

    def _reverse_to(self, i: int, decay: float, jump: bool) -> None:
        """Run the reverse sweep of `decay`, over the jump shifts with `jump` and else the
        Brownian sensitivities, down to node i, keeping the coefficients of the column of
        every node it passes. A sweep that has reached node 0 is let go."""
        node, column = self._sweeps.pop((decay, jump), None) or (
            self.triple.n_nodes - 1, self._reverse[jump](decay))
        while node > i:
            target = column(self._surrogate("taylor", node))
            node -= 1
            self._weighted[node, decay, jump] = self.triple.regressions[node].coefficients(
                target, phi=self.design(node))
        if node:
            self._sweeps[decay, jump] = (node, column)

    def weighted_rows(self, i: int, decay: float, jump: bool = False) -> np.ndarray:
        """sum_{j>i} e^{-decay (t_j - t_i)} dp_rows(i)[j], (M,), or of djump_rows(i),
        (M, K), for node i < N.

        Each row is design_i @ coef, so the sum is design_i @ (coef @ weights):
        one product with the held design, no (N - i, M) rows. On the reverse path
        (see the class) the coefficients are those of the one projected column.
        """
        if self._reverse.get(jump) is None:
            weights = decay_weights(self.paths.grid.nodes, i, decay)
            if jump:
                coef = np.stack([c @ weights for c in self._coefs(i, jump=True)], axis=1)
            else:
                coef = self._coefs(i) @ weights
            return self.design(i) @ coef
        if (i, decay, jump) not in self._weighted:
            self._reverse_to(i, decay, jump)
        return self.design(i) @ self._weighted[i, decay, jump]

    def dp_rows(self, i: int) -> np.ndarray:
        out = np.zeros((self.triple.n_nodes, self.paths.n_paths))
        out[i + 1:] = (self.design(i) @ self._coefs(i)).T
        return out

    def djump_rows(self, i: int) -> np.ndarray:
        out = np.zeros((self.triple.n_nodes, self.paths.n_paths, self.paths.jumps.n_marks))
        for kk, coef in enumerate(self._coefs(i, jump=True)):
            out[i + 1:, :, kk] = (self.design(i) @ coef).T
        return out


class ExplicitXIndependentField:
    """Malliavin field of the martingale adjoint: constant in the future index.

    For p(t) = E[g'(X(T)) | F_t] the commutation of D with conditional
    expectation gives E[D_{t_i} p(t_j) | F_{t_i}] = E[D_{t_i} g'(X(T)) |
    F_{t_i}] for every j >= i, so one projected derivative per node suffices:
    the triple's q_i and r_i (`AdjointTriple.qr_rows`).
    """

    def __init__(self, triple: AdjointTriple):
        self.triple = triple

    def design(self, i: int) -> np.ndarray:
        """The node-i regression design (M, p)."""
        return self.triple.regressions[i].design()

    def dp_rows(self, i: int) -> np.ndarray:
        out = np.zeros_like(self.triple.p)
        out[i:] = self.triple.qr_rows(i, self)[0]
        return out

    def djump_rows(self, i: int) -> np.ndarray:
        r = self.triple.qr_rows(i, self)[1]
        out = np.zeros((self.triple.n_nodes, *r.shape))
        out[i:] = r
        return out

    def weighted_rows(self, i: int, decay: float, jump: bool = False) -> np.ndarray:
        """sum_{j>i} e^{-decay (t_j - t_i)} dp_rows(i)[j] (or djump_rows): (sum of the
        weights) * row i."""
        weights = decay_weights(self.triple.states.paths.grid.nodes, i, decay)
        return weights.sum() * self.triple.qr_rows(i, self)[jump]


def solve_explicit_x_independent(model: CoefficientModel, spec: PerformanceSpec,
                                 states: StateEnsemble, basis: RegressionBasis | None = None
                                 ) -> tuple[AdjointTriple, ExplicitXIndependentField]:
    """Conditional-expectation adjoint for x-independent coefficients.

    p_i projects g'(X_T) onto the node-i information, q_i projects its
    Brownian derivative, r_i its add-one-jump derivative. The returned field
    carries E[D_{t_i} p(t_j)|F_{t_i}], constant in j >= i.

    Under an open-loop control X_T is affine in every increment: dW_i moves it
    by sigma(T, t_i, u_i) and a jump of mark z_k by gamma(T, t_i, u_i, z_k),
    the node-i rows of the predicted-terminal feature (all equal). So both derivatives
    are differences of g' at shifted X_T, O(M) per node with no re-simulation.
    A feedback control has no such feature and is refused, and so is a run on which
    the running reward reads x: its f_x is a driver this solver leaves out.
    """
    if not model.x_independent:
        raise ConfigurationError("explicit adjoint solver requires an x-independent model")
    if _running_reads_x(spec, states):
        raise ConfigurationError("explicit adjoint solver requires spec.running_dx = 0 on the "
                                 "run, the driver dH/dx of an x-independent model")
    basis = basis or RegressionBasis()
    paths = states.paths
    feature = predicted_terminal_feature(model, states.control, paths)
    n, m, k = paths.n_steps, paths.n_paths, paths.jumps.n_marks
    h, x_t = fd_step(paths), states.terminal

    def g_prime(x: np.ndarray) -> np.ndarray:
        return np.asarray(spec.terminal_prime(x), dtype=float)

    def finite(diff: np.ndarray, i: int, how: str) -> np.ndarray:
        if not np.all(np.isfinite(diff)):
            raise ValueError(f"terminal derivative is not finite {how} at node {i}")
        return diff

    g_term = g_prime(x_t)

    p = np.empty((n + 1, m))
    regs, coefs, qr_coefs = [], [], []
    p[n] = g_term
    for i in range(n):
        reg = NodeRegression([feature], i, basis)
        phi = reg.design()
        c = reg.coefficients(g_term, phi=phi)
        p[i] = phi @ c
        shift = h * np.broadcast_to(next(feature.brownian_sensitivity(i)), (m,))
        central = (g_prime(x_t + shift) - g_prime(x_t - shift)) / (2.0 * h)
        node = [reg.coefficients(finite(central, i, "under perturbation"), phi=phi)]
        jumps = np.broadcast_to(next(feature.jump_shift(i)), (k, m))
        for kk in range(k):
            bumped = g_prime(x_t + jumps[kk]) - g_term
            node.append(reg.coefficients(finite(bumped, i, "with an extra jump"), phi=phi))
        regs.append(reg)
        coefs.append(c)
        qr_coefs.append(node)
    reg_n = NodeRegression([feature], n, basis)
    regs.append(reg_n)
    coefs.append(reg_n.coefficients(g_term))
    # the rows are design_i @ c, a fit's values: x / 1.0 is x
    triple = AdjointTriple(states=states, model=model, spec=spec, p=p, qr_coefs=qr_coefs,
                           qr_scales=(1.0,) * (1 + k), regressions=regs,
                           surrogate_coefs=coefs, features=[feature])
    return triple, ExplicitXIndependentField(triple)


def _running_reads_x(spec: PerformanceSpec, states: StateEnsemble) -> bool:
    """True when f_x(t_i, X_i, u_i), i < N, is non-zero on some path of the run."""
    t = states.paths.grid.nodes
    return any(np.any(np.asarray(spec.running_dx(t[i], x, states.control_at(i))) != 0.0)
               for i, x in enumerate(states.values[:-1]))


def solve_general(model: CoefficientModel, spec: PerformanceSpec, states: StateEnsemble,
                  basis: RegressionBasis | None = None,
                  features: Sequence[Feature] | None = None
                  ) -> tuple[AdjointTriple, SurrogateMalliavinField]:
    """Backward-regression adjoint solver for general coefficients, one sweep.

    Per node: q_i and r_i are extracted from the centered one-step products
    E[(p_{i+1} - E[p_{i+1}|F_i]) dW_i | F_i] / dt (and the jump analogue),
    then p_i = E[p_{i+1}|F_i] + dH/dx(t_i) dt. The driver's memory terms
    read p and the surrogates of nodes j > i only, all fitted earlier in the
    same sweep, so the sweep is its own fixed point: a second sweep over the
    result reproduces p, q and r bit for bit. A feature whose rows are formed on
    request (`RunningSumRows`) has them formed once, in node order, before the sweep.
    """
    basis = basis or RegressionBasis()
    paths = states.paths
    n, m = paths.n_steps, paths.n_paths
    if features is None:
        if model.x_independent:
            features = [predicted_terminal_feature(model, states.control, paths)]
        else:
            features = default_features(paths, states=states.values)
    features = [f if isinstance(f.values, np.ndarray)
                else replace(f, values=np.array([f.values[j] for j in range(n + 1)]))
                for f in features]
    triple = AdjointTriple(states=states, model=model, spec=spec, p=np.empty((n + 1, m)),
                           qr_coefs=[None] * n,
                           qr_scales=(paths.grid.dt, *paths.jumps.compensator(paths.grid)),
                           regressions=[NodeRegression(features, i, basis) for i in range(n + 1)],
                           surrogate_coefs=[None] * (n + 1), features=features)
    field = SurrogateMalliavinField(triple)
    _backward_sweep(triple, field)
    return triple, field


def solve_adjoint(model: CoefficientModel, spec: PerformanceSpec, control, paths,
                  basis: RegressionBasis | None = None):
    """The adjoint (triple, field) of `control` on `paths`: one integral-form run, then
    the explicit solver for an x-independent model or the general one. A memory-coupled
    driver reads the state's noise sensitivities (`simulated_state_feature`: reverse
    sweeps for the Brownian ones and, on a model affine in x, the jump ones; re-runs of
    the perturbed bundles otherwise); a model without memory fits the state alone. An
    x-independent run with f_x != 0 takes the general solver on its default feature."""
    states = simulate_integral_form(model, control, paths)
    if model.x_independent:
        if _running_reads_x(spec, states):
            return solve_general(model, spec, states, basis=basis)
        return solve_explicit_x_independent(model, spec, states, basis=basis)
    feats = [simulated_state_feature(model, states) if model.memory_state_coupling
             else state_feature(states.values)]
    return solve_general(model, spec, states, basis=basis, features=feats)


def _backward_sweep(triple: AdjointTriple, field: SurrogateMalliavinField) -> None:
    """One backward regression sweep over the triple's run, writing p, the coefficients
    of q and r and the surrogates in place. Row p_i holds E[p_{i+1} | F_i] while the
    node-i driver reads it, and the driver reads node i's q and r rows as `qr_rows`
    forms them from the coefficients just fitted."""
    states, paths = triple.states, triple.states.paths
    n, dt, jumps = paths.n_steps, paths.grid.dt, paths.jumps
    p, regs, coefs = triple.p, triple.regressions, triple.surrogate_coefs
    triple._p_sums.clear()
    triple._qr = (None, None, None)
    p[n] = np.asarray(triple.spec.terminal_prime(states.terminal), dtype=float)
    coefs[n] = regs[n].coefficients(p[n])
    with field.sweep():
        for i in range(n - 1, -1, -1):
            reg = regs[i]
            phi = field.design(i)
            p[i] = phi @ reg.coefficients(p[i + 1], phi=phi)
            centered = p[i + 1] - p[i]
            node = [reg.coefficients(centered * paths.dW[i], phi=phi)]
            if jumps.active:
                counts = paths.increments_at(i)[1]
                node += [reg.coefficients(centered * counts[:, kk], phi=phi)
                         for kk in range(jumps.n_marks)]
            triple.qr_coefs[i] = node
            p[i] += sum(triple.terms(field, i, states.control_at(i), "_dx")) * dt
            coefs[i] = reg.coefficients(p[i], phi=phi)


def simulated_state_feature(model: CoefficientModel, states: StateEnsemble) -> Feature:
    """State feature of the run `states`, its noise sensitivities run through the simulator.

    Each sensitivity read at node i re-runs the simulator from node 0 on perturbed views
    of the bundle, side by side (`integral_form_rows`): dW_i + h and (dW_i + h) - 2h (a
    central difference) for a Brownian read, one inserted jump per mark for a jump read.
    The views are lazy and differ from the bundle only in row i, so no noise array is
    copied unless a feedback rule reads the noise. Rows 0..i of every view repeat the
    base run's bits and are skipped; rows i+1..N go to the reader in node order as the
    runs form them. Each row equals that of a full re-simulation on the perturbed bundle
    bit for bit. Memory held: with declared decays one (M,) row per view, and none
    between reads; otherwise each view's whole run, whose history each row re-sums.
    Node N has no rows, and a jump read without jumps runs nothing. Time: O(V N M) per
    read with declared decays, V = 2 or K views, O(V N^2 M) otherwise; the runs that
    read these rows are cost-guarded in grid steps (`check_steps`, applied here).

    For an open-loop control on a model whose kernels all declare their
    decays, the feature also has a `reverse_sweep` (`volterra.reverse_memory_sums`):
    node i's column is diffusion(t_i, t_i, X_i, u_i) R^(1)_i[diffusion], O(M) per
    node, with no run. On such a model that is affine in x (`affine_in_x`), a jump's
    shift of the later states solves the variation's linear recursion exactly, so it
    has a `reverse_jump_sweep` too: node i's mark-k column is sum_d R^(d)_i[jump, ...,
    jump] gamma(t_i, t_i, X_i, u_i, z_k)^d, O(M) per node at degree 3, with no run. A
    feedback rule would need du/dx, which `ControlProcess` does not declare, so it keeps
    the re-run rows, and so does a model not affine in x with jumps.
    """
    control, paths = states.control, states.paths
    check_steps(model, control, paths.jumps, paths.n_steps)
    h = fd_step(paths)
    n, base, k = paths.n_steps, states.values, paths.jumps.n_marks

    def rerun(i: int, views: list) -> Iterator[tuple]:
        """The rows X_j of the runs on `views`, side by side, for j = i+1..N."""
        if i == n:   # nothing moves
            return iter(())
        runs = [itertools.islice(integral_form_rows(model, control, view), i + 1, None)
                for view in views]
        return (tuple(x for x, _ in rows) for rows in zip(*runs))

    def brownian_rows(i: int) -> Iterator[np.ndarray]:
        up, down = paths.perturb_brownian(i, +h), paths.perturb_brownian(i, +h)
        down.rebump(-h)
        return ((x[0] - x[1]) / (2.0 * h) for x in rerun(i, [up, down]))

    def jump_rows(i: int) -> Iterator[np.ndarray]:
        if not k:   # no view to run
            return iter([np.empty((0, paths.n_paths))] * (n - i))
        views = [paths.with_extra_jump(i, kk) for kk in range(k)]
        return (np.stack(x) - base[j] for j, x in enumerate(rerun(i, views), i + 1))

    reverse_sweep = reverse_jump_sweep = None
    if control.rule is None and model.decays_declared:
        t, x, u = paths.grid.nodes, None if model.x_independent else base, states.controls

        def reverse_sweep(decay: float, jump: bool = False):
            step = reverse_memory_sums(model, paths, x, u, decay)

            def column(rows: np.ndarray) -> np.ndarray:
                i, sums = step(rows if jump else rows[:1])
                x_i = None if x is None else x[i]
                if not jump:
                    return model.diffusion(t[i], t[i], x_i, u[i]) * sums["diffusion"][0]
                gamma = model.jump(t[i], t[i], None if x_i is None else x_i[:, None],
                                   u[i][:, None], paths.jumps.mark_array)
                powers = sums["jump"]
                out = powers[-1][:, None] * gamma
                for row in powers[-2::-1]:
                    out += row[:, None]
                    out *= gamma
                return out

            return column

        if model.affine_in_x:
            reverse_jump_sweep = partial(reverse_sweep, jump=True)

    return Feature(
        name="simulated_state",
        values=states.values,
        brownian_sensitivity=brownian_rows,
        jump_shift=jump_rows,
        reverse_sweep=reverse_sweep,
        reverse_jump_sweep=reverse_jump_sweep,
    )
