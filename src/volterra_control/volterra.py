"""Forward simulation of the controlled Volterra state and the objective.

Two Euler-type schemes are provided. The integral form evaluates the kernel
history sums at every node; the differential form propagates the state with
the expanded drift that carries the history sums of the d/dt kernel
derivatives. Both use left-point evaluation in all stochastic sums.

Every kernel x noise sum, a memory sum or a local Euler step, is a summand
of `noise_sums`, and every history sum goes through `history_sum`. For a
kernel with a declared decay rate (`CoefficientModel.decays`, set by all
registry models) the sum is updated by a one-step recursion, so a path
costs O(N); a kernel without one is re-summed over the whole history at
every node, O(N^2) per path. The noise is read a node's row at a time,
`PathBundle.increments_at`, so a run on a perturbed view (`perturb_brownian`,
`with_extra_jump`) reads the perturbed row and copies no noise array.

The integral form is a stream of rows, `integral_form_rows`. With every
decay declared, the per-kernel sums are a finite Markovian lift of the
state: step i reads row i - 1 of X and the sums alone, so the stream holds
one row of X, and the `simulate` stage (`simulate_summary`) reads its
statistics and objective totals from the rows as they are formed.
`simulate_integral_form` collects the stream into the (N+1, M) state that
the adjoint and Hamiltonian readers take.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SimulationError
from .grids import PathBundle
from .models import CoefficientModel, ControlProcess, PerformanceSpec


@dataclass
class StateEnsemble:
    """One simulated run: X(t_i) per node and path, `values` (N+1, M), of `control` on `paths`.

    `controls` is the (N, M) control grid the run read (`_control_grid`);
    readers take u_i = controls[i], or `control_at(i)`, so only a simulation
    evaluates a rule.
    """

    values: np.ndarray
    control: ControlProcess
    paths: PathBundle
    controls: np.ndarray

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]

    def control_at(self, i: int):
        """u_i as the run read it: `control.at(i)` for an open-loop control (a
        scalar unless the values are per path), else the rule's row `controls[i]`."""
        return self.control.at(i) if self.control.rule is None else self.controls[i]


def _check_finite(x: np.ndarray, node: int, what: str) -> None:
    if not np.all(np.isfinite(x)):
        bad = int(np.argwhere(~np.isfinite(np.atleast_1d(x)))[0][-1])
        raise SimulationError(f"{what} produced a non-finite value at path {bad}, node {node}")


def _control_grid(control: ControlProcess, paths: PathBundle, empty=np.empty) -> np.ndarray:
    """(N, M) control values: the open-loop grid, for reading only, or for a
    feedback rule a writable array, made by `empty`, that the simulation fills
    node by node."""
    if control.rule is not None:
        return empty((paths.n_steps, paths.n_paths))
    return control.open_loop_grid(paths.n_steps, paths.n_paths)


def history_sum(summands, decay: float | None, nodes: np.ndarray, i: int, previous):
    """Memory sum S_i = sum_{j<i} k(t_i, t_j, X_j, u_j) inc_j at node i >= 1.

    `summands(t, hist)` returns sum_{j in hist} k(t, t_j, X_j, u_j) inc_j,
    shape (M,), over the nodes j in the slice `hist`. Without a decay the
    whole history is summed. A declared decay lambda means k(t_i, t_j, .) =
    e^{-lambda (t_i - t_{i-1})} k(t_{i-1}, t_j, .), so S_i follows from
    `previous` = S_{i-1} (0.0 at i = 1) and the summand of node i-1 alone.
    """
    if decay is None:
        return summands(nodes[i], slice(0, i))
    newest = summands(nodes[i], slice(i - 1, i))
    newest += np.exp(-decay * (nodes[i] - nodes[i - 1])) * previous
    return newest


def noise_sums(model: CoefficientModel, paths: PathBundle, x, u,
               parts=(("", None),)) -> dict:
    """The kernel x noise sums of the state equation, `{kernel: summands}`.

    summands(t, hist) = sum_{j in hist} sum_p model.<kernel><suffix_p>(t, t_j,
    X_j, u_j) w_p[j] inc_j, shape (M,), over the (suffix_p, w_p) pairs in
    `parts` (w_p an array indexed by node, or None for weight 1), for the
    kernels "drift" (inc dt), "diffusion" (inc dB) and, when jumps are
    active, "jump" (inc the compensated counts dN~_{j,k}, evaluated as
    (K, j, M) with the inner loop over M, the marks summed out too). A full
    history slice gives a memory sum, the one-row slice(i, i + 1) at t = t_i
    a local Euler step. x (None for x-independent models), u and the weights
    are read when a summand is called, so rows a running simulation has
    filled are seen.

    The noise is read one node at a time, `paths.increments_at(j)`, a
    slice's rows once for all the kernels. The whole-history slices of a
    kernel without a declared decay read each row once, into (N, M) and
    (N, M, K) buffers laid out as np.stack lays the rows, the jump rows
    mark-last as its einsum has always added them.
    """
    nodes, jumps = paths.grid.nodes, paths.jumps
    drift = np.broadcast_to(paths.grid.dt, (paths.n_steps, paths.n_paths))
    read = [None, None]   # the one-row slice read last and its (dB (..., 1, M), dN~ (..., K, 1, M))
    held = [0, None]      # the history rows read so far and their (dB, dN~) buffers

    def noise(hist):
        if hist.stop - hist.start > 1:
            return history(hist.stop)
        if read[0] != hist:
            read[:] = hist, None   # the old row goes before the new one is built
            dw, counts = paths.increments_at(hist.start)
            read[1] = dw[..., None, :], np.moveaxis(counts[..., None, :, :], -1, -3)
        return read[1]

    def history(stop):
        have, bufs = held
        if bufs is None:
            shape = (paths.n_steps, paths.n_paths)
            bufs = np.empty(shape), np.empty(shape + (jumps.n_marks,))
        for j in range(have, stop):
            bufs[0][j], bufs[1][j] = paths.increments_at(j)
        held[:] = max(have, stop), bufs
        return bufs[0][:stop], np.moveaxis(bufs[1][:stop], -1, -3)

    incs = {"drift": lambda hist: drift[hist], "diffusion": lambda hist: noise(hist)[0]}
    if jumps.active:
        incs["jump"] = lambda hist: noise(hist)[1]

    def summands_of(name, inc):
        kernels = [(getattr(model, name + suffix), w) for suffix, w in parts]
        marks = jumps.mark_array if name == "jump" else None

        def summands(t, hist):
            index = (Ellipsis, hist, slice(None)) if marks is None else \
                (Ellipsis, None, hist, slice(None))
            s, x_h, u_h = nodes[hist, None], None if x is None else x[index], u[index]
            args = (t, s, x_h, u_h) + (() if marks is None else (marks[:, None, None],))
            total = None
            for kernel, weight in kernels:
                value = kernel(*args)
                if weight is not None:
                    value = value * weight[hist]
                total = value if total is None else total + value
            increments = inc(hist)
            if hist.stop - hist.start == 1:
                # one row: a product per mark, formed alone and added in mark order as
                # einsum adds them; + 0.0 turns a -0.0 into einsum's +0.0
                if marks is None:
                    return (total * increments)[..., 0, :] + 0.0
                if np.ndim(total) < 3 or np.shape(total)[-3] != len(marks):   # no mark axis
                    shape = np.broadcast_shapes(np.shape(total), increments.shape)
                    total = np.broadcast_to(total, shape)
                out = total[..., 0, 0, :] * increments[..., 0, 0, :] + 0.0
                for k in range(1, len(marks)):
                    out += total[..., k, 0, :] * increments[..., k, 0, :]
                return out
            subscripts = "...jm,...jm->...m" if marks is None else "...kjm,...kjm->...m"
            return np.einsum(subscripts, *np.broadcast_arrays(total, increments))

        return summands

    return {name: summands_of(name, inc) for name, inc in incs.items()}


def memory_sums(model: CoefficientModel, paths: PathBundle, x, u, parts=(("", None),)):
    """Total memory term at node i, as a function `memory(i)`.

    memory(i) = sum_{j<i} [K_b(t_i,t_j) dt + K_sigma(t_i,t_j) dB_j
    + sum_k K_gamma(t_i,t_j,z_k) dN~_{j,k}], the `noise_sums` of `parts`
    over the history. Each kernel's sum runs through `history_sum` with the
    kernel's declared decay, from S_0 = 0, so memory must be called for
    i = 1, 2, ..., N in order.
    """
    nodes = paths.grid.nodes
    kernels = [(summands, model.decay(kernel))
               for kernel, summands in noise_sums(model, paths, x, u, parts).items()]
    values = [0.0] * len(kernels)

    def memory(i: int) -> np.ndarray:
        for k, (summands, decay) in enumerate(kernels):   # an old sum goes before the next
            values[k] = history_sum(summands, decay, nodes, i, values[k])
        return sum(values)

    return memory


def decay_weights(nodes: np.ndarray, i: int, decay: float) -> np.ndarray:
    """e^{-decay (t_j - t_i)} for the nodes j > i: a kernel with this declared
    decay, read at (t_j, t_i), over its value at (t_i, t_i)."""
    return np.exp(-decay * (nodes[i + 1:] - nodes[i]))


def reverse_memory_sums(model: CoefficientModel, paths: PathBundle, x, u, decay: float):
    """The reverse (cotangent) sweep of `memory_sums` and of its Taylor powers, as a
    function `step(rows)`.

    On a model whose kernels all declare their decays lambda_k, under an open-loop
    control u, a shift of the per-kernel sums S_l (X_l = xi(t_l) + 1^T S_l) moves
    S_{l+1} by D_l (I + e_l 1^T) times it, D_l = diag(e^{-lambda_k (t_{l+1} - t_l)}),
    with e^k_l = k_x(t_l, t_l, X_l, u_l) inc^k_l the one-row `_dx` summands of
    `noise_sums` (dt, dW_l, the marks' dN~_{l,k} summed): to first order, and exactly
    when every kernel is affine in x. The calls take the Taylor rows a_{d,l}, d =
    1..degree (the degree of the first call), of l = N, N-1, ..., 1 in turn; the call
    that takes node l's returns (l - 1, {kernel k: [R^(d)_{l-1}[k, ..., k] for d =
    1..degree]}), diagonal entries of the symmetric d-forms

        R^(d)_{l-1} = e^{-decay (t_l - t_{l-1})} D_{l-1}^{(x)d} [a_{d,l} 1^{(x)d}
                      + (I + 1 e_l^T)^{(x)d} R^(d)_l],   R^(d)_N = 0,

    so R^(d)_i[v, ..., v] = sum_{j>i} e^{-decay (t_j - t_i)} a_{d,j} (1^T delta S_j)^d for
    the shift delta S_{i+1} = D_i v. So e^{decay t_i} dF/dW_i = sigma_ii R^(1)_i[diffusion]
    for F = sum_j e^{-decay t_j} a_{1,j} X_j with a frozen, and for the shift delta X_j
    by one more jump of mark z at node i, sum_{j>i} e^{-decay (t_j - t_i)} sum_d a_{d,j}
    (delta X_j)^d = sum_d R^(d)_i[jump, ..., jump] gamma(t_i, t_i, X_i, u_i, z)^d. Scaled so, every
    factor is a decay over some t_j - t_i, and nothing underflows. x is None for an
    x-independent model. One step is O(M) (`_SymmetricForms`).
    """
    nodes, n = paths.grid.nodes, paths.n_steps
    local = noise_sums(model, paths, x, u, parts=(("_dx", None),))
    rates = [model.decay(k) for k in local]
    forms = []   # the `_SymmetricForms`, made at the first call
    node = [n]

    def step(rows: np.ndarray) -> tuple[int, dict]:
        l = node[0]
        if not forms:
            forms.append(_SymmetricForms(rates, len(rows), rows.shape[1]))
        e = [summands(nodes[l], slice(l, l + 1)) for summands in local.values()] \
            if l < n else None
        forms[0].step(rows, e, decay, nodes[l] - nodes[l - 1])
        node[0] = l - 1
        return l - 1, {k: forms[0].diagonal(b) for b, k in enumerate(local)}

    return step


class _SymmetricForms:
    """The symmetric d-forms R^(d), d = 1..degree, of `reverse_memory_sums` over its n
    kernels. R^(d) is kept as its distinct entries R^(d)[a], a a sorted index d-tuple,
    one (M,) row each: C(d + n - 1, d) rows, 19 for degrees 1..3 of three kernels. The
    rows of every degree are stacked in one array, which each step updates in place.

    The contraction of (I + 1 e^T)^{(x)d} with R^(d) at the entry a is the sum, over the
    nonempty subsets P of the d slots, of u_{|P|} at the indices of a outside P, where
    u_0 = R^(d) and u_r(J) = sum_b e_b u_{r-1}(J + b). The u_r of one degree take
    C(d - r + n - 1, d - r) scratch rows each.
    """

    def __init__(self, rates: list, degree: int, m: int):
        n = len(rates)
        tuples = [list(itertools.combinations_with_replacement(range(n), d))
                  for d in range(degree + 1)]
        index = [{a: k for k, a in enumerate(level)} for level in tuples]
        sizes = [len(level) for level in tuples]
        self.forms = np.split(np.zeros((sum(sizes[1:]), m)), np.cumsum(sizes[1:-1]))
        self._scratch = np.empty((sum(sizes[:-1]) + 2, m))   # the u_r, then two rows
        self._sizes = sizes
        self._rates = [[sum(rates[b] for b in a) for a in level] for level in tuples[1:]]
        # per J of size s < degree: the index of J + b in the tuples of size s + 1, per b
        self._contract = [[[index[s + 1][tuple(sorted(j + (b,)))] for b in range(n)]
                           for j in level] for s, level in enumerate(tuples[:-1])]
        # per entry a of degree d: (|P|, the index of a outside P), P the nonempty slot sets
        self._update = [[[(r, index[d - r][tuple(c for s, c in enumerate(a) if s not in p)])
                          for r in range(1, d + 1)
                          for p in itertools.combinations(range(d), r)]
                         for a in tuples[d]] for d in range(1, degree + 1)]
        self._diagonal = [[index[d][(b,) * d] for d in range(1, degree + 1)] for b in range(n)]

    def step(self, rows: np.ndarray, e: list | None, decay: float, dt: float) -> None:
        """R^(d) <- e^{-decay dt} D^{(x)d} [rows[d - 1] 1^{(x)d} + (I + 1 e^T)^{(x)d} R^(d)]
        for every degree d, D = diag(e^{-lambda_k dt}); with e None (node N) no e-term."""
        acc, tmp = self._scratch[-2], self._scratch[-1]
        for d, form in enumerate(self.forms, 1):
            u, start = [form], 0
            for r in range(1, d + 1) if e is not None else ():
                level = self._scratch[start:start + self._sizes[d - r]]
                start += len(level)
                for out, up in zip(level, self._contract[d - r]):
                    np.multiply(e[0], u[-1][up[0]], out=out)
                    for b in range(1, len(e)):
                        np.multiply(e[b], u[-1][up[b]], out=tmp)
                        out += tmp
                u.append(level)
            for row, rate, terms in zip(form, self._rates[d - 1], self._update[d - 1]):
                acc[...] = rows[d - 1]
                for r, j in terms if e is not None else ():
                    acc += u[r][j]
                acc += row
                np.multiply(np.exp(-(rate + decay) * dt), acc, out=row)

    def diagonal(self, b: int) -> list:
        """The rows R^(d)[b, ..., b], d = 1..degree, views that the next step overwrites."""
        return [form[k] for form, k in zip(self.forms, self._diagonal[b])]


def _one_row(shape: tuple) -> np.ndarray:
    """A writable (rows, M) array whose rows all share one (M,) buffer:
    writing row i replaces the row that a read of any other row returns."""
    row = np.empty(shape[-1])
    return np.lib.stride_tricks.as_strided(row, shape, (0,) + row.strides)


def integral_form_rows(model: CoefficientModel, control: ControlProcess, paths: PathBundle,
                       rows: tuple | None = None
                       ) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Yield the rows (X_i, u_i), i = 0..N, of the integral-form run, u_N None.

    X_i = xi(t_i) + sum_{j<i} b(t_i,t_j,X_j,u_j) dt
        + sum_{j<i} sigma(t_i,t_j,X_j,u_j) dB_j
        + sum_{j<i} sum_k gamma(t_i,t_j,X_j,u_j,z_k) dN~_{j,k}

    The rows are formed in `rows` = (x, u) when given: the (N+1, M) state
    and the control grid of `_control_grid`. Otherwise a model whose kernels
    all declare decays holds one row of the state and of a rule's control (a
    step reads row i - 1 alone), so a row is overwritten by the next step; a
    kernel without a declared decay re-sums, and so holds, the whole history.
    """
    n, m = paths.n_steps, paths.n_paths
    t = paths.grid.nodes
    empty = np.empty if rows is not None or not model.decays_declared else _one_row
    x, u = rows or (empty((n + 1, m)), _control_grid(control, paths, empty))
    x[0] = model.initial_curve(t[0])
    memory = memory_sums(model, paths, None if model.x_independent else x, u)
    for i in range(n + 1):
        if i:
            val = model.initial_curve(t[i]) + memory(i)
            _check_finite(val, i, "integral-form state")
            x[i] = val
        if control.rule is not None and i < n:
            u[i] = control.at(i, paths, x=x[i])
        yield x[i], (u[i] if i < n else None)


def simulate_integral_form(model: CoefficientModel, control: ControlProcess,
                           paths: PathBundle) -> StateEnsemble:
    """The run of `integral_form_rows` collected into its (N+1, M) state and
    (N, M) control grid."""
    x = np.empty((paths.n_steps + 1, paths.n_paths))
    u = _control_grid(control, paths)
    for _ in integral_form_rows(model, control, paths, rows=(x, u)):
        pass
    return StateEnsemble(values=x, control=control, paths=paths, controls=u)


def simulate_differential_form(model: CoefficientModel, control: ControlProcess,
                               paths: PathBundle) -> StateEnsemble:
    """Simulate the state from its differential representation.

    X_{i+1} = X_i + [xi'(t_i) + memory_dt(i)] dt + the one-row noise sums
    at the diagonal t = t_i, where memory_dt carries the history sums of the
    d/dt kernel partials.
    """
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    t = paths.grid.nodes
    u = _control_grid(control, paths)

    x = np.empty((n + 1, m))
    x[0] = model.initial_curve(t[0])
    x_read = None if model.x_independent else x
    memory = memory_sums(model, paths, x_read, u, parts=(("_dt", None),))
    local = noise_sums(model, paths, x_read, u).values()
    for i in range(n):
        if control.rule is not None:
            u[i] = control.at(i, paths, x=x[i])
        slope = model.initial_slope(t[i]) + (memory(i) if i > 0 else 0.0)
        val = x[i] + slope * dt + sum(step(t[i], slice(i, i + 1)) for step in local)
        _check_finite(val, i + 1, "differential-form state")
        x[i + 1] = val
    return StateEnsemble(values=x, control=control, paths=paths, controls=u)


def _add_objective(total: np.ndarray, spec: PerformanceSpec, grid, i: int, x, u) -> None:
    """Add node i's objective term to the per-path totals in place: f(t_i, X_i, u_i) dt
    for i < N, g(X_N) at i = N."""
    if i < grid.steps:
        fi = np.asarray(spec.running(grid.nodes[i], x, u), dtype=float)
        total += np.broadcast_to(fi, total.shape) * grid.dt
    else:
        total += np.asarray(spec.terminal(x), dtype=float)


def _checked_totals(total: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(total)):
        bad = int(np.flatnonzero(~np.isfinite(total))[0])
        raise SimulationError(f"performance summand is non-finite on path {bad}")
    return total


def performance_paths(spec: PerformanceSpec, paths: PathBundle, rows) -> np.ndarray:
    """Per-path objective totals sum_i f(t_i, X_i, u_i) dt + g(X_N), shape (M,), of the
    rows (X_i, u_i), i = 0..N (u_N None), read in node order as a simulator forms them
    (`integral_form_rows`, `portfolio.wealth_rows`) or from a whole run's arrays."""
    total = np.zeros(paths.n_paths)
    for i, (x, u) in enumerate(rows):
        _add_objective(total, spec, paths.grid, i, x, u)
    return _checked_totals(total)


def monte_carlo_estimate(total: np.ndarray) -> tuple[float, float]:
    """Mean of the per-path totals and its standard error."""
    m = len(total)
    est = float(total.mean())
    stderr = float(total.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return est, stderr


def evaluate_performance(spec: PerformanceSpec, states: StateEnsemble) -> tuple[float, float]:
    """Monte Carlo objective estimate and its standard error."""
    rows = zip(states.values, [*states.controls, None])
    return monte_carlo_estimate(performance_paths(spec, states.paths, rows))


# Values per block of rows in `trajectory_statistics`: about 1 MB of float64.
_STATS_BLOCK = 1 << 17


def trajectory_statistics(nodes: np.ndarray, rows) -> list[tuple]:
    """Per-node summary statistics (t, mean_X, std_X, q05, q95) of the states
    X_0..X_N, read from `rows` in node order.

    The rows are copied into one buffer of about `_STATS_BLOCK` values, so a
    row may be overwritten once the next is read. Over all rows at once, `std`
    would make an (N+1, M) temporary, and the statistics would need the whole
    state, which raises the peak memory of a simulation by the size of its
    state. Each block gives its mean and std (ddof=1) by one axis-1 call each
    on the rows as read. The block is then sorted in place along its rows
    (numpy's SIMD sort where the CPU has AVX-512 or AVX2), and q05 and q95 are
    read from the sorted rows by `_sorted_quantile`: the values of
    `np.quantile`'s default method, which would instead copy the block and
    partition each row at six points by a scalar introselect.
    """
    out, block, filled = [], None, 0
    for x in rows:
        if block is None:
            block = np.empty((min(max(1, _STATS_BLOCK // len(x)), len(nodes)), len(x)))
        block[filled] = x
        filled += 1
        if filled == len(block) or len(out) + filled == len(nodes):
            held = block[:filled]
            std = held.std(axis=1, ddof=1) if held.shape[1] > 1 else np.zeros(filled)
            mean = held.mean(axis=1)
            held.sort(axis=1)
            out += zip(nodes[len(out):len(out) + filled], mean, std,
                       _sorted_quantile(held, 0.05), _sorted_quantile(held, 0.95))
            filled = 0
    return out


def _sorted_quantile(rows: np.ndarray, q: float) -> np.ndarray:
    """The q-quantile of each row of `rows`, sorted along axis 1, by the linear
    interpolation of Hyndman & Fan's type 7 (`np.quantile`'s default method),
    in numpy's own arithmetic, so that the values are those of `np.quantile`.

    v = (n-1) q lies between the order statistics lo = floor(v) and lo + 1;
    at v >= n-1 both are the last, and gamma = v - lo is taken after that, so
    n = 1 gives gamma = 1, as in numpy. A row with a NaN (sorted last) gives
    that NaN.
    """
    n = rows.shape[1]
    v = (n - 1) * q
    lo = math.floor(v)
    hi = lo + 1
    if v >= n - 1:
        lo = hi = -1
    gamma = v - lo
    a, b = rows[:, lo], rows[:, hi]
    diff = b - a
    value = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
    np.copyto(value, rows[:, -1], where=np.isnan(rows[:, -1]))
    return value


def simulate_summary(model: CoefficientModel, control: ControlProcess, spec: PerformanceSpec,
                     paths: PathBundle) -> tuple[list[tuple], np.ndarray]:
    """The `trajectory_statistics` and the per-path objective totals of the
    integral-form run, read from its `integral_form_rows` as they are formed.

    Besides the noise, a model whose kernels all declare decays holds one row
    of the state, a block of about `_STATS_BLOCK` values for the statistics
    and the (M,) totals; the values are those of `simulate_integral_form`
    read by `trajectory_statistics` and `performance_paths`, bit for bit.
    """
    total = np.zeros(paths.n_paths)

    def states():
        for i, (x, u) in enumerate(integral_form_rows(model, control, paths)):
            _add_objective(total, spec, paths.grid, i, x, u)
            yield x

    return trajectory_statistics(paths.grid.nodes, states()), _checked_totals(total)
