"""Forward simulation of the controlled Volterra state and the objective.

Two Euler-type schemes are provided. The integral form evaluates the kernel
history sums at every node; the differential form propagates the state with
the expanded drift that carries the history sums of the d/dt kernel
derivatives. Both use left-point evaluation in all stochastic sums.

Every history sum goes through `history_sum`. For a kernel with a declared
decay rate (`CoefficientModel.decays`, set by all registry models) the sum
is updated by a one-step recursion, so a path costs O(N); a kernel without
one is re-summed over the whole history at every node, O(N^2) per path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .grids import PathBundle
from .models import CoefficientModel, ControlProcess, PerformanceSpec
from .reporting import write_csv


@dataclass
class StateEnsemble:
    """Simulated state values X(t_i) per node and path, shape (N+1, M)."""

    values: np.ndarray
    control: ControlProcess
    paths: PathBundle

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


def _check_finite(x: np.ndarray, node: int, what: str) -> None:
    if not np.all(np.isfinite(x)):
        bad = int(np.argwhere(~np.isfinite(np.atleast_1d(x)))[0][-1])
        raise SimulationError(f"{what} produced a non-finite value at path {bad}, node {node}")


def _control_grid(control: ControlProcess, paths: PathBundle, lead: tuple = ()) -> np.ndarray:
    """(N, M) control values: the open-loop grid, for reading only, or for a
    feedback rule a writable (*lead, N, M) array that the simulation fills
    node by node."""
    if control.kind == "feedback":
        return np.empty(lead + (paths.n_steps, paths.n_paths))
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
    return np.exp(-decay * (nodes[i] - nodes[i - 1])) * previous + newest


def _vary_row(increments: np.ndarray, offset: int, values: np.ndarray) -> np.ndarray:
    """A new (V, j, ...) copy of the rows `increments` (j, ...) in which row
    `offset` holds the per-variant `values` (V, ...)."""
    lead = values.shape[:values.ndim - increments.ndim + 1]
    varied = np.empty(lead + increments.shape)
    varied[...] = increments
    varied[(slice(None),) * len(lead) + (offset,)] = values
    return varied


def _kernel_summands(kernels, nodes: np.ndarray, x, u, inc, marks=None, row=None):
    """The `summands(t, hist)` of a history sum over weighted kernels.

    Sums sum_p kernel_p(t, t_j, X_j, u_j) w_p[j] inc_j over j in hist and
    over the (kernel_p, w_p) pairs, with w_p an array indexed by node or None
    for weight 1. x (None for x-independent models) and u are read when
    called, so rows a running simulation has filled are seen. inc is (N, M);
    for a jump kernel (marks given) it is a mark-major (K, N, M) view of the
    compensated counts, the kernel is evaluated as (K, j, M) with its inner
    loop over M, and the marks are summed out too.

    `row` = (i, values) replaces the node-i increments by per-variant values
    on a leading variant axis: (V, M), or for a jump kernel (V, M, K), the
    layout of the bundle's compensated counts; x, and u for a feedback
    control, then carry the same leading axis, and so does the sum. The
    other rows of inc are read as they are.
    """

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
        increments = inc[..., hist, :]
        if row is not None and hist.start <= row[0] < hist.stop:
            if marks is None:
                increments = _vary_row(increments, row[0] - hist.start, row[1])
            else:
                # built mark-last, as the bundle lays out its counts, so that
                # einsum adds the products in the order of a plain run
                increments = np.moveaxis(_vary_row(np.moveaxis(increments, 0, -1),
                                                   row[0] - hist.start, row[1]), -1, -3)
        subscripts = "...jm,...jm->...m" if marks is None else "...kjm,...kjm->...m"
        return np.einsum(subscripts, *np.broadcast_arrays(total, increments))

    return summands


def memory_sums(model: CoefficientModel, paths: PathBundle, x, u,
                parts=(("", None),), sums: list | None = None, row: tuple | None = None):
    """Total memory term at node i, as a function `memory(i)`.

    memory(i) = sum_{j<i} [K_b(t_i,t_j) dt + K_sigma(t_i,t_j) dB_j
    + sum_k K_gamma(t_i,t_j,z_k) dN~_{j,k}], where each kernel K is
    sum_p model.<kernel><suffix_p>(t_i, t_j, X_j, u_j) w_p[j] over the
    (suffix_p, w_p) pairs in `parts` (w_p None for weight 1). Each kernel's
    sum runs through `history_sum` with the kernel's declared decay, so
    memory must be called for i = 1, 2, ..., N in order. x (None for
    x-independent models), u and the weights are read when memory is called.
    `sums`, the per-kernel sums (zeros when empty), is replaced in place by
    every call; seeded with the S_i of another run, memory restarts at i + 1.
    `row` = (i, {kernel: values}) gives the node-i increments of the named
    kernels per variant, "diffusion" (V, M) and "jump" (V, M, K), on the
    leading variant axis that x (and a feedback u) then carry too.
    """
    n, m = paths.n_steps, paths.n_paths
    nodes, jumps = paths.grid.nodes, paths.jumps
    incs = {"drift": np.broadcast_to(paths.grid.dt, (n, m)), "diffusion": paths.dW}
    if jumps.n_marks and jumps.intensity > 0.0:
        incs["jump"] = np.moveaxis(paths.compensated_counts, 2, 0)
    node, varied = row or (None, {})
    kernels = [
        (_kernel_summands([(getattr(model, kernel + suffix), w) for suffix, w in parts],
                          nodes, x, u, inc, jumps.mark_array if kernel == "jump" else None,
                          (node, varied[kernel]) if kernel in varied else None),
         model.decay(kernel))
        for kernel, inc in incs.items()
    ]
    values = [] if sums is None else sums
    values[:] = values or [0.0] * len(kernels)

    def memory(i: int) -> np.ndarray:
        values[:] = [history_sum(summands, decay, nodes, i, previous)
                     for (summands, decay), previous in zip(kernels, values)]
        return sum(values)

    return memory


def simulate_integral_form(model: CoefficientModel, control: ControlProcess,
                           paths: PathBundle, restart: tuple | None = None,
                           record: list | None = None, variants: list | None = None
                           ) -> StateEnsemble | np.ndarray:
    """Simulate the state from its integral representation.

    X_i = xi(t_i) + sum_{j<i} b(t_i,t_j,X_j,u_j) dt
        + sum_{j<i} sigma(t_i,t_j,X_j,u_j) dB_j
        + sum_{j<i} sum_k gamma(t_i,t_j,X_j,u_j,z_k) dN~_{j,k}

    `restart` = (i, rows, S_i) continues a base run whose bundle agrees with
    `paths` before node i: rows 0..i of its state are copied (a feedback
    control is re-evaluated on them) and the memory recursion resumes from
    its per-kernel sums S_i. `record` receives S_i for i = start..N-1.

    `variants`, V bundles that agree with `paths` except in the increments
    of the restart row i (perturbed views of it), runs V restarts at once.
    The memory sums take the variants' row-i increments on a leading variant
    axis and read every other row from `paths`; a feedback control is
    evaluated once per variant, on that variant's bundle. Such a run returns
    the bare (V, N+1, M) state array, rows 0..i equal in every variant.
    """
    n, m = paths.n_steps, paths.n_paths
    t = paths.grid.nodes
    start, rows, sums = restart or (0, [model.initial_curve(t[0])], [])
    lead, row = (), None
    if variants:
        lead = (len(variants),)
        dw, counts = zip(*(bundle.increments_at(start) for bundle in variants))
        row = (start, {"diffusion": np.stack(dw), "jump": np.stack(counts)})
    u = _control_grid(control, paths, lead)

    x = np.empty(lead + (n + 1, m))
    x[..., :start + 1, :] = rows[:start + 1]
    sums = list(sums)
    memory = memory_sums(model, paths, None if model.x_independent else x, u, sums=sums, row=row)
    for i in range(1, n + 1):
        if control.kind == "feedback":
            for v, bundle in zip(np.ndindex(lead), variants or [paths]):
                u[v + (i - 1,)] = control.at(i - 1, bundle, x=x[v + (i - 1,)])
        if i <= start:
            continue
        if record is not None:
            record.append(list(sums))
        val = model.initial_curve(t[i]) + memory(i)
        _check_finite(val, i, "integral-form state")
        x[..., i, :] = val
    return x if variants else StateEnsemble(values=x, control=control, paths=paths)


def simulate_differential_form(model: CoefficientModel, control: ControlProcess,
                               paths: PathBundle) -> StateEnsemble:
    """Simulate the state from its differential representation.

    The drift carries the expanded memory terms: xi'(t_i), the diagonal
    kernels, and the history sums of the d/dt kernel partials.
    """
    grid, jumps = paths.grid, paths.jumps
    n, m, dt = paths.n_steps, paths.n_paths, grid.dt
    t = grid.nodes
    marks = jumps.mark_array
    dW = paths.dW
    dNt = paths.compensated_counts if jumps.n_marks else None
    u = _control_grid(control, paths)

    x = np.empty((n + 1, m))
    x[0] = model.initial_curve(t[0])
    memory = memory_sums(model, paths, None if model.x_independent else x, u,
                         parts=(("_dt", None),))
    for i in range(n):
        if control.kind == "feedback":
            u[i] = control.at(i, paths, x=x[i])
        u_i = u[i]
        x_i = None if model.x_independent else x[i]
        drift = np.broadcast_to(
            np.asarray(model.initial_slope(t[i]) + model.drift(t[i], t[i], x_i, u_i), dtype=float),
            (m,),
        ).copy()
        if i > 0:
            drift += memory(i)
        val = x[i] + drift * dt + model.diffusion(t[i], t[i], x_i, u_i) * dW[i]
        if jumps.n_marks:
            g = model.jump(t[i], t[i], None if x_i is None else x_i[:, None],
                           np.asarray(u_i)[..., None], marks[None, :])
            val = val + np.einsum("mk,mk->m",
                                  np.broadcast_to(g, (m, jumps.n_marks)), dNt[i])
        _check_finite(val, i + 1, "differential-form state")
        x[i + 1] = val
    return StateEnsemble(values=x, control=control, paths=paths)


def terminal_state(model: CoefficientModel, control: ControlProcess,
                   paths: PathBundle) -> np.ndarray:
    """Terminal state X(T) per path.

    For x-independent models this is a single O(N) kernel sum; otherwise it
    falls back to the full integral-form recursion.
    """
    if not model.x_independent:
        return simulate_integral_form(model, control, paths).terminal
    grid, jumps = paths.grid, paths.jumps
    n, m, dt = paths.n_steps, paths.n_paths, grid.dt
    t = grid.nodes
    u = control.open_loop_grid(n, m)
    s_h = t[:n, None]
    acc = model.drift(t[n], s_h, None, u) * dt + model.diffusion(t[n], s_h, None, u) * paths.dW
    val = np.asarray(acc).sum(axis=0) + model.initial_curve(t[n])
    if jumps.n_marks:
        g = model.jump(t[n], s_h[:, :, None], None, u[:, :, None],
                       jumps.mark_array[None, None, :])
        val += np.einsum("jmk,jmk->m", np.broadcast_to(g, (n, m, jumps.n_marks)),
                         paths.compensated_counts)
    return val


def performance_paths(spec: PerformanceSpec, states: StateEnsemble,
                      control: ControlProcess) -> np.ndarray:
    """Per-path objective totals sum_i f(t_i, X_i, u_i) dt + g(X_N), shape (M,)."""
    paths = states.paths
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    t = paths.grid.nodes
    total = np.zeros(m)
    for i in range(n):
        u_i = control.at(i, paths, x=states.values[i])
        fi = np.asarray(spec.running(t[i], states.values[i], u_i), dtype=float)
        total += np.broadcast_to(fi, (m,)) * dt
    total += np.asarray(spec.terminal(states.terminal), dtype=float)
    if not np.all(np.isfinite(total)):
        bad = int(np.flatnonzero(~np.isfinite(total))[0])
        raise SimulationError(f"performance summand is non-finite on path {bad}")
    return total


def evaluate_performance(spec: PerformanceSpec, states: StateEnsemble,
                         control: ControlProcess) -> tuple[float, float]:
    """Monte Carlo objective estimate and its standard error."""
    total = performance_paths(spec, states, control)
    m = len(total)
    est = float(total.mean())
    stderr = float(total.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return est, stderr


def export_trajectory_csv(path, states: StateEnsemble) -> None:
    """Write per-node summary statistics (t, mean_X, std_X, q05, q95)."""
    t = states.paths.grid.nodes
    x = states.values
    rows = [
        (t[i], x[i].mean(), x[i].std(ddof=1) if x.shape[1] > 1 else 0.0,
         np.quantile(x[i], 0.05), np.quantile(x[i], 0.95))
        for i in range(len(t))
    ]
    write_csv(path, ("t", "mean_X", "std_X", "q05", "q95"), rows)
