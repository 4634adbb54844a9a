"""The forward schemes against their hand-written kernel x increment sums.

Every local Euler step and E[X(T) | F_t] read `volterra.noise_sums`. The
references below are the formulas they replace, each with its own mark sum:
the local step of the differential form and of the variation, the running
prediction of the terminal state, and the whole-history integral form of a
model without declared decays.
"""

import dataclasses

import numpy as np
import pytest

from volterra_control import (
    ControlProcess,
    JumpModel,
    TimeGrid,
    registry_get,
    sample_paths,
    simulate_differential_form,
    simulate_integral_form,
)
from volterra_control.hamiltonian import perturbation_window, simulate_variation
from volterra_control.malliavin import predicted_terminal_feature
from volterra_control.volterra import _control_grid, memory_sums

from oracles import compensated_counts

_PARAMS = dict(b0=0.2, sigma0=0.3, jump0=0.15, decay_b=1.0, decay_sigma=0.6, decay_jump=0.4)
_MODELS = {
    "exp_kernel_linear": _PARAMS,
    "x_independent_linear": _PARAMS,
    "constant": dict(b0=0.2, sigma0=0.3, jump0=0.15),
}
_NOISES = {
    "no_jumps": JumpModel.none(),
    "two_marks": JumpModel(intensity=1.5, marks=(-0.4, 0.6), weights=(0.35, 0.65)),
}
_CONTROLS = {
    "constant": ControlProcess.constant(0.7),
    "feedback": ControlProcess.feedback(
        lambda i, t, paths, x: 0.7 + 0.1 * np.tanh(paths.brownian[i]) + 0.05 * np.tanh(x)),
}
# the x-independent fast paths read an open-loop control grid
_OPEN_LOOP = {
    "constant": _CONTROLS["constant"],
    "deterministic": ControlProcess.deterministic(np.linspace(0.4, 0.9, 24)),
}
_REL = 1e-14


def _paths(noise):
    return sample_paths(TimeGrid(1.0, 24), _NOISES[noise], 1_000, seed=41)


def _relative(new, old):
    """Largest difference relative to the largest magnitude of the reference."""
    return np.abs(new - old).max() / np.abs(old).max()


def _old_differential_form(model, control, paths):
    grid, jumps = paths.grid, paths.jumps
    n, m, dt = paths.n_steps, paths.n_paths, grid.dt
    t = grid.nodes
    marks = jumps.mark_array
    dW = paths.dW
    dNt = compensated_counts(paths) if jumps.n_marks else None
    u = _control_grid(control, paths)
    x = np.empty((n + 1, m))
    x[0] = model.initial_curve(t[0])
    memory = memory_sums(model, paths, None if model.x_independent else x, u,
                         parts=(("_dt", None),))
    for i in range(n):
        if control.rule is not None:
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
        x[i + 1] = val
    return x


def _old_variation(model, control, beta, paths, states):
    grid, jumps = paths.grid, paths.jumps
    n, m, dt = paths.n_steps, paths.n_paths, grid.dt
    t = grid.nodes
    beta_mat = np.broadcast_to(np.asarray(beta, dtype=float)[:, None], (n, m))
    k = jumps.n_marks
    marks = jumps.mark_array
    dNt = compensated_counts(paths) if k else None
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
    return y


def _old_predicted_terminal(model, control, paths):
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
                         compensated_counts(paths))
    vals = np.empty((n + 1, m))
    xi_T = np.broadcast_to(np.asarray(model.initial_curve(t[n]), dtype=float), (m,))
    vals[0] = xi_T
    np.cumsum(inc, axis=0, out=vals[1:])
    vals[1:] += xi_T
    return vals


def _old_generic_integral_form(model, control, paths):
    """The integral form of a model without declared decays: every node re-sums the
    whole history, the jumps against the whole (N, M, K) compensated counts."""
    jumps = paths.jumps
    n, m, dt = paths.n_steps, paths.n_paths, paths.grid.dt
    t = paths.grid.nodes
    u = control.open_loop_grid(n, m)
    dNt = compensated_counts(paths) if jumps.active else None
    x = np.empty((n + 1, m))
    x[0] = model.initial_curve(t[0])
    for i in range(1, n + 1):
        h, s = slice(0, i), t[:i, None]
        x_h = None if model.x_independent else x[h]
        sums = [np.einsum("jm,jm->m", *np.broadcast_arrays(model.drift(t[i], s, x_h, u[h]),
                                                           np.broadcast_to(dt, (i, m)))),
                np.einsum("jm,jm->m", *np.broadcast_arrays(model.diffusion(t[i], s, x_h, u[h]),
                                                           paths.dW[h]))]
        if jumps.active:
            g = model.jump(t[i], s[:, :, None], None if x_h is None else x_h[:, :, None],
                           u[h][:, :, None], jumps.mark_array[None, None, :])
            inc = dNt[h]
            sums.append(np.einsum("jmk,jmk->m", np.broadcast_to(g, inc.shape), inc))
        x[i] = model.initial_curve(t[i]) + sum(sums)
    return x


@pytest.mark.parametrize("control", sorted(_OPEN_LOOP))
@pytest.mark.parametrize("noise", sorted(_NOISES))
def test_generic_integral_form_keeps_the_whole_history_sums_bit_for_bit(noise, control):
    # a kernel without a declared decay still reads the whole history of increments
    model = dataclasses.replace(registry_get("exp_kernel_linear", dict(_PARAMS)), decays=None)
    paths = _paths(noise)
    new = simulate_integral_form(model, _OPEN_LOOP[control], paths).values
    assert np.array_equal(new, _old_generic_integral_form(model, _OPEN_LOOP[control], paths))


@pytest.mark.parametrize("control", sorted(_CONTROLS))
@pytest.mark.parametrize("noise", sorted(_NOISES))
@pytest.mark.parametrize("name", sorted(_MODELS))
def test_differential_form_matches_hand_written_step(name, noise, control):
    model, paths = registry_get(name, dict(_MODELS[name])), _paths(noise)
    new = simulate_differential_form(model, _CONTROLS[control], paths).values
    old = _old_differential_form(model, _CONTROLS[control], paths)
    assert _relative(new, old) <= _REL


@pytest.mark.parametrize("control", sorted(_CONTROLS))
@pytest.mark.parametrize("noise", sorted(_NOISES))
@pytest.mark.parametrize("name", sorted(_MODELS))
def test_variation_matches_hand_written_step(name, noise, control):
    model, paths = registry_get(name, dict(_MODELS[name])), _paths(noise)
    states = simulate_integral_form(model, _CONTROLS[control], paths)
    beta = perturbation_window(paths.n_steps, 4, 12, alpha=np.linspace(1.0, -0.5, 24))
    new = simulate_variation(model, beta, states).values
    old = _old_variation(model, _CONTROLS[control], beta, paths, states)
    assert np.abs(old).max() > 0.0
    assert _relative(new, old) <= _REL


@pytest.mark.parametrize("control", sorted(_OPEN_LOOP))
@pytest.mark.parametrize("noise", sorted(_NOISES))
def test_predicted_terminal_feature_is_bit_identical_to_hand_written_sum(noise, control):
    model, paths = registry_get("x_independent_linear", dict(_PARAMS)), _paths(noise)
    control = _OPEN_LOOP[control]
    new = predicted_terminal_feature(model, control, paths).values
    assert np.array_equal(new, _old_predicted_terminal(model, control, paths))
