"""Coefficient models, performance functionals, utilities, and controls.

A CoefficientModel packages the state-equation coefficients: an initial
curve xi(t) plus the three kernels drift b(t,s,x,v), diffusion sigma(t,s,x,v)
and jump gamma(t,s,x,v,z), together with the partial derivatives the solvers
need (first time argument, state, control, and the mixed time-state /
time-control partials that drive the memory terms). Missing partials are
filled in by central finite differences; declared partials are verified
against finite differences when the model is registered.

A model may also declare that a kernel is exponential in the lag,
k(t,s,x,v) = e^{-lambda (t-s)} k(s,s,x,v), by giving its decay rate lambda in
`decays`. The simulators then update that kernel's history sums by a
one-step recursion instead of re-summing the whole history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, RegistrationError
from .grids import TimeGrid

_FD_SCALE = 1e-5
_SELFTEST_RTOL = 1e-4
_KERNELS = ("drift", "diffusion", "jump")


def _central_difference(fn: Callable, arg_index: int) -> Callable:
    """Central finite difference of `fn` in its arg_index-th positional argument."""

    def diff(*args):
        args = list(args)
        base = np.asarray(args[arg_index], dtype=float)
        h = _FD_SCALE * (1.0 + np.abs(base))
        up, dn = list(args), list(args)
        up[arg_index] = base + h
        dn[arg_index] = base - h
        return (np.asarray(fn(*up), dtype=float) - np.asarray(fn(*dn), dtype=float)) / (2.0 * h)

    return diff


def _zero(*args) -> float:
    return 0.0


@dataclass
class CoefficientModel:
    """State-equation coefficients and their partial derivatives.

    All kernel callables take (t, s, x, v) -- plus a trailing mark argument z
    for the jump kernel -- and must broadcast over numpy arrays. Models with
    `x_independent=True` must ignore the x argument entirely (callers may
    pass None for it).

    `decays` is None or a (drift, diffusion, jump) tuple of decay rates; an
    entry lambda declares k(t,s,.) = e^{-lambda (t-s)} k(s,s,.) for that kernel
    and for its d/dt partials, an entry None leaves the kernel generic.
    """

    name: str
    initial_curve: Callable[[np.ndarray], np.ndarray]
    drift: Callable
    diffusion: Callable
    jump: Callable
    initial_slope: Optional[Callable] = None
    # partials with respect to the first time argument
    drift_dt: Optional[Callable] = None
    diffusion_dt: Optional[Callable] = None
    jump_dt: Optional[Callable] = None
    # state and control partials
    drift_dx: Optional[Callable] = None
    drift_dv: Optional[Callable] = None
    diffusion_dx: Optional[Callable] = None
    diffusion_dv: Optional[Callable] = None
    jump_dx: Optional[Callable] = None
    jump_dv: Optional[Callable] = None
    # mixed partials: d/dt of the state and control partials
    drift_dtdx: Optional[Callable] = None
    drift_dtdv: Optional[Callable] = None
    diffusion_dtdx: Optional[Callable] = None
    diffusion_dtdv: Optional[Callable] = None
    jump_dtdx: Optional[Callable] = None
    jump_dtdv: Optional[Callable] = None
    x_independent: bool = False
    time_invariant_kernels: bool = False
    decays: Optional[tuple] = None
    declared: tuple[str, ...] = ()

    def __post_init__(self):
        if self.decays is not None:
            if len(self.decays) != len(_KERNELS):
                raise ConfigurationError(
                    f"model {self.name!r}: decays needs one entry per kernel "
                    f"{_KERNELS}, got {self.decays!r}"
                )
            self.decays = tuple(None if d is None else float(d) for d in self.decays)
            for kernel, lam in zip(_KERNELS, self.decays):
                if lam is not None and not math.isfinite(lam):
                    raise ConfigurationError(
                        f"model {self.name!r}: decay of the {kernel} kernel must be "
                        f"finite, got {lam}"
                    )
        self.declared = tuple(
            name for name in self._partial_names() if getattr(self, name) is not None
        )
        self._fill_missing()

    @staticmethod
    def _partial_names():
        return (
            "drift_dt", "diffusion_dt", "jump_dt",
            "drift_dx", "drift_dv", "diffusion_dx", "diffusion_dv",
            "jump_dx", "jump_dv",
            "drift_dtdx", "drift_dtdv", "diffusion_dtdx", "diffusion_dtdv",
            "jump_dtdx", "jump_dtdv",
        )

    def _fill_missing(self):
        if self.initial_slope is None:
            self.initial_slope = _central_difference(self.initial_curve, 0)
        bases = {"drift": self.drift, "diffusion": self.diffusion, "jump": self.jump}
        for kernel, fn in bases.items():
            if getattr(self, f"{kernel}_dt") is None:
                setattr(self, f"{kernel}_dt", _central_difference(fn, 0))
            if getattr(self, f"{kernel}_dx") is None:
                fdx = _zero if self.x_independent else _central_difference(fn, 2)
                setattr(self, f"{kernel}_dx", fdx)
            if getattr(self, f"{kernel}_dv") is None:
                setattr(self, f"{kernel}_dv", _central_difference(fn, 3))
        # Mixed partials differentiate the (possibly finite-difference) d/dt partial.
        for kernel in bases:
            ddt = getattr(self, f"{kernel}_dt")
            if getattr(self, f"{kernel}_dtdx") is None:
                fdx = _zero if self.x_independent else _central_difference(ddt, 2)
                setattr(self, f"{kernel}_dtdx", fdx)
            if getattr(self, f"{kernel}_dtdv") is None:
                setattr(self, f"{kernel}_dtdv", _central_difference(ddt, 3))

    def decay(self, kernel: str) -> float | None:
        """Declared decay rate of the drift, diffusion or jump kernel, or None."""
        return None if self.decays is None else self.decays[_KERNELS.index(kernel)]

    @property
    def memory_state_coupling(self) -> bool:
        """True when the mixed time-state partials can be non-zero."""
        return not (self.x_independent or self.time_invariant_kernels)

    def self_test(self, x_range=(0.5, 2.0), v_range=(-1.0, 2.0), mark_range=(-1.0, 1.0),
                  n_samples: int = 8) -> None:
        """Check declared partials and decays at random arguments.

        Declared partials are compared with central differences. For each
        declared decay lambda, the kernel and its d/dt partials must satisfy
        k(t,s,.) = e^{-lambda (t-s)} k(s,s,.) for t >= s. Raises
        RegistrationError naming the first failing partial or kernel.
        """
        rng = np.random.default_rng(1234)
        t = rng.uniform(0.0, 2.0, n_samples)
        s = rng.uniform(0.0, 2.0, n_samples)
        x = rng.uniform(*x_range, n_samples)
        v = rng.uniform(*v_range, n_samples)
        z = rng.uniform(*mark_range, n_samples)
        z = np.where(np.abs(z) < 0.1, 0.5, z)
        bases = {"drift": self.drift, "diffusion": self.diffusion, "jump": self.jump}
        arg_index = {"dt": 0, "dx": 2, "dv": 3}
        for name in self.declared:
            kernel, part = name.split("_", 1)
            base = bases[kernel]
            if part in arg_index:
                reference = _central_difference(base, arg_index[part])
            elif part in ("dtdx", "dtdv"):
                reference = _central_difference(
                    getattr(self, f"{kernel}_dt"), arg_index[part[2:]]
                )
            else:  # pragma: no cover
                continue
            args = (t, s, x, v, z) if kernel == "jump" else (t, s, x, v)
            got = np.asarray(getattr(self, name)(*args), dtype=float)
            want = np.asarray(reference(*args), dtype=float)
            got, want = np.broadcast_arrays(got, want)
            tol = _SELFTEST_RTOL * (1.0 + np.maximum(np.abs(got), np.abs(want)))
            if np.any(np.abs(got - want) > tol):
                worst = np.argmax(np.abs(got - want) - tol)
                raise RegistrationError(
                    f"model {self.name!r}: declared partial {name} disagrees with "
                    f"finite difference (sample {worst}: declared {got.flat[worst]:.6g}, "
                    f"finite difference {want.flat[worst]:.6g})"
                )
        if self.x_independent:
            for kernel, base in bases.items():
                args = (t, s, x, v, z) if kernel == "jump" else (t, s, x, v)
                dx = np.asarray(getattr(self, f"{kernel}_dx")(*args), dtype=float)
                if np.any(np.abs(dx) > 1e-12):
                    raise RegistrationError(
                        f"model {self.name!r} is flagged x-independent but "
                        f"{kernel}_dx is not identically zero"
                    )
        late, early = np.maximum(t, s), np.minimum(t, s)
        for kernel in _KERNELS:
            lam = self.decay(kernel)
            if lam is None:
                continue
            factor = np.exp(-lam * (late - early))
            tail = (x, v, z) if kernel == "jump" else (x, v)
            for name in (kernel, f"{kernel}_dt", f"{kernel}_dtdx", f"{kernel}_dtdv"):
                fn = getattr(self, name)
                got, want = np.broadcast_arrays(
                    np.asarray(fn(late, early, *tail), dtype=float),
                    factor * np.asarray(fn(early, early, *tail), dtype=float),
                )
                tol = _SELFTEST_RTOL * np.maximum(np.abs(got), np.abs(want)) + 1e-12
                if np.any(np.abs(got - want) > tol):
                    worst = np.argmax(np.abs(got - want) - tol)
                    raise RegistrationError(
                        f"model {self.name!r}: {name} does not decay at the declared "
                        f"rate {lam} of the {kernel} kernel (sample {worst}: "
                        f"k(t,s) {got.flat[worst]:.6g}, "
                        f"e^(-rate (t-s)) k(s,s) {want.flat[worst]:.6g})"
                    )


def _exp_kernel_model(name, b0, sigma0, jump0, decay_b, decay_s, decay_j, x0,
                      x_independent):
    """Linear model with exponentially decaying memory kernels.

    drift = b0 * exp(-decay_b (t-s)) * v * x (state factor dropped when
    x_independent), and analogously for diffusion and jump; the jump kernel
    carries an extra multiplicative mark factor z.
    """

    def xf(x):
        return 1.0 if x_independent else x

    def make(kind, amp, lam):
        if kind == "value":
            if x_independent:
                return lambda t, s, x, v: amp * np.exp(-lam * (np.asarray(t) - s)) * v
            return lambda t, s, x, v: amp * np.exp(-lam * (np.asarray(t) - s)) * v * x
        raise AssertionError(kind)

    def kfun(amp, lam, order_t=0, wrt=None):
        # order_t: number of d/dt applications; wrt: None, "x" or "v"
        c = amp * (-lam) ** order_t

        def fn(t, s, x, v):
            e = np.exp(-lam * (np.asarray(t, dtype=float) - s))
            if wrt == "x":
                if x_independent:
                    return np.zeros(np.broadcast(t, s, v).shape) if order_t == 0 else 0.0 * e
                return c * e * v
            if wrt == "v":
                return c * e * xf(x)
            return c * e * v * xf(x)

        return fn

    def jfun(amp, lam, order_t=0, wrt=None):
        base = kfun(amp, lam, order_t, wrt)
        return lambda t, s, x, v, z: base(t, s, x, v) * z

    return CoefficientModel(
        name=name,
        initial_curve=lambda t: x0 + 0.0 * np.asarray(t, dtype=float),
        initial_slope=lambda t: 0.0 * np.asarray(t, dtype=float),
        drift=kfun(b0, decay_b),
        diffusion=kfun(sigma0, decay_s),
        jump=jfun(jump0, decay_j),
        drift_dt=kfun(b0, decay_b, order_t=1),
        diffusion_dt=kfun(sigma0, decay_s, order_t=1),
        jump_dt=jfun(jump0, decay_j, order_t=1),
        drift_dx=_zero if x_independent else kfun(b0, decay_b, wrt="x"),
        diffusion_dx=_zero if x_independent else kfun(sigma0, decay_s, wrt="x"),
        jump_dx=_zero if x_independent else jfun(jump0, decay_j, wrt="x"),
        drift_dv=kfun(b0, decay_b, wrt="v"),
        diffusion_dv=kfun(sigma0, decay_s, wrt="v"),
        jump_dv=jfun(jump0, decay_j, wrt="v"),
        drift_dtdx=_zero if x_independent else kfun(b0, decay_b, order_t=1, wrt="x"),
        diffusion_dtdx=_zero if x_independent else kfun(sigma0, decay_s, order_t=1, wrt="x"),
        jump_dtdx=_zero if x_independent else jfun(jump0, decay_j, order_t=1, wrt="x"),
        drift_dtdv=kfun(b0, decay_b, order_t=1, wrt="v"),
        diffusion_dtdv=kfun(sigma0, decay_s, order_t=1, wrt="v"),
        jump_dtdv=jfun(jump0, decay_j, order_t=1, wrt="v"),
        x_independent=x_independent,
        time_invariant_kernels=(decay_b == 0.0 and decay_s == 0.0 and decay_j == 0.0),
        decays=(decay_b, decay_s, decay_j),
    )


_REGISTRY_NAMES = ("constant", "exp_kernel_linear", "x_independent_linear", "custom")


def registry_get(name: str, params: dict | None = None) -> CoefficientModel:
    """Build a named coefficient model and run its partial-derivative self-test.

    Known names: constant, exp_kernel_linear, x_independent_linear, custom.
    """
    params = dict(params or {})
    if name not in _REGISTRY_NAMES:
        raise ConfigurationError(
            f"unknown model {name!r}; expected one of {_REGISTRY_NAMES}"
        )
    if name == "custom":
        model = CoefficientModel(name="custom", **params)
    else:
        b0 = float(params.pop("b0", 0.05))
        sigma0 = float(params.pop("sigma0", 0.2))
        jump0 = float(params.pop("jump0", 0.0))
        decay_b = float(params.pop("decay_b", 0.0 if name == "constant" else 1.0))
        decay_s = float(params.pop("decay_sigma", 0.0 if name == "constant" else 1.0))
        decay_j = float(params.pop("decay_jump", 0.0 if name == "constant" else 1.0))
        x0 = float(params.pop("x0", 1.0))
        if name == "constant":
            decay_b = decay_s = decay_j = 0.0
        if params:
            raise ConfigurationError(f"unknown parameters for model {name!r}: {sorted(params)}")
        model = _exp_kernel_model(
            name, b0, sigma0, jump0, decay_b, decay_s, decay_j, x0,
            x_independent=(name == "x_independent_linear"),
        )
    model.self_test()
    return model


@dataclass
class PerformanceSpec:
    """Running reward f(t, x, v) and terminal reward g(x) with derivatives."""

    running: Callable = _zero
    terminal: Callable = _zero
    terminal_prime: Optional[Callable] = None
    running_dx: Optional[Callable] = None
    running_dv: Optional[Callable] = None
    terminal_domain: tuple[float, float] = (0.25, 4.0)

    def __post_init__(self):
        declared_prime = self.terminal_prime is not None
        if self.terminal_prime is None:
            self.terminal_prime = _central_difference(self.terminal, 0)
        if self.running_dx is None:
            self.running_dx = _central_difference(self.running, 1)
        if self.running_dv is None:
            self.running_dv = _central_difference(self.running, 2)
        if declared_prime:
            xs = np.linspace(*self.terminal_domain, 33)
            got = np.asarray(self.terminal_prime(xs), dtype=float)
            want = _central_difference(self.terminal, 0)(xs)
            got, want = np.broadcast_arrays(got, want)
            tol = _SELFTEST_RTOL * (1.0 + np.maximum(np.abs(got), np.abs(want)))
            if np.any(np.abs(got - want) > tol):
                raise RegistrationError(
                    "terminal_prime disagrees with finite difference of terminal"
                )

    @classmethod
    def terminal_only(cls, g: Callable, g_prime: Callable | None = None,
                      domain=(0.25, 4.0)) -> "PerformanceSpec":
        return cls(terminal=g, terminal_prime=g_prime, terminal_domain=domain)

    @classmethod
    def log_terminal(cls) -> "PerformanceSpec":
        return cls.terminal_only(np.log, lambda x: 1.0 / np.asarray(x, dtype=float))


@dataclass(frozen=True)
class UtilitySpec:
    """Strictly increasing concave utility with an invertible marginal."""

    name: str
    u: Callable
    u_prime: Callable
    u_prime_inverse: Callable

    def __post_init__(self):
        xs = np.geomspace(1e-3, 1e3, 61)
        mu = np.asarray(self.u_prime(xs), dtype=float)
        if np.any(mu <= 0.0):
            raise RegistrationError(f"utility {self.name!r}: marginal must be positive")
        if np.any(np.diff(mu) > 1e-12 * (1.0 + np.abs(mu[:-1]))):
            raise RegistrationError(f"utility {self.name!r}: marginal must be nonincreasing")
        back = np.asarray(self.u_prime_inverse(mu), dtype=float)
        if np.any(np.abs(back - xs) > 1e-10 * np.abs(xs)):
            raise RegistrationError(
                f"utility {self.name!r}: inverse marginal round-trip failed"
            )

    @classmethod
    def log(cls) -> "UtilitySpec":
        return cls(
            name="log",
            u=np.log,
            u_prime=lambda x: 1.0 / np.asarray(x, dtype=float),
            u_prime_inverse=lambda y: 1.0 / np.asarray(y, dtype=float),
        )

    @classmethod
    def power(cls, exponent: float) -> "UtilitySpec":
        if exponent >= 1.0 or exponent == 0.0:
            raise ConfigurationError("power utility needs exponent < 1 and != 0")
        g = float(exponent)
        return cls(
            name=f"power[{g}]",
            u=lambda x: np.asarray(x, dtype=float) ** g / g,
            u_prime=lambda x: np.asarray(x, dtype=float) ** (g - 1.0),
            u_prime_inverse=lambda y: np.asarray(y, dtype=float) ** (1.0 / (g - 1.0)),
        )


class ControlProcess:
    """Admissible control: constant, deterministic grid, per-path grid or feedback.

    Open-loop values (anything but feedback rules) are validated against the
    admissible interval at construction.
    """

    def __init__(self, kind: str, values, bounds: tuple[float, float]):
        lo, hi = float(bounds[0]), float(bounds[1])
        if not lo < hi:
            raise ConfigurationError(f"empty admissible interval {bounds}")
        self.kind = kind
        self.bounds = (lo, hi)
        self.values = values
        if kind in ("constant", "deterministic", "per_path"):
            arr = np.asarray(values, dtype=float)
            if np.any(arr < lo - 1e-12) or np.any(arr > hi + 1e-12):
                raise ConfigurationError(
                    f"control values leave the admissible interval [{lo}, {hi}]"
                )
            self.values = arr

    @classmethod
    def constant(cls, value: float, bounds=(-10.0, 10.0)) -> "ControlProcess":
        return cls("constant", float(value), bounds)

    @classmethod
    def deterministic(cls, grid_values, bounds=(-10.0, 10.0)) -> "ControlProcess":
        return cls("deterministic", np.asarray(grid_values, dtype=float), bounds)

    @classmethod
    def per_path(cls, values, bounds=(-10.0, 10.0)) -> "ControlProcess":
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ConfigurationError("per-path control needs a (steps, paths) array")
        return cls("per_path", values, bounds)

    @classmethod
    def feedback(cls, rule: Callable, bounds=(-10.0, 10.0)) -> "ControlProcess":
        """rule(i, t_i, paths, x_i) -> per-path control values at node i."""
        return cls("feedback", rule, bounds)

    def at(self, i: int, paths=None, x=None):
        """Control value on [t_i, t_{i+1}): scalar or (paths,) array."""
        if self.kind == "constant":
            return self.values
        if self.kind == "deterministic":
            return self.values[i]
        if self.kind == "per_path":
            return self.values[i]
        t_i = paths.grid.nodes[i] if paths is not None else None
        out = np.asarray(self.values(i, t_i, paths, x), dtype=float)
        lo, hi = self.bounds
        if np.any(out < lo - 1e-12) or np.any(out > hi + 1e-12):
            raise ConfigurationError("feedback rule left the admissible interval")
        return out

    def open_loop_grid(self, n_steps: int, n_paths: int) -> np.ndarray:
        """An open-loop control as a (steps, paths) grid for reading only;
        constant and deterministic controls are read-only broadcast views."""
        if self.kind == "constant":
            return np.broadcast_to(self.values, (n_steps, n_paths))
        if self.kind == "deterministic":
            if len(self.values) != n_steps:
                raise ConfigurationError(
                    f"deterministic control has {len(self.values)} values, grid needs {n_steps}"
                )
            return np.broadcast_to(self.values[:, None], (n_steps, n_paths))
        if self.kind == "per_path":
            if self.values.shape != (n_steps, n_paths):
                raise ConfigurationError(
                    f"per-path control shape {self.values.shape} does not match "
                    f"({n_steps}, {n_paths})"
                )
            return self.values
        raise ConfigurationError("feedback controls have no open-loop grid")

    def perturbed(self, beta: np.ndarray, lam: float) -> "ControlProcess":
        """Open-loop control shifted by lam * beta (beta: (steps,) or (steps, paths))."""
        if self.kind == "feedback":
            raise ConfigurationError("cannot perturb a feedback control")
        beta = np.asarray(beta, dtype=float)
        if self.kind == "constant":
            vals = self.values + lam * beta
            kind = "deterministic" if beta.ndim == 1 else "per_path"
            return ControlProcess(kind, vals, self.bounds)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1 and beta.ndim == 2:
            vals = vals[:, None]
        out = vals + lam * beta
        return ControlProcess("per_path" if out.ndim == 2 else "deterministic",
                              out, self.bounds)

    def shifted(self, delta: float) -> "ControlProcess":
        if self.kind == "feedback":
            rule = self.values
            return ControlProcess.feedback(
                lambda i, t, paths, x: np.asarray(rule(i, t, paths, x)) + delta,
                self.bounds,
            )
        return ControlProcess(self.kind, np.asarray(self.values) + delta, self.bounds)


@dataclass(frozen=True)
class InfoMode:
    """Information flow available to the controller: full or fixed-delay."""

    delay: float = 0.0

    def __post_init__(self):
        if self.delay < 0.0:
            raise ConfigurationError(f"information delay must be >= 0, got {self.delay}")

    @classmethod
    def full(cls) -> "InfoMode":
        return cls(0.0)

    @classmethod
    def delayed(cls, delay: float) -> "InfoMode":
        return cls(delay)

    @property
    def is_full(self) -> bool:
        return self.delay == 0.0

    def lag_steps(self, grid: TimeGrid) -> int:
        if self.delay > grid.horizon:
            raise ConfigurationError("information delay exceeds the horizon")
        return int(round(self.delay / grid.dt))

    def observable_node(self, i: int, grid: TimeGrid) -> int:
        """Latest node whose information is visible at node i."""
        return max(0, i - self.lag_steps(grid))
