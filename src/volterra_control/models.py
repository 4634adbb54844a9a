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
_SELFTEST_SAMPLES = 8
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

    `affine_in_x=True` declares every kernel affine in x, so that each x partial
    is free of x: a shift of the state then moves the later states by the
    variation's linear recursion exactly, and the adjoint reads its jump field
    from one reverse sweep (`volterra.reverse_memory_sums`) with no re-run.
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
    affine_in_x: bool = False
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
        # the d/dt partials, then the x and v partials, then the mixed ones
        return tuple(f"{kernel}_{part}" for parts in (("dt",), ("dx", "dv"), ("dtdx", "dtdv"))
                     for kernel in _KERNELS for part in parts)

    def _reference(self, name: str) -> Callable:
        """The central difference partial `name` is checked against: of its kernel in t,
        x or v, or of the kernel's d/dt partial for a mixed one."""
        kernel, part = name.split("_", 1)
        base = getattr(self, f"{kernel}_dt" if part in ("dtdx", "dtdv") else kernel)
        return _central_difference(base, {"dt": 0, "dx": 2, "dv": 3}[part[-2:]])

    def _fill_missing(self):
        """Fill each missing partial with its reference, in `_partial_names` order, so
        that a mixed partial differentiates the filled d/dt one. The x partials of an
        x-independent model are `_zero` instead."""
        if self.initial_slope is None:
            self.initial_slope = _central_difference(self.initial_curve, 0)
        for name in self._partial_names():
            if getattr(self, name) is None:
                zero = self.x_independent and name.endswith("dx")
                setattr(self, name, _zero if zero else self._reference(name))

    def decay(self, kernel: str) -> float | None:
        """Declared decay rate of the drift, diffusion or jump kernel, or None."""
        return None if self.decays is None else self.decays[_KERNELS.index(kernel)]

    @property
    def decays_declared(self) -> bool:
        """True when every kernel declares a decay: the memory sums are then a
        finite Markovian lift, one-step recursions over the per-kernel sums."""
        return self.decays is not None and None not in self.decays

    @property
    def memory_state_coupling(self) -> bool:
        """True when the mixed time-state partials can be non-zero."""
        return not (self.x_independent or self.time_invariant_kernels)

    def self_test(self) -> None:
        """Check declared partials, affinity in x and decays at random arguments.

        Declared partials are compared with the central differences they would
        be filled with (`_reference`). A model flagged `affine_in_x` must have
        each x partial take the same values at x and at x + 1. For each declared
        decay lambda, the kernel and its d/dt, x and v partials must satisfy
        k(t,s,.) = e^{-lambda (t-s)} k(s,s,.) for t >= s (the reverse sweep of
        the adjoint reads the x partials at (s, s) only). Raises
        RegistrationError naming the first failing partial or kernel.
        """
        t, s, x, v, z = _self_test_samples()
        args = {kernel: (t, s, x, v, z) if kernel == "jump" else (t, s, x, v)
                for kernel in _KERNELS}
        for name in self.declared:
            kernel_args = args[name.split("_")[0]]
            _refuse_worst_sample(
                getattr(self, name)(*kernel_args), self._reference(name)(*kernel_args),
                lambda worst, got, want: (
                    f"model {self.name!r}: declared partial {name} disagrees with "
                    f"finite difference (sample {worst}: declared {got:.6g}, "
                    f"finite difference {want:.6g})"))
        for kernel in _KERNELS if self.x_independent else ():
            if np.any(np.abs(getattr(self, f"{kernel}_dx")(*args[kernel])) > 1e-12):
                raise RegistrationError(f"model {self.name!r} is flagged x-independent but "
                                        f"{kernel}_dx is not identically zero")
        for kernel in _KERNELS if self.affine_in_x else ():
            dx, tail = getattr(self, f"{kernel}_dx"), args[kernel][3:]
            _refuse_worst_sample(
                dx(t, s, x + 1.0, *tail), dx(t, s, x, *tail),
                lambda worst, got, want: (
                    f"model {self.name!r} is flagged affine in x but {kernel}_dx moves with x "
                    f"(sample {worst}: {got:.6g} at x + 1, {want:.6g} at x)"))
        late, early = np.maximum(t, s), np.minimum(t, s)
        for kernel in _KERNELS:
            lam = self.decay(kernel)
            if lam is None:
                continue
            factor, tail = np.exp(-lam * (late - early)), args[kernel][2:]
            for name in (kernel, f"{kernel}_dt", f"{kernel}_dx", f"{kernel}_dv",
                         f"{kernel}_dtdx", f"{kernel}_dtdv"):
                fn = getattr(self, name)
                _refuse_worst_sample(
                    fn(late, early, *tail),
                    factor * np.asarray(fn(early, early, *tail), dtype=float),
                    lambda worst, got, want: (
                        f"model {self.name!r}: {name} does not decay at the declared "
                        f"rate {lam} of the {kernel} kernel (sample {worst}: "
                        f"k(t,s) {got:.6g}, e^(-rate (t-s)) k(s,s) {want:.6g})"),
                    floor=1e-8)


def _self_test_samples() -> tuple:
    """The (t, s, x, v, z) samples at which registration checks a model's partials and
    decays; z keeps away from 0."""
    rng = np.random.default_rng(1234)
    t, s, x, v, z = (rng.uniform(lo, hi, _SELFTEST_SAMPLES) for lo, hi in
                     ((0.0, 2.0), (0.0, 2.0), (0.5, 2.0), (-1.0, 2.0), (-1.0, 1.0)))
    return t, s, x, v, np.where(np.abs(z) < 0.1, 0.5, z)


def _refuse_worst_sample(got, want, message: Callable[[int, float, float], str],
                         floor: float = 1.0) -> None:
    """Raise RegistrationError(message(sample, got, want)) at the sample where `got` is
    furthest beyond _SELFTEST_RTOL * (floor + max(|got|, |want|)) of `want`, if any is."""
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    excess = np.abs(got - want) - _SELFTEST_RTOL * (floor + np.maximum(np.abs(got), np.abs(want)))
    if np.any(excess > 0.0):
        worst = int(np.argmax(excess))
        raise RegistrationError(message(worst, got.flat[worst], want.flat[worst]))


def _exp_kernel_model(name, b0, sigma0, jump0, decay_b, decay_s, decay_j, x0,
                      x_independent):
    """Linear model with exponentially decaying memory kernels.

    drift = b0 * exp(-decay_b (t-s)) * v * x (state factor dropped when
    x_independent), and analogously for diffusion and jump; the jump kernel
    carries an extra multiplicative mark factor z.
    """

    def xf(x):
        return 1.0 if x_independent else x

    def kfun(amp, lam, order_t=0, wrt=None):
        c = amp * (-lam) ** order_t

        def fn(t, s, x, v):
            e = np.exp(-lam * (np.asarray(t, dtype=float) - s))
            if wrt == "x":   # an x-independent model takes `_zero` for every x partial
                return c * e * v
            if wrt == "v":
                return c * e * xf(x)
            return c * e * v * xf(x)

        return fn

    def jfun(amp, lam, order_t=0, wrt=None):
        base = kfun(amp, lam, order_t, wrt)
        return lambda t, s, x, v, z: base(t, s, x, v) * z

    kernels = {"drift": (kfun, b0, decay_b), "diffusion": (kfun, sigma0, decay_s),
               "jump": (jfun, jump0, decay_j)}
    # partial -> (number of d/dt applications, None or the argument "x" or "v" differentiated)
    parts = {"dt": (1, None), "dx": (0, "x"), "dv": (0, "v"), "dtdx": (1, "x"), "dtdv": (1, "v")}
    partials = {f"{kernel}_{part}": _zero if x_independent and wrt == "x"
                else make(amp, lam, order_t, wrt)
                for kernel, (make, amp, lam) in kernels.items()
                for part, (order_t, wrt) in parts.items()}
    return CoefficientModel(
        name=name,
        initial_curve=lambda t: x0 + 0.0 * np.asarray(t, dtype=float),
        initial_slope=lambda t: 0.0 * np.asarray(t, dtype=float),
        **{kernel: make(amp, lam) for kernel, (make, amp, lam) in kernels.items()},
        **partials,
        x_independent=x_independent,
        affine_in_x=True,
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
        """Fill each missing derivative by a central difference, and check each declared
        one against it: g' with x spread over `terminal_domain`, f's x and v partials
        with x spread there too and t and v drawn as in `CoefficientModel.self_test`."""
        running_args = self._running_samples()
        for name, of, arg, args in (
                ("terminal_prime", "terminal", 0, (np.linspace(*self.terminal_domain, 33),)),
                ("running_dx", "running", 1, running_args),
                ("running_dv", "running", 2, running_args)):
            reference = _central_difference(getattr(self, of), arg)
            if getattr(self, name) is None:
                setattr(self, name, reference)
            else:
                _refuse_worst_sample(
                    getattr(self, name)(*args), reference(*args),
                    lambda *_: f"{name} disagrees with finite difference of {of}")

    def _running_samples(self) -> tuple:
        """The (t, x, v) samples of f's partials: x spread over `terminal_domain`, t and v
        drawn as in `CoefficientModel.self_test`."""
        t, _, _, v, _ = _self_test_samples()
        return t, np.linspace(*self.terminal_domain, _SELFTEST_SAMPLES), v

    def running_reads_x(self) -> bool:
        """True when f_x = running_dx is non-zero at some of the samples it is checked at."""
        return bool(np.any(np.asarray(self.running_dx(*self._running_samples())) != 0.0))

    @classmethod
    def terminal_only(cls, g: Callable, g_prime: Callable | None = None,
                      domain=(0.25, 4.0)) -> "PerformanceSpec":
        return cls(terminal=g, terminal_prime=g_prime, terminal_domain=domain)

    @classmethod
    def log_terminal(cls) -> "PerformanceSpec":
        return cls.terminal_only(np.log, lambda x: 1.0 / np.asarray(x, dtype=float))


@dataclass(frozen=True)
class UtilitySpec:
    """Strictly increasing concave utility with an invertible marginal of power law
    (u')^{-1}(c y) = c^{1/(gamma-1)} (u')^{-1}(y), gamma = `exponent` < 1 (0 for log)."""

    name: str
    u: Callable
    u_prime: Callable
    u_prime_inverse: Callable
    exponent: float

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
        if not (self.exponent < 1.0 and all(
                np.allclose(self.u_prime_inverse(c * mu),
                            c ** (1.0 / (self.exponent - 1.0)) * back, rtol=1e-10, atol=0.0)
                for c in (1e-2, 1e2))):
            raise RegistrationError(f"utility {self.name!r}: inverse marginal is not the "
                                    f"power law of exponent {self.exponent}")

    @classmethod
    def log(cls) -> "UtilitySpec":
        return cls(
            name="log",
            u=np.log,
            u_prime=lambda x: 1.0 / np.asarray(x, dtype=float),
            u_prime_inverse=lambda y: 1.0 / np.asarray(y, dtype=float),
            exponent=0.0,
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
            exponent=g,
        )


class ControlProcess:
    """Admissible control u(t_i) on each grid interval [t_i, t_{i+1}).

    An open-loop control is one float array `values` whose shape says what
    varies: 0-d for a constant, (steps,) for one value per node, (steps,
    paths) for one value per node and path; axis 0 is always the node axis.
    A feedback control has `rule(i, t_i, paths, x_i)` instead and no values.
    Values, open-loop or produced by the rule, must be finite and lie in `bounds`.
    """

    def __init__(self, values, bounds: tuple[float, float], rule: Callable | None = None):
        lo, hi = float(bounds[0]), float(bounds[1])
        if not lo < hi:
            raise ConfigurationError(f"empty admissible interval {bounds}")
        self.bounds, self.rule = (lo, hi), rule
        self.values = None if rule is not None else self._admissible(values)

    def _admissible(self, values) -> np.ndarray:
        out = np.asarray(values, dtype=float)
        lo, hi = self.bounds
        # a NaN passes both comparisons, so finiteness is asked for on its own
        if not np.all(np.isfinite(out)) or np.any(out < lo - 1e-12) or np.any(out > hi + 1e-12):
            what = "control" if self.rule is None else "feedback rule"
            raise ConfigurationError(
                f"{what} values are not finite or leave the admissible interval [{lo}, {hi}]")
        return out

    @classmethod
    def constant(cls, value: float, bounds=(-10.0, 10.0)) -> "ControlProcess":
        return cls(float(value), bounds)

    @classmethod
    def deterministic(cls, grid_values, bounds=(-10.0, 10.0)) -> "ControlProcess":
        if np.ndim(grid_values) != 1:
            raise ConfigurationError("deterministic control needs a (steps,) array")
        return cls(grid_values, bounds)

    @classmethod
    def per_path(cls, values, bounds=(-10.0, 10.0)) -> "ControlProcess":
        if np.ndim(values) != 2:
            raise ConfigurationError("per-path control needs a (steps, paths) array")
        return cls(values, bounds)

    @classmethod
    def feedback(cls, rule: Callable, bounds=(-10.0, 10.0)) -> "ControlProcess":
        """rule(i, t_i, paths, x_i) -> per-path control values at node i."""
        return cls(None, bounds, rule)

    def at(self, i: int, paths=None, x=None):
        """Control value on [t_i, t_{i+1}): scalar or (paths,) array."""
        if self.rule is None:
            return self.values if self.values.ndim == 0 else self.values[i]
        t_i = paths.grid.nodes[i] if paths is not None else None
        return self._admissible(self.rule(i, t_i, paths, x))

    def open_loop_grid(self, n_steps: int, n_paths: int) -> np.ndarray:
        """The open-loop values as a (steps, paths) grid for reading only; 0-d
        and (steps,) values are read-only broadcast views."""
        if self.rule is not None:
            raise ConfigurationError("feedback controls have no open-loop grid")
        v = self.values
        if v.shape not in ((), (n_steps,), (n_steps, n_paths)):
            raise ConfigurationError(
                f"control values of shape {v.shape} do not fit a ({n_steps}, {n_paths}) grid")
        return v if v.ndim == 2 else np.broadcast_to(v.reshape(-1, 1), (n_steps, n_paths))

    def perturbed(self, beta: np.ndarray, lam: float) -> "ControlProcess":
        """Open-loop control shifted by lam * beta (beta: (steps,) or (steps, paths)).

        When either array is per-path, a (steps,) one lies on the node axis."""
        if self.rule is not None:
            raise ConfigurationError("cannot perturb a feedback control")
        vals, beta = self.values, np.asarray(beta, dtype=float)
        if max(vals.ndim, beta.ndim) == 2:
            vals, beta = (a[:, None] if a.ndim == 1 else a for a in (vals, beta))
        return ControlProcess(vals + lam * beta, self.bounds)

    def shifted(self, delta: float) -> "ControlProcess":
        """The control plus delta, refused where it leaves the bounds. Kept as the
        acceptance oracles' whole shifted control (criterion 14); `portfolio.wealth_rows`
        forms a shifted run's rows one node at a time instead."""
        if self.rule is None:
            return ControlProcess(self.values + delta, self.bounds)
        return ControlProcess(None, self.bounds,
                              lambda i, t, paths, x: np.asarray(self.rule(i, t, paths, x)) + delta)


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
        # the latest node at or before t_i - delay, a ratio a few ulps above an
        # integer taken as that integer
        return math.ceil(self.delay / grid.dt * (1.0 - 4.0 * np.finfo(float).eps))

    def observable_node(self, i: int, grid: TimeGrid) -> int:
        """Latest node whose information is visible at node i."""
        return max(0, i - self.lag_steps(grid))
