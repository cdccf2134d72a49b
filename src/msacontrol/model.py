"""Problem definitions: coefficient functions, derivative bundles, control domains.

All coefficient callables are batched: they take arrays with one leading sample
axis ``B`` and a scalar time, and return arrays with the same leading axis.

    drift(t, x, u)            x: (B, n), u: (B, k)          -> (B, n)
    diffusion(t, x, u)                                      -> (B, n, d)
    driver(t, x, y, z, u)     y: (B,),  z: (B, d)           -> (B,)
    terminal(x)                                             -> (B,)

Derivatives follow the same convention; see :class:`Derivatives` for shapes.
Missing derivatives are filled with central finite differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, EvaluationError

Array = np.ndarray

# Names of the derivative slots, in reporting order.
DERIVATIVE_NAMES = (
    "b_x", "sigma_x", "b_xx", "sigma_xx",
    "f_x", "f_y", "f_z", "f_hess",
    "phi_x", "phi_xx",
)


@dataclass(frozen=True)
class Derivatives:
    """Closed-form (or finite-difference fallback) derivative bundle.

    Shapes, with m = n + 1 + d the joint (x, y, z) dimension:
        b_x(t, x, u)      -> (B, n, n)        Jacobian, [i, j] = d b_i / d x_j
        sigma_x(t, x, u)  -> (B, d, n, n)     per column i of sigma, its Jacobian
        b_xx(t, x, u)     -> (B, n, n, n)     per component j of b, its Hessian
        sigma_xx(t, x, u) -> (B, d, n, n, n)  per (column i, component j), Hessian
        f_x(t, x, y, z, u)    -> (B, n)
        f_y(t, x, y, z, u)    -> (B,)
        f_z(t, x, y, z, u)    -> (B, d)
        f_hess(t, x, y, z, u) -> (B, m, m)    symmetric, ordered (x, y, z)
        phi_x(x)          -> (B, n)
        phi_xx(x)         -> (B, n, n)
    """

    b_x: Callable
    sigma_x: Callable
    b_xx: Callable
    sigma_xx: Callable
    f_x: Callable
    f_y: Callable
    f_z: Callable
    f_hess: Callable
    phi_x: Callable
    phi_xx: Callable
    fd_fallback: frozenset = frozenset()


@dataclass(frozen=True)
class Structure:
    """Declared structural zeros; solver shortcuts trust these, never infer them."""

    b_x_zero: bool = False
    sigma_x_zero: bool = False
    b_xx_zero: bool = False
    sigma_xx_zero: bool = False
    phi_xx_zero: bool = False
    f_hess_zero: bool = False
    f_x_zero: bool = False
    f_z_zero: bool = False
    # the second-order adjoint is identically zero (proven for the problem,
    # e.g. constant costate with vanishing curvature terms)
    second_order_zero: bool = False


@dataclass(frozen=True)
class Bounds:
    """Declared sup-norm bounds; reported for penalty-weight guidance only."""

    b_x: Optional[float] = None
    sigma_x: Optional[float] = None
    phi_x: Optional[float] = None
    df: Optional[float] = None
    d2f: Optional[float] = None


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable control-problem definition on [0, horizon].

    State: dX = b(t, X, u) dt + sigma(t, X, u) dW,  X_0 = x0, with the
    recursive value dY = -f(t, X, Y, Z, u) dt + Z' dW, Y_T = terminal(X_T);
    the cost is Y_0.
    """

    n: int
    d: int
    k: int
    x0: Array
    horizon: float
    drift: Callable
    diffusion: Callable
    driver: Callable
    terminal: Callable
    derivatives: Derivatives
    structure: Structure = field(default_factory=Structure)
    bounds: Bounds = field(default_factory=Bounds)

    def __post_init__(self):
        if min(self.n, self.d, self.k) < 1:
            raise ConfigurationError("dimensions n, d, k must be positive")
        if not self.horizon > 0:
            raise ConfigurationError("horizon must be positive")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (self.n,):
            raise ConfigurationError(f"x0 must have shape ({self.n},), got {x0.shape}")
        object.__setattr__(self, "x0", x0)

    @classmethod
    def build(cls, *, n, d, k, x0, horizon, drift, diffusion, driver, terminal,
              derivatives: Optional[dict] = None, structure: Optional[Structure] = None,
              bounds: Optional[Bounds] = None,
              fd_step: float = 1e-6, fd_step_hess: float = 1e-4) -> "ProblemSpec":
        """Assemble a spec, filling missing derivatives with finite differences.

        ``derivatives`` maps names from DERIVATIVE_NAMES to closed-form
        callables; anything absent gets a central-difference fallback
        (relative step ``fd_step``; second derivatives use ``fd_step_hess``
        since squared steps hit the rounding floor).
        """
        supplied = dict(derivatives or {})
        unknown = set(supplied) - set(DERIVATIVE_NAMES)
        if unknown:
            raise ConfigurationError(f"unknown derivative names: {sorted(unknown)}")
        fallback = frozenset(name for name in DERIVATIVE_NAMES if name not in supplied)
        filled = _fd_bundle(n, d, drift, diffusion, driver, terminal,
                            fd_step, fd_step_hess)
        filled.update(supplied)
        deriv = Derivatives(fd_fallback=fallback, **filled)
        return cls(n=n, d=d, k=k, x0=x0, horizon=horizon, drift=drift,
                   diffusion=diffusion, driver=driver, terminal=terminal,
                   derivatives=deriv, structure=structure or Structure(),
                   bounds=bounds or Bounds())


# ---------------------------------------------------------------------------
# finite differences

def _steps_for(x: Array, step: float) -> Array:
    # relative step, floored at `step` itself for small coordinates
    return step * np.maximum(1.0, np.abs(x))


def _fd_jacobian(fn: Callable[[Array], Array], x: Array, step: float) -> Array:
    """Central-difference Jacobian of fn: (B, p) -> (B, r), result (B, r, p)."""
    x = np.asarray(x, dtype=float)
    h = _steps_for(x, step)
    cols = []
    for j in range(x.shape[1]):
        xp = x.copy()
        xm = x.copy()
        xp[:, j] += h[:, j]
        xm[:, j] -= h[:, j]
        cols.append((fn(xp) - fn(xm)) / (2.0 * h[:, j])[:, None])
    return np.stack(cols, axis=-1)


def _fd_hessian(fn: Callable[[Array], Array], x: Array, step: float) -> Array:
    """Central 4-point Hessian of scalar fn: (B, p) -> (B,), result (B, p, p).

    Each unordered pair is evaluated once, so the output is exactly symmetric.
    """
    x = np.asarray(x, dtype=float)
    h = _steps_for(x, step)
    p = x.shape[1]
    out = np.empty((x.shape[0], p, p))
    for a in range(p):
        for b in range(a, p):
            shifts = np.zeros_like(x)
            shifts[:, a] += h[:, a]
            shifts[:, b] += h[:, b]
            gpp = fn(x + shifts)
            gmm = fn(x - shifts)
            shifts_ab = np.zeros_like(x)
            shifts_ab[:, a] += h[:, a]
            shifts_ab[:, b] -= h[:, b]
            gpm = fn(x + shifts_ab)
            gmp = fn(x - shifts_ab)
            val = (gpp - gpm - gmp + gmm) / (4.0 * h[:, a] * h[:, b])
            out[:, a, b] = val
            out[:, b, a] = val
    return out


def _fd_bundle(n, d, drift, diffusion, driver, terminal, step, step_hess) -> dict:
    m = n + 1 + d

    def split(w):
        return w[:, :n], w[:, n], w[:, n + 1:]

    def f_of_w(t, u):
        def g(w):
            xs, ys, zs = split(w)
            return driver(t, xs, ys, zs, u)
        return g

    def b_x(t, x, u):
        return _fd_jacobian(lambda xs: drift(t, xs, u), x, step)

    def sigma_x(t, x, u):
        # Jacobian of each column: (B, n, d, n) -> (B, d, n, n)
        jac = _fd_jacobian(lambda xs: diffusion(t, xs, u).reshape(len(xs), -1), x, step)
        return jac.reshape(len(x), n, d, n).transpose(0, 2, 1, 3)

    def b_xx(t, x, u):
        return np.stack(
            [_fd_hessian(lambda xs, j=j: drift(t, xs, u)[:, j], x, step_hess)
             for j in range(n)], axis=1)

    def sigma_xx(t, x, u):
        out = np.empty((len(x), d, n, n, n))
        for i in range(d):
            for j in range(n):
                out[:, i, j] = _fd_hessian(
                    lambda xs, i=i, j=j: diffusion(t, xs, u)[:, j, i], x, step_hess)
        return out

    def f_grad(t, x, y, z, u):
        w = np.concatenate([x, y[:, None], z], axis=1)
        return _fd_jacobian(lambda ws: f_of_w(t, u)(ws)[:, None], w, step)[:, 0, :]

    def f_x(t, x, y, z, u):
        return f_grad(t, x, y, z, u)[:, :n]

    def f_y(t, x, y, z, u):
        return f_grad(t, x, y, z, u)[:, n]

    def f_z(t, x, y, z, u):
        return f_grad(t, x, y, z, u)[:, n + 1:]

    def f_hess(t, x, y, z, u):
        w = np.concatenate([x, y[:, None], z], axis=1)
        return _fd_hessian(f_of_w(t, u), w, step_hess)

    def phi_x(x):
        return _fd_jacobian(lambda xs: terminal(xs)[:, None], x, step)[:, 0, :]

    def phi_xx(x):
        return _fd_hessian(terminal, x, step_hess)

    return dict(b_x=b_x, sigma_x=sigma_x, b_xx=b_xx, sigma_xx=sigma_xx,
                f_x=f_x, f_y=f_y, f_z=f_z, f_hess=f_hess,
                phi_x=phi_x, phi_xx=phi_xx)


# ---------------------------------------------------------------------------
# control domains

@dataclass(frozen=True)
class FiniteSet:
    """Explicit list of admissible control points, order preserved."""

    points: Array  # (m, k)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ConfigurationError("FiniteSet must be non-empty")
        if len({tuple(row) for row in pts}) != len(pts):
            raise ConfigurationError("FiniteSet contains duplicate points")
        object.__setattr__(self, "points", pts)

    @property
    def k(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, enumerated on a per-axis grid."""

    lower: Array
    upper: Array
    resolution: Array  # grid points per axis, each >= 2

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        res = np.atleast_1d(np.asarray(self.resolution, dtype=int))
        if res.shape == (1,) and lo.shape != (1,):
            res = np.full(lo.shape, res[0])
        if not (lo.shape == hi.shape == res.shape):
            raise ConfigurationError("Box lower/upper/resolution shapes differ")
        if np.any(lo > hi):
            raise ConfigurationError("Box requires lower <= upper componentwise")
        if np.any(res < 2):
            raise ConfigurationError("Box resolution must be >= 2 per axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "resolution", res)

    @property
    def k(self) -> int:
        return self.lower.shape[0]


ControlDomain = Union[FiniteSet, Box]


def enumerate_controls(domain: ControlDomain) -> Array:
    """Deterministic candidate list, shape (m, k).

    FiniteSet keeps stored order; Box expands to the lexicographic grid.
    Argmin tie-breaking downstream depends on this order.
    """
    if isinstance(domain, FiniteSet):
        return domain.points.copy()
    if isinstance(domain, Box):
        axes = [np.linspace(domain.lower[i], domain.upper[i], domain.resolution[i])
                for i in range(domain.k)]
        return np.array(list(itertools.product(*axes)), dtype=float)
    raise ConfigurationError(f"unsupported control domain: {type(domain).__name__}")


def domain_contains(domain: ControlDomain, value: Array, atol: float = 1e-12) -> bool:
    value = np.asarray(value, dtype=float).reshape(-1)
    if isinstance(domain, FiniteSet):
        return bool(np.any(np.all(np.abs(domain.points - value) <= atol, axis=1)))
    return bool(np.all(value >= domain.lower - atol) and np.all(value <= domain.upper + atol))


# ---------------------------------------------------------------------------
# pointwise evaluation (validated single-sample surface)

def _check_point(spec: ProblemSpec, t: float, x, u) -> tuple:
    if not (0.0 <= t <= spec.horizon):
        raise ConfigurationError(f"t={t} outside [0, {spec.horizon}]")
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x.shape != (spec.n,):
        raise ConfigurationError(f"x must have shape ({spec.n},), got {x.shape}")
    if u.shape != (spec.k,):
        raise ConfigurationError(f"u must have shape ({spec.k},), got {u.shape}")
    return x, u


def eval_coefficients(spec: ProblemSpec, t: float, x, u):
    """Drift and diffusion at a single point; returns ((n,), (n, d))."""
    x, u = _check_point(spec, t, x, u)
    b = np.asarray(spec.drift(t, x[None], u[None]))[0]
    if not np.all(np.isfinite(b)):
        raise EvaluationError(f"drift b returned non-finite values at t={t}")
    s = np.asarray(spec.diffusion(t, x[None], u[None]))[0]
    if not np.all(np.isfinite(s)):
        raise EvaluationError(f"diffusion sigma returned non-finite values at t={t}")
    if b.shape != (spec.n,) or s.shape != (spec.n, spec.d):
        raise ConfigurationError(
            f"coefficient shapes {b.shape}, {s.shape} disagree with (n, d)=({spec.n}, {spec.d})")
    return b, s


def eval_driver(spec: ProblemSpec, t: float, x, y: float, z, u) -> float:
    """Driver f at a single point."""
    x, u = _check_point(spec, t, x, u)
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (spec.d,):
        raise ConfigurationError(f"z must have shape ({spec.d},), got {z.shape}")
    val = float(np.asarray(spec.driver(t, x[None], np.array([float(y)]), z[None], u[None]))[0])
    if not np.isfinite(val):
        raise EvaluationError(f"driver f returned non-finite value at t={t}")
    return val


# ---------------------------------------------------------------------------
# derivative checking

@dataclass(frozen=True)
class DerivativeReport:
    """Worst relative error per derivative against fresh central differences."""

    errors: dict
    tol: float
    fd_fallback: frozenset

    def passed(self, name: str) -> bool:
        return self.errors[name] <= self.tol

    @property
    def all_passed(self) -> bool:
        return all(err <= self.tol for err in self.errors.values())

    @property
    def worst(self) -> tuple:
        name = max(self.errors, key=self.errors.get)
        return name, self.errors[name]


def check_derivatives(spec: ProblemSpec, sample_count: int = 32, step: float = 1e-5,
                      tol: float = 1e-3, seed: int = 0) -> DerivativeReport:
    """Compare every declared derivative against central finite differences.

    Report-only: each entry is the max relative error over ``sample_count``
    random points, with scale max(1, |fd|). Each derivative is also evaluated
    once on all the points as one batch, at the first point's time; its worst
    relative deviation from the same points taken one row at a time (an
    infinite one if the shapes differ) counts in its entry, so a derivative
    that is right only on one-row batches fails.
    """
    if sample_count < 1 or not step > 0:
        raise ConfigurationError("sample_count >= 1 and step > 0 required")
    rng = np.random.Generator(np.random.Philox(key=seed))
    B = sample_count
    x = rng.normal(size=(B, spec.n))
    y = rng.normal(size=B)
    z = rng.normal(size=(B, spec.d))
    u = rng.normal(size=(B, spec.k))
    ts = rng.uniform(0.0, spec.horizon, size=B)
    fd = _fd_bundle(spec.n, spec.d, spec.drift, spec.diffusion, spec.driver,
                    spec.terminal, step, step)
    dv = spec.derivatives

    def evaluate(fn, name, t, rows):
        if name in ("phi_x", "phi_xx"):
            out = fn(x[rows])
        elif name.startswith("f"):
            out = fn(t, x[rows], y[rows], z[rows], u[rows])
        else:
            out = fn(t, x[rows], u[rows])
        return np.asarray(out, dtype=float)

    def rel_error(value, reference):
        scale = np.maximum(1.0, np.abs(reference))
        return float(np.max(np.abs(value - reference) / scale))

    errors = {}
    for name in DERIVATIVE_NAMES:
        declared = getattr(dv, name)
        worst = 0.0
        for i in range(B):
            t, row = float(ts[i]), slice(i, i + 1)
            worst = max(worst, rel_error(evaluate(declared, name, t, row),
                                         evaluate(fd[name], name, t, row)))
        t = float(ts[0])
        rowwise = np.concatenate([np.atleast_1d(evaluate(declared, name, t, slice(i, i + 1)))
                                  for i in range(B)])
        batched = evaluate(declared, name, t, slice(None))
        if batched.shape != rowwise.shape:
            worst = np.inf
        else:
            worst = max(worst, rel_error(batched, rowwise))
        errors[name] = worst
    return DerivativeReport(errors=errors, tol=tol, fd_fallback=dv.fd_fallback)


def constant_fn(value):
    """Batched callable ignoring (t, x, u, ...) and returning `value` per sample."""
    value = np.asarray(value, dtype=float)

    def fn(t, x, *rest):
        return np.broadcast_to(value, (len(x),) + value.shape).copy()

    return fn
