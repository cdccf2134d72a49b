"""Problem definitions: coefficient functions, derivative bundles, control domains.

All coefficient callables are batched: they take arrays with one leading sample
axis ``B`` and a scalar time, and return arrays with the same leading axis.

    drift(t, x, u)            x: (B, n), u: (B, k)          -> (B, n)
    diffusion(t, x, u)                                      -> (B, n, d)
    driver(t, x, y, z, u)     y: (B,),  z: (B, d)           -> (B,)
    terminal(x)                                             -> (B,)

Derivatives follow the same convention; see :class:`Derivatives` for shapes.
Missing derivatives are filled with central differences (``FD_STEP``, ``FD_STEP_HESS``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, check_count, check_horizon, check_seed

Array = np.ndarray

# Names of the derivative slots, in reporting order.
DERIVATIVE_NAMES = (
    "b_x", "sigma_x", "b_xx", "sigma_xx",
    "f_x", "f_y", "f_z", "f_hess",
    "phi_x", "phi_xx",
)

# Central-difference steps of the fallback and the checker, relative (h = step
# max(1, |x|)): first derivatives, and second ones, whose squared step hits the
# rounding floor sooner.
FD_STEP = 1e-6
FD_STEP_HESS = 1e-4


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

    def at(self, name: str, t, x: Array, y: Array, z: Array, u: Array) -> Array:
        """Derivative ``name`` at the node (t, x, y, z, u), given the arguments it takes:
        x for phi's, (t, x, y, z, u) for the f's, (t, x, u) for b's and sigma's."""
        fn = getattr(self, name)
        if name.startswith("phi"):
            return fn(x)
        return fn(t, x, y, z, u) if name.startswith("f") else fn(t, x, u)


@dataclass(frozen=True)
class Structure:
    """Declared structural zeros; solver shortcuts trust these, never infer them.

    Each flag ``<name>_zero`` names a derivative of ``DERIVATIVE_NAMES`` that is
    identically 0, and ``check_derivatives`` verifies every one of them. With
    all four zero, the second-order adjoint vanishes (``second_order_vanishes``).
    A zero second-order adjoint that rests on more than these flags is supplied
    as nodes, through ``RunHints.second_order_ode``. f_z has no flag: where it
    is 0, mu's Girsanov terms are exact zeros and every weight is exactly 1.
    """

    b_xx_zero: bool = False
    sigma_xx_zero: bool = False
    phi_xx_zero: bool = False
    f_hess_zero: bool = False


@dataclass(frozen=True)
class Bounds:
    """Declared bound of the driver's (y, z) gradient: |f_y| <= df and |f_z| <= df
    at every (t, x, y, z, u). Trusted, never inferred: ``msacontrol run`` reports
    it for penalty-weight guidance, the tree oracle certifies its backward
    induction by it (``benchmarks.tree_bruteforce``), and ``check_derivatives``
    tests it on its sample."""

    df: Optional[float] = None

    def __post_init__(self):
        if self.df is not None and not 0.0 <= self.df < np.inf:
            raise ConfigurationError(f"Bounds.df must be finite and >= 0, got {self.df}")


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
        for name in ("n", "d", "k"):
            check_count(name, getattr(self, name), 1)
        check_horizon(self.horizon)
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (self.n,):
            raise ConfigurationError(f"x0 must have shape ({self.n},), got {x0.shape}")
        object.__setattr__(self, "x0", x0)

    @classmethod
    def build(cls, *, n, d, k, x0, horizon, drift, diffusion, driver, terminal,
              derivatives: Optional[dict] = None, structure: Optional[Structure] = None,
              bounds: Optional[Bounds] = None) -> "ProblemSpec":
        """Assemble a spec, filling missing derivatives with finite differences.

        ``derivatives`` maps names from DERIVATIVE_NAMES to closed-form
        callables; anything absent gets a central-difference fallback
        (relative step ``FD_STEP``, ``FD_STEP_HESS`` for second derivatives),
        the differences ``check_derivatives`` compares against.
        """
        supplied = dict(derivatives or {})
        unknown = set(supplied) - set(DERIVATIVE_NAMES)
        if unknown:
            raise ConfigurationError(f"unknown derivative names: {sorted(unknown)}")
        fallback = frozenset(name for name in DERIVATIVE_NAMES if name not in supplied)
        filled = _fd_bundle(n, d, drift, diffusion, driver, terminal)
        filled.update(supplied)
        deriv = Derivatives(fd_fallback=fallback, **filled)
        return cls(n=n, d=d, k=k, x0=x0, horizon=horizon, drift=drift,
                   diffusion=diffusion, driver=driver, terminal=terminal,
                   derivatives=deriv, structure=structure or Structure(),
                   bounds=bounds or Bounds())


# ---------------------------------------------------------------------------
# finite differences

def _fd_jacobian(fn: Callable[[Array], Array], x: Array) -> Array:
    """Central-difference Jacobian of fn: (B, p) -> (B, r), result (B, r, p)."""
    x = np.asarray(x, dtype=float)
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    cols = []
    for j in range(x.shape[1]):
        xp = x.copy()
        xm = x.copy()
        xp[:, j] += h[:, j]
        xm[:, j] -= h[:, j]
        cols.append((fn(xp) - fn(xm)) / (2.0 * h[:, j])[:, None])
    return np.stack(cols, axis=-1)


def _fd_hessian(fn: Callable[[Array], Array], x: Array) -> Array:
    """Central 4-point Hessian of each component of fn: (B, p) -> (B, r), result
    (B, r, p, p). Each unordered pair is evaluated once, so the output is exactly
    symmetric.
    """
    x = np.asarray(x, dtype=float)
    h = FD_STEP_HESS * np.maximum(1.0, np.abs(x))
    p = x.shape[1]
    out = None
    for a in range(p):
        for b in range(a, p):
            plus, cross = np.zeros_like(x), np.zeros_like(x)
            plus[:, a] += h[:, a]
            plus[:, b] += h[:, b]
            cross[:, a] += h[:, a]
            cross[:, b] -= h[:, b]
            val = ((fn(x + plus) - fn(x + cross) - fn(x - cross) + fn(x - plus))
                   / (4.0 * h[:, a] * h[:, b])[:, None])
            if out is None:  # r is known once fn has been evaluated
                out = np.empty(val.shape + (p, p))
            out[:, :, a, b] = out[:, :, b, a] = val
    return out


def _fd_bundle(n, d, drift, diffusion, driver, terminal) -> dict:
    def b_x(t, x, u):
        return _fd_jacobian(lambda xs: drift(t, xs, u), x)

    def sigma_x(t, x, u):
        # Jacobian of each column: (B, n, d, n) -> (B, d, n, n)
        jac = _fd_jacobian(lambda xs: diffusion(t, xs, u).reshape(len(xs), -1), x)
        return jac.reshape(len(x), n, d, n).transpose(0, 2, 1, 3)

    def b_xx(t, x, u):
        return _fd_hessian(lambda xs: drift(t, xs, u), x)

    def sigma_xx(t, x, u):
        # components ordered (column i, component j): (B, d n, n, n) -> (B, d, n, n, n)
        return _fd_hessian(lambda xs: diffusion(t, xs, u).swapaxes(1, 2).reshape(len(xs), -1),
                           x).reshape(len(x), d, n, n, n)

    # each first derivative differences its own block only: 2n, 2 and 2d driver calls
    def f_x(t, x, y, z, u):
        return _fd_jacobian(lambda xs: driver(t, xs, y, z, u)[:, None], x)[:, 0, :]

    def f_y(t, x, y, z, u):
        return _fd_jacobian(lambda ys: driver(t, x, ys[:, 0], z, u)[:, None], y[:, None])[:, 0, 0]

    def f_z(t, x, y, z, u):
        return _fd_jacobian(lambda zs: driver(t, x, y, zs, u)[:, None], z)[:, 0, :]

    def f_hess(t, x, y, z, u):
        w = np.concatenate([x, y[:, None], z], axis=1)
        return _fd_hessian(lambda ws: driver(t, ws[:, :n], ws[:, n], ws[:, n + 1:], u)[:, None],
                           w)[:, 0]

    def phi_x(x):
        return _fd_jacobian(lambda xs: terminal(xs)[:, None], x)[:, 0, :]

    def phi_xx(x):
        return _fd_hessian(lambda xs: terminal(xs)[:, None], x)[:, 0]

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
        if not np.isfinite(pts).all():
            raise ConfigurationError("FiniteSet points must be finite")
        if len({tuple(row) for row in pts}) != len(pts):
            raise ConfigurationError("FiniteSet contains duplicate points")
        object.__setattr__(self, "points", pts)

    @property
    def k(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with finite bounds, enumerated on a per-axis grid."""

    lower: Array
    upper: Array
    resolution: Array  # grid points per axis, each an integer >= 2

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        res = np.atleast_1d(np.asarray(self.resolution))
        for points in res.ravel():  # before the cast, which would truncate 2.7 to 2
            check_count("Box resolution", points, 2)
        res = res.astype(int)
        if res.shape == (1,) and lo.shape != (1,):
            res = np.full(lo.shape, res[0])
        if not (lo.shape == hi.shape == res.shape):
            raise ConfigurationError("Box lower/upper/resolution shapes differ")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ConfigurationError("Box bounds must be finite")
        if np.any(lo > hi):
            raise ConfigurationError("Box requires lower <= upper componentwise")
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


def problem_candidates(spec: ProblemSpec, domain: ControlDomain) -> Array:
    """``enumerate_controls(domain)``, or ConfigurationError unless domain.k is spec.k."""
    candidates = enumerate_controls(domain)
    if domain.k != spec.k:
        raise ConfigurationError(f"control domain has k = {domain.k}, the problem k = {spec.k}")
    return candidates


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


def check_derivatives(spec: ProblemSpec, sample_count: int = 32, tol: float = 1e-3,
                      seed: int = 0) -> DerivativeReport:
    """Compare every declared derivative against central finite differences.

    Report-only: each entry is the max relative error over ``sample_count``
    random points, with scale max(1, |fd|). The differences are the
    fallback's own (``FD_STEP``, ``FD_STEP_HESS``), so a derivative that
    ``ProblemSpec.build`` filled in reads exactly 0. Each derivative is also
    evaluated once on all the points as one batch, at the first point's time;
    its worst relative deviation from the same points taken one row at a time
    (an infinite one if the shapes differ) counts in its entry, so a derivative
    that is right only on one-row batches fails. Every structural zero the
    spec declares (``Structure.b_xx_zero`` and so on) gets an entry under the
    flag's name: 0 when the declared derivative is exactly 0 on the batch,
    infinite otherwise, since solver shortcuts drop those terms unchecked. A
    declared ``Bounds.df`` gets the entry "df", read the same way: 0 when
    max(|f_y|, |f_z|) <= df on the batch.
    """
    check_count("sample_count", sample_count, 1)
    check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    B = sample_count
    x = rng.normal(size=(B, spec.n))
    y = rng.normal(size=B)
    z = rng.normal(size=(B, spec.d))
    u = rng.normal(size=(B, spec.k))
    ts = rng.uniform(0.0, spec.horizon, size=B)
    fd = Derivatives(**_fd_bundle(spec.n, spec.d, spec.drift, spec.diffusion, spec.driver,
                                  spec.terminal))
    dv = spec.derivatives

    def evaluate(bundle, name, t, rows):
        return np.asarray(bundle.at(name, t, x[rows], y[rows], z[rows], u[rows]), dtype=float)

    def rel_error(value, reference):
        scale = np.maximum(1.0, np.abs(reference))
        return float(np.max(np.abs(value - reference) / scale))

    errors, grad = {}, 0.0  # grad: max(|f_y|, |f_z|) on the batch
    for name in DERIVATIVE_NAMES:
        worst = 0.0
        for i in range(B):
            t, row = float(ts[i]), slice(i, i + 1)
            worst = max(worst, rel_error(evaluate(dv, name, t, row),
                                         evaluate(fd, name, t, row)))
        t = float(ts[0])
        rowwise = np.concatenate([np.atleast_1d(evaluate(dv, name, t, slice(i, i + 1)))
                                  for i in range(B)])
        batched = evaluate(dv, name, t, slice(None))
        if batched.shape != rowwise.shape:
            worst = np.inf
        else:
            worst = max(worst, rel_error(batched, rowwise))
        errors[name] = worst
        # b_x, sigma_x, f_x, f_y, f_z and phi_x have no structural-zero flag
        if getattr(spec.structure, f"{name}_zero", False):
            errors[f"{name}_zero"] = 0.0 if np.all(batched == 0.0) else np.inf
        if name in ("f_y", "f_z"):
            grad = np.maximum(grad, np.max(np.abs(batched)))  # keeps a nan
    if spec.bounds.df is not None:
        errors["df"] = 0.0 if grad <= spec.bounds.df else np.inf
    return DerivativeReport(errors=errors, tol=tol, fd_fallback=dv.fd_fallback)


def constant_fn(value):
    """Batched callable returning `value` per row of x, called as (t, x, ...) or as (x):
    one ``repeat``, several times cheaper than a ``broadcast_to`` copy on small batches."""
    row = np.asarray(value, dtype=float)[None]

    def fn(*args):
        x = args[1] if len(args) > 1 else args[0]
        return row.repeat(len(x), axis=0)

    return fn
