"""Backward solvers on a pluggable conditional-expectation backend.

One backward loop (``solve_bsde``) serves every equation: the cost BSDE alone
(``pathwise_cost``, which stores no horizon unless asked), the adjoints, and
the update sweep of ``run_msa``, which steps the cost BSDE and the adjoints
together. At each step, Z (resp. q) comes from regressing next-step values
against the Brownian increment on that step's features, and the driver,
which may be nonlinear, is applied explicitly to the regression proxy.
``RegressionBackend.project`` is the one regression path: it returns in-sample
fitted values only, never coefficients or a predictor, by one rank-revealing
solve of the unregularized normal equations, so a collinear design projects
onto its column span. Its design matrix is built one column at a time, each
monomial one product of an earlier column and a feature.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError
from .model import ProblemSpec
from .stochastics import ControlField, ForwardPaths, _time_major

Array = np.ndarray


@functools.lru_cache(maxsize=None)
def _monomial_exponents(n_features: int, degree: int) -> tuple:
    """Exponent tuples of every monomial of total degree <= degree, by degree."""
    exps = []
    for deg in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_features), deg):
            e = [0] * n_features
            for i in combo:
                e[i] += 1
            exps.append(tuple(e))
    return tuple(exps)


@functools.lru_cache(maxsize=None)
def _monomial_parents(exponents: tuple) -> tuple:
    """Per column, None for the constant, else (parent column, i): the monomial
    is its parent, one degree less in its last feature i, times feature i."""
    column = {e: c for c, e in enumerate(exponents)}
    plan = []
    for e in exponents:
        if not any(e):
            plan.append(None)
            continue
        i = max(i for i, power in enumerate(e) if power)
        plan.append((column[e[:i] + (e[i] - 1,) + e[i + 1:]], i))
    return tuple(plan)


def _design_matrix(features: Array, exponents) -> Array:
    """Monomial columns, each an earlier column times one feature, written in place.

    A column of degree <= 2 is then one rounded product of two features (or
    a feature, or 1), so it equals the product of the features' powers exactly.
    The design is stored column-major, so each column is one contiguous write.
    """
    A = np.empty((features.shape[0], len(exponents)), order="F")
    for col, parent in enumerate(_monomial_parents(tuple(exponents))):
        if parent is None:
            A[:, col] = 1.0
        else:
            np.multiply(A[:, parent[0]], features[:, parent[1]], out=A[:, col])
    return A


# eigenvalues of the column-scaled Gram matrix below this share of its largest
# span no direction of the design; their directions are dropped
_RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class RegressionBackend:
    """Global polynomial least squares in the state features.

    ``degree`` is the total monomial degree; nothing is regularized, so
    constants (and sample means) are reproduced exactly. ``control_features``
    appends the current control to the regression features: with per-path
    controls the time-j information is (X_j, u_j), and dropping u makes the q
    estimate collapse to its X-conditional mean, which stalls
    control-in-diffusion problems.
    """

    degree: int = 2
    control_features: bool = True

    def __post_init__(self):
        if self.degree < 0:
            raise ConfigurationError("degree must be >= 0")

    def project(self, step: int, features: Array, targets: Array) -> Array:
        """In-sample conditional-expectation estimate: the projection A coef of the
        targets onto the column span of the monomial design A at the features.

        The design may be collinear (a control on {0, 1} equals its square, a
        constant state repeats the intercept); the projection is unique even
        when coef is not. One rank-revealing solve of the normal equations
        finds it: the Gram matrix AᵀA, scaled to a unit diagonal, is factored
        by ``eigh``, and directions whose eigenvalue falls below
        ``_RANK_CUTOFF`` of the largest are dropped.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        exponents = _monomial_exponents(features.shape[1], self.degree)
        if features.shape[0] < len(exponents):
            raise ConfigurationError(
                f"need at least as many samples ({features.shape[0]}) as basis "
                f"functions ({len(exponents)})")
        A = _design_matrix(features, exponents)
        gram = A.T @ A
        scale = np.sqrt(np.diag(gram))
        scale[scale == 0.0] = 1.0  # a zero column: its direction is dropped below
        gram /= scale
        gram /= scale[:, None]
        eigvals, eigvecs = np.linalg.eigh(gram)
        keep = eigvals > _RANK_CUTOFF * eigvals[-1]
        # coef = W Wᵀ Aᵀ targets with W = D⁻¹ V Λ^(-1/2) over the kept directions,
        # which broadcasts against (M,) and (M, R) targets alike
        W = eigvecs[:, keep] / (scale[:, None] * np.sqrt(eigvals[keep]))
        coef = W @ (W.T @ (A.T @ np.asarray(targets, dtype=float)))
        return A @ coef


@dataclass(frozen=True)
class ExactTreeBackend:
    """Exact conditional expectations on stacked binary-increment batches.

    Paths come in consecutive groups of 2^steps, each group enumerating every
    sign pattern of ``steps`` coin flips with the first step as the most
    significant bit; any multiple of 2^steps paths is accepted. Conditioning
    on the first j increments is then an average over contiguous blocks of
    size 2^(steps-j), which never straddle two groups.
    """

    steps: int

    def project(self, step: int, features: Array, targets: Array) -> Array:
        targets = np.asarray(targets, dtype=float)
        M = targets.shape[0]
        if M % 2 ** self.steps:
            raise ConfigurationError(
                f"tree backend expects a multiple of {2 ** self.steps} paths, got {M}")
        block = 2 ** (self.steps - step)
        grouped = targets.reshape(M // block, block, -1)
        means = np.einsum("gbr->gr", grouped) / block
        return np.repeat(means, block, axis=0).reshape(targets.shape)


@dataclass(frozen=True)
class BackwardPaths:
    """Solution of the cost BSDE: Y (M, N+1), Z (M, N, d), and J = mean Y_0.

    Y and Z are stored time-major, so each step slice is contiguous.
    """

    values: Array
    integrand: Array
    j_estimate: float
    j_stderr: float


def _step_features(x: Array, u: Array, backend) -> Array:
    """The regression features of one step: its states x, and its controls u where
    the backend asks for them."""
    if getattr(backend, "control_features", False):
        return np.concatenate([x, u], axis=1)
    return x


def cost_step(spec: ProblemSpec, t: float, x: Array, yhat: Array, z: Array, u: Array,
              dt: float) -> Array:
    """Y_j = yhat + f(t_j, X_j, yhat, Z_j, u_j) dt at the proxy yhat = E[Y_{j+1} | t_j]."""
    return yhat + spec.driver(t, x, yhat, z, u) * dt


def cost_estimate(y0: Array):
    """(J, stderr) of the pathwise Y_0 = Phi(X_T) + sum_j f dt: the regressed Y_0's mean
    (projections preserve means), but the true Monte Carlo spread, not the projected one."""
    se = float(np.std(y0, ddof=1) / np.sqrt(len(y0))) if len(y0) > 1 else float("nan")
    return float(np.mean(y0)), se


def pathwise_cost(spec: ProblemSpec, forward: ForwardPaths, control: ControlField,
                  backend, Y: Optional[Array] = None, Z: Optional[Array] = None) -> Array:
    """The pathwise Y_0 = Phi(X_T) + sum_j f dt of ``control``, ``cost_estimate``'s input.

    One ``solve_bsde`` sweep of ``cost_step`` that stores neither Y nor Z,
    unless given time-major Y (M, N+1) and Z (M, N, d) to fill.
    """
    batch = forward.batch
    M, N, dt = batch.n_paths, batch.grid.steps, batch.dt
    if control.index.shape != (M, N):
        raise ConfigurationError("control does not match the simulated batch")
    nodes, driver_sum = batch.grid.nodes, np.zeros(M)
    y_T = np.asarray(spec.terminal(forward.states[:, N, :]), dtype=float)
    if Y is not None:  # the sweep then carries views of Y, not second copies
        Y[:, N] = y_T
        y_T = Y[:, N]

    def step(j, u, yhats, zs):
        y = cost_step(spec, nodes[j], forward.states[:, j, :], yhats[0], zs[0], u, dt)
        driver_sum[...] += y - yhats[0]
        if Y is not None:
            Y[:, j], Z[:, j] = y, zs[0]
            y = Y[:, j]
        return [y]

    solve_bsde([y_T], step, forward, control, backend)
    return y_T + driver_sum


def solve_state_bsde(spec: ProblemSpec, forward: ForwardPaths, control: ControlField,
                     backend) -> BackwardPaths:
    """Backward Euler for the recursive cost: ``pathwise_cost``'s sweep, storing Y
    and Z_j = E[Y_{j+1} dW_j | t_j] / dt time-major; Y_0 is the pathwise one."""
    M, N, d = forward.batch.n_paths, forward.batch.grid.steps, forward.batch.d
    Y, Z = _time_major((M, N + 1)), _time_major((M, N, d))
    Y[:, 0] = pathwise_cost(spec, forward, control, backend, Y, Z)
    j_est, j_se = cost_estimate(Y[:, 0])
    return BackwardPaths(values=Y, integrand=Z, j_estimate=j_est, j_stderr=j_se)


def solve_bsde(terminals: Sequence[Array], step: Callable, forward: ForwardPaths,
               control: ControlField, backend) -> None:
    """Backward Euler for BSDEs dp = -F_t(p, q) dt + sum_i q^i dW^i, swept together.

    The package's one backward loop: its callers differ only in their
    ``terminals``, one (M, *shape) array per equation, and their ``step``. At
    each step every p_{j+1} and its products with dW_j are regressed on the
    time-j features (built once), one ``project`` per equation, giving
    phat = E[p_{j+1} | t_j] and q_j = E[p_{j+1} dW_j | t_j] / dt (M, *shape, d).
    ``step(j, u_j, phats, qs)`` applies each driver explicitly to its proxies
    (it may be nonlinear in them) and returns the list of p_j, the only arrays
    carried to the next step; a caller that needs horizons stores them. u_j is
    the control's step j, gathered once for the features and the step. Raises
    NumericalError naming the step and the first path where a p_j is not finite.
    """
    N = forward.batch.grid.steps
    nxt = [np.asarray(terminal, dtype=float) for terminal in terminals]
    for j in range(N - 1, -1, -1):
        u = control.at(j)
        nxt = step(j, u, *_proxies(nxt, j, forward, u, backend))
        for p in nxt:
            check_finite(p, j)


def check_finite(p: Array, j: int) -> None:
    """Raise NumericalError naming step j and the first path where p is not finite."""
    if not np.isfinite(p).all():
        bad = int(np.argmax(~np.isfinite(p.reshape(p.shape[0], -1)).all(axis=1)))
        raise NumericalError(f"step {j}: non-finite solution on path {bad}", path=bad, step=j)


def _proxies(nxt, j: int, forward: ForwardPaths, u: Array, backend):
    """(phats, qs) at step j, whose controls are u: each p_{j+1} and p_{j+1} dW_j
    regressed in one project."""
    batch = forward.batch
    M, d = batch.n_paths, batch.d
    features = _step_features(forward.states[:, j, :], u, backend) if nxt else None
    phats, qs = [], []
    for p in nxt:
        flat = p.reshape(M, -1)
        r = flat.shape[1]
        targets = np.concatenate(
            [flat, (flat[:, :, None] * batch.increments[:, j, None, :]).reshape(M, r * d)],
            axis=1)
        proj = backend.project(j, features, targets)
        del targets
        phats.append(proj[:, :r].reshape(p.shape))
        qs.append(np.divide(proj[:, r:].reshape(p.shape + (d,)), batch.dt))
    return phats, qs


def _solve_stored(terminal: Array, step: Callable, forward: ForwardPaths,
                  control: ControlField, backend):
    """One equation through ``solve_bsde``, ``step(j, u_j, phat, q_j)`` returning p_j.

    Returns p (M, N+1, *shape) and q (M, N, *shape, d), stored time-major.
    """
    batch = forward.batch
    M, N = batch.n_paths, batch.grid.steps
    terminal = np.asarray(terminal, dtype=float)
    shape = terminal.shape[1:]
    p = _time_major((M, N + 1) + shape)
    q = _time_major((M, N) + shape + (batch.d,))
    p[:, N] = terminal
    del terminal  # stored in p; no second copy is held through the sweep

    def store(j, u, phats, qs):
        q[:, j] = qs[0]
        p[:, j] = step(j, u, phats[0], q[:, j])
        return [p[:, j]]

    solve_bsde([p[:, N]], store, forward, control, backend)
    return p, q
