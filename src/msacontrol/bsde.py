"""Backward solvers on a pluggable conditional-expectation backend.

One backward sweep (``solve_bsde``) serves the cost BSDE, the adjoints and
the update sweep of ``run_msa``, which steps several equations at once: at
each step, Z (resp. q) comes from regressing next-step values against the
Brownian increment on that step's features, and the driver, which may be
nonlinear, is applied explicitly to the regression proxy. The regression's
design matrix is built one column at a time, each monomial one product of
an earlier column and a feature.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

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
    """
    A = np.empty((features.shape[0], len(exponents)))
    for col, parent in enumerate(_monomial_parents(tuple(exponents))):
        if parent is None:
            A[:, col] = 1.0
        else:
            np.multiply(A[:, parent[0]], features[:, parent[1]], out=A[:, col])
    return A


@dataclass(frozen=True)
class RegressionBackend:
    """Global polynomial least squares in the state features.

    ``degree`` is the total monomial degree; ``ridge`` regularizes every
    coefficient except the intercept, so constants (and sample means) are
    reproduced exactly. ``control_features`` appends the current control to
    the regression features: with per-path controls the time-j information
    is (X_j, u_j), and dropping u makes the q estimate collapse to its
    X-conditional mean, which stalls control-in-diffusion problems.
    """

    degree: int = 2
    ridge: float = 1e-8
    control_features: bool = True

    def __post_init__(self):
        if self.degree < 0:
            raise ConfigurationError("degree must be >= 0")
        if self.ridge < 0:
            raise ConfigurationError("ridge must be >= 0")

    def _design(self, features: Array):
        """(design matrix, exponents) of the monomial basis at the features."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        exponents = _monomial_exponents(features.shape[1], self.degree)
        if features.shape[0] < len(exponents):
            raise ConfigurationError(
                f"need at least as many samples ({features.shape[0]}) as basis "
                f"functions ({len(exponents)})")
        return _design_matrix(features, exponents), exponents

    def _solve(self, A: Array, targets: Array) -> Array:
        """Coefficients of the (ridge) normal equations of design A."""
        gram = A.T @ A
        if self.ridge > 0:
            idx = np.arange(1, A.shape[1])
            gram[idx, idx] += self.ridge
        rhs = A.T @ np.asarray(targets, dtype=float)
        try:
            coef = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "regression normal equations are rank-deficient; "
                "set ridge > 0") from exc
        if not np.all(np.isfinite(coef)):
            raise NumericalError(
                "regression produced non-finite coefficients; set ridge > 0")
        return coef

    def fit(self, features: Array, targets: Array):
        """Solve the (ridge) normal equations; returns (coef, exponents)."""
        A, exponents = self._design(features)
        return self._solve(A, targets), exponents

    def project(self, step: int, features: Array, targets: Array) -> Array:
        """In-sample conditional-expectation estimate (fit + predict, one design)."""
        A, _ = self._design(features)
        return A @ self._solve(A, targets)


def condexp_fit(features: Array, targets: Array, backend: RegressionBackend) -> Callable:
    """Least-squares projection onto the backend's basis; returns a predictor."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    coef, exponents = backend.fit(features, targets)

    def predictor(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim <= 1
        xb = np.atleast_2d(x)
        vals = _design_matrix(xb, exponents) @ coef
        return vals[0] if single else vals

    return predictor


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


def _step_features(forward: ForwardPaths, control: ControlField, j: int,
                   backend) -> Array:
    X = forward.states[:, j, :]
    if getattr(backend, "control_features", False):
        return np.concatenate([X, control.values[:, j, :]], axis=1)
    return X


def solve_state_bsde(spec: ProblemSpec, forward: ForwardPaths, control: ControlField,
                     backend) -> BackwardPaths:
    """Backward Euler for the recursive cost, one ``solve_bsde`` sweep.

    Z_j = E[Y_{j+1} dW_j | t_j] / dt, then Y_j = E[Y_{j+1} | t_j] + f(...) dt
    with the driver's y argument set to the conditional-expectation proxy.
    """
    batch = forward.batch
    M, N, dt = batch.n_paths, batch.grid.steps, batch.dt
    if control.values.shape[:2] != (M, N):
        raise ConfigurationError("control does not match the simulated batch")
    nodes = batch.grid.nodes
    driver_sum = np.zeros(M)

    def step(j, yhat, zj):
        nonlocal driver_sum
        y = yhat + spec.driver(nodes[j], forward.states[:, j, :], yhat, zj,
                               control.values[:, j, :]) * dt
        driver_sum += y - yhat
        return y

    Y, Z = _solve_stored(spec.terminal(forward.states[:, N, :]), step, forward, control,
                         backend)
    # Every projection is mean-preserving, so mean(Y_0) equals the mean of the
    # pathwise accumulation Phi(X_T) + sum_j f dt. Store that accumulation as
    # Y_0: same J, but stddev(Y_0)/sqrt(M) then reflects the true Monte Carlo
    # error instead of the projection-collapsed spread.
    Y[:, 0] = Y[:, N] + driver_sum
    j_est = float(np.mean(Y[:, 0]))
    j_se = float(np.std(Y[:, 0], ddof=1) / np.sqrt(M)) if M > 1 else float("nan")
    return BackwardPaths(values=Y, integrand=Z, j_estimate=j_est, j_stderr=j_se)


def solve_bsde(terminals: Sequence[Array], step: Callable, forward: ForwardPaths,
               control: ControlField, backend) -> None:
    """Backward Euler for BSDEs dp = -F_t(p, q) dt + sum_i q^i dW^i, swept together.

    The package's one backward loop: its callers differ only in their
    ``terminals``, one (M, *shape) array per equation, and their ``step``. At
    each step every p_{j+1} and its products with dW_j are regressed on the
    time-j features (built once), one ``project`` per equation, giving
    phat = E[p_{j+1} | t_j] and q_j = E[p_{j+1} dW_j | t_j] / dt (M, *shape, d).
    ``step(j, phats, qs)`` applies each driver explicitly to its proxies (it
    may be nonlinear in them) and returns the list of p_j, the only arrays
    carried to the next step; a caller that needs horizons stores them. Raises
    NumericalError naming the step and the first path where a p_j is not finite.
    """
    M, N = forward.batch.n_paths, forward.batch.grid.steps
    nxt = [np.asarray(terminal, dtype=float) for terminal in terminals]
    for j in range(N - 1, -1, -1):
        nxt = step(j, *_proxies(nxt, j, forward, control, backend))
        for p in nxt:
            if not np.isfinite(p).all():
                bad = int(np.argmax(~np.isfinite(p.reshape(M, -1)).all(axis=1)))
                raise NumericalError(f"step {j}: non-finite solution on path {bad}",
                                     path=bad, step=j)


def _proxies(nxt, j: int, forward: ForwardPaths, control: ControlField, backend):
    """(phats, qs) at step j: each p_{j+1} and p_{j+1} dW_j regressed in one project."""
    batch = forward.batch
    M, d = batch.n_paths, batch.d
    features = _step_features(forward, control, j, backend) if nxt else None
    phats, qs = [], []
    for p in nxt:
        flat = p.reshape(M, -1)
        r = flat.shape[1]
        targets = np.concatenate(
            [flat, (flat[:, :, None] * batch.increments[:, j, None, :]).reshape(M, r * d)],
            axis=1)
        try:
            proj = backend.project(j, features, targets)
        except NumericalError as exc:
            raise NumericalError(f"conditional expectation failed at step {j}: {exc}",
                                 step=j) from exc
        del targets
        phats.append(proj[:, :r].reshape(p.shape))
        qs.append(np.divide(proj[:, r:].reshape(p.shape + (d,)), batch.dt))
    return phats, qs


def _solve_stored(terminal: Array, step: Callable, forward: ForwardPaths,
                  control: ControlField, backend):
    """One equation through ``solve_bsde``, ``step(j, phat, q_j)`` returning p_j.

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

    def store(j, phats, qs):
        q[:, j] = qs[0]
        p[:, j] = step(j, phats[0], q[:, j])
        return [p[:, j]]

    solve_bsde([p[:, N]], store, forward, control, backend)
    return p, q
