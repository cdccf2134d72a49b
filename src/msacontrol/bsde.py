"""Backward solvers on a pluggable conditional-expectation backend.

The cost BSDE and the generic linear vector BSDE share one scheme: at each
step, Z (resp. q) comes from regressing next-step values against the Brownian
increment, and the drift is applied explicitly to the regression proxy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NumericalError
from .model import ProblemSpec
from .stochastics import BrownianBatch, ControlField, ForwardPaths

Array = np.ndarray


def _monomial_exponents(n_features: int, degree: int):
    exps = []
    for deg in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_features), deg):
            e = [0] * n_features
            for i in combo:
                e[i] += 1
            exps.append(tuple(e))
    return exps


def _design_matrix(features: Array, exponents) -> Array:
    M = features.shape[0]
    A = np.empty((M, len(exponents)))
    for col, exp in enumerate(exponents):
        v = np.ones(M)
        for i, p in enumerate(exp):
            if p:
                v = v * features[:, i] ** p
        A[:, col] = v
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
    """Exact conditional expectations on a full binary-increment batch.

    Paths must enumerate every sign pattern of ``steps`` coin flips with the
    first step as the most significant bit; conditioning on the first j
    increments is then an average over contiguous blocks of size 2^(steps-j).
    """

    steps: int

    def project(self, step: int, features: Array, targets: Array) -> Array:
        targets = np.asarray(targets, dtype=float)
        M = targets.shape[0]
        if M != 2 ** self.steps:
            raise ConfigurationError(
                f"tree backend expects {2 ** self.steps} paths, got {M}")
        block = 2 ** (self.steps - step)
        tail = targets.shape[1:]
        grouped = targets.reshape((M // block, block) + tail)
        means = grouped.mean(axis=1, keepdims=True)
        return np.broadcast_to(means, grouped.shape).reshape(targets.shape).copy()


@dataclass(frozen=True)
class BackwardPaths:
    """Solution of the cost BSDE: Y (M, N+1), Z (M, N, d), and J = mean Y_0."""

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
                     backend, picard: int = 0) -> BackwardPaths:
    """Backward Euler for the recursive cost.

    Z_j = E[Y_{j+1} dW_j | t_j] / dt, then Y_j = E[Y_{j+1} | t_j] + f(...) dt
    with the driver's y argument set to the conditional-expectation proxy;
    ``picard`` extra passes re-evaluate f at the freshly computed Y_j.
    """
    batch = forward.batch
    M, N, dt = batch.n_paths, batch.grid.steps, batch.dt
    if control.values.shape[:2] != (M, N):
        raise ConfigurationError("control does not match the simulated batch")
    nodes = batch.grid.nodes
    Y = np.empty((M, N + 1))
    Z = np.empty((M, N, spec.d))
    Y[:, N] = spec.terminal(forward.states[:, N, :])
    driver_sum = np.zeros(M)
    for j in range(N - 1, -1, -1):
        feats = _step_features(forward, control, j, backend)
        targets = np.concatenate(
            [Y[:, j + 1][:, None], Y[:, j + 1][:, None] * batch.increments[:, j, :]],
            axis=1)
        try:
            proj = backend.project(j, feats, targets)
        except NumericalError as exc:
            raise NumericalError(f"conditional expectation failed at step {j}: {exc}") from exc
        yhat = proj[:, 0]
        Z[:, j, :] = proj[:, 1:] / dt
        xj = forward.states[:, j, :]
        uj = control.values[:, j, :]
        Y[:, j] = yhat + spec.driver(nodes[j], xj, yhat, Z[:, j, :], uj) * dt
        for _ in range(picard):
            Y[:, j] = yhat + spec.driver(nodes[j], xj, Y[:, j], Z[:, j, :], uj) * dt
        driver_sum += Y[:, j] - yhat
    # Every projection is mean-preserving, so mean(Y_0) equals the mean of the
    # pathwise accumulation Phi(X_T) + sum_j f dt. Store that accumulation as
    # Y_0: same J, but stddev(Y_0)/sqrt(M) then reflects the true Monte Carlo
    # error instead of the projection-collapsed spread.
    Y[:, 0] = Y[:, N] + driver_sum
    j_est = float(np.mean(Y[:, 0]))
    j_se = float(np.std(Y[:, 0], ddof=1) / np.sqrt(M)) if M > 1 else float("nan")
    return BackwardPaths(values=Y, integrand=Z, j_estimate=j_est, j_stderr=j_se)


def solve_linear_bsde(terminal: Array, drift_a: Array, drift_b: Array, drift_c: Array,
                      features: Array, batch: BrownianBatch, backend,
                      project: Optional[Callable] = None):
    """Backward Euler for dp = -[A'p + sum_i B_i' q^i + c] dt + sum_i q^i dW^i.

    Shapes: terminal (M, r); drift_a (M, N, r, r); drift_b (M, N, d, r, r);
    drift_c (M, N, r); features (M, N, F). q is computed first at each step
    from the increment regression, then the drift is applied to the proxy
    E[p_{j+1} | t_j] (explicit-in-q). ``project`` optionally maps each p_j
    in place (used for symmetry projection of matrix-valued solutions).

    Returns p (M, N+1, r) and q (M, N, r, d).
    """
    M, N, d = batch.n_paths, batch.grid.steps, batch.d
    terminal = np.asarray(terminal, dtype=float)
    r = terminal.shape[1]
    dt = batch.dt
    p = np.empty((M, N + 1, r))
    q = np.empty((M, N, r, d))
    p[:, N, :] = terminal
    for j in range(N - 1, -1, -1):
        nxt = p[:, j + 1, :]
        incr_targets = nxt[:, :, None] * batch.increments[:, j, None, :]
        targets = np.concatenate([nxt, incr_targets.reshape(M, r * d)], axis=1)
        try:
            proj = backend.project(j, features[:, j, :], targets)
        except NumericalError as exc:
            raise NumericalError(f"conditional expectation failed at step {j}: {exc}") from exc
        phat = proj[:, :r]
        qj = proj[:, r:].reshape(M, r, d) / dt
        q[:, j, :, :] = qj
        drift = (np.einsum("mij,mi->mj", drift_a[:, j], phat)
                 + np.einsum("mdij,mid->mj", drift_b[:, j], qj)
                 + drift_c[:, j])
        pj = phat + drift * dt
        if project is not None:
            pj = project(pj)
        p[:, j, :] = pj
    return p, q
