"""Backward solvers on a pluggable conditional-expectation backend.

The cost BSDE and the generic linear BSDE share one scheme: at each
step, Z (resp. q) comes from regressing next-step values against the Brownian
increment, and the drift is applied explicitly to the regression proxy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

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


def solve_linear_bsde(terminal: Array, step: Callable, features: Array,
                      batch: BrownianBatch, backend):
    """Backward Euler for a linear BSDE dp = -F_t(p, q) dt + sum_i q^i dW^i.

    Shapes: terminal (M, *shape) of any trailing shape; features (M, N, F).
    At each step p_{j+1} is flattened into the regression targets; q_j comes
    from the increment regression and phat = E[p_{j+1} | t_j], reshaped to
    (M, *shape, d) and (M, *shape). ``step(j, phat, q_j)`` applies the drift
    explicitly to the proxy and returns p_j (explicit-in-q).

    Returns p (M, N+1, *shape) and q (M, N, *shape, d). Raises NumericalError
    naming the step and the first path where p_j is not finite.
    """
    M, N, d = batch.n_paths, batch.grid.steps, batch.d
    terminal = np.asarray(terminal, dtype=float)
    shape = terminal.shape[1:]
    r = int(np.prod(shape))
    dt = batch.dt
    p = np.empty((M, N + 1) + shape)
    q = np.empty((M, N) + shape + (d,))
    p[:, N] = terminal
    for j in range(N - 1, -1, -1):
        nxt = p[:, j + 1].reshape(M, r)
        incr_targets = nxt[:, :, None] * batch.increments[:, j, None, :]
        targets = np.concatenate([nxt, incr_targets.reshape(M, r * d)], axis=1)
        try:
            proj = backend.project(j, features[:, j, :], targets)
        except NumericalError as exc:
            raise NumericalError(f"conditional expectation failed at step {j}: {exc}") from exc
        phat = proj[:, :r].reshape((M,) + shape)
        qj = proj[:, r:].reshape((M,) + shape + (d,)) / dt
        q[:, j] = qj
        p[:, j] = step(j, phat, qj)
        bad = ~np.isfinite(p[:, j].reshape(M, r)).all(axis=1)
        if bad.any():
            raise NumericalError(
                f"step {j}: non-finite adjoint on path {int(np.argmax(bad))}")
    return p, q
