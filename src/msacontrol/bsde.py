"""Backward solvers on a pluggable conditional-expectation backend.

One backward loop (``solve_bsde``) serves every equation: the cost BSDE alone
(``pathwise_cost``, which stores no horizon unless asked), the adjoints, and
the update sweep of ``run_msa``, which steps the cost BSDE and the adjoints
together. At each step, Z (resp. q) comes from regressing next-step values
against the Brownian increment on that step's features, and the driver,
which may be nonlinear, is applied explicitly to the regression proxy. All
of a step's equations share its information, so the sweep makes one
``project`` per step, not one per equation: it stacks every equation's
targets into one matrix and splits the fitted columns back.
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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, NumericalError, check_count
from .model import ProblemSpec
from .stochastics import ForwardPaths, _time_major

Array = np.ndarray


@functools.lru_cache(maxsize=None)
def _monomial_plan(n_features: int, degree: int) -> tuple:
    """Per design column, every monomial of total degree <= degree by degree, in
    ``combinations_with_replacement`` order: None for the constant, else
    (parent column, i), the monomial being its parent times its last feature i."""
    column, plan = {(): 0}, [None]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_features), deg):
            column[combo] = len(plan)
            plan.append((column[combo[:-1]], combo[-1]))
    return tuple(plan)


def _feature_blocks(features) -> tuple:
    """One (M, p) feature array, or a tuple of them read side by side, as 2-D blocks."""
    return tuple(np.atleast_2d(np.asarray(block, dtype=float))
                 for block in (features if isinstance(features, tuple) else (features,)))


def _design_matrix(features, plan: tuple) -> Array:
    """Monomial columns, each an earlier column times one feature, written in place
    as ``_monomial_plan`` lists them, the features' columns read in place.

    A column of degree <= 2 is then one rounded product of two features (or
    a feature, or 1), so it equals the product of the features' powers exactly.
    The design is stored column-major, so each column is one contiguous write.
    """
    columns = [column for block in _feature_blocks(features) for column in block.T]
    A = np.empty((len(columns[0]), len(plan)), order="F")
    for col, parent in enumerate(plan):
        if parent is None:
            A[:, col] = 1.0
        else:
            np.multiply(A[:, parent[0]], columns[parent[1]], out=A[:, col])
    return A


# eigenvalues of the column-scaled Gram matrix below this share of its largest
# span no direction of the design; their directions are dropped
_RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class RegressionBackend:
    """Global polynomial least squares in the state features.

    ``degree`` is the total monomial degree; nothing is regularized, so
    constants (and sample means) are reproduced exactly. The features are
    (X_j, u_j) (``_step_features``).
    """

    degree: int = 2

    def __post_init__(self):
        check_count("degree", self.degree, 0)

    def project(self, step: int, features, targets: Array, out: Optional[Array] = None) -> Array:
        """In-sample conditional-expectation estimate: the projection A coef of the
        targets onto the column span of the monomial design A at the features,
        built column by column from ``_monomial_plan``. Every caller, the sweep
        and ``empirical_knorm`` alike, passes a step's ``_step_features``, the
        blocks (X_j, u_j), read as one (M, p) array would be. A coef goes into
        ``out`` when given (the sweep passes its targets), else a new array.

        The design may be collinear (a control on {0, 1} equals its square, a
        constant state repeats the intercept); the projection is unique even
        when coef is not. One rank-revealing solve of the normal equations
        finds it: the Gram matrix AᵀA, scaled to a unit diagonal, is factored
        by ``eigh``, and directions whose eigenvalue falls below
        ``_RANK_CUTOFF`` of the largest are dropped.
        """
        blocks = _feature_blocks(features)
        plan = _monomial_plan(sum(block.shape[1] for block in blocks), self.degree)
        if blocks[0].shape[0] < len(plan):
            raise ConfigurationError(
                f"need at least as many samples ({blocks[0].shape[0]}) as basis "
                f"functions ({len(plan)})")
        A = _design_matrix(blocks, plan)
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
        return np.matmul(A, coef, out=out)


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

    def __post_init__(self):
        check_count("steps", self.steps, 1)

    def project(self, step: int, features, targets: Array, out: Optional[Array] = None) -> Array:
        """Block means of the targets, into a C-contiguous ``out`` when given; the
        features are not read."""
        if not 0 <= step < self.steps:
            raise ConfigurationError(
                f"tree backend of {self.steps} steps has no step {step}")
        targets = np.asarray(targets, dtype=float)
        M = targets.shape[0]
        if M % 2 ** self.steps:
            raise ConfigurationError(
                f"tree backend expects a multiple of {2 ** self.steps} paths, got {M}")
        block = 2 ** (self.steps - step)
        grouped = targets.reshape(M // block, block, -1)
        means = np.einsum("gbr->gr", grouped) / block
        out = np.empty(targets.shape) if out is None else out
        out.reshape(grouped.shape)[...] = means[:, None]
        return out


@dataclass(frozen=True)
class BackwardPaths:
    """Solution of the cost BSDE: Y (M, N+1), Z (M, N, d), and J = mean Y_0.

    Y and Z are stored time-major, so each step slice is contiguous.
    """

    values: Array
    integrand: Array
    j_estimate: float
    j_stderr: float


def _step_features(x: Array, u: Array) -> Tuple[Array, Array]:
    """The regression features of one step, the blocks (X_j, u_j), read in place:
    with per-path controls that is the time-j information, and without u the q
    estimate collapses to its X-conditional mean, which stalls control-in-diffusion
    problems."""
    return x, u


def cost_step(spec: ProblemSpec, t: float, x: Array, yhat: Array, z: Array, u: Array,
              dt: float) -> Array:
    """Y_j = yhat + f(t_j, X_j, yhat, Z_j, u_j) dt at the proxy yhat = E[Y_{j+1} | t_j]."""
    return yhat + spec.driver(t, x, yhat, z, u) * dt


def cost_estimate(samples: Array):
    """(mean, stderr) of per-path samples, the one rule that both J and mu
    (``compute_mu``) read. J's samples are the pathwise Y_0 = Phi(X_T) + sum_j f dt:
    the regressed Y_0's mean (projections preserve means), but the true Monte
    Carlo spread, not the projected one."""
    n = len(samples)
    se = float(np.std(samples, ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return float(np.mean(samples)), se


def pathwise_cost(spec: ProblemSpec, forward: ForwardPaths, backend,
                  store: Optional[Sequence[Tuple[Array, Array]]] = None) -> Array:
    """The pathwise Y_0 = Phi(X_T) + sum_j f dt of ``forward.control``, the control
    that drove the trajectory: ``cost_estimate``'s input.

    One ``solve_bsde`` sweep of ``cost_step`` that stores neither Y nor Z,
    unless given ``solve_bsde``'s ``store`` of time-major Y (M, N+1) and
    Z (M, N, d) to fill.
    """
    batch = forward.batch
    M, N, dt = batch.n_paths, batch.grid.steps, batch.dt
    nodes, driver_sum = batch.grid.nodes, np.zeros(M)

    def step(j, u, yhats, zs):
        y = cost_step(spec, nodes[j], forward.state(j), yhats[0], zs[0], u, dt)
        driver_sum[...] += y - yhats[0]
        return [y]

    y_T = np.asarray(spec.terminal(forward.state(N)), dtype=float)
    solve_bsde([y_T], step, forward, backend, store)
    return y_T + driver_sum


def solve_state_bsde(spec: ProblemSpec, forward: ForwardPaths, backend) -> BackwardPaths:
    """Backward Euler for the recursive cost: ``pathwise_cost``'s sweep, storing Y
    and Z_j = E[Y_{j+1} dW_j | t_j] / dt time-major; Y_0 is the pathwise one."""
    M, N, d = forward.batch.n_paths, forward.batch.grid.steps, forward.batch.d
    Y, Z = _time_major((M, N + 1)), _time_major((M, N, d))
    Y[:, 0] = pathwise_cost(spec, forward, backend, [(Y, Z)])
    return BackwardPaths(Y, Z, *cost_estimate(Y[:, 0]))


def solve_bsde(terminals: List[Array], step: Callable, forward: ForwardPaths, backend,
               store: Optional[Sequence[Tuple[Array, Array]]] = None) -> None:
    """Backward Euler for BSDEs dp = -F_t(p, q) dt + sum_i q^i dW^i, swept together.

    The package's one backward loop: its callers differ only in their
    ``terminals``, one (M, *shape) array per equation, and their ``step``. At
    each step every p_{j+1} and its products with dW_j are stacked and
    regressed on the time-j features in one ``project`` per step, giving
    phat = E[p_{j+1} | t_j] and q_j = E[p_{j+1} dW_j | t_j] / dt (M, *shape, d).
    ``step(j, u_j, phats, qs)`` applies each driver explicitly to its proxies
    (it may be nonlinear in them) and returns the list of p_j, the only arrays
    carried to the next step. u_j is step j of ``forward.control``, the control
    that drove the trajectory, gathered once for the features and the step.

    What a step holds: its phats and q_j, each a contiguous array of its own
    (``_proxies``), and what ``step`` makes. The carries p_{j+1} are dropped
    once they are stacked, before ``step`` runs, and the terminals with them:
    the sweep empties ``terminals``, so a terminal the caller keeps no name for
    is freed once the first step has stacked it.

    ``store``, when given, holds one time-major pair p (M, N+1, *shape),
    q (M, N, *shape, d) per equation: the sweep writes the terminal, each q_j
    before ``step`` reads it and each p_j into it, and carries views of the
    store, not second copies. Raises NumericalError naming the step and the
    first path where a p_j is not finite.
    """
    N = forward.batch.grid.steps
    nxt = ([np.asarray(terminal, dtype=float) for terminal in terminals] if store is None
           else _stored(store, N, terminals))
    terminals.clear()
    for j in range(N - 1, -1, -1):
        u = forward.control.at(j)
        phats, qs = _proxies(nxt, j, forward, u, backend, store)
        del nxt  # step j + 1's carries are stacked: not held while step j runs
        nxt = step(j, u, phats, qs)
        del phats, qs  # nor are its proxies while step j - 1 projects
        if store is not None:
            nxt = _stored(store, j, nxt)
        for p in nxt:
            check_finite(p, j)
        del p  # a carry too: the loop variable would hold the last one over step j - 1


def _stored(store, j: int, values) -> List[Array]:
    """Each equation's value written into its store at step j; returns the stored views."""
    for (p, _), value in zip(store, values):
        p[:, j] = value
    return [p[:, j] for p, _ in store]


def check_finite(p: Array, j: int) -> None:
    """Raise NumericalError naming step j and the first path where p is not finite."""
    if not np.isfinite(p).all():
        bad = int(np.argmax(~np.isfinite(p.reshape(p.shape[0], -1)).all(axis=1)))
        raise NumericalError(f"step {j}: non-finite solution on path {bad}", path=bad, step=j)


def _proxies(nxt, j: int, forward: ForwardPaths, u: Array, backend, store=None):
    """(phats, qs) at step j, whose controls are u: every p_{j+1} and p_{j+1} dW_j
    written into one (M, R (1 + d)) target matrix, R the equations' total width,
    and regressed in one project that writes the fitted values over it. With a
    store, each q_j is written into it.

    Each phat is a C-contiguous copy of its fitted columns and each q_j their
    quotient by dt, so no returned array is a view of the projection: it is
    freed when this returns, and each fitted value is held once.
    """
    batch = forward.batch
    M, d = batch.n_paths, batch.d
    widths = [p.size // M for p in nxt]
    R = sum(widths)
    targets = np.empty((M, R * (1 + d)))
    products = targets[:, R:].reshape(M, R, d)  # a view: column R + c d + i is p_c dW^i
    col = 0
    for p, r in zip(nxt, widths):
        carry = p.reshape(M, r)
        targets[:, col:col + r] = carry
        np.multiply(carry[:, :, None], batch.increments[:, j, None, :],
                    out=products[:, col:col + r])
        col += r
    backend.project(j, _step_features(forward.state(j), u), targets, out=targets)
    phats, qs, col = [], [], 0
    for e, (p, r) in enumerate(zip(nxt, widths)):
        phats.append(targets[:, col:col + r].reshape(p.shape).copy())
        out = None if store is None else store[e][1][:, j]
        qs.append(np.divide(products[:, col:col + r].reshape(p.shape + (d,)), batch.dt,
                            out=out))
        col += r
    return phats, qs
