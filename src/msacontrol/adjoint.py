"""First- and second-order adjoint solvers along a simulated trajectory.

Both adjoints are linear backward equations swept by ``solve_bsde``. Their
steps, ``first_order_step`` and ``second_order_step``, read one step's node
(``StepPoint``), so no coefficient tensor spans the horizon. They serve the
drivers here, which store horizons for tests and cross-checks, and the sweep
of ``run_msa``, which stores none. The matrix-valued second-order equation is
stepped in its n x n form with batched BLAS products (``@``, which may fuse
multiply and add) and symmetrized step by step. ``first_order_step`` keeps
einsum, the fastest on the tree oracle's small batches.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .bsde import BackwardPaths, RegressionBackend, _solve_stored, solve_state_bsde
from .model import ProblemSpec
from .stochastics import (BrownianBatch, ControlField, ForwardPaths, TimeGrid, _time_major,
                          simulate_forward)

Array = np.ndarray


@dataclass(frozen=True)
class FirstOrderAdjoint:
    """Costate p and its integrand q, stored time-major."""

    p: Array  # (M, N+1, n)
    q: Array  # (M, N, n, d)


@dataclass(frozen=True)
class SecondOrderAdjoint:
    """Second-order adjoint P and its integrand Q, stored time-major."""

    P: Array  # (M, N+1, n, n), symmetric
    Q: Array  # (M, N, n, n, d)
    asymmetry: float  # max pre-symmetrization |P - P'| seen during the solve


class StepPoint:
    """The node (t_j, X_j, Y_j, Z_j, u_j) of one step, where each of f_z, f_y,
    f_x, sigma_x and b_x is evaluated on first use only, so its readers share it."""

    def __init__(self, spec: ProblemSpec, t: float, forward: ForwardPaths,
                 backward: BackwardPaths, control: ControlField, j: int):
        self.dv, self.structure, self.t = spec.derivatives, spec.structure, t
        self.x, self.u = forward.states[:, j, :], control.values[:, j, :]
        self.y, self.z = backward.values[:, j], backward.integrand[:, j, :]

    def __getattr__(self, name: str) -> Array:
        if name not in ("f_z", "f_y", "f_x", "sigma_x", "b_x"):
            raise AttributeError(name)
        yz = () if name in ("sigma_x", "b_x") else (self.y, self.z)
        value = getattr(self.dv, name)(self.t, self.x, *yz, self.u)
        setattr(self, name, value)
        return value


def upsilon(spec: ProblemSpec, t: float, x, p, q, u) -> Array:
    """Column i = (sigma_x^i)' p + q^i, shape (n, d)."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    u = np.asarray(u, dtype=float).reshape(1, -1)
    p = np.asarray(p, dtype=float).reshape(1, -1)
    q = np.asarray(q, dtype=float).reshape(1, spec.n, spec.d)
    sx = spec.derivatives.sigma_x(t, x, u)
    return _upsilon_batch(sx, p, q)[0]


def _upsilon_batch(sx: Array, p: Array, q: Array) -> Array:
    # sx (M, d, n, n), p (M, n), q (M, n, d) -> (M, n, d)
    return np.einsum("miab,ma->mbi", sx, p) + q


def _coeffs_at(point: StepPoint):
    """A_1, B_1 of the linearized first-order equation at one step's node."""
    fz, sx = point.f_z, point.sigma_x
    eye = np.eye(sx.shape[2])
    a1 = np.einsum("mi,miab->mab", fz, sx) + point.f_y[:, None, None] * eye + point.b_x
    b1 = fz[:, :, None, None] * eye + sx
    return a1, b1


def first_order_step(point: StepPoint, phat: Array, qj: Array, dt: float) -> Array:
    """p_j = phat + (A_1' phat + sum_i (B_1^i)' q^i + f_x) dt at the step's node."""
    a1, b1 = _coeffs_at(point)
    drift = (np.einsum("mij,mi->mj", a1, phat)
             + np.einsum("mdij,mid->mj", b1, qj)
             + point.f_x)
    return phat + drift * dt


def first_order_adjoint(spec: ProblemSpec, forward: ForwardPaths,
                        backward: BackwardPaths, control: ControlField,
                        backend) -> FirstOrderAdjoint:
    """Solve the costate equation with terminal Phi_x(X_T).

    Drift form: A_1 = sum_i f_{z_i} sigma_x^i + f_y I + b_x,
    B_1^i = f_{z_i} I + sigma_x^i, inhomogeneity f_x.
    """
    batch = forward.batch
    nodes = batch.grid.nodes

    def step(j, phat, qj):
        return first_order_step(StepPoint(spec, nodes[j], forward, backward, control, j),
                                phat, qj, batch.dt)

    p, q = _solve_stored(spec.derivatives.phi_x(forward.states[:, batch.grid.steps, :]),
                         step, forward, control, backend)
    return FirstOrderAdjoint(p=p, q=q)


# ---------------------------------------------------------------------------
# second order

def second_order_vanishes(spec: ProblemSpec) -> bool:
    """Whether P = 0 identically, so the matrix solve can be skipped.

    True when declared outright, or when the terminal curvature, both
    coefficient Hessians, and the driver Hessian all vanish: the equation is
    then linear homogeneous with zero terminal.
    """
    s = spec.structure
    if s.second_order_zero:
        return True
    return s.phi_xx_zero and s.b_xx_zero and s.sigma_xx_zero and s.f_hess_zero


def psi_matrix(point: StepPoint, p: Array, q: Array) -> Array:
    """Inhomogeneity of the second-order equation, shape (M, n, n).

    Psi = (I, p, Upsilon) D2f (I, p, Upsilon)'
        + sum_j (b_xx)^j p^j
        + sum_{i,j} (sigma_xx^i)^j (f_{z_i} p^j + q^{ji}),
    the quadratic form by batched ``@``, each Hessian term by one contraction
    over its flattened leading axes. A Hessian declared zero
    (``Structure.b_xx_zero``, ``sigma_xx_zero``) is neither evaluated nor added.
    """
    dv, t, x, u = point.dv, point.t, point.x, point.u
    M, n = p.shape
    hess = dv.f_hess(t, x, point.y, point.z, u)     # (M, m, m), m = n + 1 + d
    eye = np.broadcast_to(np.eye(n), (M, n, n))
    mmat = np.concatenate([eye, p[:, :, None], _upsilon_batch(point.sigma_x, p, q)],
                          axis=2)                   # (M, n, m)
    psi = mmat @ hess @ mmat.transpose(0, 2, 1)
    if not point.structure.b_xx_zero:
        bxx = dv.b_xx(t, x, u)                      # (M, n, n, n)
        psi += np.einsum("mj,mjr->mr", p, bxx.reshape(M, n, n * n)).reshape(M, n, n)
    if not point.structure.sigma_xx_zero:
        sxx = dv.sigma_xx(t, x, u)                  # (M, d, n, n, n)
        coef = point.f_z[:, :, None] * p[:, None, :] + q.transpose(0, 2, 1)  # fz_i p^j + q^{ji}
        dn = coef.shape[1] * n
        psi += np.einsum("mr,mrs->ms", coef.reshape(M, dn),
                         sxx.reshape(M, dn, n * n)).reshape(M, n, n)
    return psi


def second_order_step(point: StepPoint, phat: Array, Qj: Array, p: Array, q: Array,
                      dt: float):
    """(P_j, max |P - P'| before symmetrization) at the step's node.

    With S = b_x' Phat, T_i = sx_i' Phat and R_i = sx_i' Q^i,
    P_j = sym(Phat + [f_y Phat + S + S' + sum_i (f_{z_i}(T_i + T_i') + T_i sx_i
    + f_{z_i} Q^i + R_i + R_i') + Psi] dt), where sym(P) = (P + P')/2 and
    (p, q) is the first-order adjoint at the same step.
    """
    sx, fz = point.sigma_x, point.f_z
    s = point.b_x.transpose(0, 2, 1) @ phat
    drift = point.f_y[:, None, None] * phat + s + s.transpose(0, 2, 1)
    for i in range(sx.shape[1]):
        fzi = fz[:, i, None, None]
        sxt = sx[:, i].transpose(0, 2, 1)
        ti = sxt @ phat
        ri = sxt @ Qj[..., i]
        drift += (fzi * (ti + ti.transpose(0, 2, 1)) + ti @ sx[:, i]
                  + fzi * Qj[..., i] + ri + ri.transpose(0, 2, 1))
    drift += psi_matrix(point, p, q)
    P = phat + drift * dt
    Pt = P.transpose(0, 2, 1)
    return 0.5 * (P + Pt), float(np.max(np.abs(P - Pt)))


def second_order_adjoint(spec: ProblemSpec, forward: ForwardPaths,
                         backward: BackwardPaths, control: ControlField,
                         first: FirstOrderAdjoint, backend) -> SecondOrderAdjoint:
    """Solve the matrix-valued equation, reporting the worst max |P - P'|."""
    batch = forward.batch
    nodes = batch.grid.nodes
    asym = 0.0

    def step(j, phat, Qj):
        nonlocal asym
        point = StepPoint(spec, nodes[j], forward, backward, control, j)
        P, asym_j = second_order_step(point, phat, Qj, first.p[:, j, :], first.q[:, j],
                                      batch.dt)
        asym = max(asym, asym_j)
        return P

    P, Q = _solve_stored(spec.derivatives.phi_xx(forward.states[:, batch.grid.steps, :]),
                         step, forward, control, backend)
    return SecondOrderAdjoint(P=P, Q=Q, asymmetry=asym)


def zero_second_order(spec: ProblemSpec, batch: BrownianBatch) -> SecondOrderAdjoint:
    M, N, n, d = batch.n_paths, batch.grid.steps, spec.n, spec.d
    return SecondOrderAdjoint(P=_time_major((M, N + 1, n, n), np.zeros),
                              Q=_time_major((M, N, n, n, d), np.zeros), asymmetry=0.0)


# ---------------------------------------------------------------------------
# deterministic fast paths (classic RK4)

def _as_time_fn(value, shape):
    if callable(value):
        return value
    arr = np.broadcast_to(np.asarray(value, dtype=float), shape).copy()
    return lambda t: arr


def ode_adjoint_linear(f1, f2, b1, alpha, grid: TimeGrid):
    """Deterministic costate of the linear recursive problem.

    Solves p' = -[(f2 I + b1') p + f1] backward from p_T = alpha, and the
    scalar growth ODE Gamma' = f2 Gamma, Gamma_0 = 1, both with fourth-order
    Runge-Kutta on the grid nodes. Returns (p (N+1, n), Gamma (N+1,)).

    The drift matrix is transposed: the costate couples through the
    transposed state Jacobian, which only shows once n > 1.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    n = alpha.shape[0]
    f1 = _as_time_fn(f1, (n,))
    b1 = _as_time_fn(b1, (n, n))
    f2 = f2 if callable(f2) else (lambda t, v=float(f2): v)
    nodes = grid.nodes
    dt = grid.dt

    def rhs(t, p):
        return -((f2(t) * np.eye(n) + b1(t).T) @ p + f1(t))

    p = np.empty((grid.steps + 1, n))
    p[-1] = alpha
    for j in range(grid.steps, 0, -1):
        p[j - 1] = _rk4_step(rhs, nodes[j], p[j], -dt)
    gamma = np.empty(grid.steps + 1)
    gamma[0] = 1.0
    for j in range(grid.steps):
        gamma[j + 1] = _rk4_step(lambda t, g: f2(t) * g, nodes[j], gamma[j], dt)
    return p, gamma


def lq_second_order_ode(gamma_mat, a_fn, b1, grid: TimeGrid) -> Array:
    """Deterministic second-order adjoint of the quadratic-cost problem.

    P' = -(b1' P + P' b1 + A), P_T = Gamma; returns (N+1, n, n).
    """
    gamma_mat = np.atleast_2d(np.asarray(gamma_mat, dtype=float))
    n = gamma_mat.shape[0]
    a_fn = _as_time_fn(a_fn, (n, n))
    b1 = _as_time_fn(b1, (n, n))

    def rhs(t, P):
        return -(b1(t).T @ P + P.T @ b1(t) + a_fn(t))

    nodes, dt = grid.nodes, grid.dt
    P = np.empty((grid.steps + 1, n, n))
    P[-1] = gamma_mat
    for j in range(grid.steps, 0, -1):
        P[j - 1] = _rk4_step(rhs, nodes[j], P[j], -dt)
    return P


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2.0, y + h / 2.0 * k1)
    k3 = rhs(t + h / 2.0, y + h / 2.0 * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# cross-check oracles and diagnostics

def explicit_p0_oracle(spec: ProblemSpec, control: ControlField, batch: BrownianBatch,
                       backend=None):
    """Monte Carlo estimate of p_0 from the state-transition representation.

    p_0 = E[Gamma_T' Phi_x(X_T) + int_0^T Gamma_s' f_x ds], with Gamma the
    transition matrix of the linearized state, simulated by Euler alongside X.
    Returns (estimate (n,), stderr (n,)).
    """
    backend = backend or RegressionBackend()
    forward = simulate_forward(spec, control, batch)
    backward = solve_state_bsde(spec, forward, control, backend)
    M, N, n = batch.n_paths, batch.grid.steps, spec.n
    nodes, dt = batch.grid.nodes, batch.dt
    G = np.broadcast_to(np.eye(n), (M, n, n)).copy()
    integral = np.zeros((M, n))
    for j in range(N):
        point = StepPoint(spec, nodes[j], forward, backward, control, j)
        a1, b1 = _coeffs_at(point)
        integral += np.einsum("mab,ma->mb", G, point.f_x) * dt
        dG = (np.einsum("mab,mbc->mac", a1, G) * dt
              + np.einsum("miab,mbc,mi->mac", b1, G, batch.increments[:, j, :]))
        G = G + dG
    samples = np.einsum("mab,ma->mb", G, spec.derivatives.phi_x(forward.states[:, N, :]))
    samples = samples + integral
    est = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(M) if M > 1 else np.full(n, np.nan)
    return est, se


def empirical_knorm(q: Array, grid: TimeGrid, forward: ForwardPaths, backend) -> float:
    """Heuristic conditional-second-moment norm of the martingale integrand.

    For each j, regress sum_{l>=j} |q_l|^2 dt on X_{t_j} and take the largest
    predicted value over paths; returns the max over j. Diagnostic only: a
    regression sup cannot certify an essential supremum.
    """
    q = np.asarray(q, dtype=float)
    M, N = q.shape[0], q.shape[1]
    sq = (q ** 2).sum(axis=(2, 3)) * grid.dt
    tails = np.cumsum(sq[:, ::-1], axis=1)[:, ::-1]
    worst = 0.0
    for j in range(N):
        preds = backend.project(j, forward.states[:, j, :], tails[:, j])
        worst = max(worst, float(np.max(preds)))
    return worst
