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

from .bsde import (BackwardPaths, RegressionBackend, _step_features, solve_bsde,
                   solve_state_bsde)
from .errors import check_array
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

    def __init__(self, spec: ProblemSpec, t: float, x: Array, y: Array, z: Array, u: Array):
        self.dv, self.structure = spec.derivatives, spec.structure
        self.t, self.x, self.y, self.z, self.u = t, x, y, z, u

    def __getattr__(self, name: str) -> Array:
        if name not in ("f_z", "f_y", "f_x", "sigma_x", "b_x"):
            raise AttributeError(name)
        value = self.dv.at(name, self.t, self.x, self.y, self.z, self.u)
        setattr(self, name, value)
        return value


def _stored_point(spec: ProblemSpec, forward: ForwardPaths, backward: BackwardPaths,
                  j: int) -> StepPoint:
    """The StepPoint of step j read off stored horizons, its controls ``forward.control``'s."""
    return StepPoint(spec, forward.batch.grid.nodes[j], forward.state(j),
                     backward.values[:, j], backward.integrand[:, j], forward.control.at(j))


def _upsilon_batch(sx: Array, p: Array, q: Array) -> Array:
    """Column i = (sigma_x^i)' p + q^i: sx (M, d, n, n), p (M, n), q (M, n, d) -> (M, n, d)."""
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
                        backward: BackwardPaths, backend) -> FirstOrderAdjoint:
    """Solve the costate equation of ``forward.control`` with terminal Phi_x(X_T).

    Drift form: A_1 = sum_i f_{z_i} sigma_x^i + f_y I + b_x,
    B_1^i = f_{z_i} I + sigma_x^i, inhomogeneity f_x.
    """
    batch = forward.batch
    M, N, n = batch.n_paths, batch.grid.steps, spec.n
    p, q = _time_major((M, N + 1, n)), _time_major((M, N, n, batch.d))

    def step(j, u, phats, qs):
        return [first_order_step(_stored_point(spec, forward, backward, j), phats[0],
                                 qs[0], batch.dt)]

    solve_bsde([spec.derivatives.phi_x(forward.state(N))], step, forward, backend,
               [(p, q)])
    return FirstOrderAdjoint(p=p, q=q)


# ---------------------------------------------------------------------------
# second order

def second_order_vanishes(spec: ProblemSpec) -> bool:
    """Whether P = 0 identically, so the matrix solve can be skipped.

    True when the terminal curvature, both coefficient Hessians, and the
    driver Hessian are all declared zero: the equation is then linear
    homogeneous with zero terminal.
    """
    s = spec.structure
    return s.phi_xx_zero and s.b_xx_zero and s.sigma_xx_zero and s.f_hess_zero


def psi_matrix(point: StepPoint, p: Array, q: Array) -> Array:
    """Inhomogeneity of the second-order equation, shape (M, n, n).

    Psi = (I, p, Upsilon) D2f (I, p, Upsilon)'
        + sum_j (b_xx)^j p^j
        + sum_{i,j} (sigma_xx^i)^j (f_{z_i} p^j + q^{ji}),
    the quadratic form by batched ``@``, each Hessian term by one contraction
    over its flattened leading axes. A Hessian declared zero
    (``Structure.b_xx_zero``, ``sigma_xx_zero``) is neither evaluated nor added.
    Each Hessian is freed after its one read: D2f before the second product of
    the quadratic form, b_xx before sigma_xx is evaluated.
    """
    dv, t, x, u = point.dv, point.t, point.x, point.u
    M, n = p.shape
    hess = dv.f_hess(t, x, point.y, point.z, u)     # (M, m, m), m = n + 1 + d
    eye = np.broadcast_to(np.eye(n), (M, n, n))
    mmat = np.concatenate([eye, p[:, :, None], _upsilon_batch(point.sigma_x, p, q)],
                          axis=2)                   # (M, n, m)
    psi = mmat @ hess
    del hess
    psi = psi @ mmat.transpose(0, 2, 1)
    del mmat
    if not point.structure.b_xx_zero:
        bxx = dv.b_xx(t, x, u)                      # (M, n, n, n)
        psi += np.einsum("mj,mjr->mr", p, bxx.reshape(M, n, n * n)).reshape(M, n, n)
        del bxx
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

    Each noise term is summed left to right in one (M, n, n) buffer, with one
    more for the products, and added to the drift; P is formed in the drift's
    buffer and sym(P) in the one that took P - P'. The sums round as the
    formula above reads, so P_j is the same to the bit as the expression.
    """
    sx, fz = point.sigma_x, point.f_z
    s = point.b_x.transpose(0, 2, 1) @ phat
    drift = point.f_y[:, None, None] * phat + s + s.transpose(0, 2, 1)
    del s
    for i in range(sx.shape[1]):
        fzi = fz[:, i, None, None]
        sxt = sx[:, i].transpose(0, 2, 1)
        ti = sxt @ phat
        term = np.add(ti, ti.transpose(0, 2, 1))
        term *= fzi
        prod = ti @ sx[:, i]
        del ti
        term += prod
        term += np.multiply(fzi, Qj[..., i], out=prod)
        np.matmul(sxt, Qj[..., i], out=prod)  # R_i
        term += prod
        term += prod.transpose(0, 2, 1)
        drift += term
        del term, prod
    drift += psi_matrix(point, p, q)
    drift *= dt
    P = np.add(phat, drift, out=drift)
    Pt = P.transpose(0, 2, 1)
    out = np.subtract(P, Pt)
    asym = float(np.max(np.abs(out, out=out)))
    np.add(P, Pt, out=out)
    out *= 0.5
    return out, asym


def second_order_adjoint(spec: ProblemSpec, forward: ForwardPaths,
                         backward: BackwardPaths, first: FirstOrderAdjoint,
                         backend) -> SecondOrderAdjoint:
    """Solve the matrix-valued equation of ``forward.control``, reporting the worst
    max |P - P'|."""
    batch = forward.batch
    M, N, n = batch.n_paths, batch.grid.steps, spec.n
    P, Q = _time_major((M, N + 1, n, n)), _time_major((M, N, n, n, batch.d))
    asym = 0.0

    def step(j, u, phats, Qs):
        nonlocal asym
        point = _stored_point(spec, forward, backward, j)
        P_j, asym_j = second_order_step(point, phats[0], Qs[0], first.p[:, j, :],
                                        first.q[:, j], batch.dt)
        asym = max(asym, asym_j)
        return [P_j]

    solve_bsde([spec.derivatives.phi_xx(forward.state(N))], step, forward, backend,
               [(P, Q)])
    return SecondOrderAdjoint(P=P, Q=Q, asymmetry=asym)


def zero_second_order(spec: ProblemSpec, batch: BrownianBatch) -> SecondOrderAdjoint:
    M, N, n, d = batch.n_paths, batch.grid.steps, spec.n, spec.d
    return SecondOrderAdjoint(P=_time_major((M, N + 1, n, n), np.zeros),
                              Q=_time_major((M, N, n, n, d), np.zeros), asymmetry=0.0)


# ---------------------------------------------------------------------------
# deterministic fast paths (classic RK4 of constant-coefficient ODEs, backward)

def ode_adjoint_linear(f1, f2, b1, alpha, grid: TimeGrid) -> Array:
    """Deterministic costate of the linear recursive problem.

    Solves p' = -[(f2 I + b1') p + f1] backward from p_T = alpha with
    fourth-order Runge-Kutta on the grid nodes, for constant f1 (n,), f2 (a
    scalar) and b1 (n, n); returns p (N+1, n). Time-varying coefficients need
    a custom ``ProblemSpec.build`` with its own hints.

    The drift matrix is transposed: the costate couples through the
    transposed state Jacobian, which only shows once n > 1.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    n = alpha.shape[0]
    f1, b1 = check_array("f1", f1, (n,)), check_array("b1", b1, (n, n))
    a1t = float(check_array("f2", f2, ())) * np.eye(n) + b1.T  # A_1' with A_1 = f2 I + b1
    return _rk4_march(lambda p: -(a1t @ p + f1), alpha, grid)


def lq_second_order_ode(gamma_mat, a_mat, b1, grid: TimeGrid) -> Array:
    """Deterministic second-order adjoint of the quadratic-cost problem.

    P' = -(b1' P + P' b1 + A), P_T = Gamma, for constant A = ``a_mat`` and b1,
    both (n, n); returns (N+1, n, n).
    """
    gamma_mat = np.atleast_2d(np.asarray(gamma_mat, dtype=float))
    n = gamma_mat.shape[0]
    a, b1 = check_array("a_mat", a_mat, (n, n)), check_array("b1", b1, (n, n))
    return _rk4_march(lambda P: -(b1.T @ P + P.T @ b1 + a), gamma_mat, grid)


def _rk4_march(rhs, end, grid: TimeGrid) -> Array:
    """Classic RK4 of y' = rhs(y) backward from ``end`` at the last node, with step
    -dt; returns the state at every node, in time order."""
    h = -grid.dt
    y = np.empty((grid.steps + 1,) + np.shape(end))
    y[grid.steps] = end
    for j in range(grid.steps, 0, -1):
        yj = y[j]
        k1 = rhs(yj)
        k2 = rhs(yj + h / 2.0 * k1)
        k3 = rhs(yj + h / 2.0 * k2)
        k4 = rhs(yj + h * k3)
        y[j - 1] = yj + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


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
    backward = solve_state_bsde(spec, forward, backend)
    M, N, n = batch.n_paths, batch.grid.steps, spec.n
    dt = batch.dt
    G = np.broadcast_to(np.eye(n), (M, n, n)).copy()
    integral = np.zeros((M, n))
    for j in range(N):
        point = _stored_point(spec, forward, backward, j)
        a1, b1 = _coeffs_at(point)
        integral += np.einsum("mab,ma->mb", G, point.f_x) * dt
        dG = (np.einsum("mab,mbc->mac", a1, G) * dt
              + np.einsum("miab,mbc,mi->mac", b1, G, batch.increments[:, j, :]))
        G = G + dG
    samples = np.einsum("mab,ma->mb", G, spec.derivatives.phi_x(forward.state(N)))
    samples = samples + integral
    est = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(M) if M > 1 else np.full(n, np.nan)
    return est, se


def empirical_knorm(q: Array, forward: ForwardPaths, backend) -> float:
    """Heuristic conditional-second-moment norm of the martingale integrand.

    For each j, regress sum_{l>=j} |q_l|^2 dt on the time-j information, the
    features (X_j, u_j) every regression of the sweep conditions on
    (``_step_features``), and take the largest predicted value over paths;
    returns the max over j. Diagnostic only: a regression sup cannot certify
    an essential supremum.
    """
    sq = (np.asarray(q, dtype=float) ** 2).sum(axis=(2, 3)) * forward.batch.dt
    tails = np.cumsum(sq[:, ::-1], axis=1)[:, ::-1]
    return max([0.0] + [float(np.max(backend.project(
        j, _step_features(forward.state(j), forward.control.at(j)), tails[:, j])))
        for j in range(tails.shape[1])])
