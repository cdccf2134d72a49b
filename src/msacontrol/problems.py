"""Ready-made desk problems with closed-form derivative bundles and solver shortcuts.

Three problem families ship with the shortcuts they admit: the sine-driver demo
(constant costate, vanishing second order, explicit penalty weight), the
quadratic-cost problem (deterministic second-order adjoint from a matrix ODE,
zero penalty weight), and the linear recursive problem (deterministic costate
ODE, zero penalty weight). The tree oracle that checks the solver against their
exact optima is in ``benchmarks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .adjoint import lq_second_order_ode, ode_adjoint_linear
from .errors import ConfigurationError, check_array
from .model import Bounds, Box, ControlDomain, FiniteSet, ProblemSpec, Structure, constant_fn
from .msa import RunHints


@dataclass(frozen=True)
class Benchmark:
    """A spec bundled with its domain, penalty weight, and solver shortcuts."""

    name: str
    spec: ProblemSpec
    domain: ControlDomain
    rho: float
    hints: RunHints
    jstar: Optional[float] = None


def example41_rho(L: float) -> float:
    """Penalty weight 10 L^4 [1 + (1 + L^2)(1 + 8 L^2 e^{8 L^2})]."""
    return 10.0 * L ** 4 * (1.0 + (1.0 + L * L) * (1.0 + 8.0 * L * L * math.exp(8.0 * L * L)))


def example41(L: float) -> Benchmark:
    """Sine-driver demo: b = 0, sigma = u, f = sin(L z), Phi = L x, U = {0, 1}.

    The costate is identically L and the second-order equation vanishes, so
    the augmented Hamiltonian collapses to sin(Lz + L^2 (v - u)) plus
    (rho/2)(v - u)^2 with the problem's explicit rho. That penalty hint leaves
    out the general penalty's G_z-difference term,
    L^2 (cos(Lz + L^2 (v - u)) - cos(Lz))^2. The costate equation has
    A_1 = 0, B_1 = f_z I and f_x = 0 with terminal L, so (p, q) = (L, 0) is its
    unique solution; it is attached as the costate hint. With q = 0 and
    sigma_x = b_xx = sigma_xx = 0, the inhomogeneity Psi is
    f_xx + 2 p f_xy + p^2 f_yy = 0, so the second-order equation is linear
    homogeneous with terminal Phi_xx = 0 and P = 0; those zero nodes are the
    second-order hint. Each hint makes ``run_msa`` skip a regression solve; a
    run without them solves that equation.
    """
    if not (0.0 < L <= math.sqrt(math.pi)):
        raise ConfigurationError(f"L must lie in (0, sqrt(pi)], got {L}")

    def drift(t, x, u):
        return np.zeros_like(x)

    def diffusion(t, x, u):
        return u[:, :, None].astype(float)

    def driver(t, x, y, z, u):
        return np.sin(L * z[:, 0])

    def terminal(x):
        return L * x[:, 0]

    def f_z(t, x, y, z, u):
        return L * np.cos(L * z)

    def f_hess(t, x, y, z, u):
        out = np.zeros((len(x), 3, 3))
        out[:, 2, 2] = -L * L * np.sin(L * z[:, 0])
        return out

    zero = lambda *shape: constant_fn(np.zeros(shape))
    derivatives = dict(
        b_x=zero(1, 1), sigma_x=zero(1, 1, 1), b_xx=zero(1, 1, 1), sigma_xx=zero(1, 1, 1, 1),
        f_x=zero(1), f_y=zero(), f_z=f_z, f_hess=f_hess,
        phi_x=lambda x: np.full((len(x), 1), L),
        phi_xx=lambda x: np.zeros((len(x), 1, 1)),
    )
    spec = ProblemSpec.build(
        n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
        drift=drift, diffusion=diffusion, driver=driver, terminal=terminal,
        derivatives=derivatives,
        structure=Structure(b_xx_zero=True, sigma_xx_zero=True, phi_xx_zero=True),
        bounds=Bounds(df=L))

    def h_simplified(spec_, t, x, y, z, p, q, P, v, u):
        return np.sin(L * z[:, 0] + L * L * (v[:, 0] - u[:, 0]))

    def pen_simplified(spec_, t, x, y, z, p, q, v, u):
        return (v[:, 0] - u[:, 0]) ** 2

    return Benchmark(
        name="example41", spec=spec,
        domain=FiniteSet(np.array([[0.0], [1.0]])),
        rho=example41_rho(L),
        hints=RunHints(hamiltonian=h_simplified, penalty=pen_simplified,
                       first_order_ode=lambda grid: np.full((grid.steps + 1, 1), L),
                       second_order_ode=lambda grid: np.zeros((grid.steps + 1, 1, 1))),
        jstar=0.0)


def lq_problem(gamma_mat, a_mat, b_mat, b1, b2, sigma_fn: Callable,
               domain: ControlDomain, *, n: int, d: int, k: int,
               x0, horizon: float) -> Benchmark:
    """Quadratic cost (1/2)E[X'Gamma X + int(X'A X + u'B u)] with affine drift.

    Encoded as a recursive spec with f = (1/2)(x'A x + u'B u) and
    Phi = (1/2) x'Gamma x, so Y_0 is the quadratic cost. The second-order
    adjoint is deterministic, P' = -(b1'P + P'b1 + A), and the penalty weight
    is zero (the cost identity holds without the universal constant).

    Quadratic costs exceed the linear-growth assumptions; the adjoint bound
    guarantees do not apply, the cost identity does.

    Coefficients are constant arrays: Gamma, A, b1 (n, n), B (k, k), b2 (n,);
    Gamma, A and B must equal their transposes exactly (f_x is read as A x).
    """
    gamma_arr = check_array("gamma_mat", gamma_mat, (n, n))
    a_arr = check_array("a_mat", a_mat, (n, n))
    bq_arr = check_array("b_mat", b_mat, (k, k))
    for name, mat in (("Gamma", gamma_arr), ("A", a_arr), ("B", bq_arr)):
        if not np.array_equal(mat, mat.T):
            raise ConfigurationError(f"{name} must be symmetric")
    b1, b2 = check_array("b1", b1, (n, n)), check_array("b2", b2, (n,))

    def drift(t, x, u):
        return np.einsum("ij,mj->mi", b1, x) + b2

    def diffusion(t, x, u):
        return sigma_fn(t, u)

    def driver(t, x, y, z, u):
        return 0.5 * (np.einsum("mi,ij,mj->m", x, a_arr, x)
                      + np.einsum("mi,ij,mj->m", u, bq_arr, u))

    def terminal(x):
        return 0.5 * np.einsum("mi,ij,mj->m", x, gamma_arr, x)

    m = n + 1 + d

    def f_hess(t, x, y, z, u):
        out = np.zeros((len(x), m, m))
        out[:, :n, :n] = a_arr
        return out

    derivatives = dict(
        b_x=lambda t, x, u: np.broadcast_to(b1, (len(x), n, n)).copy(),
        sigma_x=lambda t, x, u: np.zeros((len(x), d, n, n)),
        b_xx=lambda t, x, u: np.zeros((len(x), n, n, n)),
        sigma_xx=lambda t, x, u: np.zeros((len(x), d, n, n, n)),
        f_x=lambda t, x, y, z, u: np.einsum("ij,mj->mi", a_arr, x),
        f_y=lambda t, x, y, z, u: np.zeros(len(x)),
        f_z=lambda t, x, y, z, u: np.zeros((len(x), d)),
        f_hess=f_hess,
        phi_x=lambda x: np.einsum("ij,mj->mi", gamma_arr, x),
        phi_xx=lambda x: np.broadcast_to(gamma_arr, (len(x), n, n)).copy(),
    )
    spec = ProblemSpec.build(
        n=n, d=d, k=k, x0=x0, horizon=horizon,
        drift=drift, diffusion=diffusion, driver=driver, terminal=terminal,
        derivatives=derivatives,
        structure=Structure(b_xx_zero=True, sigma_xx_zero=True),
        bounds=Bounds(df=0.0))  # f depends on neither y nor z
    hints = RunHints(second_order_ode=lambda grid: lq_second_order_ode(
        gamma_arr, a_arr, b1, grid))
    return Benchmark(
        name="lq", spec=spec, domain=domain, rho=0.0, hints=hints)


def lq_desk() -> Benchmark:
    """Scalar instance Gamma = A = B = 1, dX = u dW, x0 = 0, U = {-1, 0, 1}."""
    bench = lq_problem(
        gamma_mat=[[1.0]], a_mat=[[1.0]], b_mat=[[1.0]], b1=[[0.0]], b2=[0.0],
        sigma_fn=lambda t, u: u[:, :, None].astype(float),
        domain=FiniteSet(np.array([[-1.0], [0.0], [1.0]])),
        n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0)
    return replace(bench, jstar=0.0)


def linear_recursive_problem(b1, b2, b3, sigma1, sigma2, sigma3, f1, f2,
                             f3: Callable, alpha, gamma: float,
                             domain: Box, *, x0, horizon: float,
                             n: int = 1, d: int = 1, k: int = 1) -> Benchmark:
    """Linear recursive problem with terminal alpha'X_T + gamma.

    Costate degenerates to the ODE p' = -[(f2 I + b1') p + f1] with q = 0, the
    second-order equation vanishes, and the penalty weight is zero. f3 must be
    convex and continuously differentiable in u on a convex compact domain,
    supplied here as a Box grid.

    Coefficients are constant arrays: b1 (n, n), b2 (n, k), b3, f1, alpha (n,),
    sigma1 (d, n, n), sigma2 (d, n, k), sigma3 (d, n) and the scalar f2.
    """
    if not isinstance(domain, Box):
        raise ConfigurationError(
            "linear recursive problem requires a convex compact Box domain")
    alpha = check_array("alpha", alpha, (n,))
    b1, b2, b3 = (check_array("b1", b1, (n, n)), check_array("b2", b2, (n, k)),
                  check_array("b3", b3, (n,)))
    s1, s2, s3 = (check_array("sigma1", sigma1, (d, n, n)),
                  check_array("sigma2", sigma2, (d, n, k)), check_array("sigma3", sigma3, (d, n)))
    f1, f2 = check_array("f1", f1, (n,)), float(check_array("f2", f2, ()))

    def drift(t, x, u):
        return np.einsum("ij,mj->mi", b1, x) + np.einsum("ij,mj->mi", b2, u) + b3

    def diffusion(t, x, u):
        return (np.einsum("inj,mj->mni", s1, x) + np.einsum("inj,mj->mni", s2, u)
                + s3.T[None, :, :])

    def driver(t, x, y, z, u):
        return np.einsum("i,mi->m", f1, x) + f2 * y + f3(t, u)

    def terminal(x):
        return np.einsum("i,mi->m", alpha, x) + gamma

    m = n + 1 + d
    derivatives = dict(
        b_x=lambda t, x, u: np.broadcast_to(b1, (len(x), n, n)).copy(),
        sigma_x=lambda t, x, u: np.broadcast_to(s1, (len(x), d, n, n)).copy(),
        b_xx=lambda t, x, u: np.zeros((len(x), n, n, n)),
        sigma_xx=lambda t, x, u: np.zeros((len(x), d, n, n, n)),
        f_x=lambda t, x, y, z, u: np.broadcast_to(f1, (len(x), n)).copy(),
        f_y=lambda t, x, y, z, u: np.full(len(x), f2),
        f_z=lambda t, x, y, z, u: np.zeros((len(x), d)),
        f_hess=lambda t, x, y, z, u: np.zeros((len(x), m, m)),
        phi_x=lambda x: np.broadcast_to(alpha, (len(x), n)).copy(),
        phi_xx=lambda x: np.zeros((len(x), n, n)),
    )
    spec = ProblemSpec.build(
        n=n, d=d, k=k, x0=x0, horizon=horizon,
        drift=drift, diffusion=diffusion, driver=driver, terminal=terminal,
        derivatives=derivatives,
        structure=Structure(b_xx_zero=True, sigma_xx_zero=True,
                            phi_xx_zero=True, f_hess_zero=True))
    hints = RunHints(first_order_ode=lambda grid: ode_adjoint_linear(f1, f2, b1, alpha, grid))
    return Benchmark(name="linear-recursive", spec=spec, domain=domain,
                     rho=0.0, hints=hints)


def linrec_desk(beta: float = 0.5) -> Benchmark:
    """Recursive-utility toy: everything zero except f2 = beta, f3 = u^2."""
    bench = linear_recursive_problem(
        b1=[[0.0]], b2=[[0.0]], b3=[0.0], sigma1=np.zeros((1, 1, 1)),
        sigma2=np.zeros((1, 1, 1)), sigma3=np.zeros((1, 1)),
        f1=[0.0], f2=beta, f3=lambda t, u: u[:, 0] ** 2,
        alpha=[0.0], gamma=0.0,
        domain=Box(lower=[-1.0], upper=[1.0], resolution=[3]),
        x0=np.zeros(1), horizon=1.0)
    return replace(bench, jstar=0.0)
