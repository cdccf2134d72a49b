"""Ready-made desk problems and an exact binomial-tree brute-force oracle.

Three problem families ship with closed-form derivative bundles and the
solver shortcuts they admit: the sine-driver demo (constant costate, vanishing
second order, explicit penalty weight), the quadratic-cost problem
(deterministic second-order adjoint from a matrix ODE, zero penalty weight),
and the linear recursive problem (deterministic costate ODE, zero penalty
weight). The tree oracle replaces Gaussian increments with +/-sqrt(dt) coin
flips, making the set of adapted policies finite and conditional expectations
exact, so the solver can be checked against a true optimum. It prices the
policies with the solver's own forward Euler and cost BSDE on the exact tree
backend, for any state dimension n with scalar noise (d = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .adjoint import lq_second_order_ode, ode_adjoint_linear
from .bsde import ExactTreeBackend, solve_state_bsde
from .errors import ConfigurationError, SimulationError
from .hamiltonian import _ROW_CHUNK, _ctl
from .model import (Bounds, Box, ControlDomain, FiniteSet, ProblemSpec, Structure,
                    enumerate_controls)
from .msa import RunHints
from .stochastics import (BrownianBatch, ControlField, TimeGrid, _time_major,
                          _time_major_take, simulate_forward)

Array = np.ndarray

_POLICY_BUDGET = 200_000


@dataclass(frozen=True)
class Benchmark:
    """A spec bundled with its domain, penalty weight, and solver shortcuts."""

    name: str
    spec: ProblemSpec
    domain: ControlDomain
    rho: float
    hints: RunHints
    jstar: Optional[float] = None
    notes: str = ""


def example41_rho(L: float) -> float:
    """Penalty weight 10 L^4 [1 + (1 + L^2)(1 + 8 L^2 e^{8 L^2})]."""
    return 10.0 * L ** 4 * (1.0 + (1.0 + L * L) * (1.0 + 8.0 * L * L * math.exp(8.0 * L * L)))


def example41(L: float) -> Benchmark:
    """Sine-driver demo: b = 0, sigma = u, f = sin(L z), Phi = L x, U = {0, 1}.

    The costate is identically L and the second-order equation vanishes, so
    the augmented Hamiltonian collapses to sin(Lz + L^2 (v - u)) plus
    (rho/2)(v - u)^2 with the problem's explicit rho. The costate equation has
    A_1 = 0, B_1 = f_z I and f_x = 0 with terminal L, so (p, q) = (L, 0) is its
    unique solution; it is attached as the costate hint, which makes
    ``run_msa`` skip the regression costate solve.
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

    B1 = lambda shape: (lambda t, x, *rest: np.zeros((len(x),) + shape))
    derivatives = dict(
        b_x=B1((1, 1)), sigma_x=B1((1, 1, 1)), b_xx=B1((1, 1, 1)),
        sigma_xx=B1((1, 1, 1, 1)),
        f_x=lambda t, x, y, z, u: np.zeros((len(x), 1)),
        f_y=lambda t, x, y, z, u: np.zeros(len(x)),
        f_z=f_z, f_hess=f_hess,
        phi_x=lambda x: np.full((len(x), 1), L),
        phi_xx=lambda x: np.zeros((len(x), 1, 1)),
    )
    spec = ProblemSpec.build(
        n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
        drift=drift, diffusion=diffusion, driver=driver, terminal=terminal,
        derivatives=derivatives,
        structure=Structure(b_x_zero=True, sigma_x_zero=True, b_xx_zero=True,
                            sigma_xx_zero=True, phi_xx_zero=True, f_x_zero=True,
                            second_order_zero=True),
        bounds=Bounds(b_x=0.0, sigma_x=0.0, phi_x=L, df=L, d2f=L * L))

    def h_simplified(spec_, t, x, y, z, p, q, P, v, u):
        B = x.shape[0]
        vv = _ctl(v, B, 1)
        uu = _ctl(u, B, 1)
        return np.sin(L * z[:, 0] + L * L * (vv[:, 0] - uu[:, 0]))

    def pen_simplified(spec_, t, x, y, z, p, q, v, u):
        B = x.shape[0]
        vv = _ctl(v, B, 1)
        uu = _ctl(u, B, 1)
        return (vv[:, 0] - uu[:, 0]) ** 2

    return Benchmark(
        name="example41", spec=spec,
        domain=FiniteSet(np.array([[0.0], [1.0]])),
        rho=example41_rho(L),
        hints=RunHints(hamiltonian=h_simplified, penalty=pen_simplified,
                       first_order_ode=lambda grid: np.full((grid.steps + 1, 1), L)),
        jstar=0.0,
        notes="optimal quadruple (X, Y, Z, u) = (0, 0, 0, 0)")


def _as_matrix_fn(value, shape):
    if callable(value):
        return value
    arr = np.broadcast_to(np.asarray(value, dtype=float), shape).copy()
    return lambda t: arr


def lq_problem(gamma_mat, a_mat, b_mat, b1, b2, sigma_fn: Callable,
               domain: ControlDomain, *, n: int, d: int, k: int,
               x0, horizon: float) -> Benchmark:
    """Quadratic cost (1/2)E[X'Gamma X + int(X'A X + u'B u)] with affine drift.

    Encoded as a recursive spec with f = (1/2)(x'A x + u'B u) and
    Phi = (1/2) x'Gamma x, so Y_0 is the quadratic cost. The second-order
    adjoint is deterministic, P' = -(b1'P + P'b1 + A), and the penalty weight
    is zero (the cost identity holds without the universal constant).

    Quadratic costs exceed the linear-growth assumptions; the adjoint bound
    guarantees do not apply, the cost identity does (see ``notes``).
    """
    gamma_arr = np.atleast_2d(np.asarray(gamma_mat, dtype=float))
    a_fn = _as_matrix_fn(a_mat, (n, n))
    bq_fn = _as_matrix_fn(b_mat, (k, k))
    for name, mat in (("Gamma", gamma_arr), ("A", a_fn(0.0)), ("B", bq_fn(0.0))):
        if not np.allclose(mat, mat.T, atol=0.0):
            raise ConfigurationError(f"{name} must be symmetric")
    b1_fn = _as_matrix_fn(b1, (n, n))
    b2_fn = _as_matrix_fn(b2, (n,))

    def drift(t, x, u):
        return np.einsum("ij,mj->mi", b1_fn(t), x) + b2_fn(t)

    def diffusion(t, x, u):
        return sigma_fn(t, u)

    def driver(t, x, y, z, u):
        return 0.5 * (np.einsum("mi,ij,mj->m", x, a_fn(t), x)
                      + np.einsum("mi,ij,mj->m", u, bq_fn(t), u))

    def terminal(x):
        return 0.5 * np.einsum("mi,ij,mj->m", x, gamma_arr, x)

    m = n + 1 + d

    def f_hess(t, x, y, z, u):
        out = np.zeros((len(x), m, m))
        out[:, :n, :n] = a_fn(t)
        return out

    derivatives = dict(
        b_x=lambda t, x, u: np.broadcast_to(b1_fn(t), (len(x), n, n)).copy(),
        sigma_x=lambda t, x, u: np.zeros((len(x), d, n, n)),
        b_xx=lambda t, x, u: np.zeros((len(x), n, n, n)),
        sigma_xx=lambda t, x, u: np.zeros((len(x), d, n, n, n)),
        f_x=lambda t, x, y, z, u: np.einsum("ij,mj->mi", a_fn(t), x),
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
        structure=Structure(sigma_x_zero=True, b_xx_zero=True,
                            sigma_xx_zero=True, f_z_zero=True))
    hints = RunHints(second_order_ode=lambda grid: lq_second_order_ode(
        gamma_arr, a_fn, b1_fn, grid))
    return Benchmark(
        name="lq", spec=spec, domain=domain, rho=0.0, hints=hints,
        notes="quadratic costs violate the linear-growth assumption; "
              "the exact cost-difference identity holds regardless")


def lq_desk() -> Benchmark:
    """Scalar instance Gamma = A = B = 1, dX = u dW, x0 = 0, U = {-1, 0, 1}."""
    bench = lq_problem(
        gamma_mat=[[1.0]], a_mat=[[1.0]], b_mat=[[1.0]], b1=[[0.0]], b2=[0.0],
        sigma_fn=lambda t, u: u[:, :, None].astype(float),
        domain=FiniteSet(np.array([[-1.0], [0.0], [1.0]])),
        n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0)
    return Benchmark(name="lq", spec=bench.spec, domain=bench.domain, rho=0.0,
                     hints=bench.hints, jstar=0.0, notes=bench.notes)


def linear_recursive_problem(b1, b2, b3, sigma1, sigma2, sigma3, f1, f2,
                             f3: Callable, alpha, gamma: float,
                             domain: Box, *, x0, horizon: float,
                             n: int = 1, d: int = 1, k: int = 1) -> Benchmark:
    """Linear recursive problem with terminal alpha'X_T + gamma.

    Costate degenerates to the ODE p' = -[(f2 + b1) p + f1] with q = 0, the
    second-order equation vanishes, and the penalty weight is zero. f3 must be
    convex and continuously differentiable in u on a convex compact domain,
    supplied here as a Box grid.
    """
    if not isinstance(domain, Box):
        raise ConfigurationError(
            "linear recursive problem requires a convex compact Box domain")
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    b1_fn = _as_matrix_fn(b1, (n, n))
    b2_fn = _as_matrix_fn(b2, (n, k))
    b3_fn = _as_matrix_fn(b3, (n,))
    s1_fn = _as_matrix_fn(sigma1, (d, n, n))
    s2_fn = _as_matrix_fn(sigma2, (d, n, k))
    s3_fn = _as_matrix_fn(sigma3, (d, n))
    f1_fn = _as_matrix_fn(f1, (n,))
    f2_fn = f2 if callable(f2) else (lambda t, v=float(f2): v)

    def drift(t, x, u):
        return (np.einsum("ij,mj->mi", b1_fn(t), x)
                + np.einsum("ij,mj->mi", b2_fn(t), u) + b3_fn(t))

    def diffusion(t, x, u):
        return (np.einsum("inj,mj->mni", s1_fn(t), x)
                + np.einsum("inj,mj->mni", s2_fn(t), u)
                + s3_fn(t).T[None, :, :])

    def driver(t, x, y, z, u):
        return np.einsum("i,mi->m", f1_fn(t), x) + f2_fn(t) * y + f3(t, u)

    def terminal(x):
        return np.einsum("i,mi->m", alpha, x) + gamma

    m = n + 1 + d
    derivatives = dict(
        b_x=lambda t, x, u: np.broadcast_to(b1_fn(t), (len(x), n, n)).copy(),
        sigma_x=lambda t, x, u: np.broadcast_to(s1_fn(t), (len(x), d, n, n)).copy(),
        b_xx=lambda t, x, u: np.zeros((len(x), n, n, n)),
        sigma_xx=lambda t, x, u: np.zeros((len(x), d, n, n, n)),
        f_x=lambda t, x, y, z, u: np.broadcast_to(f1_fn(t), (len(x), n)).copy(),
        f_y=lambda t, x, y, z, u: np.full(len(x), f2_fn(t)),
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
                            phi_xx_zero=True, f_hess_zero=True, f_z_zero=True))
    hints = RunHints(first_order_ode=lambda grid: ode_adjoint_linear(
        f1_fn, f2_fn, b1_fn, alpha, grid)[0])
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
    return Benchmark(name="linear-recursive", spec=bench.spec, domain=bench.domain,
                     rho=0.0, hints=bench.hints, jstar=0.0)


# ---------------------------------------------------------------------------
# binomial-tree oracle

@dataclass(frozen=True)
class TreeModel:
    """Outcome of a brute-force policy search on the coin-flip tree."""

    steps: int
    mode: str                 # "nonrecombining" | "recombining"
    node_count: int           # per the recording convention of the mode
    decision_nodes: int
    policy_count: int
    jstar: float
    policy: Array             # (decision_nodes, k), optimal control per node
    node_states: Array        # (decision_nodes, n), X at each node under the optimum


def tree_batch(steps: int, horizon: float = 1.0) -> BrownianBatch:
    """All sign patterns of +/- sqrt(dt) flips; step 0 is the most significant bit."""
    grid = TimeGrid(horizon, steps)
    M = 2 ** steps
    paths = np.arange(M)
    increments = _time_major((M, steps, 1))
    for j in range(steps):
        bit = (paths >> (steps - 1 - j)) & 1
        increments[:, j, 0] = np.where(bit == 0, 1.0, -1.0) * math.sqrt(grid.dt)
    return BrownianBatch(grid=grid, n_paths=M, d=1, seed=None, increments=increments)


def tree_backend(steps: int) -> ExactTreeBackend:
    return ExactTreeBackend(steps=steps)


def tree_random_control(domain: ControlDomain, steps: int, seed: int) -> ControlField:
    """Adapted random initial control for tree runs: one draw per decision node.

    Per-path i.i.d. draws are not adapted on the enumerated tree (paths
    sharing a history must share the control), so tree runs seed the solver
    with a node-indexed draw instead.
    """
    candidates = enumerate_controls(domain)
    batch = tree_batch(steps)
    signs = np.sign(batch.increments[:, :, 0])
    idx_map, n_decision = _node_index_map(steps, "nonrecombining", signs)
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(2 ** 33))
    node_choice = gen.integers(0, len(candidates), size=n_decision)
    return ControlField(_time_major_take(candidates, node_choice[idx_map]))


def _node_index_map(steps: int, mode: str, signs: Array) -> tuple:
    """Decision-node index per (path, step) plus the total node count."""
    M = signs.shape[0]
    idx = np.empty((M, steps), dtype=int)
    if mode == "nonrecombining":
        paths = np.arange(M)
        for j in range(steps):
            idx[:, j] = (2 ** j - 1) + (paths >> (steps - j))
        return idx, 2 ** steps - 1
    if mode == "recombining":
        ups = np.concatenate([np.zeros((M, 1)), np.cumsum(signs > 0, axis=1)], axis=1)
        for j in range(steps):
            idx[:, j] = j * (j + 1) // 2 + ups[:, j].astype(int)
        return idx, steps * (steps + 1) // 2
    raise ConfigurationError(f"unknown tree mode '{mode}'")


def tree_bruteforce(spec: ProblemSpec, domain: ControlDomain, steps: int,
                    mode: str = "nonrecombining",
                    max_policies: int = _POLICY_BUDGET) -> TreeModel:
    """Exact minimum of the tree-discretized cost over all adapted policies.

    Gaussian increments become +/- sqrt(dt) coin flips, one per step, so the
    noise must be scalar (d = 1); the state may have any dimension. Each
    chunk of policies (one control per decision node) is stacked along the
    path axis and priced by the solver's own ``simulate_forward`` and
    ``solve_state_bsde`` on the exact tree backend. A policy's value is the
    mean of Y_0 over its own block of 2^steps paths; ties go to the first
    enumerated policy. A policy that drives the Euler state non-finite raises
    SimulationError naming the policy, its node controls and the step.
    """
    if spec.d != 1:
        raise ConfigurationError("tree oracle flips one coin per step: d = 1 only")
    if steps > 6:
        raise ConfigurationError("tree oracle is desk-scale: steps <= 6")
    candidates = enumerate_controls(domain)
    nc = len(candidates)
    batch = tree_batch(steps, spec.horizon)
    signs = np.sign(batch.increments[:, :, 0])
    idx_map, n_decision = _node_index_map(steps, mode, signs)
    policy_count = nc ** n_decision
    if policy_count > max_policies:
        raise ConfigurationError(
            f"policy enumeration needs {policy_count} evaluations, "
            f"over the budget of {max_policies}")

    M = batch.n_paths
    chunk = max(1, _ROW_CHUNK // M)
    # the tree increments repeated once per policy of a chunk, time-major
    increments = np.tile(batch.increments.swapaxes(0, 1),
                         (1, min(chunk, policy_count), 1)).swapaxes(0, 1)
    backend = ExactTreeBackend(steps=steps)
    # policy id -> control index per node, the first node most significant
    place = nc ** np.arange(n_decision - 1, -1, -1)
    best_val, best_id = np.inf, 0
    for start in range(0, policy_count, chunk):
        ids = np.arange(start, min(start + chunk, policy_count))
        pol = (ids[:, None] // place) % nc                  # (P, n_decision)
        P = len(ids)
        stacked = BrownianBatch(grid=batch.grid, n_paths=P * M, d=1, seed=None,
                                increments=increments[:P * M])
        control = ControlField(_time_major_take(candidates,
                                                pol[:, idx_map].reshape(P * M, steps)))
        try:
            forward = simulate_forward(spec, control, stacked)
        except SimulationError as exc:
            row = exc.path // M
            raise SimulationError(
                f"policy {start + row} with node controls "
                f"{candidates[pol[row]].tolist()} drives the state non-finite "
                f"at step {exc.step}", path=exc.path % M, step=exc.step) from exc
        y0 = solve_state_bsde(spec, forward, control, backend).values[:, 0]
        vals = y0.reshape(P, M).mean(axis=1)
        arg = int(np.argmin(vals))
        if vals[arg] < best_val:
            best_val, best_id = float(vals[arg]), int(ids[arg])

    best_policy = (best_id // place) % nc
    # states at each decision node under the optimal policy
    best = ControlField(_time_major_take(candidates, best_policy[idx_map]))
    states = simulate_forward(spec, best, batch).states
    node_states = np.zeros((n_decision, spec.n))
    for j in range(steps):
        node_states[idx_map[:, j]] = states[:, j]
    node_count = (steps * (steps + 1) // 2 + 1 if mode == "recombining"
                  else 2 ** steps - 1)
    return TreeModel(steps=steps, mode=mode, node_count=node_count,
                     decision_nodes=n_decision, policy_count=policy_count,
                     jstar=best_val, policy=candidates[best_policy],
                     node_states=node_states)
