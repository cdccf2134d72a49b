"""Successive-approximation driver: propagate, solve adjoints, minimize, repeat.

Each iteration m makes one backward sweep along the priced trajectory of
u^{m-1}: each step steps the adjoints, minimizes the augmented Hamiltonian
pointwise to get u^m_j and keeps f_z for the Girsanov-weighted decrease
diagnostic mu_m; no adjoint is stored over the horizon. It then re-simulates
under u^m to price the descent. One noise batch is shared across all
iterations (common random numbers), so descent comparisons are free of
inter-iteration Monte Carlo variance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

# first_order_adjoint, second_order_adjoint and zero_second_order are unused here:
# perfbench/tracing.py rebinds them by name on this module, like the entry points.
from .adjoint import (StepPoint, first_order_adjoint, first_order_step,  # noqa: F401
                      second_order_adjoint, second_order_step, second_order_vanishes,
                      zero_second_order)
from .bsde import RegressionBackend, solve_bsde, solve_state_bsde
from .errors import ConfigurationError, NumericalError
from .hamiltonian import minimize_step
from .model import ControlDomain, ProblemSpec, enumerate_controls
from .stochastics import (BrownianBatch, ControlField, TimeGrid, _time_major,
                          _time_major_copy, girsanov_weights, random_control,
                          sample_brownian, simulate_forward)

Array = np.ndarray


@dataclass(frozen=True)
class MsaConfig:
    """Run parameters; epsilon=None disables early stopping (fixed-length run)."""

    rho: float
    n_paths: int
    steps: int
    seed: int
    max_iters: int = 30
    epsilon: Optional[float] = None
    backend: RegressionBackend = field(default_factory=RegressionBackend)

    def __post_init__(self):
        if self.rho < 0:
            raise ConfigurationError("rho must be >= 0")
        if self.n_paths < 1 or self.steps < 1 or self.max_iters < 0:
            raise ConfigurationError("n_paths, steps >= 1 and max_iters >= 0 required")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ConfigurationError("epsilon must be positive (or None to disable)")


@dataclass(frozen=True)
class IterationRecord:
    """Bookkeeping for iteration m: J(u^{m-1}), mu_m, and the realized descent.

    ``wall_ms`` times the body of iteration m only; it excludes the initial
    forward simulation and cost BSDE that run_msa performs before the loop.
    """

    m: int
    j: float
    j_stderr: float
    mu: float
    mu_stderr: float
    descent: float
    wall_ms: float


@dataclass(frozen=True)
class RunHints:
    """Problem-specific shortcuts a benchmark may attach to a run.

    ``hamiltonian``/``penalty`` replace the general augmented-Hamiltonian pair
    in the update step (both or neither stay coherent with the recorded
    decrease). ``first_order_ode`` / ``second_order_ode`` supply deterministic
    adjoints on the grid nodes where the problem admits them; ``run_msa`` then
    reads their nodes instead of solving that equation (a costate hint implies q = 0).
    """

    hamiltonian: Optional[Callable] = None
    penalty: Optional[Callable] = None
    first_order_ode: Optional[Callable] = None   # grid -> (N+1, n)
    second_order_ode: Optional[Callable] = None  # grid -> (N+1, n, n)


@dataclass
class MsaResult:
    records: List[IterationRecord]
    returned_control: ControlField     # u^{m_eps - 1}, per the stopping rule
    last_control: ControlField         # the final minimizer u^m, for inspection
    stopped_early: bool
    m_eps: Optional[int]
    max_abs_p: List[float]
    max_abs_P: List[float]
    max_asym_P: List[float]            # worst pre-symmetrization |P - P'|

    @property
    def final_j(self) -> float:
        """Cost of the last minimizer (J of the returned control minus descent)."""
        return self.records[-1].j - self.records[-1].descent if self.records else float("nan")


def compute_mu(hhat: Array, fz_path: Array, batch: BrownianBatch) -> Tuple[float, float]:
    """Girsanov-weighted estimate of E^m[int H-hat dt] with its stderr.

    hhat[m, j] holds the pointwise Hamiltonian decrease on [t_j, t_{j+1});
    weights come from f_z along the same trajectory. The sum over steps runs
    on a C-order (path-major) copy of hhat, because its summation order
    follows the memory layout; mu is then the same whatever layout hhat has.
    """
    weights = girsanov_weights(fz_path, batch)
    samples = weights * np.ascontiguousarray(hhat).sum(axis=1) * batch.dt
    M = samples.shape[0]
    se = float(np.std(samples, ddof=1) / np.sqrt(M)) if M > 1 else float("nan")
    return float(np.mean(samples)), se


def _update_sweep(spec: ProblemSpec, forward, backward, u_prev: ControlField, p_ode, P_ode,
                  candidates: Array, rho: float, hints: RunHints, backend):
    """One backward pass along u^{m-1}'s priced trajectory: adjoints, update, f_z.

    p_ode / P_ode hold a given adjoint's nodes, or None where the sweep solves
    it. Returns (u^m, mu, its stderr, max |p|, max |P|, max pre-symmetrization
    |P - P'|), the maxima over every node.
    """
    batch = forward.batch
    M, N, n, d, dt = batch.n_paths, batch.grid.steps, spec.n, spec.d, batch.dt
    nodes, x_T = batch.grid.nodes, forward.states[:, N, :]
    terminals = ([] if p_ode is not None else [spec.derivatives.phi_x(x_T)]) + \
        ([] if P_ode is not None else [spec.derivatives.phi_xx(x_T)])
    # running maxima, started at the terminal node or taken over a hint's nodes
    max_p = float(np.max(np.abs(terminals[0] if p_ode is None else p_ode)))
    max_P = float(np.max(np.abs(terminals[-1] if P_ode is None else P_ode)))
    asym, update = 0.0, None
    # given nodes broadcast over the paths, time-major; a costate hint implies q = 0
    if p_ode is not None:
        p_given, q_given = np.broadcast_to(p_ode[:, None], (N + 1, M, n)), np.zeros((M, n, d))
    if P_ode is not None:
        P_given = np.broadcast_to(P_ode[:, None], (N + 1, M, n, n))
    u_new = _time_major(u_prev.values.shape, dtype=u_prev.values.dtype)
    hhat = _time_major((M, N))
    # C order, unlike the other horizon arrays: its only reader is the
    # path-major Girsanov reduction.
    fz = np.empty((M, N, d))

    def step(j, phats, qs):
        nonlocal max_p, max_P, asym, update
        point = StepPoint(spec, nodes[j], forward, backward, u_prev, j)
        solved = []
        if p_ode is None:
            p, q = first_order_step(point, phats[0], qs[0], dt), qs[0]
            max_p = max(max_p, float(np.abs(p).max()))
            solved.append(p)
        else:
            p, q = p_given[j], q_given
        if P_ode is None:
            P, asym_j = second_order_step(point, phats[-1], qs[-1], p, q, dt)
            max_P, asym = max(max_P, float(np.abs(P).max())), max(asym, asym_j)
            solved.append(P)
        else:
            P = P_given[j]
        try:
            # rebound only once the next update has returned, as in a plain loop:
            # freeing it first lets glibc trim the update's working set off the
            # heap and fault it back in at every step
            update = minimize_step(
                spec, point.t, point.x, point.y, point.z, p, q, P, point.u, candidates,
                rho, h_fn=hints.hamiltonian, pen_fn=hints.penalty, node=point)
        except NumericalError as exc:
            exc.args = (f"step {j}: {exc}",) + exc.args[1:]
            exc.step = j
            raise
        u_new[:, j, :], h_new, h_prev, _ = update
        hhat[:, j] = h_new - h_prev
        fz[:, j, :] = point.f_z
        return solved

    solve_bsde(terminals, step, forward, u_prev, backend)
    mu, mu_se = compute_mu(hhat, fz, batch)
    return ControlField(u_new), mu, mu_se, max_p, max_P, asym


def run_msa(spec: ProblemSpec, domain: ControlDomain, config: MsaConfig,
            initial: Union[ControlField, str] = "random", *,
            hints: Optional[RunHints] = None,
            batch: Optional[BrownianBatch] = None,
            backend=None) -> MsaResult:
    """Run the modified successive-approximation loop.

    Prices the initial control; then per iteration, one backward sweep along
    the current trajectory steps the adjoints, minimizes the augmented
    Hamiltonian pointwise and records mu, and a forward simulation and cost
    BSDE re-price the new control. Stops once the descent J(u^{m-1}) - J(u^m)
    falls below epsilon, returning u^{m-1}; the last minimizer stays available.
    """
    hints = hints or RunHints()
    grid = TimeGrid(spec.horizon, config.steps)
    if batch is None:
        batch = sample_brownian(grid, config.n_paths, spec.d, config.seed)
    backend = backend or config.backend
    candidates = enumerate_controls(domain)
    M, N = batch.n_paths, batch.grid.steps

    if isinstance(initial, str):
        if initial != "random":
            raise ConfigurationError(f"unknown initial control '{initial}'")
        u_prev = random_control(domain, M, N, config.seed)
    else:
        if initial.values.shape != (M, N, spec.k):
            raise ConfigurationError("initial control shape does not match the run")
        u_prev = ControlField(_time_major_copy(initial.values))

    # which source feeds p and P, decided once: a hint's nodes, P's structural
    # zero as zero nodes, or None for a solve in every iteration's sweep
    p_ode = hints.first_order_ode(grid) if hints.first_order_ode else None
    P_ode = hints.second_order_ode(grid) if hints.second_order_ode else None
    if P_ode is None and second_order_vanishes(spec):
        P_ode = np.zeros((N + 1, spec.n, spec.n))

    try:
        forward = simulate_forward(spec, u_prev, batch)
        backward = solve_state_bsde(spec, forward, u_prev, backend)
    except Exception as exc:
        exc.args = (f"iteration 1 (initial propagation): {exc}",) + exc.args[1:]
        raise
    j_prev, se_prev = backward.j_estimate, backward.j_stderr

    records: List[IterationRecord] = []
    max_abs_p: List[float] = []
    max_abs_P: List[float] = []
    max_asym_P: List[float] = []

    for m in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        try:
            u_new, mu, mu_se, max_p, max_P, asym = _update_sweep(
                spec, forward, backward, u_prev, p_ode, P_ode, candidates, config.rho,
                hints, backend)
            forward_new = simulate_forward(spec, u_new, batch)
            backward_new = solve_state_bsde(spec, forward_new, u_new, backend)
        except Exception as exc:
            exc.args = (f"iteration {m}: {exc}",) + exc.args[1:]
            raise
        j_new, se_new = backward_new.j_estimate, backward_new.j_stderr
        descent = j_prev - j_new
        wall_ms = (time.perf_counter() - t0) * 1e3
        records.append(IterationRecord(m=m, j=j_prev, j_stderr=se_prev, mu=mu,
                                       mu_stderr=mu_se, descent=descent,
                                       wall_ms=wall_ms))
        max_abs_p.append(max_p)
        max_abs_P.append(max_P)
        max_asym_P.append(asym)

        if config.epsilon is not None and descent < config.epsilon:
            return MsaResult(records=records, returned_control=u_prev,
                             last_control=u_new, stopped_early=True, m_eps=m,
                             max_abs_p=max_abs_p, max_abs_P=max_abs_P,
                             max_asym_P=max_asym_P)

        u_before = u_prev
        u_prev, forward, backward = u_new, forward_new, backward_new
        j_prev, se_prev = j_new, se_new

    # max_iters exhausted without hitting the threshold: the control priced by
    # the last record is returned, the final minimizer stays inspectable.
    returned = u_before if records else u_prev
    return MsaResult(records=records, returned_control=returned,
                     last_control=u_prev, stopped_early=False, m_eps=None,
                     max_abs_p=max_abs_p, max_abs_P=max_abs_P,
                     max_asym_P=max_asym_P)


@dataclass(frozen=True)
class GapReport:
    """Near-optimality summary after an epsilon-stopped run."""

    m_eps: Optional[int]
    epsilon: float
    bound_scale: float            # exp(|f_y| * T), the computable bound factor
    gap: Optional[float] = None   # J(u^{m_eps - 1}) - J*, when J* is known
    ratio: Optional[float] = None  # gap / sqrt(epsilon)
    descent_violated: bool = False


def near_optimality_gap(records: List[IterationRecord], epsilon: float,
                        f_y_bound: float, horizon: float,
                        jstar: Optional[float] = None) -> GapReport:
    """Report the stopping iteration and, with an oracle J*, the scaled gap.

    The theoretical constant in front of sqrt(epsilon) is not computable; only
    m_eps, the gap, and the gap/sqrt(epsilon) ratio are reported. Runs whose J
    sequence rises beyond combined noise get flagged.
    """
    m_eps = None
    for rec in records:
        if rec.descent < epsilon:
            m_eps = rec.m
            break
    violated = False
    for i, rec in enumerate(records):
        se_next = records[i + 1].j_stderr if i + 1 < len(records) else rec.j_stderr
        if rec.descent < -3.0 * (rec.j_stderr + se_next) - 1e-15:
            violated = True
    gap = None
    ratio = None
    if jstar is not None and m_eps is not None:
        gap = records[m_eps - 1].j - jstar
        ratio = gap / np.sqrt(epsilon)
    return GapReport(m_eps=m_eps, epsilon=epsilon,
                     bound_scale=float(np.exp(f_y_bound * horizon)),
                     gap=gap, ratio=ratio, descent_violated=violated)
