"""Successive-approximation driver: propagate, solve adjoints, minimize, repeat.

Each iteration m simulates the state under u^{m-1}, solves the cost BSDE and
the adjoint equations along that trajectory, minimizes the augmented
Hamiltonian pointwise to get u^m, records the Girsanov-weighted decrease
diagnostic mu_m, then re-simulates under u^m to price the descent. One noise
batch is shared across all iterations (common random numbers), so descent
comparisons are free of inter-iteration Monte Carlo variance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .adjoint import (FirstOrderAdjoint, SecondOrderAdjoint, first_order_adjoint,
                      second_order_adjoint, second_order_vanishes, zero_second_order)
from .bsde import RegressionBackend, solve_state_bsde
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
    second_order: str = "auto"  # auto | skip | solve

    def __post_init__(self):
        if self.rho < 0:
            raise ConfigurationError("rho must be >= 0")
        if self.n_paths < 1 or self.steps < 1 or self.max_iters < 0:
            raise ConfigurationError("n_paths, steps >= 1 and max_iters >= 0 required")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ConfigurationError("epsilon must be positive (or None to disable)")
        if self.second_order not in ("auto", "skip", "solve"):
            raise ConfigurationError("second_order must be auto, skip, or solve")


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
    skips the corresponding regression solve (a costate hint implies q = 0).
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


def _fz_grid(spec: ProblemSpec, forward, backward, control) -> Array:
    # C order, unlike the other horizon arrays: its only reader is the
    # path-major Girsanov reduction.
    batch = forward.batch
    M, N, d = batch.n_paths, batch.grid.steps, spec.d
    nodes = batch.grid.nodes
    out = np.empty((M, N, d))
    for j in range(N):
        out[:, j, :] = spec.derivatives.f_z(
            nodes[j], forward.states[:, j, :], backward.values[:, j],
            backward.integrand[:, j, :], control.values[:, j, :])
    return out


def _broadcast_nodes(values: Array, n_paths: int) -> Array:
    return np.broadcast_to(values, (n_paths,) + values.shape)


def run_msa(spec: ProblemSpec, domain: ControlDomain, config: MsaConfig,
            initial: Union[ControlField, str] = "random", *,
            hints: Optional[RunHints] = None,
            batch: Optional[BrownianBatch] = None,
            backend=None) -> MsaResult:
    """Run the modified successive-approximation loop.

    Per iteration: simulate forward under the current control, solve the cost
    BSDE (pricing J of the current control), solve or shortcut both adjoints,
    minimize the augmented Hamiltonian pointwise, record mu, and re-price the
    new control. Stops once the descent J(u^{m-1}) - J(u^m) falls below
    epsilon, returning u^{m-1}; the last minimizer stays available.
    """
    hints = hints or RunHints()
    grid = TimeGrid(spec.horizon, config.steps)
    if batch is None:
        batch = sample_brownian(grid, config.n_paths, spec.d, config.seed)
    backend = backend or config.backend
    candidates = enumerate_controls(domain)
    M, N = batch.n_paths, batch.grid.steps
    nodes = batch.grid.nodes

    if isinstance(initial, str):
        if initial != "random":
            raise ConfigurationError(f"unknown initial control '{initial}'")
        u_prev = random_control(domain, M, N, config.seed)
    else:
        if initial.values.shape != (M, N, spec.k):
            raise ConfigurationError("initial control shape does not match the run")
        u_prev = ControlField(_time_major_copy(initial.values))

    p_ode = hints.first_order_ode(grid) if hints.first_order_ode else None
    P_ode = hints.second_order_ode(grid) if hints.second_order_ode else None
    P_hinted = P_ode is not None and config.second_order == "auto"

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
            if p_ode is not None:
                first = FirstOrderAdjoint(p=_broadcast_nodes(p_ode, M),
                                          q=_time_major((M, N, spec.n, spec.d), np.zeros))
            else:
                first = first_order_adjoint(spec, forward, backward, u_prev, backend)

            if config.second_order == "skip":
                second = zero_second_order(spec, batch)
            elif config.second_order == "solve":
                second = second_order_adjoint(spec, forward, backward, u_prev, first, backend)
            elif P_hinted:
                second = SecondOrderAdjoint(
                    P=_broadcast_nodes(P_ode, M),
                    Q=_time_major((M, N, spec.n, spec.n, spec.d), np.zeros), asymmetry=0.0)
            elif second_order_vanishes(spec):
                second = zero_second_order(spec, batch)
            else:
                second = second_order_adjoint(spec, forward, backward, u_prev, first, backend)

            u_new_vals = _time_major(u_prev.values.shape, dtype=u_prev.values.dtype)
            hhat = _time_major((M, N))
            for j in range(N):
                try:
                    u_new_vals[:, j, :], h_new, h_prev, _ = minimize_step(
                        spec, nodes[j], forward.states[:, j, :], backward.values[:, j],
                        backward.integrand[:, j, :], first.p[:, j, :], first.q[:, j, :, :],
                        second.P[:, j, :, :], u_prev.values[:, j, :], candidates,
                        config.rho, h_fn=hints.hamiltonian, pen_fn=hints.penalty)
                except NumericalError as exc:
                    exc.args = (f"step {j}: {exc}",) + exc.args[1:]
                    raise
                hhat[:, j] = h_new - h_prev
            u_new = ControlField(u_new_vals)

            fz = _fz_grid(spec, forward, backward, u_prev)
            mu, mu_se = compute_mu(hhat, fz, batch)

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
        # a hint's own nodes: np.abs would materialize its broadcast over the paths
        max_abs_p.append(float(np.max(np.abs(first.p if p_ode is None else p_ode))))
        max_abs_P.append(float(np.max(np.abs(P_ode if P_hinted else second.P))))
        max_asym_P.append(second.asymmetry)

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
