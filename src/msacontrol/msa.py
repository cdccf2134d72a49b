"""Successive-approximation driver: propagate, sweep backward, repeat.

Each iteration m simulates forward under u^{m-1} and makes one backward
sweep along that trajectory: each step steps the cost BSDE and the adjoints,
minimizes the augmented Hamiltonian pointwise to get u^m_j and adds to the
per-path sums of the Girsanov-weighted decrease diagnostic mu_m. Only X, the
controls (one-byte candidate indices) and the noise are stored over the
horizon. One noise batch is shared across all iterations (common random
numbers), so descent comparisons are free of inter-iteration Monte Carlo
variance. Only a run that ends off a fixed point prices its last control alone.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

# first_order_adjoint, second_order_adjoint, zero_second_order and solve_state_bsde are
# unused here: perfbench/tracing.py rebinds them by name on this module.
from .adjoint import (StepPoint, first_order_adjoint, first_order_step,  # noqa: F401
                      second_order_adjoint, second_order_step, second_order_vanishes,
                      zero_second_order)
from .bsde import (RegressionBackend, check_finite, cost_estimate,  # noqa: F401
                   cost_sweep_step, pathwise_cost, solve_bsde, solve_state_bsde)
from .errors import ConfigurationError, check_count, check_seed
from .hamiltonian import minimize_step
from .model import ControlDomain, ProblemSpec, problem_candidates
from .stochastics import (BrownianBatch, ControlField, TimeGrid, _time_major, girsanov_exp,
                          girsanov_terms, random_control, sample_brownian, simulate_forward)

Array = np.ndarray


@dataclass(frozen=True)
class MsaConfig:
    """Run parameters; epsilon=None disables early stopping (fixed-length run).

    Without epsilon no stop can return u^{m-2}, so ``run_msa`` holds only the
    current and the new control over the horizon, not that third one.
    """

    rho: float
    n_paths: int
    steps: int
    seed: int
    max_iters: int = 30
    epsilon: Optional[float] = None
    backend: RegressionBackend = field(default_factory=RegressionBackend)

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho >= 0):
            raise ConfigurationError(f"rho must be finite and >= 0, got {self.rho}")
        for name, minimum in (("n_paths", 1), ("steps", 1), ("max_iters", 0)):
            check_count(name, getattr(self, name), minimum)
        check_seed(self.seed)
        if self.epsilon is not None and not self.epsilon > 0:
            raise ConfigurationError("epsilon must be positive (or None to disable)")


@dataclass(frozen=True)
class IterationRecord:
    """Bookkeeping for iteration m: J(u^{m-1}), mu_m, and the realized descent.

    ``wall_ms`` times pass m: the forward simulation under u^{m-1} and its
    sweep. The adjoint maxima are pass m's, over every node and path: of a
    solved adjoint from its terminal on, of a hinted one over the hint's
    nodes. A record that follows one with ``changed_frac == 0`` is a copy of
    it: every field is its predecessor's except ``m``, its descent (0.0) and
    ``wall_ms``, the time of the copy.
    """

    m: int
    j: float
    j_stderr: float
    mu: float
    mu_stderr: float
    descent: float
    wall_ms: float
    weight_ess: float = float("nan")        # (sum w)^2 / (M sum w^2) of mu_m's weights w
    weight_max_ratio: float = float("nan")  # max w / mean w; both are 1 when f_z = 0
    max_abs_p: float = float("nan")
    max_abs_P: float = float("nan")
    max_asym_P: float = float("nan")        # worst pre-symmetrization |P - P'|
    changed_frac: float = float("nan")      # share of (path, step) cells where u^m != u^{m-1}


@dataclass(frozen=True)
class RunHints:
    """Problem-specific shortcuts a benchmark may attach to a run.

    ``hamiltonian``/``penalty`` replace the general augmented-Hamiltonian pair
    in the update step, both or neither (a lone one raises ConfigurationError
    when the hints are built).
    They take ``h_batch``'s and ``penalty_batch``'s arguments row-wise, v
    always as stacked candidates (rows, k), with x, y, z, p, q, P and u
    stacked to the same rows. They receive the run's p, q and P: given nodes
    broadcast over the paths, q = 0 under a costate hint, P = 0 when the
    second order vanishes. ``first_order_ode`` / ``second_order_ode`` supply
    deterministic adjoints on the grid nodes where the problem admits them;
    ``run_msa`` then reads their nodes instead of solving that equation, and
    refuses nodes of any other shape (ConfigurationError).
    """

    hamiltonian: Optional[Callable] = None
    penalty: Optional[Callable] = None
    first_order_ode: Optional[Callable] = None   # grid -> (N+1, n)
    second_order_ode: Optional[Callable] = None  # grid -> (N+1, n, n)

    def __post_init__(self):
        if (self.hamiltonian is None) != (self.penalty is None):
            raise ConfigurationError("RunHints.hamiltonian and penalty go together: "
                                     "give both or neither")


@dataclass
class MsaResult:
    """A run's records, one per pass, and its two controls; every per-pass
    diagnostic, the adjoint maxima included, sits on its pass's record."""

    records: List[IterationRecord]
    returned_control: ControlField     # u^{m_eps - 1}, per the stopping rule
    last_control: ControlField         # the final minimizer u^m, for inspection
    stopped_early: bool

    @property
    def m_eps(self) -> Optional[int]:
        """m of the record whose descent fell below epsilon, or None without a stop."""
        return self.records[-1].m if self.stopped_early else None

    @property
    def final_j(self) -> float:
        """Cost of the last minimizer (J of the returned control minus descent)."""
        return self.records[-1].j - self.records[-1].descent if self.records else float("nan")


def compute_mu(h_sum: Array, fz_dw: Array, fz_sq: Array, dt: float) -> Tuple[float, ...]:
    """(mu, stderr, ESS share, max w / mean w) of the Girsanov-weighted E^m[int H-hat dt].

    The arguments are the per-path sums over the steps that the update sweep
    streams: of the Hamiltonian decrease, of f_z . dW_j and of |f_z|^2, so the
    weight is w = exp(fz_dw - dt fz_sq / 2) (``girsanov_exp``). mu and its
    stderr are ``cost_estimate``'s mean and stderr of the samples w h_sum dt.
    """
    w = girsanov_exp(fz_dw - 0.5 * dt * fz_sq)
    M = w.shape[0]
    return cost_estimate(w * h_sum * dt) + (float(w.sum() ** 2 / (M * (w * w).sum())),
                                            float(w.max() / w.mean()))


def _update_sweep(m: int, started: float, spec: ProblemSpec, forward, p_ode, P_ode,
                  candidates: Array, rho: float, hints: RunHints,
                  backend) -> Tuple[IterationRecord, ControlField]:
    """Pass m's backward sweep along u^{m-1} = ``forward.control``: cost, adjoints,
    update, mu.

    The cost BSDE is the pass's first equation, stepped by ``cost_sweep_step``,
    so each step's node is read off that step's own (X_j, Y_j, Z_j, u_j), Y_0
    the pathwise one that ``solve_bsde`` returns and J averages; Y_j, p_j and P_j are checked finite
    before the update reads them. p_ode / P_ode hold a given adjoint's nodes,
    or None where the sweep solves it. Each step adds to the three (M,) sums
    ``compute_mu`` reduces after the pass. u^{m-1}'s table starts with the
    candidates, so u^m is written as indices into that same table: the winning
    candidate's, or u^{m-1}'s where a sample keeps it. u^m's index is made at
    the first step whose controls change, from the columns of u^{m-1} swept so
    far; after a pass that keeps every control, u^m is u^{m-1} itself. Returns
    pass m's record, its descent still open and its wall time counted from
    ``started`` (a ``perf_counter`` reading before the forward pass), and u^m.
    """
    batch, u_prev = forward.batch, forward.control
    M, N, n, d, dt = batch.n_paths, batch.grid.steps, spec.n, spec.d, batch.dt
    nodes, x_T = batch.grid.nodes, forward.state(N)
    # the cost step keeps y_T for step 0's pathwise Y_0; solve_bsde empties the
    # list, so Phi_x(X_T) and Phi_xx(X_T) go once the first step has stacked them
    y_T = np.asarray(spec.terminal(x_T), dtype=float)
    cost = cost_sweep_step(spec, forward, y_T)
    terminals = [y_T] + ([] if p_ode is not None else [spec.derivatives.phi_x(x_T)]) + \
        ([] if P_ode is not None else [spec.derivatives.phi_xx(x_T)])
    # running maxima, started at the terminal node or taken over a hint's nodes
    max_p = float(np.max(np.abs(terminals[1] if p_ode is None else p_ode)))
    max_P = float(np.max(np.abs(terminals[-1] if P_ode is None else P_ode)))
    asym, sums = 0.0, np.zeros((3, M))
    changed, index = 0, None  # u^m's index, made at the first change
    # given nodes broadcast over the paths, time-major; a costate hint implies q = 0
    if p_ode is not None:
        p_given, q_given = np.broadcast_to(p_ode[:, None], (N + 1, M, n)), np.zeros((M, n, d))
    if P_ode is not None:
        P_given = np.broadcast_to(P_ode[:, None], (N + 1, M, n, n))

    def step(j, u, phats, qs):
        nonlocal max_p, max_P, asym, changed, index
        solved = cost(j, u, phats, qs)  # [Y_j], the pathwise Y_0 at node 0
        check_finite(*solved)
        point = StepPoint(spec, nodes[j], forward.state(j), solved[0], qs[0], u)
        if p_ode is None:
            p, q = first_order_step(point, phats[1], qs[1], dt), qs[1]
            check_finite(p)
            max_p = max(max_p, float(np.abs(p).max()))
            solved.append(p)
        else:
            p, q = p_given[j], q_given
        if P_ode is None:
            P, asym_j = second_order_step(point, phats[-1], qs[-1], p, q, dt)
            check_finite(P)
            max_P, asym = max(max_P, float(np.abs(P).max())), max(asym, asym_j)
            solved.append(P)
        else:
            P = P_given[j]
        # the update's four arrays go when the step returns
        _, h_new, h_prev, choice = minimize_step(
            spec, point.t, point.x, point.y, point.z, p, q, P, point.u, candidates, rho,
            h_fn=hints.hamiltonian, pen_fn=hints.penalty, node=point)
        kept = u_prev.index[:, j]
        column = np.empty_like(kept) if index is None else index[:, j]
        # a kept sample's -1 is cast to some index first, then replaced by u^{m-1}'s
        np.copyto(column, choice, casting="unsafe")
        np.copyto(column, kept, where=choice < 0)
        changed_j = int(np.count_nonzero(column != kept))
        if changed_j and index is None:
            index = _time_major((M, N), dtype=kept.dtype)
            index[:, j + 1:] = u_prev.index[:, j + 1:]
            index[:, j] = column
        changed += changed_j
        sums[0] += h_new - h_prev
        girsanov_terms(sums[1:], point.f_z, batch.increments[:, j])
        return solved

    j, j_se = cost_estimate(solve_bsde(terminals, step, forward, backend)[0])
    u_new = u_prev if index is None else ControlField(table=u_prev.table, index=index)
    mu, mu_se, ess, w_ratio = compute_mu(*sums, dt)
    return IterationRecord(m=m, j=j, j_stderr=j_se, mu=mu, mu_stderr=mu_se,
                           descent=float("nan"),
                           wall_ms=(time.perf_counter() - started) * 1e3,
                           weight_ess=ess, weight_max_ratio=w_ratio, max_abs_p=max_p,
                           max_abs_P=max_P, max_asym_P=asym,
                           changed_frac=changed / (M * N)), u_new


def run_msa(spec: ProblemSpec, domain: ControlDomain, config: MsaConfig,
            initial: Union[ControlField, str] = "random", *,
            hints: Optional[RunHints] = None,
            batch: Optional[BrownianBatch] = None,
            backend=None) -> MsaResult:
    """Run the modified successive-approximation loop.

    Pass m simulates forward under u^{m-1}, and its one backward sweep prices
    u^{m-1}, steps the adjoints, minimizes the augmented Hamiltonian pointwise
    into u^m and streams mu_m. Record m is completed by pass m + 1, whose
    J(u^m) gives its descent; only a last control off a fixed point is priced
    on its own (``pathwise_cost``, no Y or Z stored). One handler prefixes an
    error with ``iteration m``: the pass m that raised it, or, for the last
    pricing, the last pass, m = max_iters.

    Stops once a descent J(u^{m-1}) - J(u^m) falls below epsilon, returning
    u^{m-1}; the last minimizer u^m stays available. The pass that detects the
    stop has already run one more update, whose control is discarded.

    A pass that keeps every control (``changed_frac == 0``) reached a fixed
    point: every later pass would get its inputs and repeat it bit for bit on
    the shared batch, so none runs. Its record closes with descent J - J = 0.0,
    on which an epsilon stops; without one, copies of it fill the records up
    to max_iters, each closed the same way, the last one too.

    A given ``batch`` must match spec.horizon, config.steps and config.n_paths,
    and ``domain`` spec.k (else ConfigurationError); a tree backend of another
    depth is refused by pass 1's sweep (``solve_bsde``), as ``iteration 1: tree
    backend has ...``. The initial control is re-indexed once over a table
    whose first rows are the enumerated candidates, followed by its own rows
    that are none of them, and every later control is an index into that
    table. So no float control horizon exists during the run; a control row
    keeps its exact float64 bits, and an integer one runs as its float64 value.
    """
    hints = hints or RunHints()
    grid = TimeGrid(spec.horizon, config.steps)
    if batch is None:
        batch = sample_brownian(grid, config.n_paths, spec.d, config.seed)
    for name, given, wanted in (("spec.horizon", batch.grid.horizon, spec.horizon),
                                ("config.steps", batch.grid.steps, config.steps),
                                ("config.n_paths", batch.n_paths, config.n_paths)):
        if given != wanted:
            raise ConfigurationError(f"batch does not match {name}: {given} against {wanted}")
    backend = backend or config.backend
    candidates = problem_candidates(spec, domain)
    M, N = batch.n_paths, batch.grid.steps

    if isinstance(initial, str):
        if initial != "random":
            raise ConfigurationError(f"unknown initial control '{initial}'")
        u_prev = random_control(domain, M, N, config.seed)
    elif (initial.n_paths, initial.steps, initial.k) != (M, N, spec.k):
        raise ConfigurationError("initial control shape does not match the run")
    else:
        u_prev = initial
    u_prev = u_prev.over(candidates)

    # which source feeds p and P, decided once: a hint's nodes, P's structural
    # zero as zero nodes, or None for a solve in every iteration's sweep
    p_ode = hints.first_order_ode(grid) if hints.first_order_ode else None
    P_ode = hints.second_order_ode(grid) if hints.second_order_ode else None
    for name, nodes, shape in (("first_order_ode", p_ode, (N + 1, spec.n)),
                               ("second_order_ode", P_ode, (N + 1, spec.n, spec.n))):
        if nodes is not None and np.shape(nodes) != shape:
            raise ConfigurationError(
                f"RunHints.{name} gave nodes of shape {np.shape(nodes)}, not {shape}")
    if P_ode is None and second_order_vanishes(spec):
        P_ode = np.zeros((N + 1, spec.n, spec.n))

    records: List[IterationRecord] = []  # the last one open until its J(u^m) is known
    u_before, stopped = u_prev, False

    def closes(j_new: float) -> bool:
        """Completes the open record with its descent; True on an epsilon stop."""
        records[-1] = dataclasses.replace(records[-1], descent=records[-1].j - j_new)
        return config.epsilon is not None and records[-1].descent < config.epsilon

    # each pass's states are made in the call that reads them, so they are freed
    # before the next pass makes its own
    record = None
    try:
        for m in range(1, config.max_iters + 1):  # pass m
            started = time.perf_counter()
            if config.epsilon is None:
                u_before = None  # u^{m-2}: only an epsilon stop returns it
            if record is not None and record.changed_frac == 0.0:
                # u^{m-1} = u^{m-2}: on the shared batch pass m would repeat pass m - 1
                # bit for bit, so its record is a copy and its u^m is u^{m-1}
                u_new = u_prev
                record = dataclasses.replace(record, m=m,
                                             wall_ms=(time.perf_counter() - started) * 1e3)
            else:
                record, u_new = _update_sweep(
                    m, started, spec, simulate_forward(spec, u_prev, batch), p_ode, P_ode,
                    candidates, config.rho, hints, backend)
            if records and closes(record.j):
                stopped = True  # this pass's u^m is discarded
                break
            records.append(record)
            u_before, u_prev = u_prev, u_new
        if records and not stopped:  # every pass ran, so m = records[-1].m
            # at a fixed point u^m = u^{m-1}, which the last sweep priced
            stopped = closes(
                records[-1].j if records[-1].changed_frac == 0.0
                else cost_estimate(pathwise_cost(spec, simulate_forward(spec, u_prev, batch),
                                                 backend))[0])
    except Exception as exc:
        exc.args = (f"iteration {m}: {exc}",) + exc.args[1:]
        raise
    return MsaResult(records=records, returned_control=u_before, last_control=u_prev,
                     stopped_early=stopped)


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
    if not epsilon > 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    m_eps = next((rec.m for rec in records if rec.descent < epsilon), None)
    # each descent against the combined stderr of its two costs (the last one's own twice)
    violated = any(rec.descent < -3.0 * (rec.j_stderr + nxt.j_stderr) - 1e-15
                   for rec, nxt in zip(records, records[1:] + records[-1:]))
    gap = ratio = None
    if jstar is not None and m_eps is not None:
        gap = records[m_eps - 1].j - jstar
        ratio = gap / np.sqrt(epsilon)
    return GapReport(m_eps=m_eps, epsilon=epsilon,
                     bound_scale=float(np.exp(f_y_bound * horizon)),
                     gap=gap, ratio=ratio, descent_violated=violated)
