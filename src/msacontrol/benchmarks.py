"""Exact binomial-tree oracle: the optimum of a desk problem over tree policies.

The oracle replaces Gaussian increments with +/-sqrt(dt) coin flips, making the
set of adapted policies finite and conditional expectations exact, so the
solver can be checked against a true optimum. ``tree_bruteforce`` finds it by
backward induction, certified by a declared bound on the driver's (y, z)
gradient, and prices every policy only where that certificate fails. Either
way the answer is priced with the solver's own forward Euler and cost pass on
the exact tree backend, for any state dimension n with scalar noise (d = 1).
The desk problems themselves are in ``problems``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bsde import ExactTreeBackend, cost_step, pathwise_cost
from .errors import ConfigurationError, NumericalError, SimulationError, check_seed
from .model import ControlDomain, ProblemSpec, enumerate_controls
from .stochastics import (_TREE_CONTROL_STREAM, BrownianBatch, ControlField, TimeGrid, _euler,
                          _time_major, simulate_forward)

Array = np.ndarray

# most policies the enumeration prices, most rows the backward induction holds, and
# most paths of a tree
_POLICY_BUDGET = 200_000
# most paths one stacked pricing of the enumeration holds: max(1, 8192 // 2^steps)
# policies of 2^steps paths each
_PRICING_PATHS = 8192


@dataclass(frozen=True)
class TreeModel:
    """The optimum of the tree-discretized cost over one class of policies, one
    control per decision node: by certified backward induction, or by pricing
    every policy of the class (``enumerated``)."""

    steps: int
    mode: str                 # "nonrecombining" | "recombining"
    decision_nodes: int
    policy_count: int         # the size of the policy class, nc ** decision_nodes
    jstar: float
    policy: Array             # (decision_nodes, k), optimal control per node
    node_states: Array        # (decision_nodes, n), X at each node under the optimum
    enumerated: bool          # every policy priced: the backward induction was not certified


def tree_batch(steps: int, horizon: float = 1.0) -> BrownianBatch:
    """All sign patterns of +/- sqrt(dt) flips; step 0 is the most significant bit."""
    grid = TimeGrid(horizon, steps)
    M = 2 ** steps
    paths = np.arange(M)
    increments = _time_major((M, steps, 1))
    for j in range(steps):
        bit = (paths >> (steps - 1 - j)) & 1
        increments[:, j, 0] = np.where(bit == 0, 1.0, -1.0) * math.sqrt(grid.dt)
    return BrownianBatch(grid, increments)


def tree_backend(steps: int) -> ExactTreeBackend:
    return ExactTreeBackend(steps=steps)


def tree_random_control(domain: ControlDomain, steps: int, seed: int) -> ControlField:
    """Adapted random initial control for tree runs: one draw per decision node.

    Per-path i.i.d. draws are not adapted on the enumerated tree (paths
    sharing a history must share the control), so tree runs seed the solver
    with a node-indexed draw instead.
    """
    check_seed(seed)
    candidates = enumerate_controls(domain)
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(_TREE_CONTROL_STREAM))
    node_choice = gen.integers(0, len(candidates),
                               size=_decision_nodes(steps, "nonrecombining"))
    return ControlField(table=candidates,
                        index=node_choice[_node_index_map(steps, "nonrecombining")])


def _decision_nodes(steps: int, mode: str) -> int:
    """The node count of a tree class: one per coin history, or per (step, ups)."""
    if mode == "nonrecombining":
        return 2 ** steps - 1
    if mode == "recombining":
        return steps * (steps + 1) // 2
    raise ConfigurationError(f"unknown tree mode '{mode}'")


def _node_index_map(steps: int, mode: str) -> Array:
    """Decision-node index per (path, step) of ``tree_batch``'s paths, read off
    each path's index: its flip at step j is bit steps - 1 - j, 1 a down flip.
    ``mode`` is one that ``_decision_nodes`` accepts."""
    j, paths = np.arange(steps), np.arange(2 ** steps)[:, None]
    if mode == "nonrecombining":
        return (2 ** j - 1) + (paths >> (steps - j))  # the flips before step j, as bits
    flips = (paths >> (steps - 1 - j)) & 1
    return j * (j + 1) // 2 + j - (np.cumsum(flips, axis=1) - flips)


def _backward_induction(spec: ProblemSpec, candidates: Array, batch: BrownianBatch,
                        idx_map: Array, n_decision: int) -> Optional[Array]:
    """The control index per decision node of the optimum over adapted policies, by
    backward induction, or None where that answer is not certified.

    Forward, a row per (coin history, control history): the (2 nc)^j rows at
    step j each step by every candidate and both coin signs through the forward
    pass's Euler formula, so their states are ``simulate_forward``'s. Backward,
    a row's value is the least over candidates of ``cost_step`` at the two-child
    mean yhat = (Y+ + Y-)/2 with Z = (Y+ - Y-)/(2 sqrt(dt)), the tree backend's
    conditional expectations on a block of two; a tie goes to the lowest
    candidate index. By the comparison theorem for backward stochastic
    difference equations (Cohen and Elliott, 2010) that is the adapted optimum
    where the one-step map yhat + f dt never decreases in either child's value.
    Raising one child's value by h >= 0 raises the map by at least
    (h/2)(1 - df (sqrt(dt) + dt)) when |f_y| and |f_z| are at most df
    everywhere, so the certificate rests on the declared ``Bounds.df``, trusted
    like the structural zeros, and not on derivatives read at the points the
    induction visits. None unless:

    - ``spec.bounds.df`` is declared and df (sqrt(dt) + dt) < 1;
    - every state and value is finite;
    - every history reaching one decision node of the class (``idx_map``) gets
      the same control, which a recombining node may not.

    The caller bounds its rows: the deepest step has (2 nc)^steps of them.
    """
    grid = batch.grid
    nc, N, dt = len(candidates), grid.steps, grid.dt
    root, df = math.sqrt(dt), spec.bounds.df
    if df is None or not df * (root + dt) < 1.0:
        return None
    # the children of row r: (r nc + c) 2 + s for candidate c and sign s, 0 an up flip
    u_children = np.repeat(candidates, 2, axis=0)
    dw_children = np.array([[root], [-root]])
    states = [spec.x0[None, :]]
    for j in range(N):
        R = len(states[j])
        x = _euler(spec, grid.nodes[j], np.repeat(states[j], 2 * nc, axis=0),
                   np.tile(u_children, (R, 1)), dt, np.tile(dw_children, (R * nc, 1)))
        if not np.isfinite(x).all():
            return None
        states.append(x)
    y = np.asarray(spec.terminal(states[N]), dtype=float)
    if not np.isfinite(y).all():
        return None
    choices = [None] * N
    for j in range(N - 1, -1, -1):
        R = len(states[j])
        up, down = y[0::2], y[1::2]
        x, u = np.repeat(states[j], nc, axis=0), np.tile(candidates, (R, 1))
        values = cost_step(spec, grid.nodes[j], x, (up + down) / 2,
                           ((up - down) / (2 * root))[:, None], u, dt)
        if not np.isfinite(values).all():
            return None
        values = values.reshape(R, nc)
        choices[j] = np.argmin(values, axis=1)
        y = values[np.arange(R), choices[j]]
    # follow the optimal rows down every path of the tree batch
    policy = np.empty(n_decision, dtype=np.intp)
    rows = np.zeros(batch.n_paths, dtype=np.intp)
    for j in range(N):
        control = choices[j][rows]
        policy[idx_map[:, j]] = control
        if not np.array_equal(policy[idx_map[:, j]], control):
            return None
        rows = (rows * nc + control) * 2 + (batch.increments[:, j, 0] < 0)
    return policy


def _enumerate(spec: ProblemSpec, candidates: Array, batch: BrownianBatch, idx_map: Array,
               n_decision: int, backend: ExactTreeBackend) -> Array:
    """The control index per node of the least of the nc^n_decision policies; ties
    go to the first enumerated policy. Each chunk of P policies is stacked along
    the path axis of ``batch``, in P blocks of its 2^steps paths, and priced by
    ``simulate_forward`` and ``pathwise_cost``: a policy's value is the mean Y_0
    over its own block."""
    nc, (M, steps) = len(candidates), idx_map.shape
    policy_count = nc ** n_decision
    chunk = max(1, _PRICING_PATHS // M)
    # the tree increments repeated once per policy of a chunk, time-major
    increments = np.tile(batch.increments.swapaxes(0, 1),
                         (1, min(chunk, policy_count), 1)).swapaxes(0, 1)
    # policy id -> control index per node, the first node most significant
    place = nc ** np.arange(n_decision - 1, -1, -1)
    best_val, best_id = np.inf, 0
    for start in range(0, policy_count, chunk):
        ids = np.arange(start, min(start + chunk, policy_count))
        pol = (ids[:, None] // place) % nc                  # (P, n_decision)
        stacked = BrownianBatch(batch.grid, increments[:len(ids) * M])
        try:  # the chunk's states are freed with its pricing, before the next chunk's
            y0 = pathwise_cost(spec, simulate_forward(spec, ControlField(
                table=candidates, index=pol[:, idx_map].reshape(len(ids) * M, steps)),
                stacked), backend)
        except (SimulationError, NumericalError) as exc:
            row = exc.path // M
            what = ("drives the state non-finite" if isinstance(exc, SimulationError)
                    else "gives a non-finite cost")
            raise type(exc)(
                f"policy {start + row} with node controls "
                f"{candidates[pol[row]].tolist()} {what} "
                f"at step {exc.step}", path=exc.path % M, step=exc.step) from exc
        vals = y0.reshape(len(ids), M).mean(axis=1)
        arg = int(np.argmin(vals))
        if vals[arg] < best_val:
            best_val, best_id = float(vals[arg]), int(ids[arg])
    return (best_id // place) % nc


def tree_bruteforce(spec: ProblemSpec, domain: ControlDomain, steps: int,
                    mode: str = "nonrecombining") -> TreeModel:
    """Exact minimum of the tree-discretized cost over a class of adapted policies.

    Gaussian increments become +/- sqrt(dt) coin flips, one per step, so the
    noise must be scalar (d = 1); the state may have any dimension. ``mode``
    picks the class: one control per coin history ("nonrecombining"), or one
    per (step, number of up flips) ("recombining"), a subset of the first.

    The optimum over every adapted policy comes first, by
    ``_backward_induction``; where it is certified (``spec.bounds.df`` bounds
    |f_y| and |f_z| with df (sqrt(dt) + dt) < 1) and lies in the class, it is
    the class's optimum too. Where it is not, every policy of the class is
    priced (``_enumerate``), and ties go to the first enumerated policy; a tie
    that the certified induction breaks by the lowest candidate index at each
    node resolves the same way. ``_POLICY_BUDGET`` bounds the depth: a tree
    has at most that many paths (2^steps), the induction at most that many
    rows ((2 nc)^steps), and the enumeration at most that many policies.
    The answer's value is the mean of Y_0 over the 2^steps paths under the
    solver's own ``simulate_forward`` and ``pathwise_cost`` on the exact tree
    backend, from the same pass as its node states. In the enumeration, a
    policy that drives the Euler state non-finite raises SimulationError, and
    one whose cost is non-finite raises NumericalError, each naming the
    policy, its node controls and the step.
    """
    if spec.d != 1:
        raise ConfigurationError("tree oracle flips one coin per step: d = 1 only")
    if steps > math.log2(_POLICY_BUDGET):  # one candidate has one policy at any depth
        raise ConfigurationError(f"a tree of {steps} steps has 2^{steps} paths, over the "
                                 f"budget of {_POLICY_BUDGET}")
    candidates = enumerate_controls(domain)
    nc, rows = len(candidates), (2 * len(candidates)) ** steps
    n_decision = _decision_nodes(steps, mode)
    policy_count = nc ** n_decision

    def refusal(why: str) -> ConfigurationError:
        count = policy_count if policy_count < 10 ** 100 else f"{nc}^{n_decision}"
        return ConfigurationError(
            f"backward induction {why}, and policy enumeration needs {count} "
            f"evaluations, over the budget of {_POLICY_BUDGET}")

    if rows > _POLICY_BUDGET and policy_count > _POLICY_BUDGET:  # before any tree is built
        raise refusal(f"needs {rows} rows")
    batch = tree_batch(steps, spec.horizon)
    idx_map = _node_index_map(steps, mode)
    backend = ExactTreeBackend(steps=steps)
    best_policy = (_backward_induction(spec, candidates, batch, idx_map, n_decision)
                   if rows <= _POLICY_BUDGET else None)
    enumerated = best_policy is None
    if enumerated and policy_count > _POLICY_BUDGET:
        raise refusal("is not certified")
    if enumerated:
        best_policy = _enumerate(spec, candidates, batch, idx_map, n_decision, backend)

    # the answer's one pass: its value, and its states at each decision node
    forward = simulate_forward(spec, ControlField(table=candidates,
                                                  index=best_policy[idx_map]), batch)
    jstar = float(pathwise_cost(spec, forward, backend).mean())
    node_states = np.zeros((n_decision, spec.n))
    for j in range(steps):
        node_states[idx_map[:, j]] = forward.state(j)
    return TreeModel(steps=steps, mode=mode, decision_nodes=n_decision,
                     policy_count=policy_count, jstar=jstar,
                     policy=candidates[best_policy], node_states=node_states,
                     enumerated=enumerated)
