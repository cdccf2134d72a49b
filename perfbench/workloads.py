"""The benchmark workloads: set-up, the timed call and the correctness check.

Every function takes the msacontrol package as an argument instead of importing
it, because the benchmark re-imports the package to time set-up and the
tracer wraps the entry points of whichever import is current.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np

import curv

STEPS = 20
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Case:
    """One run_msa call with all of its inputs, optionally after a tree oracle."""

    spec: Any
    domain: Any
    config: Any
    initial: Any
    hints: Any
    batch: Any
    backend: Any = None
    oracle_steps: Optional[int] = None  # price the tree optimum first


@dataclass
class Outcome:
    results: list          # one MsaResult per case
    jstars: list           # tree optimum per case that has an oracle


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable        # (mc, seed) -> list of Case
    check: Callable        # Outcome -> list of failure messages


def _mc_case(mc, spec, domain, hints, rho, seed, n_paths, iters, degree):
    grid = mc.TimeGrid(spec.horizon, STEPS)
    batch = mc.stochastics.sample_brownian(grid, n_paths, spec.d, seed)
    initial = mc.random_control(domain, n_paths, STEPS, seed)
    config = mc.MsaConfig(rho=rho, n_paths=n_paths, steps=STEPS, seed=seed,
                          max_iters=iters, backend=mc.RegressionBackend(degree=degree))
    return Case(spec, domain, config, initial, hints, batch)


def _tree_case(mc, bench, steps, seed):
    batch = mc.benchmarks.tree_batch(steps, bench.spec.horizon)
    initial = mc.benchmarks.tree_random_control(bench.domain, steps, seed)
    config = mc.MsaConfig(rho=bench.rho, n_paths=2 ** steps, steps=steps, seed=seed,
                          max_iters=10)
    return Case(bench.spec, bench.domain, config, initial, bench.hints, batch,
                backend=mc.tree_backend(steps), oracle_steps=steps)


def setup_ex41(mc, seed):
    bench = mc.example41(0.1)
    return [_mc_case(mc, bench.spec, bench.domain, bench.hints, bench.rho, seed,
                     n_paths=20_000, iters=6, degree=2)]


def setup_lq_grid(mc, seed):
    bench = mc.lq_problem(
        gamma_mat=[[1.0]], a_mat=[[1.0]], b_mat=[[1.0]], b1=[[0.0]], b2=[0.0],
        sigma_fn=lambda t, u: u[:, :, None].astype(float),
        domain=mc.Box([-1.0], [1.0], [21]), n=1, d=1, k=1, x0=np.zeros(1),
        horizon=1.0)
    return [_mc_case(mc, bench.spec, bench.domain, bench.hints, 0.0, seed,
                     n_paths=4_096, iters=8, degree=1)]


def setup_curv(mc, seed):
    spec, domain, rho = curv.build(mc)
    return [_mc_case(mc, spec, domain, mc.RunHints(), rho, seed,
                     n_paths=400, iters=3, degree=2)]


def setup_oracle(mc, seed):
    return [_tree_case(mc, mc.example41(0.1), 5, seed),
            _tree_case(mc, mc.lq_desk(), 4, seed)]


def solve(mc, cases: List[Case]) -> Outcome:
    """The timed call. Entry points are looked up on their modules at call time."""
    results, jstars = [], []
    for case in cases:
        if case.oracle_steps is not None:
            tree = mc.benchmarks.tree_bruteforce(case.spec, case.domain, case.oracle_steps,
                                                 mode="recombining")
            jstars.append(tree.jstar)
        results.append(mc.msa.run_msa(case.spec, case.domain, case.config, case.initial,
                                      hints=case.hints, batch=case.batch,
                                      backend=case.backend))
    return Outcome(results, jstars)


def fingerprint(outcome: Outcome) -> str:
    """SHA-256 of every (J, mu, descent) record, the behaviour gate of a run."""
    h = hashlib.sha256()
    for res in outcome.results:
        h.update(np.array([(r.j, r.mu, r.descent) for r in res.records]).tobytes())
    return h.hexdigest()


def _finite(outcome):
    return [f"non-finite J at m={r.m}" for res in outcome.results for r in res.records
            if not (np.isfinite(r.j) and np.isfinite(r.descent))]


def _mu_bounded(res):
    return [f"mu={r.mu:.3g} > 3 stderr={r.mu_stderr:.3g} at m={r.m}"
            for r in res.records if not r.mu <= 3.0 * r.mu_stderr]


def _monotone(res):
    out = []
    for prev, nxt in zip(res.records, res.records[1:]):
        tol = 3.0 * float(np.hypot(prev.j_stderr, nxt.j_stderr))
        if not nxt.j <= prev.j + tol:
            out.append(f"J rose at m={nxt.m}: {prev.j:.6g} -> {nxt.j:.6g}, tol {tol:.3g}")
    return out


def check_ex41(outcome):
    res = outcome.results[0]
    fails = _finite(outcome) + _mu_bounded(res)
    if not res.records[0].j > 0.0:
        fails.append(f"initial J={res.records[0].j:.6g} not positive")
    if not abs(res.final_j) <= 1e-3:
        fails.append(f"final J={res.final_j:.6g} beyond 1e-3")
    return fails


def check_descent(outcome):
    res = outcome.results[0]
    return _finite(outcome) + _monotone(res) + _mu_bounded(res)


def check_oracle(outcome):
    fails = _finite(outcome)
    for res, jstar in zip(outcome.results, outcome.jstars):
        if jstar != 0.0:
            fails.append(f"tree optimum {jstar!r} is not 0")
        if not abs(res.final_j - jstar) <= 1e-10:
            fails.append(f"tree solver J={res.final_j!r} misses the optimum {jstar!r}")
    return fails


def derivative_failures(mc, cases: List[Case]) -> List[str]:
    """Closed-form derivatives only, each agreeing with finite differences."""
    fails = []
    for case in cases:
        report = mc.check_derivatives(case.spec)
        if report.fd_fallback:
            fails.append(f"finite-difference fallback for {sorted(report.fd_fallback)}")
        if not report.all_passed:
            fails.append("derivative check failed: %s off by %.3g" % report.worst)
    return fails


# Each workload stresses a different layer; see README.md for the map.
WORKLOADS = {w.name: w for w in (
    Workload("ex41-hinted",
             "regression-bound: first-order adjoint and project dominate, hinted update is cheap",
             setup_ex41, check_ex41),
    Workload("lq-grid21",
             "update-bound: minimize_step over a 21-point grid with the general Hamiltonian",
             setup_lq_grid, check_descent),
    Workload("curv-n4",
             "second-order-bound: n=4 curvature, O(n^4) adjoint tensors, general penalty",
             setup_curv, check_descent),
    Workload("oracle-tree",
             "oracle-bound: tree brute force and the tree-backend solver on two desk problems",
             setup_oracle, check_oracle),
)}
