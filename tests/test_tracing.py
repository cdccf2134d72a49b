"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` rebinds solver entry points by name and reads some of
their arguments by position, so a renamed or reordered entry point would break
the traced benchmark; these runs catch that in the test suite.
"""

import importlib.util
from pathlib import Path

import numpy as np

import msacontrol as mc

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrumented_run_counts_every_entry_point():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    bench = tracing.instrument_case(mc, mc.example41(0.1), tracer)
    M, N = 200, 5
    cfg = mc.MsaConfig(rho=bench.rho, n_paths=M, steps=N, seed=3, max_iters=1)
    initial = mc.random_control(bench.domain, M, N, 3)
    with tracing.instrument(mc, tracer):
        res = mc.msa.run_msa(bench.spec, bench.domain, cfg, initial, hints=bench.hints)
    counts = tracer.counts
    assert counts["msa.run_msa"] == 1
    assert counts["hamiltonian.minimize_step"] == N
    # _changed reads minimize_step's 9th positional argument as u_prev
    assert counts["hamiltonian.controls"] == M * N
    changed = int((res.last_control.values != initial.values).any(axis=2).sum())
    assert 0 < counts["hamiltonian.changed"] == changed
    assert res.records[0].changed_frac == counts["hamiltonian.changed"] / (M * N)
    # the sweep and the pricing of u^1 each project Y_{j+1} and Y_{j+1} dW_j (d = 1)
    assert counts["bsde.project"] == 2 * N
    assert counts["bsde.project_rows"] == 2 * N * M * 2
    # the hint: both candidates in one stacked call (2 * M rows), then u_prev
    assert counts["hamiltonian.h"] == 2 * N
    assert counts["model.coef"] > 0 and counts["model.deriv"] > 0
    assert {s[3] for s in tracer.spans} >= {"msa.run_msa", "hamiltonian.minimize_step",
                                           "bsde.project", "stochastics.simulate_forward"}
    # every rebinding is undone on exit
    assert mc.msa.minimize_step is mc.hamiltonian.minimize_step
    assert not hasattr(mc.bsde.RegressionBackend.project, "__wrapped__")


def test_traced_changes_match_the_records():
    # example41(0.1) keeps every control from pass 2 on: passes 3 and 4 are
    # copies, which make no update and change nothing
    tracing = load_tracing()
    tracer = tracing.Tracer()
    bench = tracing.instrument_case(mc, mc.example41(0.1), tracer)
    M, N = 500, 10
    cfg = mc.MsaConfig(rho=bench.rho, n_paths=M, steps=N, seed=3, max_iters=4)
    with tracing.instrument(mc, tracer):
        res = mc.msa.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
    counts = tracer.counts
    assert [rec.changed_frac == 0.0 for rec in res.records] == [False, True, True, True]
    assert counts["hamiltonian.minimize_step"] == 2 * N
    assert counts["hamiltonian.controls"] == 2 * M * N
    assert counts["hamiltonian.changed"] / (M * N) == sum(rec.changed_frac for rec in res.records)


def test_instrumented_tree_run_uses_the_tree_entry_points():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    bench = tracing.instrument_case(mc, mc.lq_desk(), tracer)
    steps = 3
    cfg = mc.MsaConfig(rho=bench.rho, n_paths=2 ** steps, steps=steps, seed=3, max_iters=2)
    with tracing.instrument(mc, tracer):
        tree = mc.benchmarks.tree_bruteforce(bench.spec, bench.domain, steps)
        initial = mc.benchmarks.tree_random_control(bench.domain, steps, 3)
        res = mc.msa.run_msa(bench.spec, bench.domain, cfg, initial, hints=bench.hints,
                             batch=mc.benchmarks.tree_batch(steps, bench.spec.horizon),
                             backend=mc.benchmarks.tree_backend(steps))
    counts = tracer.counts
    assert counts["benchmarks.policies"] == tree.policy_count
    assert counts["adjoint.second_order_ode"] == 1
    assert counts["hamiltonian.minimize_step"] == 2 * steps
    assert counts["bsde.project_rows"] > 0
    assert np.isfinite(res.final_j)
