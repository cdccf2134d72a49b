"""Spans and counters around msacontrol's layer entry points, set from outside.

Nothing in the package changes: ``instrument`` rebinds the module attributes
the solver resolves at call time and restores them on exit, and
``instrument_case`` rebuilds a case's spec and hints with wrapped callables
through ``dataclasses.replace``. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Span names summed into each per-layer time. The second-order adjoint phase
# covers the full solve and the two ways run_msa skips it (a zero adjoint or a
# hint ODE); the noise batch is sample_brownian, or tree_batch on the tree.
PHASES = {
    "stochastics.sample_brownian_s": ("stochastics.sample_brownian", "benchmarks.tree_batch"),
    "stochastics.simulate_forward_s": ("stochastics.simulate_forward",),
    "bsde.solve_state_bsde_s": ("bsde.solve_state_bsde",),
    "bsde.project_s": ("bsde.project",),
    "adjoint.first_order_s": ("adjoint.first_order",),
    "adjoint.second_order_s": ("adjoint.second_order", "adjoint.second_order_zero",
                               "adjoint.second_order_ode"),
    "hamiltonian.minimize_step_s": ("hamiltonian.minimize_step",),
    "msa.compute_mu_s": ("msa.compute_mu",),
}


class Tracer:
    """Spans [id, parent, trace, name, start, end] and counters for one run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.trace = 0
        self._open = []

    def begin(self, trace: int):
        """Start a new trace id with fresh counters."""
        self.trace = trace
        self.counts = Counter()

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._open[-1] if self._open else None, self.trace,
               name, time.perf_counter(), None]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, *, span: bool = True, after=None):
        """``fn`` counted under ``name``, timed as a span when ``span``.

        ``after(counts, args, result)`` may add counts taken at the same call.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if span:
                with self.span(name):
                    out = fn(*args, **kwargs)
            else:
                out = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, args, out)
            return out
        return wrapper

    def layer_times(self, trace: int) -> dict:
        """Per-layer time of one trace, run_msa's self time and the oracle's time."""
        dur = defaultdict(float)
        children = defaultdict(float)
        spans = [s for s in self.spans if s[2] == trace]
        for sid, parent, _, name, start, end in spans:
            dur[name] += end - start
            if parent is not None:
                children[parent] += end - start
        out = {metric: sum(dur[n] for n in names) for metric, names in PHASES.items()}
        out["msa.self_s"] = sum(end - start - children[sid]
                                for sid, _, _, name, start, end in spans
                                if name == "msa.run_msa")
        out["benchmarks.tree_bruteforce"] = dur["benchmarks.tree_bruteforce"]
        return out


def _project_rows(counts, args, out):
    # args = (backend, step, features, targets): rows x target columns
    counts["bsde.project_rows"] += args[3].size


def _coef_mb(counts, args, out):
    # A (M,N,n^2,n^2), B (M,N,d,n^2,n^2) and c (M,N,n^2) held at once, float64
    spec, forward = args[0], args[1]
    M, N, n, d = forward.batch.n_paths, forward.batch.grid.steps, spec.n, spec.d
    mb = M * N * (n ** 4 + d * n ** 4 + n ** 2) * 8 / 1e6
    counts["adjoint.second_order_coef_mb"] = max(counts["adjoint.second_order_coef_mb"], mb)


def _changed(counts, args, out):
    # args[8] is u_prev; out[0] is the new control of every sample at this step
    u_prev, u_new = args[8], out[0]
    counts["hamiltonian.changed"] += int((u_new != u_prev).any(axis=1).sum())
    counts["hamiltonian.controls"] += len(u_new)


def _policies(counts, args, out):
    counts["benchmarks.policies"] += out.policy_count


@contextmanager
def instrument(mc, tracer: Tracer):
    """Wrap the layer entry points of the imported package ``mc``."""
    targets = [
        (mc.stochastics, "sample_brownian", "stochastics.sample_brownian", True, None),
        (mc.benchmarks, "tree_batch", "benchmarks.tree_batch", True, None),
        (mc.benchmarks, "tree_bruteforce", "benchmarks.tree_bruteforce", True, _policies),
        (mc.msa, "run_msa", "msa.run_msa", True, None),
        (mc.msa, "simulate_forward", "stochastics.simulate_forward", True, None),
        (mc.msa, "solve_state_bsde", "bsde.solve_state_bsde", True, None),
        (mc.msa, "first_order_adjoint", "adjoint.first_order", True, None),
        (mc.msa, "second_order_adjoint", "adjoint.second_order", True, _coef_mb),
        (mc.msa, "zero_second_order", "adjoint.second_order_zero", True, None),
        (mc.msa, "minimize_step", "hamiltonian.minimize_step", True, _changed),
        (mc.msa, "compute_mu", "msa.compute_mu", True, None),
        (mc.bsde.RegressionBackend, "project", "bsde.project", True, _project_rows),
        (mc.bsde.ExactTreeBackend, "project", "bsde.project", True, _project_rows),
        # evaluated once per candidate per step: counted, not spanned
        (mc.hamiltonian, "h_batch", "hamiltonian.h", False, None),
        (mc.hamiltonian, "penalty_batch", "hamiltonian.penalty", False, None),
    ]
    saved = []
    try:
        for owner, attr, name, span, after in targets:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), span=span,
                                             after=after))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def instrument_case(mc, case, tracer: Tracer):
    """The case with counted coefficient, derivative and hint callables."""
    spec = case.spec
    coef = {k: tracer.wrap("model.coef", getattr(spec, k), span=False)
            for k in ("drift", "diffusion", "driver")}
    deriv = {k: tracer.wrap("model.deriv", getattr(spec.derivatives, k), span=False)
             for k in mc.model.DERIVATIVE_NAMES}
    spec = dataclasses.replace(spec, derivatives=dataclasses.replace(spec.derivatives, **deriv),
                               **coef)
    hints = case.hints
    hint_names = {"hamiltonian": ("hamiltonian.h", False),
                  "penalty": ("hamiltonian.penalty", False),
                  "second_order_ode": ("adjoint.second_order_ode", True)}
    wrapped = {k: tracer.wrap(name, getattr(hints, k), span=span)
               for k, (name, span) in hint_names.items() if getattr(hints, k) is not None}
    return dataclasses.replace(case, spec=spec, hints=dataclasses.replace(hints, **wrapped))
