"""Solver benchmark for msacontrol: one workload per run, metrics as JSON last.

    python3 perfbench/run.py --workload ex41-hinted --seed 7 --seconds 25 --trace 0

``--trace 0`` times untraced solves and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced solves and reports the per-layer
metrics. Every solve is checked; its failures count in ``failed``. Samples,
the environment, the behaviour fingerprint and the spans of a run go to
perfbench/results/. ``--write-manifest`` regenerates BENCHMARK.json from the
tables below. See perfbench/README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

RUN_SECONDS = 25
BLAS_THREADS = 1        # one call at a time on one core, whatever the box has
SETUP_REPS = 5
MIN_SOLVES = 3
CHILD_TIMEOUT_S = 150

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("solve_s", "s", "lower", 0.25),
    ("iter_ms", "ms", "lower", 0.25),
    ("peak_heap_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

PER_LAYER = [
    ("stochastics.sample_brownian_s", "s", "lower"),
    ("stochastics.simulate_forward_s", "s", "lower"),
    ("stochastics.simulate_forward_calls", "count", "lower"),
    ("bsde.solve_state_bsde_s", "s", "lower"),
    ("bsde.solve_state_bsde_calls", "count", "lower"),
    ("bsde.project_s", "s", "lower"),
    ("bsde.project_calls", "count", "lower"),
    ("bsde.project_rows", "count", "lower"),
    ("adjoint.first_order_s", "s", "lower"),
    ("adjoint.first_order_calls", "count", "lower"),
    ("adjoint.second_order_s", "s", "lower"),
    ("adjoint.second_order_calls", "count", "lower"),
    ("adjoint.second_order_coef_mb", "MB", "lower"),
    ("hamiltonian.minimize_step_s", "s", "lower"),
    ("hamiltonian.minimize_step_calls", "count", "lower"),
    ("hamiltonian.h_evals", "count", "lower"),
    ("hamiltonian.penalty_evals", "count", "lower"),
    ("hamiltonian.changed_frac", "ratio", "higher"),
    ("model.coef_calls", "count", "lower"),
    ("model.deriv_calls", "count", "lower"),
    ("msa.compute_mu_s", "s", "lower"),
    ("msa.self_s", "s", "lower"),
    ("msa.iterations", "count", "lower"),
    ("benchmarks.tree_bruteforce_share", "ratio", "lower"),
    ("benchmarks.policies", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="regenerate BENCHMARK.json and exit")
    ap.add_argument("--memory-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class Tally:
    """Attempts, failures and the behaviour fingerprint of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.fingerprint = None

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems[:5])


def timed_setup(workload, seed, reps):
    """Import msacontrol afresh and build the inputs, ``reps`` times."""
    times = []
    for _ in range(reps):
        for name in [m for m in sys.modules if m.split(".")[0] == "msacontrol"]:
            del sys.modules[name]
        t0 = time.perf_counter()
        mc = importlib.import_module("msacontrol")
        cases = workload.setup(mc, seed)
        times.append(time.perf_counter() - t0)
    return times, mc, cases


def solve_once(wl, mc, workload, cases, tally, tracer=None):
    """One timed, checked solve: (seconds, outcome), or None when it failed."""
    gc.collect()
    try:
        t0 = time.perf_counter()
        if tracer is None:
            outcome = wl.solve(mc, cases)
        else:
            with tracer.span("solve"):
                outcome = wl.solve(mc, cases)
        elapsed = time.perf_counter() - t0
    except Exception as exc:  # counted as a failed operation; the run goes on
        tally.record([f"{type(exc).__name__}: {exc}"])
        return None
    problems = workload.check(outcome)
    fp = wl.fingerprint(outcome)
    if tally.fingerprint is None:
        tally.fingerprint = fp
    elif fp != tally.fingerprint:
        problems.append(f"trace fingerprint {fp[:16]} differs from {tally.fingerprint[:16]}")
    tally.record(problems)
    return None if problems else (elapsed, outcome)


def mean_iter_ms(outcome):
    walls = [r.wall_ms for res in outcome.results for r in res.records]
    return sum(walls) / len(walls)


def peak_memory_mb(args, tally):
    """Peak traced heap and peak RSS of a fresh process that sets up and solves once.

    The heap peak is 0.0 when that process fails; the failure is counted.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--memory-child"]
    heap_mb = 0.0
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode == 0:
            heap_mb = json.loads(proc.stdout.strip().splitlines()[-1])["peak_heap_mb"]
        tally.record([] if proc.returncode == 0 else
                     [f"fresh-process run failed: {proc.stderr.strip()[-400:]}"])
    except subprocess.TimeoutExpired:
        tally.record([f"fresh-process run exceeded {CHILD_TIMEOUT_S} s"])
    return heap_mb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


def run_plain(wl, mc, workload, cases, tally, deadline, seed, setup_times):
    """Timed solves, each followed by one more timed set-up, all host-scaled.

    A reference job runs before and after every solve and set-up; each time is
    scaled by ``NOMINAL_S`` over the mean of the two reference times around it
    (calibrate.py). Spreading the set-up samples over the run lets their
    median see the same stretch of machine time as the solves.
    Returns the scaled solve, iteration and set-up times and the raw solves.
    """
    solves, iters, setups, raw, scales = [], [], [], [], []
    ref = calibrate.reference_s()
    n = 0
    while n < MIN_SOLVES or time.perf_counter() < deadline:
        n += 1
        got = solve_once(wl, mc, workload, cases, tally)
        ref_after = calibrate.reference_s()
        if got:
            scale = 2 * calibrate.NOMINAL_S / (ref + ref_after)
            solves.append(got[0] * scale)
            iters.append(mean_iter_ms(got[1]) * scale)
            raw.append(got[0])
            scales.append(scale)
        setup = timed_setup(workload, seed, 1)[0][0]
        ref = calibrate.reference_s()
        setups.append(setup * 2 * calibrate.NOMINAL_S / (ref_after + ref))
        setup_times.append(setup)
    return solves, iters, setups, raw, scales


def layer_values(tracer, rep, elapsed, outcome):
    times = tracer.layer_times(rep)
    c = tracer.counts
    out = {k: v for k, v in times.items() if k.endswith("_s")}
    out.update({
        "stochastics.simulate_forward_calls": c["stochastics.simulate_forward"],
        "bsde.solve_state_bsde_calls": c["bsde.solve_state_bsde"],
        "bsde.project_calls": c["bsde.project"],
        "bsde.project_rows": c["bsde.project_rows"],
        "adjoint.first_order_calls": c["adjoint.first_order"],
        "adjoint.second_order_calls": c["adjoint.second_order"],
        "adjoint.second_order_coef_mb": c["adjoint.second_order_coef_mb"],
        "hamiltonian.minimize_step_calls": c["hamiltonian.minimize_step"],
        "hamiltonian.h_evals": c["hamiltonian.h"],
        "hamiltonian.penalty_evals": c["hamiltonian.penalty"],
        "hamiltonian.changed_frac": c["hamiltonian.changed"] / max(c["hamiltonian.controls"], 1),
        "model.coef_calls": c["model.coef"],
        "model.deriv_calls": c["model.deriv"],
        "msa.iterations": sum(len(res.records) for res in outcome.results),
        "benchmarks.tree_bruteforce_share": times["benchmarks.tree_bruteforce"] / elapsed,
        "benchmarks.policies": c["benchmarks.policies"],
    })
    return out


def run_traced(wl, mc, workload, cases, args, tally, deadline):
    """Alternate untraced and traced solves; the traced one re-runs set-up too."""
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    rep = 0
    while rep < MIN_SOLVES or time.perf_counter() < deadline:
        rep += 1
        got = solve_once(wl, mc, workload, cases, tally)
        if got:
            plain.append(got[0])
        tracer.begin(rep)
        with tracing.instrument(mc, tracer):
            with tracer.span("setup"):
                traced_cases = workload.setup(mc, args.seed)
            traced_cases = [tracing.instrument_case(mc, c, tracer) for c in traced_cases]
            got = solve_once(wl, mc, workload, traced_cases, tally, tracer)
        if got:
            traced.append(got[0])
            layers.append(layer_values(tracer, rep, *got))
    return plain, traced, layers, tracer


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def manifest(wl):
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)   # before numpy loads BLAS
    import numpy as np
    import workloads as wl

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(wl), indent=2) + "\n")
        return 0
    if not (SRC / "msacontrol" / "__init__.py").is_file():
        print(f"error: no msacontrol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in wl.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    args.seed = seed
    workload = wl.WORKLOADS[args.workload]
    tally = Tally()

    if args.memory_child:
        tracemalloc.start()   # numpy reports its array buffers to tracemalloc too
    setup_times, mc, cases = timed_setup(workload, seed, 1 if args.memory_child else SETUP_REPS)
    if not Path(mc.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported msacontrol from {mc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.memory_child:
        if not solve_once(wl, mc, workload, cases, tally):
            return 1
        print(json.dumps({"peak_heap_mb": tracemalloc.get_traced_memory()[1] / 1e6}))
        return 0

    tally.record(wl.derivative_failures(mc, cases))
    deadline = time.perf_counter() + args.seconds
    solve_once(wl, mc, workload, cases, tally)  # warm-up, checked but not timed
    report = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(np)}
    if args.trace:
        plain, traced, layers, tracer = run_traced(wl, mc, workload, cases, args, tally,
                                                   deadline)
        if not (plain and traced):
            print(f"error: no successful solve; {tally.errors[:3]}", file=sys.stderr)
            return 1
        # median_low keeps counts whole; they repeat exactly across solves
        values = {name: statistics.median_low(rep[name] for rep in layers)
                  for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        units = {n: u for n, u, _ in PER_LAYER}
        report.update(plain_solve_s=plain, traced_solve_s=traced, layers=layers,
                      spans=tracer.spans)
    else:
        solves, iters, setups, raw, scales = run_plain(wl, mc, workload, cases, tally,
                                                       deadline, seed, setup_times)
        heap_mb, rss_mb = peak_memory_mb(args, tally)
        if not solves:
            print(f"error: no successful solve; {tally.errors[:3]}", file=sys.stderr)
            return 1
        values = {"solve_s": statistics.median(solves), "iter_ms": statistics.median(iters),
                  "peak_heap_mb": heap_mb, "setup_s": statistics.median(setups)}
        units = {n: u for n, u, _, _ in END_TO_END}
        report.update(solve_s=solves, iter_ms=iters, setup_s=setups, wall_solve_s=raw,
                      wall_setup_s=setup_times, scales=scales, peak_rss_mb=rss_mb)

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = tally.failed == 0
    report.update(correct=correct, attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors, fingerprint=tally.fingerprint, metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    out_file = RESULTS / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report))

    env = report["environment"]
    print(f"workload {args.workload}  seed {seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"fingerprint  {tally.fingerprint}")
    if not args.trace:
        print(f"solve_s samples {len(solves)}  median {values['solve_s']:.4f}  "
              f"p90 {quantile(solves, 0.9):.4f}  max {max(solves):.4f} s  "
              f"(unscaled wall median {statistics.median(raw):.4f} s)")
        print(f"peak RSS of the fresh process {rss_mb:.1f} MB (not bounded: on a shared host it "
              f"moves between runs of the same code)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {tally.failed / tally.attempted:>14.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    for err in tally.errors[:10]:
        print(f"  failure: {err}")
    print(f"details  {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
