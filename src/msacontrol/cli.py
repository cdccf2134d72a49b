"""Experiment subcommands: run (CSV trace), oracle (tree optimum), rate (m*gap).

Flags may be seeded from a KEY=VALUE config file (--config); explicit flags
win. All floating output is printed with 17 significant digits so emitted
files round-trip the in-memory values exactly. Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import os
import sys
from typing import Optional

from .benchmarks import tree_bruteforce
from .bsde import RegressionBackend
from .errors import ConfigurationError, NumericalError, SimulationError
from .msa import MsaConfig, run_msa
from .problems import Benchmark, example41, linrec_desk, lq_desk

_RUN_HEADER = "iter,J,J_stderr,mu,mu_stderr,descent,wall_ms"
_RATE_HEADER = "iter,gap,iter_times_gap"

# Each flag's (type, default, help); a --config file accepts the same keys.
_FLAGS = {
    "problem": (str, "example41", "example41 | lq | linear-recursive | path/to/problem.py"),
    "L": (float, 0.1, "sine-driver scale"),
    "rho": (float, None, "penalty weight override (default: problem's)"),
    "paths": (int, 10000, None),
    "steps": (int, 20, "time steps (tree depth for oracle)"),
    "iters": (int, 10, None),
    "epsilon": (float, None, "stopping tolerance on the J descent (default: none)"),
    "seed": (int, 0, None),
    "degree": (int, 2, "regression basis degree"),
    "out": (str, "-", "CSV path, '-' for stdout"),
    "mode": (str, "nonrecombining", "tree policy class (oracle only)"),
}
_MODES = ("nonrecombining", "recombining")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, val = (part.strip() for part in line.partition("="))
                if not eq:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected KEY=VALUE, got '{line}'")
                if key not in _FLAGS:
                    raise ConfigurationError(f"{path}:{lineno}: unknown key '{key}'")
                values[key] = val
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace, file_values: dict):
    """Flags win over the config file, the file wins over defaults."""
    merged = {}
    for key, (cast, default, _) in _FLAGS.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
        elif key in file_values:
            try:
                merged[key] = cast(file_values[key])
            except ValueError as exc:
                raise ConfigurationError(
                    f"config file value for {key} is not valid: {exc}") from exc
        else:
            merged[key] = default
    return merged


def _load_problem(selector: str, L: float) -> Benchmark:
    if selector == "example41":
        return example41(L)
    if selector == "lq":
        return lq_desk()
    if selector == "linear-recursive":
        return linrec_desk()
    if selector.endswith(".py"):
        if not os.path.isfile(selector):
            raise ConfigurationError(f"problem file not found: {selector}")
        spec_loader = importlib.util.spec_from_file_location("msacontrol_custom", selector)
        if spec_loader is None:
            raise ConfigurationError(f"cannot load problem file {selector}")
        module = importlib.util.module_from_spec(spec_loader)
        try:
            spec_loader.loader.exec_module(module)
            bench = module.make_problem() if hasattr(module, "make_problem") else None
        except Exception as exc:
            raise ConfigurationError(
                f"problem file {selector} raised {type(exc).__name__}: {exc}") from exc
        if not hasattr(module, "make_problem"):
            raise ConfigurationError(
                f"problem file {selector} must define make_problem() -> Benchmark")
        if not isinstance(bench, Benchmark):
            raise ConfigurationError("make_problem() must return a Benchmark")
        return bench
    raise ConfigurationError(
        f"unknown problem '{selector}' (expected example41, lq, linear-recursive, "
        "or a .py file)")


def _open_out(path: str):
    """A context manager for the output: the file at ``path``, or stdout for "-"."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write output file {path}: {exc}") from exc


def _run_solver(cfg: dict):
    bench = _load_problem(cfg["problem"], cfg["L"])
    rho = cfg["rho"] if cfg["rho"] is not None else bench.rho
    config = MsaConfig(rho=rho, n_paths=cfg["paths"], steps=cfg["steps"],
                       seed=cfg["seed"], max_iters=cfg["iters"],
                       epsilon=cfg["epsilon"],
                       backend=RegressionBackend(degree=cfg["degree"]))
    result = run_msa(bench.spec, bench.domain, config, "random", hints=bench.hints)
    return bench, result


def cmd_run(cfg: dict) -> int:
    bench, result = _run_solver(cfg)
    if bench.spec.bounds.df is not None:
        print(f"# declared bounds: dF<= {bench.spec.bounds.df}, "
              f"rho= {_g17(cfg['rho'] if cfg['rho'] is not None else bench.rho)}",
              file=sys.stderr)
    with _open_out(cfg["out"]) as fh:
        fh.write(_RUN_HEADER + "\n")
        for rec in result.records:
            fh.write(",".join([str(rec.m), _g17(rec.j), _g17(rec.j_stderr),
                               _g17(rec.mu), _g17(rec.mu_stderr),
                               _g17(rec.descent), _g17(rec.wall_ms)]) + "\n")
    return 0


def cmd_oracle(cfg: dict) -> int:
    bench = _load_problem(cfg["problem"], cfg["L"])
    tree = tree_bruteforce(bench.spec, bench.domain, cfg["steps"], mode=cfg["mode"])
    print(f"Jstar={_g17(tree.jstar)}")
    print(f"mode={tree.mode} decision_nodes={tree.decision_nodes} "
          f"policies={tree.policy_count} enumerated={tree.enumerated}")
    # decision nodes step by step: 2^j branches at step j, or j + 1 when recombining
    labels = [(j, h) for j in range(cfg["steps"])
              for h in range(2 ** j if tree.mode == "nonrecombining" else j + 1)]
    for i, (j, h) in enumerate(labels):
        u = " ".join(_g17(v) for v in tree.policy[i])
        print(f"node={i} step={j} branch={h} u={u}")
    return 0


def cmd_rate(cfg: dict) -> int:
    if cfg["problem"] != "lq":
        raise ConfigurationError("rate requires --problem lq (known optimum)")
    bench, result = _run_solver(cfg)
    jstar = bench.jstar if bench.jstar is not None else 0.0
    m0 = next((rec.m for rec in result.records if -rec.mu < 0.5),
              result.records[-1].m if result.records else 1)
    gaps = [(rec.m, rec.j - jstar) for rec in result.records]
    c1 = max((g for m, g in gaps if m == m0), default=1.0)
    c1 = max(c1, 1.0)
    worst = max((m * g for m, g in gaps if m >= m0), default=0.0)
    with _open_out(cfg["out"]) as fh:
        fh.write(_RATE_HEADER + "\n")
        for m, g in gaps:
            fh.write(f"{m},{_g17(g)},{_g17(m * g)}\n")
    print(f"m0={m0} C1={_g17(c1)} max_iter_times_gap={_g17(worst)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msacontrol",
        description="Successive-approximation solver for stochastic recursive control")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("run", "run the solver and write a convergence CSV"),
                           ("oracle", "exact tree optimum"),
                           ("rate", "gap decay table for the quadratic-cost problem")):
        p = sub.add_parser(name, help=helptext)
        for key, (cast, _, flag_help) in _FLAGS.items():
            if key != "mode" or name == "oracle":  # a config file's keys are shared
                p.add_argument(f"--{key}", type=cast, default=None, help=flag_help,
                               choices=_MODES if key == "mode" else None)
        p.add_argument("--config", type=str, default=None, help="KEY=VALUE config file")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = _load_config_file(args.config) if args.config else {}
        cfg = _resolve(args, file_values)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "oracle":
            return cmd_oracle(cfg)
        return cmd_rate(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, SimulationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
