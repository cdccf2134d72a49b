import os
import subprocess
import sys
from pathlib import Path

import pytest

import msacontrol
from msacontrol.cli import main

RUN_HEADER = "iter,J,J_stderr,mu,mu_stderr,descent,wall_ms"


def run_cli(args):
    return main(list(args))


def read_rows(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # line-feed terminated
    return lines[:-1]


def strip_wall(lines):
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestCmdRun:
    def test_csv_schema_and_roundtrip(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(["run", "--problem", "example41", "--L", "0.1",
                        "--paths", "2000", "--steps", "20", "--iters", "3",
                        "--seed", "7", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == RUN_HEADER
        assert len(rows) == 4
        # round-trip: every float parses back exactly to a binary64
        for row in rows[1:]:
            cells = row.split(",")
            assert int(cells[0]) >= 1
            for cell in cells[1:]:
                val = float(cell)
                assert format(val, ".17g") == cell

    def test_cost_settles_by_second_row(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--problem", "example41", "--L", "0.1",
                        "--paths", "4000", "--steps", "20", "--iters", "4",
                        "--seed", "7", "--out", str(out)]) == 0
        rows = read_rows(out)[1:]
        first = rows[0].split(",")
        assert float(first[1]) > 0.0
        for row in rows[1:]:
            cells = row.split(",")
            j, se = float(cells[1]), float(cells[2])
            assert abs(j) <= max(3 * se, 1e-12)

    def test_zero_iterations_header_only(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--iters", "0", "--paths", "100", "--steps", "5",
                        "--out", str(out)]) == 0
        assert read_rows(out) == [RUN_HEADER]

    def test_identical_configs_identical_files_modulo_walltime(self, tmp_path):
        args = ["run", "--problem", "lq", "--paths", "1000", "--steps", "10",
                "--iters", "3", "--seed", "11", "--degree", "1"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert strip_wall(read_rows(out1)) == strip_wall(read_rows(out2))

    def test_unknown_problem_exits_2(self, capsys):
        assert run_cli(["run", "--problem", "nope"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert run_cli(["run", "--paths", "100", "--steps", "5", "--iters", "1",
                        "--out", str(missing)]) == 2

    def test_bad_run_parameters_exit_2(self):
        assert run_cli(["run", "--paths", "0"]) == 2
        assert run_cli(["run", "--epsilon", "-1.0"]) == 2
        for rho in ("-1", "nan", "inf"):  # nan and inf once ran, and failed with exit 3
            assert run_cli(["run", "--rho", rho]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128)], ids=["negative", "2**128"])
    def test_seed_outside_the_philox_keys_exits_2(self, tmp_path, capsys, seed):
        # numpy refused these with a ValueError traceback and exit 1
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--seed", seed, "--paths", "100", "--steps", "5",
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: seed must be ")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"seed={seed}\n")
        assert run_cli(["run", "--config", str(cfg), "--paths", "100", "--steps", "5",
                        "--out", str(out)]) == 2
        assert "seed must be " in capsys.readouterr().err

    def test_config_file_flags_win(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem=example41\nL=0.1\npaths=500\niters=2\n"
                       "steps=10\nseed=3\n# comment line\n")
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--config", str(cfg), "--iters", "1",
                        "--out", str(out)]) == 0
        assert len(read_rows(out)) == 2  # header + 1 row: the flag won

    def test_config_file_unknown_key_exits_2(self, tmp_path, capsys):
        # a misspelt key must not be dropped: this run would have no stopping rule
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("paths=200\n# comment line\nepsilonn=1e-3\n")
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--config", str(cfg), "--steps", "5", "--iters", "1",
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}:3: unknown key 'epsilonn'\n")
        assert not out.exists()

    def test_custom_problem_file(self, tmp_path):
        prob = tmp_path / "myprob.py"
        prob.write_text(
            "import msacontrol as mc\n"
            "def make_problem():\n"
            "    return mc.example41(0.2)\n")
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--problem", str(prob), "--paths", "200",
                        "--steps", "5", "--iters", "1", "--out", str(out)]) == 0
        assert len(read_rows(out)) == 2

    @pytest.mark.parametrize("source, error", [
        ("def make_problem(:\n", "SyntaxError"),
        ("import msacontrol as mc\n1 / 0\n", "ZeroDivisionError"),
        ("def make_problem():\n    raise KeyError('L')\n", "KeyError"),
    ])
    def test_broken_problem_file_exits_2(self, tmp_path, capsys, source, error):
        prob = tmp_path / "broken.py"
        prob.write_text(source)
        assert run_cli(["run", "--problem", str(prob), "--paths", "200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(prob) in err and error in err

    def test_missing_problem_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.py"
        assert run_cli(["run", "--problem", str(missing)]) == 2
        assert f"problem file not found: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("paths=200\nsteps 5\n", "{cfg}:2: expected KEY=VALUE, got 'steps 5'"),
        ("paths=many\n", "config file value for paths is not valid: "),
        ("epsilon=1e-3\nL=0.1.2\n", "config file value for L is not valid: "),
    ], ids=["no-equals", "paths-not-int", "L-not-float"])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: " + message.format(cfg=cfg))
        assert not out.exists()

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys):
        for path in (tmp_path / "missing.cfg", tmp_path):  # absent, and a directory
            assert run_cli(["run", "--config", str(path), "--iters", "1"]) == 2
            assert capsys.readouterr().err.startswith(
                f"configuration error: cannot read config file {path}: ")

    @pytest.mark.parametrize("source, message", [
        ("import msacontrol as mc\nproblem = mc.example41(0.1)\n",
         "problem file {prob} must define make_problem() -> Benchmark"),
        ("import msacontrol as mc\ndef make_problem():\n    return mc.example41(0.1).spec\n",
         "make_problem() must return a Benchmark"),
    ], ids=["no-make_problem", "returns-a-spec"])
    def test_problem_file_without_a_benchmark_exits_2(self, tmp_path, capsys, source, message):
        prob = tmp_path / "myprob.py"
        prob.write_text(source)
        assert run_cli(["run", "--problem", str(prob), "--paths", "200"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {message.format(prob=prob)}\n")

    @pytest.mark.parametrize("command", [["run", "--paths", "200", "--steps", "5", "--iters",
                                          "1"], ["oracle", "--steps", "3"]],
                             ids=["run", "oracle"])
    def test_domain_of_another_width_exits_2(self, tmp_path, capsys, command):
        prob = tmp_path / "wide_domain.py"
        prob.write_text(
            "import dataclasses\n"
            "import msacontrol as mc\n"
            "def make_problem():\n"
            "    bench = mc.example41(0.1)\n"
            "    return dataclasses.replace(bench, domain=mc.FiniteSet([[0, 0], [1, 1]]))\n")
        out = tmp_path / "run.csv"
        args = command[:1] + ["--problem", str(prob)] + command[1:]
        assert run_cli(args + (["--out", str(out)] if command[0] == "run" else [])) == 2
        assert capsys.readouterr().err == (
            "configuration error: control domain has k = 2, the problem k = 1\n")
        assert not out.exists()

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        prob = tmp_path / "nan_terminal.py"
        prob.write_text(
            "import dataclasses\n"
            "import numpy as np\n"
            "import msacontrol as mc\n"
            "def make_problem():\n"
            "    bench = mc.example41(0.1)\n"
            "    spec = dataclasses.replace(bench.spec,\n"
            "                               terminal=lambda x: np.full(len(x), np.nan))\n"
            "    return dataclasses.replace(bench, spec=spec)\n")
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--problem", str(prob), "--paths", "200", "--steps", "5",
                        "--iters", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: iteration 1: step 5: non-finite solution on path 0\n")
        assert not out.exists()


class TestCmdOracle:
    def test_example41_prints_zero_optimum(self, capsys):
        assert run_cli(["oracle", "--problem", "example41", "--L", "0.1",
                        "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "Jstar=0" in out
        assert out.count("node=") == 7

    def test_lq_desk_zero_optimum(self, capsys):
        assert run_cli(["oracle", "--problem", "lq", "--steps", "3"]) == 0
        assert "Jstar=0" in capsys.readouterr().out

    def test_budget_exceeded_exits_2(self, tmp_path, capsys):
        # f = 5 z fails the comparison condition at depth 4, and 3^15 policies
        # are over the enumeration's budget
        prob = tmp_path / "zdriven.py"
        prob.write_text(
            "import numpy as np\n"
            "import msacontrol as mc\n"
            "def make_problem():\n"
            "    bench = mc.lq_desk()\n"
            "    spec = mc.ProblemSpec.build(\n"
            "        n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,\n"
            "        drift=lambda t, x, u: u.astype(float),\n"
            "        diffusion=lambda t, x, u: np.full((len(x), 1, 1), 0.5),\n"
            "        driver=lambda t, x, y, z, u: 5.0 * z[:, 0],\n"
            "        terminal=lambda x: x[:, 0] ** 2)\n"
            "    return mc.Benchmark('z-driven', spec, bench.domain, 0.0, mc.RunHints())\n")
        assert run_cli(["oracle", "--problem", str(prob), "--steps", "4"]) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "rate"])
    def test_mode_flag_belongs_to_oracle_only(self, command, capsys):
        # run once took --mode, ignored it and exited 0
        with pytest.raises(SystemExit) as info:
            run_cli([command, "--problem", "lq", "--mode", "recombining", "--paths", "64",
                     "--steps", "3", "--iters", "1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --mode recombining" in capsys.readouterr().err

    def test_config_file_mode_is_read_by_oracle(self, tmp_path, capsys):
        # config-file keys stay shared by every subcommand; oracle reads the mode
        cfg = tmp_path / "tree.cfg"
        cfg.write_text("problem=lq\nsteps=3\nmode=recombining\n")
        assert run_cli(["oracle", "--config", str(cfg)]) == 0
        assert "mode=recombining decision_nodes=6" in capsys.readouterr().out

    def test_row_budget_exits_2(self, capsys):
        # lq declares df = 0, but 6^7 rows of the induction are over the budget
        assert run_cli(["oracle", "--problem", "lq", "--steps", "7"]) == 2
        assert "backward induction needs 279936 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["nonrecombining", "recombining"])
    def test_lq_depth_6_by_backward_induction(self, capsys, mode):
        assert run_cli(["oracle", "--problem", "lq", "--steps", "6", "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert "Jstar=0\n" in out and "enumerated=False" in out


class TestCmdRate:
    def test_requires_lq(self, capsys):
        assert run_cli(["rate", "--problem", "example41"]) == 2

    def test_gap_table_and_summary(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        assert run_cli(["rate", "--problem", "lq", "--paths", "4000",
                        "--steps", "10", "--iters", "6", "--seed", "3",
                        "--degree", "1", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == "iter,gap,iter_times_gap"
        assert len(rows) == 7
        summary = capsys.readouterr().out
        assert "m0=" in summary and "C1=" in summary
        m0 = int(summary.split("m0=")[1].split()[0])
        c1 = float(summary.split("C1=")[1].split()[0])
        for row in rows[1:]:
            m, gap, mg = row.split(",")
            if int(m) >= m0:
                assert float(mg) <= c1 + 1e-12


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child imports the same package as this process, installed or not
        package_root = str(Path(msacontrol.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "run.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "msacontrol.cli", "run", "--paths", "200",
             "--steps", "5", "--iters", "1", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert out.exists()
