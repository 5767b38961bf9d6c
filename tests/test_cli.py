import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from causalprecode import (
    BudgetExceededError,
    ChannelSpec,
    assign,
    cli,
    entropy,
    format_spec_text,
    noise_power_for_snr_db,
    optimize,
    sim,
)
from causalprecode.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    assignment_id,
    format_code_text,
    parse_code_text,
    run,
)
from helpers import CHAIN_128X2, random_spec, riemann_entropy

BINARY_SPEC = """\
constellation = -1.0 1.0
interference_levels = -1.0 1.0
interference_probs = 0.5 0.5
noise_power = {noise}
"""

COUNTEREXAMPLE_SPEC = """\
constellation = 0 1 2 4
interference_levels = 0 1 3
interference_probs = 0.4 0.3 0.3
noise_power = 0
"""


@pytest.fixture
def chain_spec_file(tmp_path):
    path = tmp_path / "chain128x2.spec"
    path.write_text(format_spec_text(CHAIN_128X2))
    return str(path)


@pytest.fixture
def binary_spec_file(tmp_path):
    def write(noise=0.1):
        path = tmp_path / "binary.spec"
        path.write_text(BINARY_SPEC.format(noise=noise))
        return str(path)

    return write


class TestCodeFiles:
    def test_round_trip(self):
        from causalprecode import PrecoderCode

        code = PrecoderCode(((1, 2, 3), (2, 3, 1), (3, 1, 2)))
        assert parse_code_text(format_code_text(code)).symbols == code.symbols

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="integers"):
            parse_code_text("1 x\n")
        with pytest.raises(ValueError, match="no symbols"):
            parse_code_text("# only a comment\n")


def test_assignment_id_is_sorted_and_csv_safe():
    aid = assignment_id([(2, 1), (1, 2)])
    assert aid == "1-2;2-1"
    assert "," not in aid


class TestUniformCommand:
    def test_binary_15db(self, binary_spec_file, capsys):
        # 15 dB: noise power 10^(-1.5)
        path = binary_spec_file(noise=10 ** (-1.5))
        assert run(["uniform", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(1,2)  p=0.5" in out
        assert "(2,1)  p=0.5" in out


class TestNoisefreeCommand:
    def test_counterexample_certificate(self, tmp_path, capsys):
        path = tmp_path / "ce.spec"
        path.write_text(COUNTEREXAMPLE_SPEC)
        assert run(["noisefree", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "no zero-error code of rate 2 bits" in out

    def test_constructive_certificate(self, binary_spec_file, tmp_path, capsys):
        path = binary_spec_file(noise=0.0)
        out_file = tmp_path / "code.txt"
        assert run(["noisefree", path, "--out", str(out_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        code = parse_code_text(out_file.read_text())
        assert set(code.symbols) == {(1, 2), (2, 1)}

    def test_any_q_beyond_the_dense_cap(self, tmp_path, capsys):
        # PAM-4 with Q = 12 has 4^12 = 16.8M symbols, beyond the dense cap,
        # but the construction is O(MQ); the commands that build the cost
        # tensor exit 3 on their budgets before any work.
        path = tmp_path / "q12.spec"
        path.write_text(
            "constellation = -3 -1 1 3\n"
            "interference_levels = " + " ".join(repr(0.37 * k) for k in range(12)) + "\n"
            "interference_probs = " + " ".join([repr(1 / 12)] * 12) + "\n"
            "noise_power = 0\n"
        )
        assert run(["noisefree", str(path)]) == EXIT_OK
        assert "disjointness: PASS" in capsys.readouterr().out
        tracemalloc.start()
        try:
            codes = [run([cmd, str(path)] + extra) for cmd, extra in
                     (("uniform", []), ("assign", []), ("capacity", []),
                      ("sweep", ["--snr-db=0:10:5"]))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codes == [EXIT_BUDGET] * 4
        assert peak < 1 << 20

    def test_budget_exit_code(self, tmp_path):
        # non-progression constellation with M=6 exceeds the search budget
        path = tmp_path / "big.spec"
        path.write_text(
            "constellation = 0 1 2 4 8 16\n"
            "interference_levels = 0 1\n"
            "interference_probs = 0.5 0.5\n"
            "noise_power = 0\n"
        )
        assert run(["noisefree", str(path)]) == EXIT_BUDGET


class TestAssignCommand:
    def test_q3_uses_exact_multidim(self, tmp_path, capsys):
        path = tmp_path / "q3.spec"
        path.write_text(
            "constellation = -1 0 1\n"
            "interference_levels = -0.5 0 0.5\n"
            "interference_probs = 0.3 0.4 0.3\n"
            "noise_power = 0.2\n"
        )
        assert run(["assign", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "rate bits:" in out
        # three code lines of three indices each
        code_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(code_lines) == 3
        assert all(len(l.split()) == 3 for l in code_lines)


    def test_q2_beyond_the_budget_fails_before_the_cost_tensor(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "m129.spec"
        path.write_text(
            "constellation = " + " ".join(str(i) for i in range(129)) + "\n"
            "interference_levels = 0 0.5\n"
            "interference_probs = 0.5 0.5\n"
            "noise_power = 0.1\n"
        )
        monkeypatch.setattr(entropy, "cost_tensor", no_cost_tensor)
        assert run(["assign", str(path)]) == EXIT_BUDGET
        assert "M<=128" in capsys.readouterr().err


def no_cost_tensor(*args, **kwargs):
    raise AssertionError("cost tensor built before the checks")


@pytest.mark.parametrize(
    "argv,tensors",
    [(["uniform"], 1), (["assign"], 1), (["capacity"], 1),
     (["sweep", "--snr-db=0:10:5"], 3), (["sweep", "--snr-db=0:10:5", "--with-ba"], 3)],
)
def test_one_cost_tensor_per_call_or_sweep_point(
    argv, tensors, binary_spec_file, monkeypatch, capsys
):
    # Every LP, rate and capacity of a command, or of a sweep point, reads
    # the one tensor built for its spec.
    built = []
    cost_tensor = entropy.cost_tensor
    monkeypatch.setattr(
        entropy, "cost_tensor", lambda spec: built.append(spec.noise_power) or cost_tensor(spec)
    )
    assert run([argv[0], binary_spec_file(), *argv[1:]]) == EXIT_OK
    assert len(built) == len(set(built)) == tensors


@pytest.mark.parametrize("extra", [[], ["--with-ba"]], ids=["lp-only", "with-ba"])
def test_one_stacked_output_entropy_per_sweep(extra, binary_spec_file, monkeypatch, capsys):
    # A 66-point binary sweep splits 67 sets of mixtures: each point's cost
    # tensor, 4 mixtures, and one stack of every point's h(Y).
    rows = []
    mixture = entropy._mixture_entropies
    monkeypatch.setattr(entropy, "_mixture_entropies",
                        lambda *args: rows.append(len(args[0])) or mixture(*args))
    assert run(["sweep", binary_spec_file(), "--snr-db=-5:60:1", *extra]) == EXIT_OK
    assert sorted(rows) == [4] * 66 + [66]


def _refuse(*args, **kwargs):
    raise AssertionError("built per call")


class TestOneParserPerProcess:
    """`run` parses with the parser built at import, and the entropy layer
    reads the quadrature rule computed at import."""

    def test_no_parser_or_rule_built_per_call(self, binary_spec_file, tmp_path, monkeypatch, capsys):
        path = binary_spec_file(noise=0.1)
        code = tmp_path / "code.txt"
        code.write_text("1 2\n2 1\n")
        commands = [
            ["capacity", path], ["uniform", path], ["assign", path], ["noisefree", path],
            ["simulate", path, "--code", str(code), "--trials", "20000", "--seed", "3"],
            ["sweep", path, "--snr-db=0:10:5", "--with-ba"],
        ]

        def outputs():
            got = []
            for argv in commands:
                assert run(argv) == EXIT_OK
                got.append(capsys.readouterr())
            return got

        before = outputs()
        # A memo filled by the calls above would hide per-call construction.
        for name, module in list(sys.modules.items()):
            if name.startswith("causalprecode"):
                for fn in vars(module).values():
                    if hasattr(fn, "cache_clear"):
                        fn.cache_clear()
        monkeypatch.setattr(cli, "build_parser", _refuse)
        monkeypatch.setattr(entropy, "leggauss", _refuse)
        assert outputs() == before

    def test_assign_to_a_file_then_to_stdout(self, binary_spec_file, tmp_path, capsys):
        path = binary_spec_file(noise=0.1)
        out = tmp_path / "code.txt"
        assert run(["assign", path, "--out", str(out)]) == EXIT_OK
        assert f"code file written: {out}" in capsys.readouterr().out
        assert run(["assign", path]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "code file written" not in printed
        assert printed.endswith(out.read_text())

    def test_simulate_with_workers_then_the_default(self, binary_spec_file, tmp_path, capsys):
        path = binary_spec_file(noise=0.1)
        code = tmp_path / "code.txt"
        code.write_text("1 2\n2 1\n")
        argv = ["simulate", path, "--code", str(code), "--trials", "40000", "--seed", "5"]
        assert run(argv + ["--workers", "2"]) == EXIT_OK
        with_workers = capsys.readouterr().out
        parsed = []
        simulate = sim.simulate

        def recorded(*args, **kwargs):
            parsed.append(kwargs["workers"])
            return simulate(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "simulate", recorded)
            assert run(argv) == EXIT_OK
        assert parsed == [1]
        assert capsys.readouterr().out == with_workers

    def test_sweep_with_ba_then_without(self, binary_spec_file, capsys):
        path = binary_spec_file()
        assert run(["sweep", path, "--snr-db=0:10:5", "--with-ba"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert all(row[2] != "" for row in rows)
        assert run(["sweep", path, "--snr-db=0:10:5"]) == EXIT_OK
        plain = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(plain) == 3
        assert all(row[2] == "" for row in plain)
        assert [row[:2] + row[3:] for row in plain] == [row[:2] + row[3:] for row in rows]

    def test_usage_error_then_a_valid_call(self, binary_spec_file, capsys):
        path = binary_spec_file(noise=0.1)
        assert run(["uniform", path]) == EXIT_OK
        valid = capsys.readouterr().out
        assert run(["uniform", path, "--tol", "1"]) == EXIT_BAD_INPUT
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert run(["uniform", path]) == EXIT_OK
        assert capsys.readouterr().out == valid


class TestSimulateCommand:
    def test_assign_then_simulate(self, binary_spec_file, tmp_path, capsys):
        path = binary_spec_file(noise=0.01)
        code_file = tmp_path / "code.txt"
        assert run(["assign", path, "--out", str(code_file)]) == EXIT_OK
        capsys.readouterr()
        assert run(
            ["simulate", path, "--code", str(code_file), "--trials", "20000",
             "--seed", "7"]
        ) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "seed,trials,snr_db,ser,empirical_mi_bits"
        fields = out[1].split(",")
        assert fields[0] == "7" and fields[1] == "20000"
        assert float(fields[2]) == pytest.approx(20.0)

    def test_trials_beyond_the_budget_fail_before_any_work(
        self, binary_spec_file, tmp_path, capsys
    ):
        # 10^15 trials would plan 6.1e10 batches, more than memory holds.
        path = binary_spec_file(noise=0.01)
        code_file = tmp_path / "code.txt"
        code_file.write_text("1 2\n2 1\n")
        assert run(["simulate", path, "--code", str(code_file),
                    "--trials", "1000000000000000"]) == EXIT_BUDGET
        assert "beyond the budget" in capsys.readouterr().err

    def test_workspace_beyond_the_budget_fails_before_any_workspace_or_thread(
        self, tmp_path, monkeypatch, capsys
    ):
        # M = 33, Q = 2 and 513 distinct messages: a batch of 2^14 trials
        # would take 1,026 x 2^14 exponents, beyond 2^24. A run of 1,000
        # trials takes 1,026,000 and goes ahead.
        path = tmp_path / "m33.spec"
        path.write_text(
            "constellation = " + " ".join(str(i) for i in range(33)) + "\n"
            "interference_levels = 0 0.5\n"
            "interference_probs = 0.5 0.5\n"
            "noise_power = 0.1\n"
        )
        code_file = tmp_path / "code.txt"
        code_file.write_text("".join(f"{k // 33 + 1} {k % 33 + 1}\n" for k in range(513)))
        argv = ["simulate", str(path), "--code", str(code_file), "--workers", "2"]
        assert run(argv + ["--trials", "1000"]) == EXIT_OK
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("built before the budget check")

        monkeypatch.setattr(sim, "_Workspace", refuse)
        monkeypatch.setattr(sim, "ThreadPoolExecutor", refuse)
        assert run(argv) == EXIT_BUDGET
        assert "beyond the budget of 16777216" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_noise_power_that_overflows_the_decoder_is_bad_input(
        self, binary_spec_file, tmp_path, capsys
    ):
        # X = S = {-1, +1} with the zero-error code: at P_N = 1e-308 the
        # decoder's exponents overflow (it read SER 0.50174 and MI nan), at
        # 1e-300 they do not.
        code_file = tmp_path / "code.txt"
        code_file.write_text("1 2\n2 1\n")
        argv = ["--code", str(code_file), "--trials", "50000", "--seed", "3"]
        assert run(["simulate", binary_spec_file(noise=1e-308)] + argv) == EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: noise power 1e-308 is too small to simulate")
        assert err.count("\n") == 1
        assert run(["simulate", binary_spec_file(noise=1e-300)] + argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.splitlines()[1] == "3,50000,3000,0,1"  # snr_db 3000, SER 0, MI 1
        assert err == ""


class TestCapacityCommand:
    def test_reports_and_converges(self, binary_spec_file, capsys):
        path = binary_spec_file(noise=0.1)
        assert run(["capacity", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "capacity_bits" in out and "support-reduced" in out

    def test_one_lp_per_job_and_the_capacity_pmf_printed(
        self, binary_spec_file, monkeypatch, capsys
    ):
        path = binary_spec_file(noise=0.1)
        spec = cli.load_spec(path)
        result = optimize.capacity(spec, entropy.cost_tensor(spec))
        solved = []
        solve = optimize.solve_uniform_lp

        def counted(costs):
            solved.append(costs)
            return solve(costs)

        monkeypatch.setattr(optimize, "solve_uniform_lp", counted)
        assert run(["capacity", path]) == EXIT_OK
        assert len(solved) == 1  # the uniform-LP start; no support_reduce
        lines = capsys.readouterr().out.splitlines()
        support = result.pmf.support()
        assert lines[2] == f"support-reduced pmf ({len(support)} symbols, bound 3):"
        assert lines[3:3 + len(support)] == [
            f"  ({cli._symbol_str(t)})  p={cli._fmt(result.pmf.prob(t))}" for t in support]

    def test_prints_the_solvers_own_mutual_information(
        self, binary_spec_file, monkeypatch, capsys
    ):
        # The MI line is the I(p) the solver certified: no h(Y) is integrated again.
        monkeypatch.setattr(entropy, "mutual_information", _refuse)
        monkeypatch.setattr(entropy, "output_entropy", _refuse)
        monkeypatch.setattr(entropy, "output_entropies", _refuse)
        assert run(["capacity", binary_spec_file(noise=0.1)]) == EXIT_OK
        out = capsys.readouterr().out
        capacity = out.split("capacity_bits (discretized channel): ")[1].split()[0]
        reduced = out.split("support-reduced mutual information bits: ")[1].split()[0]
        assert capacity == reduced

    def test_nonconvergence_exit(self, binary_spec_file, capsys):
        path = binary_spec_file(noise=0.1)
        assert run(["capacity", path, "--max-iter", "1"]) == EXIT_NO_CONVERGENCE
        assert "iterations: 1  converged: False" in capsys.readouterr().out

    def test_tolerance_that_can_never_be_met_is_bad_input(self, binary_spec_file, capsys):
        path = binary_spec_file(noise=0.1)
        for tol in ("nan", "0", "-1", "inf"):
            assert run(["capacity", path, f"--tol={tol}"]) == EXIT_BAD_INPUT
            assert "tol must be finite and positive" in capsys.readouterr().err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x,bits",
        [((-1.0, 1.0), 1.0), ((-3.0, -1.0, 1.0, 3.0), 2.0)],
        ids=["binary", "pam4q2"],
    )
    def test_capacity_is_flat_in_snr(self, x, bits, tmp_path, capsys):
        # Both reach log2 M bits at every SNR. Nodes at their absolute
        # positions, lowest mean + sigma * offset, would lose sigma to
        # rounding: 2.5e-8 bits too many at 200 dB, no convergence at 300.
        spec = ChannelSpec(x, (-1.0, 1.0), (0.4, 0.6), 1.0)
        for snr in (60.0, 120.0, 200.0, 400.0):
            path = tmp_path / f"{snr:g}.spec"
            path.write_text(format_spec_text(
                replace(spec, noise_power=noise_power_for_snr_db(x, snr))))
            assert run(["capacity", str(path)]) == EXIT_OK
            out = capsys.readouterr().out
            assert "converged: True" in out
            got = float(out.split("capacity_bits (discretized channel):")[1].split()[0])
            assert got == pytest.approx(bits, abs=1e-9)
        out_csv = tmp_path / "sweep.csv"
        assert run(["sweep", str(path), "--snr-db=60:400:20", "--with-ba",
                    "--out", str(out_csv)]) == EXIT_OK
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[2:]]
        assert [float(row[0]) for row in rows] == [60.0 + 20.0 * k for k in range(18)]
        assert all(float(row[2]) == pytest.approx(bits, abs=1e-9) for row in rows)

    def test_bad_options_fail_before_the_cost_tensor(
        self, binary_spec_file, monkeypatch, capsys
    ):
        path = binary_spec_file(noise=0.1)
        monkeypatch.setattr(entropy, "cost_tensor", no_cost_tensor)
        assert run(["capacity", path, "--tol=nan"]) == EXIT_BAD_INPUT
        assert run(["capacity", path, "--max-iter", "0"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "tol must be finite and positive" in err
        assert "max_iter must be at least 1" in err


class TestBadInput:
    def test_malformed_spec_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.spec"
        path.write_text("constellation = -1 1\nnoise_power = 0.1\n")
        assert run(["uniform", str(path)]) == EXIT_BAD_INPUT
        assert "interference_levels" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["uniform", "/nonexistent.spec"]) == EXIT_BAD_INPUT

    def test_usage_error(self, capsys):
        assert run(["sweep"]) == EXIT_BAD_INPUT  # missing required args

    def test_marginal_matrix_beyond_the_budget_fails_before_any_work(self, tmp_path, capsys):
        # M = 16, Q = 5: 16^5 symbols are within the dense cap, but the LP's MQ
        # constraints times M^Q columns make 83.9M, beyond the budget, which
        # `assign` takes for Q != 2.
        path = tmp_path / "big.spec"
        path.write_text(
            "constellation = " + " ".join(str(i) for i in range(16)) + "\n"
            "interference_levels = 0 0.1 0.2 0.3 0.4\n"
            "interference_probs = 0.2 0.2 0.2 0.2 0.2\n"
            "noise_power = 0.01\n"
        )
        tracemalloc.start()
        try:
            codes = [run([cmd, str(path)] + extra) for cmd, extra in
                     (("uniform", []), ("capacity", []), ("sweep", ["--snr-db=0:10:5"]),
                      ("assign", []))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codes == [EXIT_BUDGET] * 4
        assert peak < 1 << 20
        assert "beyond the budget" in capsys.readouterr().err
        # the largest benchmark instance, PAM-8/Q=4, stays under the budget
        optimize.check_marginal_budget(8, 4)

    def test_blahut_arimoto_beyond_the_budget_fails_before_any_work(
        self, chain_spec_file, monkeypatch, capsys
    ):
        costs = entropy.cost_tensor(CHAIN_128X2)

        def no_work(*args):
            raise AssertionError("sweep point computed before the budget check")

        monkeypatch.setattr(cli, "sweep_points", no_work)
        tracemalloc.start()
        try:
            codes = [run(["capacity", chain_spec_file]),
                     run(["sweep", chain_spec_file, "--snr-db=0:120:60", "--with-ba"])]
            with pytest.raises(BudgetExceededError, match="beyond the budget"):
                optimize.capacity(CHAIN_128X2, costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codes == [EXIT_BUDGET] * 2
        assert peak < 1 << 20
        assert "nodes x MQ = 77840 x 256" in capsys.readouterr().err
        # the benchmark's largest capacity instance, PAM-8/Q=3 at 15 dB, stays
        # under the budget, and so do PAM-4/Q=2 at 400 dB, binary at 120 dB
        # and random 64/2 at P_N = 0.05
        pam8 = (-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0)
        pam4 = (-3.0, -1.0, 1.0, 3.0)
        optimize.check_capacity_budget(
            ChannelSpec(pam8, (-2.0, 0.0, 2.0), (1 / 3,) * 3, noise_power_for_snr_db(pam8, 15.0)))
        optimize.check_capacity_budget(
            ChannelSpec(pam4, (-1.0, 1.0), (0.5, 0.5), noise_power_for_snr_db(pam4, 400.0)))
        optimize.check_capacity_budget(ChannelSpec((-1.0, 1.0), (-1.0, 1.0), (0.5, 0.5), 1e-12))
        optimize.check_capacity_budget(random_spec(np.random.default_rng(3), 64, 2, 0.05))

    @pytest.mark.filterwarnings("error")
    def test_node_counts_beyond_int64_do_not_wrap(self, binary_spec_file, chain_spec_file, capsys):
        # The output grid's node count is exact at any SNR, 20 panels of 16
        # nodes per distinct mean at 200 and 400 dB, and the sweep refuses at the first
        # point beyond the budget.
        assert run(["sweep", chain_spec_file, "--snr-db=0:400:200", "--with-ba"]) == EXIT_BUDGET
        assert "nodes x MQ = 81920 x 256" in capsys.readouterr().err
        assert run(["sweep", binary_spec_file(), "--snr-db=0:400:200"]) == EXIT_OK


class TestSweepCommand:
    def test_csv_deterministic_and_well_formed(self, binary_spec_file, tmp_path, capsys):
        path = binary_spec_file()
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(["sweep", path, "--snr-db=-2:2:1", "--out", str(out1)]) == EXIT_OK
        assert run(["sweep", path, "--snr-db=-2:2:1", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        assert header[:4] == ["snr_db", "lp_rate_bits", "ba_capacity_bits",
                              "chosen_assignment"]
        assert "rate[1-1;2-2]" in header and "rate[1-2;2-1]" in header
        assert len(lines) == 2 + 5  # comment, header, 5 SNR points

    def test_rows_ordered_by_snr(self, binary_spec_file, tmp_path):
        path = binary_spec_file()
        out = tmp_path / "c.csv"
        assert run(["sweep", path, "--snr-db=0:10:2.5", "--out", str(out)]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        snrs = [float(r[0]) for r in rows]
        assert snrs == sorted(snrs) == [0.0, 2.5, 5.0, 7.5, 10.0]

    def test_with_ba_column(self, binary_spec_file, tmp_path):
        path = binary_spec_file()
        out = tmp_path / "d.csv"
        assert run(["sweep", path, "--snr-db=10:10:1", "--out", str(out),
                    "--with-ba"]) == EXIT_OK
        row = out.read_text().splitlines()[2].split(",")
        ba = float(row[2])
        lp = float(row[1])
        assert ba >= lp - 1e-6

    def test_unconverged_ba_exits_4_and_still_writes_the_csv(
        self, binary_spec_file, tmp_path, monkeypatch, capsys
    ):
        path = binary_spec_file()
        args = ["sweep", path, "--snr-db=0:10:10", "--with-ba", "--out"]
        assert run(args + [str(tmp_path / "ok.csv")]) == EXIT_OK
        real = optimize.capacity

        def unconverged_at_0db(spec, **kwargs):
            result = real(spec, **kwargs)
            return replace(result, converged=False) if spec.noise_power > 0.5 else result

        monkeypatch.setattr(optimize, "capacity", unconverged_at_0db)
        capsys.readouterr()
        assert run(args + [str(tmp_path / "bad.csv")]) == EXIT_NO_CONVERGENCE
        assert (tmp_path / "bad.csv").read_bytes() == (tmp_path / "ok.csv").read_bytes()
        err = capsys.readouterr().err
        assert "capacity did not converge at SNR 0 dB" in err

    def test_bad_range(self, binary_spec_file, capsys):
        path = binary_spec_file()
        assert run(["sweep", path, "--snr-db=5:1:1"]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("snr_db", ["0:inf:1", "-inf:0:1", "nan:1:1"])
    def test_non_finite_range_is_bad_input(self, binary_spec_file, snr_db, capsys):
        path = binary_spec_file()
        assert run(["sweep", path, f"--snr-db={snr_db}"]) == EXIT_BAD_INPUT
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", ["0:4000:4000", "-4000:-3990:10"])
    def test_snr_beyond_the_range_of_a_double_is_bad_input(
        self, binary_spec_file, snr_db, monkeypatch, capsys
    ):
        # 10^(SNR/10) overflows at 4000 dB and underflows to 0 at -4000 dB:
        # no noise power exists, and the sweep says so before any point.
        path = binary_spec_file()

        def no_work(*args):
            raise AssertionError("sweep point computed before the noise powers")

        monkeypatch.setattr(cli, "sweep_points", no_work)
        assert run(["sweep", path, f"--snr-db={snr_db}"]) == EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no positive finite noise power gives SNR")
        assert err.count("\n") == 1

    def test_snr_just_inside_the_range_of_a_double_warns_nothing(self, binary_spec_file):
        # 3,080 dB is P_N = 1e-308: the means lie 2e154 sigma apart, whose
        # square overflows unless the capacity solver clamps the offsets.
        src = Path(cli.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "causalprecode.cli", "sweep", binary_spec_file(),
             "--snr-db=3080:3080:1", "--with-ba"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == EXIT_OK
        assert out.stdout.splitlines()[-1] == "3080,1,1,1-2;2-1,0.5,1"
        assert out.stderr == ""

    def test_one_lp_per_point_for_q_other_than_2(self, tmp_path, monkeypatch, capsys):
        # The assignment reads the duals and vertex of the point's uniform LP
        # instead of solving it again, and the CSV is the same as when it did.
        path = tmp_path / "rand6x3.spec"
        path.write_text(format_spec_text(random_spec(np.random.default_rng(0), 6, 3, 0.05)))
        argv = ["sweep", str(path), "--snr-db=0:20:5"]
        calls = []
        solve = optimize.solve_marginal_lp
        monkeypatch.setattr(
            optimize, "solve_marginal_lp", lambda *args: calls.append(1) or solve(*args)
        )
        assert run(argv) == EXIT_OK
        once = capsys.readouterr().out
        assert len(calls) == 5
        assignment = assign.multidim_assignment
        monkeypatch.setattr(assign, "multidim_assignment", lambda costs, lp: assignment(costs))
        assert run(argv) == EXIT_OK
        assert len(calls) == 5 + 10
        assert capsys.readouterr().out == once

    def test_one_uniform_lp_per_point_with_ba(self, tmp_path, monkeypatch, capsys):
        # The capacity starts from the point's uniform LP instead of solving
        # it again, and the CSV is the same as when it did.
        path = tmp_path / "rand3x3.spec"
        path.write_text(format_spec_text(random_spec(np.random.default_rng(0), 3, 3, 0.05)))
        argv = ["sweep", str(path), "--snr-db=0:20:5", "--with-ba"]
        calls = []
        solve = optimize.solve_uniform_lp
        monkeypatch.setattr(
            optimize, "solve_uniform_lp", lambda costs: calls.append(1) or solve(costs)
        )
        assert run(argv) == EXIT_OK
        once = capsys.readouterr().out
        assert len(calls) == 5
        capacity = optimize.capacity
        monkeypatch.setattr(
            optimize, "capacity", lambda spec, costs, lp: capacity(spec, costs=costs)
        )
        assert run(argv) == EXIT_OK
        assert len(calls) == 5 + 10
        assert capsys.readouterr().out == once

    def test_no_simplex_at_q2(self, binary_spec_file, tmp_path, monkeypatch):
        # Each point's uniform LP is one Hungarian, which the assignment
        # reuses: a 5/2 sweep makes one per point, and no Q = 2 sweep runs
        # the simplex, with --with-ba either.
        path = tmp_path / "rand5x2.spec"
        path.write_text(format_spec_text(random_spec(np.random.default_rng(0), 5, 2, 0.05)))
        simplex, matchings = [], []
        solve, hungarian = optimize.solve_marginal_lp, optimize._hungarian
        monkeypatch.setattr(
            optimize, "solve_marginal_lp", lambda *args: simplex.append(1) or solve(*args)
        )
        monkeypatch.setattr(
            optimize, "_hungarian", lambda *args: matchings.append(1) or hungarian(*args)
        )
        assert run(["sweep", str(path), "--snr-db=0:20:5"]) == EXIT_OK
        assert len(matchings) == 5
        for spec_path in (str(path), binary_spec_file()):
            assert run(["sweep", spec_path, "--snr-db=0:20:5", "--with-ba"]) == EXIT_OK
        assert simplex == []

    def test_range_beyond_the_point_budget_fails_before_any_work(
        self, binary_spec_file, monkeypatch, capsys
    ):
        path = binary_spec_file()

        def no_work(*args):
            raise AssertionError("sweep point computed for an over-budget range")

        monkeypatch.setattr(cli, "sweep_points", no_work)
        assert run(["sweep", path, "--snr-db=0:1e12:1e-9"]) == EXIT_BUDGET
        assert run(["sweep", path, "--snr-db=0:10000:1"]) == EXIT_BUDGET
        assert "10000 points" in capsys.readouterr().err


class TestWorkers:
    def test_clamped_to_the_cpus_without_starting_a_thread(
        self, binary_spec_file, tmp_path, monkeypatch, capsys
    ):
        sizes = []

        class RecordingPool:
            """Records max_workers and maps serially: no thread is started."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "_available_cpus", lambda: 3)
        monkeypatch.setattr(sim, "ThreadPoolExecutor", RecordingPool)
        path = binary_spec_file()
        code = tmp_path / "code.txt"
        code.write_text("1 2\n2 1\n")
        # 40,000 trials make three batches
        simulate = ["simulate", path, "--code", str(code), "--trials", "40000", "--workers"]
        assert run(simulate + ["1"]) == EXIT_OK
        serial = capsys.readouterr().out
        assert run(simulate + ["100000"]) == EXIT_OK
        assert capsys.readouterr().out == serial
        assert sizes == [3]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_below_one_is_bad_input(self, binary_spec_file, tmp_path, workers, capsys):
        path = binary_spec_file()
        code = tmp_path / "code.txt"
        code.write_text("1 2\n2 1\n")
        assert run(["simulate", path, "--code", str(code), "--workers", workers]) == EXIT_BAD_INPUT
        assert "at least 1" in capsys.readouterr().err

    def test_sweep_has_no_workers_option(self, binary_spec_file, monkeypatch, capsys):
        # The sweep is serial: one worker beat two on every measured sweep.
        calls = []
        monkeypatch.setattr(cli, "sweep_points", lambda *args: calls.append(args))
        path = binary_spec_file()
        assert run(["sweep", path, "--snr-db=0:2:1", "--workers", "2"]) == EXIT_BAD_INPUT
        assert "--workers" in capsys.readouterr().err
        assert calls == []


def _gaussian_mixture(means, weights, var):
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    return lambda y: sum(
        w * norm * np.exp(-0.5 * (y - mu) ** 2 / var) for mu, w in zip(means, weights)
    )


@pytest.mark.parametrize("snr_db", [-5.0, 20.0, 60.0])
@pytest.mark.parametrize(
    "spec",
    [
        ChannelSpec((-1.0, 1.0), (-1.0, 1.0), (0.4, 0.6), 1.0),
        ChannelSpec((-3.0, -1.0, 1.0, 3.0), (-1.0, 1.0), (0.3, 0.7), 1.0),
    ],
    ids=["binary", "pam4q2"],
)
def test_sweep_rates_match_riemann(spec, snr_db):
    # Every column from plain Riemann sums of densities written out here:
    # assignment a rates h(Y) - (1/M) sum_{t in a} h_t, and for Q = 2 the LP
    # optimum is the best assignment (Birkhoff-von Neumann).
    assignments = cli._sweep_assignments(spec)
    [row] = cli.sweep_points(cli.sweep_specs(spec, [snr_db]), [snr_db], False, assignments)
    var = noise_power_for_snr_db(spec.constellation, snr_db)
    x, s, r = spec.constellation, spec.interference_levels, spec.interference_probs
    pad = 12.0 * math.sqrt(var)
    lo, hi = min(x) + min(s) - pad, max(x) + max(s) + pad
    m = spec.m
    h_y = riemann_entropy(
        _gaussian_mixture([xi + sj for xi in x for sj in s], [rj / m for _ in x for rj in r], var),
        lo, hi,
    )
    h_t = {}
    expected = {}
    for aid, tuples in assignments.items():
        for t in tuples:
            if t not in h_t:
                means = [x[i - 1] + sj for i, sj in zip(t, s)]
                h_t[t] = riemann_entropy(_gaussian_mixture(means, r, var), lo, hi)
        expected[aid] = (h_y - sum(h_t[t] for t in tuples) / m) / math.log(2.0)
    assert set(row.rate_per_assignment) == set(assignments)
    for aid in assignments:
        assert row.rate_per_assignment[aid] == pytest.approx(expected[aid], abs=1e-7)
    assert row.lp_rate_bits == pytest.approx(max(expected.values()), abs=1e-7)
