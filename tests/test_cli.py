import warnings

import pytest

from cliquealg import cli, distprod, ff, krylov

warnings.filterwarnings("ignore", message=".*field size.*")


def run_cli(argv):
    return cli.main(argv)


def test_run_det_on_identity_file(tmp_path, capsys):
    path = tmp_path / "identity.mat"
    path.write_text("4 4 101\n" + "\n".join(
        " ".join("1" if i == j else "0" for j in range(4)) for i in range(4)) + "\n")
    code = run_cli(["run", "det", "--input", str(path), "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: pass" in out
    assert "\n1\n" in out  # det(I) = 1
    assert "ledger:" in out


def test_run_apsp_on_path_file(tmp_path, capsys):
    path = tmp_path / "p4.graph"
    path.write_text("4 undirected 1\n1 2 1\n2 3 1\n3 4 1\n")
    code = run_cli(["run", "apsp", "--input", str(path), "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0 and "verdict: pass" in out
    assert "0 1 2 3" in out


def test_run_reports_are_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a.report"
    out_b = tmp_path / "b.report"
    run_cli(["run", "rank", "--gen", "lowrank:n=8,r=3", "--seed", "7",
             "--out", str(out_a)])
    run_cli(["run", "rank", "--gen", "lowrank:n=8,r=3", "--seed", "7",
             "--out", str(out_b)])
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_run_rank_of_a_rank_zero_product(n, capsys):
    code = run_cli(["run", "rank", "--gen", f"lowrank:n={n},r=0", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: pass" in out
    assert "output:\n0\n" in out


def test_run_different_seeds_differ(tmp_path, capsys):
    out_a = tmp_path / "a.report"
    out_b = tmp_path / "b.report"
    run_cli(["run", "mm", "--gen", "mm:n=6,m=6,k=1", "--seed", "1",
             "--out", str(out_a)])
    run_cli(["run", "mm", "--gen", "mm:n=6,m=6,k=1", "--seed", "2",
             "--out", str(out_b)])
    capsys.readouterr()
    assert out_a.read_bytes() != out_b.read_bytes()


def test_verify_mm(capsys):
    code = run_cli(["verify", "mm", "--trials", "5", "--gen", "mm:n=8,m=8,k=2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5/5 passed" in out


def test_verify_rank(capsys):
    code = run_cli(["verify", "rank", "--trials", "5",
                    "--gen", "lowrank:n=8,r=4"])
    out = capsys.readouterr().out
    assert code == 0 and "passed" in out


def test_bench_refuses_few_points(capsys):
    code = run_cli(["bench", "mm", "--sizes", "16,32"])
    assert code == 2


def test_bench_outputs_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "mm", "--sizes", "8,12,16,24", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "fitted log-log slope" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k,m,kernel,phase,rounds,messages"
    assert any(line.startswith("24,1,24,trivial,total,") for line in lines)


def test_bench_solve_prints_the_per_log_slope_and_its_phases(tmp_path, capsys):
    out = tmp_path / "solve.csv"
    assert run_cli(["bench", "solve", "--sizes", "4,8,12,16", "--out", str(out)]) == 0
    assert "fitted log-log slope of rounds/log2(n)" in capsys.readouterr().out
    phases = {line.split(",")[4].split("/")[-1] for line in out.read_text().splitlines()[1:]}
    assert {"share-b-exchange", "verify", "total"} <= phases
    assert any(phase.startswith("horner") for phase in phases)


def test_plan_outputs(capsys):
    assert run_cli(["plan", "theorem1", "--a", "0", "--b", "1"]) == 0
    assert "0.333333" in capsys.readouterr().out
    assert run_cli(["plan", "theorem1", "--a", "0", "--b", "1",
                    "--curve", "omega:2.3729"]) == 0
    out = capsys.readouterr().out
    assert "0.1571" in out
    assert run_cli(["plan", "zwick"]) == 0
    out = capsys.readouterr().out
    assert "0.2095" in out and "0.1856" in out
    assert run_cli(["plan", "dis", "--a", "0.2", "--b", "0.9"]) == 0
    assert "distance product" in capsys.readouterr().out


def test_unknown_algorithm_is_usage_error(capsys):
    assert run_cli(["run", "hocus", "--seed", "0"]) == 2
    assert run_cli(["verify", "hocus", "--trials", "1"]) == 2
    capsys.readouterr()


def test_malformed_matrix_file(tmp_path, capsys):
    path = tmp_path / "broken.mat"
    path.write_text("4 4 101\n1 0 0\n")
    code = run_cli(["run", "det", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "expected" in err


def test_run_distprod_strategies(capsys):
    for strategy in ("dft", "semiring", "auto"):
        code = run_cli(["run", "distprod", "--gen", "minplus:n=6,m=6,M=2",
                        "--seed", "3", "--strategy", strategy])
        out = capsys.readouterr().out
        assert code == 0 and "verdict: pass" in out


def test_run_distprod_uses_the_kernel(capsys):
    argv = ["run", "distprod", "--gen", "minplus:n=64,m=64,M=3", "--strategy", "dft"]
    assert run_cli(argv + ["--kernel", "strassen"]) == 0
    out = capsys.readouterr().out
    assert distprod.predict_dft_rounds(64, 64, 3, "strassen") == 316
    assert "verdict: pass" in out and "\nrounds: 316\n" in out
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out and "\nrounds: 248\n" in out


def test_strategy_refused_outside_distprod(capsys):
    for algorithm, strategy in (("mm", "dft"), ("det", "semiring"), ("apsp", "dft")):
        argv = ["run", algorithm, "--gen", "mm:n=8", "--strategy", strategy]
        _assert_usage_error(argv, capsys, "--strategy")


def test_verify_counts_an_inconclusive_trial_as_a_miss(capsys):
    # seed 22 is the first of 1..399 at which every rank_rand attempt is
    # inconclusive (the same run as test_refused_inputs_give_one_error_line's)
    code = run_cli(["verify", "rank", "--gen", "matrix:n=3", "--field-prime", "3",
                    "--trials", "1", "--seed", "22"])
    assert code == 1
    assert capsys.readouterr().out == "trial 0: MISMATCH\n0/1 passed\n"


def test_run_solve_from_file(tmp_path, capsys):
    path = tmp_path / "sys.mat"
    path.write_text("2 2 769\n2 0\n0 3\n1 1\n")
    code = run_cli(["run", "solve", "--input", str(path), "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0 and "verdict: pass" in out
    x1, x2 = (int(v) for v in out.split("output:\n")[1].splitlines()[0].split())
    assert (2 * x1) % 769 == 1 and (3 * x2) % 769 == 1


def test_run_gallai_edmonds(capsys):
    code = run_cli(["run", "gallai-edmonds", "--gen", "path:n=3", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0 and "verdict: pass" in out
    assert "D: 1 3" in out and "K: 2" in out


def _assert_usage_error(argv, capsys, message):
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_field_prime_must_be_prime(capsys):
    for algorithm in ("det", "mm"):
        argv = ["run", algorithm, "--gen", "default:n=4", "--field-prime", "100"]
        _assert_usage_error(argv, capsys, "100 is not prime")


def test_det_and_inverse_need_prime_above_n(capsys):
    for algorithm in ("det", "inverse"):
        argv = ["run", algorithm, "--gen", "default:n=8", "--field-prime", "5"]
        _assert_usage_error(argv, capsys, "prime above n = 8")
    _assert_usage_error(["verify", "det", "--trials", "1", "--field-prime", "5"],
                        capsys, "prime above n = 8")


def test_matrix_file_modulus_must_be_prime(tmp_path, capsys):
    path = tmp_path / "zero.mat"
    path.write_text("4 4 0\n" + "\n".join(
        " ".join("1" if i == j else "0" for j in range(4)) for i in range(4)) + "\n")
    _assert_usage_error(["run", "det", "--input", str(path)], capsys, "0 is not prime")


def test_matrix_file_entries_reduced_mod_the_prime_used(tmp_path, capsys):
    path = tmp_path / "diag.mat"
    path.write_text("2 2 101\n200 0\n0 1\n")
    code = run_cli(["run", "det", "--input", str(path), "--field-prime", "103"])
    out = capsys.readouterr().out
    assert code == 0 and "verdict: pass" in out
    assert out.split("output:\n")[1].splitlines()[0] == "97"  # 200 mod 103


def test_matrix_file_non_numeric_is_usage_error(tmp_path, capsys):
    for text, line in (("2 2 x\n1 0\n0 1\n", 1), ("2 2 101\n1 0\n\n0 y\n", 4)):
        path = tmp_path / "bad.mat"
        path.write_text(text)
        _assert_usage_error(["run", "det", "--input", str(path)], capsys,
                            f"{path}:{line}: expected integers")


def test_prime_above_float_prime_max_is_usage_error(tmp_path, capsys):
    big = "3037000507"  # the least prime above FLOAT_PRIME_MAX
    _assert_usage_error(["run", "det", "--gen", "matrix:n=4", "--field-prime", big],
                        capsys, f"{big} exceeds")
    path = tmp_path / "big.mat"
    path.write_text(f"4 4 {big}\n" + "\n".join(
        " ".join("1" if i == j else "0" for j in range(4)) for i in range(4)) + "\n")
    _assert_usage_error(["run", "det", "--input", str(path)], capsys,
                        f"{path}:1: {big} exceeds")


def test_default_prime_is_capped_at_float_prime_max():
    # evaluated directly: no run at these sizes
    bound = krylov.field_size_bound(7642)
    assert bound < ff.FLOAT_PRIME_MAX
    assert cli.default_prime("rank", 7642) == ff.next_prime_at_least(bound)
    for algorithm in ("minpol", "solve", "rank"):
        with pytest.warns(UserWarning, match="field size"):
            assert cli.default_prime(algorithm, 7643) == ff.FLOAT_PRIME_MAX


def test_default_prime_has_a_floor_of_101():
    # the Krylov field-size bound 4 n^2 ceil(log2 n) is below 101 for n <= 3
    for algorithm in ("minpol", "solve", "rank", "det", "mm"):
        for n in (1, 2, 3):
            assert cli.default_prime(algorithm, n) == 101
    assert cli.default_prime("minpol", 4) == ff.next_prime_at_least(krylov.field_size_bound(4))


def test_malformed_graph_and_pair_files(tmp_path, capsys):
    cases = (
        ("apsp", "3 sideways 1\n1 2 1\n", 1),
        ("apsp", "3 undirected 1\n1 2\n", 2),
        ("apsp", "3 undirected 1\n0 2 1\n", 2),
        ("apsp", "3 undirected 1\n1 2 1\n7 2 1\n", 3),
        ("apsp", "3 undirected 1\n1 2 5\n", 2),
        ("apsp", "", 1),
        ("distprod", "2 2 x\n1 1\n1 1\n1 1\n1 1\n", 1),
        ("distprod", "2 2 1\n1 9\n0 1\n1 1\n1 inf\n", 2),
    )
    _assert_usage_error(["run", "apsp", "--input", str(tmp_path)], capsys, "directory")
    for algorithm, text, line in cases:
        path = tmp_path / "bad.txt"
        path.write_text(text)
        _assert_usage_error(["run", algorithm, "--input", str(path)], capsys,
                            f"{path}:{line}: ")


def test_generator_fields_are_checked(capsys):
    for algorithm, spec, field in (("det", "matrix:n=x", "n"), ("det", "matrix:n=0", "n"),
                                   ("apsp", "gnp:n=4,p=abc", "p"), ("apsp", "gnp:n=5,p=1.5", "p"),
                                   ("mm", "mm:n=4,k=0", "k"),
                                   ("gallai-edmonds", "cycle:n=1", "n"),
                                   ("apsp", "cycle:n=1", "n"),
                                   ("allowed-edges", "cycle:n=1", "n")):
        _assert_usage_error(["run", algorithm, "--gen", spec], capsys, f"--gen field {field}")


def test_verify_and_bench_arguments_are_checked(capsys):
    _assert_usage_error(["verify", "mm", "--trials", "0"], capsys, "--trials")
    _assert_usage_error(["bench", "minpol", "--sizes", "1,2,4,8"], capsys, "--sizes")
    _assert_usage_error(["bench", "mm-k", "--k-list", "0,1,2,4"], capsys, "--k-list")
    _assert_usage_error(["bench", "mm", "--sizes", "16,16,16,16"], capsys, "distinct")


def test_refused_inputs_give_one_error_line(tmp_path, capsys):
    singular = tmp_path / "singular.mat"
    singular.write_text("2 2 101\n1 1\n1 1\n1 0\n")
    cases = (
        (["run", "inverse", "--input", str(singular)], 2, "not invertible"),
        (["run", "allowed-edges", "--gen", "path:n=3"], 2, "no perfect matching"),
        (["run", "allowed-edges", "--gen", "gnp:n=4,p=0"], 2, "no perfect matching"),
        (["run", "distprod", "--gen", "minplus:n=4,m=8,M=2", "--strategy", "dft"], 2,
         "requires m <= n"),
        (["plan", "theorem1", "--a", "-1", "--b", "1"], 2, "nonnegative"),
        (["plan", "theorem1", "--curve", "omega:1.5"], 2, "below 2"),
        # no verified answer exists: the verification-failure code
        (["run", "solve", "--input", str(singular)], 1, "system unsolved"),
        # seed 22 is the first of 1..399 at which every attempt is inconclusive
        (["run", "rank", "--gen", "matrix:n=3", "--field-prime", "3", "--seed", "22"], 1,
         "rank_rand: no conclusive attempt"),
    )
    for argv, want, message in cases:
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code == want, argv
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and message in captured.err, argv


def test_field_prime_refused_where_it_is_not_used(capsys):
    for algorithm in ("matching-size", "allowed-edges", "gallai-edmonds", "distprod",
                      "apsp", "apsp-zwick", "diameter"):
        for command in (["run"], ["verify", "--trials", "1"]):
            argv = [command[0], algorithm, *command[1:], "--field-prime", "103"]
            _assert_usage_error(argv, capsys, f"{algorithm} takes no prime")
    assert run_cli(["run", "matching-size", "--gen", "gnp:n=6", "--seed", "0"]) == 0
    assert "verdict: pass" in capsys.readouterr().out
