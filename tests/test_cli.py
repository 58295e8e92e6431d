import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootfield
from conftest import deadline
from rootfield import cli, mk_field, parse_elem
from rootfield.cli import COMMANDS, dispatch

GOLDEN_ROOT = ("status=root_found root=11 path=amm "
               "mults=4 squarings=6 frobenius=0\n")


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden outputs, byte for byte ---------------------------------------------

def test_root_amm_golden(capsys):
    code, out, _ = run(capsys, "root", "--p", "13", "--m", "1", "--r", "2",
                       "--delta", "4", "--seed", "0")
    assert (code, out) == (0, GOLDEN_ROOT)


def test_root_rerun_identical(capsys):
    first = run(capsys, "root", "--p", "13", "--m", "1", "--r", "2",
                "--delta", "4")
    second = run(capsys, "root", "--p", "13", "--m", "1", "--r", "2",
                 "--delta", "4")
    assert first == second


def test_root_forced_amm_skips_final_check(capsys):
    # a single-stage request returns the stage outcome as it stands, so
    # forcing the path that auto takes counts the same as GOLDEN_ROOT
    code, out, _ = run(capsys, "root", "--p", "13", "--m", "1", "--r", "2",
                       "--delta", "4", "--path", "amm")
    assert code == 0
    assert out == ("status=root_found root=11 path=amm "
                   "mults=4 squarings=6 frobenius=0\n")


def test_root_non_residue(capsys):
    code, out, _ = run(capsys, "root", "--p", "13", "--m", "1", "--r", "2",
                       "--delta", "2")
    assert code == 2
    assert out == "status=non_residue path=amm mults=1 squarings=2 frobenius=0\n"


def test_root_periodic_golden(capsys):
    code, out, _ = run(capsys, "root", "--p", "3", "--m", "9", "--r", "5",
                       "--delta", "1,2,0,1,0,0,2,1,0", "--path", "periodic")
    assert code == 0
    assert out == ("status=root_found root=2,2,1,2,1,1,2,0,2 "
                   "path=coprime_fast mults=4 squarings=8 frobenius=4\n")


def test_field_golden(capsys):
    code, out, _ = run(capsys, "field", "--p", "2", "--m", "3")
    assert (code, out) == (0, "p=2 m=3 modulus=1,1,0,1\n")


def test_field_explicit_modulus(capsys):
    code, out, _ = run(capsys, "field", "--p", "2", "--m", "3",
                       "--modulus", "1,0,1,1")
    assert (code, out) == (0, "p=2 m=3 modulus=1,0,1,1\n")


def test_residue_golden(capsys):
    code, out, _ = run(capsys, "residue", "--p", "13", "--m", "1", "--r", "3",
                       "--delta", "5")
    assert (code, out) == (0, "residue=true mults=0 squarings=2 frobenius=0\n")
    code, out, _ = run(capsys, "residue", "--p", "13", "--m", "1", "--r", "3",
                       "--delta", "2")
    assert code == 2
    assert out.startswith("residue=false")


def test_decompose_golden(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "7", "--m", "5", "--r", "2")
    assert code == 0
    assert out == ("case=ramified k=1 u=1 v=4202 a=2 b=84 "
                   "period=2 n=2 modulus=8403\n")


def test_decompose_coprime(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "3", "--m", "9", "--r", "5")
    assert code == 0
    assert out == ("case=coprime k=4 u=2 v=7873 a=1 b=96 "
                   "period=4 n=2 modulus=19682\n")


def test_decompose_higher_power_refused(capsys):
    code, out, err = run(capsys, "decompose", "--p", "13", "--m", "1",
                         "--r", "2")
    assert (code, out) == (1, "")
    assert "no single-exponent decomposition" in err


def test_decompose_entangled_cofactor(capsys):
    code, _, err = run(capsys, "decompose", "--p", "3", "--m", "10", "--r", "4")
    assert code == 1
    assert err.startswith("error:")


def test_decompose_large_prime_r_fails_fast(capsys):
    # the order of 3 mod 2^31 - 1 is about 7 * 10^8, far beyond m = 61
    with deadline(5):
        code, out, err = run(capsys, "decompose", "--p", "3", "--m", "61",
                             "--r", str(2 ** 31 - 1))
    assert (code, out) == (1, "")
    assert err == "error: need m > period, got m=61, period=715827882\n"


def test_root_prime_r_beyond_trial_division(capsys):
    # r = 2^61 - 1 is prime: trial division up to sqrt(r) never finished
    r = 2 ** 61 - 1
    with deadline(5):
        code, out, _ = run(capsys, "root", "--p", "3", "--m", "61",
                           "--r", str(r), "--delta", "1,2")
    assert code == 0
    fields = dict(tok.split("=") for tok in out.split())
    assert fields["status"] == "root_found"
    fld = mk_field(3, 61)
    root = parse_elem(fld, fields["root"])
    assert fld.pow(root, r) == fld.elem([1, 2])


def test_root_126_bit_prime_r_factors_nothing(capsys):
    # r = 2PQ + 1, P the first prime above 2^62 and Q the least prime above
    # P with r prime: the plan looks for the order of 3 mod r below m = 5
    # only, where factoring r - 1 = 2PQ never finished
    r = 2 * 4611686018427388039 * 4611686018427392159 + 1
    with deadline(5):
        code, out, _ = run(capsys, "root", "--p", "3", "--m", "5",
                           "--r", str(r), "--delta", "1,2")
    assert (code, out) == (0, "status=root_found root=2,2,0,1,1 "
                           "path=naive_fallback mults=18 squarings=130 "
                           "frobenius=0\n")


def test_root_r_with_two_large_prime_factors(capsys):
    # r = (2^31 - 1)(2^31 + 11): trial division needs about 2^31 steps to
    # reach the smaller factor; Pollard's rho splits it in about 2^16
    r = (2 ** 31 - 1) * (2 ** 31 + 11)
    assert r == 4611686039902224373
    with deadline(5):
        code, out, _ = run(capsys, "root", "--p", "3", "--m", "61",
                           "--r", str(r), "--delta", "1,2")
    assert code == 0
    fields = dict(tok.split("=") for tok in out.split())
    assert fields["status"] == "root_found"
    fld = mk_field(3, 61)
    root = parse_elem(fld, fields["root"])
    assert fld.pow(root, r) == fld.elem([1, 2])


def test_decompose_safe_prime_r_fails_fast(capsys):
    # r is a safe prime near 2^51: lambda(r) = r - 1 = 2 * 1125899906843669,
    # and trial division of r - 1 stops once the cofactor is prime
    with deadline(2):
        code, out, err = run(capsys, "decompose", "--p", "3", "--m", "61",
                             "--r", "2251799813687339")
    assert (code, out) == (1, "")
    assert err == ("error: need m > period, got m=61, "
                   "period=1125899906843669\n")


def test_decompose_r_whose_order_needs_a_hard_factoring_fails_fast(capsys):
    # r = 2PQ + 1 as above: the order of 3 mod r is not below m = 5, and
    # mult_order, naming the period, would factor r - 1 = 2PQ; rho's step
    # budget ends that with an error
    with deadline(5):
        code, out, err = run(capsys, "decompose", "--p", "3", "--m", "5",
                             "--r", "42535295865117348423525067721437972403")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "rho" in err


@pytest.mark.parametrize("argv", [["--p", "1", "--m", "5", "--r", "3"],
                                  ["--p", "3", "--m", "0", "--r", "2"]])
def test_decompose_empty_group_fails_fast(argv):
    # p^m - 1 = 0 here, which every power of r divides: the multiplicity
    # loop never ended before p and m were checked
    proc = subprocess.run(
        [sys.executable, "-m", "rootfield", "decompose", *argv],
        capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr in ("error: 1 is not prime\n",
                           "error: extension degree must be >= 1\n")


def test_oracle_golden(capsys):
    code, out, _ = run(capsys, "oracle", "--p", "13", "--m", "1", "--r", "2",
                       "--delta", "4")
    assert code == 0
    assert out == ("status=root_found count=2 roots=2;11 "
                   "residue_count=6 group_order=12\n")


def test_oracle_non_residue(capsys):
    code, out, _ = run(capsys, "oracle", "--p", "7", "--m", "1", "--r", "3",
                       "--delta", "2")
    assert code == 2
    assert out == ("status=non_residue count=0 roots= "
                   "residue_count=2 group_order=6\n")


def test_bench_stdout(capsys):
    code, out, _ = run(capsys, "bench", "--sweep", "q=7 m=5 r=2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("p,d,m,r,case,path,")
    assert lines[1].startswith("7,1,5,2,ramified,ramified_fast,4,7,2,2,2,1,2,true,")
    assert lines[2].startswith("7,1,5,2,ramified,naive_fallback,4,13,0,2,2,1,2,true,")


def test_bench_out_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench", "--sweep", "q=13 m=1 r=2",
                       "--out", str(target))
    assert (code, out) == (0, "")
    lines = target.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("13,1,1,2,higher_power,amm,")


def test_bench_sweep_file(capsys, tmp_path):
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("q=7 m=5 r=2\n")
    code, out, _ = run(capsys, "bench", "--sweep", str(sweep))
    assert code == 0
    assert len(out.splitlines()) == 3


# -- exit discipline ---------------------------------------------------------------

def test_usage_errors(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "root", "--p", "13")[0] == 1
    assert run(capsys, "root", "--nonsense", "1")[0] == 1
    # oracle enumerates every element and draws nothing: it takes no seed
    assert run(capsys, "oracle", "--p", "13", "--m", "1", "--r", "2",
               "--delta", "4", "--seed", "0")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "root", "--help")[0] == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch,
                                                    command):
    # dispatch builds only the subparser argv[0] names; its help, its usage
    # errors and the top parser's unrecognized-argument error must be the
    # full parser's bytes and exit code
    full = cli._build_parser
    built = []
    monkeypatch.setattr(cli, "_build_parser",
                        lambda name=None: built.append(name) or full(name))
    for argv in ([command, "--help"], [command, "--p", "x"],
                 [command, "--sweep", "q=3 m=2 r=2", "--p", "3", "--m", "2",
                  "--r", "2", "--delta", "1", "surplus"]):
        with pytest.raises(SystemExit) as exc:
            full().parse_args(argv)
        expected = capsys.readouterr()
        assert run(capsys, *argv) == (0 if exc.value.code == 0 else 1,
                                      expected.out, expected.err)
    assert built == [command] * 3


def test_parser_is_built_per_call(capsys, monkeypatch):
    # argv without a known command first gets the full parser
    built = []
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda name=None: built.append(name) or full(name))
    for argv in ([], ["--help"], ["bogus"], ["--p", "3", "field"]):
        run(capsys, *argv)
    assert built == [None] * 4


def test_computation_errors_exit_one(capsys):
    code, _, err = run(capsys, "root", "--p", "13", "--m", "1", "--r", "2",
                       "--delta", "x")
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run(capsys, "root", "--p", "13", "--m", "1", "--r", "2",
                       "--delta", "1,2")
    assert code == 1
    code, _, err = run(capsys, "root", "--p", "13", "--m", "1", "--r", "1",
                       "--delta", "4")
    assert code == 1
    code, _, err = run(capsys, "root", "--p", "15", "--m", "1", "--r", "2",
                       "--delta", "4")
    assert code == 1
    code, _, err = run(capsys, "oracle", "--p", "2", "--m", "21", "--r", "3",
                       "--delta", "1" + ",0" * 20)
    assert code == 1
    assert "oracle cap" in err


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("ROOTFIELD_SEED", "5")
    env_run = run(capsys, "root", "--p", "13", "--m", "1", "--r", "2",
                  "--delta", "4")
    monkeypatch.delenv("ROOTFIELD_SEED")
    explicit = run(capsys, "root", "--p", "13", "--m", "1", "--r", "2",
                   "--delta", "4", "--seed", "5")
    assert env_run == explicit


def test_seed_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("ROOTFIELD_SEED", "abc")
    code, out, err = run(capsys, "field", "--p", "3", "--m", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert "ROOTFIELD_SEED" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rootfield", "field", "--p", "2", "--m", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "p=2 m=3 modulus=1,1,0,1\n"


# -- cold start --------------------------------------------------------------------

def fresh(*args):
    """python *args in a new process that imports this tree's rootfield."""
    src = str(Path(rootfield.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], capture_output=True,
                           text=True, timeout=60, env=env)


def test_cold_import_leaves_the_sweep_harness_unloaded():
    # only `rootfield bench` needs the harness, and csv, hashlib and logging
    # with it; a one-shot root request should not pay their import, nor
    # that of dataclasses and inspect, nor the compiler's: the ring of its
    # field reduces fewer products than the rent, so it never compiles.
    # The delta is (1 + 2x + 3x^2)^2 in F_{5^61}
    proc = fresh("-c", "import sys; before = set(sys.modules); "
                 "import rootfield.cli; print(sorted({'csv', 'dataclasses', "
                 "'hashlib', 'inspect', 'logging', 'rootfield.bench', "
                 "'rootfield._kernel'} & (set(sys.modules) - before))); "
                 "code = rootfield.cli.dispatch(['root', '--p', '5', '--m', "
                 "'61', '--r', '2', '--delta', '1,4,0,2,4']); "
                 "print(code, 'rootfield._kernel' in sys.modules)")
    lines = proc.stdout.splitlines()
    assert (proc.returncode, lines[0], lines[-1]) == (0, "[]", "0 False")
    assert lines[1].startswith("status=root_found ") and len(lines) == 3


def test_bench_in_a_fresh_process_matches_dispatch(capsys):
    # a cold process reaches the harness through _cmd_bench's own import;
    # rows are compared without their wall_ns cell, the one that varies
    proc = fresh("-m", "rootfield", "bench", "--sweep", "q=7 m=5 r=2")
    code, out, err = run(capsys, "bench", "--sweep", "q=7 m=5 r=2")

    def timeless(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert len(timeless(out)) == 3
    assert (proc.returncode, timeless(proc.stdout), proc.stderr) == (
        code, timeless(out), err)
