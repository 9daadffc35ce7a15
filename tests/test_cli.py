import argparse
import contextlib
import io
import json
import math
import os
import re
import struct
from pathlib import Path

import pytest

from oracles import ZETA_OVERFLOW_K
from revpal import cli, revgoldbach, sieve
from revpal.cli import CACHE_ENV, COMMANDS, build_parser, dispatch, main, render
from revpal.digits import base_context
from revpal.experiments import CountReport
from revpal.verifier import certify_base


def run(argv):
    buf = io.StringIO()
    args = build_parser().parse_args(argv)
    with contextlib.redirect_stdout(buf):
        code = dispatch(args)
    return code, buf.getvalue()


def test_reverse_command():
    code, out = run(["reverse", "--base", "10", "--n", "1234"])
    assert code == 0
    assert out.strip() == "4321"


def test_reverse_usage_error_exit_2():
    assert main(["reverse", "--base", "10", "--n", "120"]) == 2


def test_unknown_subcommand_exit_2():
    assert main(["frobnicate"]) == 2


def test_palindromes_command():
    code, out = run(["palindromes", "--base", "10", "--x", "100", "--star"])
    assert code == 0
    assert json.loads(out) == [1, 7]


def test_certify_pass_and_fail_exit_codes():
    code, out = run(["certify", "--b", "31698", "--K", "8"])
    assert code == 0
    rec = json.loads(out)
    assert rec["passed"] is True and rec["b"] == 31698
    code, _ = run(["certify", "--b", "20000", "--K", "4"])
    assert code == 1


def test_f_eval_command():
    code, out = run(["f-eval", "--b", "2", "--theta", "0"])
    assert code == 0
    assert float(out) == 3.0


def test_hcabdlog_command():
    code, out = run(["hcabdlog", "--base", "10", "--limit", "1000"])
    assert code == 0
    assert json.loads(out)["exceptions"] == [11]


def test_hcabdlog_builds_only_the_memo_blocks_its_scan_reads(monkeypatch):
    # in base 10 the scan to 10^6 is decided by reverses below 10^4
    tables, get_table = [], cli._get_table

    def recording_get_table(limit):
        tables.append(get_table(limit))
        return tables[-1]

    monkeypatch.setattr(cli, "_get_table", recording_get_table)
    code, out = run(["hcabdlog", "--base", "10", "--limit", str(10 ** 6)])
    assert code == 0 and json.loads(out)["exceptions"] == [11]
    assert [sorted(t._memo) for t in tables] == [[(10, N) for N in range(1, 5)]]


@pytest.mark.parametrize("target", [0, 1, 500, 1005])
def test_goldbach_commands_size_the_table_for_reversed_primes(target, capsys):
    # reverses <= target come from primes with as many digits, up to 999 or
    # 9999; a target below 2 still gets a table of limit 2
    ctx, table = base_context(10), sieve.build(9999)
    code, out = run(["hcabdlog", "--base", "10", "--limit", str(target)])
    assert code == 0
    assert json.loads(out) == revgoldbach.scan_exceptions(ctx, target, table).to_dict()
    if target < 1:
        assert main(["estermann", "--base", "10", "--M", str(target)]) == 2
        assert capsys.readouterr().err == f"error: target must be >= 1, got {target}\n"
        return
    code, out = run(["estermann", "--base", "10", "--M", str(target)])
    assert code == 0
    assert int(out) == revgoldbach.estermann_count(ctx, target, table)


def test_main_term_command():
    code, out = run(["main-term", "--which", "zeta", "--k", "2"])
    assert code == 0
    # output carries 12 significant digits
    assert abs(float(out) - 1.6449340668482264) < 1e-10


def test_count_rev_kfree_csv_format():
    code, out = run(["count-rev-kfree", "--base", "10", "--k", "2", "--N", "2",
                     "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,b,k,N_or_x,d,empirical,main_term,ratio"
    assert lines[1].split(",")[5] == "9"


def test_determinism_identical_runs():
    a = run(["count-rev-kfree", "--base", "10", "--k", "2", "--N", "3", "--format", "json"])
    b = run(["count-rev-kfree", "--base", "10", "--k", "2", "--N", "3", "--format", "json"])
    assert a == b


def test_emit_report_round_trip():
    rep = CountReport(label="x", b=10, k=2, N_or_x=3, d=None, empirical=5, main_term=4.0)
    assert json.loads(render([rep], "json")) == [rep.to_dict()]


def test_emit_certificates_jsonl_ascending():
    certs = [certify_base(base_context(b), 8) for b in (28500, 28501)]
    lines = render(certs, "json").strip().split("\n")
    assert [json.loads(l)["b"] for l in lines] == [28500, 28501]


def test_output_to_file(tmp_path):
    path = tmp_path / "out.json"
    code, out = run(["palindromes", "--base", "10", "--x", "50", "--output", str(path)])
    assert code == 0 and out == ""
    assert json.loads(path.read_text()) == list(range(1, 10)) + [11, 22, 33, 44]


def test_sqrt_law_csv():
    code, out = run(["sqrt-law", "--base", "10", "--x", "100", "10000", "--format", "csv"])
    assert code == 0
    assert out.startswith("x,count,count_over_sqrt_x\n")
    assert out.strip().split("\n")[1].startswith("100,18,")


# small arguments for every subcommand that accepts --output
OUTPUT_ARGS = {
    "palindromes": "--x 1000 --star",
    "count-rev-kfree": "--N 3",
    "rev-pi-star": "--N 3 --d 7",
    "count-palin-kfree": "--base 2 --x 10000",
    "palin-div": "--x 100000 --d 11",
    "almost-prime": "--x 10000 --omega-max 6 --kfree-k 3 --rough-exponent 0.0476",
    "sqrt-law": "--x 100 10000",
    "certify": "--b 31698 --K 8",
    "certify-range": "--b0 28500 --b1 28502 --K 8",
    "hcabdlog": "--limit 1000",
    "estermann": "--M 10000",
}


def _commands_with_output() -> list[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [name for name, sp in sub.choices.items()
            if any("--output" in a.option_strings for a in sp._actions)]


@pytest.mark.parametrize("cmd", _commands_with_output())
def test_output_flag_writes_file_instead_of_stdout(cmd, tmp_path, capsys):
    argv = [cmd, *OUTPUT_ARGS[cmd].split()]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "out"
    assert main([*argv, "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode()


def test_output_follows_redirect_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["reverse", "--base", "10", "--n", "1234"]) == 0
        assert main(["count-rev-kfree", "--N", "2", "--format", "csv"]) == 0
    assert buf.getvalue().split("\n")[:2] == ["4321", "label,b,k,N_or_x,d,empirical,main_term,ratio"]


def test_cache_with_wrong_limit_is_rejected(tmp_path, monkeypatch, capsys):
    sieve.save_cache(sieve.build(100), tmp_path / "sieve_1000.bin")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    assert main(["estermann", "--base", "10", "--M", "1000"]) == 2
    assert "sieve_1000.bin" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [lambda data: data[:-1], lambda data: data + b"\0"])
def test_cache_of_wrong_size_is_rejected(tmp_path, monkeypatch, capsys, edit):
    path = tmp_path / "sieve_1000.bin"
    sieve.save_cache(sieve.build(1000), path)
    path.write_bytes(edit(path.read_bytes()))
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    assert main(["estermann", "--base", "10", "--M", "1000"]) == 2
    assert "sieve_1000.bin" in capsys.readouterr().err


def test_foreign_cache_file_is_rejected_and_kept(tmp_path, monkeypatch, capsys):
    # the right size for its name, but not a sieve cache: never overwritten
    path = tmp_path / "sieve_1000.bin"
    data = b"NOPE" + bytes(12 + 2 * 1001)
    path.write_bytes(data)
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    assert main(["estermann", "--base", "10", "--M", "1000"]) == 2
    assert capsys.readouterr().err == f"error: {path} is not a sieve cache file\n"
    assert path.read_bytes() == data


def test_version_1_cache_is_rebuilt_and_replaced(tmp_path, monkeypatch, capsys):
    # files of the right length for their limit, in older formats: version 1
    # held int32 spf, mu and Omega; version 2 held mu and Omega, as long as
    # version 3
    limit = max(2, 1000, revgoldbach.prime_bound(base_context(10), 999))
    path = tmp_path / f"sieve_{limit}.bin"
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(["estermann", "--base", "10", "--M", "1000"]) == 0
    fresh = capsys.readouterr()
    built = sieve.build(limit)
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    for version, size in ((1, 6), (2, 2)):
        path.write_bytes(struct.pack("<4sIQ", b"RPFT", version, limit) + bytes(size * (limit + 1)))
        assert main(["estermann", "--base", "10", "--M", "1000"]) == 0
        assert capsys.readouterr() == fresh, version
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_bytes()[:16] == struct.pack("<4sIQ", b"RPFT", 3, limit)
        loaded = sieve.load_cache(path)
        assert loaded.squarefree.tobytes() == built.squarefree.tobytes(), version
        assert loaded.omega_total.tobytes() == built.omega_total.tobytes(), version


def test_almost_prime_with_a_huge_rough_exponent_counts_only_one(capsys):
    # x^e overflows a float; only n = 1 has every prime factor above x^e > x
    assert main("almost-prime --x 1000 --omega-max 6 --rough-exponent 1e308".split()) == 0
    assert capsys.readouterr() == ("1\n", "")


@pytest.mark.parametrize("line", ["count-palin-kfree --x 1", "almost-prime --x 1 --omega-max 0"])
def test_palindrome_counts_at_x_1(line, capsys):
    # P_b(1) = {1}; the table is sized to 2, the smallest that build makes
    assert main(line.split()) == 0
    got = capsys.readouterr()
    out = json.loads(got.out)
    assert got.err == "" and (out if isinstance(out, int) else out[0]["empirical"]) == 1


@pytest.mark.parametrize("e", ["nan", "inf", "-inf"])
def test_almost_prime_rejects_a_non_finite_rough_exponent(e, capsys):
    assert main(["almost-prime", "--x", "1000", "--omega-max", "6", f"--rough-exponent={e}"]) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("error: rough_exponent must be finite")


@pytest.mark.parametrize("line, err", [
    ("count-rev-kfree --k 1 --N 8", "k must be >= 2, got 1"),
    ("count-rev-kfree --N 312", "the main term at N = 312 overflows a float"),
    ("rev-pi-star --N 8 --d 2", "d = 2 shares a factor with b^3 - b = 990"),
    ("count-palin-kfree --k 2 --x 100000000", "k must be >= 3, got 2"),
    ("almost-prime --x 100000000 --omega-max -1", "omega_max must be >= 0"),
    ("almost-prime --x 100000000 --omega-max 6 --rough-exponent nan",
     "rough_exponent must be finite, got nan"),
    ("almost-prime --x 100000000 --omega-max 6 --kfree-k 1", "k must be >= 2, got 1"),
])
def test_argument_errors_come_before_any_table(line, err, tmp_path, monkeypatch, capsys):
    # the library's own checks run first: no table is built, and none is cached
    with monkeypatch.context() as m:
        m.setattr(cli, "_get_table", lambda *args: pytest.fail("a table was requested"))
        assert main(line.split()) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
    monkeypatch.setattr(sieve, "build", lambda limit: pytest.fail("a table was built"))
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    assert main(line.split()) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert list(tmp_path.iterdir()) == []


def test_readme_examples_match_goldens(tmp_path, monkeypatch, capsys):
    # the benchmark's golden runner captures file descriptor 1, so pytest's
    # own capture is suspended while it runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import cli_golden

    outputs = {}
    run_captured = cli_golden._run_captured

    def recording(argv, tmp):
        code, out = run_captured(argv, tmp)
        outputs[argv[0]] = out
        return code, out

    monkeypatch.setattr(cli_golden, "_run_captured", recording)
    with capsys.disabled():
        _, failures = cli_golden.run_examples(tmp_path, len(os.sched_getaffinity(0)))
    assert failures == []
    assert len(cli_golden.EXAMPLES) == len(outputs) == 15
    # certificates print full-precision floats, whose last bits follow the
    # kernel's summation order; every other example is byte-identical
    for name, _ in cli_golden.EXAMPLES:
        want = (cli_golden.GOLDEN / f"{name}.out").read_bytes()
        if name in ("certify", "certify-range"):
            lines = zip(outputs[name].splitlines(), want.splitlines(), strict=True)
            for got, exp in lines:
                got, exp = json.loads(got)["max_bound"], json.loads(exp)["max_bound"]
                assert math.isclose(got, exp, rel_tol=1e-12), (name, got, exp)
        else:
            assert outputs[name] == want, name


# (command line, exit code, stdout, stderr) for every command in every format
# it takes, and for each option no command reads; stderr None is argparse's
# usage text, which is not pinned
CLI_BYTES = [
    ("reverse --base 10 --n 1234", 0, "4321\n", ""),
    ("reverse --base 10 --n 120", 2, "",
     "error: 120 has a trailing zero digit in base 10; reversal is not invertible\n"),
    ("palindromes --x 100 --star", 0, "[1, 7]\n", ""),
    ("palindromes --x 100 --star --format human", 0, "1 7\n", ""),
    ("count-rev-kfree --N 3", 0,
     '[{"label": "rev_kfree_primes", "b": 10, "k": 2, "N_or_x": 3, "d": null, "empirical": 63, '
     '"main_term": 55.462405683839336, "ratio": 1.1359045685671902}]\n', ""),
    ("count-rev-kfree --N 3 --format csv", 0,
     "label,b,k,N_or_x,d,empirical,main_term,ratio\n"
     "rev_kfree_primes,10,2,3,,63,55.4624056838,1.13590456857\n", ""),
    ("count-rev-kfree --N 3 --format human", 0,
     "rev_kfree_primes: b=10 k=2 N_or_x=3 d=None empirical=63 main_term=55.4624056838 "
     "ratio=1.13590456857\n", ""),
    ("rev-pi-star --N 3 --d 7", 0,
     '[{"label": "rev_pi_star", "b": 10, "k": null, "N_or_x": 3, "d": 7, "empirical": 11, '
     '"main_term": 8.272275845776228, "ratio": 1.329742891204061}]\n', ""),
    ("rev-pi-star --N 3 --d 7 --format csv", 0,
     "label,b,k,N_or_x,d,empirical,main_term,ratio\n"
     "rev_pi_star,10,,3,7,11,8.27227584578,1.3297428912\n", ""),
    ("rev-pi-star --N 3 --d 7 --format human", 0,
     "rev_pi_star: b=10 k=None N_or_x=3 d=7 empirical=11 main_term=8.27227584578 "
     "ratio=1.3297428912\n", ""),
    ("count-rev-kfree --N 0", 2, "", "error: N must be >= 1, got 0\n"),
    ("count-rev-kfree --N -1", 2, "", "error: N must be >= 1, got -1\n"),
    ("rev-pi-star --N -1 --d 7", 2, "", "error: N must be >= 1, got -1\n"),
    ("rev-pi-star --N 3 --d -7", 2, "", "error: d must be >= 1, got -7\n"),
    ("rev-pi-star --N 3 --d 0", 2, "", "error: d must be >= 1, got 0\n"),
    ("rev-pi-star --N 3 --d 11", 2, "", "error: d = 11 shares a factor with b^3 - b = 990\n"),
    ("count-palin-kfree --base 2 --x 10000", 0,
     '[{"label": "kfree_palindromes", "b": 2, "k": 3, "N_or_x": 10000, "d": null, '
     '"empirical": 84, "main_term": 83.92208439880102, "ratio": 1.0009284278596886}]\n', ""),
    ("count-palin-kfree --base 2 --x 10000 --format csv", 0,
     "label,b,k,N_or_x,d,empirical,main_term,ratio\n"
     "kfree_palindromes,2,3,10000,,84,83.9220843988,1.00092842786\n", ""),
    ("count-palin-kfree --base 2 --x 10000 --format human", 0,
     "kfree_palindromes: b=2 k=3 N_or_x=10000 d=None empirical=84 main_term=83.9220843988 "
     "ratio=1.00092842786\n", ""),
    ("palin-div --x 1000 --d 11 --star", 0, "0\n", ""),
    ("almost-prime --x 1000 --omega-max 2 --kfree-k 3 --rough-exponent 0.2", 0, "36\n", ""),
    ("sqrt-law --x 100 10000", 0,
     '[{"x": 100, "count": 18, "normalized": 1.8}, '
     '{"x": 10000, "count": 198, "normalized": 1.98}]\n', ""),
    ("sqrt-law --x 100 10000 --format csv", 0,
     "x,count,count_over_sqrt_x\n100,18,1.8\n10000,198,1.98\n", ""),
    ("certify --b 31698 --K 8", 0,
     '{"b": 31698, "K": 8, "max_bound": 248678.8870482031, "threshold": 251905.83843712244, '
     '"slack": 1e-09, "passed": true, "cb_estimate": 7.845254812549785, '
     '"alpha_estimate": 0.19875599230941496, "worst_segment": 2}\n', ""),
    ("certify --b 31698 --K 8 --format csv", 0,
     "b,K,max_bound,threshold,slack,passed,cb_estimate,alpha_estimate,worst_segment\n"
     "31698,8,248678.887048,251905.838437,1e-09,True,7.84525481255,0.198755992309,2\n", ""),
    ("certify --b 31698 --K 8 --format human", 0,
     "b=31698 K=8 max_bound=248678.887048 threshold=251905.838437 passed=True "
     "alpha=0.198755992309\n", ""),
    ("certify --b 20000 --K 4 --format human", 1,
     "b=20000 K=4 max_bound=154293.247465 threshold=144955.932736 passed=False "
     "alpha=0.206303356433\n", ""),
    ("certify-range --b0 28500 --b1 28502 --K 8", 0,
     '{"b": 28500, "K": 8, "max_bound": 221660.1800005581, "threshold": 221724.57545544195, '
     '"slack": 1e-09, "passed": true, "cb_estimate": 7.777550175458178, '
     '"alpha_estimate": 0.1999716824168761, "worst_segment": 2}\n'
     '{"b": 28501, "K": 8, "max_bound": 221668.59418606077, "threshold": 221733.91125979685, '
     '"slack": 1e-09, "passed": true, "cb_estimate": 7.777572512756071, '
     '"alpha_estimate": 0.19997127838759218, "worst_segment": 2}\n'
     '{"b": 28502, "K": 8, "max_bound": 221677.00839390024, "threshold": 221743.24712966412, '
     '"slack": 1e-09, "passed": true, "cb_estimate": 7.777594849270235, '
     '"alpha_estimate": 0.19997087437444366, "worst_segment": 2}\n', ""),
    ("certify-range --b0 28500 --b1 28502 --K 8 --format human", 0,
     "b=28500 K=8 max_bound=221660.180001 threshold=221724.575455 passed=True "
     "alpha=0.199971682417\n"
     "b=28501 K=8 max_bound=221668.594186 threshold=221733.91126 passed=True "
     "alpha=0.199971278388\n"
     "b=28502 K=8 max_bound=221677.008394 threshold=221743.24713 passed=True "
     "alpha=0.199970874374\n", ""),
    # the last field is the wall-clock time, checked only for its form
    ("certify-range --b0 28500 --b1 28502 --K 8 --format csv", 0,
     "b0,b1,K,all_passed,wall_clock_seconds\n28500,28502,8,True,0.004\n", ""),
    ("find-min-k --b 31698 --k-max 8", 0, '{"b": 31698, "K_max": 8, "min_K": 5}\n', ""),
    ("find-min-k --b 20000 --k-max 4", 1, '{"b": 20000, "K_max": 4, "min_K": null}\n', ""),
    ("find-min-k --b 31698 --k-max 1", 2, "", "error: K_max must be >= 2, got 1\n"),
    ("find-min-k --b 31698 --k-max -5", 2, "", "error: K_max must be >= 2, got -5\n"),
    # K_max past the kernel's range is refused before the first certificate
    ("find-min-k --b 31698 --k-max 1000000000000", 0,
     '{"b": 31698, "K_max": 1000000000000, "min_K": 5}\n', ""),
    ("find-min-k --b 31698 --k-max 10000000000000", 2, "",
     "error: K_max must be <= 1000000000000, got 10000000000000\n"),
    ("f-eval --b 20000 --theta 0", 0, "147694.728345\n", ""),
    ("f-eval --b 7 --theta inf", 2, "", "error: theta must be finite, got inf\n"),
    ("f-eval --b 7 --theta nan", 2, "", "error: theta must be finite, got nan\n"),
    ("hcabdlog --limit 1000", 0,
     '{"base": 10, "limit": 1000, "scanned_from": 4, "parity_class": "all_targets", '
     '"exceptions": [11]}\n', ""),
    ("estermann --M 1000", 0, "100\n", ""),
    ("main-term --which zeta --k 3", 0, "1.20205690316\n", ""),
    ("main-term --which kfree-density --k 2", 0, "0.957801814119\n", ""),
    ("main-term --which rev-kfree --N 5", 0, "3327.74434103\n", ""),
    ("main-term --which rev-pi --N 5 --d 7", 0, "496.336550747\n", ""),
    ("main-term --which rev-kfree", 2, "", "error: --N is required for rev-kfree\n"),
    ("main-term --which rev-pi --N 5", 2, "", "error: --N and --d are required for rev-pi\n"),
    # on both sides of the first N, or k, whose main term overflows a float
    ("main-term --which rev-kfree --N 311", 0, "5.35007128783e+307\n", ""),
    ("main-term --which rev-kfree --N 312", 2, "",
     "error: the main term at N = 312 overflows a float\n"),
    ("main-term --which rev-pi --N 312 --d 7", 0, "7.95411139017e+307\n", ""),
    ("main-term --which rev-pi --N 313 --d 7", 2, "",
     "error: the main term at N = 313 overflows a float\n"),
    ("main-term --which zeta --k " + str(ZETA_OVERFLOW_K - 1), 0, "1\n", ""),
    ("main-term --which zeta --k " + str(ZETA_OVERFLOW_K), 0, "1\n", ""),
    ("main-term --which kfree-density --k " + str(ZETA_OVERFLOW_K - 1), 0, "1\n", ""),
    ("main-term --which kfree-density --k " + str(ZETA_OVERFLOW_K), 0, "1\n", ""),
    # zeta(53) = 1 + 2^-52 prints as 1 at 12 digits, as zeta(k) = 1.0 from 54 on
    ("main-term --which zeta --k 53", 0, "1\n", ""),
    ("main-term --which zeta --k " + str(10 ** 103), 0, "1\n", ""),
    ("main-term --which kfree-density --k " + str(10 ** 400), 0, "1\n", ""),
    # b^3 - b past int64 (b > 2^21), and divisors or K past the supported range
    ("palindromes --base 3000000 --x 100 --star", 0,
     "[1, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59, 61, 67, 71, 73, 77, 79, "
     "83, 89, 91, 97]\n", ""),
    ("sqrt-law --base 3000000 --x 100 --star", 0,
     '[{"x": 100, "count": 26, "normalized": 2.6}]\n', ""),
    ("palin-div --base 3000000 --x 100 --d 7 --star", 0, "4\n", ""),
    ("count-palin-kfree --base 3000000 --x 100", 0,
     '[{"label": "kfree_palindromes", "b": 3000000, "k": 3, "N_or_x": 100, "d": null, '
     '"empirical": 26, "main_term": 25.877303106435107, "ratio": 1.0047414868953009}]\n', ""),
    ("palin-div --x 1000 --d 99999999999999999999", 0, "0\n", ""),
    ("rev-pi-star --N 3 --d 100000000000000000001", 0,
     '[{"label": "rev_pi_star", "b": 10, "k": null, "N_or_x": 3, "d": 100000000000000000001, '
     '"empirical": 0, "main_term": 5.790593092043357e-19, "ratio": 0.0}]\n', ""),
    ("certify --b 26000 --K 100000000000000000000", 2, "",
     "error: K must be <= 1000000000000, got 100000000000000000000\n"),
    ("certify-range --b0 26000 --b1 26000 --K 1000000000001", 2, "",
     "error: K must be <= 1000000000000, got 1000000000001\n"),
    ("palindromes --x 100 --format csv", 2, "", None),
    ("sqrt-law --x 100 --format human", 2, "", None),
    ("palin-div --x 1000 --d 11 --format json", 2, "", None),
    ("almost-prime --x 1000 --omega-max 2 --format human", 2, "", None),
    ("hcabdlog --limit 1000 --format csv", 2, "", None),
    ("estermann --M 1000 --format json", 2, "", None),
    ("certify --b 31698 --K 8 --slack 0", 2, "", None),
    ("certify-range --b0 28500 --b1 28500 --K 8 --slack 0", 2, "", None),
    ("certify-range --b0 28500 --b1 28500 --K 8 --timing", 2, "", None),
    ("certify-range --b0 28500 --b1 28500 --K 8 --workers 0", 2, "",
     "error: workers must be >= 1, got 0\n"),
    ("certify-range --b0 28500 --b1 28500 --K 8 --workers -3", 2, "",
     "error: workers must be >= 1, got -3\n"),
    ("find-min-k --b 31698 --k-max 8 --slack 0", 2, "", None),
]


@pytest.mark.parametrize("line, code, want, err", CLI_BYTES, ids=[c[0] for c in CLI_BYTES])
def test_cli_prints_the_same_bytes(line, code, want, err, capsys):
    assert main(line.split()) == code
    got = capsys.readouterr()
    if err is not None:
        assert got.err == err
    if line.startswith("certify-range") and line.endswith("csv"):
        head, seconds = got.out.rsplit(",", 1)
        assert head == want.rsplit(",", 1)[0]
        assert re.fullmatch(r"\d+\.\d{3}\n", seconds)
    elif '"max_bound"' in want:
        # full-precision floats follow the kernel's summation order; the
        # 12-digit forms above pin the same certificates exactly
        for g, w in zip(got.out.splitlines(), want.splitlines(), strict=True):
            g, w = json.loads(g), json.loads(w)
            assert list(g) == list(w)
            assert all(math.isclose(g[k], v, rel_tol=1e-12) if isinstance(v, float) else g[k] == v
                       for k, v in w.items()), (g, w)
    else:
        assert got.out == want


def test_readme_lists_every_command_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
    listed = [line.split()[1] for block in blocks for line in block.splitlines()
              if line.startswith("revpal ")]
    assert sorted(listed) == sorted(set(listed)), "a command is listed twice"
    assert set(listed) - set(COMMANDS) == set(), "README lists a command the CLI lacks"
    assert set(COMMANDS) - set(listed) == set(), "README omits a command"
