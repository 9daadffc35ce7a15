import argparse
import contextlib
import io
import json
import math
import os
from pathlib import Path

import pytest

from revpal import revgoldbach, sieve
from revpal.cli import CACHE_ENV, UsageError, build_parser, dispatch, emit_report, main
from revpal.digits import base_context
from revpal.experiments import CountReport
from revpal.verifier import certify_base


def run(argv):
    buf = io.StringIO()
    args = build_parser().parse_args(argv)
    code = dispatch(args, out=buf)
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


@pytest.mark.parametrize("target", [500, 1005])
def test_goldbach_commands_size_the_table_for_reversed_primes(target):
    # reverses <= target come from primes with as many digits, up to 999 or 9999
    ctx, table = base_context(10), sieve.build(9999)
    code, out = run(["hcabdlog", "--base", "10", "--limit", str(target)])
    assert code == 0
    assert json.loads(out) == revgoldbach.scan_exceptions(ctx, target, table).to_dict()
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


def test_emit_report_rejects_empty():
    with pytest.raises(UsageError):
        emit_report([], "json", None)


def test_emit_report_round_trip():
    rep = CountReport(label="x", b=10, k=2, n_or_x=3, d=None, empirical=5, main_term=4.0)
    buf = io.StringIO()
    emit_report([rep], "json", None, out=buf)
    assert CountReport.from_dict(json.loads(buf.getvalue())[0]) == rep


def test_emit_certificates_jsonl_ascending():
    certs = [certify_base(base_context(b), 8) for b in (28500, 28501)]
    buf = io.StringIO()
    emit_report(certs, "json", None, out=buf)
    lines = buf.getvalue().strip().split("\n")
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
    rep = CountReport(label="x", b=10, k=2, n_or_x=3, d=None, empirical=5, main_term=4.0)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["reverse", "--base", "10", "--n", "1234"]) == 0
        emit_report([rep], "csv", None)
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
