"""Untimed pass over every CLI example in README.md.

Each example runs in-process through ``revpal.cli.main``; its standard output
is captured at file descriptor 1, because ``cli.dispatch`` binds
``sys.stdout`` at import and ``contextlib.redirect_stdout`` cannot see it. The
bytes are compared with ``golden/<name>.out``, captured from the README
examples when the benchmark was added, and every example must exit 0.

Identical bytes are reported as such. Certificates may agree to a written-down
tolerance when the kernel's summation order changes, so two differences still
count as correct: full-precision floats (more significant digits than the
CLI's fixed 12-digit format) within ``reference.RTOL``, and a certificate's
``worst_segment`` naming the mirror segment K-1-i, which ties with segment i
because f is even. Any other difference, 12-digit formatted numbers included,
is a failure.
"""

import json
import math
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from reference import RTOL
from revpal import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

EXAMPLES = [
    ("reverse", "reverse --base 10 --n 1234"),
    ("palindromes", "palindromes --base 10 --x 1000 --star"),
    ("count-rev-kfree", "count-rev-kfree --base 10 --k 2 --N 5 --format csv"),
    ("rev-pi-star", "rev-pi-star --base 10 --N 4 --d 7"),
    ("count-palin-kfree", "count-palin-kfree --base 2 --k 3 --x 1000000"),
    ("palin-div", "palin-div --base 10 --x 100000 --d 11"),
    ("almost-prime", "almost-prime --base 10 --x 10000 --omega-max 6 --kfree-k 3 "
                     "--rough-exponent 0.0476"),
    ("sqrt-law", "sqrt-law --base 10 --x 100 10000 1000000 --format csv"),
    ("certify", "certify --b 31698 --K 8"),
    ("certify-range", "certify-range --b0 28500 --b1 28520 --K 8 --workers 4"),
    ("find-min-k", "find-min-k --b 30000 --k-max 64"),
    ("f-eval", "f-eval --b 20000 --theta 0"),
    ("hcabdlog", "hcabdlog --base 10 --limit 1000000"),
    ("estermann", "estermann --base 10 --M 10000"),
    ("main-term", "main-term --which kfree-density --base 10 --k 2"),
]


def _argv(line: str, nproc: int) -> list[str]:
    argv = shlex.split(line)
    if "--workers" in argv:  # the README asks for 4; never ask for more than the cores
        i = argv.index("--workers") + 1
        argv[i] = str(min(int(argv[i]), nproc))
    return argv


def _run_captured(argv: list[str], tmp: Path) -> tuple[int, bytes]:
    with tempfile.TemporaryFile(dir=tmp) as sink:
        sys.stdout.flush()
        saved = os.dup(1)
        os.dup2(sink.fileno(), 1)
        try:
            code = cli.main(argv)
            sys.stdout.flush()
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        sink.seek(0)
        return code, sink.read()


_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_FORMAT_DIGITS = 12  # cli._fmt writes floats with 12 significant digits


def _full_precision_float(token: bytes) -> bool:
    mantissa = re.split(rb"[eE]", token)[0]
    return b"." in mantissa and len(mantissa.replace(b".", b"").lstrip(b"-0")) > _FORMAT_DIGITS


def _same_certificate(got: dict, want: dict) -> bool:
    mirror = want["K"] - 1 - want["worst_segment"]
    return list(got) == list(want) and all(
        got[k] == v
        or (k == "worst_segment" and got[k] == mirror)
        or (isinstance(v, float) and math.isclose(got[k], v, rel_tol=RTOL))
        for k, v in want.items())


def _equivalent(out: bytes, want: bytes) -> bool:
    """Same text around the numbers, and numbers identical up to the two
    certificate tolerances in the module docstring."""
    if _NUMBER.split(out) != _NUMBER.split(want):
        return False
    got, exp = _NUMBER.findall(out), _NUMBER.findall(want)
    if all(g == e or (_full_precision_float(e) and math.isclose(float(g), float(e), rel_tol=RTOL))
           for g, e in zip(got, exp)):
        return True
    try:
        pairs = [(json.loads(g), json.loads(w)) for g, w in zip(out.splitlines(), want.splitlines())]
    except ValueError:
        return False
    return all(isinstance(w, dict) and "worst_segment" in w and _same_certificate(g, w)
               for g, w in pairs)


def run_examples(tmp: Path, nproc: int) -> tuple[int, list[str]]:
    """Run every example; return the number with byte-identical output and one
    description per mismatch or raised error."""
    identical, failures = 0, []
    for name, line in EXAMPLES:
        try:
            code, out = _run_captured(_argv(line, nproc), tmp)
        except Exception as e:  # an example that raises is a failed result, not a crash
            failures.append(f"cli {name}: raised {type(e).__name__}: {e}")
            continue
        want = (GOLDEN / f"{name}.out").read_bytes()
        identical += code == 0 and out == want
        if code != 0 or not (out == want or _equivalent(out, want)):
            failures.append(f"cli {name}: exit {code}, output differs from golden: {out[:200]!r}")
    return identical, failures
