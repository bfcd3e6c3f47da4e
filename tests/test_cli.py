import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_sylvester import (
    CAP_REACHED,
    PadicSylvesterError,
    PLocal,
    Prime,
    QuadElement,
    adaptive_pk_greedy,
    fs_greedy,
    knopfmacher_sylvester,
    modified_sylvester,
    p_abs,
    pk_greedy,
    value_operands,
    verify_expansion,
)
import padic_sylvester
from padic_sylvester import cli, quadratic, report
from padic_sylvester.cli import main
from padic_sylvester.expansion import DEFAULT_MAX_TERMS
from padic_sylvester.report import expansion_from_json, expansion_json

SRC = str(Path(padic_sylvester.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpandCommand:
    def test_pk_example(self, capsys):
        code, out, _ = run(capsys, "expand", "--alg", "pk", "--p", "3", "--k", "1",
                           "--value", "473/25")
        assert code == 0
        assert "1/2 + 3/5 + 3^4/115 + 3^9/1150" in out
        assert "status: terminated" in out

    def test_sylvester_quadratic_example(self, capsys):
        code, out, _ = run(capsys, "expand", "--alg", "sylvester", "--p", "7", "--k", "1",
                           "--sqrt", "11", "--x", "0", "--y", "1/11",
                           "--real-sign", "+", "--padic-residue", "2", "--max-terms", "4")
        assert code == 0
        assert "1/9 + 7/66 + 7^3/4709 + 7^7/72282453" in out

    def test_sylvester_second_embedding(self, capsys):
        code, out, _ = run(capsys, "expand", "--alg", "sylvester", "--p", "7", "--k", "1",
                           "--sqrt", "11", "--x", "0", "--y", "1/11",
                           "--real-sign", "-", "--padic-residue", "2", "--max-terms", "4")
        assert code == 0
        assert "1/2 + 7/12 + 7^3/617 + 7^7/1045103" in out

    def test_knopf_certificate(self, capsys):
        code, out, _ = run(capsys, "expand", "--alg", "knopf", "--p", "3", "--value", "2/5")
        assert code == 0
        assert "certified_nonterminating" in out

    def test_knopf_certified_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "expand", "--alg", "knopf", "--p", "2", "--value", "2/5",
                           "--max-terms", "1")
        assert code == 0
        assert "certified_nonterminating" in out

    def test_fs(self, capsys):
        code, out, _ = run(capsys, "expand", "--alg", "fs", "--value", "5/11")
        assert code == 0
        assert "1/3 + 1/9 + 1/99" in out

    def test_adaptive(self, capsys):
        code, out, _ = run(capsys, "expand", "--alg", "adaptive", "--p", "11", "--k", "1",
                           "--value", "5/121")
        assert code == 0
        assert "1/1089 + 1/55 + 1/45" in out

    def test_deterministic_output(self, capsys):
        args = ("expand", "--alg", "pk", "--p", "3", "--k", "1", "--value", "473/25",
                "--output", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_invalid_prime(self, capsys):
        code, _, err = run(capsys, "expand", "--alg", "pk", "--p", "9", "--k", "1",
                           "--value", "1/2")
        assert code == 1
        assert "--p" in err

    def test_pseudoprime_is_not_a_prime_base(self, capsys):
        # A strong pseudoprime to every witness up to 37.
        code, _, err = run(capsys, "expand", "--alg", "pk", "--p", "318665857834031151167461",
                           "--k", "1", "--value", "2/3")
        assert code == 1
        assert err.startswith("error: --p: 318665857834031151167461 is not prime")

    def test_k_too_small(self, capsys):
        code, _, err = run(capsys, "expand", "--alg", "pk", "--p", "11", "--k", "1",
                           "--value", "5/121")
        assert code == 1
        assert "k" in err

    def test_bad_value(self, capsys):
        code, _, err = run(capsys, "expand", "--alg", "pk", "--p", "3", "--k", "1",
                           "--value", "nonsense")
        assert code == 1
        assert "--value" in err

    def test_partial_quadratic_flags(self, capsys):
        code, _, err = run(capsys, "expand", "--alg", "sylvester", "--p", "7", "--k", "1",
                           "--sqrt", "11", "--x", "0", "--y", "1/11", "--real-sign", "+")
        assert code == 1
        assert "--padic-residue" in err

    @pytest.mark.parametrize("cap, want", [((), 2), (("--max-terms", "2"), 0)],
                             ids=["default-cap", "explicit-cap"])
    def test_default_term_cap_exits_2(self, capsys, monkeypatch, cap, want):
        # No real input reaches the default cap of 64 doubling terms, so it is
        # lowered to 2; only a cap the user did not ask for exits 2.
        monkeypatch.setattr(cli, "DEFAULT_MAX_TERMS", 2)
        code, out, _ = run(capsys, "expand", "--alg", "sylvester", "--p", "7", "--k", "1",
                           *QUAD_XI, *cap)
        assert code == want
        assert "status: cap_reached" in out


QUAD_XI = ("--sqrt", "11", "--x", "0", "--y", "1/11", "--real-sign", "+",
           "--padic-residue", "2")


class TestIgnoredFlagsRejected:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("expand", "--alg", "pk", "--p", "3", "--k", "1", "--value", "473/25",
              "--max-terms", "1"), "--max-terms"),
            (("expand", "--alg", "adaptive", "--p", "3", "--k", "1", "--value", "473/25",
              "--max-terms", "1"), "--max-terms"),
            (("expand", "--alg", "fs", "--value", "5/11", "--max-terms", "1"), "--max-terms"),
            (("expand", "--alg", "fs", "--value", "5/11") + QUAD_XI, "quadratic"),
            (("expand", "--alg", "sylvester", "--p", "7", "--k", "1", "--value", "1/2")
             + QUAD_XI, "--value"),
            (("digits", "--p", "7", "--value", "1/2") + QUAD_XI, "--value"),
            (("compare", "--which", "scaling", "--p", "11", "--k", "1", "--a", "5",
              "--b", "121", "--value", "5/121"), "--value"),
            (("compare", "--p", "11", "--k", "1", "--value", "5/121", "--a", "5"), "--a"),
            (("compare", "--p", "11", "--k", "1", "--value", "5/121", "--b", "121"), "--b"),
        ],
        ids=["pk-max-terms", "adaptive-max-terms", "fs-max-terms", "fs-quad",
             "expand-value-quad", "digits-value-quad", "scaling-value", "nojump-a",
             "nojump-b"],
    )
    def test_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert flag in err


class TestUsageRejections:
    """Each invalid combination of flags is refused before any output, with
    an error naming the flag at fault."""

    @pytest.mark.parametrize("argv, flag", [
        (("expand", "--alg", "pk", "--k", "1", "--value", "1/2"), "--p is required"),
        (("expand", "--alg", "pk", "--p", "3", "--value", "1/2"), "--k is required"),
        (("expand", "--alg", "sylvester", "--p", "7", "--k", "1", "--sqrt", "4", "--x", "0",
          "--y", "1", "--real-sign", "+", "--padic-residue", "2"),
         "quadratic input: 4 is a rational square"),
        (("expand", "--alg", "sylvester", "--p", "2", "--k", "1") + QUAD_XI,
         "quadratic input: p = 2"),
        (("expand", "--alg", "sylvester", "--p", "3", "--k", "1", "--value", "1/2",
          "--max-terms", "0"), "--max-terms must be positive"),
        (("expand", "--alg", "fs", "--p", "3", "--value", "5/11"), "--p/--k do not apply"),
        (("expand", "--alg", "fs"), "--value is required for --alg fs"),
        (("expand", "--alg", "pk", "--p", "7", "--k", "1") + QUAD_XI,
         "quadratic input requires --alg sylvester"),
        (("expand", "--alg", "pk", "--p", "3", "--k", "1"), "--value is required"),
        (("expand", "--alg", "knopf", "--p", "3", "--k", "1", "--value", "2/5"),
         "--k does not apply to --alg knopf"),
        (("divide", "--p", "3", "--k", "1"), "--value is required"),
        (("digits", "--p", "3", "--value", "1/2", "--count", "0"),
         "--count must be positive"),
        (("digits", "--p", "3"), "--value is required"),
        (("compare", "--which", "scaling", "--p", "11", "--k", "1", "--a", "5"),
         "--a and --b are required"),
        (("compare", "--p", "11", "--k", "1"), "--value is required for --which nojump"),
        (("verify", "{missing}"), "report: [Errno 2]"),
    ], ids=["no-p", "no-k", "quad-square", "quad-p-2", "max-terms-0", "fs-p", "fs-no-value",
            "pk-quad", "no-value", "knopf-k", "divide-no-value", "digits-count-0",
            "digits-no-value", "scaling-no-b", "nojump-no-value", "verify-missing-file"])
    def test_exit_1(self, capsys, tmp_path, argv, flag):
        argv = [a.format(missing=tmp_path / "missing.json") for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag}")


class TestArgparseRejections:
    """argparse's rejections keep their usage and error text but exit 1, the
    code for invalid input."""

    @pytest.mark.parametrize("argv, message", [
        (("--alg", "bogus", "--p", "3", "--k", "1", "--value", "1/2"),
         "argument --alg: invalid choice: 'bogus'"),
        (("--alg", "pk", "--p", "x", "--k", "1", "--value", "1/2"),
         "argument --p: invalid int value: 'x'"),
        # argparse reads a separate -5/3 as a flag.
        (("--alg", "sylvester", "--p", "5", "--k", "1", "--value", "-5/3"),
         "argument --value: expected one argument"),
    ], ids=["alg", "p", "negative-value"])
    def test_exit_1(self, capsys, argv, message):
        code, out, err = run(capsys, "expand", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: padic-sylvester expand [-h]")
        assert f"\npadic-sylvester expand: error: {message}" in err

    def test_negative_value_after_equals(self, capsys):
        code, out, err = run(capsys, "expand", "--alg", "adaptive", "--p", "5", "--k", "1",
                             "--value=-2/5")
        assert code == 0
        assert "input: -2/5" in out
        assert "expansion: 1/10 + -1/2" in out
        assert err == ""


class TestClosedStdout:
    """A reader that closes stdout early (as `| head -1` does) ends the
    command with exit 1 and an empty stderr, whether stdout is unbuffered
    (the report's print fails) or buffered (the final flush fails). Help is
    printed the same way."""

    def _run_closed(self, argv, unbuffered):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run(
                [sys.executable, "-m", "padic_sylvester.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write)

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("expand", "--alg", "pk", "--p", "3", "--k", "1", "--value", "473/25"),
        ("divide", "--p", "3", "--k", "1", "--value", "473/25"),
        ("digits", "--p", "3", "--value", "4/3", "--count", "2"),
        ("compare", "--which", "nojump", "--p", "3", "--k", "-2", "--value", "5/7"),
    ], ids=["expand", "divide", "digits", "compare"])
    def test_exit_1_without_traceback(self, argv, output, unbuffered):
        done = self._run_closed((*argv, "--output", output), unbuffered)
        assert done.returncode == 1
        assert done.stderr == b""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [("--help",), ("expand", "--help")],
                             ids=["main", "expand"])
    def test_help_exit_1_without_traceback(self, argv, unbuffered):
        done = self._run_closed(argv, unbuffered)
        assert done.returncode == 1
        assert done.stderr == b""

    @pytest.mark.parametrize("argv", [("--help",), ("expand", "--help")],
                             ids=["main", "expand"])
    def test_help_on_open_stdout_exits_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: padic-sylvester") and out.endswith("\n")


class TestRendersOnlyRequestedFormat:
    def test_text_skips_json(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "expansion_json", None)
        code, out, _ = run(capsys, "expand", "--alg", "pk", "--p", "3", "--k", "1",
                           "--value", "473/25")
        assert code == 0 and "status: terminated" in out

    def test_json_skips_text(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "expansion_text", None)
        code, out, _ = run(capsys, "expand", "--alg", "pk", "--p", "3", "--k", "1",
                           "--value", "473/25", "--output", "json")
        assert code == 0 and json.loads(out)["status"] == "terminated"


class TestUnprintableReport:
    """A report with a value past CPython's int/str digit limit prints
    nothing: one error line that keeps str()'s message, and exit 1, in
    either output format. Each runs in a subprocess with a timeout."""

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("compare", "--which", "nojump", "--p", "3", "--k", "-20000", "--value", "1/2"),
        ("expand", "--alg", "pk", "--p", "101", "--k", "1",
         "--value", f"{10**16 + 7}/{10**16 + 9}"),
    ], ids=["compare-nojump", "expand-pk"])
    def test_error_line(self, argv, output):
        env = dict(os.environ, PYTHONPATH=SRC)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "padic_sylvester.cli", *argv,
                               "--output", output], capture_output=True, text=True,
                              env=env, timeout=10)
        assert time.perf_counter() - start < 2
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: report cannot be printed: Exceeds the limit (")
        assert done.stderr.count("\n") == 1


def _timed(argv, stdin=None, limit=2):
    """The CLI on argv in a subprocess, which must end within limit seconds
    and without a traceback."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "padic_sylvester.cli", *argv],
                          input=stdin, capture_output=True, text=True, env=env, timeout=10)
    assert time.perf_counter() - start < limit
    assert "Traceback" not in done.stderr
    return done


class TestWideRadicand:
    """A radicand with a prime factor far above quadratic._TRIAL_BOUND is
    normalized by trial division below the bound only, so each command that
    reads it answers at once. Each runs in a subprocess with a timeout."""

    QUAD = ("--sqrt", str(10**30 + 57), "--x", "0", "--y", "1", "--real-sign", "+",
            "--padic-residue", "3")

    def test_expand_digits_and_verify(self):
        expand = _timed(("expand", "--alg", "sylvester", "--p", "7", "--k", "1")
                        + self.QUAD + ("--max-terms", "2", "--output", "json"))
        assert (expand.returncode, expand.stderr) == (0, "")
        data = json.loads(expand.stdout)
        assert data["input"]["d"] == str(10**30 + 57)
        assert data["verification"]["ok"] and len(data["terms"]) == 2
        digits = _timed(("digits", "--p", "7", "--count", "4") + self.QUAD)
        assert (digits.returncode, digits.stderr) == (0, "")
        verify = _timed(("verify", "-"), expand.stdout)
        assert (verify.returncode, verify.stderr) == (0, "")
        assert verify.stdout.startswith("verification: ok")


class TestDivideCommand:
    def test_first_step(self, capsys):
        code, out, _ = run(capsys, "divide", "--p", "3", "--k", "1", "--value", "473/25")
        assert code == 0
        assert "25 = 473 * 2 - 921" in out
        assert "rbar: 307" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "divide", "--p", "3", "--k", "1", "--value", "473/25",
                           "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["q"]["value"] == "2" and data["r"] == "921"

    def test_zero_quotient(self, capsys):
        argv = ("divide", "--p", "11", "--k", "0", "--value=-125/57")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "-57 = 125 * 0 - 57" in out and "q: 0 (no term)" in out
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == 0
        assert json.loads(out)["q"] == {"unit": "0", "exp": "0", "value": "0"}

    def test_zero_value_is_the_library_rule(self, capsys):
        # a = 0: pk_divide's own rule, not the expand drivers' "cannot expand zero".
        code, out, err = run(capsys, "divide", "--p", "3", "--k", "0", "--value", "0")
        assert (code, out, err) == (1, "", "error: divisor must be positive, got 0\n")

    def test_division_conditions_sweep(self, capsys):
        rng = random.Random(1508)
        zero_quotients = 0
        for p in (2, 3, 5, 7, 11):
            for k in range(-3, 4):
                values = ["-125/57", "473/25"] + [
                    f"{rng.choice([-1, 1]) * rng.randint(1, 10**4)}/{rng.randint(1, 10**4)}"
                    for _ in range(4)
                ]
                for value in values:
                    argv = ("divide", "--p", str(p), "--k", str(k), f"--value={value}")
                    code, out, _ = run(capsys, *argv, "--output", "json")
                    assert code == 0
                    d = json.loads(out)
                    a, b, r = (Fraction(d[f]) for f in ("a", "b", "r"))
                    q = Fraction(d["q"]["value"])
                    apk = a * Fraction(p) ** k
                    assert b == a * q - r
                    assert 0 <= r < apk
                    assert p_abs(Prime(p), r) <= p_abs(Prime(p), apk)
                    zero_quotients += q == 0
                    code, text, _ = run(capsys, *argv)
                    assert code == 0
                    lines = text.splitlines()
                    assert f"r: {d['r']}" in lines
                    assert lines[-1].startswith(f"rbar: {d['rbar']}  ")
        assert zero_quotients > 0


class TestZeroResidue:
    """A zero residue gives r = 0 and q = unit(b)/unit(a) * p**(ord(b) -
    ord(a)) in both cases of the division, with no power of p built, so a
    far negative k answers at once. Each runs in a subprocess with a
    timeout."""

    @pytest.mark.parametrize("argv, out, limit", [
        (("divide", "--p", "3", "--k=-3000000", "--value", "1/2"),
         "b = a*q - r\n2 = 1 * 2 - 0\nq: 2 (term 1/2)\nr: 0\nrbar: 0  jump: no  case: case2\n", 2),
        (("compare", "--which", "scaling", "--p", "3", "--k=-1000000", "--a", "1", "--b", "2"),
         "scaling correspondence: holds\n", 1),
    ], ids=["divide", "compare-scaling"])
    def test_far_negative_k_answers_at_once(self, argv, out, limit):
        done = _timed(argv, limit=limit)
        assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


class TestDigitsCommand:
    def test_rational(self, capsys):
        code, out, _ = run(capsys, "digits", "--p", "3", "--value", "4/3", "--count", "2")
        assert code == 0
        assert "start: -1" in out and "digits: 1 1" in out

    def test_quadratic(self, capsys):
        code, out, _ = run(capsys, "digits", "--p", "7", "--count", "3",
                           "--sqrt", "11", "--x", "0", "--y", "1", "--real-sign", "+",
                           "--padic-residue", "2")
        assert code == 0
        assert "start: 0" in out
        assert out.splitlines()[-1].startswith("digits: 2")

    def test_precision_exhausted_exits_2(self, capsys):
        code, _, err = run(capsys, "digits", "--p", "7", "--count", "70000", "--sqrt", "11",
                           "--x", "0", "--y", "1/11", "--real-sign", "+",
                           "--padic-residue", "2")
        assert code == 2
        assert "precision exhausted" in err

    def test_rational_count_is_capped(self, capsys, monkeypatch):
        monkeypatch.setattr(quadratic, "PRECISION_CAP", 8)
        code, _, err = run(capsys, "digits", "--p", "3", "--value", "1/7", "--count", "9")
        assert code == 2
        assert "digit window of 9 exceeds the 8-digit cap" in err
        code, out, _ = run(capsys, "digits", "--p", "3", "--value", "1/7", "--count", "8")
        assert code == 0
        assert len(out.splitlines()[-1].split()) == 9  # "digits:" and 8 digits


class TestCompareCommand:
    def test_nojump(self, capsys):
        code, out, _ = run(capsys, "compare", "--p", "11", "--k", "1", "--value", "5/121")
        assert code == 0
        assert "verdict: holds" in out
        assert "1/33 + 1/99 + 1/1089" in out
        assert "1/3 + 1/9 + 1/99" in out

    def test_nojump_with_jump(self, capsys):
        code, out, _ = run(capsys, "compare", "--p", "3", "--k", "1", "--value", "22/45")
        assert code == 0
        assert "verdict: holds_despite_jump" in out

    def test_scaling(self, capsys):
        code, out, _ = run(capsys, "compare", "--which", "scaling", "--p", "11", "--k", "1",
                           "--a", "5", "--b", "121")
        assert code == 0
        assert "holds" in out

    def test_hypothesis(self, capsys):
        code, _, err = run(capsys, "compare", "--p", "3", "--k", "1", "--value", "473/25")
        assert code == 1

    def test_zero_value_is_the_library_rule(self, capsys):
        code, out, err = run(capsys, "compare", "--p", "3", "--k", "0", "--value", "0")
        assert (code, out, err) == (1, "", "error: a/b must be positive, got 0\n")

    def test_nojump_below_the_order(self, capsys):
        code, out, _ = run(capsys, "compare", "--which", "nojump", "--p", "3", "--k", "-2",
                           "--value", "5/7")
        assert code == 0
        assert "verdict: holds" in out
        assert "classical terms: 1/13 + 1/410 + 1/335790" in out


PK_473_25 = ("--alg", "pk", "--p", "3", "--k", "1", "--value", "473/25")
KNOPF_2_5 = ("--alg", "knopf", "--p", "3", "--value", "2/5")
FS_5_121 = ("--alg", "fs", "--value", "5/121")


def _bump(entry, key, by):
    entry[key] = str(int(entry[key]) + by)


class TestVerifyCommand:
    def test_roundtrip_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "expand", "--alg", "pk", "--p", "3", "--k", "1",
                           "--value", "473/25", "--output", "json")
        path = tmp_path / "report.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "sum=exact" in out2

    def test_quadratic_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "expand", "--alg", "sylvester", "--p", "7", "--k", "1",
                           "--sqrt", "11", "--x", "0", "--y", "1/11", "--real-sign", "+",
                           "--padic-residue", "2", "--max-terms", "4", "--output", "json")
        path = tmp_path / "quad.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "verify", str(path))
        assert code == 0

    DEEP_12 = ("--p", "101", "--k", "1", "--value", "1000000000007/1000000000009")

    # Valid reports verify through the CLI: every algorithm, a knopf run
    # certified at its term cap, the widest xi report that renders (12
    # terms), a quadratic input with y = 0 and deep rationals, whose growth
    # floors the replay takes.
    @pytest.mark.parametrize("argv", [
        KNOPF_2_5,
        ("--alg", "knopf", "--p", "2", "--value", "2/5", "--max-terms", "1"),
        ("--alg", "fs", "--value", "4/13"),
        ("--alg", "sylvester", "--p", "7", "--k", "1", "--max-terms", "12") + QUAD_XI,
        ("--alg", "sylvester", "--p", "7", "--k", "1", "--sqrt", "11", "--x", "1", "--y", "0",
         "--real-sign", "+", "--padic-residue", "2"),
        ("--alg", "adaptive") + DEEP_12,
        ("--alg", "sylvester") + DEEP_12,
    ], ids=["knopf", "knopf-certified-at-cap", "fs", "sylvester-quad-12", "sylvester-quad-zero-y",
            "adaptive-deep", "sylvester-deep"])
    def test_valid_report_verifies(self, argv):
        code, out, err = _cli(("expand",) + argv + ("--output", "json"))
        assert (code, err) == (0, "")
        code, text, err = _cli(("verify", "-"), out)
        assert (code, err) == (0, "")
        assert text.startswith("verification: ok")

    def test_fs_terms_greedy_does_not_pick_fail(self):
        # 2/3 = 1/3 + 1/3, but the classical greedy gives 1/2 + 1/6. The
        # report is rendered from the run, so only the term rule is broken.
        e = fs_greedy(2, 3)
        bad = e._replace(terms=(3, 3), trace=tuple(
            rec._replace(q=3, remainder=r) for rec, r in zip(e.trace, (3, 0))))
        code, out, err = _cli(("verify", "-"), json.dumps(expansion_json(bad)))
        assert (code, err) == (1, "")
        assert out == "verification: FAILED sum=exact [step 0: remainder 3 is outside [0, 2)]\n"

    def test_knopf_term_outside_window_fails(self):
        # The window gives a0 = 1 for 2/5 at p = 3; a0 = 4 with its certificate.
        e = knopfmacher_sylvester(Prime(3), Fraction(2, 5))
        a0 = PLocal(Prime(3), 4)
        bad = e._replace(terms=(a0,), trace=(e.trace[0]._replace(q=a0),),
                         certificate=Fraction(-18, 5))
        code, out, err = _cli(("verify", "-"), json.dumps(expansion_json(bad)))
        assert (code, err) == (1, "")
        assert out == ("verification: FAILED orders=increasing growth=ok "
                       "[step 0: term 4 is outside the window [0, 3)]\n")

    def test_tampered_report_fails(self, capsys, tmp_path):
        code, out, _ = run(capsys, "expand", "--alg", "pk", "--p", "3", "--k", "1",
                           "--value", "473/25", "--output", "json")
        data = json.loads(out)
        data["terms"] = data["terms"][:-1]
        data["trace"] = data["trace"][:-1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out2, _ = run(capsys, "verify", str(path))
        assert code == 1

    @pytest.mark.parametrize("argv, tamper, problem", [
        (PK_473_25, lambda d: d["terms"][0].update(unit=str(int(d["terms"][0]["unit"]) + 1)),
         "terms[0].unit differs from the re-rendered report"),
        (PK_473_25, lambda d: d.update(expansion="1/2 + 3/5"),
         "expansion string differs from the terms"),
        (PK_473_25, lambda d: d["trace"][0]["division"].update(jumped=True),
         "step 0: jump flag does not match r"),
        (PK_473_25, lambda d: d["trace"][0]["division"].update(case="case2"),
         "step 0: case does not match a, b and k"),
        (PK_473_25, lambda d: d["trace"][0]["division"].update(rbar="308"),
         "step 0: rbar 308 does not match r"),
        (PK_473_25,
         lambda d: (d["terms"][1].update(unit="0"), d["trace"][1]["q"].update(unit="0")),
         "step 1: term is zero"),
        (PK_473_25, lambda d: _bump(d["trace"][1]["lhs"], "unit", 3),
         "trace[1].lhs.unit differs from the re-rendered report"),
        (PK_473_25, lambda d: _bump(d["trace"][1]["division"]["a"], "unit", 3),
         "step 1: a is not the previous step's r"),
        (PK_473_25, lambda d: _bump(d["trace"][1]["division"]["q"], "unit", 3),
         "trace[1].division.q.unit differs from the re-rendered report"),
        (PK_473_25, lambda d: _bump(d["trace"][1], "tail_ord", 1),
         "step 1: tail_ord 2 is not the order 1"),
        (PK_473_25, lambda d: _bump(d["trace"][0]["division"]["a"], "unit", 3),
         "step 0: a/b differs from the input"),
        (PK_473_25, lambda d: (_bump(d["trace"][2]["division"]["b"], "unit", 3),
                               _bump(d["trace"][2]["lhs"], "unit", 3)),
         "step 2: b is not the previous step's b*q"),
        # rbar = 307 + unit(a) with r = rbar*3 still matches r, but not the bound.
        (PK_473_25, lambda d: d["trace"][0]["division"].update(
            rbar="780", r={"unit": "260", "exp": "2", "value": "2340"}),
         "step 0: rbar 780 is outside [0, unit(a))"),
        (PK_473_25, lambda d: d["trace"][0]["division"].update(
            rbar="780", r={"unit": "260", "exp": "2", "value": "2340"}),
         "step 0: r is not a*q - b"),
        (("--alg", "fs", "--value", "5/11"), lambda d: _bump(d["trace"][0], "remainder", 1),
         "step 0: remainder 5 is not a*q - b"),
        (PK_473_25, lambda d: _bump(d["trace"][1], "index", 4),
         "trace[1].index differs from the re-rendered report"),
        # A lower k only weakens the growth bound, which the run still meets.
        (("--alg", "sylvester", "--p", "7", "--k", "1", "--max-terms", "4") + QUAD_XI,
         lambda d: _bump(d["trace"][2], "k", -1),
         "step 2: k 0 is not the sylvester k 1"),
        (KNOPF_2_5, lambda d: d.update(certificate="7"),
         "certificate 7 is not negative"),
        (KNOPF_2_5, lambda d: d.update(certificate="-1"),
         "certificate -1 is not the final tail"),
        (PK_473_25, lambda d: d.update(certificate="-1"),
         "certificate -1 on a run with status terminated"),
        # A run k of the wrong kind for its algorithm is one problem, and no
        # step is replayed.
        (("--alg", "adaptive", "--p", "11", "--k", "1", "--value", "5/121"),
         lambda d: d.update(k=None),
         "[k does not fit a adaptive run]"),
        (PK_473_25, lambda d: d.update(status="cap_reached"),
         "status cap_reached but the replayed tail is zero"),
        (PK_473_25, lambda d: d.update(status="certified_nonterminating"),
         "status certified_nonterminating without a certificate"),
        (PK_473_25, lambda d: d["terms"][1].update(display="3/6"),
         "terms[1].display differs from the re-rendered report"),
        (PK_473_25, lambda d: d["terms"][2].update(value="1"),
         "terms[2].value differs from the re-rendered report"),
        (PK_473_25, lambda d: d["verification"].update(ok=False),
         "verification.ok differs from the re-rendered report"),
        (PK_473_25, lambda d: d["trace"][1].update(division=None),
         "step 1: division record does not fit a pk run"),
        (("--alg", "fs", "--value", "5/11"), lambda d: d["trace"][1].update(remainder=None),
         "step 1: remainder does not fit a fs run"),
        (("--alg", "fs", "--value", "5/11"), lambda d: d["trace"][0].update(tail_ord="1"),
         "step 0: tail_ord does not fit a fs run"),
        (("--alg", "fs", "--value", "5/11"), lambda d: d.update(k="1"),
         "[k does not fit a fs run]"),
        (KNOPF_2_5, lambda d: d["trace"][0].update(k="2"),
         "step 0: k 2 is not the knopfmacher k 1"),
        (KNOPF_2_5, lambda d: d["trace"][0].update(initial=False),
         "trace[0].initial differs from the re-rendered report"),
        # An integer term, the form only fs writes, in a report with a prime.
        (PK_473_25, lambda d: d["terms"].__setitem__(
            0, {"initial": False, "display": "1/2", "q": "2"}),
         "terms[0].q differs from the re-rendered report"),
        # An fs report, which has no prime, relabelled as a run that needs
        # one: the missing prime is one problem, and no step is replayed.
        (FS_5_121, lambda d: d.update(algorithm="adaptive", k="1"),
         "[p None does not fit a adaptive run]"),
        (FS_5_121, lambda d: d.update(algorithm="knopfmacher"),
         "[p None does not fit a knopfmacher run]"),
        (FS_5_121, lambda d: (d.update(algorithm="sylvester", k="1"),
                              d["terms"][0].update(q="24"), d["trace"][0].update(q="24", k="1")),
         "[p None does not fit a sylvester run]"),
        # A deep adaptive record's r one unit off, against the r the replay
        # computes.
        (("--alg", "adaptive") + DEEP_12,
         lambda d: _bump(d["trace"][1]["division"]["r"], "unit", 1),
         "step 1: r is not a*q - b"),
        # A claimed k far above the run's puts the growth floor far above
        # the next order, which the replay still finds.
        (("--alg", "sylvester", "--p", "7", "--k", "1", "--max-terms", "12") + QUAD_XI,
         lambda d: d["trace"][3].update(k="4000000"),
         "step 3: k 4000000 is not the sylvester k 1"),
        # A sylvester run and its steps all claiming no k: the p**k bound
        # needs one, so the run is not replayed.
        (("--alg", "sylvester", "--p", "3", "--k", "1", "--value", "473/25"),
         lambda d: (d.update(k=None), [entry.update(k=None) for entry in d["trace"]]),
         "[k does not fit a sylvester run]"),
    ], ids=["term", "expansion", "jumped", "case", "rbar", "zero-term", "lhs", "a", "q",
            "tail-ord", "first-a", "b", "rbar-bound", "r", "fs-remainder", "index",
            "step-k", "certificate-sign", "certificate-tail", "certificate-status",
            "adaptive-null-k", "status-cap", "status-certified", "display", "value",
            "verification-ok", "no-division", "no-remainder", "fs-tail-ord", "fs-k",
            "knopf-k", "knopf-initial", "int-term-with-prime", "no-prime-adaptive",
            "no-prime-knopf", "no-prime-sylvester", "deep-r", "quadratic-far-k",
            "sylvester-null-k"])
    def test_tampered_claim_fails(self, capsys, tmp_path, argv, tamper, problem):
        code, out, _ = run(capsys, "expand", *argv, "--output", "json")
        data = json.loads(out)
        tamper(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out2, err = run(capsys, "verify", str(path))
        assert code == 1
        assert problem in out2
        assert err == ""

    @pytest.mark.parametrize("argv, tamper", [
        (PK_473_25, lambda d: d["trace"][1]["division"].update(a=None)),
        (PK_473_25, lambda d: d["trace"][1].update(q=None)),
        # A Z[1/p] value in a report without a prime.
        (("--alg", "fs", "--value", "5/11"),
         lambda d: d["trace"][0].update(initial=True, q={"unit": "0", "exp": "0"})),
        (PK_473_25, lambda d: d.update(status="bogus")),
        (PK_473_25, lambda d: d.update(algorithm="bogus")),
        (PK_473_25, lambda d: d.update(command="divide")),
        # An integer term, the form only fs writes, in a report with a prime.
        (PK_473_25, lambda d: d["trace"][0].update(q="2")),
        # A zero denominator, which Fraction rejects with ZeroDivisionError.
        (PK_473_25, lambda d: d["input"].update(value="1/0")),
        (KNOPF_2_5, lambda d: d.update(certificate="1/0")),
        (("--alg", "sylvester", "--p", "7", "--k", "1", "--max-terms", "3") + QUAD_XI,
         lambda d: d["input"].update(y="1/0")),
    ], ids=["null-a", "null-q", "plocal-without-prime", "status", "algorithm", "command",
            "int-trace-q-with-prime", "zero-denominator-value",
            "zero-denominator-certificate", "zero-denominator-y"])
    def test_malformed_report_exits_1(self, capsys, tmp_path, argv, tamper):
        code, out, _ = run(capsys, "expand", *argv, "--output", "json")
        data = json.loads(out)
        tamper(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert err.startswith("error: report: not a valid expand report (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, tamper, tail", [
        (PK_473_25, lambda d: None, "158498-bit/158499-bit"),
        (("--alg", "sylvester", "--p", "7", "--k", "1", "--max-terms", "4") + QUAD_XI,
         lambda d: d.update(status="terminated"),
         "(280774-bit/280776-bit) + (1-bit/4-bit)*sqrt(11)"),
    ], ids=["rational", "quadratic"])
    def test_tail_past_the_digit_limit(self, capsys, tmp_path, argv, tamper, tail):
        # A term q = u*p^100000 leaves a tail too wide for str(), so the
        # problem gives its bit sizes, and the term too wide to render again
        # is listed too.
        code, out, _ = run(capsys, "expand", *argv, "--output", "json")
        data = json.loads(out)
        data["trace"][1]["q"]["exp"] = "100000"
        tamper(data)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        code, out2, err = run(capsys, "verify", str(path))
        assert code == 1
        assert f"[terminated run does not sum to its input (tail {tail})]" in out2
        assert "[report cannot be re-rendered: Exceeds the limit" in out2
        assert err == ""

    def test_order_of_zero_prints_as_infinity(self, capsys, tmp_path):
        # The last step repeated as step 4 follows a zero tail, so its order
        # +Infinity appears in two problem texts.
        code, out, _ = run(capsys, "expand", *PK_473_25, "--output", "json")
        data = json.loads(out)
        del data["verification"]
        data["terms"].append(dict(data["terms"][-1]))
        data["trace"].append(dict(data["trace"][-1], index="4"))
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(data))
        code, out2, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "[step 4: tail_ord 9 is not the order +Infinity]" in out2
        assert "[order not increasing at step 4: +Infinity -> 9]" in out2
        assert err == ""

    # Each field that copies a value the parser reads elsewhere: the terms
    # (the trace's q values), indices and initial flags (the positions), lhs
    # (the division's b) and the division's q (the step's).
    COPIES = {
        "pk": (PK_473_25, ("terms[1].unit", "terms[1].exp", "terms[1].value",
                           "terms[1].display", "terms[1].initial", "trace[1].index",
                           "trace[1].initial", "trace[1].lhs.unit", "trace[1].lhs.exp",
                           "trace[1].lhs.value", "trace[1].division.q.unit",
                           "trace[1].division.q.exp", "trace[1].division.q.value")),
        "knopf": (("--alg", "knopf", "--p", "3", "--value", "3/7"),
                  ("terms[0].initial", "terms[0].unit", "trace[0].initial",
                   "trace[1].initial", "trace[1].index")),
        "fs": (("--alg", "fs", "--value", "5/11"), ("terms[0].q", "terms[1].initial",
                                                    "trace[0].index", "trace[0].initial")),
        "sylvester-quad": (("--alg", "sylvester", "--p", "7", "--k", "1", "--max-terms", "3")
                           + QUAD_XI, ("terms[2].unit", "terms[2].exp", "trace[2].index")),
    }

    @pytest.mark.parametrize("name", sorted(COPIES))
    def test_each_copy_edited_alone_is_one_problem(self, name):
        argv, paths = self.COPIES[name]
        code, out, _ = _cli(("expand",) + argv + ("--output", "json"))
        assert code == 0
        for path in paths:
            data = json.loads(out)
            *keys, leaf = path.replace("[", ".").replace("]", "").split(".")
            parent = data
            for key in keys:
                parent = parent[int(key) if key.isdigit() else key]
            parent[leaf] = _edited(parent[leaf], 1)
            code, text, err = _cli(("verify", "-", "--output", "json"), json.dumps(data))
            assert (code, err) == (1, ""), path
            problems = json.loads(text)["verification"]["problems"]
            assert problems == [f"{path} differs from the re-rendered report"]

    # Term exponents no valid run has, and a division record's r exponent:
    # each used to cost seconds, or never finished, before verify failed. A
    # step's claimed k of -10**6 widens no bound: the bound takes the k the
    # algorithm gives the step (the run's k on pk, 1 on knopf). A rational
    # sylvester remainder too wide for str() is printed by its bit length.
    FAR = {
        "knopf-head": (("--alg", "knopf", "--p", "3", "--value", "3/7"),
                       lambda d: [entry.update(unit="1", exp=str(10**400))
                                  for entry in (d["terms"][0], d["trace"][0]["q"])],
                       "[step 0: term exponent 1" + "0" * 400 + " is too far from the order 1 "
                       "to be valid]"),
        "pk-q": (PK_473_25, lambda d: d["trace"][1]["q"].update(exp="4000000"),
                 "[step 1: term exponent 4000000 is too far from the order 1 to be valid]"),
        "pk-r": (PK_473_25, lambda d: d["trace"][1]["division"]["r"].update(exp=str(10**400)),
                 "[step 1: r is not a*q - b]"),
        "pk-k": (PK_473_25,
                 lambda d: [d["trace"][1].update(k=str(-10**6)),
                            d["trace"][1]["division"].update(k=str(-10**6)),
                            d["trace"][1]["q"].update(exp=str(10**6))],
                 "[step 1: term exponent 1000000 is too far from the order 1 to be valid]"),
        "knopf-k": (("--alg", "knopf", "--p", "3", "--value", "3/7"),
                    lambda d: [d["trace"][1].update(k=str(-10**6)),
                               d["trace"][1]["q"].update(exp=str(10**6))],
                    "[step 1: term exponent 1000000 is too far from the order 1 to be valid]"),
        "sylvester-q": (("--alg", "sylvester", "--p", "3", "--k", "1", "--value", "473/25",
                         "--max-terms", "3"),
                        lambda d: d["trace"][1]["q"].update(exp="100000"),
                        "[step 1: remainder 158509-bit is outside [0, 307*3^2)]"),
    }

    @pytest.mark.parametrize("name", sorted(FAR))
    def test_far_claimed_exponent_fails_at_once(self, name):
        argv, tamper, problem = self.FAR[name]
        code, out, _ = _cli(("expand",) + argv + ("--output", "json"))
        data = json.loads(out)
        tamper(data)
        # In a subprocess with a timeout, so that a broken bound fails the
        # test instead of hanging the suite.
        env = dict(os.environ, PYTHONPATH=SRC)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "padic_sylvester.cli", "verify", "-"],
                              input=json.dumps(data), capture_output=True, text=True,
                              env=env, timeout=10)
        assert time.perf_counter() - start < 2
        assert (done.returncode, done.stderr) == (1, "")
        assert problem in done.stdout
        assert "[report cannot be re-rendered: Exceeds the limit" in done.stdout

    @staticmethod
    def _pk_run_k(K):
        """The 473/25 pk report with the run's k, every step's k and its
        division's k set to -K, and step 1's term exponent set to K: each
        step's own bound allows the exponent, as the claimed run k gives
        pk_divide's case 2."""
        def tamper(d):
            d["k"] = str(-K)
            for entry in d["trace"]:
                entry["k"] = entry["division"]["k"] = str(-K)
            d["trace"][1]["q"]["exp"] = str(K)
        problem = f"[step 1: term exponent {K} is too far from the order 1 to be valid]"
        return PK_473_25, tamper, problem

    @staticmethod
    def _knopf_appended(*exps):
        """The 2/5 knopf report at p = 3 capped at 1 term (certified at its
        head) with terms 3**e appended, each at the largest exponent the
        step's own bound allows: the allowances compound, as each term moves
        the next step's order by as much."""
        def tamper(d):
            for e in exps:
                d["trace"].append(dict(d["trace"][0], index=str(len(d["trace"])), initial=False,
                                       q={"unit": "1", "exp": str(e), "value": "1"}))
        return (("--alg", "knopf", "--p", "3", "--value", "2/5", "--max-terms", "1"), tamper,
                "[step 2: term exponent 786438 is too far from the order -262146 to be valid]")

    RUN_WIDE = {
        "pk-run-k-1e7": lambda: TestVerifyCommand._pk_run_k(10**7),
        "pk-run-k-1e400": lambda: TestVerifyCommand._pk_run_k(10**400),
        "knopf-2-terms": lambda: TestVerifyCommand._knopf_appended(262146, 786438),
        "knopf-3-terms": lambda: TestVerifyCommand._knopf_appended(262146, 786438, 1835022),
    }

    @pytest.mark.parametrize("name", sorted(RUN_WIDE))
    def test_run_wide_budget_fails_at_once(self, name):
        # A run's k is a claim too, and per-step allowances compound: one
        # budget for the whole replay ends these at once, where a replay
        # bounded only per step builds each power of p and takes seconds to
        # minutes, or never ends (K = 10**400).
        argv, tamper, problem = self.RUN_WIDE[name]()
        code, out, _ = _cli(("expand",) + argv + ("--output", "json"))
        data = json.loads(out)
        tamper(data)
        env = dict(os.environ, PYTHONPATH=SRC)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "padic_sylvester.cli", "verify", "-"],
                              input=json.dumps(data), capture_output=True, text=True,
                              env=env, timeout=10)
        assert time.perf_counter() - start < 2
        assert (done.returncode, done.stderr) == (1, "")
        assert problem in done.stdout

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sylvester_term_moved_by_p_to_the_k_fails(self, sign):
        # The last of 4 rational sylvester terms moved by +-p**k keeps every
        # order and the growth bound; only 0 <= r < a*p**k breaks. The
        # report is rendered from the run, so only the rule is broken.
        p = Prime(101)
        v = Fraction(10**8 + 7, 10**8 + 9)
        e = modified_sylvester(p, 1, v, max_terms=4)
        q = e.terms[-1]
        bad_q = PLocal(p, q.unit + sign * 101 ** (e.k - q.exp), q.exp)
        bad = e._replace(terms=e.terms[:-1] + (bad_q,),
                         trace=e.trace[:-1] + (e.trace[-1]._replace(q=bad_q),))
        v_bad = verify_expansion(p, v, bad)
        r = "26158857*101^4" if sign > 0 else "-7046489*101^4"
        assert v_bad.problems == [f"step 3: remainder {r} is outside [0, 16602673*101^4)"]
        code, out, err = _cli(("verify", "-"), json.dumps(expansion_json(bad)))
        assert (code, err) == (1, "")
        assert out == (f"verification: FAILED orders=increasing growth=ok "
                       f"[{v_bad.problems[0]}]\n")

    def test_garbage_report(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1

    @pytest.mark.parametrize("claim", ["6", "8", "-3", "4000000"])
    def test_tampered_quadratic_order(self, claim):
        # The replay finds each quadratic order from the growth bound and only
        # compares tail_ord, so a wrong claim, one far wider than the norm
        # among them, is one listed problem beside the true order 7. 12 terms
        # is the widest xi report that renders (int/str limit).
        code, out, _ = _cli(("expand", "--alg", "sylvester", "--p", "7", "--k", "1",
                             "--max-terms", "12", "--output", "json") + QUAD_XI)
        assert code == 0
        data = json.loads(out)
        assert data["trace"][3]["tail_ord"] == "7"
        data["trace"][3]["tail_ord"] = claim
        start = time.perf_counter()
        code, out, err = _cli(("verify", "-"), json.dumps(data))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert err == ""
        assert out == (
            f"verification: FAILED orders=increasing growth=ok [step 3: tail_ord {claim} is "
            "not the order 7] [verification.ok differs from the re-rendered report] "
            "[verification.problems[0] differs from the re-rendered report]\n"
        )


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: pk_greedy(Prime(3), 1, PLocal(Prime(3), 473), PLocal(Prime(3), 25)),
            lambda: fs_greedy(5, 11),
            lambda: knopfmacher_sylvester(Prime(3), Fraction(2, 5)),
            lambda: adaptive_pk_greedy(Prime(11), 1, Fraction(5, 121)),
            lambda: modified_sylvester(
                Prime(7), 1,
                QuadElement.make(0, Fraction(1, 11), 11, "+", Prime(7), 2),
                max_terms=3,
            ),
        ],
        ids=["pk", "fs", "knopf", "adaptive", "sylvester-quad"],
    )
    def test_lossless(self, build):
        e = build()
        blob = json.dumps(expansion_json(e))
        p, value, back = expansion_from_json(json.loads(blob))
        assert back == e
        assert value == e.value
        assert p == e.p

    def test_parser_reads_each_value_once(self, monkeypatch):
        # Per pk step: the q, and the division's a, b and r. The terms, the
        # division's q and lhs are copies it never parses.
        code, out, _ = _cli(("expand",) + PK_473_25 + ("--output", "json"))
        built = []

        class Counted(PLocal):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(report, "PLocal", Counted)
        _, _, e = expansion_from_json(json.loads(out))
        assert len(e.trace) == 4
        assert len(built) == 4 * len(e.trace)
        assert all(rec.division.q is rec.q is q for rec, q in zip(e.trace, e.terms))


FUZZ_RUNS = {
    "pk": PK_473_25,
    "adaptive": ("--alg", "adaptive", "--p", "11", "--k", "1", "--value", "5/121"),
    "sylvester": ("--alg", "sylvester", "--p", "5", "--k", "2", "--value=-23/55"),
    "sylvester-quad": ("--alg", "sylvester", "--p", "7", "--k", "1", "--max-terms", "3")
    + QUAD_XI,
    "knopf": KNOPF_2_5,
    "knopf-cap": ("--alg", "knopf", "--p", "5", "--value", "7/3", "--max-terms", "2"),
    "fs": ("--alg", "fs", "--value", "5/11"),
}
_FUZZ_REPORTS = {}


def _cli(argv, stdin=""):
    """cli.main on argv with stdin fed from a string; (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _fuzz_report(name):
    if name not in _FUZZ_REPORTS:
        code, out, _ = _cli(("expand",) + FUZZ_RUNS[name] + ("--output", "json"))
        assert code == 0
        _FUZZ_REPORTS[name] = json.loads(out)
    return _FUZZ_REPORTS[name]


def _reproduces(p, value, e):
    """Whether e's algorithm, run on e's own p, k and input, gives e."""
    cap = len(e.terms) - e.initial if e.status == CAP_REACHED else DEFAULT_MAX_TERMS
    run = {
        "pk": lambda: pk_greedy(p, e.k, *value_operands(value)),
        "adaptive": lambda: adaptive_pk_greedy(p, e.k, value),
        "sylvester": lambda: modified_sylvester(p, e.k, value, max_terms=cap),
        "knopfmacher": lambda: knopfmacher_sylvester(p, value, max_terms=cap),
        "fs": lambda: fs_greedy(*value_operands(value)),
    }[e.algorithm]
    try:
        return run() == e
    except PadicSylvesterError:
        return False


def _leaves(node, path=()):
    """Paths of the leaves of a JSON value, as tuples of keys and indices."""
    if isinstance(node, dict):
        return [leaf for key, child in node.items() for leaf in _leaves(child, path + (key,))]
    if isinstance(node, list):
        return [leaf for i, child in enumerate(node) for leaf in _leaves(child, path + (i,))]
    return [path]


def _edited(value, how):
    if how == "null":
        return None
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + how
    if value is None:
        return str(how)
    try:
        return str(int(value) + how)
    except ValueError:
        return value + str(how)


class TestVerifyFuzz:
    """A single-field edit of a report either makes verify exit 1 with a
    problem or leaves a correct report: the parsed run is the one it was, or
    the one its algorithm gives on its own p, k and input (an adaptive k one
    lower can choose the same k at every step). It never escapes as an
    exception. An edit moves an integer by 1, flips a flag, extends any other
    string, sets a field to null, or removes it."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(FUZZ_RUNS)), st.integers(0, 10**6),
           st.sampled_from([-1, 1, "null", "drop"]))
    def test_single_field_edit(self, name, at, how):
        original = _fuzz_report(name)
        data = json.loads(json.dumps(original))
        path = _leaves(data)[at % len(_leaves(data))]
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = _edited(parent[path[-1]], how)
        code, out, err = _cli(("verify", "-"), json.dumps(data))
        if code == 0:
            edited = expansion_from_json(data)
            assert edited == expansion_from_json(original) or _reproduces(*edited)
            assert out.startswith("verification: ok")
        else:
            assert code == 1
            assert (out.startswith("verification: FAILED") and err == "") or (
                out == "" and err.startswith("error: "))

    DEEP = ("--p", "101", "--k", "1", "--value", "100000007/100000009")
    EXP_RUNS = {
        "pk": PK_473_25,
        "adaptive": FUZZ_RUNS["adaptive"],
        "sylvester": FUZZ_RUNS["sylvester"],
        "pk-deep": ("--alg", "pk") + DEEP,
        "adaptive-deep": ("--alg", "adaptive") + DEEP,
        "sylvester-deep": ("--alg", "sylvester") + DEEP,
    }

    @pytest.mark.parametrize("name", sorted(EXP_RUNS))
    def test_carried_exponent_edits(self, name):
        # A rational replay carries one power of p from step to step. Moving
        # a step's q (term, trace and record alike), r or b exponent up by 1
        # or 1000, down by 1, to twice itself or to 0 makes the carried
        # exponent jump, fall or repeat; every edit that changes the run
        # must fail in the replay itself, and verify must list it.
        argv = ("expand",) + self.EXP_RUNS[name] + ("--output", "json")
        code, out, _ = _cli(argv)
        assert code == 0
        original = json.loads(out)
        before = expansion_from_json(original)
        edits = 0
        for i, rec in enumerate(original["trace"]):
            fields = ("q", "r", "b") if rec["division"] else ("q",)
            for field in fields:
                for how in ("up", "jump", "down", "double", "zero"):
                    data = json.loads(out)
                    step = data["trace"][i]
                    if field == "q":
                        targets = [step["q"], data["terms"][i]]
                        if step["division"]:
                            targets.append(step["division"]["q"])
                    else:
                        targets = [step["division"][field]]
                    exp = int(targets[0]["exp"])
                    new = {"up": exp + 1, "jump": exp + 1000, "down": exp - 1,
                           "double": 2 * exp, "zero": 0}[how]
                    for target in targets:
                        target["exp"] = str(new)
                    edited = expansion_from_json(data)
                    if edited == before:  # a zero r or an exponent already there
                        continue
                    edits += 1
                    assert not verify_expansion(*edited).ok
                    code, text, err = _cli(("verify", "-"), json.dumps(data))
                    assert code == 1
                    assert text.startswith("verification: FAILED") and err == ""
        assert edits >= 3 * len(original["trace"])

