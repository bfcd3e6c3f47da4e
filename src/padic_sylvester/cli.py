"""Command-line front end: divide, expand, verify, compare, digits.

Exit codes: 0 on a successful determination (including a certified
non-terminating expansion), 1 on invalid input or a stdout closed by its
reader, 2 when a run was cut off by the default term cap or by precision
exhaustion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import report
from .digits import digits_of
from .division import check_scaling_correspondence, pk_divide
from .errors import PadicSylvesterError, PrecisionExhausted
from .expansion import (
    CAP_REACHED,
    DEFAULT_MAX_TERMS,
    adaptive_pk_greedy,
    check_nojump_correspondence,
    fs_greedy,
    knopfmacher_sylvester,
    modified_sylvester,
    pk_greedy,
    value_operands,
    verify_expansion,
)
from .quadratic import QuadElement, _check_width, quad_digits
from .valuation import Prime


class UsageError(Exception):
    pass


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag}: cannot parse {text!r} as a rational ({exc})")


def _prime(ns) -> Prime:
    if ns.p is None:
        raise UsageError("--p is required for this command")
    try:
        return Prime(ns.p)
    except PadicSylvesterError as exc:
        raise UsageError(f"--p: {exc}")


def _need_k(ns) -> int:
    if ns.k is None:
        raise UsageError("--k is required for this algorithm")
    return ns.k


QUAD_FLAGS = ("sqrt", "x", "y", "real_sign", "padic_residue")


def _quad_input(ns, p: Prime) -> "QuadElement | None":
    given = [f for f in QUAD_FLAGS if getattr(ns, f) is not None]
    if not given:
        return None
    if ns.value is not None:
        raise UsageError("--value cannot be combined with the quadratic flags")
    if len(given) != len(QUAD_FLAGS):
        missing = sorted(set(QUAD_FLAGS) - set(given))
        raise UsageError(
            "quadratic input needs all of --sqrt --x --y --real-sign --padic-residue; "
            f"missing --{missing[0].replace('_', '-')}"
        )
    try:
        return QuadElement.make(
            _parse_fraction(ns.x, "--x"),
            _parse_fraction(ns.y, "--y"),
            _parse_fraction(ns.sqrt, "--sqrt"),
            ns.real_sign,
            p,
            ns.padic_residue,
        )
    except (PadicSylvesterError, ValueError) as exc:
        raise UsageError(f"quadratic input: {exc}")


def _emit(ns, text, payload) -> None:
    """Print the report in the requested format. text and payload are
    zero-argument renderers; only the requested one runs. A report with a
    value past the int/str digit limit prints nothing and is an error."""
    try:
        out = json.dumps(payload(), indent=2) if ns.output == "json" else text()
    except ValueError as exc:  # str() of a value past the int/str digit limit
        raise UsageError(f"report cannot be printed: {exc}")
    print(out)


def _cmd_expand(ns) -> int:
    explicit_cap = ns.max_terms is not None
    max_terms = ns.max_terms if explicit_cap else DEFAULT_MAX_TERMS
    if max_terms <= 0:
        raise UsageError("--max-terms must be positive")
    alg = ns.alg
    if explicit_cap and alg not in ("knopf", "sylvester"):
        raise UsageError(f"--max-terms does not apply to --alg {alg}")
    if alg == "fs":
        if ns.p is not None or ns.k is not None:
            raise UsageError("--p/--k do not apply to --alg fs")
        if any(getattr(ns, f) is not None for f in QUAD_FLAGS):
            raise UsageError("quadratic input requires --alg sylvester, not fs")
        if ns.value is None:
            raise UsageError("--value is required for --alg fs")
        a, b = value_operands(_parse_fraction(ns.value, "--value"))
        e = fs_greedy(a, b)
        p = None
        value = e.value
    else:
        p = _prime(ns)
        quad = _quad_input(ns, p)
        if quad is not None and alg != "sylvester":
            raise UsageError(f"quadratic input requires --alg sylvester, not {alg}")
        if quad is None and ns.value is None:
            raise UsageError("--value is required")
        if alg == "knopf":
            if ns.k is not None:
                raise UsageError("--k does not apply to --alg knopf")
            value = _parse_fraction(ns.value, "--value")
            e = knopfmacher_sylvester(p, value, max_terms=max_terms)
        elif alg == "pk":
            k = _need_k(ns)
            value = _parse_fraction(ns.value, "--value")
            a, b = value_operands(value)
            e = pk_greedy(p, k, a, b)
        elif alg == "adaptive":
            k = _need_k(ns)
            value = _parse_fraction(ns.value, "--value")
            e = adaptive_pk_greedy(p, k, value)
        else:  # sylvester
            k = _need_k(ns)
            value = quad if quad is not None else _parse_fraction(ns.value, "--value")
            e = modified_sylvester(p, k, value, max_terms=max_terms)
    verification = verify_expansion(p, value, e)
    _emit(ns, lambda: report.expansion_text(e, verification),
          lambda: report.expansion_json(e, verification))
    if e.status == CAP_REACHED and not explicit_cap:
        return 2
    return 0


def _cmd_divide(ns) -> int:
    p = _prime(ns)
    k = _need_k(ns)
    if ns.value is None:
        raise UsageError("--value is required (the fraction a/b; the step divides b by a)")
    value = _parse_fraction(ns.value, "--value")
    a, b = value_operands(value) if value else (0, 1)  # pk_divide rejects a = 0
    step = pk_divide(p, k, a, b)
    _emit(ns, lambda: report.division_text(step), lambda: report.division_json(step))
    return 0


def _cmd_digits(ns) -> int:
    p = _prime(ns)
    count = ns.count
    if count <= 0:
        raise UsageError("--count must be positive")
    value = _quad_input(ns, p)
    if value is not None:
        d = quad_digits(value, count)
    else:
        if ns.value is None:
            raise UsageError("--value is required")
        value = _parse_fraction(ns.value, "--value")
        _check_width(count)
        d = digits_of(p, value, count)
    shown = str(value)
    _emit(ns, lambda: f"value: {shown}\nstart: {d.start}\n"
                      f"digits: {' '.join(str(c) for c in d.digits)}",
          lambda: {
              "schema": report.SCHEMA,
              "command": "digits",
              "p": str(int(p)),
              "value": shown,
              "start": str(d.start),
              "digits": [str(c) for c in d.digits],
          })
    return 0


def _cmd_compare(ns) -> int:
    p = _prime(ns)
    k = _need_k(ns)
    if ns.which == "scaling":
        if ns.value is not None:
            raise UsageError("--value does not apply to --which scaling; use --a and --b")
        if ns.a is None or ns.b is None:
            raise UsageError("--a and --b are required for --which scaling")
        ok = check_scaling_correspondence(p, k, ns.a, ns.b)
        _emit(ns, lambda: f"scaling correspondence: {'holds' if ok else 'FAILS'}",
              lambda: {
                  "schema": report.SCHEMA,
                  "command": "compare",
                  "which": "scaling",
                  "p": str(int(p)),
                  "k": str(k),
                  "a": str(ns.a),
                  "b": str(ns.b),
                  "holds": ok,
              })
        return 0
    if ns.a is not None or ns.b is not None:
        raise UsageError("--a/--b do not apply to --which nojump; use --value")
    if ns.value is None:
        raise UsageError("--value is required for --which nojump")
    value = _parse_fraction(ns.value, "--value")
    res = check_nojump_correspondence(p, k, *value.as_integer_ratio())
    _emit(ns, lambda: "\n".join([
              f"verdict: {res.verdict}",
              f"jumps at steps: {', '.join(map(str, res.jumps)) if res.jumps else 'none'}",
              f"padic terms:     {report.expansion_sum_text(res.padic)}",
              f"classical terms: {report.expansion_sum_text(res.classical)}",
          ]),
          lambda: {
              "schema": report.SCHEMA,
              "command": "compare",
              "which": "nojump",
              "p": str(int(p)),
              "k": str(k),
              "value": str(value),
              "verdict": res.verdict,
              "jumps": [str(i) for i in res.jumps],
              "padic": report.expansion_json(res.padic),
              "classical": report.expansion_json(res.classical),
          })
    return 0


_ABSENT = object()


def _differing_leaves(want, got, path: str = "") -> list[str]:
    """Paths such as terms[1].display of the leaves at which the JSON value
    got differs from want, in type or value, or is missing or extra."""
    if isinstance(want, dict) and isinstance(got, dict):
        keys = list(want) + [key for key in got if key not in want]
        return [leaf for key in keys for leaf in _differing_leaves(
            want.get(key, _ABSENT), got.get(key, _ABSENT), f"{path}.{key}" if path else key)]
    if isinstance(want, list) and isinstance(got, list):
        pad = [_ABSENT] * abs(len(want) - len(got))
        return [leaf for i, (a, b) in enumerate(zip(want + pad, got + pad))
                for leaf in _differing_leaves(a, b, f"{path}[{i}]")]
    return [] if type(want) is type(got) and want == got else [path]


def _cmd_verify(ns) -> int:
    if ns.report == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(ns.report, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise UsageError(f"report: {exc}")
    try:
        data = json.loads(raw)
        p, value, e = report.expansion_from_json(data)
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError,
            PadicSylvesterError) as exc:
        raise UsageError(f"report: not a valid expand report ({exc})")
    v = verify_expansion(p, value, e)
    try:
        # The replay's own verification block, where the report carries one.
        rendered = report.expansion_json(e, v if "verification" in data else None)
    except ZeroDivisionError as exc:
        v.problems.append(f"expansion string cannot be rendered: {exc}")
    except ValueError as exc:  # a value past the int/str digit limit
        v.problems.append(f"report cannot be re-rendered: {exc}")
    else:
        for path in _differing_leaves(rendered, data):
            v.problems.append("expansion string differs from the terms" if path == "expansion"
                              else f"{path} differs from the re-rendered report")
    v = v._replace(ok=not v.problems)
    _emit(ns, lambda: "verification: " + report.verification_text(v),
          lambda: {
              "schema": report.SCHEMA,
              "command": "verify",
              "verification": report.verification_json(v),
          })
    return 0 if v.ok else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that prints its help as a report is printed, so a
    closed stdout raises BrokenPipeError here too; argparse's own help
    write ignores the error from Python 3.11 on."""

    def print_help(self, file=None):
        print(self.format_help(), end="", file=file)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="padic-sylvester",
        description="Finite p-adic Sylvester (Egyptian fraction) expansions "
        "of rationals and real-embeddable quadratic p-adic numbers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, k_flag=True):
        sp.add_argument("--p", type=int, default=None, help="prime base")
        if k_flag:
            sp.add_argument("--k", type=int, default=None, help="digit window exponent")
        sp.add_argument("--output", choices=("text", "json"), default="text")

    def quad_group(sp):
        sp.add_argument("--sqrt", default=None, help="radicand d of the quadratic field")
        sp.add_argument("--x", default=None, help="rational part")
        sp.add_argument("--y", default=None, help="coefficient of sqrt(d)")
        sp.add_argument("--real-sign", dest="real_sign", choices=("+", "-"), default=None,
                        help="which real root of d the embedding uses")
        sp.add_argument("--padic-residue", dest="padic_residue", type=int, default=None,
                        help="residue of sqrt(d) mod p")

    sp = sub.add_parser("expand", help="expand a value into a sum of reciprocals")
    sp.add_argument("--alg", required=True, choices=("fs", "pk", "knopf", "sylvester", "adaptive"))
    sp.add_argument("--value", default=None, help="rational input, e.g. 473/25")
    sp.add_argument("--max-terms", dest="max_terms", type=int, default=None)
    common(sp)
    quad_group(sp)
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("divide", help="one p^k division step: divide b by a for --value a/b")
    sp.add_argument("--value", default=None, help="fraction a/b; the step computes b = a*q - r")
    common(sp)
    sp.set_defaults(func=_cmd_divide)

    sp = sub.add_parser("digits", help="base-p digits of a value")
    sp.add_argument("--value", default=None)
    sp.add_argument("--count", type=int, default=8)
    common(sp, k_flag=False)
    quad_group(sp)
    sp.set_defaults(func=_cmd_digits)

    sp = sub.add_parser("compare", help="correspondence checks against the classical algorithm")
    sp.add_argument("--which", choices=("nojump", "scaling"), default="nojump")
    sp.add_argument("--value", default=None, help="fraction a/b for --which nojump")
    sp.add_argument("--a", type=int, default=None, help="divisor for --which scaling")
    sp.add_argument("--b", type=int, default=None, help="dividend for --which scaling")
    common(sp)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("verify", help="re-verify an expand --output json report")
    sp.add_argument("report", nargs="?", default="-", help="report path, or - for stdin")
    sp.add_argument("--output", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    try:
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code == 2:
                return 1  # argparse has printed the usage and its rejection
            code = exc.code  # --help has printed the help
        else:
            code = ns.func(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the final
        # flush at exit cannot fail again (see the SIGPIPE note in the
        # signal module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PrecisionExhausted as exc:
        print(f"error: precision exhausted: {exc}", file=sys.stderr)
        return 2
    except PadicSylvesterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
