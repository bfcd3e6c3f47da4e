"""Output checks that do not trust the library's own verifier.

Every check works on plain integers and Fractions taken from an expansion's
fields; none calls back into padic_sylvester, so a traced run records no
spans for them. Each function returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from types import SimpleNamespace

# CPython refuses int <-> str conversions of more than 4300 decimal digits.
# With the current library every report of a term above ~14.3k bits hits it.
INT_STR_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"


def is_int_str_limit(exc: BaseException) -> bool:
    return isinstance(exc, ValueError) and INT_STR_LIMIT in str(exc)


def _scaled(p: int, pairs) -> list[int]:
    """Integers n_i with x_i = n_i * p**e for the least exponent e among the
    (unit, exp) pairs, so sums and comparisons stay exact."""
    e = min(exp for _, exp in pairs)
    return [unit * p ** (exp - e) for unit, exp in pairs]


def _pair(x) -> tuple[int, int]:
    return (x, 0) if isinstance(x, int) else (x.unit, x.exp)


def division_problems(p: int, value: Fraction, e) -> list[str]:
    """Re-check each division record of a pk or adaptive run in integers.

    Each step must satisfy b = a*q - r, 0 <= r < a*p**k and
    ord(r) >= ord(a) + k; the next a is r and the next b is b*q; the first
    a/b is the input and the last r is 0. Together these prove that the
    terms sum to the input, without using verify_expansion.
    """
    problems = []
    trace = e.trace
    if not trace or [_pair(t) for t in e.terms] != [_pair(rec.q) for rec in trace]:
        return ["terms differ from the trace's quotients"]
    first = trace[0].division
    a0, b0 = _scaled(p, [_pair(first.a), _pair(first.b)])
    if a0 * value.denominator != b0 * value.numerator:
        problems.append("first a/b is not the input")
    for i, rec in enumerate(trace):
        d = rec.division
        k = rec.k
        if d.q.unit == 0:
            problems.append(f"step {i}: zero quotient")
            continue
        aq = (d.a.unit * d.q.unit, d.a.exp + d.q.exp)
        b, aq_n, r = _scaled(p, [_pair(d.b), aq, _pair(d.r)])
        if b != aq_n - r:
            problems.append(f"step {i}: b != a*q - r")
        r_n, bound = _scaled(p, [_pair(d.r), (d.a.unit, d.a.exp + k)])
        if not 0 <= r_n < bound:
            problems.append(f"step {i}: r outside [0, a*p^k)")
        if d.r.unit and d.r.exp < d.a.exp + k:
            problems.append(f"step {i}: ord(r) < ord(a) + k")
        if i + 1 < len(trace):
            nxt = trace[i + 1].division
            if _pair(nxt.a) != _pair(d.r):
                problems.append(f"step {i}: next a is not r")
            bq = _scaled(p, [(d.b.unit * d.q.unit, d.b.exp + d.q.exp), _pair(nxt.b)])
            if bq[0] != bq[1]:
                problems.append(f"step {i}: next b is not b*q")
    if e.status == "terminated" and trace[-1].division.r.unit != 0:
        problems.append("terminated run ends with a nonzero remainder")
    return problems


def term_fraction(q) -> Fraction:
    if isinstance(q, int):
        return Fraction(q)
    if q.exp >= 0:
        return Fraction(q.unit * int(q.p) ** q.exp)
    return Fraction(q.unit, int(q.p) ** -q.exp)


def sum_problems(value: Fraction, e) -> list[str]:
    """Fraction check of a classical (fs) or Knopfmacher run: a terminated run
    sums to its input, a certified one leaves exactly its negative certificate."""
    fracs = [term_fraction(q) for q in e.terms]
    total = sum((f if e.initial and i == 0 else 1 / f for i, f in enumerate(fracs)),
                Fraction(0))
    if e.status == "terminated" and total != value:
        return [f"terms sum to {total}, not {value}"]
    if e.status == "certified_nonterminating":
        cert = e.certificate
        if cert is None or cert >= 0 or value - total != cert:
            return ["certificate is not the negative remainder"]
    return []


def same_terms(e1, e2) -> bool:
    return [_pair(t) for t in e1.terms] == [_pair(t) for t in e2.terms]


def int_bytes(n: int) -> bytes:
    """Length-prefixed two's-complement bytes of n; never goes through str()."""
    body = n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)
    return len(body).to_bytes(8, "big") + body


class Digest:
    """SHA-256 over the terms of a sequence of expansions, in order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add_expansion(self, label: str, e) -> None:
        self._h.update(label.encode() + b"\0")
        self._h.update(int_bytes(len(e.terms)))
        for q in e.terms:
            if isinstance(q, int):
                self._h.update(int_bytes(q))
            else:
                self._h.update(int_bytes(q.unit) + int_bytes(q.exp))

    def add_bytes(self, label: str, data: bytes) -> None:
        self._h.update(label.encode() + b"\0" + int_bytes(len(data)) + data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def term_sizes(expansions) -> dict:
    """Output size of a group of expansions: terms, summed and largest bits
    of the terms' integer parts, and the largest finite tail order."""
    terms = bits = max_bits = 0
    max_tail = 0
    for e in expansions:
        for q in e.terms:
            b = (q if isinstance(q, int) else q.unit).bit_length()
            terms += 1
            bits += b
            max_bits = max(max_bits, b)
        for rec in e.trace:
            if isinstance(rec.tail_ord, int):
                max_tail = max(max_tail, rec.tail_ord)
    return {"terms": terms, "term_bits": bits, "max_term_bits": max_bits,
            "max_tail_ord": max_tail}


def _plocal(p: int, d) -> SimpleNamespace:
    return SimpleNamespace(unit=int(d["unit"]), exp=int(d["exp"]), p=p)


def expansion_from_report(d: dict) -> SimpleNamespace:
    """The fields of an expand JSON report that the checks above read, as
    plain integers; independent of the library's own report parser."""
    p = None if d["p"] is None else int(d["p"])
    terms = [int(t["q"]) if "q" in t else _plocal(p, t) for t in d["terms"]]
    trace = []
    for rec in d["trace"]:
        div = rec["division"]
        trace.append(SimpleNamespace(
            k=None if rec["k"] is None else int(rec["k"]),
            q=int(rec["q"]) if isinstance(rec["q"], str) else _plocal(p, rec["q"]),
            tail_ord=None,
            division=None if div is None else SimpleNamespace(
                **{key: _plocal(p, div[key]) for key in ("a", "b", "q", "r")}),
        ))
    return SimpleNamespace(
        p=p, terms=terms, trace=trace, status=d["status"],
        initial=bool(d["terms"] and d["terms"][0]["initial"]),
        certificate=None if d["certificate"] is None else Fraction(d["certificate"]),
    )


def ord_q(p: int, f: Fraction) -> int:
    """p-adic order of a nonzero rational, by trial division."""
    v = 0
    n, m = f.numerator, f.denominator
    while n % p == 0:
        n //= p
        v += 1
    while m % p == 0:
        m //= p
        v -= 1
    return v


def expand_report_problems(d: dict) -> list[str]:
    if not d.get("verification", {}).get("ok"):
        return ["report's verification is not ok"]
    if d["input"]["type"] != "rational":
        return []
    value = Fraction(d["input"]["value"])
    e = expansion_from_report(d)
    if d["algorithm"] in ("pk", "adaptive"):
        return division_problems(e.p, value, e)
    return sum_problems(value, e)


def divide_report_problems(d: dict) -> list[str]:
    p, k = int(d["p"]), int(d["k"])
    a, b, r = Fraction(d["a"]), Fraction(d["b"]), Fraction(d["r"])
    q = term_fraction(_plocal(p, d["q"]))
    problems = []
    if b != a * q - r:
        problems.append("b != a*q - r")
    if not 0 <= r < a * Fraction(p) ** k:
        problems.append("r outside [0, a*p^k)")
    if r and ord_q(p, r) < ord_q(p, a) + k:
        problems.append("ord(r) < ord(a) + k")
    return problems


def digits_report_problems(d: dict) -> list[str]:
    p, start = int(d["p"]), int(d["start"])
    digits = [int(c) for c in d["digits"]]
    if not digits or digits[0] == 0 or any(not 0 <= c < p for c in digits):
        return ["digits out of range or leading zero"]
    if "sqrt" in d["value"]:
        return []
    value = Fraction(d["value"])
    rest = value - sum(Fraction(c) * Fraction(p) ** (start + i) for i, c in enumerate(digits))
    if ord_q(p, value) != start or (rest and ord_q(p, rest) < start + len(digits)):
        return ["digits do not reconstruct the value"]
    return []


def compare_report_problems(d: dict) -> list[str]:
    if d["which"] == "scaling":
        return [] if d["holds"] is True else ["scaling correspondence reported as failing"]
    if d["verdict"] not in ("holds", "holds_despite_jump", "fails_with_jump"):
        return [f"unknown verdict {d['verdict']!r}"]
    if d["verdict"] != "holds" and not d["jumps"]:
        return ["correspondence failed without a jump"]
    return []


REPORT_CHECKS = {
    "expand-json": expand_report_problems,
    "divide-json": divide_report_problems,
    "digits-json": digits_report_problems,
    "compare-json": compare_report_problems,
    "verify-json": lambda d: [] if d["verification"]["ok"] else ["verify reported failure"],
}


def cli_problems(check: str, code: int, expect: int, out: str, err: str) -> list[str]:
    """Problems with one CLI process's exit code and output."""
    if code != expect:
        return [f"exit {code}, expected {expect}"]
    if check == "error":
        return [] if err.startswith("error:") else ["no error message"]
    if check == "expand-text":
        return [] if "\nverification: ok" in out else ["no 'verification: ok' line"]
    return REPORT_CHECKS[check](json.loads(out))
